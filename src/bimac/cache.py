"""Append-only JSONL cache for computed E polynomials.

One record per line: {"kind": "E", "key": text, "N": int, "value":
...}, the value a polynomial.  P is not cached: macdonald.bisym_P
rebuilds it from a checked E.  Appends take an exclusive lock so
concurrent workers can share one file, and skip records whose (kind,
key, N) the file already holds, so the file holds each entry once.
"""

from __future__ import annotations

import fcntl
import json
import os

from .render import xpoly_from_json, xpoly_to_json
from .xpoly import coefficient_of
from . import macdonald

ENV_VAR = "BIMAC_CACHE"


def cache_path(explicit=None):
    return explicit or os.environ.get(ENV_VAR)


def _records(text):
    """(line number, record) for each record of JSONL text.

    A final line that does not parse is an append cut short and is
    skipped.  A bad line before it raises json.JSONDecodeError placed in
    the whole text, so its message names the line of the file.
    """
    lines = text.split("\n")
    last = max((n for n, line in enumerate(lines) if line.strip()), default=-1)
    start = 0
    for n, line in enumerate(lines):
        if line.strip():
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                if n == last:
                    return
                raise json.JSONDecodeError(exc.msg, text, start + exc.pos) from None
            yield n + 1, rec
        start += len(line) + 1


def load(path) -> int:
    """Set the file's E records aside for macdonald.nonsym_E; return
    how many.

    A record with no kind or a kind other than E or P, and an E record
    that lacks a field or fails its check, raise ValueError naming the
    line: an E must have N parts and coefficient 1 at x^eta.  nonsym_E
    runs E's full check on a record when it first serves it, and names
    the file and line if it fails.  P records, written by earlier
    versions, are skipped unread.
    """
    if not path or not os.path.exists(path):
        return 0
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    count = 0
    for lineno, rec in _records(text):
        try:
            if rec["kind"] == "E":
                _load_E(rec, f"cache file {path}: line {lineno}")
                count += 1
            elif rec["kind"] != "P":
                raise ValueError(f"unknown record kind {rec['kind']!r}")
        except KeyError as exc:
            raise ValueError(f"line {lineno}: record lacks field {exc}") from exc
        except (AttributeError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return count


def _load_E(rec, origin):
    N = int(rec["N"])
    eta = tuple(int(x) for x in rec["key"].split(","))
    poly = xpoly_from_json(rec["value"])
    if len(eta) != N:
        raise ValueError(f"E record {rec['key']!r} does not have N = {N} parts")
    if not coefficient_of(poly, eta).is_one():
        raise ValueError(f"E record {rec['key']!r} has no coefficient 1 at x^eta")
    macdonald._E_UNCHECKED.setdefault(eta, (poly, origin))


def _key(elem):
    """The (kind, key, N) of an E element's record."""
    return "E", ",".join(str(x) for x in elem.eta), elem.poly.nvars


def _record(elem):
    kind, key, N = _key(elem)
    return {"kind": kind, "key": key, "N": N, "value": xpoly_to_json(elem.poly)}


def _append(path, elems) -> int:
    """Append a record for each E element whose key the file lacks;
    return how many.

    Runs under an exclusive lock.  A torn final line (an append cut
    short) is cut off first, so the next record starts on a line of its
    own.
    """
    with open(path, "a+b") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            fh.seek(0)
            data = fh.read()
            whole = data.rfind(b"\n") + 1
            if whole < len(data):
                fh.truncate(whole)
            known = {(rec["kind"], rec["key"], int(rec["N"]))
                     for _, rec in _records(data[:whole].decode("utf-8"))}
            new = [elem for elem in elems if _key(elem) not in known]
            if new:
                fh.write("".join(json.dumps(_record(elem), sort_keys=True)
                                 + "\n" for elem in new).encode("utf-8"))
                fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    return len(new)


def dump_all(path) -> int:
    """Append every E this process has checked that the file lacks: a P
    built here leaves only its integral multiple of E, so E is formed
    from it first."""
    etas = dict.fromkeys([*macdonald._E_CACHE, *macdonald._K_CACHE])
    return _append(path, [macdonald.nonsym_E(eta) for eta in etas])
