"""Append-only JSONL cache of checked E polynomials, each held as K,
the integral multiple of E_eta that macdonald._integral_E checks.

One record per line: {"kind": "K", "key": "eta_1,..,eta_N", "N": int,
"value": ...}, the value K with every coefficient in Z[q,t].  P is not
cached: macdonald.bisym_P rebuilds it from a checked K, and E is K
divided by its coefficient at x^eta.  Appends take an exclusive lock so
concurrent workers can share one file, and skip records whose (kind,
key, N) the file already holds, so the file holds each entry once.
"""

from __future__ import annotations

import fcntl
import json

from .render import _json_int, xpoly_from_json, xpoly_to_json
from . import macdonald


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
    """Set the file's K records aside for macdonald._integral_E; return
    how many.

    The file is opened for appending, created if missing, so a path
    that cannot be read or written raises OSError here, before any
    work.  A record that is not a JSON object, has no kind or a kind
    other than K, E or P, and a K record that lacks a field or fails
    its check, raise ValueError naming the line: a K record's N and its
    value's N must be JSON integers, its key a composition with N
    nonnegative parts, its value a polynomial in N variables, each
    coefficient must lie in Z[q,t], and the
    coefficient at x^eta must be nonzero, since K = 0 would pass every
    eigenvalue equation.  _integral_E runs the full check on a record
    when it first serves it, and names the file and line if it fails.
    E and P records, written by earlier versions, are skipped unread.
    """
    with open(path, "a+", encoding="utf-8") as fh:
        fh.seek(0)
        text = fh.read()
    count = 0
    for lineno, rec in _records(text):
        try:
            if not isinstance(rec, dict):
                raise ValueError("record is not a JSON object")
            if rec["kind"] == "K":
                _load_K(rec, f"cache file {path}: line {lineno}")
                count += 1
            elif rec["kind"] not in ("E", "P"):
                raise ValueError(f"unknown record kind {rec['kind']!r}")
        except KeyError as exc:
            raise ValueError(f"line {lineno}: record lacks field {exc}") from exc
        except (AttributeError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return count


def _load_K(rec, origin):
    N, key = _json_int(rec["N"], "K record N"), rec["key"]
    parts = key.split(",") if isinstance(key, str) else []
    if N < 1 or len(parts) != N or not all(x.isdecimal() for x in parts):
        raise ValueError(f"K record key {key!r} is not a composition with "
                         f"N = {N} nonnegative parts")
    eta = tuple(int(x) for x in parts)
    K = xpoly_from_json(rec["value"])
    if K.nvars != N:
        raise ValueError(f"K record {key!r} holds a polynomial in {K.nvars} "
                         f"variables, not N = {N}")
    if any(c.c.denominator != 1 or not c.den.is_one()
           for c in K.terms.values()):
        raise ValueError(f"K record {key!r} has a coefficient not in Z[q,t]")
    if K.coefficient(eta).is_zero():
        raise ValueError(f"K record {key!r} has coefficient 0 at x^eta")
    macdonald._K_UNCHECKED.setdefault(eta, (K, origin))


def _key(eta, K):
    """The (kind, key, N) of K's record."""
    return "K", ",".join(str(x) for x in eta), K.nvars


def _record(eta, K):
    kind, key, N = _key(eta, K)
    return {"kind": kind, "key": key, "N": N, "value": xpoly_to_json(K)}


def dump_all(path) -> int:
    """Append a record for each K this process has checked whose key the
    file lacks; return how many.

    Runs under an exclusive lock.  A torn final line (an append cut
    short) is cut off first, so the next record starts on a line of its
    own.
    """
    items = list(macdonald._K_CACHE.items())
    with open(path, "a+b") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            fh.seek(0)
            data = fh.read()
            whole = data.rfind(b"\n") + 1
            if whole < len(data):
                fh.truncate(whole)
            # only K records are written, and legacy E and P records
            # may lack the fields a K record has
            known = {("K", rec["key"], int(rec["N"]))
                     for _, rec in _records(data[:whole].decode("utf-8"))
                     if rec["kind"] == "K"}
            new = [item for item in items if _key(*item) not in known]
            if new:
                fh.write("".join(json.dumps(_record(*item), sort_keys=True)
                                 + "\n" for item in new).encode("utf-8"))
                fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    return len(new)
