"""Append-only JSONL cache of checked E polynomials, each held as K,
the integral multiple of E_eta that macdonald._integral_E checks.

One record per line: {"kind": "K", "key": "eta_1,..,eta_N", "N": int,
"value": ...}, the value K, a Z[q,t] term dict, in the JSON grammar of
render.terms_to_json; load refuses any row outside it.  P is not
cached: macdonald.bisym_P rebuilds it from a checked K, and E is K
divided by its coefficient at x^eta.  Appends take an exclusive lock so
concurrent workers can share one file, and skip records whose (kind,
key, N) the file already holds, so the file holds each entry once.

A request pays for one read of the file: load checks every record on
its parsed JSON and builds no polynomial, and only a K the request
serves is read, by _integral_E.  The append reads nothing when the
request built no K the file lacks, and otherwise only the bytes other
writers appended after load: the file is append-only before the end of
its last whole line, and a torn tail, the text after it, is cut only
there.
"""

from __future__ import annotations

import fcntl
import json

from .render import _integral_rows, _json_int, _rows_poly, terms_to_json
from . import macdonald


class Seen(int):
    """What load saw, for dump_all: the number of K records load set
    aside (the int value, so a caller that counts records needs nothing
    else), the etas of the K records on whole lines, and end and lines,
    the byte offset and line count at the end of the last whole line."""

    def __new__(cls, count, etas, end, lines):
        seen = super().__new__(cls, count)
        seen.etas, seen.end, seen.lines = etas, end, lines
        return seen


# a file of which nothing is known: dump_all reads it from the start
_UNSEEN = Seen(0, frozenset(), 0, 0)


def _K_records(text, first=1):
    """(line number, eta, value) for each K record of JSONL text whose
    first line is line `first` of the file, after _check_K.

    Text after the last newline that does not parse is an append cut
    short and is skipped.  Any other line that does not parse, a record
    that is not a JSON object, has no kind or a kind other than K, E or
    P, and a K record that fails _check_K raise ValueError naming the
    line.  E and P records, written by earlier versions, are skipped
    unread.
    """
    lines = text.split("\n")
    for lineno, line in enumerate(lines, first):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("record is not a JSON object")
            if rec["kind"] in ("E", "P"):
                continue
            if rec["kind"] != "K":
                raise ValueError(f"unknown record kind {rec['kind']!r}")
            eta, value = _check_K(rec)
        except json.JSONDecodeError as exc:
            if lineno == first + len(lines) - 1:
                return
            raise ValueError(f"line {lineno}: {exc.msg}") from None
        except KeyError as exc:
            raise ValueError(f"line {lineno}: record lacks field {exc}") from exc
        except (AttributeError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        yield lineno, eta, value


def _check_K(rec):
    """(eta, value) of a K record that passes every check load makes,
    each on the JSON rows.

    The record's N and its value's N must be JSON integers, its key a
    composition with N nonnegative parts, its value a polynomial in N
    variables whose every coefficient passes render._integral_rows, and
    the coefficient at x^eta must be nonzero, since K = 0 would pass
    every eigenvalue equation.
    """
    N, key = _json_int(rec["N"], "K record N"), rec["key"]
    parts = key.split(",") if isinstance(key, str) else []
    if N < 1 or len(parts) != N or not all(x.isdecimal() for x in parts):
        raise ValueError(f"K record key {key!r} is not a composition with "
                         f"N = {N} nonnegative parts")
    eta = tuple(int(x) for x in parts)
    value = rec["value"]
    integral, lead = True, []
    for item in value["terms"]:
        coeff = item["coeff"]
        integral = _integral_rows(coeff["num"], coeff["den"]) and integral
        if tuple(map(int, item["x"])) == eta:
            lead = coeff["num"]
    nvars = _json_int(value["N"], "polynomial N")
    if nvars != N:
        raise ValueError(f"K record {key!r} holds a polynomial in {nvars} "
                         f"variables, not N = {N}")
    if not integral:
        raise ValueError(f"K record {key!r} has a coefficient not in Z[q,t]")
    if not _rows_poly(lead):
        raise ValueError(f"K record {key!r} has coefficient 0 at x^eta")
    return eta, value


def load(path) -> Seen:
    """Set the file's K records aside, as JSON, for
    macdonald._integral_E; return what was seen, whose int value is how
    many.

    The file is opened for appending, created if missing, so a path
    that cannot be read or written raises OSError here, before any
    work.  A whole line that does not parse, and a record that fails
    the checks of _K_records, raise ValueError naming the line.
    _integral_E reads a record and runs the full check on it when it
    first serves it, and names the file and line if it fails.
    """
    with open(path, "a+b") as fh:
        fh.seek(0)
        data = fh.read()
    lines = data.count(b"\n")
    count, etas = 0, set()
    for lineno, eta, value in _K_records(data.decode("utf-8")):
        macdonald._K_UNCHECKED.setdefault(
            eta, (value, f"cache file {path}: line {lineno}"))
        count += 1
        if lineno <= lines:
            etas.add(eta)
    return Seen(count, etas, data.rfind(b"\n") + 1, lines)


def _record(eta, K):
    return {"kind": "K", "key": ",".join(str(x) for x in eta), "N": len(eta),
            "value": terms_to_json(len(eta), K)}


def dump_all(path, seen=_UNSEEN) -> int:
    """Append a record for each K this process has checked that the file
    lacks; return how many.

    seen is what load returned for this file.  The K's whose eta it
    names are not looked for; if none is left, the file is not opened.
    Otherwise, under an exclusive lock, only the bytes after seen.end
    are read: a torn final line (an append cut short) is cut off, so
    the next record starts on a line of its own, and the K records
    other writers appended since load, checked as load checks them,
    are not written again.  A line there that does not parse or fails
    its check raises ValueError naming its line in the file.
    """
    new = {eta: K for eta, K in macdonald._K_CACHE.items()
           if eta not in seen.etas}
    if not new:
        return 0
    with open(path, "a+b") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            fh.seek(seen.end)
            data = fh.read()
            whole = data.rfind(b"\n") + 1
            if whole < len(data):
                fh.truncate(seen.end + whole)
            for _, eta, _ in _K_records(data[:whole].decode("utf-8"),
                                        seen.lines + 1):
                new.pop(eta, None)
            fh.write("".join(json.dumps(_record(*item), sort_keys=True)
                             + "\n" for item in new.items()).encode("utf-8"))
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    return len(new)
