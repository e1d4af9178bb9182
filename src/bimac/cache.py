"""Append-only JSONL cache of checked E polynomials, each held as K,
the integral multiple of E_eta that macdonald._integral_E checks.

One record per line: {"kind": "K", "key": "eta_1,..,eta_N", "N": int,
"value": ...}, the value K with every coefficient in Z[q,t].  P is not
cached: macdonald.bisym_P rebuilds it from a checked K, and E is K
divided by its coefficient at x^eta.  Appends take an exclusive lock so
concurrent workers can share one file, and skip records whose (kind,
key, N) the file already holds, so the file holds each entry once.

A request pays for one read of the file: load checks every record on
its parsed JSON and builds no Q(q,t) value, and only a K the request
serves is decoded, by _integral_E.  The append reads nothing when the
request built no K the file lacks, and otherwise only the bytes other
writers appended after load: the file is append-only before the end of
its last whole line, and a torn tail is cut only after it.
"""

from __future__ import annotations

import fcntl
import json

from .qt import _json_terms
from .render import _json_int, xpoly_to_json
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


def _records(text, first=1):
    """(line number, record) for each record of JSONL text whose first
    line is line `first` of the file.

    A final line that does not parse is an append cut short and is
    skipped.  A bad line before it raises json.JSONDecodeError placed in
    the text, so for the whole file its message names the line.
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
            yield first + n, rec
        start += len(line) + 1


def _K_records(text, first=1):
    """(line number, eta, value) for each K record of the text, as
    _records numbers them, after _check_K.

    A record that is not a JSON object, has no kind or a kind other
    than K, E or P, and a K record that fails _check_K, raise
    ValueError naming the line.  E and P records, written by earlier
    versions, are skipped unread.
    """
    for lineno, rec in _records(text, first):
        try:
            if not isinstance(rec, dict):
                raise ValueError("record is not a JSON object")
            if rec["kind"] in ("E", "P"):
                continue
            if rec["kind"] != "K":
                raise ValueError(f"unknown record kind {rec['kind']!r}")
            eta, value = _check_K(rec)
        except KeyError as exc:
            raise ValueError(f"line {lineno}: record lacks field {exc}") from exc
        except (AttributeError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        yield lineno, eta, value


def _check_K(rec):
    """(eta, value) of a K record that passes every check load makes,
    each on the JSON rows, with no Q(q,t) value built.

    The record's N and its value's N must be JSON integers, its key a
    composition with N nonnegative parts, its value a polynomial in N
    variables whose rows read as QTScalar.from_json reads them, each
    coefficient must lie in Z[q,t] (its den rows read 1), and the
    coefficient at x^eta must be nonzero, since K = 0 would pass every
    eigenvalue equation.
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
        num, den = coeff["num"], coeff["den"]
        # the rows xpoly_to_json writes for a coefficient in Z[q,t] pass
        # at a glance; any others are read in full
        if not (_integer_rows(num) and den == [["1", 0, 0]]):
            integral = _in_Z_qt(num, den) and integral
        if tuple(map(int, item["x"])) == eta:
            lead = num
    nvars = _json_int(value["N"], "polynomial N")
    if nvars != N:
        raise ValueError(f"K record {key!r} holds a polynomial in {nvars} "
                         f"variables, not N = {N}")
    if not integral:
        raise ValueError(f"K record {key!r} has a coefficient not in Z[q,t]")
    if not _nonzero(_json_terms(lead)):
        raise ValueError(f"K record {key!r} has coefficient 0 at x^eta")
    return eta, value


def _integer_rows(rows):
    """Whether every row is [integer text, q-degree, t-degree] with
    both degrees nonnegative JSON integers, as xpoly_to_json writes
    them; a row that cannot be unpacked raises what _json_terms
    raises."""
    for c, a, b in rows:
        if not (type(a) is int and type(b) is int and a >= 0 <= b
                and type(c) is str and c.removeprefix("-").isdecimal()):
            return False
    return True


def _nonzero(terms):
    """Whether _json_terms' terms sum to a nonzero polynomial; as in
    QTScalar.from_json, a later term at the same exponents replaces an
    earlier one."""
    return any({(a, b): c for c, a, b in terms}.values())


def _in_Z_qt(num, den):
    """Whether the coefficient of rows num over rows den lies in Z[q,t],
    read as QTScalar.from_json reads it: a den that reads 1 and integer
    num terms.  Raises what QTScalar.from_json raises."""
    num, den = _json_terms(num), _json_terms(den)
    if not _nonzero(den):
        raise ZeroDivisionError("zero denominator in Q(q,t)")
    return den == [(1, 0, 0)] and all(c.denominator == 1 for c, _, _ in num)


def load(path) -> Seen:
    """Set the file's K records aside, as JSON, for
    macdonald._integral_E; return what was seen, whose int value is how
    many.

    The file is opened for appending, created if missing, so a path
    that cannot be read or written raises OSError here, before any
    work.  A line that does not parse before the last raises
    json.JSONDecodeError, and a record that fails the checks of
    _K_records raises ValueError naming the line.  _integral_E decodes
    a record and runs the full check on it when it first serves it, and
    names the file and line if it fails.
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
    return {"kind": "K", "key": ",".join(str(x) for x in eta), "N": K.nvars,
            "value": xpoly_to_json(K)}


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
            try:
                for _, eta, _ in _K_records(data[:whole].decode("utf-8"),
                                            seen.lines + 1):
                    new.pop(eta, None)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {seen.lines + exc.lineno}: "
                                 f"{exc.msg}") from None
            fh.write("".join(json.dumps(_record(*item), sort_keys=True)
                             + "\n" for item in new.items()).encode("utf-8"))
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    return len(new)
