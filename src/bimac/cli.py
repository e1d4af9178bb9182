"""Command-line surface: compute E and P polynomials, evaluate, expand
Pieri products, and run verification suites.

Exit codes: 0 success, 1 verification or consistency failure, 2 usage
errors (a request over a size limit among them, refused before any
work), 3 the output could not be written (a closed pipe, a full disk),
a help text included: one error line goes to standard error if it is
still open, and the cache file is not appended to.  Output is
deterministic for identical arguments.  The argparse tree is built on
the first call of main and reused by every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import cache as cachemod
from .errors import CacheRecordError, ConsistencyError
from .evalsym import _P_at, eval_formula
from .macdonald import _K_UNCHECKED, bisym_P, nonsym_E
from .pieri import expansions_equal, pieri_bruteforce, pieri_expand
from .qt import format_scalar
from .render import format_xpoly, xpoly_to_json, diagram_latex
from .sparts import eval_point, lambda_naught, format_spart, parse_spart
from .verify import SUITES, run_suite


class _UsageError(Exception):
    """Bad input: main prints the message as one error line and exits 2."""


# the largest size (degree + 1) * N of an E or P request in N >= 2
# variables, and the largest degree in one, where E_(d) = x^d is d cheap
# steps.  Set where the slowest cold request took 55 s on 2 vCPUs; the
# slowest now takes about 6 s (P "24;" at N = 2, mostly hecke._unpack
# reading P back; E's recursion forms no QTPoly sums, so no qt._lincomb),
# and cold time grows fast in d past it
_MAX_SIZE, _MAX_DEGREE_1 = 50, 10000
# the largest size of an eval --route formula request in N >= 2
# variables, which builds no P: its closed product expanded in at most
# about 2 s on 2 vCPUs at the limit ("74;" at N = 2), and past it the
# time grows as about the fifth power of the degree
_MAX_FORMULA_SIZE = 150
# the most variables verify takes: its hecke suite's A-product lemma walks
# all N! permutations, which took 1.0 s at N = 6 and 48 s at N = 7 with
# --deg 0 on 2 vCPUs
_MAX_VERIFY_N = 6
# the largest size (degree + 1) * N of a pieri request in 2 to
# _MAX_PIERI_N variables, degree = |Lambda| + r that of e_r P_Lambda; in
# more, the E and P limit holds.  Its time goes into expanding each
# coefficient's Phi_d, d up to the largest part, and grows with the
# parts' divisors: within the limit the slowest request found took 6.8 s
# on 2 vCPUs ("336;210,84,24,6" at N = 6, r = 3; "1980;" at N = 2 took
# 0.6 s), and past it "5040;" at N = 2 took 2.8 s.  Past N = 6 the strips
# multiply: within the same size a request took 15 s at N = 7, and
# ";11,10,..,1" at N = 12, r = 4 took 38 s
_MAX_PIERI_SIZE, _MAX_PIERI_N = 4000, 6


def _at_least(flag, value, least):
    if value < least:
        raise _UsageError(f"--{flag} {value} must be at least {least}")


def _bounded(flag, degree, N, limit=_MAX_SIZE):
    """Refuse, before any work, a request of this degree in N variables
    over its limit: limit on (degree + 1) * N for N >= 2, the size of an
    E or P unless the caller states another."""
    if N == 1 and degree > _MAX_DEGREE_1:
        raise _UsageError(f"--{flag} asks for degree {degree} in 1 variable, "
                          f"over the limit of {_MAX_DEGREE_1}")
    if N > 1 and (degree + 1) * N > limit:
        raise _UsageError(
            f"--{flag} asks for degree {degree} in {N} variables, over the "
            f"limit of {limit} on (degree + 1) * N")


def _parse_eta(text):
    try:
        eta = tuple(int(x) for x in text.split(","))
        if min(eta) >= 0:
            return eta
    except ValueError:
        pass
    raise _UsageError(f"--eta {text!r} is not a composition (nonnegative "
                      "integers separated by commas)")


def _parse_spart(args):
    _at_least("N", args.N, 1)
    if args.N > _MAX_SIZE:  # before parse_spart pads to N parts
        raise _UsageError(f"--N {args.N} is over the limit of {_MAX_SIZE} "
                          "on (degree + 1) * N")
    try:
        return parse_spart(args.spart, args.N)
    except ValueError as exc:
        raise _UsageError(exc) from None


def _uses_cache(args):
    """E, P, eval by substitution and pieri --check build polynomials:
    they read the cache file first and append to it after."""
    return (args.command in ("E", "P")
            or args.command == "eval" and args.route != "formula"
            or args.command == "pieri" and args.check)


def _print_xpoly(f, fmt, record=lambda poly: poly):
    """Print f as latex or text, or as json: the record holding f's
    json form."""
    if fmt == "json":
        print(json.dumps(record(xpoly_to_json(f)), sort_keys=True))
    else:
        print(format_xpoly(f, latex=fmt == "latex"))


def cmd_E(args):
    eta = _parse_eta(args.eta)
    if args.N is not None and args.N != len(eta):
        raise _UsageError("--N disagrees with the composition length")
    _bounded("eta", sum(eta), len(eta))
    _print_xpoly(nonsym_E(eta).poly, args.format)
    return 0


def cmd_P(args):
    lam = _parse_spart(args)
    _bounded("spart", lam.degree(), lam.N)
    if args.format == "diagram":  # the diagram of Lambda, with no P built
        print(diagram_latex(lam))
        return 0
    elem = bisym_P(lam)
    _print_xpoly(elem.poly, args.format, lambda poly: {
        "spart": format_spart(lam), "c": elem.c_lam.to_json(),
        "poly": poly})
    return 0


def cmd_eval(args):
    lam = _parse_spart(args)
    _bounded("spart", lam.degree(), lam.N,
             _MAX_FORMULA_SIZE if args.route == "formula" else _MAX_SIZE)
    formula = eval_formula(lam, args.sign)
    if args.route == "formula":
        print(format_scalar(formula))
        return 0
    subst = _P_at(lam, eval_point(lambda_naught(lam.m, lam.N), args.sign))
    if args.route == "substitution":
        print(format_scalar(subst))
        return 0
    print(f"formula:      {format_scalar(formula)}")
    print(f"substitution: {format_scalar(subst)}")
    if formula != subst:
        print("MISMATCH between evaluation routes", file=sys.stderr)
        return 1
    return 0


def cmd_pieri(args):
    lam = _parse_spart(args)
    if args.r < 0:
        raise _UsageError(f"--r {args.r} is negative; e_r needs r >= 0")
    # e_r P_Lambda has degree |Lambda| + r: the oracle builds the P's of
    # that degree, and the expansion the evaluations of the Omega's
    degree = lam.degree() + args.r
    if args.check:
        _bounded("check", degree, lam.N)
    _bounded(f"spart {args.spart!r} with --r {args.r}", degree, lam.N,
             _MAX_PIERI_SIZE if lam.N <= _MAX_PIERI_N else _MAX_SIZE)
    terms = pieri_expand(lam, args.r, args.variant)
    if args.format == "json":
        print(json.dumps([{"spart": format_spart(t.omega),
                           "coeff": t.coeff.to_json()} for t in terms],
                         sort_keys=True))
    else:
        latex = args.format == "latex"
        if not terms:
            print("0")
        for t in terms:
            c = format_scalar(t.coeff, latex=latex)
            if latex:
                print(f"{c} \\, \\mathcal P_{{({format_spart(t.omega)})}}")
            else:
                print(f"P_({format_spart(t.omega)})  *  {c}")
    if not args.check:
        return 0
    oracle = pieri_bruteforce(lam, args.r, args.variant)
    if expansions_equal(terms, oracle):
        print(f"# brute-force check passed ({len(terms)} terms)")
        return 0
    print("MISMATCH against the brute-force expansion:", file=sys.stderr)
    want = {format_spart(t.omega): t.coeff for t in oracle}
    got = {format_spart(t.omega): t.coeff for t in terms}
    for key in sorted(set(want) | set(got)):
        if got.get(key) != want.get(key):
            print(f"  P_({key}): formula {got.get(key)} "
                  f"!= oracle {want.get(key)}", file=sys.stderr)
    return 1


def cmd_verify(args):
    _at_least("N", args.N, 2)
    _at_least("deg", args.deg, 0)
    if args.N > _MAX_VERIFY_N:
        raise _UsageError(f"--N {args.N} is over verify's limit of "
                          f"{_MAX_VERIFY_N} variables")
    # the suites build E's and P's of degree up to --deg, and the pieri
    # suite's oracle the P's of e_r P_Lambda, r <= 2
    _bounded(f"deg {args.deg}",
             args.deg + 2 * (args.suite in ("pieri", "all")), args.N)
    rep = run_suite(args.suite, N=args.N, deg=args.deg)
    for line in rep.lines():
        print(line)
    return 0 if rep.ok else 1


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a help text that cannot be written
    raises OSError, where argparse drops the error; subcommand parsers
    are of this class too."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser():
    parser = _Parser(
        prog="bimac",
        description="Exact bisymmetric Macdonald polynomials, evaluations "
                    "and Pieri expansions")
    parser.add_argument("--cache", help="JSONL cache file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("E", help="non-symmetric Macdonald polynomial")
    p.add_argument("--eta", required=True, help="composition, e.g. 0,1,2")
    p.add_argument("--N", type=int, help="variable count (optional check)")
    p.add_argument("--format", choices=("text", "latex", "json"),
                   default="text")
    p.set_defaults(func=cmd_E)

    p = sub.add_parser("P", help="bisymmetric Macdonald polynomial")
    p.add_argument("--spart", required=True, help='superpartition "a,b;c,d"')
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("text", "latex", "json", "diagram"),
                   default="text")
    p.set_defaults(func=cmd_P)

    p = sub.add_parser("eval", help="staircase evaluation of P")
    p.add_argument("--spart", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--sign", choices=("plus", "minus"), default="minus")
    p.add_argument("--route", choices=("formula", "substitution", "both"),
                   default="formula")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pieri", help="Pieri expansion of e_r times P")
    p.add_argument("--spart", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--variant", choices=("upper", "lower"), default="upper")
    p.add_argument("--check", action="store_true",
                   help="also run the brute-force oracle")
    p.add_argument("--format", choices=("text", "latex", "json"),
                   default="text")
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--suite", default="all",
                   choices=(*SUITES, "all"))
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--deg", type=int, default=3)
    p.set_defaults(func=cmd_verify)
    return parser


def _cache_step(step, path, *args):
    """step(path, *args), a read of or an append to the cache file, with
    a failure to read, write or check it turned into a usage error."""
    try:
        return step(path, *args)
    except OSError as exc:
        raise _UsageError(f"cache file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # also UnicodeDecodeError
        raise _UsageError(f"cache file {path}: {exc}") from None


@functools.cache
def _parser():
    """The one argparse tree of the process, built on first use; each
    parse_args call returns a fresh namespace, so no call sees
    another's arguments."""
    return build_parser()


def _output_failed(exc):
    """Exit 3 after a write to standard output failed: one error line on
    standard error if it is still open, and standard output pointed at
    the null device, so the flush at interpreter exit cannot fail
    again."""
    try:
        print(f"error: the output could not be written: "
              f"{exc.strerror or exc}", file=sys.stderr)
    except OSError:
        pass
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):  # io.UnsupportedOperation: no fd
        pass
    raise SystemExit(3)


def _parse(argv):
    """The parsed arguments.  argparse writes a help or usage text and
    exits from inside parse_args; standard output is flushed before that
    exit, so a help that cannot be written ends in exit 3, as any other
    output does."""
    try:
        try:
            return _parser().parse_args(argv)
        except SystemExit:
            sys.stdout.flush()
            raise
    except OSError as exc:
        _output_failed(exc)


def main(argv=None):
    args = _parse(argv)
    path = args.cache if _uses_cache(args) else None
    try:
        if path == "":
            raise _UsageError("--cache names no file: the path is empty")
        if path is not None:
            seen = _cache_step(cachemod.load, path)
        try:
            code = args.func(args)
            sys.stdout.flush()
        except OSError as exc:
            _output_failed(exc)
        if path is not None:
            _cache_step(cachemod.dump_all, path, seen)
    except (_UsageError, CacheRecordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    finally:
        # records set aside by load and not served end with the request
        _K_UNCHECKED.clear()
    return code


if __name__ == "__main__":
    sys.exit(main())
