"""Time the north-star CLI runs on two source trees, in alternating pairs.

    python scripts/northstar.py PARENT_SRC CHANGE_SRC [--pairs N]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each run is a fresh interpreter with PYTHONPATH set to one side, so
every run starts cold; within a pair the side that runs first
alternates.  The warm-cache command reads a cache file that each side
first fills, untimed and with its own code, with the K records of the
E's of N = 5, |eta| <= 4 (126 records); the script prints the sha256
of each side's filled file.  After the CLI commands comes a Pieri
sweep, which runs pieri_expand on every superpartition of N = 5 and
N = 6 with |Lambda*| <= 4 (perfbench's pieri_formula pool), every r
and both variants, and prints the sha256 of the rendered terms: a bulk
run of strip enumeration and the coefficients, where one `pieri
--check` call is mostly interpreter start-up.  Last comes a P sweep,
which runs bisym_P and xpoly_to_json on every superpartition of N = 5
and N = 6 with |Lambda| <= 4 (116 P's) and prints the sha256 of the
JSON records: a bulk run of P's construction, normalization and
rendering.  Last comes an E sweep, which runs nonsym_E and
xpoly_to_json on the 126 E's of N = 5 with |eta| <= 4 and prints the
sha256 of the JSON records: a bulk run of E's recursion, eigen check,
monic division and rendering.  For each command it
prints each side's median and quartiles of wall seconds, how many
pairs the change won, and the sha256 of its stdout.  It exits 1 if
any run fails, if the stdout of any two runs of a command differ, or
if the two filled cache files differ, so that a change to the record
format shows.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time

COMMANDS = (
    ["P", "--spart", "3,1;1", "--N", "5"],
    # one coefficient, a t-factorial: c has 152 Phi-factor powers
    ["P", "--spart", "0;", "--N", "50"],
    ["E", "--eta", "15,0"],
    ["pieri", "--spart", "2,0;1", "--r", "2", "--variant", "upper", "--N", "5",
     "--check"],
    # the slowest pieri without --check found within its limit
    ["pieri", "--spart", "336;210,84,24,6", "--N", "6", "--r", "3"],
    ["verify", "--suite", "all", "--N", "4", "--deg", "3"],
    ["verify", "--suite", "all", "--N", "5", "--deg", "3"],
    # mostly the Pieri operator identity, 9-14 s cold
    ["verify", "--suite", "all", "--N", "6", "--deg", "3"],
    # FILE is the side's filled cache file
    ["--cache", "FILE", "P", "--spart", "1;1", "--N", "5"],
)
MAIN = "import sys; from bimac.cli import main; sys.exit(main(sys.argv[1:]))"
FILL = """import itertools, sys
from bimac import cache, macdonald
for eta in itertools.product(range(5), repeat=5):
    if sum(eta) <= 4:
        macdonald.nonsym_E(eta)
cache.dump_all(sys.argv[1])
"""
PIERI_SWEEP = """import hashlib
from bimac.pieri import pieri_expand
from bimac.qt import format_scalar
from bimac.sparts import superpartitions
h = hashlib.sha256()
for N in (5, 6):
    for m in range(N + 1):
        for d in range(5):
            for lam in superpartitions(d, m, N):
                for variant, width in (("upper", N - m), ("lower", m)):
                    for r in range(width + 1):
                        for t in pieri_expand(lam, r, variant):
                            h.update(f"{lam} {r} {variant} {t.omega} "
                                     f"{format_scalar(t.coeff)}\\n".encode())
print(h.hexdigest())
"""
P_SWEEP = """import hashlib, json
from bimac.macdonald import bisym_P
from bimac.render import xpoly_to_json
from bimac.sparts import superpartitions
h = hashlib.sha256()
for N in (5, 6):
    for m in range(N + 1):
        for d in range(5):
            for lam in superpartitions(d, m, N):
                P = bisym_P(lam)
                h.update(json.dumps([lam.anti, lam.sym, N,
                                     xpoly_to_json(P.poly),
                                     P.c_lam.to_json()],
                                    sort_keys=True).encode() + b"\\n")
print(h.hexdigest())
"""
E_SWEEP = """import hashlib, itertools, json
from bimac.macdonald import nonsym_E
from bimac.render import xpoly_to_json
h = hashlib.sha256()
for eta in itertools.product(range(5), repeat=5):
    if sum(eta) <= 4:
        h.update(json.dumps([eta, xpoly_to_json(nonsym_E(eta).poly)],
                            sort_keys=True).encode() + b"\\n")
print(h.hexdigest())
"""


def run(src, argv, code=MAIN):
    """(wall seconds, exit code, stdout sha256) of one cold run of code
    with argv, by default the CLI."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True)
    wall = time.perf_counter() - start
    return wall, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return med, q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent_src, "change": args.change_src}
    with tempfile.TemporaryDirectory() as tmp:
        files = {side: os.path.join(tmp, f"{side}.jsonl") for side in sides}
        for side, src in sides.items():
            if run(src, [files[side]], FILL)[1]:
                print(f"{side} could not fill its cache file")
                return 1
        digests = {}
        for side, file in files.items():
            with open(file, "rb") as fh:
                digests[side] = hashlib.sha256(fh.read()).hexdigest()
            print(f"{side} cache file sha256 {digests[side][:16]}")
        same = len(set(digests.values())) == 1
        if not same:
            print("the filled cache files DIFFER")
        runs = [(" ".join(argv), MAIN, argv) for argv in COMMANDS]
        runs.append(("pieri sweep, N = 5, 6, |Lambda*| <= 4", PIERI_SWEEP,
                     []))
        runs.append(("P sweep, N = 5, 6, |Lambda| <= 4", P_SWEEP, []))
        runs.append(("E sweep, N = 5, |eta| <= 4", E_SWEEP, []))
        return 0 if all([compare(sides, files, label, code, argv,
                                 args.pairs)
                         for label, code, argv in runs]) and same else 1


def compare(sides, files, label, code, argv, pairs):
    """Time code with argv on both sides in alternating pairs, FILE
    standing for the side's cache file, and print the comparison under
    label; whether every run exited 0 and all printed the same stdout."""
    ok = True
    times = {side: [] for side in sides}
    hashes = set()
    for k in range(pairs):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            wall, exit_code, digest = run(sides[side], [
                files[side] if a == "FILE" else a for a in argv], code)
            times[side].append(wall)
            hashes.add(digest)
            if exit_code:
                print(f"{side} exited {exit_code}: {label}")
                ok = False
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(label)
    for side, xs in times.items():
        med, q1, q3 = quartiles(xs)
        print(f"  {side:6}  median {med:.3f} s  quartiles "
              f"{q1:.3f}-{q3:.3f} s  ({len(xs)} runs)")
    same = len(hashes) == 1
    print(f"  change faster in {wins} of {pairs} pairs; stdout "
          + (f"sha256 {min(hashes)[:16]} on every run" if same
             else f"DIFFERS: {len(hashes)} distinct sha256"))
    return ok and same


if __name__ == "__main__":
    sys.exit(main())
