"""Time the requests of README's table of size limits, each cold.

    python scripts/limits.py SRC [N ...]

SRC is the ``src`` directory of a checkout.  For each row of the table
(N = 2, 3, 4, 5, 6, 8, 12, 25 and 50 variables, or only the N given),
at the largest degree d with (d + 1)·N <= 50, it runs the table's
requests in that order: ``P`` of the one-part superpartition "d;",
``E`` of (d, 0, ..., 0) for N <= 8, ``eval --route both`` of "d;", and
``pieri --check`` of "(d-1);" with r = 1, lower, for N <= 8, or of "d;"
with r = 0 past it.  Each run is a fresh interpreter with PYTHONPATH
set to SRC, so each is cold, and each command runs once.  For each it
prints the wall seconds, the peak resident set size of that run's
interpreter, the exit code and the sha256 of its stdout, so that two
trees, or a tree before and after a change to a limit, are compared
on the same requests.  It exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import threading
import time

ROWS = (2, 3, 4, 5, 6, 8, 12, 25, 50)
MAIN = "import sys; from bimac.cli import main; sys.exit(main(sys.argv[1:]))"


def requests(N):
    """The table's requests for N variables, at its largest degree."""
    d = 50 // N - 1
    out = [["P", "--spart", f"{d};", "--N", str(N)]]
    if N <= 8:
        out.append(["E", "--eta", ",".join([str(d)] + ["0"] * (N - 1))])
    out.append(["eval", "--spart", f"{d};", "--N", str(N), "--route", "both"])
    if N <= 8:
        out.append(["pieri", "--spart", f"{d - 1};", "--N", str(N), "--r", "1",
                    "--variant", "lower", "--check"])
    else:
        out.append(["pieri", "--spart", f"{d};", "--N", str(N), "--r", "0",
                    "--check"])
    return out


def run(cmd, env):
    """(stdout, exit code, peak RSS in MB) of one fresh interpreter.
    Both pipes are read to their end before os.wait4 reaps the child,
    for its own resource usage: communicate() would reap it first."""
    proc = subprocess.Popen([sys.executable, "-c", MAIN, *cmd], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc.stdout, proc.stderr:
        err = threading.Thread(target=proc.stderr.read)
        err.start()
        out = proc.stdout.read()
        err.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss / 1024  # KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src")
    ap.add_argument("N", type=int, nargs="*")
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    ok = True
    for N in args.N or ROWS:
        for cmd in requests(N):
            start = time.perf_counter()
            out, code, rss = run(cmd, env)
            wall = time.perf_counter() - start
            digest = hashlib.sha256(out).hexdigest()[:16]
            ok = ok and code == 0
            print(f"N = {N:2}  {wall:7.2f} s  {rss:5.0f} MB  exit {code}  "
                  f"sha256 {digest}  {' '.join(cmd)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
