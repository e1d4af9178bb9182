"""Benchmark of bimac: one workload, one seed, a fixed number of passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are described in workloads.py.  A run makes a fixed number of
passes (op lists drawn from the seed), sized to fill about 55 % of S
seconds at the seed commit (workloads.passes), in one process on one
thread, and checks every op's output against its stored reference.  It
starts no pass once S seconds of measuring have gone by, so a slow host
ends the run after at most S seconds and one pass.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Times are reference seconds.  On a shared 2-vCPU virtual machine the
host's speed flips between regimes some 40 % apart within a fraction of
a second, so raw wall times of whole runs spread by 10-30 % between runs,
and single op latencies more.  While a pass runs, a SIGALRM handler
(Sampler) therefore runs a short pure-Python kernel every SAMPLE_EVERY_S
seconds, inside the ops as well as between them; its time is taken out
of every measured interval, and each op is scaled by SAMPLE_REF_S / (mean
kernel time in and around the op).  The kernel runs no bimac code, so a
change to the program moves the scaled times as it moves the raw ones;
the unscaled pass times are printed too.

--trace 0 reports the end-to-end metrics:
  setup_s      median over SETUP_REPEATS fresh interpreters of start-up,
               ``import bimac`` and input generation (plus creating the
               empty cache file on cache_session)
  wall_s       median time of one pass (its op list, client loop included,
               reference checks excluded)
  op_p50_s     median op latency over all passes
  op_tail_s    op latency at the highest percentile that leaves at least
               ten samples beyond it, the maximum below 21 samples
               (percentile and sample count printed)
  peak_rss_mb  peak resident memory of this process
The share of failed ops is failed / attempted in the JSON line (it is 0
on three workloads, so it is printed, not declared as a metric).

--trace 1 runs the first half of those passes (at least one), each
under a tracer (spans.py), and reports the per-layer metrics of
spans.metric_names(): counts and ratios of the first pass, times
(unscaled, and including the sampler's kernel, about 3 % of the time) as
medians over passes, the Q(q,t) corpus replay (corpus.py)
and trace.wall_s, the median traced pass time in reference seconds;
trace.wall_s minus wall_s of the untraced run is the tracing overhead.
Spans of the first pass are written to .perfbench/ at the end of the
run.

``correct`` is false when an op raised or failed its reference check,
except for ops whose reference records a known defect (the r = 0 Pieri
ops); those still count in ``failed``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass

import corpus
import spans
import workloads as wl

SETUP_REPEATS = 7
# calibration: a kernel time of CAL_REF_S (the median of calibrate() on
# a 2-vCPU VM) is unit speed; SAMPLE_REF_S is unit speed for the
# sampler's shorter kernel, set so that sampled scaling gives the pass
# times that scaling by calibrate() between ops gave at the seed (the
# short kernel reads slower inside the program's work than alone)
CAL_LOOPS = 20_000
CAL_ARRAY = 1 << 18
CAL_REF_S = 0.0095
SAMPLE_LOOPS = 1_000
SAMPLE_REF_S = 0.00052
SAMPLE_EVERY_S = 0.02
SAMPLE_WINDOW_S = 0.05
MODULES = ("qt", "xpoly", "sparts", "hecke", "macdonald", "evalsym", "pieri",
           "verify", "cache", "render", "cli")


def import_bimac():
    src = wl.ROOT / "src"
    if not (src / "bimac" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bimac package under {src}")
    sys.path.insert(0, str(src))
    bimac = importlib.import_module("bimac")
    for name in MODULES:
        importlib.import_module(f"bimac.{name}")
    return bimac


def setup_probe(workload, seed):
    """What a user pays before the first op: interpreter start (timed by
    the parent), import and input generation."""
    bimac = import_bimac()
    wl.make_pass(workload, wl.load_refs(), seed, 0, bimac)
    session = wl.Session(workload, bimac)
    session.start_pass()
    session.close()


@functools.cache
def _cal_array():
    return array("q", range(CAL_ARRAY))


def calibrate(loops=CAL_LOOPS):
    """Seconds a fixed pure-Python kernel takes right now: small-dict
    integer work mixed with scattered reads of a 2 MB array, so that it
    feels memory contention as the program does.  It runs no bimac code
    and creates nothing for the garbage collector."""
    a = _cal_array()
    mask = len(a) - 1
    t0 = time.perf_counter()
    d = {}
    x = j = 0
    for i in range(loops):
        j = (j * 1103515245 + 12345) & mask
        k = i % 251
        d[k] = d.get(k, 0) + a[j] * 7919
        x ^= d[k] >> 3
    return time.perf_counter() - t0


def speed(before, after):
    """Factor that turns seconds measured between two calibrations into
    reference seconds."""
    return CAL_REF_S / ((before + after) / 2)


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * speed(before, calibrate()))
    return statistics.median(times)


class Sampler:
    """While active, runs the short kernel every SAMPLE_EVERY_S seconds
    from a SIGALRM handler, in whatever code is running, and keeps each
    kernel time with the moment it ended.  ``stolen`` is the total time
    the handler took, which callers take out of what they measure."""

    def __init__(self):
        self.times, self.kernels = [], []
        self.stolen = 0.0

    def _tick(self, *_):
        t0 = time.perf_counter()
        kernel = calibrate(SAMPLE_LOOPS)
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernels.append(kernel)
        self.stolen += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def factor(self, t0, t1):
        """Factor that turns seconds measured in [t0, t1] into reference
        seconds: from the samples in that interval widened by
        SAMPLE_WINDOW_S on each side (the nearest one if there are none)."""
        lo = bisect.bisect_left(self.times, t0 - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + SAMPLE_WINDOW_S)
        if lo == hi:
            lo, hi = max(0, min(lo, len(self.times) - 1)), lo + 1
        return SAMPLE_REF_S / statistics.fmean(self.kernels[lo:hi])


@dataclass
class Pass:
    """Timings (reference seconds) and checked outputs of one pass."""

    ops: list
    wall: float
    raw_wall: float
    latencies: list
    texts: list
    failed: int
    unexpected: int


def run_pass(session, ops, refs, tracer=None):
    """Run the ops in order under a Sampler.  An op's latency and the
    stretch since the previous op ended (the client loop) are each taken
    without the sampler's time and scaled by the op's factor."""
    results, marks = [], []
    session.start_pass()
    tracing = spans.install(tracer) if tracer else contextlib.nullcontext()
    with tracing, Sampler() as sampler:
        end = (time.perf_counter(), sampler.stolen)
        for op in ops:
            session.before_op()
            start = (time.perf_counter(), sampler.stolen)
            try:
                results.append(session.run(op))
            except Exception:  # an op that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                results.append(None)
            marks.append((end, start, (time.perf_counter(), sampler.stolen)))
            end = marks[-1][2]
    latencies = []
    wall = raw_wall = 0.0
    for (t_prev, s_prev), (t0, s0), (t1, s1) in marks:
        factor = sampler.factor(t_prev, t1)
        latencies.append((t1 - t0 - (s1 - s0)) * factor)
        raw_wall += t1 - t_prev - (s1 - s_prev)
        wall += (t1 - t_prev - (s1 - s_prev)) * factor
    texts, failed, unexpected = [], 0, 0
    for op, result in zip(ops, results):
        text = None if result is None else wl.render(op, result, session.bimac)
        passed, known = (False, False) if text is None else \
            wl.check(op, text, refs)
        if not passed:
            failed += 1
            unexpected += not known
            print(f"perfbench: {op.key}: "
                  f"{'known defect' if known else 'FAILED'}", file=sys.stderr)
        texts.append(text)
    return Pass(ops, wall, raw_wall, latencies, texts, failed, unexpected)


def tail(latencies):
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it, or the maximum when there are fewer than 21,
    where that percentile would lie below the median."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) >= 21 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def run_passes(args, bimac, refs, session, limit):
    """The run's passes, each under a fresh tracer with --trace 1."""
    passes, tracers = [], []
    count = wl.passes(args.workload, args.seconds)
    if args.trace:
        count = max(1, count // 2)
    for k in range(count):
        if time.perf_counter() > limit:
            break
        ops = wl.make_pass(args.workload, refs, args.seed, k, bimac)
        tracer = spans.Tracer() if args.trace else None
        p = run_pass(session, ops, refs, tracer)
        passes.append(p)
        if tracer:
            tracer.counters["cache.file_bytes_end"] = session.cache_bytes()
            outputs = [json.loads(t) for op, t in zip(ops, p.texts)
                       if t is not None and op.kind != "verify"]
            tracer.counters["qt.max_den_degree"] = max(
                map(spans.max_den_degree, outputs), default=0)
            tracers.append(tracer)
    return passes, tracers


def layer_metrics(passes, tracers):
    """Counts of the first traced pass, times as medians over passes."""
    per_pass = [t.metrics() for t in tracers]
    metrics = {}
    for name in spans.metric_names():
        if name.endswith("_s") or name.endswith(".s"):
            metrics[name] = statistics.median(m[name] for m in per_pass)
        else:
            metrics[name] = per_pass[0][name]
    metrics["trace.wall_s"] = statistics.median(p.wall for p in passes)
    return metrics


def unit(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes_end"):
        return "bytes"
    if name.endswith("_degree"):
        return "degree"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    bimac = import_bimac()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    refs = wl.load_refs()
    session = wl.Session(args.workload, bimac)
    # a run stops early only if passes take far longer than at the seed
    limit = time.perf_counter() + args.seconds
    try:
        # the corpus replays first, while poly_gcd's memo is empty
        replay = corpus.replay(bimac, corpus.load(bimac)) if args.trace else {}
        passes, tracers = run_passes(args, bimac, refs, session, limit)
    finally:
        session.close()
    if args.trace:
        tracers[0].write(spans.spans_path(wl.ROOT, args.workload, args.seed))
        metrics = {**layer_metrics(passes, tracers), **replay}
        units = {name: unit(name) for name in metrics}
    else:
        latencies = [x for p in passes for x in p.latencies]
        tail_s, pct, n = tail(latencies)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in passes),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                 "op_tail_s": "s", "peak_rss_mb": "MB"}

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    unexpected = sum(p.unexpected for p in passes)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"ops={attempted} failed={failed} "
          f"(known defects {failed - unexpected}) "
          f"failed_frac={failed / attempted:.6f}")
    print("# pass seconds, unscaled: "
          + " ".join(f"{p.raw_wall:.3f}" for p in passes))
    if not args.trace:
        print(f"# op_tail_s at p{pct:.1f} of {n} op samples")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
