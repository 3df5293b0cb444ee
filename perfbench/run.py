#!/usr/bin/env python3
"""Run one latlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lattice-random --seed 1 --seconds 10 --trace 0

One client in one process sends one op at a time (a closed loop); the `cli`
workload runs one child process at a time.  Inputs come from --seed alone.
With --trace 0 the run measures for about --seconds of op time in several
passes over the same ops (whole rounds, at least 100 ops), takes each op's
fastest time, scales it by the machine's speed measured in the same run, and
reports the end-to-end metrics.
With --trace 1 it runs the same rounds untraced and then traced, and reports
the per-layer metrics of the traced pass, its overhead, and spans written to
.perfbench-out/.  Every op's output is checked after the timed loop.  The last
line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100          # so that at least ten latencies lie beyond p90
SETUP_EVERY_S = 2.5    # op time between two set-up samples
SETUP_MIN_SAMPLES = 11
REFERENCE_MS = 0.35    # timings are scaled to a machine where the reference takes this

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def seeded_random(workload, seed):
    return random.Random("%s/%d" % (workload, seed))


def load_library():
    """Import latlab from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import latlab
    except ImportError as exc:
        sys.exit("perfbench: cannot import latlab from %s: %s" % (src, exc))
    if Path(latlab.__file__).resolve().parent != (src / "latlab").resolve():
        sys.exit("perfbench: latlab was imported from %s, not from %s"
                 % (latlab.__file__, src))


def execute(wl, ops, tracer=None, snapshot_at=None, after=None):
    """Run ops one at a time; returns [(op, result, error, seconds)] and,
    when traced, the counters after the first `snapshot_at` ops.  `after()`
    runs after each op, outside its timed region."""
    out = []
    snapshot = None
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
            sid = tracer.begin("op")
        start = time.perf_counter()
        try:
            result, error = wl.execute(op), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, exc.with_traceback(None)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(sid)
            wl.probe(op, tracer)
            if k + 1 == snapshot_at:
                snapshot = Counter(tracer.counts)
        out.append((op, result, error, elapsed))
        if after is not None:
            after()
    return out, snapshot


def timed_rounds(wl, rnd, seconds, min_ops, min_rounds, between=None, after=None):
    """Whole rounds until `seconds` of op time, `min_ops` and `min_rounds`;
    `between(busy)` runs after each round and `after()` after each op,
    outside the timed region."""
    rounds, results, busy = [], [], 0.0
    while busy < seconds or len(results) < min_ops or len(rounds) < min_rounds:
        ops = wl.round(rnd)
        rounds.append(ops)
        part, _ = execute(wl, ops, after=after)
        results += part
        busy += sum(r[3] for r in part)
        if between is not None:
            between(busy)
    return rounds, results, busy


def check_all(wl, results):
    """Check every op; returns (failed, wrong, unsolved, reasons, output digest).

    An op that ends in latlab's BudgetExceededError is unsolved, not failed:
    the library answered, as documented, that the search needs more nodes
    than it was given."""
    from latlab.errors import BudgetExceededError

    import workloads

    failed = wrong = unsolved = 0
    reasons = Counter()
    digest = hashlib.sha256()
    for op, result, error, _ in results:
        try:
            if isinstance(error, BudgetExceededError):
                unsolved += 1
                reasons["unsolved: node budget exhausted"] += 1
                text = "unsolved"
            elif error is not None:
                raise workloads.Failed(type(error).__name__)
            else:
                text = wl.check(op, result)
        except workloads.Failed as exc:
            failed += 1
            reasons["failed: %s" % exc] += 1
            text = "failed"
        except workloads.Wrong as exc:
            failed += 1
            wrong += 1
            reasons["wrong: %s" % exc] += 1
            text = "wrong"
        digest.update(text.encode("utf-8") + b"\n")
    return failed, wrong, unsolved, reasons, digest.hexdigest()


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class SetupSampler:
    """Import time of latlab and latlab.cli in fresh interpreters, sampled
    every SETUP_EVERY_S of op time through the run, so that one slow spell of
    a shared machine does not decide the median.  Each sample is also scaled
    by the fastest of three reference-kernel times taken right after it."""

    def __init__(self):
        import workloads

        self._import = lambda: workloads.import_seconds(str(ROOT))
        self._import()                       # warm the bytecode cache
        self.samples = []                    # (seconds, scaled seconds)
        self._next = 0.0

    def _sample(self):
        seconds = self._import()
        reference_ms = min(time_reference() for _ in range(3)) * 1e3
        self.samples.append((seconds, seconds * REFERENCE_MS / reference_ms))

    def __call__(self, busy):
        if busy >= self._next:
            self._sample()
            self._next = busy + SETUP_EVERY_S

    def medians(self):
        """(raw, scaled) median over the samples."""
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self._sample()
        return tuple(statistics.median(column) for column in zip(*self.samples))


def reference_kernel():
    """Fixed pure-Python work that shares no code with latlab: Fraction sums,
    an integer Gram matrix and dict updates, about 0.3 ms."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    rows = [[(i * j) % 17 - 8 for j in range(8)] for i in range(8)]
    gram = [sum(a * b for a, b in zip(u, v)) for u in rows for v in rows]
    counts = {}
    for i in range(600):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc, gram, counts


def time_reference():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """The machine's speed through the run, for scaling the timings.

    A shared machine runs the same pass up to 80 % slower in some spells,
    and a spell can outlast a whole run, so even each op's fastest time over
    the passes moves from run to run.  After every op of every pass the
    probe times the reference kernel once and keeps, per op, the fastest
    time over the passes, as for the op itself.  The median over the ops is
    this run's reference time, and every timing is scaled by REFERENCE_MS /
    reference time.  The kernel uses no latlab code, so a change to latlab
    moves the scaled timings as much as the raw ones."""

    def __init__(self):
        self.best = []
        self._slot = 0

    def start_pass(self):
        self._slot = 0

    def __call__(self):
        elapsed = time_reference()
        if self._slot < len(self.best):
            self.best[self._slot] = min(self.best[self._slot], elapsed)
        else:
            self.best.append(elapsed)
        self._slot += 1

    def reference_ms(self):
        return statistics.median(self.best) * 1e3

    def scale(self):
        return REFERENCE_MS / self.reference_ms()


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.  The CPUs of a shared
    machine run at different speeds at the same moment, so a probe that ran
    on one CPU would not tell the speed of an op that ran on the other."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine_info(args, cpu):
    from latlab.enumeration import compiled_available

    return {
        "pinned_cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiled_available": compiled_available(),
    }


def best_of_passes(wl, rnd, seconds, between, speed):
    """Each op's fastest time over the workload's passes through the same
    rounds, spread over the run, with the results and errors of the first
    pass.  The first pass runs whole rounds for a pass's share of `seconds`
    and at least MIN_OPS ops."""
    speed.start_pass()
    rounds, first, _ = timed_rounds(wl, rnd, seconds / wl.passes, MIN_OPS, 1,
                                    between, speed)
    best = [r[3] for r in first]
    busy = sum(best)
    for _ in range(wl.passes - 1):
        speed.start_pass()
        start = 0
        for ops in rounds:
            again, _ = execute(wl, ops, after=speed)
            for k, r in enumerate(again):
                best[start + k] = min(best[start + k], r[3])
            start += len(ops)
            busy += sum(r[3] for r in again)
            between(busy)
    return [r[:3] + (t,) for r, t in zip(first, best)]


def run_untraced(wl, rnd, args):
    setup = SetupSampler()
    speed = SpeedProbe()
    results = best_of_passes(wl, rnd, args.seconds, setup, speed)
    peak = peak_rss_mb(wl)
    failed, wrong, unsolved, reasons, digest = check_all(wl, results)
    raw = [r[3] for r in results]
    scale = speed.scale()
    latencies = [t * scale for t in raw]
    attempted = len(results)
    setup_raw, setup_scaled = setup.medians()
    print("speed: reference kernel %.4f ms over %d ops; unscaled ops_per_s %.3f, "
          "p50 %.3f ms, p90 %.3f ms, setup %.4f s" % (
              speed.reference_ms(), len(speed.best), (attempted - failed) / sum(raw),
              statistics.median(raw) * 1e3, statistics.quantiles(raw, n=10)[8] * 1e3,
              setup_raw))
    metrics = {
        "ops_per_s": (attempted - failed) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "success_rate": (attempted - failed - unsolved) / attempted,
        "setup_s": setup_scaled,
        "peak_rss_mb": peak,
    }
    return attempted, failed, wrong, reasons, digest, metrics, END_TO_END


def run_traced(wl, rnd, args):
    import tracing

    rounds, _, untraced_s = timed_rounds(wl, rnd, args.seconds / 2.0, 0, wl.count_rounds)
    ops = [op for batch in rounds for op in batch]
    counted = sum(len(batch) for batch in rounds[:wl.count_rounds])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results, counts = execute(wl, ops, tracer=tracer, snapshot_at=counted)
    finally:
        tracer.uninstall()
    traced_s = sum(r[3] for r in results)
    failed, wrong, _, reasons, digest = check_all(wl, results)
    metrics = tracing.layer_metrics(tracer, counts, len(results), traced_s, untraced_s)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-seed%d.tsv.gz" % (wl.name, args.seed))
    tracer.write(path, json.dumps(machine_info(args, args.cpu), sort_keys=True))
    print("spans: %d written to %s (counts over the first %d ops)"
          % (len(tracer.spans), path.relative_to(ROOT), counted))
    units = {name: tracing.unit(name) for name in metrics}
    return len(results), failed, wrong, reasons, digest, metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice-random", "lattice-skewed", "groups", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    # on SIGTERM, unwind: the running child is killed and waited for, and the
    # temporary documents are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args.cpu = pin_to_one_cpu()
    load_library()
    import workloads

    wl = workloads.WORKLOADS[args.workload](str(ROOT))
    rnd = seeded_random(args.workload, args.seed)
    print("machine: " + json.dumps(machine_info(args, args.cpu), sort_keys=True))
    run = run_traced if args.trace else run_untraced
    with wl:
        outcome = run(wl, rnd, args)
    attempted, failed, wrong, reasons, digest, metrics, units = outcome

    print("ops: %d attempted, %d failed (%d wrong), error_rate %.6f, output digest %s"
          % (attempted, failed, wrong, failed / attempted, digest[:16]))
    for reason, count in sorted(reasons.items()):
        print("  %5d x %s" % (count, reason))
    for name, value in metrics.items():
        print("%-32s %16.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
