"""copulagrid benchmark: one closed-loop caller driving the library's public API.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload fdd-transport --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --smoke

A run builds its inputs from ``--seed`` and runs one warm-up pass (that is
set-up, repeated ``SETUP_REPS`` times and reported as a median).  It then
repeats the workload's cycle of operations, each operation on its own inputs,
until ``--seconds`` of operation time have passed and at least
``min_cycles`` cycles are done, and finally checks every distinct operation's
output against an independent oracle.  Every time is reported in reference
seconds (see :mod:`calibration`): a fixed kernel is timed between operations,
and each time is scaled by the kernel's reference time over its time at that
moment, so that the host's changes of speed cancel.  ``ops_per_s`` counts
every operation of the timed loop.  Latency percentiles are Harrell-Davis
estimates over the distinct operations of a cycle, each timed as the best of
its first ``min_cycles`` repeats: a fixed count, so a faster commit that fits
more cycles into the run gets no extra chances at a low time.  ``--trace 1`` runs
the same loop once untraced and once traced, and reports per-layer metrics
instead of end-to-end ones.  Every metric is printed as ``name = value
unit``; the last line of standard output is one JSON object.
The exit code is 1 when an operation failed and 2 when the run could not start.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import sys

# Write no bytecode into the checkout, so that in a fresh checkout every run
# imports the same way and the first run's setup_s is no outlier.
sys.dont_write_bytecode = True

import argparse
import json
import math
import platform
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# numpy and copulagrid are imported inside functions, once the import of
# copulagrid has been timed for setup_s.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-up (input generation and warm-up pass) runs this many times; the median counts
SETUP_REPS = 3

#: seconds of operation time between two samples of the calibration kernel
CALIBRATION_INTERVAL_S = 0.1

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all' with --smoke")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke", action="store_true", help="tiny sizes, one cycle, one set-up; checks only"
    )
    return p.parse_args(argv)


def fail_start(message: str) -> int:
    print(f"benchmark cannot start: {message}", file=sys.stderr)
    return 2


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def harrell_davis(sorted_values, pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile of ``sorted_values``.

    A weighted mean of all order statistics with Beta(p(n+1), (1-p)(n+1))
    weights; it moves less than a single order statistic when one operation
    is hit by a burst of load.
    """
    import numpy as np

    n = len(sorted_values)
    a = pct / 100.0 * (n + 1)
    b = (1.0 - pct / 100.0) * (n + 1)
    x = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        pdf = np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf / cdf[-1]))
    return float(np.dot(weights, sorted_values))


def beyond(samples: int, pct: float) -> int:
    """How many of ``samples`` lie above the nearest-rank ``pct`` percentile."""
    return samples - max(1, math.ceil(pct / 100.0 * samples))


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten of ``samples`` beyond it."""
    for pct in TAIL_LADDER:
        if beyond(samples, pct) >= 10:
            return pct
    raise ValueError(f"{samples} samples leave fewer than ten beyond the median")


class Ledger:
    """Outputs, digests and failures of every operation attempted in a run."""

    def __init__(self, cases):
        self.cases = cases
        self.reference = {}  # case index -> first output, checked by the oracle
        self.digest = {}  # case index -> digest of that first output
        self.matched = [0] * len(cases)  # repeats whose digest equals the reference
        self.attempted = 0
        self.failures = []  # (case slot, count, message)

    def record(self, i, output, error):
        self.attempted += 1
        case = self.cases[i]
        if error is not None:
            self.failures.append((case.slot, 1, error))
            return
        digest = case.digest(output)
        if i not in self.reference:
            self.reference[i] = output
            self.digest[i] = digest
            self.matched[i] = 1
        elif digest == self.digest[i]:
            self.matched[i] += 1
        else:
            self.failures.append((case.slot, 1, "output differs from the first run of this case"))

    def check_all(self):
        for i, output in sorted(self.reference.items()):
            case = self.cases[i]
            try:
                messages = case.check(output)
            except Exception:  # an oracle that raises marks its case failed
                messages = [traceback.format_exc(limit=3)]
            if messages:
                self.failures.append((case.slot, self.matched[i], "; ".join(messages)))

    @property
    def failed(self) -> int:
        return sum(count for _, count, _ in self.failures)


def attempt(case):
    try:
        return case.run(), None
    except Exception as exc:  # a failing operation is counted, never fatal
        return None, f"{type(exc).__name__}: {exc}"


@dataclass
class Loop:
    latencies: list  # per case, wall seconds of each repeat
    ref_latencies: list  # per case, the same in reference seconds
    busy: float  # wall seconds of operation time
    ref_busy: float  # reference seconds of operation time
    cycles: int
    speed: object  # the calibration.SpeedLog of the loop

    @property
    def ops(self) -> int:
        return sum(len(lat) for lat in self.latencies)


def timed_loop(cases, seconds, min_cycles, ledger, tracer=None, op_base=0):
    """Repeat the cycle until ``seconds`` of operation time and ``min_cycles`` cycles.

    The calibration kernel is timed between operations, outside the operation
    times.  Returns each case's latencies in the order its repeats ran, both
    in wall seconds and in reference seconds, and the total of each.
    """
    import calibration

    speed = calibration.SpeedLog(CALIBRATION_INTERVAL_S)
    latencies = [[] for _ in cases]
    positions = [[] for _ in cases]
    busy = 0.0
    cycles = 0
    pos = 0
    clock = time.perf_counter
    while cycles < min_cycles or busy < seconds:
        for i, case in enumerate(cases):
            speed.tick(pos, busy)
            if tracer is not None:
                tracer.op_id = op_base + pos
            t0 = clock()
            output, error = attempt(case)
            t1 = clock()
            if tracer is not None:
                tracer.op_id = -1
                if error is None:
                    for (name, counter), value in case.counters(output).items():
                        tracer.add(name, counter, value)
            latencies[i].append(t1 - t0)
            positions[i].append(pos)
            busy += t1 - t0
            pos += 1
            ledger.record(i, output, error)
        cycles += 1
    ref_latencies = [
        [t * speed.factor(p) for t, p in zip(lat, where)]
        for lat, where in zip(latencies, positions)
    ]
    return Loop(latencies, ref_latencies, busy, sum(map(sum, ref_latencies)), cycles, speed)


def latency_stats(latencies, repeats):
    """ops per second, p50, tail and tail percentile of ``latencies``."""
    ops = sum(len(lat) for lat in latencies)
    best = sorted(min(lat[:repeats]) for lat in latencies)
    tail_pct = tail_percentile(len(best))
    return (
        ops / sum(map(sum, latencies)),
        harrell_davis(best, 50.0),
        harrell_davis(best, tail_pct),
        tail_pct,
    )


def end_to_end(loop, repeats, setup_s, rss_mb):
    ops_per_s, p50, tail, tail_pct = latency_stats(loop.ref_latencies, repeats)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "op_p50_s": p50,
        "op_tail_s": tail,
        "peak_rss_mb": rss_mb,
    }
    n = len(loop.latencies)
    wall_ops, wall_p50, wall_tail, _ = latency_stats(loop.latencies, repeats)
    notes = [
        f"op_tail_s is p{tail_pct:g} of {n} distinct ops (best of {repeats}), "
        f"{beyond(n, tail_pct)} beyond it",
        f"wall clock: ops_per_s {wall_ops:.4g} 1/s, op_p50_s {wall_p50:.4g} s, "
        f"op_tail_s {wall_tail:.4g} s",
    ]
    return metrics, notes


def per_layer(stats, children, targets, overhead):
    """Per-layer metrics; counters are per call, so they repeat exactly for a seed."""

    def per_call(name, total):
        calls = stats[name]["calls"]
        return total / calls if calls else 0.0

    def counter(name, key):
        return per_call(name, stats[name].get(key, 0))

    metrics = {}
    for name in targets:
        metrics[f"{name}.calls"] = stats[name]["calls"]
        metrics[f"{name}.self_s"] = stats[name]["self_s"]
    tp = "topology.transport_plan"
    metrics[f"{tp}.pivots"] = counter(tp, "pivots")
    metrics[f"{tp}.support_cells"] = counter(tp, "support_cells")
    pivots = stats[tp].get("pivots", 0)
    metrics[f"{tp}.s_per_pivot"] = stats[tp]["self_s"] / pivots if pivots else 0.0
    metrics["measures.quantile.cdf_evals_per_call"] = per_call(
        "measures.quantile", children.get(("measures.quantile", "measures.cdf_eval"), 0)
    )
    misses = children.get(("projective.family_member", "projective.rule"), 0)
    members = stats["projective.family_member"]["calls"]
    metrics["projective.family_member.hit_ratio"] = 1.0 - misses / members if members else 0.0
    metrics["extremal.maximize_convex.functional_evals"] = counter(
        "extremal.maximize_convex", "functional_evals"
    )
    metrics["extremal.birkhoff_decompose.terms"] = counter("extremal.birkhoff_decompose", "terms")
    metrics["serialize.dumps.bytes"] = counter("serialize.dumps", "bytes")
    metrics["trace.overhead"] = overhead
    return metrics


def dominance(stats, prefixes, busy) -> str:
    covered = sum(
        entry["self_s"]
        for name, entry in stats.items()
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )
    share = covered / busy
    verdict = "held" if share > 0.5 else "missed"
    return f"predicted dominant layer {'+'.join(prefixes)}: {share:.3f} of traced op time, {verdict}"


def run_workload(cg, wl, args, spec) -> int:
    import numpy as np

    import calibration

    schedule = wl.smoke if args.smoke else wl.schedule
    reps = 1 if args.smoke else SETUP_REPS
    setup_times = []  # wall seconds of each set-up
    setup_kernels = []  # median kernel time around each set-up
    for _ in range(reps):
        kernel_times = [calibration.sample()]
        t0 = time.perf_counter()
        cases = wl.build(cg, np.random.default_rng(args.seed), schedule)
        wall = time.perf_counter() - t0
        seen = set()
        for case in cases:
            if case.slot not in seen:
                seen.add(case.slot)
                kernel_times.append(calibration.sample())
                t0 = time.perf_counter()
                attempt(case)
                wall += time.perf_counter() - t0
        kernel_times.append(calibration.sample())
        setup_times.append(wall)
        setup_kernels.append(statistics.median(kernel_times))
    ref = calibration.REFERENCE_KERNEL_S
    setup_wall = args.import_s + statistics.median(setup_times)
    setup_s = args.import_s * ref / statistics.median(setup_kernels) + statistics.median(
        t * ref / k for t, k in zip(setup_times, setup_kernels)
    )

    seconds, min_cycles = (0.0, 1) if args.smoke else (args.seconds, wl.min_cycles)
    ledger = Ledger(cases)
    loop = timed_loop(cases, seconds, min_cycles, ledger)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.smoke:
        metrics, notes = {}, ["smoke run: no statistics"]
    else:
        metrics, notes = end_to_end(loop, min_cycles, setup_s, rss_mb)

    lines = [
        f"# workload {wl.name}, seed {args.seed}, {len(cases)} ops per cycle, "
        f"{loop.cycles} cycles, {loop.ops} ops in {loop.busy:.3f} s of op time "
        f"({loop.ref_busy:.3f} reference s)",
        *(f"# {note}" for note in notes),
        f"# set-up: import {args.import_s:.4f} s + median of {reps} x (inputs + warm-up pass) "
        + ", ".join(f"{t:.4f}" for t in setup_times)
        + f" = {setup_wall:.4f} wall s",
        f"# calibration kernel: median {statistics.median(setup_kernels) * 1e3:.4f} ms in set-up, "
        f"{statistics.median(loop.speed.samples) * 1e3:.4f} ms over "
        f"{len(loop.speed.samples)} samples in the timed loop; reference "
        f"{calibration.REFERENCE_KERNEL_S * 1e3:g} ms",
    ]
    if args.trace:
        import tracing

        tracer = tracing.Tracer(cg)
        tracer.install()
        try:
            traced = timed_loop(cases, seconds, min_cycles, ledger, tracer, op_base=loop.ops)
        finally:
            tracer.uninstall()
        overhead = (traced.ops / traced.ref_busy) / (loop.ops / loop.ref_busy)
        stats = tracer.layer_stats()
        metrics = per_layer(stats, tracer.child_counts(), tracing.TARGETS, overhead)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
        tracer.write(span_file)
        lines.append(
            f"# traced: {traced.cycles} cycles, {traced.ops} ops in {traced.busy:.3f} s, "
            f"{len(tracer.name)} spans written to {span_file.relative_to(ROOT)}"
        )
        lines.append(f"# {dominance(stats, wl.dominant, traced.busy)}")
        lines.append(
            "# trace.overhead is traced ops_per_s / untraced ops_per_s, in reference seconds"
        )

    import oracles

    ledger.check_all()
    lines += [
        f"# commit {read_commit()}, python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {oracles.VERSION}, nproc {os.cpu_count()}, threads {threading.active_count()}",
        f"# fail_ratio = {ledger.failed / ledger.attempted:.6g} "
        f"({ledger.failed} failed of {ledger.attempted} attempted)",
    ]
    for slot, count, message in ledger.failures[:20]:
        lines.append(f"# FAIL {slot} (x{count}): {message}")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics and set(units) != set(metrics):
        missing = sorted(set(units) ^ set(metrics))
        print(f"metrics and BENCHMARK.json disagree on: {missing}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]!r} {units[name]}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if ledger.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "copulagrid" / "__init__.py").is_file():
        return fail_start(f"no copulagrid sources under {SRC.relative_to(ROOT)}")
    if not spec_path.is_file():
        return fail_start("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import copulagrid as cg

    args.import_s = time.perf_counter() - t0
    if not Path(cg.__file__).resolve().is_relative_to(SRC.resolve()):
        return fail_start(f"imported copulagrid from {cg.__file__}, not from {SRC}")

    from workloads import WORKLOADS

    if args.workload == "all" and args.smoke:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        return fail_start(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    status = 0
    for name in names:
        status = max(status, run_workload(cg, WORKLOADS[name], args, spec))
    return status


if __name__ == "__main__":
    sys.exit(main())
