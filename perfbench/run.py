"""Benchmark of the artinsum library: one closed-loop client, one thread.

    python3 perfbench/run.py --workload sums --seed 1 --seconds 24 --trace 0

Runs the workload's seeded op list against ``src/artinsum`` of the checkout
it sits in, checks every result, and prints the metrics, one per line with
its unit, then a JSON summary as the last line.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, in CPU seconds scaled to a reference
host speed (see hostspeed.py); ``--trace 1`` runs every op of the same list
untraced and then traced, and reports the per-layer metrics instead, in
unscaled CPU seconds.  See perfbench/README.md for the workloads and what
each metric should move.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter, process_time

from hostspeed import UNIT_NOMINAL_S, HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench-out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LIBRARY_VARS = ("ARTINSUM_BACKEND", "ARTINSUM_MAX_DEGREE")
SETUP_SAMPLES = 15
# set-up probes are short, so they get a larger share of reference samples
SETUP_REFERENCE_SHARE = 0.5
# stop starting ops past this point so a much slower program still exits in time
OP_DEADLINE_S = 140.0

# prints the CPU time the fresh interpreter used to get ready for a first op
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy as np\n"
    "import artinsum\n"
    "from artinsum import _kernels\n"
    "_kernels.rref_mod(np.array([[2, 1], [1, 1]], dtype=np.int64), 101)\n"
    "print(time.process_time())\n"
)


def pin_environment():
    """Unset the library's switches and pin native thread pools to one thread."""
    was_set = {name: name in os.environ for name in LIBRARY_VARS}
    for name in LIBRARY_VARS:
        os.environ.pop(name, None)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    return was_set


def cpu_seconds():
    """CPU time of this process and of its reaped children.

    The library is single-threaded and does no I/O, so an op's CPU time is
    its wall time minus the time it waited for a core held by another
    process; on a shared machine that wait is most of the run-to-run noise.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def measure_setup():
    """CPU time from process start to first-op readiness, median of fresh interpreters.

    Scaled to the reference speed by the reference samples taken between
    the probes; returns (scaled, unscaled, factor).
    """
    host = HostSpeed()
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]))
        host.after(samples[-1], SETUP_REFERENCE_SHARE)
    raw = statistics.median(samples)
    return raw * host.factor(), raw, host.factor()


def run_op(workload, i, op, tracer=None):
    """Run one op; returns its (CPU seconds, or None when it failed; wall seconds)."""
    try:
        prepared = workload.prepare(op) if workload.prepare else None
        # garbage of earlier ops and of the preparation is freed before the
        # timer starts, so neither op times nor peak memory depend on when
        # the cyclic collector last ran
        gc.collect()
        if tracer:
            tracer.begin_op(i)
        w0, t0 = perf_counter(), cpu_seconds()
        try:
            result = workload.run(op, prepared)
        finally:
            cpu, wall = cpu_seconds() - t0, perf_counter() - w0
            if tracer:
                tracer.end_op()
        if workload.check(op, result):
            return cpu, wall
        print(f"failed op {i} ({op.kind}): result failed its check", file=sys.stderr)
    except Exception:  # noqa: BLE001 - every failure is counted, the run goes on
        print(f"failed op {i} ({op.kind}):\n{traceback.format_exc()}", file=sys.stderr)
    return None, 0.0


def run_ops(workload, ops, started, tracer=None, host=None):
    """Run ops in order, each untraced and, given a tracer, then once more traced.

    The traced twin runs right after its untraced op, so drift in the
    machine's speed stays out of the overhead ratio.  Given a ``HostSpeed``,
    the reference is sampled after each untraced op, one sample per op.
    Returns the records of the untraced and of the traced runs.
    """
    plain, traced = [], []
    for i, op in enumerate(ops):
        if monotonic() - started > OP_DEADLINE_S:
            print(f"note: stopped after {i} of {len(ops)} ops at the time limit")
            break
        plain.append(run_op(workload, i, op))
        if host:
            host.after(plain[-1][0] or 0.0)
        if tracer:
            tracer.install()
            try:
                traced.append(run_op(workload, i, op, tracer))
            finally:
                tracer.uninstall()
    return plain, traced


def tail(latencies):
    """Highest percentile with at least ten ops beyond it (the maximum below 11 ops)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, setup, host):
    """The end-to-end metrics, with every time scaled to the reference host speed."""
    setup_s, raw_setup_s, setup_factor = setup
    raw = [cpu for cpu, _ in records if cpu is not None]
    if not raw:
        raise SystemExit("error: no op completed correctly")
    factors = host.local_factors()
    times = [cpu * f for (cpu, _), f in zip(records, factors) if cpu is not None]
    value, pct = tail(times)
    print(f"note: latency_tail_s is p{pct:.1f} of {len(times)} correct ops")
    print(f"note: the timed ops took {sum(raw):.3f} s of CPU and "
          f"{sum(wall for _, wall in records):.3f} s of wall-clock time")
    print(f"note: host speed factor {host.factor():.4f} over the run, "
          f"{min(factors):.4f}-{max(factors):.4f} per op: {host.units} reference units took "
          f"{1e3 * host.cpu / host.units:.2f} ms each against {1e3 * UNIT_NOMINAL_S:.2f} ms "
          f"nominal; unscaled p50 {statistics.median(raw):.4f} s, "
          f"throughput {len(raw) / sum(raw):.4f} ops/s, setup {raw_setup_s:.4f} s "
          f"(set-up factor {setup_factor:.4f})")
    return {
        "throughput_ops_s": (len(times) / sum(times), "ops/s"),
        "latency_p50_s": (statistics.median(times), "s"),
        "latency_tail_s": (value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER_UNITS = {
    "count": ("calls", "_total", "cells"), "bytes": ("bytes_computed",),
    "ratio": ("ratio",), "s": ("_s",),
}


def unit_of(name):
    for unit, endings in PER_LAYER_UNITS.items():
        if name.endswith(endings):
            return unit
    raise KeyError(name)


def per_layer(workload, ops, started, label):
    from spans import SELF_TIME_METRICS, Tracer
    tracer = Tracer()
    plain, traced = run_ops(workload, ops, started, tracer)
    layers = tracer.layer_metrics()
    base = sum(cpu for cpu, _ in plain if cpu is not None)
    layers["trace.overhead_ratio"] = layers["trace.op_s"] / base if base else 0.0
    total = layers["trace.op_s"] or 1.0
    print("self time by layer (share of traced op time):")
    for span, key in SELF_TIME_METRICS.items():
        print(f"  {span:34s} {layers[key]:10.4f} s {100 * layers[key] / total:6.2f} %")
    print(f"  {'(uncovered by any span)':34s} {layers['trace.uncovered_s']:10.4f} s "
          f"{100 * layers['trace.uncovered_s'] / total:6.2f} %")
    path = SPAN_DIR / f"spans-{label}.jsonl"
    tracer.write(path)
    print(f"note: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    metrics = {name: (value, unit_of(name)) for name, value in sorted(layers.items())}
    return plain + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sums", "poincare", "decompose_qq"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="run only the first N ops (for the smoke check)")
    args = parser.parse_args(argv)
    started = monotonic()

    if not (SRC / "artinsum" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    was_set = pin_environment()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import artinsum
    from artinsum import _kernels

    import inputs
    from ops import WORKLOADS

    _kernels.rref_mod(np.array([[2, 1], [1, 1]], dtype=np.int64), 101)
    flags = " ".join(f"{k}={'set(unset for the run)' if v else 'unset'}"
                     for k, v in was_set.items())
    print(f"env backend={_kernels.BACKEND} python={sys.version.split()[0]} "
          f"numpy={np.__version__} artinsum={artinsum.__version__} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} {flags} "
          + " ".join(f"{v}=1" for v in THREAD_VARS))

    ops = inputs.generate(args.workload, args.seed, args.seconds)
    if args.max_ops is not None:
        ops = ops[:args.max_ops]
    if not ops:
        parser.error("no ops to run")
    print(f"inputs workload={args.workload} seed={args.seed} ops={len(ops)} "
          f"passes={inputs.passes_for(args.seconds)} "
          f"sha256={inputs.digest(ops)}")

    workload = WORKLOADS[args.workload]
    if args.trace:
        records, metrics = per_layer(workload, ops, started, f"{args.workload}-seed{args.seed}")
    else:
        setup = measure_setup()
        run_op(workload, -1, ops[0])  # warm-up, untimed: first-call costs stay out
        host = HostSpeed()
        records, _ = run_ops(workload, ops, started, host=host)
        metrics = end_to_end(records, setup, host)

    failed = sum(1 for cpu, _ in records if cpu is None)
    print(f"metric fail_ratio {failed / len(records):.6f} ratio "
          f"({failed} of {len(records)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
