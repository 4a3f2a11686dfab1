"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload bp_phase --seed 1 --seconds 15 --trace 0

The process sets up its workload (imports, configs, inputs, one warm-up
call into each layer), then runs whole rounds until `--seconds` have
passed, checks the outputs of the first round, and prints one JSON object
as its last line. With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` each round runs untraced and then traced, and the metrics
are the per-layer ones from the traced rounds. The exit status is 0 only
when every check passed. See README.md for the workloads and metrics.
"""

import os

# BLAS on one thread, set before numpy loads: on a 2-core machine a
# multithreaded OpenBLAS under the harness is both slower and noisier
# (README.md, Steadiness).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _since_process_start() -> float:
    """Seconds since this process started, on the kernel's boot clock."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ripless", "__init__.py")):
        sys.exit(f"bench: no library source at {src}")
    sys.path.insert(0, src)
    import ripless
    if not os.path.abspath(ripless.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported ripless from {ripless.__file__}, not from {src}")


def _round(workload, recorder):
    """One round, under `recorder` when one is given (the first round)."""
    if recorder is None:
        return workload.run_round()
    with recorder:
        return workload.run_round()


def timed_phase(workload, seconds, tracer_cls):
    """Whole rounds until `seconds` pass; the first runs under a recorder.

    Rounds repeat the same work, so each metric is the median over rounds:
    a burst of load from outside the process moves one round, not the
    result."""
    start = time.perf_counter()
    recorder = tracer_cls(spans=False)
    rates, cpus, trials, failed, errors = [], [], 0, 0, []
    first = None
    while first is None or time.perf_counter() - start < seconds:
        t0, c0 = time.perf_counter(), _cpu_s()
        r = _round(workload, recorder if first is None else None)
        rates.append(r.trials / (time.perf_counter() - t0))
        cpus.append(_cpu_s() - c0)
        first = first or r
        trials, failed = trials + r.trials, failed + r.failed
        if r.outcome != first.outcome:
            errors.append(f"round {len(rates)} gave other outputs than round 1")
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "trials_per_s": {"value": statistics.median(rates), "unit": "trial/s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
    }
    return first, recorder.solver_calls, trials, failed, metrics, errors


def traced_phase(workload, seconds, tracer_cls, spans_path):
    """Pairs of rounds, untraced then traced, until `seconds` pass."""
    start = time.perf_counter()
    recorder, tracer = tracer_cls(spans=False), tracer_cls(spans=True)
    pairs, trials, failed, plain_s, traced_s, errors = 0, 0, 0, 0.0, 0.0, []
    first = None
    while first is None or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        plain = _round(workload, recorder if first is None else None)
        t1 = time.perf_counter()
        traced = _round(workload, tracer)
        t2 = time.perf_counter()
        first = first or plain
        pairs += 1
        plain_s, traced_s = plain_s + (t1 - t0), traced_s + (t2 - t1)
        trials += plain.trials + traced.trials
        failed += plain.failed + traced.failed
        if traced.outcome != first.outcome or plain.outcome != first.outcome:
            errors.append(f"pair {pairs}: traced and untraced rounds gave other outputs")
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics(pairs)
    metrics["trace.overhead_s"] = {"value": (traced_s - plain_s) / pairs, "unit": "s"}
    return first, recorder.solver_calls, trials, failed, metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    out_root = os.path.join(ROOT, ".bench_out")
    out_dir = os.path.join(out_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        workload = WORKLOADS[args.workload](args.seed, out_dir)
        workload.warm_up()
        setup_s = _since_process_start()
        if args.trace:
            spans = os.path.join(out_root, f"spans-{args.workload}-{args.seed}.jsonl")
            phase = traced_phase(workload, args.seconds, Tracer, spans)
        else:
            phase = timed_phase(workload, args.seconds, Tracer)
        first, recorded, trials, failed, metrics, errors = phase
        if not args.trace:
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        errors += workload.check(first, recorded)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": trials, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
