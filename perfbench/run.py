"""ggmlink benchmark: one command, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 25 \
        --trace 0

Run from anywhere; it benchmarks the ggmlink source in `src/` next to
this directory and writes only under `.bench_build/perfbench/` there.

It sets the workload up `SETUP_REPS` times, runs whole passes of the
workload until `--seconds` have passed (at least one), checks every
pass's outputs, then sets up `SETUP_REPS` times more; `setup_s` is the
median of all set-ups, taken on both sides of the timed part so that
one slow moment of the host does not decide it. With `--trace 1` it
then installs the tracer, sets up once and runs traced passes for
`--seconds` more; the per-layer metrics come from those spans, and the
tracing overhead is the traced over the untraced time per pass.
All times are CPU time of this process (`spans.clock_ns`, see there
why); the wall-clock throughput and the time the host stole from this
virtual machine during the run are saved beside them.

Human-readable lines go first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json (untraced) or its per-layer metrics
(traced). The full result, with the context block, is saved as JSON
beside the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import metrics
from spans import Tracer, clock_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# BLAS threads for this process only; read by the BLAS when numpy loads.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPS = 4  # set-ups before and again after the timed passes
# The per-layer self times of all fits of a traced run may fall short of
# the fit latencies the workload's probe measured around them by this
# share: the probe also times its own call and the root span's wrapper.
PROBE_SLACK = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def steal_ns() -> int:
    """Host steal time since boot, summed over CPUs; 0 where the kernel
    does not report it."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            ticks = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0
    return ticks * 10**9 // os.sysconf("SC_CLK_TCK")


def timed_setups(workload) -> list:
    """CPU time (s) of each of `SETUP_REPS` set-ups."""
    out = []
    for _ in range(SETUP_REPS):
        start = clock_ns()
        workload.setup()
        out.append((clock_ns() - start) / 1e9)
    return out


def measure(workload, seconds: float, span) -> dict:
    """Whole passes until `seconds` of CPU time have passed; each pass is
    checked after its timing ends."""
    latencies: list = []
    pass_s, pass_wall_s, checks = [], [], []
    while not pass_s or sum(pass_s) < seconds:
        start, wall_start = clock_ns(), time.perf_counter_ns()
        outputs = workload.run_pass(latencies, span)
        pass_s.append((clock_ns() - start) / 1e9)
        pass_wall_s.append((time.perf_counter_ns() - wall_start) / 1e9)
        checks.append(workload.check(outputs))
    return {"pass_s": pass_s, "pass_wall_s": pass_wall_s,
            "latencies": latencies,
            "attempted": sum(c.attempted for c in checks),
            "failed": sum(c.failed for c in checks),
            "errors": [e for c in checks for e in c.errors]}


def context(seed: int, stolen_s: float, elapsed_s: float) -> dict:
    import numpy as np
    import scipy

    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "src_lines": src_lines,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload_seed": seed,
        "steal_s": stolen_s,
        "steal_frac": stolen_s / (elapsed_s * (os.cpu_count() or 1)),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its children (Linux: KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ggmlink", "__init__.py")):
        print(f"error: no ggmlink source under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)

    import ggmlink
    if os.path.dirname(os.path.dirname(os.path.abspath(ggmlink.__file__))) \
            != SRC:
        print(f"error: imported ggmlink from {ggmlink.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = load_spec()
    steal_start, run_start = steal_ns(), time.perf_counter_ns()
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(out_dir, tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        shape = workload.shape()

        setup_s = timed_setups(workload)
        run = measure(workload, args.seconds, workloads.no_span)
        setup_s += timed_setups(workload)

        traced = layers = None
        if args.trace:
            tracer = Tracer()
            tracer.install(ggmlink)
            try:
                workload.setup()
                tracer.phase = "timed"
                traced = measure(workload, args.seconds, tracer.span)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(out_dir, f"{tag}-spans.jsonl"))
            layers, coverage = trace_metrics(tracer.spans, run, traced,
                                             shape)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stolen_s = (steal_ns() - steal_start) / 1e9
    elapsed_s = (time.perf_counter_ns() - run_start) / 1e9
    e2e = end_to_end(run, setup_s)
    errors = run["errors"] + (traced["errors"] + coverage if traced else [])
    attempted = run["attempted"] + (traced["attempted"] if traced else 0)
    failed = run["failed"] + (traced["failed"] if traced else 0)
    e2e["failed_frac"] = failed / attempted

    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context(args.seed, stolen_s, elapsed_s),
        "shape": shape,
        "passes": len(run["pass_s"]),
        "pass_s": run["pass_s"],
        "pass_wall_s": run["pass_wall_s"],
        "setup_reps_s": setup_s,
        "end_to_end": e2e,
        "per_layer": layers,
        "errors": errors,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print_report(result, spec)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


def end_to_end(run, setup_s) -> dict:
    ok = run["attempted"] - run["failed"]
    out = {
        "setup_s": statistics.median(setup_s),
        "fits_per_s": ok / sum(run["pass_s"]),
        "fits_per_wall_s": ok / sum(run["pass_wall_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.update(metrics.latency_metrics(run["latencies"]))
    return out


def trace_metrics(spans, run, traced, shape):
    """Per-layer metrics, plus the checks that the wrappers saw every
    call and that the fits' layer self times add up to the fit latencies
    measured around them."""
    passes = len(traced["pass_s"])
    fits = shape["fits_per_pass"] * passes
    layers = metrics.per_layer(
        spans, fits=fits, passes=passes, setups=1,
        traced_pass_s=traced["pass_s"], untraced_pass_s=run["pass_s"])
    timed = [s for s in spans if s.phase == "timed"]
    errors = []
    counts = {name: sum(s.name == name for s in timed)
              for name in ("solver.solve", "cli.cmd_fit")}
    if counts["solver.solve"] != fits:
        errors.append(f"wrapper coverage: {counts['solver.solve']} "
                      f"solver.solve spans for {fits} fits")
    expected_fit_spans = fits if shape["cli_fits"] else 0
    if counts["cli.cmd_fit"] != expected_fit_spans:
        errors.append(f"wrapper coverage: {counts['cli.cmd_fit']} "
                      f"cli.cmd_fit spans, expected {expected_fit_spans}")
    if shape["cli_fits"] and not layers["ggm.load_calls"]:
        errors.append("wrapper coverage: no ggm load calls traced")
    gaps = metrics.fit_gaps(timed)
    if len(gaps) != fits or any(gaps.values()):
        errors.append(f"self times: {len(gaps)} fits traced, "
                      f"{sum(1 for g in gaps.values() if g)} do not add up")
    probed_ns, self_ns = sum(traced["latencies"]), metrics.fit_self_ns(timed)
    layers["trace.unaccounted_frac"] = (probed_ns - self_ns) / probed_ns
    if not 0 <= probed_ns - self_ns <= PROBE_SLACK * probed_ns:
        errors.append(f"self times: layers account for {self_ns / 1e9:.4f} s "
                      f"of the {probed_ns / 1e9:.4f} s the fits took")
    layers["self_ms_per_fit"] = metrics.layer_self_ms(spans, fits)
    return layers, errors


def print_report(result, spec) -> None:
    print(f"workload {result['workload']}: {result['shape']['fits_per_pass']}"
          f" fits per pass, {result['passes']} passes, "
          f"{result['end_to_end']['samples']} fit latency samples")
    print("context " + json.dumps(result["context"], sort_keys=True))
    e2e = result["end_to_end"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(metrics.REPORTED)
    for name, value in e2e.items():
        if name != "samples":
            print(f"  {name:24s} {value:12.6g} {units.get(name, 'ms')}")
    if result["per_layer"]:
        for name, value in result["per_layer"].items():
            if name == "self_ms_per_fit":
                print("  self ms per fit by layer: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in value.items()))
            else:
                print(f"  {name:24s} {value:12.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
