"""The arithmetic that turns timings and spans into metrics.

BENCHMARK.json names the metrics of the result line: its end-to-end
metrics for untraced runs, its per-layer metrics for traced runs.
`REPORTED` are printed and saved with every run but are not in that
line: `fit_ms_p95` and `failed_frac` because they are missing or 0 on
some workload; `fits_per_wall_s`, the throughput by wall clock, which
counts the time the host stole from the virtual machine; per-layer times that are 0 on a workload without their
layer, since a time must vary from run to run; and the share of the
fits' probed latency that no layer's self time accounts for. Per-layer
counts and fractions stay in the line even where their layer is absent
(`ggm.load_calls` and `cli.worker_busy_frac` are 0 on scale-fit). Which
end-to-end metric each per-layer metric should move is in README.md.
"""

from __future__ import annotations

import statistics

from spans import outermost, self_times

REPORTED = {
    "fit_ms_p95": "ms",
    "failed_frac": "frac",
    "fits_per_wall_s": "1/s",
    "cli.fit_self_ms": "ms",
    "cli.generate_s": "s",
    "ggm.load_ms": "ms",
    "ggm.write_ms": "ms",
    "ggm.save_ms": "ms",
    "symmat.read_ms": "ms",
    "symmat.write_ms": "ms",
    "trace.unaccounted_frac": "frac",
}

# Percentiles in tenths of a percent, highest first.
TAIL_PERCENTILES = (999, 990, 950, 900)


def tail_percentile(n: int) -> int | None:
    """Highest percentile (in tenths) with at least ten of `n` samples
    beyond it, or None when only the median can be reported."""
    for p in TAIL_PERCENTILES:
        if n * (1000 - p) // 1000 >= 10:
            return p
    return None


def latency_metrics(latencies_ns) -> dict:
    """Median fit latency and the highest percentile the sample count
    supports, in ms, with the sample count."""
    ms = [ns / 1e6 for ns in latencies_ns]
    out = {"fit_ms_p50": statistics.median(ms), "samples": len(ms)}
    p = tail_percentile(len(ms))
    if p is not None:
        label = f"{p // 10}" if p % 10 == 0 else f"{p / 10:g}".replace(".", "")
        out[f"fit_ms_p{label}"] = statistics.quantiles(
            ms, n=1000, method="inclusive")[p - 1]
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------

def _ms(ns) -> float:
    return ns / 1e6


def _time_in(spans, *names) -> int:
    """ns covered by spans of these names, nested ones counted once."""
    return sum(s.duration_ns for s in outermost(spans, set(names)))


def fit_gaps(spans) -> dict:
    """Per fit id: root span duration minus the sum of the self times of
    every span of that fit. Zero when the layers account for the fit."""
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    gaps: dict = {}
    for s in spans:
        if s.fit_id is None:
            continue
        parent = by_id.get(s.parent_id)
        if parent is None or parent.fit_id != s.fit_id:
            gaps[s.fit_id] = gaps.get(s.fit_id, 0) + s.duration_ns
        gaps[s.fit_id] = gaps.get(s.fit_id, 0) - selfs[s.span_id]
    return gaps


def per_layer(spans, *, fits: int, passes: int, setups: int,
              traced_pass_s: list, untraced_pass_s: list) -> dict:
    """Every per-layer metric from the spans of a traced run. Timed-phase
    times are per fit (total over the timed part / fits); setup-phase
    times are per setup. `traced_pass_s` and `untraced_pass_s` are the
    times (s) of every timed pass of the traced and the untraced run."""
    timed = [s for s in spans if s.phase == "timed"]
    setup = [s for s in spans if s.phase == "setup"]
    selfs = self_times(spans)
    solves = [s for s in timed if s.name == "solver.solve"]
    iters = [s.attrs["iterations"] for s in solves]
    fit_spans = [s for s in timed if s.name == "cli.cmd_fit"]
    baselines = outermost(timed, {"predict.plp_baseline",
                                  "predict.nlp_reversed_baseline"})
    solve_ns = sum(s.duration_ns for s in solves)
    out = {
        "cli.worker_busy_frac": sum(s.duration_ns for s in fit_spans)
        / 1e9 / sum(traced_pass_s),
        "ggm.load_calls": sum(s.name in ("ggm.load_model",
                                         "ggm.load_observations")
                              for s in timed) / fits,
        "ggm.sample_cov_ms": _ms(_time_in(timed, "ggm.sample_covariance"))
        / fits,
        "ggm.generate_ms": _ms(_time_in(setup, "ggm.random_model",
                                        "ggm.perturb_model",
                                        "ggm.draw_samples")) / setups,
        "solver.solve_ms": _ms(solve_ns) / fits,
        "solver.iters_p50": statistics.median(iters) if iters else 0.0,
        "solver.iters_total": sum(iters) / passes,
        "solver.ms_per_iter": _ms(solve_ns) / sum(iters) if iters else 0.0,
        "solver.converged_frac": statistics.fmean(
            s.attrs["converged"] for s in solves) if solves else 0.0,
        "predict.score_ms": _ms(_time_in(timed, "predict.score_matrix"))
        / fits,
        "predict.threshold_ms": _ms(_time_in(timed,
                                             "predict.threshold_support"))
        / fits,
        "predict.evaluate_ms": _ms(_time_in(timed, "predict.evaluate"))
        / fits,
        "predict.baseline_ms": _ms(sum(s.duration_ns for s in baselines))
        / len(baselines) if baselines else 0.0,
        "trace.overhead_frac": statistics.fmean(traced_pass_s)
        / statistics.fmean(untraced_pass_s) - 1.0,
        # Reported, not in the result line.
        "cli.fit_self_ms": _ms(sum(selfs[s.span_id] for s in fit_spans))
        / fits,
        "cli.generate_s": _time_in(setup, "cli.cmd_generate") / 1e9 / setups,
        "ggm.load_ms": _ms(_time_in(timed, "ggm.load_model",
                                    "ggm.load_observations")) / fits,
        "ggm.write_ms": _ms(_time_in(timed, "ggm.save_metadata")) / fits,
        "ggm.save_ms": _ms(_time_in(setup, "ggm.save_model",
                                    "ggm.save_observations",
                                    "ggm.save_metadata")) / setups,
        "symmat.read_ms": _ms(_time_in(timed, "symmat.read_matrix",
                                       "symmat.read_support")) / fits,
        "symmat.write_ms": _ms(_time_in(timed, "symmat.write_matrix",
                                        "symmat.write_support")) / fits,
    }
    return out


def fit_self_ns(spans) -> int:
    """Self time of every span inside a fit, summed over all fits."""
    selfs = self_times(spans)
    return sum(selfs[s.span_id] for s in spans if s.fit_id is not None)


def layer_self_ms(spans, fits: int) -> dict:
    """Self time per fit of each layer over the spans inside fits."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        if s.phase == "timed" and s.fit_id is not None:
            out[s.layer] = out.get(s.layer, 0.0) + _ms(selfs[s.span_id]) / fits
    return dict(sorted(out.items()))
