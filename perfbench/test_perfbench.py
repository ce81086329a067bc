"""Tests of the benchmark itself: span arithmetic, the percentile rule,
the correctness checks, workload shapes and the wrappers' coverage."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ggmlink  # noqa: E402
from ggmlink import cli  # noqa: E402
from ggmlink.ggm import ScenarioSpec  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, outermost, self_times  # noqa: E402


def span(span_id, parent, start, end, name="x.f", fit=1):
    return Span(name, start, end, span_id, parent, fit, "timed")


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [span(1, None, 0, 100), span(2, 1, 10, 40), span(3, 2, 20, 30),
             span(4, 1, 50, 90)]
    selfs = self_times(spans)
    assert selfs == {1: 30, 2: 20, 3: 10, 4: 40}
    assert sum(selfs.values()) == 100
    assert metrics.fit_gaps(spans) == {1: 0}


def test_outermost_counts_nested_same_layer_once():
    spans = [span(1, None, 0, 100, "a.f"), span(2, 1, 10, 40, "b.g"),
             span(3, 2, 20, 30, "a.f"), span(4, 1, 50, 90, "a.h")]
    assert [s.span_id for s in outermost(spans, {"a.f", "a.h"})] == [1]
    assert [s.span_id for s in outermost(spans, {"a.h"})] == [4]


# ---------------------------------------------------------------------------
# Percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (99, None), (100, 900), (199, 900), (200, 950),
    (280, 950), (999, 950), (1000, 990), (10000, 999),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected


def test_latency_metrics_report_only_supported_percentiles():
    assert set(metrics.latency_metrics(np.arange(8) * 1e6)) == {
        "fit_ms_p50", "samples"}
    out = metrics.latency_metrics(np.arange(1, 281) * 1e6)
    assert set(out) == {"fit_ms_p50", "fit_ms_p95", "samples"}
    assert out["samples"] == 280
    assert out["fit_ms_p50"] == pytest.approx(140.5)


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

class _Fit:
    def __init__(self, t_opt):
        self.converged = True
        self.iterations = 1
        self.t_opt = self
        self._arr = t_opt

    def to_array(self):
        return self._arr


def test_t_opt_check_rejects_perturbation_beyond_tolerance():
    refs = workloads.load_references()
    assert len(refs) == (len(workloads.SCALE_INSTANCE_SEEDS)
                         * len(workloads.SCALE_FITS))
    ref = refs[workloads.reference_key(0, "plp", 0.1)]
    direction = np.random.default_rng(0).standard_normal(ref.shape)
    direction = direction + direction.T
    direction *= np.linalg.norm(ref) / np.linalg.norm(direction)
    tol = workloads.REFERENCE_RTOL
    assert workloads.check_fit(_Fit(ref + 0.5 * tol * direction), ref) is None
    assert "differs" in workloads.check_fit(_Fit(ref + 2 * tol * direction),
                                            ref)
    unconverged = _Fit(ref)
    unconverged.converged = False
    assert "converge" in workloads.check_fit(unconverged, ref)


def _write_sweep_csv(path, config, recovered, e_r):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {cli.SWEEP_SCHEMA}\n")
        fh.write(",".join(cli.SWEEP_COLUMNS) + "\n")
        for s in config.seeds:
            for i, g in enumerate(config.gamma_grid):
                fh.write(f"{s},{g:g},{e_r[i]!r},0,0,"
                         f"{'true' if recovered(s, i) else 'false'},10,true\n")


def test_sweep_check_applies_criteria_5_and_6(tmp_path):
    config = workloads.DeskSweep(1, tmp_path).configs[0]
    path = tmp_path / "sweep.csv"
    n = len(config.seeds) * len(config.gamma_grid)
    valley = [0.5, 0.4, 0.3, 0.2, 0.3, 0.4, 0.5]
    _write_sweep_csv(path, config, lambda s, i: i == 3, valley)
    assert workloads.check_sweep_csv(path, config) == (0, [])
    # Criterion 5: 15 of 20 recovered at the best gamma is below 80%.
    _write_sweep_csv(path, config, lambda s, i: i == 3 and s < 15, valley)
    failed, errors = workloads.check_sweep_csv(path, config)
    assert failed == n and "criterion 5" in errors[0]
    # Criterion 6: a monotone error curve has no interior minimum.
    _write_sweep_csv(path, config, lambda s, i: i == 3, sorted(valley))
    failed, errors = workloads.check_sweep_csv(path, config)
    assert failed == n and "criterion 6" in errors[0]


# ---------------------------------------------------------------------------
# Workload shapes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_seed_changes_order_not_shape(name, tmp_path):
    make = workloads.WORKLOADS[name]
    a, b, a2 = make(1, tmp_path), make(2, tmp_path), make(1, tmp_path)
    assert a.shape() == b.shape()
    if isinstance(a, workloads.DeskSweep):
        assert a.shape()["fits_per_pass"] == 280
        assert a.shape()["dims"] == [workloads.DESK_DIM]
        cells = [c.seeds for c in a.configs]
        assert cells == [c.seeds for c in a2.configs]
        assert cells != [c.seeds for c in b.configs]
        assert [sorted(c) for c in cells] == [sorted(c.seeds)
                                              for c in b.configs]
    else:
        assert a.shape()["fits_per_pass"] == 8
        assert a.shape()["dims"] == [workloads.SCALE_DIM]
        assert a.order == a2.order and a.order != b.order
        assert sorted(a.order) == sorted(b.order)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def test_tracer_sees_calls_at_the_callers_binding(tmp_path):
    config = cli.ExperimentConfig(
        scenario=ScenarioSpec(dim=5, edge_density=0.3, n_add=1, n_remove=0,
                              seed=0),
        n=200, penalty_kind="plp", seeds=(0,), gamma_grid=(0.1,))
    (scenario,) = cli.cmd_generate(config, out_dir=tmp_path)
    original = cli.cmd_fit
    tracer = Tracer()
    try:
        assert tracer.install(ggmlink) > 0
        assert cli.cmd_fit is not original
        tracer.phase = "timed"
        cli.cmd_fit(scenario, ggmlink.PenaltySpec.plp(0.1))
    finally:
        tracer.uninstall()
    assert cli.cmd_fit is original
    names = [s.name for s in tracer.spans]
    for expected in ("cli.cmd_fit", "ggm.load_model", "ggm.load_observations",
                     "symmat.read_matrix", "solver.solve",
                     "predict.score_matrix", "symmat.write_matrix"):
        assert expected in names
    assert names.count("ggm.load_model") == 2
    (solve,) = [s for s in tracer.spans if s.name == "solver.solve"]
    assert solve.attrs["converged"] is True and solve.attrs["iterations"] > 0
    assert {s.fit_id for s in tracer.spans} == {1}
    assert metrics.fit_gaps(tracer.spans) == {1: 0}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _two_pass_spans():
    """Two timed passes of 5 s each, one worker; each pass has one 4 s
    cmd_fit span holding a 3 s solve of 10 iterations."""
    spans = []
    for p in range(2):
        t0, ids = p * 5 * 10**9, 10 * p
        spans.append(Span("cli.cmd_fit", t0, t0 + 4 * 10**9, ids + 1, None,
                          p + 1, "timed"))
        spans.append(Span("solver.solve", t0, t0 + 3 * 10**9, ids + 2,
                          ids + 1, p + 1, "timed",
                          {"iterations": 10, "converged": True}))
    return spans


def test_per_layer_over_two_passes():
    spans = _two_pass_spans()
    layers = metrics.per_layer(spans, fits=2, passes=2, setups=1,
                               traced_pass_s=[5.0, 5.0],
                               untraced_pass_s=[4.0, 4.0, 4.0])
    assert layers["cli.worker_busy_frac"] == pytest.approx(0.8)
    assert layers["solver.solve_ms"] == pytest.approx(3000.0)
    assert layers["solver.iters_total"] == 10
    assert layers["solver.ms_per_iter"] == pytest.approx(300.0)
    assert layers["trace.overhead_frac"] == pytest.approx(0.25)
    assert metrics.fit_self_ns(spans) == 8 * 10**9
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)


@pytest.mark.parametrize("latency_s, ok", [(4.01, True), (4.5, False),
                                           (3.9, False)])
def test_trace_check_compares_spans_with_probed_latency(latency_s, ok):
    # Each fit's spans cover 4 s; the probe around the fit must agree
    # within PROBE_SLACK, and may not read less than the spans.
    spans = _two_pass_spans()
    for p in range(2):
        t0 = p * 5 * 10**9
        spans.append(Span("ggm.load_model", t0 + 3 * 10**9,
                          t0 + 4 * 10**9, 10 * p + 3, 10 * p + 1, p + 1,
                          "timed"))
    traced = {"pass_s": [5.0, 5.0], "latencies": [latency_s * 1e9] * 2}
    shape = {"fits_per_pass": 1, "cli_fits": True}
    layers, errors = run.trace_metrics(spans, {"pass_s": [4.0, 4.0]},
                                       traced, shape)
    assert layers["trace.unaccounted_frac"] == pytest.approx(
        1 - 4 / latency_s)
    assert (errors == []) == ok
