"""The benchmark's workloads: inputs, one timed pass, and its checks.

Each workload builds its inputs from the workload seed, sets them up
(`setup`, timed by the runner as `setup_s`), runs one pass of fits
(`run_pass`, timed) and checks the pass's outputs (`check`, untimed).
The program is driven only through its public entry points:
`cli.cmd_generate`, `cli.cmd_sweep` and `cli.cmd_baselines` on
`desk-sweep`; `ggm`, `solver` and `predict` on `scale-fit`. Every call
looks the function up on its module at call time, so the tracer's
wrappers see it. Both run on one thread; fit latencies are CPU time of
the process (`spans.clock_ns`).
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from ggmlink import cli, ggm, predict, solver
from ggmlink.ggm import ScenarioSpec
from spans import clock_ns

HERE = os.path.dirname(os.path.abspath(__file__))

# --- desk-sweep --------------------------------------------------------------
# The acceptance gate's own experiment (criteria 5 and 6): dim 10, N 1000,
# scenario seeds 0..19 per direction, each over its default gamma grid,
# swept on one thread. Criterion 5 holds on this seed set; on other sets
# of 20 scenarios the exact-recovery rate at the best plp gamma ranged
# from 45% to 85%, so the workload seed does not choose the scenarios. It
# sets the order in which the sweep visits them.
# The gate's threads=2 setting is not swept: its two threads share the
# GIL, and on a shared 2-vCPU VM the host stole 3-4 times as much time
# from the pass as from the one-thread sweep, so its figures spread past
# any useful bound.
DESK_DIM = 10
DESK_N = 1000
DESK_SCENARIOS = (
    # kind, edge density, edges added, edges removed
    ("plp", 0.25, 3, 0),
    ("nlp", 0.10, 0, 3),
)
DESK_SCENARIO_SEEDS = tuple(range(20))
RECOVERY_MIN = 0.8  # criterion 5: exact recovery at the best gamma

# --- scale-fit ---------------------------------------------------------------
# Library path at dim 400, in memory, on two instances whose t_opt
# references record_reference.py stored. Instances differ up to twofold in
# iteration count (instance 1 takes about 230 per fit, 0 and 2 about 110),
# so picking instances by workload seed would make the metrics spread by
# seed; the seed sets the order of the fits instead. Instance 1 is left out
# because it doubles the pass, and a traced run (two passes) must end
# within 180 s on a host that steals a third of the machine's time.
SCALE_DIM = 400
SCALE_N = 1600
SCALE_DENSITY = 3 / 400
SCALE_ADD = 3
SCALE_REMOVE = 3
SCALE_FITS = (("plp", 0.1), ("plp", 0.2), ("nlp", 0.5), ("nlp", 1.0))
SCALE_INSTANCE_SEEDS = (0, 2)
REFERENCE_PATH = os.path.join(HERE, "reference", "scale_fit.npz")
REFERENCE_RTOL = 1e-6  # criterion 4's relative Frobenius tolerance

T_R = cli.DEFAULT_THRESHOLD


@dataclass
class Check:
    """Outcome of checking one pass."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def _error_line(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def penalty_spec(kind: str, gamma: float) -> solver.PenaltySpec:
    return solver.PenaltySpec.plp(gamma) if kind == "plp" \
        else solver.PenaltySpec.nlp(gamma)


# ---------------------------------------------------------------------------
# desk-sweep through the CLI layer
# ---------------------------------------------------------------------------

class DeskSweep:
    def __init__(self, seed: int, work_dir):
        self.work_dir = work_dir
        rng = np.random.default_rng(seed)
        self.configs = []
        for kind, density, n_add, n_remove in DESK_SCENARIOS:
            order = rng.permutation(len(DESK_SCENARIO_SEEDS))
            self.configs.append(cli.ExperimentConfig(
                scenario=ScenarioSpec(dim=DESK_DIM, edge_density=density,
                                      n_add=n_add, n_remove=n_remove, seed=0),
                n=DESK_N,
                penalty_kind=kind,
                seeds=tuple(DESK_SCENARIO_SEEDS[i] for i in order),
                gamma_grid=tuple(cli.DEFAULT_GAMMA_GRIDS[kind]),
                t_r=T_R,
            ))
        self._setups = 0
        self.root = None

    def shape(self) -> dict:
        return {
            "fits_per_pass": sum(len(c.seeds) * len(c.gamma_grid)
                                 for c in self.configs),
            "dims": sorted({c.scenario.dim for c in self.configs}),
            "cli_fits": True,
        }

    def setup(self) -> None:
        """Write every scenario to a fresh directory with cmd_generate."""
        self._setups += 1
        self.root = os.path.join(self.work_dir, f"scenarios_{self._setups}")
        for config in self.configs:
            cli.cmd_generate(config,
                             out_dir=os.path.join(self.root,
                                                  config.penalty_kind))

    def run_pass(self, latencies: list, span) -> dict:
        """Sweep each scenario, then run its baselines; cmd_fit calls are
        timed one by one into `latencies` (ns). `span` is unused: cmd_fit
        is the fit's root span."""
        timed_fit = cli.cmd_fit

        def probe(*args, **kwargs):
            start = clock_ns()
            try:
                return timed_fit(*args, **kwargs)
            finally:
                latencies.append(clock_ns() - start)

        outputs = {}
        cli.cmd_fit = probe
        try:
            for config in self.configs:
                root = os.path.join(self.root, config.penalty_kind)
                try:
                    sweep = cli.cmd_sweep(root, config, threads=1)
                    baselines = cli.cmd_baselines(
                        os.path.join(root, f"seed_{config.seeds[0]}"))
                    outputs[config.penalty_kind] = (sweep["csv"], baselines)
                except Exception as exc:  # counted as failed fits
                    outputs[config.penalty_kind] = exc
        finally:
            cli.cmd_fit = timed_fit
        return outputs

    def check(self, outputs: dict) -> Check:
        out = Check()
        for config in self.configs:
            kind = config.penalty_kind
            n = len(config.seeds) * len(config.gamma_grid)
            out.attempted += n
            result = outputs[kind]
            if isinstance(result, Exception):
                out.failed += n
                out.errors.append(
                    f"{kind}: sweep raised {_error_line(result)}")
                continue
            csv_path, baselines = result
            failed, errors = check_sweep_csv(csv_path, config)
            out.failed += failed
            out.errors += [f"{kind}: {e}" for e in errors]
            for name in ("cn", "reversed_cn"):
                report = baselines.get(name)
                if report is None or report.false_positives is None:
                    out.errors.append(f"{kind}: baseline {name} not evaluated")
        return out


def read_sweep_csv(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_sweep_csv(path, config) -> tuple[int, list]:
    """Check the sweep CSV the CLI wrote: one converged row with a finite
    E_r per (seed, gamma) cell, then acceptance criteria 5 and 6 over the
    whole sweep. Returns (failed fits, error lines); a failed criterion
    fails every fit of the sweep."""
    n = len(config.seeds) * len(config.gamma_grid)
    rows = read_sweep_csv(path)
    labels = [f"{g:g}" for g in config.gamma_grid]
    expected = {(str(s), g) for s in config.seeds for g in labels}
    if len(rows) != n or {(r["seed"], r["gamma"]) for r in rows} != expected:
        return n, [f"sweep CSV has {len(rows)} rows, not the {n} cells"]
    failed = sum(1 for r in rows
                 if r["converged"] != "true"
                 or not math.isfinite(float(r["e_r"])))
    cell_errors = [f"{failed} cells did not converge or have no finite E_r"] \
        if failed else []
    recovery = {g: np.mean([r["exact_recovery"] == "true"
                            for r in rows if r["gamma"] == g]) for g in labels}
    median_er = [float(np.median([float(r["e_r"]) for r in rows
                                  if r["gamma"] == g])) for g in labels]
    criteria_errors = []
    best = max(recovery.values())
    if best < RECOVERY_MIN:
        criteria_errors.append(f"criterion 5: exact recovery {best:.0%} at "
                               f"the best gamma, below {RECOVERY_MIN:.0%}")
    interior = int(np.argmin(median_er[1:-1])) + 1
    if not (median_er[interior] < median_er[0]
            and median_er[interior] < median_er[-1]):
        criteria_errors.append("criterion 6: median E_r has no interior "
                               "minimum")
    if criteria_errors:
        return n, cell_errors + criteria_errors
    return failed, cell_errors


# ---------------------------------------------------------------------------
# scale-fit through the library
# ---------------------------------------------------------------------------

@dataclass
class ScaleInstance:
    seed: int
    prior: ggm.GaussianModel
    truth: ggm.GaussianModel
    obs: ggm.ObservationSet


def scale_instance(seed: int) -> ScaleInstance:
    """Prior, perturbed truth and observations of one scale-fit instance."""
    model_seed, perturb_seed, obs_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    prior = ggm.random_model(SCALE_DIM, SCALE_DENSITY, model_seed)
    truth = ggm.perturb_model(prior, ScenarioSpec(
        dim=SCALE_DIM, edge_density=SCALE_DENSITY, n_add=SCALE_ADD,
        n_remove=SCALE_REMOVE, seed=perturb_seed))
    obs = ggm.draw_samples(truth.covariance, SCALE_N, obs_seed)
    return ScaleInstance(seed, prior, truth, obs)


def reference_key(seed: int, kind: str, gamma: float) -> str:
    return f"{seed}_{kind}_{gamma:g}"


def load_references(path=REFERENCE_PATH) -> dict:
    """Reference t_opt per fit, rebuilt from the stored nonzeros of the
    lower triangle of K_opt = S^-1 + L_opt."""
    refs = {}
    with np.load(path) as data:
        for key in {k.rsplit("_", 1)[0] for k in data.files}:
            dim = int(data[f"{key}_dim"])
            k_opt = np.zeros((dim, dim))
            rows, cols = data[f"{key}_rows"], data[f"{key}_cols"]
            k_opt[rows, cols] = data[f"{key}_vals"]
            k_opt[cols, rows] = data[f"{key}_vals"]
            refs[key] = np.linalg.inv(k_opt)
    return refs


def t_opt_error(t_opt: np.ndarray, reference: np.ndarray) -> float:
    """Relative Frobenius distance of a fitted t_opt from its reference."""
    return float(np.linalg.norm(t_opt - reference)
                 / np.linalg.norm(reference))


class ScaleFit:
    def __init__(self, seed: int, work_dir=None):
        rng = np.random.default_rng(seed)
        cells = [(i, kind, gamma) for i in SCALE_INSTANCE_SEEDS
                 for kind, gamma in SCALE_FITS]
        self.order = [cells[i] for i in rng.permutation(len(cells))]
        self.instances = {}
        self._references = None

    def shape(self) -> dict:
        return {
            "fits_per_pass": len(self.order),
            "dims": [SCALE_DIM],
            "cli_fits": False,
        }

    def setup(self) -> None:
        """Build every instance in memory."""
        self.instances = {s: scale_instance(s) for s in SCALE_INSTANCE_SEEDS}

    def run_pass(self, latencies: list, span) -> dict:
        """Every fit, then each instance's baselines. `span` opens the
        fit's root span in traced runs."""
        outputs = {}
        for seed, kind, gamma in self.order:
            inst = self.instances[seed]
            key = reference_key(seed, kind, gamma)
            start = clock_ns()
            try:
                with span("perfbench.fit"):
                    t_hat = ggm.sample_covariance(inst.obs)
                    result = solver.solve(inst.prior, t_hat,
                                          penalty_spec(kind, gamma))
                    scores = predict.score_matrix(result.t_opt)
                    predicted = predict.threshold_support(scores, T_R)
                    predict.evaluate(predicted, inst.truth.precision_support)
                outputs[key] = result
            except Exception as exc:  # counted as a failed fit
                outputs[key] = exc
            latencies.append(clock_ns() - start)
        for seed, inst in self.instances.items():
            support = inst.prior.precision_support
            try:
                outputs[seed] = (
                    predict.plp_baseline(support, SCALE_ADD),
                    predict.nlp_reversed_baseline(support, SCALE_REMOVE))
            except Exception as exc:
                outputs[seed] = exc
        return outputs

    def check(self, outputs: dict) -> Check:
        """Every fit converges and its t_opt matches the reference."""
        if self._references is None:
            self._references = load_references()
        out = Check()
        for seed, kind, gamma in self.order:
            key = reference_key(seed, kind, gamma)
            out.attempted += 1
            error = check_fit(outputs[key], self._references.get(key))
            if error:
                out.failed += 1
                out.errors.append(f"{key}: {error}")
        for seed in self.instances:
            if isinstance(outputs[seed], Exception):
                out.errors.append(f"instance {seed}: baselines raised "
                                  f"{_error_line(outputs[seed])}")
        return out


def check_fit(result, reference) -> str | None:
    """Why a scale-fit fit failed, or None when it passed."""
    if isinstance(result, Exception):
        return f"raised {_error_line(result)}"
    if not result.converged:
        return f"did not converge in {result.iterations} iterations"
    if reference is None:
        return "no stored reference"
    err = t_opt_error(result.t_opt.to_array(), reference)
    if not err <= REFERENCE_RTOL:
        return f"t_opt differs from its reference by {err:.3g} (relative)"
    return None


WORKLOADS = {
    "desk-sweep": DeskSweep,
    "scale-fit": ScaleFit,
}


def no_span(name):
    return contextlib.nullcontext()
