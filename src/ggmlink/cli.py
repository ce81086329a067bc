"""Command-line experiment harness.

Subcommands: generate (synthesize scenario artifacts), fit (estimate one
model from a scenario directory), sweep (grid of (seed, gamma) fits with a
CSV of rows and a summary), baselines (topology-only predictions), eval
(compare two support files).

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 at least one fit
did not converge (results are still written).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import ggm, predict, solver, symmat
from .ggm import ScenarioSpec
from .predict import PredictionReport
from .solver import PenaltySpec, SolveResult, SolverConfig

DEFAULT_GAMMA_GRIDS = {
    "plp": [0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.5],
    "nlp": [0.05, 0.1, 0.15, 0.26, 0.5, 1.0, 2.0],
}
DEFAULT_THRESHOLD = 1e-4
SWEEP_SCHEMA = "ggmlink sweep schema v1"
SWEEP_COLUMNS = ("seed", "gamma", "e_r", "false_positives", "false_negatives",
                 "exact_recovery", "iterations", "converged")


def _gamma_label(gamma) -> str:
    if isinstance(gamma, tuple):
        return f"{gamma[0]:g}/{gamma[1]:g}"
    return f"{gamma:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioSpec
    n: int
    penalty_kind: str
    seeds: tuple
    gamma_grid: tuple
    t_r: float = DEFAULT_THRESHOLD
    score_variant: str = "partial_correlation"
    solver: SolverConfig = SolverConfig()
    output_dir: str | None = None

    def __post_init__(self):
        ggm._check_sample_count(self.n, self.scenario.dim)
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0: {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct: {list(self.seeds)}")
        if not self.gamma_grid:
            raise ValueError("gamma_grid must be non-empty")
        for gamma in self.gamma_grid:
            PenaltySpec.from_gamma(self.penalty_kind, gamma)
        # A label names a fit directory and a summary group.
        labels = [_gamma_label(g) for g in self.gamma_grid]
        if len(set(labels)) != len(labels):
            raise ValueError(f"gamma_grid labels must be distinct: {labels}")
        if self.score_variant not in predict.SCORE_VARIANTS:
            raise ValueError(f"unknown score_variant {self.score_variant!r}")
        symmat._positive(self.t_r, "t_r")


_NULL = type(None)
# The JSON types of the config's fields. ExperimentConfig checks N and t_r,
# and ScenarioSpec and SolverConfig check every field of theirs.
_CONFIG_TYPES = {"scenario": dict, "N": object, "penalty_kind": str,
                 "seeds": list, "gamma_grid": (list, _NULL), "t_r": object,
                 "score_variant": str, "solver": dict,
                 "output_dir": (str, _NULL)}


def _typed(value, types, name: str):
    """``value`` if it is one of ``types``; a JSON boolean is no number."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name} has the wrong type: {value!r}")
    return value


def _fields(raw, names, required, name: str) -> dict:
    """``raw`` if it is a JSON object whose fields are all in ``names`` and
    include ``required``; messages call the object ``name``."""
    unknown = set(_typed(raw, dict, name)) - set(names)
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    for field in required:
        if field not in raw:
            raise ValueError(f"{name} is missing required field {field!r}")
    return raw


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config; unknown fields and values of the
    wrong type are rejected. A ValueError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _config_of(json.load(fh))
        except ValueError as exc:  # syntax, a byte that is not UTF-8, a value
            raise ValueError(f"{path}: {exc}") from None


def _config_of(raw) -> ExperimentConfig:
    """The experiment config of a parsed JSON object."""
    raw = _fields(raw, _CONFIG_TYPES, ("scenario", "N", "penalty_kind", "seeds"), "config")
    for field, value in raw.items():
        _typed(value, _CONFIG_TYPES[field], field)
    scenario_fields = [f.name for f in dataclasses.fields(ScenarioSpec)]
    scenario = _fields(raw["scenario"], scenario_fields, scenario_fields, "scenario")
    solver_cfg = _fields(raw.get("solver", {}),
                         [f.name for f in dataclasses.fields(SolverConfig)], (), "solver config")
    kind = raw["penalty_kind"]
    grid = raw.get("gamma_grid")
    if grid is None:
        if kind not in DEFAULT_GAMMA_GRIDS:
            raise ValueError(f"gamma_grid is required for penalty {kind!r}")
        grid = DEFAULT_GAMMA_GRIDS[kind]
    return ExperimentConfig(
        scenario=ScenarioSpec(**scenario),
        n=raw["N"],
        penalty_kind=kind,
        seeds=tuple(_typed(s, int, "seeds entry") for s in raw["seeds"]),
        gamma_grid=tuple(tuple(g) if isinstance(g, list) else g for g in grid),
        solver=SolverConfig(**solver_cfg),
        **{name: raw[name] for name in ("t_r", "score_variant", "output_dir")
           if name in raw},
    )


# ---------------------------------------------------------------------------
# Scenario artifacts
# ---------------------------------------------------------------------------

def _scenario_dir(root, seed: int) -> str:
    return os.path.join(root, f"seed_{seed}")


def _derived_seeds(seed: int) -> dict:
    state = np.random.SeedSequence(seed).generate_state(3)
    return {"model": int(state[0]), "perturb": int(state[1]),
            "observations": int(state[2])}


def generate_scenario(scenario: ScenarioSpec, n: int, directory) -> None:
    """Materialize one scenario: prior model, perturbed model, observations,
    metadata. Deterministic given scenario.seed."""
    seeds = _derived_seeds(scenario.seed)
    base = ggm.random_model(scenario.dim, scenario.edge_density, seeds["model"])
    target = ggm.perturb_model(base, dataclasses.replace(scenario,
                                                         seed=seeds["perturb"]))
    obs = ggm.draw_samples(target.covariance, n, seeds["observations"])
    os.makedirs(directory, exist_ok=True)
    ggm.save_model(base, directory, "prior")
    ggm.save_model(target, directory, "true")
    ggm.save_observations(obs, os.path.join(directory, "observations.csv"))
    ggm.save_metadata({
        "dim": scenario.dim,
        "edge_density": scenario.edge_density,
        "n_add": scenario.n_add,
        "n_remove": scenario.n_remove,
        "seed": scenario.seed,
        "derived_seeds": seeds,
        "N": n,
        "generator": ggm.RNG_NAME,
    }, os.path.join(directory, "metadata.json"))


def cmd_generate(config: ExperimentConfig, out_dir=None) -> list:
    """One scenario directory per seed under the output root."""
    root = out_dir or config.output_dir
    if root is None:
        raise ValueError("no output directory (set output_dir or --out)")
    written = []
    for s in config.seeds:
        directory = _scenario_dir(root, s)
        generate_scenario(dataclasses.replace(config.scenario, seed=s),
                          config.n, directory)
        written.append(directory)
    return written


def _load_scenario(scenario_dir):
    prior = ggm.load_model(scenario_dir, "prior")
    obs_path = os.path.join(scenario_dir, "observations.csv")
    obs = ggm.load_observations(obs_path)
    if obs.dim != prior.dim:
        raise ValueError(f"{obs_path}: {obs.dim} columns, but the prior has"
                         f" dim {prior.dim}")
    truth = None
    if os.path.exists(os.path.join(scenario_dir, "true_support.txt")):
        truth = ggm.load_model(scenario_dir, "true")
    return prior, obs, truth


# ---------------------------------------------------------------------------
# Fit
# ---------------------------------------------------------------------------

def _penalty_dict(penalty: PenaltySpec) -> dict:
    """The kind and its weights (PenaltySpec leaves the others None)."""
    return {name: value for name, value in vars(penalty).items()
            if value is not None and name != "omega"}


def _penalty_tag(penalty: PenaltySpec) -> str:
    weights = [f"{v:g}" for k, v in _penalty_dict(penalty).items() if k != "kind"]
    return "_".join([penalty.kind] + weights)


def cmd_fit(scenario_dir, penalty: PenaltySpec,
            solver_cfg: SolverConfig = ExperimentConfig.solver,
            t_r: float = ExperimentConfig.t_r,
            score_variant: str = ExperimentConfig.score_variant,
            out_dir=None, *,
            _report: dict | None = None,
            _scenario: tuple | None = None,
            _lam0: symmat.SymmetricMatrix | None = None,
            ) -> tuple[SolveResult, PredictionReport | None]:
    """Estimate from one scenario directory: sample covariance, solve,
    score, threshold, evaluate against truth when present; write artifacts.
    The settings default to those of an ExperimentConfig.
    ``_report``, when given, receives the report that report.json holds.
    ``_scenario``, when given, is the ``(prior, obs, truth)`` already
    loaded from ``scenario_dir``, and the directory is not read again.
    ``_lam0``, when given, is the multiplier the solve starts from
    (``solver.solve``'s ``lam0``); without it the fit starts cold."""
    prior, obs, truth = (_scenario if _scenario is not None
                         else _load_scenario(scenario_dir))
    t_hat = ggm.sample_covariance(obs)
    result = solver.solve(prior, t_hat, penalty, solver_cfg, lam0=_lam0)
    scores = predict.score_matrix(result.t_opt, score_variant)
    predicted = predict.threshold_support(scores, t_r)

    report: dict = {
        "penalty": _penalty_dict(penalty),
        "t_r": t_r,
        "score_variant": score_variant,
        "solve": result.to_report(),
    }
    prediction = None
    if truth is not None:
        prediction = predict.evaluate(predicted, truth.precision_support,
                                      method_name=_penalty_tag(penalty))
        report["prediction"] = prediction.to_dict()
        report["e_r"] = ggm.relative_error(truth.covariance, result.t_opt)
        report["exact_recovery"] = prediction.mispredicted_total == 0
    else:
        report["prediction"] = PredictionReport(
            predicted_support=predicted,
            method_name=_penalty_tag(penalty)).to_dict()

    directory = out_dir or os.path.join(scenario_dir,
                                        f"fit_{_penalty_tag(penalty)}")
    os.makedirs(directory, exist_ok=True)
    symmat.write_matrix(result.lambda_opt,
                        os.path.join(directory, "lambda_opt.txt"))
    symmat.write_matrix(result.t_opt, os.path.join(directory, "t_opt.txt"))
    symmat.write_matrix(scores, os.path.join(directory, "scores.txt"),
                        header=f"variant: {score_variant}")
    symmat.write_support(predicted,
                         os.path.join(directory, "predicted_support.txt"))
    ggm.save_metadata(report, os.path.join(directory, "report.json"))
    if _report is not None:
        _report.update(report)
    return result, prediction


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def _sweep_seed(root, seed: int, config: ExperimentConfig) -> list:
    """The rows of every gamma cell of one seed, in grid order. The
    scenario is loaded once and shared by the cells. The first cell starts
    cold; each later cell starts from the multiplier of the cell before
    it, when that cell converged, and cold otherwise: neighbouring gammas
    have nearby optima of one convex problem."""
    scenario_dir = _scenario_dir(root, seed)
    scenario = _load_scenario(scenario_dir)
    if scenario[2] is None:
        raise ValueError(f"{scenario_dir}: sweep needs the true model on disk")
    rows, lam0 = [], None
    for gamma in config.gamma_grid:
        row, result = _sweep_cell(scenario_dir, seed, gamma, config,
                                  scenario, lam0)
        rows.append(row)
        lam0 = result.lambda_opt if result.converged else None
    return rows


def _sweep_cell(scenario_dir, seed: int, gamma, config: ExperimentConfig,
                scenario: tuple, lam0: symmat.SymmetricMatrix | None,
                ) -> tuple[dict, SolveResult]:
    penalty = PenaltySpec.from_gamma(config.penalty_kind, gamma)
    # The truth is on hand, so the report carries e_r.
    report: dict = {}
    result, prediction = cmd_fit(
        scenario_dir, penalty, config.solver, config.t_r, config.score_variant,
        _report=report, _scenario=scenario, _lam0=lam0)
    return {
        "seed": seed,
        "gamma": _gamma_label(gamma),
        "e_r": report["e_r"],
        "false_positives": prediction.false_positives,
        "false_negatives": prediction.false_negatives,
        "exact_recovery": report["exact_recovery"],
        "iterations": result.iterations,
        "converged": result.converged,
        "objective_final": result.objective_trace[-1],
        "predicted_edges": len(prediction.predicted_support.minus(
            symmat.SupportPattern.diagonal(prediction.predicted_support.dim))),
    }, result


def cmd_sweep(root, config: ExperimentConfig, threads: int = 1) -> dict:
    """Run the seeds on ``threads`` worker threads, each seed's gamma cells
    in grid order on one thread, each later cell warm-started from the cell
    before it (``_sweep_seed``); write the CSV of rows and a summary JSON.
    Rows keep the (seed, gamma) order. A cell's trajectory depends only on
    its seed's earlier cells, so reruns are byte-identical at any
    ``threads``."""
    symmat._integer(threads, "threads", 1)
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        ordered = [row for rows in pool.map(
            lambda s: _sweep_seed(root, s, config), config.seeds)
            for row in rows]

    csv_path = os.path.join(root, f"sweep_{config.penalty_kind}.csv")
    lines = [f"# {SWEEP_SCHEMA}", ",".join(SWEEP_COLUMNS)]
    lines += [",".join(_csv_cell(row[c]) for c in SWEEP_COLUMNS) for row in ordered]
    symmat._write_text(csv_path, "\n".join(lines) + "\n")

    summary = _summarize(ordered, config)
    ggm.save_metadata(summary,
                      os.path.join(root, f"sweep_{config.penalty_kind}_summary.json"))
    return {"rows": ordered, "summary": summary, "csv": csv_path}


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _summarize(rows: list, config: ExperimentConfig) -> dict:
    by_gamma: dict = {}
    for row in rows:
        by_gamma.setdefault(row["gamma"], []).append(row)
    per_gamma = {}
    for gamma, group in by_gamma.items():
        per_gamma[gamma] = {
            "median_e_r": float(np.median([r["e_r"] for r in group])),
            "recovery_rate": float(np.mean([r["exact_recovery"] for r in group])),
            "convergence_rate": float(np.mean([r["converged"] for r in group])),
            "median_iterations": float(np.median([r["iterations"] for r in group])),
            "median_objective": float(np.median([r["objective_final"] for r in group])),
            "median_predicted_edges": float(np.median([r["predicted_edges"]
                                                       for r in group])),
        }
    best = min(per_gamma, key=lambda g: per_gamma[g]["median_e_r"])
    return {
        "penalty_kind": config.penalty_kind,
        "per_gamma": per_gamma,
        "best_gamma": best,
        "best_median_e_r": per_gamma[best]["median_e_r"],
        "recovery_rate_at_best": per_gamma[best]["recovery_rate"],
    }


# ---------------------------------------------------------------------------
# Baselines and eval
# ---------------------------------------------------------------------------

def cmd_baselines(scenario_dir, k: int | None = None,
                  out_dir=None) -> dict:
    """Common-neighbors (appearing) and reversed common-neighbors
    (disappearing) predictions, evaluated against truth when present."""
    prior_support = ggm.load_support(scenario_dir, "prior")
    truth = None
    if os.path.exists(os.path.join(scenario_dir, "true_support.txt")):
        truth = ggm.load_support(scenario_dir, "true")
    diagonal = symmat.SupportPattern.diagonal(prior_support.dim)
    if k is None:
        if truth is None:
            raise ValueError(f"{scenario_dir}: no truth on disk: supply --k")
        k_add = len(truth.minus(prior_support).minus(diagonal))
        k_remove = len(prior_support.minus(truth).minus(diagonal))
    else:
        # Cap each baseline at its own candidate pool.
        k_add = min(k, len(prior_support.complement().minus(diagonal)))
        k_remove = min(k, len(prior_support.minus(diagonal)))

    cn = predict.plp_baseline(prior_support, k_add)
    reversed_cn = predict.nlp_reversed_baseline(prior_support, k_remove)
    reports = {}
    for name, base in (("cn", cn), ("reversed_cn", reversed_cn)):
        if truth is not None:
            evaluated = predict.evaluate(base.predicted_support, truth,
                                         method_name=base.method_name)
            base = dataclasses.replace(evaluated, ties=base.ties)
        reports[name] = base

    directory = out_dir or scenario_dir
    os.makedirs(directory, exist_ok=True)
    for name, report in reports.items():
        ggm.save_metadata(report.to_dict(),
                          os.path.join(directory, f"baseline_{name}.json"))
    return reports


def cmd_eval(predicted_path, truth_path, out_path=None) -> PredictionReport:
    predicted = symmat.read_support(predicted_path)
    truth = symmat.read_support(truth_path)
    if predicted.dim != truth.dim:
        raise ValueError(f"{predicted_path}: dim {predicted.dim}, but {truth_path}"
                         f" has dim {truth.dim}")
    report = predict.evaluate(predicted, truth)
    if out_path:
        ggm.save_metadata(report.to_dict(), out_path)
    return report


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # Bad arguments are validation failures (exit 1), not I/O failures.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_gamma(text: str):
    parts = tuple(float(part) for part in text.split(","))
    return parts if len(parts) > 1 else parts[0]


def _build_parser() -> _Parser:
    parser = _Parser(prog="ggmlink",
                     description="Link-change estimation in Gaussian "
                                 "graphical models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write scenario artifacts")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--seed", type=int, default=None)

    p_fit = sub.add_parser("fit", help="fit one scenario")
    p_fit.add_argument("scenario_dir")
    p_fit.add_argument("--penalty", required=True,
                       choices=tuple(PenaltySpec._FIELDS))
    p_fit.add_argument("--gamma", default=None,
                       help="weight, or ETA_P,ETA_N for mixed")
    p_fit.add_argument("--config", default=None)
    p_fit.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="grid of (seed, gamma) fits")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=1)

    p_base = sub.add_parser("baselines", help="topology-only predictions")
    p_base.add_argument("scenario_dir")
    p_base.add_argument("--k", type=int, default=None)
    p_base.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="compare two support files")
    p_eval.add_argument("predicted")
    p_eval.add_argument("truth")
    p_eval.add_argument("--out", default=None)
    return parser


def _fit_penalty_from_args(args) -> PenaltySpec:
    kind = args.penalty
    if args.gamma is not None:
        return PenaltySpec.from_gamma(kind, _parse_gamma(args.gamma))
    if kind == "known":
        return PenaltySpec.known_support(ggm.load_support(args.scenario_dir, "true"))
    raise ValueError(f"--gamma is required for penalty {kind!r}")


def _config_from_args(args) -> ExperimentConfig:
    """The config of --config, narrowed to the one seed of --seed when it is
    given: the seed is checked like a seeds entry of the file."""
    config = load_config(args.config)
    if args.seed is None:
        return config
    try:
        return dataclasses.replace(config, seeds=(args.seed,))
    except ValueError as exc:
        raise ValueError(f"--seed: {exc}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            written = cmd_generate(_config_from_args(args), out_dir=args.out)
            for d in written:
                print(d)
            return 0

        if args.command == "fit":
            settings = ()
            if args.config:
                config = load_config(args.config)
                settings = (config.solver, config.t_r, config.score_variant)
            penalty = _fit_penalty_from_args(args)
            result, prediction = cmd_fit(args.scenario_dir, penalty, *settings,
                                         out_dir=args.out)
            print(f"converged={result.converged} iterations={result.iterations}"
                  f" objective={result.objective_trace[-1]:.6g}")
            if prediction is not None:
                print(f"false_positives={prediction.false_positives}"
                      f" false_negatives={prediction.false_negatives}")
            return 0 if result.converged else 3

        if args.command == "sweep":
            config = _config_from_args(args)
            root = args.out or config.output_dir
            if root is None:
                raise ValueError("no output directory (set output_dir or --out)")
            out = cmd_sweep(root, config, threads=args.threads)
            print(out["csv"])
            best = out["summary"]["best_gamma"]
            print(f"best_gamma={best} "
                  f"median_e_r={out['summary']['best_median_e_r']:.6g}")
            return 0 if all(r["converged"] for r in out["rows"]) else 3

        if args.command == "baselines":
            reports = cmd_baselines(args.scenario_dir, k=args.k,
                                    out_dir=args.out)
            for name, report in reports.items():
                print(f"{name}: fp={report.false_positives} "
                      f"fn={report.false_negatives} ties={report.ties}")
            return 0

        if args.command == "eval":
            report = cmd_eval(args.predicted, args.truth, out_path=args.out)
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
            return 0
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
