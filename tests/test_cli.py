"""Experiment harness: config parsing, artifacts, determinism, exit codes."""

import json
import os
import warnings

import pytest

from ggmlink import SupportPattern, cli, ggm, symmat
from ggmlink.cli import (
    cmd_baselines,
    cmd_fit,
    cmd_generate,
    cmd_sweep,
    load_config,
    main,
)
from ggmlink.solver import PenaltySpec, SolverConfig


def write_config(path, **overrides):
    raw = {
        "scenario": {"dim": 6, "edge_density": 0.3, "n_add": 1, "n_remove": 0,
                     "seed": 0},
        "N": 200,
        "penalty_kind": "plp",
        "gamma_grid": [0.05, 0.1, 0.3],
        "seeds": [0, 1],
        "solver": {"grad_tol": 1e-6},
        "output_dir": None,
    }
    raw.update(overrides)
    raw = {k: v for k, v in raw.items() if v is not None}
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


class TestConfig:
    def test_load_with_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.json", gamma_grid=None, solver=None)
        config = load_config(path)
        assert config.t_r == 1e-4
        assert config.score_variant == "partial_correlation"
        assert config.gamma_grid == (0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.5)
        assert config.solver == SolverConfig()

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", gama_grid=[0.1])
        with pytest.raises(ValueError, match="unknown config fields"):
            load_config(path)

    def test_unknown_scenario_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        write_config(path, scenario={"dim": 6, "edge_density": 0.3, "n_add": 1,
                                     "n_remove": 0, "seed": 0, "extra": 1})
        with pytest.raises(ValueError, match="unknown scenario fields"):
            load_config(path)

    def test_missing_required_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        with open(path, "w") as fh:
            json.dump({"N": 100}, fh)
        with pytest.raises(ValueError, match="missing required"):
            load_config(path)

    def test_partial_solver_config_keeps_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.json", solver={"grad_tol": 1e-9})
        assert load_config(path).solver == SolverConfig(grad_tol=1e-9,
                                                        max_iters=50000)

    def test_unknown_solver_field_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", solver={"grad_toll": 1e-6})
        with pytest.raises(ValueError, match="unknown solver config"):
            load_config(path)

    def test_invariants_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path / "a.json", gamma_grid=[]))
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path / "b.json", seeds=[]))
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path / "c.json", gamma_grid=[0.1, -0.2]))

    def test_mixed_grid_pairs(self, tmp_path):
        path = write_config(tmp_path / "c.json", penalty_kind="mixed",
                            gamma_grid=[[0.1, 0.2], [0.05, 0.1]])
        config = load_config(path)
        assert config.gamma_grid == ((0.1, 0.2), (0.05, 0.1))

    def test_grid_shape_must_match_kind(self, tmp_path):
        with pytest.raises(ValueError, match="pairs"):
            load_config(write_config(tmp_path / "a.json", penalty_kind="mixed",
                                     gamma_grid=[0.1, 0.2]))
        with pytest.raises(ValueError, match="scalars"):
            load_config(write_config(tmp_path / "b.json",
                                     gamma_grid=[[0.1, 0.2]]))


class TestGenerate:
    def test_artifacts_and_determinism(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json"))
        for sub in ("a", "b"):
            cmd_generate(config, out_dir=tmp_path / sub)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        scen = tmp_path / "a" / "seed_0"
        for name in ("prior_covariance.txt", "prior_precision.txt",
                     "prior_support.txt", "true_covariance.txt",
                     "true_precision.txt", "true_support.txt",
                     "observations.csv", "metadata.json"):
            assert (scen / name).exists()
        meta = json.loads((scen / "metadata.json").read_text())
        assert meta["seed"] == 0 and meta["N"] == 200

    def test_scenario_shape(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json"))
        cmd_generate(config, out_dir=tmp_path / "out")
        scen = tmp_path / "out" / "seed_1"
        prior = symmat.read_support(scen / "prior_support.txt")
        truth = symmat.read_support(scen / "true_support.txt")
        assert len(truth.minus(prior).off_diagonal()) == 1
        obs = ggm.load_observations(scen / "observations.csv")
        assert obs.count == 200 and obs.dim == 6

    def test_seed_narrowing(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json"))
        written = cmd_generate(config, out_dir=tmp_path / "out", seeds=[5])
        assert [os.path.basename(w) for w in written] == ["seed_5"]

    def test_invalid_scenario_errors(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            scenario={"dim": 4, "edge_density": 0.1,
                                      "n_add": 0, "n_remove": 6, "seed": 0})
        config = load_config(path)
        with pytest.raises(ValueError):
            cmd_generate(config, out_dir=tmp_path / "out")


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scen")
    path = write_config(root / "c.json")
    config = load_config(path)
    cmd_generate(config, out_dir=root)
    return root / "seed_0"


class TestFit:
    def test_fit_writes_artifacts(self, scenario_dir, tmp_path):
        result, prediction = cmd_fit(scenario_dir, PenaltySpec.plp(0.1),
                                     out_dir=tmp_path / "fit")
        assert result.converged
        assert prediction is not None
        report = json.loads((tmp_path / "fit" / "report.json").read_text())
        assert report["penalty"] == {"kind": "plp", "gamma_p": 0.1}
        assert report["solve"]["converged"] is True
        assert "e_r" in report and report["e_r"] >= 0.0
        assert (tmp_path / "fit" / "lambda_opt.txt").exists()
        assert (tmp_path / "fit" / "t_opt.txt").exists()
        predicted = symmat.read_support(tmp_path / "fit" / "predicted_support.txt")
        assert SupportPattern.diagonal(6).issubset(predicted)
        scores = symmat.read_matrix(tmp_path / "fit" / "scores.txt")
        assert scores.dim == 6

    def test_fit_nlp_stays_inside_prior(self, scenario_dir, tmp_path):
        result, _ = cmd_fit(scenario_dir, PenaltySpec.nlp(0.5),
                            out_dir=tmp_path / "fit")
        prior = symmat.read_support(scenario_dir / "prior_support.txt")
        assert result.support_estimate_raw.issubset(prior)

    def test_fit_nlp_huge_weight_drops_removable_edges(self, scenario_dir,
                                                       tmp_path):
        # The shifted penalty dominates every data term: all prior edges
        # are pulled onto their removal anchors, so only the diagonal
        # survives, while predictions outside the prior stay impossible.
        result, prediction = cmd_fit(scenario_dir, PenaltySpec.nlp(100.0),
                                     out_dir=tmp_path / "fit")
        prior = symmat.read_support(scenario_dir / "prior_support.txt")
        assert result.support_estimate_raw == SupportPattern.diagonal(6)
        pred_edges = set(prediction.predicted_support.off_diagonal())
        assert pred_edges <= set(prior.off_diagonal())

    def test_fit_known_uses_truth_support(self, scenario_dir, tmp_path):
        omega = symmat.read_support(scenario_dir / "true_support.txt")
        result, _ = cmd_fit(scenario_dir, PenaltySpec.known_support(omega),
                            out_dir=tmp_path / "fit")
        prior = symmat.read_support(scenario_dir / "prior_support.txt")
        assert result.support_estimate_raw.issubset(prior.union(omega))
        assert result.duality_gap is not None


class TestSweep:
    def test_rows_summary_and_determinism(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json"))
        out = {}
        for sub in ("a", "b"):
            root = tmp_path / sub
            cmd_generate(config, out_dir=root)
            out[sub] = cmd_sweep(root, config)
        csv_a = (tmp_path / "a" / "sweep_plp.csv").read_bytes()
        csv_b = (tmp_path / "b" / "sweep_plp.csv").read_bytes()
        assert csv_a == csv_b
        rows = out["a"]["rows"]
        assert len(rows) == len(config.seeds) * len(config.gamma_grid)
        assert all(r["e_r"] >= 0 for r in rows)
        summary = out["a"]["summary"]
        med = {g: summary["per_gamma"][g]["median_e_r"] for g in summary["per_gamma"]}
        assert summary["best_gamma"] == min(med, key=med.get)
        header = csv_a.decode().splitlines()
        assert header[0].startswith("#") and header[1] == ",".join(cli.SWEEP_COLUMNS)

    def test_concurrent_equals_sequential(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json"))
        for sub, threads in (("seq", 1), ("par", 3)):
            root = tmp_path / sub
            cmd_generate(config, out_dir=root)
            cmd_sweep(root, config, threads=threads)
        # Every file: scenarios, CSV, summary and each fit directory.
        assert tree_bytes(tmp_path / "seq") == tree_bytes(tmp_path / "par")

    def test_standalone_fit_matches_sweep_cell(self, tmp_path):
        # The sweep hands its loaded scenario to cmd_fit; a fit that reads
        # the directory itself must write the same bytes.
        config = load_config(write_config(tmp_path / "c.json"))
        root = tmp_path / "out"
        cmd_generate(config, out_dir=root)
        cmd_sweep(root, config)
        for seed in config.seeds:
            scen = root / f"seed_{seed}"
            for gamma in config.gamma_grid:
                alone = tmp_path / "alone" / f"{seed}_{gamma:g}"
                cmd_fit(scen, PenaltySpec.plp(gamma), config.solver,
                        config.t_r, config.score_variant, out_dir=alone)
                assert tree_bytes(alone) == tree_bytes(scen / f"fit_plp_{gamma:g}")

    @pytest.mark.parametrize("threads", [1, 3])
    def test_sweep_loads_each_scenario_once_per_seed(self, tmp_path,
                                                     monkeypatch, threads):
        config = load_config(write_config(tmp_path / "c.json",
                                          seeds=[0, 1, 2]))
        root = tmp_path / "out"
        cmd_generate(config, out_dir=root)
        models, observations = [], []
        load_model, load_observations = ggm.load_model, ggm.load_observations
        monkeypatch.setattr(ggm, "load_model", lambda *args: (
            models.append(args) or load_model(*args)))
        monkeypatch.setattr(ggm, "load_observations", lambda *args: (
            observations.append(args) or load_observations(*args)))
        out = cmd_sweep(root, config, threads=threads)
        seeds = len(config.seeds)
        assert len(out["rows"]) == seeds * len(config.gamma_grid) == 9
        assert len(models) == 2 * seeds
        assert len(observations) == seeds

    def test_mixed_penalty_sweep(self, tmp_path):
        config = load_config(write_config(
            tmp_path / "c.json", penalty_kind="mixed",
            gamma_grid=[[0.05, 0.1], [0.1, 0.2]], seeds=[0],
            scenario={"dim": 6, "edge_density": 0.3, "n_add": 1,
                      "n_remove": 1, "seed": 0}))
        root = tmp_path / "out"
        cmd_generate(config, out_dir=root)
        out = cmd_sweep(root, config)
        assert [r["gamma"] for r in out["rows"]] == ["0.05/0.1", "0.1/0.2"]
        assert (root / "sweep_mixed.csv").exists()

    def test_single_cell_sweep_has_one_row(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json",
                                          gamma_grid=[0.1], seeds=[3]))
        root = tmp_path / "out"
        cmd_generate(config, out_dir=root)
        out = cmd_sweep(root, config)
        assert len(out["rows"]) == 1

    def test_cell_loads_each_model_once(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path / "c.json",
                                          gamma_grid=[0.1], seeds=[3]))
        root = tmp_path / "out"
        cmd_generate(config, out_dir=root)
        loaded = []
        load_model = ggm.load_model
        monkeypatch.setattr(ggm, "load_model", lambda directory, prefix: (
            loaded.append(prefix) or load_model(directory, prefix)))
        row = cmd_sweep(root, config)["rows"][0]
        assert sorted(loaded) == ["prior", "true"]
        report = json.loads((root / "seed_3" / "fit_plp_0.1" / "report.json").read_text())
        assert row["e_r"] == report["e_r"]


class TestBaselines:
    def test_k_defaults_from_truth(self, scenario_dir, tmp_path):
        reports = cmd_baselines(scenario_dir, out_dir=tmp_path / "base")
        cn = reports["cn"]
        # scenario adds one edge, so the appearing baseline predicts one
        assert len(cn.predicted_support.off_diagonal()) == \
            len(symmat.read_support(scenario_dir / "prior_support.txt")
                .off_diagonal()) + 1
        assert cn.false_positives is not None
        assert (tmp_path / "base" / "baseline_cn.json").exists()
        assert (tmp_path / "base" / "baseline_reversed_cn.json").exists()

    def test_k_zero_no_change(self, scenario_dir, tmp_path):
        reports = cmd_baselines(scenario_dir, k=0, out_dir=tmp_path / "base")
        prior = symmat.read_support(scenario_dir / "prior_support.txt")
        truth = symmat.read_support(scenario_dir / "true_support.txt")
        cn = reports["cn"]
        assert cn.false_positives == 0
        assert cn.false_negatives == len(truth.minus(prior).off_diagonal())

    def test_missing_truth_requires_k(self, tmp_path, scenario_dir):
        stripped = tmp_path / "stripped"
        os.makedirs(stripped)
        for name in ("prior_covariance.txt", "prior_precision.txt",
                     "prior_support.txt", "observations.csv"):
            (stripped / name).write_bytes((scenario_dir / name).read_bytes())
        with pytest.raises(ValueError, match="supply --k"):
            cmd_baselines(stripped)

    def test_complete_prior_ties_flagged(self, tmp_path):
        dim = 5
        pairs = [(i, i) for i in range(1, dim + 1)] + \
            [(i, j) for i in range(2, dim + 1) for j in range(1, i)]
        sup = SupportPattern(dim, pairs)
        directory = tmp_path / "scen"
        os.makedirs(directory)
        symmat.write_support(sup, directory / "prior_support.txt")
        symmat.write_support(sup, directory / "true_support.txt")
        reports = cmd_baselines(directory, k=1)
        assert reports["reversed_cn"].ties


class TestMainEntry:
    def test_generate_fit_eval_round_trip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        scen = tmp_path / "out" / "seed_0"
        assert main(["fit", str(scen), "--penalty", "plp",
                     "--gamma", "0.1"]) == 0
        fit_dir = scen / "fit_plp_0.1"
        assert fit_dir.exists()
        code = main(["eval", str(fit_dir / "predicted_support.txt"),
                     str(scen / "true_support.txt"),
                     "--out", str(tmp_path / "eval.json")])
        assert code == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert "false_positives" in report

    def test_sweep_and_baselines_commands(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json",
                                output_dir=str(tmp_path / "out"))
        assert main(["generate", "--config", str(cfg_path)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--threads", "2"]) == 0
        assert (tmp_path / "out" / "sweep_plp.csv").exists()
        assert (tmp_path / "out" / "sweep_plp_summary.json").exists()
        assert main(["baselines", str(tmp_path / "out" / "seed_0")]) == 0

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"N": 5}))
        assert main(["generate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1

    def test_io_exit_code(self, tmp_path):
        assert main(["fit", str(tmp_path / "nonexistent"), "--penalty", "plp",
                     "--gamma", "0.1"]) == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json",
                                solver={"max_iters": 2, "grad_tol": 1e-14})
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        scen = tmp_path / "out" / "seed_0"
        code = main(["fit", str(scen), "--penalty", "plp", "--gamma", "0.1",
                     "--config", str(cfg_path)])
        assert code == 3
        # results are still written
        assert (scen / "fit_plp_0.1" / "report.json").exists()

    def test_mixed_gamma_pair_parsing(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        scen = tmp_path / "out" / "seed_0"
        assert main(["fit", str(scen), "--penalty", "mixed",
                     "--gamma", "0.1,0.2"]) == 0
        assert main(["fit", str(scen), "--penalty", "mixed",
                     "--gamma", "0.1"]) == 1

    @pytest.mark.parametrize("overrides", [
        {"t_r": float("nan")},
        {"t_r": float("inf")},
        {"gamma_grid": [float("nan")]},
        {"gamma_grid": [0.1, float("inf")]},
        {"penalty_kind": "mixed", "gamma_grid": [[0.1, float("nan")]]},
        {"solver": {"grad_tol": float("nan")}},
    ], ids=["t_r_nan", "t_r_inf", "gamma_nan", "gamma_inf", "mixed_nan",
            "grad_tol_nan"])
    def test_non_finite_config_values_exit_one(self, tmp_path, capsys,
                                               overrides):
        cfg_path = write_config(tmp_path / "c.json", **overrides)
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides", [
        {"scenario": {"dim": 6, "edge_density": 0.3, "n_add": 1,
                      "n_remove": 0}},
        {"scenario": {"dim": "6", "edge_density": 0.3, "n_add": 1,
                      "n_remove": 0, "seed": 0}},
        {"scenario": 6},
        {"seeds": 5},
        {"seeds": ["0"]},
        {"N": "200"},
        {"penalty_kind": ["plp"], "gamma_grid": None},
        {"gamma_grid": 0.1},
        {"gamma_grid": [None]},
        {"gamma_grid": ["0.1"]},
        {"output_dir": 3},
        {"solver": {"max_iters": "5"}},
        {"solver": {"grad_tol": True}},
        {"solver": 5},
        {"gamma_grid": [True]},
        {"penalty_kind": "mixed", "gamma_grid": [[0.1, True]]},
        {"t_r": True},
    ], ids=["missing_seed", "str_dim", "scenario_int", "seeds_int",
            "seed_str", "n_str", "kind_list", "grid_scalar", "grid_null",
            "grid_str", "output_dir_int", "max_iters_str", "grad_tol_bool",
            "solver_int", "grid_bool", "mixed_bool", "t_r_bool"])
    def test_config_type_errors_exit_one(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path / "c.json", **overrides)
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"penalty_kind": "known", "gamma_grid": [0.1]}, "support"),
        ({"seeds": [0, 0]}, "seeds must be distinct"),
        ({"gamma_grid": [0.1, 0.1000001, 0.3]}, "labels must be distinct"),
        ({"penalty_kind": "mixed", "gamma_grid": [[0.1, 0.2], [0.1000001, 0.2]]},
         "labels must be distinct"),
    ], ids=["known_kind", "repeated_seed", "colliding_gammas",
            "colliding_pairs"])
    def test_config_conflicts_exit_one(self, tmp_path, capsys, overrides,
                                       message):
        # Each would write or merge the wrong fits if it reached a sweep.
        path = write_config(tmp_path / "c.json", **overrides)
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert message in err[0]
        assert not (tmp_path / "o").exists()

    def test_model_files_of_different_dimensions_exit_one(self, tmp_path,
                                                          capsys):
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        scen = tmp_path / "out" / "seed_0"
        symmat.write_support(SupportPattern.diagonal(5),
                             scen / "prior_support.txt")
        capsys.readouterr()
        assert main(["fit", str(scen), "--penalty", "plp",
                     "--gamma", "0.1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: model dimensions differ: covariance 6, "
                       "precision 6, support 5"]

    @pytest.mark.parametrize("penalty, gamma", [
        ("plp", "nan"), ("nlp", "nan"), ("plp", "inf"), ("mixed", "0.1,nan"),
    ])
    def test_non_finite_gamma_exits_one(self, tmp_path, capsys, penalty,
                                        gamma):
        # The penalty is validated before the scenario directory is read.
        assert main(["fit", str(tmp_path / "scen"), "--penalty", penalty,
                     "--gamma", gamma]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "finite" in err[0]
        if penalty != "mixed":
            assert "gamma" in err[0]

    def test_non_finite_observation_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        obs = tmp_path / "out" / "seed_0" / "observations.csv"
        rows = obs.read_text().splitlines()
        rows[3] = ",".join(["nan"] + rows[3].split(",")[1:])
        obs.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(obs.parent), "--penalty", "plp",
                     "--gamma", "0.1"]) == 1
        err = capsys.readouterr().err
        assert "non-finite observations" in err
        assert "no feasible descent step" not in err

    @pytest.mark.parametrize("text", ["", "1.0,abc\n", "1.0,2.0\n3.0\n"],
                             ids=["empty", "non_numeric", "ragged"])
    def test_malformed_observations_exit_one(self, tmp_path, capsys, text):
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        scen = tmp_path / "out" / "seed_0"
        (scen / "observations.csv").write_text(text)
        capsys.readouterr()
        # An empty file must not reach loadtxt's "no data" warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", str(scen), "--penalty", "plp", "--gamma", "0.1"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        if not text:
            assert "no observations" in err[0]

    def test_sweep_without_truth_fails_before_fitting(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json", seeds=[0],
                                output_dir=str(tmp_path / "out"))
        assert main(["generate", "--config", str(cfg_path)]) == 0
        scen = tmp_path / "out" / "seed_0"
        truth_files = list(scen.glob("true_*"))
        assert len(truth_files) == 3
        for path in truth_files:
            path.unlink()
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "sweep needs the true model on disk" in err[0]
        assert not list(scen.glob("fit_*"))

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_sweep_threads_below_one_exit_one(self, tmp_path, capsys, threads):
        cfg_path = write_config(tmp_path / "c.json",
                                output_dir=str(tmp_path / "out"))
        assert main(["sweep", "--config", str(cfg_path),
                     "--threads", threads]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: threads must be >= 1"]

    @pytest.mark.parametrize("name", ["step_init", "backtrack_factor",
                                      "armijo_const", "zero_tol",
                                      "divergence_bound"])
    def test_removed_solver_fields_exit_one(self, tmp_path, capsys, name):
        cfg_path = write_config(tmp_path / "c.json", solver={name: 0.5})
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "unknown solver config fields" in err[0]

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--bogus"])
        assert exc.value.code == 1

    def test_predicted_supports_symmetric_with_diagonal(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json")
        main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        scen = tmp_path / "o" / "seed_1"
        main(["fit", str(scen), "--penalty", "plp", "--gamma", "0.05"])
        predicted = symmat.read_support(
            scen / "fit_plp_0.05" / "predicted_support.txt")
        assert SupportPattern.diagonal(6).issubset(predicted)
        for i, j in predicted.pairs():
            assert (j, i) in predicted
