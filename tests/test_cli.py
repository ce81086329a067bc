"""Experiment harness: config parsing, artifacts, determinism, exit codes."""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ggmlink import SupportPattern, cli, ggm, solver, symmat
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


def fit_alone(scenario_dir, penalty, config, out_dir, **kwargs):
    """cmd_fit on a scenario directory with the settings of ``config``."""
    return cmd_fit(scenario_dir, penalty, config.solver, config.t_r,
                   config.score_variant, out_dir=out_dir, **kwargs)


def relative_difference(a, reference):
    return symmat.frobenius_norm(a - reference) / symmat.frobenius_norm(reference)


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
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out"), "--seed", "5"]) == 0
        assert os.listdir(tmp_path / "out") == ["seed_5"]

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
        for r in rows:  # edges are off-diagonal pairs
            predicted = symmat.read_support(
                tmp_path / "a" / f"seed_{r['seed']}" / f"fit_plp_{r['gamma']}"
                / "predicted_support.txt")
            assert r["predicted_edges"] == len(predicted.off_diagonal())
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
        # The sweep hands its loaded scenario to cmd_fit, starts each seed's
        # first cell cold and each later one from the cell before it. A fit
        # that reads the directory itself from the same start writes the
        # same bytes; a cold fit agrees within criterion 4's tolerance, with
        # the same predicted support.
        config = load_config(write_config(tmp_path / "c.json"))
        root = tmp_path / "out"
        cmd_generate(config, out_dir=root)
        rows = cmd_sweep(root, config)["rows"]
        assert all(r["converged"] for r in rows)
        for seed in config.seeds:
            scen = root / f"seed_{seed}"
            lam0 = None
            for gamma in config.gamma_grid:
                cell = scen / f"fit_plp_{gamma:g}"
                same, cold = (tmp_path / name / f"{seed}_{gamma:g}"
                              for name in ("same", "cold"))
                warm, _ = fit_alone(scen, PenaltySpec.plp(gamma), config,
                                    same, _lam0=lam0)
                assert tree_bytes(same) == tree_bytes(cell)
                first, _ = fit_alone(scen, PenaltySpec.plp(gamma), config, cold)
                assert relative_difference(warm.t_opt, first.t_opt) < 1e-6
                assert ((cold / "predicted_support.txt").read_bytes()
                        == (cell / "predicted_support.txt").read_bytes())
                if lam0 is None:
                    assert tree_bytes(cold) == tree_bytes(cell)
                lam0 = warm.lambda_opt

    def test_unconverged_cell_seeds_no_warm_start(self, tmp_path):
        # Every cell stops at max_iters, so every cell starts cold: each
        # fit directory is a cold standalone fit's, byte for byte.
        config = load_config(write_config(
            tmp_path / "c.json", solver={"max_iters": 2, "grad_tol": 1e-12}))
        root = tmp_path / "out"
        cmd_generate(config, out_dir=root)
        rows = cmd_sweep(root, config)["rows"]
        assert not any(r["converged"] for r in rows)
        for seed in config.seeds:
            scen = root / f"seed_{seed}"
            for gamma in config.gamma_grid:
                alone = tmp_path / "alone" / f"{seed}_{gamma:g}"
                fit_alone(scen, PenaltySpec.plp(gamma), config, alone)
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

    def test_sweep_forms_one_second_moment_per_seed(self, tmp_path, monkeypatch):
        # A seed's gamma cells share its observation set, and with it one
        # sample covariance: one product per seed, one T_hat object per seed.
        config = load_config(write_config(tmp_path / "c.json", seeds=[0, 1]))
        root = tmp_path / "out"
        cmd_generate(config, out_dir=root)
        products, t_hats = [], []
        tril_of, solve = ggm._tril_of, solver.solve
        monkeypatch.setattr(ggm, "_tril_of", lambda arr: (
            products.append(arr.shape) or tril_of(arr)))
        monkeypatch.setattr(solver, "solve", lambda prior, t_hat, *args, **kw: (
            t_hats.append(t_hat) or solve(prior, t_hat, *args, **kw)))
        cmd_sweep(root, config)
        assert len(t_hats) == 2 * len(config.gamma_grid) == 6
        assert len({id(t_hat) for t_hat in t_hats}) == 2
        assert products == [(6, 6)] * 2

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

    def test_mixed_sweep_warm_starts_and_agrees_with_cold_fits(
            self, tmp_path, monkeypatch):
        # An unsorted grid of (eta_p, eta_n) pairs: every cell after the
        # first starts from the one before it in grid order, converges, and
        # agrees with a cold fit within criterion 4's tolerance.
        grid = [[0.1, 0.2], [0.02, 0.05], [0.3, 0.1], [0.05, 0.3]]
        config = load_config(write_config(
            tmp_path / "c.json", penalty_kind="mixed", gamma_grid=grid,
            scenario={"dim": 6, "edge_density": 0.3, "n_add": 1,
                      "n_remove": 1, "seed": 0}))
        root = tmp_path / "out"
        cmd_generate(config, out_dir=root)
        starts = []
        solve = solver.solve
        monkeypatch.setattr(solver, "solve", lambda *args, lam0=None: (
            starts.append(lam0) or solve(*args, lam0=lam0)))
        rows = cmd_sweep(root, config)["rows"]
        monkeypatch.undo()
        assert all(r["converged"] for r in rows)
        warm = [start is not None for start in starts]
        assert warm == ([False] + [True] * (len(grid) - 1)) * len(config.seeds)
        for seed in config.seeds:
            scen = root / f"seed_{seed}"
            for eta_p, eta_n in grid:
                cell = scen / f"fit_mixed_{eta_p:g}_{eta_n:g}"
                cold = tmp_path / "cold" / f"{seed}_{eta_p:g}_{eta_n:g}"
                first, _ = fit_alone(scen, PenaltySpec.mixed(eta_p, eta_n),
                                     config, cold)
                t_opt = symmat.read_matrix(cell / "t_opt.txt")
                assert relative_difference(t_opt, first.t_opt) < 1e-6
                assert ((cold / "predicted_support.txt").read_bytes()
                        == (cell / "predicted_support.txt").read_bytes())

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


# The artifact writers as they were before they shared one os.write,
# formatted each stored entry once and wrote compact JSON: text-mode files,
# json.dumps with an indent, and repr over the rows of the full array.
def text_mode_write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def full_array_write_matrix(a, path, header=None):
    head = [f"# {header}"] if header else []
    rows = [" ".join(repr(float(v)) for v in row) for row in a.to_array()]
    text_mode_write(path, "\n".join(head + [str(a.dim)] + rows) + "\n")


def json_dumps_save_metadata(meta, path):
    text_mode_write(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")


class TestArtifactWrites:
    def test_tree_matches_the_previous_writers(self, tmp_path, monkeypatch):
        # generate, sweep, baselines and one eval --out on a dim-6 config,
        # whose fits hold negative zeros in t_opt, lambda_opt and scores.
        # Text files keep the previous writers' bytes; a JSON file holds
        # json's compact text, with sorted keys, of the previous file's value.
        config = load_config(write_config(tmp_path / "c.json"))

        def write_tree(root):
            cmd_generate(config, out_dir=root)
            cmd_sweep(root, config)
            cmd_baselines(root / "seed_0")
            scenario = str(root / "seed_0")
            assert main(["eval", f"{scenario}/prior_support.txt",
                         f"{scenario}/true_support.txt",
                         "--out", str(root / "eval.json")]) == 0
            return tree_bytes(root)

        shipped = write_tree(tmp_path / "shipped")
        negative_zeros = []

        def write_matrix(a, *args, **kwargs):
            negative_zeros.append(np.count_nonzero(np.signbit(a.packed())
                                                   & (a.packed() == 0.0)))
            full_array_write_matrix(a, *args, **kwargs)

        for module in (symmat, ggm):
            monkeypatch.setattr(module, "write_matrix", write_matrix)
            monkeypatch.setattr(module, "_write_text", text_mode_write)
        monkeypatch.setattr(ggm, "save_metadata", json_dumps_save_metadata)
        previous = write_tree(tmp_path / "previous")
        assert sum(negative_zeros) > 0
        assert len(shipped) == 2 * 8 + 2 * 3 * 5 + 2 + 2 + 1
        assert shipped.keys() == previous.keys()
        for name, data in shipped.items():
            if name.endswith(".json"):
                value = json.loads(data)
                assert data == (json.dumps(value, sort_keys=True) + "\n").encode(), name
                assert value == json.loads(previous[name]), name
            else:
                assert data == previous[name], name

    @pytest.mark.parametrize("target", ["directory", "missing_parent"])
    @pytest.mark.parametrize("write", [
        lambda path: symmat.write_matrix(symmat.SymmetricMatrix.identity(2), path),
        lambda path: symmat.write_support(SupportPattern.diagonal(2), path),
        lambda path: ggm.save_metadata({"a": 1}, path),
    ], ids=["matrix", "support", "metadata"])
    def test_write_errors_are_those_of_open(self, tmp_path, write, target):
        path = tmp_path if target == "directory" else tmp_path / "missing" / "x.txt"
        with pytest.raises(OSError) as expected:
            open(path, "w")
        with pytest.raises(OSError) as raised:
            write(path)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("case", ["eval_to_directory", "eval_to_missing_parent",
                                      "sweep_csv_is_a_directory"])
    def test_cli_write_error_exits_2_naming_the_path(self, tmp_path, capsys, case):
        support = tmp_path / "s.txt"
        symmat.write_support(SupportPattern.diagonal(3), support)
        if case == "sweep_csv_is_a_directory":
            cfg_path = write_config(tmp_path / "c.json", gamma_grid=[0.1], seeds=[0],
                                    output_dir=str(tmp_path / "out"))
            assert main(["generate", "--config", str(cfg_path)]) == 0
            target = tmp_path / "out" / "sweep_plp.csv"
            target.mkdir()
            argv = ["sweep", "--config", str(cfg_path)]
        else:
            target = (tmp_path if case == "eval_to_directory"
                      else tmp_path / "missing" / "e.json")
            argv = ["eval", str(support), str(support), "--out", str(target)]
        capsys.readouterr()
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("I/O error: ") and str(target) in lines[0]


def desk_scenario(tmp_path):
    """Config path and seed-0 directory of the desk plp scenario (dim 10,
    density 0.25, three edges added), generated under ``tmp_path``."""
    cfg_path = write_config(
        tmp_path / "c.json", seeds=[0], N=1000, output_dir=str(tmp_path / "out"),
        scenario={"dim": 10, "edge_density": 0.25, "n_add": 3, "n_remove": 0,
                  "seed": 0})
    assert main(["generate", "--config", str(cfg_path)]) == 0
    return cfg_path, tmp_path / "out" / "seed_0"


def drop_edge(path, edge):
    """Rewrite the support file at ``path`` without ``edge``."""
    support = symmat.read_support(path)
    assert edge in support
    symmat.write_support(SupportPattern(support.dim, set(support.pairs()) - {edge}),
                         path)


class TestModelFiles:
    """A model is read from its precision file; a precision that is not
    PD, or a support file that is not its support, fails with one line."""

    def test_non_pd_prior_precision_exits_one(self, tmp_path, capsys):
        _, scen = desk_scenario(tmp_path)
        precision = symmat.read_matrix(scen / "prior_precision.txt")
        packed = precision.packed().copy()
        packed[0] = -packed[0]
        symmat.write_matrix(symmat.SymmetricMatrix(precision.dim, packed),
                            scen / "prior_precision.txt")
        capsys.readouterr()
        assert main(["fit", str(scen), "--penalty", "plp",
                     "--gamma", "0.1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "prior" in err[0] and "not positive definite" in err[0]
        assert not list(scen.glob("fit_*"))

    def test_fit_rejects_edited_prior_support(self, tmp_path, capsys):
        _, scen = desk_scenario(tmp_path)
        drop_edge(scen / "prior_support.txt", (2, 1))
        capsys.readouterr()
        assert main(["fit", str(scen), "--penalty", "plp",
                     "--gamma", "0.1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {scen / 'prior_support.txt'}: support differs"
                       " from the nonzeros of prior_precision.txt"]

    def test_sweep_rejects_edited_prior_support_before_fitting(self, tmp_path,
                                                               capsys):
        cfg_path, scen = desk_scenario(tmp_path)
        drop_edge(scen / "prior_support.txt", (2, 1))
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert str(scen / "prior_support.txt") in err[0]
        assert not list(scen.glob("fit_*"))

    def test_baselines_reject_edited_prior_support(self, tmp_path, capsys):
        _, scen = desk_scenario(tmp_path)
        drop_edge(scen / "prior_support.txt", (2, 1))
        capsys.readouterr()
        assert main(["baselines", str(scen)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {scen / 'prior_support.txt'}: support differs"
                       " from the nonzeros of prior_precision.txt"]
        assert not list(scen.glob("baseline_*"))

    def test_fit_known_rejects_edited_true_support(self, tmp_path, capsys):
        _, scen = desk_scenario(tmp_path)
        truth = symmat.read_support(scen / "true_support.txt")
        drop_edge(scen / "true_support.txt", truth.off_diagonal()[0])
        capsys.readouterr()
        assert main(["fit", str(scen), "--penalty", "known"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {scen / 'true_support.txt'}: support differs"
                       " from the nonzeros of true_precision.txt"]


def edit_data_line(path, index, edit):
    """Rewrite data line ``index`` (0 is the dimension) of a matrix or
    support file through ``edit``."""
    lines = path.read_text().splitlines()
    data = [i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")]
    lines[data[index]] = edit(lines[data[index]])
    path.write_text("\n".join(lines) + "\n")


def replace_token(position, token):
    def edit(line):
        tokens = line.split()
        tokens[position] = token
        return " ".join(tokens)
    return edit


def append_byte(path):
    path.write_bytes(path.read_bytes() + b"\xff")


def first_columns(count):
    return lambda line: ",".join(line.split(",")[:count])


class TestMalformedFiles:
    """Each parse error of a scenario or config file fails with one line
    naming it."""

    @pytest.mark.parametrize("name, index, edit, reason", [
        ("prior_precision.txt", 0, lambda ln: "ten", "'ten'"),
        ("prior_precision.txt", 3, replace_token(4, "abc"), "'abc'"),
        ("prior_precision.txt", 2, replace_token(0, "0.5"), "not symmetric"),
        ("prior_support.txt", 2, lambda ln: "2 one", "'one'"),
        ("prior_support.txt", 2, lambda ln: "11 1", "pair (11, 1) out of range"),
    ])
    def test_fit_names_the_file(self, tmp_path, capsys, name, index, edit, reason):
        _, scen = desk_scenario(tmp_path)
        edit_data_line(scen / name, index, edit)
        capsys.readouterr()
        assert main(["fit", str(scen), "--penalty", "plp",
                     "--gamma", "0.1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {scen / name}: ")
        assert reason in err[0]
        assert not list(scen.glob("fit_*"))

    # Undecodable, non-finite, ragged or mis-sized input names the file,
    # not a consequence such as a solver's dimension check.
    @pytest.mark.parametrize("name, edit, reason", [
        ("prior_precision.txt", append_byte, "codec can't decode byte 0xff"),
        ("observations.csv", append_byte, "codec can't decode byte 0xff"),
        ("prior_precision.txt",
         lambda p: edit_data_line(p, 2, replace_token(0, "nan")), "non-finite entry"),
        ("observations.csv", lambda p: edit_data_line(p, 49, first_columns(3)),
         "columns"),
        ("observations.csv",
         lambda p: edit_data_line(p, 4, lambda ln: "inf" + ln[ln.index(","):]),
         "non-finite observations"),
        ("observations.csv", lambda p: p.write_text(
            "\n".join(map(first_columns(3), p.read_text().splitlines())) + "\n"),
         "3 columns, but the prior has dim 10"),
    ], ids=["precision_utf8", "observations_utf8", "precision_nan",
            "observations_ragged", "observations_inf", "observations_width"])
    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_names_the_file(self, tmp_path, capsys, name, edit, reason, command):
        cfg_path, scen = desk_scenario(tmp_path)
        edit(scen / name)
        capsys.readouterr()
        argv = (["fit", str(scen), "--penalty", "plp", "--gamma", "0.1"]
                if command == "fit" else ["sweep", "--config", str(cfg_path)])
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {scen / name}: ")
        assert reason in err[0]
        assert not list(scen.glob("fit_*"))

    @pytest.mark.parametrize("text, reason", [
        (b'{"N": 3,\n', "Expecting property name"),
        (b'{"N": 3\xff}', "codec can't decode byte 0xff"),
    ], ids=["syntax", "utf8"])
    def test_config_names_the_file(self, tmp_path, capsys, text, reason):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_bytes(text)
        assert main(["generate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {cfg_path}: ")
        assert reason in err[0]


# Each mutation maps a file's bytes to new bytes. Line edits act on the
# text's lines; line 0 is a matrix's or support's dimension, and a token
# edit replaces the first number of the first later line that has one, or
# a number at a seeded, drawn position.
_NUMBER = re.compile(r"-?\d+(\.\d*)?(e[-+]?\d+)?")


def _on_lines(edit):
    return lambda data: ("\n".join(edit(data.decode().splitlines())) + "\n").encode()


def _set_token(token):
    def edit(lines):
        at = next(i for i, ln in enumerate(lines) if i and _NUMBER.search(ln))
        lines[at] = _NUMBER.sub(token, lines[at], count=1)
        return lines
    return _on_lines(edit)


def _set_token_at(token, draw, name):
    """Replace a number drawn by a seed of ``draw`` and ``name``: any number
    of a CSV, or of any line after the first of other files."""
    def edit(lines):
        rng = random.Random(f"{name}/{draw}")
        first = 0 if name.endswith(".csv") else 1
        row = rng.choice([i for i in range(first, len(lines)) if _NUMBER.search(lines[i])])
        match = rng.choice(list(_NUMBER.finditer(lines[row])))
        lines[row] = lines[row][:match.start()] + token + lines[row][match.end():]
        return lines
    return _on_lines(edit)


def _set_config(**fields):
    return lambda data: json.dumps({**json.loads(data), **fields}, indent=2).encode()


MUTATIONS = {
    "empty": lambda data: b"",
    "header_only": _on_lines(lambda lines: lines[:1]),
    "row_dropped": _on_lines(lambda lines: lines[:-1]),
    "row_duplicated": _on_lines(lambda lines: lines + lines[-1:]),
    "nan": _set_token("nan"),
    "inf": _set_token("inf"),
    "1e400": _set_token("1e400"),
    "x": _set_token("x"),
    "2_5": _set_token("2_5"),
    "\u0661": _set_token("\u0661"),
    "wrong_dim": _on_lines(lambda lines: ["7"] + lines[1:]),
    "non_utf8": lambda data: data + b"\xff",
}
CONFIG_MUTATIONS = {
    "unbounded_n": _set_config(N=10**15),
    "negative_seed": _set_config(seeds=[-1]),
    # A 400-digit JSON integer: past the float range, so no threshold.
    "huge_t_r": _set_config(t_r=10**400),
}
# The token mutations again, each at three drawn positions of every file.
DRAWN_MUTATIONS = {f"{token}@{draw}": (token, draw)
                   for token in ("nan", "inf", "1e400", "x", "2_5", "\u0661")
                   for draw in range(3)}


def _mutation(name, mutation):
    if mutation in DRAWN_MUTATIONS:
        return _set_token_at(*DRAWN_MUTATIONS[mutation], name)
    return {**MUTATIONS, **CONFIG_MUTATIONS}[mutation]


# What each command runs, in a copy of the table's tree: the config c.json
# and the dim-6 scenario seed_0/ with predicted.txt, a copy of its truth's
# support.
COMMANDS = {
    "fit_plp": ["fit", "seed_0", "--penalty", "plp", "--gamma", "0.1"],
    "fit_known": ["fit", "seed_0", "--penalty", "known"],
    "fit_config": ["fit", "seed_0", "--penalty", "plp", "--gamma", "0.1",
                   "--config", "c.json"],
    "sweep": ["sweep", "--config", "c.json"],
    "baselines": ["baselines", "seed_0"],
    "generate": ["generate", "--config", "c.json", "--out", "gen"],
    "eval": ["eval", "seed_0/predicted.txt", "seed_0/true_support.txt"],
}
_MODEL_READERS = ("fit_plp", "fit_known", "sweep", "baselines")
READERS = {
    "seed_0/prior_precision.txt": _MODEL_READERS,
    "seed_0/prior_support.txt": _MODEL_READERS,
    "seed_0/true_precision.txt": _MODEL_READERS,
    "seed_0/true_support.txt": _MODEL_READERS + ("eval",),
    "seed_0/observations.csv": ("fit_plp", "fit_known", "sweep"),
    "seed_0/predicted.txt": ("eval",),
    "c.json": ("generate", "sweep", "fit_config"),
}
# Line edits that leave a set of lines valid: observations are any nonempty
# set of rows, and a support file is a set of pairs, though one beside a
# precision file must hold exactly its nonzeros.
_SET_EDITS = {"header_only", "row_dropped", "row_duplicated"}


def _still_valid(name, mutation, command):
    if name.endswith("observations.csv") or command == "eval":
        return mutation in _SET_EDITS
    return name.endswith("support.txt") and mutation == "row_duplicated"


@pytest.fixture(scope="module")
def input_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    path = root / "c.json"
    path.write_text(json.dumps({
        "scenario": {"dim": 6, "edge_density": 0.3, "n_add": 1, "n_remove": 1,
                     "seed": 0},
        "N": 200, "penalty_kind": "plp", "gamma_grid": [0.1], "seeds": [0],
        "output_dir": "."}, indent=2, sort_keys=True) + "\n")
    cmd_generate(load_config(path), out_dir=root)
    shutil.copy(root / "seed_0" / "true_support.txt",
                root / "seed_0" / "predicted.txt")
    return root


# What a command does without a file it reads but does not need: its exit
# code and the path its one line names. baselines reads support files, and a
# precision file beside one only checks it. Without true_support.txt a
# scenario has no truth, which fit accepts and which sweep and baselines
# (without --k) reject, naming the scenario.
MISSING_OK = {
    ("seed_0/prior_precision.txt", "baselines"): (0, None),
    ("seed_0/true_precision.txt", "baselines"): (0, None),
    ("seed_0/true_support.txt", "fit_plp"): (0, None),
    ("seed_0/true_support.txt", "fit_config"): (0, None),
    ("seed_0/true_support.txt", "sweep"): (1, "seed_0: sweep needs the true model"),
    ("seed_0/true_support.txt", "baselines"): (1, "seed_0: no truth on disk"),
}


class TestMalformedInputTable:
    """Every file a command reads, under a list of mutations: an
    invalid input exits 1 with one line naming the file, writes nothing
    and prints no traceback; a valid one exits 0 or 3. Removed, a file the
    command needs makes it exit 2 the same way."""

    @pytest.mark.parametrize("name, mutation, command", [
        (name, mutation, command)
        for name, commands in READERS.items()
        for mutation in list(MUTATIONS) + list(DRAWN_MUTATIONS)
        + (list(CONFIG_MUTATIONS) if name == "c.json" else [])
        for command in commands])
    def test_one_line_or_valid(self, input_tree, tmp_path, monkeypatch, capsys,
                               name, mutation, command):
        root = tmp_path / "tree"
        shutil.copytree(input_tree, root)
        monkeypatch.chdir(root)
        path = root / name
        path.write_bytes(_mutation(name, mutation)(path.read_bytes()))
        before = tree_bytes(root)
        code = main(COMMANDS[command])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if _still_valid(name, mutation, command):
            assert code in (0, 3), err
        else:
            assert code == 1
            lines = err.strip().splitlines()
            assert len(lines) == 1
            assert name in lines[0]
            assert tree_bytes(root) == before

    @pytest.mark.parametrize("name, command", [
        (name, command) for name, commands in READERS.items()
        for command in commands])
    def test_missing_file(self, input_tree, tmp_path, monkeypatch, capsys,
                          name, command):
        # Files the command can do without are in MISSING_OK.
        root = tmp_path / "tree"
        shutil.copytree(input_tree, root)
        monkeypatch.chdir(root)
        (root / name).unlink()
        before = tree_bytes(root)
        code = main(COMMANDS[command])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        expected_code, named = MISSING_OK.get((name, command), (2, name))
        assert code == expected_code, err
        if code == 0:
            assert err == ""
        else:
            lines = err.strip().splitlines()
            assert len(lines) == 1
            assert named in lines[0]
            assert tree_bytes(root) == before


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

    @pytest.mark.parametrize("k, added, dropped", [(None, 1, 1), (10, 4, 2)])
    def test_counts_exclude_the_diagonal(self, tmp_path, k, added, dropped):
        # Support files without precision files, each lacking diagonal pairs
        # the other holds: k and its caps count off-diagonal pairs only.
        prior = SupportPattern(4, [(1, 1), (2, 2), (2, 1), (3, 1)])
        truth = SupportPattern(4, [(3, 3), (4, 4), (2, 1), (4, 2)])
        symmat.write_support(prior, tmp_path / "prior_support.txt")
        symmat.write_support(truth, tmp_path / "true_support.txt")
        reports = cmd_baselines(tmp_path, k=k)
        diagonal = SupportPattern.diagonal(4)
        assert len(reports["cn"].predicted_support.minus(prior)
                   .minus(diagonal)) == added
        assert len(prior.minus(reports["reversed_cn"].predicted_support)) == dropped

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
    def test_python_m_runs_from_a_checkout(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        for name in ("a.txt", "b.txt"):
            symmat.write_support(SupportPattern.diagonal(3), tmp_path / name)
        proc = subprocess.run(
            [sys.executable, "-m", "ggmlink", "eval", "a.txt", "b.txt"], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["false_positives"] == 0

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

    def test_unbounded_dim_fails_in_one_line(self, tmp_path, capsys):
        # Rejected with the config, before anything of the dim's size is
        # allocated: at dim 10**9 a packed triangle would take 4 EB.
        cfg_path = write_config(tmp_path / "c.json",
                                scenario={"dim": 10**9, "edge_density": 0.3,
                                          "n_add": 1, "n_remove": 0, "seed": 0},
                                output_dir=str(tmp_path / "out"))
        tracemalloc.start()
        try:
            code = main(["generate", "--config", str(cfg_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "dim" in err[0] and "Traceback" not in err[0]
        assert peak < 2**20
        assert not (tmp_path / "out").exists()

    def test_unbounded_n_fails_in_one_line(self, tmp_path, capsys):
        # Rejected with the config, before the draw: at N 10**15 and dim 6
        # the samples would take 48 PB.
        cfg_path = write_config(tmp_path / "c.json", N=10**15,
                                output_dir=str(tmp_path / "out"))
        tracemalloc.start()
        try:
            code = main(["generate", "--config", str(cfg_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "N must be an integer" in err[0] and "Traceback" not in err[0]
        assert peak < 2**20
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"seeds": [0, -1]}, "seeds must be >= 0"),
        ({"scenario": {"dim": 6, "edge_density": 0.3, "n_add": 1, "n_remove": 0,
                       "seed": -1}}, "scenario seed must be an integer >= 0"),
    ], ids=["seeds", "scenario_seed"])
    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_negative_seed_fails_in_one_line(self, tmp_path, capsys, overrides,
                                             field, command):
        cfg_path = write_config(tmp_path / "c.json", **overrides,
                                output_dir=str(tmp_path / "out"))
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {cfg_path}: ") and field in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_negative_seed_flag_fails_in_one_line(self, tmp_path, capsys, command):
        # --seed narrows the config to one seed, checked like a seeds entry.
        cfg_path = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "out"))
        assert main([command, "--config", str(cfg_path), "--seed", "-1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --seed: seeds must be >= 0: [-1]"]
        assert not (tmp_path / "out").exists()

    def test_known_fit_rejects_a_gamma(self, tmp_path, capsys):
        # The gamma is refused before the scenario directory is read.
        assert main(["fit", str(tmp_path / "scen"), "--penalty", "known",
                     "--gamma", "0.1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: penalty 'known' takes a support, not a gamma"]

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
        assert err == [f"error: {scen / 'prior_support.txt'}: support differs"
                       " from the nonzeros of prior_precision.txt"]

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
        assert err == [f"error: threads must be an integer >= 1: {threads}"]

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
