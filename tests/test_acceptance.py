"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible under
`pytest -s`) and then asserts. Criteria 5 and 6 share one full-pipeline
sweep over 20 seeds per link-change direction, run through the CLI layer.
"""

import time

import numpy as np
import pytest

from ggmlink import (
    GaussianModel,
    PenaltySpec,
    ScenarioSpec,
    SolverConfig,
    SupportPattern,
    SymmetricMatrix,
    common_neighbors,
    draw_samples,
    dual_smooth_gradient,
    dual_smooth_value,
    evaluate,
    frobenius_norm,
    kl_divergence,
    perturb_model,
    plp_baseline,
    random_feasible_start,
    random_model,
    sample_covariance,
    score_matrix,
    solve,
    solve_known_support,
    threshold_support,
)
from ggmlink import cli
from ggmlink.cli import ExperimentConfig, cmd_generate, cmd_sweep
from ggmlink.ggm import _dominant_diagonal
from ggmlink.symmat import _tril_of
from conftest import make_instance, random_pd, random_symmetric

from test_ggm import gaussian_logpdf
from test_solver import scalar_prox_oracle

GAMMA_GRID_PLP = (0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.5)
GAMMA_GRID_NLP = (0.05, 0.1, 0.15, 0.26, 0.5, 1.0, 2.0)
THRESHOLD = 1e-4
N_SEEDS = 20
N_OBS = 1000


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_finite_differences():
    t_start = time.monotonic()
    rng = np.random.default_rng(101)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        s_inv = random_pd(5, rng)
        t_hat = random_pd(5, rng)
        lam = random_feasible_start(s_inv, seed=int(rng.integers(1 << 30)))
        grad = dual_smooth_gradient(lam, s_inv, t_hat).to_array()
        for _ in range(20):
            d = random_symmetric(5, rng)
            up = dual_smooth_value(lam + h * d, s_inv, t_hat)
            dn = dual_smooth_value(lam - h * d, s_inv, t_hat)
            fd = (up - dn) / (2 * h)
            an = float(np.sum(grad * d.to_array()))
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    elapsed = time.monotonic() - t_start
    report(1, worst < 1e-5 and elapsed < 5.0,
           f"max relative FD error {worst:.2e} (limit 1e-5), "
           f"runtime {elapsed:.2f}s (limit 5s)")


# ---------------------------------------------------------------------------
# 2. Prox correctness
# ---------------------------------------------------------------------------

def test_criterion_2_prox_brute_force():
    from ggmlink import prox_mixed, prox_nlp, prox_plp
    t_start = time.monotonic()
    rng = np.random.default_rng(102)
    inside = SupportPattern(2, [(1, 1), (2, 2), (2, 1)])
    outside = SupportPattern(2, [(1, 1), (2, 2)])
    worst = 0.0
    for _ in range(250):
        v = float(rng.uniform(-2, 2))
        s = float(rng.uniform(-1.5, 1.5))
        t = float(rng.uniform(0.05, 2.0))
        gam = float(rng.uniform(0.01, 1.0))
        eta = float(rng.uniform(0.01, 1.0))
        lam = SymmetricMatrix.from_array([[0.4, v], [v, -0.3]])
        s_inv = SymmetricMatrix.from_array([[1.0, s], [s, 2.0]])
        checks = (
            (prox_plp(lam, t, gam, outside)[2, 1], (v, 0.0, t * gam)),
            (prox_nlp(lam, t, gam, s_inv, inside)[2, 1], (v, s, t * gam)),
            (prox_mixed(lam, t, gam, eta, s_inv, outside)[2, 1], (v, 0.0, t * gam)),
            (prox_mixed(lam, t, gam, eta, s_inv, inside)[2, 1], (v, s, t * eta)),
        )
        for got, args in checks:
            worst = max(worst, abs(got - scalar_prox_oracle(*args)))
    elapsed = time.monotonic() - t_start
    report(2, worst < 1e-4 and elapsed < 5.0,
           f"1000 random triples, max |prox - oracle| {worst:.2e} (limit 1e-4), "
           f"runtime {elapsed:.2f}s (limit 5s)")


# ---------------------------------------------------------------------------
# 3. Known-support solver
# ---------------------------------------------------------------------------

def test_criterion_3_known_support():
    t_start = time.monotonic()
    failures = []
    for k, child in enumerate(np.random.SeedSequence(103).spawn(50)):
        s_seed, t_seed, o_seed, om_seed = [int(x) for x in child.generate_state(4)]
        dim = 4 + (k % 7)
        prior = random_model(dim, 0.3, s_seed)
        truth = perturb_model(prior, ScenarioSpec(
            dim=dim, edge_density=0.3, n_add=1, n_remove=1, seed=t_seed))
        t_hat = sample_covariance(draw_samples(truth.covariance, 200, o_seed))
        rng = np.random.default_rng(om_seed)
        pairs = [(i, i) for i in range(1, dim + 1)] + \
            [(i, j) for i in range(2, dim + 1) for j in range(1, i)
             if rng.uniform() < 0.3]
        omega = SupportPattern(dim, pairs)
        scale = frobenius_norm(t_hat)
        res = solve_known_support(prior, t_hat, omega,
                                  SolverConfig(grad_tol=3e-9 * scale,
                                               max_iters=200000))
        if not res.converged:
            failures.append(f"instance {k}: no convergence")
        if res.constraint_residual > 1e-8 * scale:
            failures.append(f"instance {k}: residual {res.constraint_residual:.2e}")
        if abs(res.duality_gap) > 1e-6:
            failures.append(f"instance {k}: gap {res.duality_gap:.2e}")

    # Dempster special case: identity prior, diagonal constraints.
    d = np.array([0.5, 1.2, 2.0, 0.8, 3.0])
    prior = GaussianModel(SymmetricMatrix.identity(5))
    res = solve_known_support(prior, SymmetricMatrix.diagonal(d),
                              SupportPattern.diagonal(5),
                              SolverConfig(grad_tol=1e-12, max_iters=200000))
    dempster_err = float(np.max(np.abs(res.t_opt.to_array() - np.diag(d))))
    if dempster_err > 1e-8:
        failures.append(f"diagonal closed form off by {dempster_err:.2e}")

    elapsed = time.monotonic() - t_start
    report(3, not failures and elapsed < 60.0,
           f"50 instances m<=10: residual <= 1e-8*||T_hat||, |gap| <= 1e-6; "
           f"diagonal closed-form error {dempster_err:.2e} (limit 1e-8); "
           f"runtime {elapsed:.1f}s (limit 60s)"
           + (f"; failures: {failures[:3]}" if failures else ""))


# ---------------------------------------------------------------------------
# 4. Uniqueness via multi-start
# ---------------------------------------------------------------------------

def test_criterion_4_multistart_uniqueness():
    cfg = SolverConfig(grad_tol=1e-9)
    worst = {}
    for kind in ("known", "plp", "nlp", "mixed"):
        worst[kind] = 0.0
        for k in range(10):
            seeds = np.random.SeedSequence(104_000 + k).generate_state(5)
            prior, truth, t_hat = make_instance(int(seeds[0]), dim=6,
                                                density=0.3, n_obs=300)
            if kind == "known":
                rng = np.random.default_rng(int(seeds[1]))
                pairs = [(i, i) for i in range(1, 7)] + \
                    [(i, j) for i in range(2, 7) for j in range(1, i)
                     if rng.uniform() < 0.4]
                pen = PenaltySpec.known_support(SupportPattern(6, pairs))
                start_support = pen.omega
            elif kind == "plp":
                pen, start_support = PenaltySpec.plp(0.1), None
            elif kind == "nlp":
                pen, start_support = PenaltySpec.nlp(0.2), prior.precision_support
            else:
                pen, start_support = PenaltySpec.mixed(0.1, 0.15), None
            first = solve(prior, t_hat, pen, cfg)
            lam0 = random_feasible_start(prior.precision, seed=int(seeds[2]),
                                         support=start_support)
            second = solve(prior, t_hat, pen, cfg, lam0=lam0)
            rel = (frobenius_norm(first.t_opt - second.t_opt)
                   / frobenius_norm(first.t_opt))
            worst[kind] = max(worst[kind], rel)
    ok = all(v < 1e-6 for v in worst.values())
    report(4, ok, "two feasible starts agree within 1e-6 relative: "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# 5 & 6. Desk-scale recovery and the regularization error curve
# ---------------------------------------------------------------------------

def run_sweep(tmp_root, kind, density, n_add, n_remove, grid):
    config = ExperimentConfig(
        scenario=ScenarioSpec(dim=10, edge_density=density, n_add=n_add,
                              n_remove=n_remove, seed=0),
        n=N_OBS,
        penalty_kind=kind,
        seeds=tuple(range(N_SEEDS)),
        gamma_grid=grid,
        t_r=THRESHOLD,
    )
    root = tmp_root / kind
    cmd_generate(config, out_dir=root)
    return cmd_sweep(root, config, threads=2)


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_sweeps")
    t_start = time.monotonic()
    out = {
        "plp": run_sweep(root, "plp", 0.25, 3, 0, GAMMA_GRID_PLP),
        "nlp": run_sweep(root, "nlp", 0.10, 0, 3, GAMMA_GRID_NLP),
    }
    out["elapsed"] = time.monotonic() - t_start
    return out


def recovery_by_gamma(sweep):
    rates = {}
    for row in sweep["rows"]:
        rates.setdefault(row["gamma"], []).append(row["exact_recovery"])
    return {g: float(np.mean(v)) for g, v in rates.items()}


def median_er_by_gamma(sweep):
    med = {}
    for row in sweep["rows"]:
        med.setdefault(row["gamma"], []).append(row["e_r"])
    return {g: float(np.median(v)) for g, v in med.items()}


def test_criterion_5_desk_scale_recovery(sweeps):
    results = {}
    for kind in ("plp", "nlp"):
        rates = recovery_by_gamma(sweeps[kind])
        best_gamma = max(rates, key=rates.get)
        results[kind] = (best_gamma, rates[best_gamma])
    ok = all(rate >= 0.8 for _, rate in results.values())
    ok = ok and sweeps["elapsed"] < 600.0
    report(5, ok,
           f"m=10, N={N_OBS}, 3 changed edges, t_r={THRESHOLD}: exact recovery "
           f"plp {results['plp'][1]:.0%} at gamma={results['plp'][0]}, "
           f"nlp {results['nlp'][1]:.0%} at gamma={results['nlp'][0]} "
           f"(threshold 80%); sweep runtime {sweeps['elapsed']:.0f}s (limit 600s)")


def test_criterion_6_error_curve_interior_minimum(sweeps):
    details = []
    ok = True
    for kind, grid in (("plp", GAMMA_GRID_PLP), ("nlp", GAMMA_GRID_NLP)):
        med = median_er_by_gamma(sweeps[kind])
        labels = [cli._gamma_label(g) for g in grid]
        meds = [med[label] for label in labels]
        interior = int(np.argmin(meds[1:-1])) + 1
        this_ok = meds[interior] < meds[0] and meds[interior] < meds[-1]
        ok = ok and this_ok
        details.append(
            f"{kind}: median E_r {meds[interior]:.4f} at gamma={labels[interior]} "
            f"vs extremes {meds[0]:.4f}/{meds[-1]:.4f}")
    report(6, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. Structural guarantees
# ---------------------------------------------------------------------------

def test_criterion_7_structural_guarantees():
    checks = []

    prior, truth, t_hat = make_instance(107, dim=8, density=0.3, n_add=0,
                                        n_remove=2, n_obs=N_OBS)
    res = solve(prior, t_hat, PenaltySpec.nlp(0.3))
    outside = ~prior.precision_support.mask()
    nlp_exact = (np.max(np.abs(res.lambda_opt.to_array()[outside])) == 0.0
                 and res.support_estimate_raw.issubset(prior.precision_support))
    checks.append(("nlp support inside prior (exact zeros)", nlp_exact))

    prior, truth, t_hat = make_instance(108, dim=7, density=0.3, n_obs=300)
    omega = SupportPattern(7, [(i, i) for i in range(1, 8)] + [(5, 2), (7, 1)])
    res = solve_known_support(prior, t_hat, omega)
    union_ok = res.support_estimate_raw.issubset(
        prior.precision_support.union(omega))
    checks.append(("known-support estimate inside prior-union-constraint",
                   union_ok))

    prior, truth, t_hat = make_instance(109, dim=8, density=0.3, n_add=2,
                                        n_remove=0, n_obs=N_OBS)
    res = solve(prior, t_hat, PenaltySpec.plp(1e6))
    plp_exact = np.max(np.abs(res.lambda_opt.to_array()
                              [~prior.precision_support.mask()])) == 0.0
    checks.append(("huge appearing-edge weight leaves exact zeros outside",
                   plp_exact))

    ok = all(passed for _, passed in checks)
    report(7, ok, "; ".join(f"{name}: {'ok' if passed else 'VIOLATED'}"
                            for name, passed in checks))


# ---------------------------------------------------------------------------
# 8. Baseline fidelity and the unfriendly network
# ---------------------------------------------------------------------------

def test_criterion_8_baselines_and_unfriendly_network():
    rng = np.random.default_rng(108)
    oracle_ok = True
    for _ in range(100):
        dim = int(rng.integers(3, 10))
        edges = [(i, j) for i in range(2, dim + 1) for j in range(1, i)
                 if rng.uniform() < 0.35]
        support = SupportPattern(dim, [(i, i) for i in range(1, dim + 1)] + edges)
        adj = np.zeros((dim, dim))
        for i, j in edges:
            adj[i - 1, j - 1] = adj[j - 1, i - 1] = 1.0
        expected = adj @ adj
        np.fill_diagonal(expected, 0.0)
        if not np.array_equal(common_neighbors(support).to_array(), expected):
            oracle_ok = False
            break

    # Unfriendly appearing-link instance: a perfect matching has no shared
    # neighbors anywhere, so the topology score carries no signal for the
    # new edge (6, 3); the data-driven fit still finds it.
    dim = 10
    struct = np.zeros((dim, dim))
    for i, j, w in [(1, 2, 0.5), (3, 4, -0.45), (5, 6, 0.5), (7, 8, -0.4),
                    (9, 10, 0.45)]:
        struct[i - 1, j - 1] = struct[j - 1, i - 1] = w
    prior = GaussianModel(
        SymmetricMatrix(dim, _tril_of(_dominant_diagonal(struct))))
    struct[5, 2] = struct[2, 5] = 0.5
    truth = GaussianModel(
        SymmetricMatrix(dim, _tril_of(_dominant_diagonal(struct))))
    assert common_neighbors(prior.precision_support)[6, 3] == 0.0

    baseline = plp_baseline(prior.precision_support, 1)
    base_eval = evaluate(baseline.predicted_support, truth.precision_support,
                         method_name="common_neighbors")
    baseline_misses = base_eval.false_negatives >= 1

    t_hat = sample_covariance(draw_samples(truth.covariance, N_OBS, 77))
    solver_hits = False
    for gamma in GAMMA_GRID_PLP:
        res = solve(prior, t_hat, PenaltySpec.plp(gamma))
        predicted = threshold_support(score_matrix(res.t_opt), THRESHOLD)
        rep = evaluate(predicted, truth.precision_support)
        if rep.mispredicted_total == 0 and (6, 3) in predicted:
            solver_hits = True
            break

    ok = oracle_ok and baseline_misses and solver_hits
    report(8, ok,
           f"adjacency-square oracle on 100 graphs: {'ok' if oracle_ok else 'FAIL'}; "
           f"unfriendly instance: baseline false negatives "
           f"{base_eval.false_negatives} (>=1), tuned fit recovers exactly: "
           f"{solver_hits}")


# ---------------------------------------------------------------------------
# 9. KL divergence properties
# ---------------------------------------------------------------------------

def test_criterion_9_kl_properties():
    rng = np.random.default_rng(109)
    nonneg_ok = True
    for _ in range(100):
        t = random_pd(5, rng)
        s = random_pd(5, rng)
        if kl_divergence(t, s) < 0:
            nonneg_ok = False
    s = random_pd(5, rng)
    identity_val = kl_divergence(s, s)

    cov_t = random_pd(4, rng)
    cov_s = random_pd(4, rng)
    x = draw_samples(cov_t, 100_000, seed=1090).samples
    ratio = (gaussian_logpdf(x, cov_t.to_array())
             - gaussian_logpdf(x, cov_s.to_array()))
    mc, se = float(np.mean(ratio)), float(np.std(ratio) / np.sqrt(len(ratio)))
    mc_err = abs(kl_divergence(cov_t, cov_s) - mc)

    ok = nonneg_ok and identity_val < 1e-12 and mc_err < 3 * se
    report(9, ok,
           f"nonnegative on 100 random pairs: {nonneg_ok}; identity value "
           f"{identity_val:.1e} (limit 1e-12); Monte-Carlo gap {mc_err:.2e} "
           f"vs 3*SE {3 * se:.2e}")
