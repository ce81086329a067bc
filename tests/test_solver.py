"""First-order solver: dual functional, proxes, and the full descent loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ggmlink import (
    GaussianModel,
    PenaltySpec,
    SolverConfig,
    SupportPattern,
    SymmetricMatrix,
    cholesky,
    draw_samples,
    dual_smooth_gradient,
    dual_smooth_value,
    frobenius_norm,
    inverse,
    log_det,
    primal_from_dual,
    prox_mixed,
    prox_nlp,
    prox_plp,
    random_feasible_start,
    random_model,
    sample_covariance,
    solve,
    solve_known_support,
    support_of,
)
from ggmlink import solver as solver_module
from ggmlink.solver import (_BB_STEP_MAX, _BB_STEP_MIN, _STEP_INIT, _Penalty,
                            _bb_step, _prox)
from ggmlink.symmat import _chol_or_none, _tril_of
from conftest import make_instance, random_pd, random_symmetric

TRACE_SLACK = 1e-10
KINDS = ("known", "plp", "nlp", "mixed")


def scalar_prox_oracle(v, s, weight):
    """Brute-force argmin_x 0.5 (x-v)^2 + weight |x+s|: coarse 1e-4 grid
    plus a fine local refinement."""
    lo = min(v, -s) - weight - 0.5
    hi = max(v, -s) + weight + 0.5
    xs = np.arange(lo, hi, 1e-4)
    best = xs[np.argmin(0.5 * (xs - v) ** 2 + weight * np.abs(xs + s))]
    fine = np.linspace(best - 2e-4, best + 2e-4, 4001)
    return float(fine[np.argmin(0.5 * (fine - v) ** 2 + weight * np.abs(fine + s))])


def assert_trace_monotone(trace):
    for a, b in zip(trace, trace[1:]):
        assert b <= a + TRACE_SLACK * (1.0 + abs(a))


def compass_minimize(fobj, x0, step0=0.25, step_min=1e-6):
    """Derivative-free coordinate search (test oracle): move along +-e_k
    while it improves, halve the step otherwise."""
    x = x0.copy()
    f = fobj(x)
    step = step0
    while step >= step_min:
        improved = False
        for k in range(len(x)):
            for sign in (1.0, -1.0):
                y = x.copy()
                y[k] += sign * step
                fy = fobj(y)
                if fy < f - 1e-15:
                    x, f = y, fy
                    improved = True
        if not improved:
            step *= 0.5
    return x, f


class TestDualSmoothValue:
    def test_zero_multiplier_identity_prior(self):
        val = dual_smooth_value(SymmetricMatrix.zeros(3),
                                SymmetricMatrix.identity(3),
                                SymmetricMatrix.diagonal([3.0, 1.0, 7.0]))
        assert val == 0.0

    def test_identity_everything(self):
        eye = SymmetricMatrix.identity(2)
        val = dual_smooth_value(eye, eye, eye)
        assert abs(val - (-2.0 * np.log(2.0) + 2.0)) < 1e-12

    def test_matches_lagrangian(self, rng):
        # Independent route: J = -L(T_o, L) + m with
        # L = -log det T_o + tr[(S^-1+L) T_o] - tr(T_hat L).
        for _ in range(10):
            s_inv = random_pd(4, rng)
            lam = 0.3 * random_symmetric(4, rng)
            if cholesky(s_inv + lam) is None:
                continue
            t_hat = random_pd(4, rng)
            t_o = inverse(s_inv + lam)
            lagr = (-log_det(t_o)
                    + np.sum((s_inv + lam).to_array() * t_o.to_array())
                    - np.sum(t_hat.to_array() * lam.to_array()))
            assert abs(dual_smooth_value(lam, s_inv, t_hat) - (-lagr + 4)) < 1e-10

    def test_infeasible_rejected(self):
        eye = SymmetricMatrix.identity(2)
        with pytest.raises(ValueError):
            dual_smooth_value(-2.0 * eye, eye, eye)


class TestDualSmoothGradient:
    def test_stationary_when_data_equals_prior(self, rng):
        s = random_pd(4, rng)
        grad = dual_smooth_gradient(SymmetricMatrix.zeros(4), inverse(s), s)
        assert frobenius_norm(grad) < 1e-10

    def test_identity_case(self):
        eye = SymmetricMatrix.identity(3)
        grad = dual_smooth_gradient(SymmetricMatrix.zeros(3), eye, 2.0 * eye)
        np.testing.assert_allclose(grad.to_array(), np.eye(3), atol=1e-14)

    def test_finite_differences(self, rng):
        # Central differences along random symmetric directions; the
        # directional derivative is the trace inner product with the gradient.
        h = 1e-6
        for _ in range(5):
            s_inv = random_pd(4, rng)
            t_hat = random_pd(4, rng)
            lam = random_feasible_start(inverse(s_inv), seed=int(rng.integers(1 << 30)))
            grad = dual_smooth_gradient(lam, s_inv, t_hat).to_array()
            for _ in range(4):
                d = random_symmetric(4, rng)
                up = dual_smooth_value(lam + h * d, s_inv, t_hat)
                dn = dual_smooth_value(lam - h * d, s_inv, t_hat)
                fd = (up - dn) / (2 * h)
                an = float(np.sum(grad * d.to_array()))
                assert abs(fd - an) < 1e-5 * max(1.0, abs(an))


class TestPrimalFromDual:
    def test_zero_gives_prior(self, rng):
        s = random_pd(4, rng)
        np.testing.assert_allclose(primal_from_dual(SymmetricMatrix.zeros(4),
                                                    inverse(s)).to_array(),
                                   s.to_array(), atol=1e-10)

    def test_identity_case(self):
        eye = SymmetricMatrix.identity(2)
        np.testing.assert_allclose(primal_from_dual(eye, eye).to_array(),
                                   0.5 * np.eye(2))

    def test_round_trip(self, rng):
        s_inv = random_pd(5, rng)
        lam = 0.2 * random_symmetric(5, rng)
        if cholesky(s_inv + lam) is None:
            pytest.skip("random multiplier left the cone")
        back = inverse(primal_from_dual(lam, s_inv))
        assert frobenius_norm(back - (s_inv + lam)) < 1e-10


class TestProxMaps:
    prior_with = SupportPattern(2, [(1, 1), (2, 2), (2, 1)])
    prior_without = SupportPattern(2, [(1, 1), (2, 2)])

    @staticmethod
    def entry_matrix(v):
        return SymmetricMatrix.from_array([[0.4, v], [v, -0.3]])

    def test_plp_soft_threshold_examples(self):
        out = prox_plp(self.entry_matrix(0.5), 1.0, 0.2, self.prior_without)
        assert abs(out[2, 1] - 0.3) < 1e-15
        out = prox_plp(self.entry_matrix(-0.1), 1.0, 0.2, self.prior_without)
        assert out[2, 1] == 0.0

    def test_plp_leaves_prior_and_diagonal(self):
        lam = self.entry_matrix(0.5)
        out = prox_plp(lam, 1.0, 10.0, self.prior_with)
        np.testing.assert_array_equal(out.to_array(), lam.to_array())

    def test_nlp_shifted_example(self):
        s_inv = SymmetricMatrix.from_array([[1.0, 0.2], [0.2, 2.0]])
        out = prox_nlp(self.entry_matrix(0.5), 1.0, 0.1, s_inv, self.prior_with)
        assert abs(out[2, 1] - 0.4) < 1e-15

    def test_nlp_fixed_at_kink(self):
        s_inv = SymmetricMatrix.from_array([[1.0, 0.7], [0.7, 2.0]])
        out = prox_nlp(self.entry_matrix(-0.7), 1.0, 0.3, s_inv, self.prior_with)
        assert out[2, 1] == -0.7

    def test_nlp_zeroes_outside(self):
        s_inv = SymmetricMatrix.from_array([[1.0, 0.2], [0.2, 2.0]])
        out = prox_nlp(self.entry_matrix(0.5), 1.0, 0.1, s_inv, self.prior_without)
        assert out[2, 1] == 0.0

    def test_mixed_reduces_to_plp(self, rng):
        lam = self.entry_matrix(float(rng.uniform(-1, 1)))
        s_inv = SymmetricMatrix.from_array([[1.0, 0.3], [0.3, 2.0]])
        a = prox_mixed(lam, 0.7, 0.25, 1e-300, s_inv, self.prior_without)
        b = prox_plp(lam, 0.7, 0.25, self.prior_without)
        np.testing.assert_allclose(a.to_array(), b.to_array(), atol=1e-12)

    def test_mixed_tiny_outside_weight_is_identity_outside(self):
        lam = self.entry_matrix(0.37)
        s_inv = SymmetricMatrix.from_array([[1.0, 0.3], [0.3, 2.0]])
        out = prox_mixed(lam, 1.0, 1e-300, 0.5, s_inv, self.prior_without)
        assert abs(out[2, 1] - 0.37) < 1e-12

    def test_against_scalar_oracle(self, rng):
        s_inv = SymmetricMatrix.from_array([[1.0, 0.4], [0.4, 2.0]])
        for _ in range(25):
            v = float(rng.uniform(-2, 2))
            t = float(rng.uniform(0.05, 2.0))
            gam = float(rng.uniform(0.01, 1.0))
            lam = self.entry_matrix(v)
            out = prox_plp(lam, t, gam, self.prior_without)
            assert abs(out[2, 1] - scalar_prox_oracle(v, 0.0, t * gam)) < 1e-4
            out = prox_nlp(lam, t, gam, s_inv, self.prior_with)
            assert abs(out[2, 1] - scalar_prox_oracle(v, 0.4, t * gam)) < 1e-4
            out = prox_mixed(lam, t, gam, 0.5 * gam, s_inv, self.prior_with)
            assert abs(out[2, 1] - scalar_prox_oracle(v, 0.4, t * 0.5 * gam)) < 1e-4

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            prox_plp(self.entry_matrix(0.1), 0.0, 0.5, self.prior_without)


class TestPenaltySpec:
    def test_factories_and_validation(self):
        assert PenaltySpec.plp(0.1).kind == "plp"
        assert PenaltySpec.nlp(0.2).gamma_n == 0.2
        assert PenaltySpec.mixed(0.1, 0.2).eta_n == 0.2
        assert PenaltySpec.known_support(SupportPattern.full(3)).omega is not None
        with pytest.raises(ValueError):
            PenaltySpec.plp(0.0)
        with pytest.raises(ValueError):
            PenaltySpec(kind="plp", gamma_p=0.1, gamma_n=0.2)
        with pytest.raises(ValueError):
            PenaltySpec(kind="nonsense")
        with pytest.raises(ValueError):
            PenaltySpec(kind="known")

    @pytest.mark.parametrize("bad", ["0.1", True, [0.1]],
                             ids=["str", "bool", "list"])
    def test_non_number_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="must be a number"):
            PenaltySpec.plp(bad)

    def test_weights_stored_as_float(self):
        spec = PenaltySpec.mixed(1, 2)
        assert (spec.eta_p, spec.eta_n) == (1.0, 2.0)
        assert type(spec.eta_p) is float and type(spec.eta_n) is float

    def test_from_gamma(self):
        assert PenaltySpec.from_gamma("plp", 0.1) == PenaltySpec.plp(0.1)
        assert PenaltySpec.from_gamma("nlp", 1) == PenaltySpec.nlp(1.0)
        assert (PenaltySpec.from_gamma("mixed", (0.1, 0.2))
                == PenaltySpec.mixed(0.1, 0.2))
        for kind, gamma, message in [
                ("mixed", 0.1, "pairs"), ("mixed", (0.1, 0.2, 0.3), "pairs"),
                ("plp", (0.1, 0.2), "scalars"), ("known", 0.1, "support"),
                ("bogus", 0.1, "unknown penalty kind")]:
            with pytest.raises(ValueError, match=message):
                PenaltySpec.from_gamma(kind, gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 10**400],
                             ids=["nan", "inf", "-inf", "int_beyond_float"])
    @pytest.mark.parametrize("factory", [
        PenaltySpec.plp, PenaltySpec.nlp,
        lambda w: PenaltySpec.mixed(w, 0.1),
        lambda w: PenaltySpec.mixed(0.1, w),
    ], ids=["plp", "nlp", "mixed_eta_p", "mixed_eta_n"])
    def test_non_finite_weights_rejected(self, factory, bad):
        with pytest.raises(ValueError, match="finite"):
            factory(bad)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.grad_tol == 1e-7
        assert cfg.max_iters == 50000

    def test_range_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=-1.0)

    @pytest.mark.parametrize("bad", [2.5, True, "10", None],
                             ids=["float", "bool", "str", "none"])
    def test_non_integer_max_iters_rejected(self, bad):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=bad)

    @pytest.mark.parametrize("bad", [True, "1e-7", None],
                             ids=["bool", "str", "none"])
    def test_non_number_grad_tol_rejected(self, bad):
        with pytest.raises(ValueError, match="grad_tol must be a number"):
            SolverConfig(grad_tol=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grad_tol_rejected(self, bad):
        # A NaN tolerance never passes the residual test: the fit would
        # run to max_iters.
        with pytest.raises(ValueError, match="grad_tol must be finite"):
            SolverConfig(grad_tol=bad)


class TestSolvePenalized:
    def test_huge_weight_zeroes_outside_exactly(self):
        prior, truth, t_hat = make_instance(31, dim=8, density=0.3, n_add=2,
                                            n_remove=0, n_obs=500)
        res = solve(prior, t_hat, PenaltySpec.plp(1e6))
        outside = ~prior.precision_support.mask()
        assert np.max(np.abs(res.lambda_opt.to_array()[outside])) == 0.0
        assert res.support_estimate_raw.issubset(prior.precision_support)

    def test_nlp_prior_stationary_at_its_own_statistics(self):
        prior = GaussianModel(random_pd(5, np.random.default_rng(3)))
        res = solve(prior, prior.covariance, PenaltySpec.nlp(1e-9))
        assert frobenius_norm(res.lambda_opt) < 1e-6
        assert frobenius_norm(res.t_opt - prior.covariance) < 1e-6

    @pytest.mark.parametrize("kind", ["nlp", "known"])
    def test_fixed_entries_of_lambda_exactly_zero(self, kind):
        # The solver iterates on the free entries only; a start that is
        # nonzero on the fixed ones must not leak into the result.
        prior, truth, t_hat = make_instance(43, dim=6, density=0.3, n_obs=300)
        omega = SupportPattern(6, [(i, i) for i in range(1, 7)] + [(4, 2), (6, 1)])
        penalty = (PenaltySpec.nlp(0.2) if kind == "nlp"
                   else PenaltySpec.known_support(omega))
        free = prior.precision_support if kind == "nlp" else omega
        lam0 = random_feasible_start(prior.precision, 3)
        res = solve(prior, t_hat, penalty, lam0=lam0)
        assert res.converged
        assert np.all(res.lambda_opt.to_array()[~free.mask()] == 0.0)
        assert np.any(res.lambda_opt.to_array()[free.mask()] != 0.0)

    def test_nlp_hard_zeros_bitwise(self):
        prior, truth, t_hat = make_instance(32, dim=8, density=0.3, n_add=0,
                                            n_remove=2, n_obs=500)
        res = solve(prior, t_hat, PenaltySpec.nlp(0.3))
        outside = ~prior.precision_support.mask()
        lam = res.lambda_opt.to_array()
        assert np.max(np.abs(lam[outside])) == 0.0
        assert res.support_estimate_raw.issubset(prior.precision_support)

    def test_descent_and_feasibility(self):
        for kind, pen in (("plp", PenaltySpec.plp(0.05)),
                          ("nlp", PenaltySpec.nlp(0.1)),
                          ("mixed", PenaltySpec.mixed(0.05, 0.1))):
            prior, truth, t_hat = make_instance(33, dim=7, density=0.3,
                                                n_add=1, n_remove=1, n_obs=400)
            res = solve(prior, t_hat, pen)
            assert res.converged
            assert_trace_monotone(res.objective_trace)
            assert cholesky(prior.precision + res.lambda_opt) is not None

    def test_t_opt_is_primal_of_lambda(self):
        prior, truth, t_hat = make_instance(34, dim=6)
        res = solve(prior, t_hat, PenaltySpec.plp(0.1))
        np.testing.assert_allclose(
            res.t_opt.to_array(),
            primal_from_dual(res.lambda_opt, prior.precision).to_array(),
            atol=1e-12)

    def test_multi_start_agreement(self):
        prior, truth, t_hat = make_instance(35, dim=6, n_obs=400)
        cfg = SolverConfig(grad_tol=1e-9)
        for pen, sup in ((PenaltySpec.plp(0.08), None),
                         (PenaltySpec.nlp(0.15), prior.precision_support),
                         (PenaltySpec.mixed(0.08, 0.1), None)):
            a = solve(prior, t_hat, pen, cfg)
            lam0 = random_feasible_start(prior.precision, seed=99, support=sup)
            b = solve(prior, t_hat, pen, cfg, lam0=lam0)
            rel = frobenius_norm(a.t_opt - b.t_opt) / frobenius_norm(a.t_opt)
            assert rel < 1e-6

    def test_plp_kkt_conditions(self):
        # Stored-lower-triangle convention: doubled off-diagonal gradient
        # against the once-counted weight.
        gamma = 0.1
        cfg = SolverConfig(grad_tol=1e-9)
        prior, truth, t_hat = make_instance(36, dim=7, density=0.3, n_add=2,
                                            n_remove=0, n_obs=500)
        res = solve(prior, t_hat, PenaltySpec.plp(gamma), cfg)
        grad = dual_smooth_gradient(res.lambda_opt, prior.precision, t_hat).to_array()
        lam = res.lambda_opt.to_array()
        slack = 10 * cfg.grad_tol
        for i in range(2, 8):
            for j in range(1, i):
                if (i, j) in prior.precision_support:
                    continue
                g2 = 2.0 * grad[i - 1, j - 1]
                val = lam[i - 1, j - 1]
                if val != 0.0:
                    assert abs(g2 + gamma * np.sign(val)) <= slack
                else:
                    assert abs(g2) <= gamma + slack

    def test_dimension_mismatch_rejected(self):
        prior, _, _ = make_instance(37, dim=5)
        with pytest.raises(ValueError):
            solve(prior, SymmetricMatrix.identity(4), PenaltySpec.plp(0.1))

    def test_start_of_another_dimension_rejected(self):
        prior = random_model(5, 0.4, 1)
        t_hat = prior.covariance
        with pytest.raises(ValueError, match="initial multiplier dimension"):
            solve(prior, t_hat, PenaltySpec.plp(0.1), lam0=SymmetricMatrix.zeros(4))

    def test_infeasible_start_rejected(self):
        prior, truth, t_hat = make_instance(38, dim=5)
        bad = SymmetricMatrix.from_array(-10.0 * np.eye(5))
        with pytest.raises(ValueError):
            solve(prior, t_hat, PenaltySpec.plp(0.1), lam0=bad)

    def test_non_convergence_flagged(self):
        prior, truth, t_hat = make_instance(39, dim=8)
        res = solve(prior, t_hat, PenaltySpec.plp(0.01),
                    SolverConfig(max_iters=3, grad_tol=1e-14))
        assert not res.converged
        assert res.iterations == 3

    def test_unreachable_grad_tol_stops_on_stall(self):
        # 1e-16 is below what the computed objective resolves here: the
        # best residual, about 2.5e-16, comes within the first 60 iterations
        # and is never beaten. The fit ends once it stalls, not at max_iters.
        prior, truth, t_hat = make_instance(703374, dim=5, density=0.4, n_obs=300)
        res = solve(prior, t_hat, PenaltySpec.nlp(0.2), SolverConfig(grad_tol=1e-16))
        assert not res.converged
        assert res.iterations < 1000

    def test_iteration_budget(self, monkeypatch):
        # Short Barzilai-Borwein trial steps take 72/37/59 iterations and
        # 88/42/66 Cholesky factorizations here; long ones took 73/39/54
        # and 113/57/81, and a trial step that only doubles up to 1 takes
        # 197/129/151 iterations.
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return _chol_or_none(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_chol_or_none", counting)
        prior, truth, t_hat = make_instance(7, dim=30, density=0.1, n_obs=120)
        results = [solve(prior, t_hat, pen) for pen in (
            PenaltySpec.plp(0.1), PenaltySpec.nlp(0.3), PenaltySpec.mixed(0.1, 0.3))]
        assert all(res.converged for res in results)
        assert sum(res.iterations for res in results) <= 250
        assert len(calls) <= 196

    @pytest.mark.parametrize("grad_tol", [1e-12, 1e-16])
    def test_rounded_away_move_is_not_convergence(self, grad_tol):
        # Near the optimum the line search can shrink the step until
        # lam - step * w rounds back to lam, so that step's probe moves by
        # exactly zero. Convergence must still mean a small residual at the
        # full step, which is zero only at the optimum. 1e-16 is below what
        # the line search can resolve on this instance.
        gamma, cfg = 0.2, SolverConfig(grad_tol=grad_tol, max_iters=4000)
        prior, truth, t_hat = make_instance(703374, dim=5, density=0.4, n_obs=300)
        res = solve(prior, t_hat, PenaltySpec.nlp(gamma), cfg)
        lam = res.lambda_opt.packed()
        grad = dual_smooth_gradient(res.lambda_opt, prior.precision, t_hat).packed()
        w = np.where(_tril_of(np.eye(5, dtype=bool)), 1.0, 2.0) * grad
        step = _STEP_INIT
        probe = prox_nlp(SymmetricMatrix(5, lam - step * w), step, gamma,
                         prior.precision, prior.precision_support)
        residual = np.linalg.norm(probe.packed() - lam) / step
        assert not res.converged or residual <= cfg.grad_tol

    def test_objective_floor_stops_the_fit(self):
        # A bounded fit whose objective is simply large: t_hat near 1e5 I
        # against a prior precision of 1e5 I. The floor stops it after one
        # step; without the floor it runs all 50 iterations.
        big = SymmetricMatrix.from_array(1e5 * np.eye(3))
        prior = GaussianModel(big)
        t_hat = sample_covariance(draw_samples(big, 500, seed=4))
        res = solve(prior, t_hat, PenaltySpec.plp(0.1), SolverConfig(max_iters=50))
        assert res.iterations == 1
        assert not res.converged
        assert res.objective_trace[-1] < -1e10

    def test_pathological_data_raises(self):
        # Finite but far outside any covariance scale: no step is feasible.
        prior, truth, t_hat = make_instance(45, dim=4)
        packed = t_hat.packed().copy()
        packed[1] = 1e300
        with pytest.raises(RuntimeError, match="no feasible descent step"):
            solve(prior, SymmetricMatrix(4, packed), PenaltySpec.plp(0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_hat_rejected(self, bad):
        prior, truth, t_hat = make_instance(45, dim=5)
        packed = t_hat.packed().copy()
        packed[1] = bad
        with pytest.raises(ValueError, match="t_hat must be finite"):
            solve(prior, SymmetricMatrix(5, packed), PenaltySpec.plp(0.1))

    @pytest.mark.parametrize("kind", ["plp", "nlp"])
    def test_non_finite_prior_precision_rejected(self, kind):
        # For nlp the bad entry is one the solver would hold fixed, never a
        # variable. No prior with it can be built, so solve never sees it.
        prior, truth, t_hat = make_instance(46, dim=5)
        outside = next(i for i, fixed in enumerate(
            ~_tril_of(prior.precision_support.mask())) if fixed)
        packed = prior.precision.packed().copy()
        packed[outside] = np.nan
        with pytest.raises(ValueError, match="not positive definite"):
            solve(GaussianModel(SymmetricMatrix(5, packed)), t_hat,
                  PenaltySpec.from_gamma(kind, 0.1))


class TestSolveKnownSupport:
    def test_full_support_pins_everything(self, rng):
        prior, truth, t_hat = make_instance(40, dim=5, n_obs=200)
        res = solve_known_support(prior, t_hat, SupportPattern.full(5),
                                  SolverConfig(grad_tol=1e-11, max_iters=200000))
        assert res.converged
        assert np.max(np.abs(res.t_opt.to_array() - t_hat.to_array())) < 1e-7

    def test_dempster_diagonal_closed_form(self):
        # Identity prior with a diagonal constraint set: the optimum is the
        # diagonal matrix carrying the constrained entries.
        d = np.array([0.5, 1.2, 2.0, 0.8, 3.0])
        prior = GaussianModel(SymmetricMatrix.identity(5))
        res = solve_known_support(prior, SymmetricMatrix.diagonal(d),
                                  SupportPattern.diagonal(5),
                                  SolverConfig(grad_tol=1e-12, max_iters=200000))
        assert res.converged
        assert np.max(np.abs(res.t_opt.to_array() - np.diag(d))) < 1e-8

    def test_partial_support_residual_and_gap(self):
        prior, truth, t_hat = make_instance(41, dim=3, density=0.5, n_obs=150)
        omega = SupportPattern(3, [(1, 1), (2, 2), (3, 3), (2, 1)])
        tol = 3e-9 * frobenius_norm(t_hat)
        res = solve_known_support(prior, t_hat, omega,
                                  SolverConfig(grad_tol=tol, max_iters=200000))
        assert res.converged
        assert res.constraint_residual < 1e-8 * frobenius_norm(t_hat)
        assert abs(res.duality_gap) < 1e-6

    def test_support_union_containment(self):
        prior, truth, t_hat = make_instance(42, dim=6, density=0.3, n_obs=300)
        omega = SupportPattern(6, [(i, i) for i in range(1, 7)] + [(4, 2), (6, 1)])
        res = solve_known_support(prior, t_hat, omega)
        union = prior.precision_support.union(omega)
        assert res.support_estimate_raw.issubset(union)

    def test_inconsistent_constraints_diverge(self):
        # No PD matrix agrees with an indefinite T_hat on the full support.
        prior = GaussianModel(SymmetricMatrix.identity(2))
        bad = SymmetricMatrix.from_array([[1.0, 2.0], [2.0, 1.0]])
        res = solve_known_support(prior, bad, SupportPattern.full(2),
                                  SolverConfig(max_iters=3000))
        assert not res.converged
        assert res.objective_trace[-1] < res.objective_trace[0] - 50.0

    def test_gap_is_none_for_penalized_kinds(self):
        prior, truth, t_hat = make_instance(43, dim=5)
        res = solve(prior, t_hat, PenaltySpec.plp(0.1))
        assert res.duality_gap is None and res.constraint_residual is None


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("pen", [
        PenaltySpec.plp(0.15),
        PenaltySpec.nlp(0.2),
        PenaltySpec.mixed(0.12, 0.18),
        "known",
    ])
    def test_matches_compass_search(self, pen):
        dim = 3
        prior, truth, t_hat = make_instance(44, dim=dim, density=0.5, n_obs=150)
        if pen == "known":
            pen = PenaltySpec.known_support(
                SupportPattern(dim, [(1, 1), (2, 2), (3, 3), (2, 1)]))
        res = solve(prior, t_hat, pen, SolverConfig(grad_tol=1e-10))
        s_inv_arr = prior.precision.to_array()

        def fobj(x):
            lam_arr = unpack(x)
            value = problem_penalty(pen, prior, lam_arr)
            if value == np.inf:
                return np.inf
            m_arr = s_inv_arr + lam_arr
            try:
                factor = np.linalg.cholesky(m_arr)
            except np.linalg.LinAlgError:
                return np.inf
            return (-2.0 * float(np.sum(np.log(np.diag(factor))))
                    + float(np.sum(t_hat.to_array() * lam_arr))
                    + value)

        x_star, f_star = compass_minimize(fobj, np.zeros(dim * (dim + 1) // 2))
        t_compass = np.linalg.inv(s_inv_arr + unpack(x_star))
        rel = (np.linalg.norm(t_compass - res.t_opt.to_array())
               / np.linalg.norm(res.t_opt.to_array()))
        assert rel < 1e-3
        assert res.objective_trace[-1] <= f_star + 1e-8


def problem_penalty(spec, prior, lam_arr):
    """sum_{i>j} W_ij |L_ij + A_ij| of a full array L from the problem
    statement, with A = S^-1 on the prior support; infinite off the fixed
    set."""
    s_inv_arr = prior.precision.to_array()
    prior_mask = prior.precision_support.mask()
    omega = spec.omega.mask() if spec.kind == "known" else None
    total = 0.0
    for i in range(prior.dim):
        for j in range(i + 1):
            exp = expected_entry(spec, i == j, bool(prior_mask[i, j]),
                                 omega is not None and omega[i, j],
                                 s_inv_arr[i, j], 1.0)
            if exp is None:
                if lam_arr[i, j] != 0.0:
                    return np.inf
                continue
            anchor, weight = exp
            total += weight * abs(lam_arr[i, j] + anchor)
    return total


class TestKSpaceBookkeeping:
    """The solver iterates on K = S^-1 + L; what it reports is in L."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [47, 48, 49])
    def test_trace_is_the_objective_in_l(self, kind, seed):
        prior, truth, t_hat = make_instance(seed, dim=6, density=0.4, n_obs=300)
        spec = (PenaltySpec.known_support(truth.precision_support) if kind == "known"
                else PenaltySpec.from_gamma(kind, (0.1, 0.2) if kind == "mixed" else 0.15))
        free = {"known": truth.precision_support,
                "nlp": prior.precision_support}.get(kind)
        lam0 = random_feasible_start(prior.precision, seed, support=free)
        res = solve(prior, t_hat, spec, SolverConfig(max_iters=1), lam0=lam0)
        for lam, reported in ((lam0, res.objective_trace[0]),
                              (res.lambda_opt, res.objective_trace[-1])):
            want = (dual_smooth_value(lam, prior.precision, t_hat)
                    + problem_penalty(spec, prior, lam.to_array()))
            assert reported == pytest.approx(want, rel=1e-12)
        # The identity that lets the anchor go: |L + A| = |K| where W > 0.
        pen = _Penalty(spec, prior.precision_support)
        k = (prior.precision + res.lambda_opt).packed()[pen.free]
        assert float(np.dot(pen.weight, np.abs(k))) == pytest.approx(
            problem_penalty(spec, prior, res.lambda_opt.to_array()), rel=1e-12)

    def test_nlp_zeroed_entries_give_minus_prior(self):
        prior, truth, t_hat = make_instance(32, dim=8, density=0.3, n_add=0,
                                            n_remove=2, n_obs=500)
        res = solve(prior, t_hat, PenaltySpec.nlp(0.3))
        zeroed = (prior.precision_support.packed() & ~_tril_of(np.eye(8, dtype=bool))
                  & ~res.support_estimate_raw.packed())
        assert zeroed.any()
        np.testing.assert_array_equal(res.lambda_opt.packed()[zeroed],
                                      -prior.precision.packed()[zeroed])


@st.composite
def prox_cases(draw):
    """A penalty kind with random weights and step, a prior pattern, an
    omega for `known`, and an S^-1 whose off-diagonal pattern is drawn
    independently of the prior's, on dim 2..4."""
    dim = draw(st.integers(2, 4))
    n_low = dim * (dim + 1) // 2

    def symmetric(elements):
        a = np.zeros((dim, dim), dtype=np.asarray(elements).dtype)
        ii, jj = np.tril_indices(dim)
        a[ii, jj] = elements
        a[jj, ii] = elements
        return a

    flags = st.lists(st.booleans(), min_size=n_low, max_size=n_low)
    prior = symmetric(draw(flags)) | np.eye(dim, dtype=bool)
    omega = symmetric(draw(flags))
    s_vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_low,
                           max_size=n_low))
    s_inv = np.where(symmetric(draw(flags)), symmetric(s_vals), 0.0)
    v = symmetric(draw(st.lists(st.floats(-2.0, 2.0), min_size=n_low,
                                max_size=n_low)))
    weight = st.floats(0.01, 1.0)
    kind = draw(st.sampled_from(KINDS))
    spec = {
        "known": lambda: PenaltySpec.known_support(SupportPattern.from_mask(omega)),
        "plp": lambda: PenaltySpec.plp(draw(weight)),
        "nlp": lambda: PenaltySpec.nlp(draw(weight)),
        "mixed": lambda: PenaltySpec.mixed(draw(weight), draw(weight)),
    }[kind]()
    return spec, prior, omega, s_inv, v, draw(st.floats(0.05, 2.0))


def unpack(packed):
    """Full symmetric array of a packed lower triangle."""
    dim = (int(np.sqrt(8 * packed.size + 1)) - 1) // 2
    return SymmetricMatrix(dim, packed).to_array()


def penalty_prox(spec, prior, s_inv, v, t):
    """Full symmetric array of the prox of ``v`` in L: _Penalty's prox in K
    on the free entries, shifted by the anchor, and 0 on the fixed ones."""
    return _prox(SymmetricMatrix.from_array(v, tol=0.0), t, spec,
                 SymmetricMatrix.from_array(s_inv, tol=0.0),
                 SupportPattern.from_mask(prior)).to_array()


def expected_entry(spec, diagonal, inside, in_omega, s, t):
    """What the prox of ``spec`` does to one entry, per the problem
    statement: None if the entry is fixed at 0, else (anchor, threshold);
    a threshold of 0 passes the entry through."""
    if spec.kind == "known":
        return (0.0, 0.0) if in_omega else None
    if diagonal:
        return (0.0, 0.0)
    weight = {"plp": (spec.gamma_p, None), "nlp": (None, spec.gamma_n),
              "mixed": (spec.eta_p, spec.eta_n)}[spec.kind][inside]
    if weight is None:
        return (0.0, 0.0) if inside else None
    return (s, t * weight) if inside else (0.0, t * weight)


class TestPenaltyCoreProperties:
    @settings(max_examples=60)
    @given(prox_cases())
    def test_prox_matches_scalar_oracle(self, case):
        spec, prior, omega, s_inv, v, t = case
        out = penalty_prox(spec, prior, s_inv, v, t)
        dim = v.shape[0]
        for i in range(dim):
            for j in range(i + 1):
                exp = expected_entry(spec, i == j, bool(prior[i, j]),
                                     omega[i, j], s_inv[i, j], t)
                if exp is None:
                    assert out[i, j] == 0.0
                    continue
                anchor, thr = exp
                want = v[i, j] if thr == 0.0 \
                    else scalar_prox_oracle(v[i, j], anchor, thr)
                assert abs(out[i, j] - want) < 1e-4
                assert out[i, j] == out[j, i]

    @settings(max_examples=100)
    @given(prox_cases())
    def test_fixed_entries_exactly_zero(self, case):
        # The public maps return _Penalty's prox in K on the free entries,
        # shifted by the anchor A (S^-1 on the weighted prior entries, else
        # 0), and exactly 0 on the fixed ones; `known` has only the private
        # one.
        spec, prior, omega, s_inv, v, t = case
        penalty = _Penalty(spec, SupportPattern.from_mask(prior))
        lam = SymmetricMatrix.from_array(v, tol=0.0)
        s = SymmetricMatrix.from_array(s_inv, tol=0.0)
        pattern = SupportPattern.from_mask(prior)
        public = {
            "known": lambda: _prox(lam, t, spec, s, pattern),
            "plp": lambda: prox_plp(lam, t, spec.gamma_p, pattern),
            "nlp": lambda: prox_nlp(lam, t, spec.gamma_n, s, pattern),
            "mixed": lambda: prox_mixed(lam, t, spec.eta_p, spec.eta_n, s, pattern),
        }[spec.kind]().packed()
        assert np.all(public[~penalty.free] == 0.0)
        anchor = np.where(_tril_of(prior)[penalty.free] & (penalty.weight > 0.0),
                          _tril_of(s_inv)[penalty.free], 0.0)
        shifted, magnitude = penalty.prox(lam.packed()[penalty.free] + anchor, t)
        np.testing.assert_array_equal(magnitude, np.abs(shifted))
        np.testing.assert_array_equal(public[penalty.free], shifted - anchor)

    @settings(max_examples=100)
    @given(prox_cases())
    def test_prox_optimality_conditions(self, case):
        # y = prox(v) minimizes 0.5 (y - v)^2 / t + W |y + A| entrywise:
        # v - y = t W sign(y + A) where y + A != 0, else |v + A| <= t W.
        spec, prior, omega, s_inv, v, t = case
        out = penalty_prox(spec, prior, s_inv, v, t)
        dim = v.shape[0]
        for i in range(dim):
            for j in range(i + 1):
                exp = expected_entry(spec, i == j, bool(prior[i, j]),
                                     omega[i, j], s_inv[i, j], t)
                y, x = out[i, j], v[i, j]
                if exp is None:
                    assert y == 0.0
                    continue
                anchor, thr = exp
                if thr == 0.0:
                    assert y == x
                elif y + anchor != 0.0:
                    assert (abs((x - y) - thr * np.sign(y + anchor))
                            <= 1e-12 * (1.0 + abs(x) + abs(anchor)))
                else:
                    assert abs(x + anchor) <= thr * (1.0 + 1e-12)

    @settings(max_examples=100)
    @given(prox_cases())
    def test_killed_shifted_entry_zeroes_precision(self, case):
        spec, prior, omega, s_inv, v, t = case
        if spec.kind not in ("nlp", "mixed"):
            return
        weight = spec.gamma_n or spec.eta_n
        out = penalty_prox(spec, prior, s_inv, v, t)
        killed = (prior & ~np.eye(v.shape[0], dtype=bool)
                  & (np.abs(v + s_inv) <= t * weight))
        assert np.all((s_inv + out)[killed] == 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=3)
    @given(seed=st.integers(0, 2**20), perm=st.permutations(range(5)))
    def test_solve_permutation_equivariant(self, kind, seed, perm):
        prior, truth, t_hat = make_instance(seed, dim=5, density=0.4,
                                            n_obs=300)
        perm = np.array(perm)

        def permuted(arr):
            return arr[np.ix_(perm, perm)]

        omega = truth.precision_support.mask()
        penalties = {
            "known": (PenaltySpec.known_support(truth.precision_support),
                      PenaltySpec.known_support(
                          SupportPattern.from_mask(permuted(omega)))),
            "plp": (PenaltySpec.plp(0.1),) * 2,
            "nlp": (PenaltySpec.nlp(0.2),) * 2,
            "mixed": (PenaltySpec.mixed(0.1, 0.2),) * 2,
        }[kind]
        cfg = SolverConfig(grad_tol=1e-10)
        res = solve(prior, t_hat, penalties[0], cfg)
        prior_p = GaussianModel(SymmetricMatrix.from_array(
            permuted(prior.precision.to_array())))
        t_hat_p = SymmetricMatrix.from_array(permuted(t_hat.to_array()))
        res_p = solve(prior_p, t_hat_p, penalties[1], cfg)
        assert res.converged and res_p.converged
        # The two fits agree to within about 0.4 grad_tol, relative: at
        # grad_tol 1e-10 the largest gap over 60 random instances per kind
        # was 3.9e-11.
        t_opt = res.t_opt.to_array()
        diff = res_p.t_opt.to_array() - permuted(t_opt)
        assert np.linalg.norm(diff) <= 1e-9 * np.linalg.norm(t_opt)


    @pytest.mark.parametrize("kind", ("plp", "nlp", "mixed"))
    @settings(max_examples=4)
    @given(seed=st.integers(0, 2**20), c=st.floats(0.25, 4.0))
    def test_solve_scale_equivariant(self, kind, seed, c):
        # With K_prior / c, c T_hat and c gamma the objective changes by a
        # constant under K -> K / c, so the fit is the unscaled one times c.
        prior, truth, t_hat = make_instance(seed, dim=6)
        gammas = {"plp": (0.1,), "nlp": (0.2,), "mixed": (0.1, 0.2)}[kind]
        make = getattr(PenaltySpec, kind)
        res = solve(prior, t_hat, make(*gammas))
        prior_c = GaussianModel(prior.precision * (1.0 / c))
        res_c = solve(prior_c, c * t_hat, make(*(c * g for g in gammas)))
        assert res.converged and res_c.converged
        # At the default grad_tol the worst gap over 10 seeds x c in
        # {0.25, 3, 4} x 3 kinds was 7.8e-8.
        expected = c * res.t_opt.to_array()
        diff = res_c.t_opt.to_array() - expected
        assert np.linalg.norm(diff) <= 1e-6 * np.linalg.norm(expected)


class TestBarzilaiBorweinStep:
    @settings(max_examples=300)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        arrays(np.float64, n, elements=st.floats()),
        arrays(np.float64, n, elements=st.floats()))))
    @example((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    @example((np.array([1.0]), np.array([-1.0])))
    @example((np.array([1.0]), np.array([np.nan])))
    @example((np.array([1.0]), np.array([np.inf])))
    @example((np.array([1e200]), np.array([1e200])))
    @example((np.array([1e-200]), np.array([1e200])))
    def test_clipped_or_fallback(self, pair):
        delta, dg = pair
        with np.errstate(all="ignore"):
            curvature = float(np.dot(delta, dg))
            step = _bb_step(delta, dg)
        assert _BB_STEP_MIN <= step <= _BB_STEP_MAX
        if not 0.0 < curvature < np.inf:
            assert step == _STEP_INIT

    def test_short_step(self):
        # <dx, dg> / <dg, dg>; the long step <dx, dx> / <dx, dg> would be 1.
        assert _bb_step(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == 0.5

    def test_quadratic_curvature(self):
        # On f = 0.5 * c * ||x||^2 the gradient change is c * dx, so the
        # step is 1 / c.
        delta = np.array([0.3, -1.2, 2.0])
        assert _bb_step(delta, 4.0 * delta) == pytest.approx(0.25, rel=1e-15)


class TestRandomFeasibleStart:
    def test_feasible_and_deterministic(self, rng):
        s_inv = random_pd(6, rng)
        a = random_feasible_start(s_inv, seed=5)
        b = random_feasible_start(s_inv, seed=5)
        np.testing.assert_array_equal(a.to_array(), b.to_array())
        assert cholesky(s_inv + a) is not None
        assert frobenius_norm(a) > 0.0

    def test_support_restriction(self, rng):
        s_inv = random_pd(6, rng)
        sup = SupportPattern(6, [(i, i) for i in range(1, 7)] + [(3, 1)])
        lam = random_feasible_start(s_inv, seed=6, support=sup)
        assert support_of(lam, 0.0).issubset(sup)
