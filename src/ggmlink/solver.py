"""First-order solvers for prior-anchored covariance estimation.

All problems minimize, over the open cone Q_S = {L : S^-1 + L > 0}, the
smooth dual functional J(L) = -log det(S^-1 + L) + tr(T_hat L) plus one
penalty that encodes the link-change hypothesis,

    P(L) = sum_{i>j} W_ij |L_ij + A_ij|,  with L_ij = 0 on a fixed set F.

The anchor A is S^-1 on the prior support and 0 off it, so an entry is
either shrunk toward zero (an absent edge stays absent) or pulled toward
the negated prior precision (K = S^-1 + L loses the edge). The kinds only
choose W (0 where not listed) and F:

  * known    -- F: pairs outside a given support; projected gradient.
  * plp      -- W = gamma_p off the prior support: appearing edges.
  * nlp      -- W = gamma_n on the prior's off-diagonal entries, F: pairs
                off the prior support: disappearing edges.
  * mixed    -- W = eta_p off the prior support and eta_n on it.

Convention: the solver iterates on the free packed entries of K = S^-1 + L,
the entries off F of the lower triangle that SymmetricMatrix stores, and
recovers the covariance as T_o = K^-1. S^-1 is exactly 0 off the prior
support, so |L_ij + A_ij| = |K_ij| wherever W_ij > 0: in K the penalty is a
weighted l1 norm and J gains the constant tr(T_hat S^-1). An off-diagonal
variable stands for two full-matrix entries, so tr(T_hat K) and the smooth
gradient 2 (T_hat - K^-1)_ij share one weight, 2 off the diagonal and 1 on it:
the only place off-diagonals double. The penalty, the prox threshold t*gamma
and step norms count each variable once. KKT checks must use this convention.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .ggm import GaussianModel
from .symmat import (SupportPattern, SymmetricMatrix, _chol_or_none, _factor_or_raise,
                     _free_layout, _log_det_of_factor, _packed_diagonal, _packed_inverse,
                     _pair_weight, _support_json, _trace_inner, support_of)

# Line search. The problem has one optimum, so these set how fast a fit
# gets there, not where it ends.
_STEP_INIT = 1.0
_BACKTRACK_FACTOR = 0.5
_ARMIJO_CONST = 1e-4
_STEP_FLOOR = 1e-18
# Clip range of the Barzilai-Borwein trial step.
_BB_STEP_MIN = 1e-6
_BB_STEP_MAX = 1e6
# A fit whose residual has not reached a new minimum for this many
# iterations stops, flagged as not converged: its grad_tol is below what
# the computed objective can resolve. Converging fits set a new minimum at
# least every 6 iterations on desk-sweep and every 3 on scale-fit.
_STALL_ITERS = 500
# The support estimate keeps |K_ij| above this share of max |K|.
_SUPPORT_REL_TOL = 1e-8
# A fit whose objective falls below this stops, flagged as not converged.
_OBJECTIVE_FLOOR = -1e10
_INFEASIBLE = "infeasible multiplier: S^-1 + L is not positive definite"


@dataclass(frozen=True)
class PenaltySpec:
    """Tagged choice of constraint/penalty; exactly the active kind's
    parameters are set."""

    kind: str
    omega: SupportPattern | None = None
    gamma_p: float | None = None
    gamma_n: float | None = None
    eta_p: float | None = None
    eta_n: float | None = None

    _FIELDS = {
        "known": ("omega",),
        "plp": ("gamma_p",),
        "nlp": ("gamma_n",),
        "mixed": ("eta_p", "eta_n"),
    }

    def __post_init__(self):
        if self.kind not in self._FIELDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        active = self._FIELDS[self.kind]
        for name in ("omega", "gamma_p", "gamma_n", "eta_p", "eta_n"):
            value = getattr(self, name)
            if name not in active:
                if value is not None:
                    raise ValueError(f"penalty {self.kind!r} does not take {name}")
            elif value is None:
                raise ValueError(f"penalty {self.kind!r} requires {name}")
            elif name != "omega":
                # A boolean is no weight. NaN, inf and integers beyond the
                # float range fail the comparison.
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"{name} must be a number: {value!r}")
                if not 0.0 < value <= sys.float_info.max:
                    raise ValueError(f"{name} must be finite and strictly positive")
                object.__setattr__(self, name, float(value))

    @classmethod
    def from_gamma(cls, kind: str, gamma) -> "PenaltySpec":
        """A weighted kind from its gamma: one weight, or the pair
        ``(eta_p, eta_n)`` for mixed."""
        names = cls._FIELDS.get(kind, ())
        if "omega" in names:
            raise ValueError(f"penalty {kind!r} takes a support, not a gamma")
        if len(names) == 2 and not (isinstance(gamma, tuple) and len(gamma) == 2):
            raise ValueError(f"penalty {kind!r} takes gamma pairs [eta_p, eta_n]")
        if len(names) == 1 and isinstance(gamma, tuple):
            raise ValueError(f"penalty {kind!r} takes gamma scalars")
        weights = gamma if isinstance(gamma, tuple) else (gamma,)
        return cls(kind=kind, **dict(zip(names, weights)))

    @classmethod
    def known_support(cls, omega: SupportPattern) -> "PenaltySpec":
        return cls(kind="known", omega=omega)

    @classmethod
    def plp(cls, gamma_p: float) -> "PenaltySpec":
        return cls(kind="plp", gamma_p=gamma_p)

    @classmethod
    def nlp(cls, gamma_n: float) -> "PenaltySpec":
        return cls(kind="nlp", gamma_n=gamma_n)

    @classmethod
    def mixed(cls, eta_p: float, eta_n: float) -> "PenaltySpec":
        return cls(kind="mixed", eta_p=eta_p, eta_n=eta_n)


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 50000
    grad_tol: float = 1e-7

    def __post_init__(self):
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, int)
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer >= 1: {self.max_iters!r}")
        if isinstance(self.grad_tol, bool) or not isinstance(self.grad_tol, (int, float)):
            raise ValueError(f"grad_tol must be a number: {self.grad_tol!r}")
        # NaN and inf fail the comparison.
        if not 0.0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be finite and positive")


@dataclass
class SolveResult:
    lambda_opt: SymmetricMatrix
    t_opt: SymmetricMatrix
    objective_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    duality_gap: float | None = None  # known: <grad J(L), L>, not a Fenchel gap
    constraint_residual: float | None = None
    support_estimate_raw: SupportPattern | None = None

    def to_report(self) -> dict:
        """Scalar convergence data for the JSON report."""
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "objective_initial": self.objective_trace[0],
            "objective_final": self.objective_trace[-1],
            "duality_gap": self.duality_gap,
            "constraint_residual": self.constraint_residual,
            "support_estimate_raw": _support_json(self.support_estimate_raw),
        }


# ---------------------------------------------------------------------------
# Smooth part
# ---------------------------------------------------------------------------

def dual_smooth_value(lam: SymmetricMatrix, s_inv: SymmetricMatrix,
                      t_hat: SymmetricMatrix) -> float:
    """-log det(S^-1 + L) + tr(T_hat L); raises on infeasible L."""
    factor = _factor_or_raise(s_inv + lam, _INFEASIBLE)
    return -_log_det_of_factor(factor) + _trace_inner(t_hat.packed(), lam.packed())


def dual_smooth_gradient(lam: SymmetricMatrix, s_inv: SymmetricMatrix,
                         t_hat: SymmetricMatrix) -> SymmetricMatrix:
    """Matrix gradient T_hat - (S^-1 + L)^-1 (trace inner product)."""
    return t_hat - primal_from_dual(lam, s_inv)


def primal_from_dual(lam: SymmetricMatrix,
                     s_inv: SymmetricMatrix) -> SymmetricMatrix:
    """Recovered covariance (S^-1 + L)^-1; raises on infeasible L."""
    factor = _factor_or_raise(s_inv + lam, _INFEASIBLE)
    return SymmetricMatrix(lam.dim, _packed_inverse(factor))


# ---------------------------------------------------------------------------
# Proximal maps
# ---------------------------------------------------------------------------

class _Penalty:
    """The penalty of one solve in K (module docstring) on the packed mask
    ``free``: sum weight * |K_ij|, each weight 0 where it does not apply."""

    def __init__(self, spec: PenaltySpec, prior_support: SupportPattern):
        prior = prior_support.packed()
        self.free = np.ones_like(prior)
        if spec.kind == "known":
            if spec.omega.dim != prior_support.dim:
                raise ValueError("constraint support dimension does not match the model")
            self.free = spec.omega.packed()
        elif spec.kind == "nlp":
            self.free = prior
        # PenaltySpec sets exactly the weights of its kind; the rest are None.
        weight = ~_packed_diagonal(prior_support.dim) * np.where(
            prior, spec.gamma_n or spec.eta_n or 0.0, spec.gamma_p or spec.eta_p or 0.0)
        self.weight = weight[self.free]

    def prox(self, x: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
        """Overwrite x with y = argmin_y 0.5 ||y - x||^2 / step + penalty(y),
        a weighted soft threshold; return y and |y|."""
        magnitude = np.abs(x)
        magnitude -= step * self.weight
        np.maximum(magnitude, 0.0, out=magnitude)
        return np.copysign(magnitude, x, out=x), magnitude


def _prox(lam: SymmetricMatrix, step: float, spec: PenaltySpec,
          s_inv: SymmetricMatrix, prior_support: SupportPattern):
    """The prox in L: shift by the anchor A, apply the prox in K, shift back."""
    if step <= 0:
        raise ValueError("step must be positive")
    penalty = _Penalty(spec, prior_support)
    free = penalty.free
    anchor = np.where(prior_support.packed()[free] & (penalty.weight > 0.0),
                      s_inv.packed()[free], 0.0)
    out = np.zeros(lam.packed().size)
    out[free] = penalty.prox(lam.packed()[free] + anchor, step)[0] - anchor
    return SymmetricMatrix(lam.dim, out)


def prox_plp(lam: SymmetricMatrix, step: float, gamma_p: float,
             prior_support: SupportPattern) -> SymmetricMatrix:
    """Soft-threshold off-diagonal entries outside the prior support by
    step*gamma_p; prior-support entries and the diagonal pass through."""
    return _prox(lam, step, PenaltySpec.plp(gamma_p),
                 SymmetricMatrix.zeros(lam.dim), prior_support)


def prox_nlp(lam: SymmetricMatrix, step: float, gamma_n: float,
             s_inv: SymmetricMatrix,
             prior_support: SupportPattern) -> SymmetricMatrix:
    """Zero all entries outside the prior support (hard constraint) and
    soft-threshold off-diagonal entries inside it toward the negated prior
    precision entry, with threshold step*gamma_n; diagonal passes through."""
    return _prox(lam, step, PenaltySpec.nlp(gamma_n), s_inv, prior_support)


def prox_mixed(lam: SymmetricMatrix, step: float, eta_p: float, eta_n: float,
               s_inv: SymmetricMatrix,
               prior_support: SupportPattern) -> SymmetricMatrix:
    """Combine both penalties: outside the prior support, soft-threshold by
    step*eta_p; inside (off-diagonal), shifted soft-threshold by step*eta_n;
    diagonal passes through."""
    return _prox(lam, step, PenaltySpec.mixed(eta_p, eta_n), s_inv,
                 prior_support)


# ---------------------------------------------------------------------------
# Main solver
# ---------------------------------------------------------------------------

def _bb_step(delta: np.ndarray, dg: np.ndarray) -> float:
    """Short Barzilai-Borwein trial step <dx, dg> / <dg, dg> (by Cauchy-Schwarz
    never longer than the long one, <dx, dx> / <dx, dg>) from the last
    accepted move dx and the change dg in the free gradient, clipped to
    [_BB_STEP_MIN, _BB_STEP_MAX]; _STEP_INIT when the curvature <dx, dg> is
    not positive and finite."""
    curvature = float(np.dot(delta, dg))
    if not 0.0 < curvature < np.inf:
        return _STEP_INIT
    norm = float(np.dot(dg, dg))  # 0 only when it underflows
    step = curvature / norm if norm > 0.0 else _BB_STEP_MAX
    return min(max(step, _BB_STEP_MIN), _BB_STEP_MAX)


def random_feasible_start(s_inv: SymmetricMatrix, seed: int,
                          support: SupportPattern | None = None) -> SymmetricMatrix:
    """Random symmetric multiplier, scaled into the feasible cone and then
    halved so it sits strictly inside; optionally restricted to a support
    (restriction applied before the feasibility scaling)."""
    dim = s_inv.dim
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(s_inv.packed().size)
    if support is not None:
        g = np.where(support.packed(), g, 0.0)
    alpha = 1.0
    for _ in range(200):
        if _chol_or_none(dim, s_inv.packed() + alpha * g) is not None:
            # Convexity of the cone: scaling toward 0 stays strictly inside.
            return SymmetricMatrix(dim, 0.5 * alpha * g)
        alpha *= 0.5
    raise RuntimeError("could not scale the random start into the feasible cone")


def solve(model: GaussianModel, t_hat: SymmetricMatrix, penalty: PenaltySpec,
          cfg: SolverConfig = SolverConfig(),
          lam0: SymmetricMatrix | None = None) -> SolveResult:
    """Proximal-gradient descent on the penalized dual functional (G-ISTA).

    Iterates on K (module docstring). Each line search starts from the short
    Barzilai-Borwein step of the last accepted move. Backtracking rejects any
    candidate K that fails the Cholesky feasibility test and otherwise
    enforces sufficient decrease of the composite objective. Terminates when
    the proximal-gradient residual (step-normalized move, lower-triangle
    norm) drops to cfg.grad_tol. A fit that reaches max_iters, or whose
    residual stops improving, is flagged as not converged, not raised.
    """
    dim = model.dim
    if t_hat.dim != dim:
        raise ValueError("sample covariance dimension does not match the model")
    if not np.isfinite(t_hat.packed()).all():
        raise ValueError("t_hat must be finite: the sample covariance holds NaN or inf")
    if lam0 is not None and lam0.dim != dim:
        raise ValueError("initial multiplier dimension does not match the model")
    s_inv = model.precision.packed()
    pen = _Penalty(penalty, model.precision_support)
    base, mask = _free_layout(s_inv, pen.free)
    s_free = s_inv[pen.free]
    # One weight for tr(T_hat X) = t_w . x and for the gradient (docstring).
    weight = _pair_weight(dim)[pen.free]
    t_w = weight * t_hat.packed()[pen.free]
    # The trace reports the objective in L, the one in K less t_w . s_free.
    offset = float(np.dot(t_w, s_free))
    # Hard-constrained kinds start inside their subspace.
    k = s_free if lam0 is None else s_free + lam0.packed()[pen.free]

    def objective(x, magnitude, chol_factor):
        # Composite objective at K = x, given |x| and the Cholesky factor of x.
        return (-_log_det_of_factor(chol_factor) + float(np.dot(t_w, x))
                + float(np.dot(pen.weight, magnitude)))

    def gradient(chol_factor):
        # Free entries of K^-1 and the free-variable gradient.
        inv = _packed_inverse(chol_factor, mask)
        return inv, t_w - weight * inv

    factor = _chol_or_none(dim, k, base, mask)
    if factor is None:
        raise ValueError("initial multiplier is infeasible")

    f_total = objective(k, np.abs(k), factor)
    trace = [f_total - offset]

    step = _STEP_INIT
    converged = False
    iterations = 0
    best_residual, best_iteration = np.inf, 0

    inv, w = gradient(factor)
    for iterations in range(1, cfg.max_iters + 1):
        while step >= _STEP_FLOOR:
            cand, magnitude = pen.prox(k - step * w, step)
            cand_factor = _chol_or_none(dim, cand, base, mask)
            if cand_factor is not None:
                delta = cand - k
                decrease = _ARMIJO_CONST * float(np.dot(delta, delta)) / step
                f_cand = objective(cand, magnitude, cand_factor)
                if f_cand <= f_total - decrease:
                    cand_grad = gradient(cand_factor)
                    break
                # Near the optimum the true decrease drops below the
                # objective's floating-point resolution and the comparison
                # above stalls. Certify it instead by convexity, f(cand) -
                # f(k) <= <grad f(cand), delta>, and by the prox's
                # subgradient -delta/step - w at cand, which bounds the
                # penalty change by <-delta/step - w, delta>: no large terms
                # cancel. A tight no-increase guard on the computed value
                # goes first, as it needs no inverse.
                if f_cand <= f_total + 256 * np.finfo(float).eps * (1.0 + abs(f_total)):
                    cand_grad = gradient(cand_factor)
                    certified = (float(np.dot(cand_grad[1] - w, delta))
                                 - float(np.dot(delta, delta)) / step)
                    if certified <= -decrease:
                        break
            step *= _BACKTRACK_FACTOR
        else:
            raise RuntimeError(
                "no feasible descent step found; inputs are pathological")
        k, f_total, factor = cand, f_cand, cand_factor
        trace.append(f_total - offset)
        probe = step
        step = _bb_step(delta, cand_grad[1] - w)
        # Fixed-point residual at the new iterate, with its own gradient:
        # the step-normalized distance to one more prox-gradient step.
        inv, w = cand_grad
        move = pen.prox(k - probe * w, probe)[0] - k
        if probe < _STEP_INIT and not move.any():
            # At a tiny step k - step * w can round back to k; the
            # residual is zero only at the optimum, whatever the step.
            probe = _STEP_INIT
            move = pen.prox(k - probe * w, probe)[0] - k
        residual = np.sqrt(float(np.dot(move, move))) / probe
        if residual <= cfg.grad_tol:
            converged = True
            break
        if trace[-1] < _OBJECTIVE_FLOOR:
            # No test of boundedness: -log det diverges only
            # logarithmically, so an unbounded fit never gets here and runs
            # to max_iters, while a bounded fit with a large objective (a
            # precision near 1e5 I) stops here at once.
            break
        if residual < best_residual:
            best_residual, best_iteration = residual, iterations
        elif iterations - best_iteration >= _STALL_ITERS:
            break

    # K as iterated: zeros survive, and a zeroed free entry gives L = -S^-1.
    k_opt = s_inv.copy()
    k_opt[pen.free] = k
    lam = k_opt - s_inv
    k_scale = float(np.max(np.abs(k_opt)))
    result = SolveResult(
        lambda_opt=SymmetricMatrix(dim, lam),
        t_opt=SymmetricMatrix(dim, _packed_inverse(factor)),
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        support_estimate_raw=support_of(SymmetricMatrix(dim, k_opt),
                                        _SUPPORT_REL_TOL * k_scale),
    )
    if penalty.kind == "known":
        # w is the free gradient at the returned L.
        result.duality_gap = float(np.dot(w, lam[pen.free]))
        diff = inv - t_hat.packed()[pen.free]
        result.constraint_residual = float(np.sqrt(np.dot(weight * diff, diff)))
    return result


def solve_known_support(model: GaussianModel, t_hat: SymmetricMatrix,
                        omega: SupportPattern,
                        cfg: SolverConfig = SolverConfig(),
                        lam0: SymmetricMatrix | None = None) -> SolveResult:
    """Projected-gradient solve of the support-constrained problem; the result carries
    ``duality_gap``, the complementary-slackness residual <grad J(L), L> over omega (no
    Fenchel gap: first order, can be < 0), and ||P_omega(T_o - T_hat)||_F."""
    return solve(model, t_hat, PenaltySpec.known_support(omega), cfg, lam0=lam0)
