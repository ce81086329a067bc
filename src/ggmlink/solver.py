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

The solution covariance is recovered as T_o = (S^-1 + L)^-1.

Convention: the free variables are the stored lower-triangle entries.
Each off-diagonal variable appears twice in trace terms, so its effective
smooth gradient is 2 (T_hat - (S^-1+L)^-1)_ij while the penalty weighs it
once; the prox therefore uses threshold t*gamma and the gradient step uses
the doubled off-diagonal gradient. KKT checks must use this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ggm import GaussianModel
from .symmat import (SupportPattern, SymmetricMatrix, _chol_or_none,
                     _sym_inv_from_chol, _tril_of, support_of)

_STEP_FLOOR_FACTOR = 1e-18


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
            if name in active:
                if value is None:
                    raise ValueError(f"penalty {self.kind!r} requires {name}")
                if name != "omega" and not 0.0 < value < np.inf:
                    raise ValueError(f"{name} must be finite and strictly positive")
            elif value is not None:
                raise ValueError(f"penalty {self.kind!r} does not take {name}")

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
    step_init: float = 1.0
    backtrack_factor: float = 0.5
    armijo_const: float = 1e-4
    zero_tol: float = 1e-8
    divergence_bound: float = 1e10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol <= 0 or self.step_init <= 0:
            raise ValueError("grad_tol and step_init must be positive")
        if not (0.0 < self.backtrack_factor < 1.0):
            raise ValueError("backtrack_factor must be in (0, 1)")
        if not (0.0 < self.armijo_const < 1.0):
            raise ValueError("armijo_const must be in (0, 1)")
        if self.zero_tol < 0:
            raise ValueError("zero_tol must be >= 0")
        if self.divergence_bound <= 0:
            raise ValueError("divergence_bound must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        if not isinstance(data, dict):
            raise ValueError("solver config must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown solver config fields: {sorted(unknown)}")
        for name, value in data.items():
            types = int if fields[name].type in (int, "int") else (int, float)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"solver.{name} has the wrong type: {value!r}")
        return cls(**data)


@dataclass
class SolveResult:
    lambda_opt: SymmetricMatrix
    t_opt: SymmetricMatrix
    objective_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    duality_gap: float | None = None
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
            "support_estimate_raw": {
                "dim": self.support_estimate_raw.dim,
                "pairs": [list(p) for p in self.support_estimate_raw.pairs()],
            },
        }


# ---------------------------------------------------------------------------
# Smooth part
# ---------------------------------------------------------------------------

def _feasible_factor(lam: SymmetricMatrix,
                     s_inv: SymmetricMatrix) -> np.ndarray:
    factor = _chol_or_none(s_inv.to_array() + lam.to_array())
    if factor is None:
        raise ValueError("infeasible multiplier: S^-1 + L is not positive definite")
    return factor


def dual_smooth_value(lam: SymmetricMatrix, s_inv: SymmetricMatrix,
                      t_hat: SymmetricMatrix) -> float:
    """-log det(S^-1 + L) + tr(T_hat L); raises on infeasible L."""
    factor = _feasible_factor(lam, s_inv)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    return -logdet + float(np.sum(t_hat.to_array() * lam.to_array()))


def dual_smooth_gradient(lam: SymmetricMatrix, s_inv: SymmetricMatrix,
                         t_hat: SymmetricMatrix) -> SymmetricMatrix:
    """Matrix gradient T_hat - (S^-1 + L)^-1 (trace inner product)."""
    grad = t_hat.to_array() - _sym_inv_from_chol(_feasible_factor(lam, s_inv))
    return SymmetricMatrix(lam.dim, _tril_of(grad))


def primal_from_dual(lam: SymmetricMatrix,
                     s_inv: SymmetricMatrix) -> SymmetricMatrix:
    """Recovered covariance (S^-1 + L)^-1; raises on infeasible L."""
    inv = _sym_inv_from_chol(_feasible_factor(lam, s_inv))
    return SymmetricMatrix(lam.dim, _tril_of(inv))


# ---------------------------------------------------------------------------
# Proximal maps
# ---------------------------------------------------------------------------

def _soft(v: np.ndarray, thr: float) -> np.ndarray:
    # sign(v) * max(|v| - thr, 0), with fewer temporaries.
    mag = np.abs(v)
    mag -= thr
    np.maximum(mag, 0.0, out=mag)
    mag *= np.sign(v)
    return mag


class _Penalty:
    """The penalty of one solve (module docstring): L is held at 0 on
    ``fixed``, and each term adds weight * sum |L_ij + A_ij| over its mask,
    whose lower half the value sums so that a pair counts once."""

    def __init__(self, spec: PenaltySpec, prior_mask: np.ndarray,
                 s_inv_arr: np.ndarray):
        dim = prior_mask.shape[0]
        offdiag = ~np.eye(dim, dtype=bool)
        outside, inside = offdiag & ~prior_mask, offdiag & prior_mask
        self.fixed = np.zeros((dim, dim), dtype=bool)
        if spec.kind == "known":
            if spec.omega.dim != dim:
                raise ValueError("constraint support dimension does not match the model")
            self.fixed = ~spec.omega.mask()
        elif spec.kind == "nlp":
            self.fixed = ~prior_mask
        # PenaltySpec sets exactly the weights of its kind; the rest are None.
        weights = ((outside, spec.gamma_p or spec.eta_p),
                   (inside, spec.gamma_n or spec.eta_n))
        anchor = np.where(inside, s_inv_arr, 0.0)
        below = np.tril(offdiag)
        self.terms = [(mask, weight, anchor[mask], mask & below,
                       anchor[mask & below])
                      for mask, weight in weights if weight is not None]

    def prox(self, arr: np.ndarray, step: float) -> np.ndarray:
        """argmin_X 0.5 ||X - arr||^2 / step + penalty(X), entrywise."""
        out = arr.copy()
        out[self.fixed] = 0.0
        for mask, weight, anchor, _, _ in self.terms:
            out[mask] = _soft(arr[mask] + anchor, step * weight) - anchor
        return out

    def value(self, arr: np.ndarray) -> float:
        total = 0.0
        for _, weight, _, low, anchor_low in self.terms:
            total += weight * float(np.sum(np.abs(arr[low] + anchor_low)))
        return total


def _prox(lam: SymmetricMatrix, step: float, spec: PenaltySpec,
          s_inv: SymmetricMatrix, prior_support: SupportPattern):
    if step <= 0:
        raise ValueError("step must be positive")
    penalty = _Penalty(spec, prior_support.mask(), s_inv.to_array())
    return SymmetricMatrix(lam.dim, _tril_of(penalty.prox(lam.to_array(), step)))


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

def _packed_norm_sq(delta: np.ndarray) -> float:
    # Lower-triangle (free-variable) squared norm: off-diagonals once.
    return 0.5 * (float(np.sum(delta * delta))
                  + float(np.sum(np.diag(delta) ** 2)))


def random_feasible_start(s_inv: SymmetricMatrix, seed: int,
                          scale: float = 0.5,
                          support: SupportPattern | None = None) -> SymmetricMatrix:
    """Random symmetric multiplier, scaled into the feasible cone and then
    shrunk by ``scale`` so it sits strictly inside; optionally restricted to
    a support (restriction applied before the feasibility scaling)."""
    if not (0.0 < scale < 1.0):
        raise ValueError("scale must be in (0, 1)")
    dim = s_inv.dim
    rng = np.random.default_rng(seed)
    g = np.tril(rng.standard_normal((dim, dim)))
    g = g + np.tril(g, -1).T
    if support is not None:
        g = np.where(support.mask(), g, 0.0)
    s_arr = s_inv.to_array()
    alpha = 1.0
    for _ in range(200):
        if _chol_or_none(s_arr + alpha * g) is not None:
            # Convexity of the cone: scaling toward 0 stays strictly inside.
            return SymmetricMatrix(dim, _tril_of(scale * alpha * g))
        alpha *= 0.5
    raise RuntimeError("could not scale the random start into the feasible cone")


def solve(model: GaussianModel, t_hat: SymmetricMatrix, penalty: PenaltySpec,
          cfg: SolverConfig = SolverConfig(),
          lam0: SymmetricMatrix | None = None) -> SolveResult:
    """Proximal-gradient descent on the penalized dual functional.

    Backtracking rejects any candidate whose S^-1 + L fails the Cholesky
    feasibility test and otherwise enforces sufficient decrease of the
    composite objective. Terminates when the proximal-gradient residual
    (step-normalized move, lower-triangle norm) drops to cfg.grad_tol.
    Non-convergence is flagged, not raised.
    """
    dim = model.dim
    if t_hat.dim != dim:
        raise ValueError("sample covariance dimension does not match the model")
    if not np.isfinite(t_hat.packed()).all():
        raise ValueError("t_hat must be finite: the sample covariance holds NaN or inf")
    s_inv_arr = model.precision.to_array()
    t_hat_arr = t_hat.to_array()
    pen = _Penalty(penalty, model.precision_support.mask(), s_inv_arr)

    lam = np.zeros((dim, dim)) if lam0 is None else lam0.to_array()
    # Hard-constrained kinds start inside their subspace.
    lam[pen.fixed] = 0.0

    def objective(x, chol_factor):
        # Composite objective at L = x, given the Cholesky factor of S^-1 + x.
        return (-2.0 * float(np.sum(np.log(np.diag(chol_factor))))
                + float(np.sum(t_hat_arr * x)) + pen.value(x))

    m_arr = s_inv_arr + lam
    factor = _chol_or_none(m_arr)
    if factor is None:
        raise ValueError("initial multiplier is infeasible")

    f_total = objective(lam, factor)
    trace = [f_total]

    step = cfg.step_init
    step_floor = cfg.step_init * _STEP_FLOOR_FACTOR
    converged = False
    iterations = 0

    def free_gradient(chol_factor):
        # Free-variable gradient: doubled off-diagonals, plain diagonal.
        grad = t_hat_arr - _sym_inv_from_chol(chol_factor)
        return 2.0 * grad - np.diag(np.diag(grad))

    w = free_gradient(factor)
    for iterations in range(1, cfg.max_iters + 1):
        step = min(cfg.step_init, step / cfg.backtrack_factor)
        accepted = False
        while step >= step_floor:
            cand = pen.prox(lam - step * w, step)
            m_cand = s_inv_arr + cand
            cand_factor = _chol_or_none(m_cand)
            if cand_factor is not None:
                delta = cand - lam
                dn2 = _packed_norm_sq(delta)
                decrease = cfg.armijo_const * dn2 / step
                f_cand = objective(cand, cand_factor)
                if f_cand <= f_total - decrease:
                    accepted = True
                    break
                # Near the optimum the true decrease drops below the
                # objective's floating-point resolution and the comparison
                # above stalls. Certify the decrease instead through
                # convexity: f(cand) - f(lam) <= <grad f(cand), delta>, a
                # cancellation-free quantity; the penalty difference is
                # added exactly. A tight no-increase guard on the computed
                # value stays in force.
                grad_cand = t_hat_arr - _sym_inv_from_chol(cand_factor)
                certified = (float(np.sum(grad_cand * delta))
                             + pen.value(cand) - pen.value(lam))
                if (certified <= -decrease
                        and f_cand <= f_total + 256 * np.finfo(float).eps
                        * (1.0 + abs(f_total))):
                    accepted = True
                    break
            step *= cfg.backtrack_factor
        if not accepted:
            raise RuntimeError(
                "no feasible descent step found; inputs are pathological")
        lam, m_arr, factor, f_total = cand, m_cand, cand_factor, f_cand
        trace.append(f_total)
        # Fixed-point residual at the new iterate, with its own gradient:
        # the step-normalized distance to one more prox-gradient step.
        w = free_gradient(factor)
        probe = pen.prox(lam - step * w, step)
        residual = np.sqrt(_packed_norm_sq(probe - lam)) / step
        if residual <= cfg.grad_tol:
            converged = True
            break
        if f_total < -cfg.divergence_bound:
            # Objective diving past the bound signals an inconsistent
            # constraint set (dual unbounded below).
            break

    lam_sym = SymmetricMatrix(dim, _tril_of(lam))
    t_opt = SymmetricMatrix(dim, _tril_of(_sym_inv_from_chol(factor)))
    # Exact form of the estimated precision: structural zeros survive.
    k_opt = SymmetricMatrix(dim, _tril_of(m_arr))
    k_scale = float(np.max(np.abs(m_arr)))
    support_raw = support_of(k_opt, cfg.zero_tol * k_scale)

    result = SolveResult(
        lambda_opt=lam_sym,
        t_opt=t_opt,
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        support_estimate_raw=support_raw,
    )
    if penalty.kind == "known":
        t_opt_arr = t_opt.to_array()
        result.duality_gap = float(np.sum(lam * (t_hat_arr - t_opt_arr)))
        diff = np.where(pen.fixed, 0.0, t_opt_arr - t_hat_arr)
        result.constraint_residual = float(np.linalg.norm(diff))
    return result


def solve_known_support(model: GaussianModel, t_hat: SymmetricMatrix,
                        omega: SupportPattern,
                        cfg: SolverConfig = SolverConfig(),
                        lam0: SymmetricMatrix | None = None) -> SolveResult:
    """Projected-gradient solve of the support-constrained problem; the
    result carries the duality gap and the constraint residual
    ||P_omega(T_o - T_hat)||_F."""
    return solve(model, t_hat, PenaltySpec.known_support(omega), cfg, lam0=lam0)
