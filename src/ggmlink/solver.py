"""Proximal-gradient solvers, with Newton moves on small problems, for
prior-anchored covariance estimation.

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
dual_smooth_value, dual_smooth_gradient (divided by that weight, exactly) and _prox
wrap the _objective, _free_gradient, _penalty and _soft_threshold that solve runs.

Metric: solve scales each prox-gradient step by d, the exact Hessian diagonal
of -log det K on the free variables. With W = K^-1 the second derivative
tr(W E W E) along a diagonal variable (E = E_ii) is W_ii^2, and along an
off-diagonal one (E = E_ij + E_ji) it is 2 (W_ii W_jj + W_ij^2). Both are
(W_ii W_jj + W_ij^2) * omega^2 / 2 with the pair weight omega, 1 or 2: the
curvature is quadratic in the variable's weight, and the 1/2 makes the
diagonal case the square W_ii^2 (omega alone would double it). d comes from
the inverse that each accepted iterate forms anyway, and a diagonal entry
of W is read even where the support fixes it.

Active set: with w the free gradient, a trial moves a free entry to
prox(k_e - (t/d_e) w_e, (t/d_e) weight_e). Where k_e = 0 and |w_e| <=
weight_e that is exactly 0.0 at every step t and metric d, since rounding is
monotone: fl(s |w_e|) <= fl(s weight_e). So every trial is 0 off the active
set A = {k != 0} u {|w| > weight}, QUIC's free set (Hsieh, Sustik, Dhillon &
Ravikumar, JMLR 2014), and the residual, the Armijo decrease, the
certificate and the objective are the same sums over A: only their
summation order changes. solve runs its loop on one index set I, chosen
once per fit from the size of the free set. Below _ACTIVE_SET_MIN entries I
is the whole free set, taken by basic slices, and forms no A. From there on
I is A, formed anew at each accepted iterate from the full free gradient
and the nonzeros of k on the last I (off it k is exactly 0), and the
Barzilai-Borwein sums run over the I of the last move. After the
loop, kkt_violation is measured over the whole free set, the check that A
left out no entry that should move.

Newton moves: once the signs of k settle, the problem on S, the nonzeros of
k, is smooth, and a Newton step there converges quadratically where the
prox-gradient steps converge linearly (Hsieh et al., QUIC, JMLR 2014; Byrd,
Chin, Nocedal & Oztoprak, Math. Program. 2016). On a whole free set of at
most _NEWTON_MAX entries, solve tries one whenever the first trial of an
iteration leaves the zero pattern of k as it is. The Hessian of -log det K
on S, with W = K^-1 and the entries e = (r, c), e' = (r', c'), is

    H_ee' = 1/2 omega_e omega_e' (W_rr' W_cc' + W_rc' W_cr'),

the curvature of the metric above off its diagonal (at e = e' it is d_e).
The move solves H x = g on S, with g = w + weight sign(k), sets to 0 every
penalized entry whose sign it would flip, and is accepted through the
Cholesky test and an Armijo decrease with slope <g, move>, halved up to
_NEWTON_HALVINGS times. A refused move ends the Newton moves of that fit;
an accepted one counts as an iteration like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .ggm import GaussianModel
from .symmat import (SupportPattern, SymmetricMatrix, _check_dims, _chol_or_none,
                     _factor_or_raise, _free_layout, _gather, _integer, _log_det_of_factor,
                     _lower_full, _lower_inverse, _lower_mask, _packed_diagonal,
                     _packed_inverse, _packed_offsets, _pair_weight, _positive,
                     _support_json, _tril_of, support_of)

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
# iterations stops, flagged as not converged: its grad_tol is below what the
# computed objective can resolve. Converging fits set a new first-trial
# minimum at least every 9 iterations on desk-sweep and every 2 on scale-fit.
_STALL_ITERS = 500
# The support estimate keeps |K_ij| above this share of max |K|.
_SUPPORT_REL_TOL = 1e-8
# From this many free entries on, solve iterates on the active set A, below
# it on the whole free set (module docstring): forming A at every iteration
# costs more than it saves on a small free set. Solve CPU on A over that on
# the whole free set, by free-set size (one BLAS thread, the two interleaved,
# best of 5 to 7 runs): plp at dim 10, 56, 70, 80 and 400 (55, 1,596, 2,485,
# 3,240 and 80,200 entries) 1.36, 1.07, 0.97, 0.96 and 0.77; nlp at dim 10,
# 160 and 400 (14, 398 and 998 entries) 1.30, 1.08 and 1.03.
_ACTIVE_SET_MIN = 2000
# Up to this many free entries, solve tries Newton moves on the support of k
# (module docstring). A move gathers W on 2|S| rows and columns and solves
# an |S| x |S| system, so its cost grows faster than that of a
# prox-gradient iteration. Solve CPU with Newton moves over that without,
# by free-set size (one BLAS thread, the two interleaved, median of 7 runs
# of 8 fits at N 1000): plp at dim 8, 10, 12, 14 and 20 (36, 55, 78, 105
# and 210 entries) 0.69, 0.61, 0.72, 0.82 and 0.95; nlp at dim 10, 30, 40,
# 60 and 100 (14, 65, 87, 148 and 248 entries) 0.36, 0.87, 0.92, 1.18 and
# 1.67. nlp crosses over between 87 and 148 entries; below 64 every kind
# gains at least an eighth, and the desk fits (dim 10: 55 and 14 entries)
# gain most. The dim-400 fits (998 and 80,200 entries) stay off this path.
_NEWTON_MAX = 64
# A Newton move that fails its tests is retried at up to this many halvings
# of its length.
_NEWTON_HALVINGS = 4
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
                _positive(value, name)
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
        _integer(self.max_iters, "max_iters", 1)
        _positive(self.grad_tol, "grad_tol")


@dataclass
class SolveResult:
    """One fit. K = S^-1 + L as iterated is held once, as ``precision``:
    ``t_opt`` = K^-1 carries it as its known inverse, and ``lambda_opt`` is
    derived from it and the prior precision S^-1."""

    precision: SymmetricMatrix
    t_opt: SymmetricMatrix
    prior_precision: SymmetricMatrix
    objective_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    duality_gap: float | None = None  # known: <grad J(L), L>, not a Fenchel gap
    constraint_residual: float | None = None
    kkt_violation: float | None = None
    support_estimate_raw: SupportPattern | None = None

    @property
    def lambda_opt(self) -> SymmetricMatrix:
        """The multiplier L = K - S^-1: a zeroed free entry gives -S^-1."""
        return SymmetricMatrix._of_packed(
            self.precision.dim, self.precision.packed() - self.prior_precision.packed())

    def to_report(self) -> dict:
        """Scalar convergence data for the JSON report."""
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "objective_initial": self.objective_trace[0],
            "objective_final": self.objective_trace[-1],
            "duality_gap": self.duality_gap,
            "constraint_residual": self.constraint_residual,
            "kkt_violation": self.kkt_violation,
            "support_estimate_raw": _support_json(self.support_estimate_raw),
        }


# ---------------------------------------------------------------------------
# Smooth part
# ---------------------------------------------------------------------------

def _objective(log_det: float, t_w, x, weight=None, magnitude=None) -> float:
    """-log det K + t_w . x + weight . magnitude, the objective in K (module docstring)
    at x on the free entries, with |x| = magnitude; no penalty term when weight is None."""
    value = -log_det + float(np.dot(t_w, x))
    return value if weight is None else value + float(np.dot(weight, magnitude))


def _free_gradient(full: np.ndarray, at: np.ndarray, pair_weight: np.ndarray,
                   t_w: np.ndarray):
    """(W, W's free entries, the free gradient t_w - pair_weight * W) from
    W = K^-1 in the lower triangle of a Fortran-ordered full array, with the
    free entries at the offsets ``at``: the gradient of the smooth objective
    in K on its free entries (module docstring)."""
    inv = _gather(full, at)
    w = pair_weight * inv
    return full, inv, np.subtract(t_w, w, out=w)


def dual_smooth_value(lam: SymmetricMatrix, s_inv: SymmetricMatrix,
                      t_hat: SymmetricMatrix) -> float:
    """-log det(S^-1 + L) + tr(T_hat L); raises on infeasible L."""
    _check_dims(lam, t_hat)
    factor = _factor_or_raise(s_inv + lam, _INFEASIBLE)
    return _objective(_log_det_of_factor(factor), _pair_weight(lam.dim) * t_hat.packed(),
                      lam.packed())


def dual_smooth_gradient(lam: SymmetricMatrix, s_inv: SymmetricMatrix,
                         t_hat: SymmetricMatrix) -> SymmetricMatrix:
    """Matrix gradient T_hat - (S^-1 + L)^-1 (trace inner product), from _free_gradient."""
    _check_dims(lam, t_hat)
    factor = _factor_or_raise(s_inv + lam, _INFEASIBLE)
    omega = _pair_weight(lam.dim)
    w = _free_gradient(_lower_inverse(factor), _packed_offsets(lam.dim), omega,
                       omega * t_hat.packed())[2]
    return SymmetricMatrix._of_packed(lam.dim, w / omega)


def primal_from_dual(lam: SymmetricMatrix,
                     s_inv: SymmetricMatrix) -> SymmetricMatrix:
    """Recovered covariance (S^-1 + L)^-1; raises on infeasible L."""
    factor = _factor_or_raise(s_inv + lam, _INFEASIBLE)
    return SymmetricMatrix(lam.dim, _packed_inverse(factor))


# ---------------------------------------------------------------------------
# Proximal maps
# ---------------------------------------------------------------------------

def _penalty(spec: PenaltySpec, prior_support: SupportPattern):
    """(index, weight): the packed positions of the free entries (a basic slice
    when every entry is free) and the weights on them of the penalty of one solve
    in K (module docstring), sum weight * |K_ij|, 0 where it does not apply."""
    prior = prior_support.packed()
    free = np.ones_like(prior)
    if spec.kind == "known":
        if spec.omega.dim != prior_support.dim:
            raise ValueError("constraint support dimension does not match the model")
        free = spec.omega.packed()
    elif spec.kind == "nlp":
        free = prior
    # PenaltySpec sets exactly the weights of its kind; the rest are None.
    weight = ~_packed_diagonal(prior_support.dim) * np.where(
        prior, spec.gamma_n or spec.eta_n or 0.0, spec.gamma_p or spec.eta_p or 0.0)
    index = slice(None) if free.all() else np.flatnonzero(free)
    return index, weight[index]


def _soft_threshold(x: np.ndarray, step, weight: np.ndarray):
    """Overwrite x with y = argmin_y sum (y - x)^2 / (2 step) + weight . |y|, the
    soft threshold by step * weight for a scalar step or one per entry; return y, |y|."""
    magnitude = np.abs(x)
    magnitude -= step * weight
    np.maximum(magnitude, 0.0, out=magnitude)
    return np.copysign(magnitude, x, out=x), magnitude


def _prox(lam: SymmetricMatrix, step: float, spec: PenaltySpec,
          s_inv: SymmetricMatrix, prior_support: SupportPattern):
    """The prox in L: shift by the anchor A, apply the prox in K, shift back."""
    _positive(step, "step")
    for other in (s_inv, prior_support):
        _check_dims(lam, other)
    free, weight = _penalty(spec, prior_support)
    anchor = np.where(prior_support.packed()[free] & (weight > 0.0),
                      s_inv.packed()[free], 0.0)
    out = np.zeros(lam.packed().size)
    out[free] = _soft_threshold(lam.packed()[free] + anchor, step, weight)[0] - anchor
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

def _bb_step(delta: np.ndarray, dg: np.ndarray, metric: np.ndarray) -> float:
    """Short Barzilai-Borwein trial step <dx, dg> / <dg, dg / d> in the metric
    d (by Cauchy-Schwarz never longer than the long one, <dx, d dx> / <dx,
    dg>) from the last accepted move dx and the change dg in the free
    gradient, clipped to [_BB_STEP_MIN, _BB_STEP_MAX]; _STEP_INIT when the
    curvature <dx, dg> is not positive and finite. On f = 0.5 x'Dx with
    d = diag D it is 1."""
    curvature = float(np.dot(delta, dg))
    if not 0.0 < curvature < np.inf:
        return _STEP_INIT
    norm = float(np.dot(dg, dg / metric))  # 0 only when it underflows
    step = curvature / norm if norm > 0.0 else _BB_STEP_MAX
    return min(max(step, _BB_STEP_MIN), _BB_STEP_MAX)


def _newton_hessian(full: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    pair_weight: np.ndarray) -> np.ndarray:
    """The Hessian of -log det K on the free entries at the 0-based ``rows``
    and ``cols``, with their pair weights omega, from W = K^-1 in the lower
    triangle of a full array: 1/2 omega omega' o (W[r, r'] W[c, c'] +
    W[r, c'] W[c, r']) (module docstring), from W gathered on the rows and
    columns of both ends. It is symmetric bitwise."""
    sym = np.where(_lower_mask(len(full)), full, full.T)
    pick = np.concatenate((rows, cols))
    near = sym.take(pick, 0).take(pick, 1)
    n = rows.size
    hess = near[:n, :n] * near[n:, n:]
    hess += near[:n, n:] * near[n:, :n]
    hess *= (0.5 * pair_weight)[:, None] * pair_weight
    return hess


def _active_set(w: np.ndarray, weight: np.ndarray, k: np.ndarray,
                last: np.ndarray | None) -> np.ndarray:
    """The index set I = A at the iterate k, on the free entries, with free
    gradient w and penalty weights ``weight``: the positions whose trial can
    leave 0 (module docstring) and k's nonzeros. Off the index set ``last``
    of the move that reached k (the whole free set when None), k is exactly
    0, so its nonzeros are found on ``last`` alone."""
    active = np.abs(w) > weight
    active[np.flatnonzero(k) if last is None else last[k[last] != 0.0]] = True
    return np.flatnonzero(active)


def random_feasible_start(s_inv: SymmetricMatrix, seed: int,
                          support: SupportPattern | None = None) -> SymmetricMatrix:
    """Random symmetric multiplier, scaled into the feasible cone and then
    halved so it sits strictly inside; optionally restricted to a support
    (restriction applied before the feasibility scaling)."""
    dim = s_inv.dim
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(s_inv.packed().size)
    if support is not None:
        _check_dims(s_inv, support)
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
    """Proximal-gradient descent on the penalized dual functional (G-ISTA)
    in a diagonal metric.

    Iterates on K (module docstring). A trial at step t moves each free
    entry by the prox of the gradient step t / d_e, with d the Hessian
    diagonal at the iterate (module docstring), so t = 1 is the Newton step
    of a separable model. Each line search starts from the short
    Barzilai-Borwein step of the last move in that metric. Its first trial's
    move delta gives the fixed-point residual ||d * delta|| / t (lower-
    triangle norm), in gradient units like cfg.grad_tol; the fit converges,
    without factoring that trial, once it is at most cfg.grad_tol.
    Backtracking rejects candidates that fail the Cholesky test and
    enforces sufficient decrease <delta, d * delta> / t of the composite
    objective. A move that rounds back to K is accepted unfactored. A fit
    that makes max_iters moves, or whose residual stops improving, is
    flagged as not converged, not raised.

    The loop runs on one index set I of the free entries (module
    docstring): the whole free set when it has fewer than _ACTIVE_SET_MIN
    entries, else the active set A = {k != 0} u {|w| > weight} of each
    accepted iterate, outside which every trial is exactly 0. On a whole
    free set of at most _NEWTON_MAX entries, a first trial that keeps the
    zero pattern of k is replaced by a Newton move on the nonzeros of k
    (module docstring), until one such move is refused. The result's
    kkt_violation is the largest entry of the minimum-norm subgradient over
    the whole free set, in the packed convention: |w_e + weight_e sign k_e|
    where k_e != 0, max(|w_e| - weight_e, 0) where k_e = 0. Without lam0 the
    start K = S^-1 takes its log det and inverse from the model's factor.
    """
    dim = model.dim
    if t_hat.dim != dim:
        raise ValueError("sample covariance dimension does not match the model")
    if not np.isfinite(t_hat.packed()).all():
        raise ValueError("t_hat must be finite: the sample covariance holds NaN or inf")
    if lam0 is not None and lam0.dim != dim:
        raise ValueError("initial multiplier dimension does not match the model")
    s_inv = model.precision.packed()
    free, pen_weight = _penalty(penalty, model.precision_support)
    base, at, rows, cols = _free_layout(s_inv, free)
    s_free = s_inv[free]  # a view when every entry is free
    # One weight for tr(T_hat X) = t_w . x and for the gradient (docstring).
    weight = _pair_weight(dim)[free]
    t_w = weight * t_hat.packed()[free]
    # The trace reports the objective in L, the one in K less t_w . s_free.
    offset = float(np.dot(t_w, s_free))
    # Hard-constrained kinds start inside their subspace.
    k = s_free.copy() if lam0 is None else s_free + lam0.packed()[free]
    # The index set I, chosen once per fit (docstring); _i marks a part on I.
    on_active_set = k.size >= _ACTIVE_SET_MIN

    def parts_on(index):
        # I = index and the parts on it.
        weight_i = weight[index]
        return (index, pen_weight[index], t_w[index], at[index],
                0.5 * weight_i * weight_i, rows[index], cols[index])

    def gradient(full):
        return _free_gradient(full, at, weight, t_w)

    def metric_on(grad):
        # The metric on I, the Hessian diagonal of -log det K (docstring).
        diag, inv = grad[0].diagonal(), grad[1][index]
        return curvature_i * (diag[rows_i] * diag[cols_i] + inv * inv)

    def trial(step):
        # The prox-gradient trial at step on I: its entries, their
        # magnitudes, the move delta from K and d * delta.
        scale = step / metric
        cand, magnitude = _soft_threshold(k_i - scale * w_i, scale, pen_weight_i)
        delta = cand - k_i
        return cand, magnitude, delta, metric * delta

    def newton_move():
        # The Newton move from k on S, its nonzeros (docstring), on the whole
        # free set: the accepted (cand, f_cand, cand_grad, delta), or None.
        support = np.flatnonzero(k_i)
        signs = np.sign(k_i)  # 0 off S
        g = w_i + pen_weight * signs
        g_s = g[support]
        hess = _newton_hessian(grad[0], rows[support], cols[support], weight[support])
        # hess.T is the same matrix in the Fortran order dposv works in.
        x_s, info = lapack.dposv(hess.T, g_s, lower=1, overwrite_a=1)[1:]
        if info != 0:
            return None
        # The Armijo decrease of the whole move, from its slope <g, -x>.
        decrease = _ARMIJO_CONST * float(np.dot(g_s, x_s))
        x = np.zeros_like(k_i)
        x[support] = x_s
        penalized = pen_weight > 0.0
        scale = 1.0
        for _ in range(_NEWTON_HALVINGS + 1):
            # Off S, k and x are 0, and so is the candidate.
            cand = k_i - scale * x
            cand[penalized & (np.sign(cand) != signs)] = 0.0
            delta = cand - k_i
            if not delta.any():
                return None
            cand_factor = _chol_or_none(dim, cand, base, at)
            if cand_factor is not None:
                f_cand = _objective(_log_det_of_factor(cand_factor), t_w_i, cand,
                                    pen_weight_i, np.abs(cand))
                if f_cand <= f_total - scale * decrease:
                    return cand, f_cand, gradient(_lower_inverse(cand_factor)), delta
            scale *= 0.5
        return None

    if lam0 is None:
        # K = S^-1: the model's factor gave its log det and its inverse.
        log_det, full_inv = model.precision_log_det, _lower_full(model.covariance.packed())
    else:
        factor = _chol_or_none(dim, k, base, at)
        if factor is None:
            raise ValueError("initial multiplier is infeasible")
        log_det, full_inv = _log_det_of_factor(factor), _lower_inverse(factor)
    grad = gradient(full_inv)
    index, pen_weight_i, t_w_i, at_i, curvature_i, rows_i, cols_i = parts_on(
        _active_set(grad[2], pen_weight, k, None) if on_active_set else slice(None))
    k_i, w_i, metric = k[index], grad[2][index], metric_on(grad)

    f_total = _objective(log_det, t_w_i, k_i, pen_weight_i, np.abs(k_i))
    trace = [f_total - offset]

    step = _STEP_INIT
    converged = False
    newton = not on_active_set and k.size <= _NEWTON_MAX
    best_residual, best_iteration = np.inf, 0

    for iterations in range(cfg.max_iters + 1):
        # A zero move at a step below 1 (k - scale * w rounded back to k) is
        # no convergence. dnrm2 cannot overflow.
        cand, magnitude, delta, metric_delta = trial(step)
        if step >= _STEP_INIT or delta.any():
            residual = float(blas.dnrm2(metric_delta)) / step
            if residual <= cfg.grad_tol:
                converged = True
                break
            if residual < best_residual:
                best_residual, best_iteration = residual, iterations
            elif iterations - best_iteration >= _STALL_ITERS:
                break
        if iterations == cfg.max_iters:
            break
        # A trial that keeps the zero pattern of k hands over to a Newton
        # move on the support; once one is refused, the fit makes no more.
        newton_found = None
        if newton and not ((cand == 0.0) ^ (k_i == 0.0)).any():
            newton_found = newton_move()
            newton = newton_found is not None
        if newton_found is not None:
            cand, f_cand, cand_grad, delta = newton_found
        else:
            while delta.any():
                cand_factor = _chol_or_none(dim, cand, base, at_i)
                if cand_factor is not None:
                    decrease = _ARMIJO_CONST * float(np.dot(delta, metric_delta)) / step
                    f_cand = _objective(_log_det_of_factor(cand_factor), t_w_i, cand,
                                        pen_weight_i, magnitude)
                    if f_cand <= f_total - decrease:
                        cand_grad = gradient(_lower_inverse(cand_factor))
                        break
                    # Near the optimum the true decrease drops below the
                    # objective's floating-point resolution and the
                    # comparison above stalls. Certify it instead by
                    # convexity, f(cand) - f(k) <= <grad f(cand), delta>,
                    # and by the prox's subgradient -d*delta/step - w at
                    # cand, which bounds the penalty change by
                    # <-d*delta/step - w, delta>: no large terms cancel. A
                    # tight no-increase guard on the computed value goes
                    # first, as it needs no inverse.
                    if f_cand <= f_total + 256 * np.finfo(float).eps * (1.0 + abs(f_total)):
                        cand_grad = gradient(_lower_inverse(cand_factor))
                        certified = (float(np.dot(cand_grad[2][index] - w_i, delta))
                                     - float(np.dot(delta, metric_delta)) / step)
                        if certified <= -decrease:
                            break
                step *= _BACKTRACK_FACTOR
                if step < _STEP_FLOOR:
                    raise RuntimeError(
                        "no feasible descent step found; inputs are pathological")
                cand, magnitude, delta, metric_delta = trial(step)
            else:
                # A zero move (step below 1) leaves K, its factor and its
                # gradient as they are: accept it unfactored, and start the
                # next search at step 1, as the zero curvature of the move
                # would.
                trace.append(trace[-1])
                step = _STEP_INIT
                continue
        k_i, f_total, grad = cand, f_cand, cand_grad
        trace.append(f_total - offset)
        w_new, metric = grad[2][index], metric_on(grad)
        step = _bb_step(delta, w_new - w_i, metric)
        w_i = w_new
        if on_active_set:
            k[index] = k_i
            # Off the last I, k is exactly 0 (_active_set).
            index, pen_weight_i, t_w_i, at_i, curvature_i, rows_i, cols_i = parts_on(
                _active_set(grad[2], pen_weight, k, index))
            k_i, w_i, metric = k[index], grad[2][index], metric_on(grad)

    k[index] = k_i
    full_inv, inv, w = grad
    # The minimum-norm subgradient of the objective at k over the whole free
    # set, in the packed convention: the check that I dropped no entry. It is
    # max(|w_e| - weight_e, 0) where k_e = 0, and |w_e + weight_e sign k_e|
    # where not.
    kkt = np.abs(w)
    kkt -= pen_weight
    nonzero = np.flatnonzero(k)
    kkt[nonzero] = np.abs(w[nonzero] + np.copysign(pen_weight[nonzero], k[nonzero]))
    # K as iterated: zeros survive, and a zeroed free entry gives L = -S^-1.
    if isinstance(free, slice):  # every entry is free
        k_opt = k
    else:
        k_opt = s_inv.copy()
        k_opt[free] = k
    k_scale = float(np.max(np.abs(k_opt)))
    precision = SymmetricMatrix._of_packed(dim, k_opt)
    result = SolveResult(
        precision=precision,
        t_opt=SymmetricMatrix._of_packed(dim, _tril_of(full_inv), precision),
        prior_precision=model.precision,
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        kkt_violation=float(np.max(kkt, initial=0.0)),
        support_estimate_raw=support_of(precision, _SUPPORT_REL_TOL * k_scale),
    )
    if penalty.kind == "known":
        # w is the free gradient at the returned L, whose free entries are
        # k - s_free.
        result.duality_gap = float(np.dot(w, k - s_free))
        diff = inv - t_hat.packed()[free]
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
