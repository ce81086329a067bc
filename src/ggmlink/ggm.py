"""Gaussian graphical model domain logic.

Zero-mean Gaussian models whose conditional-independence graph is the
support of the precision matrix: likelihood, KL divergence, sampling, and
synthetic before/after scenarios for link-change experiments.

Models are built precision-first so that structural zeros of the precision
matrix are exact (bitwise), which the solvers rely on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .symmat import (
    SupportPattern,
    SymmetricMatrix,
    _factor_or_raise,
    _log_det_of_factor,
    _packed_inverse,
    _trace_inner,
    _tril_of,
    frobenius_norm,
    read_matrix,
    read_support,
    support_of,
    write_matrix,
    write_support,
)

# Off-diagonal precision entries get magnitudes uniform in this range, in
# units of the mean diagonal scale: strong enough that a changed edge is
# detectable from a thousand samples, weak enough that diagonal dominance
# stays cheap.
EDGE_WEIGHT_RANGE = (0.3, 0.6)

# Diagonal dominance margin, as a fraction of the largest off-diagonal
# absolute row sum. Smaller margins make the sparse-selection window
# collapse below usable regularization weights.
DIAG_MARGIN = 0.5

# Global factor on the repaired precision matrix. It sets the covariance
# scale of generated instances and thereby positions the selection window
# on the absolute regularization axis; 0.5 (an exact binary power, so the
# structural weights round-trip bitwise) aligns the window with weights of
# order 0.1-1.
PRECISION_SCALE = 0.5

RNG_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class GaussianModel:
    """Zero-mean Gaussian with PD covariance and known precision support."""

    covariance: SymmetricMatrix
    precision: SymmetricMatrix
    precision_support: SupportPattern
    zero_tol: float = 0.0

    def __post_init__(self):
        dims = (self.covariance.dim, self.precision.dim, self.precision_support.dim)
        if len(set(dims)) > 1:
            raise ValueError("model dimensions differ: covariance %d, precision %d,"
                             " support %d" % dims)

    @property
    def dim(self) -> int:
        return self.covariance.dim

    @classmethod
    def from_precision(cls, precision: SymmetricMatrix) -> "GaussianModel":
        """Build from an explicit PD precision matrix; support is exact."""
        factor = _factor_or_raise(precision, "precision matrix is not positive definite")
        return cls(
            covariance=SymmetricMatrix(precision.dim, _packed_inverse(factor)),
            precision=precision,
            precision_support=support_of(precision, 0.0),
            zero_tol=0.0,
        )

    @classmethod
    def from_covariance(cls, covariance: SymmetricMatrix,
                        zero_tol: float = 1e-10) -> "GaussianModel":
        """Build from a PD covariance; the precision support is extracted
        at ``zero_tol`` (numerical inversion has no exact zeros)."""
        factor = _factor_or_raise(covariance, "covariance matrix is not positive definite")
        precision = SymmetricMatrix(covariance.dim, _packed_inverse(factor))
        return cls(
            covariance=covariance,
            precision=precision,
            precision_support=support_of(precision, zero_tol),
            zero_tol=zero_tol,
        )


@dataclass(frozen=True)
class ObservationSet:
    """N i.i.d. zero-mean samples of dimension m, one per row."""

    samples: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ValueError("samples must be a nonempty (N, m) array")
        if not np.isfinite(samples).all():
            raise ValueError("non-finite observations: samples hold NaN or inf")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ScenarioSpec:
    """Synthetic link-change scenario: a random prior graph plus a number
    of appearing and disappearing edges."""

    dim: int
    edge_density: float
    n_add: int
    n_remove: int
    seed: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("scenario needs dim >= 2")
        if not (0.0 < self.edge_density <= 1.0):
            raise ValueError("edge_density must be in (0, 1]")
        if self.n_add < 0 or self.n_remove < 0:
            raise ValueError("edge change counts must be >= 0")


# ---------------------------------------------------------------------------
# Likelihood and divergence
# ---------------------------------------------------------------------------

def sample_covariance(obs: ObservationSet) -> SymmetricMatrix:
    """Second-moment matrix (1/N) sum_k x_k x_k^T (zero-mean convention)."""
    x = obs.samples
    cov = x.T @ x / x.shape[0]
    return SymmetricMatrix(obs.dim, _tril_of(cov))


def kl_divergence(cov_t: SymmetricMatrix, cov_s: SymmetricMatrix) -> float:
    """KL divergence between N(0, cov_t) and N(0, cov_s):

        (1/2) [ -log det(S^-1 T) + tr(S^-1 T) - m ]

    with T = cov_t the first argument. Log-determinants are taken per
    factor (log det(S^-1 T) = log det T - log det S) rather than by forming
    S^-1 T.
    """
    if cov_t.dim != cov_s.dim:
        raise ValueError("dimension mismatch")
    m = cov_t.dim
    message = "kl_divergence requires positive definite inputs"
    s_chol = _factor_or_raise(cov_s, message)
    logdet_s = _log_det_of_factor(s_chol)
    logdet_t = _log_det_of_factor(_factor_or_raise(cov_t, message))
    trace_term = _trace_inner(_packed_inverse(s_chol), cov_t.packed())
    return 0.5 * (-(logdet_t - logdet_s) + trace_term - m)


def negative_log_likelihood(sigma: SymmetricMatrix,
                            sigma_hat: SymmetricMatrix) -> float:
    """Per-sample negative log-likelihood of N(0, sigma) given the sample
    second moment ``sigma_hat``: log det(sigma) + tr(sigma_hat sigma^-1),
    additive constants dropped."""
    if sigma.dim != sigma_hat.dim:
        raise ValueError("dimension mismatch")
    factor = _factor_or_raise(
        sigma, "negative_log_likelihood requires a positive definite sigma")
    return (_log_det_of_factor(factor)
            + _trace_inner(sigma_hat.packed(), _packed_inverse(factor)))


def relative_error(cov_true: SymmetricMatrix,
                   cov_est: SymmetricMatrix) -> float:
    """||T - T_est||_F / ||T||_F."""
    if cov_true.dim != cov_est.dim:
        raise ValueError("dimension mismatch")
    denom = frobenius_norm(cov_true)
    if denom == 0.0:
        raise ValueError("relative_error undefined for a zero reference")
    return frobenius_norm(cov_true - cov_est) / denom


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def draw_samples(cov: SymmetricMatrix, n: int, seed: int) -> ObservationSet:
    """Draw n i.i.d. samples of N(0, cov) by coloring standard normals with
    the Cholesky factor. Deterministic given ``seed`` (generator: pcg64)."""
    if n < 1:
        raise ValueError("need at least one sample")
    factor = _factor_or_raise(cov, "draw_samples requires a positive definite covariance")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, cov.dim))
    return ObservationSet(samples=z @ factor.T, seed=seed)


# ---------------------------------------------------------------------------
# Synthetic scenarios
# ---------------------------------------------------------------------------

def _dominant_diagonal(arr: np.ndarray) -> np.ndarray:
    """PD repair of a structural precision matrix: reset the diagonal to
    the off-diagonal absolute row sum plus a margin of DIAG_MARGIN times
    the largest such row sum, then scale the whole matrix by
    PRECISION_SCALE. Identity (scaled) for the empty graph, where the
    margin would degenerate to zero."""
    off = arr.copy()
    np.fill_diagonal(off, 0.0)
    row_sums = np.sum(np.abs(off), axis=1)
    margin = DIAG_MARGIN * float(np.max(row_sums))
    if margin == 0.0:
        np.fill_diagonal(off, 1.0)
        return PRECISION_SCALE * off
    np.fill_diagonal(off, row_sums + margin)
    return PRECISION_SCALE * off


def random_model(dim: int, edge_density: float, seed: int) -> GaussianModel:
    """Random sparse PD precision matrix at the requested off-diagonal edge
    density, made PD by diagonal dominance; returns the induced model."""
    if dim < 2:
        raise ValueError("need dim >= 2")
    if not (0.0 < edge_density <= 1.0):
        raise ValueError("edge_density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    candidates = SupportPattern.full(dim).off_diagonal()
    n_edges = int(round(edge_density * len(candidates)))
    chosen = rng.choice(len(candidates), size=n_edges, replace=False)
    arr = np.zeros((dim, dim))
    lo, hi = EDGE_WEIGHT_RANGE
    for idx in sorted(chosen):
        i, j = candidates[idx]
        val = rng.uniform(lo, hi) * (1.0 if rng.uniform() < 0.5 else -1.0)
        arr[i - 1, j - 1] = val
        arr[j - 1, i - 1] = val
    arr = _dominant_diagonal(arr)
    return GaussianModel.from_precision(SymmetricMatrix(dim, _tril_of(arr)))


def perturb_model(base: GaussianModel, spec: ScenarioSpec) -> GaussianModel:
    """New model whose precision support adds ``spec.n_add`` random
    off-diagonal edges outside the base support and removes ``spec.n_remove``
    inside it; PD restored by the diagonal-dominance repair."""
    if spec.dim != base.dim:
        raise ValueError("scenario dim does not match base model")
    support = base.precision_support
    absent = support.complement().off_diagonal()
    present = support.off_diagonal()
    if spec.n_add > len(absent):
        raise ValueError(
            f"cannot add {spec.n_add} edges: only {len(absent)} absent pairs")
    if spec.n_remove > len(present):
        raise ValueError(
            f"cannot remove {spec.n_remove} edges: only {len(present)} present")
    rng = np.random.default_rng(spec.seed)
    # Edit in structural (pre-PRECISION_SCALE) units; the repair restores
    # the diagonal and the scale. The division is bitwise-exact for the
    # binary-power scale, so kept entries survive the round trip.
    struct = base.precision.to_array() / PRECISION_SCALE
    scale = float(np.mean(np.diag(struct)))
    lo, hi = EDGE_WEIGHT_RANGE
    if spec.n_add:
        for idx in sorted(rng.choice(len(absent), size=spec.n_add, replace=False)):
            i, j = absent[idx]
            val = scale * rng.uniform(lo, hi) * (1.0 if rng.uniform() < 0.5 else -1.0)
            struct[i - 1, j - 1] = val
            struct[j - 1, i - 1] = val
    if spec.n_remove:
        for idx in sorted(rng.choice(len(present), size=spec.n_remove, replace=False)):
            i, j = present[idx]
            struct[i - 1, j - 1] = 0.0
            struct[j - 1, i - 1] = 0.0
    repaired = _dominant_diagonal(struct)
    return GaussianModel.from_precision(SymmetricMatrix(base.dim, _tril_of(repaired)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
# A model occupies three files under a prefix: <prefix>_covariance.txt,
# <prefix>_precision.txt, <prefix>_support.txt. Observations are a plain
# numeric CSV, one sample per row. Metadata (a free-form dict) goes to JSON
# with sorted keys so reruns are byte-identical.

def save_model(model: GaussianModel, directory, prefix: str) -> None:
    os.makedirs(directory, exist_ok=True)
    write_matrix(model.covariance, os.path.join(directory, f"{prefix}_covariance.txt"))
    write_matrix(model.precision, os.path.join(directory, f"{prefix}_precision.txt"))
    write_support(model.precision_support,
                  os.path.join(directory, f"{prefix}_support.txt"))


def load_model(directory, prefix: str) -> GaussianModel:
    covariance = read_matrix(os.path.join(directory, f"{prefix}_covariance.txt"))
    precision = read_matrix(os.path.join(directory, f"{prefix}_precision.txt"))
    support = read_support(os.path.join(directory, f"{prefix}_support.txt"))
    _factor_or_raise(covariance, f"{prefix}: stored covariance is not positive definite")
    return GaussianModel(covariance=covariance, precision=precision,
                         precision_support=support, zero_tol=0.0)


def save_observations(obs: ObservationSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in obs.samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_observations(path, seed: int | None = None) -> ObservationSet:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # Empty input is caught here: loadtxt only warns, and silencing that
    # warning edits the process-wide filters that sweep threads share.
    # With comments off, any other text parses to rows or raises.
    if not text.strip():
        raise ValueError(f"{path}: no observations")
    samples = np.loadtxt(text.splitlines(), delimiter=",", ndmin=2, comments=None)
    return ObservationSet(samples=samples, seed=seed)


def save_metadata(meta: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_metadata(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
