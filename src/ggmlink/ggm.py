"""Gaussian graphical model domain logic.

Zero-mean Gaussian models whose conditional-independence graph is the
support of the precision matrix: KL divergence, sampling, synthetic
before/after scenarios for link-change experiments, and their files.

A model is its precision. The covariance and the support are derived from
it, so structural zeros of the precision are exact (bitwise), which the
solvers rely on.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .symmat import (
    SupportPattern,
    SymmetricMatrix,
    _check_dims,
    _factor_or_raise,
    _integer,
    _log_det_of_factor,
    _packed_inverse,
    _positive,
    _trace_inner,
    _tril_of,
    _write_text,
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

# The largest scenario dim. Generating, fitting and scoring a scenario hold a
# few dense dim x dim arrays (32 MiB each at 2048) and factor them in
# O(dim^3) time, so a larger dim is rejected before anything of its size is
# allocated.
MAX_DIM = 2048

# The most sample entries N * dim. Generating a scenario holds the standard
# normal draw and its colored product, 128 MiB each at 2**24 entries, and
# writes the product a block of rows at a time; loading holds the parsed
# table once. At dim 256 and N 65,536, generate_scenario peaks near 365 MB
# RSS and load_observations near 200 MB. A larger N is rejected before
# anything of its size is allocated.
MAX_SAMPLE_ENTRIES = 2**24

# save_observations turns this many sample entries at a time into Python
# floats (about 32 bytes each), so writing holds no whole-table text.
_WRITE_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class GaussianModel:
    """Zero-mean Gaussian given by its PD precision matrix.

    The covariance (the inverse), the log determinant of the precision and
    the precision support (the exact nonzeros, the conditional-independence
    graph) are derived here from one Cholesky factor, so no model pairs a
    precision with a covariance or a support that disagrees with it.
    """

    precision: SymmetricMatrix
    covariance: SymmetricMatrix = field(init=False)
    precision_log_det: float = field(init=False)
    precision_support: SupportPattern = field(init=False)

    def __post_init__(self):
        factor = _factor_or_raise(self.precision,
                                  "precision matrix is not positive definite")
        # The log det goes first: the inverse overwrites the factor.
        object.__setattr__(self, "precision_log_det", _log_det_of_factor(factor))
        object.__setattr__(self, "covariance", SymmetricMatrix(
            self.precision.dim, _packed_inverse(factor)))
        object.__setattr__(self, "precision_support",
                           support_of(self.precision, 0.0))

    @property
    def dim(self) -> int:
        return self.precision.dim


@dataclass(frozen=True)
class ObservationSet:
    """N i.i.d. zero-mean samples of dimension m, one per row.

    The second moment is formed on the first sample_covariance call and
    shared by the later ones, so the fits of one set form it once. The
    constructor copies ``samples``; draw_samples and load_observations hand
    over the arrays they make (_of_samples), so a table is held once.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64, order="C")  # a copy
        object.__setattr__(self, "samples", _checked_samples(samples))

    @classmethod
    def _of_samples(cls, samples: np.ndarray) -> "ObservationSet":
        """Set that takes over a new float64 array, checked but not copied."""
        out = cls.__new__(cls)
        object.__setattr__(out, "samples", _checked_samples(samples))
        return out

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @functools.cached_property
    def _second_moment(self) -> SymmetricMatrix:
        # Threads that share the set may each form it (from Python 3.12 on,
        # cached_property takes no lock); the results are bitwise equal.
        x = self.samples
        return SymmetricMatrix(self.dim, _tril_of(x.T @ x / x.shape[0]))


def _checked_samples(samples: np.ndarray) -> np.ndarray:
    """``samples``, made read-only, once it is a finite (N, m) array with N, m >= 1."""
    if samples.ndim != 2 or 0 in samples.shape:
        raise ValueError("samples must be a nonempty (N, m) array")
    if not np.isfinite(samples).all():
        raise ValueError("non-finite observations: samples hold NaN or inf")
    samples.setflags(write=False)
    return samples


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
        _integer(self.dim, "scenario dim", 2, MAX_DIM)
        _positive(self.edge_density, "edge_density")
        if self.edge_density > 1:
            raise ValueError(f"edge_density must be in (0, 1]: {self.edge_density!r}")
        _integer(self.n_add, "n_add", 0)
        _integer(self.n_remove, "n_remove", 0)
        _integer(self.seed, "scenario seed", 0)


def _check_sample_count(n, dim: int) -> None:
    """Reject a sample count N that is not an integer in [1, MAX_SAMPLE_ENTRIES // dim]."""
    _integer(n, "N", 1, MAX_SAMPLE_ENTRIES // dim)


# ---------------------------------------------------------------------------
# Moments, divergence and error
# ---------------------------------------------------------------------------

def sample_covariance(obs: ObservationSet) -> SymmetricMatrix:
    """Second-moment matrix (1/N) sum_k x_k x_k^T (zero-mean convention),
    formed once per observation set; the matrix is immutable, so every call
    on ``obs`` returns the same one."""
    return obs._second_moment


def kl_divergence(cov_t: SymmetricMatrix, cov_s: SymmetricMatrix) -> float:
    """KL divergence between N(0, cov_t) and N(0, cov_s):

        (1/2) [ -log det(S^-1 T) + tr(S^-1 T) - m ]

    with T = cov_t the first argument. Log-determinants are taken per
    factor (log det(S^-1 T) = log det T - log det S) rather than by forming
    S^-1 T.
    """
    _check_dims(cov_t, cov_s)
    m = cov_t.dim
    message = "kl_divergence requires positive definite inputs"
    s_chol = _factor_or_raise(cov_s, message)
    logdet_s = _log_det_of_factor(s_chol)
    logdet_t = _log_det_of_factor(_factor_or_raise(cov_t, message))
    trace_term = _trace_inner(_packed_inverse(s_chol), cov_t.packed())
    return 0.5 * (-(logdet_t - logdet_s) + trace_term - m)


def relative_error(cov_true: SymmetricMatrix,
                   cov_est: SymmetricMatrix) -> float:
    """||T - T_est||_F / ||T||_F."""
    _check_dims(cov_true, cov_est)
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
    _check_sample_count(n, cov.dim)
    factor = _factor_or_raise(cov, "draw_samples requires a positive definite covariance")
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n, cov.dim)) @ factor.T
    return ObservationSet._of_samples(samples)


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
    np.fill_diagonal(off, row_sums + margin if margin else 1.0)
    return PRECISION_SCALE * off


def _draw(rng, pool: SupportPattern, n: int) -> np.ndarray:
    """n packed positions of ``pool`` drawn without replacement, in packed (sorted
    pair) order. Drawing none consumes no random state."""
    index = np.flatnonzero(pool.packed())
    return index[np.sort(rng.choice(index.size, size=n, replace=False))]


def random_model(dim: int, edge_density: float, seed: int) -> GaussianModel:
    """Random sparse PD precision matrix at the requested off-diagonal edge density:
    the empty graph's precision PRECISION_SCALE * I (its structural diagonal is
    exactly 1, so edge weights are unscaled draws) with that share of the pairs
    added as edges."""
    spec = ScenarioSpec(dim=dim, edge_density=edge_density, n_add=0, n_remove=0, seed=seed)
    n_edges = int(round(edge_density * (dim * (dim - 1) // 2)))
    diagonal = SupportPattern.diagonal(dim)
    return _perturbed(diagonal.packed().astype(np.float64), diagonal,
                      replace(spec, n_add=n_edges))


def perturb_model(base: GaussianModel, spec: ScenarioSpec) -> GaussianModel:
    """New model whose precision support adds ``spec.n_add`` random
    off-diagonal edges outside the base support and removes ``spec.n_remove``
    inside it; PD restored by the diagonal-dominance repair."""
    if spec.dim != base.dim:
        raise ValueError("scenario dim does not match base model")
    # Edit in structural (pre-PRECISION_SCALE) units; the repair restores
    # the diagonal and the scale. The division is bitwise-exact for the
    # binary-power scale, so kept entries survive the round trip.
    return _perturbed(base.precision.packed() / PRECISION_SCALE,
                      base.precision_support, spec)


def _perturbed(struct: np.ndarray, support: SupportPattern,
               spec: ScenarioSpec) -> GaussianModel:
    """perturb_model on a base given by its structural packed precision, which
    this edits in place, and its support."""
    diagonal = SupportPattern.diagonal(spec.dim)
    absent = support.complement().minus(diagonal)
    present = support.minus(diagonal)
    if spec.n_add > len(absent):
        raise ValueError(
            f"cannot add {spec.n_add} edges: only {len(absent)} absent pairs")
    if spec.n_remove > len(present):
        raise ValueError(
            f"cannot remove {spec.n_remove} edges: only {len(present)} present")
    rng = np.random.default_rng(spec.seed)
    scale = float(np.mean(struct[diagonal.packed()]))
    added = _draw(rng, absent, spec.n_add)
    lo, hi = EDGE_WEIGHT_RANGE
    u = rng.random((spec.n_add, 2))  # per edge, the magnitude draw, then the sign draw
    struct[added] = scale * (lo + (hi - lo) * u[:, 0]) * np.where(u[:, 1] < 0.5, 1, -1)
    struct[_draw(rng, present, spec.n_remove)] = 0.0
    full = SymmetricMatrix._of_packed(spec.dim, struct).to_array()
    # The repair keeps the array exactly symmetric, so it needs no check.
    return GaussianModel(SymmetricMatrix._of_packed(
        spec.dim, _tril_of(_dominant_diagonal(full))))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
# A model occupies three files under a prefix: <prefix>_precision.txt, which
# defines it, and <prefix>_covariance.txt and <prefix>_support.txt, which
# are derived from it. The covariance file is written but not read; the
# support file is checked against the precision on load. Observations are a
# plain numeric CSV, one sample per row. Metadata (a free-form dict) goes to
# compact JSON with sorted keys so reruns are byte-identical. Every file is
# written with \n line ends.

def save_model(model: GaussianModel, directory, prefix: str) -> None:
    os.makedirs(directory, exist_ok=True)
    write_matrix(model.covariance, os.path.join(directory, f"{prefix}_covariance.txt"))
    write_matrix(model.precision, os.path.join(directory, f"{prefix}_precision.txt"))
    write_support(model.precision_support,
                  os.path.join(directory, f"{prefix}_support.txt"))


def load_model(directory, prefix: str) -> GaussianModel:
    """The model of ``<prefix>_precision.txt``. Raises ValueError if the
    precision is not PD or ``<prefix>_support.txt`` is not its support."""
    precision_path = os.path.join(directory, f"{prefix}_precision.txt")
    precision = read_matrix(precision_path)
    try:
        model = GaussianModel(precision)
    except ValueError:
        raise ValueError(f"{precision_path}: {prefix} precision is not positive"
                         " definite") from None
    support_path = os.path.join(directory, f"{prefix}_support.txt")
    if read_support(support_path) != model.precision_support:
        raise ValueError(f"{support_path}: support differs from the nonzeros"
                         f" of {prefix}_precision.txt")
    return model


def load_support(directory, prefix: str) -> SupportPattern:
    """The support in ``<prefix>_support.txt``, held to load_model's checks
    when ``<prefix>_precision.txt`` exists."""
    if os.path.exists(os.path.join(directory, f"{prefix}_precision.txt")):
        return load_model(directory, prefix).precision_support
    return read_support(os.path.join(directory, f"{prefix}_support.txt"))


def save_observations(obs: ObservationSet, path) -> None:
    """One row of element reprs per sample, a block of rows at a time."""
    samples = obs.samples
    rows = max(1, _WRITE_BLOCK_ENTRIES // obs.dim)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, obs.count, rows):
            fh.writelines(",".join(map(repr, row)) + "\n"
                          for row in samples[start:start + rows].tolist())


def load_observations(path) -> ObservationSet:
    """The samples in the CSV at ``path``; a ValueError names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                # Empty input is caught here: loadtxt only warns, and silencing
                # that warning edits the process-wide filters that sweep threads
                # share. With comments off, any other text parses to rows or raises.
                while (head := fh.read(1)).isspace():
                    pass
                if not head:
                    raise ValueError("no observations")
                fh.seek(0)
                return ObservationSet._of_samples(np.loadtxt(
                    fh, delimiter=",", ndmin=2, comments=None))
            except UnicodeDecodeError:
                # A streamed decode counts a bad byte from the start of its
                # chunk; decoding the whole file counts it from the file's.
                fh.seek(0)
                fh.read()
                raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_metadata(meta: dict, path) -> None:
    _write_text(path, json.dumps(meta, sort_keys=True) + "\n")


def load_metadata(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
