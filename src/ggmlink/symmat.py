"""Dense symmetric matrices and symmetric index-pair sets.

Matrices store a single (lower) triangle, so symmetry is exact by
construction and never drifts through arithmetic. A support pattern is a
boolean triangle in the same packed layout; only this module converts
between full arrays and packed triangles. Index pairs are
1-based everywhere in the public interface; a pair (i, j) always means the
unordered pair, read back canonically with i >= j.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import blas, lapack


def _packed_size(dim: int) -> int:
    return dim * (dim + 1) // 2


@functools.lru_cache(maxsize=8)
def _lower_mask(dim: int) -> np.ndarray:
    """Read-only mask whose row-major selection is the packed triangle."""
    mask = np.tri(dim, dtype=bool)
    mask.setflags(write=False)
    return mask


def _tril_of(arr: np.ndarray) -> np.ndarray:
    """Packed lower triangle (row-major) of a square array."""
    return arr[_lower_mask(arr.shape[0])]


def _packed_index(i: int, j: int) -> int:
    """Position of the 1-based pair (i, j), in either order, in a packed triangle."""
    if i < j:
        i, j = j, i
    return (i - 1) * i // 2 + (j - 1)


@functools.lru_cache(maxsize=8)
def _packed_diagonal(dim: int) -> np.ndarray:
    """Read-only packed mask of the diagonal entries."""
    diag = _tril_of(np.eye(dim, dtype=bool))
    diag.setflags(write=False)
    return diag


def _pair_weight(dim: int) -> np.ndarray:
    """How often each packed entry occurs in the full matrix: 2 off the
    diagonal, 1 on it. This is the one place off-diagonals double."""
    return 2.0 - _packed_diagonal(dim)


def _check_dims(a, b) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product <A, B> = sum_ij A_ij B_ij of two packed triangles."""
    dim = int(np.sqrt(2 * a.size))  # the size is dim (dim + 1) / 2
    return float(np.dot(_pair_weight(dim) * a, b))


class SymmetricMatrix:
    """Immutable dense symmetric matrix of order ``dim``.

    Only the lower triangle (including the diagonal) is stored; reads of
    (i, j) and (j, i) hit the same entry. Indices are 1-based.
    """

    __slots__ = ("dim", "_packed")

    def __init__(self, dim: int, packed: np.ndarray):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        packed = np.array(packed, dtype=np.float64)  # a copy
        if packed.shape != (_packed_size(dim),):
            raise ValueError(f"packed triangle has {packed.size} entries, "
                             f"expected {_packed_size(dim)} for dim {dim}")
        packed.setflags(write=False)
        self.dim, self._packed = dim, packed

    # ---- constructors ----

    @classmethod
    def from_array(cls, arr, tol: float = 1e-12) -> "SymmetricMatrix":
        """Wrap a full square array, verifying symmetry within ``tol``."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.size and np.max(np.abs(arr - arr.T)) > tol:
            raise ValueError("matrix is not symmetric within tolerance")
        return cls(arr.shape[0], _tril_of(arr))

    @classmethod
    def zeros(cls, dim: int) -> "SymmetricMatrix":
        return cls(dim, np.zeros(_packed_size(dim)))

    @classmethod
    def identity(cls, dim: int) -> "SymmetricMatrix":
        return cls.from_array(np.eye(dim))

    @classmethod
    def diagonal(cls, values) -> "SymmetricMatrix":
        return cls.from_array(np.diag(np.asarray(values, dtype=np.float64)))

    # ---- access ----

    def to_array(self) -> np.ndarray:
        """Full dense (dim, dim) array; both triangles filled."""
        full = np.zeros((self.dim, self.dim))
        full[_lower_mask(self.dim)] = self._packed
        return full + np.tril(full, -1).T

    def packed(self) -> np.ndarray:
        """Read-only packed lower triangle (row-major)."""
        return self._packed

    def __getitem__(self, key) -> float:
        i, j = key
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise IndexError(f"index ({i}, {j}) out of range for dim {self.dim}")
        return float(self._packed[_packed_index(i, j)])

    # ---- arithmetic (symmetry is closed under these) ----

    def __add__(self, other: "SymmetricMatrix") -> "SymmetricMatrix":
        _check_dims(self, other)
        return SymmetricMatrix(self.dim, self._packed + other._packed)

    def __sub__(self, other: "SymmetricMatrix") -> "SymmetricMatrix":
        _check_dims(self, other)
        return SymmetricMatrix(self.dim, self._packed - other._packed)

    def __mul__(self, scalar: float) -> "SymmetricMatrix":
        return SymmetricMatrix(self.dim, self._packed * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SymmetricMatrix":
        return SymmetricMatrix(self.dim, -self._packed)

    def __repr__(self) -> str:
        return f"SymmetricMatrix(dim={self.dim})"


class SupportPattern:
    """Symmetric set of 1-based index pairs over {1..dim} x {1..dim}.

    Stored as one read-only packed boolean triangle in the layout of
    SymmetricMatrix: (i, j) is a member iff its packed entry is set. The
    row-major packed order is the sorted order of the pairs (i >= j).
    """

    __slots__ = ("dim", "_packed")

    def __init__(self, dim: int, pairs):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        packed = np.zeros(_packed_size(dim), dtype=bool)
        for i, j in pairs:
            i, j = int(i), int(j)
            if i < j:
                i, j = j, i
            if not (1 <= j <= i <= dim):
                raise ValueError(f"pair ({i}, {j}) out of range for dim {dim}")
            packed[_packed_index(i, j)] = True
        packed.setflags(write=False)
        self.dim, self._packed = dim, packed

    # ---- constructors ----

    @classmethod
    def _of_packed(cls, dim: int, packed: np.ndarray) -> "SupportPattern":
        """Pattern that takes over a new packed boolean triangle, unchecked."""
        packed.setflags(write=False)
        out = cls.__new__(cls)
        out.dim, out._packed = dim, packed
        return out

    @classmethod
    def from_mask(cls, mask) -> "SupportPattern":
        """Pattern of a symmetric boolean (dim, dim) membership mask, 0-based."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.size == 0 or not np.array_equal(mask, mask.T):
            raise ValueError(f"expected a symmetric square mask, got shape {mask.shape}")
        return cls._of_packed(mask.shape[0], _tril_of(mask))

    @classmethod
    def empty(cls, dim: int) -> "SupportPattern":
        return cls(dim, ())

    @classmethod
    def diagonal(cls, dim: int) -> "SupportPattern":
        return cls._of_packed(dim, _packed_diagonal(dim).copy())

    @classmethod
    def full(cls, dim: int) -> "SupportPattern":
        return cls._of_packed(dim, np.ones(_packed_size(dim), dtype=bool))

    # ---- queries ----

    def __contains__(self, pair) -> bool:
        i, j = pair
        # Out-of-range pairs are absent; a negative index must not wrap.
        return (1 <= min(i, j) and max(i, j) <= self.dim
                and bool(self._packed[_packed_index(i, j)]))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._packed))

    def __iter__(self):
        return iter(self.pairs())

    def pairs(self) -> list:
        """Canonical (i >= j) pairs in sorted order."""
        return self._pairs_of(self._packed)

    def off_diagonal(self) -> list:
        """Canonical pairs with i > j, sorted."""
        return self._pairs_of(self._packed & ~_packed_diagonal(self.dim))

    def _pairs_of(self, packed: np.ndarray) -> list:
        # Packed order is the sorted order; pairs share one list's ints.
        rows, cols = np.nonzero(_lower_mask(self.dim))
        flat = np.flatnonzero(packed)
        index = list(range(1, self.dim + 1)).__getitem__
        return list(zip(map(index, rows[flat]), map(index, cols[flat])))

    def union(self, other: "SupportPattern") -> "SupportPattern":
        _check_dims(self, other)
        return SupportPattern._of_packed(self.dim, self._packed | other._packed)

    def minus(self, other: "SupportPattern") -> "SupportPattern":
        _check_dims(self, other)
        return SupportPattern._of_packed(self.dim, self._packed & ~other._packed)

    def complement(self) -> "SupportPattern":
        """All pairs of the full pattern not in this one."""
        return SupportPattern._of_packed(self.dim, ~self._packed)

    def issubset(self, other: "SupportPattern") -> bool:
        _check_dims(self, other)
        return not np.any(self._packed & ~other._packed)

    def packed(self) -> np.ndarray:
        """Read-only packed boolean triangle (row-major)."""
        return self._packed

    def mask(self) -> np.ndarray:
        """Symmetric boolean (dim, dim) membership mask, 0-based (a new array)."""
        full = np.zeros((self.dim, self.dim), dtype=bool)
        full[_lower_mask(self.dim)] = self._packed
        return full | full.T

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupportPattern):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self._packed, other._packed)

    def __hash__(self) -> int:
        return hash((self.dim, self._packed.tobytes()))

    def __repr__(self) -> str:
        return f"SupportPattern(dim={self.dim}, npairs={len(self)})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def cholesky(a: SymmetricMatrix):
    """Lower-triangular L with L L^T = a, or None if a is not positive definite.

    The None return is the positive-definiteness oracle used throughout:
    no eigendecomposition, and non-PD input is a signal, not a crash.
    """
    return _chol_or_none(a.dim, a.packed())


def _chol_or_none(dim: int, packed: np.ndarray, base=None, mask=None):
    # potrf can report success on NaN or inf, which are never PD.
    if not np.isfinite(packed).all():
        return None
    # potrf reads only the lower triangle, so the upper half stays zero; it
    # factors a Fortran-ordered buffer in place, without a copy.
    full = np.zeros((dim, dim), order="F") if base is None else base.copy(order="F")
    full[_lower_mask(dim) if mask is None else mask] = packed
    factor, info = lapack.dpotrf(full, lower=1, clean=1, overwrite_a=1)
    return factor if info == 0 else None


def _free_layout(base: np.ndarray, free: np.ndarray):
    """(base, mask) of _chol_or_none and _packed_inverse for triangles equal to
    ``base`` off the packed mask ``free``: a full boolean mask keeps packed order."""
    dim = int(np.sqrt(2 * free.size))  # the size is dim (dim + 1) / 2
    full, mask = np.zeros((dim, dim), order="F"), np.zeros((dim, dim), dtype=bool)
    full[_lower_mask(dim)], mask[_lower_mask(dim)] = base, free
    return full, mask


def _factor_or_raise(a: SymmetricMatrix, message: str) -> np.ndarray:
    """Cholesky factor of ``a``; ValueError(message) if a is not PD."""
    factor = cholesky(a)
    if factor is None:
        raise ValueError(message)
    return factor


_INVERSE_LEAF = 128  # leaves of 50 to 128 time the same at order 400


def _invert_lower(block: np.ndarray) -> None:
    """Invert the lower triangle of ``block`` in place by halves, [[A, 0],
    [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: trmm runs at gemm rates,
    trtri does not (Elmroth, Gustavson, Jonsson & Kagstrom, SIAM Rev. 2004)."""
    if len(block) <= _INVERSE_LEAF:
        inv, info = lapack.dtrtri(block, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"trtri failed with info {info}")
        block[...] = inv  # a strided view is inverted in a copy
        return
    k = len(block) // 2
    _invert_lower(block[:k, :k])
    _invert_lower(block[k:, k:])
    b = blas.dtrmm(1.0, block[:k, :k], block[k:, :k], side=1, lower=1)
    block[k:, :k] = blas.dtrmm(-1.0, block[k:, k:], b, lower=1, overwrite_b=1)


def _packed_inverse(factor: np.ndarray, mask=None) -> np.ndarray:
    """Packed inverse of L L^T from its lower Cholesky factor L, or its free
    entries given the ``mask`` of _free_layout."""
    inv = np.array(factor, order="F")
    _invert_lower(inv)
    # As in potri, lauum forms L^-T L^-1; it fails only on invalid arguments.
    inv, _ = lapack.dlauum(inv, lower=1, overwrite_c=1)
    return inv[_lower_mask(len(inv)) if mask is None else mask]


def _log_det_of_factor(factor: np.ndarray) -> float:
    """log det(L L^T) from the lower Cholesky factor L."""
    return 2.0 * float(np.log(factor.diagonal()).sum())


def log_det(a: SymmetricMatrix) -> float:
    """log det of a positive definite matrix, via its Cholesky factor."""
    return _log_det_of_factor(
        _factor_or_raise(a, "log_det requires a positive definite matrix"))


def inverse(a: SymmetricMatrix) -> SymmetricMatrix:
    """Inverse of a positive definite matrix; the result is symmetric PD."""
    factor = _factor_or_raise(a, "inverse requires a positive definite matrix")
    return SymmetricMatrix(a.dim, _packed_inverse(factor))


def frobenius_norm(a: SymmetricMatrix) -> float:
    """Frobenius norm of the full matrix (off-diagonals counted twice)."""
    return float(np.sqrt(_trace_inner(a.packed(), a.packed())))


def support_of(a: SymmetricMatrix, zero_tol: float) -> SupportPattern:
    """Pairs where |a[i, j]| exceeds ``zero_tol`` (strictly)."""
    if zero_tol < 0:
        raise ValueError("zero_tol must be >= 0")
    return SupportPattern._of_packed(a.dim, np.abs(a.packed()) > zero_tol)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------
# Matrix file: first line m, then m rows of m whitespace-separated decimals.
# Support file: first line m, then one "i j" pair per line.
# Lines starting with '#' are comments and skipped on read.

def _data_lines(path, kind: str) -> tuple:
    """The dimension on the first data line, and the data lines after it."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty {kind} file")
    return int(lines[0]), lines[1:]


def _support_json(omega: SupportPattern) -> dict:
    """The JSON form of a support: its dim and its sorted pairs."""
    return {"dim": omega.dim, "pairs": [list(p) for p in omega.pairs()]}


def _write_lines(path, header: str | None, dim: int, lines: list) -> None:
    head = [f"# {header}"] if header else []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head + [str(dim)] + lines) + "\n")


def write_matrix(a: SymmetricMatrix, path, header: str | None = None) -> None:
    _write_lines(path, header, a.dim,
                 [" ".join(repr(float(v)) for v in row) for row in a.to_array()])


def read_matrix(path) -> SymmetricMatrix:
    dim, lines = _data_lines(path, "matrix")
    if len(lines) != dim:
        raise ValueError(f"{path}: expected {dim} rows, found {len(lines)}")
    arr = np.array([[float(tok) for tok in ln.split()] for ln in lines], dtype=np.float64)
    if arr.shape != (dim, dim):
        raise ValueError(f"{path}: malformed rows for dim {dim}")
    return SymmetricMatrix.from_array(arr)


def write_support(omega: SupportPattern, path, header: str | None = None) -> None:
    _write_lines(path, header, omega.dim, [f"{i} {j}" for i, j in omega.pairs()])


def read_support(path) -> SupportPattern:
    dim, lines = _data_lines(path, "support")
    pairs = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: bad support line {ln!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return SupportPattern(dim, pairs)
