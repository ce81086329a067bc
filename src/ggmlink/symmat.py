"""Dense symmetric matrices and symmetric index-pair sets.

Matrices store a single (lower) triangle, so symmetry is exact by
construction and never drifts through arithmetic. A support pattern is a
boolean triangle in the same packed layout; only this module converts
between full arrays and packed triangles. Index pairs are
1-based everywhere in the public interface; a pair (i, j) always means the
unordered pair, read back canonically with i >= j. Every module checks its
numbers with this module's two rules, _positive and _integer.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import os

import numpy as np
from scipy.linalg import cython_blas, lapack


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


@functools.lru_cache(maxsize=8)
def _packed_rows_cols(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 0-based rows and columns of the packed entries, in packed
    order."""
    rows, cols = np.nonzero(_lower_mask(dim))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=8)
def _full_positions(dim: int) -> np.ndarray:
    """Read-only (dim, dim) table of the packed position of each entry of
    the full matrix, both triangles filled."""
    at = np.zeros((dim, dim), dtype=np.intp)
    at[_lower_mask(dim)] = np.arange(_packed_size(dim))
    at = at + np.tril(at, -1).T
    at.setflags(write=False)
    return at


@functools.lru_cache(maxsize=8)
def _packed_offsets(dim: int) -> np.ndarray:
    """Read-only offsets of the packed entries in a Fortran-ordered full
    array of order dim, in packed order."""
    rows, cols = _packed_rows_cols(dim)
    at = rows + dim * cols
    at.setflags(write=False)
    return at


def _positive(value, name: str) -> None:
    """Reject ``value`` unless it is a real number, not a bool, that is
    positive and finite as a float: NaN, inf and integers past the float
    range fail."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number: {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past the float range
        finite = False
    if not (finite and value > 0):
        raise ValueError(f"{name} must be finite and positive: {value!r}")


def _integer(value, name: str, low: int, high: int | None = None) -> None:
    """Reject ``value`` unless it is an integer, not a bool, in [low, high]
    (no upper bound when high is None)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}: {value!r}")


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
    (i, j) and (j, i) hit the same entry. Indices are 1-based. A matrix
    may carry its known inverse, which only code that computed both sets
    (_of_packed); arithmetic and files never pass it on.
    """

    __slots__ = ("dim", "_packed", "_inverse")

    def __init__(self, dim: int, packed: np.ndarray):
        _integer(dim, "dim", 1)
        packed = np.array(packed, dtype=np.float64)  # a copy
        if packed.shape != (_packed_size(dim),):
            raise ValueError(f"packed triangle has {packed.size} entries, "
                             f"expected {_packed_size(dim)} for dim {dim}")
        packed.setflags(write=False)
        self.dim, self._packed, self._inverse = dim, packed, None

    # ---- constructors ----

    @classmethod
    def _of_packed(cls, dim: int, packed: np.ndarray,
                   inverse: "SymmetricMatrix | None" = None) -> "SymmetricMatrix":
        """Matrix that takes over a new packed float64 triangle, unchecked,
        with its known inverse when the caller computed both."""
        packed.setflags(write=False)
        out = cls.__new__(cls)
        out.dim, out._packed, out._inverse = dim, packed, inverse
        return out

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
        """Full dense (dim, dim) array; both triangles filled. Adding 0.0
        reads -0.0 as 0.0."""
        return self._packed[_full_positions(self.dim)] + 0.0

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
        _integer(dim, "dim", 1)
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
        rows, cols = _packed_rows_cols(self.dim)
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
        return self._packed[_full_positions(self.dim)]

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


def _chol_or_none(dim: int, packed: np.ndarray, base=None, at=None):
    """Lower Cholesky factor of the matrix that is ``base`` (a full array, or
    zero when None) with the values ``packed`` at the offsets ``at`` of a
    Fortran-ordered full array (the packed triangle by default); None if it
    is not positive definite."""
    # potrf can report success on NaN or inf, which are never PD.
    if not np.isfinite(packed).all():
        return None
    # potrf reads and writes only the lower triangle, so the upper half
    # stays zero with no clean pass; it factors a Fortran-ordered buffer in
    # place, without a copy.
    full = np.zeros((dim, dim), order="F") if base is None else base.copy(order="F")
    full.ravel(order="F")[_packed_offsets(dim) if at is None else at] = packed
    factor, info = lapack.dpotrf(full, lower=1, clean=0, overwrite_a=1)
    return factor if info == 0 else None


def _free_layout(base: np.ndarray, index):
    """(base, at, rows, cols) for triangles equal to ``base`` off the free
    entries at the packed positions ``index`` (a basic slice when every
    entry is free): the base of _chol_or_none, zero on the free entries so
    that values scattered on a part of them leave the rest zero, and None
    where it is zero everywhere; the offsets of the free entries in a
    Fortran-ordered full array, for _chol_or_none and _gather; and their
    0-based rows and columns, all in packed order."""
    dim = int(np.sqrt(2 * base.size))  # the size is dim (dim + 1) / 2
    full = None
    if np.delete(base, index).any():
        fixed = base.copy()
        fixed[index] = 0.0
        full = _lower_full(fixed)
    rows, cols = _packed_rows_cols(dim)
    return full, _packed_offsets(dim)[index], rows[index], cols[index]


def _gather(full: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The entries at the offsets ``at`` of a Fortran-ordered full array,
    the gather that matches _chol_or_none's scatter."""
    return full.ravel(order="F")[at]  # ravel is a view of a Fortran-ordered array


def _lower_full(packed: np.ndarray) -> np.ndarray:
    """A packed triangle as the lower triangle of a Fortran-ordered full
    array, the layout of _lower_inverse's result."""
    dim = int(np.sqrt(2 * packed.size))  # the size is dim (dim + 1) / 2
    full = np.zeros((dim, dim), order="F")
    full[_lower_mask(dim)] = packed
    return full


def _factor_or_raise(a: SymmetricMatrix, message: str) -> np.ndarray:
    """Cholesky factor of ``a``; ValueError(message) if a is not PD."""
    factor = cholesky(a)
    if factor is None:
        raise ValueError(message)
    return factor


# Leaves of 64 invert an order-400 factor in 0.88 ms, 128 in 0.99 ms (best
# runs, one OpenBLAS thread on a shared 2-vCPU x86-64 host); 64 is also
# ahead at orders 128 to 800.
_INVERSE_LEAF = 64


def _blas_routine(name: str, nargs: int):
    """The BLAS routine ``name`` that scipy's own wrappers call, as a C
    function of ``nargs`` pointers, which scipy.linalg.cython_blas exports.
    Unlike the f2py wrapper it takes leading dimensions, so it works in
    place on a block of a larger array."""
    capsule = cython_blas.__pyx_capi__[name]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(
        pointer_of(capsule, name_of(capsule)))


_dtrmm = _blas_routine("dtrmm", 11)
_LOWER, _RIGHT, _NONE = (ctypes.byref(ctypes.c_char(c)) for c in (b"L", b"R", b"N"))
_ONE, _MINUS_ONE = (ctypes.byref(ctypes.c_double(v)) for v in (1.0, -1.0))


def _invert_lower(full: np.ndarray, start: int = 0, order: int | None = None) -> None:
    """Invert in place the lower triangle of the diagonal block of this order
    (all of ``full`` by default) at (start, start) of ``full``, by halves,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: trmm runs at gemm
    rates, trtri does not (Elmroth, Gustavson, Jonsson & Kagstrom, SIAM Rev.
    2004). Both trmm work on their blocks where they lie in ``full``, by
    leading dimension, so no large block is copied."""
    if order is None:
        order = len(full)
    if order <= _INVERSE_LEAF:
        block = full[start:start + order, start:start + order]
        inv, info = lapack.dtrtri(block, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"trtri failed with info {info}")
        block[...] = inv  # a strided view is inverted in a copy
        return
    k = order // 2
    _invert_lower(full, start, k)
    _invert_lower(full, start + k, order - k)
    dim = len(full)
    if not (full.shape == (dim, dim) and full.flags.f_contiguous
            and full.dtype == np.float64):
        raise ValueError("expected a square Fortran-ordered float64 array")
    base, lead = full.ctypes.data, ctypes.byref(ctypes.c_int(dim))

    def at(i, j):
        # The address of full[i, j].
        return ctypes.c_void_p(base + 8 * (i + dim * j))

    rows, cols = ctypes.byref(ctypes.c_int(order - k)), ctypes.byref(ctypes.c_int(k))
    # B := B A^-1, then B := -C^-1 B.
    _dtrmm(_RIGHT, _LOWER, _NONE, _NONE, rows, cols, _ONE, at(start, start), lead,
           at(start + k, start), lead)
    _dtrmm(_LOWER, _LOWER, _NONE, _NONE, rows, cols, _MINUS_ONE, at(start + k, start + k),
           lead, at(start + k, start), lead)


def _lower_inverse(factor: np.ndarray) -> np.ndarray:
    """The lower triangle of (L L^T)^-1, in a full array, from the lower
    Cholesky factor L, which it overwrites: the result is that buffer when
    L is a Fortran-ordered full array, as _chol_or_none returns it."""
    _invert_lower(factor)
    # As in potri, lauum forms L^-T L^-1; it fails only on invalid arguments.
    return lapack.dlauum(factor, lower=1, overwrite_c=1)[0]


def _packed_inverse(factor: np.ndarray) -> np.ndarray:
    """Packed inverse of L L^T from its lower Cholesky factor L, which it
    overwrites."""
    return _tril_of(_lower_inverse(factor))


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
    """Pairs where |a[i, j]| exceeds ``zero_tol`` (strictly), 0 or a positive real."""
    if zero_tol != 0:
        _positive(zero_tol, "zero_tol")
    return SupportPattern._of_packed(a.dim, np.abs(a.packed()) > zero_tol)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------
# Matrix file: first line m, then m rows of m whitespace-separated decimals.
# Support file: first line m, then one "i j" pair per line.
# Lines starting with '#' are comments and skipped on read. Data lines are
# ASCII without '_': int() and float() would also read '2_5' as 25 and any
# Unicode decimal digit as its value.

def _not_plain(text: str) -> bool:
    return not text.isascii() or "_" in text


@contextlib.contextmanager
def _data_lines(path, kind: str):
    """The dimension on the first data line and the data lines after it; a
    ValueError raised in the block, or in decoding the file, names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
        if not lines:
            raise ValueError(f"empty {kind} file")
        bad = next((tok for ln in lines if _not_plain(ln)
                    for tok in ln.split(" ") if _not_plain(tok)), None)
        if bad is not None:
            raise ValueError(f"not an ASCII number: {bad!r}")
        yield int(lines[0]), lines[1:]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _support_json(omega: SupportPattern) -> dict:
    """The JSON form of a support: its dim and its sorted pairs."""
    return {"dim": omega.dim, "pairs": [list(p) for p in omega.pairs()]}


# The flags of open(path, "w"); O_BINARY, on Windows only, turns off newline
# translation.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, created or truncated with the
    mode and errors of open(path, "w"): one encode and, unless the system
    writes part of it, one os.write."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _write_lines(path, header: str | None, dim: int, lines: list) -> None:
    head = [f"# {header}"] if header else []
    _write_text(path, "\n".join(head + [str(dim)] + lines) + "\n")


def write_matrix(a: SymmetricMatrix, path, header: str | None = None) -> None:
    # Each stored entry is formatted once, and the rows are put together
    # from the texts. Adding 0.0 writes -0.0 as 0.0, as in the full array.
    texts = np.array(list(map(float.__repr__, (a.packed() + 0.0).tolist())), dtype=object)
    _write_lines(path, header, a.dim,
                 [" ".join(row) for row in texts[_full_positions(a.dim)].tolist()])


def read_matrix(path) -> SymmetricMatrix:
    with _data_lines(path, "matrix") as (dim, lines):
        if len(lines) != dim:
            raise ValueError(f"expected {dim} rows, found {len(lines)}")
        arr = np.array([[float(tok) for tok in ln.split()] for ln in lines], dtype=np.float64)
        if arr.shape != (dim, dim):
            raise ValueError(f"malformed rows for dim {dim}")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite entry")
        return SymmetricMatrix.from_array(arr)


def write_support(omega: SupportPattern, path, header: str | None = None) -> None:
    _write_lines(path, header, omega.dim, [f"{i} {j}" for i, j in omega.pairs()])


def read_support(path) -> SupportPattern:
    with _data_lines(path, "support") as (dim, lines):
        pairs = []
        for ln in lines:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"bad support line {ln!r}")
            pairs.append((int(parts[0]), int(parts[1])))
        return SupportPattern(dim, pairs)
