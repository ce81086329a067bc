"""Symmetric-matrix kernel and support-pattern algebra."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ggmlink import (
    SupportPattern,
    SymmetricMatrix,
    cholesky,
    frobenius_norm,
    inverse,
    log_det,
    project_support,
    read_matrix,
    read_support,
    support_of,
    write_matrix,
    write_support,
)
from ggmlink.symmat import _chol_or_none, _packed_inverse, _trace_inner
from conftest import random_pd, random_symmetric


def det_cofactor(a):
    """Brute-force determinant by cofactor expansion (test oracle)."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * det_cofactor(minor)
    return total


class TestSymmetricMatrix:
    def test_symmetric_reads(self):
        a = SymmetricMatrix.from_array([[1.0, 2.0], [2.0, 3.0]])
        assert a[1, 2] == a[2, 1] == 2.0
        assert a[1, 1] == 1.0 and a[2, 2] == 3.0

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            SymmetricMatrix.from_array([[1.0, 2.0], [2.1, 3.0]])

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(0, np.array([]))
        a = SymmetricMatrix.identity(2)
        with pytest.raises(IndexError):
            a[0, 1]
        with pytest.raises(IndexError):
            a[1, 3]

    def test_to_array_round_trip(self, rng):
        a = random_symmetric(5, rng)
        b = SymmetricMatrix.from_array(a.to_array(), tol=0.0)
        np.testing.assert_array_equal(a.to_array(), b.to_array())

    def test_arithmetic(self, rng):
        a = random_symmetric(4, rng)
        b = random_symmetric(4, rng)
        np.testing.assert_allclose((a + b).to_array(), a.to_array() + b.to_array())
        np.testing.assert_allclose((a - b).to_array(), a.to_array() - b.to_array())
        np.testing.assert_allclose((2.5 * a).to_array(), 2.5 * a.to_array())
        with pytest.raises(ValueError):
            a + random_symmetric(5, rng)


class TestSupportPattern:
    def test_canonicalization_and_symmetry(self):
        s = SupportPattern(4, [(1, 3), (2, 2)])
        assert (3, 1) in s and (1, 3) in s
        assert (2, 2) in s
        assert (1, 2) not in s
        assert s.pairs() == [(2, 2), (3, 1)]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            SupportPattern(3, [(4, 1)])
        with pytest.raises(ValueError):
            SupportPattern(3, [(0, 1)])

    def test_algebra(self):
        full = SupportPattern.full(3)
        diag = SupportPattern.diagonal(3)
        assert len(full) == 6
        assert len(diag) == 3
        off = full.minus(diag)
        assert len(off) == 3 and all(i != j for i, j in off)
        assert diag.union(off) == full
        assert diag.complement() == off
        assert diag.issubset(full)
        assert not full.issubset(diag)

    def test_mask_symmetric(self):
        s = SupportPattern(3, [(2, 1)])
        m = s.mask()
        assert m[0, 1] and m[1, 0] and not m[2, 2]

    def test_from_mask_rejects_asymmetric_and_non_square(self):
        with pytest.raises(ValueError, match="symmetric square mask"):
            SupportPattern.from_mask([[True, True], [False, True]])
        with pytest.raises(ValueError, match="symmetric square mask"):
            SupportPattern.from_mask(np.ones((2, 3), dtype=bool))
        with pytest.raises(ValueError, match="symmetric square mask"):
            SupportPattern.from_mask(np.ones((0, 0), dtype=bool))


# Reference: the pattern as a frozenset of canonical (i >= j) 1-based pairs.
def oracle(pairs):
    return frozenset((max(i, j), min(i, j)) for i, j in pairs)


def oracle_full(dim):
    return frozenset((i, j) for i in range(1, dim + 1) for j in range(1, i + 1))


def oracle_mask(dim, canon):
    m = np.zeros((dim, dim), dtype=bool)
    for i, j in canon:
        m[i - 1, j - 1] = m[j - 1, i - 1] = True
    return m


@st.composite
def pair_lists(draw):
    """A dim in 1..12 and two pair lists, each with diagonal, duplicate and
    reversed pairs mixed in."""
    dim = draw(st.integers(1, 12))
    index = st.integers(1, dim)

    def pairs():
        base = draw(st.lists(st.tuples(index, index), max_size=3 * dim))
        diag = [(i, i) for i in draw(st.lists(index, max_size=2))]
        return base + diag + [(j, i) for i, j in base[:3]] + base[:2]

    return dim, pairs(), pairs()


class TestSupportPatternAgainstSetOracle:
    @settings(max_examples=200)
    @given(pair_lists())
    def test_every_operation_matches(self, case):
        dim, pa, pb = case
        a, b = SupportPattern(dim, pa), SupportPattern(dim, pb)
        sa, sb = oracle(pa), oracle(pb)
        full = oracle_full(dim)

        assert a.pairs() == sorted(sa)
        assert all(type(v) is int for p in a.pairs() for v in p)
        assert a.off_diagonal() == sorted(p for p in sa if p[0] != p[1])
        assert all(type(v) is int for p in a.off_diagonal() for v in p)
        assert list(a) == sorted(sa)
        assert len(a) == len(sa)
        assert repr(a) == f"SupportPattern(dim={dim}, npairs={len(sa)})"
        for i in range(-1, dim + 2):
            for j in range(-1, dim + 2):
                assert ((i, j) in a) == ((max(i, j), min(i, j)) in sa)

        assert a.union(b).pairs() == sorted(sa | sb)
        assert a.minus(b).pairs() == sorted(sa - sb)
        assert a.complement().pairs() == sorted(full - sa)
        assert a.issubset(b) == (sa <= sb)
        assert a.issubset(a.union(b))
        assert (a == b) == (sa == sb)

        m = a.mask()
        np.testing.assert_array_equal(m, oracle_mask(dim, sa))
        m[:] = ~m
        np.testing.assert_array_equal(a.mask(), oracle_mask(dim, sa))
        assert SupportPattern.from_mask(a.mask()) == a

        assert SupportPattern.empty(dim).pairs() == []
        assert SupportPattern.diagonal(dim).pairs() == sorted(
            (i, i) for i in range(1, dim + 1))
        assert SupportPattern.full(dim).pairs() == sorted(full)

    @settings(max_examples=100)
    @given(pair_lists())
    def test_equal_patterns_hash_equal(self, case):
        dim, pa, _ = case
        a = SupportPattern(dim, pa)
        b = SupportPattern(dim, [(j, i) for i, j in reversed(pa)])
        c = SupportPattern.from_mask(oracle_mask(dim, oracle(pa)))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1
        assert a != SupportPattern(dim + 1, pa)

    @settings(max_examples=100)
    @given(st.integers(1, 12).flatmap(lambda dim: st.tuples(
        st.just(dim), st.lists(st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 0.5]),
                               min_size=dim * (dim + 1) // 2,
                               max_size=dim * (dim + 1) // 2))))
    def test_support_of_matches_loop(self, case):
        dim, packed = case
        a = SymmetricMatrix(dim, np.array(packed))
        full = a.to_array()
        for tol in (0.0, 1e-9, 1e-6):
            want = [(i, j) for i in range(1, dim + 1) for j in range(1, i + 1)
                    if abs(full[i - 1, j - 1]) > tol]
            assert support_of(a, tol).pairs() == want


class TestProjectSupport:
    def test_full_support_is_identity(self, rng):
        a = random_symmetric(4, rng)
        out = project_support(a, SupportPattern.full(4))
        np.testing.assert_array_equal(out.to_array(), a.to_array())

    def test_empty_support_is_zero(self, rng):
        a = random_symmetric(4, rng)
        out = project_support(a, SupportPattern.empty(4))
        assert frobenius_norm(out) == 0.0

    def test_single_pair(self):
        a = SymmetricMatrix.from_array([[1.0, 2.0], [2.0, 3.0]])
        out = project_support(a, SupportPattern(2, [(1, 1)]))
        np.testing.assert_array_equal(out.to_array(), [[1.0, 0.0], [0.0, 0.0]])

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            project_support(random_symmetric(3, rng), SupportPattern.full(4))

    def test_idempotent_and_self_adjoint(self, rng):
        # Idempotence and tr(P(A) B) == tr(A P(B)) on random pairs.
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            pairs = [(i, j) for i in range(1, dim + 1) for j in range(1, i + 1)
                     if rng.uniform() < 0.4]
            omega = SupportPattern(dim, pairs)
            a = random_symmetric(dim, rng)
            b = random_symmetric(dim, rng)
            pa = project_support(a, omega)
            np.testing.assert_array_equal(
                project_support(pa, omega).to_array(), pa.to_array())
            lhs = np.sum(pa.to_array() * b.to_array())
            rhs = np.sum(a.to_array() * project_support(b, omega).to_array())
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_projected_support_is_contained(self, rng):
        for _ in range(10):
            dim = 5
            pairs = [(i, j) for i in range(1, dim + 1) for j in range(1, i + 1)
                     if rng.uniform() < 0.5]
            omega = SupportPattern(dim, pairs)
            a = random_symmetric(dim, rng)
            assert support_of(project_support(a, omega), 0.0).issubset(omega)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(SymmetricMatrix.identity(2)), np.eye(2))

    def test_diagonal(self):
        factor = cholesky(SymmetricMatrix.diagonal([4.0, 9.0]))
        np.testing.assert_allclose(factor, np.diag([2.0, 3.0]))

    def test_indefinite_returns_none(self):
        assert cholesky(SymmetricMatrix.from_array([[1.0, 2.0], [2.0, 1.0]])) is None

    def test_factor_reconstructs(self, rng):
        a = random_pd(5, rng)
        factor = cholesky(a)
        np.testing.assert_allclose(factor @ factor.T, a.to_array(), atol=1e-12)

    def test_success_iff_leading_minors_positive(self, rng):
        # Cross-check against the determinant oracle on random 4x4 inputs.
        for _ in range(40):
            a = random_symmetric(4, rng)
            arr = a.to_array()
            minors = [det_cofactor(arr[:k, :k]) for k in range(1, 5)]
            assert (cholesky(a) is not None) == all(m > 0 for m in minors)


class TestLogDet:
    def test_identity_is_zero(self):
        assert log_det(SymmetricMatrix.identity(4)) == 0.0

    def test_diagonal(self):
        assert abs(log_det(SymmetricMatrix.diagonal([2.0, 3.0])) - np.log(6.0)) < 1e-14

    def test_matches_cofactor_oracle(self, rng):
        for _ in range(10):
            a = random_pd(5, rng)
            assert abs(log_det(a) - np.log(det_cofactor(a.to_array()))) < 1e-10

    def test_non_pd_raises(self):
        with pytest.raises(ValueError):
            log_det(SymmetricMatrix.from_array([[1.0, 2.0], [2.0, 1.0]]))

    def test_inverse_negates(self, rng):
        for _ in range(10):
            a = random_pd(6, rng)
            assert abs(log_det(a) + log_det(inverse(a))) < 1e-8


class TestInverse:
    def test_identity(self):
        np.testing.assert_array_equal(
            inverse(SymmetricMatrix.identity(3)).to_array(), np.eye(3))

    def test_diagonal(self):
        out = inverse(SymmetricMatrix.diagonal([2.0, 4.0]))
        np.testing.assert_allclose(out.to_array(), np.diag([0.5, 0.25]))

    def test_residual(self, rng):
        a = random_pd(6, rng)
        res = a.to_array() @ inverse(a).to_array() - np.eye(6)
        assert np.linalg.norm(res) < 1e-10

    def test_non_pd_raises(self):
        with pytest.raises(ValueError):
            inverse(SymmetricMatrix.from_array([[0.0, 0.0], [0.0, 0.0]]))


def packed_values(dim, lo, hi):
    n = dim * (dim + 1) // 2
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@st.composite
def packed_pairs(draw):
    dim = draw(st.integers(1, 12))
    return dim, draw(packed_values(dim, -10.0, 10.0)), draw(packed_values(dim, -10.0, 10.0))


@st.composite
def pd_matrices(draw):
    """A PD matrix of dim 1..12 with a random sparsity pattern, so that its
    inverse can hold exact zeros (disconnected blocks)."""
    dim = draw(st.integers(1, 12))
    n = dim * (dim + 1) // 2
    keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    arr = SymmetricMatrix(dim, np.where(keep, draw(packed_values(dim, -1.0, 1.0)),
                                        0.0)).to_array()
    np.fill_diagonal(arr, 0.0)
    margin = draw(st.floats(0.01, 1.0))
    np.fill_diagonal(arr, np.sum(np.abs(arr), axis=1) + margin)
    return SymmetricMatrix.from_array(arr, tol=0.0)


class TestPackedKernels:
    @settings(max_examples=100)
    @given(packed_pairs())
    def test_trace_inner_matches_full_sum(self, case):
        dim, a, b = case
        prod = SymmetricMatrix(dim, a).to_array() * SymmetricMatrix(dim, b).to_array()
        assert abs(_trace_inner(a, b) - np.sum(prod)) <= 1e-13 * np.sum(np.abs(prod))

    @settings(max_examples=100)
    @given(pd_matrices())
    def test_packed_inverse_matches_the_mirrored_inverse(self, a):
        # potri and two triangular solves round differently: compare with
        # the mirrored cho_solve inverse within a tolerance, and bound the
        # residual A X - I at the scale a backward-stable inverse meets.
        factor = cholesky(a)
        inv = scipy.linalg.cho_solve((factor, True), np.eye(a.dim))
        mirrored = np.tril(inv) + np.tril(inv, -1).T
        expected = mirrored[np.tril_indices(a.dim)]
        packed = _packed_inverse(factor)
        assert np.max(np.abs(packed - expected)) <= 1e-14 * np.max(np.abs(expected))
        full, x = a.to_array(), SymmetricMatrix(a.dim, packed).to_array()
        bound = (4 * a.dim * np.finfo(float).eps
                 * np.linalg.norm(full, 1) * np.linalg.norm(x, 1))
        assert np.max(np.abs(full @ x - np.eye(a.dim))) <= bound

    @settings(max_examples=100)
    @given(pd_matrices(), st.data())
    def test_cholesky_none_on_non_pd_and_non_finite(self, a, data):
        packed = a.packed().copy()
        np.testing.assert_array_equal(_chol_or_none(a.dim, packed),
                                      scipy.linalg.cholesky(a.to_array(), lower=True))
        diag = [i * (i + 3) // 2 for i in range(a.dim)]
        non_pd = packed.copy()
        non_pd[data.draw(st.sampled_from(diag))] = data.draw(st.floats(-1.0, 0.0))
        assert _chol_or_none(a.dim, non_pd) is None
        bad = packed.copy()
        bad[data.draw(st.integers(0, packed.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        assert _chol_or_none(a.dim, bad) is None


class TestFrobenius:
    def test_zero(self):
        assert frobenius_norm(SymmetricMatrix.zeros(3)) == 0.0

    def test_identity(self):
        assert abs(frobenius_norm(SymmetricMatrix.identity(3)) - np.sqrt(3)) < 1e-15

    def test_offdiagonal_counted_twice(self):
        a = SymmetricMatrix.from_array([[0.0, 1.0], [1.0, 0.0]])
        assert abs(frobenius_norm(a) - np.sqrt(2)) < 1e-15


class TestSupportOf:
    def test_identity(self):
        assert support_of(SymmetricMatrix.identity(3), 0.0) == SupportPattern.diagonal(3)

    def test_zero_matrix(self):
        assert len(support_of(SymmetricMatrix.zeros(3), 0.0)) == 0

    def test_tolerance_excludes(self):
        a = SymmetricMatrix.from_array([[1.0, 1e-9], [1e-9, 1.0]])
        assert (2, 1) not in support_of(a, 1e-6)
        assert (2, 1) in support_of(a, 0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            support_of(SymmetricMatrix.identity(2), -1.0)


class TestTextFormats:
    def test_matrix_round_trip(self, tmp_path, rng):
        a = random_symmetric(5, rng)
        path = tmp_path / "m.txt"
        write_matrix(a, path)
        np.testing.assert_array_equal(read_matrix(path).to_array(), a.to_array())

    def test_matrix_header_comment_skipped(self, tmp_path):
        a = SymmetricMatrix.identity(2)
        path = tmp_path / "m.txt"
        write_matrix(a, path, header="variant: test")
        assert read_matrix(path).to_array().tolist() == [[1.0, 0.0], [0.0, 1.0]]
        with open(path) as fh:
            assert fh.readline().startswith("# variant: test")

    def test_matrix_rejects_asymmetric_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1.0 2.0\n2.5 1.0\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_matrix_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1.0 0.0 0.0\n0.0 1.0 0.0\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_support_round_trip(self, tmp_path):
        s = SupportPattern(4, [(1, 1), (3, 2), (4, 1)])
        path = tmp_path / "s.txt"
        write_support(s, path)
        assert read_support(path) == s
