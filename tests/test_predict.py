"""Score matrices, thresholding, baselines, and misprediction counting."""

import numpy as np
import pytest

from ggmlink import (
    SupportPattern,
    SymmetricMatrix,
    common_neighbors,
    evaluate,
    inverse,
    nlp_reversed_baseline,
    plp_baseline,
    score_matrix,
    threshold_support,
)
from conftest import random_pd


def pattern_from_edges(dim, edges):
    return SupportPattern(dim, [(i, i) for i in range(1, dim + 1)] + list(edges))


class TestScoreMatrix:
    def test_identity_both_variants(self):
        eye = SymmetricMatrix.identity(3)
        for variant in ("as_written", "partial_correlation"):
            np.testing.assert_allclose(score_matrix(eye, variant).scores.to_array(),
                                       np.eye(3))

    def test_diagonal_input(self):
        t = SymmetricMatrix.diagonal([2.0, 0.5, 4.0])
        pc = score_matrix(t, "partial_correlation").scores.to_array()
        np.testing.assert_allclose(pc, np.eye(3), atol=1e-14)
        aw = score_matrix(t, "as_written").scores.to_array()
        assert np.all(aw == np.diag(np.diag(aw)))

    def test_already_normalized_precision(self):
        k = np.array([[1.0, 0.5], [0.5, 1.0]])
        t = inverse(SymmetricMatrix.from_array(k))
        pc = score_matrix(t, "partial_correlation").scores
        assert abs(pc[2, 1] - 0.5) < 1e-10
        assert abs(pc[1, 1] - 1.0) < 1e-12

    def test_as_written_formula(self, rng):
        t = random_pd(4, rng)
        k = inverse(t).to_array()
        d = np.sqrt(np.diag(t.to_array()))
        expected = np.diag(d) @ k @ np.diag(d)
        got = score_matrix(t, "as_written").scores.to_array()
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_partial_correlation_bounds(self, rng):
        # Cauchy-Schwarz on the precision matrix: unit diagonal, |r| <= 1.
        for _ in range(100):
            t = random_pd(5, rng)
            r = score_matrix(t, "partial_correlation").scores.to_array()
            np.testing.assert_allclose(np.diag(r), np.ones(5), atol=1e-12)
            assert np.max(np.abs(r)) <= 1.0 + 1e-12

    def test_unknown_variant_rejected(self, rng):
        with pytest.raises(ValueError):
            score_matrix(random_pd(3, rng), "nonsense")

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            score_matrix(SymmetricMatrix.from_array([[1.0, 2.0], [2.0, 1.0]]))


class TestThresholdSupport:
    def test_identity_keeps_diagonal_only(self):
        r = score_matrix(SymmetricMatrix.identity(4))
        assert threshold_support(r, 0.5) == SupportPattern.diagonal(4)

    def test_monotone_in_threshold(self, rng):
        r = score_matrix(random_pd(6, rng))
        prev = None
        for t_r in (1e-4, 1e-2, 0.2, 0.9):
            cur = threshold_support(r, t_r)
            if prev is not None:
                assert cur.issubset(prev)
            prev = cur

    def test_requires_positive_threshold(self, rng):
        with pytest.raises(ValueError):
            threshold_support(score_matrix(random_pd(3, rng)), 0.0)

    @pytest.mark.parametrize("t_r", [np.nan, np.inf])
    def test_rejects_non_finite_threshold(self, rng, t_r):
        with pytest.raises(ValueError, match="finite"):
            threshold_support(score_matrix(random_pd(3, rng)), t_r)

    def test_diagonal_rescaling_invariance(self, rng):
        # partial-correlation scores cancel diagonal scale changes of T.
        t = random_pd(5, rng)
        d = np.diag(rng.uniform(0.5, 2.0, size=5))
        t_scaled = SymmetricMatrix.from_array(d @ t.to_array() @ d, tol=1e-9)
        a = threshold_support(score_matrix(t, "partial_correlation"), 1e-4)
        b = threshold_support(score_matrix(t_scaled, "partial_correlation"), 1e-4)
        assert a == b


class TestCommonNeighbors:
    def test_path_graph(self):
        # 1 - 2 - 3: the middle node is the only shared neighbor.
        s = pattern_from_edges(3, [(2, 1), (3, 2)])
        cn = common_neighbors(s)
        assert cn[3, 1] == 1.0
        assert cn[2, 1] == 0.0
        assert cn[1, 1] == 0.0

    def test_complete_graph(self):
        s = pattern_from_edges(4, [(i, j) for i in range(2, 5) for j in range(1, i)])
        cn = common_neighbors(s)
        for i in range(2, 5):
            for j in range(1, i):
                assert cn[i, j] == 2.0

    def test_empty_graph(self):
        cn = common_neighbors(SupportPattern.diagonal(5))
        assert np.all(cn.to_array() == 0.0)

    def test_matches_set_intersection_oracle(self, rng):
        for _ in range(100):
            dim = int(rng.integers(3, 9))
            edges = [(i, j) for i in range(2, dim + 1) for j in range(1, i)
                     if rng.uniform() < 0.4]
            s = pattern_from_edges(dim, edges)
            cn = common_neighbors(s).to_array()
            neighbors = {v: set() for v in range(1, dim + 1)}
            for i, j in edges:
                neighbors[i].add(j)
                neighbors[j].add(i)
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    expected = 0 if i == j else len(neighbors[i] & neighbors[j])
                    assert cn[i - 1, j - 1] == expected


class TestPlpBaseline:
    def test_star_graph_tie_break(self):
        # Star centered at 1: all leaf pairs have one common neighbor; the
        # lexicographically first pair wins.
        star = pattern_from_edges(5, [(2, 1), (3, 1), (4, 1), (5, 1)])
        report = plp_baseline(star, 1)
        picked = report.predicted_support.minus(star).off_diagonal()
        assert picked == [(3, 2)]
        assert report.ties

    def test_strict_maximum_ranks_first(self):
        # Triangle 1-2-3 with node 4 attached to 2 and 3: the pair (4, 1)
        # shares two neighbors, every other absent pair none.
        s = pattern_from_edges(5, [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
        report = plp_baseline(s, 1)
        assert (4, 1) in report.predicted_support
        assert not report.ties

    def test_empty_graph_degenerates_lexicographically(self):
        empty = SupportPattern.diagonal(4)
        report = plp_baseline(empty, 2)
        assert report.predicted_support.minus(empty).off_diagonal() == [(2, 1), (3, 1)]
        assert report.ties

    def test_k_zero_predicts_no_change(self):
        star = pattern_from_edges(4, [(2, 1), (3, 1)])
        report = plp_baseline(star, 0)
        assert report.predicted_support == star

    def test_k_exceeding_non_edges_rejected(self):
        s = pattern_from_edges(3, [(2, 1), (3, 1), (3, 2)])
        with pytest.raises(ValueError):
            plp_baseline(s, 1)


class TestNlpReversedBaseline:
    def test_triangle_ties(self):
        # Removing any triangle edge leaves one shared neighbor; the
        # lexicographically first edge is dropped.
        tri = pattern_from_edges(3, [(2, 1), (3, 1), (3, 2)])
        report = nlp_reversed_baseline(tri, 1)
        dropped = tri.minus(report.predicted_support).off_diagonal()
        assert dropped == [(2, 1)]
        assert report.ties

    def test_isolated_edge_ranked_first(self):
        # Edge (5, 4) has no surrounding structure; triangle edges score 1.
        s = pattern_from_edges(5, [(2, 1), (3, 1), (3, 2), (5, 4)])
        report = nlp_reversed_baseline(s, 1)
        dropped = s.minus(report.predicted_support).off_diagonal()
        assert dropped == [(5, 4)]

    def test_drop_all_edges(self):
        s = pattern_from_edges(4, [(2, 1), (4, 3)])
        report = nlp_reversed_baseline(s, 2)
        assert report.predicted_support == SupportPattern.diagonal(4)

    def test_k_out_of_range(self):
        s = pattern_from_edges(3, [(2, 1)])
        with pytest.raises(ValueError):
            nlp_reversed_baseline(s, 2)


class TestEvaluate:
    def test_exact_match(self):
        s = pattern_from_edges(4, [(2, 1), (4, 3)])
        report = evaluate(s, s)
        assert report.false_positives == 0
        assert report.false_negatives == 0
        assert report.mispredicted_total == 0

    def test_one_extra_edge(self):
        truth = pattern_from_edges(4, [(2, 1)])
        pred = pattern_from_edges(4, [(2, 1), (3, 1)])
        report = evaluate(pred, truth)
        assert report.false_positives == 1 and report.false_negatives == 0

    def test_disjoint_supports(self):
        pred = pattern_from_edges(5, [(2, 1), (3, 1)])
        truth = pattern_from_edges(5, [(4, 3), (5, 4), (5, 3)])
        report = evaluate(pred, truth)
        assert report.false_positives == 2 and report.false_negatives == 3
        assert report.mispredicted_total == 5

    def test_diagonal_ignored(self):
        pred = SupportPattern.diagonal(3)
        truth = SupportPattern(3, [(1, 1)])
        report = evaluate(pred, truth)
        assert report.mispredicted_total == 0

    def test_fp_fn_symmetry(self, rng):
        for _ in range(20):
            dim = 6
            mk = lambda: pattern_from_edges(
                dim, [(i, j) for i in range(2, dim + 1) for j in range(1, i)
                      if rng.uniform() < 0.3])
            a, b = mk(), mk()
            assert evaluate(a, b).false_positives == evaluate(b, a).false_negatives

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(SupportPattern.diagonal(3), SupportPattern.diagonal(4))

    def test_report_serialization(self):
        pred = pattern_from_edges(3, [(2, 1)])
        truth = pattern_from_edges(3, [(3, 2)])
        d = evaluate(pred, truth, method_name="probe").to_dict()
        assert d["method_name"] == "probe"
        assert d["false_positives"] == 1
        assert d["mispredicted_total"] == 2
        assert d["predicted_support"]["pairs"] == [[1, 1], [2, 1], [2, 2], [3, 3]]
