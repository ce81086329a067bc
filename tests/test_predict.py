"""Score matrices, thresholding, baselines, and misprediction counting."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggmlink import (
    ScoreMatrix,
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
from ggmlink.predict import _top_k
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


# ---------------------------------------------------------------------------
# Reference loop versions of the support computations, checked against the
# array forms on random and tie-heavy graphs.
# ---------------------------------------------------------------------------

def loop_threshold_support(r, t_r):
    arr = np.abs(r.scores.to_array())
    dim = r.dim
    pairs = [(i, i) for i in range(1, dim + 1)]
    for i in range(2, dim + 1):
        for j in range(1, i):
            if arr[i - 1, j - 1] > t_r:
                pairs.append((i, j))
    return SupportPattern(dim, pairs)


def loop_common_neighbors(support):
    dim = support.dim
    adj = np.zeros((dim, dim))
    for i, j in support.off_diagonal():
        adj[i - 1, j - 1] = 1.0
        adj[j - 1, i - 1] = 1.0
    counts = adj @ adj
    np.fill_diagonal(counts, 0.0)
    return SymmetricMatrix.from_array(counts, tol=0.0)


def loop_ranked(pairs_with_scores, reverse):
    key = (lambda ps: (-ps[1], ps[0])) if reverse else (lambda ps: (ps[1], ps[0]))
    return sorted(pairs_with_scores, key=key)


def loop_tie(ranked, k):
    return 0 < k < len(ranked) and ranked[k - 1][1] == ranked[k][1]


def loop_plp_baseline(prior, k):
    dim = prior.dim
    cn = loop_common_neighbors(prior)
    candidates = [(i, j) for i in range(2, dim + 1) for j in range(1, i)
                  if (i, j) not in prior]
    ranked = loop_ranked([(p, cn[p]) for p in candidates], reverse=True)
    predicted = prior.union(SupportPattern(dim, [p for p, _ in ranked[:k]])) \
        .union(SupportPattern.diagonal(dim))
    return predicted, loop_tie(ranked, k)


def loop_nlp_reversed_baseline(prior, k):
    dim = prior.dim
    scored = []
    for edge in prior.off_diagonal():
        pruned = prior.minus(SupportPattern(dim, [edge]))
        scored.append((edge, loop_common_neighbors(pruned)[edge]))
    ranked = loop_ranked(scored, reverse=False)
    predicted = prior.minus(SupportPattern(dim, [p for p, _ in ranked[:k]])) \
        .union(SupportPattern.diagonal(dim))
    return predicted, loop_tie(ranked, k)


def pairs_top_k(prior, pool, k, descending):
    """The pairs-based ranking of _top_k: list the pool's pairs, rank them by
    the prior's common-neighbors count with lexicographic tie order."""
    cn = loop_common_neighbors(prior)
    ranked = loop_ranked([(p, cn[p]) for p in pool.pairs()], reverse=descending)
    return SupportPattern(prior.dim, [p for p, _ in ranked[:k]]), loop_tie(ranked, k)


def loop_evaluate(predicted, truth):
    pred_edges = set(predicted.off_diagonal())
    true_edges = set(truth.off_diagonal())
    return len(pred_edges - true_edges), len(true_edges - pred_edges)


@st.composite
def graphs(draw):
    """A dim in 2..12 and two graphs (diagonal included). Every third case
    is tie-heavy: a cycle, a star or a complete bipartite graph, whose
    common-neighbor counts take one or two values."""
    dim = draw(st.integers(2, 12))
    offdiag = [(i, j) for i in range(2, dim + 1) for j in range(1, i)]

    def random_graph():
        keep = draw(st.lists(st.booleans(), min_size=len(offdiag),
                             max_size=len(offdiag)))
        return pattern_from_edges(dim, [p for p, on in zip(offdiag, keep) if on])

    shape = draw(st.sampled_from(["random", "random", "tie-heavy"]))
    if shape == "random":
        prior = random_graph()
    else:
        half = draw(st.integers(1, dim - 1))
        prior = pattern_from_edges(dim, draw(st.sampled_from([
            [(i, i - 1) for i in range(2, dim + 1)] + ([(dim, 1)] if dim > 2 else []),
            [(i, 1) for i in range(2, dim + 1)],
            [(i, j) for i in range(half + 1, dim + 1) for j in range(1, half + 1)],
        ])))
    return prior, random_graph()


def assert_report_json_ready(report):
    assert type(report.ties) is bool
    json.dumps(report.to_dict())


class TestArrayFormsMatchLoops:
    @settings(max_examples=150)
    @given(st.integers(1, 12).flatmap(lambda dim: st.lists(
        st.sampled_from([0.0, 0.25, -0.25, 0.5, 1e-4, -1e-4, 1.0]),
        min_size=dim * dim, max_size=dim * dim).map(
            lambda v: np.reshape(v, (dim, dim)))))
    def test_threshold_support(self, arr):
        # Scores at exactly the threshold test the strict comparison.
        scores = SymmetricMatrix.from_array(np.tril(arr) + np.tril(arr, -1).T)
        r = ScoreMatrix(scores=scores, variant="partial_correlation")
        for t_r in (1e-4, 0.25, 0.3):
            assert threshold_support(r, t_r) == loop_threshold_support(r, t_r)

    @settings(max_examples=100)
    @given(graphs(), st.integers(0, 1000))
    def test_plp_baseline(self, case, k_seed):
        prior, _ = case
        n_absent = len(prior.complement().off_diagonal())
        k = k_seed % (n_absent + 1)
        np.testing.assert_array_equal(common_neighbors(prior).to_array(),
                                      loop_common_neighbors(prior).to_array())
        report = plp_baseline(prior, k)
        predicted, ties = loop_plp_baseline(prior, k)
        assert report.predicted_support == predicted
        assert report.ties == ties
        assert_report_json_ready(report)

    @settings(max_examples=100)
    @given(graphs(), st.integers(0, 1000))
    def test_nlp_reversed_baseline(self, case, k_seed):
        prior, _ = case
        k = k_seed % (len(prior.off_diagonal()) + 1)
        report = nlp_reversed_baseline(prior, k)
        predicted, ties = loop_nlp_reversed_baseline(prior, k)
        assert report.predicted_support == predicted
        assert report.ties == ties
        assert_report_json_ready(report)

    @settings(max_examples=100)
    @given(graphs(), st.integers(0, 1000), st.booleans())
    def test_top_k(self, case, k_seed, descending):
        # Any off-diagonal pool, not only the ones the baselines pass.
        prior, other = case
        pool = other.minus(SupportPattern.diagonal(prior.dim))
        k = k_seed % (len(pool) + 1)
        assert _top_k(prior, pool, k, descending) \
            == pairs_top_k(prior, pool, k, descending)

    @settings(max_examples=100)
    @given(graphs())
    def test_evaluate(self, case):
        predicted, truth = case
        report = evaluate(predicted, truth)
        assert (report.false_positives, report.false_negatives) \
            == loop_evaluate(predicted, truth)
        assert type(report.false_positives) is int
        assert type(report.false_negatives) is int
        assert_report_json_ready(report)

    def test_tie_heavy_baselines_flag_ties(self):
        # A 6-cycle: every absent pair has 0 or 1 common neighbors and every
        # edge 0 once removed, so both rankings tie at the boundary.
        cycle = pattern_from_edges(6, [(i, i - 1) for i in range(2, 7)] + [(6, 1)])
        for report in (plp_baseline(cycle, 2), nlp_reversed_baseline(cycle, 2)):
            assert report.ties is True
            assert_report_json_ready(report)
