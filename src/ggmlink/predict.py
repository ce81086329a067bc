"""Link prediction from estimated models and topology-only baselines.

The estimated covariance induces a score per node pair; thresholding the
score magnitudes selects the predicted edge set. Two classical baselines
(common-neighbors for appearing links, its reversal for disappearing
links) and misprediction counting round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symmat import (
    SupportPattern,
    SymmetricMatrix,
    _check_dims,
    _factor_or_raise,
    _packed_diagonal,
    _packed_inverse,
    _support_json,
    support_of,
)

SCORE_VARIANTS = ("as_written", "partial_correlation")


@dataclass(frozen=True)
class ScoreMatrix:
    """Pairwise link scores r_ij.

    variant "as_written" scales the inverse by the covariance diagonal,
    diag(T)^{1/2} T^-1 diag(T)^{1/2}; variant "partial_correlation"
    normalizes by the precision diagonal, D^-1/2 K D^-1/2 with K = T^-1 and
    D = diag(K), which is the scaling under which |r_ij| <= 1 holds.
    """

    scores: SymmetricMatrix
    variant: str

    @property
    def dim(self) -> int:
        return self.scores.dim


@dataclass(frozen=True)
class PredictionReport:
    """Predicted support plus misprediction counts against a truth, when
    one is available. Counts are over undirected off-diagonal pairs."""

    predicted_support: SupportPattern
    method_name: str
    true_support: SupportPattern | None = None
    false_positives: int | None = None
    false_negatives: int | None = None
    ties: bool = False

    @property
    def mispredicted_total(self) -> int | None:
        if self.false_positives is None or self.false_negatives is None:
            return None
        return self.false_positives + self.false_negatives

    def to_dict(self) -> dict:
        out = {
            "method_name": self.method_name,
            "predicted_support": _support_json(self.predicted_support),
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "mispredicted_total": self.mispredicted_total,
            "ties": self.ties,
        }
        if self.true_support is not None:
            out["true_support"] = _support_json(self.true_support)
        return out


# ---------------------------------------------------------------------------
# Scores and thresholding
# ---------------------------------------------------------------------------

def score_matrix(t_opt: SymmetricMatrix, variant: str = "partial_correlation",
                 ) -> ScoreMatrix:
    """Score matrix of an estimated PD covariance, under either scaling."""
    if variant not in SCORE_VARIANTS:
        raise ValueError(f"unknown score variant {variant!r}")
    k = _packed_inverse(
        _factor_or_raise(t_opt, "score_matrix requires a positive definite input"))
    diag = _packed_diagonal(t_opt.dim)
    if variant == "as_written":
        d = np.sqrt(t_opt.packed()[diag])
    else:
        d = 1.0 / np.sqrt(k[diag])
    scale = SymmetricMatrix.from_array(np.outer(d, d))
    return ScoreMatrix(scores=SymmetricMatrix(t_opt.dim, scale.packed() * k),
                       variant=variant)


def threshold_support(r: ScoreMatrix, t_r: float) -> SupportPattern:
    """Off-diagonal pairs with |r_ij| > t_r, plus every diagonal pair."""
    if not 0.0 < t_r < np.inf:
        raise ValueError("threshold must be finite and strictly positive")
    return support_of(r.scores, t_r).union(SupportPattern.diagonal(r.dim))


# ---------------------------------------------------------------------------
# Topology-only baselines
# ---------------------------------------------------------------------------

def common_neighbors(support: SupportPattern) -> SymmetricMatrix:
    """Count of shared neighbors per pair, from the off-diagonal graph of
    ``support``; the diagonal is zeroed (self-pairs are not scored)."""
    adj = support.mask().astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    counts = adj @ adj
    np.fill_diagonal(counts, 0.0)
    return SymmetricMatrix.from_array(counts)


def _top_k(prior_support: SupportPattern, pool: SupportPattern, k: int,
           descending: bool):
    """The first k off-diagonal pairs of ``pool`` by the prior's
    common-neighbors count, as a pattern, and whether the k-th and the
    (k+1)-th scores tie. Packed order is the sorted order of the pairs and
    the sort is stable, so equal scores keep lexicographic order."""
    index = np.flatnonzero(pool.packed())
    scores = common_neighbors(prior_support).packed()[index]
    order = np.argsort(-scores if descending else scores, kind="stable")
    ties = 0 < k < index.size and bool(scores[order[k - 1]] == scores[order[k]])
    chosen = np.zeros_like(pool.packed())
    chosen[index[order[:k]]] = True
    return SupportPattern._of_packed(pool.dim, chosen), ties


def plp_baseline(prior_support: SupportPattern, k: int) -> PredictionReport:
    """Predict as appearing the k absent pairs with the highest
    common-neighbors count; ties broken lexicographically and flagged."""
    if k < 0:
        raise ValueError("need k >= 0")
    diagonal = SupportPattern.diagonal(prior_support.dim)
    absent = prior_support.complement().minus(diagonal)
    if k > len(absent):
        raise ValueError(f"k={k} exceeds the {len(absent)} absent pairs")
    chosen, ties = _top_k(prior_support, absent, k, descending=True)
    return PredictionReport(
        predicted_support=prior_support.union(chosen).union(diagonal),
        method_name="common_neighbors",
        ties=ties,
    )


def nlp_reversed_baseline(prior_support: SupportPattern,
                          k: int) -> PredictionReport:
    """Predict as disappearing the k present edges whose endpoints score
    lowest by common neighbors once that edge is removed; ties broken
    lexicographically and flagged."""
    diagonal = SupportPattern.diagonal(prior_support.dim)
    edges = prior_support.minus(diagonal)
    if not (0 <= k <= len(edges)):
        raise ValueError(f"k={k} out of range for {len(edges)} edges")
    # Removing edge (i, j) changes no term of sum_m A_im A_mj, as the
    # adjacency has a zero diagonal, so every edge keeps its prior count.
    dropped, ties = _top_k(prior_support, edges, k, descending=False)
    return PredictionReport(
        predicted_support=prior_support.minus(dropped).union(diagonal),
        method_name="reversed_common_neighbors",
        ties=ties,
    )


# ---------------------------------------------------------------------------
# Misprediction counting
# ---------------------------------------------------------------------------

def evaluate(predicted: SupportPattern, truth: SupportPattern,
             method_name: str = "evaluate") -> PredictionReport:
    """False positives (predicted but absent) and false negatives (present
    but missed), over undirected off-diagonal pairs."""
    _check_dims(predicted, truth)
    return PredictionReport(
        predicted_support=predicted,
        true_support=truth,
        false_positives=len(predicted.minus(truth).off_diagonal()),
        false_negatives=len(truth.minus(predicted).off_diagonal()),
        method_name=method_name,
    )
