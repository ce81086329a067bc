"""Link prediction from estimated models and topology-only baselines.

The estimated covariance induces a score per node pair; thresholding the
score magnitudes selects the predicted edge set. Two classical baselines
(common-neighbors for appearing links, its reversal for disappearing
links) and misprediction counting round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .symmat import (
    SupportPattern,
    SymmetricMatrix,
    _factor_or_raise,
    _full_positions,
    _integer,
    _packed_diagonal,
    _packed_inverse,
    _packed_rows_cols,
    _packed_size,
    _positive,
    _support_json,
    support_of,
)

SCORE_VARIANTS = ("as_written", "partial_correlation")


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
                 ) -> SymmetricMatrix:
    """Pairwise link scores r_ij of an estimated PD covariance T. Variant
    "as_written" scales the inverse by the covariance diagonal, diag(T)^{1/2}
    T^-1 diag(T)^{1/2}; "partial_correlation" normalizes by the precision
    diagonal, D^-1/2 K D^-1/2 with K = T^-1 and D = diag(K), the scaling
    under which |r_ij| <= 1 holds. K is the inverse that T carries when the
    code that made T computed both, as solve does for its t_opt; any other
    T is factored and inverted."""
    if variant not in SCORE_VARIANTS:
        raise ValueError(f"unknown score variant {variant!r}")
    if t_opt._inverse is not None:
        k = t_opt._inverse.packed()
    else:
        k = _packed_inverse(
            _factor_or_raise(t_opt, "score_matrix requires a positive definite input"))
    diag = _packed_diagonal(t_opt.dim)
    if variant == "as_written":
        d = np.sqrt(t_opt.packed()[diag])
    else:
        d = 1.0 / np.sqrt(k[diag])
    rows, cols = _packed_rows_cols(t_opt.dim)
    return SymmetricMatrix._of_packed(t_opt.dim, d[rows] * d[cols] * k)


def threshold_support(r: SymmetricMatrix, t_r: float) -> SupportPattern:
    """Off-diagonal pairs with |r_ij| > t_r, plus every diagonal pair."""
    _positive(t_r, "t_r")
    return support_of(r, t_r).union(SupportPattern.diagonal(r.dim))


# ---------------------------------------------------------------------------
# Topology-only baselines
# ---------------------------------------------------------------------------

def common_neighbors(support: SupportPattern) -> SymmetricMatrix:
    """Count of shared neighbors per pair, from the off-diagonal graph of
    ``support``; the diagonal is zeroed (self-pairs are not scored)."""
    dim = support.dim
    rows, cols = _packed_rows_cols(dim)
    edges = np.flatnonzero(support.packed() & ~_packed_diagonal(dim))
    ends = np.concatenate((rows[edges], cols[edges]))
    # Priors are sparse graphs; a dense product would cost dim^3. The
    # adjacency is built from the edges, both ways round.
    adj = sparse.csr_array(
        (np.ones(ends.size), (ends, np.roll(ends, edges.size))), shape=(dim, dim))
    counts = (adj @ adj).tocoo()
    lower = counts.row > counts.col
    packed = np.zeros(_packed_size(dim))
    packed[_full_positions(dim)[counts.row[lower], counts.col[lower]]] = counts.data[lower]
    return SymmetricMatrix._of_packed(dim, packed)


def _top_k(prior_support: SupportPattern, pool: SupportPattern, k: int,
           descending: bool):
    """The first k off-diagonal pairs of ``pool`` by the prior's
    common-neighbors count, as a pattern, and whether the k-th and the
    (k+1)-th scores tie. Equal scores keep lexicographic order, which is
    packed order: the k pairs are those that rank before the k-th score and
    the first ones at it, what a stable sort would choose. A partition
    finds the k-th score in linear time, with no sort; the (k+1)-th ties it
    when more than k pairs reach it."""
    index = np.flatnonzero(pool.packed())
    scores = common_neighbors(prior_support).packed()[index]
    keys = -scores if descending else scores
    chosen = np.zeros_like(pool.packed())
    if not 0 < k < index.size:  # none or all of the pool
        chosen[index[:k]] = True
        return SupportPattern._of_packed(pool.dim, chosen), False
    kth = np.partition(keys, k - 1)[k - 1]
    ahead = keys < kth
    n_ahead = int(np.count_nonzero(ahead))
    level = np.flatnonzero(keys == kth)
    chosen[index[ahead]] = True
    chosen[index[level[:k - n_ahead]]] = True
    return SupportPattern._of_packed(pool.dim, chosen), n_ahead + level.size > k


def plp_baseline(prior_support: SupportPattern, k: int) -> PredictionReport:
    """Predict as appearing the k absent pairs with the highest
    common-neighbors count; ties broken lexicographically and flagged."""
    diagonal = SupportPattern.diagonal(prior_support.dim)
    absent = prior_support.complement().minus(diagonal)
    _integer(k, "k", 0, len(absent))
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
    _integer(k, "k", 0, len(edges))
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
    diagonal = SupportPattern.diagonal(truth.dim)
    return PredictionReport(
        predicted_support=predicted,
        true_support=truth,
        false_positives=len(predicted.minus(truth).minus(diagonal)),
        false_negatives=len(truth.minus(predicted).minus(diagonal)),
        method_name=method_name,
    )
