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
    _sym_inv_from_chol,
    _tril_of,
    cholesky,
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
            "predicted_support": {
                "dim": self.predicted_support.dim,
                "pairs": [list(p) for p in self.predicted_support.pairs()],
            },
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "mispredicted_total": self.mispredicted_total,
            "ties": self.ties,
        }
        if self.true_support is not None:
            out["true_support"] = {
                "dim": self.true_support.dim,
                "pairs": [list(p) for p in self.true_support.pairs()],
            }
        return out


# ---------------------------------------------------------------------------
# Scores and thresholding
# ---------------------------------------------------------------------------

def score_matrix(t_opt: SymmetricMatrix, variant: str = "partial_correlation",
                 ) -> ScoreMatrix:
    """Score matrix of an estimated PD covariance, under either scaling."""
    if variant not in SCORE_VARIANTS:
        raise ValueError(f"unknown score variant {variant!r}")
    factor = cholesky(t_opt)
    if factor is None:
        raise ValueError("score_matrix requires a positive definite input")
    k = _sym_inv_from_chol(factor)
    if variant == "as_written":
        d = np.sqrt(np.diag(t_opt.to_array()))
    else:
        d = 1.0 / np.sqrt(np.diag(k))
    scores = d[:, None] * k * d[None, :]
    return ScoreMatrix(scores=SymmetricMatrix(t_opt.dim, _tril_of(scores)),
                       variant=variant)


def threshold_support(r: ScoreMatrix, t_r: float) -> SupportPattern:
    """Off-diagonal pairs with |r_ij| > t_r, plus every diagonal pair."""
    if not 0.0 < t_r < np.inf:
        raise ValueError("threshold must be finite and strictly positive")
    keep = np.abs(r.scores.to_array()) > t_r
    np.fill_diagonal(keep, True)
    return SupportPattern.from_mask(keep)


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
    return SymmetricMatrix(support.dim, _tril_of(counts))


def _ranked(pairs_with_scores, reverse: bool):
    """Sort by score (descending if reverse), lexicographic pair order on ties."""
    key = (lambda ps: (-ps[1], ps[0])) if reverse else (lambda ps: (ps[1], ps[0]))
    return sorted(pairs_with_scores, key=key)


def _boundary_tie(ranked, k: int) -> bool:
    return 0 < k < len(ranked) and ranked[k - 1][1] == ranked[k][1]


def plp_baseline(prior_support: SupportPattern, k: int) -> PredictionReport:
    """Predict as appearing the k absent pairs with the highest
    common-neighbors count; ties broken lexicographically and flagged."""
    if k < 0:
        raise ValueError("need k >= 0")
    dim = prior_support.dim
    cn = common_neighbors(prior_support)
    candidates = prior_support.complement().off_diagonal()
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds the {len(candidates)} absent pairs")
    ranked = _ranked([(p, cn[p]) for p in candidates], reverse=True)
    chosen = [p for p, _ in ranked[:k]]
    predicted = prior_support.union(SupportPattern(dim, chosen)) \
        .union(SupportPattern.diagonal(dim))
    return PredictionReport(
        predicted_support=predicted,
        method_name="common_neighbors",
        ties=_boundary_tie(ranked, k),
    )


def nlp_reversed_baseline(prior_support: SupportPattern,
                          k: int) -> PredictionReport:
    """Predict as disappearing the k present edges whose endpoints score
    lowest by common neighbors once that edge is removed; ties broken
    lexicographically and flagged."""
    edges = prior_support.off_diagonal()
    if not (0 <= k <= len(edges)):
        raise ValueError(f"k={k} out of range for {len(edges)} edges")
    dim = prior_support.dim
    scored = []
    for edge in edges:
        pruned = prior_support.minus(SupportPattern(dim, [edge]))
        scored.append((edge, common_neighbors(pruned)[edge]))
    ranked = _ranked(scored, reverse=False)
    dropped = [p for p, _ in ranked[:k]]
    predicted = prior_support.minus(SupportPattern(dim, dropped)) \
        .union(SupportPattern.diagonal(dim))
    return PredictionReport(
        predicted_support=predicted,
        method_name="reversed_common_neighbors",
        ties=_boundary_tie(ranked, k),
    )


# ---------------------------------------------------------------------------
# Misprediction counting
# ---------------------------------------------------------------------------

def evaluate(predicted: SupportPattern, truth: SupportPattern,
             method_name: str = "evaluate") -> PredictionReport:
    """False positives (predicted but absent) and false negatives (present
    but missed), over undirected off-diagonal pairs."""
    if predicted.dim != truth.dim:
        raise ValueError("dimension mismatch")
    return PredictionReport(
        predicted_support=predicted,
        true_support=truth,
        false_positives=len(predicted.minus(truth).off_diagonal()),
        false_negatives=len(truth.minus(predicted).off_diagonal()),
        method_name=method_name,
    )
