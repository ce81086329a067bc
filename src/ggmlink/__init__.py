"""Link prediction in Gaussian graphical models.

Estimates appearing and disappearing conditional-dependence edges by
fitting a covariance that stays close (in KL divergence) to a known prior
model while matching fresh observations, with l1 penalties selecting the
changed edges. Includes the dense symmetric-matrix kernel, the Gaussian
model domain logic, the first-order solvers, score-based prediction with
classical baselines, and a reproducible experiment harness.
"""

from .symmat import (
    SupportPattern,
    SymmetricMatrix,
    cholesky,
    frobenius_norm,
    inverse,
    log_det,
    read_matrix,
    read_support,
    support_of,
    write_matrix,
    write_support,
)
from .ggm import (
    GaussianModel,
    ObservationSet,
    ScenarioSpec,
    draw_samples,
    kl_divergence,
    perturb_model,
    random_model,
    relative_error,
    sample_covariance,
)
from .solver import (
    PenaltySpec,
    SolveResult,
    SolverConfig,
    dual_smooth_gradient,
    dual_smooth_value,
    primal_from_dual,
    prox_mixed,
    prox_nlp,
    prox_plp,
    random_feasible_start,
    solve,
    solve_known_support,
)
from .predict import (
    PredictionReport,
    common_neighbors,
    evaluate,
    nlp_reversed_baseline,
    plp_baseline,
    score_matrix,
    threshold_support,
)

__version__ = "0.1.0"
