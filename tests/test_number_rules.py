"""The two number rules of symmat, _positive and _integer, at every call
site: each bad value raises a one-line ValueError that names the field."""

import dataclasses

import numpy as np
import pytest

from ggmlink import (
    PenaltySpec,
    ScenarioSpec,
    SolverConfig,
    SupportPattern,
    SymmetricMatrix,
    draw_samples,
    nlp_reversed_baseline,
    plp_baseline,
    prox_mixed,
    prox_nlp,
    prox_plp,
    random_model,
    support_of,
    threshold_support,
)
from ggmlink import ggm
from ggmlink.cli import ExperimentConfig, cmd_sweep

# Values that no rule accepts: not a number, or not finite.
NOT_NUMBERS = [np.nan, np.inf, -np.inf, np.float32(np.inf), True, "0.1"]
# A positive real rejects these too; an integer slot also rejects 1.5 and,
# when bounded above, an integer past the float range.
POSITIVE_BAD = NOT_NUMBERS + [10**400, 0, -1]
COUNT_BAD = NOT_NUMBERS + [1.5, -1]  # integers >= 0, unbounded
INTEGER_BAD = COUNT_BAD + [0]  # integers >= 1, unbounded
BOUNDED_BAD = INTEGER_BAD + [10**400]  # integers >= 1 up to a bound

SCENARIO = ScenarioSpec(dim=4, edge_density=0.5, n_add=1, n_remove=1, seed=0)
CONFIG = ExperimentConfig(scenario=SCENARIO, n=10, penalty_kind="plp", seeds=(0,),
                          gamma_grid=(0.1,))
LAM, EYE = SymmetricMatrix.zeros(2), SymmetricMatrix.identity(2)
DIAGONAL = SupportPattern.diagonal(2)
PRIOR = SupportPattern(4, [(i, i) for i in range(1, 5)] + [(2, 1), (3, 2)])


def scenario(**fields):
    return dataclasses.replace(SCENARIO, **fields)


# (id, the name the message carries, the call on one value, the bad values).
# The baselines' k is at most the 4 absent pairs or the 2 edges of PRIOR.
SITES = [
    ("gamma_p", "gamma_p", PenaltySpec.plp, POSITIVE_BAD),
    ("gamma_n", "gamma_n", PenaltySpec.nlp, POSITIVE_BAD),
    ("eta_p", "eta_p", lambda v: PenaltySpec.mixed(v, 0.1), POSITIVE_BAD),
    ("eta_n", "eta_n", lambda v: PenaltySpec.mixed(0.1, v), POSITIVE_BAD),
    ("max_iters", "max_iters", lambda v: SolverConfig(max_iters=v), INTEGER_BAD),
    ("grad_tol", "grad_tol", lambda v: SolverConfig(grad_tol=v), POSITIVE_BAD),
    ("scenario_dim", "scenario dim", lambda v: scenario(dim=v), BOUNDED_BAD),
    ("edge_density", "edge_density", lambda v: scenario(edge_density=v),
     POSITIVE_BAD + [1.5]),
    ("n_add", "n_add", lambda v: scenario(n_add=v), COUNT_BAD),
    ("n_remove", "n_remove", lambda v: scenario(n_remove=v), COUNT_BAD),
    ("scenario_seed", "scenario seed", lambda v: scenario(seed=v), COUNT_BAD),
    ("random_model_dim", "scenario dim", lambda v: random_model(v, 0.5, 0), BOUNDED_BAD),
    ("random_model_density", "edge_density", lambda v: random_model(4, v, 0),
     POSITIVE_BAD + [1.5]),
    ("random_model_seed", "scenario seed", lambda v: random_model(4, 0.5, v), COUNT_BAD),
    ("sample_count", "N", lambda v: ggm._check_sample_count(v, 4), BOUNDED_BAD),
    ("draw_samples", "N", lambda v: draw_samples(EYE, v, seed=0), BOUNDED_BAD),
    ("config_n", "N", lambda v: dataclasses.replace(CONFIG, n=v), BOUNDED_BAD),
    ("config_t_r", "t_r", lambda v: dataclasses.replace(CONFIG, t_r=v), POSITIVE_BAD),
    ("threshold", "t_r", lambda v: threshold_support(EYE, v), POSITIVE_BAD),
    ("prox_plp_step", "step", lambda v: prox_plp(LAM, v, 0.5, DIAGONAL), POSITIVE_BAD),
    ("prox_nlp_step", "step", lambda v: prox_nlp(LAM, v, 0.5, EYE, DIAGONAL),
     POSITIVE_BAD),
    ("prox_mixed_step", "step", lambda v: prox_mixed(LAM, v, 0.5, 0.5, EYE, DIAGONAL),
     POSITIVE_BAD),
    ("zero_tol", "zero_tol", lambda v: support_of(EYE, v), NOT_NUMBERS + [10**400, -1]),
    ("matrix_dim", "dim", lambda v: SymmetricMatrix(v, [1.0]), INTEGER_BAD),
    ("pattern_dim", "dim", lambda v: SupportPattern(v, ()), INTEGER_BAD),
    ("plp_baseline_k", "k", lambda v: plp_baseline(PRIOR, v), COUNT_BAD + [5, 10**400]),
    ("nlp_baseline_k", "k", lambda v: nlp_reversed_baseline(PRIOR, v),
     COUNT_BAD + [3, 10**400]),
    ("sweep_threads", "threads", lambda v: cmd_sweep("unused", CONFIG, threads=v),
     INTEGER_BAD),
]


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{site}-{value!r:.12}")
    for site, name, call, values in SITES for value in values])
def test_bad_value_raises_one_line(name, call, value):
    with pytest.raises(ValueError) as raised:
        call(value)
    message = str(raised.value)
    assert message.startswith(f"{name} must be ")
    assert "\n" not in message


@pytest.mark.parametrize("call, value", [
    (lambda v: scenario(edge_density=v), 1),
    (PenaltySpec.plp, 2),
    (PenaltySpec.plp, np.float32(0.5)),
    (lambda v: scenario(dim=v), np.int64(5)),
    (lambda v: support_of(EYE, v), 0),
    (lambda v: prox_plp(LAM, v, 0.5, DIAGONAL), 1.7976931348623157e308),
], ids=["edge_density_one", "weight_int", "weight_float32", "dim_int64", "zero_tol_zero",
        "step_max"])
def test_good_value_passes(call, value):
    call(value)


def test_rules_validate_without_rewriting():
    # The JSON integer 1 stays 1 in a scenario; only the weights become floats.
    assert type(scenario(edge_density=1).edge_density) is int
    assert type(PenaltySpec.plp(2).gamma_p) is float
