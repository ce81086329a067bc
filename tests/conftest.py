"""Shared helpers for the test suite."""

import numpy as np
import pytest
import scipy
from hypothesis import settings

from ggmlink import ScenarioSpec, SymmetricMatrix
from ggmlink import draw_samples, perturb_model, random_model, sample_covariance

# Deterministic draws keep tier-1 reproducible; each property test bounds
# its own time with max_examples.
settings.register_profile("ggmlink", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("ggmlink")


def random_pd(dim, rng, scale=1.0):
    """Random symmetric positive definite matrix (shifted Gram form)."""
    a = rng.standard_normal((dim, dim))
    arr = a @ a.T / dim + scale * np.eye(dim)
    return SymmetricMatrix.from_array(arr, tol=1e-9)


def random_symmetric(dim, rng):
    a = np.tril(rng.standard_normal((dim, dim)))
    return SymmetricMatrix.from_array(a + np.tril(a, -1).T, tol=0.0)


def make_instance(seed, dim=6, density=0.3, n_add=1, n_remove=1, n_obs=300):
    """Prior model, perturbed truth, and a sample covariance from it."""
    state = np.random.SeedSequence(seed).generate_state(3)
    prior = random_model(dim, density, int(state[0]))
    truth = perturb_model(prior, ScenarioSpec(
        dim=dim, edge_density=density, n_add=n_add, n_remove=n_remove,
        seed=int(state[1])))
    t_hat = sample_covariance(draw_samples(truth.covariance, n_obs, int(state[2])))
    return prior, truth, t_hat


def pytest_report_header(config):
    """The BLAS of numpy and of scipy: the digests that pinned tests record
    move with the BLAS that rounds, so a failure on another host shows at
    once which one ran."""
    lines = []
    for module in (np, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        lines.append(f"{module.__name__} {module.__version__}: BLAS "
                     f"{blas.get('name')} {blas.get('version')}")
    return lines


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
