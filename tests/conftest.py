"""Shared fixtures: benchmark models and a session-wide generator cache."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gibbslab.generators import davies_generator, localised_generator
from gibbslab.weights import balanced_gamma, kms_gamma
from oracles import benchmark_models

settings.register_profile(
    "lab",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")

PHI_NAMES = ("gaussian", "sech", "exp_abs")
SIGMA_GRID = (0.5, 1.0, 2.0)


@pytest.fixture(scope="session")
def benchmarks():
    """The four standard models, built once."""
    return benchmark_models()


@pytest.fixture(scope="session")
def filtered_battery(benchmarks):
    """Every benchmark x profile x bandwidth filtered generator, built once.

    Keyed by ``(model_id, phi_name, sigma)``.  Shared across the invariant
    tests and the acceptance criteria so the expensive assemblies happen a
    single time per session.
    """
    battery = {}
    for model in benchmarks:
        for phi in PHI_NAMES:
            for sigma in SIGMA_GRID:
                bundle = localised_generator(model, balanced_gamma(phi, sigma), sigma)
                battery[(model.model_id, phi, sigma)] = bundle
    return battery


@pytest.fixture(scope="session")
def davies_battery(benchmarks):
    """Every benchmark x detailed-balance weight, built once."""
    battery = {}
    for model in benchmarks:
        for kind in ("glauber", "metropolis"):
            battery[(model.model_id, kind)] = davies_generator(model, kms_gamma(kind))
    return battery
