"""Shared fixtures and deterministic hypothesis settings."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from plate_fsi.timedomain.grid import ProblemData, State
from plate_fsi.timedomain.stepper import LinearStepper

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def one_step():
    """``one_step(params, grid)`` gives ``step(state, f_v=None, g=None, f_eta=None)``.

    One implicit Euler step from ``state`` under the given data: the march
    over a horizon of one ``dt``, its stepper built once.
    """

    def build(params, grid):
        stepper = LinearStepper(params, dataclasses.replace(grid, T=grid.dt))

        def step(state: State, f_v=None, g=None, f_eta=None) -> State:
            return stepper.run(state, ProblemData(f_v=f_v, g=g, f_eta=f_eta))[1]

        return step

    return build
