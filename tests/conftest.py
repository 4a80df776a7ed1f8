"""Shared fixtures and deterministic hypothesis settings."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from plate_fsi.timedomain.grid import ProblemData, Trajectory
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
    """``one_step(params, grid)`` gives ``step(start, f_v=None, g=None, f_eta=None)``.

    One implicit Euler step from the one-level trajectory ``start`` under
    the given data: the march over a horizon of one ``dt`` from the
    initial data ``start`` holds, its stepper built once.  Returns the new
    level as a one-level trajectory.
    """

    def build(params, grid):
        stepper = LinearStepper(params, dataclasses.replace(grid, T=grid.dt))

        def step(start: Trajectory, f_v=None, g=None, f_eta=None) -> Trajectory:
            data = ProblemData(
                f_v=f_v, g=g, f_eta=f_eta,
                v0=start.v[0], eta0=start.eta[0], eta1=start.eta_t[0],
            )
            return stepper.run(data)[1:]

        return step

    return build
