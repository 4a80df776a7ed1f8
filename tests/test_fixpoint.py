"""Picard iteration for the quadratic terms: contraction, gating, diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from plate_fsi.cli import default_forcing
from plate_fsi.params import PlateParams
from plate_fsi.timedomain.fixpoint import (
    FixedPointResult,
    NoContraction,
    fixed_point_solve,
    state_surrogate_norm,
)
from plate_fsi.timedomain.grid import Grid, ProblemData, State

UNIT = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)


@pytest.fixture(scope="module")
def grid() -> Grid:
    # Reduced resolution; the acceptance suite runs the full configuration.
    return Grid(n=2, N=16, M=32, T=0.25, dt=0.03125)


@pytest.fixture(scope="module")
def small_result(grid: Grid) -> FixedPointResult:
    return fixed_point_solve(UNIT, grid, default_forcing(grid, 1e-3))


class TestGating:
    def test_rejects_subcritical_integrability_exponent(self, grid: Grid) -> None:
        data = ProblemData(p_exponent=1.2)
        with pytest.raises(ValueError, match="threshold"):
            fixed_point_solve(UNIT, grid, data)

    def test_threshold_scales_with_dimension(self) -> None:
        grid3 = Grid(n=3, N=8, M=16, T=0.125, dt=0.125)
        with pytest.raises(ValueError, match="threshold"):
            fixed_point_solve(UNIT, grid3, ProblemData(p_exponent=1.5))


class TestZeroData:
    def test_zero_data_is_a_fixed_point(self, grid: Grid) -> None:
        result = fixed_point_solve(UNIT, grid, ProblemData())
        assert result.converged
        assert result.iterations == 1
        assert result.residual == 0.0
        assert result.step_residuals == [0.0] * (grid.steps + 1)
        assert len(result.trajectory) == grid.steps + 1


class TestSmallData:
    def test_converges(self, small_result: FixedPointResult) -> None:
        assert small_result.converged

    def test_ratios_are_small(self, small_result: FixedPointResult) -> None:
        assert small_result.contraction_ratios
        assert max(small_result.contraction_ratios) < 0.5

    def test_self_consistency_residual(self, small_result: FixedPointResult) -> None:
        assert small_result.residual <= 1e-6 * small_result.scale

    def test_trajectory_is_valid(
        self, grid: Grid, small_result: FixedPointResult
    ) -> None:
        assert len(small_result.trajectory) == grid.steps + 1
        for state in small_result.trajectory:
            state.validate(grid)

    def test_max_iter_reached_reports_unconverged(self, grid: Grid) -> None:
        result = fixed_point_solve(
            UNIT, grid, default_forcing(grid, 1e-3), max_iter=2, rel_tol=1e-300
        )
        assert not result.converged
        assert result.iterations == 2
        assert result.residual > 0.0


class TestNormCalls:
    def test_each_trajectory_norm_is_computed_once(
        self, grid: Grid, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # Per iteration: the trajectory norm, plus the distance to the
        # previous iterate from the second on; then the final step
        # residuals.  The returned scale reuses the last iteration's norm.
        from plate_fsi.timedomain import fixpoint

        calls = []

        def counting(state: State, grid: Grid) -> float:
            calls.append(None)
            return state_surrogate_norm(state, grid)

        monkeypatch.setattr(fixpoint, "state_surrogate_norm", counting)
        result = fixpoint.fixed_point_solve(UNIT, grid, default_forcing(grid, 1e-3))
        assert result.iterations >= 2
        assert len(calls) == 2 * (grid.steps + 1) * result.iterations
        monkeypatch.undo()
        assert result.scale == max(
            state_surrogate_norm(s, grid) for s in result.trajectory
        )


class TestLargeData:
    def test_large_amplitude_raises_no_contraction(self, grid: Grid) -> None:
        # On this short horizon the divergence needs a bigger push than on
        # the full-length run exercised by the acceptance suite.
        with pytest.raises(NoContraction) as excinfo:
            fixed_point_solve(UNIT, grid, default_forcing(grid, 40.0))
        ratios = excinfo.value.ratios
        assert ratios and all(isinstance(r, float) for r in ratios)
        assert max(ratios) > 0.95


class TestSurrogateNorm:
    def test_zero_state(self, grid: Grid) -> None:
        assert state_surrogate_norm(State.zeros(grid), grid) == 0.0

    def test_absolutely_homogeneous(self, grid: Grid, rng: np.random.Generator) -> None:
        data = default_forcing(grid, 1.0).materialize(grid)
        state = State(
            v=data.f_v, p=data.f_v[0], eta=data.f_eta, eta_t=0.5 * data.f_eta
        )
        base = state_surrogate_norm(state, grid)
        tripled = State(
            v=3.0 * state.v, p=3.0 * state.p,
            eta=3.0 * state.eta, eta_t=3.0 * state.eta_t,
        )
        assert base > 0.0
        assert state_surrogate_norm(tripled, grid) == pytest.approx(
            3.0 * base, rel=1e-13
        )
