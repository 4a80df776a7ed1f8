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
    surrogate_norms,
)
from plate_fsi.timedomain.grid import (
    Grid,
    ProblemData,
    State,
    Trajectory,
    level_chunks,
    tangential_derivatives,
    vertical_derivative,
)
from plate_fsi.timedomain.nonlin import (
    nonlinear_divergence,
    nonlinear_momentum,
    nonlinear_plate_load,
)
from plate_fsi.timedomain.stepper import LinearStepper

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

    def test_rejects_no_iterations(self, grid: Grid) -> None:
        with pytest.raises(ValueError, match="max_iter"):
            fixed_point_solve(UNIT, grid, ProblemData(), max_iter=0)


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
        # residuals.  Each pass covers every level once, one call per
        # chunk of levels; the probe sweep yields its initial level as a
        # chunk of its own.  The returned scale reuses the last norm.
        from plate_fsi.timedomain import fixpoint

        calls: list[int] = []

        def counting(traj: Trajectory, grid: Grid) -> np.ndarray:
            calls.append(len(traj))
            return surrogate_norms(traj, grid)

        monkeypatch.setattr(fixpoint, "surrogate_norms", counting)
        result = fixpoint.fixed_point_solve(UNIT, grid, default_forcing(grid, 1e-3))
        assert result.iterations >= 2
        levels = grid.steps + 1
        passes = 2 * result.iterations - 1
        per_pass = len(list(level_chunks(grid, 0, levels)))
        probe = 1 + len(list(level_chunks(grid, 1, levels)))
        assert len(calls) == passes * per_pass + probe
        assert sum(calls) == 2 * levels * result.iterations
        monkeypatch.undo()
        assert result.scale == max(
            state_surrogate_norm(s, grid) for s in result.trajectory
        )


def _reference_norm(state: State, grid: Grid) -> float:
    # The per-level surrogate norm as written before levels were batched.
    total = float(np.abs(state.v).max()) + float(np.abs(state.p).max())
    for deriv in tangential_derivatives(state.v, grid, orders=(1,), bulk=True):
        total += float(np.abs(deriv).max())
    total += float(np.abs(vertical_derivative(state.v, grid.mesh)).max())
    total += float(np.abs(state.eta).max()) + float(np.abs(state.eta_t).max())
    for deriv in tangential_derivatives(state.eta, grid, orders=range(1, 5)):
        total += float(np.abs(deriv).max())
    for deriv in tangential_derivatives(state.eta_t, grid, orders=range(1, 3)):
        total += float(np.abs(deriv).max())
    return total


def _reference_sweep(
    stepper: LinearStepper, data: ProblemData, grid: Grid, source: list[State] | None
) -> list[State]:
    # One Picard sweep level by level, each step on its own data.
    state = State(
        v=data.v0.copy(),
        p=np.zeros(grid.tan_shape + (grid.M + 1,)),
        eta=data.eta0.copy(),
        eta_t=data.eta1.copy(),
    )
    out = [state]
    for k in range(grid.steps):
        if source is None:
            f_v, g, f_eta = data.f_v, data.g, data.f_eta
        else:
            frozen = source[k + 1]
            f_v = data.f_v + nonlinear_momentum(frozen, grid)
            g = data.g + nonlinear_divergence(frozen, grid)
            f_eta = data.f_eta + nonlinear_plate_load(frozen, grid)
        state = stepper.step(state, f_v=f_v, g=g, f_eta=f_eta)
        out.append(state)
    return out


def _difference(a: State, b: State) -> State:
    return State(*(fa - fb for fa, fb in zip(a.fields(), b.fields())))


class TestChunkedSweep:
    @pytest.mark.parametrize(
        "sweep_grid",
        [
            # 16 levels per chunk, 20 steps
            Grid(n=2, N=16, M=63, T=20 / 64, dt=1 / 64),
            # 10 levels per chunk, 12 steps
            Grid(n=3, N=8, M=16, T=12 / 64, dt=1 / 64),
        ],
        ids=["n2", "n3"],
    )
    def test_matches_level_by_level_reference(self, sweep_grid: Grid) -> None:
        grid = sweep_grid
        chunk = next(level_chunks(grid, 1, grid.steps + 1))
        assert 1 < chunk.stop - chunk.start < grid.steps
        assert grid.steps % (chunk.stop - chunk.start) != 0
        data = default_forcing(grid, 1e-3).materialize(grid)
        result = fixed_point_solve(UNIT, grid, data)
        assert result.converged

        stepper = LinearStepper(UNIT, grid)
        previous = None
        diffs = []
        for _ in range(result.iterations):
            traj = _reference_sweep(stepper, data, grid, previous)
            norm = max(_reference_norm(s, grid) for s in traj)
            if previous is not None:
                diffs.append(
                    max(_reference_norm(_difference(a, b), grid) for a, b in zip(traj, previous))
                )
            previous = traj
        probe = _reference_sweep(stepper, data, grid, traj)
        residuals = [_reference_norm(_difference(a, b), grid) for a, b in zip(probe, traj)]

        assert len(result.trajectory) == len(traj)
        for got, want in zip(result.trajectory, traj):
            for name in ("v", "p", "eta", "eta_t"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert result.contraction_ratios == [b / a for a, b in zip(diffs, diffs[1:])]
        assert diffs[-1] <= 1e-8 * norm
        assert result.step_residuals == residuals
        assert result.residual == max(residuals)
        assert result.scale == norm

    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_norms_equal_single_state_norms(
        self, n: int, rng: np.random.Generator
    ) -> None:
        # eta and eta_t are constant on each level, so their derivative
        # terms vanish and cannot round away how their sups are grouped
        grid = Grid(n=n, N=8, M=16, T=0.5, dt=0.25)
        tan, bulk = grid.tan_shape, grid.tan_shape + (grid.M + 1,)
        levels = (16,) + (1,) * (n - 1)
        traj = Trajectory(
            v=rng.normal(size=(16, n) + bulk),
            p=rng.normal(size=(16,) + bulk),
            eta=np.broadcast_to(rng.normal(size=levels), (16,) + tan),
            eta_t=np.broadcast_to(rng.normal(size=levels), (16,) + tan),
        )
        assert surrogate_norms(traj, grid).tolist() == [
            _reference_norm(s, grid) for s in traj
        ]


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
