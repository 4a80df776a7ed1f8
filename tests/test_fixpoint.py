"""Picard iteration for the quadratic terms: contraction, gating, diagnostics."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from plate_fsi.cli import default_forcing
from plate_fsi.params import PlateParams
from plate_fsi.timedomain.fixpoint import (
    FixedPointResult,
    NoContraction,
    fixed_point_solve,
    level_sups,
    surrogate_norms,
)
from plate_fsi.timedomain.grid import (
    Grid,
    ProblemData,
    Trajectory,
    level_chunks,
    tangential_derivatives,
    vertical_derivative,
)
from plate_fsi.timedomain.nonlin import nonlinear_divergence, nonlinear_terms
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

    @pytest.mark.parametrize("rel_tol", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, grid: Grid, rel_tol: float) -> None:
        with pytest.raises(ValueError, match="rel_tol must be finite and nonnegative"):
            fixed_point_solve(UNIT, grid, ProblemData(), rel_tol=rel_tol)


def _count_marches(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    marches: list[int] = []
    run = LinearStepper.run

    def counting(self, *args, **kwargs):
        marches.append(1)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(LinearStepper, "run", counting)
    return marches


class TestZeroData:
    def test_zero_data_is_a_fixed_point(
        self, grid: Grid, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        marches = _count_marches(monkeypatch)
        result = fixed_point_solve(UNIT, grid, ProblemData())
        assert len(marches) == 1
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

    @pytest.mark.parametrize("amplitude", [1e-4, 1e-3, 1e-2])
    def test_first_ratio_is_linear_in_the_amplitude(self, grid: Grid, amplitude: float) -> None:
        # The correction is quadratic and the surrogate norm homogeneous,
        # so doubling the data doubles the first contraction ratio.
        first, doubled = (
            fixed_point_solve(UNIT, grid, default_forcing(grid, a)).contraction_ratios[0]
            for a in (amplitude, 2.0 * amplitude)
        )
        # measured on this grid: doubled / (2 first) - 1 = 4.9e-5, -3.8e-5, -3.7e-4
        assert doubled == pytest.approx(2.0 * first, rel=1e-3)

    def test_trajectory_is_valid(
        self, grid: Grid, small_result: FixedPointResult
    ) -> None:
        traj = small_result.trajectory
        levels = grid.steps + 1
        bulk = grid.tan_shape + (grid.M + 1,)
        shapes = ((grid.n,) + bulk, bulk, grid.tan_shape, grid.tan_shape)
        for field, shape in zip(traj.fields(), shapes):
            assert field.shape == (levels,) + shape
            assert np.isfinite(field).all()

    def test_one_step_residual_per_level(
        self, grid: Grid, small_result: FixedPointResult
    ) -> None:
        # the converged path, the path stopped by max_iter, the zero-data path
        assert small_result.converged
        for result in (
            small_result,
            fixed_point_solve(UNIT, grid, default_forcing(grid, 1e-3), max_iter=1),
            fixed_point_solve(UNIT, grid, ProblemData()),
        ):
            assert len(result.step_residuals) == len(result.trajectory) == grid.steps + 1

    def test_max_iter_reached_reports_unconverged(self, grid: Grid) -> None:
        result = fixed_point_solve(
            UNIT, grid, default_forcing(grid, 1e-3), max_iter=2, rel_tol=1e-300
        )
        assert not result.converged
        assert result.iterations == 2
        assert result.residual > 0.0

    def test_one_iteration_is_probed_by_the_second_sweep(
        self, grid: Grid, monkeypatch: pytest.MonkeyPatch, one_step
    ) -> None:
        marches = _count_marches(monkeypatch)
        data = default_forcing(grid, 1e-3).materialize(grid)
        result = fixed_point_solve(UNIT, grid, data, max_iter=1)
        assert len(marches) == 2
        assert not result.converged
        assert result.iterations == 1
        assert result.contraction_ratios == []
        monkeypatch.undo()

        step = one_step(UNIT, grid)
        first = _reference_sweep(step, data, grid, None)
        second = _reference_sweep(step, data, grid, first)
        for got, want in zip(_levels(result.trajectory), first):
            assert np.array_equal(got.v, want.v)
        residuals = [_reference_norm(_difference(a, b), grid) for a, b in zip(second, first)]
        assert result.step_residuals == residuals
        assert result.residual == max(residuals) > 0.0
        assert result.scale == max(_reference_norm(s, grid) for s in first)


class TestNormCalls:
    def test_each_source_level_norm_is_taken_once_per_sweep(
        self, grid: Grid, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # Every sweep after the linear one differentiates each chunk of
        # source levels once, for its norm and its quadratic terms, and
        # takes the gap of each new chunk once.  The initial level is the
        # same in every iterate: its norm is taken once, its gap is zero.
        from plate_fsi.timedomain import fixpoint, nonlin

        shared: list[int] = []  # levels normed from shared derivatives
        own: list[int] = []  # levels normed from their own derivatives

        def counting(traj: Trajectory, grid: Grid, derivs=None) -> np.ndarray:
            (own if derivs is None else shared).append(len(traj))
            return surrogate_norms(traj, grid, derivs)

        def unshared(*args, **kwargs):
            raise AssertionError("nonlinear_terms took its own derivatives")

        monkeypatch.setattr(fixpoint, "surrogate_norms", counting)
        monkeypatch.setattr(nonlin, "derivatives", unshared)
        result = fixpoint.fixed_point_solve(UNIT, grid, default_forcing(grid, 1e-3))
        assert result.iterations >= 2
        # one sweep per iteration follows the linear one, the last the probe
        sizes = [c.stop - c.start for c in level_chunks(grid)]
        assert shared == sizes * result.iterations
        assert own == [1] + shared
        monkeypatch.undo()
        assert result.scale == max(_state_norm(s, grid) for s in _levels(result.trajectory))
        assert result.step_residuals[0] == 0.0


def _count_sweeps(monkeypatch: pytest.MonkeyPatch) -> list[bool]:
    """Record the ``keep`` flag of every frozen sweep."""
    from plate_fsi.timedomain import fixpoint

    sweeps: list[bool] = []
    sweep = fixpoint._frozen_sweep

    def counting(stepper, data, source, keep):
        sweeps.append(keep)
        return sweep(stepper, data, source, keep)

    monkeypatch.setattr(fixpoint, "_frozen_sweep", counting)
    return sweeps


class TestOneIterate:
    """Each sweep overwrites its source; only the last one keeps nothing."""

    @pytest.mark.parametrize(
        ("run_grid", "limits", "converged"),
        [
            (None, {}, True),
            (None, {"max_iter": 2, "rel_tol": 1e-300}, False),
            # a difference at the rounding floor repeats bit for bit, which
            # stops the run before max_iter
            (Grid(N=128, M=32, T=0.125, dt=0.5 / 64), {"rel_tol": 0.0}, False),
        ],
        ids=["converged", "max-iter", "floor-repeat"],
    )
    def test_only_the_last_sweep_is_the_probe(
        self,
        grid: Grid,
        monkeypatch: pytest.MonkeyPatch,
        run_grid: Grid | None,
        limits: dict,
        converged: bool,
    ) -> None:
        run_grid = run_grid or grid
        sweeps = _count_sweeps(monkeypatch)
        result = fixed_point_solve(UNIT, run_grid, default_forcing(run_grid, 1e-3), **limits)
        assert result.converged == converged
        # the converged and the repeating run stop before max_iter = 25
        assert 2 <= result.iterations <= limits.get("max_iter", 24)
        assert sweeps == [True] * (result.iterations - 1) + [False]

    def test_peak_memory_is_one_trajectory_and_chunk_transients(self) -> None:
        # 129 levels of 10-level chunks: the trajectory dominates the
        # transients of a chunk
        grid = Grid(n=3, N=8, M=16, T=1.0, dt=1 / 128)
        data = default_forcing(grid, 1e-3)
        tracemalloc.start()
        try:
            result = fixed_point_solve(UNIT, grid, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(f.nbytes for f in result.trajectory.fields())
        # measured: 1.77 trajectories; 2.71 while a sweep kept its source
        # and the new iterate whole
        assert peak < 2.2 * size

    @pytest.mark.parametrize("keep", [True, False], ids=["keep", "probe"])
    def test_sweep_transients_per_chunk_level(self, keep: bool) -> None:
        from plate_fsi.timedomain import fixpoint

        # eight steps in one chunk of eight levels
        grid = Grid(n=3, N=8, M=16, T=0.25, dt=1 / 32)
        assert [s.stop - s.start for s in level_chunks(grid)] == [8]
        data = default_forcing(grid, 1e-3)
        stepper = LinearStepper(UNIT, grid)
        source = stepper.run(data)
        fixpoint._frozen_sweep(stepper, data, source, keep=False)  # fills the caches
        tracemalloc.start()
        try:
            fixpoint._frozen_sweep(stepper, data, source, keep=keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        level = sum(f[0].nbytes for f in source.fields())
        # measured: 4.97 levels per chunk level; 5.5 while each two-axis
        # transform made its complex pass in a new array, and 7.9 when the
        # momentum was summed over all components at once and the gap and
        # its derivatives were held whole
        assert peak < 5.2 * 8 * level


def _levels(traj: Trajectory) -> list[Trajectory]:
    """Every level of ``traj`` as a one-level trajectory."""
    return [traj[k: k + 1] for k in range(len(traj))]


def _reference_norm(state: Trajectory, grid: Grid) -> float:
    # The surrogate norm of one level as written before levels were batched.
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


def _state_norm(state: Trajectory, grid: Grid) -> float:
    (norm,) = surrogate_norms(state, grid)
    return float(norm)


def _reference_sweep(
    step, data: ProblemData, grid: Grid, source: list[Trajectory] | None
) -> list[Trajectory]:
    # One Picard sweep level by level, each step on its own data; every
    # level is a one-level trajectory.
    state = data.initial(grid)
    out = [state]
    for k in range(grid.steps):
        if source is None:
            f_v, g, f_eta = data.f_v, data.g, data.f_eta
        else:
            frozen = source[k + 1]
            momentum, _, plate_load = nonlinear_terms(frozen, grid)
            f_v = data.f_v + momentum[0]
            g = data.g + nonlinear_divergence(frozen, grid)[0]
            f_eta = data.f_eta + plate_load[0]
        state = step(state, f_v=f_v, g=g, f_eta=f_eta)
        out.append(state)
    return out


def _difference(a: Trajectory, b: Trajectory) -> Trajectory:
    return Trajectory(*(fa - fb for fa, fb in zip(a.fields(), b.fields())))


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
    def test_matches_level_by_level_reference(self, sweep_grid: Grid, one_step) -> None:
        grid = sweep_grid
        chunk = next(level_chunks(grid))
        assert 1 < chunk.stop - chunk.start < grid.steps
        assert grid.steps % (chunk.stop - chunk.start) != 0
        data = default_forcing(grid, 1e-3).materialize(grid)
        result = fixed_point_solve(UNIT, grid, data)
        assert result.converged

        step = one_step(UNIT, grid)
        previous = None
        diffs = []
        norms = []
        for _ in range(result.iterations):
            traj = _reference_sweep(step, data, grid, previous)
            norms.append(max(_reference_norm(s, grid) for s in traj))
            if previous is not None:
                diffs.append(
                    max(_reference_norm(_difference(a, b), grid) for a, b in zip(traj, previous))
                )
            previous = traj
        probe = _reference_sweep(step, data, grid, traj)
        residuals = [_reference_norm(_difference(a, b), grid) for a, b in zip(probe, traj)]

        assert len(result.trajectory) == len(traj)
        for got, want in zip(_levels(result.trajectory), traj):
            for name in ("v", "p", "eta", "eta_t"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert result.contraction_ratios == [b / a for a, b in zip(diffs, diffs[1:])]
        assert diffs[-1] <= 1e-8 * norms[-1]
        # converged is judged against the norm of the iterate before: the
        # returned one is the first whose gap clears it
        assert diffs[-1] <= 1e-8 * norms[-2]
        assert diffs[-2] > 1e-8 * norms[-3]
        assert result.step_residuals == residuals
        assert result.residual == max(residuals)
        assert result.scale == norms[-1]

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
            _reference_norm(s, grid) for s in _levels(traj)
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


class TestNonFinite:
    def test_overflowing_iterate_raises_without_warnings(self, grid: Grid) -> None:
        # The quadratic terms of the second iterate overflow.  The warnings
        # filter turns any floating-point warning on the way into an error.
        with pytest.raises(NoContraction, match="iterate 3 left the finite range") as excinfo:
            fixed_point_solve(UNIT, grid, default_forcing(grid, 1e100))
        assert excinfo.value.ratios == []


class TestSurrogateNorm:
    def test_zero_state(self, grid: Grid) -> None:
        assert _state_norm(ProblemData().initial(grid), grid) == 0.0

    def test_absolutely_homogeneous(self, grid: Grid, rng: np.random.Generator) -> None:
        data = default_forcing(grid, 1.0).materialize(grid)
        state = Trajectory(
            *(f[np.newaxis] for f in (data.f_v, data.f_v[0], data.f_eta, 0.5 * data.f_eta))
        )
        base = _state_norm(state, grid)
        tripled = Trajectory(*(3.0 * f for f in state.fields()))
        assert base > 0.0
        assert _state_norm(tripled, grid) == pytest.approx(
            3.0 * base, rel=1e-13
        )

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, 0.0, 0.0],
            [-0.0, -0.0, -0.0],
            [0.0, -0.0, -0.0],
            [1.5, np.nan, -2.0],
            [-np.inf, 1.0, 0.0],
            [np.inf, -np.inf, -0.0],
        ],
        ids=["plus-zeros", "minus-zeros", "mixed-zeros", "nan", "minus-inf", "both-inf"],
    )
    def test_level_sups_equal_the_abs_form_bit_for_bit(self, values: list[float]) -> None:
        row = np.array(values)
        with np.errstate(invalid="ignore"):
            # the NaN of inf - inf, whose sign bit is set on common hardware
            nan = np.subtract(np.array([np.inf]), np.inf)
        # one level per row; the last mixes in a NaN of the other sign
        field = np.stack([row, row[::-1], np.where(np.isnan(row), nan, row)])
        for shaped in (field, np.broadcast_to(field[:, :, np.newaxis], (3, 3, 2))):
            axes = tuple(range(1, shaped.ndim))
            assert level_sups(shaped).tobytes() == np.abs(shaped).max(axis=axes).tobytes()
