"""Implicit Euler stepper: discrete constraints, energy decay, mode structure."""

from __future__ import annotations

from collections import Counter
from math import pi

import numpy as np
import pytest
import scipy.sparse as sp

from plate_fsi.frequency import solve_displacement
from plate_fsi.params import Freq, PlateParams
from plate_fsi.timedomain import stepper as stepper_module
from plate_fsi.timedomain.grid import (
    Grid,
    ProblemData,
    Trajectory,
    VerticalMesh,
    cell_average,
    cell_difference,
    level_chunks,
)
from plate_fsi.timedomain.laplace import mode_response_reference
from plate_fsi.timedomain.stepper import (
    LinearStepper,
    ModeStepper,
    SolverSingular,
    staggered_divergence,
    total_energy,
)

UNIT = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)


def _mode_step(
    mode: ModeStepper, v, eta, psi, f_v=None, g=None, f_eta=0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One :meth:`ModeStepper.step` in per-field form.

    ``v`` and ``f_v`` have shape ``batch + (n, M + 1)``, ``g`` is the
    divergence datum on the nodes, ``batch + (M + 1,)``, averaged onto the
    cells here; ``eta``, ``psi`` and ``f_eta`` broadcast to the batch.
    Returns ``(v, p_mid, eta, psi)``.
    """
    M, batch = mode.mesh.M, mode.batch
    v = np.asarray(v)
    i_p = v.shape[-2] * (M + 1)
    state = np.zeros(batch + (i_p + 2,), dtype=complex)
    state[..., :i_p] = v.reshape(batch + (i_p,))
    state[..., -2], state[..., -1] = eta, psi
    forcing = np.zeros(batch + (mode.size,), dtype=complex)
    if f_v is not None:
        forcing[..., :i_p] = np.reshape(f_v, batch + (i_p,))
    if g is not None:
        forcing[..., i_p: i_p + M] = cell_average(np.asarray(g, dtype=complex))
    forcing[..., -1] = f_eta
    new = mode.step(state, forcing)
    return new[..., :i_p].reshape(v.shape), new[..., i_p: i_p + M], new[..., -2], new[..., -1]


@pytest.fixture(scope="module")
def grid2() -> Grid:
    return Grid(n=2, N=16, M=32, T=0.5, dt=0.0625)


@pytest.fixture(scope="module")
def stepper2(grid2: Grid) -> LinearStepper:
    return LinearStepper(UNIT, grid2)


@pytest.fixture(scope="module")
def step2(grid2: Grid, one_step):
    return one_step(UNIT, grid2)


def _smooth_state(grid: Grid, rng: np.random.Generator) -> Trajectory:
    """One level of band-limited tangential waves times decaying vertical profiles."""
    (x,) = grid.tangential_coordinates()
    xn = grid.mesh.nodes
    k = 2.0 * pi / grid.L

    def wave() -> np.ndarray:
        return (
            rng.normal() * np.cos(k * x)
            + rng.normal() * np.sin(2.0 * k * x)
            + rng.normal()
        )

    bulk = grid.tan_shape + (grid.M + 1,)
    v = np.empty((grid.n,) + bulk)
    for d in range(grid.n):
        v[d] = wave()[..., np.newaxis] * np.exp(-(d + 1) * xn / grid.L)
    p = wave()[..., np.newaxis] * np.exp(-xn / grid.L)
    eta = 0.1 * wave()
    eta_t = 0.1 * wave()
    return Trajectory(*(f[np.newaxis] for f in (v, p, eta, eta_t)))


def _initial_data(level: Trajectory) -> ProblemData:
    """Unforced data whose initial state is the one-level ``level``."""
    return ProblemData(v0=level.v[0], eta0=level.eta[0], eta1=level.eta_t[0])


def _assert_valid_level(traj: Trajectory, grid: Grid) -> None:
    """``traj`` is one level of finite real fields in the grid's layout."""
    bulk = grid.tan_shape + (grid.M + 1,)
    shapes = ((grid.n,) + bulk, bulk, grid.tan_shape, grid.tan_shape)
    for field, shape in zip(traj.fields(), shapes):
        assert field.shape == (1,) + shape
        assert field.dtype == np.float64
        assert np.isfinite(field).all()


class TestModeStepper:
    def test_zero_input_stays_zero(self, grid2: Grid) -> None:
        mode = ModeStepper(UNIT, (1.0,), grid2.mesh, grid2.dt)
        new = mode.step(np.zeros(mode.size - grid2.M), np.zeros(mode.size))
        assert new.shape == (mode.size,)
        assert np.abs(new).max() == 0.0

    def test_displacement_update_is_implicit(self, grid2: Grid) -> None:
        # eta_new = eta_old + dt * psi_new is an exact row of the system.
        mode = ModeStepper(UNIT, (1.0,), grid2.mesh, grid2.dt)
        v0 = np.zeros((2, grid2.M + 1), dtype=complex)
        _, _, eta, psi = _mode_step(mode, v0, 0.3 + 0.1j, -0.2j, f_eta=1.0 + 0.5j)
        assert eta == pytest.approx((0.3 + 0.1j) + grid2.dt * psi, rel=1e-13)

    def test_validation(self, grid2: Grid) -> None:
        with pytest.raises(ValueError, match="dt"):
            ModeStepper(UNIT, (1.0,), grid2.mesh, 0.0)
        with pytest.raises(ValueError, match="tangential"):
            ModeStepper(UNIT, (), grid2.mesh, 0.1)
        mode = ModeStepper(UNIT, (1.0,), grid2.mesh, 0.1)
        with pytest.raises(ValueError, match="state has shape"):
            mode.step(np.zeros(mode.size), np.zeros(mode.size))
        with pytest.raises(ValueError, match="forcing has shape"):
            mode.step(np.zeros(mode.size - grid2.M), np.zeros(mode.size - 1))

    def test_singular_error_is_runtime_error(self) -> None:
        assert issubclass(SolverSingular, RuntimeError)

    def test_gradient_is_negative_adjoint_of_divergence(
        self, grid2: Grid, rng: np.random.Generator
    ) -> None:
        # <p, div v>_H = -<grad p, v>_W for node velocities with zero end
        # values, with div taken from the staggered pair's kernels and grad
        # read off the pressure columns of the assembled momentum rows.
        mesh = grid2.mesh
        M, h, w = mesh.M, mesh.spacings, mesh.weights
        xi = rng.normal(size=2)
        mode = ModeStepper(UNIT, xi, mesh, grid2.dt)
        n_vel = 3 * (M + 1)
        v = rng.normal(size=(3, M + 1)) + 1j * rng.normal(size=(3, M + 1))
        v[:, [0, M]] = 0.0
        p = rng.normal(size=M) + 1j * rng.normal(size=M)
        div = 1j * xi @ cell_average(v[:2]) + cell_difference(v[2]) / h
        matrix = mode.matrix()
        grad = (matrix[:n_vel, n_vel: n_vel + M] @ p).reshape(3, M + 1)
        lhs = np.sum(h * np.conj(p) * div)
        rhs = -np.sum(w * np.conj(grad) * v)
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)
        # the divergence rows of the matrix are that same divergence
        np.testing.assert_allclose(
            matrix[n_vel: n_vel + M, :n_vel] @ v.ravel(), div,
            rtol=0, atol=1e-13 * np.abs(div).max(),
        )

    def test_singular_factorization_raises_solver_singular(
        self, grid2: Grid, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        def singular(matrix):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(stepper_module, "splu", singular)
        with pytest.raises(SolverSingular, match="exactly singular"):
            ModeStepper(UNIT, np.ones((1, 3)), grid2.mesh, grid2.dt)


# Off-default coefficients, a period that makes |xi|^2 non-integer and a
# step that is no power of two, so rounding differences cannot hide.
SKEW = PlateParams(alpha=1.0734, beta=0.31, gamma=0.917)


def _skew_grid(n: int) -> Grid:
    return Grid(n=n, N=8, M=16, L=7.3, X=40.0, T=0.09, dt=0.03)


def _modes(grid: Grid) -> list[tuple[int, ...]]:
    """Spectral indices of the non-Nyquist modes, in C order."""
    mask = grid.nyquist_mask()
    return [idx for idx in np.ndindex(mask.shape) if not mask[idx]]


def _mode_xi(grid: Grid, idx: tuple[int, ...]) -> list[float]:
    return [float(x[idx]) for x in np.broadcast_arrays(*grid.wavenumbers())]


class TestBatchedModes:
    """A batch of modes is the per-mode operator, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix_is_block_diagonal_of_single_modes(self, n: int) -> None:
        grid = _skew_grid(n)
        xis = np.array([_mode_xi(grid, idx) for idx in _modes(grid)]).T
        batch = xis.reshape((n - 1, 2, -1))
        got = ModeStepper(SKEW, batch, grid.mesh, grid.dt).matrix()
        want = sp.block_diag(
            [ModeStepper(SKEW, xi, grid.mesh, grid.dt).matrix() for xi in xis.T],
            format="csc",
        )
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)

    def test_batched_step_equals_single_mode_steps(
        self, rng: np.random.Generator
    ) -> None:
        grid = _skew_grid(3)
        M, batch = grid.M, (2, 3)
        xi = rng.normal(size=(2,) + batch)

        def cplx(*shape: int) -> np.ndarray:
            return rng.normal(size=batch + shape) + 1j * rng.normal(size=batch + shape)

        v, g, f_v = cplx(3, M + 1), cplx(M + 1), cplx(3, M + 1)
        eta, psi, f_eta = cplx(), cplx(), cplx()
        got = _mode_step(ModeStepper(SKEW, xi, grid.mesh, grid.dt), v, eta, psi, f_v, g, f_eta)
        for idx in np.ndindex(batch):
            mode = ModeStepper(SKEW, xi[(slice(None),) + idx], grid.mesh, grid.dt)
            want = _mode_step(mode, v[idx], eta[idx], psi[idx], f_v[idx], g[idx], f_eta[idx])
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a[idx], b)

    def test_linear_step_equals_stepping_each_mode(
        self, rng: np.random.Generator, one_step
    ) -> None:
        grid = _skew_grid(3)
        M, shape = grid.M, grid.nyquist_mask().shape
        bulk = grid.tan_shape + (M + 1,)
        data = ProblemData(
            v0=rng.normal(size=(3,) + bulk),
            eta0=rng.normal(size=grid.tan_shape), eta1=rng.normal(size=grid.tan_shape),
        )
        f_v, g = rng.normal(size=(3,) + bulk), rng.normal(size=bulk)
        f_eta = rng.normal(size=grid.tan_shape)
        got = one_step(SKEW, grid)(data.initial(grid), f_v=f_v, g=g, f_eta=f_eta)

        # the per-mode loop: one 0-d ModeStepper for every spectral entry
        axes = (1, 2)
        v_spec, fv_spec = (np.fft.rfftn(f, axes=axes) for f in (data.v0, f_v))
        g_spec = np.fft.rfftn(g, axes=(0, 1))
        eta_spec, psi_spec, fe_spec = (
            np.fft.rfftn(f) for f in (data.eta0, data.eta1, f_eta)
        )
        v_out = np.zeros((3,) + shape + (M + 1,), dtype=complex)
        p_out = np.zeros(shape + (M,), dtype=complex)
        eta_out = np.zeros(shape, dtype=complex)
        psi_out = np.zeros(shape, dtype=complex)
        for idx in _modes(grid):
            vec = (slice(None),) + idx
            mode = ModeStepper(SKEW, _mode_xi(grid, idx), grid.mesh, grid.dt)
            v_out[vec], p_out[idx], eta_out[idx], psi_out[idx] = _mode_step(
                mode, v_spec[vec], eta_spec[idx], psi_spec[idx],
                fv_spec[vec], g_spec[idx], fe_spec[idx],
            )
        tan = grid.tan_shape
        np.testing.assert_array_equal(got.v[0], np.fft.irfftn(v_out, s=tan, axes=axes))
        p_mid = np.fft.irfftn(p_out, s=tan, axes=(0, 1))
        np.testing.assert_array_equal(got.p[0], grid.mesh.midpoints_to_nodes(p_mid))
        np.testing.assert_array_equal(got.eta[0], np.fft.irfftn(eta_out, s=tan, axes=(0, 1)))
        np.testing.assert_array_equal(got.eta_t[0], np.fft.irfftn(psi_out, s=tan, axes=(0, 1)))

    def test_plate_row_rounds_as_scalar_arithmetic(
        self, rng: np.random.Generator, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # The plate row of a mode carries alpha |xi|^4 + beta |xi|^2 and the
        # right-hand side psi / dt - f_eta, as Python floats and complex
        # numbers round them.  At these covectors |xi|^4 taken as z2 * z2
        # changes the entry in the last bit.
        grid = _skew_grid(3)
        dt = grid.dt
        for xi in ([8.46589237086807, 1.4628850311400552],
                   [2.179182757294557, 0.9397505725844163]):
            mode = ModeStepper(SKEW, xi, grid.mesh, dt)
            z2 = sum(x * x for x in xi)
            plate = mode.matrix()[mode.size - 1, mode.size - 2]
            assert plate == SKEW.alpha * z2**2 + SKEW.beta * z2

        class Capture:
            def solve(self, b: np.ndarray) -> np.ndarray:
                self.b = b.copy()
                return np.zeros_like(b)

        capture = Capture()
        monkeypatch.setattr(stepper_module, "splu", lambda matrix: capture)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        f_eta = rng.normal(size=64) + 1j * rng.normal(size=64)
        batch = ModeStepper(SKEW, rng.normal(size=(2, 64)), grid.mesh, dt)
        _mode_step(batch, np.zeros((64, 3, grid.M + 1)), 0.0, psi, f_eta=f_eta)
        rhs = capture.b.reshape(64, -1)[:, -1]
        want = [p / dt - f for p, f in zip(psi.tolist(), f_eta.tolist())]
        np.testing.assert_array_equal(rhs, want)


class TestMirroredModes:
    """A mode ``(-xi_1, xi_2)`` is solved on the block of ``(xi_1, xi_2)``.

    The stepper relies on three exact facts, each pinned here: the
    mirrored matrix is ``D A D`` entry for entry (``D = -1`` on ``u_1``),
    a two-column step is two one-column steps bit for bit, and only the
    ``xi_1 >= 0`` half of the modes is factorized.
    """

    def test_mirrored_matrix_is_d_a_d(self) -> None:
        grid = _skew_grid(3)
        N, M = grid.N, grid.M
        pairs = 0
        for r, c in _modes(grid):
            if not 0 < r < N // 2:
                continue
            xi, mirrored = _mode_xi(grid, (r, c)), _mode_xi(grid, ((N - r) % N, c))
            assert mirrored == [-xi[0], xi[1]]
            a = ModeStepper(SKEW, xi, grid.mesh, grid.dt).matrix()
            got = ModeStepper(SKEW, mirrored, grid.mesh, grid.dt).matrix()
            d = np.ones(a.shape[0])
            d[: M + 1] = -1.0
            cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
            want = a.data * (d[a.indices] * d[cols])
            np.testing.assert_array_equal(got.indptr, a.indptr)
            np.testing.assert_array_equal(got.indices, a.indices)
            assert np.array_equal(got.data, want)
            assert np.array_equal(np.signbit(got.data.view(float)), np.signbit(want.view(float)))
            pairs += 1
        assert pairs == (N // 2 - 1) * (N // 2)

    def test_two_columns_are_two_single_column_steps(
        self, rng: np.random.Generator
    ) -> None:
        # Bit for bit, zero signs included: a SciPy whose multi-column solve
        # rounds differently from its one-column solve fails here.
        grid = _skew_grid(3)
        M = grid.M
        mode = ModeStepper(SKEW, rng.normal(size=(2, 5)), grid.mesh, grid.dt)

        def cplx(*shape: int) -> np.ndarray:
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        state, forcing = cplx(2, 5, mode.size - M), cplx(2, 5, mode.size)
        got = mode.step(state, forcing)
        assert got.shape == (2, 5, mode.size)
        for column in range(2):
            want = mode.step(state[column], forcing[column])
            assert np.array_equal(got[column], want)
            assert np.array_equal(
                np.signbit(got[column].view(float)), np.signbit(want.view(float))
            )

    def test_lead_axis_is_validated(self) -> None:
        grid = _skew_grid(3)
        mode = ModeStepper(SKEW, np.ones((2, 3)), grid.mesh, grid.dt)
        state = np.zeros((2, 3, mode.size - grid.M))
        with pytest.raises(ValueError, match="forcing has shape"):
            mode.step(state, np.zeros((1, 3, mode.size)))
        with pytest.raises(ValueError, match="state has shape"):
            mode.step(state[np.newaxis], np.zeros((1, 2, 3, mode.size)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_factorizes_the_nonnegative_half(
        self, n: int, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        grid = _skew_grid(n)
        size = n * (grid.M + 1) + grid.M + 2
        blocks = (grid.N // 2) ** (n - 1)
        splu = stepper_module.splu
        # the default budget, one group on these grids, and three blocks
        for per_group in (stepper_module._GROUP_UNKNOWNS // size, 3):
            monkeypatch.setattr(stepper_module, "_GROUP_UNKNOWNS", per_group * size)
            shapes = []

            def recorded(matrix):
                shapes.append(matrix.shape)
                return splu(matrix)

            monkeypatch.setattr(stepper_module, "splu", recorded)
            LinearStepper(SKEW, grid)
            # square groups of whole blocks that together cover the
            # xi_1 >= 0 half once, as few as the budget allows
            assert all(rows == cols and rows % size == 0 for rows, cols in shapes)
            assert sum(rows for rows, _ in shapes) == blocks * size
            assert max(rows for rows, _ in shapes) <= per_group * size
            assert len(shapes) == -(-blocks // per_group)

    def test_singular_message_counts_blocks_and_modes(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        grid = Grid(n=3, N=32, M=16, T=0.25, dt=0.25)
        size = 3 * (grid.M + 1) + grid.M + 2
        monkeypatch.setattr(stepper_module, "_GROUP_UNKNOWNS", 100 * size)
        splu = stepper_module.splu
        calls = []

        def singular_second(matrix):
            calls.append(matrix.shape)
            if len(calls) == 2:
                raise RuntimeError("Factor is exactly singular")
            return splu(matrix)

        monkeypatch.setattr(stepper_module, "splu", singular_second)
        with pytest.raises(
            SolverSingular,
            match=r"^256 blocks for 496 modes: group 2 of 3 \(blocks 85 to 169\) "
            r"failed to factorize \(Factor is exactly singular\); its matrix 1-norm ~ ",
        ):
            LinearStepper(UNIT, grid)
        assert calls[1] == (85 * size, 85 * size)


class TestGroupedFactorization:
    """Factorizing the blocks in groups changes no bit of a step."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("per_group", [1, 3])
    def test_grouped_step_equals_one_group(
        self, n: int, per_group: int, rng: np.random.Generator,
        monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        grid = _skew_grid(n)
        xis = np.array([_mode_xi(grid, idx) for idx in _modes(grid)]).T
        # a batch axis of two, the lead axis of two columns in 3D
        batch = xis.reshape((n - 1, 2, -1))
        lead = (2,) if n == 3 else ()
        M = grid.M
        whole = ModeStepper(SKEW, batch, grid.mesh, grid.dt)

        def cplx(*shape: int) -> np.ndarray:
            shape = lead + whole.batch + shape
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        state, forcing = cplx(whole.size - M), cplx(whole.size)
        # exact zeros of both signs in the data
        state[..., ::7] = -0.0
        forcing[..., 1::5] = 0.0
        monkeypatch.setattr(stepper_module, "_GROUP_UNKNOWNS", per_group * whole.size)
        grouped = ModeStepper(SKEW, batch, grid.mesh, grid.dt)
        blocks = xis.shape[1]
        assert len(whole._lu) == 1
        assert len(grouped._lu) == -(-blocks // per_group)
        want = whole.step(state, forcing)
        got = grouped.step(state, forcing)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


class TestLinearMarchOracle:
    """The whole march from rest under a constant plate load against Talbot.

    A load ``cos(k . x)`` excites the modes ``+-k`` alone, so the
    marched ``eta_hat(T)`` of each is the single-mode response that
    :func:`mode_response_reference` inverts from the Laplace domain.  At a
    fixed fine vertical mesh the error is implicit Euler's, first order in
    ``dt``.  At a fixed ``dt`` the error against the same march on a much
    finer mesh is the vertical discretization's, second order in ``M``.
    In 3D the loads cover a mirrored pair ``(1, 1)``, ``(-1, 1)`` and
    modes next to either Nyquist row.
    """

    T, M = 0.5, 512
    STEPS = (8, 16, 32, 64)
    MESHES, FINE = (128, 256, 512), 2048
    LOADS = {2: [(1,), (3,)], 3: [(1, 1), (-1, 1), (3, 0), (1, 3)]}

    @classmethod
    def _response(cls, n: int, M: int, steps: int) -> dict[tuple[int, ...], complex]:
        """``eta_hat(T)`` of each loaded mode, marched on ``M`` cells in ``steps`` steps."""
        loads = cls.LOADS[n]
        grid = Grid(n=n, N=8, M=M, T=cls.T, dt=cls.T / steps)
        x = grid.tangential_coordinates()
        f_eta = sum(np.cos(sum(ki * xi for ki, xi in zip(k, x))) for k in loads)
        run = LinearStepper(SKEW, grid).run(ProblemData(f_eta=f_eta))
        # a unit cosine puts N^(n-1) / 2 on each of its two modes
        eta_hat = np.fft.rfftn(run.eta[-1]) / (grid.N ** (n - 1) / 2)
        return {k: eta_hat[tuple(ki % grid.N for ki in k)] for k in loads}

    @classmethod
    def _errors(cls, n: int) -> dict[tuple[int, ...], list[float]]:
        errors: dict[tuple[int, ...], list[float]] = {k: [] for k in cls.LOADS[n]}
        for steps in cls.STEPS:
            got = cls._response(n, cls.M, steps)
            for k, errs in errors.items():
                z = float(np.sqrt(sum(ki * ki for ki in k)))
                exact = mode_response_reference(SKEW, z, lambda lam: 1.0 / lam, [cls.T])[0]
                errs.append(abs(got[k] - exact) / abs(exact))
        return errors

    # Measured orders between successive halvings of dt: 0.965, 0.990,
    # 1.011 for k = 1 and 0.900, 0.938, 0.957 for k = 3 in 2D; in 3D
    # 0.903, 0.978, 1.046 for (+-1, 1), 0.900, 0.938, 0.957 for (3, 0) and
    # 0.975, 0.990, 0.990 for (1, 3).  Finest errors 3.2e-3 to 1.05e-2.
    @pytest.mark.parametrize("n", [2, 3])
    def test_first_order_in_dt(self, n: int) -> None:
        errors = self._errors(n)
        for k, errs in errors.items():
            orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
            assert all(0.85 <= order <= 1.15 for order in orders), (k, errs, orders)
            assert errs[-1] < 1.2e-2, (k, errs)
        if n == 3:
            # the mirrored pair is one factorized block solved twice
            for a, b in zip(errors[(1, 1)], errors[(-1, 1)]):
                assert a == pytest.approx(b, rel=1e-9)

    # Measured orders between M = 128, 256 and 512 at dt = T / 8: 1.844,
    # 1.985 for k = 1 and 1.672, 1.899 for k = 3 in 2D; in 3D 1.795, 1.961
    # for (+-1, 1), 1.672, 1.899 for (3, 0) and 1.674, 1.901 for (1, 3).
    # Finest errors 1.7e-4 to 3.2e-4.
    @pytest.mark.parametrize("n", [2, 3])
    def test_second_order_in_M(self, n: int) -> None:
        steps = self.STEPS[0]
        fine = self._response(n, self.FINE, steps)
        errors: dict[tuple[int, ...], list[float]] = {k: [] for k in fine}
        for M in self.MESHES:
            got = self._response(n, M, steps)
            for k, errs in errors.items():
                errs.append(abs(got[k] - fine[k]) / abs(fine[k]))
        for k, errs in errors.items():
            orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
            assert orders[0] >= 1.6 and 1.85 <= orders[-1] <= 2.1, (k, errs, orders)
            assert errs[-1] < 4e-4, (k, errs)


class _PerFieldMarch:
    """The march with one transform per field, the reference of the packed one.

    Velocity and plate are transformed separately each way on every step,
    the divergence datum is averaged onto the cells on every step, and the
    pressure is transformed once per chunk.  Every product, sum and
    transformed lane is the one the packed march computes, so the two
    agree bit for bit.
    """

    def __init__(self, params: PlateParams, grid: Grid) -> None:
        self.grid = grid
        mask = grid.nyquist_mask()
        self.shape, self.mask_size = mask.shape, mask.size
        self.modes = np.flatnonzero(~mask)
        xi = np.stack([np.broadcast_to(x, mask.shape) for x in grid.wavenumbers()])
        self.mode = ModeStepper(
            params, xi.reshape(grid.n - 1, -1)[:, self.modes], grid.mesh, grid.dt
        )

    def to_modes(self, field: np.ndarray, tail: int = 0) -> np.ndarray:
        field = np.asarray(field, dtype=float)
        stop = field.ndim - tail
        axes = tuple(range(stop - (self.grid.n - 1), stop))
        spec = np.fft.rfftn(field, axes=axes)
        flat = spec.reshape(spec.shape[: axes[0]] + (-1,) + spec.shape[stop:])
        return np.take(flat, self.modes, axis=axes[0])

    def from_modes(self, values: np.ndarray, tail: int = 0) -> np.ndarray:
        axis = values.ndim - 1 - tail
        lead, rest = values.shape[:axis], values.shape[axis + 1:]
        spec = np.zeros(lead + (self.mask_size,) + rest, dtype=complex)
        spec[(slice(None),) * axis + (self.modes,)] = values
        spec = spec.reshape(lead + self.shape + rest)
        axes = tuple(range(axis, axis + self.grid.n - 1))
        return np.fft.irfftn(spec, s=self.grid.tan_shape, axes=axes)

    def velocity_modes(self, v: np.ndarray) -> np.ndarray:
        return self.to_modes(np.moveaxis(v, -(self.grid.n + 1), -2), tail=2)

    def forcing_modes(self, f_v, g, f_eta) -> tuple:
        return self.velocity_modes(f_v), self.to_modes(g, tail=1), self.to_modes(f_eta)

    def advance(self, v, eta, eta_t, f_v_hat, g_hat, f_eta_hat) -> tuple:
        plate = self.to_modes(np.stack([eta, eta_t]))
        v_new, p_mid, eta_new, psi_new = _mode_step(
            self.mode, self.velocity_modes(v), plate[0], plate[1], f_v_hat, g_hat, f_eta_hat
        )
        v = np.moveaxis(self.from_modes(v_new, tail=2), -2, -(self.grid.n + 1))
        eta, psi = self.from_modes(np.stack([eta_new, psi_new]))
        return v, eta, psi, p_mid

    def run(self, data: ProblemData, extra=None) -> Trajectory:
        grid = self.grid
        data = data.materialize(grid)
        start = data.initial(grid)
        chunks = [start]
        now = start.v[0], start.eta[0], start.eta_t[0]
        constant = self.forcing_modes(data.f_v, data.g, data.f_eta)
        for levels in level_chunks(grid):
            count = levels.stop - levels.start
            if extra is None:
                forcing = [constant] * count
            else:
                f_v, g, f_eta = extra(levels)
                forcing = zip(
                    *self.forcing_modes(data.f_v + f_v, data.g + g, data.f_eta + f_eta)
                )
            fields, p_mid = [], []
            for spectra in forcing:
                *now, p = self.advance(*now, *spectra)
                fields.append(now)
                p_mid.append(p)
            v, eta, psi = (np.stack(f) for f in zip(*fields))
            p = grid.mesh.midpoints_to_nodes(self.from_modes(np.stack(p_mid), tail=1))
            chunks.append(Trajectory(v=v, p=p, eta=eta, eta_t=psi))
        return Trajectory(*(np.concatenate(f) for f in zip(*(c.fields() for c in chunks))))


def _march_case(n: int, rng: np.random.Generator):
    """A grid whose march has several multi-level chunks, random data."""
    if n == 2:
        # 7 levels per chunk: chunks of 7, 7 and 2 levels
        grid = Grid(n=2, N=32, M=64, L=7.3, X=40.0, T=0.48, dt=0.03)
    else:
        # 10 levels per chunk: chunks of 10 and 6 levels
        grid = Grid(n=3, N=8, M=16, L=7.3, X=40.0, T=0.48, dt=0.03)
    tan, bulk = grid.tan_shape, grid.tan_shape + (grid.M + 1,)
    v0, eta0, eta1 = rng.normal(size=(n,) + bulk), rng.normal(size=tan), rng.normal(size=tan)
    data = ProblemData(
        f_v=rng.normal(size=(n,) + bulk), g=rng.normal(size=bulk), f_eta=rng.normal(size=tan),
        v0=v0, eta0=eta0, eta1=eta1,
    ).materialize(grid)

    def extra(levels: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        draw = np.random.default_rng(levels.start)
        count = (levels.stop - levels.start,)
        return (
            draw.normal(size=count + (n,) + bulk),
            draw.normal(size=count + bulk),
            draw.normal(size=count + tan),
        )

    return grid, data, extra


class TestPackedMarch:
    """The march moves whole unknown vectors, bit for bit the per-field march."""

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_equals_per_field_march(
        self, n: int, frozen: bool, rng: np.random.Generator
    ) -> None:
        grid, data, extra = _march_case(n, rng)
        chunks = list(level_chunks(grid))
        assert len(chunks) > 1 and all(c.stop - c.start > 1 for c in chunks)
        extra = extra if frozen else None
        got = LinearStepper(SKEW, grid).run(data, extra)
        want = _PerFieldMarch(SKEW, grid).run(data, extra)
        for name, a, b in zip(("v", "p", "eta", "eta_t"), got.fields(), want.fields()):
            assert a.shape == b.shape, name
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("n", [2, 3])
    def test_reused_stepper_repeats_its_bytes(self, n: int, rng: np.random.Generator) -> None:
        # The Picard loop marches every sweep with one stepper, and each
        # step's inverse transform overwrites the stepper's spectrum: no
        # entry of it may carry over from one run into the next.
        grid, data, extra = _march_case(n, rng)
        stepper = LinearStepper(SKEW, grid)
        first = stepper.run(data, extra)
        stepper.run(data)
        again = stepper.run(data, extra)
        for name, a, b in zip(("v", "p", "eta", "eta_t"), first.fields(), again.fields()):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("frozen", [False, True])
    def test_one_transform_each_way_per_step(
        self, frozen: bool, rng: np.random.Generator, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        grid, data, extra = _march_case(3, rng)
        stepper = LinearStepper(SKEW, grid)
        calls: Counter[str] = Counter()
        for name in ("rfftn", "irfftn", "fftn", "ifftn", "rfft", "irfft", "fft", "ifft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        stepper.run(data, extra if frozen else None)
        # the forcing is transformed once per chunk, or once when constant;
        # each step's inverse runs its complex pass as one in-place ifft
        chunks = len(list(level_chunks(grid))) if frozen else 1
        assert calls == Counter(rfftn=grid.steps + chunks, irfftn=grid.steps, ifft=grid.steps)


class TestLinearStepperConstraints:
    def test_zero_state_zero_data_maps_to_zero(
        self, grid2: Grid, step2
    ) -> None:
        out = step2(ProblemData().initial(grid2))
        _assert_valid_level(out, grid2)
        for field in (out.v, out.p, out.eta, out.eta_t):
            assert np.abs(field).max() == 0.0

    def test_outputs_are_real_and_valid(
        self, grid2: Grid, step2, rng: np.random.Generator
    ) -> None:
        out = step2(_smooth_state(grid2, rng))
        _assert_valid_level(out, grid2)

    def test_interface_and_lid_conditions(
        self, grid2: Grid, step2, rng: np.random.Generator
    ) -> None:
        state = _smooth_state(grid2, rng)
        out = step2(state, f_eta=np.cos(grid2.tangential_coordinates()[0]))
        v = out.v[0]
        scale = np.abs(v).max()
        # No-slip for the tangential components at the plate, rigid lid on top,
        # and the kinematic coupling v_n(0) = eta_t -- all exact solver rows.
        np.testing.assert_allclose(v[0][..., 0], 0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(v[:, ..., -1], 0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(v[1][..., 0], out.eta_t[0], atol=1e-12 * scale)

    def test_divergence_matches_cell_averaged_datum(
        self, grid2: Grid, step2, rng: np.random.Generator
    ) -> None:
        (x,) = grid2.tangential_coordinates()
        xn = grid2.mesh.nodes
        g = (np.cos(x) + 0.5 * np.sin(2.0 * x))[..., np.newaxis] * np.exp(
            -xn / grid2.L
        )
        out = step2(_smooth_state(grid2, rng), g=g)
        cell_avg = 0.5 * (g[..., :-1] + g[..., 1:])
        np.testing.assert_allclose(
            staggered_divergence(out.v[0], grid2), cell_avg, atol=1e-10
        )

    def test_divergence_free_without_datum(
        self, grid2: Grid, step2, rng: np.random.Generator
    ) -> None:
        out = step2(_smooth_state(grid2, rng))
        div = staggered_divergence(out.v[0], grid2)
        assert np.abs(div).max() < 1e-10 * np.abs(out.v).max()

    def test_tangential_modes_decouple(self, grid2: Grid, step2) -> None:
        (x,) = grid2.tangential_coordinates()
        out = step2(ProblemData().initial(grid2), f_eta=np.cos(2.0 * pi * x / grid2.L))
        eta_spec = np.abs(np.fft.rfft(out.eta[0]))
        assert eta_spec[1] > 0.0
        others = np.delete(eta_spec, 1)
        assert others.max() < 1e-13 * eta_spec[1]
        v_spec = np.abs(np.fft.rfft(out.v[0], axis=1))
        assert v_spec[:, [0, *range(2, grid2.N // 2 + 1)], :].max() < 1e-13 * v_spec.max()


class TestLinearStepperRun:
    def test_trajectory_length_and_initial_copy(
        self, grid2: Grid, stepper2: LinearStepper, rng: np.random.Generator
    ) -> None:
        data = _initial_data(_smooth_state(grid2, rng))
        traj = stepper2.run(data)
        assert len(traj) == grid2.steps + 1
        assert not np.shares_memory(traj.eta, data.eta0)
        np.testing.assert_array_equal(traj.eta[0], data.eta0)

    def test_energy_decays_without_forcing(
        self, grid2: Grid, stepper2: LinearStepper, rng: np.random.Generator
    ) -> None:
        traj = stepper2.run(_initial_data(_smooth_state(grid2, rng)))
        # The first step projects the raw initial state onto the discrete
        # constraints; from then on the implicit step dissipates energy.
        energies = total_energy(traj[1:], grid2, UNIT).tolist()
        assert energies[0] > 0.0
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-12 * energies[0]

    def test_three_dimensional_step(self, rng: np.random.Generator, one_step) -> None:
        grid = Grid(n=3, N=8, M=16, T=0.25, dt=0.25)
        x, y = grid.tangential_coordinates()
        f_eta = np.cos(x) + np.sin(y)
        out = one_step(UNIT, grid)(ProblemData().initial(grid), f_eta=f_eta)
        _assert_valid_level(out, grid)
        assert np.abs(out.eta).max() > 0.0
        v = out.v[0]
        scale = np.abs(v).max()
        np.testing.assert_allclose(v[:2, ..., 0], 0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(v[2][..., 0], out.eta_t[0], atol=1e-12 * scale)
        div = staggered_divergence(v, grid)
        assert np.abs(div).max() < 1e-10 * max(scale, 1e-30)


    def test_three_dimensional_step_reduces_to_two_dimensional(
        self, rng: np.random.Generator, one_step
    ) -> None:
        # Data depending on x_1 alone excite only the modes xi = (xi_1, 0),
        # which must reproduce the 2D modes with v_2 = 0; a swapped
        # (xi_1, xi_2) would pair those data with the wrong wavenumbers.
        grid2 = Grid(n=2, N=8, M=16, T=0.25, dt=0.25)
        grid3 = Grid(n=3, N=8, M=16, T=0.25, dt=0.25)
        state2 = _smooth_state(grid2, rng)
        (x,) = grid2.tangential_coordinates()
        f_eta = np.cos(x) + 0.5 * np.sin(2.0 * x)
        g = np.sin(x)[..., np.newaxis] * np.exp(-grid2.mesh.nodes / grid2.L)

        def lift(field: np.ndarray, axis: int) -> np.ndarray:
            return np.repeat(np.expand_dims(field, axis), grid3.N, axis=axis)

        # fields carry the level axis in front: the second tangential axis is 2
        v3 = np.zeros((1, 3) + grid3.tan_shape + (grid3.M + 1,))
        v3[:, 0], v3[:, 2] = lift(state2.v[:, 0], 2), lift(state2.v[:, 1], 2)
        state3 = Trajectory(
            v=v3, p=lift(state2.p, 2), eta=lift(state2.eta, 2), eta_t=lift(state2.eta_t, 2)
        )
        out2 = one_step(UNIT, grid2)(state2, g=g, f_eta=f_eta)
        out3 = one_step(UNIT, grid3)(state3, g=lift(g, 1), f_eta=lift(f_eta, 1))

        v_want = np.zeros_like(out3.v)
        v_want[:, 0], v_want[:, 2] = lift(out2.v[:, 0], 2), lift(out2.v[:, 1], 2)
        for got, want in (
            (out3.v, v_want),
            (out3.p, lift(out2.p, 2)),
            (out3.eta, lift(out2.eta, 2)),
            (out3.eta_t, lift(out2.eta_t, 2)),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestResolventOracle:
    """One implicit Euler step from rest is the resolvent problem at lam = 1/dt.

    Under a unit plate load the exact displacement is
    ``solve_displacement(lam=1/dt)``, so the step's only error is the
    vertical discretization, which must shrink at second order.
    """

    @staticmethod
    def _relative_error(z: float, dt: float, M: int) -> float:
        mode = ModeStepper(UNIT, (z,), VerticalMesh(30.0, M), dt)
        _, _, eta, _ = _mode_step(mode, np.zeros((2, M + 1)), 0.0, 0.0, f_eta=1.0)
        exact = solve_displacement(UNIT, Freq(lam=1.0 / dt, z=z), 1.0)
        return abs(eta - exact) / abs(exact)

    # At (z, dt) = (4, 0.01) the order between M = 256 and 512 is still
    # pre-asymptotic (1.77); these three give 1.97, 1.93 and 1.87.
    @pytest.mark.parametrize(("z", "dt"), [(0.5, 0.1), (1.0, 0.05), (2.0, 0.02)])
    def test_displacement_converges_at_second_order(self, z: float, dt: float) -> None:
        coarse, fine = (self._relative_error(z, dt, M) for M in (256, 512))
        assert fine < 2e-3
        assert np.log2(coarse / fine) >= 1.8, (coarse, fine)


class TestTotalEnergy:
    def test_zero_state_has_zero_energy(self, grid2: Grid) -> None:
        assert total_energy(ProblemData().initial(grid2), grid2, UNIT).tolist() == [0.0]

    def test_energy_is_quadratic(self, grid2: Grid, rng: np.random.Generator) -> None:
        state = _smooth_state(grid2, rng)
        doubled = Trajectory(*(2.0 * f for f in state.fields()))
        (base,) = total_energy(state, grid2, UNIT)
        assert base > 0.0
        (energy,) = total_energy(doubled, grid2, UNIT)
        assert energy == pytest.approx(4.0 * base, rel=1e-12)
