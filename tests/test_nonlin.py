"""Quadratic correction terms: manufactured values and homogeneity order."""

from __future__ import annotations

import numpy as np
import pytest

from plate_fsi.timedomain.grid import Grid, State, Trajectory, tangential_derivative
from plate_fsi.timedomain.nonlin import (
    derivatives,
    nonlinear_divergence,
    nonlinear_momentum,
    nonlinear_plate_load,
    nonlinear_terms,
)


@pytest.fixture(scope="module")
def grid() -> Grid:
    return Grid(n=2, N=32, M=48, T=0.5, dt=0.25)


def _random_state(grid: Grid, rng) -> State:
    # Band-limited tangential content, smooth decaying vertical profiles.
    (x,) = grid.tangential_coordinates()
    base = 2.0 * np.pi / grid.L
    prof = np.exp(-grid.mesh.nodes)
    state = State.zeros(grid)
    for comp in range(grid.n):
        wave = sum(
            rng.normal() * np.sin((k + 1) * base * x + rng.uniform(0, np.pi))
            for k in range(3)
        )
        state.v[comp] = wave[..., np.newaxis] * prof
    state.p = rng.normal() * np.cos(base * x)[..., np.newaxis] * prof
    state.eta = 0.3 * np.sin(base * x) + 0.1 * np.cos(2 * base * x)
    state.eta_t = 0.2 * np.cos(base * x)
    return state


class TestManufacturedValues:
    def test_divergence_correction_closed_form(self, grid: Grid) -> None:
        # eta = sin(k x), v_tangential = x_n: the correction is
        # grad' eta * d_n v' = k cos(k x), uniformly in x_n.
        (x,) = grid.tangential_coordinates()
        k = 2.0 * np.pi / grid.L
        state = State.zeros(grid)
        state.eta = np.sin(k * x)
        state.v[0] = np.broadcast_to(grid.mesh.nodes, state.v[0].shape).copy()
        out = nonlinear_divergence(state, grid)
        expected = (k * np.cos(k * x))[..., np.newaxis]
        np.testing.assert_allclose(out, np.broadcast_to(expected, out.shape), atol=1e-12)

    def test_plate_load_closed_form(self, grid: Grid) -> None:
        # Same state: the shear part contributes -k cos(k x) * d_n v'(0)
        # = -k cos(k x); the normal trace vanishes, so no tilt part.
        (x,) = grid.tangential_coordinates()
        k = 2.0 * np.pi / grid.L
        state = State.zeros(grid)
        state.eta = np.sin(k * x)
        state.v[0] = np.broadcast_to(grid.mesh.nodes, state.v[0].shape).copy()
        out = nonlinear_plate_load(state, grid)
        np.testing.assert_allclose(out, -k * np.cos(k * x), atol=1e-12)

    def test_flat_interface_reduces_to_convection(self, grid: Grid, rng) -> None:
        state = _random_state(grid, rng)
        state.eta = np.zeros(grid.tan_shape)
        state.eta_t = np.zeros(grid.tan_shape)
        out = nonlinear_momentum(state, grid)
        dn_v = np.stack(
            [
                grid.mesh.diff_matrix(1, 4) @ state.v[c].reshape(-1, grid.M + 1).T
                for c in range(grid.n)
            ]
        ).transpose(0, 2, 1).reshape(state.v.shape)
        expected = -state.v[0][np.newaxis] * tangential_derivative(
            state.v, grid, bulk=True
        ) - state.v[1][np.newaxis] * dn_v
        np.testing.assert_allclose(out, expected, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(nonlinear_divergence(state, grid), 0.0, atol=1e-15)
        np.testing.assert_allclose(nonlinear_plate_load(state, grid), 0.0, atol=1e-15)

    def test_zero_state_maps_to_zero(self, grid: Grid) -> None:
        state = State.zeros(grid)
        assert not nonlinear_momentum(state, grid).any()
        assert not nonlinear_divergence(state, grid).any()
        assert not nonlinear_plate_load(state, grid).any()


class TestQuadraticHomogeneity:
    def _norm(self, state: State, grid: Grid) -> float:
        return float(
            np.abs(nonlinear_momentum(state, grid)).max()
            + np.abs(nonlinear_divergence(state, grid)).max()
            + np.abs(nonlinear_plate_load(state, grid)).max()
        )

    def _scaled(self, state: State, s: float) -> State:
        return State(
            v=s * state.v, p=s * state.p, eta=s * state.eta, eta_t=s * state.eta_t
        )

    def test_log_log_slope_is_two(self, grid: Grid, rng) -> None:
        state = _random_state(grid, rng)
        scales = np.array([1.0, 0.5, 0.25, 0.125])
        norms = np.array([self._norm(self._scaled(state, s), grid) for s in scales])
        slopes = np.diff(np.log(norms)) / np.diff(np.log(scales))
        assert (slopes >= 1.9).all()
        assert (slopes <= 2.1).all()

    def test_pure_quadratic_terms_scale_exactly(self, grid: Grid, rng) -> None:
        state = _random_state(grid, rng)
        half = self._scaled(state, 0.5)
        np.testing.assert_allclose(
            nonlinear_divergence(half, grid),
            0.25 * nonlinear_divergence(state, grid),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            nonlinear_plate_load(half, grid),
            0.25 * nonlinear_plate_load(state, grid),
            atol=1e-14,
        )


class TestBatchedLevels:
    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_equals_single_states(self, n: int, rng) -> None:
        # The shared-spectrum evaluation of a stack of levels is, level by
        # level, bit for bit the three single-state functions.
        grid = Grid(n=n, N=8, M=20, T=0.5, dt=0.25)
        tan, bulk = grid.tan_shape, grid.tan_shape + (grid.M + 1,)
        stack = Trajectory(
            v=rng.normal(size=(5, n) + bulk),
            p=rng.normal(size=(5,) + bulk),
            eta=rng.normal(size=(5,) + tan),
            eta_t=rng.normal(size=(5,) + tan),
        )
        momentum, divergence, plate_load = nonlinear_terms(stack, grid)
        assert momentum.shape == stack.v.shape
        assert divergence.shape == stack.p.shape
        assert plate_load.shape == stack.eta.shape
        for k, state in enumerate(stack):
            np.testing.assert_array_equal(momentum[k], nonlinear_momentum(state, grid))
            np.testing.assert_array_equal(divergence[k], nonlinear_divergence(state, grid))
            np.testing.assert_array_equal(plate_load[k], nonlinear_plate_load(state, grid))

    @pytest.mark.parametrize("n", [2, 3])
    def test_divergence_alone_equals_shared_terms(self, n: int, rng) -> None:
        # nonlinear_divergence evaluates only its own term, bit for bit the
        # divergence that nonlinear_terms computes with the other two.
        grid = Grid(n=n, N=8, M=20, T=0.5, dt=0.25)
        tan, bulk = grid.tan_shape, grid.tan_shape + (grid.M + 1,)
        state = State(
            v=rng.normal(size=(n,) + bulk),
            p=rng.normal(size=bulk),
            eta=rng.normal(size=tan),
            eta_t=rng.normal(size=tan),
        )
        np.testing.assert_array_equal(
            nonlinear_divergence(state, grid), nonlinear_terms(state, grid)[1]
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_shared_derivatives_give_the_same_terms(self, n: int, rng) -> None:
        # The Picard sweep reads one set of derivatives for the surrogate
        # norm and then for the terms; the terms stay bit for bit those
        # that take their own derivatives.
        from plate_fsi.timedomain.fixpoint import surrogate_norms

        grid = Grid(n=n, N=8, M=20, T=0.5, dt=0.25)
        tan, bulk = grid.tan_shape, grid.tan_shape + (grid.M + 1,)
        stack = Trajectory(
            v=rng.normal(size=(5, n) + bulk),
            p=rng.normal(size=(5,) + bulk),
            eta=rng.normal(size=(5,) + tan),
            eta_t=rng.normal(size=(5,) + tan),
        )
        derivs = derivatives(stack, grid)
        assert surrogate_norms(stack, grid, derivs).tolist() == surrogate_norms(
            stack, grid
        ).tolist()
        shared = nonlinear_terms(stack, grid, derivs)
        for got, want in zip(shared, nonlinear_terms(stack, grid)):
            np.testing.assert_array_equal(got, want)
