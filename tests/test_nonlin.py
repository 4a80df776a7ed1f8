"""Quadratic correction terms: manufactured values and homogeneity order."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from plate_fsi.timedomain.grid import (
    Grid,
    ProblemData,
    Trajectory,
    tangential_derivatives,
    vertical_derivative,
)
from plate_fsi.timedomain.nonlin import derivatives, nonlinear_divergence, nonlinear_terms


@pytest.fixture(scope="module")
def grid() -> Grid:
    return Grid(n=2, N=32, M=48, T=0.5, dt=0.25)


def _level(v, p, eta, eta_t) -> Trajectory:
    """The one-level trajectory of the fields of one state."""
    return Trajectory(*(np.asarray(f)[np.newaxis] for f in (v, p, eta, eta_t)))


def _random_state(grid: Grid, rng) -> Trajectory:
    # One level: band-limited tangential content, smooth decaying vertical
    # profiles.
    (x,) = grid.tangential_coordinates()
    base = 2.0 * np.pi / grid.L
    prof = np.exp(-grid.mesh.nodes)
    v = np.zeros((grid.n,) + grid.tan_shape + (grid.M + 1,))
    for comp in range(grid.n):
        wave = sum(
            rng.normal() * np.sin((k + 1) * base * x + rng.uniform(0, np.pi))
            for k in range(3)
        )
        v[comp] = wave[..., np.newaxis] * prof
    p = rng.normal() * np.cos(base * x)[..., np.newaxis] * prof
    eta = 0.3 * np.sin(base * x) + 0.1 * np.cos(2 * base * x)
    eta_t = 0.2 * np.cos(base * x)
    return _level(v, p, eta, eta_t)


def _tilted_plate(grid: Grid) -> Trajectory:
    """``eta = sin(k x)`` under ``v' = x_n``, everything else zero."""
    (x,) = grid.tangential_coordinates()
    k = 2.0 * np.pi / grid.L
    v = np.zeros((grid.n,) + grid.tan_shape + (grid.M + 1,))
    v[0] = grid.mesh.nodes
    return ProblemData(v0=v, eta0=np.sin(k * x)).initial(grid)


class TestManufacturedValues:
    def test_divergence_correction_closed_form(self, grid: Grid) -> None:
        # eta = sin(k x), v_tangential = x_n: the correction is
        # grad' eta * d_n v' = k cos(k x), uniformly in x_n.
        (x,) = grid.tangential_coordinates()
        k = 2.0 * np.pi / grid.L
        out = nonlinear_divergence(_tilted_plate(grid), grid)
        expected = (k * np.cos(k * x))[..., np.newaxis]
        np.testing.assert_allclose(out, np.broadcast_to(expected, out.shape), atol=1e-12)

    def test_plate_load_closed_form(self, grid: Grid) -> None:
        # Same state: the shear part contributes -k cos(k x) * d_n v'(0)
        # = -k cos(k x); the normal trace vanishes, so no tilt part.
        (x,) = grid.tangential_coordinates()
        k = 2.0 * np.pi / grid.L
        out = nonlinear_terms(_tilted_plate(grid), grid)[2]
        np.testing.assert_allclose(out, (-k * np.cos(k * x))[np.newaxis], atol=1e-12)

    def test_flat_interface_reduces_to_convection(self, grid: Grid, rng) -> None:
        moving = _random_state(grid, rng)
        flat = np.zeros_like(moving.eta)
        state = Trajectory(v=moving.v, p=moving.p, eta=flat, eta_t=flat)
        out = nonlinear_terms(state, grid)[0][0]
        v = state.v[0]
        dn_v = vertical_derivative(v, grid.mesh, 1, 4)
        (dx_v,) = tangential_derivatives(v, grid, (1,), bulk=True)
        expected = -v[0][np.newaxis] * dx_v - v[1][np.newaxis] * dn_v
        np.testing.assert_allclose(out, expected, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(nonlinear_divergence(state, grid), 0.0, atol=1e-15)
        np.testing.assert_allclose(nonlinear_terms(state, grid)[2], 0.0, atol=1e-15)

    def test_zero_state_maps_to_zero(self, grid: Grid) -> None:
        state = ProblemData().initial(grid)
        momentum, _, plate_load = nonlinear_terms(state, grid)
        assert not momentum.any()
        assert not nonlinear_divergence(state, grid).any()
        assert not plate_load.any()


def _wave(x, k, phase, c, c_t=0.0):
    """``c cos(k . x' + phase)``: value, time derivative, gradient, Laplacian.

    ``c`` is the amplitude at the evaluation time and ``c_t`` its rate.
    """
    arg = sum(kj * xj for kj, xj in zip(k, x)) + phase
    cos, sin = np.cos(arg), np.sin(arg)
    return c * cos, c_t * cos, [-kj * c * sin for kj in k], -sum(kj * kj for kj in k) * c * cos


def _wave_sum(*waves):
    value, rate, grad, lap = zip(*waves)
    return sum(value), sum(rate), [sum(parts) for parts in zip(*grad)], sum(lap)


def _manufactured_flow(grid: Grid, t: float = 0.5) -> tuple[Trajectory, np.ndarray]:
    """A smooth flow ``u, p`` over the graph of ``eta`` and its momentum term.

    ``u_c = a_c(x', t) b_c(x_n)`` and ``p = P(x') Q(x_n)`` on the moving
    domain, so the flat fields ``v = u o theta``, ``q = p o theta`` at
    ``(x', Y)`` are the same products at the height ``s = Y + eta``.  With
    ``(d/dt)|_Y b(s) = b'(s) eta_t`` and ``d_j|_Y b(s) = b'(s) d_j eta``
    the flat derivatives follow by hand, and the returned field is
    ``N = (d_t v - lap v + grad q) - [d_t u - lap u + (u . grad) u + grad p] o theta``.
    """
    x = grid.tangential_coordinates()
    if grid.n == 2:
        eta = _wave_sum(
            _wave(x, (1,), -np.pi / 2, 0.2),
            _wave(x, (2,), 0.0, 0.1),
            _wave(x, (1,), 0.0, 0.1 * t, 0.1),
        )
        tangential = [_wave(x, (1,), 0.0, 1.0 + t, 1.0), _wave(x, (2,), -np.pi / 2, 1.0 + t, 1.0)]
        pressure = _wave(x, (1,), 0.0, 1.0)
    else:
        eta = _wave_sum(
            _wave(x, (1, 0), -np.pi / 2, 0.2),
            _wave(x, (0, 2), 0.0, 0.1),
            _wave(x, (1, 1), 0.0, 0.1 * t, 0.1),
        )
        tangential = [
            _wave(x, (1, 1), 0.0, 1.0 + t, 1.0),
            _wave(x, (2, 0), -np.pi / 2, 1.0 + t, 1.0),
            _wave(x, (0, 1), 0.0, 1.0 + t, 1.0),
        ]
        pressure = _wave(x, (1, 0), 0.0, 1.0)

    def bulk(field):
        return np.asarray(field)[..., np.newaxis]

    e, e_t, grad_e, lap_e = (bulk(eta[0]), bulk(eta[1]), [bulk(g) for g in eta[2]], bulk(eta[3]))
    s = grid.mesh.nodes + e
    decay, half = np.exp(-s), np.exp(-s / 2.0)
    # (b, b', b''): x_n e^(-x_n) for the tangential components, e^(-x_n / 2) normal
    profiles = [(s * decay, (1.0 - s) * decay, (s - 2.0) * decay)] * (grid.n - 1)
    profiles.append((half, -half / 2.0, half / 4.0))
    P, grad_P = bulk(pressure[0]), [bulk(g) for g in pressure[2]]
    Q, dQ = decay, -decay
    u = [bulk(a[0]) * b[0] for a, b in zip(tangential, profiles)]
    slope2 = sum(g * g for g in grad_e)

    momentum = []
    for c, (wave, (b, db, ddb)) in enumerate(zip(tangential, profiles)):
        a, a_t, lap_a = bulk(wave[0]), bulk(wave[1]), bulk(wave[3])
        grad_a = [bulk(g) for g in wave[2]]
        dt_v = a_t * b + a * db * e_t
        lap_v = (
            lap_a * b
            + 2.0 * sum(ga * ge for ga, ge in zip(grad_a, grad_e)) * db
            + a * (ddb * slope2 + db * lap_e)
            + a * ddb
        )
        if c < grid.n - 1:
            grad_p = grad_P[c] * Q
            grad_q = grad_p + P * dQ * grad_e[c]
        else:
            grad_q = grad_p = P * dQ
        convection = sum(u[j] * ga * b for j, ga in enumerate(grad_a)) + u[-1] * a * db
        physical = a_t * b - (lap_a * b + a * ddb) + convection + grad_p
        momentum.append(dt_v - lap_v + grad_q - physical)
    return _level(np.stack(u), P * Q, eta[0], eta[1]), np.stack(momentum)


class TestManufacturedMomentum:
    """The momentum term against the flattening identity (Roache, J. Fluids Eng. 124, 2002).

    Tangential derivatives are spectral, so the error is that of the
    fourth-order vertical stencils; measured relative errors at N = 32 are
    2.8e-3 and 2.1e-4 (n = 2), 2.5e-3 and 1.9e-4 (n = 3) at M = 64 and 128,
    orders 3.74 and 3.74.
    """

    @pytest.mark.parametrize("n", [2, 3])
    def test_vertical_order(self, n: int) -> None:
        errors = []
        for M in (64, 128):
            grid = Grid(n=n, N=32, M=M)
            state, exact = _manufactured_flow(grid)
            got = nonlinear_terms(state, grid)[0][0]
            errors.append(float(np.abs(got - exact).max() / np.abs(exact).max()))
        assert errors[1] < 1e-3
        assert np.log2(errors[0] / errors[1]) >= 3.5


class TestQuadraticHomogeneity:
    def _norm(self, state: Trajectory, grid: Grid) -> float:
        momentum, _, plate_load = nonlinear_terms(state, grid)
        return float(
            np.abs(momentum).max()
            + np.abs(nonlinear_divergence(state, grid)).max()
            + np.abs(plate_load).max()
        )

    def _scaled(self, state: Trajectory, s: float) -> Trajectory:
        return Trajectory(*(s * f for f in state.fields()))

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
            nonlinear_terms(half, grid)[2],
            0.25 * nonlinear_terms(state, grid)[2],
            atol=1e-14,
        )


class TestBatchedLevels:
    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_equals_single_states(self, n: int, rng) -> None:
        # The shared-spectrum evaluation of a stack of levels is, level by
        # level, bit for bit the evaluation of each single state, a
        # one-level trajectory.
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
        for k in range(len(stack)):
            state = stack[k: k + 1]
            single = nonlinear_terms(state, grid)
            np.testing.assert_array_equal(momentum[k], single[0][0])
            np.testing.assert_array_equal(divergence[k], nonlinear_divergence(state, grid)[0])
            np.testing.assert_array_equal(plate_load[k], single[2][0])

    @pytest.mark.parametrize("n", [2, 3])
    def test_divergence_alone_equals_shared_terms(self, n: int, rng) -> None:
        # nonlinear_divergence evaluates only its own term, bit for bit the
        # divergence that nonlinear_terms computes with the other two.
        grid = Grid(n=n, N=8, M=20, T=0.5, dt=0.25)
        tan, bulk = grid.tan_shape, grid.tan_shape + (grid.M + 1,)
        state = _level(
            rng.normal(size=(n,) + bulk),
            rng.normal(size=bulk),
            rng.normal(size=tan),
            rng.normal(size=tan),
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


class TestPeakMemory:
    def test_terms_hold_no_stack_over_the_components(self, rng) -> None:
        # A 3D chunk with its derivatives given, as the Picard sweep calls
        # it.  The results themselves take about one level per level.
        grid = Grid(n=3, N=8, M=16, T=0.5, dt=0.25)
        levels = 4
        tan, bulk = grid.tan_shape, grid.tan_shape + (grid.M + 1,)
        stack = Trajectory(
            v=rng.normal(size=(levels, 3) + bulk),
            p=rng.normal(size=(levels,) + bulk),
            eta=rng.normal(size=(levels,) + tan),
            eta_t=rng.normal(size=(levels,) + tan),
        )
        derivs = derivatives(stack, grid)
        nonlinear_terms(stack, grid, derivs)  # fills the grid's caches
        tracemalloc.start()
        try:
            nonlinear_terms(stack, grid, derivs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        level = sum(f[0].nbytes for f in stack.fields())
        # measured: 2.6 levels per level; 5.1 when the momentum was summed
        # over all components at once, with grad' d_n v and d_nn v whole
        assert peak < 3.5 * levels * level
