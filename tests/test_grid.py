"""Meshes, spectral/finite-difference operators, and the data containers."""

from __future__ import annotations

import tracemalloc
from math import pi

import numpy as np
import pytest
import scipy.sparse as sp

from plate_fsi.params import PlateParams
from plate_fsi.timedomain.compat import check_compatibility
from plate_fsi.timedomain.grid import (
    Grid,
    ProblemData,
    VerticalMesh,
    _multipliers,
    cell_average,
    cell_difference,
    fornberg_weights,
    irfftn_inplace,
    rfftn_inplace,
    tangential_derivatives,
    vertical_derivative,
)
from plate_fsi.timedomain import grid as grid_module
from plate_fsi.timedomain.stepper import LinearStepper, ModeStepper, staggered_divergence


@pytest.fixture(scope="module")
def mesh() -> VerticalMesh:
    return VerticalMesh(X=4.0, M=48)


@pytest.fixture(scope="module")
def grid2() -> Grid:
    return Grid(n=2, N=16, M=32, T=0.5, dt=0.25)


def _scalar_fornberg(x0: float, xs: np.ndarray, m: int) -> np.ndarray:
    """The recursion at one point, scalar by scalar: the reference for the tables."""
    npts = len(xs)
    c = np.zeros((m + 1, npts))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, npts):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def _per_point_fornberg(x0, xs, m: int) -> np.ndarray:
    """:func:`fornberg_weights` as one scalar recursion per point."""
    x0, xs = np.asarray(x0, dtype=float), np.asarray(xs, dtype=float)
    if x0.ndim == 0:
        return _scalar_fornberg(x0[()], xs, m)
    return np.stack([_scalar_fornberg(a, b, m) for a, b in zip(x0, xs)], axis=-1)


class TestFornbergWeights:
    def test_exact_on_polynomials(self) -> None:
        xs = np.array([0.0, 0.7, 1.3, 2.1, 3.0])
        w = fornberg_weights(1.5, xs, 2)
        f = xs**3
        assert w[0] @ f == pytest.approx(1.5**3, abs=1e-12)
        assert w[1] @ f == pytest.approx(3.0 * 1.5**2, abs=1e-12)
        assert w[2] @ f == pytest.approx(6.0 * 1.5, abs=1e-12)

    def test_order_needs_enough_nodes(self) -> None:
        with pytest.raises(ValueError, match="nodes"):
            fornberg_weights(0.0, [0.0, 1.0], 2)

    @pytest.mark.parametrize("grading", [0.0, 2.0, 3.0])
    @pytest.mark.parametrize("M", [16, 32, 64, 256])
    @pytest.mark.parametrize(("order", "accuracy"), [(1, 4), (2, 4), (2, 1), (1, 17)])
    def test_tables_equal_the_scalar_recursion(
        self, grading: float, M: int, order: int, accuracy: int
    ) -> None:
        mesh = VerticalMesh(X=4.0, M=M, grading=grading)
        if order + accuracy > M + 1:
            with pytest.raises(ValueError, match="stencil"):
                mesh.stencil(order, accuracy)
            return
        stencil = mesh.stencil(order, accuracy)
        want = _per_point_fornberg(mesh.nodes, mesh.nodes[stencil.columns], order)[order]
        assert stencil.weights.flags.c_contiguous
        assert stencil.weights.tobytes() == want.T.tobytes()

    @pytest.mark.parametrize("grading", [0.0, 2.0, 3.0])
    def test_single_points_equal_the_scalar_recursion(self, grading: float) -> None:
        # the trace stencil and the end spans that Grid checks for finiteness
        mesh = VerticalMesh(X=4.0, M=32, grading=grading)
        want = _scalar_fornberg(0.0, mesh.nodes[:3], 1)[1]
        assert mesh.trace_stencil().tobytes() == want.tobytes()
        for end, span in ((0, slice(6)), (-1, slice(-6, None))):
            got = fornberg_weights(mesh.nodes[end], mesh.nodes[span], 2)
            want = _scalar_fornberg(mesh.nodes[end], mesh.nodes[span], 2)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_mode_matrix_equals_the_per_point_tables(
        self, n: int, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        grid = Grid(n=n, N=8, M=16, L=7.3, X=40.0, T=0.09, dt=0.03)
        params = PlateParams(alpha=1.0734, beta=0.31, gamma=0.917)
        xi = np.stack([np.broadcast_to(x, grid.nyquist_mask().shape) for x in grid.wavenumbers()])
        xi = xi.reshape(n - 1, -1)
        got = ModeStepper(params, xi, VerticalMesh(grid.X, grid.M), grid.dt).matrix()
        monkeypatch.setattr(grid_module, "fornberg_weights", _per_point_fornberg)
        want = ModeStepper(params, xi, VerticalMesh(grid.X, grid.M), grid.dt).matrix()
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestVerticalMesh:
    def test_geometry(self, mesh: VerticalMesh) -> None:
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == mesh.X
        assert (mesh.spacings > 0).all()
        # Grading refines toward the interface: spacings increase with x.
        assert (np.diff(mesh.spacings) > 0).all()
        assert mesh.weights.sum() == pytest.approx(mesh.X, rel=1e-14)
        np.testing.assert_allclose(
            mesh.midpoints, (mesh.nodes[:-1] + mesh.nodes[1:]) / 2.0
        )

    def test_zero_grading_is_uniform(self) -> None:
        uniform = VerticalMesh(X=2.0, M=16, grading=0.0)
        np.testing.assert_allclose(uniform.spacings, 2.0 / 16, rtol=1e-14)

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="X"):
            VerticalMesh(X=0.0, M=32)
        with pytest.raises(ValueError, match="M"):
            VerticalMesh(X=1.0, M=8)
        with pytest.raises(ValueError, match="grading"):
            VerticalMesh(X=1.0, M=32, grading=-1.0)

    @pytest.mark.parametrize(("order", "accuracy", "degree"), [(1, 4, 4), (2, 1, 2)])
    def test_vertical_derivative_exact_on_polynomials(
        self, mesh: VerticalMesh, order: int, accuracy: int, degree: int
    ) -> None:
        x = mesh.nodes
        for k in range(degree + 1):
            expected = np.zeros_like(x)
            if k >= order:
                factor = np.prod(np.arange(k, k - order, -1, dtype=float))
                expected = factor * x ** (k - order)
            got = vertical_derivative(x**k, mesh, order, accuracy)
            np.testing.assert_allclose(
                got, expected, atol=1e-10 * max(1.0, np.abs(got).max())
            )

    def test_vertical_derivative_builds_its_csr_copy_once(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        built = []

        def counting(*args, **kwargs):
            built.append(kwargs["shape"])
            return csr_matrix(*args, **kwargs)

        csr_matrix = sp.csr_matrix
        monkeypatch.setattr(sp, "csr_matrix", counting)
        fresh = VerticalMesh(X=4.0, M=16)
        field = np.ones(fresh.M + 1)
        for order, accuracy in ((1, 4), (1, 4), (2, 1), (1, 4), (2, 1)):
            vertical_derivative(field, fresh, order, accuracy)
        assert len(built) == 2

    def test_stencil_bound(self) -> None:
        small = VerticalMesh(X=1.0, M=16)
        with pytest.raises(ValueError, match="stencil"):
            small.stencil(1, 17)

    @pytest.mark.parametrize(("order", "accuracy"), [(1, 4), (2, 4), (2, 1)])
    def test_stencil_kernel_equals_the_csr_product(
        self, mesh: VerticalMesh, rng, order: int, accuracy: int
    ) -> None:
        field = rng.normal(size=(3, 2, 5, mesh.M + 1))
        got = mesh.stencil(order, accuracy).apply(field)
        want = vertical_derivative(field, mesh, order, accuracy)
        assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    @pytest.mark.parametrize(("order", "accuracy"), [(1, 4), (2, 4), (2, 1)])
    def test_stencil_kernel_keeps_csr_signed_zeros(
        self, mesh: VerticalMesh, rng, order: int, accuracy: int
    ) -> None:
        zeros = np.where(rng.random((4, mesh.M + 1)) < 0.5, -0.0, 0.0)
        got = mesh.stencil(order, accuracy).apply(zeros)
        want = vertical_derivative(zeros, mesh, order, accuracy)
        assert not np.signbit(want).any()
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert not got.any()

    @pytest.mark.parametrize("zeros", ["real field", "real", "imag", "both"])
    def test_pair_kernels_equal_the_csr_pair(
        self, mesh: VerticalMesh, rng, zeros: str
    ) -> None:
        field = _signed_zero_field(rng, (3, 2, 5, mesh.M + 1), zeros)
        for kernel, op in zip((cell_average, cell_difference), _csr_pair(mesh.M)):
            assert _bytes(kernel(field)) == _bytes(_csr_apply(op, field))

    def test_cell_average_equals_the_csr_pair_on_the_forcing_view(
        self, mesh: VerticalMesh, rng
    ) -> None:
        # LinearStepper._forcing averages the strided node columns
        # [..., i_p:-1] of spectra laid out as (levels, column, block, size)
        M = mesh.M
        i_p = 2 * (M + 1)
        spec = _signed_zero_field(rng, (3, 2, 5, i_p + M + 2), "both")
        view = spec[..., i_p:-1]
        avg = _csr_pair(M)[0]
        assert _bytes(cell_average(view)) == _bytes(_csr_apply(avg, view))

    def test_stencil_is_cached(self, mesh: VerticalMesh) -> None:
        assert mesh.stencil(1, 4) is mesh.stencil(1, 4)

    def test_sbp_derivative_equals_its_csr_matrix(self, mesh: VerticalMesh, rng) -> None:
        # the operator as a sparse matrix, row by row
        M = mesh.M
        rows, cols, vals = [0, 0], [0, 1], [-1.0 / mesh.spacings[0], 1.0 / mesh.spacings[0]]
        for j in range(1, M):
            gap = mesh.nodes[j + 1] - mesh.nodes[j - 1]
            rows.extend([j, j])
            cols.extend([j - 1, j + 1])
            vals.extend([-1.0 / gap, 1.0 / gap])
        rows.extend([M, M])
        cols.extend([M - 1, M])
        vals.extend([-1.0 / mesh.spacings[-1], 1.0 / mesh.spacings[-1]])
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(M + 1, M + 1))
        field = rng.normal(size=(2, 7, M + 1))
        want = (mat @ field.reshape(-1, M + 1).T).T.reshape(field.shape)
        got = mesh.sbp_derivative(field)
        assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    def test_sbp_identity(self, mesh: VerticalMesh, rng) -> None:
        d = mesh.sbp_derivative
        f = rng.normal(size=mesh.M + 1)
        g = rng.normal(size=mesh.M + 1)
        lhs = mesh.weights @ (d(f) * g + f * d(g))
        rhs = f[-1] * g[-1] - f[0] * g[0]
        assert lhs == pytest.approx(rhs, abs=1e-13 * np.abs(f).max() * np.abs(g).max())

    def test_trace_stencil_differentiates_quadratics(self, mesh: VerticalMesh) -> None:
        c = mesh.trace_stencil()
        x = mesh.nodes[:3]
        assert c @ np.ones(3) == pytest.approx(0.0, abs=1e-12)
        assert c @ x == pytest.approx(1.0, rel=1e-12)
        assert c @ x**2 == pytest.approx(0.0, abs=1e-12)

    def test_pressure_trace_extrapolates_linearly(self, mesh: VerticalMesh) -> None:
        c = mesh.pressure_trace_stencil()
        f = 3.0 * mesh.midpoints[:2] + 2.0
        assert c @ f == pytest.approx(2.0, rel=1e-12)

    def test_midpoints_to_nodes_exact_on_linear(self, mesh: VerticalMesh) -> None:
        mid_vals = 2.0 * mesh.midpoints + 1.0
        node_vals = mesh.midpoints_to_nodes(mid_vals)
        np.testing.assert_allclose(node_vals, 2.0 * mesh.nodes + 1.0, rtol=1e-12)

    def test_integrate_is_exact_on_linear(self, mesh: VerticalMesh) -> None:
        assert mesh.integrate(mesh.nodes) == pytest.approx(
            mesh.X**2 / 2.0, rel=1e-13
        )

    def test_vertical_derivative_handles_leading_axes(self, mesh: VerticalMesh) -> None:
        field = np.stack([mesh.nodes**2, np.sin(mesh.nodes)])
        out = vertical_derivative(field, mesh)
        np.testing.assert_allclose(out[0], 2.0 * mesh.nodes, atol=1e-9)
        # The one-sided stencil at the coarse lid end dominates the error.
        np.testing.assert_allclose(out[1], np.cos(mesh.nodes), atol=5e-4)


def _csr_pair(M: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The staggered average and difference as CSR matrices of shape ``(M, M + 1)``."""
    left = sp.eye(M, M + 1, format="csr")
    right = sp.eye(M, M + 1, k=1, format="csr")
    return 0.5 * (left + right), right - left


def _csr_apply(op: sp.csr_matrix, field: np.ndarray) -> np.ndarray:
    """``op`` applied along the last axis of ``field`` by one CSR product."""
    flat = field.reshape(-1, field.shape[-1])
    return (op @ flat.T).T.reshape(field.shape[:-1] + (op.shape[0],))


def _bytes(arr: np.ndarray) -> bytes:
    return arr.dtype.str.encode() + arr.tobytes()


def _signed_zero_field(rng, shape: tuple[int, ...], zeros: str) -> np.ndarray:
    """Normals with +-0.0 on about a third of the entries.

    A real field for ``zeros = "real field"``; otherwise complex, with the
    zeros in the ``"real"`` part, the ``"imag"`` part or ``"both"``.
    Finite only: with an inf or NaN entry the kernels and the CSR product
    agree except in the bit patterns of the NaNs they make, which the
    march never writes (the fixed point stops on a non-finite iterate).
    """
    field = np.empty(shape, dtype=float if zeros == "real field" else complex)
    parts = ("real",) if zeros == "real field" else ("real", "imag")
    for name in parts:
        getattr(field, name)[...] = rng.normal(size=shape)
        if zeros in (name, "both", "real field"):
            hit = rng.random(shape) < 0.3
            getattr(field, name)[hit] = np.where(rng.random(hit.sum()) < 0.5, -0.0, 0.0)
    return field


@pytest.mark.parametrize("n", [2, 3])
def test_staggered_divergence_equals_the_csr_formula(rng, n: int) -> None:
    grid = Grid(n=n, N=16 if n == 2 else 8, M=32 if n == 2 else 16, T=0.5, dt=0.25)
    v = rng.normal(size=(n,) + grid.tan_shape + (grid.M + 1,))
    v[rng.random(v.shape) < 0.1] = -0.0
    # the formula with both halves of the pair as CSR products
    spec = np.fft.rfftn(v, axes=tuple(range(1, n)))
    mean, jump = (_csr_apply(op, spec) for op in _csr_pair(grid.M))
    mask = grid.nyquist_mask()
    out = np.zeros(mask.shape + (grid.M,), dtype=complex)
    for d, xi in enumerate(grid.wavenumbers()):
        out += (1j * xi)[..., np.newaxis] * mean[d]
    out += jump[-1] / grid.mesh.spacings
    out = np.where(mask[..., np.newaxis], 0.0, out)
    want = np.fft.irfftn(out, s=grid.tan_shape, axes=tuple(range(n - 1)))
    assert _bytes(staggered_divergence(v, grid)) == _bytes(want)


class TestGrid:
    def test_defaults(self, grid2: Grid) -> None:
        assert grid2.X == pytest.approx(8.0 * grid2.L)
        assert grid2.steps == 2
        assert grid2.tan_shape == (16,)

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="n must be"):
            Grid(n=4)
        with pytest.raises(ValueError, match="power of two"):
            Grid(N=20)
        with pytest.raises(ValueError, match="4 L"):
            Grid(L=2.0 * pi, X=2.0 * pi)
        with pytest.raises(ValueError, match=r"^dt: T / dt = .* is not integral"):
            Grid(T=1.0, dt=0.3)

    @pytest.mark.parametrize("key", ["L", "X", "T", "dt"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_lengths_rejected(self, key: str, value: float) -> None:
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            Grid(**{key: value})

    def test_wavenumbers_match_fft_layout(self, grid2: Grid) -> None:
        (xi,) = grid2.wavenumbers()
        assert xi.shape == (grid2.N // 2 + 1,)
        np.testing.assert_allclose(
            xi[:3], np.array([0.0, 1.0, 2.0]) * (2.0 * pi / grid2.L)
        )

    def test_wavenumbers_3d_broadcast(self) -> None:
        grid = Grid(n=3, N=8, M=32, T=0.5, dt=0.25)
        xi0, xi1 = grid.wavenumbers()
        assert xi0.shape == (8, 1)
        assert xi1.shape == (1, 5)
        assert grid.nyquist_mask().shape == (8, 5)
        assert grid.nyquist_mask()[4, :].all()
        assert grid.nyquist_mask()[:, -1].all()

    def test_nyquist_mask_2d(self, grid2: Grid) -> None:
        mask = grid2.nyquist_mask()
        assert mask[-1]
        assert not mask[:-1].any()


class TestTangentialOperators:
    def test_derivative_exact_on_modes(self, grid2: Grid) -> None:
        (x,) = grid2.tangential_coordinates()
        k = 3.0 * (2.0 * pi / grid2.L)
        field = np.sin(k * x)
        first, second = tangential_derivatives(field, grid2, (1, 2))
        np.testing.assert_allclose(first, k * np.cos(k * x), atol=1e-12)
        np.testing.assert_allclose(second, -k * k * field, atol=1e-11)

    @pytest.mark.parametrize("bulk", [False, True])
    def test_shared_spectrum_derivatives_match_single(
        self, bulk: bool, rng: np.random.Generator
    ) -> None:
        # order-major, then direction; bit-identical to one call per order
        grid = Grid(n=3, N=8, M=16, T=0.5, dt=0.25)
        shape = (2,) + grid.tan_shape + ((grid.M + 1,) if bulk else ())
        field = rng.normal(size=shape)
        got = list(tangential_derivatives(field, grid, orders=range(1, 4), bulk=bulk))
        want = [
            deriv
            for order in range(1, 4)
            for deriv in tangential_derivatives(field, grid, (order,), bulk=bulk)
        ]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_plate_multipliers_equal_single_derivatives(
        self, n: int, rng: np.random.Generator
    ) -> None:
        # All plate multipliers share one inverse transform; each result is
        # the single derivative, and that is the plain spectral product.
        grid = Grid(n=n, N=8, M=16, L=7.3, X=40.0, T=0.5, dt=0.25)
        field = rng.normal(size=(3,) + grid.tan_shape)
        got = tangential_derivatives(field, grid, (1, 2, 3, 4), laplacian=True)
        single = [
            deriv for k in range(1, 5) for deriv in tangential_derivatives(field, grid, (k,))
        ] + list(tangential_derivatives(field, grid, (), laplacian=True))
        axes = tuple(range(1, n))
        spec = np.fft.rfftn(field, axes=axes)
        factors = []
        for k in range(1, 5):
            for xi in grid.wavenumbers():
                factor = (1j * xi) ** k
                factors.append(np.where(grid.nyquist_mask(), 0.0, factor) if k % 2 else factor)
        factors.append(-sum(w * w for w in grid.wavenumbers()))
        plain = [np.fft.irfftn(spec * f, s=grid.tan_shape, axes=axes) for f in factors]
        assert len(got) == len(single) == len(plain) == 4 * (n - 1) + 1
        for a, b, c in zip(got, single, plain):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_multipliers_are_built_once_per_grid(self) -> None:
        grid = Grid(n=3, N=8, M=16, T=0.5, dt=0.25)
        assert _multipliers(grid, (1, 2)) is _multipliers(grid, (1, 2))
        assert _multipliers(grid, (1, 2)).shape == (4,) + grid.nyquist_mask().shape

    def test_odd_orders_zero_nyquist(self, grid2: Grid) -> None:
        (x,) = grid2.tangential_coordinates()
        k_nyq = (grid2.N // 2) * (2.0 * pi / grid2.L)
        field = np.cos(k_nyq * x)
        (deriv,) = tangential_derivatives(field, grid2, (1,))
        np.testing.assert_allclose(deriv, 0.0, atol=1e-12)

    def test_gradient_and_laplacian(self) -> None:
        grid = Grid(n=3, N=8, M=32, T=0.5, dt=0.25)
        x0, x1 = grid.tangential_coordinates()
        base = 2.0 * pi / grid.L
        field = np.sin(base * x0) * np.cos(2.0 * base * x1)
        *grad, lap = tangential_derivatives(field, grid, (1,), laplacian=True)
        assert np.shape(grad) == (2,) + field.shape
        np.testing.assert_allclose(
            grad[0], base * np.cos(base * x0) * np.cos(2.0 * base * x1), atol=1e-12
        )
        np.testing.assert_allclose(lap, -5.0 * base * base * field, atol=1e-11)

    def test_bulk_fields_keep_vertical_axis(self, grid2: Grid) -> None:
        (x,) = grid2.tangential_coordinates()
        base = 2.0 * pi / grid2.L
        prof = np.exp(-grid2.mesh.nodes)
        bulk = np.sin(base * x)[:, np.newaxis] * prof[np.newaxis, :]
        (out,) = tangential_derivatives(bulk, grid2, (1,), bulk=True)
        expected = base * np.cos(base * x)[:, np.newaxis] * prof[np.newaxis, :]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_plate_stack_is_differentiated_level_by_level(
        self, rng: np.random.Generator
    ) -> None:
        # N = M + 1, so a stack of N plate levels has the shape of a bulk
        # field; the stated layout, not the shape, picks the axes.
        grid = Grid(n=2, N=32, M=31)
        stack = rng.normal(size=(32, 32))
        (got,) = tangential_derivatives(stack, grid, (1,))
        for level, row in zip(stack, got):
            np.testing.assert_array_equal(row, *tangential_derivatives(level, grid, (1,)))
        # read as one bulk field, the same array is differentiated along axis 0
        (bulk,) = tangential_derivatives(stack, grid, (1,), bulk=True)
        (transposed,) = tangential_derivatives(stack.T, grid, (1,))
        np.testing.assert_array_equal(bulk, transposed.T)

    def test_shape_mismatch_raises(self, grid2: Grid) -> None:
        with pytest.raises(ValueError, match="tangential grid"):
            tangential_derivatives(np.zeros(7), grid2, (1,))


class TestInPlaceTransforms:
    """The tangential transforms are numpy's, byte for byte, with in-place complex passes."""

    @staticmethod
    def _layouts(grid: Grid, rng: np.random.Generator):
        # (field, tangential axes): plate, bulk, a level axis in front of a
        # velocity field, and a velocity component, a strided view
        tan, bulk = grid.tan_shape, grid.tan_shape + (grid.M + 1,)
        count = grid.n - 1
        velocity = rng.normal(size=(3, grid.n) + bulk)
        # signed zeros, which a transform may carry through or create
        velocity[0, 0, ..., 0] = -0.0
        yield rng.normal(size=tan), tuple(range(count))
        yield rng.normal(size=bulk), tuple(range(count))
        yield velocity, tuple(range(2, 2 + count))
        yield np.moveaxis(velocity, 1, 0)[-1], tuple(range(1, 1 + count))

    @pytest.mark.parametrize("n", [2, 3])
    def test_equal_numpy_byte_for_byte(self, n: int, rng: np.random.Generator) -> None:
        grid = Grid(n=n, N=8, M=16, T=0.5, dt=0.25)
        for field, axes in self._layouts(grid, rng):
            before = field.copy()
            spec = rfftn_inplace(field, axes)
            want = np.fft.rfftn(field, axes=axes)
            assert spec.shape == want.shape and spec.tobytes() == want.tobytes()
            assert field.tobytes() == before.tobytes()
            back = np.fft.irfftn(spec, s=grid.tan_shape, axes=axes)
            got = irfftn_inplace(spec, grid.tan_shape, axes)
            assert got.shape == back.shape and got.tobytes() == back.tobytes()

    def test_one_axis_equals_numpy_byte_for_byte(self, rng: np.random.Generator) -> None:
        # leading and trailing batch axes around the transform axis, signed
        # zeros (a whole line of them among others), and strided views
        field = rng.normal(size=(3, 2, 16, 9))
        field[rng.random(field.shape) < 0.2] = -0.0
        field[1, 0, :, 4] = -0.0
        for view, axis in ((field, 2), (field[:, 1], 1), (field[..., ::2], 2), (field.T, 1)):
            before = view.copy()
            spec = rfftn_inplace(view, (axis,))
            want = np.fft.rfftn(view, axes=(axis,))
            assert spec.shape == want.shape and spec.tobytes() == want.tobytes()
            assert view.tobytes() == before.tobytes()
            spec[rng.random(spec.shape) < 0.2] = -0.0
            kept = spec.copy()
            got = irfftn_inplace(spec, (16,), (axis,))
            back = np.fft.irfftn(spec, s=(16,), axes=(axis,))
            assert got.shape == back.shape and got.tobytes() == back.tobytes()
            assert spec.tobytes() == kept.tobytes()

    def test_inverse_allocates_only_its_result(self, rng: np.random.Generator) -> None:
        grid = Grid(n=3, N=32, M=64, T=0.5, dt=0.25)
        axes = (1, 2)
        spec = rfftn_inplace(rng.normal(size=(2,) + grid.tan_shape + (grid.M + 1,)), axes)
        tracemalloc.start()
        try:
            result = irfftn_inplace(spec, grid.tan_shape, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # np.fft.irfftn also holds a spectrum-sized complex pass: 2.06 results
        assert peak < 1.05 * result.nbytes


class TestContainers:
    def test_initial_is_one_level_of_the_data(self, grid2: Grid) -> None:
        bulk = grid2.tan_shape + (grid2.M + 1,)
        eta1 = np.ones(grid2.tan_shape)
        level = ProblemData(eta1=eta1).initial(grid2)
        shapes = ((2,) + bulk, bulk, grid2.tan_shape, grid2.tan_shape)
        assert [f.shape for f in level.fields()] == [(1,) + shape for shape in shapes]
        assert not (level.v.any() or level.p.any() or level.eta.any())
        # level 0 views the data; the march copies it into its trajectory
        assert np.shares_memory(level.eta_t, eta1)
        np.testing.assert_array_equal(level.eta_t[0], eta1)

    @pytest.mark.parametrize("name", ["f_v", "g", "f_eta", "v0", "eta0", "eta1"])
    def test_materialize_rejects_a_level_axis(self, grid2: Grid, name: str) -> None:
        shape = getattr(ProblemData().materialize(grid2), name).shape
        data = ProblemData(**{name: np.zeros((2,) + shape)})
        with pytest.raises(ValueError, match=rf"^{name} has shape \(2, .*\), expected \("):
            data.materialize(grid2)

    def test_missing_fields_are_read_only_zero_views(self, grid2: Grid) -> None:
        (x,) = grid2.tangential_coordinates()
        given = ProblemData(f_eta=np.cos(2.0 * pi * x / grid2.L))
        data = given.materialize(grid2)
        missing = [data.f_v, data.g, data.v0, data.eta0, data.eta1, data.initial(grid2).p]
        for field in missing:
            # one broadcast value: no zero array is allocated
            assert not field.flags.writeable
            assert field.strides == (0,) * field.ndim
            assert not field.any()
        # the march and the compatibility check read them as they read zeros
        names = ("f_v", "g", "v0", "eta0", "eta1")
        zeros = ProblemData(
            **{name: np.zeros(getattr(data, name).shape) for name in names}, f_eta=given.f_eta
        )
        stepper = LinearStepper(PlateParams(alpha=1.0, beta=0.0, gamma=1.0), grid2)
        for got, want in zip(stepper.run(data).fields(), stepper.run(zeros).fields()):
            assert got.tobytes() == want.tobytes()
        reports = (check_compatibility(d, grid2).as_dict() for d in (data, zeros))
        assert next(reports) == next(reports)

    def test_problem_data_materialize(self, grid2: Grid) -> None:
        eta0 = np.ones(grid2.tan_shape)
        data = ProblemData(eta0=eta0, p_exponent=2.5).materialize(grid2)
        assert data.f_v.shape == (2,) + grid2.tan_shape + (grid2.M + 1,)
        assert data.g.shape == grid2.tan_shape + (grid2.M + 1,)
        np.testing.assert_array_equal(data.eta0, eta0)
        assert data.p_exponent == 2.5
