"""Discrete geometry and derivative operators for the time-domain layer.

The tangential directions form a periodic torus of period ``L`` sampled on
``N`` equispaced points per direction (``N`` a power of two), so tangential
derivatives are spectral and exact on band-limited fields.  Every
tangential transform is :func:`rfftn_inplace` or :func:`irfftn_inplace`:
numpy's ``rfftn`` and ``irfftn``, bit for bit.  On a 2D grid each is the
one 1-D transform (``rfft``, ``irfft``) those functions call, without
their per-call argument handling; on a 3D grid the complex pass over the
first tangential axis runs in an array that exists anyway instead of a
new spectrum-sized one.  The vertical
direction is a graded mesh on ``[0, X]`` refined toward the interface at
``x_n = 0``, where the exponential boundary layers live; vertical
derivatives are finite differences with Fornberg weights.  Each vertical
operator has one form: the staggered pair is two slice kernels
(:func:`cell_average`, :func:`cell_difference`), each derivative a
:class:`Stencil` table of row nodes and weights, all its rows built by
one pass of the Fornberg recursion.  The compatibility checks
apply a table with :meth:`Stencil.apply`; :func:`vertical_derivative`
multiplies whole trajectories by a CSR copy of it, the same bits several
times faster, and is all that imports scipy here, lazily.

Array layout: tangential axes first, vertical axis last.  Plate fields have
shape ``(N,) * (n-1)``, bulk scalars ``(N,) * (n-1) + (M+1,)`` and velocity
fields carry a leading component axis of length ``n``.  A :class:`Trajectory`
puts a time-level axis in front of each field.  The tangential operators
take the layout (plate or bulk) from their caller and treat every leading
axis as a batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import expm1, isfinite, pi
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Grid",
    "ProblemData",
    "Stencil",
    "Trajectory",
    "VerticalMesh",
    "cell_average",
    "cell_difference",
    "fornberg_weights",
    "irfftn_inplace",
    "level_chunks",
    "rfftn_inplace",
    "tangential_derivatives",
    "vertical_derivative",
]


def fornberg_weights(x0, xs, m: int) -> np.ndarray:
    """Finite-difference weights for derivatives 0..m at ``x0`` on nodes ``xs``.

    Classic recursive construction; returns an array of shape
    ``(m + 1, len(xs))`` whose row ``k`` gives the weights of the k-th
    derivative.  Exact for polynomials up to degree ``len(xs) - 1``.
    Points broadcast: ``x0`` of shape ``rows`` and ``xs`` of shape ``rows +
    (npts,)`` give ``(m + 1, npts) + rows``, each operation of the
    recursion elementwise over the rows, so every row has the bits of its
    own scalar call.
    """
    x0 = np.asarray(x0, dtype=float)
    xs = np.moveaxis(np.asarray(xs, dtype=float), -1, 0)
    npts = len(xs)
    if m >= npts:
        raise ValueError(f"need more than {m} nodes for derivative order {m}")
    c = np.zeros((m + 1, npts) + x0.shape)
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


@dataclass(frozen=True, eq=False)
class Stencil:
    """Rows of a banded operator on the vertical nodes.

    Row ``j`` reads the nodes ``columns[j]``, in increasing order, with the
    weights ``weights[j]``; both arrays have shape ``(rows, width)``.
    """

    columns: np.ndarray
    weights: np.ndarray

    def apply(self, field: np.ndarray) -> np.ndarray:
        """The rows applied along the last axis of ``field``; other axes are batch axes.

        Each row is summed in column order starting from ``+0.0``, as
        scipy's CSR product sums it, so the result equals that product bit
        for bit, signed zeros included.
        """
        field = np.asarray(field)
        dtype = np.result_type(self.weights, field)
        out = np.zeros(field.shape[:-1] + (len(self.columns),), dtype=dtype)
        for cols, weights in zip(self.columns.T, self.weights.T):
            out += weights * field[..., cols]
        return out


@dataclass(frozen=True, eq=False)
class VerticalMesh:
    """Graded mesh on ``[0, X]`` with ``M`` cells refined toward 0.

    Nodes follow ``x(s) = X (e^(g s) - 1) / (e^g - 1)`` on ``s = j / M``
    with fixed grading strength ``g``, so doubling ``M`` halves every local
    spacing asymptotically.  Cell midpoints carry the pressure in the
    staggered solver; the dual weights ``w_j = (h_(j-1) + h_j) / 2`` (halved
    at the ends) make the node-to-cell divergence of :func:`cell_average`
    and :func:`cell_difference` and its cell-to-node gradient exact negative
    adjoints of each other, and double as the vertical quadrature rule.
    """

    X: float
    M: int
    grading: float = 2.0

    def __post_init__(self) -> None:
        if self.X <= 0:
            raise ValueError(f"X must be positive, got {self.X}")
        if self.M < 16:
            raise ValueError(f"M must be at least 16, got {self.M}")
        if self.grading < 0:
            raise ValueError(f"grading must be nonnegative, got {self.grading}")
        s = np.linspace(0.0, 1.0, self.M + 1)
        if self.grading == 0:
            nodes = self.X * s
        else:
            nodes = self.X * np.expm1(self.grading * s) / expm1(self.grading)
        nodes[0], nodes[-1] = 0.0, self.X
        spacings = np.diff(nodes)
        weights = np.empty(self.M + 1)
        weights[0] = spacings[0] / 2.0
        weights[-1] = spacings[-1] / 2.0
        weights[1:-1] = (spacings[:-1] + spacings[1:]) / 2.0
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "spacings", spacings)
        object.__setattr__(self, "midpoints", (nodes[:-1] + nodes[1:]) / 2.0)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_diff_cache", {})

    def stencil(self, order: int = 1, accuracy: int = 4) -> Stencil:
        """Fornberg rows of the vertical derivative of ``order`` on node values.

        Each row uses a ``accuracy + order``-point Fornberg stencil centered
        as symmetrically as the boundaries allow, so the formal order of
        accuracy is uniform up to the ends.  One :func:`fornberg_weights`
        call builds every row, with the bits of a call per row.
        """
        key = (order, accuracy)
        cached = self._diff_cache.get(key)
        if cached is not None:
            return cached
        npts = order + accuracy
        if npts > self.M + 1:
            raise ValueError(
                f"stencil needs {npts} nodes but the mesh has {self.M + 1}"
            )
        lo = np.clip(np.arange(self.M + 1) - npts // 2, 0, self.M + 1 - npts)
        columns = lo[:, np.newaxis] + np.arange(npts)
        rows = fornberg_weights(self.nodes, self.nodes[columns], order)[order]
        weights = np.ascontiguousarray(rows.T)
        stencil = Stencil(columns, weights)
        self._diff_cache[key] = stencil
        return stencil

    def sbp_derivative(self, field: np.ndarray) -> np.ndarray:
        """Second-order first derivative along the last axis, exact summation by parts.

        With the dual weights ``w`` of this mesh,
        ``sum_j w_j ((D f)_j g_j + f_j (D g)_j) = f_M g_M - f_0 g_0``
        holds exactly (to rounding) for arbitrary node vectors: interior
        rows are the wide centered difference over ``(x_(j+1) - x_(j-1))``
        and the end rows are one-sided two-point differences.
        """
        stencil = self._diff_cache.get("sbp")
        if stencil is None:
            M = self.M
            columns = np.clip(np.arange(M + 1)[:, np.newaxis] + [-1, 1], 0, M)
            gaps = self.nodes[columns[:, 1]] - self.nodes[columns[:, 0]]
            stencil = Stencil(columns, np.stack([-1.0 / gaps, 1.0 / gaps], axis=1))
            self._diff_cache["sbp"] = stencil
        return stencil.apply(field)

    def trace_stencil(self) -> np.ndarray:
        """Weights of the one-sided second-order first derivative at x = 0."""
        return fornberg_weights(0.0, self.nodes[:3], 1)[1]

    def pressure_trace_stencil(self) -> np.ndarray:
        """Linear extrapolation of the first two cell midpoints to x = 0."""
        x0, x1 = self.midpoints[0], self.midpoints[1]
        return np.array([x1 / (x1 - x0), -x0 / (x1 - x0)])

    def midpoints_to_nodes(self, field: np.ndarray) -> np.ndarray:
        """Linear interpolation of midpoint values to nodes (ends extrapolated).

        Acts on the last axis (length ``M``), returns length ``M + 1``.
        """
        field = np.asarray(field)
        h = self.spacings
        out_shape = field.shape[:-1] + (self.M + 1,)
        out = np.empty(out_shape, dtype=field.dtype)
        denom = h[:-1] + h[1:]
        out[..., 1:-1] = (
            h[1:] * field[..., :-1] + h[:-1] * field[..., 1:]
        ) / denom
        c = self.pressure_trace_stencil()
        out[..., 0] = c[0] * field[..., 0] + c[1] * field[..., 1]
        xm, xl = self.midpoints[-1], self.midpoints[-2]
        t = (self.X - xl) / (xm - xl)
        out[..., -1] = (1 - t) * field[..., -2] + t * field[..., -1]
        return out

    def integrate(self, field: np.ndarray) -> np.ndarray:
        """Quadrature along the last (vertical) axis with the dual weights."""
        return np.asarray(field) @ self.weights


def cell_average(field: np.ndarray) -> np.ndarray:
    """Node-to-cell average ``(f_j + f_(j+1)) / 2`` along the last axis.

    Each cell is summed from ``+0.0`` in node order, as a CSR product sums
    a row, so the bits are that product's and no ``-0.0`` is made.
    """
    return 0.0 + 0.5 * field[..., :-1] + 0.5 * field[..., 1:]


def cell_difference(field: np.ndarray) -> np.ndarray:
    """Node-to-cell difference ``f_(j+1) - f_j`` along the last axis.

    Summed as :func:`cell_average` sums.  The staggered divergence of a
    mode with covector ``xi`` is ``i xi . A v' + H^-1 D v_n``, with ``A``
    the average, ``D`` this difference and ``H`` the cell spacings; under
    the dual weights ``W`` its negative adjoint, the pressure gradient, is
    ``i xi W^-1 A^T H p`` tangentially and ``-W^-1 D^T p`` normally.
    """
    return 0.0 + -1.0 * field[..., :-1] + 1.0 * field[..., 1:]


def vertical_derivative(
    field: np.ndarray, mesh: VerticalMesh, order: int = 1, accuracy: int = 4
) -> np.ndarray:
    """Vertical derivative along the last axis via Fornberg stencils.

    The product with a CSR copy of ``mesh.stencil(order, accuracy)``, built
    once per mesh and key; it equals that stencil's :meth:`Stencil.apply`.
    """
    key = ("csr", order, accuracy)
    mat = mesh._diff_cache.get(key)
    if mat is None:
        import scipy.sparse as sp

        stencil = mesh.stencil(order, accuracy)
        indptr = np.arange(0, stencil.columns.size + 1, stencil.columns.shape[1])
        mat = sp.csr_matrix(
            (stencil.weights.ravel(), stencil.columns.ravel(), indptr), shape=(mesh.M + 1,) * 2
        )
        mesh._diff_cache[key] = mat
    field = np.asarray(field)
    flat = field.reshape(-1, field.shape[-1])
    return (mat @ flat.T).T.reshape(field.shape)


@dataclass(frozen=True, eq=False)
class Grid:
    """Full discrete domain: tangential torus x graded vertical mesh x time.

    ``n`` is the spatial dimension (2 or 3), so there are ``n - 1``
    tangential directions with period ``L`` and ``N`` points each.  ``X``
    defaults to ``8 L`` and must be at least ``4 L`` so the lid at
    ``x_n = X`` stays far from the interface.  ``L``, ``X``, ``T`` and ``dt``
    must be finite and ``T / dt`` integral, and ``L`` and ``X`` small and
    large enough that the mesh arithmetic stays finite: the widest vertical
    stencil at both ends of the mesh, whose weights take the spacings to
    the fifth power, and the plate's largest multiplier ``|xi|^4``.
    """

    n: int = 2
    L: float = 2.0 * pi
    N: int = 32
    M: int = 64
    X: float | None = None
    T: float = 1.0
    dt: float = 1.0 / 64.0

    def __post_init__(self) -> None:
        if self.n not in (2, 3):
            raise ValueError(f"n must be 2 or 3, got {self.n}")
        given_X = self.X is not None
        for name in ("L", "X", "T", "dt"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not given_X:
            object.__setattr__(self, "X", 8.0 * self.L)
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.N < 8 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if self.X < 4.0 * self.L:
            raise ValueError(f"X = {self.X} is below the minimum 4 L = {4 * self.L}")
        for name in ("T", "dt"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        steps = round(self.T / self.dt)
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError(f"dt: T / dt = {self.T / self.dt} is not integral")
        with np.errstate(all="ignore"):
            mesh = VerticalMesh(self.X, self.M)
            vertical = [mesh.weights] + [
                fornberg_weights(mesh.nodes[end], mesh.nodes[span], 2)
                for end, span in ((0, slice(6)), (-1, slice(-6, None)))
            ]
            top = np.float_power((self.n - 1) * np.square(pi * self.N / self.L), 2)
        # a default X is 8 L: the key to name is the one that was set
        for name, values in (("X" if given_X else "L", vertical), ("L", [top])):
            if not all(np.isfinite(v).all() for v in values):
                raise ValueError(
                    f"{name} = {getattr(self, name)!r} is out of range: "
                    "the mesh arithmetic is not finite"
                )
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "_multiplier_cache", {})

    @property
    def tan_shape(self) -> tuple[int, ...]:
        return (self.N,) * (self.n - 1)

    def tangential_coordinates(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of the tangential grid (open meshgrid)."""
        pts = np.arange(self.N) * (self.L / self.N)
        return tuple(np.meshgrid(*([pts] * (self.n - 1)), indexing="ij"))

    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Spectral wavenumber arrays matching the rfftn layout.

        Returns one array per tangential direction, broadcastable against
        the spectral shape; entries are ``2 pi k / L``.
        """
        two_pi = 2.0 * pi / self.L
        if self.n == 2:
            return (two_pi * np.fft.rfftfreq(self.N, 1.0 / self.N),)
        full = two_pi * np.fft.fftfreq(self.N, 1.0 / self.N)
        half = two_pi * np.fft.rfftfreq(self.N, 1.0 / self.N)
        return (full[:, np.newaxis], half[np.newaxis, :])

    def nyquist_mask(self) -> np.ndarray:
        """True on spectral entries that carry a Nyquist mode in any direction."""
        if self.n == 2:
            mask = np.zeros(self.N // 2 + 1, dtype=bool)
            mask[-1] = True
            return mask
        mask = np.zeros((self.N, self.N // 2 + 1), dtype=bool)
        mask[self.N // 2, :] = True
        mask[:, -1] = True
        return mask


def _multipliers(grid: Grid, orders: tuple[int, ...], laplacian: bool = False) -> np.ndarray:
    """Stacked spectral multipliers, built once per grid.

    Each derivative order of ``orders`` in every direction, then the
    tangential Laplacian when asked: shape ``(count,)`` plus the spectral
    tangential shape.  Odd orders zero the Nyquist modes.
    """
    key = (orders, laplacian)
    cached = grid._multiplier_cache.get(key)
    if cached is not None:
        return cached
    shape = grid.nyquist_mask().shape
    parts = []
    for order in orders:
        for xi in grid.wavenumbers():
            factor = (1j * xi) ** order
            if order % 2:
                factor = np.where(grid.nyquist_mask(), 0.0, factor)
            parts.append(np.broadcast_to(factor, shape))
    if laplacian:
        # sum() broadcasts the per-direction arrays pairwise; np.add.reduce
        # would choke on their deliberately different broadcast shapes.
        parts.append(np.broadcast_to(-sum(w * w for w in grid.wavenumbers()), shape))
    cached = np.stack(parts).astype(complex)
    cached.flags.writeable = False
    grid._multiplier_cache[key] = cached
    return cached


def rfftn_inplace(field: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``np.fft.rfftn(field, axes=axes)``, its complex passes run in the result.

    With one axis this is ``np.fft.rfft``, the one call ``rfftn`` makes
    then, without its argument handling.  With more, the real pass writes
    a new complex array, laid out as numpy lays out its own result, and
    every later pass overwrites it, so no second spectrum-sized array is
    made.  The 1-D transforms are numpy's, in numpy's order, so the bits
    are those of ``np.fft.rfftn``; ``field`` is not changed.
    """
    if len(axes) == 1:
        return np.fft.rfft(field, axis=axes[0])
    shape = list(field.shape)
    shape[axes[-1]] = shape[axes[-1]] // 2 + 1
    out = np.empty_like(field, shape=shape, dtype=np.result_type(field, 1j))
    return np.fft.rfftn(field, axes=axes, out=out)


def irfftn_inplace(spec: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    """``np.fft.irfftn(spec, s=shape, axes=axes)``, overwriting ``spec``.

    The complex passes over every axis but the last run in ``spec``
    itself, then ``np.fft.irfft`` over the last axis makes the result, so
    only the result is allocated.  The 1-D transforms are numpy's, in
    numpy's order, so the bits are those of ``np.fft.irfftn``.  With more
    than one axis ``spec`` is left holding a partial transform; with one
    it is not changed.
    """
    for n, axis in zip(shape[:-1], axes[:-1]):
        np.fft.ifft(spec, n=n, axis=axis, out=spec)
    return np.fft.irfft(spec, n=shape[-1], axis=axes[-1])


def tangential_derivatives(
    field: np.ndarray,
    grid: Grid,
    orders: Iterable[int],
    bulk: bool = False,
    laplacian: bool = False,
) -> Iterable[np.ndarray]:
    """Spectral ``(d/dx_j)^order`` for each of ``orders``, then each direction ``j``.

    With ``laplacian`` the tangential Laplacian follows, as the last
    result.  ``bulk`` says whether ``field`` ends with the vertical axis,
    after the tangential ones; leading axes (vector components, time
    levels) are batch axes.  The spectrum is taken once.  A plate field's
    results are inverted by one transform, with the derivative axis in
    front, and returned as a tuple; a bulk field's are inverted one at a
    time as they are iterated, so that no stack of bulk results is held.
    Odd orders zero the Nyquist modes, so real fields stay exactly real
    and derivatives see the same truncation as the mode solver.
    """
    factors = _multipliers(grid, tuple(orders), laplacian)
    field = np.asarray(field, dtype=float)
    stop = field.ndim - int(bulk)
    axes = tuple(range(stop - (grid.n - 1), stop))
    if axes[0] < 0 or field.shape[axes[0]: stop] != grid.tan_shape:
        layout = "bulk" if bulk else "plate"
        raise ValueError(
            f"{layout} field shape {field.shape} does not contain the tangential "
            f"grid {grid.tan_shape} in the expected axes"
        )
    spec = rfftn_inplace(field, axes)
    # each product is a fresh spectrum, which its inverse may overwrite
    if bulk:
        return (
            irfftn_inplace(spec * factor[..., np.newaxis], grid.tan_shape, axes)
            for factor in factors
        )
    stacked = factors[(slice(None),) + (np.newaxis,) * axes[0]]
    shifted = tuple(axis + 1 for axis in axes)
    return tuple(irfftn_inplace(spec * stacked, grid.tan_shape, shifted))


@dataclass(eq=False)
class Trajectory:
    """Unknowns of consecutive time levels, each field with a leading level axis.

    ``v`` has shape ``(levels, n) + tan_shape + (M + 1,)``, ``p``, on the
    nodes, ``(levels,) + tan_shape + (M + 1,)``, ``eta`` and ``eta_t``
    ``(levels,) + tan_shape``.  All fields are real in physical space.  A
    single state is a one-level trajectory; a slice gives the
    sub-trajectory viewing the arrays.
    """

    v: np.ndarray
    p: np.ndarray
    eta: np.ndarray
    eta_t: np.ndarray

    def fields(self) -> tuple[np.ndarray, ...]:
        return self.v, self.p, self.eta, self.eta_t

    def __len__(self) -> int:
        return len(self.eta)

    def __getitem__(self, levels: slice) -> "Trajectory":
        return Trajectory(*(f[levels] for f in self.fields()))


# Levels per batched chunk: about this many velocity entries, at least one
# level.  Larger batches of FFTs and array operations stop paying off.
_CHUNK_ENTRIES = 2**15


def level_chunks(grid: Grid) -> Iterator[slice]:
    """Consecutive slices covering the levels after the initial one, ``1 .. steps``."""
    size = max(1, _CHUNK_ENTRIES // (grid.n * grid.N ** (grid.n - 1) * (grid.M + 1)))
    stop = grid.steps + 1
    for k in range(1, stop, size):
        yield slice(k, min(k + size, stop))


@dataclass(eq=False)
class ProblemData:
    """Right-hand sides and initial data for the time-domain system.

    ``f_v`` forces the momentum equation, ``g`` is the divergence datum on
    the nodes, ``f_eta`` the plate forcing; ``v0``, ``eta0``, ``eta1`` are
    initial data.  ``p_exponent`` is the integrability exponent used only
    to gate the pointwise compatibility checks.  Missing fields default to
    zero.
    """

    f_v: np.ndarray | None = None
    g: np.ndarray | None = None
    f_eta: np.ndarray | None = None
    v0: np.ndarray | None = None
    eta0: np.ndarray | None = None
    eta1: np.ndarray | None = None
    p_exponent: float = 2.0

    def materialize(self, grid: Grid) -> "ProblemData":
        """Return a copy with every ``None`` replaced by zeros of the right shape.

        The zeros are one read-only broadcast value, not an allocated array.

        A given field must have exactly its shape on ``grid``: ``(n,) + tan
        + (M + 1,)`` for ``f_v`` and ``v0``, ``tan + (M + 1,)`` for ``g``
        and ``tan`` for ``f_eta``, ``eta0`` and ``eta1``; otherwise
        ``ValueError`` names the field.
        """
        bulk = grid.tan_shape + (grid.M + 1,)
        shapes = {
            "f_v": (grid.n,) + bulk,
            "g": bulk,
            "f_eta": grid.tan_shape,
            "v0": (grid.n,) + bulk,
            "eta0": grid.tan_shape,
            "eta1": grid.tan_shape,
        }
        fields = {}
        for name, shape in shapes.items():
            value = getattr(self, name)
            value = np.broadcast_to(0.0, shape) if value is None else np.asarray(value, float)
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
            fields[name] = value
        return ProblemData(**fields, p_exponent=self.p_exponent)

    def initial(self, grid: Grid) -> Trajectory:
        """Level 0 of the march: ``v0``, zero pressure, ``eta0`` and ``eta1``.

        A one-level trajectory viewing the initial data, read-only zeros
        where a field is missing and for the pressure.
        """
        data = self.materialize(grid)
        p = np.broadcast_to(0.0, (1,) + grid.tan_shape + (grid.M + 1,))
        return Trajectory(data.v0[np.newaxis], p, data.eta0[np.newaxis], data.eta1[np.newaxis])
