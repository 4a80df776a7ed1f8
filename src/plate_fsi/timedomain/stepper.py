"""Implicit Euler time stepper for the linear coupled system.

The tangential torus diagonalizes the linear system into independent
tangential modes, so one step solves, per mode, a small sparse saddle
system on the vertical mesh: staggered velocity/pressure unknowns
(velocity on nodes, pressure on cell midpoints) plus the plate
displacement and velocity of the mode.  The modes' systems are stacked
into one block-diagonal matrix, factorized once and solved together.

Every discrete divergence here comes from the mesh's staggered pair
(:meth:`VerticalMesh.staggered_pair`, the node-to-cell average ``A`` and
difference ``D``): the divergence rows ``i xi . A v' + H^-1 D v_n`` of the
mode matrix, the cell average ``A g`` of the divergence datum, and
:func:`staggered_divergence`.  The pressure columns of the momentum rows
are its exact negative adjoint under the dual mesh weights, so the
pressure does no work on discretely divergence-free fields and the
implicit step inherits the energy decay of the continuous system.

Boundary rows: no-slip for the tangential velocity at both ends, the
kinematic coupling ``v_n(0) = eta_t`` at the plate, a rigid lid at
``x_n = X``, and the plate balance driven by the shear trace
``2 d_n v_n(0)`` minus the pressure trace.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp
from numpy.typing import ArrayLike
from scipy.sparse.linalg import onenormest, splu

from ..params import PlateParams
from .grid import Grid, ProblemData, State, Trajectory, VerticalMesh, level_chunks

__all__ = [
    "LinearStepper",
    "ModeStepper",
    "SolverSingular",
    "staggered_divergence",
    "total_energy",
]


class SolverSingular(RuntimeError):
    """The saddle matrix of the tangential modes could not be factorized."""


class ModeStepper:
    """Implicit Euler step operator for a batch of tangential modes.

    ``xi`` holds the tangential wavenumber covectors, shape
    ``(n - 1,) + batch``; a single mode is the 0-d batch, ``xi`` of length
    ``n - 1``.  The unknowns of each mode are the complex amplitudes of the
    ``n`` velocity components on the nodes, the pressure on the cell
    midpoints, and the plate displacement/velocity pair.  The saddle
    matrices of all modes form one block-diagonal matrix whose sparse
    factorization is computed once and reused for every step.
    """

    def __init__(
        self,
        params: PlateParams,
        xi: ArrayLike,
        mesh: VerticalMesh,
        dt: float,
    ) -> None:
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.params = params
        self.mesh = mesh
        self.dt = float(dt)
        self.xi = np.asarray(xi, dtype=float)
        if self.xi.ndim == 0 or self.xi.shape[0] == 0:
            raise ValueError("xi needs at least one tangential component")
        self.batch = self.xi.shape[1:]
        # summed in component order, as a Python sum over one covector
        self.z2 = sum(x * x for x in self.xi)
        matrix = self.matrix()
        try:
            self._lu = splu(matrix)
        except RuntimeError as exc:
            raise SolverSingular(
                f"{self.xi[0].size} modes: factorization failed ({exc}); "
                f"matrix 1-norm ~ {onenormest(matrix):.3e}"
            ) from exc

    @property
    def size(self) -> int:
        """Unknowns of one mode."""
        return (len(self.xi) + 1) * (self.mesh.M + 1) + self.mesh.M + 2

    def matrix(self) -> sp.csc_matrix:
        """Block-diagonal saddle matrix of one step, one block per mode in C order.

        Each block is assembled from the mesh's staggered pair.
        """
        mesh, dt, p = self.mesh, self.dt, self.params
        M = mesh.M
        h, w = mesh.spacings, mesh.weights
        c = len(self.xi)
        # (mode, component, entry) for the covector, (mode, entry) for |xi|^2
        xi = self.xi.reshape(c, -1).T[:, :, np.newaxis]
        z2 = np.reshape(self.z2, (-1, 1))
        modes = xi.shape[0]
        # unknown layout: the n velocity components on the nodes (tangential
        # first), the pressure on the cells, then (eta, psi)
        comp = np.arange(c + 1)[:, np.newaxis] * (M + 1)
        i_n, i_p = c * (M + 1), (c + 1) * (M + 1)
        i_eta, i_psi = i_p + M, i_p + M + 1
        interior = np.arange(1, M)
        lap = mesh.diff_matrix(order=2, accuracy=1)[1:M].tocoo()
        avg, dif = (op.tocoo() for op in mesh.staggered_pair())
        # the gradient (negative adjoint of the divergence) acts on the
        # interior momentum rows only
        a_in = (avg.col > 0) & (avg.col < M)
        a_node, a_cell = avg.col[a_in], avg.row[a_in]
        d_in = (dif.col > 0) & (dif.col < M)
        d_node, d_cell = dif.col[d_in], dif.row[d_in]
        ts = mesh.trace_stencil()
        c0, c1 = mesh.pressure_trace_stencil()

        # (rows, cols, values) per block, the values with a leading mode
        # axis.  Values are formed entry by entry rather than as sparse
        # products, which would re-round them: the late Picard contraction
        # ratios react to single-ulp changes.  For the same reason z2^2 is
        # np.float_power (libm's pow, as a Python float's ** uses), not
        # z2 * z2.
        blocks = [
            # no-slip for v' at both ends, rigid lid for v_n, kinematic
            # coupling v_n(0) = psi
            (comp + np.array([0, M]), comp + np.array([0, M]), 1.0),
            (i_n, i_psi, -1.0),
            # interior momentum rows: 1/dt + |xi|^2 - d_n^2
            (comp + interior, comp + interior, (1.0 / dt + z2)[:, :, np.newaxis]),
            (comp + 1 + lap.row, comp + lap.col, -lap.data),
            # pressure gradient: i xi W^-1 A^T H p and -W^-1 D^T p
            (comp[:c] + a_node, i_p + a_cell,
             1j * (xi * (avg.data[a_in] * h[a_cell]) / w[a_node])),
            (i_n + d_node, i_p + d_cell, -dif.data[d_in] / w[d_node]),
            # divergence: i xi . A v' + H^-1 D v_n
            (i_p + avg.row, comp[:c] + avg.col, 1j * (xi * avg.data)),
            (i_p + dif.row, i_n + dif.col, dif.data / h[dif.row]),
            # plate: eta - dt psi = eta_old, and the balance driven by the
            # shear trace 2 d_n v_n(0) minus the pressure trace
            (i_eta, [i_eta, i_psi], [1.0, -dt]),
            (i_psi, [i_psi, i_eta],
             np.hstack([1.0 / dt + p.gamma * z2,
                        p.alpha * np.float_power(z2, 2) + p.beta * z2])),
            (i_psi, i_n + np.arange(ts.size), -2.0 * ts),
            (i_psi, [i_p, i_p + 1], [c0, c1]),
        ]
        offset = (np.arange(modes) * self.size)[:, np.newaxis]
        parts = []
        for rows, cols, vals in blocks:
            rows, cols = np.broadcast_arrays(rows, cols)
            parts.append((
                (offset + rows.ravel()).ravel(),
                (offset + cols.ravel()).ravel(),
                np.broadcast_to(vals, (modes,) + rows.shape).ravel(),
            ))
        rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
        total = modes * self.size
        return sp.coo_matrix(
            (vals, (rows, cols)), shape=(total, total), dtype=complex
        ).tocsc()

    def step(
        self,
        v_hat: ArrayLike,
        eta_hat: ArrayLike,
        psi_hat: ArrayLike,
        f_v_hat: ArrayLike | None = None,
        g_hat: ArrayLike | None = None,
        f_eta_hat: ArrayLike = 0.0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance every mode of the batch by one step.

        ``v_hat`` holds the ``n`` velocity component amplitudes on the
        nodes, shape ``batch + (n, M + 1)``; ``g_hat`` is the divergence
        datum on the nodes, ``batch + (M + 1,)`` (averaged onto cells
        internally); ``eta_hat``, ``psi_hat`` and ``f_eta_hat`` broadcast
        to ``batch``.  Returns the new ``(v_hat, p_mid_hat, eta_hat,
        psi_hat)`` with the pressure on the ``M`` cell midpoints, shape
        ``batch + (M,)``.
        """
        M, dt = self.mesh.M, self.dt
        c = len(self.xi)
        shape = self.batch + (c + 1, M + 1)
        v_hat = np.asarray(v_hat)
        if v_hat.shape != shape:
            raise ValueError(f"v_hat has shape {v_hat.shape}, expected {shape}")
        i_p = (c + 1) * (M + 1)
        b = np.zeros(self.batch + (self.size,), dtype=complex)
        b_v = b[..., :i_p].reshape(shape)
        b_v[..., 1:M] = v_hat[..., 1:M] / dt
        if f_v_hat is not None:
            b_v[..., 1:M] += np.asarray(f_v_hat)[..., 1:M]
        if g_hat is not None:
            avg = self.mesh.staggered_pair()[0]
            nodes = np.asarray(g_hat, dtype=complex).reshape(-1, M + 1)
            b[..., i_p: i_p + M] = (avg @ nodes.T).T.reshape(self.batch + (M,))
        b[..., i_p + M] = eta_hat
        # psi / dt as complex division by a real number rounds it (Smith's
        # formula with a zero ratio), which also fixes the signs of zeros
        psi = np.asarray(psi_hat, dtype=complex)
        b[..., -1].real = (psi.real + psi.imag * 0.0) / dt
        b[..., -1].imag = (psi.imag - psi.real * 0.0) / dt
        b[..., -1] -= f_eta_hat
        sol = self._lu.solve(b.ravel()).reshape(b.shape)
        return (
            sol[..., :i_p].reshape(shape),
            sol[..., i_p: i_p + M],
            sol[..., -2],
            sol[..., -1],
        )


class LinearStepper:
    """Implicit Euler stepper for the full linear system on a :class:`Grid`.

    Transforms the state to tangential modes, advances all of them with
    one :class:`ModeStepper` (Nyquist modes are projected out), and
    transforms back.  The returned states carry the pressure interpolated
    from the staggered midpoints to the nodes.
    """

    def __init__(self, params: PlateParams, grid: Grid) -> None:
        self.params = params
        self.grid = grid
        mask = grid.nyquist_mask()
        self._shape, self._mask_size = mask.shape, mask.size
        # flat C-order index of every non-Nyquist entry of the spectrum
        self._modes = np.flatnonzero(~mask)
        xi = np.stack([np.broadcast_to(x, mask.shape) for x in grid.wavenumbers()])
        self._mode = ModeStepper(
            params, xi.reshape(grid.n - 1, -1)[:, self._modes], grid.mesh, grid.dt
        )

    def _to_modes(self, field: np.ndarray, tail: int = 0) -> np.ndarray:
        """``lead + tan_shape + tail`` real field -> ``lead + (mode,) + tail`` spectrum."""
        field = np.asarray(field, dtype=float)
        stop = field.ndim - tail
        axes = tuple(range(stop - (self.grid.n - 1), stop))
        spec = np.fft.rfftn(field, axes=axes)
        flat = spec.reshape(spec.shape[: axes[0]] + (-1,) + spec.shape[stop:])
        return np.take(flat, self._modes, axis=axes[0])

    def _from_modes(self, values: np.ndarray, tail: int = 0) -> np.ndarray:
        """Inverse of :meth:`_to_modes`, zero on the Nyquist entries."""
        axis = values.ndim - 1 - tail
        lead, rest = values.shape[:axis], values.shape[axis + 1:]
        spec = np.zeros(lead + (self._mask_size,) + rest, dtype=complex)
        spec[(slice(None),) * axis + (self._modes,)] = values
        spec = spec.reshape(lead + self._shape + rest)
        axes = tuple(range(axis, axis + self.grid.n - 1))
        return np.fft.irfftn(spec, s=self.grid.tan_shape, axes=axes)

    def _velocity_modes(self, v: np.ndarray) -> np.ndarray:
        """``lead + (n,) + tan + (M + 1,)`` -> ``lead + (mode, n, M + 1)``."""
        return self._to_modes(np.moveaxis(np.asarray(v), -(self.grid.n + 1), -2), tail=2)

    def _forcing_modes(self, f_v, g, f_eta) -> tuple:
        return (
            None if f_v is None else self._velocity_modes(f_v),
            None if g is None else self._to_modes(g, tail=1),
            0.0 if f_eta is None else self._to_modes(f_eta),
        )

    def _advance(self, v, eta, eta_t, f_v_hat, g_hat, f_eta_hat) -> tuple:
        """One step from physical ``v, eta, eta_t`` under forcing spectra.

        Returns the new physical ``v, eta, eta_t`` and the midpoint
        pressure modes.
        """
        plate = self._to_modes(np.stack([eta, eta_t]))
        v_new, p_mid, eta_new, psi_new = self._mode.step(
            self._velocity_modes(v), plate[0], plate[1], f_v_hat, g_hat, f_eta_hat
        )
        v = np.moveaxis(self._from_modes(v_new, tail=2), -2, -(self.grid.n + 1))
        eta, psi = self._from_modes(np.stack([eta_new, psi_new]))
        return v, eta, psi, p_mid

    def _pressure(self, p_mid: np.ndarray) -> np.ndarray:
        """Midpoint pressure modes -> physical pressure on the nodes."""
        return self.grid.mesh.midpoints_to_nodes(self._from_modes(p_mid, tail=1))

    def step(
        self,
        state: State,
        f_v: np.ndarray | None = None,
        g: np.ndarray | None = None,
        f_eta: np.ndarray | None = None,
    ) -> State:
        """One implicit Euler step under the given (already-evaluated) data."""
        v, eta, psi, p_mid = self._advance(
            state.v, state.eta, state.eta_t, *self._forcing_modes(f_v, g, f_eta)
        )
        return State(v=v, p=self._pressure(p_mid), eta=eta, eta_t=psi)

    def march(
        self,
        state: State,
        data: ProblemData,
        extra: Callable[[slice], tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
    ) -> Iterator[tuple[slice, Trajectory]]:
        """March from ``state`` over the grid horizon, one chunk of levels at a time.

        Yields ``(levels, chunk)``: first the initial state as level 0, then
        the chunks of :func:`level_chunks`.  ``data`` must be materialized.
        ``extra(levels)``, if given, returns ``(f_v, g, f_eta)`` with a
        leading axis over ``levels``, added to the data's forcing of those
        levels and transformed once per chunk; without it the forcing is
        constant and transformed once.  Every step still returns to
        physical space, and the pressure is recovered once per chunk.
        """
        grid = self.grid
        yield slice(0, 1), Trajectory.of(state)
        now = state.v, state.eta, state.eta_t
        if extra is None:
            constant = self._forcing_modes(data.f_v, data.g, data.f_eta)
        for levels in level_chunks(grid, 1, grid.steps + 1):
            count = levels.stop - levels.start
            if extra is None:
                forcing = [constant] * count
            else:
                f_v, g, f_eta = extra(levels)
                forcing = zip(*self._forcing_modes(data.f_v + f_v, data.g + g, data.f_eta + f_eta))
            v = np.empty((count,) + np.shape(state.v))
            eta = np.empty((count,) + grid.tan_shape)
            psi = np.empty((count,) + grid.tan_shape)
            p_mid = []
            for j, spectra in enumerate(forcing):
                v[j], eta[j], psi[j], p = self._advance(*now, *spectra)
                now = v[j], eta[j], psi[j]
                p_mid.append(p)
            p = self._pressure(np.stack(p_mid))
            yield levels, Trajectory(v=v, p=p, eta=eta, eta_t=psi)

    def run(self, state: State, data: ProblemData) -> Trajectory:
        """March constant-in-time data over the grid horizon.

        Returns the trajectory including a copy of the initial state,
        ``grid.steps + 1`` levels.
        """
        data = data.materialize(self.grid)
        return Trajectory.collect(self.march(state, data), self.grid.steps + 1)


def staggered_divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell divergence as the mode solver sees it, shape ``tan + (M,)``.

    Tangential derivatives act spectrally on the node-pair averages and
    the vertical part is the exact cell difference, both from the mesh's
    staggered pair; the result is the residual field the pressure
    multiplier annihilates.
    """
    spec = np.fft.rfftn(np.asarray(v, dtype=float), axes=tuple(range(1, grid.n)))
    avg, dif = grid.mesh.staggered_pair()
    nodes = spec.reshape(-1, grid.M + 1).T
    cells = spec.shape[:-1] + (grid.M,)
    mean, jump = ((op @ nodes).T.reshape(cells) for op in (avg, dif))
    mask = grid.nyquist_mask()
    out = np.zeros(mask.shape + (grid.M,), dtype=complex)
    for d, xi in enumerate(grid.wavenumbers()):
        out += (1j * xi)[..., np.newaxis] * mean[d]
    out += jump[-1] / grid.mesh.spacings
    out = np.where(mask[..., np.newaxis], 0.0, out)
    axes = tuple(range(grid.n - 1))
    return np.fft.irfftn(out, s=grid.tan_shape, axes=axes)


def total_energy(state: State, grid: Grid, params: PlateParams) -> float:
    """Quadratic energy: kinetic fluid part plus plate kinetic and elastic.

    ``(1/2) int |v|^2 + (1/2) int' eta_t^2 + alpha |lap' eta|^2
    + beta |grad' eta|^2``; meaningful as a Lyapunov diagnostic for
    ``beta >= 0``.
    """
    from .grid import tangential_gradient, tangential_laplacian

    cell = (grid.L / grid.N) ** (grid.n - 1)
    kinetic = 0.5 * float(np.sum(np.sum(state.v**2, axis=0) @ grid.mesh.weights)) * cell
    lap = tangential_laplacian(state.eta, grid)
    grad = tangential_gradient(state.eta, grid)
    plate = 0.5 * float(
        np.sum(
            state.eta_t**2
            + params.alpha * lap**2
            + params.beta * np.sum(grad**2, axis=0)
        )
    ) * cell
    return kinetic + plate
