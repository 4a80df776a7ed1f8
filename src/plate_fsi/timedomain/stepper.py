"""Implicit Euler time stepper for the linear coupled system.

The tangential torus diagonalizes the linear system into independent
tangential modes, so one step solves, per mode, a small sparse saddle
system on the vertical mesh: staggered velocity/pressure unknowns
(velocity on nodes, pressure on cell midpoints) plus the plate
displacement and velocity of the mode.

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

from math import sqrt
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import onenormest, splu

from ..params import PlateParams
from .grid import Grid, ProblemData, State, VerticalMesh

__all__ = [
    "LinearStepper",
    "ModeStepper",
    "SolverSingular",
    "staggered_divergence",
    "total_energy",
]


class SolverSingular(RuntimeError):
    """The saddle matrix of one tangential mode could not be factorized."""


class ModeStepper:
    """One implicit Euler step operator for a single tangential mode.

    ``xi`` is the tangential wavenumber covector (length ``n - 1``); the
    unknowns of the mode are the complex amplitudes of the ``n`` velocity
    components on the nodes, the pressure on the cell midpoints, and the
    plate displacement/velocity pair.  The sparse factorization is
    computed once and reused for every step.
    """

    def __init__(
        self,
        params: PlateParams,
        xi: Sequence[float],
        mesh: VerticalMesh,
        dt: float,
    ) -> None:
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.params = params
        self.mesh = mesh
        self.dt = float(dt)
        self.xi = tuple(float(x) for x in xi)
        if not self.xi:
            raise ValueError("xi needs at least one tangential component")
        self.z2 = float(sum(x * x for x in self.xi))
        self.z = sqrt(self.z2)
        matrix = self.matrix()
        try:
            self._lu = splu(matrix)
        except RuntimeError as exc:
            raise SolverSingular(
                f"mode xi={self.xi}: factorization failed ({exc}); "
                f"matrix 1-norm ~ {onenormest(matrix):.3e}"
            ) from exc

    @property
    def size(self) -> int:
        return (len(self.xi) + 1) * (self.mesh.M + 1) + self.mesh.M + 2

    def matrix(self) -> sp.csc_matrix:
        """The saddle matrix of one step, assembled from the mesh's staggered pair."""
        mesh, dt, p = self.mesh, self.dt, self.params
        M = mesh.M
        h, w = mesh.spacings, mesh.weights
        xi = np.array(self.xi)[:, np.newaxis]
        c = len(self.xi)
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

        # (rows, cols, values) per block.  Values are formed entry by entry
        # rather than as sparse products, which would re-round them: the
        # late Picard contraction ratios react to single-ulp changes.
        blocks = [
            # no-slip for v' at both ends, rigid lid for v_n, kinematic
            # coupling v_n(0) = psi
            (comp + np.array([0, M]), comp + np.array([0, M]), 1.0),
            (i_n, i_psi, -1.0),
            # interior momentum rows: 1/dt + |xi|^2 - d_n^2
            (comp + interior, comp + interior, 1.0 / dt + self.z2),
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
             [1.0 / dt + p.gamma * self.z2, p.alpha * self.z2**2 + p.beta * self.z2]),
            (i_psi, i_n + np.arange(ts.size), -2.0 * ts),
            (i_psi, [i_p, i_p + 1], [c0, c1]),
        ]
        rows, cols, vals = (
            np.concatenate(part)
            for part in zip(*(map(np.ravel, np.broadcast_arrays(*b)) for b in blocks))
        )
        return sp.coo_matrix(
            (vals, (rows, cols)), shape=(self.size, self.size), dtype=complex
        ).tocsc()

    def step(
        self,
        v_hat: np.ndarray,
        eta_hat: complex,
        psi_hat: complex,
        f_v_hat: np.ndarray | None = None,
        g_hat: np.ndarray | None = None,
        f_eta_hat: complex = 0.0,
    ) -> tuple[np.ndarray, np.ndarray, complex, complex]:
        """Advance the mode by one step.

        ``v_hat`` holds the ``n`` velocity component amplitudes on the
        nodes, shape ``(n, M + 1)``; ``g_hat`` is the divergence datum on
        the nodes (averaged onto cells internally).  Returns the new
        ``(v_hat, p_mid_hat, eta_hat, psi_hat)`` with the pressure on the
        ``M`` cell midpoints.
        """
        M, dt = self.mesh.M, self.dt
        shape = (len(self.xi) + 1, M + 1)
        v_hat = np.asarray(v_hat)
        if v_hat.shape != shape:
            raise ValueError(f"v_hat has shape {v_hat.shape}, expected {shape}")
        i_p = shape[0] * shape[1]
        b = np.zeros(self.size, dtype=complex)
        b_v = b[:i_p].reshape(shape)
        b_v[:, 1:M] = v_hat[:, 1:M] / dt
        if f_v_hat is not None:
            b_v[:, 1:M] += f_v_hat[:, 1:M]
        if g_hat is not None:
            b[i_p: i_p + M] = self.mesh.staggered_pair()[0] @ g_hat
        b[i_p + M] = eta_hat
        b[i_p + M + 1] = psi_hat / dt - f_eta_hat
        sol = self._lu.solve(b)
        return sol[:i_p].reshape(shape), sol[i_p: i_p + M], complex(sol[-2]), complex(sol[-1])


def _bulk_spectrum(field: np.ndarray, grid: Grid) -> np.ndarray:
    axes = tuple(range(field.ndim - grid.n, field.ndim - 1))
    return np.fft.rfftn(field, axes=axes)


def _plate_spectrum(field: np.ndarray, grid: Grid) -> np.ndarray:
    axes = tuple(range(field.ndim - (grid.n - 1), field.ndim))
    return np.fft.rfftn(field, axes=axes)


class LinearStepper:
    """Implicit Euler stepper for the full linear system on a :class:`Grid`.

    Transforms the state to tangential modes, advances each mode with a
    cached :class:`ModeStepper` (Nyquist modes are projected out), and
    transforms back.  The returned state carries the pressure interpolated
    from the staggered midpoints to the nodes.
    """

    def __init__(self, params: PlateParams, grid: Grid) -> None:
        self.params = params
        self.grid = grid
        self._cache: dict[tuple[int, ...], ModeStepper] = {}
        self._mask = grid.nyquist_mask()
        self._xi = np.broadcast_arrays(*grid.wavenumbers())

    def _stepper(self, idx: tuple[int, ...]) -> ModeStepper:
        st = self._cache.get(idx)
        if st is None:
            st = ModeStepper(
                self.params, [x[idx] for x in self._xi], self.grid.mesh, self.grid.dt
            )
            self._cache[idx] = st
        return st

    def step(
        self,
        state: State,
        f_v: np.ndarray | None = None,
        g: np.ndarray | None = None,
        f_eta: np.ndarray | None = None,
    ) -> State:
        """One implicit Euler step under the given (already-evaluated) data."""
        grid = self.grid
        M = grid.M
        v_spec = _bulk_spectrum(state.v, grid)
        eta_spec = _plate_spectrum(state.eta, grid)
        psi_spec = _plate_spectrum(state.eta_t, grid)
        fv_spec = None if f_v is None else _bulk_spectrum(np.asarray(f_v, float), grid)
        g_spec = None if g is None else _bulk_spectrum(np.asarray(g, float), grid)
        fe_spec = None if f_eta is None else _plate_spectrum(np.asarray(f_eta, float), grid)

        shape = self._mask.shape
        v_out = np.zeros((grid.n,) + shape + (M + 1,), dtype=complex)
        p_out = np.zeros(shape + (M,), dtype=complex)
        eta_out = np.zeros(shape, dtype=complex)
        psi_out = np.zeros(shape, dtype=complex)

        for idx in np.ndindex(shape):
            if self._mask[idx]:
                continue
            bulk = (slice(None),) + idx + (slice(None),)
            v_new, p_mid, eta_new, psi_new = self._stepper(idx).step(
                v_spec[bulk],
                complex(eta_spec[idx]),
                complex(psi_spec[idx]),
                None if fv_spec is None else fv_spec[bulk],
                None if g_spec is None else g_spec[idx + (slice(None),)],
                0.0 if fe_spec is None else complex(fe_spec[idx]),
            )
            v_out[bulk] = v_new
            p_out[idx + (slice(None),)] = p_mid
            eta_out[idx] = eta_new
            psi_out[idx] = psi_new

        tan = grid.tan_shape
        bulk_axes = tuple(range(1, grid.n))
        v = np.fft.irfftn(v_out, s=tan, axes=bulk_axes)
        p_mid_phys = np.fft.irfftn(p_out, s=tan, axes=tuple(range(grid.n - 1)))
        eta = np.fft.irfftn(eta_out, s=tan, axes=tuple(range(grid.n - 1)))
        psi = np.fft.irfftn(psi_out, s=tan, axes=tuple(range(grid.n - 1)))
        return State(v=v, p=grid.mesh.midpoints_to_nodes(p_mid_phys), eta=eta, eta_t=psi)

    def run(self, state: State, data: ProblemData) -> list[State]:
        """March constant-in-time data over the grid horizon.

        Returns the trajectory including the initial state,
        ``grid.steps + 1`` entries.
        """
        data = data.materialize(self.grid)
        out = [state.copy()]
        for _ in range(self.grid.steps):
            state = self.step(state, f_v=data.f_v, g=data.g, f_eta=data.f_eta)
            out.append(state)
        return out


def staggered_divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell divergence as the mode solver sees it, shape ``tan + (M,)``.

    Tangential derivatives act spectrally on the node-pair averages and
    the vertical part is the exact cell difference, both from the mesh's
    staggered pair; the result is the residual field the pressure
    multiplier annihilates.
    """
    spec = _bulk_spectrum(np.asarray(v, dtype=float), grid)
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
