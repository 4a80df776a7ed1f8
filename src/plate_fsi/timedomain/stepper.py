"""Implicit Euler time stepper for the linear coupled system.

The tangential torus diagonalizes the linear system into independent
tangential modes, so one step solves, per mode, a small sparse saddle
system on the vertical mesh: staggered velocity/pressure unknowns
(velocity on nodes, pressure on cell midpoints) plus the plate
displacement and velocity of the mode.  The modes' systems are stacked
into block-diagonal matrices, each holding a group of consecutive modes
of at most ``_GROUP_UNKNOWNS`` unknowns; every group is factorized once and
all groups are solved at each step.  The blocks do not couple, so a mode
is solved with the same operations in any group, and a group's matrix
and its factorization's workspace stay a fraction of the whole.

In 3D a mode's system sees its covector only through ``|xi|^2`` and the
odd couplings ``i xi``, so the matrix of ``(-xi_1, xi_2)`` is ``D A D``
for the matrix ``A`` of ``(xi_1, xi_2)``, with ``D = -1`` on the ``u_1``
unknowns and ``+1`` elsewhere.  Negation is exact in floating point and
leaves the pivots and the ordering unchanged, so only the modes with
``xi_1 >= 0`` are factorized: each mirrored mode is solved as a second
right-hand-side column of its partner's block, its ``u_1`` unknowns
negated on the way in and on the way out.  The results are those of
factorizing every mode, up to the sign of exact zeros.

Every discrete divergence here comes from one staggered pair, the
node-to-cell average ``A`` and difference ``D`` of :func:`~.grid.cell_average`
and :func:`~.grid.cell_difference`: the divergence rows ``i xi . A v' +
H^-1 D v_n`` of the mode matrix (the kernels' weights, placed by index),
the cell average ``A g`` of the divergence datum, and
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

from typing import Callable

import numpy as np
import scipy.sparse as sp
from numpy.typing import ArrayLike
from scipy.sparse.linalg import SuperLU, onenormest, splu

from ..params import PlateParams
from .grid import (
    Grid,
    ProblemData,
    Trajectory,
    VerticalMesh,
    cell_average,
    cell_difference,
    irfftn_inplace,
    level_chunks,
    rfftn_inplace,
    tangential_derivatives,
)

__all__ = [
    "LinearStepper",
    "ModeStepper",
    "SolverSingular",
    "staggered_divergence",
    "total_energy",
]

# Unknowns per factorized group of blocks, at least one block.  SuperLU's
# workspace grows with the group: on the sim3d grid (256 blocks, 66,816
# unknowns) one group took the process to 129 MB while it was factorized
# and left 89 MB resident; three groups of this budget peak at 98 MB.
# Budgets of 2**13 to 2**16 gave sim3d peaks within about 1 MB of each
# other, while one block per group costs a solve call per block and step.
# In 2D every mode fits in one group.
_GROUP_UNKNOWNS = 2**15


class SolverSingular(RuntimeError):
    """The saddle matrix of the tangential modes could not be factorized."""


class ModeStepper:
    """Implicit Euler step operator for a batch of tangential modes.

    ``xi`` holds the tangential wavenumber covectors, shape
    ``(n - 1,) + batch``; a single mode is the 0-d batch, ``xi`` of length
    ``n - 1``.  The unknowns of each mode are the complex amplitudes of the
    ``n`` velocity components on the nodes, the pressure on the cell
    midpoints, and the plate displacement/velocity pair.  The saddle
    matrices of consecutive modes (C order) are grouped into block-diagonal
    matrices of at most ``_GROUP_UNKNOWNS`` unknowns (at least one block
    each), whose sparse factorizations are computed once and reused for
    every step.  ``modes`` is the number of tangential modes the blocks
    serve, for messages; it defaults to one mode per block.
    """

    def __init__(
        self,
        params: PlateParams,
        xi: ArrayLike,
        mesh: VerticalMesh,
        dt: float,
        *,
        modes: int | None = None,
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
        blocks = self.xi[0].size
        # the fewest groups within the budget, their sizes within one block
        count = -(-blocks // max(1, _GROUP_UNKNOWNS // self.size))
        edges = [blocks * k // count for k in range(count + 1)]
        self._groups = [slice(a, b) for a, b in zip(edges, edges[1:])]
        self._lu = [self._factorize(k, modes) for k in range(len(self._groups))]

    def _factorize(self, k: int, modes: int | None) -> SuperLU:
        """The sparse LU factorization of group ``k``; its matrix is freed on return."""
        group = self._groups[k]
        matrix = self.matrix(group)
        try:
            return splu(matrix)
        except RuntimeError as exc:
            blocks = self.xi[0].size
            raise SolverSingular(
                f"{blocks} blocks for {modes or blocks} modes: group {k + 1} of "
                f"{len(self._groups)} (blocks {group.start} to {group.stop - 1}) "
                f"failed to factorize ({exc}); its matrix 1-norm ~ "
                f"{onenormest(matrix):.3e}"
            ) from exc

    @property
    def size(self) -> int:
        """Unknowns of one mode."""
        return (len(self.xi) + 1) * (self.mesh.M + 1) + self.mesh.M + 2

    def matrix(self, blocks: slice = slice(None)) -> sp.csc_matrix:
        """Block-diagonal saddle matrix of one step, one block per mode in C order.

        ``blocks`` selects consecutive modes of the flattened batch; all by
        default.  Each block is assembled from the rows of
        ``mesh.stencil(2, 1)`` and the entries of the staggered pair.
        """
        mesh, dt, p = self.mesh, self.dt, self.params
        M = mesh.M
        h, w = mesh.spacings, mesh.weights
        c = len(self.xi)
        # (mode, component, entry) for the covector, (mode, entry) for |xi|^2
        xi = self.xi.reshape(c, -1).T[blocks, :, np.newaxis]
        z2 = np.reshape(self.z2, (-1, 1))[blocks]
        modes = xi.shape[0]
        # unknown layout: the n velocity components on the nodes (tangential
        # first), the pressure on the cells, then (eta, psi)
        comp = np.arange(c + 1)[:, np.newaxis] * (M + 1)
        i_n, i_p = c * (M + 1), (c + 1) * (M + 1)
        i_eta, i_psi = i_p + M, i_p + M + 1
        interior = np.arange(1, M)
        lap = mesh.stencil(order=2, accuracy=1)
        # the pair's entries in row order: cell j reads the nodes j and j + 1,
        # with weights (1/2, 1/2) in the average and (-1, 1) in the difference
        cell = np.repeat(np.arange(M), 2)
        node = cell + np.tile([0, 1], M)
        dif = np.tile([-1.0, 1.0], M)
        # the gradient (negative adjoint of the divergence) acts on the
        # interior momentum rows only
        inner = (node > 0) & (node < M)
        g_node, g_cell = node[inner], cell[inner]
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
            ((comp + interior)[..., np.newaxis],
             comp[..., np.newaxis] + lap.columns[1:M], -lap.weights[1:M]),
            # pressure gradient: i xi W^-1 A^T H p and -W^-1 D^T p
            (comp[:c] + g_node, i_p + g_cell,
             1j * (xi * (0.5 * h[g_cell]) / w[g_node])),
            (i_n + g_node, i_p + g_cell, -dif[inner] / w[g_node]),
            # divergence: i xi . A v' + H^-1 D v_n
            (i_p + cell, comp[:c] + node, 1j * (xi * 0.5)),
            (i_p + cell, i_n + node, dif / h[cell]),
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

    def step(self, state: ArrayLike, forcing: ArrayLike) -> np.ndarray:
        """Advance every mode of the batch by one step.

        ``state`` holds each mode's unknowns without the pressure, which
        a step does not read: the ``n`` velocity components on the nodes,
        then ``eta`` and ``psi``, shape ``lead + batch + (size - M,)``.
        ``forcing`` is in the unknown layout, shape ``lead + batch +
        (size,)``: the momentum forcing on the velocity entries (interior
        rows read), the divergence datum averaged onto the cells on the
        pressure entries and the plate forcing on the ``psi`` entry; its
        ``eta`` entry is not read.  ``lead`` is empty or one axis of
        right-hand-side columns, all solved by one call per group.  Returns
        the new unknowns, pressure on the ``M`` cell midpoints included,
        shape ``lead + batch + (size,)``.
        """
        M, dt = self.mesh.M, self.dt
        i_p = (len(self.xi) + 1) * (M + 1)
        state, forcing = np.asarray(state), np.asarray(forcing)
        lead = state.shape[:1] if state.ndim > len(self.batch) + 1 else ()
        for name, arr, columns in (("state", state, i_p + 2), ("forcing", forcing, self.size)):
            if arr.shape != lead + self.batch + (columns,):
                raise ValueError(
                    f"{name} has shape {arr.shape}, "
                    f"expected {lead + self.batch + (columns,)}"
                )
        nodes = lead + self.batch + (len(self.xi) + 1, M + 1)
        b = np.zeros(lead + self.batch + (self.size,), dtype=complex)
        b_v = b[..., :i_p].reshape(nodes)
        np.divide(state[..., :i_p].reshape(nodes)[..., 1:M], dt, out=b_v[..., 1:M])
        b_v[..., 1:M] += forcing[..., :i_p].reshape(nodes)[..., 1:M]
        b[..., i_p: i_p + M] = forcing[..., i_p: i_p + M]
        b[..., i_p + M] = state[..., -2]
        # psi / dt as complex division by a real number rounds it (Smith's
        # formula with a zero ratio), which also fixes the signs of zeros
        psi = state[..., -1].astype(complex)
        b[..., -1].real = (psi.real + psi.imag * 0.0) / dt
        b[..., -1].imag = (psi.imag - psi.real * 0.0) / dt
        b[..., -1] -= forcing[..., -1]
        # each group's solution overwrites its right-hand side, which the
        # solve has copied; the lead columns are the columns of one 2-D
        # right-hand side, each solved with the operations of a 1-D solve
        blocks = b.reshape(lead + (-1, self.size))
        for group, lu in zip(self._groups, self._lu):
            rhs = blocks[..., group, :]
            rhs[...] = lu.solve(rhs.reshape(lead + (-1,)).T).T.reshape(rhs.shape)
        return b


class LinearStepper:
    """Implicit Euler stepper for the full linear system on a :class:`Grid`.

    A step packs the state's real unknowns (velocity on the nodes,
    ``eta``, ``eta_t``) as the columns of one ``tan_shape + (columns,)``
    array in the mode solver's unknown layout, transforms it to
    tangential modes once, advances all modes with one
    :class:`ModeStepper` (Nyquist modes are projected out) and transforms
    the whole solution back once (:func:`rfftn_inplace`,
    :func:`irfftn_inplace`).  The returned levels carry the pressure
    interpolated from the staggered midpoints to the nodes.

    The one array a step does not make is the solution spectrum, which
    lives with the stepper; in 3D the inverse transform runs its complex
    pass in it.  Each array a step makes is freed once its part is done:
    the forward spectrum once its modes are gathered, the gathered modes
    when the mode solver returns, and the solver's right-hand side, which
    holds the solution, once it is scattered into the spectrum, before the
    inverse transform makes the step's result.

    The mode solver factorizes the modes with ``xi_1 >= 0`` only.  In 3D
    the spectrum is gathered as ``(column, block)``: column 0 holds those
    modes, column 1 their mirrors ``(-xi_1, xi_2)`` with ``u_1`` negated.
    The ``xi_1 = 0`` blocks are their own mirrors; their second column is
    solved and dropped.  The 2D ``rfft`` axis has ``xi >= 0`` only, so
    there is one column and nothing is mirrored.
    """

    def __init__(self, params: PlateParams, grid: Grid) -> None:
        self.params = params
        self.grid = grid
        mask = grid.nyquist_mask()
        # flat C-order index of every non-Nyquist entry of the spectrum
        modes = np.flatnonzero(~mask)
        xi = np.stack([np.broadcast_to(x, mask.shape) for x in grid.wavenumbers()])
        if grid.n == 2:
            self._columns = modes[np.newaxis]
            kept = (slice(None),)
        else:
            # fftfreq rows 0 .. N/2 - 1 carry xi_1 >= 0; row r holds the
            # mirror of row (N - r) mod N.  The xi_1 = 0 row leads in C order.
            rows, cols = np.unravel_index(modes, mask.shape)
            half = rows < grid.N // 2
            mirror = np.ravel_multi_index(
                ((grid.N - rows[half]) % grid.N, cols[half]), mask.shape
            )
            self._columns = np.stack([modes[half], mirror])
            kept = (slice(None), slice(np.count_nonzero(rows == 0), None))
        self._mode = ModeStepper(
            params, xi.reshape(grid.n - 1, -1)[:, self._columns[0]], grid.mesh,
            grid.dt, modes=modes.size,
        )
        # the spectrum of one solution, overwritten in 3D by each step's
        # inverse transform, the flat indices of its Nyquist entries and, per
        # column, the entries that receive the column's kept blocks
        self._spectrum = np.zeros(mask.shape + (self._mode.size,), dtype=complex)
        self._nyquist = np.flatnonzero(mask)
        self._dest = [(index[k], k) for index, k in zip(self._columns, kept)]
        self._axes = tuple(range(grid.n - 1))
        # velocity entries of the unknown layout
        self._i_p = grid.n * (grid.M + 1)

    def _velocity(self, packed: np.ndarray) -> np.ndarray:
        """The velocity columns of ``lead + tan_shape + (columns,)`` unknowns.

        A view, shaped as a velocity field: ``lead + (n,) + tan_shape + (M + 1,)``.
        """
        grid = self.grid
        lead = packed.ndim - grid.n
        nodes = packed[..., : self._i_p].reshape(
            packed.shape[:-1] + (grid.n, grid.M + 1)
        )
        return np.moveaxis(nodes, -2, lead)

    def _pack(self, level: Trajectory) -> np.ndarray:
        """``tan_shape + (size - M,)``: the velocity, ``eta`` and ``eta_t`` columns.

        ``level`` is a one-level trajectory.
        """
        packed = np.empty(self.grid.tan_shape + (self._i_p + 2,))
        self._velocity(packed)[...] = level.v[0]
        packed[..., -2] = level.eta[0]
        packed[..., -1] = level.eta_t[0]
        return packed

    def _unpack(self, new: np.ndarray) -> tuple[np.ndarray, ...]:
        """``v``, the midpoint pressure, ``eta`` and ``eta_t`` of ``new``.

        Views into unknowns of shape ``tan_shape + (size,)``.
        """
        i_p, M = self._i_p, self.grid.M
        return self._velocity(new), new[..., i_p: i_p + M], new[..., -2], new[..., -1]

    def _mirror(self, spec: np.ndarray) -> np.ndarray:
        """Negate ``u_1`` in place on the mirrored column of ``... + (column, block, entries)``.

        A 2D spectrum has one column and is returned as it is.
        """
        if self.grid.n == 2:
            return spec
        u_1 = spec[..., 1:, :, : self.grid.M + 1]
        np.negative(u_1, out=u_1)
        return spec

    def _to_modes(self, packed: np.ndarray) -> np.ndarray:
        """``lead + tan_shape + (entries,)`` real -> ``lead + (column, block, entries)``."""
        lead = packed.ndim - self.grid.n
        spec = rfftn_inplace(packed, tuple(range(lead, packed.ndim - 1)))
        flat = spec.reshape(spec.shape[:lead] + (-1, spec.shape[-1]))
        return self._mirror(np.take(flat, self._columns, axis=lead))

    def _forcing(self, data: ProblemData, frozen: tuple | None = None) -> np.ndarray:
        """Forcing spectra in the unknown layout, ``(levels, column, block, size)``.

        The data's ``f_v``, ``g`` (on the nodes) and ``f_eta``, plus the
        level-indexed ``frozen = (f_v, g, f_eta)`` when given, are summed
        into the columns of one real array and transformed once; the
        datum's ``M + 1`` node columns then end on the ``M`` pressure
        entries and the unread ``eta`` entry, and are averaged onto the
        cells for all levels at once.
        """
        grid, i_p, M = self.grid, self._i_p, self.grid.M
        levels = 1 if frozen is None else len(frozen[2])
        packed = np.empty((levels,) + grid.tan_shape + (self._mode.size,))
        columns = (self._velocity(packed), packed[..., i_p:-1], packed[..., -1])
        bases = (data.f_v, data.g, data.f_eta)
        for out, base, extra in zip(columns, bases, frozen or (None,) * 3):
            if extra is None:
                out[...] = base
            else:
                np.add(base, extra, out=out)
        spec = self._to_modes(packed)
        spec[..., i_p: i_p + M] = cell_average(spec[..., i_p:-1])
        return spec

    def _advance(self, packed: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        """One step from packed physical unknowns; returns ``tan_shape + (size,)``.

        The 3D inverse transform overwrites ``self._spectrum``, so each
        step sets every entry again: the Nyquist entries to zero, the
        others to the solved modes, which are freed before the inverse.
        """
        flat = self._spectrum.reshape(-1, self._mode.size)
        flat[self._nyquist] = 0.0
        new = self._mirror(self._mode.step(self._to_modes(packed), forcing))
        for column, (dest, kept) in zip(new, self._dest):
            flat[dest] = column[kept]
        del new, column
        return irfftn_inplace(self._spectrum, self.grid.tan_shape, self._axes)

    def run(
        self,
        data: ProblemData,
        extra: Callable[[slice], tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
        sink: Callable[[slice, Trajectory], None] | None = None,
    ) -> Trajectory | None:
        """March from the data's initial state over the grid horizon.

        The levels after ``data.initial(grid)``, one per step, are marched
        in the chunks of :func:`level_chunks`, each into a trajectory of
        its own levels, which is then passed to ``sink(levels, chunk)``.
        The sink is called once per chunk, in order, and owns the chunk.
        Without a sink the chunks are stored: ``run`` returns the whole
        trajectory, ``grid.steps + 1`` levels with a copy of the initial
        level first.  With one nothing is kept and ``run`` returns
        ``None``.

        ``extra(levels)``, if given, is called once per chunk, in order,
        before the chunk is marched; it returns ``(f_v, g, f_eta)`` with a
        leading axis over ``levels``, added to the data's forcing of those
        levels and transformed once per chunk.  Without it the forcing is
        constant and transformed once.  Every step transforms its packed
        unknowns once each way and writes its level in place; the
        pressure is interpolated to the nodes once per chunk.
        """
        grid = self.grid
        data = data.materialize(grid)
        start = data.initial(grid)
        out = None
        if sink is None:
            out = Trajectory(*(np.empty((grid.steps + 1,) + f.shape[1:]) for f in start.fields()))

            def sink(levels: slice, chunk: Trajectory) -> None:
                for whole, part in zip(out.fields(), chunk.fields()):
                    whole[levels] = part

            sink(slice(0, 1), start)
        packed = self._pack(start)
        constant = self._forcing(data) if extra is None else None
        for levels in level_chunks(grid):
            # the chunk is built in a call of its own, so its forcing and
            # step buffers are freed before the next chunk's extra(levels)
            sink(levels, self._chunk(data, packed, levels, extra, constant))
        return out

    def _chunk(
        self,
        data: ProblemData,
        packed: np.ndarray,
        levels: slice,
        extra: Callable[[slice], tuple[np.ndarray, np.ndarray, np.ndarray]] | None,
        constant: np.ndarray | None,
    ) -> Trajectory:
        """March the ``levels`` from ``packed``, which is advanced in place.

        The forcing is ``constant`` for every level, or the data's plus
        ``extra(levels)`` when ``extra`` is given.
        """
        grid, i_p = self.grid, self._i_p
        count = levels.stop - levels.start
        if extra is None:
            forcing = np.broadcast_to(constant, (count,) + constant.shape[1:])
        else:
            forcing = self._forcing(data, extra(levels))
        v = np.empty((count, grid.n) + grid.tan_shape + (grid.M + 1,))
        eta, eta_t = (np.empty((count,) + grid.tan_shape) for _ in range(2))
        p_mid = np.empty((count,) + grid.tan_shape + (grid.M,))
        for j in range(count):
            new = self._advance(packed, forcing[j])
            v[j], p_mid[j], eta[j], eta_t[j] = self._unpack(new)
            packed[..., :i_p] = new[..., :i_p]
            packed[..., -2:] = new[..., -2:]
        return Trajectory(v, grid.mesh.midpoints_to_nodes(p_mid), eta, eta_t)


def staggered_divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell divergence as the mode solver sees it, shape ``tan + (M,)``.

    Tangential derivatives act spectrally on the node-pair averages and
    the vertical part is the exact cell difference, both from the
    staggered pair; the result is the residual field the pressure
    multiplier annihilates.
    """
    spec = rfftn_inplace(np.asarray(v, dtype=float), tuple(range(1, grid.n)))
    mean = cell_average(spec[:-1])
    mask = grid.nyquist_mask()
    out = np.zeros(mask.shape + (grid.M,), dtype=complex)
    for d, xi in enumerate(grid.wavenumbers()):
        out += (1j * xi)[..., np.newaxis] * mean[d]
    out += cell_difference(spec[-1]) / grid.mesh.spacings
    out = np.where(mask[..., np.newaxis], 0.0, out)
    return irfftn_inplace(out, grid.tan_shape, tuple(range(grid.n - 1)))


def total_energy(traj: Trajectory, grid: Grid, params: PlateParams) -> np.ndarray:
    """Quadratic energy of each level: kinetic fluid part plus plate kinetic and elastic.

    ``(1/2) int |v|^2 + (1/2) int' eta_t^2 + alpha |lap' eta|^2
    + beta |grad' eta|^2``; meaningful as a Lyapunov diagnostic for
    ``beta >= 0``.
    """
    cell = (grid.L / grid.N) ** (grid.n - 1)
    tan = tuple(range(1, grid.n))
    v2 = grid.mesh.integrate(np.sum(traj.v**2, axis=1))
    kinetic = 0.5 * np.sum(v2, axis=tan) * cell
    *grad, lap = tangential_derivatives(traj.eta, grid, (1,), laplacian=True)
    plate = 0.5 * np.sum(
        traj.eta_t**2
        + params.alpha * lap**2
        + params.beta * np.sum(np.stack(grad) ** 2, axis=0),
        axis=tan,
    ) * cell
    return kinetic + plate
