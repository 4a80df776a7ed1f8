"""Picard iteration wrapping the linear stepper around the quadratic terms.

The nonlinear transformed system is solved as a fixed point of
``w -> L^{-1}(N(w) + f)``: each sweep re-marches the linear implicit
stepper over the whole time horizon with the quadratic correction terms
frozen from the previous iterate.  For small data the map contracts and
the successive-difference norms decay geometrically; the decay ratios
are reported, and three consecutive ratios near or above one abort with
:class:`NoContraction`.

Iterates are compared in a discrete surrogate of the solution norm: the
sup of the fields together with sups of first derivatives of the
velocity, tangential derivatives of the displacement up to fourth order,
and of the plate velocity up to second order.  This tracks the strongest
norms the contraction argument actually uses while staying cheap to
evaluate on grid functions.

Iterates are :class:`Trajectory` records, arrays with a leading time
axis.  A sweep runs in chunks of levels (:func:`level_chunks`): the frozen
quadratic terms of a chunk are evaluated in one call and its forcing
transformed once, and the surrogate norms of a chunk's levels are taken
together.  The final probe sweep is compared chunk by chunk and never
stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..indices import exponent_thresholds
from ..params import PlateParams
from .grid import (
    Grid,
    ProblemData,
    State,
    Trajectory,
    level_chunks,
    tangential_derivatives,
    vertical_derivative,
)
from .nonlin import nonlinear_terms
from .stepper import LinearStepper

__all__ = [
    "FixedPointResult",
    "NoContraction",
    "fixed_point_solve",
    "state_surrogate_norm",
    "surrogate_norms",
]

_STALL_RATIO = 0.95
_STALL_COUNT = 3


class NoContraction(RuntimeError):
    """The Picard sweeps stopped contracting (data too large)."""

    def __init__(self, message: str, ratios: list[float]):
        super().__init__(message)
        self.ratios = ratios


@dataclass
class FixedPointResult:
    """Outcome of the nonlinear solve.

    ``trajectory`` holds every time level including the initial one, as
    arrays with a leading level axis (indexing it gives one
    :class:`State`); ``residual`` is the surrogate norm of ``K(w*) - w*``
    for the returned trajectory, the largest of the per-level
    ``step_residuals``, and ``scale`` its own trajectory norm.
    """

    trajectory: Trajectory
    iterations: int
    contraction_ratios: list[float] = field(default_factory=list)
    residual: float = 0.0
    scale: float = 1.0
    converged: bool = False
    step_residuals: list[float] = field(default_factory=list)


def surrogate_norms(traj: Trajectory, grid: Grid) -> np.ndarray:
    """Discrete stand-in for the solution norm of each level of ``traj``.

    Every level is summed in the order of :func:`state_surrogate_norm`,
    so each entry equals the single-state norm bit for bit.
    """

    def sup(field: np.ndarray) -> np.ndarray:
        return np.abs(field).max(axis=tuple(range(1, field.ndim)))

    total = sup(traj.v) + sup(traj.p)
    for deriv in tangential_derivatives(traj.v, grid, orders=(1,), bulk=True):
        total += sup(deriv)
    total += sup(vertical_derivative(traj.v, grid.mesh))
    total += sup(traj.eta) + sup(traj.eta_t)
    for deriv in tangential_derivatives(traj.eta, grid, orders=range(1, 5)):
        total += sup(deriv)
    for deriv in tangential_derivatives(traj.eta_t, grid, orders=range(1, 3)):
        total += sup(deriv)
    return total


def state_surrogate_norm(state: State, grid: Grid) -> float:
    """Discrete stand-in for the solution norm of one state.

    The sup of the fields, of the first derivatives of ``v``, of the
    tangential derivatives of ``eta`` up to fourth and of ``eta_t`` up to
    second order: the one-level case of :func:`surrogate_norms`.
    """
    return float(surrogate_norms(Trajectory.of(state), grid)[0])


def _difference(a: Trajectory, b: Trajectory) -> Trajectory:
    return Trajectory(*(fa - fb for fa, fb in zip(a.fields(), b.fields())))


def _trajectory_distance(a: Trajectory, b: Trajectory, grid: Grid) -> float:
    return max(
        norm
        for levels in level_chunks(grid, 0, len(a))
        for norm in surrogate_norms(_difference(a[levels], b[levels]), grid).tolist()
    )


def _trajectory_norm(traj: Trajectory, grid: Grid) -> float:
    return max(
        norm
        for levels in level_chunks(grid, 0, len(traj))
        for norm in surrogate_norms(traj[levels], grid).tolist()
    )


def _sweep(
    stepper: LinearStepper,
    data: ProblemData,
    grid: Grid,
    source: Trajectory | None,
) -> Iterator[tuple[slice, Trajectory]]:
    """One application of the fixed-point map with the source iterate frozen.

    Yields the new iterate chunk by chunk, as :meth:`LinearStepper.march`.
    """
    state = State(
        v=data.v0,
        p=np.zeros(grid.tan_shape + (grid.M + 1,)),
        eta=data.eta0,
        eta_t=data.eta1,
    )
    extra = None if source is None else (lambda levels: nonlinear_terms(source[levels], grid))
    return stepper.march(state, data, extra)


def _finite(traj: Trajectory) -> bool:
    return all(np.isfinite(f).all() for f in traj.fields())


def fixed_point_solve(
    params: PlateParams,
    grid: Grid,
    data: ProblemData,
    max_iter: int = 25,
    rel_tol: float = 1e-8,
) -> FixedPointResult:
    """Solve the nonlinear transformed system by Picard sweeps.

    Requires the integrability exponent of the data to clear the quadratic
    embedding threshold ``(n + 2) / 3``; below it the quadratic terms are
    not controlled by the solution norm and the iteration has no
    contraction theory backing it.

    Raises :class:`NoContraction` when the sweeps diverge or stall, and
    returns a non-converged result only if ``max_iter`` is hit while the
    ratios still look contractive.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    data = data.materialize(grid)
    threshold = exponent_thresholds(grid.n).quadratic
    if data.p_exponent < float(threshold):
        raise ValueError(
            f"p_exponent = {data.p_exponent} is below the quadratic embedding "
            f"threshold {threshold} for n = {grid.n}"
        )
    stepper = LinearStepper(params, grid)
    levels = grid.steps + 1
    previous = None
    ratios: list[float] = []
    diffs: list[float] = []
    stall = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        trajectory = Trajectory.collect(_sweep(stepper, data, grid, previous), levels)
        if not _finite(trajectory):
            raise NoContraction(
                f"iterate {iterations} left the finite range", ratios
            )
        if previous is not None:
            diff = _trajectory_distance(trajectory, previous, grid)
            diffs.append(diff)
            if len(diffs) >= 2:
                prev_diff = diffs[-2]
                ratio = np.inf if prev_diff == 0.0 else diff / prev_diff
                if prev_diff == 0.0 and diff == 0.0:
                    ratio = 0.0
                ratios.append(float(ratio))
                if not np.isfinite(ratio) or ratio > _STALL_RATIO:
                    stall += 1
                    if stall >= _STALL_COUNT:
                        raise NoContraction(
                            f"{_STALL_COUNT} consecutive difference ratios above "
                            f"{_STALL_RATIO}: {ratios[-_STALL_COUNT:]}",
                            ratios,
                        )
                else:
                    stall = 0
            norm = _trajectory_norm(trajectory, grid)
            if diff <= rel_tol * max(norm, 1e-300):
                converged = True
                break
        else:
            norm = _trajectory_norm(trajectory, grid)
            if norm == 0.0:
                # zero data: the linear sweep is already the fixed point
                return FixedPointResult(
                    trajectory=trajectory,
                    iterations=1,
                    contraction_ratios=[],
                    residual=0.0,
                    scale=1.0,
                    converged=True,
                    step_residuals=[0.0] * levels,
                )
        previous = trajectory
    # the probe sweep is compared chunk by chunk and never stored
    step_residuals: list[float] = []
    for where, chunk in _sweep(stepper, data, grid, trajectory):
        gap = _difference(chunk, trajectory[where])
        step_residuals += surrogate_norms(gap, grid).tolist()
    return FixedPointResult(
        trajectory=trajectory,
        iterations=iterations,
        contraction_ratios=ratios,
        residual=max(step_residuals),
        scale=max(norm, 1e-300),
        converged=converged,
        step_residuals=step_residuals,
    )
