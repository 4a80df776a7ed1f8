"""Picard iteration wrapping the linear stepper around the quadratic terms.

The nonlinear transformed system is solved as a fixed point of
``w -> L^{-1}(N(w) + f)``: each sweep re-marches the linear implicit
stepper over the whole time horizon with the quadratic correction terms
frozen from the previous iterate.  For small data the map contracts and
the successive-difference norms decay geometrically; the decay ratios
are reported, and three consecutive ratios near or above one abort with
:class:`NoContraction`, as does an iterate that leaves the finite range
(without floating-point warnings on the way).  A ratio taken once the
differences have reached the rounding floor, a fixed small fraction of
the iterate's norm, is not a stall: a tolerance below that floor runs to
``max_iter``, or stops one sweep after a difference at the floor equals
the one before it bit for bit, and returns a result that is not
converged.

Iterates are compared in a discrete surrogate of the solution norm: the
sup of the fields together with sups of first derivatives of the
velocity, tangential derivatives of the displacement up to fourth order,
and of the plate velocity up to second order.  This tracks the strongest
norms the contraction argument actually uses while staying cheap to
evaluate on grid functions.

Iterates are :class:`Trajectory` records, arrays with a leading time
axis, and each sweep is one :meth:`LinearStepper.run`.  Only one iterate
is held in memory.  The first, linear sweep stores it; each later sweep
freezes it and runs in chunks of levels (:func:`level_chunks`): a source
chunk is differentiated once, and those derivatives give both its
surrogate norms and its quadratic terms; the forcing of the chunk is
transformed once.  Each marched chunk is compared with its source levels
as it arrives and then overwrites them, which no later chunk of the
sweep reads.  So the sweep from iterate ``k`` is iterate ``k + 1`` and,
when ``k`` has converged or is the last allowed, its probe: the
per-level gaps are the step residuals, and the probe keeps no new level.
Which sweep is the probe is decided before it runs, from values the
sweep before returned: ``k`` has converged when its gap to ``k - 1`` is
at most the tolerance times the norm of ``k - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..indices import exponent_thresholds
from ..params import PlateParams
from .grid import Grid, ProblemData, Trajectory, level_chunks, tangential_derivatives
from .nonlin import Derivatives, derivatives, nonlinear_terms, velocity_derivatives
from .stepper import LinearStepper

__all__ = [
    "FixedPointResult",
    "NoContraction",
    "fixed_point_solve",
    "level_sups",
    "surrogate_norms",
]

_STALL_RATIO = 0.95
_STALL_COUNT = 3
# Differences at most this fraction of the iterate's norm are rounding
# noise, and their ratios say nothing about contraction.  Runs at tol = 0
# level off at 4e-15 (3D, N = 8), 3e-14 (3D, N = 16), 9e-14 (3D, N = 32)
# and 4.5e-12 (2D, N = 128) of the norm; diverging data stall above 1e-1.
_ROUNDING_FLOOR = 1e-10


class NoContraction(RuntimeError):
    """The Picard sweeps stopped contracting (data too large)."""

    def __init__(self, message: str, ratios: list[float]):
        super().__init__(message)
        self.ratios = ratios


@dataclass
class FixedPointResult:
    """Outcome of the nonlinear solve.

    ``trajectory`` holds every time level including the initial one, as
    arrays with a leading level axis; ``residual`` is the surrogate norm
    of ``K(w*) - w*`` for the returned trajectory, the largest of the
    per-level ``step_residuals``, and ``scale`` its own trajectory norm.
    ``converged`` says that the returned iterate's gap to the one before
    it, the largest per-level surrogate norm of their difference, is at
    most ``rel_tol`` times the trajectory norm of that earlier iterate.
    """

    trajectory: Trajectory
    iterations: int
    contraction_ratios: list[float] = field(default_factory=list)
    residual: float = 0.0
    scale: float = 1.0
    converged: bool = False
    step_residuals: list[float] = field(default_factory=list)


def level_sups(field: np.ndarray) -> np.ndarray:
    """``np.abs(field).max(...)`` over every axis after the first, without a copy.

    The larger of ``max`` and ``-min`` per level, so no ``|field|`` array
    is made; its absolute value turns the ``-0.0`` of an all-zero level,
    and the sign of a NaN, into those of the ``np.abs`` form, which it
    then equals bit for bit.
    """
    axes = tuple(range(1, field.ndim))
    return np.abs(np.maximum(field.max(axis=axes), -field.min(axis=axes)))


def surrogate_norms(
    traj: Trajectory, grid: Grid, derivs: Derivatives | None = None
) -> np.ndarray:
    """Discrete stand-in for the solution norm of each level of ``traj``.

    The sup of the fields, of the first derivatives of ``v``, of the
    tangential derivatives of ``eta`` up to fourth and of ``eta_t`` up to
    second order, summed in that order for every level, so an entry does
    not depend on the other levels.  ``derivs``, the :func:`derivatives`
    of ``traj``, are read when given; otherwise each derivative of ``v``
    is taken here and reduced to its sup as it is produced, so none is
    held after its sup.
    """
    if derivs is None:
        bulk = velocity_derivatives(traj.v, grid)
        plate = tangential_derivatives(traj.eta, grid, (1, 2, 3, 4)) + tangential_derivatives(
            traj.eta_t, grid, (1, 2)
        )
    else:
        bulk = derivs.grad_v + (derivs.dn_v,)
        plate = derivs.eta + derivs.eta_t

    total = level_sups(traj.v) + level_sups(traj.p)
    for deriv in bulk:
        total += level_sups(deriv)
    total += level_sups(traj.eta) + level_sups(traj.eta_t)
    for deriv in plate:
        total += level_sups(deriv)
    return total


def _finite(traj: Trajectory) -> bool:
    return all(np.isfinite(f).all() for f in traj.fields())


def _frozen_sweep(
    stepper: LinearStepper, data: ProblemData, source: Trajectory, keep: bool
) -> tuple[list[float], list[float]]:
    """Apply the fixed-point map once with ``source`` frozen.

    Returns, for the levels after the initial one, the surrogate norm of
    ``source`` and the gap ``new - source`` in that norm.  Each chunk of
    source levels is differentiated once for both its norm and its
    quadratic terms, before the chunk is marched; its gap is taken as the
    marched chunk arrives, in the buffer that is overwritten next.  With
    ``keep`` that is the source levels, which the marched chunk then
    overwrites and no later chunk reads, so ``source`` becomes the new
    iterate; without it (the probe) it is the new levels, which are
    dropped, and ``source`` is unchanged.
    """
    grid = stepper.grid
    norms: list[float] = []
    gaps: list[float] = []

    def frozen(levels: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        chunk = source[levels]
        derivs = derivatives(chunk, grid)
        norms.extend(surrogate_norms(chunk, grid, derivs).tolist())
        return nonlinear_terms(chunk, grid, derivs)

    def compare(levels: slice, new: Trajectory) -> None:
        old = source[levels]
        # new - old is written over whichever of the two is not kept
        gap = old if keep else new
        for a, b, out in zip(new.fields(), old.fields(), gap.fields()):
            np.subtract(a, b, out=out)
        gaps.extend(surrogate_norms(gap, grid).tolist())
        if keep:
            for target, field in zip(old.fields(), new.fields()):
                target[...] = field

    stepper.run(data, frozen, compare)
    return norms, gaps


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

    Raises :class:`NoContraction` when the sweeps diverge or stall above
    the rounding floor, and returns a non-converged result only if
    ``max_iter`` is hit while the ratios still look contractive or the
    differences sit at that floor, or when a difference at the floor
    repeats exactly.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (np.isfinite(rel_tol) and rel_tol >= 0.0):
        raise ValueError(f"rel_tol must be finite and nonnegative, got {rel_tol}")
    data = data.materialize(grid)
    threshold = exponent_thresholds(grid.n).quadratic
    if data.p_exponent < float(threshold):
        raise ValueError(
            f"p: {data.p_exponent} is below the quadratic embedding "
            f"threshold {threshold} for n = {grid.n}"
        )
    stepper = LinearStepper(params, grid)
    # Overflow and invalid values arise only on the way out of the finite
    # range, which the finite checks report as NoContraction.
    with np.errstate(over="ignore", invalid="ignore"):
        source = stepper.run(data)
        if not _finite(source):
            raise NoContraction("iterate 1 left the finite range", [])
        if not any(f.any() for f in source.fields()):
            # zero data: the linear sweep is already the fixed point
            return FixedPointResult(
                trajectory=source,
                iterations=1,
                contraction_ratios=[],
                residual=0.0,
                scale=1.0,
                converged=True,
                step_residuals=[0.0] * len(source),
            )
        # level 0 is the initial state in every iterate: the same norm,
        # no gap
        start_norm = float(surrogate_norms(source[:1], grid)[0])
        ratios: list[float] = []
        diff = None  # the gap from the source's own source, once known
        stall = 0
        repeated = False  # the last two differences, at the floor, are equal
        for iterations in range(1, max_iter + 1):
            # The sweep from iterate k is the next iterate and the probe
            # of k.  Only the last sweep runs as the probe, keeping no new
            # levels; the others overwrite the source.  Whether k has
            # converged is judged against the norm of k - 1, which the
            # sweep before returned (the two differ by at most the gap).
            converged = diff is not None and diff <= rel_tol * max(norm, 1e-300)
            last = converged or repeated or iterations == max_iter
            norms, gaps = _frozen_sweep(stepper, data, source, keep=not last)
            norm = max(start_norm, *norms)
            step_residuals = [0.0] + gaps
            if last:
                break
            if not _finite(source):
                raise NoContraction(
                    f"iterate {iterations + 1} left the finite range", ratios
                )
            prev_diff, diff = diff, max(step_residuals)
            if prev_diff is not None:
                ratio = np.inf if prev_diff == 0.0 else diff / prev_diff
                if prev_diff == 0.0 and diff == 0.0:
                    ratio = 0.0
                ratios.append(float(ratio))
                at_floor = diff <= _ROUNDING_FLOOR * norm
                # equal differences at the floor: the rounded map cycles,
                # and more sweeps only repeat them
                repeated = at_floor and diff == prev_diff
                if not at_floor and (not np.isfinite(ratio) or ratio > _STALL_RATIO):
                    stall += 1
                    if stall >= _STALL_COUNT:
                        raise NoContraction(
                            f"{_STALL_COUNT} consecutive difference ratios above "
                            f"{_STALL_RATIO}: {ratios[-_STALL_COUNT:]}",
                            ratios,
                        )
                else:
                    stall = 0
    return FixedPointResult(
        trajectory=source,
        iterations=iterations,
        contraction_ratios=ratios,
        residual=max(step_residuals),
        scale=max(norm, 1e-300),
        converged=converged,
        step_residuals=step_residuals,
    )
