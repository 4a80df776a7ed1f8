"""Picard iteration wrapping the linear stepper around the quadratic terms.

The nonlinear transformed system is solved as a fixed point of
``w -> L^{-1}(N(w) + f)``: each sweep re-marches the linear implicit
stepper over the whole time horizon with the quadratic correction terms
frozen from the previous iterate.  For small data the map contracts and
the successive-difference norms decay geometrically; the decay ratios
are reported, and three consecutive ratios near or above one abort with
:class:`NoContraction`, as does an iterate that leaves the finite range
(without floating-point warnings on the way).

Iterates are compared in a discrete surrogate of the solution norm: the
sup of the fields together with sups of first derivatives of the
velocity, tangential derivatives of the displacement up to fourth order,
and of the plate velocity up to second order.  This tracks the strongest
norms the contraction argument actually uses while staying cheap to
evaluate on grid functions.

Iterates are :class:`Trajectory` records, arrays with a leading time
axis, and each sweep is one :meth:`LinearStepper.run` returning the next
one.  Each sweep after the first, linear one freezes the previous
iterate and runs in chunks of levels (:func:`level_chunks`): a source
chunk is differentiated once, and those derivatives give both its
surrogate norms and its quadratic terms; the forcing of the chunk is
transformed once.  The new iterate is then compared with its source
over the same chunks.  So the sweep from iterate ``k`` is iterate
``k + 1`` and, when ``k`` has converged or is the last allowed, its
probe: the per-level gaps are the step residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..indices import exponent_thresholds
from ..params import PlateParams
from .grid import Grid, ProblemData, Trajectory, level_chunks
from .nonlin import Derivatives, derivatives, nonlinear_terms
from .stepper import LinearStepper

__all__ = [
    "FixedPointResult",
    "NoContraction",
    "fixed_point_solve",
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
    arrays with a leading level axis; ``residual`` is the surrogate norm
    of ``K(w*) - w*`` for the returned trajectory, the largest of the
    per-level ``step_residuals``, and ``scale`` its own trajectory norm.
    """

    trajectory: Trajectory
    iterations: int
    contraction_ratios: list[float] = field(default_factory=list)
    residual: float = 0.0
    scale: float = 1.0
    converged: bool = False
    step_residuals: list[float] = field(default_factory=list)


def surrogate_norms(
    traj: Trajectory, grid: Grid, derivs: Derivatives | None = None
) -> np.ndarray:
    """Discrete stand-in for the solution norm of each level of ``traj``.

    The sup of the fields, of the first derivatives of ``v``, of the
    tangential derivatives of ``eta`` up to fourth and of ``eta_t`` up to
    second order, summed in that order for every level, so an entry does
    not depend on the other levels.  ``derivs``, the :func:`derivatives`
    of ``traj``, are taken here (without the Laplacian) when not given.
    """
    if derivs is None:
        derivs = derivatives(traj, grid, laplacian=False)

    def sup(field: np.ndarray) -> np.ndarray:
        return np.abs(field).max(axis=tuple(range(1, field.ndim)))

    total = sup(traj.v) + sup(traj.p)
    for deriv in derivs.grad_v:
        total += sup(deriv)
    total += sup(derivs.dn_v)
    total += sup(traj.eta) + sup(traj.eta_t)
    for deriv in derivs.eta + derivs.eta_t:
        total += sup(deriv)
    return total


def _difference(a: Trajectory, b: Trajectory) -> Trajectory:
    return Trajectory(*(fa - fb for fa, fb in zip(a.fields(), b.fields())))


def _finite(traj: Trajectory) -> bool:
    return all(np.isfinite(f).all() for f in traj.fields())


def _frozen_sweep(
    stepper: LinearStepper, data: ProblemData, source: Trajectory
) -> tuple[Trajectory, list[float], list[float]]:
    """Apply the fixed-point map once with ``source`` frozen.

    Returns the new iterate and, for the levels after the initial one,
    the surrogate norm of ``source`` and the gap ``new - source`` in that
    norm.  Each chunk of source levels is differentiated once for both its
    norm and its quadratic terms; the gaps are taken over the same chunks.
    """
    grid = stepper.grid
    norms: list[float] = []

    def frozen(levels: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        chunk = source[levels]
        derivs = derivatives(chunk, grid)
        norms.extend(surrogate_norms(chunk, grid, derivs).tolist())
        return nonlinear_terms(chunk, grid, derivs)

    new = stepper.run(data, frozen)
    gaps: list[float] = []
    for levels in level_chunks(grid):
        gap = _difference(new[levels], source[levels])
        gaps.extend(surrogate_norms(gap, grid).tolist())
    return new, norms, gaps


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
        for iterations in range(1, max_iter + 1):
            # the sweep from iterate k is the next iterate and the probe of k
            new, norms, gaps = _frozen_sweep(stepper, data, source)
            norm = max(start_norm, *norms)
            step_residuals = [0.0] + gaps
            converged = diff is not None and diff <= rel_tol * max(norm, 1e-300)
            if converged or iterations == max_iter:
                break
            if not _finite(new):
                raise NoContraction(
                    f"iterate {iterations + 1} left the finite range", ratios
                )
            prev_diff, diff = diff, max(step_residuals)
            if prev_diff is not None:
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
            source = new
    return FixedPointResult(
        trajectory=source,
        iterations=iterations,
        contraction_ratios=ratios,
        residual=max(step_residuals),
        scale=max(norm, 1e-300),
        converged=converged,
        step_residuals=step_residuals,
    )
