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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..indices import exponent_thresholds
from ..params import PlateParams
from .grid import Grid, ProblemData, State, tangential_derivatives, vertical_derivative
from .nonlin import nonlinear_divergence, nonlinear_momentum, nonlinear_plate_load
from .stepper import LinearStepper

__all__ = [
    "FixedPointResult",
    "NoContraction",
    "fixed_point_solve",
    "state_surrogate_norm",
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

    ``trajectory`` holds one :class:`State` per time level including the
    initial one; ``residual`` is the surrogate norm of ``K(w*) - w*`` for
    the returned trajectory and ``scale`` its own trajectory norm.
    """

    trajectory: list[State]
    iterations: int
    contraction_ratios: list[float] = field(default_factory=list)
    residual: float = 0.0
    scale: float = 1.0
    converged: bool = False
    step_residuals: list[float] = field(default_factory=list)


def state_surrogate_norm(state: State, grid: Grid) -> float:
    """Discrete stand-in for the solution norm of one state."""
    total = float(np.abs(state.v).max()) + float(np.abs(state.p).max())
    for deriv in tangential_derivatives(state.v, grid, orders=(1,)):
        total += float(np.abs(deriv).max())
    total += float(np.abs(vertical_derivative(state.v, grid.mesh)).max())
    total += float(np.abs(state.eta).max()) + float(np.abs(state.eta_t).max())
    for deriv in tangential_derivatives(state.eta, grid, orders=range(1, 5)):
        total += float(np.abs(deriv).max())
    for deriv in tangential_derivatives(state.eta_t, grid, orders=range(1, 3)):
        total += float(np.abs(deriv).max())
    return total


def _difference(a: State, b: State) -> State:
    return State(v=a.v - b.v, p=a.p - b.p, eta=a.eta - b.eta, eta_t=a.eta_t - b.eta_t)


def _trajectory_distance(a: list[State], b: list[State], grid: Grid) -> float:
    return max(
        state_surrogate_norm(_difference(sa, sb), grid) for sa, sb in zip(a, b)
    )


def _trajectory_norm(traj: list[State], grid: Grid) -> float:
    return max(state_surrogate_norm(s, grid) for s in traj)


def _sweep(
    stepper: LinearStepper,
    data: ProblemData,
    grid: Grid,
    source: list[State] | None,
) -> list[State]:
    """One application of the fixed-point map with the source iterate frozen."""
    state = State(
        v=data.v0.copy(),
        p=np.zeros(grid.tan_shape + (grid.M + 1,)),
        eta=data.eta0.copy(),
        eta_t=data.eta1.copy(),
    )
    out = [state]
    for k in range(grid.steps):
        if source is None:
            f_v, g, f_eta = data.f_v, data.g, data.f_eta
        else:
            frozen = source[k + 1]
            f_v = data.f_v + nonlinear_momentum(frozen, grid)
            g = data.g + nonlinear_divergence(frozen, grid)
            f_eta = data.f_eta + nonlinear_plate_load(frozen, grid)
        state = stepper.step(state, f_v=f_v, g=g, f_eta=f_eta)
        out.append(state)
    return out


def _finite(traj: list[State]) -> bool:
    return all(
        np.isfinite(s.v).all()
        and np.isfinite(s.p).all()
        and np.isfinite(s.eta).all()
        and np.isfinite(s.eta_t).all()
        for s in traj
    )


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
    data = data.materialize(grid)
    threshold = exponent_thresholds(grid.n).quadratic
    if data.p_exponent < float(threshold):
        raise ValueError(
            f"p_exponent = {data.p_exponent} is below the quadratic embedding "
            f"threshold {threshold} for n = {grid.n}"
        )
    stepper = LinearStepper(params, grid)
    previous = None
    trajectory: list[State] = []
    ratios: list[float] = []
    diffs: list[float] = []
    stall = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        trajectory = _sweep(stepper, data, grid, previous)
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
                    step_residuals=[0.0] * (grid.steps + 1),
                )
        previous = trajectory
    probe = _sweep(stepper, data, grid, trajectory)
    step_residuals = [
        state_surrogate_norm(_difference(sp, st), grid)
        for sp, st in zip(probe, trajectory)
    ]
    return FixedPointResult(
        trajectory=trajectory,
        iterations=iterations,
        contraction_ratios=ratios,
        residual=max(step_residuals),
        scale=max(norm, 1e-300),
        converged=converged,
        step_residuals=step_residuals,
    )
