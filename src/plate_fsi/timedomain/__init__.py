"""Time-domain layer: grids, transforms, nonlinearities, steppers.

Everything here lives on a periodic tangential torus and a graded vertical
mesh: the coordinate transform that flattens the moving interface, the
quadratic interface nonlinearities, discrete compatibility checks, a
mode-wise implicit Euler stepper for the linearized system, an
inverse-Laplace reference solution, and the small-data fixed-point driver.
"""

from .grid import Grid, ProblemData, State, Trajectory, VerticalMesh
from .transform import ShiftOutOfRange, normal_vector, pullback, pushforward
from .nonlin import (
    nonlinear_divergence,
    nonlinear_momentum,
    nonlinear_plate_load,
)
from .compat import CompatReport, check_compatibility
from .laplace import ContourFailure, mode_response_reference, talbot_inverse
from .stepper import LinearStepper, ModeStepper, SolverSingular
from .fixpoint import FixedPointResult, NoContraction, fixed_point_solve

__all__ = [
    "CompatReport",
    "ContourFailure",
    "FixedPointResult",
    "Grid",
    "LinearStepper",
    "ModeStepper",
    "NoContraction",
    "ProblemData",
    "ShiftOutOfRange",
    "SolverSingular",
    "State",
    "Trajectory",
    "VerticalMesh",
    "check_compatibility",
    "fixed_point_solve",
    "mode_response_reference",
    "nonlinear_divergence",
    "nonlinear_momentum",
    "nonlinear_plate_load",
    "normal_vector",
    "pullback",
    "pushforward",
    "talbot_inverse",
]
