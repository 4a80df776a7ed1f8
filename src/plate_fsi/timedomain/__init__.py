"""Time-domain layer: grids, nonlinearities, steppers.

Everything here lives on the flat strip that ``(x', x_n + eta(x'))`` maps
onto the moving domain, a periodic tangential torus times a graded
vertical mesh: the quadratic terms this flattening leaves behind, discrete
compatibility checks, a mode-wise implicit Euler stepper for the linearized
system, an inverse-Laplace reference, and the small-data fixed-point driver,
all on arrays with a leading time-level axis.
"""

from .grid import Grid, ProblemData, Trajectory, VerticalMesh
from .nonlin import nonlinear_divergence, nonlinear_terms
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
    "SolverSingular",
    "Trajectory",
    "VerticalMesh",
    "check_compatibility",
    "fixed_point_solve",
    "mode_response_reference",
    "nonlinear_divergence",
    "nonlinear_terms",
    "talbot_inverse",
]
