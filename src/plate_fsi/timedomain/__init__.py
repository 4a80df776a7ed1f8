"""Time-domain layer: grids, nonlinearities, steppers.

Everything here lives on the flat strip that ``(x', x_n + eta(x'))`` maps
onto the moving domain, a periodic tangential torus times a graded
vertical mesh: the quadratic terms this flattening leaves behind, discrete
compatibility checks, a mode-wise implicit Euler stepper for the linearized
system, an inverse-Laplace reference, and the small-data fixed-point driver,
all on arrays with a leading time-level axis.

The stepper's and the fixed-point driver's exports (``LinearStepper``,
``ModeStepper``, ``SolverSingular``, ``FixedPointResult``, ``NoContraction``
and ``fixed_point_solve``) are resolved on first access, so importing the
package, or running the compatibility checks, does not load the sparse LU
of ``scipy.sparse.linalg``.
"""

from importlib import import_module

from .grid import Grid, ProblemData, Trajectory, VerticalMesh
from .nonlin import nonlinear_divergence, nonlinear_terms
from .compat import CompatReport, check_compatibility
from .laplace import ContourFailure, mode_response_reference, talbot_inverse

# name -> submodule that defines it, imported when the name is first read
_LAZY = {
    "LinearStepper": "stepper",
    "ModeStepper": "stepper",
    "SolverSingular": "stepper",
    "FixedPointResult": "fixpoint",
    "NoContraction": "fixpoint",
    "fixed_point_solve": "fixpoint",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
