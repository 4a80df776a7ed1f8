"""Global tolerances.

A single module-level :data:`TOL` instance is consulted throughout; tests or
callers that need different tolerances can replace individual attributes or
swap the instance.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Tolerances:
    # Residual pass level for the frequency-domain solution operator.
    residual_rel: float = 1e-8
    # Guard for near-vanishing response denominators.
    resonance_eps: float = 1e-10
    # Direct linear solver acceptance for the time stepper.
    solver_tol: float = 1e-10
    # Self-convergence requirement for contour inversion (node doubling).
    contour_selfconv: float = 1e-8
    # Discrete summation-by-parts pairing between divergence data and plate
    # velocity (exact up to rounding for compatible data).
    compat_pairing_rel: float = 1e-10
    # Pointwise trace conditions of the initial data.
    trace_rel: float = 1e-10


TOL = Tolerances()

