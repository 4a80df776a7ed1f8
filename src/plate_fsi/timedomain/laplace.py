"""Reference time responses via numerical Laplace inversion.

Provides an independent route to time-domain answers for a single
tangential mode: evaluate the frequency-domain solution operator on a
deformed Bromwich contour and quadrature it.  The cotangent contour with
fixed coefficients converges geometrically for transforms analytic off a
sectorial singularity set, which covers the damped plate poles.  Used to
cross-check the time stepper, never as part of the solver itself.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..frequency import solve_displacement
from ..params import Freq, PlateParams

__all__ = ["ContourFailure", "mode_response_reference", "talbot_inverse"]

# Node doubling must move the value by less than this, relative to
# max(|value|, 1).
SELFCONV_TOL = 1e-8


class ContourFailure(RuntimeError):
    """Contour quadrature did not self-converge under node doubling."""


def _contour(theta: np.ndarray, t: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Cotangent contour and its derivative at the given parameters."""
    s = nodes / t
    a = 0.6407 * theta
    cot = np.cos(a) / np.sin(a)
    lam = s * (-0.6122 + 0.5017 * theta * cot + 0.2645j * theta)
    dlam = s * (
        0.5017 * (cot - 0.6407 * theta / np.sin(a) ** 2) + 0.2645j
    )
    return lam, dlam


def _quadrature(transform: Callable[[np.ndarray], np.ndarray], t: float, nodes: int) -> float:
    """Midpoint rule for the inversion integral over the upper half contour."""
    k = np.arange(nodes // 2)
    theta = (k + 0.5) * (2.0 * np.pi / nodes)
    lam, dlam = _contour(theta, t, nodes)
    total = np.sum((np.exp(lam * t) * transform(lam) * dlam).imag)
    # 1/(2 pi i) times step 2 pi / nodes, doubled by conjugate symmetry.
    return 2.0 * float(total) / nodes


def talbot_inverse(
    transform: Callable[[np.ndarray], np.ndarray], t: float, nodes: int = 32
) -> float:
    """Invert a Laplace transform at time ``t > 0``.

    The transform must accept an array of ``lam`` and return its values
    elementwise; it is called once per quadrature, with all the contour
    points.  It must be analytic to the right of the contour, whose scale
    grows like ``nodes / t``; singularities further out than that are not
    enclosed and show up as a self-convergence failure.  The
    value from the doubled node count is returned after the two agree to
    the relative tolerance :data:`SELFCONV_TOL`, otherwise
    :class:`ContourFailure` is raised.
    """
    if t <= 0.0:
        raise ValueError("contour inversion needs t > 0")
    coarse = _quadrature(transform, t, nodes)
    fine = _quadrature(transform, t, 2 * nodes)
    scale = max(abs(fine), abs(coarse), 1e-300)
    if abs(fine - coarse) > SELFCONV_TOL * max(scale, 1.0):
        raise ContourFailure(
            f"node doubling moved the value by {abs(fine - coarse):.3e} "
            f"(scale {scale:.3e}) at t={t}; increase nodes or reduce t"
        )
    return fine


def mode_response_reference(
    params: PlateParams,
    z: float,
    f_eta_hat: Callable[[np.ndarray], np.ndarray],
    times: Iterable[float],
    nodes: int = 32,
) -> np.ndarray:
    """Plate displacement of one tangential mode under transformed forcing.

    ``f_eta_hat`` is the Laplace transform of the scalar plate forcing of
    the mode; the displacement transform is the solver's own
    :func:`~plate_fsi.frequency.solve_displacement`, and each requested
    time is inverted independently.
    """
    z = float(z)

    def transform(lam: np.ndarray) -> np.ndarray:
        return solve_displacement(params, Freq(lam, z), f_eta_hat(lam))

    return np.array([talbot_inverse(transform, float(t), nodes=nodes) for t in times])
