"""Exact evaluation of the plate and coupled boundary symbols.

All functions are pure and numpy-broadcastable: ``lam`` and ``z`` may be
scalars or arrays of matching shape.  ``z`` is the tangential frequency
modulus; it is allowed to be complex in the sector-sampling paths of the
polygon analyzer, real nonnegative everywhere else.
"""

from __future__ import annotations

import warnings
from cmath import phase, sqrt as csqrt
from math import pi, sqrt

import numpy as np

from plate_fsi.params import PlateParams

__all__ = [
    "BranchEdgeWarning",
    "plate_symbol",
    "plate_roots",
    "root_sector_angle",
    "decay_root",
    "coupled_symbol",
]


class BranchEdgeWarning(UserWarning):
    """The decay-root argument touched the branch cut (negative real axis).

    The value returned follows the arg-in-(-pi, pi] convention and is well
    defined, but numerically sensitive: tiny perturbations across the cut flip
    the sign of the imaginary part.
    """


def plate_symbol(params: PlateParams, lam, z):
    """Dispersion symbol of the damped plate:  lam^2 + a z^4 + b z^2 + g lam z^2."""
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    z2 = z * z
    out = lam * lam + params.alpha * z2 * z2 + params.beta * z2 + params.gamma * lam * z2
    return out[()] if out.ndim == 0 else out


def plate_roots(params: PlateParams, z: float) -> tuple[complex, complex]:
    """Both roots in ``lam`` of the plate symbol at tangential frequency z.

    lam = -g z^2 / 2 +- sqrt(g^2 z^4 / 4 - a z^4 - b z^2).

    For beta = 0 and z > 0 both roots have strictly negative real part
    (structural damping); for beta != 0 the sector geometry near z = 0 is not
    uniform and is not asserted here.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    z = float(z)
    z2 = z * z
    rad = csqrt(g * g * z2 * z2 / 4.0 - a * z2 * z2 - b * z2)
    base = -g * z2 / 2.0
    plus, minus = base + rad, base - rad
    # base and rad nearly cancel in one of the two roots when the damping
    # dominates the stiffness; recover that root from the product of roots
    # (a z^4 + b z^2) instead of the catastrophic subtraction.
    product = a * z2 * z2 + b * z2
    if abs(plus) >= abs(minus):
        if plus == 0.0:
            return (0.0j, 0.0j)
        return (plus, product / plus)
    if minus == 0.0:
        return (0.0j, 0.0j)
    return (product / minus, minus)


def root_sector_angle(params: PlateParams) -> float:
    """Half-angle of the smallest sector around R_- containing the plate roots.

    For the tension-free symbol the roots lie on the two rays
    ``lam = z^2 * (-g +- sqrt(g^2 - 4a)) / 2``; the returned angle is the
    worst-case angular distance of those rays from the negative real axis:
    ``atan(sqrt(4a - g^2) / g)`` when ``g^2 < 4a`` and 0 otherwise.  It is
    always strictly below pi/2 for positive damping.
    """
    a, g = params.alpha, params.gamma
    disc = g * g - 4.0 * a
    if disc >= 0.0:
        # Both root rays are on the negative real axis itself.
        return 0.0
    best = 0.0
    for sign in (+1.0, -1.0):
        coeff = complex(-g, sign * sqrt(-disc))
        # Angle of the ray off the negative real axis.
        best = max(best, pi - abs(phase(coeff)))
    return best


def decay_root(lam, z):
    """Principal square root of ``lam + z^2`` (the decaying viscous exponent).

    The principal branch keeps ``Re >= 0``; arguments on the negative real
    axis trigger :class:`BranchEdgeWarning` (the result is defined via
    ``arg in (-pi, pi]`` but sits on the branch edge).
    """
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    w2 = lam + z * z
    on_edge = (w2.real < 0) & (np.abs(w2.imag) <= 1e-14 * np.abs(w2.real))
    if np.any(on_edge):
        warnings.warn(
            "decay root evaluated on the branch cut (lam + z^2 negative real)",
            BranchEdgeWarning,
            stacklevel=2,
        )
    out = np.sqrt(w2)
    return out[()] if out.ndim == 0 else out


def coupled_symbol(params: PlateParams, lam, z):
    """Coupled boundary symbol  z^2 * m(lam, z) + lam * w^2 * (w + z).

    ``m`` is the plate symbol and ``w`` the decay root.  This is the
    mixed-order envelope whose Newton polygon drives the sector analysis in
    :mod:`plate_fsi.polygon`; the frequency-domain solver divides by the
    reduced form ``q = z m + lam w (w + z)`` of
    :func:`plate_fsi.frequency.solve_displacement`, and ``z q`` differs from
    this envelope by ``lam w (w + z) (w - z)``.
    """
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    w = decay_root(lam, z)
    out = z * z * plate_symbol(params, lam, z) + lam * (lam + z * z) * (w + z)
    return out[()] if out.ndim == 0 else out
