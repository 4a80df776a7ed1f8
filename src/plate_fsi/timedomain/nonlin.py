"""Quadratic correction terms produced by flattening the moving domain.

Rewriting the coupled system on the flat reference strip turns the
geometry of the moving plate graph into lower-order forcing terms that
are at least quadratic in the state.  This module evaluates those terms
on grid fields: a momentum correction, a divergence correction, and a
plate-load correction.  Tangential derivatives are spectral, vertical
derivatives use fourth-order one-sided-aware stencils.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    Grid,
    State,
    Trajectory,
    _apply_multipliers,
    _derivative_factor,
    _laplacian_factor,
    tangential_derivatives,
    vertical_derivative,
)

__all__ = [
    "nonlinear_divergence",
    "nonlinear_momentum",
    "nonlinear_plate_load",
    "nonlinear_terms",
]

_ACC = 4


def _d_n(field: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    return vertical_derivative(field, grid.mesh, order=order, accuracy=_ACC)


def nonlinear_terms(
    state: State | Trajectory, grid: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Momentum, divergence and plate-load corrections of a state or a stack.

    The fields of ``state`` may carry leading level axes (a
    :class:`Trajectory`), which every result keeps.  The tangential spectra
    of ``eta``, ``v`` and ``d_n v`` are each taken once and shared by the
    three terms; see :func:`nonlinear_momentum`,
    :func:`nonlinear_divergence` and :func:`nonlinear_plate_load`.
    """
    n = grid.n
    tan = range(n - 1)
    # component axis first, as in a single state; level axes follow it
    v = np.moveaxis(np.asarray(state.v), -(n + 1), 0)
    *grad, lap_eta = _apply_multipliers(
        state.eta,
        grid,
        [*(_derivative_factor(grid, d, 1) for d in tan), _laplacian_factor(grid)],
    )
    grad_eta = np.stack(grad)
    dn_v = _d_n(v, grid)
    dnn_v = _d_n(v, grid, order=2)
    dn_p = _d_n(state.p, grid)
    grad_v = list(tangential_derivatives(v, grid, (1,), bulk=True))
    grad_dn_v = list(tangential_derivatives(dn_v, grid, (1,), bulk=True))

    # (d_t eta - lap' eta) d_n v
    coef = (state.eta_t - lap_eta)[..., np.newaxis]
    momentum = coef * dn_v

    # -2 (grad' eta . grad') d_n v  and  |grad' eta|^2 d_nn v
    for d in tan:
        momentum -= 2.0 * grad_eta[d][..., np.newaxis] * grad_dn_v[d]
    momentum += np.sum(grad_eta * grad_eta, axis=0)[..., np.newaxis] * dnn_v

    # -(v . grad) v
    for d in tan:
        momentum -= v[d][np.newaxis] * grad_v[d]
    momentum -= v[n - 1][np.newaxis] * dn_v

    # (v' . grad' eta) d_n v
    slope_flux = np.zeros(dn_p.shape)
    for d in tan:
        slope_flux += v[d] * grad_eta[d][..., np.newaxis]
    momentum += slope_flux[np.newaxis] * dn_v

    # (grad' eta, 0)^T d_n p
    for d in tan:
        momentum[d] += grad_eta[d][..., np.newaxis] * dn_p

    divergence = np.zeros(dn_p.shape)
    for d in tan:
        divergence += grad_eta[d][..., np.newaxis] * dn_v[d]

    # grad' v_n(0) is the interface trace of grad' v_n
    plate_load = np.zeros(np.shape(state.eta))
    for d in tan:
        plate_load -= grad_eta[d] * dn_v[d][..., 0]
        plate_load -= grad_eta[d] * grad_v[d][n - 1][..., 0]
    return np.moveaxis(momentum, 0, -(n + 1)), divergence, plate_load


def nonlinear_momentum(state: State, grid: Grid) -> np.ndarray:
    """Momentum correction, shape ``(n,) + tan_shape + (M + 1,)``.

    Collects every term the flattening moves out of the Stokes operator:
    vertical-stretch corrections proportional to derivatives of the
    displacement, the full convection term, and the pressure-gradient
    correction.  Vanishes to second order at the zero state; the only
    surviving term for a flat interface is the convection ``-(v . grad) v``.
    """
    return nonlinear_terms(state, grid)[0]


def nonlinear_divergence(state: State, grid: Grid) -> np.ndarray:
    """Divergence correction ``grad' eta . d_n v'``, a bulk scalar field."""
    return nonlinear_terms(state, grid)[1]


def nonlinear_plate_load(state: State, grid: Grid) -> np.ndarray:
    """Plate-load correction evaluated on the interface, a tangential field.

    ``-grad' eta . d_n v'(0) - grad' eta . grad' v_n(0)``: the shear the
    tilted plate feels from the tangential flow plus the tilt correction
    of the normal-stress trace.
    """
    return nonlinear_terms(state, grid)[2]
