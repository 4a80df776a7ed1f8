"""Quadratic correction terms produced by flattening the moving domain.

Rewriting the coupled system on the flat reference strip turns the
geometry of the moving plate graph into lower-order forcing terms that
are at least quadratic in the state.  This module evaluates those terms
on grid fields: a momentum correction, a divergence correction, and a
plate-load correction.  Tangential derivatives are spectral, vertical
derivatives use fourth-order one-sided-aware stencils.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .grid import Grid, Trajectory, tangential_derivatives, vertical_derivative

__all__ = [
    "Derivatives",
    "derivatives",
    "nonlinear_divergence",
    "nonlinear_terms",
    "velocity_derivatives",
]

_ACC = 4


def _d_n(field: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    return vertical_derivative(field, grid.mesh, order=order, accuracy=_ACC)


@dataclass(frozen=True, eq=False)
class Derivatives:
    """Derivatives of a trajectory, each taken once.

    Every array keeps the layout of the field it differentiates, level
    axis included.  ``grad_v`` holds ``d_j v`` for each tangential
    direction ``j`` and ``dn_v`` the vertical derivative of ``v``.
    ``eta`` holds the tangential derivatives of ``eta`` of orders 1 to 4,
    ``eta_t`` those of ``eta_t`` of orders 1 and 2, order by order and
    each order in every direction, as :func:`tangential_derivatives`
    yields them; ``lap_eta`` is the tangential Laplacian of ``eta``.
    """

    grad_v: tuple[np.ndarray, ...]
    dn_v: np.ndarray
    eta: tuple[np.ndarray, ...]
    eta_t: tuple[np.ndarray, ...]
    lap_eta: np.ndarray


def derivatives(traj: Trajectory, grid: Grid) -> Derivatives:
    """The derivatives that the surrogate norm and the quadratic terms read.

    ``eta`` up to fourth and ``eta_t`` up to second order, and the
    Laplacian of ``eta``, which only the quadratic terms read.  The
    spectra of ``v``, ``eta`` and ``eta_t`` are taken once each.
    """
    eta = tangential_derivatives(traj.eta, grid, (1, 2, 3, 4), laplacian=True)
    *grad_v, dn_v = velocity_derivatives(traj.v, grid)
    return Derivatives(
        grad_v=tuple(grad_v),
        dn_v=dn_v,
        eta=tuple(eta[: 4 * (grid.n - 1)]),
        eta_t=tuple(tangential_derivatives(traj.eta_t, grid, (1, 2))),
        lap_eta=eta[-1],
    )


def velocity_derivatives(v: np.ndarray, grid: Grid) -> Iterator[np.ndarray]:
    """``d_j v`` for each tangential direction ``j``, then ``d_n v``.

    ``v`` is a bulk field, its leading axes batch axes.  Each derivative
    is taken as it is iterated, so a caller that reduces them one by one
    holds one at a time.
    """
    yield from tangential_derivatives(v, grid, (1,), bulk=True)
    yield _d_n(v, grid)


def nonlinear_terms(
    traj: Trajectory, grid: Grid, derivs: Derivatives | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Momentum, divergence and plate-load corrections of each level of ``traj``.

    * momentum: every term the flattening moves out of the Stokes operator,
      ``(eta_t - lap' eta) d_n v - 2 (grad' eta . grad') d_n v + |grad' eta|^2
      d_nn v - (v . grad) v + (v' . grad' eta) d_n v + (grad' eta, 0) d_n p``;
    * divergence: ``grad' eta . d_n v'``, as :func:`nonlinear_divergence`;
    * plate load: ``-grad' eta . d_n v'(0) - grad' eta . grad' v_n(0)``, the
      shear of the tangential flow on the tilted plate plus the tilt
      correction of the normal-stress trace.

    Each vanishes to second order at the zero state.  Every result keeps
    the level axis.  ``derivs``, the :func:`derivatives` of ``traj``, are
    taken here when not given.  The momentum is assembled one velocity
    component at a time, straight into the result: that component's
    ``grad' d_n v`` and ``d_nn v`` are taken where they are used, so no
    stack of them over the components is held.  The pressure's ``d_n p``
    is taken once, after them, for the tangential components.
    """
    n = grid.n
    tan = range(n - 1)
    if derivs is None:
        derivs = derivatives(traj, grid)

    def components_first(field: np.ndarray) -> np.ndarray:
        # component axis first, the level axis after it
        return np.moveaxis(np.asarray(field), -(n + 1), 0)

    v = components_first(traj.v)
    grad_v = [components_first(g) for g in derivs.grad_v]
    dn_v = components_first(derivs.dn_v)
    grad_eta = np.stack(derivs.eta[: n - 1])
    # (d_t eta - lap' eta), |grad' eta|^2 and v' . grad' eta, shared by
    # every component
    coef = (traj.eta_t - derivs.lap_eta)[..., np.newaxis]
    slope2 = np.sum(grad_eta * grad_eta, axis=0)[..., np.newaxis]
    slope_flux = np.zeros(traj.p.shape)
    for d in tan:
        slope_flux += v[d] * grad_eta[d][..., np.newaxis]

    out = np.empty(np.shape(traj.v))
    momenta = components_first(out)
    for i, momentum in enumerate(momenta):
        # (d_t eta - lap' eta) d_n v
        np.multiply(coef, dn_v[i], out=momentum)
        # -2 (grad' eta . grad') d_n v  and  |grad' eta|^2 d_nn v
        for d, grad_dn_v in enumerate(tangential_derivatives(dn_v[i], grid, (1,), bulk=True)):
            momentum -= 2.0 * grad_eta[d][..., np.newaxis] * grad_dn_v
        momentum += slope2 * _d_n(v[i], grid, order=2)
        # -(v . grad) v
        for d in tan:
            momentum -= v[d] * grad_v[d][i]
        momentum -= v[n - 1] * dn_v[i]
        # (v' . grad' eta) d_n v
        momentum += slope_flux * dn_v[i]
    # (grad' eta, 0)^T d_n p, last in each sum as above; the loop's last
    # grad' d_n v is released first, so that it does not raise the peak
    del grad_dn_v
    dn_p = _d_n(traj.p, grid)
    for i in tan:
        momenta[i] += grad_eta[i][..., np.newaxis] * dn_p

    divergence = np.zeros(traj.p.shape)
    for d in tan:
        divergence += grad_eta[d][..., np.newaxis] * dn_v[d]

    # grad' v_n(0) is the interface trace of grad' v_n
    plate_load = np.zeros(traj.eta.shape)
    for d in tan:
        plate_load -= grad_eta[d] * dn_v[d][..., 0]
        plate_load -= grad_eta[d] * grad_v[d][n - 1][..., 0]
    return out, divergence, plate_load


def nonlinear_divergence(traj: Trajectory, grid: Grid) -> np.ndarray:
    """Divergence correction ``grad' eta . d_n v'``, a bulk scalar field per level.

    Only this term is evaluated, with the operations of
    :func:`nonlinear_terms`, so it equals that function's divergence bit
    for bit and stays quiet where the other terms would overflow.  The
    vertical derivative is the numpy kernel ``Stencil.apply`` of the same
    rows, so this function loads no scipy.
    """
    n = grid.n
    tangential = np.moveaxis(traj.v, 1, 0)[: n - 1]
    dn_v = grid.mesh.stencil(1, _ACC).apply(tangential)
    divergence = np.zeros(traj.p.shape)
    for grad_eta, dn_v_d in zip(tangential_derivatives(traj.eta, grid, (1,)), dn_v):
        divergence += grad_eta[..., np.newaxis] * dn_v_d
    return divergence
