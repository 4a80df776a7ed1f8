"""Core parameter bundles shared by every module."""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np


@dataclass(frozen=True)
class PlateParams:
    """Coefficients of the damped fourth-order plate law.

    The plate displacement obeys

        d_t^2 eta + alpha * Lap'^2 eta - beta * Lap' eta - gamma * d_t Lap' eta

    (fluid density and viscosity are normalized to 1).  ``alpha`` is the
    bending stiffness, ``beta`` a tension coefficient of either sign, and
    ``gamma`` the structural damping that makes the coupled problem
    parabolic.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not np.isfinite([self.alpha, self.beta, self.gamma]).all():
            raise ValueError("plate coefficients must be finite")


@dataclass(frozen=True, eq=False)
class Freq:
    """Points in the Laplace/Fourier covariable plane.

    ``lam`` is the time covariable (complex), ``z`` the tangential frequency
    modulus ``|xi'|`` (nonnegative real).  Both may be arrays; they broadcast
    to the batch :attr:`shape`, and a pair of scalars is a single point of
    shape ``()``.  ``xi_prime`` optionally carries the full tangential
    covector, components along the first axis (shape ``(n - 1,) + shape``,
    or an ``(n - 1)``-tuple for a single point); its modulus must equal
    ``z``.  When absent, operations that need a direction use ``z * e_1``.
    """

    lam: complex | np.ndarray
    z: float | np.ndarray
    xi_prime: tuple[float, ...] | np.ndarray | None = None

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        if np.any(z < 0):
            raise ValueError(f"z must be nonnegative, got {z.min()}")
        if self.xi_prime is not None:
            mod = np.hypot.reduce(np.asarray(self.xi_prime, dtype=float), axis=0)
            bad = np.abs(mod - z) > 1e-12 * np.maximum(1.0, z)
            if np.any(bad):
                i = np.flatnonzero(bad)[0]
                raise ValueError(
                    f"|xi_prime| = {np.broadcast_to(mod, bad.shape).flat[i]} "
                    f"does not match z = {np.broadcast_to(z, bad.shape).flat[i]}"
                )

    @property
    def shape(self) -> tuple[int, ...]:
        return np.broadcast_shapes(np.shape(self.lam), np.shape(self.z))

    def direction(self, n: int = 2) -> np.ndarray:
        """Tangential covector, shape ``(n - 1,) + shape``; defaults to z * e_1."""
        if self.xi_prime is not None:
            return np.asarray(self.xi_prime, dtype=float)
        xi = np.zeros((n - 1,) + self.shape)
        if n - 1 > 0:
            xi[0] = self.z
        return xi


@dataclass(frozen=True)
class Sector:
    """Open sector ``{zeta != 0 : |arg zeta| < vertex_angle}`` around R_+."""

    vertex_angle: float

    def __post_init__(self) -> None:
        if not 0 < self.vertex_angle <= pi:
            raise ValueError(
                f"vertex angle must lie in (0, pi], got {self.vertex_angle}"
            )

    def sample_args(self, count: int) -> np.ndarray:
        """Uniform argument grid strictly inside the sector."""
        # Shrink by half a step so the extreme rays are excluded.
        half = self.vertex_angle * (1.0 - 0.5 / max(count, 1))
        return np.linspace(-half, half, count)
