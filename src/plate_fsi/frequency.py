"""Per-frequency solution operator for the coupled half-space system.

After a Laplace transform in time and a Fourier transform in the tangential
variables, the linearized fluid/plate system decouples into independent
boundary-value problems on the half-line, one per covariable pair
``(lam, xi')``.  Eliminating the fluid unknowns reduces each of them to a
single scalar equation for the plate displacement transform.  This module

* evaluates the elimination denominator (:func:`response_denominator`),
* solves for the displacement and the interface traces
  (:func:`solve_displacement`, :func:`solve_traces`),
* assembles closed-form vertical profiles of velocity and pressure
  (:func:`build_profile`), and
* verifies the complete resolvent system as residuals on a log grid
  (:func:`residual_report`).

Each of these works on a batch of points at once: ``Freq.lam`` and
``Freq.z`` may be arrays, every result carries their broadcast shape, and
each point keeps its own residual verdict.  A single point is the
zero-dimensional batch of the same code.

Every profile is a linear combination of ``exp(-z x)``, ``exp(-omega x)``
and their divided difference ``(exp(-z x) - exp(-omega x)) / (omega - z)``,
one basis for every point, including ``omega = z`` where the divided
difference is ``x exp(-z x)``; the module never evaluates the underlying
kernel integrals by quadrature.  The closed forms are cross-checked against
adaptive quadrature in the test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .params import Freq, PlateParams
from .symbols import decay_root, plate_symbol

__all__ = [
    "DegenerateTangentialFrequency",
    "FieldProfile",
    "NearResonance",
    "ResidualReport",
    "ResidualRow",
    "TraceSolution",
    "build_profile",
    "kernel_integral",
    "reflection_kernel",
    "residual_report",
    "response_denominator",
    "solve_displacement",
    "solve_traces",
    "uniqueness_probe",
]


class NearResonance(ValueError):
    """The elimination denominator is too close to zero to divide by."""


class DegenerateTangentialFrequency(UserWarning):
    """Issued at z = 0, where displacement and velocity traces vanish."""


def response_denominator(params: PlateParams, lam, z):
    """Evaluate ``z^2 m(lam, z) + lam omega z (omega + z)``.

    This is the exact denominator produced by eliminating the fluid unknowns
    from the interface system: the pressure trace is ``lam omega (omega + z)
    / z`` times the displacement, and inserting it into the plate balance
    yields ``response_denominator / z^2`` as the factor multiplying the
    displacement.  It differs from :func:`plate_fsi.symbols.coupled_symbol`
    by a single factor (``z`` in place of one power of ``omega``); the
    latter is the quasi-homogeneous envelope used for polygon analysis.

    Broadcasts over ``lam`` and ``z``.
    """
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    w = decay_root(lam, z)
    out = z * z * plate_symbol(params, lam, z) + lam * w * z * (w + z)
    return out[()] if out.ndim == 0 else out


def _points(freq: Freq) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, z)`` as complex and real arrays of the batch shape."""
    lam = np.asarray(freq.lam, dtype=complex)
    z = np.asarray(freq.z, dtype=float)
    return tuple(np.broadcast_arrays(lam, z))


def _first(mask: np.ndarray, *arrays) -> tuple:
    """Entries of ``arrays`` at the first true entry of ``mask`` (C order)."""
    i = np.flatnonzero(mask)[0]
    return tuple(np.broadcast_to(a, np.shape(mask)).flat[i] for a in arrays)


def _reduced_denominator(
    params: PlateParams, lam: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One factor of z cancelled: ``z m + lam omega (omega + z)``.

    Returns ``(d1, omega, m, scale)`` where ``scale`` is the term-magnitude
    sum used by the near-resonance guard.  The cancelled form stays finite
    and nonzero down to z = 0 (where it equals ``lam^2``), so the z = 0
    traces never pass through a numerical 0/0.  Raises
    :class:`NearResonance` naming the first offending point.
    """
    w = decay_root(lam, z)
    m = plate_symbol(params, lam, z)
    plate_term = z * m
    fluid_term = lam * w * (w + z)
    d1 = plate_term + fluid_term
    scale = np.abs(plate_term) + np.abs(fluid_term)
    bad = (np.abs(d1) <= TOL.resonance_eps * scale) | (scale == 0.0)
    if np.any(bad):
        d1_i, scale_i, lam_i, z_i = _first(bad, d1, scale, lam, z)
        raise NearResonance(
            f"response denominator {d1_i} is below {TOL.resonance_eps} times "
            f"its term scale {scale_i} at lam={lam_i}, z={z_i}"
        )
    return d1, w, m, scale


def solve_displacement(params: PlateParams, freq: Freq, f_eta_hat):
    """Displacement transform ``-z^2 f / response_denominator``.

    Computed with one factor of ``z`` cancelled against the denominator, so
    the z = 0 limit (zero displacement) is exact rather than a 0/0.
    Broadcasts over the points of ``freq`` and ``f_eta_hat``.
    """
    lam, z = _points(freq)
    d1, _, _, _ = _reduced_denominator(params, lam, z)
    return (-z * np.asarray(f_eta_hat, dtype=complex) / d1)[()]


@dataclass(frozen=True, eq=False)
class TraceSolution:
    """Interface traces of a batch of frequency modes.

    ``eta_hat`` is the plate displacement and ``p0_hat`` the pressure trace.
    ``phi_prime_hat`` is the tangential ``exp(-omega x)`` coefficient vector
    before the pressure-kernel term is absorbed (:func:`build_profile` adds
    that term); it is not the tangential velocity trace, which is
    ``v'(0) = 0``.  ``phi_n_hat`` is the normal velocity trace ``v_n(0)``.
    These satisfy ``i xi' . phi' = -z phi_n``; the divergence pairing
    ``i xi' . a' = omega a_n - d_n`` holds on the profile's ``coef_w`` and
    ``coef_d`` instead.

    The scalar traces have the batch shape of the points (scalars for a
    single point); ``phi_prime_hat`` carries the ``n - 1`` tangential
    components along its first axis.
    """

    eta_hat: complex | np.ndarray
    p0_hat: complex | np.ndarray
    phi_prime_hat: np.ndarray
    phi_n_hat: complex | np.ndarray

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi_prime_hat, dtype=complex)
        object.__setattr__(self, "phi_prime_hat", phi)

    @property
    def is_zero(self):
        """Per point: every trace vanishes."""
        return (
            (np.asarray(self.eta_hat) == 0)
            & (np.asarray(self.p0_hat) == 0)
            & (np.asarray(self.phi_n_hat) == 0)
            & np.all(self.phi_prime_hat == 0, axis=0)
        )[()]


def solve_traces(
    params: PlateParams,
    freq: Freq,
    f_eta_hat,
    n: int | None = None,
) -> TraceSolution:
    """Solve for all interface traces of a batch of frequency modes.

    The pressure trace is ``lam omega (omega + z) eta / z`` with the ``z``
    cancelled symbolically against the displacement formula, the tangential
    coefficients are ``i xi' p0 / (omega (omega + z))`` and the normal trace
    is ``v_n(0) = lam eta``.  The tangential coefficients are the
    ``exp(-omega x)`` part of ``v'`` before :func:`build_profile` adds the
    pressure-kernel term ``-i xi' p0 kernel_integral(omega, z, x, +1)``;
    with that term, ``v'(0) = 0``.  At z = 0 the displacement and velocity
    traces vanish while the pressure trace tends to ``-f_eta_hat``; one
    :class:`DegenerateTangentialFrequency` warning is issued per call when
    any point has z = 0.

    ``n`` is the spatial dimension (the tangential covector has ``n - 1``
    components); it defaults to the dimension implied by ``freq.xi_prime``,
    or to 2.  Broadcasts over the points of ``freq`` and ``f_eta_hat``.
    """
    lam, z = _points(freq)
    f_eta_hat = np.asarray(f_eta_hat, dtype=complex)
    if freq.xi_prime is not None:
        implied = np.shape(freq.xi_prime)[0] + 1
        if n is not None and n != implied:
            raise ValueError(f"n={n} contradicts xi_prime of length {implied - 1}")
        n = implied
    elif n is None:
        n = 2
    xi = freq.direction(n)

    d1, w, _, _ = _reduced_denominator(params, lam, z)
    eta = -z * f_eta_hat / d1
    p0 = -lam * w * (w + z) * f_eta_hat / d1
    degenerate = z == 0.0
    if np.any(degenerate):
        warnings.warn(
            "z = 0: tangential frequency degenerates, displacement and "
            "velocity traces vanish and only the pressure trace survives",
            DegenerateTangentialFrequency,
            stacklevel=2,
        )
    phi_prime = np.where(degenerate, 0j, 1j * xi * p0 / (w * (w + z)))
    return TraceSolution(
        eta_hat=eta[()],
        p0_hat=p0[()],
        phi_prime_hat=phi_prime,
        phi_n_hat=(lam * eta)[()],
    )


def reflection_kernel(omega: complex, x: float, s: float, sign: int) -> complex:
    """Half-line resolvent kernel ``(exp(-w|x-s|) +- exp(-w(x+s))) / (2w)``.

    ``sign=+1`` is the even (Neumann) reflection, ``sign=-1`` the odd
    (Dirichlet) one.  Exposed so the test suite can integrate it directly.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +-1, got {sign}")
    return (np.exp(-omega * abs(x - s)) + sign * np.exp(-omega * (x + s))) / (
        2.0 * omega
    )


def _complex(re, im) -> np.ndarray:
    """``re + 1j * im`` without complex arithmetic."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def _exponentials(z, omega, delta, x):
    """``exp(-z x)``, ``exp(-omega x)`` and ``D(x) = (exp(-z x) - exp(-omega x)) / delta``.

    ``delta = omega - z`` comes from the caller in a form that does not
    cancel.  With ``r = exp(-Re omega x)`` and ``theta = Im omega x`` the
    numerator is ``[exp(-z x) - r] + 2 r sin^2(theta/2) + i r sin(theta)``,
    its bracket the larger exponential times ``expm1(-|Re delta| x)``: no
    subtraction cancels, no factor is unbounded when the other exponential
    underflows, and the two trig calls give ``exp(-omega x)`` too.  Where
    ``|delta| x`` is below the smallest normal float, ``D`` is its limit
    ``x exp(-z x)``.
    """
    decay_z = np.exp(-z * x)
    r = np.exp(-omega.real * x)
    half_sin = np.sin(0.5 * omega.imag * x)
    half_cos = np.cos(0.5 * omega.imag * x)
    r_versine = 2.0 * r * half_sin * half_sin
    r_sin = 2.0 * r * half_sin * half_cos
    decay_w = _complex(r - r_versine, -r_sin)
    lead = np.where(delta.real > 0, -decay_z, r)
    d = _complex(lead * np.expm1(-np.abs(delta.real) * x) + r_versine, r_sin)
    d /= np.where(delta == 0, 1.0, delta)
    np.copyto(d, x * decay_z, where=np.abs(delta) * x < np.finfo(float).tiny)
    return decay_z, decay_w, d


def kernel_integral(omega: complex, z: float, x, sign: int):
    """Closed form of ``integral_0^inf reflection_kernel(w, x, s, sign) e^(-z s) ds``.

    In the basis of :class:`FieldProfile`, for every ``omega`` and ``z``::

        sign=+1:  (e^(-omega x) + omega D(x)) / (omega (omega + z))
        sign=-1:  D(x) / (omega + z)

    Broadcasts over ``x``.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +-1, got {sign}")
    x = np.asarray(x, dtype=float)
    _, decay_w, d = _exponentials(z, omega, omega - z, x)
    out = (d if sign == -1 else (decay_w + omega * d) / omega) / (omega + z)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class FieldProfile:
    """Closed-form vertical profiles of a batch of frequency modes.

    Rows ``0..n-2`` of the coefficient arrays are the tangential velocity
    components, row ``n-1`` is the normal velocity and row ``n`` is the
    pressure; the remaining axes are the batch shape of ``lam``, ``z`` and
    ``omega``.  Each component is

        ``coef_z * exp(-z x) + coef_w * exp(-omega x) + coef_d * D(x)``

    with the divided difference ``D = (exp(-z x) - exp(-omega x)) /
    (omega - z)``, ``x exp(-z x)`` at ``omega = z``; ``omega - z`` is taken
    as ``lam / (omega + z)``, which does not cancel.  ``D' = -z D +
    exp(-omega x)`` keeps the basis closed under differentiation.  Both
    exponents have nonnegative real part, so every profile decays (or, at
    z = 0, stays bounded) as ``x -> inf``.
    """

    lam: complex | np.ndarray
    z: float | np.ndarray
    omega: complex | np.ndarray
    coef_z: np.ndarray
    coef_w: np.ndarray
    coef_d: np.ndarray

    def __post_init__(self) -> None:
        for name in ("coef_z", "coef_w", "coef_d"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            object.__setattr__(self, name, arr)
        if not self.coef_z.shape == self.coef_w.shape == self.coef_d.shape:
            raise ValueError("coefficient arrays must share a shape")
        if np.any(np.asarray(self.z) < 0):
            raise ValueError(f"z must be nonnegative, got {np.min(self.z)}")
        if np.any(np.real(self.omega) < 0):
            raise ValueError(f"Re omega must be nonnegative, got {self.omega}")

    @property
    def tangential_dim(self) -> int:
        return self.coef_z.shape[0] - 2

    def components(self, x) -> np.ndarray:
        """Evaluate all components; shape ``(n+1,) + batch shape + shape(x)``."""
        x = np.asarray(x, dtype=float)
        grid = (Ellipsis,) + (np.newaxis,) * x.ndim
        z = np.asarray(self.z)[grid]
        omega = np.asarray(self.omega, dtype=complex)[grid]
        delta = np.asarray(self.lam, dtype=complex)[grid] / (omega + z)
        decay_z, decay_w, d = _exponentials(z, omega, delta, x)
        return (
            self.coef_z[grid] * decay_z
            + self.coef_w[grid] * decay_w
            + self.coef_d[grid] * d
        )

    def velocity(self, x) -> np.ndarray:
        return self.components(x)[:-1]

    def pressure(self, x):
        return self.components(x)[-1]

    def derivative(self) -> "FieldProfile":
        """Profile of the x-derivative (closed form, same basis)."""
        return FieldProfile(
            lam=self.lam,
            z=self.z,
            omega=self.omega,
            coef_z=-self.z * self.coef_z,
            coef_w=-self.omega * self.coef_w + self.coef_d,
            coef_d=-self.z * self.coef_d,
        )

    @property
    def is_zero(self):
        """Per point: every coefficient vanishes."""
        return (
            ~self.coef_z.any(axis=0)
            & ~self.coef_w.any(axis=0)
            & ~self.coef_d.any(axis=0)
        )[()]


def build_profile(
    params: PlateParams, freq: Freq, traces: TraceSolution
) -> FieldProfile:
    """Assemble the closed-form profiles matching the given traces.

    The tangential components ride on the even-reflection kernel integral,
    the normal component on the odd one.  In the ``exp(-z x)``,
    ``exp(-omega x)``, ``D(x)`` basis of :class:`FieldProfile` each row is
    one expression, valid at every point, with ``f = -i xi' p0``:

    * tangential: ``coef_w = phi' + f / (omega (omega + z))``,
      ``coef_d = f / (omega + z)``;
    * normal: ``coef_w = phi_n``, ``coef_d = z p0 / (omega + z)``;
    * pressure: ``coef_z = p0``.

    Points with zero traces get the zero profile.  The resulting evaluation
    satisfies ``v'(0) = 0`` and ``v_n(0) = phi_n_hat`` by construction.
    Raises :class:`NearResonance` at ``omega = 0``, where no decaying
    profile exists.  Broadcasts over the points.
    """
    lam, z = _points(freq)
    n = traces.phi_prime_hat.shape[0] + 1
    xi = freq.direction(n)
    w = decay_root(lam, z)
    if np.any(w == 0):
        lam_i, z_i = _first(w == 0, lam, z)
        raise NearResonance(
            f"omega = 0: no decaying profile exists (lam={lam_i}, z={z_i})"
        )
    p0 = np.broadcast_to(traces.p0_hat, lam.shape)
    forcing = -1j * xi * p0
    no_velocity = np.zeros((n,) + lam.shape, dtype=complex)
    no_pressure = np.zeros((1,) + lam.shape, dtype=complex)
    return FieldProfile(
        lam=lam[()],
        z=z[()],
        omega=w,
        coef_z=np.concatenate([no_velocity, [p0]]),
        coef_w=np.concatenate([
            traces.phi_prime_hat + forcing / (w * (w + z)),
            [np.broadcast_to(traces.phi_n_hat, lam.shape)],
            no_pressure,
        ]),
        coef_d=np.concatenate([forcing / (w + z), [z * p0 / (w + z)], no_pressure]),
    )


@dataclass(frozen=True, eq=False)
class ResidualRow:
    """One verified equation: sup-norm residual and its term-magnitude scale.

    ``value`` and ``scale`` have the batch shape of the checked points.
    """

    name: str
    value: float | np.ndarray
    scale: float | np.ndarray

    def passed(self, rel_tol: float):
        return self.value <= rel_tol * self.scale

    def normalized(self):
        value = np.asarray(self.value, dtype=float)
        scale = np.asarray(self.scale, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = value / scale
        return np.where(scale == 0.0, np.where(value == 0.0, 0.0, np.inf), ratio)[()]


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Residuals of the full resolvent system, per point of a batch."""

    rows: tuple[ResidualRow, ...]
    rel_tol: float

    @property
    def passed(self):
        return np.logical_and.reduce([row.passed(self.rel_tol) for row in self.rows])

    @property
    def max_normalized(self):
        return np.maximum.reduce([row.normalized() for row in self.rows])

    def __getitem__(self, name: str) -> ResidualRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


# Residual sample points in x: 64 points log-spaced over [1e-3, 20].
_LOG_GRID = np.geomspace(1e-3, 2e1, 64)
_LOG_GRID.flags.writeable = False


def residual_report(
    params: PlateParams,
    freq: Freq,
    profile: FieldProfile,
    f_eta_hat,
) -> ResidualReport:
    """Verify every equation of the resolvent system as a residual.

    Six residuals are reported for every point, each with the sup over a
    64-point log grid in ``x`` (interior equations) or the boundary value
    (interface equations), together with a term-magnitude scale:

    * ``momentum``:   ``omega^2 v - v'' + (i xi', d_n) p``
    * ``divergence``: ``i xi' . v' + d_n v_n``
    * ``no-slip``:    ``v'(0)``
    * ``kinematic``:  ``lam eta - v_n(0)``
    * ``normal-gradient``: ``d_n v_n(0)``
    * ``plate-balance``:   ``p(0) + m(lam, z) eta + f_eta``

    The displacement entering the last three rows is recomputed from
    ``f_eta_hat`` via :func:`solve_displacement`, so the report checks the
    whole solution chain, not the profile in isolation.
    """
    lam, z = _points(freq)
    f_eta_hat = np.asarray(f_eta_hat, dtype=complex)
    n = profile.tangential_dim + 1
    xi = freq.direction(n)
    w2 = lam + z * z

    # Interior rows: arrays of shape (component,) + batch + (x,), reduced
    # over the component and x axes.  The profile and its first two
    # derivatives share their exponentials, so they are evaluated as one
    # profile with a derivative-order axis after the component axis.
    on_grid = (Ellipsis, np.newaxis)
    d1 = profile.derivative()
    d2 = d1.derivative()
    stacked = FieldProfile(
        lam=profile.lam,
        z=profile.z,
        omega=profile.omega,
        **{
            name: np.stack([getattr(p, name) for p in (profile, d1, d2)], axis=1)
            for name in ("coef_z", "coef_w", "coef_d")
        },
    )
    all_vals = stacked.components(_LOG_GRID)
    vals, vals1, vals2 = all_vals[:, 0], all_vals[:, 1], all_vals[:, 2]

    # Interior momentum equation, all velocity components.
    grad_p = np.concatenate([1j * xi[on_grid] * vals[n], vals1[n:]])
    w2_v = w2[on_grid] * vals[:n]
    momentum = w2_v - vals2[:n] + grad_p
    momentum_scale = (np.abs(w2_v) + np.abs(vals2[:n]) + np.abs(grad_p)).max(axis=(0, -1))

    # Interior divergence.
    div = (1j * xi[on_grid] * vals[: n - 1]).sum(axis=0) + vals1[n - 1]
    div_scale = (
        np.abs(xi[on_grid] * vals[: n - 1]).sum(axis=0) + np.abs(vals1[n - 1])
    ).max(axis=-1)

    # Boundary rows at x = 0 use the coefficient bundles directly.
    at0 = profile.coef_z + profile.coef_w
    d_at0 = d1.coef_z + d1.coef_w
    eta = solve_displacement(params, freq, f_eta_hat)
    m_val = plate_symbol(params, lam, z)

    no_slip = np.abs(at0[: n - 1]).max(axis=0, initial=0.0)
    # Term-magnitude scale via the two competing boundary contributions:
    # the trace coefficient and the pressure-driven kernel part.  The final
    # coefficient is their cancelled sum, the residual itself.
    fluid_part = -1j * xi * profile.coef_z[n] / (profile.omega * (profile.omega + z))
    no_slip_scale = (
        np.abs(at0[: n - 1] - fluid_part) + np.abs(fluid_part)
    ).max(axis=0, initial=0.0)

    kinematic = np.abs(lam * eta - at0[n - 1])
    kinematic_scale = np.abs(lam * eta) + np.abs(profile.coef_z[n - 1]) + np.abs(
        profile.coef_w[n - 1]
    )

    normal_gradient = np.abs(d_at0[n - 1])
    # Scale from the underlying term magnitudes, not the already-cancelled
    # derivative coefficients, which are the residual itself.
    normal_gradient_scale = (
        np.abs(z * profile.coef_z[n - 1])
        + np.abs(profile.omega * profile.coef_w[n - 1])
        + np.abs(profile.coef_d[n - 1])
    )

    balance = np.abs(at0[n] + m_val * eta + f_eta_hat)
    balance_scale = np.abs(at0[n]) + np.abs(m_val * eta) + np.abs(f_eta_hat)

    rows = tuple(
        ResidualRow(name, np.asarray(value)[()], np.asarray(scale)[()])
        for name, value, scale in (
            ("momentum", np.abs(momentum).max(axis=(0, -1)), momentum_scale),
            ("divergence", np.abs(div).max(axis=-1), div_scale),
            ("no-slip", no_slip, no_slip_scale),
            ("kinematic", kinematic, kinematic_scale),
            ("normal-gradient", normal_gradient, normal_gradient_scale),
            ("plate-balance", balance, balance_scale),
        )
    )
    return ResidualReport(rows=rows, rel_tol=TOL.residual_rel)


def uniqueness_probe(params: PlateParams, freq: Freq) -> bool:
    """Zero forcing must produce the zero solution (trivial kernel)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTangentialFrequency)
        traces = solve_traces(params, freq, 0j)
    profile = build_profile(params, freq, traces)
    return bool(np.all(traces.is_zero & profile.is_zero))
