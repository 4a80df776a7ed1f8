"""Frequency-domain solution operator: frozen traces, oracles, residuals."""

from __future__ import annotations

import dataclasses
import re
import warnings
from math import sqrt

import numpy as np
import pytest
from scipy.integrate import quad

from plate_fsi.params import Freq, PlateParams
from plate_fsi.frequency import (
    DegenerateTangentialFrequency,
    NearResonance,
    TraceSolution,
    build_profile,
    kernel_integral,
    reflection_kernel,
    residual_report,
    response_denominator,
    solve_displacement,
    solve_traces,
    uniqueness_probe,
)

UNIT = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)


def _random_mode(rng) -> tuple[PlateParams, Freq, complex]:
    """One admissible draw: right-half-plane lam, positive z, generic data."""
    params = PlateParams(
        alpha=float(rng.uniform(0.2, 5.0)),
        beta=float(rng.uniform(-1.0, 2.0)),
        gamma=float(rng.uniform(0.2, 5.0)),
    )
    modulus = float(10.0 ** rng.uniform(-2.0, 2.0))
    arg = float(rng.uniform(-0.45 * np.pi, 0.45 * np.pi))
    lam = modulus * complex(np.cos(arg), np.sin(arg))
    z = float(10.0 ** rng.uniform(-2.0, 2.0))
    f_hat = complex(rng.normal(), rng.normal())
    return params, Freq(lam=lam, z=z), f_hat


def _quad_complex(func, a: float, b: float, kink: float | None = None) -> complex:
    """Adaptive quadrature of a complex integrand, tight enough for 1e-9."""
    points = [kink] if kink is not None and a < kink < b else None
    opts = dict(limit=400, epsabs=1e-13, epsrel=1e-13, points=points)
    re, _ = quad(lambda s: func(s).real, a, b, **opts)
    im, _ = quad(lambda s: func(s).imag, a, b, **opts)
    return complex(re, im)


class TestResponseDenominator:
    def test_frozen_value_at_unit_point(self) -> None:
        # z^2 m + lam w z (w + z) = 3 + sqrt(2)(sqrt(2) + 1) = 5 + sqrt(2).
        assert response_denominator(UNIT, 1.0, 1.0) == pytest.approx(5.0 + sqrt(2.0))

    def test_differs_from_envelope_by_root_weight(self) -> None:
        # The polygon envelope carries w where the solver carries z.
        from plate_fsi.symbols import coupled_symbol, decay_root

        lam, z = 2.0 + 1.0j, 1.7
        w = decay_root(lam, z)
        diff = coupled_symbol(UNIT, lam, z) - response_denominator(UNIT, lam, z)
        assert diff == pytest.approx(lam * w * (w + z) * (w - z), rel=1e-12)


class TestSolveTraces:
    def test_frozen_traces_at_unit_point(self) -> None:
        traces = solve_traces(UNIT, Freq(lam=1.0, z=1.0), 1.0)
        eta = -1.0 / (5.0 + sqrt(2.0))
        assert traces.eta_hat == pytest.approx(eta)
        assert traces.eta_hat == pytest.approx(-0.15590375815769153)
        assert traces.p0_hat == pytest.approx(-0.5322887255269254)
        assert traces.phi_n_hat == pytest.approx(eta)  # lam = 1
        assert traces.phi_prime_hat == pytest.approx((complex(0.0, eta),))

    def test_zero_tangential_frequency_degenerates(self) -> None:
        with pytest.warns(DegenerateTangentialFrequency):
            traces = solve_traces(UNIT, Freq(lam=1.0, z=0.0), 1.0)
        assert traces.eta_hat == 0.0
        assert traces.phi_n_hat == 0.0
        assert traces.phi_prime_hat == (0j,)
        assert traces.p0_hat == pytest.approx(-1.0)

    def test_displacement_matches_dedicated_solver(self, rng) -> None:
        for _ in range(10):
            params, freq, f_hat = _random_mode(rng)
            traces = solve_traces(params, freq, f_hat)
            assert traces.eta_hat == solve_displacement(params, freq, f_hat)

    def test_linearity_in_forcing(self, rng) -> None:
        params, freq, f_hat = _random_mode(rng)
        one = solve_traces(params, freq, f_hat)
        scaled = solve_traces(params, freq, 3.5j * f_hat)
        assert scaled.eta_hat == pytest.approx(3.5j * one.eta_hat, rel=1e-14)
        assert scaled.p0_hat == pytest.approx(3.5j * one.p0_hat, rel=1e-14)
        assert scaled.phi_n_hat == pytest.approx(3.5j * one.phi_n_hat, rel=1e-14)

    def test_dimension_must_match_covector(self) -> None:
        freq = Freq(lam=1.0, z=1.0, xi_prime=(1.0, 0.0))
        with pytest.raises(ValueError, match="contradicts"):
            solve_traces(UNIT, freq, 1.0, n=2)

    def test_trace_identities(self, rng) -> None:
        # Kinematic trace phi_n = lam eta, and the divergence pairing
        # i xi' . phi' = -z phi_n, both to 1e-12 relative.
        for _ in range(25):
            params, freq, f_hat = _random_mode(rng)
            traces = solve_traces(params, freq, f_hat, n=3)
            xi = freq.direction(3)
            pairing = sum(
                1j * x * c for x, c in zip(xi, traces.phi_prime_hat)
            )
            scale = abs(freq.lam) * abs(traces.eta_hat) + 1e-300
            assert abs(traces.phi_n_hat - freq.lam * traces.eta_hat) <= 1e-12 * scale
            assert abs(pairing + freq.z * traces.phi_n_hat) <= 1e-12 * (
                abs(pairing) + scale * freq.z
            )

    def test_near_resonance_raises_at_denominator_root(self) -> None:
        # At z = 1 the reduced denominator, rewritten in w = sqrt(lam + 1),
        # is the quartic 2 w^4 + w^3 - 2 w^2 - w + 1; its two roots with
        # Re w > 0 sit on the principal branch and are genuine resonances.
        roots = np.roots([2.0, 1.0, -2.0, -1.0, 1.0])
        hit = 0
        for w in roots:
            if w.real <= 0:
                continue
            lam = complex(w * w - 1.0)
            hit += 1
            with pytest.raises(NearResonance):
                solve_traces(UNIT, Freq(lam=lam, z=1.0), 1.0)
        assert hit == 2

    def test_degenerate_origin_raises(self) -> None:
        with pytest.raises(NearResonance):
            solve_displacement(UNIT, Freq(lam=0.0, z=0.0), 1.0)


class TestKernelIntegral:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        ("omega", "z"),
        [
            (1.5 + 0.0j, 0.7),
            (0.9 + 1.1j, 2.0),
            (2.0 + 0.4j, 0.05),
            # Equal and nearly equal exponents share the one closed form.
            pytest.param(1.3 + 0.0j, 1.3, id="equal"),
            pytest.param(1.3 * (1.0 + 1e-9) + 0.0j, 1.3, id="near-equal"),
        ],
    )
    def test_matches_quadrature(self, omega: complex, z: float, sign: int) -> None:
        for x in (0.0, 0.3, 2.5):
            oracle = _quad_complex(
                lambda s: reflection_kernel(omega, x, s, sign) * np.exp(-z * s),
                0.0,
                60.0 / min(1.0, z + omega.real),
                kink=x,
            )
            assert kernel_integral(omega, z, x, sign) == pytest.approx(
                oracle, rel=1e-9, abs=1e-12
            )

    def test_sign_validation(self) -> None:
        with pytest.raises(ValueError):
            kernel_integral(1.0 + 0j, 1.0, 0.5, 0)
        with pytest.raises(ValueError):
            reflection_kernel(1.0 + 0j, 0.5, 0.5, 2)


class TestBuildProfile:
    def test_boundary_values_by_construction(self, rng) -> None:
        for _ in range(10):
            params, freq, f_hat = _random_mode(rng)
            traces = solve_traces(params, freq, f_hat, n=3)
            profile = build_profile(params, freq, traces)
            at0 = profile.components(0.0)
            # Roundoff is relative to the coefficient magnitudes, which can
            # dwarf the traces when the two exponents nearly cancel.
            coef_scale = float((np.abs(profile.coef_z) + np.abs(profile.coef_w)).max())
            np.testing.assert_allclose(np.abs(at0[:2]), 0.0, atol=1e-13 * coef_scale)
            assert abs(at0[2] - traces.phi_n_hat) <= 1e-13 * coef_scale
            assert at0[3] == pytest.approx(traces.p0_hat, rel=1e-12)

    def test_profiles_match_quadrature_oracle(self, rng) -> None:
        # The velocity components are kernel integrals against the pressure:
        # tangential ones are pure odd-kernel integrals, the normal one adds
        # the homogeneous decay carrying its trace.
        for _ in range(5):
            params = PlateParams(
                alpha=float(rng.uniform(0.2, 5.0)),
                beta=float(rng.uniform(-1.0, 2.0)),
                gamma=float(rng.uniform(0.2, 5.0)),
            )
            modulus = float(10.0 ** rng.uniform(-1.0, 1.0))
            arg = float(rng.uniform(-0.4 * np.pi, 0.4 * np.pi))
            freq = Freq(
                lam=modulus * complex(np.cos(arg), np.sin(arg)),
                z=float(rng.uniform(0.2, 3.0)),
            )
            f_hat = complex(rng.normal(), rng.normal())
            traces = solve_traces(params, freq, f_hat)
            profile = build_profile(params, freq, traces)
            w = profile.omega
            xi = freq.direction(2)
            upper = 50.0 / min(1.0, w.real + freq.z)
            for x in (0.1, 1.0, 3.0):
                vals = profile.components(x)
                base = _quad_complex(
                    lambda s: reflection_kernel(w, x, s, -1)
                    * traces.p0_hat
                    * np.exp(-freq.z * s),
                    0.0,
                    upper,
                    kink=x,
                )
                v_tan = -1j * xi[0] * base
                v_n = freq.z * base + traces.phi_n_hat * np.exp(-w * x)
                scale = max(abs(traces.p0_hat), abs(traces.phi_n_hat))
                assert abs(vals[0] - v_tan) <= 1e-8 * scale
                assert abs(vals[1] - v_n) <= 1e-8 * scale
                assert vals[2] == pytest.approx(
                    traces.p0_hat * np.exp(-freq.z * x), rel=1e-12
                )

    def test_profiles_decay(self, rng) -> None:
        params, freq, f_hat = _random_mode(rng)
        traces = solve_traces(params, freq, f_hat)
        profile = build_profile(params, freq, traces)
        near = np.abs(profile.components(0.0)).max()
        far = np.abs(profile.components(200.0)).max()
        assert far < 1e-8 * near

    def test_zero_traces_give_zero_profile(self) -> None:
        assert uniqueness_probe(UNIT, Freq(lam=2.0 + 1.0j, z=0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateTangentialFrequency)
            assert uniqueness_probe(UNIT, Freq(lam=1.0, z=0.0))

    def test_confluent_profile_branch(self) -> None:
        # lam = 1e-9 puts omega within 5e-10 of z; the profile takes the
        # same basis as everywhere else, without a warning.
        freq = Freq(lam=1e-9, z=1.0)
        traces = solve_traces(UNIT, freq, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = build_profile(UNIT, freq, traces)
            report = residual_report(UNIT, freq, profile, 1.0)
        assert report.passed, report.max_normalized

    def test_derivative_profile_differentiates(self, rng) -> None:
        params, freq, f_hat = _random_mode(rng)
        profile = build_profile(params, freq, solve_traces(params, freq, f_hat))
        d = profile.derivative()
        h = 1e-6
        x = 0.8
        fd = (profile.components(x + h) - profile.components(x - h)) / (2.0 * h)
        np.testing.assert_allclose(
            d.components(x), fd, rtol=1e-6, atol=1e-8 * np.abs(fd).max()
        )


class TestResidualReport:
    def test_clean_solution_passes(self, rng) -> None:
        for _ in range(25):
            params, freq, f_hat = _random_mode(rng)
            traces = solve_traces(params, freq, f_hat)
            report = residual_report(
                params, freq, build_profile(params, freq, traces), f_hat
            )
            assert report.passed, (freq, report.max_normalized)
            assert report.max_normalized <= 1e-8

    def test_row_names_and_lookup(self) -> None:
        freq = Freq(lam=1.0, z=1.0)
        traces = solve_traces(UNIT, freq, 1.0)
        report = residual_report(UNIT, freq, build_profile(UNIT, freq, traces), 1.0)
        assert [row.name for row in report.rows] == [
            "momentum",
            "divergence",
            "no-slip",
            "kinematic",
            "normal-gradient",
            "plate-balance",
        ]
        assert report["plate-balance"].scale > 0
        with pytest.raises(KeyError):
            report["nonexistent"]

    def test_corrupted_pressure_trace_is_detected(self) -> None:
        # Scaling the pressure trace by 1% breaks the coupling rows while
        # leaving the self-consistent interior momentum equation intact.
        freq = Freq(lam=1.0 + 0.5j, z=1.3)
        traces = solve_traces(UNIT, freq, 1.0)
        bad = dataclasses.replace(traces, p0_hat=traces.p0_hat * 1.01)
        report = residual_report(UNIT, freq, build_profile(UNIT, freq, bad), 1.0)
        assert not report.passed
        assert report["momentum"].passed(report.rel_tol)
        assert report["kinematic"].passed(report.rel_tol)
        for name in ("divergence", "no-slip", "normal-gradient", "plate-balance"):
            assert not report[name].passed(report.rel_tol), name

    def test_normalized_handles_zero_scale(self) -> None:
        from plate_fsi.frequency import ResidualRow

        assert ResidualRow("x", 0.0, 0.0).normalized() == 0.0
        assert ResidualRow("x", 1.0, 0.0).normalized() == np.inf


class TestNearlyEqualExponents:
    """Points where omega - z is small against omega, or Re omega << z."""

    @pytest.mark.parametrize("z", [0.2, 1.0, 5.0, 400.0])
    def test_near_confluent_grid_passes(self, z: float) -> None:
        ratio = np.geomspace(1e-9, 1e-5, 150)
        lam = (ratio[:, None] * z * z * np.exp(1j * np.array([0.0, 0.6, 1.2]))).ravel()
        freq = Freq(lam=lam, z=np.full(lam.shape, z))
        traces = solve_traces(UNIT, freq, 1.0)
        report = residual_report(UNIT, freq, build_profile(UNIT, freq, traces), 1.0)
        worst = int(np.argmax(report.max_normalized))
        assert report.passed.all(), (lam[worst], report.max_normalized[worst])
        assert report.max_normalized.max() <= 1e-13

    @pytest.mark.parametrize(
        ("lam", "z"), [(0.0, 1.0), (1e-12, 1.0), (-3599.0 + 10.0j, 60.0), (-9996.0 + 40.0j, 100.0)]
    )
    def test_exact_confluence_and_small_re_omega(self, lam: complex, z: float) -> None:
        # lam = 0 gives omega = z exactly; the last two have Re omega ~ 2,
        # so exp(-z x) underflows on the grid while exp(-omega x) does not.
        freq = Freq(lam=lam, z=z)
        traces = solve_traces(UNIT, freq, 1.0)
        report = residual_report(UNIT, freq, build_profile(UNIT, freq, traces), 1.0)
        assert np.isfinite(report.max_normalized)
        assert report.passed
        assert report.max_normalized <= 1e-13

    def test_omega_zero_has_no_profile(self) -> None:
        # lam = -z^2: omega = 0, so no decaying profile exists, not even
        # for zero traces.
        freq = Freq(lam=-1.0, z=1.0)
        traces = TraceSolution(eta_hat=0j, p0_hat=0j, phi_prime_hat=[0j], phi_n_hat=0j)
        with pytest.raises(NearResonance, match="omega = 0"):
            build_profile(UNIT, freq, traces)


class TestFreqValidation:
    def test_negative_modulus_rejected(self) -> None:
        with pytest.raises(ValueError, match="z"):
            Freq(lam=1.0, z=-1.0)

    def test_covector_modulus_must_match(self) -> None:
        with pytest.raises(ValueError, match="xi_prime"):
            Freq(lam=1.0, z=1.0, xi_prime=(3.0, 4.0))
        Freq(lam=1.0, z=5.0, xi_prime=(3.0, 4.0))


def _batch_points(rng, n: int, count: int = 12) -> tuple[Freq, np.ndarray]:
    """Random admissible points with covectors, plus z = 0 and omega ~ z."""
    modulus = 10.0 ** rng.uniform(-2.0, 2.0, count)
    arg = rng.uniform(-0.45 * np.pi, 0.45 * np.pi, count)
    lam = modulus * np.exp(1j * arg)
    z = 10.0 ** rng.uniform(-2.0, 2.0, count)
    lam[0], z[0] = 1.0 + 0.5j, 0.0
    lam[1], z[1] = 1e-9, 1.0
    direction = rng.normal(size=(n - 1, count))
    xi = z * direction / np.hypot.reduce(direction, axis=0)
    f_hat = rng.normal(size=count) + 1j * rng.normal(size=count)
    return Freq(lam=lam, z=z, xi_prime=xi), f_hat


def _assert_close(batch, single, rel: float = 1e-14) -> None:
    """Normwise relative agreement of one point's values.

    Array and scalar complex products may round differently in the last
    bit, so a coefficient that cancels can lose a few digits of its own
    size; it is compared on the size of its point's vector instead.
    """
    batch, single = np.asarray(batch), np.asarray(single)
    assert batch.shape == single.shape
    assert np.abs(batch - single).max() <= rel * np.abs(single).max(), (batch, single)


class TestBatchedPoints:
    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_matches_single_points(self, rng, n: int) -> None:
        params = PlateParams(alpha=1.3, beta=0.4, gamma=0.8)
        freq, f_hat = _batch_points(rng, n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traces = solve_traces(params, freq, f_hat)
            profile = build_profile(params, freq, traces)
        # One warning per call, however many points trigger it.
        assert [w.category for w in caught] == [DegenerateTangentialFrequency]
        report = residual_report(params, freq, profile, f_hat)
        assert traces.phi_prime_hat.shape == (n - 1,) + freq.shape
        assert profile.coef_w.shape == (n + 1,) + freq.shape

        for i in range(freq.shape[0]):
            point = Freq(
                lam=complex(freq.lam[i]),
                z=float(freq.z[i]),
                xi_prime=tuple(freq.xi_prime[:, i]),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                one = solve_traces(params, point, f_hat[i])
                one_profile = build_profile(params, point, one)
            one_report = residual_report(params, point, one_profile, f_hat[i])
            for name in ("eta_hat", "p0_hat", "phi_n_hat"):
                _assert_close(getattr(traces, name)[i], getattr(one, name))
            _assert_close(traces.phi_prime_hat[:, i], one.phi_prime_hat)
            for name in ("coef_z", "coef_w", "coef_d"):
                _assert_close(getattr(profile, name)[:, i], getattr(one_profile, name))
            # Residual rows are sups of grid values that cancel, so last-bit
            # differences of the coefficients reach them amplified, by up to
            # ~1e2 on these draws.
            for row, one_row in zip(report.rows, one_report.rows):
                assert row.name == one_row.name
                # Residuals are rounding noise; compare them on their scale.
                tol = 1e-12 * one_row.scale
                assert abs(row.scale[i] - one_row.scale) <= tol
                assert abs(row.value[i] - one_row.value) <= tol
                assert row.passed(report.rel_tol)[i] == one_row.passed(report.rel_tol)
            assert report.passed[i] == one_report.passed
        assert report.passed.all()

    def test_scalar_call_is_the_zero_dimensional_batch(self) -> None:
        freq = Freq(lam=1.0 + 0.5j, z=1.3)
        traces = solve_traces(UNIT, freq, 1.0)
        profile = build_profile(UNIT, freq, traces)
        report = residual_report(UNIT, freq, profile, 1.0)
        assert np.ndim(traces.eta_hat) == 0
        assert traces.phi_prime_hat.shape == (1,)
        assert profile.coef_z.shape == (3,)
        assert profile.components(np.zeros(5)).shape == (3, 5)
        assert np.ndim(report.max_normalized) == 0
        assert np.ndim(report.passed) == 0

    def test_resonant_point_in_batch_raises(self) -> None:
        # The two principal-branch resonances at z = 1 (see
        # TestSolveTraces.test_near_resonance_raises_at_denominator_root),
        # between ordinary points; the first one is named.
        roots = [w for w in np.roots([2.0, 1.0, -2.0, -1.0, 1.0]) if w.real > 0]
        resonant = [w * w - 1.0 for w in roots]
        lam = np.array([1.0, resonant[0], 2.0 + 1.0j, resonant[1]])
        with pytest.raises(NearResonance, match=re.escape(f"lam={lam[1]}, z=1.0")):
            solve_traces(UNIT, Freq(lam=lam, z=np.ones(4)), 1.0)
        with pytest.raises(NearResonance):
            solve_displacement(UNIT, Freq(lam=lam, z=1.0), 1.0)

    def test_zero_forcing_in_batch_gives_zero_profiles(self) -> None:
        freq = Freq(lam=np.array([2.0 + 1.0j, 1.0, 1e-9]), z=np.array([0.5, 0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateTangentialFrequency)
            traces = solve_traces(UNIT, freq, 0j)
        profile = build_profile(UNIT, freq, traces)
        assert traces.is_zero.all() and profile.is_zero.all()
