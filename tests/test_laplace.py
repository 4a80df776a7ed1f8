"""Contour Laplace inversion: analytic oracles and failure detection."""

from __future__ import annotations

import numpy as np
import pytest

from plate_fsi.params import PlateParams
from plate_fsi.timedomain.laplace import (
    ContourFailure,
    _contour,
    mode_response_reference,
    talbot_inverse,
)

UNIT = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)


class TestTalbotInverse:
    def test_exponential_oracle(self) -> None:
        # 1 / (lam + 1)  <->  e^(-t)
        for t in (0.2, 1.0, 3.0):
            got = talbot_inverse(lambda lam: 1.0 / (lam + 1.0), t)
            assert got == pytest.approx(np.exp(-t), rel=1e-9)

    def test_ramp_oracle(self) -> None:
        # 1 / lam^2  <->  t
        for t in (0.5, 1.0, 4.0):
            assert talbot_inverse(lambda lam: lam**-2.0, t) == pytest.approx(
                t, rel=1e-10
            )

    def test_damped_oscillation_oracle(self) -> None:
        # (lam + a) / ((lam + a)^2 + b^2)  <->  e^(-a t) cos(b t)
        a, b, t = 0.5, 2.0, 1.5
        got = talbot_inverse(lambda lam: (lam + a) / ((lam + a) ** 2 + b**2), t)
        assert got == pytest.approx(np.exp(-a * t) * np.cos(b * t), rel=1e-9)

    def test_one_transform_call_per_quadrature(self) -> None:
        # One call with every node of the nodes-point rule, one with every
        # node of the 2 nodes-point rule (the upper half contour: the lower
        # half is its conjugate).
        calls = []

        def transform(lam: np.ndarray) -> np.ndarray:
            calls.append(lam.copy())
            return 1.0 / (lam + 1.0)

        t, nodes = 1.5, 16
        talbot_inverse(transform, t, nodes=nodes)
        assert len(calls) == 2
        for lam, count in zip(calls, (nodes, 2 * nodes)):
            theta = (np.arange(count // 2) + 0.5) * (2.0 * np.pi / count)
            np.testing.assert_array_equal(lam, _contour(theta, t, count)[0])

    def test_time_must_be_positive(self) -> None:
        with pytest.raises(ValueError, match="t > 0"):
            talbot_inverse(lambda lam: 1.0 / lam, 0.0)

    def test_pole_near_contour_fails_loudly(self) -> None:
        # A pole sitting essentially on the node-32 contour ruins the
        # geometric convergence, and node doubling exposes the disagreement.
        pole = 1.97 + 8.46j

        def transform(lam: complex) -> complex:
            return 1.0 / (lam - pole)

        with pytest.raises(ContourFailure, match="node doubling"):
            talbot_inverse(transform, 1.0, nodes=32)

    def test_under_resolved_quadrature_fails_loudly(self) -> None:
        # Four nodes cannot resolve the ramp at t = 100.
        with pytest.raises(ContourFailure):
            talbot_inverse(lambda lam: lam**-2.0, 100.0, nodes=4)


class TestModeResponseReference:
    def test_frozen_step_response(self) -> None:
        # Unit-mode step forcing (transform 1 / lam) at z = 1, t = 1.
        got = mode_response_reference(UNIT, 1.0, lambda lam: 1.0 / lam, [1.0])
        assert got[0] == pytest.approx(-0.13928908909959123, rel=1e-9)

    def test_short_time_limit_vanishes(self) -> None:
        # The displacement starts from rest, so tiny times give tiny values.
        got = mode_response_reference(UNIT, 1.0, lambda lam: 1.0 / lam, [1e-3])
        assert abs(got[0]) < 1e-4

    def test_long_time_approaches_static_deflection(self) -> None:
        # Step forcing converges to the static solve: eta_inf solves
        # z^2 (alpha z^4 + beta z^2) eta = -z^2 f, i.e. eta = -1 at z = 1.
        got = mode_response_reference(UNIT, 1.0, lambda lam: 1.0 / lam, [60.0])
        assert got[0] == pytest.approx(-1.0, rel=1e-6)

    def test_forcing_sees_each_contour_once(self) -> None:
        shapes = []

        def step(lam: np.ndarray) -> np.ndarray:
            shapes.append(lam.shape)
            return 1.0 / lam

        mode_response_reference(UNIT, 1.0, step, [0.5, 1.0])
        assert shapes == [(16,), (32,)] * 2

    def test_multiple_times_preserve_order(self) -> None:
        times = [0.25, 0.5, 1.0]
        vals = mode_response_reference(UNIT, 1.0, lambda lam: 1.0 / lam, times)
        assert vals.shape == (3,)
        # Monotone approach toward the static deflection at these times.
        assert 0 > vals[0] > vals[1] > vals[2]
