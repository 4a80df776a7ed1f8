"""Plate and coupled boundary symbols: frozen values and root residuals."""

from __future__ import annotations

from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plate_fsi.params import PlateParams
from plate_fsi.symbols import (
    BranchEdgeWarning,
    coupled_symbol,
    decay_root,
    plate_roots,
    plate_symbol,
    root_sector_angle,
)

UNIT = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)


class TestPlateSymbol:
    def test_frozen_value_at_unit_point(self) -> None:
        # lam = z = 1: 1 + 1 + 0 + 1 = 3.
        assert plate_symbol(UNIT, 1.0, 1.0) == pytest.approx(3.0)

    def test_broadcasts_over_arrays(self) -> None:
        lam = np.array([1.0, 2.0])
        out = plate_symbol(UNIT, lam, 1.0)
        assert out.shape == (2,)
        assert out[1] == pytest.approx(4.0 + 1.0 + 2.0)

    def test_tension_contributes_quadratically(self) -> None:
        tensioned = PlateParams(alpha=1.0, beta=3.0, gamma=1.0)
        diff = plate_symbol(tensioned, 2.0, 5.0) - plate_symbol(UNIT, 2.0, 5.0)
        assert diff == pytest.approx(3.0 * 25.0)


class TestPlateRoots:
    def test_frozen_roots_at_unit_frequency(self) -> None:
        r_plus, r_minus = plate_roots(UNIT, 1.0)
        assert r_plus == pytest.approx(complex(-0.5, sqrt(3.0) / 2.0))
        assert r_minus == pytest.approx(complex(-0.5, -sqrt(3.0) / 2.0))

    def test_roots_annihilate_symbol(self) -> None:
        for root in plate_roots(PlateParams(2.0, -1.0, 3.0), 1.7):
            assert abs(plate_symbol(PlateParams(2.0, -1.0, 3.0), root, 1.7)) < 1e-10

    @given(
        alpha=st.floats(0.1, 10.0),
        gamma=st.floats(0.1, 10.0),
        z=st.floats(0.01, 100.0),
    )
    def test_tension_free_roots_strictly_damped(self, alpha: float, gamma: float, z: float) -> None:
        params = PlateParams(alpha=alpha, beta=0.0, gamma=gamma)
        for root in plate_roots(params, z):
            assert root.real < 0
            scale = abs(root) ** 2 + alpha * z**4 + gamma * abs(root) * z**2
            assert abs(plate_symbol(params, root, z)) <= 1e-12 * scale


class TestRootSectorAngle:
    def test_oscillatory_case_is_third_pi(self) -> None:
        # gamma^2 = 1 < 4 alpha = 4: rays at angle atan(sqrt(3)) = pi/3.
        assert root_sector_angle(UNIT) == pytest.approx(pi / 3.0)

    def test_overdamped_case_collapses_to_zero(self) -> None:
        # gamma^2 = 4 = 4 alpha: both rays on the negative real axis.
        assert root_sector_angle(PlateParams(alpha=1.0, beta=0.0, gamma=2.0)) == 0.0

    def test_angle_strictly_below_half_pi(self) -> None:
        for gamma in (0.05, 0.5, 1.0, 5.0):
            assert root_sector_angle(PlateParams(1.0, 0.0, gamma)) < pi / 2.0

    def test_angle_matches_root_arguments(self) -> None:
        # The closed form is the only root clearance of check_parabolicity:
        # it must match the roots over z in [1e-2, 1e2], for damped, lightly
        # damped, near-critical and overdamped plates.
        for alpha, gamma in ((2.5, 1.2), (1.0, 1.0), (0.3, 0.05), (4.0, 3.9), (1.0, 3.0)):
            params = PlateParams(alpha=alpha, beta=0.0, gamma=gamma)
            angle = root_sector_angle(params)
            for z in np.geomspace(1e-2, 1e2, 17):
                worst = max(
                    pi - abs(np.angle(complex(root)))
                    for root in plate_roots(params, float(z))
                )
                assert angle == pytest.approx(worst, abs=1e-12), (alpha, gamma, z)


class TestDecayRoot:
    def test_principal_branch_nonnegative_real_part(self) -> None:
        lam = np.array([1.0 + 2.0j, -0.5 + 4.0j, 10.0 - 3.0j])
        w = decay_root(lam, 2.0)
        assert (w.real >= 0).all()
        np.testing.assert_allclose(w * w, lam + 4.0, rtol=1e-14)

    def test_branch_edge_warns(self) -> None:
        with pytest.warns(BranchEdgeWarning):
            decay_root(-2.0, 0.0)

    def test_off_edge_is_silent(self) -> None:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decay_root(-2.0 + 1.0j, 0.0)


class TestCoupledSymbol:
    def test_frozen_value_at_unit_point(self) -> None:
        # z^2 m + lam (lam + z^2)(w + z) = 3 + 2 (sqrt(2) + 1) = 5 + 2 sqrt(2).
        assert coupled_symbol(UNIT, 1.0, 1.0) == pytest.approx(5.0 + 2.0 * sqrt(2.0))

    def test_vanishes_with_frequency_and_rate(self) -> None:
        assert coupled_symbol(UNIT, 0.0, 0.0) == 0.0

    @given(
        lam_re=st.floats(0.1, 50.0),
        lam_im=st.floats(-50.0, 50.0),
        z=st.floats(0.01, 50.0),
    )
    def test_reassembles_from_parts(self, lam_re: float, lam_im: float, z: float) -> None:
        lam = complex(lam_re, lam_im)
        w = decay_root(lam, z)
        expected = z * z * plate_symbol(UNIT, lam, z) + lam * w * w * (w + z)
        got = coupled_symbol(UNIT, lam, z)
        assert got == pytest.approx(expected, rel=1e-12)


class TestParamsValidation:
    def test_alpha_must_be_positive(self) -> None:
        with pytest.raises(ValueError, match="alpha"):
            PlateParams(alpha=-1.0, beta=0.0, gamma=1.0)

    def test_gamma_must_be_positive(self) -> None:
        with pytest.raises(ValueError, match="gamma"):
            PlateParams(alpha=1.0, beta=0.0, gamma=0.0)

    def test_tension_may_be_negative(self) -> None:
        PlateParams(alpha=1.0, beta=-2.0, gamma=1.0)
