"""Discrete compatibility report: test family, weak checks, trace gating."""

from __future__ import annotations

import json

import numpy as np
import pytest

from plate_fsi.cli import compatible_example
from plate_fsi.params import PlateParams
from plate_fsi.timedomain.compat import (
    CompatReport,
    _tangential_family,
    _vertical_family,
    check_compatibility,
    discrete_divergence,
)
from plate_fsi.timedomain.compat import test_function_family as function_family
from plate_fsi.timedomain.grid import Grid, ProblemData, tangential_derivatives
from plate_fsi.timedomain.stepper import LinearStepper

ITEM_NAMES = ["divergence-data", "duality-pairing", "no-slip-trace", "kinematic-trace"]


@pytest.fixture(scope="module")
def grid() -> Grid:
    return Grid(n=2, N=16, M=32, T=0.25, dt=0.25)


@pytest.fixture(scope="module")
def compatible_report(grid: Grid) -> CompatReport:
    return check_compatibility(compatible_example(grid, 0.5), grid)


class TestFamily:
    def test_size_and_shapes(self, grid: Grid) -> None:
        family = function_family(grid)
        assert len(family) == 32
        for phi in family:
            assert phi.shape == grid.tan_shape + (grid.M + 1,)
            assert np.isfinite(phi).all()

    def test_some_member_is_active_at_the_interface(self, grid: Grid) -> None:
        family = function_family(grid)
        assert max(np.abs(phi[..., 0]).max() for phi in family) > 0.1

    def test_deterministic(self, grid: Grid) -> None:
        first = function_family(grid)
        second = function_family(grid)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_three_dimensional_family(self) -> None:
        grid3 = Grid(n=3, N=8, M=16, T=0.125, dt=0.125)
        family = function_family(grid3)
        assert len(family) == 32
        for phi in family:
            assert phi.shape == (8, 8, 17)


def _scipy_vertical_family(grid: Grid, count: int) -> np.ndarray:
    from scipy.interpolate import BSpline

    breaks = np.linspace(0.0, grid.X, count - 2)
    knots = np.concatenate([[0.0] * 3, breaks, [grid.X] * 3])
    return BSpline.design_matrix(grid.mesh.nodes, knots, 3).toarray().T


def _scipy_tangential_family(grid: Grid, count: int, axis: int) -> np.ndarray:
    from scipy.interpolate import BSpline

    x = grid.tangential_coordinates()[axis]
    width = grid.L / 8.0
    bump = BSpline.basis_element(np.arange(-2.0, 3.0) * width, extrapolate=False)
    out = np.empty((count,) + grid.tan_shape)
    for i in range(count):
        center = i * grid.L / count
        shift = (x - center + grid.L / 2.0) % grid.L - grid.L / 2.0
        out[i] = np.nan_to_num(bump(shift))
    return out


@pytest.mark.parametrize(
    "grid",
    [Grid(n=2), Grid(n=3, N=16, M=32), Grid(n=2, N=16, M=48, L=3.7, X=40.0)],
    ids=["2d-default", "3d-N16-M32", "2d-L3.7-X40"],
)
def test_family_equals_scipy_bsplines(grid: Grid) -> None:
    """The numpy recursion reproduces scipy's B-splines bit for bit."""
    for count in (4, 8):
        np.testing.assert_array_equal(
            _vertical_family(grid, count), _scipy_vertical_family(grid, count)
        )
    for axis in range(grid.n - 1):
        for count in (2, 4):
            np.testing.assert_array_equal(
                _tangential_family(grid, count, axis),
                _scipy_tangential_family(grid, count, axis),
            )


class TestDiscreteDivergence:
    def test_stream_function_field_is_divergence_free(self, grid: Grid) -> None:
        # v = (D_vert q, -d_x q) has zero discrete divergence because the
        # spectral tangential derivative commutes with the vertical matrix.
        (x,) = grid.tangential_coordinates()
        q = np.cos(x)[..., np.newaxis] * np.sin(np.pi * grid.mesh.nodes / grid.X) ** 2
        v = np.zeros((2,) + grid.tan_shape + (grid.M + 1,))
        v[0] = grid.mesh.sbp_derivative(q)
        (dx_q,) = tangential_derivatives(q, grid, (1,), bulk=True)
        v[1] = -dx_q
        div = discrete_divergence(v, grid)
        assert np.abs(div).max() < 1e-13 * np.abs(v).max()

    def test_tangential_part_is_spectral(self, grid: Grid) -> None:
        (x,) = grid.tangential_coordinates()
        v = np.zeros((2,) + grid.tan_shape + (grid.M + 1,))
        v[0] = np.cos(x)[..., np.newaxis] * np.exp(-grid.mesh.nodes)
        expected = -np.sin(x)[..., np.newaxis] * np.exp(-grid.mesh.nodes)
        np.testing.assert_allclose(
            discrete_divergence(v, grid), expected, atol=1e-12
        )


class TestCompatibleExample:
    def test_item_names_and_order(self, compatible_report: CompatReport) -> None:
        assert [item.name for item in compatible_report.items] == ITEM_NAMES

    def test_all_conditions_pass(self, compatible_report: CompatReport) -> None:
        assert compatible_report.passed
        for item in compatible_report.items:
            assert item.status == "PASS"

    def test_duality_pairing_is_exact(self, compatible_report: CompatReport) -> None:
        # Summation by parts cancels the boundary terms identically, so the
        # pairing residual sits at roundoff, far below the tolerance.
        assert compatible_report["duality-pairing"].value < 1e-12

    def test_as_dict_is_json_serializable(
        self, compatible_report: CompatReport
    ) -> None:
        payload = json.loads(json.dumps(compatible_report.as_dict()))
        assert payload["passed"] is True
        assert [item["name"] for item in payload["items"]] == ITEM_NAMES

    def test_getitem_unknown_name(self, compatible_report: CompatReport) -> None:
        with pytest.raises(KeyError):
            compatible_report["no-such-condition"]


def _uniform_normal_data(grid: Grid, p_exponent: float) -> ProblemData:
    """Unit normal velocity with a resting plate: the trace pair disagrees."""
    v0 = np.zeros((grid.n,) + grid.tan_shape + (grid.M + 1,))
    v0[grid.n - 1] = 1.0
    return ProblemData(v0=v0, p_exponent=p_exponent)


class TestTraceGating:
    def test_kinematic_mismatch_fails_for_large_exponent(self, grid: Grid) -> None:
        report = check_compatibility(_uniform_normal_data(grid, p_exponent=2.0), grid)
        assert report["kinematic-trace"].status == "FAIL"
        assert report["no-slip-trace"].status == "PASS"
        assert not report.passed

    def test_traces_not_required_for_small_exponent(self, grid: Grid) -> None:
        report = check_compatibility(_uniform_normal_data(grid, p_exponent=1.4), grid)
        assert report["kinematic-trace"].status == "NOT_REQUIRED"
        assert report["no-slip-trace"].status == "NOT_REQUIRED"
        # The recorded mismatch value survives even when not enforced.
        assert report["kinematic-trace"].value == pytest.approx(1.0)

    def test_gate_is_strict_at_three_halves(self, grid: Grid) -> None:
        report = check_compatibility(_uniform_normal_data(grid, p_exponent=1.5), grid)
        assert report["kinematic-trace"].status == "NOT_REQUIRED"


class TestDivergenceDefect:
    def test_unbalanced_divergence_fails(self, grid: Grid) -> None:
        (x,) = grid.tangential_coordinates()
        v0 = np.zeros((2,) + grid.tan_shape + (grid.M + 1,))
        v0[0] = np.cos(x)[..., np.newaxis] * np.exp(-grid.mesh.nodes)
        report = check_compatibility(ProblemData(v0=v0), grid)
        assert report["divergence-data"].status == "FAIL"

    def test_never_raises_on_incompatible_data(self, grid: Grid) -> None:
        v0 = np.ones((2,) + grid.tan_shape + (grid.M + 1,))
        report = check_compatibility(ProblemData(v0=v0, eta1=None), grid)
        assert isinstance(report, CompatReport)
        assert len(report.items) == 4


class TestDataShapes:
    """A divergence datum with a level axis is rejected, not broadcast."""

    MESSAGE = r"^g has shape \(2, 16, 33\), expected \(16, 33\)$"

    @pytest.fixture
    def levelled(self, grid: Grid) -> ProblemData:
        data = compatible_example(grid, 0.5)
        data.g = np.stack([data.g, 7.0 + 0.0 * data.g])
        return data

    def test_check_compatibility_rejects(self, grid: Grid, levelled: ProblemData) -> None:
        with pytest.raises(ValueError, match=self.MESSAGE):
            check_compatibility(levelled, grid)

    def test_march_rejects(self, grid: Grid, levelled: ProblemData) -> None:
        stepper = LinearStepper(PlateParams(alpha=1.0, beta=0.0, gamma=1.0), grid)
        with pytest.raises(ValueError, match=self.MESSAGE):
            stepper.run(levelled)
