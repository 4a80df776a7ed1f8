"""Newton polygon geometry, principal parts, and the sector sampling check."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import pi

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plate_fsi.params import PlateParams, Sector
from plate_fsi.polygon import (
    _LAM_SAMPLES,
    _MIN_RATIO,
    _MODULUS_RANGE,
    _Z_SAMPLES,
    EmptyTermSet,
    MixedTerm,
    build_polygon,
    check_parabolicity,
    coupled_symbol_terms,
    plate_symbol_terms,
    principal_symbol,
    relevant_weights,
    term_points,
)
from plate_fsi.symbols import coupled_symbol, root_sector_angle

UNIT = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)

F = Fraction


def _oracle_vertices(terms) -> set[tuple[Fraction, Fraction]]:
    """Extreme points via an exact support-function sweep.

    A point of the projection-closed exponent set is an upper-right hull
    vertex iff it is the unique maximizer of ``b + r * a`` for some weight
    r > 0.  Sampling one r strictly inside every interval between consecutive
    pairwise tie slopes (plus one below and one above all of them) therefore
    recovers the full vertex set, entirely in rational arithmetic.
    """
    raw: set[tuple[Fraction, Fraction]] = set()
    for t in terms:
        raw |= term_points(t)
    pts = set(raw)
    for b, a in raw:
        pts.add((b, F(0)))
        pts.add((F(0), a))
    crit: set[Fraction] = set()
    plist = sorted(pts)
    for i, (b1, a1) in enumerate(plist):
        for b2, a2 in plist[i + 1 :]:
            if a1 != a2:
                r = F(b1 - b2, a2 - a1)
                if r > 0:
                    crit.add(r)
    slopes = sorted(crit)
    if slopes:
        sweep = [slopes[0] / 2]
        sweep += [(lo + hi) / 2 for lo, hi in zip(slopes, slopes[1:])]
        sweep.append(slopes[-1] * 2)
    else:
        sweep = [F(1)]
    found: set[tuple[Fraction, Fraction]] = set()
    for r in sweep:
        found.add(max(pts, key=lambda p: p[0] + r * p[1]))
    return found


_terms_strategy = st.lists(
    st.builds(
        MixedTerm,
        coeff=st.sampled_from([1.0, -1.0, 2.0, 0.5j]),
        a=st.fractions(min_value=0, max_value=6, max_denominator=2),
        b=st.fractions(min_value=0, max_value=6, max_denominator=2),
        c=st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=6,
)


class TestBuildPolygon:
    def test_coupled_polygon_frozen(self) -> None:
        polygon = build_polygon(coupled_symbol_terms(UNIT))
        assert polygon.vertices == ((F(6), F(0)), (F(2), F(2)), (F(0), F(5, 2)))
        assert polygon.edge_weights() == (F(2), F(4))
        assert polygon.on_edge == frozenset({(F(4), F(1))})

    def test_plate_polygon_frozen(self) -> None:
        polygon = build_polygon(plate_symbol_terms(UNIT))
        assert polygon.vertices == ((F(4), F(0)), (F(0), F(2)))
        assert polygon.edge_weights() == (F(2),)
        assert polygon.on_edge == frozenset({(F(2), F(1))})

    def test_tension_does_not_move_vertices(self) -> None:
        for beta in (-3.0, -0.1, 0.7, 25.0):
            params = PlateParams(alpha=1.0, beta=beta, gamma=1.0)
            polygon = build_polygon(coupled_symbol_terms(params))
            assert polygon.vertices == ((F(6), F(0)), (F(2), F(2)), (F(0), F(5, 2)))

    def test_vertices_independent_of_coefficients(self, rng) -> None:
        reference = build_polygon(coupled_symbol_terms(UNIT)).vertices
        for _ in range(20):
            params = PlateParams(
                alpha=float(rng.uniform(0.05, 20.0)),
                beta=float(rng.uniform(-5.0, 5.0)),
                gamma=float(rng.uniform(0.05, 20.0)),
            )
            assert build_polygon(coupled_symbol_terms(params)).vertices == reference

    def test_single_point_polygon(self) -> None:
        polygon = build_polygon([MixedTerm(1.0, F(2), F(0))])
        assert polygon.vertices == ((F(0), F(2)),)
        assert polygon.edges == ()
        assert relevant_weights(polygon) == [F(1), F(2), F(4)]

    def test_empty_terms_raise(self) -> None:
        with pytest.raises(EmptyTermSet):
            build_polygon([])

    @given(terms=_terms_strategy)
    def test_vertices_match_support_sweep_oracle(self, terms) -> None:
        polygon = build_polygon(terms)
        assert set(polygon.vertices) == _oracle_vertices(terms)

    @given(terms=_terms_strategy, seed=st.integers(0, 2**16))
    def test_term_order_is_irrelevant(self, terms, seed: int) -> None:
        shuffled = list(terms)
        np.random.default_rng(seed).shuffle(shuffled)
        a = build_polygon(terms)
        b = build_polygon(shuffled)
        assert a.vertices == b.vertices
        assert a.edges == b.edges
        assert a.on_edge == b.on_edge

    @given(terms=_terms_strategy)
    def test_edge_weights_strictly_increase(self, terms) -> None:
        weights = build_polygon(terms).edge_weights()
        assert all(lo < hi for lo, hi in zip(weights, weights[1:]))
        assert all(w > 0 for w in weights)


class TestMixedTerm:
    def test_zero_coefficient_rejected(self) -> None:
        with pytest.raises(ValueError):
            MixedTerm(0.0, F(1), F(1))

    def test_negative_exponent_rejected(self) -> None:
        with pytest.raises(ValueError):
            MixedTerm(1.0, -1, F(1))

    def test_float_exponents_convert_exactly(self) -> None:
        term = MixedTerm(1.0, 0.5, 1.0)
        assert term.a == F(1, 2)
        assert term.b == F(1)

    def test_non_numeric_exponent_rejected(self) -> None:
        with pytest.raises(TypeError):
            MixedTerm(1.0, "one", F(0))

    def test_points_account_for_both_root_regimes(self) -> None:
        # coeff * lam * w^3 contributes (0, 5/2) and (3, 1).
        assert term_points(MixedTerm(1.0, F(1), F(0), 3)) == frozenset(
            {(F(0), F(5, 2)), (F(3), F(1))}
        )


class TestRelevantWeights:
    def test_coupled_weights_frozen(self) -> None:
        polygon = build_polygon(coupled_symbol_terms(UNIT))
        assert relevant_weights(polygon) == [F(1), F(2), F(3), F(4), F(8)]

    def test_plate_weights_frozen(self) -> None:
        polygon = build_polygon(plate_symbol_terms(UNIT))
        assert relevant_weights(polygon) == [F(1), F(2), F(4)]

    @given(terms=_terms_strategy)
    def test_every_edge_weight_is_included(self, terms) -> None:
        polygon = build_polygon(terms)
        rs = relevant_weights(polygon)
        assert set(polygon.edge_weights()) <= set(rs)
        assert rs == sorted(rs)


class TestPrincipalSymbol:
    def test_balanced_weight_selects_plate_block(self) -> None:
        principal = principal_symbol(coupled_symbol_terms(UNIT), F(2))
        assert principal.substitution == "sqrt"
        assert len(principal.terms) == 3
        # The surviving block is z^2 * (lam^2 + alpha z^4 + gamma lam z^2).
        lam, z = 2.0 + 1.0j, 3.0
        plate = lam * lam + z**4 + lam * z * z
        assert principal(lam, z) == pytest.approx(z * z * plate)

    def test_substitution_regimes(self) -> None:
        terms = coupled_symbol_terms(UNIT)
        assert principal_symbol(terms, F(1)).substitution == "z"
        assert principal_symbol(terms, F(8)).substitution == "lam"

    def test_positive_weight_required(self) -> None:
        with pytest.raises(ValueError):
            principal_symbol(coupled_symbol_terms(UNIT), 0)

    @pytest.mark.parametrize("r", [F(1), F(2), F(3), F(4), F(8)])
    def test_principal_part_dominates_along_its_ray(self, r: Fraction) -> None:
        # Along lam = mu z^r the full symbol converges to its principal part.
        terms = coupled_symbol_terms(UNIT)
        principal = principal_symbol(terms, r)
        # The slowest case (r = 3) converges like sqrt(|mu| / z), so keep
        # |mu| <= 1/2 to clear 1% by the top of the sweep.
        mu = 0.5 * np.exp(0.3j)
        z = np.geomspace(1e2, 1e4, 5)
        lam = mu * z ** float(r)
        rel = np.abs(coupled_symbol(UNIT, lam, z) / principal(lam, z) - 1.0)
        assert rel[-1] < 0.01
        assert rel[-1] < rel[0]

    def test_scale_envelope_bounds_value(self, rng) -> None:
        principal = principal_symbol(coupled_symbol_terms(UNIT), F(2))
        lam = rng.uniform(0.1, 10.0, 50) + 1j * rng.uniform(-10.0, 10.0, 50)
        z = rng.uniform(0.1, 10.0, 50)
        assert (np.abs(principal(lam, z)) <= principal.scale(lam, z) * (1 + 1e-12)).all()


class TestCheckParabolicity:
    def test_passes_inside_admissible_sector(self) -> None:
        phi0 = root_sector_angle(UNIT)
        phi = Sector((phi0 + pi / 2) / 2)
        theta = Sector((phi.vertex_angle - phi0) / 8)
        report = check_parabolicity(coupled_symbol_terms(UNIT), UNIT, phi, theta)
        assert report.phi0 == pytest.approx(pi / 3)
        assert not report.sector_too_wide
        assert report.passed
        assert len(report.results) == 5
        assert all(w.min_ratio > 1e-3 for w in report.results)

    def test_rows_are_serializable(self) -> None:
        phi0 = root_sector_angle(UNIT)
        phi = Sector((phi0 + pi / 2) / 2)
        report = check_parabolicity(
            coupled_symbol_terms(UNIT), UNIT, phi, Sector((phi.vertex_angle - phi0) / 8)
        )
        rows = report.rows()
        assert [row["r"] for row in rows] == ["1", "2", "3", "4", "8"]
        for row in rows:
            assert row["pass"] is True
            assert row["min_modulus"] > 0

    def test_sector_at_or_below_root_rays_is_too_wide(self) -> None:
        report = check_parabolicity(
            coupled_symbol_terms(UNIT), UNIT, Sector(1.0), Sector(0.01)
        )
        assert report.sector_too_wide
        assert not report.passed
        assert report.results == ()

    def test_sector_just_outside_root_rays_clears_them(self) -> None:
        # root clearance is the closed-form phi > phi0 and the theta condition
        phi0 = root_sector_angle(UNIT)
        report = check_parabolicity(
            coupled_symbol_terms(UNIT), UNIT, Sector(phi0 + 1e-9), Sector(1e-9 / 8)
        )
        assert not report.sector_too_wide
        assert report.root_clearance_ok

    def test_sector_beyond_half_pi_is_too_wide(self) -> None:
        report = check_parabolicity(
            coupled_symbol_terms(UNIT), UNIT, Sector(1.6), Sector(0.01)
        )
        assert report.sector_too_wide

    @pytest.mark.parametrize(
        ("params", "theta_divisor"),
        [(UNIT, 8.0), (PlateParams(alpha=1.0, beta=1.0, gamma=1.0), 8.0), (UNIT, 400.0)],
        ids=["default", "beta-1", "narrow-theta"],
    )
    def test_blocks_give_the_full_grid_rows(
        self, params: PlateParams, theta_divisor: float
    ) -> None:
        phi0 = root_sector_angle(params)
        phi = Sector((phi0 + pi / 2) / 2)
        theta = Sector((phi.vertex_angle - phi0) / theta_divisor)
        terms = coupled_symbol_terms(params)
        report = check_parabolicity(terms, params, phi, theta)

        def grid(sector: Sector, moduli: int, args: int) -> np.ndarray:
            radii = np.geomspace(*_MODULUS_RANGE, moduli)
            return (radii[:, None] * np.exp(1j * sector.sample_args(args))[None, :]).ravel()

        lam = grid(Sector(pi - phi.vertex_angle), *_LAM_SAMPLES)
        zz = grid(theta, *_Z_SAMPLES)
        rows = []
        for r in relevant_weights(build_polygon(terms)):
            principal = principal_symbol(terms, r)
            scales = principal.scale(lam[:, None], zz[None, :])
            ratio = np.abs(principal(lam[:, None], zz[None, :])) / np.where(scales > 0, scales, 1.0)
            i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
            rows.append({
                "r": str(r),
                "min_modulus": float(ratio[i, j]),
                "argmin_lambda": [lam[i].real, lam[i].imag],
                "argmin_z": [zz[j].real, zz[j].imag],
                "pass": bool(ratio[i, j] > _MIN_RATIO),
            })
        assert report.rows() == rows

    def test_sampling_memory_is_bounded(self) -> None:
        phi0 = root_sector_angle(UNIT)
        phi = Sector((phi0 + pi / 2) / 2)
        theta = Sector((phi.vertex_angle - phi0) / 8)
        terms = coupled_symbol_terms(UNIT)
        tracemalloc.start()
        try:
            check_parabolicity(terms, UNIT, phi, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 0.87 MB in blocks of lambda rows, 11.1 MB for the whole grid
        assert peak < 2 * 2**20

    def test_fat_tangential_sector_fails_without_being_too_wide(self) -> None:
        phi0 = root_sector_angle(UNIT)
        phi = Sector((phi0 + pi / 2) / 2)
        theta = Sector((phi.vertex_angle - phi0) / 2)
        report = check_parabolicity(coupled_symbol_terms(UNIT), UNIT, phi, theta)
        assert not report.sector_too_wide
        assert not report.passed
