"""Exact index arithmetic, thresholds, and the product-estimate catalog."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plate_fsi.indices import (
    AnisoSpace,
    EmbeddingResult,
    IncompatibleAnisotropy,
    Scale,
    embedding_catalog,
    exponent_thresholds,
    product_embedding_check,
    sobolev_index,
)

F = Fraction


def _face(s, n: int, p) -> AnisoSpace:
    return AnisoSpace(Scale.BESSEL_POTENTIAL, F(s), (2, 1), (1, n - 1), F(p))


def _bulk(s, n: int, p) -> AnisoSpace:
    return AnisoSpace(Scale.BESSEL_POTENTIAL, F(s), (2, 1), (1, n), F(p))


class TestSobolevIndex:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    @pytest.mark.parametrize("p", [F(3, 2), F(2), F(7, 3), F(5)])
    def test_face_index_formula(self, n: int, p: Fraction) -> None:
        # Parabolic weight (2, 1) over time x interface: weighted dimension
        # n + 1, so an order-1 space has index 1/2 - (n+1)/(2p), exactly.
        assert sobolev_index(_face(1, n, p)) == F(1, 2) - F(n + 1, 1) / (2 * p)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    @pytest.mark.parametrize("p", [F(3, 2), F(2), F(7, 3), F(5)])
    def test_bulk_index_formula(self, n: int, p: Fraction) -> None:
        assert sobolev_index(_bulk(2, n, p)) == 1 - F(n + 2, 1) / (2 * p)

    def test_index_is_exact_rational(self) -> None:
        ind = sobolev_index(_face(1, 3, F(7, 3)))
        assert isinstance(ind, Fraction)
        assert ind == F(1, 2) - F(4) / F(14, 3)

    @given(
        s=st.fractions(min_value=0, max_value=6, max_denominator=12),
        p=st.fractions(min_value=F(11, 10), max_value=10, max_denominator=12),
        p_bigger=st.fractions(min_value=F(1, 12), max_value=3, max_denominator=12),
    )
    def test_index_monotone_in_smoothness_and_integrability(
        self, s: Fraction, p: Fraction, p_bigger: Fraction
    ) -> None:
        base = AnisoSpace(Scale.BESSEL_POTENTIAL, s, (2, 1), (1, 3), p)
        smoother = AnisoSpace(Scale.BESSEL_POTENTIAL, s + 1, (2, 1), (1, 3), p)
        wider = AnisoSpace(Scale.BESSEL_POTENTIAL, s, (2, 1), (1, 3), p + p_bigger)
        assert smoother.index() > base.index()
        assert wider.index() > base.index()


class TestAnisoSpaceValidation:
    def test_p_must_exceed_one_off_lebesgue(self) -> None:
        with pytest.raises(ValueError, match="p"):
            _face(1, 3, 1)

    def test_lebesgue_allows_p_equal_one(self) -> None:
        AnisoSpace(Scale.LEBESGUE, F(0), (2, 1), (1, 2), F(1))

    def test_slobodeckii_smoothness_nonnegative(self) -> None:
        with pytest.raises(ValueError, match="s"):
            AnisoSpace(Scale.SOBOLEV_SLOBODECKII, F(-1), (2, 1), (1, 2), F(2))

    def test_block_lengths_must_agree(self) -> None:
        with pytest.raises(ValueError, match="blocks"):
            AnisoSpace(Scale.BESSEL_POTENTIAL, F(1), (2, 1), (1,), F(2))

    def test_weights_positive(self) -> None:
        with pytest.raises(ValueError, match="weight"):
            AnisoSpace(Scale.BESSEL_POTENTIAL, F(1), (2, 0), (1, 2), F(2))


class TestProductEmbedding:
    def test_borderline_sum_rule_at_p_two(self) -> None:
        # n = 3, p = 2: two order-1 face factors have index -1/2 each; the
        # order-0 target has index -1, so the sum rule holds with equality.
        factor = _face(1, 3, 2)
        target = _face(0, 3, 2)
        assert product_embedding_check(factor, factor, target) is EmbeddingResult.HOLDS_BY_SUM

    def test_same_product_fails_at_p_three_halves(self) -> None:
        factor = _face(1, 3, F(3, 2))
        target = _face(0, 3, F(3, 2))
        result = product_embedding_check(factor, factor, target)
        assert result is EmbeddingResult.FAILS
        assert not result.holds

    def test_nonnegative_factor_route(self) -> None:
        # A factor with nonnegative index multiplies into the lower index.
        big = _face(4, 3, 2)
        assert big.index() >= 0
        small = _face(1, 3, 2)
        assert (
            product_embedding_check(big, small, _face(1, 3, 2))
            is EmbeddingResult.HOLDS_BY_NONNEG
        )

    def test_mismatched_weight_raises(self) -> None:
        iso = AnisoSpace(Scale.BESSEL_POTENTIAL, F(1), (1, 1), (1, 2), F(2))
        aniso = _face(1, 3, 2)
        with pytest.raises(IncompatibleAnisotropy):
            product_embedding_check(iso, aniso, aniso)

    def test_mismatched_dims_raise(self) -> None:
        with pytest.raises(IncompatibleAnisotropy):
            product_embedding_check(_face(1, 3, 2), _bulk(1, 3, 2), _face(0, 3, 2))

    @given(
        s1=st.fractions(min_value=0, max_value=4, max_denominator=6),
        s2=st.fractions(min_value=0, max_value=4, max_denominator=6),
        p=st.fractions(min_value=F(6, 5), max_value=6, max_denominator=10),
    )
    def test_check_is_symmetric(self, s1: Fraction, s2: Fraction, p: Fraction) -> None:
        a, b, tgt = _face(s1, 3, p), _face(s2, 3, p), _face(0, 3, p)
        assert product_embedding_check(a, b, tgt) is product_embedding_check(b, a, tgt)


class TestExponentThresholds:
    @pytest.mark.parametrize(
        ("n", "expected"),
        [
            (2, (F(4, 3), F(1), F(7, 6))),
            (3, (F(5, 3), F(5, 4), F(3, 2))),
            (10, (F(4), F(3), F(23, 6))),
        ],
    )
    def test_frozen_tables(self, n: int, expected) -> None:
        table = exponent_thresholds(n)
        assert (table.quadratic, table.multiplier, table.triple) == expected

    def test_quadratic_dominates_through_n_fifty(self) -> None:
        for n in range(2, 51):
            table = exponent_thresholds(n)
            assert table.quadratic >= table.multiplier
            assert table.quadratic >= table.triple

    def test_as_dict_serializes_exact_strings(self) -> None:
        d = exponent_thresholds(3).as_dict()
        assert d == {"n": 3, "quadratic": "5/3", "multiplier": "5/4", "triple": "3/2"}

    def test_dimension_floor(self) -> None:
        with pytest.raises(ValueError):
            exponent_thresholds(1)


CATALOG_NAMES = [
    "eta-rate-grad",
    "eta-slope-m1",
    "eta-slope-m2",
    "transport",
    "triple-product",
    "div-rate-a",
    "div-rate-b",
    "plate-forcing",
    "div-dual-lift",
]


class TestEmbeddingCatalog:
    def test_row_names_fixed_order(self) -> None:
        rows = embedding_catalog(3, F(2))
        assert [row.name for row in rows] == CATALOG_NAMES

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_rows_hold_at_quadratic_threshold(self, n: int) -> None:
        p = exponent_thresholds(n).quadratic
        rows = embedding_catalog(n, p)
        assert all(row.holds for row in rows)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sum_rule_rows_fail_just_below_threshold(self, n: int) -> None:
        p = exponent_thresholds(n).quadratic - F(1, 10)
        failing = {row.name for row in embedding_catalog(n, p) if not row.holds}
        assert failing == {"eta-rate-grad", "transport", "div-rate-a"}

    def test_as_dict_round_trips_exact_indices(self) -> None:
        row = embedding_catalog(3, F(2))[0]
        d = row.as_dict()
        assert d["name"] == "eta-rate-grad"
        assert d["result"] == row.result
        assert d["holds"] is row.holds
        assert [F(ind) for ind in d["factor_indices"]] == list(row.factor_indices)
        assert F(d["target_index"]) == row.target_index

    def test_rational_p_accepted_as_string_like_inputs(self) -> None:
        assert embedding_catalog(3, "5/3") == embedding_catalog(3, F(5, 3))

    def test_p_floor_enforced(self) -> None:
        with pytest.raises(ValueError):
            embedding_catalog(3, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_monotone_in_p(self, n: int) -> None:
        # Raising p can only turn failing rows into holding ones.
        pc = exponent_thresholds(n).quadratic
        for lo, hi in [(pc - F(1, 10), pc), (pc, pc + F(1, 2))]:
            held_lo = {row.name for row in embedding_catalog(n, lo) if row.holds}
            held_hi = {row.name for row in embedding_catalog(n, hi) if row.holds}
            assert held_lo <= held_hi
