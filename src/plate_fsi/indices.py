"""Anisotropic Sobolev index arithmetic and product-embedding checks.

Spaces on a parabolic cylinder carry an anisotropy weight per axis block
(time counts twice as much as space).  Each space is summarized by a single
rational scaling exponent, its *index*; products of functions embed into a
target space whenever the indices satisfy simple sufficient inequalities.
This module provides

* :class:`AnisoSpace`, a descriptor of an anisotropic function space,
* :func:`sobolev_index`, the scaling exponent,
* :func:`product_embedding_check`, the two-factor sufficient conditions,
* :func:`exponent_thresholds`, the critical integrability exponents that
  gate the quadratic estimates of the nonlinear layer,
* :func:`embedding_catalog`, the full list of product estimates used by
  the nonlinear layer, each evaluated by exactly the rule (strict or not)
  under which it is invoked there.

All arithmetic is exact rational arithmetic: every inequality in this
module is sharp, so floating point is never used.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class Scale(enum.Enum):
    """Function-space scale of an :class:`AnisoSpace`."""

    BESSEL_POTENTIAL = "BesselPotential"
    SOBOLEV_SLOBODECKII = "SobolevSlobodeckii"
    LEBESGUE = "Lebesgue"


class IncompatibleAnisotropy(ValueError):
    """Raised when spaces in a product check disagree on weight or dims."""


class EmbeddingResult(enum.Enum):
    """Outcome of a two-factor product-embedding check."""

    HOLDS_BY_NONNEG = "HOLDS_BY_NONNEG"
    HOLDS_BY_SUM = "HOLDS_BY_SUM"
    FAILS = "FAILS"

    @property
    def holds(self) -> bool:
        return self is not EmbeddingResult.FAILS


def _as_fraction(value, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be rational, got {value!r}") from exc


@dataclass(frozen=True)
class AnisoSpace:
    """Descriptor of an anisotropic function space.

    Parameters
    ----------
    scale:
        One of the :class:`Scale` members.  Only the index arithmetic
        depends on the descriptor, so the scale is metadata for reporting.
    s:
        Smoothness (rational).  Must be nonnegative on the
        Sobolev-Slobodeckii scale.
    weight:
        Positive integer anisotropy vector, one entry per axis block,
        e.g. ``(2, 1)`` for one time block and one space block.
    dims:
        Positive integer dimension of each axis block.  Spaces with values
        in a Lebesgue fiber are encoded by omitting the fiber from
        ``dims`` altogether.
    p:
        Integrability exponent (rational).  Must exceed 1 except on the
        Lebesgue scale, where ``p >= 1`` is allowed.
    """

    scale: Scale
    s: Fraction
    weight: tuple[int, ...]
    dims: tuple[int, ...]
    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", Scale(self.scale))
        object.__setattr__(self, "s", _as_fraction(self.s, "s"))
        object.__setattr__(self, "p", _as_fraction(self.p, "p"))
        object.__setattr__(self, "weight", tuple(int(w) for w in self.weight))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.weight) != len(self.dims):
            raise ValueError(
                f"weight has {len(self.weight)} blocks but dims has "
                f"{len(self.dims)}"
            )
        if not self.weight:
            raise ValueError("weight and dims must be nonempty")
        if any(w <= 0 for w in self.weight):
            raise ValueError(f"weight entries must be positive, got {self.weight}")
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims entries must be positive, got {self.dims}")
        p_floor = 1 if self.scale is Scale.LEBESGUE else None
        if p_floor is not None:
            if self.p < p_floor:
                raise ValueError(f"p must be >= 1 on the Lebesgue scale, got {self.p}")
        elif self.p <= 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        if self.scale is Scale.SOBOLEV_SLOBODECKII and self.s < 0:
            raise ValueError(
                f"s must be >= 0 on the Sobolev-Slobodeckii scale, got {self.s}"
            )

    def index(self) -> Fraction:
        """Scaling exponent ``(s - sum(w_j n_j) / p) / lcm(weight)``."""
        weighted_dim = sum(w * d for w, d in zip(self.weight, self.dims))
        return (self.s - Fraction(weighted_dim) / self.p) / lcm(*self.weight)


def sobolev_index(space: AnisoSpace) -> Fraction:
    """Return the scaling index of ``space`` as an exact rational."""
    return space.index()


def product_embedding_check(
    first: AnisoSpace, second: AnisoSpace, target: AnisoSpace
) -> EmbeddingResult:
    """Sufficient conditions for ``first * second`` to embed into ``target``.

    The check compares scaling indices only:

    * ``HOLDS_BY_NONNEG`` if ``max(ind1, ind2) >= 0`` and
      ``min(ind1, ind2) >= ind(target)``,
    * ``HOLDS_BY_SUM`` if both factor indices are negative and their sum
      is at least ``ind(target)``,
    * ``FAILS`` otherwise.

    All three spaces must share the anisotropy weight and the dimension
    blocks; otherwise :class:`IncompatibleAnisotropy` is raised.
    """
    spaces = (first, second, target)
    for attr in ("weight", "dims"):
        values = {getattr(sp, attr) for sp in spaces}
        if len(values) > 1:
            raise IncompatibleAnisotropy(
                f"spaces disagree on {attr}: {sorted(values)}"
            )
    ind1 = first.index()
    ind2 = second.index()
    ind_target = target.index()
    if max(ind1, ind2) >= 0 and min(ind1, ind2) >= ind_target:
        return EmbeddingResult.HOLDS_BY_NONNEG
    if ind1 < 0 and ind2 < 0 and ind1 + ind2 >= ind_target:
        return EmbeddingResult.HOLDS_BY_SUM
    return EmbeddingResult.FAILS


@dataclass(frozen=True)
class ThresholdTable:
    """Critical integrability exponents for spatial dimension ``n``.

    ``quadratic`` gates the sum-rule product estimates, ``multiplier``
    gates multiplication by a strictly-positive-index factor, ``triple``
    gates the single three-factor estimate.  ``quadratic`` dominates the
    other two for every ``n >= 2``.
    """

    n: int
    quadratic: Fraction
    multiplier: Fraction
    triple: Fraction

    def as_dict(self) -> dict[str, str | int]:
        return {
            "n": self.n,
            "quadratic": str(self.quadratic),
            "multiplier": str(self.multiplier),
            "triple": str(self.triple),
        }


def exponent_thresholds(n: int) -> ThresholdTable:
    """Return the three critical exponents ``(n+2)/3, (n+2)/4, (2n+3)/6``."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    table = ThresholdTable(
        n=n,
        quadratic=Fraction(n + 2, 3),
        multiplier=Fraction(n + 2, 4),
        triple=Fraction(2 * n + 3, 6),
    )
    # Dominance makes the quadratic threshold the only one a caller must
    # enforce; the other two follow automatically.
    assert table.quadratic >= table.multiplier
    assert table.quadratic >= table.triple
    return table


class CatalogRule(enum.Enum):
    """Which sufficient condition a catalog row is evaluated under."""

    PRODUCT = "product"          # two factors, product_embedding_check
    MULTIPLIER = "multiplier"    # leading factors need strictly positive index
    TRIPLE_SUM = "triple-sum"    # three factors, total index sum


@dataclass(frozen=True)
class CatalogRow:
    """One product estimate from the nonlinear layer, fully evaluated."""

    name: str
    term: str
    rule: CatalogRule
    factor_indices: tuple[Fraction, ...]
    target_index: Fraction
    result: str

    @property
    def holds(self) -> bool:
        return self.result != "FAILS"

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "term": self.term,
            "rule": self.rule.value,
            "factor_indices": [str(ind) for ind in self.factor_indices],
            "target_index": str(self.target_index),
            "result": self.result,
            "holds": self.holds,
        }


def _evaluate_row(
    name: str,
    term: str,
    rule: CatalogRule,
    factors: tuple[AnisoSpace, ...],
    target: AnisoSpace,
) -> CatalogRow:
    indices = tuple(sp.index() for sp in factors)
    ind_target = target.index()
    if rule is CatalogRule.PRODUCT:
        result = product_embedding_check(factors[0], factors[1], target).value
    elif rule is CatalogRule.MULTIPLIER:
        # Every leading factor must have strictly positive index; the last
        # factor is the space being multiplied into the target.
        ok = all(ind > 0 for ind in indices[:-1]) and indices[-1] >= ind_target
        result = "HOLDS_BY_POSITIVE_FACTOR" if ok else "FAILS"
    else:
        if min(indices) >= 0 and min(indices) >= ind_target:
            result = "HOLDS_BY_NONNEG"
        elif sum(indices) >= ind_target:
            result = "HOLDS_BY_TOTAL_SUM"
        else:
            result = "FAILS"
    return CatalogRow(
        name=name,
        term=term,
        rule=rule,
        factor_indices=indices,
        target_index=ind_target,
        result=result,
    )


def embedding_catalog(n: int, p) -> tuple[CatalogRow, ...]:
    """Evaluate every product estimate of the nonlinear layer at ``(n, p)``.

    The rows cover all quadratic terms produced by flattening the moving
    interface: the momentum corrections, the transport term, the
    divergence corrections, the plate forcing correction, and the
    dual-norm lift of the divergence datum.  Two rows (``eta-slope-m1``
    and ``div-rate-b``) share the same space data because the same
    estimate is reused for two different terms.

    Parameters
    ----------
    n:
        Spatial dimension of the half-space, ``n >= 2``.
    p:
        Integrability exponent as an exact rational.

    Returns
    -------
    tuple of CatalogRow
        One evaluated row per estimate, in a fixed order.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    p = _as_fraction(p, "p")
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")

    weight = (2, 1)
    face = (1, n - 1)   # time x interface; Lebesgue fibers omitted from dims
    bulk = (1, n)       # time x half-space

    def hs(s, dims) -> AnisoSpace:
        return AnisoSpace(Scale.BESSEL_POTENTIAL, Fraction(s), weight, dims, p)

    def ws(s) -> AnisoSpace:
        return AnisoSpace(Scale.SOBOLEV_SLOBODECKII, Fraction(s), weight, face, p)

    eta_trace = ws(4 - Fraction(1) / p)       # plate displacement class
    eta_rate = ws(2 - Fraction(1) / p)        # its time derivative
    eta_rate_grad = ws(1 - Fraction(1) / p)   # gradient of the time derivative
    grad_v_face = hs(1, face)                 # normal gradient of v, fiberwise
    v_face = hs(2, face)                      # v restricted to fibers over face
    flat_face = hs(0, face)

    rows = (
        _evaluate_row(
            "eta-rate-grad",
            "(d_t eta - lap' eta) * d_n v",
            CatalogRule.PRODUCT,
            (eta_rate, grad_v_face),
            flat_face,
        ),
        _evaluate_row(
            "eta-slope-m1",
            "grad' eta * (second gradient of v or grad p), one plate factor",
            CatalogRule.MULTIPLIER,
            (eta_trace, flat_face),
            flat_face,
        ),
        _evaluate_row(
            "eta-slope-m2",
            "|grad' eta|^2 * d_n^2 v, two plate factors",
            CatalogRule.MULTIPLIER,
            (eta_trace, eta_trace, flat_face),
            flat_face,
        ),
        _evaluate_row(
            "transport",
            "(v . grad) v",
            CatalogRule.PRODUCT,
            (hs(2, bulk), hs(1, bulk)),
            hs(0, bulk),
        ),
        _evaluate_row(
            "triple-product",
            "(v' . grad' eta) * d_n v",
            CatalogRule.TRIPLE_SUM,
            (grad_v_face, eta_trace, grad_v_face),
            flat_face,
        ),
        _evaluate_row(
            "div-rate-a",
            "d_t grad' eta . v'",
            CatalogRule.PRODUCT,
            (eta_rate_grad, v_face),
            flat_face,
        ),
        _evaluate_row(
            "div-rate-b",
            "grad' eta . d_t v'",
            CatalogRule.MULTIPLIER,
            (eta_trace, flat_face),
            flat_face,
        ),
        _evaluate_row(
            "plate-forcing",
            "grad' eta . traces of grad v on the interface",
            CatalogRule.MULTIPLIER,
            (eta_trace, eta_rate_grad),
            eta_rate_grad,
        ),
        _evaluate_row(
            "div-dual-lift",
            "grad' eta . v', lifted to the dual-norm divergence class",
            CatalogRule.MULTIPLIER,
            (eta_trace, v_face),
            v_face,
        ),
    )
    return rows
