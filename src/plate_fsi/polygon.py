"""Newton polygons of mixed-order two-variable symbols.

A symbol is a finite sum of terms ``coeff * lam^a * z^b * w^c`` where
``w = sqrt(lam + z^2)``.  Because ``w`` behaves like ``max(lam^{1/2}, z)``,
each term contributes up to two exponent points ``(b, a + c/2)`` and
``(b + c, a)`` to the polygon.  The polygon's upper-right convex extreme
points and their weighted edges encode the quasi-homogeneous scalings
``lam ~ z^r`` under which different groups of terms dominate.

All polygon geometry is carried out in exact :class:`fractions.Fraction`
arithmetic; floating point enters only through the numeric evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import pi
from typing import Callable, Sequence

import numpy as np

from plate_fsi.params import PlateParams, Sector
from plate_fsi.symbols import decay_root, root_sector_angle

__all__ = [
    "MixedTerm",
    "NewtonPolygon",
    "PrincipalSymbol",
    "ParabolicityReport",
    "EmptyTermSet",
    "term_points",
    "build_polygon",
    "principal_symbol",
    "relevant_weights",
    "check_parabolicity",
    "coupled_symbol_terms",
    "plate_symbol_terms",
]

Point = tuple[Fraction, Fraction]  # (b-coordinate, a-coordinate)


class EmptyTermSet(ValueError):
    """A polygon was requested for an empty collection of terms."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        f = Fraction(x).limit_denominator(10**9)
        if float(f) != x:
            raise ValueError(f"exponent {x!r} is not an exact small rational")
        return f
    raise TypeError(f"cannot interpret exponent {x!r} as a rational")


@dataclass(frozen=True)
class MixedTerm:
    """One term ``coeff * lam^a * z^b * w^c`` of a mixed-order symbol."""

    coeff: complex
    a: Fraction
    b: Fraction
    c: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        if self.coeff == 0:
            raise ValueError("mixed terms must have nonzero coefficients")
        if self.a < 0 or self.b < 0 or self.c < 0:
            raise ValueError("exponents must be nonnegative")

    def quasi_degree(self, r: Fraction) -> Fraction:
        """sup of ``r * a + b`` over the term's exponent points."""
        return r * self.a + self.b + self.c * max(Fraction(r, 2), Fraction(1))


def term_points(t: MixedTerm) -> frozenset[Point]:
    """Exponent points of a term: w^c counted as lam^{c/2} and as z^c."""
    high_a = (t.b, t.a + Fraction(t.c, 2))
    high_b = (t.b + t.c, t.a)
    return frozenset({high_a, high_b})


def _dominates(p: Point, q: Point) -> bool:
    """q is weakly inside the lower-left quadrant of p (and differs)."""
    return p != q and q[0] <= p[0] and q[1] <= p[1]


def _upper_right_hull(points: set[Point]) -> list[Point]:
    """Extreme points of the upper-right convex hull, sorted by decreasing b.

    A point is kept iff it is not componentwise dominated and not on or below
    a segment between two other undominated points.
    """
    undominated = [
        p for p in points if not any(_dominates(q, p) for q in points)
    ]
    undominated.sort(key=lambda p: (-p[0], p[1]))
    vertices: list[Point] = []
    for p in undominated:
        # Monotone-chain style convex filter: with points sorted by
        # decreasing b (and hence increasing a among undominated ones),
        # drop middle points that do not make a strict right turn.
        while len(vertices) >= 2:
            (b1, a1), (b2, a2) = vertices[-2], vertices[-1]
            b3, a3 = p
            cross = (b2 - b1) * (a3 - a1) - (b3 - b1) * (a2 - a1)
            # cross > 0 means the middle point lies strictly above the
            # segment joining its neighbours: a genuine extreme point.
            if cross > 0:
                break
            vertices.pop()
        vertices.append(p)
    return vertices


@dataclass(frozen=True)
class NewtonPolygon:
    """Upper-right Newton polygon of a mixed-order symbol."""

    vertices: tuple[Point, ...]  # sorted by decreasing b
    edges: tuple[tuple[Point, Point, Fraction], ...]
    on_edge: frozenset[Point]  # collinear non-vertex points, per design

    def edge_weights(self) -> tuple[Fraction, ...]:
        return tuple(e[2] for e in self.edges)


def build_polygon(terms: Sequence[MixedTerm]) -> NewtonPolygon:
    """Polygon of a term set: vertices, weighted edges, on-edge members.

    The point set is closed under axis projections ``(b, 0)`` and ``(0, a)``
    so the polygon always touches both axes; projections never become
    vertices unless they coincide with genuine term points.
    """
    if not terms:
        raise EmptyTermSet("cannot build a polygon from no terms")
    raw: set[Point] = set()
    for t in terms:
        raw |= term_points(t)
    closed = set(raw)
    for b, a in raw:
        closed.add((b, Fraction(0)))
        closed.add((Fraction(0), a))
    vertices = _upper_right_hull(closed)

    edges: list[tuple[Point, Point, Fraction]] = []
    on_edge: set[Point] = set()
    for (b1, a1), (b2, a2) in zip(vertices, vertices[1:]):
        # Upper-right extreme points sorted by decreasing b have strictly
        # increasing a, so the weight is a positive finite rational.
        r = Fraction(b1 - b2, a2 - a1)
        edges.append(((b1, a1), (b2, a2), r))
        for p in raw:
            if p in ((b1, a1), (b2, a2)):
                continue
            cross = (b2 - b1) * (p[1] - a1) - (p[0] - b1) * (a2 - a1)
            within = min(b2, b1) <= p[0] <= max(b2, b1)
            if cross == 0 and within:
                on_edge.add(p)
    return NewtonPolygon(
        vertices=tuple(vertices),
        edges=tuple(edges),
        on_edge=frozenset(on_edge),
    )


@dataclass(frozen=True)
class PrincipalSymbol:
    """Leading part of a symbol under the scaling ``lam ~ z^r``.

    ``terms`` are the surviving :class:`MixedTerm` objects; inside them the
    ``w`` factor is interpreted according to the scaling regime: ``w -> z``
    for r < 2, ``w -> lam^{1/2}`` for r > 2, and kept as ``sqrt(lam + z^2)``
    at the balanced scaling r = 2.
    """

    r: Fraction
    terms: tuple[MixedTerm, ...]
    substitution: str  # "z" | "sqrt" | "lam"

    def __call__(self, lam, z):
        lam = np.asarray(lam, dtype=complex)
        z = np.asarray(z, dtype=complex)
        total = np.zeros(np.broadcast(lam, z).shape, dtype=complex)
        w = _substituted_root(self.substitution, lam, z)
        for t in self.terms:
            total = total + t.coeff * lam ** float(t.a) * z ** float(t.b) * w ** t.c
        return total[()] if total.ndim == 0 else total

    def scale(self, lam, z):
        """Magnitude envelope: sum of term magnitudes (normalizes |P_r|)."""
        lam = np.asarray(lam, dtype=complex)
        z = np.asarray(z, dtype=complex)
        total = np.zeros(np.broadcast(lam, z).shape, dtype=float)
        w = np.abs(_substituted_root(self.substitution, lam, z))
        for t in self.terms:
            total = total + abs(t.coeff) * np.abs(lam) ** float(t.a) * np.abs(z) ** float(t.b) * w ** t.c
        return total[()] if total.ndim == 0 else total


def _substituted_root(kind: str, lam, z):
    if kind == "z":
        return np.asarray(z, dtype=complex)
    if kind == "lam":
        return np.sqrt(np.asarray(lam, dtype=complex))
    return decay_root(lam, z)


def principal_symbol(
    terms: Sequence[MixedTerm], r: Fraction | float | int
) -> PrincipalSymbol:
    """Terms of maximal quasi-degree under ``lam ~ z^r``, with w substituted."""
    if not terms:
        raise EmptyTermSet("cannot take a principal part of no terms")
    r = _frac(r)
    if r <= 0:
        raise ValueError(f"scaling weight must be positive, got {r}")
    degrees = [t.quasi_degree(r) for t in terms]
    top = max(degrees)
    selected = tuple(t for t, d in zip(terms, degrees) if d == top)
    if r < 2:
        sub = "z"
    elif r > 2:
        sub = "lam"
    else:
        sub = "sqrt"
    return PrincipalSymbol(r=r, terms=selected, substitution=sub)


def relevant_weights(polygon: NewtonPolygon) -> list[Fraction]:
    """Edge weights plus one interior weight per face and outer representatives.

    Faces are the open weight intervals between consecutive edge weights;
    the outer representatives are half the smallest and twice the largest
    edge weight (standing in for r -> 0+ and r -> infinity).
    """
    weights = sorted(set(polygon.edge_weights()))
    if not weights:
        # Single-vertex polygon: every scaling keeps the same single term.
        return [Fraction(1), Fraction(2), Fraction(4)]
    rs: list[Fraction] = [weights[0] / 2]
    for lo, hi in zip(weights, weights[1:]):
        rs.extend([lo, (lo + hi) / 2])
    rs.extend([weights[-1], weights[-1] * 2])
    return rs


# Log-polar sampling of the sector non-vanishing check: (moduli, arguments)
# of the lambda and z grids, both over the same modulus range, and the
# normalized modulus |P_r| / scale a weight must stay above.
_LAM_SAMPLES = (64, 33)
_Z_SAMPLES = (12, 5)
_MODULUS_RANGE = (1e-3, 1e3)
_MIN_RATIO = 1e-3
# Lambda rows evaluated at a time: four moduli of the lambda grid against
# every z sample keep each temporary near 125 kB, so one weight's samples
# take under 1 MB where the whole 2,112 x 60 product took about 11 MB.
_LAM_BLOCK = 4 * _LAM_SAMPLES[1]


@dataclass(frozen=True)
class WeightResult:
    r: Fraction
    min_ratio: float
    argmin_lam: complex
    argmin_z: complex
    passed: bool


@dataclass(frozen=True)
class ParabolicityReport:
    """Outcome of the sampled sector non-vanishing check.

    ``sector_too_wide`` flags the degenerate configuration where the requested
    sector half-angle does not clear the plate-root rays; in that case no
    sampling is attempted and ``passed`` is False.
    """

    phi0: float
    results: tuple[WeightResult, ...]
    root_clearance_ok: bool
    sector_too_wide: bool

    @property
    def passed(self) -> bool:
        if self.sector_too_wide:
            return False
        return self.root_clearance_ok and all(w.passed for w in self.results)

    def rows(self) -> list[dict]:
        """Serializable per-weight rows for reports and the CLI."""
        return [
            {
                "r": str(w.r),
                "min_modulus": w.min_ratio,
                "argmin_lambda": [w.argmin_lam.real, w.argmin_lam.imag],
                "argmin_z": [w.argmin_z.real, w.argmin_z.imag],
                "pass": w.passed,
            }
            for w in self.results
        ]


def _sector_grid(sector: Sector, n_moduli: int, n_args: int, lo: float, hi: float) -> np.ndarray:
    moduli = np.geomspace(lo, hi, n_moduli)
    args = sector.sample_args(n_args)
    return (moduli[:, None] * np.exp(1j * args[None, :])).ravel()


def check_parabolicity(
    terms: Sequence[MixedTerm],
    params: PlateParams,
    phi: Sector,
    theta: Sector | None,
) -> ParabolicityReport:
    """Sampled non-vanishing of every relevant principal part on the sectors.

    The time covariable ranges over the obtuse sector of half-angle
    ``pi - phi`` and the tangential covariable over the sector ``theta``.
    For each relevant scaling weight the minimum of ``|P_r| / scale`` over
    the product grid is recorded, its first occurrence in row-major
    (lambda, z) order; the grid is evaluated a block of lambda rows at a
    time.  A sample that is not finite, because a coefficient is too large
    for the sampled moduli, raises ``ValueError`` naming the largest
    coefficient of ``params``.  The balanced weight r = 2 vanishes on the
    rays of the tension-free plate roots, whose angle off the negative real
    axis is ``phi0`` (:func:`~plate_fsi.symbols.root_sector_angle`), so the
    configuration is rejected outright when ``phi <= phi0`` (sector too
    wide: the root rays enter), and ``root_clearance_ok`` is the condition
    ``theta < (phi - phi0) / 4``.  ``theta`` may be None only for a sector
    that is too wide, where no tangential sector fits.
    """
    phi0 = root_sector_angle(params)
    if phi.vertex_angle >= pi / 2 or phi.vertex_angle <= phi0:
        return ParabolicityReport(
            phi0=phi0,
            results=(),
            root_clearance_ok=False,
            sector_too_wide=True,
        )

    lam_sector = Sector(pi - phi.vertex_angle)
    lam = _sector_grid(lam_sector, *_LAM_SAMPLES, *_MODULUS_RANGE)
    zz = _sector_grid(theta, *_Z_SAMPLES, *_MODULUS_RANGE)
    lam_grid = lam[:, None]
    z_grid = zz[None, :]

    polygon = build_polygon(terms)
    results: list[WeightResult] = []
    for r in relevant_weights(polygon):
        principal = principal_symbol(terms, r)
        worst, i, j = np.inf, 0, 0
        for start in range(0, lam.size, _LAM_BLOCK):
            block = lam_grid[start: start + _LAM_BLOCK]
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.abs(principal(block, z_grid))
                scales = principal.scale(block, z_grid)
            if not (np.isfinite(values).all() and np.isfinite(scales).all()):
                key = max(("alpha", "beta", "gamma"), key=lambda k: abs(getattr(params, k)))
                raise ValueError(
                    f"{key} = {getattr(params, key)!r} is out of range: the principal "
                    f"part of weight r = {r} is not finite on the sector grid"
                )
            ratio = values / np.where(scales > 0, scales, 1.0)
            flat = int(np.argmin(ratio))
            # strict: an equal minimum in a later block comes later in row-major order
            if ratio.flat[flat] < worst:
                worst = float(ratio.flat[flat])
                i, j = np.unravel_index(flat, ratio.shape)
                i += start
        results.append(
            WeightResult(
                r=r,
                min_ratio=worst,
                argmin_lam=complex(lam[i]),
                argmin_z=complex(zz[j]),
                passed=worst > _MIN_RATIO,
            )
        )
    return ParabolicityReport(
        phi0=phi0,
        results=tuple(results),
        root_clearance_ok=theta.vertex_angle < (phi.vertex_angle - phi0) / 4,
        sector_too_wide=False,
    )


def plate_symbol_terms(params: PlateParams) -> list[MixedTerm]:
    """Term set of the plate symbol (zero-coefficient terms omitted)."""
    terms = [
        MixedTerm(1.0, Fraction(2), Fraction(0)),
        MixedTerm(params.alpha, Fraction(0), Fraction(4)),
        MixedTerm(params.gamma, Fraction(1), Fraction(2)),
    ]
    if params.beta != 0:
        terms.append(MixedTerm(params.beta, Fraction(0), Fraction(2)))
    return terms


def coupled_symbol_terms(params: PlateParams) -> list[MixedTerm]:
    """Term set of the coupled boundary symbol z^2 m + lam w^2 (w + z)."""
    terms = [
        MixedTerm(1.0, Fraction(2), Fraction(2)),            # z^2 lam^2
        MixedTerm(params.alpha, Fraction(0), Fraction(6)),   # a z^6
        MixedTerm(params.gamma, Fraction(1), Fraction(4)),   # g lam z^4
        MixedTerm(1.0, Fraction(1), Fraction(0), 3),         # lam w^3
        MixedTerm(1.0, Fraction(1), Fraction(1), 2),         # lam w^2 z
    ]
    if params.beta != 0:
        terms.append(MixedTerm(params.beta, Fraction(0), Fraction(4)))
    return terms
