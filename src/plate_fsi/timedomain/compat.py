"""Discrete compatibility checks between initial data and forcing.

Solvability of the coupled evolution requires the initial state and the
divergence data to fit together.  This module verifies the discrete
counterparts on a given grid and reports each condition separately
instead of raising:

* ``divergence-data``: the initial velocity divergence matches the
  divergence data (with the quadratic slope correction), tested weakly
  against a fixed family of tensor-product B-spline test functions;
* ``no-slip-trace`` and ``kinematic-trace``: pointwise trace conditions,
  required only when the integrability exponent is large enough for
  traces to exist (``p > 3/2``), reported ``NOT_REQUIRED`` otherwise;
* ``duality-pairing``: the summation-by-parts identity pairing the
  divergence data and the initial plate velocity against gradients of
  the test family, which is the meaningful form of the divergence
  condition for small exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, ProblemData, tangential_derivatives
from .nonlin import nonlinear_divergence

__all__ = [
    "CompatItem",
    "CompatReport",
    "check_compatibility",
    "discrete_divergence",
    "test_function_family",
]

_FAMILY_SIZE = 32

# Pass levels, relative to each item's term-magnitude scale.  The weak
# divergence defect shares the frequency layer's residual level; the
# pairing and the traces hold up to rounding for compatible data.
DIVERGENCE_REL_TOL = 1e-8
PAIRING_REL_TOL = 1e-10
TRACE_REL_TOL = 1e-10


@dataclass(frozen=True)
class CompatItem:
    """One compatibility condition: its worst normalized value and verdict."""

    name: str
    status: str  # "PASS" | "FAIL" | "NOT_REQUIRED"
    value: float
    scale: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "value": self.value,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class CompatReport:
    """Itemized compatibility verdicts; overall pass means no FAIL item."""

    items: tuple[CompatItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.status != "FAIL" for item in self.items)

    def __getitem__(self, name: str) -> CompatItem:
        for item in self.items:
            if item.name == name:
                return item
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "items": [i.as_dict() for i in self.items]}


def _bspline_basis(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic B-spline basis on ``knots`` at ``x``, shape (len(x), len(knots) - 4).

    Each point's four nonzero values come from the Cox-de Boor recursion
    (de Boor, *A Practical Guide to Splines*, ch. IX) on the knot interval
    ``t[l] <= x < t[l + 1]``, ``l`` clipped to the base interval so that its
    right end belongs to the last one.  The recursion runs in FITPACK's
    order of operations, so the values equal scipy's ``BSpline`` bit for bit.
    """
    k = 3
    count = knots.size - k - 1
    ell = np.clip(np.searchsorted(knots, x, side="right") - 1, k, count - 1)
    h = np.zeros((k + 1, x.size))
    h[0] = 1.0
    for j in range(1, k + 1):
        hh = h[:j].copy()
        h[0] = 0.0
        for m in range(1, j + 1):
            xb, xa = knots[ell + m], knots[ell + m - j]
            same = xb == xa
            w = hh[m - 1] / np.where(same, 1.0, xb - xa)
            h[m - 1] = np.where(same, h[m - 1], h[m - 1] + w * (xb - x))
            h[m] = np.where(same, 0.0, w * (x - xa))
    out = np.zeros((x.size, count))
    rows = np.arange(x.size)
    for a in range(k + 1):
        out[rows, ell - k + a] = h[a]
    return out


def _vertical_family(grid: Grid, count: int) -> np.ndarray:
    """Clamped cubic B-spline basis sampled on the mesh, shape (count, M + 1).

    The clamped end makes the first function equal to one at the interface,
    so the family exercises boundary terms.
    """
    breaks = np.linspace(0.0, grid.X, count - 2)
    knots = np.concatenate([[0.0] * 3, breaks, [grid.X] * 3])
    return _bspline_basis(knots, grid.mesh.nodes).T


def _tangential_family(grid: Grid, count: int, axis: int) -> np.ndarray:
    """Periodically wrapped cubic B-spline bumps, shape (count,) + tan_shape.

    Each bump varies only along ``axis``; evaluating on the full tangential
    grid keeps the tensor products in :func:`test_function_family` plain
    elementwise multiplications.  The bump is the middle function of the
    basis on its five knots padded by three more at each end, one unit
    outside, and vanishes off its support.
    """
    x = grid.tangential_coordinates()[axis]
    width = grid.L / 8.0
    support = np.arange(-2.0, 3.0) * width
    knots = np.concatenate([[support[0] - 1.0] * 3, support, [support[-1] + 1.0] * 3])
    out = np.empty((count,) + grid.tan_shape)
    for i in range(count):
        center = i * grid.L / count
        shift = ((x - center + grid.L / 2.0) % grid.L - grid.L / 2.0).ravel()
        inside = (shift >= support[0]) & (shift <= support[-1])
        bump = np.where(inside, _bspline_basis(knots, shift)[:, 3], 0.0)
        out[i] = bump.reshape(grid.tan_shape)
    return out


def test_function_family(grid: Grid) -> list[np.ndarray]:
    """The fixed test family: tensor products of B-spline factors.

    Returns 32 bulk fields of shape ``tan_shape + (M + 1,)``.  The family
    mixes interface-supported and interior vertical profiles with bumps at
    several tangential positions, enough to see low-frequency defects in
    the data while staying cheap and deterministic.
    """
    if grid.n == 2:
        tan_counts = (4,)
    else:
        tan_counts = (2, 2)
    vert = _vertical_family(grid, _FAMILY_SIZE // int(np.prod(tan_counts)))
    factors = [_tangential_family(grid, c, ax) for ax, c in enumerate(tan_counts)]
    family: list[np.ndarray] = []
    for v in vert:
        tails = [v]
        for fac in reversed(factors):
            tails = [f[..., np.newaxis] * t for f in fac for t in tails]
        family.extend(tails)
    return family


def _bulk_integral(field: np.ndarray, grid: Grid) -> float:
    cell = (grid.L / grid.N) ** (grid.n - 1)
    return float(np.sum(grid.mesh.integrate(field)) * cell)


def _plate_integral(field: np.ndarray, grid: Grid) -> float:
    cell = (grid.L / grid.N) ** (grid.n - 1)
    return float(np.sum(field) * cell)


def discrete_divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Weak-form divergence: spectral tangential plus summation-by-parts vertical."""
    out = np.zeros(grid.tan_shape + (grid.M + 1,))
    for d, grad in enumerate(tangential_derivatives(v[: grid.n - 1], grid, (1,), bulk=True)):
        out += grad[d]  # d_d v_d
    out += grid.mesh.sbp_derivative(v[grid.n - 1])
    return out


def _gradient_of(phi: np.ndarray, grid: Grid) -> list[np.ndarray]:
    parts = list(tangential_derivatives(phi, grid, (1,), bulk=True))
    parts.append(grid.mesh.sbp_derivative(phi))
    return parts


def _weak_item(
    name: str,
    residuals: list[float],
    scales: list[float],
    rel_tol: float,
) -> CompatItem:
    worst = 0.0
    worst_scale = 1.0
    for res, scale in zip(residuals, scales):
        ratio = res / scale if scale > 0.0 else (0.0 if res == 0.0 else np.inf)
        if ratio >= worst:
            worst = ratio
            worst_scale = scale
    status = "PASS" if worst <= rel_tol else "FAIL"
    return CompatItem(name=name, status=status, value=worst, scale=worst_scale)


def check_compatibility(data: ProblemData, grid: Grid) -> CompatReport:
    """Check all compatibility conditions of the initial data on this grid.

    Never raises on incompatible data; every condition becomes one
    :class:`CompatItem`.  Trace conditions are gated on the integrability
    exponent carried by the data.  A field of the wrong shape raises
    ``ValueError`` (:meth:`ProblemData.materialize`).
    """
    data = data.materialize(grid)
    level0 = data.initial(grid)
    defect = discrete_divergence(data.v0, grid) - nonlinear_divergence(level0, grid)[0] - data.g

    family = test_function_family(grid)
    div_res: list[float] = []
    div_scale: list[float] = []
    pair_res: list[float] = []
    pair_scale: list[float] = []
    for phi in family:
        div_res.append(abs(_bulk_integral(defect * phi, grid)))
        div_scale.append(
            _bulk_integral(np.abs(defect * phi), grid)
            + _bulk_integral(np.abs(data.g * phi), grid)
            + _bulk_integral(np.abs(phi), grid)
        )
        grad_phi = _gradient_of(phi, grid)
        transport = sum(data.v0[d] * grad_phi[d] for d in range(grid.n))
        terms = (
            _bulk_integral(data.g * phi, grid),
            _plate_integral(data.eta1 * phi[..., 0], grid),
            _bulk_integral(transport, grid),
        )
        pair_res.append(abs(sum(terms)))
        pair_scale.append(
            _bulk_integral(np.abs(data.g * phi), grid)
            + _plate_integral(np.abs(data.eta1 * phi[..., 0]), grid)
            + _bulk_integral(np.abs(transport), grid)
            + _bulk_integral(np.abs(phi), grid) * max(1.0, float(np.abs(data.v0).max()))
        )

    items = [
        _weak_item("divergence-data", div_res, div_scale, DIVERGENCE_REL_TOL),
        _weak_item("duality-pairing", pair_res, pair_scale, PAIRING_REL_TOL),
    ]

    traces_required = data.p_exponent > 1.5
    trace_scale = max(1.0, float(np.abs(data.v0).max()), float(np.abs(data.eta1).max()))
    slip = float(np.abs(data.v0[: grid.n - 1, ..., 0]).max())
    kin = float(np.abs(data.v0[grid.n - 1, ..., 0] - data.eta1).max())
    for name, value in (("no-slip-trace", slip), ("kinematic-trace", kin)):
        if not traces_required:
            items.append(
                CompatItem(name=name, status="NOT_REQUIRED", value=value, scale=trace_scale)
            )
        else:
            status = "PASS" if value <= TRACE_REL_TOL * trace_scale else "FAIL"
            items.append(CompatItem(name=name, status=status, value=value, scale=trace_scale))
    return CompatReport(items=tuple(items))
