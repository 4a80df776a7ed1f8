"""Command-line front end binding every layer of the package.

Subcommands: ``analyze-symbol`` (coupled-symbol sector analysis),
``polygon`` (exact Newton-polygon report), ``solve-linear`` (frequency
sweep with residual verification), ``simulate`` (nonlinear fixed-point
run writing CSV/JSON artifacts), ``check-compat`` (discrete
compatibility report) and ``index`` (embedding index calculator).

Configuration comes from an optional flat ``key = value`` file (``#``
comments allowed) merged with ``--set key=value`` flags, flags winning.
Every subcommand supports ``--json`` for machine output and ``--check``
to run only its internal invariant suite.  Exit codes: 0 success,
1 configuration error, 2 sector failure, 3 residual failure,
4 no contraction.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

import click
import numpy as np

from .config import TOL
from .frequency import NearResonance, build_profile, residual_report, solve_traces
from .indices import embedding_catalog, exponent_thresholds
from .params import Freq, PlateParams, Sector
from .polygon import (
    build_polygon,
    check_parabolicity,
    coupled_symbol_terms,
    relevant_weights,
)
from .symbols import root_sector_angle

# The time-domain layer (and with it scipy) is imported inside the commands
# that use it, so the other subcommands start without loading it.
if TYPE_CHECKING:
    from .timedomain import Grid, ProblemData, State

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SECTOR = 2
EXIT_RESIDUAL = 3
EXIT_NO_CONTRACTION = 4

_SCHEMA: dict[str, type] = {
    "alpha": float,
    "beta": float,
    "gamma": float,
    "n": int,
    "p": float,
    "L": float,
    "N": int,
    "X": float,
    "M": int,
    "T": float,
    "dt": float,
    "amplitude": float,
    "max_iter": int,
    "tol": float,
    "phi": float,
    "theta": float,
}

_DEFAULTS: dict[str, object] = {
    "alpha": 1.0,
    "beta": 0.0,
    "gamma": 1.0,
    "n": 2,
    "p": 2.0,
    "L": 2.0 * math.pi,
    "N": 32,
    "X": None,
    "M": 64,
    "T": 0.5,
    "dt": 0.5 / 64.0,
    "amplitude": 1e-3,
    "max_iter": 25,
    "tol": 1e-8,
    "phi": None,
    "theta": None,
}


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the failing key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def _coerce(key: str, raw: str):
    kind = _SCHEMA[key]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(key, f"cannot parse {raw!r} as {kind.__name__}") from None


def _parse_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("config", f"line {lineno} is not 'key = value': {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(key, "unknown configuration key")
        out[key] = _coerce(key, raw)
    return out


def load_config(config_path: str | None, sets: tuple[str, ...]) -> dict[str, object]:
    """Defaults, then the config file, then ``--set`` overrides."""
    cfg = dict(_DEFAULTS)
    if config_path is not None:
        cfg.update(_parse_config_file(config_path))
    for item in sets:
        if "=" not in item:
            raise ConfigError("set", f"--set needs key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(key, "unknown configuration key")
        cfg[key] = _coerce(key, raw)
    if not math.isfinite(cfg["p"]):
        raise ConfigError("p", f"must be finite, got {cfg['p']!r}")
    return cfg


def _params(cfg: dict[str, object]) -> PlateParams:
    return PlateParams(
        alpha=float(cfg["alpha"]), beta=float(cfg["beta"]), gamma=float(cfg["gamma"])
    )


def _grid(cfg: dict[str, object]) -> Grid:
    from .timedomain import Grid

    return Grid(
        n=int(cfg["n"]),
        L=float(cfg["L"]),
        N=int(cfg["N"]),
        M=int(cfg["M"]),
        X=None if cfg["X"] is None else float(cfg["X"]),
        T=float(cfg["T"]),
        dt=float(cfg["dt"]),
    )


def _parse_complex(text: str) -> complex:
    # only a trailing imaginary unit: the i of inf must reach complex()
    value = text.strip().replace(" ", "")
    if value.endswith("i"):
        value = value[:-1] + "j"
    try:
        return complex(value)
    except ValueError:
        raise ConfigError("lambda", f"cannot parse complex number {text!r}") from None


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _frac(value: Fraction) -> float:
    return float(value)


@click.group()
def main() -> None:
    """Analysis and simulation tools for the damped-plate FSI system."""


def _common(f):
    f = click.option(
        "--config", "config_path", type=str, default=None, help="key = value file"
    )(f)
    f = click.option(
        "--set", "sets", multiple=True, help="override one key, e.g. --set alpha=2"
    )(f)
    f = click.option("--json", "as_json", is_flag=True, help="machine-readable output")(f)
    f = click.option("--check", "check_only", is_flag=True, help="run invariants only")(f)
    return f


# ----------------------------------------------------------------- symbols


def _analyze_payload(cfg: dict[str, object]) -> tuple[dict, int]:
    params = _params(cfg)
    phi0 = root_sector_angle(params)
    phi = float(cfg["phi"]) if cfg["phi"] is not None else phi0 + (math.pi / 2 - phi0) / 2
    theta = float(cfg["theta"]) if cfg["theta"] is not None else (phi - phi0) / 8
    terms = coupled_symbol_terms(params)
    polygon = build_polygon(terms)
    report = check_parabolicity(terms, params, Sector(phi), Sector(max(theta, 0.0)))
    payload = {
        "phi0": phi0,
        "phi": phi,
        "theta": theta,
        "vertices": [[_frac(a), _frac(b)] for a, b in polygon.vertices],
        "edges": [
            {"from": [_frac(v1[0]), _frac(v1[1])], "to": [_frac(v2[0]), _frac(v2[1])], "r": str(r)}
            for v1, v2, r in polygon.edges
        ],
        "relevant_weights": [str(r) for r in relevant_weights(polygon)],
        "parabolicity": report.rows(),
        "sector_too_wide": report.sector_too_wide,
        "pass": report.passed,
    }
    if report.sector_too_wide:
        return payload, EXIT_SECTOR
    return payload, EXIT_OK if report.passed else EXIT_RESIDUAL


@main.command("analyze-symbol")
@_common
def analyze_symbol(config_path, sets, as_json, check_only):
    """Newton polygon, sector angles and parabolicity of the coupled symbol."""
    try:
        cfg = load_config(config_path, sets)
        payload, code = _analyze_payload(cfg)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if check_only:
        expected = [[6.0, 0.0], [2.0, 2.0], [0.0, 2.5]]
        ok = payload["vertices"] == expected and payload["pass"]
        click.echo("check: " + ("ok" if ok else "FAILED"))
        sys.exit(EXIT_OK if ok else EXIT_RESIDUAL)
    _emit(payload, as_json)
    sys.exit(code)


@main.command("polygon")
@_common
def polygon_cmd(config_path, sets, as_json, check_only):
    """Exact Newton-polygon report for the configured parameters."""
    try:
        cfg = load_config(config_path, sets)
        params = _params(cfg)
        terms = coupled_symbol_terms(params)
        polygon = build_polygon(terms)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if check_only:
        # hull must be invariant under term order
        shuffled = list(terms)[::-1]
        same = build_polygon(shuffled).vertices == polygon.vertices
        click.echo("check: " + ("ok" if same else "FAILED"))
        sys.exit(EXIT_OK if same else EXIT_RESIDUAL)
    payload = {
        "vertices": [[str(a), str(b)] for a, b in polygon.vertices],
        "edges": [
            {"from": [str(v1[0]), str(v1[1])], "to": [str(v2[0]), str(v2[1])], "r": str(r)}
            for v1, v2, r in polygon.edges
        ],
        "relevant_weights": [str(r) for r in relevant_weights(polygon)],
    }
    _emit(payload, as_json)
    sys.exit(EXIT_OK)


# ------------------------------------------------------------- solve-linear


# Points per call into the frequency layer: large enough that the
# per-call overhead vanishes, small enough that the (point, x) residual
# buffers stay a few megabytes.
_BLOCK = 256


def _linear_rows(
    params: PlateParams,
    lam: np.ndarray,
    z: np.ndarray,
    corrupt_p0: bool,
    n: int,
) -> dict[str, np.ndarray]:
    """Solve and verify the points ``(lam[i], z[i])``.

    Returns the sweep table as one array per output column, entry ``i``
    belonging to point ``i``.  The frequency layer is called once per
    block of :data:`_BLOCK` points.
    """
    blocks = []
    for start in range(0, lam.size, _BLOCK):
        freq = Freq(lam=lam[start:start + _BLOCK], z=z[start:start + _BLOCK])
        traces = solve_traces(params, freq, 1.0 + 0.0j, n=n)
        if corrupt_p0:
            traces = dataclasses.replace(traces, p0_hat=traces.p0_hat * 1.01)
        profile = build_profile(params, freq, traces)
        report = residual_report(params, freq, profile, 1.0 + 0.0j)
        blocks.append((
            np.abs(traces.eta_hat),
            np.abs(traces.p0_hat),
            report.max_normalized,
            report.passed,
        ))
    eta_abs, p0_abs, residual_max, passed = (np.concatenate(c) for c in zip(*blocks))
    return {
        "re_lambda": lam.real,
        "im_lambda": lam.imag,
        "z": z,
        "eta_abs": eta_abs,
        "p0_abs": p0_abs,
        "residual_max": residual_max,
        "pass": passed,
    }


def _default_points(grid_spec: str) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, z)`` of the sweep grid, lambda-major."""
    try:
        lam_count, z_count = (int(part) for part in grid_spec.lower().split("x"))
        if lam_count < 1 or z_count < 1:
            raise ValueError
    except ValueError:
        raise ConfigError("grid", f"expected CxC like 8x8, got {grid_spec!r}") from None
    mods = np.geomspace(0.1, 10.0, lam_count)
    args = np.linspace(-0.55 * math.pi, 0.55 * math.pi, lam_count)
    lams = mods * np.exp(1j * args)
    zs = np.geomspace(0.1, 10.0, z_count)
    return np.repeat(lams, z_count), np.tile(zs, lam_count)


@main.command("solve-linear")
@_common
@click.option("--lambda", "lam_text", type=str, default=None, help="single lambda, e.g. 1+0i")
@click.option("--z", "z_value", type=float, default=None, help="single tangential modulus")
@click.option("--grid", "grid_spec", type=str, default="8x8", help="lambda x z sweep sizes")
@click.option("--corrupt-p0", is_flag=True, help="debug: perturb the pressure trace by 1%")
@click.option("--out", "out_path", type=str, default=None, help="write CSV here instead of stdout")
def solve_linear(config_path, sets, as_json, check_only, lam_text, z_value, grid_spec, corrupt_p0, out_path):
    """Frequency-domain sweep with six-residual verification per point."""
    try:
        cfg = load_config(config_path, sets)
        params = _params(cfg)
        n = int(cfg["n"])
        if (lam_text is None) != (z_value is None):
            raise ConfigError("lambda", "--lambda and --z must be given together")
        if lam_text is not None:
            lam, z = _parse_complex(lam_text), float(z_value)
            if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
                raise ConfigError("lambda", f"must be finite, got {lam_text!r}")
            if not math.isfinite(z):
                raise ConfigError("z", f"must be finite, got {z_value!r}")
            points = (np.array([lam]), np.array([z]))
            Freq(*points)  # rejects a negative z while it is still a config error
        else:
            points = _default_points(grid_spec)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if check_only:
        ok = bool(_linear_rows(params, *_default_points("3x3"), False, n)["pass"].all())
        click.echo("check: " + ("ok" if ok else "FAILED"))
        sys.exit(EXIT_OK if ok else EXIT_RESIDUAL)
    try:
        # a point so large that its traces overflow is reported below, as
        # a config error rather than as floating-point warnings
        with np.errstate(all="ignore"):
            table = _linear_rows(params, *points, corrupt_p0, n)
    except NearResonance as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    finite = np.isfinite([table[c] for c in ("eta_abs", "p0_abs", "residual_max")]).all(axis=0)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        click.echo(
            f"config error: lambda: the traces are not finite at lambda = "
            f"{complex(points[0][i])}, z = {float(points[1][i])}",
            err=True,
        )
        sys.exit(EXIT_CONFIG)
    all_pass = bool(table["pass"].all())
    if as_json:
        # Plain Python floats and bools, one dict per point.
        rows = zip(*(column.tolist() for column in table.values()))
        rows = [dict(zip(table, row)) for row in rows]
        _emit({"rows": rows, "pass": all_pass}, as_json=True)
    else:
        # The whole table, point by point, through one format string.
        row = "%.12g,%.12g,%.12g,%.12g,%.12g,%.6e,%d"
        values = np.column_stack(list(table.values())).ravel().tolist()
        body = "\n".join([row] * len(table["z"])) % tuple(values)
        text = "\n".join(["# schema=1", ",".join(table), body])
        if out_path is not None:
            Path(out_path).write_text(text + "\n")
        else:
            click.echo(text)
    sys.exit(EXIT_OK if all_pass else EXIT_RESIDUAL)


# ----------------------------------------------------------------- simulate


@np.errstate(over="ignore", invalid="ignore")
def default_forcing(grid: Grid, amplitude: float) -> ProblemData:
    """Deterministic smooth forcing bundle scaled by ``amplitude``.

    Low tangential modes with an exponential vertical profile; strong
    enough that the quadratic terms dominate the Picard iteration once
    the amplitude is of order ten.  Raises :class:`ConfigError`, without
    a floating-point warning, when the forcing is not finite.
    """
    from .timedomain import ProblemData

    k = 2.0 * math.pi / grid.L
    prof = np.exp(-grid.mesh.nodes)
    coords = grid.tangential_coordinates()
    f_v = np.zeros((grid.n,) + grid.tan_shape + (grid.M + 1,))
    if grid.n == 2:
        (x,) = coords
        f_v[0] = 2.0 * amplitude * np.cos(k * x)[..., np.newaxis] * prof
        f_v[1] = 2.0 * amplitude * np.sin(2.0 * k * x)[..., np.newaxis] * prof
        f_eta = 4.0 * amplitude * (np.sin(k * x) + 0.5 * np.cos(2.0 * k * x))
    else:
        x, y = coords
        f_v[0] = 2.0 * amplitude * (np.cos(k * x) * np.cos(k * y))[..., np.newaxis] * prof
        f_v[1] = 2.0 * amplitude * (np.sin(2.0 * k * x))[..., np.newaxis] * prof
        f_v[2] = 2.0 * amplitude * (np.sin(k * x) * np.cos(k * y))[..., np.newaxis] * prof
        f_eta = 4.0 * amplitude * (np.sin(k * x) + 0.5 * np.cos(2.0 * k * y))
    _require_finite(amplitude, f_v, f_eta)
    return ProblemData(f_v=f_v, f_eta=f_eta)


def _require_finite(amplitude: float, *fields: np.ndarray) -> None:
    """Reject an ``amplitude`` whose data leave the finite range."""
    if not all(np.isfinite(field).all() for field in fields):
        raise ConfigError(
            "amplitude", f"the data are not finite at amplitude={amplitude!r}"
        )


def _write_steps_csv(path: Path, grid: Grid, result) -> None:
    lines = ["# schema=1", "t,v_sup,eta_sup,residual"]
    traj = result.trajectory
    v_sup, eta_sup = (
        np.abs(f).max(axis=tuple(range(1, f.ndim))).tolist() for f in (traj.v, traj.eta)
    )
    for k in range(len(traj)):
        res = result.step_residuals[k] if k < len(result.step_residuals) else 0.0
        lines.append(f"{k * grid.dt:.12g},{v_sup[k]:.12g},{eta_sup[k]:.12g},{res:.6e}")
    path.write_text("\n".join(lines) + "\n")


def _write_fields_csv(path: Path, grid: Grid, state: State) -> None:
    tan_names = ["x1"] if grid.n == 2 else ["x1", "x2"]
    v_names = [f"v{i + 1}" for i in range(grid.n)]
    names = tan_names + ["xn"] + v_names + ["p", "eta", "eta_t"]
    # One row per (tangential point, node), nodes fastest.  Each tangential
    # point, node and (eta, eta_t) pair is formatted once; per row only the
    # bulk columns are.
    coords = zip(*(x.ravel().tolist() for x in grid.tangential_coordinates()))
    leads = [("%.12g," * (grid.n - 1)) % point for point in coords]
    nodes = ["%.12g," % x for x in grid.mesh.nodes.tolist()]
    plate = zip(state.eta.ravel().tolist(), state.eta_t.ravel().tolist())
    tails = [",%.12g,%.12g" % pair for pair in plate]
    bulk = ",".join(["%.12g"] * (grid.n + 1))
    columns = (f.ravel().tolist() for f in (*state.v, state.p))
    rows = iter([bulk % values for values in zip(*columns)])
    lines = ["# schema=1", ",".join(names)]
    lines += [
        lead + node + next(rows) + tail
        for lead, tail in zip(leads, tails)
        for node in nodes
    ]
    path.write_text("\n".join(lines) + "\n")


@main.command("simulate")
@_common
@click.option("--out", "out_dir", type=str, default="simulate-out", help="output directory")
def simulate(config_path, sets, as_json, check_only, out_dir):
    """Nonlinear fixed-point run; writes step CSV, field dump and summary."""
    from .timedomain import (
        LinearStepper,
        NoContraction,
        ProblemData,
        State,
        fixed_point_solve,
    )
    from .timedomain.stepper import staggered_divergence

    try:
        cfg = load_config(config_path, sets)
        params = _params(cfg)
        grid = _grid(cfg)
        data = default_forcing(grid, float(cfg["amplitude"]))
        data.p_exponent = float(cfg["p"])
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if check_only:
        try:
            zero = fixed_point_solve(
                params, grid, ProblemData(p_exponent=float(cfg["p"])), max_iter=2
            )
        except ValueError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        # one step: the march over a horizon of one time step
        stepper = LinearStepper(params, dataclasses.replace(grid, T=grid.dt))
        forced = stepper.run(State.zeros(grid), data)[1]
        defect = float(np.abs(staggered_divergence(forced.v, grid)).max())
        ok = zero.converged and zero.iterations == 1 and defect <= TOL.solver_tol
        click.echo(f"check: {'ok' if ok else 'FAILED'} (divergence defect {defect:.2e})")
        sys.exit(EXIT_OK if ok else EXIT_RESIDUAL)
    try:
        result = fixed_point_solve(
            params, grid, data, max_iter=int(cfg["max_iter"]), rel_tol=float(cfg["tol"])
        )
    except NoContraction as exc:
        payload = {
            "converged": False,
            "no_contraction": True,
            "contraction_ratios": list(exc.ratios),
            "message": str(exc),
        }
        _emit(payload, as_json)
        sys.exit(EXIT_NO_CONTRACTION)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_steps_csv(out / "steps.csv", grid, result)
    _write_fields_csv(out / "fields.csv", grid, result.trajectory[-1])
    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "contraction_ratios": result.contraction_ratios,
        "residual": result.residual,
        "scale": result.scale,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _emit(summary, as_json)
    sys.exit(EXIT_OK if result.converged else EXIT_RESIDUAL)


# ------------------------------------------------------------- check-compat


@np.errstate(over="ignore", invalid="ignore")
def compatible_example(grid: Grid, amplitude: float) -> ProblemData:
    """Deterministic discretely compatible initial data (stream function).

    Raises :class:`ConfigError`, without a floating-point warning, when
    the data are not finite.
    """
    from .timedomain import ProblemData
    from .timedomain.compat import discrete_divergence
    from .timedomain.grid import tangential_derivatives

    k = 2.0 * math.pi / grid.L
    xn = grid.mesh.nodes
    q = np.sin(math.pi * xn / grid.X) ** 2
    coords = grid.tangential_coordinates()
    tan = np.cos(k * coords[0])
    if grid.n == 3:
        tan = tan * np.cos(k * coords[1])
    stream = amplitude * tan[..., np.newaxis] * q
    sbp = grid.mesh.sbp_derivative_matrix()
    v = np.zeros((grid.n,) + grid.tan_shape + (grid.M + 1,))
    v[0] = (sbp @ stream.reshape(-1, grid.M + 1).T).T.reshape(stream.shape)
    v[grid.n - 1] = -next(iter(tangential_derivatives(stream, grid, (1,), bulk=True)))
    trace_bump = amplitude * np.cos(2.0 * k * coords[0])[..., np.newaxis] * np.exp(-xn)
    v[grid.n - 1] += trace_bump
    v[: grid.n - 1, ..., 0] = 0.0
    v[: grid.n - 1, ..., -1] = 0.0
    g = discrete_divergence(v, grid)
    _require_finite(amplitude, v, g)
    eta1 = v[grid.n - 1][..., 0].copy()
    return ProblemData(v0=v, g=g, eta1=eta1)


@main.command("check-compat")
@_common
def check_compat(config_path, sets, as_json, check_only):
    """Discrete compatibility report for the built-in data family."""
    from .timedomain import check_compatibility

    try:
        cfg = load_config(config_path, sets)
        grid = _grid(cfg)
        data = compatible_example(grid, float(cfg["amplitude"]))
        data.p_exponent = float(cfg["p"])
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    report = check_compatibility(data, grid)
    if check_only:
        pairing = report["duality-pairing"]
        ok = pairing.status == "PASS"
        click.echo("check: " + ("ok" if ok else "FAILED"))
        sys.exit(EXIT_OK if ok else EXIT_RESIDUAL)
    _emit(report.as_dict(), as_json)
    sys.exit(EXIT_OK if report.passed else EXIT_RESIDUAL)


# -------------------------------------------------------------------- index


@main.command("index")
@_common
def index_cmd(config_path, sets, as_json, check_only):
    """Sobolev index values, thresholds and the embedding catalog."""
    try:
        cfg = load_config(config_path, sets)
        n = int(cfg["n"])
        p = float(cfg["p"])
        thresholds = exponent_thresholds(n)
        catalog = embedding_catalog(n, p)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if check_only:
        ok = True
        for m in range(2, 51):
            t = exponent_thresholds(m)
            ok &= t.quadratic >= t.multiplier and t.quadratic >= t.triple
        for m in (2, 3, 4):
            rows = embedding_catalog(m, Fraction(m + 2, 3))
            ok &= all(row.holds for row in rows)
        click.echo("check: " + ("ok" if ok else "FAILED"))
        sys.exit(EXIT_OK if ok else EXIT_RESIDUAL)
    payload = {
        "n": n,
        "p": p,
        "thresholds": thresholds.as_dict(),
        "catalog": [row.as_dict() for row in catalog],
        "all_hold": all(row.holds for row in catalog),
    }
    _emit(payload, as_json)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
