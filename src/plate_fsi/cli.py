"""Command-line front end binding every layer of the package.

Subcommands: ``analyze-symbol`` (coupled-symbol sector analysis),
``polygon`` (exact Newton-polygon report), ``solve-linear`` (frequency
sweep with residual verification), ``simulate`` (nonlinear fixed-point
run writing CSV/JSON artifacts), ``check-compat`` (discrete
compatibility report) and ``index`` (embedding index calculator).

Configuration comes from an optional flat ``key = value`` file (``#``
comments allowed) merged with ``--set key=value`` flags, flags winning.
Every subcommand supports ``--json`` for machine output and ``--check``
to run only its internal invariant suite, which prints one line that
starts ``check: ok`` or ``check: FAILED``.  Exit codes, the same for
every subcommand:

* 0 success;
* 1 configuration error: one ``config error: ...`` line on stderr,
  starting with the offending key where there is one;
* 2 sector too wide (``analyze-symbol``);
* 3 residual failure, or a failed ``--check``;
* 4 no contraction (``simulate``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .params import Freq, PlateParams, Sector

# Each layer is imported inside the commands that use it, below their docstrings (the
# --help text), so a subcommand loads only its own layer; only the march loads scipy.
if TYPE_CHECKING:
    from .polygon import NewtonPolygon
    from .timedomain.grid import Grid, ProblemData, Trajectory

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SECTOR = 2
EXIT_RESIDUAL = 3
EXIT_NO_CONTRACTION = 4

# ``simulate --check``: the staggered divergence of one forced step must
# stay below this bound times max(1, sup|v| / h0), the size of the
# rounding that a first difference over the smallest cell h0 leaves.
DIVERGENCE_DEFECT_BOUND = 1e-10

# key -> (type, default); any other key is rejected
_KEYS: dict[str, tuple[type, object]] = {
    "alpha": (float, 1.0),
    "beta": (float, 0.0),
    "gamma": (float, 1.0),
    "n": (int, 2),
    "p": (float, 2.0),
    "L": (float, 2.0 * math.pi),
    "N": (int, 32),
    "X": (float, None),
    "M": (int, 64),
    "T": (float, 0.5),
    "dt": (float, 0.5 / 64.0),
    "amplitude": (float, 1e-3),
    "max_iter": (int, 25),
    "tol": (float, 1e-8),
    "phi": (float, None),
    "theta": (float, None),
}


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the failing key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def _assign(cfg: dict[str, object], item: str, source: str, malformed: str) -> None:
    """Set one ``key = value`` ``item`` of ``source`` (``config`` or ``set``)."""
    if "=" not in item:
        raise ConfigError(source, malformed)
    key, raw = (part.strip() for part in item.split("=", 1))
    if key not in _KEYS:
        raise ConfigError(key, "unknown configuration key")
    kind = _KEYS[key][0]
    try:
        cfg[key] = kind(raw)
    except ValueError:
        raise ConfigError(key, f"cannot parse {raw!r} as {kind.__name__}") from None


def load_config(config_path: str | None, sets: tuple[str, ...]) -> dict[str, object]:
    """Defaults, then the config file, then ``--set`` overrides."""
    cfg = {key: default for key, (_, default) in _KEYS.items()}
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise ConfigError("config", f"cannot read {config_path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                _assign(cfg, body, "config", f"line {lineno} is not 'key = value': {line!r}")
    for item in sets:
        _assign(cfg, item, "set", f"--set needs key=value, got {item!r}")
    if not math.isfinite(cfg["p"]):
        raise ConfigError("p", f"must be finite, got {cfg['p']!r}")
    # maximal Lp regularity, which every layer relies on, needs 1 < p
    if cfg["p"] <= 1:
        raise ConfigError("p", f"must be > 1, got {cfg['p']!r}")
    return cfg


def _params(cfg: dict[str, object]) -> PlateParams:
    return PlateParams(
        alpha=float(cfg["alpha"]), beta=float(cfg["beta"]), gamma=float(cfg["gamma"])
    )


def _grid(cfg: dict[str, object]) -> Grid:
    from .timedomain.grid import Grid

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


def _verdict(ok: bool, note: str = "") -> tuple[str, int]:
    """The one ``--check`` line and its exit code."""
    line = "check: " + ("ok" if ok else "FAILED")
    return (f"{line} {note}" if note else line), (EXIT_OK if ok else EXIT_RESIDUAL)


# ----------------------------------------------------------------- symbols


def _polygon_payload(polygon: NewtonPolygon, number) -> dict:
    """Vertices, edges and relevant weights, coordinates through ``number``."""
    from .polygon import relevant_weights

    return {
        "vertices": [[number(a), number(b)] for a, b in polygon.vertices],
        "edges": [
            {"from": [number(v1[0]), number(v1[1])], "to": [number(v2[0]), number(v2[1])], "r": str(r)}
            for v1, v2, r in polygon.edges
        ],
        "relevant_weights": [str(r) for r in relevant_weights(polygon)],
    }


def _sector(key: str, angle: float) -> Sector:
    try:
        return Sector(angle)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def analyze_symbol(cfg, check_only, as_json):
    """Newton polygon, sector angles and parabolicity of the coupled symbol."""
    from .polygon import build_polygon, check_parabolicity, coupled_symbol_terms
    from .symbols import root_sector_angle

    params = _params(cfg)
    phi0 = root_sector_angle(params)
    phi = cfg["phi"] if cfg["phi"] is not None else phi0 + (math.pi / 2 - phi0) / 2
    # with phi <= phi0 no default theta exists: the sector is too wide
    theta = cfg["theta"]
    if theta is None and phi > phi0:
        theta = (phi - phi0) / 8
    terms = coupled_symbol_terms(params)
    polygon = build_polygon(terms)
    report = check_parabolicity(
        terms, params, _sector("phi", phi), None if theta is None else _sector("theta", theta)
    )
    payload = {
        "phi0": phi0,
        "phi": phi,
        "theta": theta,
        **_polygon_payload(polygon, float),
        "parabolicity": report.rows(),
        "sector_too_wide": report.sector_too_wide,
        "pass": report.passed,
    }
    if check_only:
        expected = [[6.0, 0.0], [2.0, 2.0], [0.0, 2.5]]
        return _verdict(payload["vertices"] == expected and report.passed)
    if report.sector_too_wide:
        return payload, EXIT_SECTOR
    return payload, EXIT_OK if report.passed else EXIT_RESIDUAL


def polygon_cmd(cfg, check_only, as_json):
    """Exact Newton-polygon report for the configured parameters."""
    from .polygon import build_polygon, coupled_symbol_terms

    terms = coupled_symbol_terms(_params(cfg))
    polygon = build_polygon(terms)
    if check_only:
        # hull must be invariant under term order
        return _verdict(build_polygon(terms[::-1]).vertices == polygon.vertices)
    return _polygon_payload(polygon, str), EXIT_OK


# ------------------------------------------------------------- solve-linear


# Points per call into the frequency layer: large enough that the
# per-call overhead vanishes, small enough that the (point, x) residual
# buffers stay a few megabytes.
_BLOCK = 256


def _linear_rows(
    params: PlateParams,
    lam: np.ndarray,
    z: np.ndarray,
    n: int,
) -> dict[str, np.ndarray]:
    """Solve and verify the points ``(lam[i], z[i])``.

    Returns the sweep table as one array per output column, entry ``i``
    belonging to point ``i``.  The frequency layer is called once per
    block of :data:`_BLOCK` points.
    """
    from .frequency import build_profile, residual_report, solve_traces

    blocks = []
    for start in range(0, lam.size, _BLOCK):
        freq = Freq(lam=lam[start:start + _BLOCK], z=z[start:start + _BLOCK])
        traces = solve_traces(params, freq, 1.0 + 0.0j, n=n)
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


def solve_linear(cfg, check_only, as_json, lam_text, z_value, grid_spec, out_path):
    """Frequency-domain sweep with six-residual verification per point."""
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
        Freq(*points)  # rejects a negative z before the check runs
    else:
        points = _default_points(grid_spec)
    if check_only:
        return _verdict(bool(_linear_rows(params, *_default_points("3x3"), n)["pass"].all()))
    # a point so large that its traces overflow is reported below, as
    # a config error rather than as floating-point warnings
    with np.errstate(all="ignore"):
        table = _linear_rows(params, *points, n)
    finite = np.isfinite([table[c] for c in ("eta_abs", "p0_abs", "residual_max")]).all(axis=0)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise ConfigError(
            "lambda",
            f"the traces are not finite at lambda = {complex(points[0][i])}, z = {float(points[1][i])}",
        )
    all_pass = bool(table["pass"].all())
    code = EXIT_OK if all_pass else EXIT_RESIDUAL
    if as_json:
        # Plain Python floats and bools, one dict per point.
        rows = zip(*(column.tolist() for column in table.values()))
        return {"rows": [dict(zip(table, row)) for row in rows], "pass": all_pass}, code
    # The whole table, point by point, through one format string.
    row = "%.12g,%.12g,%.12g,%.12g,%.12g,%.6e,%d"
    values = np.column_stack(list(table.values())).ravel().tolist()
    body = "\n".join([row] * len(table["z"])) % tuple(values)
    text = "\n".join(["# schema=1", ",".join(table), body])
    if out_path is None:
        return text, code
    with _writing(out_path):
        Path(out_path).write_text(text + "\n")
    return None, code


# ----------------------------------------------------------------- simulate


@np.errstate(over="ignore", invalid="ignore")
def default_forcing(grid: Grid, amplitude: float) -> ProblemData:
    """Deterministic smooth forcing bundle scaled by ``amplitude``.

    Low tangential modes with an exponential vertical profile; strong
    enough that the quadratic terms dominate the Picard iteration once
    the amplitude is of order ten.  Raises :class:`ConfigError`, without
    a floating-point warning, when the forcing is not finite.
    """
    from .timedomain.grid import ProblemData

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


@contextmanager
def _writing(target: str):
    """An ``OSError`` from writing ``target`` is a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError("out", f"cannot write {target}: {exc}") from None


def _write_steps_csv(path: Path, grid: Grid, result) -> None:
    from .timedomain.fixpoint import level_sups

    lines = ["# schema=1", "t,v_sup,eta_sup,residual"]
    traj = result.trajectory
    v_sup, eta_sup = (level_sups(f).tolist() for f in (traj.v, traj.eta))
    for k, (v, eta, res) in enumerate(zip(v_sup, eta_sup, result.step_residuals)):
        lines.append(f"{k * grid.dt:.12g},{v:.12g},{eta:.12g},{res:.6e}")
    path.write_text("\n".join(lines) + "\n")


def _write_fields_csv(path: Path, grid: Grid, traj: Trajectory) -> None:
    """The last level of ``traj``, one row per (tangential point, node).

    The file is written one tangential point at a time, so the text of
    only one point is held at once.
    """
    v, p, eta, eta_t = (f[-1] for f in traj.fields())
    tan_names = ["x1"] if grid.n == 2 else ["x1", "x2"]
    v_names = [f"v{i + 1}" for i in range(grid.n)]
    names = tan_names + ["xn"] + v_names + ["p", "eta", "eta_t"]
    # Nodes fastest.  Each tangential point's coordinates and (eta, eta_t)
    # pair are formatted once, into one format string for all its rows;
    # one % then fills in the point's bulk values, node by node.
    coords = zip(*(x.ravel().tolist() for x in grid.tangential_coordinates()))
    plate = zip(eta.ravel().tolist(), eta_t.ravel().tolist())
    bulk = ",".join(["%.12g"] * (grid.n + 1))
    rows = ["%.12g," % x + bulk for x in grid.mesh.nodes.tolist()]
    # (point, node * field): v1..vn, p of each node side by side
    values = np.stack([*v, p], axis=-1).reshape(eta.size, -1)
    coord_format = "%.12g," * (grid.n - 1)
    with path.open("w") as out:
        out.write("# schema=1\n" + ",".join(names) + "\n")
        for point, pair, block in zip(coords, plate, values):
            lead = coord_format % point
            tail = ",%.12g,%.12g\n" % pair
            out.write((lead + (tail + lead).join(rows) + tail) % tuple(block.tolist()))


def simulate(cfg, check_only, as_json, out_dir):
    """Nonlinear fixed-point run; writes step CSV, field dump and summary."""
    from .timedomain.fixpoint import NoContraction, fixed_point_solve
    from .timedomain.grid import ProblemData
    from .timedomain.stepper import LinearStepper, staggered_divergence

    params = _params(cfg)
    grid = _grid(cfg)
    data = default_forcing(grid, float(cfg["amplitude"]))
    data.p_exponent = float(cfg["p"])
    tol = float(cfg["tol"])
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError("tol", f"must be finite and nonnegative, got {tol!r}")
    max_iter = int(cfg["max_iter"])
    if max_iter < 1:
        raise ConfigError("max_iter", f"must be at least 1, got {max_iter}")
    if check_only:
        zero = fixed_point_solve(
            params, grid, ProblemData(p_exponent=float(cfg["p"])), max_iter=2
        )
        # one step: the march over a horizon of one time step
        stepper = LinearStepper(params, dataclasses.replace(grid, T=grid.dt))
        forced = stepper.run(data).v[1]
        defect = float(np.abs(staggered_divergence(forced, grid)).max())
        scale = max(1.0, float(np.abs(forced).max()) / grid.mesh.spacings[0])
        ok = zero.converged and zero.iterations == 1 and defect <= DIVERGENCE_DEFECT_BOUND * scale
        return _verdict(ok, f"(divergence defect {defect:.2e})")
    try:
        result = fixed_point_solve(params, grid, data, max_iter=max_iter, rel_tol=tol)
    except NoContraction as exc:
        payload = {
            "converged": False,
            "no_contraction": True,
            "contraction_ratios": list(exc.ratios),
            "message": str(exc),
        }
        return payload, EXIT_NO_CONTRACTION
    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "contraction_ratios": result.contraction_ratios,
        "residual": result.residual,
        "scale": result.scale,
    }
    # after the solve, so that a run that fails to contract creates no directory
    with _writing(out_dir):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_steps_csv(out / "steps.csv", grid, result)
        _write_fields_csv(out / "fields.csv", grid, result.trajectory)
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary, EXIT_OK if result.converged else EXIT_RESIDUAL


# ------------------------------------------------------------- check-compat


@np.errstate(over="ignore", invalid="ignore")
def compatible_example(grid: Grid, amplitude: float) -> ProblemData:
    """Deterministic discretely compatible initial data (stream function).

    Raises :class:`ConfigError`, without a floating-point warning, when
    the data are not finite.
    """
    from .timedomain.compat import discrete_divergence
    from .timedomain.grid import ProblemData, tangential_derivatives

    k = 2.0 * math.pi / grid.L
    xn = grid.mesh.nodes
    q = np.sin(math.pi * xn / grid.X) ** 2
    coords = grid.tangential_coordinates()
    tan = np.cos(k * coords[0])
    if grid.n == 3:
        tan = tan * np.cos(k * coords[1])
    stream = amplitude * tan[..., np.newaxis] * q
    v = np.zeros((grid.n,) + grid.tan_shape + (grid.M + 1,))
    v[0] = grid.mesh.sbp_derivative(stream)
    v[grid.n - 1] = -next(iter(tangential_derivatives(stream, grid, (1,), bulk=True)))
    # zero at the lid, where the last test function of the pairing is one
    lid = np.exp(-xn) - math.exp(-grid.X)
    trace_bump = amplitude * np.cos(2.0 * k * coords[0])[..., np.newaxis] * lid
    v[grid.n - 1] += trace_bump
    v[: grid.n - 1, ..., 0] = 0.0
    v[: grid.n - 1, ..., -1] = 0.0
    g = discrete_divergence(v, grid)
    _require_finite(amplitude, v, g)
    eta1 = v[grid.n - 1][..., 0].copy()
    return ProblemData(v0=v, g=g, eta1=eta1)


def check_compat(cfg, check_only, as_json):
    """Discrete compatibility report for the built-in data family."""
    from .timedomain.compat import check_compatibility

    grid = _grid(cfg)
    data = compatible_example(grid, float(cfg["amplitude"]))
    data.p_exponent = float(cfg["p"])
    report = check_compatibility(data, grid)
    if check_only:
        return _verdict(report["duality-pairing"].status == "PASS")
    return report.as_dict(), EXIT_OK if report.passed else EXIT_RESIDUAL


# -------------------------------------------------------------------- index


def index_cmd(cfg, check_only, as_json):
    """Sobolev index values, thresholds and the embedding catalog."""
    from fractions import Fraction

    from .indices import embedding_catalog, exponent_thresholds

    n = int(cfg["n"])
    p = float(cfg["p"])
    thresholds = exponent_thresholds(n)
    catalog = embedding_catalog(n, p)
    if check_only:
        ok = True
        for m in range(2, 51):
            t = exponent_thresholds(m)
            ok &= t.quadratic >= t.multiplier and t.quadratic >= t.triple
        for m in (2, 3, 4):
            rows = embedding_catalog(m, Fraction(m + 2, 3))
            ok &= all(row.holds for row in rows)
        return _verdict(ok)
    payload = {
        "n": n,
        "p": p,
        "thresholds": thresholds.as_dict(),
        "catalog": [row.as_dict() for row in catalog],
        "all_hold": all(row.holds for row in catalog),
    }
    return payload, EXIT_OK


_COMMON = (
    ("--check", {"action": "store_true", "help": "run invariants only"}),
    ("--json", {"action": "store_true", "help": "machine-readable output"}),
    ("--set", {"action": "append", "default": [], "help": "override one key, e.g. --set alpha=2"}),
    ("--config", {"help": "key = value file"}),
)
# name -> (run, its options besides _COMMON: flags and add_argument keywords).  run(cfg,
# check_only, as_json, **options) returns (output, code); main prints a dict output as JSON
# (indented unless --json) and a string as it is, exits 1 on a ValueError, else with code.
_COMMANDS = {
    "analyze-symbol": (analyze_symbol, ()),
    "polygon": (polygon_cmd, ()),
    "solve-linear": (solve_linear, (
        ("--lambda", {"dest": "lam_text", "help": "single lambda, e.g. 1+0i"}),
        ("--z", {"dest": "z_value", "type": float, "help": "single tangential modulus"}),
        ("--grid", {"dest": "grid_spec", "default": "8x8", "help": "lambda x z sweep sizes"}),
        ("--out", {"dest": "out_path", "help": "write CSV here instead of stdout"}),
    )),
    "simulate": (simulate, (
        ("--out", {"dest": "out_dir", "default": "simulate-out", "help": "output directory"}),
    )),
    "check-compat": (check_compat, ()),
    "index": (index_cmd, ()),
}


@functools.cache  # built once per process: in-process callers run main many times
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser("plate-fsi", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="name", metavar="COMMAND", required=True)
    for name, (run, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        for flag, spec in _COMMON + options:
            sub.add_argument(flag, **spec)
    return parser


def main(argv: list[str] | None = None) -> None:
    """Analysis and simulation tools for the damped-plate FSI system."""
    valued = {flag for _, extra in _COMMANDS.values() for flag, kw in _COMMON + extra
              if kw.get("action") != "store_true"}
    joined, words = [], iter(sys.argv[1:] if argv is None else argv)
    for word in words:
        # a valued option takes the next word even if it starts with "-": --lambda -0.5+0.2j
        value = next(words, None) if word in valued else None
        joined.append(word if value is None else f"{word}={value}")
    args = vars(_parser().parse_args(joined))  # a usage error exits 2
    run, as_json = _COMMANDS[args.pop("name")][0], args.pop("json")
    try:
        cfg = load_config(args.pop("config"), args.pop("set"))
        output, code = run(cfg, args.pop("check"), as_json, **args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    if isinstance(output, dict):
        output = json.dumps(output, indent=None if as_json else 2, sort_keys=True)
    if output is not None:
        print(output)
    sys.exit(code)


if __name__ == "__main__":
    main()
