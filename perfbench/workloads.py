"""Workloads: the CLI calls each one makes, drawn from a seed, and their checks.

Every operation is one ``plate_fsi.cli.main`` invocation.  The seed only
chooses values that are passed on through ``--set``; the program receives
nothing else.  Each operation's outputs are checked three ways:

* its exit code;
* the program's own verification (every sweep row ``pass=1``; a
  simulation ``converged`` with ``residual <= tol * scale``);
* on the default seed at full size, agreement with ``reference.json``,
  recorded at the commit that introduced this benchmark.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# Other seeds draw each value uniformly from +-10 % around the CLI default.
# Across this box every simulation converges in the same number of Picard
# iterations (4 in 2D, 3 in 3D), so the work per operation does not depend
# on the seed.
DRAW_RANGES = {
    "alpha": (0.9, 1.1),
    "gamma": (0.9, 1.1),
    "amplitude": (0.9e-3, 1.1e-3),
}

# Relative tolerance for values compared with the reference, scaled by the
# largest magnitude in the compared column.
REL_TOL = 1e-6
# Contraction ratios divide two successive Picard differences, the later of
# which sits a few digits above rounding, so they get a looser tolerance.
RATIO_REL_TOL = 1e-4
# The ``tol`` default of ``simulate``; residuals are checked against
# ``SIM_TOL * scale`` rather than relatively.
SIM_TOL = 1e-8

OUT_DIR = ".perfbench-out"

# Untimed once per run: amplitude 10 must fail with NoContraction (exit 4).
PROBE_ARGV = ("simulate", "--json", "--out", f"{OUT_DIR}/probe", "--set", "amplitude=10")
PROBE_EXIT = 4


@dataclass(frozen=True)
class Op:
    """One CLI call: ``kind`` selects how its outputs are read and checked."""

    kind: str
    argv: tuple[str, ...]
    out: str | None = None


def draws(seed: int) -> dict[str, float]:
    """Parameter values for ``seed``; the default seed keeps the CLI defaults."""
    if seed == DEFAULT_SEED:
        return {}
    rng = random.Random(seed)
    return {key: rng.uniform(lo, hi) for key, (lo, hi) in DRAW_RANGES.items()}


def _sets(values: dict[str, float], *keys: str) -> tuple[str, ...]:
    out: list[str] = []
    for key in keys:
        if key in values:
            out += ["--set", f"{key}={values[key]!r}"]
    return tuple(out)


def _simulate(name: str, values: dict[str, float], grid: tuple[str, ...]) -> Op:
    out = f"{OUT_DIR}/{name}"
    argv = ("simulate", "--json", "--out", out)
    argv += tuple(a for kv in grid for a in ("--set", kv))
    return Op("simulate", argv + _sets(values, "alpha", "gamma", "amplitude"), out)


def ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The operations of one cycle of ``workload``; a run repeats whole cycles.

    ``smoke`` shrinks the grids so every workload finishes in seconds.
    """
    values = draws(seed)
    if workload == "sim2d":
        grid = ("N=16", "M=32", "T=0.0625") if smoke else ()
        return [_simulate(workload, values, grid)]
    if workload == "sim3d":
        grid = ("n=3", "N=8", "M=16", "T=0.03125") if smoke else ("n=3", "N=32", "M=64", "T=0.125")
        return [_simulate(workload, values, grid)]
    if workload == "sweep":
        out = f"{OUT_DIR}/sweep.csv"
        size = "8x8" if smoke else "64x64"
        return [Op("sweep-csv", ("solve-linear", "--grid", size, "--out", out) + _sets(values, "alpha", "gamma"), out)]
    if workload == "cold-cli":
        return [
            Op("index", ("index", "--json")),
            Op("polygon", ("polygon", "--json") + _sets(values, "alpha", "gamma")),
            Op("analyze", ("analyze-symbol", "--json") + _sets(values, "alpha", "gamma")),
            Op("compat", ("check-compat", "--json") + _sets(values, "amplitude")),
            Op("sweep-json", ("solve-linear", "--grid", "8x8", "--json") + _sets(values, "alpha", "gamma")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(op: Op) -> None:
    """Create the directory that ``op`` writes into."""
    if op.out is not None:
        (Path(op.out) if op.kind == "simulate" else Path(op.out).parent).mkdir(parents=True, exist_ok=True)


WORKLOADS = ("sim2d", "sim3d", "sweep", "cold-cli")
IN_PROCESS = {"sim2d", "sim3d", "sweep"}


# ------------------------------------------------------------------ checks


def _read_csv(path: Path) -> dict[str, list[float]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    columns = zip(*([float(x) for x in ln.split(",")] for ln in lines[1:]))
    return dict(zip(header, (list(c) for c in columns)))


def _sup(values) -> float:
    return max((abs(v) for v in values), default=0.0)


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_simulate(stdout: str, out: Path) -> tuple[dict, list[str]]:
    summary = json.loads(stdout)
    steps = _read_csv(out / "steps.csv")
    fields = _read_csv(out / "fields.csv")
    problems = []
    if summary.get("converged") is not True:
        problems.append("simulate did not converge")
    bound = SIM_TOL * summary["scale"]
    if not summary["residual"] <= bound:
        problems.append(f"residual {summary['residual']:.3e} > tol*scale {bound:.3e}")
    if not _sup(steps["residual"]) <= bound:
        problems.append(f"steps.csv residual {_sup(steps['residual']):.3e} > tol*scale {bound:.3e}")
    if not all(_finite(col) for col in list(steps.values()) + list(fields.values())):
        problems.append("non-finite value in steps.csv or fields.csv")
    digest = {
        "iterations": summary["iterations"],
        "contraction_ratios": summary["contraction_ratios"],
        "scale": summary["scale"],
        "steps.t": steps["t"],
        "steps.v_sup": steps["v_sup"],
        "steps.eta_sup": steps["eta_sup"],
        "fields.columns": ",".join(fields),
        "fields.rows": len(fields["xn"]),
        "fields.sup": [_sup(col) for col in fields.values()],
    }
    return digest, problems


def _sweep_rows(rows: list[dict]) -> tuple[dict, list[str]]:
    failing = sum(1 for row in rows if not int(row["pass"]))
    problems = [f"{failing} of {len(rows)} sweep points fail their residual check"] if failing else []
    digest = {
        "rows": len(rows),
        "eta_abs": [row["eta_abs"] for row in rows],
        "p0_abs": [row["p0_abs"] for row in rows],
    }
    return digest, problems


def check(op: Op, stdout: str) -> tuple[dict, list[str]]:
    """Read the outputs of ``op``; return a digest for the reference and problems."""
    if op.kind == "simulate":
        return _check_simulate(stdout, Path(op.out))
    if op.kind == "sweep-csv":
        cols = _read_csv(Path(op.out))
        rows = [dict(zip(cols, vals)) for vals in zip(*cols.values())]
        return _sweep_rows(rows)
    payload = json.loads(stdout)
    if op.kind == "sweep-json":
        digest, problems = _sweep_rows(payload["rows"])
        if payload["pass"] is not True:
            problems.append("solve-linear reports pass=false")
        return digest, problems
    if op.kind == "index":
        problems = [] if payload["all_hold"] is True else ["index: an embedding check fails"]
        return {"payload": json.dumps(payload, sort_keys=True)}, problems
    if op.kind == "polygon":
        return {"payload": json.dumps(payload, sort_keys=True)}, []
    if op.kind == "analyze":
        problems = []
        if payload["pass"] is not True or payload["sector_too_wide"] is not False:
            problems.append("analyze-symbol: parabolicity check fails")
        digest = {
            "vertices": [x for v in payload["vertices"] for x in v],
            "relevant_weights": ",".join(payload["relevant_weights"]),
            "angles": [payload["phi0"], payload["phi"], payload["theta"]],
            "min_modulus": [row["min_modulus"] for row in payload["parabolicity"]],
        }
        return digest, problems
    if op.kind == "compat":
        problems = [] if payload["passed"] is True else ["check-compat: data not compatible"]
        digest = {
            "status": ",".join(f"{it['name']}={it['status']}" for it in payload["items"]),
            "scale": [it["scale"] for it in payload["items"]],
        }
        return digest, problems
    raise ValueError(f"unknown operation kind {op.kind!r}")


def compare(digest: dict, reference: dict) -> list[str]:
    """Differences between a digest and its recorded reference."""
    problems = []
    for key, want in reference.items():
        have = digest.get(key)
        if isinstance(want, (float, list)):
            want_l = want if isinstance(want, list) else [want]
            have_l = have if isinstance(have, list) else [have]
            if len(have_l) != len(want_l) or not _finite(have_l):
                problems.append(f"{key}: shape or finiteness differs from the reference")
                continue
            if key == "contraction_ratios":
                ok = all(abs(h - w) <= RATIO_REL_TOL * abs(w) for h, w in zip(have_l, want_l))
            else:
                scale = _sup(want_l)
                ok = all(abs(h - w) <= REL_TOL * scale for h, w in zip(have_l, want_l))
            if not ok:
                problems.append(f"{key}: differs from the reference")
        elif have != want:
            problems.append(f"{key}: {have!r} != reference {want!r}")
    return problems
