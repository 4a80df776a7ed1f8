"""Benchmark of the plate-fsi command line; see perfbench/README.md.

    python3 perfbench/run.py --workload sim2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it is a report with the
environment, the seeded inputs and diagnostics.  ``--smoke`` runs every
workload at reduced size in both modes; every run checks that its metric
names are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads as wl  # noqa: E402

# Set-up is measured this many times per untraced run; the median is reported.
SETUP_REPEATS = 5
# One run must end within 180 s.
RUN_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """Single-threaded numerics, no sweep threads, the checkout's package."""
    env = dict(os.environ)
    env.pop("PLATE_FSI_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    """Digest of the package source; identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "PLATE_FSI_THREADS": "unset",
        "thread_pins": {var: "1" for var in THREAD_VARS},
        "load": "closed loop, one client: one operation at a time in one process",
    }


def _worker(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            setup_only: bool, deadline: float) -> tuple[float, float, dict | None]:
    """Start one worker; return its set-up time, wall and at the reference
    speed (untraced only), and its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke + ["--setup-only"] * setup_only
    spawned = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker did not finish in time") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"{workload} worker failed with exit code {proc.returncode}")
    _, ready, samples = lines[0].split()
    setup_s = float(ready) - spawned
    setup_ref_s = None if trace else speed.rescale(setup_s, json.loads(samples))
    return setup_s, setup_ref_s, None if setup_only else json.loads(lines[-1])


def _tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return {"percentile": 100.0 * k / len(ordered), "value": ordered[k - 1]}


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the report and the result line."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Set-ups only measured run before and after the measured worker, so that
    # one slow spell of a shared host weighs less in their median.
    extra = 0 if trace else SETUP_REPEATS - 1
    setups = [_worker(workload, seed, seconds, trace, smoke, True, deadline)[:2] for _ in range(extra // 2)]
    *setup, res = _worker(workload, seed, seconds, trace, smoke, False, deadline)
    setups.append(tuple(setup))
    setups += [_worker(workload, seed, seconds, trace, smoke, True, deadline)[:2] for _ in range(extra - extra // 2)]
    samples = res["samples"]
    if not trace and not res["ref_samples"]:
        raise BenchError(f"{workload}: no timed operation completed: {res['problems'][:3]}")
    if trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "op_ref_p50_s": statistics.median(res["ref_samples"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = _metric_units()["per_layer" if trace else "end_to_end"]
    if set(values) != set(units):
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    report = {
        "workload": workload,
        "seed": seed,
        "draws": wl.draws(seed),
        "smoke": smoke,
        "trace": trace,
        "environment": environment(),
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_ref_s": [ref for _, ref in setups],
        "op_samples": len(samples),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": _tail(samples),
        "fail_frac": res["failed"] / res["attempted"],
        "probe_exit": res["probe_exit"],
        "problems": res["problems"],
    }
    if not trace:
        report["op_ref_tail_s"] = _tail(res["ref_samples"])
    if trace:
        report["largest_self_time"] = res["largest_self_time"]
        report["traced_op_p50_s"] = statistics.median(res["traced_samples"])
        report["trace_targets_missing"] = res["missing"]
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return report, result


def _metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def smoke() -> int:
    """Every workload, reduced in size, in both modes; check the result line."""
    bad = 0
    for workload in wl.WORKLOADS:
        for trace in (False, True):
            try:
                report, result = measure(workload, 1, 1.0, trace, smoke=True)
                problems = report["problems"]
                if not result["correct"] or not all(
                    isinstance(m["value"], (int, float)) for m in result["metrics"].values()
                ):
                    problems.append("result is not correct")
            except BenchError as exc:
                problems = [str(exc)]
            bad += bool(problems)
            status = "FAILED " + "; ".join(problems) if problems else "ok"
            print(f"smoke {workload} trace={int(trace)}: {status}", flush=True)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="plate-fsi CLI benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="schema check at reduced size")
    args = parser.parse_args()
    if not (ROOT / "src" / "plate_fsi" / "cli.py").is_file():
        print(f"perfbench: no plate_fsi source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
