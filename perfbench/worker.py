"""One workload process, started by ``run.py``; not meant to be run by hand.

``worker.py --workload W --seed S --seconds X [--trace] [--smoke] [--setup-only]``
imports ``plate_fsi.cli``, builds its inputs, prints ``ready <time>`` (the
end of set-up), then runs whole cycles of operations until their measured time
reaches ``--seconds``.  Untraced, set-up and each operation are also timed at
the reference speed of ``speed.py``.  Untimed, it runs the amplitude-10 probe once and,
on a seed other than the default, each default-seed operation once for
comparison with ``reference.json``; then it prints its result as one JSON
line.  With ``--trace`` it spends half the
time on untraced operations and half on traced ones.

``worker.py traced-cli SPANS_FILE ARG...`` is one traced ``cold-cli``
operation: a fresh interpreter that imports and runs the CLI under the
tracer and writes its span totals to ``SPANS_FILE``.
``worker.py sampled-cli SAMPLES_FILE ARG...`` is one untraced ``cold-cli``
operation that samples the host's speed and writes the kernel times to
``SAMPLES_FILE``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120


def import_cli(tracer: tracing.Tracer | None):
    before = len(sys.modules)
    if tracer is None:
        cli = importlib.import_module("plate_fsi.cli")
    else:
        cli = tracer.call("cli.import", importlib.import_module, "plate_fsi.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"plate_fsi was imported from {cli.__file__}, not from {SRC}")
    return cli, len(sys.modules) - before


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def call_main(main, argv, tracer: tracing.Tracer | None) -> int:
    try:
        if tracer is None:
            main(list(argv))
        else:
            tracer.call("cli.command", main, list(argv))
    except SystemExit as exc:
        return _exit_code(exc)
    return 0


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, cli, workload: str, seed: int, smoke: bool, sampler: speed.Sampler | None) -> None:
        self.cli = cli
        # Untraced, operations are also timed at the reference speed.
        self.sampler = sampler
        self.in_process = workload in wl.IN_PROCESS
        self.ops = wl.ops(workload, seed, smoke)
        # The timed operations are compared with reference.json on the default
        # seed; on any other seed the default-seed operations run once, untimed.
        self.reference = None
        self.reference_ops: list[wl.Op] = []
        if not smoke:
            self.reference = json.loads((Path(__file__).parent / "reference.json").read_text())[workload]
            if seed != wl.DEFAULT_SEED:
                self.reference_ops = wl.ops(workload, wl.DEFAULT_SEED)
        self.timed_reference = None if self.reference_ops else self.reference
        self.attempted = 0
        self.failed = 0
        self.ref_samples: list[float] = []
        self.problems: list[str] = []
        self.iterations = 0
        self.totals: dict[str, list[float]] = {}
        self.child_modules_loaded: list[int] = []
        self.missing: set[str] = set()
        # While set, each operation records peak memory before its outputs are
        # read back, so that the check's own allocations are not counted.
        self.rss_pending = False
        self.peak_rss_mb = 0.0
        self.spans_file = ROOT / wl.OUT_DIR / "spans.json"
        self.samples_file = ROOT / wl.OUT_DIR / "speed.json"
        (ROOT / wl.OUT_DIR).mkdir(exist_ok=True)
        for op in self.ops + self.reference_ops:
            wl.prepare(op)

    def _in_process(self, argv, tracer, sampled: bool) -> tuple[float, list[float], int, str]:
        buf = io.StringIO()
        gc.collect()
        if sampled:
            self.sampler.start()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = call_main(self.cli.main, argv, tracer)
        elapsed = time.perf_counter() - start
        samples = self.sampler.stop() if sampled else []
        return elapsed, samples, code, buf.getvalue()

    def _child(self, argv, traced: bool, sampled: bool) -> tuple[float, list[float], int, str]:
        if traced:
            self.spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__)), "traced-cli", str(self.spans_file), *argv]
        elif sampled:
            self.samples_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__)), "sampled-cli", str(self.samples_file), *argv]
        else:
            cmd = [sys.executable, "-m", "plate_fsi.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if traced:
            child = json.loads(self.spans_file.read_text())
            tracing.merge(self.totals, child["totals"])
            self.child_modules_loaded.append(child["modules_loaded"])
            self.missing.update(child["missing"])
        samples = json.loads(self.samples_file.read_text()) if sampled else []
        return elapsed, samples, proc.returncode, proc.stdout

    def run_op(self, op: wl.Op, tracer=None, traced=False, in_process=None, reference=None) -> float:
        """Run and check ``op``; return its wall time.

        When the runner has a sampler and the operation is timed, its time
        at the reference speed is appended to :attr:`ref_samples`.
        """
        self.attempted += 1
        sampled = self.sampler is not None and in_process is None
        start = time.perf_counter()
        try:
            if self.in_process if in_process is None else in_process:
                elapsed, samples, code, stdout = self._in_process(op.argv, tracer, sampled)
            else:
                elapsed, samples, code, stdout = self._child(op.argv, traced, sampled)
            if sampled:
                self.ref_samples.append(speed.rescale(elapsed, samples))
            if self.rss_pending:
                self.peak_rss_mb = _peak_rss_mb(self.in_process)
            problems = [] if code == 0 else [f"exit code {code}, expected 0"]
            if code == 0:
                digest, found = wl.check(op, stdout)
                problems += found
                if reference is not None:
                    problems += wl.compare(digest, reference[op.kind])
                if traced:
                    self.iterations += digest.get("iterations", 0)
        except Exception as exc:  # a crash of the program is a failed operation
            if sampled:
                self.sampler.stop()
            elapsed, problems = time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(op.argv)}: {p}" for p in problems]
        if traced and tracer is not None:
            tracing.merge(self.totals, tracer.drain())
        return elapsed

    def timed(self, seconds: float, tracer=None, traced: bool = False) -> list[float]:
        """Whole cycles of operations until their summed time reaches ``seconds``."""
        samples: list[float] = []
        while not samples or sum(samples) < seconds:
            samples += [self.run_op(op, tracer, traced, reference=self.timed_reference) for op in self.ops]
        return samples

    def check_reference(self) -> None:
        """Untimed and in-process: the default-seed operations against the reference."""
        for op in self.reference_ops:
            self.run_op(op, in_process=True, reference=self.reference)

    def probe(self) -> int | str:
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = call_main(self.cli.main, wl.PROBE_ARGV, None)
        except Exception as exc:  # a crash of the program is a failed probe
            code = f"{type(exc).__name__}: {exc}"
        if code != wl.PROBE_EXIT:
            self.failed += 1
            self.problems.append(f"probe {' '.join(wl.PROBE_ARGV)}: exit {code}, expected {wl.PROBE_EXIT}")
        return code


def _peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(args) -> int:
    tracer = tracing.Tracer() if args.trace else None
    sampler = None if args.trace else speed.Sampler()
    if sampler is not None:
        sampler.start()
    cli, modules_loaded = import_cli(tracer)
    runner = Runner(cli, args.workload, args.seed, args.smoke, sampler)
    # The end of set-up, and the kernel times sampled during it.
    setup_samples = sampler.stop() if sampler is not None else []
    print(f"ready {time.time()!r} {json.dumps(setup_samples, separators=(',', ':'))}", flush=True)
    if args.setup_only:
        return 0
    import_totals = tracer.drain() if tracer else {}
    budget = args.seconds / 2 if args.trace else args.seconds
    # Peak memory covers the first cycle only: later operations in the same
    # process add allocator growth that varies from run to run.
    runner.rss_pending = True
    samples = runner.timed(0.0)
    runner.rss_pending = False
    samples += runner.timed(budget - sum(samples))
    result: dict = {"samples": samples, "ref_samples": runner.ref_samples, "peak_rss_mb": runner.peak_rss_mb}
    result["probe_exit"] = runner.probe()
    runner.check_reference()
    if tracer is not None:
        if runner.in_process:
            tracer.install()
            runner.missing.update(tracer.missing)
        traced = runner.timed(budget, tracer if runner.in_process else None, traced=True)
        layers = tracing.layer_metrics(runner.totals, len(traced))
        if runner.in_process:
            layers["cli.import_s"] = import_totals["cli.import"][1]
            layers["cli.modules_loaded"] = modules_loaded
        else:
            layers["cli.modules_loaded"] = statistics.mean(runner.child_modules_loaded)
        layers["fixpoint.iterations"] = runner.iterations / len(traced)
        layers["trace.overhead"] = statistics.median(traced) / statistics.median(samples)
        # In-process workloads import once per run, not once per operation.
        self_times = [name for _, name in tracing.SPAN_METRICS.values()
                      if not (runner.in_process and name == "cli.import_s")]
        result.update(
            traced_samples=traced,
            layers=layers,
            largest_self_time=max(self_times, key=layers.get),
            missing=sorted(runner.missing),
        )
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems[:20])
    print(json.dumps(result), flush=True)
    return 0


def traced_cli(spans_file: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    cli, modules_loaded = import_cli(tracer)
    tracer.install()
    code = 0
    try:
        code = call_main(cli.main, argv, tracer)
    finally:
        child = {"totals": tracer.drain(), "modules_loaded": modules_loaded, "missing": tracer.missing}
        Path(spans_file).write_text(json.dumps(child))
    return code


def sampled_cli(samples_file: str, argv: list[str]) -> int:
    sampler = speed.Sampler()
    sampler.start()
    try:
        cli, _ = import_cli(None)
        return call_main(cli.main, argv, None)
    finally:
        Path(samples_file).write_text(json.dumps(sampler.stop()))


def main() -> int:
    os.chdir(ROOT)
    if sys.argv[1:2] == ["traced-cli"]:
        return traced_cli(sys.argv[2], sys.argv[3:])
    if sys.argv[1:2] == ["sampled-cli"]:
        return sampled_cli(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
