"""Command-line interface: exit codes, output schemas, config handling."""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from plate_fsi.cli import (
    _BLOCK,
    _COMMANDS,
    ConfigError,
    _default_points,
    _linear_rows,
    _parse_complex,
    _parser,
    _write_fields_csv,
    _write_steps_csv,
    load_config,
    main,
)
from plate_fsi.frequency import build_profile, residual_report, solve_traces
from plate_fsi.params import Freq, PlateParams
from plate_fsi.timedomain.grid import Grid, Trajectory

SRC = Path(__file__).resolve().parent.parent / "src"

# Values at the edges of "%.12g": signed zero, subnormal, extreme exponents,
# the switch from fixed to exponent form at 12 digits, and non-finite ones.
EDGE_VALUES = [
    -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 123456789012345.0,
    123456789012.0, 1234567890123.0, 1e-4, 1e-5, -2.5e-7, 3e16, np.inf, -np.inf, np.nan,
]

# Reduced resolution so every invocation stays fast; the acceptance suite
# exercises the default configuration.
REDUCED = [
    "--set", "N=16", "--set", "M=32", "--set", "T=0.25", "--set", "dt=0.03125",
]

COMMANDS = ["analyze-symbol", "polygon", "solve-linear", "simulate", "check-compat", "index"]


class _Tee(io.StringIO):
    """A captured stream that also copies its text into ``both``."""

    def __init__(self, both: io.StringIO) -> None:
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


class Runner:
    """Calls ``main(argv)`` in-process and records what a user sees.

    The result has ``exit_code``, ``stdout``, ``stderr``, ``output`` (both
    streams interleaved) and ``exception``: ``None`` after exit code 0, the
    ``SystemExit`` after any other, or an exception that escaped ``main``
    (exit code 1).
    """

    def invoke(self, main, argv: list[str]) -> SimpleNamespace:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        code, exception = 0, None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main(argv)
            except SystemExit as exc:
                code, exception = exc.code, exc if exc.code else None
            except Exception as exc:
                code, exception = 1, exc
        return SimpleNamespace(
            exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
            output=both.getvalue(), exception=exception,
        )


@pytest.fixture()
def runner() -> Runner:
    return Runner()


@pytest.fixture()
def corrupt_p0(monkeypatch: pytest.MonkeyPatch) -> None:
    """Perturb every pressure trace of the frequency layer by 1 %.

    ``solve-linear`` imports ``solve_traces`` when it runs, so it picks
    up the patched function.
    """
    import plate_fsi.frequency as frequency

    solve = frequency.solve_traces

    def corrupted(*args, **kwargs):
        traces = solve(*args, **kwargs)
        return dataclasses.replace(traces, p0_hat=traces.p0_hat * 1.01)

    monkeypatch.setattr(frequency, "solve_traces", corrupted)


class TestContract:
    """What every subcommand shares: config errors and ``--check``."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_key_is_config_error(self, runner: Runner, command: str) -> None:
        res = runner.invoke(main, [command, "--set", "bogus=1"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("config error: bogus:")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze-symbol", "--check"],
            ["polygon", "--check"],
            ["solve-linear", "--check"],
            ["simulate", *REDUCED, "--check"],
            ["check-compat", *REDUCED, "--check"],
            ["index", "--check"],
            # The divergence defect is rounding relative to sup|v| / h0:
            # 1.6e-9 (2D) and 1.2e-10 (3D) at this amplitude, 1.5e-15 and
            # 5.6e-16 of that scale.
            pytest.param(
                ["simulate", "--check", "--set", "amplitude=1e7"], id="simulate-amplitude-1e7"
            ),
            pytest.param(
                ["simulate", "--check", "--set", "amplitude=1e7",
                 "--set", "n=3", "--set", "N=8", "--set", "M=16"],
                id="simulate-3d-amplitude-1e7",
            ),
        ],
        ids=lambda argv: argv[0],
    )
    def test_check_mode(self, runner: Runner, argv: list[str]) -> None:
        res = runner.invoke(main, argv)
        assert res.exit_code == 0
        assert "check: ok" in res.stdout

    @pytest.mark.parametrize("p", ["1", "-1"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exponent_at_most_one_is_config_error(
        self, runner: Runner, tmp_path: Path, command: str, p: str
    ) -> None:
        # The Lp theory behind every layer needs 1 < p < inf.
        argv = [command, "--set", f"p={p}"]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        res = runner.invoke(main, argv)
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == f"config error: p: must be > 1, got {float(p)!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--set", "N=8", "--set", "M=16", "--set", "T=0.0625", "--out", "sub"],
            ["solve-linear", "--grid", "2x2", "--out", "x.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_is_config_error(
        self, runner: Runner, tmp_path: Path, argv: list[str]
    ) -> None:
        # the output goes below a plain file
        blocker = tmp_path / "file"
        blocker.write_text("")
        res = runner.invoke(main, [*argv[:-1], str(blocker / argv[-1])])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("config error: out:")
        assert res.stderr.count("\n") == 1

    def test_option_surface(self) -> None:
        # A new option shows up here as a diff of this table.
        common = ["--check", "--json", "--set", "--config"]
        expected = {
            "analyze-symbol": common,
            "polygon": common,
            "solve-linear": common + ["--lambda", "--z", "--grid", "--out"],
            "simulate": common + ["--out"],
            "check-compat": common,
            "index": common,
        }
        (commands,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: [
                opt for action in parser._actions if not isinstance(action, argparse._HelpAction)
                for opt in action.option_strings
            ]
            for name, parser in commands.choices.items()
        }
        assert options == expected

    @pytest.mark.parametrize(
        "argv",
        [["index", "--bogus"], ["index", "--js"], ["solve-linear", "--out"],
         ["solve-linear", "--z", "x"], ["bogus"], []],
        ids=["unknown-option", "option-prefix", "missing-value", "not-a-number",
             "unknown-command", "no-command"],
    )
    def test_usage_error_exits_2(self, runner: Runner, argv: list[str]) -> None:
        res = runner.invoke(main, argv)
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "usage:" in res.stderr

    def test_option_value_may_start_with_a_dash(self, runner: Runner) -> None:
        # it is the value, not an option: here an unknown key
        res = runner.invoke(main, ["index", "--set", "-n=3"])
        assert res.exit_code == 1
        assert res.stderr == "config error: -n: unknown configuration key\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_shows_the_docstring(self, runner: Runner, command: str) -> None:
        res = runner.invoke(main, [command, "--help"])
        assert res.exit_code == 0
        assert _COMMANDS[command][0].__doc__ in " ".join(res.stdout.split())

    def test_last_set_wins(self, runner: Runner) -> None:
        point = ["solve-linear", "--lambda", "1+0i", "--z", "1", "--json"]
        twice, once, first = (
            runner.invoke(main, [*point, *sets]).stdout
            for sets in (["--set", "alpha=2", "--set", "alpha=3"], ["--set", "alpha=3"],
                         ["--set", "alpha=2"])
        )
        assert twice == once != first


class TestConfig:
    def test_defaults(self) -> None:
        cfg = load_config(None, ())
        assert cfg["alpha"] == 1.0
        assert cfg["n"] == 2
        assert cfg["N"] == 32
        assert cfg["dt"] == pytest.approx(0.5 / 64.0)

    def test_file_with_comments_and_overrides(self, tmp_path: Path) -> None:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# sample configuration\n"
            "alpha = 2.5   # stiffer plate\n"
            "\n"
            "N = 16\n"
        )
        cfg = load_config(str(cfg_file), ("alpha=3.0",))
        assert cfg["alpha"] == 3.0  # --set wins over the file
        assert cfg["N"] == 16
        assert cfg["gamma"] == 1.0  # untouched default

    def test_unknown_key_names_the_key(self, tmp_path: Path) -> None:
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("viscosity = 2\n")
        with pytest.raises(ConfigError, match="viscosity"):
            load_config(str(cfg_file), ())

    def test_unparsable_value(self) -> None:
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(None, ("N=sixteen",))

    def test_set_requires_key_value(self) -> None:
        with pytest.raises(ConfigError, match="key=value"):
            load_config(None, ("alpha",))

    def test_missing_file(self) -> None:
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg", ())


class TestAnalyzeSymbol:
    def test_default_run(self, runner: Runner) -> None:
        res = runner.invoke(main, ["analyze-symbol", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["vertices"] == [[6.0, 0.0], [2.0, 2.0], [0.0, 2.5]]
        assert payload["pass"] is True
        assert not payload["sector_too_wide"]
        assert payload["theta"] == pytest.approx(
            (payload["phi"] - payload["phi0"]) / 8.0
        )

    def test_sector_beyond_half_pi_exits_2(self, runner: Runner) -> None:
        res = runner.invoke(main, ["analyze-symbol", "--set", "phi=1.6"])
        assert res.exit_code == 2

    def test_invalid_parameter_exits_1(self, runner: Runner) -> None:
        res = runner.invoke(main, ["analyze-symbol", "--set", "alpha=-1"])
        assert res.exit_code == 1
        assert "alpha" in res.output

    def test_sector_too_wide_with_default_theta_exits_2(self, runner: Runner) -> None:
        # phi <= phi0 = pi/3 leaves no tangential sector for the default theta
        res = runner.invoke(main, ["analyze-symbol", "--set", "phi=0.5", "--json"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        payload = json.loads(res.stdout)
        assert payload["sector_too_wide"] is True
        assert payload["pass"] is False
        assert payload["theta"] is None

    @pytest.mark.parametrize(
        ("key", "value"),
        [("phi", "0"), ("phi", "-1"), ("phi", "4"), ("phi", "nan"),
         ("theta", "0"), ("theta", "-1"), ("theta", "4")],
    )
    def test_angle_out_of_range_names_the_key(
        self, runner: Runner, key: str, value: str
    ) -> None:
        res = runner.invoke(main, ["analyze-symbol", "--set", f"{key}={value}"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith(f"config error: {key}: vertex angle must lie in (0, pi]")

    def test_overflowing_coefficient_is_config_error_without_warnings(
        self, runner: Runner
    ) -> None:
        # gamma lam z^4 overflows on the sampled grid, |lam|, |z| up to 1e3
        res = runner.invoke(main, ["analyze-symbol", "--set", "gamma=1e300", "--json"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == (
            "config error: gamma = 1e+300 is out of range: the principal part "
            "of weight r = 2 is not finite on the sector grid\n"
        )


class TestPolygon:
    def test_exact_report(self, runner: Runner) -> None:
        res = runner.invoke(main, ["polygon", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["vertices"] == [["6", "0"], ["2", "2"], ["0", "5/2"]]
        assert payload["relevant_weights"] == ["1", "2", "3", "4", "8"]


class TestSolveLinear:
    def test_default_sweep_csv(self, runner: Runner) -> None:
        res = runner.invoke(main, ["solve-linear"])
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "re_lambda,im_lambda,z,eta_abs,p0_abs,residual_max,pass"
        data = lines[2:]
        assert len(data) == 64
        assert all(line.endswith(",1") for line in data)

    def test_json_sweep(self, runner: Runner) -> None:
        res = runner.invoke(main, ["solve-linear", "--json", "--grid", "3x2"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert len(payload["rows"]) == 6
        assert payload["pass"] is True

    def test_degenerate_single_point(self, runner: Runner) -> None:
        from plate_fsi.frequency import DegenerateTangentialFrequency

        with pytest.warns(DegenerateTangentialFrequency):
            res = runner.invoke(
                main, ["solve-linear", "--lambda", "1+0i", "--z", "0", "--json"]
            )
        assert res.exit_code == 0
        row = json.loads(res.stdout)["rows"][0]
        assert row["eta_abs"] == 0.0
        assert row["p0_abs"] == pytest.approx(1.0)

    def test_lambda_requires_z(self, runner: Runner) -> None:
        res = runner.invoke(main, ["solve-linear", "--lambda", "1+0i"])
        assert res.exit_code == 1

    def test_bad_grid_spec(self, runner: Runner) -> None:
        res = runner.invoke(main, ["solve-linear", "--grid", "8"])
        assert res.exit_code == 1
        assert "grid" in res.output

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_dimension_below_two_is_config_error(self, runner: Runner, n: str) -> None:
        for argv in (["solve-linear"], ["solve-linear", "--check"]):
            res = runner.invoke(main, [*argv, "--set", f"n={n}"])
            assert isinstance(res.exception, SystemExit), res.exception
            assert res.exit_code == 1
            assert res.stdout == ""
            assert res.stderr == f"config error: n must be >= 2, got {n}\n"

    @pytest.mark.parametrize("lam", ["-0.5+0.2j", "-0.5+0.2i"])
    def test_negative_lambda_after_a_space(self, runner: Runner, lam: str) -> None:
        res = runner.invoke(main, ["solve-linear", "--lambda", lam, "--z", "1", "--json"])
        assert res.exit_code == 0, res.output
        (row,) = json.loads(res.stdout)["rows"]
        assert (row["re_lambda"], row["im_lambda"], row["z"]) == (-0.5, 0.2, 1.0)

    def test_negative_z_is_config_error(self, runner: Runner) -> None:
        res = runner.invoke(main, ["solve-linear", "--lambda", "1+0i", "--z", "-1"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert "config error: z must be nonnegative" in res.output

    def test_resonant_point_is_config_error(self, runner: Runner) -> None:
        # a root of the response denominator at z = 1
        res = runner.invoke(
            main,
            ["solve-linear", "--lambda=-0.5652671817007391+0.2139361209093594j", "--z", "1"],
        )
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert "config error: response denominator" in res.output

    def test_omega_zero_is_config_error_without_warnings(self, runner: Runner) -> None:
        # lam = -z^2: omega = 0.  The warnings filter turns a 0/0 on the
        # way into an error that is not a SystemExit.
        res = runner.invoke(main, ["solve-linear", "--lambda=-1+0j", "--z", "1"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stderr.startswith("config error: omega = 0")
        assert "Warning" not in res.stderr

    @pytest.mark.parametrize(
        ("lam", "z", "message"),
        [
            ("nan", "1", "lambda: must be finite"),
            ("inf", "1", "lambda: must be finite"),
            ("-inf", "1", "lambda: must be finite"),
            ("1+infi", "1", "lambda: must be finite"),
            ("1", "inf", "z: must be finite"),
            ("1", "nan", "z: must be finite"),
            ("1e308+1e308i", "1", "lambda: the traces are not finite"),
        ],
    )
    def test_non_finite_point_is_config_error_without_warnings(
        self, runner: Runner, lam: str, z: str, message: str
    ) -> None:
        res = runner.invoke(main, ["solve-linear", "--lambda", lam, "--z", z, "--json"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        ("text", "value"),
        [("1+2i", 1 + 2j), ("2i", 2j), ("i", 1j), (" -1.5 - 0.5i ", -1.5 - 0.5j),
         ("3", 3 + 0j), ("1+2j", 1 + 2j)],
    )
    def test_lambda_imaginary_unit(self, text: str, value: complex) -> None:
        assert _parse_complex(text) == value

    @pytest.mark.parametrize("text", ["1+2ii", "i1", "1+xi"])
    def test_unparsable_lambda_is_config_error(self, runner: Runner, text: str) -> None:
        res = runner.invoke(main, ["solve-linear", "--lambda", text, "--z", "1"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stderr.startswith("config error: lambda: cannot parse complex number")

    def test_near_confluent_point_passes(self, runner: Runner) -> None:
        # omega - z = 9.5e-9: the decay exponents nearly coincide.
        res = runner.invoke(
            main, ["solve-linear", "--lambda", "1.9e-8+0j", "--z", "1", "--json"]
        )
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["pass"] is True

    @pytest.mark.usefixtures("corrupt_p0")
    def test_corrupted_pressure_trace_exits_3(self, runner: Runner) -> None:
        res = runner.invoke(main, ["solve-linear", "--grid", "2x2"])
        assert res.exit_code == 3

    def test_out_file(self, runner: Runner, tmp_path: Path) -> None:
        target = tmp_path / "sweep.csv"
        res = runner.invoke(
            main, ["solve-linear", "--grid", "2x2", "--out", str(target)]
        )
        assert res.exit_code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert len(lines) == 2 + 4

    @pytest.mark.usefixtures("corrupt_p0")
    def test_corrupted_pressure_trace_fails_every_point(self, runner: Runner) -> None:
        res = runner.invoke(main, ["solve-linear", "--grid", "3x3", "--json"])
        assert res.exit_code == 3
        payload = json.loads(res.stdout)
        assert len(payload["rows"]) == 9
        assert [row["pass"] for row in payload["rows"]] == [False] * 9
        assert payload["pass"] is False

    def test_json_values_are_plain(self, runner: Runner) -> None:
        res = runner.invoke(main, ["solve-linear", "--json", "--grid", "2x3"])
        assert res.exit_code == 0
        assert '"pass": true' in res.stdout
        for row in json.loads(res.stdout)["rows"]:
            assert row["pass"] is True
            for key, value in row.items():
                if key != "pass":
                    assert type(value) is float, key

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_csv_matches_row_by_row_formatter(
        self, runner: Runner, request: pytest.FixtureRequest, n: int, corrupt: bool
    ) -> None:
        if corrupt:
            request.getfixturevalue("corrupt_p0")
        res = runner.invoke(main, ["solve-linear", "--grid", "8x8", "--set", f"n={n}"])
        assert res.exit_code == (3 if corrupt else 0)
        params = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)
        table = _linear_rows(params, *_default_points("8x8"), n)
        lines = ["# schema=1", ",".join(table)]
        lines += [
            f"{re_lam:.12g},{im_lam:.12g},{z:.12g},{eta_abs:.12g},{p0_abs:.12g},"
            f"{residual_max:.6e},{int(passed)}"
            for re_lam, im_lam, z, eta_abs, p0_abs, residual_max, passed in zip(
                *(column.tolist() for column in table.values())
            )
        ]
        assert res.stdout == "\n".join(lines) + "\n"
        assert res.stdout.count(",0\n") == (64 if corrupt else 0)

    def test_blocked_sweep_matches_single_points(self) -> None:
        # 17 x 17 = 289 points: more than one block of the frequency layer.
        params = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)
        lam, z = _default_points("17x17")
        assert lam.size > _BLOCK
        table = _linear_rows(params, lam, z, 2)
        assert table["pass"].all()
        for i in (0, _BLOCK - 1, _BLOCK, lam.size - 1):
            freq = Freq(lam=complex(lam[i]), z=float(z[i]))
            traces = solve_traces(params, freq, 1.0)
            report = residual_report(
                params, freq, build_profile(params, freq, traces), 1.0
            )
            assert table["eta_abs"][i] == pytest.approx(abs(traces.eta_hat), rel=1e-14)
            assert table["p0_abs"][i] == pytest.approx(abs(traces.p0_hat), rel=1e-14)
            assert table["residual_max"][i] <= report.rel_tol
            assert report.passed


class TestSimulate:
    def test_zero_forcing_is_immediate_fixed_point(
        self, runner: Runner, tmp_path: Path
    ) -> None:
        res = runner.invoke(
            main,
            ["simulate", *REDUCED, "--set", "amplitude=0",
             "--json", "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 0
        summary = json.loads(res.stdout)
        assert summary["converged"] is True
        assert summary["iterations"] == 1

    def test_small_amplitude_writes_artifacts(
        self, runner: Runner, tmp_path: Path
    ) -> None:
        out = tmp_path / "run"
        res = runner.invoke(
            main, ["simulate", *REDUCED, "--json", "--out", str(out)]
        )
        assert res.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        steps = (out / "steps.csv").read_text().splitlines()
        assert steps[0] == "# schema=1"
        assert steps[1] == "t,v_sup,eta_sup,residual"
        assert len(steps) == 2 + 8 + 1  # header rows + steps + initial state
        fields = (out / "fields.csv").read_text().splitlines()
        assert fields[0] == "# schema=1"
        assert len(fields) == 2 + 16 * 33

    def test_runs_are_deterministic(self, runner: Runner, tmp_path: Path) -> None:
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(
                main, ["simulate", *REDUCED, "--json", "--out", str(out)]
            )
            assert res.exit_code == 0
            outputs.append(
                (out / "steps.csv").read_bytes()
                + (out / "fields.csv").read_bytes()
                + (out / "summary.json").read_bytes()
            )
        assert outputs[0] == outputs[1]

    def test_large_amplitude_exits_4(self, runner: Runner, tmp_path: Path) -> None:
        res = runner.invoke(
            main,
            ["simulate", *REDUCED, "--set", "amplitude=40",
             "--json", "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 4
        payload = json.loads(res.stdout)
        assert payload["no_contraction"] is True
        assert payload["contraction_ratios"]

    def test_overflowing_iterate_exits_4_without_warnings(
        self, runner: Runner, tmp_path: Path
    ) -> None:
        res = runner.invoke(
            main,
            ["simulate", *REDUCED, "--set", "amplitude=1e100",
             "--json", "--out", str(tmp_path / "out")],
        )
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 4
        assert res.stderr == ""
        payload = json.loads(res.stdout)
        assert payload["no_contraction"] is True
        assert payload["message"] == "iterate 3 left the finite range"

    @pytest.mark.parametrize("amplitude", ["1e308", "inf", "nan"])
    def test_non_finite_forcing_is_config_error(
        self, runner: Runner, tmp_path: Path, amplitude: str
    ) -> None:
        # 1e308 is finite, but the forcing 4 * amplitude is not.
        res = runner.invoke(
            main,
            ["simulate", *REDUCED, "--set", f"amplitude={amplitude}",
             "--out", str(tmp_path / "out")],
        )
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stderr.startswith("config error: amplitude: the data are not finite")
        assert "Warning" not in res.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", [2, 3])
    def test_fields_csv_matches_row_by_row_writer(
        self, n: int, tmp_path: Path, rng: np.random.Generator
    ) -> None:
        grid = Grid(n=n, N=8, M=16, T=0.25, dt=0.25)
        bulk = grid.tan_shape + (grid.M + 1,)
        v, p = rng.normal(size=(n,) + bulk), rng.normal(size=bulk)
        eta, eta_t = rng.normal(size=grid.tan_shape), rng.normal(size=grid.tan_shape)
        # Edge values at the start of each field, so that one % per point
        # is seen to format them as the per-value "%.12g" below does.
        for field, edges in zip((*v, p, eta, eta_t), [EDGE_VALUES, EDGE_VALUES[::-1]] * 3):
            field.flat[: len(edges)] = edges[: field.size]
        # a zero level in front: the writer dumps the last level
        traj = Trajectory(*(np.stack([np.zeros_like(f), f]) for f in (v, p, eta, eta_t)))
        _write_fields_csv(tmp_path / "fields.csv", grid, traj)
        coords = [x.ravel() for x in grid.tangential_coordinates()]
        tan_names = ["x1", "x2"][: n - 1]
        names = tan_names + ["xn"] + [f"v{i + 1}" for i in range(n)] + ["p", "eta", "eta_t"]
        lines = ["# schema=1", ",".join(names)]
        for i in range(len(coords[0])):
            tan = np.unravel_index(i, grid.tan_shape)
            for j, xn in enumerate(grid.mesh.nodes):
                values = [c[i] for c in coords] + [xn]
                values += [v[(k, *tan, j)] for k in range(n)] + [p[(*tan, j)]]
                values += [eta[tan], eta_t[tan]]
                lines.append(",".join("%.12g" % float(x) for x in values))
        got = (tmp_path / "fields.csv").read_text().split("\n")
        assert got[-1] == "" and len(got) == len(lines) + 1
        # the first differing row, not a diff of the whole file
        assert next((pair for pair in zip(got, lines) if pair[0] != pair[1]), None) is None

    def test_fields_csv_memory_is_bounded(self, tmp_path: Path, rng: np.random.Generator) -> None:
        # One sim3d-sized level: 66,560 rows, about 9 MB of text.  The
        # writer holds one tangential point's rows, not the whole table.
        grid = Grid(n=3, N=32, M=64, T=0.125, dt=0.125)
        bulk = grid.tan_shape + (grid.M + 1,)
        shapes = [(3,) + bulk, bulk, grid.tan_shape, grid.tan_shape]
        traj = Trajectory(*(rng.normal(size=(1,) + shape) for shape in shapes))
        tracemalloc.start()
        try:
            _write_fields_csv(tmp_path / "fields.csv", grid, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 2.2 MB, most of it the level's (point, node, field) copy
        assert peak < 8 * 2**20

    def test_steps_csv_takes_its_sups_one_level_at_a_time(
        self, tmp_path: Path, rng: np.random.Generator
    ) -> None:
        grid = Grid(n=3, N=16, M=32, T=0.25, dt=1 / 64)
        levels, bulk = grid.steps + 1, grid.tan_shape + (grid.M + 1,)
        shapes = [(3,) + bulk, bulk, grid.tan_shape, grid.tan_shape]
        traj = Trajectory(*(rng.normal(size=(levels,) + shape) for shape in shapes))
        result = SimpleNamespace(trajectory=traj, step_residuals=rng.random(levels).tolist())
        tracemalloc.start()
        try:
            _write_steps_csv(tmp_path / "steps.csv", grid, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 0.2 MB, one level's |v|; the whole |v| is 3.4 MB
        assert peak < traj.v.nbytes / 4
        v_sup, eta_sup = (np.abs(f).max(axis=tuple(range(1, f.ndim))) for f in (traj.v, traj.eta))
        rows = (tmp_path / "steps.csv").read_text().splitlines()[2:]
        assert rows == [
            f"{k * grid.dt:.12g},{v:.12g},{eta:.12g},{res:.6e}"
            for k, (v, eta, res) in enumerate(zip(v_sup, eta_sup, result.step_residuals))
        ]

    def test_subcritical_exponent_exits_1(
        self, runner: Runner, tmp_path: Path
    ) -> None:
        res = runner.invoke(
            main,
            ["simulate", *REDUCED, "--set", "p=1.2", "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 1
        assert "config error" in res.output

    def test_no_iterations_is_config_error(
        self, runner: Runner, tmp_path: Path
    ) -> None:
        res = runner.invoke(
            main,
            ["simulate", *REDUCED, "--set", "max_iter=0", "--out", str(tmp_path / "out")],
        )
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert "config error: max_iter" in res.output

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_is_config_error(
        self, runner: Runner, tmp_path: Path, tol: str
    ) -> None:
        res = runner.invoke(
            main, ["simulate", *REDUCED, "--set", f"tol={tol}", "--out", str(tmp_path / "out")]
        )
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("config error: tol: must be finite and nonnegative")

    @pytest.mark.parametrize(
        ("command", "key", "value", "message"),
        [
            ("simulate", "p", "1.2",
             "p: 1.2 is below the quadratic embedding threshold 4/3 for n = 2"),
            ("simulate --check", "p", "1.2",
             "p: 1.2 is below the quadratic embedding threshold 4/3 for n = 2"),
            ("simulate", "dt", "0.1", "dt: T / dt = 2.5 is not integral"),
            ("check-compat", "dt", "0.1", "dt: T / dt = 2.5 is not integral"),
            ("simulate", "dt", "-1", "dt must be positive, got -1.0"),
            ("check-compat", "T", "0", "T must be positive, got 0.0"),
            ("simulate --check", "tol", "-1", "tol: must be finite and nonnegative, got -1.0"),
            ("simulate --check", "max_iter", "0", "max_iter: must be at least 1, got 0"),
        ],
        ids=[
            "simulate-p", "simulate-check-p", "simulate-dt", "check-compat-dt",
            "simulate-dt-negative", "check-compat-T-zero", "simulate-check-tol",
            "simulate-check-max-iter",
        ],
    )
    def test_time_domain_config_error_starts_with_its_key(
        self, runner: Runner, tmp_path: Path, command: str, key: str, value: str,
        message: str,
    ) -> None:
        argv = [*command.split(), *REDUCED, "--set", f"{key}={value}"]
        if argv[0] == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        res = runner.invoke(main, argv)
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert message.startswith((f"{key}:", f"{key} "))
        assert res.stderr == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_zero_tolerance_reaches_an_exact_fixed_point(
        self, runner: Runner, tmp_path: Path
    ) -> None:
        res = runner.invoke(
            main, ["simulate", *REDUCED, "--set", "tol=0", "--json", "--out", str(tmp_path / "out")]
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.stdout)
        assert payload["converged"] is True
        assert payload["residual"] == 0.0

    def test_zero_tolerance_stops_at_the_rounding_floor(
        self, runner: Runner, tmp_path: Path
    ) -> None:
        # This 3D grid never reaches an exact fixed point: from the fourth
        # sweep on the differences sit at about 2e-14 of the norm and their
        # ratios hover around one, the last three of these twelve sweeps
        # all above 0.95.  That is rounding, not data too large: the run
        # goes on to max_iter and reports a result that is not converged.
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["simulate", "--set", "n=3", "--set", "N=16", "--set", "M=32",
             "--set", "T=0.125", "--set", "amplitude=1e-2", "--set", "tol=0",
             "--set", "max_iter=12", "--json", "--out", str(out)],
        )
        assert res.exit_code == 3, res.output
        payload = json.loads(res.stdout)
        assert payload["converged"] is False
        assert payload["iterations"] == 12
        assert min(payload["contraction_ratios"][-3:]) > 0.95
        assert 0.0 < payload["residual"] <= 1e-10 * payload["scale"]
        assert (out / "summary.json").exists()


    def test_zero_tolerance_stops_when_the_difference_repeats(
        self, runner: Runner, tmp_path: Path
    ) -> None:
        # Late in this run a difference, at about 4e-29 of the norm, equals
        # the one before it bit for bit; every further sweep repeats it, up
        # to max_iter = 25 when the run does not stop there.
        argv = ["simulate", "--set", "N=128", "--set", "M=32", "--set", "T=0.125",
                "--set", "tol=0", "--json", "--out"]
        res = runner.invoke(main, [*argv, str(tmp_path / "a")])
        assert res.exit_code == 3, res.output
        payload = json.loads(res.stdout)
        assert payload["converged"] is False
        assert payload["iterations"] < 25
        assert payload["contraction_ratios"][-1] == 1.0
        # the same sweeps with the last one as the probe: the residual is
        # that of the returned trajectory
        capped = [*argv, str(tmp_path / "b"), "--set", f"max_iter={payload['iterations']}"]
        assert runner.invoke(main, capped).stdout == res.stdout
        for name in ("summary.json", "steps.csv", "fields.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCheckCompat:
    def test_compatible_family_passes(self, runner: Runner) -> None:
        res = runner.invoke(main, ["check-compat", *REDUCED, "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["passed"] is True
        assert [item["name"] for item in payload["items"]] == [
            "divergence-data",
            "duality-pairing",
            "no-slip-trace",
            "kinematic-trace",
        ]

    @pytest.mark.parametrize("n", [2, 3])
    def test_short_strip_passes(self, runner: Runner, n: int) -> None:
        # At L = 1 the lid X = 8 is close enough that the trace bump must
        # vanish there for the duality pairing to close.
        res = runner.invoke(
            main, ["check-compat", *REDUCED, "--set", "L=1", "--set", f"n={n}", "--json"]
        )
        assert res.exit_code == 0, res.stdout
        payload = json.loads(res.stdout)
        assert payload["passed"] is True
        pairing = next(i for i in payload["items"] if i["name"] == "duality-pairing")
        assert pairing["value"] < 1e-15

    @pytest.mark.parametrize("amplitude", ["1e308", "inf", "nan"])
    def test_non_finite_data_is_config_error(
        self, runner: Runner, amplitude: str
    ) -> None:
        res = runner.invoke(
            main, ["check-compat", *REDUCED, "--set", f"amplitude={amplitude}", "--json"]
        )
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("config error: amplitude: the data are not finite")
        assert "Warning" not in res.stderr

    def test_huge_finite_data_pass_without_warnings(self, runner: Runner) -> None:
        # Only the divergence correction is evaluated; the momentum term
        # would overflow at this amplitude.  Warnings are errors here.
        res = runner.invoke(
            main, ["check-compat", *REDUCED, "--set", "amplitude=1e300", "--json"]
        )
        assert res.exception is None, res.exception
        assert res.exit_code == 0
        assert res.stderr == ""
        assert json.loads(res.stdout)["passed"] is True

    def test_small_exponent_skips_traces(self, runner: Runner) -> None:
        res = runner.invoke(
            main, ["check-compat", *REDUCED, "--set", "p=1.4", "--json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        statuses = {item["name"]: item["status"] for item in payload["items"]}
        assert statuses["no-slip-trace"] == "NOT_REQUIRED"
        assert statuses["kinematic-trace"] == "NOT_REQUIRED"


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        ("command", "key", "value"),
        [
            ("simulate", "T", "inf"),
            ("check-compat", "T", "inf"),
            ("index", "p", "inf"),
            ("simulate", "X", "inf"),
            ("simulate --check", "X", "inf"),
            ("simulate", "L", "inf"),
            ("simulate", "L", "nan"),
            ("simulate", "X", "nan"),
            ("simulate", "T", "nan"),
            ("simulate", "dt", "nan"),
            ("simulate", "p", "nan"),
            ("check-compat", "p", "nan"),
        ],
    )
    def test_value_is_config_error_naming_the_key(
        self, runner: Runner, tmp_path: Path, command: str, key: str, value: str
    ) -> None:
        argv = [*command.split(), *REDUCED, "--set", f"{key}={value}"]
        if argv[0] == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        res = runner.invoke(main, argv)
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith(f"config error: {key}")
        assert "must be finite" in res.stderr
        assert "Warning" not in res.stderr
        assert not (tmp_path / "out").exists()


class TestGridLengths:
    @pytest.mark.parametrize("command", ["check-compat", "simulate"])
    @pytest.mark.parametrize(
        ("key", "value", "extra"),
        [("L", "1e300", []), ("L", "1e200", []), ("L", "1e308", []), ("L", "1e-100", []),
         ("X", "1e300", []), ("X", "1e308", []),
         # the vertical mesh on [0, 1] is fine; |xi|^4 at the top mode is not
         ("L", "1e-100", ["--set", "X=1"])],
    )
    def test_out_of_range_length_is_config_error_naming_the_key(
        self, runner: Runner, tmp_path: Path, command: str, key: str, value: str,
        extra: list[str],
    ) -> None:
        argv = [command, "--set", "N=8", "--set", "M=16", "--set", f"{key}={value}", *extra]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        res = runner.invoke(main, argv)
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == (
            f"config error: {key} = {float(value)!r} is out of range: "
            "the mesh arithmetic is not finite\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1e60", "1e-60"])
    def test_large_and_small_lengths_in_range_run(self, runner: Runner, value: str) -> None:
        res = runner.invoke(
            main, ["check-compat", "--set", "N=8", "--set", "M=16", "--set", f"L={value}", "--json"]
        )
        assert res.exit_code == 0, res.output
        assert res.stderr == ""


class TestIndex:
    def test_default_report(self, runner: Runner) -> None:
        res = runner.invoke(main, ["index", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["thresholds"] == {
            "n": 2, "quadratic": "4/3", "multiplier": "1", "triple": "7/6"
        }
        assert len(payload["catalog"]) == 9
        assert payload["all_hold"] is True

    def test_subcritical_exponent_reports_failures(self, runner: Runner) -> None:
        res = runner.invoke(main, ["index", "--set", "p=1.2", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["all_hold"] is False

    def test_invalid_dimension_exits_1(self, runner: Runner) -> None:
        res = runner.invoke(main, ["index", "--set", "n=1"])
        assert res.exit_code == 1


def _fresh_interpreter(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter, so modules imported by other
    tests do not count, and return the lines it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded(prefix: str) -> str:
    """Script line printing the loaded modules named ``prefix`` or below it."""
    return f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix + '.'!r})))\n"


SIMULATE_SMALL = ["simulate", "--json", "--set", "N=8", "--set", "M=16", "--set", "T=0.0625"]


@pytest.mark.parametrize(
    ("argv", "absent"),
    [
        (["index", "--json"], "scipy"),
        (["solve-linear", "--grid", "2x2", "--json"], "scipy"),
        (["polygon", "--json"], "scipy"),
        (["analyze-symbol", "--json"], "scipy"),
        # Only simulate loads scipy, for the sparse march and its LU; no
        # command needs scipy.interpolate.
        (SIMULATE_SMALL, "scipy.interpolate"),
        (["check-compat", "--json"], "scipy"),
        (["check-compat", "--json"], "scipy.interpolate"),
        (["check-compat", "--json"], "scipy.sparse.linalg"),
        # Each command imports only its own layer, and of the time-domain
        # layer only the submodules it runs.
        (["check-compat", "--json"], "plate_fsi.frequency"),
        (["check-compat", "--json"], "plate_fsi.timedomain.laplace"),
        (SIMULATE_SMALL, "plate_fsi.frequency"),
        (SIMULATE_SMALL, "plate_fsi.timedomain.compat"),
        (["index", "--json"], "plate_fsi.frequency"),
        (["index", "--json"], "plate_fsi.polygon"),
        (["polygon", "--json"], "plate_fsi.frequency"),
        (["polygon", "--json"], "plate_fsi.indices"),
        (["solve-linear", "--grid", "2x2", "--json"], "plate_fsi.polygon"),
        (["solve-linear", "--grid", "2x2", "--json"], "plate_fsi.indices"),
        # the command line is parsed with argparse
        *((argv, "click") for argv in (
            ["index", "--json"], ["solve-linear", "--grid", "2x2", "--json"],
            ["polygon", "--json"], ["analyze-symbol", "--json"], SIMULATE_SMALL,
            ["check-compat", "--json"],
        )),
    ],
    ids=[
        "index", "solve-linear", "polygon", "analyze-symbol", "simulate",
        "check-compat", "check-compat-interpolate", "check-compat-sparse-linalg",
        "check-compat-frequency", "check-compat-laplace",
        "simulate-frequency", "simulate-compat",
        "index-frequency", "index-polygon", "polygon-frequency", "polygon-indices",
        "solve-linear-polygon", "solve-linear-indices",
        "index-click", "solve-linear-click", "polygon-click", "analyze-symbol-click",
        "simulate-click", "check-compat-click",
    ],
)
def test_command_leaves_module_unloaded(
    argv: list[str], absent: str, tmp_path: Path
) -> None:
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "run")]
    script = (
        "import sys\n"
        "from plate_fsi.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
        + _loaded(absent)
    )
    assert _fresh_interpreter(script)[-2:] == ["0", "[]"]


def test_time_domain_import_leaves_sparse_lu_unloaded() -> None:
    script = "import sys\nimport plate_fsi.timedomain\n" + _loaded("scipy.sparse.linalg")
    assert _fresh_interpreter(script) == ["[]"]
