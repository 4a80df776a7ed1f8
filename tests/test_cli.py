"""Command-line interface: exit codes, output schemas, config handling."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from plate_fsi.cli import (
    _BLOCK,
    ConfigError,
    _default_points,
    _linear_rows,
    load_config,
    main,
)
from plate_fsi.config import TOL
from plate_fsi.frequency import build_profile, residual_report, solve_traces
from plate_fsi.params import Freq, PlateParams

SRC = Path(__file__).resolve().parent.parent / "src"

# Reduced resolution so every invocation stays fast; the acceptance suite
# exercises the default configuration.
REDUCED = [
    "--set", "N=16", "--set", "M=32", "--set", "T=0.25", "--set", "dt=0.03125",
]


@pytest.fixture()
def runner() -> CliRunner:
    return CliRunner()


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
    def test_default_run(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["analyze-symbol", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["vertices"] == [[6.0, 0.0], [2.0, 2.0], [0.0, 2.5]]
        assert payload["pass"] is True
        assert not payload["sector_too_wide"]
        assert payload["theta"] == pytest.approx(
            (payload["phi"] - payload["phi0"]) / 8.0
        )

    def test_check_mode(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["analyze-symbol", "--check"])
        assert res.exit_code == 0
        assert "check: ok" in res.stdout

    def test_sector_beyond_half_pi_exits_2(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["analyze-symbol", "--set", "phi=1.6"])
        assert res.exit_code == 2

    def test_invalid_parameter_exits_1(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["analyze-symbol", "--set", "alpha=-1"])
        assert res.exit_code == 1
        assert "alpha" in res.output


class TestPolygon:
    def test_exact_report(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["polygon", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["vertices"] == [["6", "0"], ["2", "2"], ["0", "5/2"]]
        assert payload["relevant_weights"] == ["1", "2", "3", "4", "8"]

    def test_check_mode(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["polygon", "--check"])
        assert res.exit_code == 0
        assert "check: ok" in res.stdout


class TestSolveLinear:
    def test_default_sweep_csv(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["solve-linear"])
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "re_lambda,im_lambda,z,eta_abs,p0_abs,residual_max,pass"
        data = lines[2:]
        assert len(data) == 64
        assert all(line.endswith(",1") for line in data)

    def test_json_sweep(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["solve-linear", "--json", "--grid", "3x2"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert len(payload["rows"]) == 6
        assert payload["pass"] is True

    def test_degenerate_single_point(self, runner: CliRunner) -> None:
        from plate_fsi.frequency import DegenerateTangentialFrequency

        with pytest.warns(DegenerateTangentialFrequency):
            res = runner.invoke(
                main, ["solve-linear", "--lambda", "1+0i", "--z", "0", "--json"]
            )
        assert res.exit_code == 0
        row = json.loads(res.stdout)["rows"][0]
        assert row["eta_abs"] == 0.0
        assert row["p0_abs"] == pytest.approx(1.0)

    def test_lambda_requires_z(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["solve-linear", "--lambda", "1+0i"])
        assert res.exit_code == 1

    def test_bad_grid_spec(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["solve-linear", "--grid", "8"])
        assert res.exit_code == 1
        assert "grid" in res.output

    def test_negative_z_is_config_error(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["solve-linear", "--lambda", "1+0i", "--z", "-1"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert "config error: z must be nonnegative" in res.output

    def test_resonant_point_is_config_error(self, runner: CliRunner) -> None:
        # a root of the response denominator at z = 1
        res = runner.invoke(
            main,
            ["solve-linear", "--lambda=-0.5652671817007391+0.2139361209093594j", "--z", "1"],
        )
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert "config error: response denominator" in res.output

    def test_near_confluent_point_passes(self, runner: CliRunner) -> None:
        # omega - z = 9.5e-9: the decay exponents nearly coincide.
        res = runner.invoke(
            main, ["solve-linear", "--lambda", "1.9e-8+0j", "--z", "1", "--json"]
        )
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["pass"] is True

    def test_corrupted_pressure_trace_exits_3(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["solve-linear", "--corrupt-p0", "--grid", "2x2"])
        assert res.exit_code == 3

    def test_out_file(self, runner: CliRunner, tmp_path: Path) -> None:
        target = tmp_path / "sweep.csv"
        res = runner.invoke(
            main, ["solve-linear", "--grid", "2x2", "--out", str(target)]
        )
        assert res.exit_code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert len(lines) == 2 + 4

    def test_check_mode(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["solve-linear", "--check"])
        assert res.exit_code == 0
        assert "check: ok" in res.stdout

    def test_corrupted_pressure_trace_fails_every_point(self, runner: CliRunner) -> None:
        res = runner.invoke(
            main, ["solve-linear", "--corrupt-p0", "--grid", "3x3", "--json"]
        )
        assert res.exit_code == 3
        payload = json.loads(res.stdout)
        assert len(payload["rows"]) == 9
        assert [row["pass"] for row in payload["rows"]] == [False] * 9
        assert payload["pass"] is False

    def test_json_values_are_plain(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["solve-linear", "--json", "--grid", "2x3"])
        assert res.exit_code == 0
        assert '"pass": true' in res.stdout
        for row in json.loads(res.stdout)["rows"]:
            assert row["pass"] is True
            for key, value in row.items():
                if key != "pass":
                    assert type(value) is float, key

    def test_blocked_sweep_matches_single_points(self) -> None:
        # 17 x 17 = 289 points: more than one block of the frequency layer.
        params = PlateParams(alpha=1.0, beta=0.0, gamma=1.0)
        lam, z = _default_points("17x17")
        assert lam.size > _BLOCK
        table = _linear_rows(params, lam, z, False, 2)
        assert table["pass"].all()
        for i in (0, _BLOCK - 1, _BLOCK, lam.size - 1):
            freq = Freq(lam=complex(lam[i]), z=float(z[i]))
            traces = solve_traces(params, freq, 1.0)
            report = residual_report(
                params, freq, build_profile(params, freq, traces), 1.0
            )
            assert table["eta_abs"][i] == pytest.approx(abs(traces.eta_hat), rel=1e-14)
            assert table["p0_abs"][i] == pytest.approx(abs(traces.p0_hat), rel=1e-14)
            assert table["residual_max"][i] <= TOL.residual_rel
            assert report.passed


class TestSimulate:
    def test_zero_forcing_is_immediate_fixed_point(
        self, runner: CliRunner, tmp_path: Path
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
        self, runner: CliRunner, tmp_path: Path
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

    def test_runs_are_deterministic(self, runner: CliRunner, tmp_path: Path) -> None:
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

    def test_large_amplitude_exits_4(self, runner: CliRunner, tmp_path: Path) -> None:
        res = runner.invoke(
            main,
            ["simulate", *REDUCED, "--set", "amplitude=40",
             "--json", "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 4
        payload = json.loads(res.stdout)
        assert payload["no_contraction"] is True
        assert payload["contraction_ratios"]

    def test_subcritical_exponent_exits_1(
        self, runner: CliRunner, tmp_path: Path
    ) -> None:
        res = runner.invoke(
            main,
            ["simulate", *REDUCED, "--set", "p=1.2", "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 1
        assert "config error" in res.output

    def test_no_iterations_is_config_error(
        self, runner: CliRunner, tmp_path: Path
    ) -> None:
        res = runner.invoke(
            main,
            ["simulate", *REDUCED, "--set", "max_iter=0", "--out", str(tmp_path / "out")],
        )
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        assert "config error: max_iter" in res.output

    def test_check_mode(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["simulate", *REDUCED, "--check"])
        assert res.exit_code == 0
        assert "check: ok" in res.stdout


class TestCheckCompat:
    def test_compatible_family_passes(self, runner: CliRunner) -> None:
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

    def test_small_exponent_skips_traces(self, runner: CliRunner) -> None:
        res = runner.invoke(
            main, ["check-compat", *REDUCED, "--set", "p=1.4", "--json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        statuses = {item["name"]: item["status"] for item in payload["items"]}
        assert statuses["no-slip-trace"] == "NOT_REQUIRED"
        assert statuses["kinematic-trace"] == "NOT_REQUIRED"

    def test_check_mode(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["check-compat", *REDUCED, "--check"])
        assert res.exit_code == 0
        assert "check: ok" in res.stdout


class TestIndex:
    def test_default_report(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["index", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["thresholds"] == {
            "n": 2, "quadratic": "4/3", "multiplier": "1", "triple": "7/6"
        }
        assert len(payload["catalog"]) == 9
        assert payload["all_hold"] is True

    def test_subcritical_exponent_reports_failures(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["index", "--set", "p=1.2", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["all_hold"] is False

    def test_invalid_dimension_exits_1(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["index", "--set", "n=1"])
        assert res.exit_code == 1

    def test_check_mode(self, runner: CliRunner) -> None:
        res = runner.invoke(main, ["index", "--check"])
        assert res.exit_code == 0
        assert "check: ok" in res.stdout


@pytest.mark.parametrize(
    ("argv", "absent"),
    [
        (["index", "--json"], "scipy"),
        (["solve-linear", "--grid", "2x2", "--json"], "scipy"),
        # The time-domain layer needs scipy.sparse, but only check-compat
        # needs scipy.interpolate.
        (["simulate", "--json", "--set", "N=8", "--set", "M=16", "--set", "T=0.0625"],
         "scipy.interpolate"),
    ],
    ids=["index", "solve-linear", "simulate"],
)
def test_command_leaves_module_unloaded(
    argv: list[str], absent: str, tmp_path: Path
) -> None:
    # A fresh interpreter, so modules imported by other tests do not count.
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "run")]
    script = (
        "import sys\n"
        "from plate_fsi.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"loaded = [m for m in sys.modules if (m + '.').startswith({absent + '.'!r})]\n"
        "print(code, sorted(loaded))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
