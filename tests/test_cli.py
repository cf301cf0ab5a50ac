"""Command-line interface: parsing, commands, determinism, round-trips."""

import csv
import io
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mobiuscs import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    if not text.strip():
        return []
    return list(csv.DictReader(io.StringIO(text)))


class TestParsing:
    @pytest.mark.parametrize("text,expected", [
        ("pi", math.pi),
        ("3pi", 3 * math.pi),
        ("-pi", -math.pi),
        ("pi/2", math.pi / 2),
        ("0.5pi", 0.5 * math.pi),
        ("1.25", 1.25),
        ("-2.5", -2.5),
    ])
    def test_parse_angle(self, text, expected):
        assert cli.parse_angle(text) == expected

    def test_parse_angle_rejects_garbage(self):
        with pytest.raises(Exception):
            cli.parse_angle("two pi")

    def test_parse_offset(self):
        assert cli.parse_offset("int") == 0.0
        assert cli.parse_offset("half") == 0.5
        assert cli.parse_offset("0.5") == 0.5

    def test_grid_parsing(self):
        axes = cli.parse_grid("phi=0:2pi:5,r=0.1:0.9:3")
        assert axes[0][0] == "phi"
        assert len(axes[0][1]) == 5
        assert axes[1][1][-1] == pytest.approx(0.9)


class TestCommands:
    def test_expect_j_half_sector(self, capsys):
        code, out, _ = run_cli(
            ["cs", "expect-j", "--l", "0", "--phi", "pi", "--r", "0.5", "--s", "half"],
            capsys)
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["expect_j"]) == pytest.approx(0.5, abs=1e-12)

    def test_spectrum_reference_row(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--r", "0.5", "--s", "half", "--j-max", "3", "--L0", "0"],
            capsys)
        assert code == 0
        rows = csv_rows(out)
        target = [r for r in rows if float(r["j"]) == 0.5]
        assert target and float(target[0]["E"]) == pytest.approx(0.11764705882352941, abs=1e-12)

    def test_theta_command(self, capsys):
        code, out, _ = run_cli(["theta", "--l", "0", "--phi", "0", "--r", "0"], capsys)
        assert code == 0
        rows = {r["quantity"]: float(r["value_re"]) for r in csv_rows(out)}
        assert rows["theta3_natural"] == pytest.approx(1.772637204826652, abs=1e-12)
        assert rows["modular_residual"] <= 1e-12

    def test_dynamics_export_schema(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            ["dynamics", "--phi", "0", "--j", "1", "--L0", "0.2", "--r", "0.5",
             "--t-end", "0.1", "--dt", "0.01", "--out", str(out_path)],
            capsys)
        assert code == 0
        text = out_path.read_text()
        lines = text.splitlines()
        assert lines[0] == "t,phi,phi_dot,z0,z0_dot,E,J,L0"
        assert len(lines) == 12  # header + 11 samples
        assert "\r" not in text

    def test_project_command(self, capsys):
        code, out, _ = run_cli(
            ["project", "--theta", "pi/2", "--phi", "0", "--delta", "0.1"], capsys)
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["indicator"]) == 1.0
        assert float(row["difference"]) <= 1e-3

    def test_verify_theta_suite(self, capsys):
        code, out, err = run_cli(["verify", "--suite", "theta"], capsys)
        assert code == 0
        assert all(r["passed"] == "true" for r in csv_rows(out))
        assert "PASS" in err

    def test_quantize(self, capsys):
        code, out, _ = run_cli(
            ["cs", "quantize", "--r", "0.5", "--l", "0", "--s", "half"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert [float(r["phi"]) for r in rows] == pytest.approx([math.pi, 3 * math.pi])

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(["cs", "expect-j", "--r", "1.5"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("flags", [
        ["--t-end", "inf"], ["--t-end", "nan"], ["--dt", "nan"], ["--phi", "nan"],
        ["--tol", "nan"], ["--tol", "-1"], ["--j", "1e200"],
    ])
    def test_dynamics_non_finite_input_exit_code(self, capsys, flags):
        code, out, err = run_cli(["dynamics", "--t-end", "1", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["cs", "expect-j", "--l", "40"],
        ["cs", "quantize", "--l", "30", "--r", "0.5", "--s", "half"],
        # exp(l'^2) and the occupation weights overflow past |l'| ~ 26.6
        ["theta", "--l", "30"],
        ["cs", "norm2", "--l", "40"],
        ["cs", "distribution", "--l", "40"],
        ["cs", "fidelity", "--l", "30"],
        ["cs", "expect-u", "--l", "40"],
        ["cs", "coeffs", "--l", "40"],
        ["cs", "overlap", "--l", "30", "--l2", "30"],
    ])
    def test_non_finite_result_exit_code(self, capsys, argv):
        # the precision failure is the only report: no numpy warning ahead of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("precision failure:")


    @pytest.mark.parametrize("flags", [
        ["--theta", "nan"], ["--phi", "nan"], ["--theta", "inf"], ["--delta", "inf"],
        ["--delta", "nan"], ["--delta", "1e200"], ["--theta", "1e200"],
    ])
    def test_project_non_finite_input_exit_code(self, capsys, flags):
        code, out, err = run_cli(["project", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestSweep:
    def test_border_momentum_column(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "expect-j", "--grid", "r=0.1:0.9:9", "--l", "0", "--phi", "pi",
             "--s", "half"],
            capsys)
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 9
        for row in rows:
            # at the border angle the momentum equals l + r up to the theta
            # correction, which is bounded by ~2*pi*e^{-pi^2} ~ 3.3e-4
            assert float(row["expect_j"]) == pytest.approx(float(row["r"]), abs=4e-4)

    def test_empty_grid(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "norm2", "--grid", "l=0:1:0"], capsys)
        assert code == 0
        assert csv_rows(out) == []

    def test_determinism(self, capsys):
        args = ["sweep", "gaussian-supnorm", "--grid", "phi=0:4pi:8", "--l", "0",
                "--r", "0.5"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_workers_do_not_change_output(self, capsys):
        for target in ("expect-j", "expect-u", "gaussian-supnorm"):
            base = ["sweep", target, "--grid", "l=-1:1:7", "--phi", "pi", "--r", "0.5"]
            _, serial, _ = run_cli(base, capsys)
            assert csv_rows(serial) and all(r["error"] == "" for r in csv_rows(serial))
            for workers in ("1", "2", "4"):
                _, out, _ = run_cli(base + ["--workers", workers], capsys)
                assert out == serial

    def test_non_finite_value_is_a_row_failure(self, capsys):
        code, out, _ = run_cli(["sweep", "norm2", "--grid", "l=0:40:3"], capsys)
        assert code == 1
        rows = csv_rows(out)
        assert [r["error"] for r in rows[:2]] == ["", ""]
        assert rows[2]["norm2"] == ""
        assert rows[2]["error"].startswith("PrecisionError:")
        assert "inf" not in out and "nan" not in out

    def test_row_failures_reported(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "norm2", "--grid", "r=0.5:1.5:3", "--l", "0", "--phi", "0"],
            capsys)
        assert code == 1
        rows = csv_rows(out)
        assert rows[0]["error"] == ""
        assert "DomainError" in rows[-1]["error"]


class TestEmit:
    @staticmethod
    def oracle_csv(rows):
        """The row-by-row writer that the columnar one replaced."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if rows:
            fieldnames = list(rows[0].keys())
            writer.writerow(fieldnames)
            for row in rows:
                writer.writerow([cli.fmt(row[k]) for k in fieldnames])
        return buffer.getvalue()

    @staticmethod
    def emitted(columns, fmt, tmp_path):
        out = tmp_path / f"table.{fmt}"
        cli.emit(columns, SimpleNamespace(format=fmt, out=str(out)), ["test"], {"n": 1})
        return out.read_bytes()

    def test_matches_row_writer(self, tmp_path):
        n = 2 * cli.CHUNK_ROWS + 7
        rng = np.random.default_rng(5)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:6] = [0.0, -0.0, 1e-320, 0.1, 1 / 3, -2.5e300]
        texts = ["", "plain", "a,b", 'say "hi"', "two\nlines", "50%", "%s%%", ",\"\n"]
        columns = {
            "array": floats,
            "float64": [np.float64(v) for v in floats[::-1]],
            "mixed": [[1.5, np.float64(-2.0), 3, np.int64(-4), True, False][i % 6]
                      for i in range(n)],
            "text": [texts[i % len(texts)] for i in range(n)],
            "floats_or_blank": ["" if i % 5 == 0 else float(i) / 7 for i in range(n)],
            "ints": np.arange(n),
            "ints_and_bools": [[True, 7, False, 2**60][i % 4] for i in range(n)],
        }
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        assert self.emitted(columns, "csv", tmp_path) == self.oracle_csv(rows).encode()
        artifact = {"command": ["test"], "config": {"n": 1}, "rows": rows}
        assert self.emitted(columns, "json", tmp_path) == (
            json.dumps(artifact, default=float) + "\n").encode()

    @pytest.mark.parametrize("columns", [
        {"only": ["", "x"]},          # a lone empty cell is written as ""
        {"a": [], "b": []},           # no rows: no header either
        {"x": [0.5], "y": [float("inf")]},
    ])
    def test_small_tables_match_row_writer(self, tmp_path, columns):
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        assert self.emitted(columns, "csv", tmp_path) == self.oracle_csv(rows).encode()


class TestRoundTrip:
    def test_json_artifact_reproduces_run(self, capsys, tmp_path):
        artifact = tmp_path / "run.json"
        args = ["sweep", "expect-j", "--grid", "l=-1:1:5", "--phi", "pi", "--r", "0.5",
                "--format", "json", "--out", str(artifact)]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        first = json.loads(artifact.read_text())

        rerun = tmp_path / "rerun.json"
        code, _, _ = run_cli(["run", "--config", str(artifact),
                              "--out", str(rerun), "--format", "json"], capsys)
        assert code == 0
        second = json.loads(rerun.read_text())
        assert first["rows"] == second["rows"]

    def test_workers_key_in_artifact_reruns_identically(self, capsys, tmp_path):
        artifact = tmp_path / "run.json"
        code, _, _ = run_cli(
            ["sweep", "expect-u", "--grid", "l=-1:1:5", "--phi", "pi", "--workers", "4",
             "--format", "json", "--out", str(artifact)], capsys)
        assert code == 0
        assert json.loads(artifact.read_text())["config"]["workers"] == 4

        rerun = tmp_path / "rerun.json"
        code, _, _ = run_cli(["run", "--config", str(artifact),
                              "--out", str(rerun), "--format", "json"], capsys)
        assert code == 0
        assert rerun.read_bytes() == artifact.read_bytes()

    def test_key_value_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("l=0\nphi=pi\nr=0.5\ns=half\n")
        code, out, _ = run_cli(["cs", "expect-j", "--config", str(cfg)], capsys)
        assert code == 0
        assert float(csv_rows(out)[0]["expect_j"]) == pytest.approx(0.5, abs=1e-12)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("quux=3\n")
        code, _, err = run_cli(["cs", "expect-j", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key" in err
