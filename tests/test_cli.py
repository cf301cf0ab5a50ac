"""Command-line interface: parsing, commands, determinism, round-trips."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuscs import cli, states


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


def mp_occupation(center, s, levels):
    """|<j|xi>|^2/<xi|xi> at each level and its sup-distance to exp(-(j - l')^2)/sqrt(pi).

    From 40-digit lattice sums over |j - l'| <= 40.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    c = mp.mpf(center)
    lo = math.floor(center - s) - 40
    norm = mp.fsum(mp.exp(2 * c * (k + s) - mp.mpf(k + s) ** 2) for k in range(lo, lo + 82))
    law = [mp.exp(2 * c * j - mp.mpf(j) ** 2) / norm for j in levels]
    sup = max(abs(p - mp.exp(-(mp.mpf(j) - c) ** 2) / mp.sqrt(mp.pi)) for j, p in zip(levels, law))
    return [float(p) for p in law], float(sup)


def bits(x):
    return struct.pack("<d", x)


# value columns of each state sweep target
STATE_KEYS = {"expect-j": ("expect_j",), "expect-u": ("expect_u_re", "expect_u_im"),
              "norm2": ("norm2",), "gaussian-supnorm": ("supnorm",)}


def one_label_values(target, label):
    """A state target's values from the StateLabel call of its route."""
    if target == "expect-j":
        return {"expect_j": states.expect_j(label, method="ratio")}
    if target == "expect-u":
        u = states.expect_u(label, method="theta")
        return {"expect_u_re": u.real, "expect_u_im": u.imag}
    if target == "norm2":
        return {"norm2": states.norm2(label, method="theta")}
    return {"supnorm": states.gaussian_supnorm(label)}


def sweep_against_one_label_calls(target, grid, flags=(), fmt="csv"):
    """Run a state sweep; check every row, bit for bit, against its one-label call.

    A row whose StateLabel or route call fails must carry that error's text
    and no values.  Returns the parsed rows.
    """
    argv = ["sweep", target, "--grid", grid, *flags, "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    rows = json.loads(out.getvalue())["rows"] if fmt == "json" else csv_rows(out.getvalue())
    args = cli.build_parser().parse_args(argv)
    axes = cli.parse_grid(grid)
    assert len(rows) == math.prod(len(values) for _, values in axes)
    failed = False
    for row in rows:
        params = {"l": args.l, "phi": args.phi, "r": args.r, "s": args.s}
        params.update({name: float(row[name]) for name, _ in axes})
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = one_label_values(target, states.StateLabel(**params))
            cli._require_finite([expected])
            error = ""
        except Exception as exc:
            expected, error = {}, f"{type(exc).__name__}: {exc}"
        assert row["error"] == error, params
        for key in STATE_KEYS[target]:
            if error:
                assert row.get(key, "") == ""
            else:
                assert bits(float(row[key])) == bits(expected[key]), (key, params)
        failed = failed or bool(error)
    assert code == (1 if failed else 0)
    return rows


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

    @pytest.mark.parametrize("s", ["int", "half"])
    @pytest.mark.parametrize("j_max", ["0", "0.4", "0.5", "0.6", "1", "3", "3.5", "3.7", "7.6"])
    def test_spectrum_lists_every_level_within_the_cutoff(self, capsys, j_max, s):
        code, out, _ = run_cli(["spectrum", "--s", s, "--j-max", j_max], capsys)
        offset = 0.5 if s == "half" else 0.0
        assert code == 0
        assert [float(row["j"]) for row in csv_rows(out)] == [
            k + offset for k in range(-20, 21) if abs(k + offset) <= float(j_max)]

    def test_coeffs_at_a_fractional_cutoff(self, capsys):
        code, out, _ = run_cli(["cs", "coeffs", "--s", "half", "--j-max", "12.7"], capsys)
        assert code == 0
        assert [float(row["j"]) for row in csv_rows(out)] == [k + 0.5 for k in range(-13, 13)]

    # numpy refuses these at once; never test with a cutoff that could allocate
    @pytest.mark.parametrize("argv", [["spectrum", "--j-max", "1e300"],
                                      ["cs", "coeffs", "--j-max", "1e12"]])
    def test_unallocatable_level_cutoff_exit_code(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "cannot allocate" in err

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

    def test_verify_passed_cells_are_booleans(self, capsys):
        _, out, _ = run_cli(["verify", "--suite", "all"], capsys)
        _, out_json, _ = run_cli(["verify", "--suite", "all", "--format", "json"], capsys)
        cells = [r["passed"] for r in csv_rows(out)]
        flags = [r["passed"] for r in json.loads(out_json)["rows"]]
        assert cells and set(cells) <= {"true", "false"}
        assert len(flags) == len(cells) and all(type(f) is bool for f in flags)

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
        # t_end/dt overflows to inf; 10^15 and 10^302 rows cannot be allocated
        ["--t-end", "1e300", "--dt", "1e-300"], ["--t-end", "1e12", "--dt", "1e-3"],
        ["--t-end", "1e300"],
    ])
    def test_dynamics_non_finite_input_exit_code(self, capsys, flags):
        code, out, err = run_cli(["dynamics", "--t-end", "1", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["cs", "expect-j", "--l", "40"],
        ["cs", "quantize", "--l", "30", "--r", "0.5", "--s", "half"],
        # exp(l'^2) overflows past |l'| ~ 26.6
        ["theta", "--l", "30"],
        ["cs", "norm2", "--l", "40"],
        # the Theta2 prefactor exp(-l' - 1/4) overflows past l' ~ -709.5
        ["cs", "norm2", "--l", "-1000", "--s", "half"],
        ["cs", "fidelity", "--l", "30"],
        ["cs", "expect-u", "--l", "40"],
        ["cs", "coeffs", "--l", "40"],
        ["cs", "overlap", "--l", "30", "--l2", "30"],
        # 2*pi*|Im nu| > 709.8: exp() of the term ratio would leave double range
        ["theta", "--l", "400"],
        ["cs", "expect-u", "--l", "400"],
        ["cs", "norm2", "--l", "400"],
        # E = L0^2/2 + ... overflows
        ["spectrum", "--L0", "1e200"],
        ["cs", "expect-u", "--l", "-800"],
        ["theta", "--l", "-1000"],
    ])
    def test_non_finite_result_exit_code(self, capsys, argv):
        # the precision failure is the only report: no numpy warning ahead of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("precision failure:")


    @pytest.mark.parametrize("argv", [
        ["cs", "expect-j", "--phi", "nan"],
        ["cs", "expect-u", "--phi", "nan"],
        ["cs", "norm2", "--phi", "nan"],
        ["theta", "--phi", "nan"],
    ])
    def test_non_finite_phi_exit_code(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: label phi must be finite\n"

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--phi", "nan"], ["spectrum", "--phi", "inf"], ["spectrum", "--L0", "nan"],
        ["spectrum", "--L0", "inf"], ["spectrum", "--j-max", "inf"], ["spectrum", "--j-max", "nan"],
        ["cs", "coeffs", "--j-max", "inf"], ["cs", "coeffs", "--j-max", "nan"],
        ["cs", "distribution", "--j", "nan"], ["cs", "distribution", "--j", "inf"],
    ])
    def test_non_finite_level_input_exit_code(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.endswith("must be finite, got " + argv[-1] + "\n")

    def test_distribution_in_norm_overflow_band(self, capsys):
        # the direct norm overflows at l' = 26.636 while every weight is finite
        code, out, _ = run_cli(["cs", "distribution", "--l", "26.636", "--r", "0"], capsys)
        assert code == 0
        rows = csv_rows(out)
        law, _ = mp_occupation(26.636, 0.0, [float(row["j"]) for row in rows])
        assert max(abs(float(row["probability"]) - p) for row, p in zip(rows, law)) <= 1e-10
        for row in rows:  # a single --j level gives that level's row of the grid
            _, single, _ = run_cli(["cs", "distribution", "--l", "26.636", "--r", "0",
                                    "--j", row["j"]], capsys)
            assert csv_rows(single) == [row]

    @pytest.mark.parametrize("s", ["int", "half"])
    def test_distribution_past_the_norm_overflow_edge(self, capsys, s):
        code, out, _ = run_cli(["cs", "distribution", "--l", "40", "--s", s], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert abs(math.fsum(float(row["probability"]) for row in rows) - 1.0) <= 1e-14
        center = states.StateLabel(l=40.0, phi=0.0, r=0.5).center
        law, sup = mp_occupation(center, 0.5 if s == "half" else 0.0,
                                 [float(row["j"]) for row in rows])
        assert max(abs(float(row["probability"]) - p) for row, p in zip(rows, law)) <= 1e-15
        assert abs(max(float(row["deviation"]) for row in rows) - sup) <= 1e-15

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

    @pytest.mark.parametrize("grid, message", [
        ("grid=a:b:3", "unknown sweep variable 'grid'"),
        ("workers=1:2:3", "unknown sweep variable 'workers'"),
        ("t=0:1:2", "unknown sweep variable 't'"),
        ("l=a:b:3", "cannot parse grid component"),
    ])
    def test_bad_grid_exit_code(self, capsys, grid, message):
        code, out, err = run_cli(["sweep", "expect-j", "--grid", grid], capsys)
        assert (code, out) == (2, "")
        assert message in err

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

    @pytest.mark.parametrize("target", STATE_KEYS)
    @settings(max_examples=40, deadline=None)
    @given(l_range=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
           n_l=st.integers(1, 6),
           phi_range=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
           n_phi=st.integers(1, 4),
           r=st.floats(0.0, 0.95),
           s=st.sampled_from(["int", "half"]))
    def test_batched_rows_match_one_label_calls(self, target, l_range, n_l, phi_range, n_phi,
                                                r, s):
        grid = (f"l={l_range[0]!r}:{l_range[1]!r}:{n_l},"
                f"phi={phi_range[0]!r}:{phi_range[1]!r}:{n_phi}")
        sweep_against_one_label_calls(target, grid, ["--r", repr(r), "--s", s])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("target", STATE_KEYS)
    @pytest.mark.parametrize("grid,flags", [
        ("r=0:1.2:7", ["--l", "0.3", "--phi", "1.1"]),          # r axis; r >= 1 rows fail
        ("s=0:0.5:3", ["--l", "-2", "--phi", "pi"]),            # s axis; s = 1/4 fails
        ("l=-30:30:13", ["--phi", "pi", "--s", "half"]),        # one axis
        ("l=-30:30:5,phi=0:4pi:4,r=0:0.9:3", []),               # three axes
        ("l=-3:3:4,s=0:0.5:2,l=5:6:2", []),                     # a repeated axis
        ("l=0:1:0", []),                                        # empty grid
        ("l=-3:3:5", ["--r", "1.5"]),                           # invalid --r
        ("l=-3:3:5", ["--phi", "nan"]),                         # non-finite phi
        # batches that raise; each row is retried alone and fails with its own text
        ("l=-1e4:1e4:5", ["--s", "half"]),
        ("l=-1e300:1e300:3", []),
    ])
    def test_fixed_grids_match_one_label_calls(self, target, grid, flags, fmt):
        sweep_against_one_label_calls(target, grid, flags, fmt)

    def test_supnorm_past_the_norm_overflow_edge(self):
        rows = sweep_against_one_label_calls("gaussian-supnorm", "l=26.63:40:8", ["--r", "0"])
        assert [row["error"] for row in rows] == [""] * 8
        for row in rows:
            center = float(row["l"])   # r = 0: l' = l
            levels = states.level_grid(states.default_j_max(center), 0.0)
            _, sup = mp_occupation(center, 0.0, levels.tolist())
            assert abs(float(row["supnorm"]) - sup) <= 1e-15

    def test_failing_batch_rows_keep_their_own_errors(self, capsys):
        code, out, _ = run_cli(["sweep", "norm2", "--grid", "l=-1e4:1e4:5", "--s", "half"],
                               capsys)
        errors = [row["error"] for row in csv_rows(out)]
        assert code == 1
        assert errors[0].startswith("PrecisionError: lattice sum did not reach")
        assert errors[1].startswith("PrecisionError: Theta2 prefactor overflows")
        assert errors[2] == ""

    # numpy refuses these at once; never test with a grid that could allocate
    @pytest.mark.parametrize("grid", [
        "l=0:1:100000000000000000", "l=0:1:10000000000000000000",
        "l=0:1:10000,phi=0:1:10000,r=0:0.5:10000,l=0:1:10000,phi=0:1:10000",
    ])
    def test_unallocatable_grid_exit_code(self, capsys, grid):
        code, out, err = run_cli(["sweep", "norm2", "--grid", grid], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot allocate the")

    def test_grid_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid=l=-1:1:3\nr=0.25\n")
        configured = run_cli(["sweep", "expect-j", "--config", str(cfg)], capsys)
        assert configured == run_cli(["sweep", "expect-j", "--grid", "l=-1:1:3", "--r", "0.25"],
                                     capsys)
        assert configured[0] == 0 and len(csv_rows(configured[1])) == 3

    def test_no_grid_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "nogrid.cfg"
        cfg.write_text("r=0.25\n")
        for argv in (["sweep", "norm2"], ["sweep", "norm2", "--config", str(cfg)]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert err == "error: sweep needs --grid, on the command line or in its --config\n"

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
            "float64_or_blank": ["" if blank else np.float64(v)
                                 for blank, v in zip(rng.random(n) < 0.3, floats)],
            "ints": np.arange(n),
            "ints_and_bools": [[True, 7, False, 2**60][i % 4] for i in range(n)],
        }
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        assert self.emitted(columns, "csv", tmp_path) == self.oracle_csv(rows).encode()
        artifact = {"command": ["test"], "config": {"n": 1}, "rows": rows}
        assert self.emitted(columns, "json", tmp_path) == (
            json.dumps(artifact, default=float) + "\n").encode()

    def test_float_columns_with_blanks_skip_fmt(self, tmp_path, monkeypatch):
        n = 3 * cli.CHUNK_ROWS
        blank = np.random.default_rng(7).random(n) < 0.2
        columns = {"x": np.linspace(0.0, 1.0, n),
                   "value": ["" if b else i / 3 for i, b in enumerate(blank)],
                   "error": ["failed" if b else "" for b in blank]}
        calls = []
        monkeypatch.setattr(cli, "fmt", lambda v: calls.append(v) or str(v))
        self.emitted(columns, "csv", tmp_path)
        assert len(calls) == n  # the text column's cells alone

    @pytest.mark.parametrize("columns", [
        {"only": ["", "x"]},          # a lone empty cell is written as ""
        {"only": ["", 2.5, ""]},      # so is a blank in a lone float column
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


class TestConfig:
    """A --config file's values act as flags placed before the command line's own."""

    # one artifact per command kind; the tiny negative values, written as
    # --flag=value on the command line, come back as exponent text
    ARTIFACT_COMMANDS = [
        ["theta", "--l=-1e-05", "--phi", "pi/2"],
        ["cs", "expect-j", "--l=-2.5e-06", "--s", "half"],
        ["cs", "expect-u", "--phi", "pi"],
        ["cs", "norm2", "--l", "1.5"],
        ["cs", "distribution", "--l", "0.7"],
        ["cs", "overlap", "--l2=-3e-07", "--phi2", "pi"],
        ["cs", "coeffs", "--s", "half"],
        ["cs", "coeffs", "--j-max", "12"],
        ["cs", "distribution", "--j", "1"],
        ["cs", "quantize", "--l", "1"],
        ["cs", "fidelity", "--t", "0.3", "--L0=-1e-05"],
        ["spectrum", "--s", "half", "--L0=-1e-05"],
        ["dynamics", "--t-end", "0.05", "--dt", "0.01", "--z0=-1e-05"],
        ["project", "--theta", "pi/2", "--phi=-1e-05"],
        ["verify", "--suite", "theta"],
        ["sweep", "expect-u", "--grid", "l=-1:1:5", "--workers", "4"],
        ["sweep", "energy", "--grid", "j=-1:1:3", "--L0=-1e-05"],
        ["sweep", "projector", "--grid", "theta=0:pi:3", "--delta", "0.2"],
    ]

    @pytest.mark.parametrize("argv", ARTIFACT_COMMANDS, ids=" ".join)
    def test_run_gives_the_artifact_bytes(self, capsys, tmp_path, argv):
        artifact, rerun = tmp_path / "artifact.json", tmp_path / "rerun.json"
        code = cli.main([*argv, "--format", "json", "--out", str(artifact)])
        assert cli.main(["run", "--config", str(artifact),
                         "--format", "json", "--out", str(rerun)]) == code
        capsys.readouterr()
        assert rerun.read_bytes() == artifact.read_bytes()

    def test_config_records_every_flag_but_out_and_format(self, capsys, tmp_path):
        artifact = tmp_path / "a.json"
        cli.main(["cs", "coeffs", "--j-max", "12", "--format", "json", "--out", str(artifact)])
        config = json.loads(artifact.read_text())["config"]
        assert config == {"l": 0.0, "phi": 0.0, "r": 0.5, "s": 0.0, "j_max": 12.0, "l2": 0.0,
                          "phi2": 0.0, "t": 1.0, "L0": 0.0}  # --j is unset: a null would not re-run

    # artifacts written before every flag was recorded: a hand-picked key set,
    # and a sweep's target among the config keys
    OLD_ARTIFACTS = [
        ({"command": ["cs", "coeffs"], "config": {"l": 0.5, "phi": 1.0, "r": 0.5, "s": 0.5}},
         ["cs", "coeffs", "--l", "0.5", "--phi", "1", "--s", "half"]),
        ({"command": ["sweep", "norm2"],
          "config": {"target": "norm2", "grid": "l=-1:1:3", "l": 0.0, "phi": 0.0, "r": 0.5,
                     "s": 0.0, "j": 0.5, "L0": 0.0, "theta": 0.0, "delta": 0.1, "workers": 1}},
         ["sweep", "norm2", "--grid", "l=-1:1:3"]),
        ({"command": ["dynamics"], "config": {"phi": 0.3, "j": 1.0, "L0": 0.2, "z0": 0.0,
                                              "r": 0.5, "t_end": 0.05, "dt": 0.01, "tol": 1e-6}},
         ["dynamics", "--phi", "0.3", "--L0", "0.2", "--t-end", "0.05", "--dt", "0.01"]),
    ]

    @pytest.mark.parametrize("artifact, argv", OLD_ARTIFACTS, ids=lambda x: " ".join(x)
                             if isinstance(x, list) else None)
    def test_older_artifacts_still_run(self, capsys, tmp_path, artifact, argv):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(artifact))
        assert run_cli(["run", "--config", str(path)], capsys) == run_cli(argv, capsys)

    @pytest.mark.parametrize("text", ["r=0.25\nl=0.3\n", '{"config": {"r": 0.25, "l": 0.3}}'])
    def test_command_line_flag_wins_at_its_default_value(self, capsys, tmp_path, text):
        cfg = tmp_path / "base.cfg"
        cfg.write_text(text)
        configured = run_cli(["cs", "expect-j", "--config", str(cfg), "--r", "0.5"], capsys)
        assert configured == run_cli(["cs", "expect-j", "--l", "0.3", "--r", "0.5"], capsys)
        assert configured != run_cli(["cs", "expect-j", "--l", "0.3", "--r", "0.25"], capsys)

    @pytest.mark.parametrize("argv", [["cs", "expect-j"], ["run"]])
    def test_json_null_value_exit_code(self, capsys, tmp_path, argv):
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({"command": ["cs", "expect-j"], "config": {"r": None}}))
        code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", ["out={out}\nformat=json\n",
                                      '{{"out": "{out}", "format": "json"}}'])
    def test_both_config_forms_set_the_same_flags(self, capsys, tmp_path, text):
        out = tmp_path / "out.json"
        cfg = tmp_path / "out.cfg"
        cfg.write_text(text.format(out=out))
        assert run_cli(["cs", "norm2", "--config", str(cfg)], capsys) == (0, "", "")
        assert json.loads(out.read_text())["command"] == ["cs", "norm2"]

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"),
        ("{bad", "is not valid JSON"),
        ("r\n", "config line without '='"),
        ("config=other.cfg\n", "unknown config key 'config'"),
        ('{"r": [0.5]}', "needs a number or a string"),
        ("t=3\n", "unknown config key 't'"),  # not an abbreviation of --t-end
    ])
    def test_bad_config_exit_code(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "bad.cfg"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(["dynamics", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err

    def test_argv_is_parsed_once_without_config(self, capsys, monkeypatch, tmp_path):
        parser = cli._parser()
        seen = []
        parse = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: seen.append(argv) or parse(argv))
        cli.main(["cs", "expect-j", "--l", "0.2"])
        assert seen == [["cs", "expect-j", "--l", "0.2"]]

        cfg = tmp_path / "base.cfg"
        cfg.write_text("phi=-pi/2\nj-max=12\n")
        cli.main(["cs", "coeffs", "--config", str(cfg), "--l", "0.2"])
        capsys.readouterr()
        assert seen[1:] == [["cs", "coeffs", "--config", str(cfg), "--l", "0.2"],
                            ["cs", "--phi=-pi/2", "--j-max=12",
                             "coeffs", "--config", str(cfg), "--l", "0.2"]]


class TestCachedParser:
    """main() builds its parser once per process and reuses it for every call."""

    @staticmethod
    def commands(tmp_path):
        artifact = tmp_path / "artifact.json"
        assert cli.main(["sweep", "expect-u", "--grid", "l=-1:1:3", "--format", "json",
                         "--out", str(artifact)]) == 0
        return [
            ["theta", "--l", "0.3", "--phi", "pi/2"],
            ["cs", "expect-j", "--l", "0.2", "--phi", "pi", "--s", "half"],
            ["cs", "distribution", "--l", "1.5", "--format", "json"],
            ["spectrum", "--r", "0.5", "--s", "half", "--j-max", "2"],
            ["dynamics", "--t-end", "0.05", "--dt", "0.01"],
            ["project", "--theta", "pi/2", "--phi", "0", "--delta", "0.1"],
            ["verify", "--suite", "theta"],
            ["sweep", "norm2", "--grid", "l=0:40:3"],
            ["run", "--config", str(artifact)],
        ]

    def test_each_command_twice_gives_the_same_bytes(self, capsys, tmp_path):
        for argv in self.commands(tmp_path):
            first = run_cli(argv, capsys)
            assert run_cli(argv, capsys) == first, argv
            assert cli._parser().parse_args(argv) == cli.build_parser().parse_args(argv)

    def test_plain_run_after_config_run_keeps_the_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("l=0.7\nphi=pi\nr=0.25\ns=half\n")
        plain = run_cli(["cs", "expect-j"], capsys)
        configured = run_cli(["cs", "expect-j", "--config", str(cfg)], capsys)
        assert configured != plain
        assert run_cli(["cs", "expect-j"], capsys) == plain

    @pytest.mark.parametrize("bad", [
        ["cs", "nope"],
        ["sweep", "expect-j", "--grid"],
        ["theta", "--phi", "two pi"],
        ["verify", "--suite", "everything"],
    ])
    def test_bad_argv_after_good_ones_fails_as_in_a_fresh_process(
            self, capsys, monkeypatch, tmp_path, bad):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.commands(tmp_path)[:3]:
            run_cli(argv, capsys)
        with pytest.raises(SystemExit) as stop:
            cli.main(bad)
        err = capsys.readouterr().err
        fresh = subprocess.run(
            [sys.executable, "-m", "mobiuscs.cli", *bad], capture_output=True, text=True,
            env={**os.environ, "COLUMNS": "80",
                 "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))})
        assert stop.value.code == fresh.returncode == 2
        assert err == fresh.stderr

    def test_one_parser_over_fifty_calls(self, capsys, monkeypatch):
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            constructed.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser()
        per_build = len(constructed)  # the top-level parser and one per subcommand
        constructed.clear()
        cli._parser.cache_clear()
        for k in range(50):
            assert cli.main(["cs", "expect-j", "--l", str(k / 10)]) == 0
        capsys.readouterr()
        assert len(constructed) == per_build

    def test_command_is_looked_up_when_called(self, capsys, monkeypatch):
        cli.main(["cs", "expect-j"])
        capsys.readouterr()
        seen = []
        monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.grid) or 7)
        assert cli.main(["sweep", "norm2", "--grid", "l=0:1:2"]) == 7
        assert seen == ["l=0:1:2"]
