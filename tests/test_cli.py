"""Command-line interface: parsing, commands, determinism, round-trips."""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mobiuscs import cli, dynamics, projection, report, states, theta
from mobiuscs.errors import DomainError, PrecisionError


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

    @pytest.mark.parametrize("text", ["pi/0", "pi/0.0", "-2pi/0"])
    def test_parse_angle_rejects_a_zero_divisor(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="cannot parse angle"):
            cli.parse_angle(text)

    @pytest.mark.parametrize("argv, flag, value", [
        (["theta", "--phi", "-0.5pi"], "phi", -0.5 * math.pi),
        (["theta", "--phi", "-pi/2"], "phi", -math.pi / 2),
        (["cs", "expect-j", "--l", "-3.2e-05"], "l", -3.2e-05),
        (["cs", "expect-j", "--l", "-3.2000000000000002e-05"], "l", -3.2000000000000002e-05),
        (["cs", "expect-j", "--l", "-inf"], "l", -math.inf),
        (["sweep", "energy", "--grid", "phi=0:1:2", "--L0", "-1e-05"], "L0", -1e-05),
        (["cs", "expect-j", "--l", "-3"], "l", -3.0),
    ])
    def test_negative_value_after_a_flag(self, capsys, argv, flag, value):
        bound = [*argv[:-2], f"--{flag}={argv[-1]}"]
        assert cli._bind_values(argv) == bound
        assert getattr(cli.build_parser().parse_args(bound), flag) == value
        # the command runs as its --flag=value form does (-inf: exit 2, 'label l must be finite')
        assert run_cli(argv, capsys) == run_cli(bound, capsys)

    @pytest.mark.parametrize("argv", [
        ["cs", "expect-j", "--l", "--phi", "1"],
        ["cs", "expect-j", "--l=1", "-2"],
        ["cs", "expect-j", "--l", "--", "-1"],
        ["cs", "expect-j", "-h", "-1e-5"],
        ["cs", "expect-j", "--help", "-1e-5"],
        ["cs", "expect-j", "--l", "-two"],
        ["theta", "--phi", "-pi/0"],
    ])
    def test_other_command_lines_are_left_as_they_are(self, argv):
        assert cli._bind_values(argv) == argv

    def test_parse_offset(self):
        assert cli.parse_offset("int") == 0.0
        assert cli.parse_offset("half") == 0.5
        assert cli.parse_offset("0.5") == 0.5

    def test_grid_parsing(self):
        axes = cli.parse_grid("phi=0:2pi:5,r=0.1:0.9:3")
        assert axes[0][0] == "phi"
        assert len(axes[0][1]) == 5
        assert axes[1][1][-1] == pytest.approx(0.9)


def mp_norm2(center, s):
    """<xi|xi> = sum_j exp(2*l'*j - j^2) over j in Z + s, |j - l'| <= 40, to 40 digits."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    c = mp.mpf(center)
    lo = math.floor(center - s) - 40
    return mp.fsum(mp.exp(2 * c * (k + s) - mp.mpf(k + s) ** 2) for k in range(lo, lo + 82))


def mp_occupation(center, s, levels):
    """|<j|xi>|^2/<xi|xi> at each level and its sup-distance to exp(-(j - l')^2)/sqrt(pi).

    From 40-digit lattice sums over |j - l'| <= 40.
    """
    mp = pytest.importorskip("mpmath")
    c = mp.mpf(center)
    norm = mp_norm2(center, s)
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
        u = states.expect_u(label, method="dual")
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
            cli._require_finite({key: [value] for key, value in expected.items()})
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

    def test_overlap_near_dbl_max_is_an_overflow(self, capsys):
        # l'_a + l'_b passes DBL_MAX, but the pair midpoint m does not: exp(m^2) overflows
        code, out, err = run_cli(["cs", "overlap", "--l", "1.7976931348623157e308", "--r", "0.5",
                                  "--s", "half", "--l2", "1e300"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("precision failure: direct overlap overflows: exp(inf)")

    @pytest.mark.parametrize("s", ["int", "half"])
    def test_distribution_lists_the_window(self, capsys, s):
        # the 18 to 21 levels around round(l'), not the 2*10^6 levels of |j| <= |l'| + 9
        code, out, err = run_cli(["cs", "distribution", "--l", "1e6", "--r", "0", "--s", s],
                                 capsys)
        assert (code, err) == (0, "")
        offset = 0.5 if s == "half" else 0.0
        levels = [1e6 + k + offset for k in range(-10, 10) if abs(k + offset) <= 9.0]
        assert [float(row["j"]) for row in csv_rows(out)] == levels

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

    @pytest.mark.parametrize("flags", [["--l", "1e300", "--s", "half"], ["--l", "1e300"],
                                       ["--l", "1e300", "--s", "half", "--r", "0"],
                                       ["--l", "1e308", "--r", "0.5"]])
    def test_quantize_past_2_52_reports_no_root(self, capsys, flags):
        # every double is an integer there, and 2 * center overflows near DBL_MAX
        code, out, err = run_cli(["cs", "quantize", *flags], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("precision failure: cannot resolve the level lattice")

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
        # exp(l'^2) overflows past |l'| ~ 26.6
        ["theta", "--l", "30"],
        ["cs", "norm2", "--l", "40"],
        ["cs", "norm2", "--l", "-1000", "--s", "half"],
        ["cs", "fidelity", "--l", "30"],
        ["cs", "fidelity", "--L0", "1e300"],  # finite input, overflowing phases
        ["cs", "coeffs", "--l", "40"],
        ["cs", "overlap", "--l", "30", "--l2", "30"],
        # 2*pi*|Im nu| > 709.8: exp() of the term ratio would leave double range
        ["theta", "--l", "400"],
        ["cs", "norm2", "--l", "400"],
        # E = L0^2/2 + ... overflows
        ["spectrum", "--L0", "1e200"],
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
        ["cs", "expect-j", "--l", "40"],
        ["cs", "quantize", "--l", "30", "--r", "0.5", "--s", "half"],
        ["cs", "expect-u", "--l", "40"],
        ["cs", "expect-u", "--l", "400"],
        ["cs", "expect-u", "--l", "-800", "--s", "half"],
        # the direct route sums the levels around round(l'), at any finite l'
        ["cs", "expect-u", "--l", "-1e300"],
        ["cs", "expect-u", "--l", "1e17"],
        ["cs", "expect-u", "--l", "1e17", "--s", "half"],
        # <J> = l' from 2^52 on, where every double is an integer
        ["cs", "expect-j", "--l", "1e300"],
        ["cs", "expect-j", "--l", "1e300", "--s", "half"],
        ["cs", "expect-j", "--l", "-1.7976931348623157e308", "--phi", "pi"],
    ])
    def test_scale_free_routes_past_the_norm_overflow_edge(self, capsys, argv):
        # <J> and <U> are bounded, and their routes sum exp(-(j - l')^2)-scaled weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        rows = csv_rows(out)
        values = [float(v) for row in rows for v in row.values()]
        assert rows and all(math.isfinite(v) for v in values)
        if argv[1] == "expect-u":
            assert float(rows[0]["expect_u_abs"]) <= 1.0
            assert float(rows[0]["spread"]) <= 1e-12
        elif argv[1] == "expect-j":
            assert float(rows[0]["max_spread"]) <= 1e-12 * abs(float(rows[0]["expect_j"]))
        else:
            assert [float(row["expect_j"]) for row in rows] == [30.5, 29.5]

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
        ["cs", "coeffs", "--l", "1e300", "--j-max", "nan"],
        ["cs", "distribution", "--j", "nan"], ["cs", "distribution", "--j", "inf"],
        ["cs", "fidelity", "--t", "nan"], ["cs", "fidelity", "--t", "inf"],
        ["cs", "fidelity", "--t", "-inf"], ["cs", "fidelity", "--L0", "nan"],
        ["cs", "fidelity", "--L0", "inf"],
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

    @pytest.mark.parametrize("argv,key", [(["cs", "norm2", "--l", "26.3"], "norm2"),
                                          (["theta", "--l", "26.6"], "theta2_natural")])
    def test_half_sector_theta_norm_up_to_the_overflow_edge(self, capsys, argv, key):
        # Theta_2 on its own lattice is finite wherever exp(l'^2) is, as Theta_3 is
        code, out, err = run_cli([*argv, "--r", "0", "--s", "half"], capsys)
        assert (code, err) == (0, "")
        rows = csv_rows(out)
        if argv[0] == "theta":
            rows = [{key: row["value_re"]} for row in rows if row["quantity"] == key]
        ref = mp_norm2(float(argv[-1]), 0.5)
        assert abs(float(rows[0][key]) - ref) <= 1e-12 * ref

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
        ("theta=0:inf:3", "grid endpoints must be finite, got 'theta=0:inf:3'"),
        ("l=-inf:0:3", "grid endpoints must be finite, got 'l=-inf:0:3'"),
        ("phi=nan:1:2", "grid endpoints must be finite, got 'phi=nan:1:2'"),
        # finite endpoints whose span overflows: linspace gives [nan, inf, 1e308], [nan, 1.7e308]
        ("theta=-1e308:1e308:3", "grid points must be finite, got 'theta=-1e308:1e308:3'"),
        ("l=-1.7e308:1.7e308:2", "grid points must be finite, got 'l=-1.7e308:1.7e308:2'"),
        ("phi=0:pi/0:3", "cannot parse grid component 'phi=0:pi/0:3'"),
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
        # long batches: every phi distinct; phi = -0.0 past |l'| ~ 26.6
        ("phi=-3:40:300", ["--l", "5"]),
        ("phi=-0.0:0:2,l=-30:30:61", ["--s", "half"]),
        ("l=-30:30:5,phi=0:4pi:4,r=0:0.9:3", []),               # three axes
        ("l=-3:3:4,s=0:0.5:2,l=5:6:2", []),                     # a repeated axis
        ("l=0:1:0", []),                                        # empty grid
        ("l=-3:3:5", ["--r", "1.5"]),                           # invalid --r
        ("l=-3:3:5", ["--phi", "nan"]),                         # non-finite phi
        # far labels: the dual <U> route fails no row; the others raise (norm2) or, at
        # l = +/-1e300, cannot allocate their level grids, and their batches are halved
        # until each failing row fails alone, with its own text
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

    @pytest.mark.parametrize("s", ["int", "half"])
    @pytest.mark.parametrize("grid", ["l=1e16:1e17:2", "l=-1e300:1e300:3"])
    def test_supnorm_rows_are_finite_at_any_l(self, grid, s):
        # the window reads only f = l' - round(l'); past 2^52 f = 0, as at l' = 0
        rows = sweep_against_one_label_calls("gaussian-supnorm", grid, ["--r", "0", "--s", s])
        at_zero = states.gaussian_supnorm(
            states.StateLabel(l=0.0, phi=0.0, r=0.0, s=cli.parse_offset(s)))
        assert all(row["error"] == "" and float(row["supnorm"]) == at_zero for row in rows)

    def test_grid_sweep_maps_libm_once_per_distinct_angle(self, capsys, monkeypatch):
        # a 100x100 grid repeats each phi along l: sin and cos run once per distinct
        # half-angle in label_centers, and the Theta2 sums call neither
        calls = dict.fromkeys(("sin", "cos"), 0)
        for owner, name in ((math, "sin"), (math, "cos")):
            def counted(*args, name=name, fn=getattr(owner, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(owner, name, counted)
        code, out, _ = run_cli(["sweep", "norm2", "--grid", "l=-32:32:100,phi=0:4pi:100",
                                "--r", "0.5", "--s", "half"], capsys)
        rows = csv_rows(out)
        assert code == 1 and len(rows) == 10_000  # rows past |l'| ~ 26.6 overflow
        assert 0 < sum(bool(row["error"]) for row in rows) < 5000
        assert calls["sin"] <= 100 and calls["cos"] <= 100

    def test_failing_batch_rows_keep_their_own_errors(self, capsys):
        code, out, _ = run_cli(["sweep", "norm2", "--grid", "l=-1e4:1e4:5", "--s", "half"],
                               capsys)
        errors = [row["error"] for row in csv_rows(out)]
        assert code == 1
        # the batch fails at row 0's cap error and is halved until each row reads its own
        assert errors == ["PrecisionError: lattice sum did not reach tol=1e-14 within 10000 terms",
                          "PrecisionError: norm2 is not finite", "",
                          "PrecisionError: norm2 is not finite",
                          "PrecisionError: lattice sum did not reach tol=1e-14 within 10000 terms"]
        code, out, _ = run_cli(["sweep", "norm2", "--grid", "l=-900:-700:3", "--r", "0",
                                "--s", "half"], capsys)
        assert code == 1
        assert [row["error"] for row in csv_rows(out)] == ["PrecisionError: norm2 is not finite"] * 3

    def test_far_rows_sum_the_levels_around_their_center(self, capsys):
        # from 2^52 on every double is an integer, and <J> = l'
        code, out, _ = run_cli(["sweep", "expect-j", "--grid", "l=-1e300:1e300:5", "--r", "0"],
                               capsys)
        rows = csv_rows(out)
        assert code == 0 and [row["error"] for row in rows] == [""] * 5
        far = [row for row in rows if row["l"] != "0"]
        assert [row["expect_j"] for row in far] == [row["l"] for row in far]

    def test_failing_batch_is_halved_and_good_rows_stay_batched(self, monkeypatch):
        sizes = []  # rows of each batch that _state_values returned for

        def spy(target, batch, state_values=cli._state_values):
            result = state_values(target, batch)
            sizes.append(len(batch.centers))
            return result

        monkeypatch.setattr(cli, "_state_values", spy)
        # 100 rows at l = -1e17 (each fails at the lattice-sum cap) before 100 good rows, in
        # one batch
        rows = sweep_against_one_label_calls("norm2", "l=-1e17:1:2,phi=0:1:100", [])
        assert [bool(row["error"]) for row in rows] == [True] * 100 + [False] * 100
        assert sizes == [100]

    def test_far_expect_u_rows_stay_in_one_batch(self, monkeypatch):
        # the dual lattice reads l' mod 1: rows at l = -1e4 are finite, so the batch is never halved
        sizes = []

        def spy(target, batch, state_values=cli._state_values):
            sizes.append(len(batch.centers))
            return state_values(target, batch)

        monkeypatch.setattr(cli, "_state_values", spy)
        rows = sweep_against_one_label_calls("expect-u", "l=-1e4:2:2,phi=0:1:5000", [])
        assert [row["error"] for row in rows] == [""] * 10_000
        assert sizes == [10_000]

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


def scalar_sweep_text(argv, fmt):
    """A sweep energy or projector run's artifact and exit code, from its scalar route.

    Each row's value is that route's, or the row is blank with the text of
    the error the route raises (or the PrecisionError of a non-finite value).
    """
    args = cli.build_parser().parse_args(argv)
    with np.errstate(invalid="ignore"):
        axes = cli.parse_grid(args.grid)
    names = list(dict.fromkeys(name for name, _ in axes))
    key = "E" if args.target == "energy" else "indicator"
    rows = []
    for point in itertools.product(*(values.tolist() for _, values in axes)):
        params = {name: getattr(args, name) for name in cli.SWEEP_PARAMS}
        params.update(zip((name for name, _ in axes), point))
        row = {name: params[name] for name in names}
        try:
            if args.target == "energy":
                value = dynamics.mobius_hamiltonian(params["j"], params["L0"], params["phi"],
                                                    params["r"])
            else:
                spec = projection.ProjectionSpec(params["theta"], params["phi"], params["delta"])
                value = projection.universal_projector(spec, method="indicator")
            cli._require_finite({key: [value]})
            row.update({key: value, "error": ""})
        except Exception as exc:
            row.update({key: "", "error": f"{type(exc).__name__}: {exc}"})
        rows.append(row)
    code = 1 if any(row["error"] for row in rows) else 0
    if all(row["error"] for row in rows):  # no row made the value column
        rows = [{k: v for k, v in row.items() if k != key} for row in rows]
    if fmt == "json":
        return json.dumps({"command": ["sweep", args.target], "config": cli._config(args),
                           "rows": rows}) + "\n", code
    return TestEmit.oracle_csv([{k: cli.fmt(v) for k, v in row.items()} for row in rows]), code


# grids with every kind of failing energy and projector row
COLUMN_SWEEPS = [
    ["energy", "--grid", "r=-0.5:1.5:9,j=0:2:3"],                     # r < 0 and r >= 1
    ["energy", "--grid", "j=-1:1:3", "--phi", "inf"],                 # cos(inf)
    ["energy", "--grid", "r=0.5:1.5:3", "--phi=-inf"],                # r is checked first
    ["energy", "--grid", "j=-1:1:2,L0=0:1:2", "--phi", "nan", "--theta", "nan"],  # NaN phi
    ["energy", "--grid", "j=1e150:1e200:4,r=0:0.9:2"],                # E overflows
    ["energy", "--j", "1e200", "--grid", "L0=-1:1:3"],
    ["energy", "--grid", "phi=0:4pi:9,r=-0.25:1.25:7,j=-1e200:1e200:3"],  # all of them
    ["energy", "--grid", "phi=0:4pi:40,L0=-2:2:30", "--r", "0.9", "--j", "-2.5"],
    ["projector", "--grid", "delta=-0.1:0.1:5,theta=0:pi:3"],         # delta <= 0
    ["projector", "--grid", "delta=-0.0:0:2"],
    ["projector", "--grid", "theta=0:pi:3", "--phi", "inf"],          # non-finite input
    ["projector", "--grid", "phi=0:pi:3", "--theta", "nan"],
    ["projector", "--grid", "theta=1e150:1e300:4,delta=0.1:1e200:3"],  # defect square overflows
    ["projector", "--grid", "theta=1.4707963267948966:1.6707963267948966:5,r=0:1.5:3"],
    ["projector", "--grid", "theta=-2pi:2pi:60,phi=0:4pi:50,delta=-0.5:1.5:5"],
]


class TestColumnSweeps:
    """sweep energy and sweep projector, against their scalar routes, byte for byte."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", COLUMN_SWEEPS, ids=" ".join)
    def test_artifact_is_built_from_the_scalar_routes(self, capsys, argv, fmt):
        code, out, _ = run_cli(["sweep", *argv, "--format", fmt], capsys)
        assert (out, code) == scalar_sweep_text(["sweep", *argv], fmt)

    def test_every_failure_kind_is_covered(self, capsys):
        errors = set()
        for argv in COLUMN_SWEEPS:
            _, out, _ = run_cli(["sweep", *argv], capsys)
            errors |= {row["error"] for row in csv_rows(out)}
        assert errors >= {
            "", "DomainError: need 0 <= r < 1.0, got r=-0.5",
            "DomainError: need 0 <= r < 1.0, got r=1.5",
            "ValueError: math domain error", "PrecisionError: E is not finite",
            "DomainError: delta must be positive", "DomainError: need finite theta, phi and delta",
            "DomainError: defect or delta too large: its square overflows"}

    def test_energy_and_projector_run_in_batches(self, monkeypatch, capsys):
        sizes = []
        for module, name in ((dynamics, "mobius_hamiltonians"),
                             (projection, "universal_projectors")):
            def spy(*cols, fn=getattr(module, name)):
                sizes.append(len(cols[0]))
                return fn(*cols)
            monkeypatch.setattr(module, name, spy)
        assert run_cli(["sweep", "energy", "--grid", "phi=0:4pi:100,r=0:1.98:100"], capsys)[0] == 1
        assert run_cli(["sweep", "projector", "--grid", "theta=0:pi:100,delta=-1:1:100"],
                       capsys)[0] == 1
        # no row to evaluate: each gets the error of cos(inf) without a call
        assert run_cli(["sweep", "energy", "--grid", "j=-2:2:3000", "--phi", "inf"], capsys)[0] == 1
        assert sizes == [5000, 5000]  # the r < 1 rows, the delta > 0 rows: one batch each


def checked_exp(x, what):
    """math.exp(x), or the PrecisionError the modular routes raise where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise PrecisionError(f"{what} overflows: exp({x:g})", achieved=math.inf) from None


def point_rows(args):
    """A point command's table as a list of row dicts, each cell from its scalar route."""
    if args.command == "spectrum":
        for flag, value in (("--j-max", args.j_max), ("--L0", args.L0), ("--phi", args.phi)):
            if not math.isfinite(value):
                raise DomainError(f"{flag} must be finite, got {value}")
        return [{"j": j, "L0": args.L0,
                 "E": dynamics.mobius_hamiltonian(j, args.L0, args.phi, args.r),
                 "E_border": dynamics.energy_quantized(j, args.L0, args.r)}
                for j in states.level_grid(args.j_max, args.s).tolist()]
    if args.command == "project":
        spec = projection.ProjectionSpec(theta=args.theta, phi=args.phi, delta=args.delta)
        ind = projection.universal_projector(spec, method="indicator")
        quad = projection.universal_projector(spec, method="quadrature")
        return [{"defect": spec.argument, "delta": args.delta, "indicator": ind,
                 "quadrature": quad, "difference": abs(ind - quad)}]
    if args.command == "verify":
        return [{**dataclasses.asdict(c), "passed": c.passed} for c in report.run_suite(args.suite)]
    label = cli.make_label(args)
    c, shift = label.center, 0.0 if args.s == 0.0 else 0.5
    if args.command == "theta":
        t3 = theta.theta3(1j * c / math.pi, states.TAU_NATURAL)
        t2 = theta.theta2(1j * c / math.pi, states.TAU_NATURAL)
        modular = (checked_exp(c * c, "norm_modular_route") * math.sqrt(math.pi)
                   * theta.theta3(c + shift, states.TAU_DUAL))
        natural = t3 if args.s == 0.0 else t2
        residual = cli._modulus(natural - modular) / max(1.0, cli._modulus(modular))
        return [{"quantity": "center", "value_re": c, "value_im": 0.0},
                {"quantity": "theta3_natural", "value_re": t3.real, "value_im": t3.imag},
                {"quantity": "theta2_natural", "value_re": t2.real, "value_im": t2.imag},
                {"quantity": "norm_modular_route", "value_re": modular.real,
                 "value_im": modular.imag},
                {"quantity": "modular_residual", "value_re": residual, "value_im": 0.0},
                {"quantity": "logderiv_dual",
                 "value_re": theta.theta3_logderiv(c + shift, states.TAU_DUAL), "value_im": 0.0}]
    if args.action == "expect-j":
        v1, v2, v3 = (states.expect_j(label, method=m) for m in ("ratio", "theta", "series"))
        return [{"expect_j": v2, "ratio_path": v1, "series_path": v3,
                 "max_spread": max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3))}]
    if args.action == "expect-u":
        d, t = states.expect_u(label, method="direct"), states.expect_u(label, method="dual")
        return [{"expect_u_re": t.real, "expect_u_im": t.imag, "expect_u_abs": cli._modulus(t),
                 "spread": cli._modulus(d - t)}]
    if args.action == "norm2":
        natural = states.norm2(label, method="theta")
        direct = states.norm2(label, method="direct")
        th = theta.theta3(c + shift, states.TAU_DUAL)
        modular = float(checked_exp(c * c, "modular norm2") * math.sqrt(math.pi) * th.real)
        return [{"norm2": natural, "direct_path": direct, "modular_path": modular}]
    if args.action == "distribution":
        law = states.occupation_law(label, args.j)
        return [{"j": j, "probability": p, "gaussian": g, "deviation": abs(p - g)}
                for j, p, g in zip(*(col.tolist() for col in law))]
    if args.action == "overlap":
        other = states.StateLabel(l=args.l2, phi=args.phi2, r=args.r, s=args.s)
        direct = states.overlap(label, other, method="direct")
        closed = states.overlap(label, other, method="theta")
        return [{"overlap_re": closed.real, "overlap_im": closed.imag,
                 "spread": cli._modulus(direct - closed)}]
    if args.action == "coeffs":
        v = states.build_cs(label, j_max=args.j_max)
        return [{"j": j, "c_re": cc.real, "c_im": cc.imag} for j, cc in zip(v.j, v.c)]
    if args.action == "quantize":
        rows = []
        for phi in states.quantization_scan(args.r, args.l, args.s):
            lab = states.StateLabel(l=args.l, phi=phi, r=args.r, s=args.s)
            rows.append({"phi": phi, "center": lab.center,
                         "expect_j": states.expect_j(lab, method="ratio")})
        return rows
    return [{"t": args.t, "fidelity": states.temporal_fidelity(label, args.t, L0=args.L0)}]


def point_reference(argv, fmt):
    """(stdout, stderr, exit code) of a point command, from its table built row by row."""
    args = cli.build_parser().parse_args([*argv, "--format", fmt])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            rows = point_rows(args)
        if args.command not in ("project", "verify"):
            for row in rows:
                for key, value in row.items():
                    if isinstance(value, float) and not math.isfinite(value):
                        raise PrecisionError(f"{key} is not finite", achieved=value)
    except DomainError as exc:
        return "", f"error: {exc}\n", 2
    except PrecisionError as exc:
        return "", f"precision failure: {exc} (achieved {exc.achieved})\n", 1
    code, err = 0, ""
    if args.command == "verify":
        code = 0 if all(row["passed"] for row in rows) else 1
        err = "".join(f"{'PASS' if row['passed'] else 'FAIL'} {row['check']}: "
                      f"max_error={cli.fmt(row['max_error'])} tol={cli.fmt(row['tolerance'])}\n"
                      for row in rows)
    if fmt == "csv":
        return TestEmit.oracle_csv(rows), err, code
    command = [args.command, *([args.action] if args.command == "cs" else [])]
    artifact = {"command": command, "config": cli._config(args), "rows": rows}
    return json.dumps(artifact, default=float) + "\n", err, code


CS_ACTIONS = ("expect-j", "expect-u", "norm2", "distribution", "overlap", "coeffs", "quantize",
              "fidelity")
POINT_COMMANDS = [
    *([*argv, "--s", s] for s in ("int", "half") for argv in (
        ["theta", "--l", "0.3", "--phi", "1"],
        ["theta", "--l", "30", "--r", "0"],                    # the modular norm overflows
        ["theta", "--l", "-2.5", "--phi", "pi", "--r", "0.7"],
        *(["cs", action, "--l", "0.3", "--phi", "1"] for action in CS_ACTIONS),
        ["cs", "distribution", "--l", "0.4", "--j", "2"],      # one row, or not a half level
        ["cs", "coeffs", "--l", "0.4", "--j-max", "12"],
        ["cs", "coeffs", "--l", "5", "--j-max", "3"],          # the tail is too wide
        ["cs", "norm2", "--l", "26.3", "--r", "0"],
        ["cs", "overlap", "--l", "0.2", "--l2", "-1", "--phi2", "pi/2"],
        ["cs", "quantize", "--l", "2"],
        ["cs", "fidelity", "--l", "0.2", "--t", "0.7", "--L0", "0.3"],
        ["spectrum"],
        ["spectrum", "--j-max", "7.5", "--phi", "0.3", "--L0", "-0.7", "--r", "0.9"],
        ["spectrum", "--j-max", "0.3", "--r", "1.5"],          # no level in the half sector
        ["spectrum", "--r", "1.5"],
        ["spectrum", "--L0", "1e200"],                         # E overflows
    )),
    ["project", "--theta", "pi/2", "--phi", "0", "--delta", "0.1"],
    ["project", "--theta", "1", "--delta", "-0.1"],
    ["verify", "--suite", "theta"],
]


class TestPointTables:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", POINT_COMMANDS, ids=" ".join)
    def test_output_matches_the_row_wise_build(self, capsys, argv, fmt):
        code, out, err = run_cli([*argv, "--format", fmt], capsys)
        assert (out, err, code) == point_reference(argv, fmt)

    def test_cases_cover_every_outcome(self):
        codes = {argv[0]: set() for argv in POINT_COMMANDS}
        for argv in POINT_COMMANDS:
            out, _, code = point_reference(argv, "csv")
            codes[argv[0]].add((code, bool(out)))
        assert codes["spectrum"] == {(0, True), (0, False), (1, False), (2, False)}
        assert codes["cs"] >= {(0, True), (1, False), (2, False)}
        assert codes["theta"] == {(0, True), (1, False)}


# the columns of test_json_rows_match_json_dumps
FLOAT_KINDS = ("spread", "bits", "specials", "grid", "few", "constant")
BLANK_KINDS = ("none", "random", "all", "unset")
LIST_KINDS = ("str", "bool", "int", "int64", "float64", "mixed", "constant")
TEXTS = ["", "plain", 'say "hi"', "a,b", "two\nlines", "\u00e9 \u00fc", "\x00\x1f", "back\\slash"]
SPECIALS = np.array([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, math.nan, math.inf,
                     -math.inf, 1e16, 1e-5, 0.1, 2.0 ** 53 + 2, 1.7976931348623157e308])


def float_column(kind: str, n: int, rng) -> np.ndarray:
    if kind == "bits":  # any bit pattern: subnormals, NaNs and infinities among them
        return rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64).view(np.float64)
    if kind == "grid":
        return np.arange(n) * 1e-3
    if kind == "few":
        return np.repeat(rng.standard_normal(3), n // 3 + 1)[:n]
    if kind == "constant":
        return np.full(n, SPECIALS[rng.integers(SPECIALS.size)])
    column = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    if kind == "specials":
        special = rng.random(n) < 0.3
        column[special] = SPECIALS[rng.integers(0, SPECIALS.size, special.sum())]
    return column


def list_column(kind: str, n: int, rng) -> list:
    picks = rng.integers(0, len(TEXTS), n).tolist()
    if kind == "str":
        return [TEXTS[k] for k in picks]
    if kind == "bool":
        return [bool(k & 1) for k in picks]
    if kind == "int":
        return [k * 10 ** 18 - 7 for k in picks]
    if kind == "int64":
        return [np.int64(k - 3) for k in picks]
    if kind == "float64":
        return [np.float64(v) for v in float_column("specials", n, rng)]
    if kind == "constant":
        return ['5%, "q"'] * n
    return [(TEXTS[k], bool(k & 1), k, np.int64(-k), np.float64(k / 3), -k / 7)[k % 6]
            for k in picks]


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
    def emitted(columns, fmt, tmp_path, blank=None):
        out = tmp_path / f"table.{fmt}"
        args = SimpleNamespace(command="verify", suite="theta", format=fmt, out=str(out))
        cli.emit(columns, args, blank)
        return out.read_bytes()

    @staticmethod
    def rows_with_blanks(columns, blank):
        """The table's rows, with "" in each cell that blank masks."""
        cells = {key: ["" if b else v for v, b in zip(col, blank[key])] if key in blank else col
                 for key, col in columns.items()}
        return [dict(zip(cells, values)) for values in zip(*cells.values())]

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
            # few-valued float columns, each distinct value formatted once
            "meshgrid": np.repeat(np.linspace(-32.0, 32.0, 100), 100)[:n],
            "meshgrid_fast": np.tile(np.linspace(0.0, 4 * math.pi, 100), n // 100 + 1)[:n],
            "constant": np.full(n, 0.1),
            "signed_zeros": np.where(np.arange(n) % 2 == 0, 0.0, -0.0),
            "non_finite": np.array([math.nan, math.inf, -math.inf, 1.5])[np.arange(n) % 4],
            "repeated_with_blanks": np.repeat([2.5, -0.0, 1e-300], n // 3 + 1)[:n],
            "distinct_with_blanks": floats[::-1],
            "blank_first_chunk": floats,
            "constant_text": ['5%, "q"'] * n,
        }
        blank = {"repeated_with_blanks": rng.random(n) < 0.3,
                 "distinct_with_blanks": np.arange(n) % 3 == 0,
                 "blank_first_chunk": np.arange(n) < cli.CHUNK_ROWS + 3}
        rows = self.rows_with_blanks(columns, blank)
        assert self.emitted(columns, "csv", tmp_path, blank) == self.oracle_csv(rows).encode()
        artifact = {"command": ["verify"], "config": {"suite": "theta"}, "rows": rows}
        assert self.emitted(columns, "json", tmp_path, blank) == (
            json.dumps(artifact, default=float) + "\n").encode()

    def test_float_columns_with_blanks_skip_fmt(self, tmp_path, monkeypatch):
        n = 3 * cli.CHUNK_ROWS
        failed = np.random.default_rng(7).random(n) < 0.2
        columns = {"x": np.linspace(0.0, 1.0, n),
                   "value": np.arange(n) / 3,
                   "error": ["failed" if b else "" for b in failed]}
        calls = []
        monkeypatch.setattr(cli, "fmt", lambda v: calls.append(v) or str(v))
        self.emitted(columns, "csv", tmp_path, {"value": failed})
        assert sorted(calls) == ["", "failed"]  # each distinct text once, no float

    @pytest.mark.parametrize("argv", [
        ["expect-u", "--grid", "l=-32:32:41,phi=0:2pi:7,r=0.5:1.5:2"],  # r >= 1 rows fail
        ["norm2", "--grid", "l=-32:32:41,phi=0:2pi:7", "--s", "half"],
        ["energy", "--grid", "r=0:1.5:7,j=0:2:3"],               # r >= 1 rows fail
    ])
    def test_sweep_csv_matches_its_json_rows(self, capsys, argv):
        code, text, _ = run_cli(["sweep", *argv], capsys)
        code_json, artifact, _ = run_cli(["sweep", *argv, "--format", "json"], capsys)
        rows = json.loads(artifact)["rows"]
        failed = [row for row in rows if row["error"]]
        assert code == code_json == 1 and 0 < len(failed) < len(rows)
        value_keys = [key for key in rows[0] if key not in ("l", "phi", "r", "j", "error")]
        assert value_keys and all(row[key] == "" for row in failed for key in value_keys)
        assert text == self.oracle_csv(rows)

    def test_mask_without_blank_rows_writes_as_no_mask(self, tmp_path):
        n = 2 * cli.CHUNK_ROWS + 7
        columns = {"distinct": np.random.default_rng(9).standard_normal(n),
                   "repeated": np.repeat(np.linspace(-32.0, 32.0, 100), n // 100 + 1)[:n],
                   "constant": np.full(n, -0.0),
                   "error": [""] * n}
        blank = dict.fromkeys(("distinct", "repeated", "constant"), np.zeros(n, dtype=bool))
        assert self.emitted(columns, "csv", tmp_path, blank) == self.emitted(columns, "csv",
                                                                             tmp_path)
        # and a chunk of distinct floats goes to the one %.17g slot, not through a cell list
        chunk = columns["distinct"][:cli.CHUNK_ROWS]
        assert cli._float_plan(chunk, np.zeros(chunk.size, dtype=bool), "", cli.fmt)[0] == "%.17g"

    def test_one_csv_writer_per_table(self, tmp_path, monkeypatch):
        texts = [f"row {i}, quoted" for i in range(50)] + ['say "hi"', "two\nlines", ""]
        columns = {"x": np.arange(len(texts) * 3) / 7, "text": texts * 3}
        expected = self.oracle_csv([dict(zip(columns, values))
                                    for values in zip(*columns.values())]).encode()
        writers = []
        writer = csv.writer
        monkeypatch.setattr(cli.csv, "writer", lambda *a, **k: writers.append(1) or writer(*a, **k))
        assert self.emitted(columns, "csv", tmp_path) == expected
        assert len(writers) == 1

    def test_lone_float_column_with_blanks(self, tmp_path):
        columns = {"only": np.array([1.5, 0.0, -0.0, 0.0])}
        blank = {"only": np.array([False, True, False, True])}
        rows = self.rows_with_blanks(columns, blank)
        assert self.emitted(columns, "csv", tmp_path, blank) == self.oracle_csv(rows).encode()
        assert self.emitted(columns, "csv", tmp_path, blank) == b'only\n1.5\n""\n-0\n""\n'

    @pytest.mark.parametrize("columns", [
        {"only": ["", "x"]},          # a lone empty cell is written as ""
        {"only": ["", 2.5, ""]},      # so is a blank in a lone float column
        {"a": [], "b": []},           # no rows: no header either
        {"x": [0.5], "y": [float("inf")]},
    ])
    def test_small_tables_match_row_writer(self, tmp_path, columns):
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        assert self.emitted(columns, "csv", tmp_path) == self.oracle_csv(rows).encode()

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([0, 1, cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS + 1, 3 * cli.CHUNK_ROWS]),
           seed=st.integers(0, 2 ** 32 - 1),
           floats=st.lists(st.tuples(st.sampled_from(FLOAT_KINDS), st.sampled_from(BLANK_KINDS)),
                           max_size=3),
           lists=st.lists(st.sampled_from(LIST_KINDS), max_size=3))
    def test_json_rows_match_json_dumps(self, n, seed, floats, lists):
        rng = np.random.default_rng(seed)
        columns, blank = {}, {}
        for i, (kind, blanks) in enumerate(floats):
            key = f"f{i} {kind}"
            columns[key] = float_column(kind, n, rng)
            if blanks != "none":
                blank[key] = {"random": rng.random(n) < 0.3, "all": np.ones(n, dtype=bool),
                              "unset": np.zeros(n, dtype=bool)}[blanks]
        for i, kind in enumerate(lists):
            columns[f'l{i} "{kind}" \u00e9'] = list_column(kind, n, rng)
        assume(columns)
        out = io.StringIO()
        args = SimpleNamespace(command="verify", suite="theta", format="json", out=None)
        with contextlib.redirect_stdout(out):
            cli.emit(columns, args, blank)
        artifact = {"command": ["verify"], "config": {"suite": "theta"},
                    "rows": self.rows_with_blanks(columns, blank)}
        text, expected = out.getvalue(), json.dumps(artifact, default=float) + "\n"
        # the first difference, not a diff of the whole, which is slow
        first = next((i for i, pair in enumerate(zip(text, expected)) if pair[0] != pair[1]),
                     min(len(text), len(expected)))
        assert text[first - 40:first + 40] == expected[first - 40:first + 40]
        assert len(text) == len(expected)



C = cli.CHUNK_ROWS
# a row count, as the two factors of a sweep grid
ROW_COUNTS = {1: (1, 1), C - 1: (63, 65), C: (64, 64), C + 1: (17, 241), 3 * C + 7: (5, 2459)}


class TestArtifactBytes:
    """Every CSV table a sweep or dynamics run hands emit, against csv.writer with fmt per cell."""

    @staticmethod
    def oracle_csv(columns, blank):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        n = len(next(iter(columns.values())))
        if n:
            writer.writerow(columns)
        for i in range(n):
            writer.writerow(["" if key in blank and blank[key][i] else cli.fmt(col[i])
                             for key, col in columns.items()])
        return buffer.getvalue()

    def check(self, argv, capsys, monkeypatch):
        tables = []
        emit = cli.emit
        monkeypatch.setattr(cli, "emit", lambda columns, args, blank=None: (
            tables.append((columns, blank or {})), emit(columns, args, blank))[1])
        code, out, _ = run_cli(argv, capsys)
        (columns, blank), = tables
        self.assert_same(out, self.oracle_csv(columns, blank))
        return code, columns, blank

    @staticmethod
    def assert_same(text, expected):
        """text == expected, reported at the first line that differs (a diff of the whole is slow)."""
        lines, wanted = text.split("\n"), expected.split("\n")
        first = next((i for i, pair in enumerate(zip(lines, wanted)) if pair[0] != pair[1]),
                     min(len(lines), len(wanted)))
        assert lines[first:first + 1] == wanted[first:first + 1] and len(lines) == len(wanted)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("target, grid", [
        ("expect-j", "l=-30:30:{},phi=0:4pi:{}"),
        ("expect-u", "l=-30:30:{},r=0.5:1.5:{}"),  # r >= 1 rows fail
        ("norm2", "l=-30:30:{},phi=0:4pi:{}"),      # |l'| > 26.6 rows fail
        ("gaussian-supnorm", "l=-30:30:{},phi=0:4pi:{}"),
    ])
    @pytest.mark.parametrize("s", ["int", "half"])
    def test_state_sweeps(self, capsys, monkeypatch, target, grid, s, n):
        code, columns, blank = self.check(
            ["sweep", target, "--grid", grid.format(*ROW_COUNTS[n]), "--s", s], capsys,
            monkeypatch)
        assert len(columns["error"]) == n
        if n > 1 and target in ("expect-u", "norm2"):
            assert code == 1 and 0 < next(iter(blank.values())).sum() < n

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("target, grid", [
        ("energy", "r=0:1.5:{},j=-2:2:{}"),              # r >= 1 rows fail
        ("projector", "delta=-0.1:0.1:{},theta=0:pi:{}"),  # delta <= 0 rows fail
    ])
    def test_column_sweeps(self, capsys, monkeypatch, target, grid, n):
        code, columns, blank = self.check(
            ["sweep", target, "--grid", grid.format(*ROW_COUNTS[n])], capsys, monkeypatch)
        assert len(columns["error"]) == n
        if n > 1:
            assert code == 1 and 0 < next(iter(blank.values())).sum() < n

    @pytest.mark.parametrize("n", [2, C - 1, C, C + 1, 3 * C + 7])  # t_end > 0: 2 rows or more
    def test_dynamics(self, capsys, monkeypatch, n):
        code, columns, _ = self.check(
            ["dynamics", "--t-end", repr((n - 1) / 100), "--dt", "0.01"], capsys, monkeypatch)
        assert code == 0 and len(columns["t"]) == n

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_one_column_table(self, tmp_path, n):
        rng = np.random.default_rng(n)
        for column in (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
                       np.repeat([0.5, -0.0, 1e300], n // 3 + 1)[:n]):
            blank = {"only": rng.random(n) < 0.3}
            out = tmp_path / "table.csv"
            cli.emit({"only": column}, SimpleNamespace(format="csv", out=str(out)), blank)
            self.assert_same(out.read_text(), self.oracle_csv({"only": column}, blank))


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
        ["sweep", "norm2", "--grid", "l=0:0:3", "--r", "nan"],  # a config text "nan"
        *(["sweep", *argv] for argv in COLUMN_SWEEPS),
    ]

    @pytest.mark.parametrize("argv", ARTIFACT_COMMANDS, ids=" ".join)
    def test_run_gives_the_artifact_bytes(self, capsys, tmp_path, argv):
        artifact, rerun = tmp_path / "artifact.json", tmp_path / "rerun.json"
        code = cli.main([*argv, "--format", "json", "--out", str(artifact)])
        assert cli.main(["run", "--config", str(artifact),
                         "--format", "json", "--out", str(rerun)]) == code
        capsys.readouterr()
        assert rerun.read_bytes() == artifact.read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_config_value_is_strict_json(self, capsys, tmp_path, value):
        artifact = tmp_path / "a.json"
        assert cli.main(["sweep", "norm2", "--grid", "l=0:0:3", "--r", value, "--format", "json",
                         "--out", str(artifact)]) == 1
        config = json.loads(artifact.read_text(), parse_constant=_no_constant)["config"]
        assert config["r"] == value

    def test_config_records_every_flag_but_out_and_format(self, capsys, tmp_path):
        artifact = tmp_path / "a.json"
        cli.main(["cs", "coeffs", "--j-max", "12", "--format", "json", "--out", str(artifact)])
        config = json.loads(artifact.read_text())["config"]
        assert config == {"l": 0.0, "phi": 0.0, "r": 0.5, "s": 0.0, "j_max": 12.0, "l2": 0.0,
                          "phi2": 0.0, "t": 1.0, "L0": 0.0}  # --j is unset: a null would not re-run

    # artifacts written before every flag was recorded: a hand-picked key set,
    # and a sweep's target among the config keys; a dynamics artifact from
    # before --method re-runs by RK4, the route that wrote it
    OLD_ARTIFACTS = [
        ({"command": ["cs", "coeffs"], "config": {"l": 0.5, "phi": 1.0, "r": 0.5, "s": 0.5}},
         ["cs", "coeffs", "--l", "0.5", "--phi", "1", "--s", "half"]),
        ({"command": ["sweep", "norm2"],
          "config": {"target": "norm2", "grid": "l=-1:1:3", "l": 0.0, "phi": 0.0, "r": 0.5,
                     "s": 0.0, "j": 0.5, "L0": 0.0, "theta": 0.0, "delta": 0.1, "workers": 1}},
         ["sweep", "norm2", "--grid", "l=-1:1:3"]),
        ({"command": ["dynamics"], "config": {"phi": 0.3, "j": 1.0, "L0": 0.2, "z0": 0.0,
                                              "r": 0.5, "t_end": 0.05, "dt": 0.01, "tol": 1e-6}},
         ["dynamics", "--phi", "0.3", "--L0", "0.2", "--t-end", "0.05", "--dt", "0.01",
          "--method", "rk4"]),
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
        ["theta", "--phi", "pi/0"],
        ["theta", "--phi", "pi/0.0"],
        ["cs", "expect-j", "--l", "--phi", "1"],
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


# sha256 of stdout.  The expect-j digests date from before the truncation orders were read
# from one table per lattice.  The sweep norm2 and theta outputs were recomputed when the
# real-exponent lattice rows began to sum real exponentials, and the sweep expect-u outputs
# when the dual <U> route began to read Theta_3 and Theta_4 from one cosine table; each
# recomputed output was checked against 40-digit mpmath.  The grid crosses |l'| ~ 26.6, so
# norm2 has error rows.  The --method rk4 dynamics digests are those the same orbits printed
# before the closed-form route existed.  The default-route dynamics outputs were recomputed
# when the quadrature began to read G from one table of Chebyshev panels; each was checked
# against RK4 at dt/8 to 1e-10 in every column, and its angles against 30-digit mpmath's G
# to 1e-15 in backward error, before it was pinned.  The --format json
# digests are those json.dumps of one dict per row printed, before the JSON rows were
# assembled as bytes; the sweep's has blank cells and error texts, and verify's is a table
# of lists alone
DYNAMICS_ORBITS = [
    ["dynamics", "--phi", "0.3", "--L0", "0.2", "--t-end", "0.5", "--dt", "0.01"],
    ["dynamics", "--phi", "1", "--j", "-2", "--r", "0.9", "--t-end", "2", "--dt", "0.01"],
    ["dynamics", "--phi", "-0.5pi", "--j", "30", "--L0", "0.5", "--r", "0.9", "--t-end", "0.2",
     "--dt", "1e-3"],
]
OUTPUT_DIGESTS = [
    (["sweep", "expect-j", "--s", "int"], 0,
     "8b76e7dba6507a9b68da112adfe2ebe15b3baf07082e348827968392b733ea8f"),
    (["sweep", "expect-u", "--s", "int"], 0,
     "a84871d9cb9a549e8fd5c332772514d5e650aa33ab5eaabd174aa2332676c26a"),
    (["sweep", "norm2", "--s", "int"], 1,
     "69f011851aa9726e4374c82d08c7cac8ca7505a32c96804b871928095a4a3232"),
    (["sweep", "expect-j", "--s", "half"], 0,
     "834e9a1950a0ab1e15eb8cf3a9e934f8189c0389e95bdee564fc4dc39b00a7c0"),
    (["sweep", "expect-u", "--s", "half"], 0,
     "973429e04cc8acb33074073261221044d4a00d5bab8110942cb05719bdeb6b80"),
    (["sweep", "norm2", "--s", "half"], 1,
     "4eed950f3922170b3cd6d3b04d2375cde348b42a72aa42d5fa664a9387856ff0"),
    (["theta", "--l", "0.3"], 0, "0e754931258936856df3ac6d996e1fc4819d561d9af84f639ed58970a497ce95"),
    (["theta", "--l", "-12.7"], 0, "284595505bc869a508565e2d5aec3683d691197f3840547231b8a0b417270b11"),
    (["theta", "--l", "26.3"], 0, "42173457707efda626ffaf29b8d9719f87a85c3a147051cc163dafe4aed14d7f"),
    ([*DYNAMICS_ORBITS[0], "--method", "rk4"], 0,
     "27c7f9743907a0f5b613fedc57b1edd20c2c8bf1c82f7cefb720bd613c9a5f53"),
    ([*DYNAMICS_ORBITS[1], "--method", "rk4"], 0,
     "9b9eb4d4324599dac87d7bd2d4e875c927e3e09ca31c36862f9acbf959076922"),
    ([*DYNAMICS_ORBITS[2], "--method", "rk4"], 0,
     "747037b0ee12b163924a0c7ad1f65fc8d2c90459616222496bb1231ec00d8839"),
    (DYNAMICS_ORBITS[0], 0, "a9b50329479cb32f675dba8c458c4ffe596e71fa3f76375d43346eeb30f79c5d"),
    (DYNAMICS_ORBITS[1], 0, "af1710de9eadedfd42c85b9b4ad00ade30a3f006267e221215326e916058b077"),
    (DYNAMICS_ORBITS[2], 0, "d85ca0db537e180e25cb84af825ee7f704840c7af7062957280d5c74a4ccead3"),
    ([*DYNAMICS_ORBITS[0], "--format", "json"], 0,
     "c09e3b9666c75c4b8299d98e29a19574b2833cf93265355af1716feff3363c56"),
    ([*DYNAMICS_ORBITS[1], "--format", "json"], 0,
     "ab3a3ea4be3057958117b0afe41d4bb6acbb5f060a05b72e155622319a326d8a"),
    ([*DYNAMICS_ORBITS[2], "--format", "json"], 0,
     "82fe96191922cfdb1e0abaf477a420a4c71d9000d8c5091616a5792fc1331514"),
    ([*DYNAMICS_ORBITS[1], "--method", "rk4", "--format", "json"], 0,
     "794c8c569b3e77f4e364d8c8301b011a17146a8792d4e30d6d101c03d64ecd5b"),
    (["sweep", "norm2", "--s", "half", "--format", "json"], 1,
     "b7f65c84e1a57bb89c37290956cbd53c4ef72d16571f54c391fdbc128a900778"),
    (["verify", "--suite", "theta", "--format", "json"], 0,
     "d09d309c71bfa3e43de8ad72186f4bc36b7a1726421b8cd0944773809f9739be"),
]


@pytest.mark.parametrize("argv,code,digest", OUTPUT_DIGESTS)
def test_output_digest(capsys, argv, code, digest):
    if argv[0] == "sweep":
        argv = [*argv, "--grid", "l=-27:27:55,phi=0:4pi:7", "--r", "0.5"]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    # verify reports each check on stderr; no other command writes there
    assert err == "" if argv[0] != "verify" else err.startswith("PASS ")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_theta_past_max_terms_error_text(capsys):
    assert run_cli(["theta", "--l", "1e17"], capsys) == (
        1, "", "precision failure: lattice sum did not reach tol=1e-14 within 10000 terms "
               "(achieved inf)\n")


# -- the exit contract of the theta and state commands -------------------------------

CONTRACT_L = ["0", "-0", "5e-324", "26.3", "-26.3", "26.7", "-26.7", "4503599627370496",
              "1e300", "-1e300", "1.7976931348623157e308", "nan", "inf", "-inf", "-0.5pi"]
CONTRACT_R = ["0", "0.9", "0.999999999", "1", "-0.1", "nan"]


CONTRACT_COMMANDS = ["theta", "cs norm2", "cs expect-u", "cs overlap", "cs distribution",
                     "cs coeffs", "cs quantize", "cs fidelity", "spectrum", "project",
                     "sweep norm2", "sweep expect-u", "sweep expect-j", "sweep gaussian-supnorm",
                     "sweep energy", "sweep projector"]
# the flag that takes the sampled l2, where it is not a sweep's grid end
CONTRACT_L2_FLAGS = {"cs overlap": "--l2", "cs distribution": "--j", "cs fidelity": "--t",
                     "spectrum": "--j-max"}
SWEEP_AXES = {"energy": "j", "projector": "theta"}  # every other sweep runs l


def contract_argv(command, l, l2, r, phi, s) -> list:
    """The command line of an exit-contract case.

    A sweep runs the grid l:l2:3 on its axis; project takes l as --theta and r
    as --delta, spectrum takes l as --L0, and every other command l as --l.
    """
    argv = command.split()
    if argv[0] == "project":  # it takes no --r and no --s
        return [*argv, "--theta", l, "--delta", r, "--phi", phi]
    if argv[0] == "sweep":
        argv += ["--grid", f"{SWEEP_AXES.get(argv[1], 'l')}={l}:{l2}:3"]
    else:
        argv += ["--L0" if command == "spectrum" else "--l", l]
    if command in CONTRACT_L2_FLAGS:
        argv += [CONTRACT_L2_FLAGS[command], l2]
    return [*argv, "--r", r, "--phi", phi, "--s", s]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(CONTRACT_COMMANDS), l=st.sampled_from(CONTRACT_L),
       l2=st.sampled_from(CONTRACT_L), r=st.sampled_from(CONTRACT_R),
       phi=st.sampled_from(["0", "pi", "-0.5pi"]), s=st.sampled_from(["int", "half"]))
# past the overflow edge; a pair midpoint past DBL_MAX; l' past 2^52, where every double is
# an integer; the direct <U> route at the end of double range; the occupation law's window
# past 2^52, as a table and as sweep rows
@example(command="sweep norm2", l="-26.7", l2="26.7", r="0", phi="0", s="half")
@example(command="cs overlap", l="1.7976931348623157e308", l2="1e300", r="0.9", phi="0",
         s="half")
@example(command="theta", l="4503599627370496", l2="0", r="0", phi="pi", s="int")
@example(command="cs expect-u", l="-1e300", l2="0", r="0.999999999", phi="-0.5pi", s="half")
@example(command="cs distribution", l="4503599627370496", l2="4503599627370496", r="0",
         phi="0", s="int")
@example(command="sweep gaussian-supnorm", l="-1e300", l2="4503599627370496", r="0.9",
         phi="pi", s="half")
def test_exit_contract_of_every_command_but_dynamics(command, l, l2, r, phi, s):
    """The exit contract (assert_exit_contract) of every command but dynamics and verify."""
    argv = contract_argv(command, l, l2, r, phi, s)
    assert assert_exit_contract([*argv, "--format", "json"]) == assert_exit_contract(argv), argv


def _no_constant(name):
    raise ValueError(f"JSON output holds {name}")


def assert_exit_contract(argv) -> int:
    """Run argv; no exception escapes, exit 0 prints only finite numbers, exit 2 prints nothing.

    Returns the exit code.  A sweep row with an empty error holds finite
    numbers at exit 0 or 1.  argparse's own exit (SystemExit 2) counts as
    exit code 2.  A --format json output must parse as strict JSON, with no
    NaN, Infinity or -Infinity, at every exit code that prints it.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
        return code
    if "json" in argv and out.getvalue():
        rows = json.loads(out.getvalue(), parse_constant=_no_constant)["rows"]
    else:
        rows = csv_rows(out.getvalue())
    if argv[0] == "sweep":
        rows = [row for row in rows if not row.pop("error")]
    elif code == 1:
        assert out.getvalue() == "", argv
    for row in rows:
        for key, cell in row.items():
            if key != "quantity":
                assert math.isfinite(float(cell)), (argv, key, cell)
    return code


# -- the exit-class ledger of the cs actions -------------------------------------

LEDGER_L = ["26.3", "-26.3", "30", "-30", "1e4", "-1e4", "4503599627370496", "-4503599627370496",
            "1e300", "-1e300"]
# the known false failures, by action and |l'|, each with the ROADMAP item that mends it
LEDGER_FALSE_FAILURES = {
    **{("fidelity", c): "item 4: the Fock-sum fidelity overflows its unnormalized norms (exit 1)"
       for c in (30.0, 1e4)},
    **{("fidelity", c): "item 4: the Fock-sum fidelity's coefficient peak overflows (exit 1)"
       for c in (2.0 ** 52, 1e300)},
}


def ledger_code(action, center, s) -> int:
    """The exit code cs <action> owes at l' = center: 0 where its value is a finite double.

    norm2, the self-overlap (--l2 equal to --l) and the peak coefficient of coeffs
    owe 1 where they truly overflow: their 40-digit mpmath logarithm,
    l'^2 + log sum_g exp(-(g - f)^2) and max_g (l'^2 - (g - f)^2)/2 over
    g in Z + s (f = l' - round(l'), j = round(l') + g), passes log(DBL_MAX).
    distribution and quantize owe 1 from |l'| = 2^52 on, where the level lattice is
    not resolved (_check_lattice_resolved).  <J>, <U> and a fidelity <= 1 are finite
    at any l'.
    """
    if action in ("distribution", "quantize"):
        return int(abs(center) >= 2.0 ** 52)
    if action not in ("norm2", "overlap", "coeffs"):
        return 0
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    c = mp.mpf(center)
    d = [mp.mpf(k + s) - (c - round(center)) for k in range(-40, 41)]
    if action == "coeffs":
        log_value = (c * c - min(x * x for x in d)) / 2
    else:
        log_value = c * c + mp.log(mp.fsum(mp.exp(-x * x) for x in d))
    return int(log_value > mp.log(sys.float_info.max))


LEDGER = [pytest.param(action, l, s, id=f"{action} {l} {s}", marks=[pytest.mark.xfail(
              strict=True, reason=LEDGER_FALSE_FAILURES[action, abs(float(l))])]
          if (action, abs(float(l))) in LEDGER_FALSE_FAILURES else [])
          for action in CS_ACTIONS for l in LEDGER_L for s in ("int", "half")]


@pytest.mark.parametrize("action,l,s", LEDGER)
def test_exit_class_ledger(action, l, s):
    # r = 0, so l' = l; a value that truly overflows exits 1, never 2
    argv = ["cs", action, "--l", l, "--r", "0", "--s", s]
    if action == "overlap":
        argv += ["--l2", l]
    assert assert_exit_contract(argv) == ledger_code(action, float(l), 0.5 if s == "half" else 0.0)


# the allocation edges of test_dynamics_non_finite_input_exit_code, and a short grid
CONTRACT_SPANS = [("--t-end", "1", "--dt", "1e-2"), ("--t-end", "1e300", "--dt", "1e-300"),
                  ("--t-end", "1e12", "--dt", "1e-3"), ("--t-end", "1e300")]


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from(["0", "0.9", "0.99", "0.998", "0.999999", "0.999999999"]),
       phi=st.sampled_from(["0", "pi", "2pi", "-0.5pi"]), L0=st.sampled_from(["0", "0.5", "-1"]),
       j=st.sampled_from(["1", "-2", "-30", "K=0"]), span=st.sampled_from(CONTRACT_SPANS))
# a still strip (K = 0); the narrowest neck the strategy reaches; a fast orbit through the
# narrow neck at phi = 2pi, which RK4 cannot resolve at its last halving; an orbit through
# the neck at r = 0.998, where RK4 drifts by 0.65 after its last halving
@example(r="0.9", phi="-0.5pi", L0="0.5", j="K=0", span=CONTRACT_SPANS[0])
@example(r="0.999999999", phi="2pi", L0="0", j="-2", span=CONTRACT_SPANS[0])
@example(r="0.99", phi="2pi", L0="0", j="-30", span=CONTRACT_SPANS[0])
@example(r="0.998", phi="0", L0="0.3", j="20", span=("--t-end", "10", "--dt", "1e-3"))
def test_exit_contract_of_dynamics_under_both_methods(r, phi, L0, j, span):
    """The exit contract for dynamics, by the default route and by --method rk4.

    K = 0 sets j = -(r/2)*cos(phi/2)*L0, where phi_dot = 0.  Both routes share
    their checks, so they exit 2 alike; the default route samples every orbit
    of this grid in closed form, so it never exits 1 on it.
    """
    if j == "K=0":
        j = repr(-0.5 * float(r) * math.cos(0.5 * cli.parse_angle(phi)) * float(L0))
    argv = ["dynamics", "--r", r, "--phi", phi, "--L0", L0, "--j", j, *span]
    default, rk4 = assert_exit_contract(argv), assert_exit_contract([*argv, "--method", "rk4"])
    for method, code in (("quadrature", default), ("rk4", rk4)):
        assert assert_exit_contract([*argv, "--method", method, "--format", "json"]) == code, argv
    assert (default == 2) == (rk4 == 2), argv
    assert default in (0, 2), argv
