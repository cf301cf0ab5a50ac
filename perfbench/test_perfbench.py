"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repository root."""

from __future__ import annotations

import json
import math
import os
import re

import pytest

from perfbench import checks, run, tracing, workloads
from perfbench.workloads import Call

cli = run.load_program()
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _output(argv) -> str:
    seconds, rc, exc, stdout = run.invoke(cli.main, argv)
    assert exc is None and rc == 0, (rc, exc)
    return stdout


def _replace_cell(text: str, row: int, column: str, new: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = new
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _scaled(text: str, row: int, column: str, factor: float) -> str:
    header = text.splitlines()[0].split(",")
    value = float(text.splitlines()[row + 1].split(",")[header.index(column)])
    return _replace_cell(text, row, column, f"{value * factor:.17g}")


# ---------------------------------------------------------------------------
# injected NaN or perturbed values count as failed
# ---------------------------------------------------------------------------

SWEEP_CHECK = {"target": "expect-j", "r": 0.5, "s": 0.0, "sample_seed": 7}


def test_sweep_output_passes_then_fails_on_nan_and_perturbation():
    text = _output(("sweep", "expect-j", "--grid", "l=-1:1:3,phi=0:2:2", "--r", "0.5"))
    assert checks.check_sweep(SWEEP_CHECK, text)[0] == 0
    assert checks.check_sweep(SWEEP_CHECK, _replace_cell(text, 2, "expect_j", "nan"))[0] == 1
    # 6 rows are all inside the mpmath sample
    assert checks.check_sweep(SWEEP_CHECK, _scaled(text, 4, "expect_j", 1 + 1e-7))[0] == 1


def test_sweep_row_error_counts_as_failed():
    text = _output(("sweep", "norm2", "--grid", "l=0:1:2", "--r", "0.5"))
    broken = _replace_cell(text, 0, "error", "OverflowError: math range error")
    assert checks.check_sweep(dict(SWEEP_CHECK, target="norm2"), broken)[0] == 1


TRAJ = {"phi": 0.3, "j": 1.0, "L0": 0.2, "z0": 0.0, "r": 0.5, "t_end": 0.05, "dt": 1e-3,
        "tol": 1e-6, "format": "csv"}


def test_trajectory_output_passes_then_fails_on_nan_and_perturbation():
    text = _output(("dynamics", "--phi", "0.3", "--j", "1", "--L0", "0.2", "--r", "0.5",
                    "--t-end", "0.05", "--dt", "1e-3"))
    assert checks.check_trajectory(TRAJ, text)[0] == 0
    assert checks.check_trajectory(TRAJ, _replace_cell(text, 10, "phi", "nan"))[0] >= 1
    # the E column must match the energy recomputed from the state columns
    assert checks.check_trajectory(TRAJ, _scaled(text, 20, "phi_dot", 1 + 1e-6))[0] >= 1
    # a row lost from the export fails every row
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checks.check_trajectory(TRAJ, truncated)[0] == 51


@pytest.mark.parametrize("argv, column", [
    (("cs", "expect-j", "--l", "0.3", "--phi", "1"), "series_path"),
    (("cs", "norm2", "--l", "0.3", "--phi", "1"), "modular_path"),
])
def test_point_query_perturbed_route_fails(argv, column):
    text = _output(argv)
    check = {"point": argv[1], "s": 0.0, "r": 0.5}
    assert checks.check_point(check, text)[0] == 0
    assert checks.check_point(check, _scaled(text, 0, column, 1 + 1e-8))[0] == 1
    assert checks.check_point(check, _replace_cell(text, 0, column, "inf"))[0] == 1


# ---------------------------------------------------------------------------
# escaped exceptions are counted and do not stop the run
# ---------------------------------------------------------------------------

def test_escaped_exception_counts_and_run_continues():
    poisoned = ("cs", "norm2", "--l", "0.25")

    def flaky_main(argv):
        if tuple(argv) == poisoned:
            raise OverflowError("math range error")
        return cli.main(argv)

    good = Call("point", ("cs", "norm2", "--l", "0.5"), 1, {"point": "norm2", "s": 0.0, "r": 0.5})
    bad = Call("point", poisoned, 1, {"point": "norm2", "s": 0.0, "r": 0.5})
    runner = run.Runner([bad, good, bad], flaky_main)
    result = runner.run_round()
    assert (result.items, result.failed, len(result.durations)) == (3, 2, 3)
    assert result.notes[0]["exception"].startswith("OverflowError")
    assert runner.consistent


def test_counts_do_not_grow_with_rounds():
    bad = Call("point", ("project", "--delta", "-1"), 1, {"point": "project"})
    good = Call("point", ("cs", "norm2", "--l", "0.5"), 1, {"point": "norm2", "s": 0.0, "r": 0.5})
    runner = run.Runner([bad, good], cli.main)
    for _ in range(3):
        runner.run_round()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_nonzero_exit_fails_the_call():
    call = Call("point", ("project", "--delta", "-1"), 1, {"point": "project"})
    result = run.Runner([call], cli.main).run_round()
    assert result.failed == 1


def test_passing_output_that_changes_between_rounds_is_not_correct():
    outputs = iter(["norm2,direct_path,modular_path\n1.5,1.5,1.5\n",
                    "norm2,direct_path,modular_path\n2.5,2.5,2.5\n"])

    def drifting_main(argv):
        print(next(outputs), end="")
        return 0

    call = Call("point", ("cs", "norm2"), 1, {"point": "norm2", "s": 0.0, "r": 0.5})
    runner = run.Runner([call], drifting_main)
    runner.run_round()
    runner.run_round()
    assert not runner.consistent


# ---------------------------------------------------------------------------
# metric names and the metric sets in BENCHMARK.json
# ---------------------------------------------------------------------------

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _tiny_calls():
    return [Call("point", ("cs", "expect-j", "--l", "0.2"), 1,
                 {"point": "expect-j", "s": 0.0, "r": 0.5}),
            Call("sweep", ("sweep", "norm2", "--grid", "l=0:1:2", "--workers", "2"), 2,
                 dict(SWEEP_CHECK, target="norm2"))]


def test_end_to_end_metric_names():
    runner = run.Runner(_tiny_calls(), cli.main)
    rounds = [run.run_rounds(runner, 0.0)[0]] * 3
    metrics, samples = run.end_to_end(runner, rounds, [0.5, 0.6, 0.7])
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert set(samples) == set(metrics)
    assert all(NAME_RE.fullmatch(name) for name in metrics)
    assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_metric_names():
    runner = run.Runner(_tiny_calls(), cli.main)
    untraced = [runner.run_round()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.run_round(tracer)
    finally:
        tracer.uninstall()
    imports = {mod: 0.1 for mod in run.IMPORT_MODULES}
    metrics, samples = run.per_layer(tracer, tracer.self_times(), traced, untraced, imports)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(NAME_RE.fullmatch(name) for name in metrics)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())
    assert metrics["states.norm2.theta.us_per_call"][0] > 0
    assert runner.consistent  # tracing does not change any output


def test_benchmark_json_names_are_valid():
    names = ([w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 and n[0].isalnum() for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracing_off_installs_no_wrappers():
    run.Runner(_tiny_calls(), cli.main).run_round()
    assert tracing.installed_wrappers() == []


def test_install_wraps_every_binding_and_uninstall_restores():
    from mobiuscs import projection, states, theta

    original = theta.theta3
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        assert states.theta3 is theta.theta3 is not original
        assert projection.label_center is states.label_center
        assert hasattr(projection.label_center, tracing.WRAPPER_MARK)
        assert "mobiuscs.cli.fmt" not in tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    assert states.theta3 is theta.theta3 is original
    assert tracing.installed_wrappers() == []


def test_self_time_subtracts_union_of_children():
    tracer = tracing.Tracer()
    for parent, start, end in ((-1, 0, 100), (0, 10, 30), (0, 20, 50), (0, 60, 70), (3, 62, 64)):
        tracer.parent.append(parent)
        tracer.name.append(0)
        tracer.req.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    assert tracer.self_times() == [50, 20, 30, 8, 2]


def test_worker_thread_spans_nest_under_the_sweep():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.invoke(cli.main, ("sweep", "norm2", "--grid", "l=0:1:4", "--workers", "2"))
    finally:
        tracer.uninstall()
    names = [tracer.names[n] for n in tracer.name]
    sweep = names.index("cli.cmd_sweep")
    norm_parents = {tracer.parent[i] for i, n in enumerate(names) if n == "states.norm2.theta"}
    assert norm_parents == {sweep}


# ---------------------------------------------------------------------------
# inputs and the checkout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workloads_are_seeded(name):
    assert workloads.build(name, 3, "out") == workloads.build(name, 3, "out")
    assert workloads.build(name, 3, "out") != workloads.build(name, 4, "out")


def test_point_queries_cover_every_kind():
    calls = workloads.build("point-queries", 1, "out")
    kinds = [c.check["point"] for c in calls]
    assert len(calls) == 305 and kinds.count("verify") == 1 and kinds.count("project") == 4
    assert all(kinds.count(k) == 30 for k in workloads.POINT_KINDS)


def test_missing_sources_are_refused(monkeypatch):
    monkeypatch.setattr(run, "SRC", os.path.join(run.ROOT, "no-such-src"))
    with pytest.raises(RuntimeError):
        run.load_program()


def test_label_center_matches_program():
    from mobiuscs import geometry

    for l, phi in ((0.3, 1.0), (-27.0, 5.0), (31.9, 12.0)):
        assert math.isclose(checks.label_center(l, phi, 0.5), geometry.label_center(l, phi, 0.5))
