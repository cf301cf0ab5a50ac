#!/usr/bin/env python3
"""Benchmark the mobiuscs CLI end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 perfbench/run.py --workload label-sweep --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: every call is ``cli.main(argv)`` in
this interpreter, issued when the previous one has returned.  Calls repeat
in rounds until ``--seconds`` of round time has passed.  Every output is
checked (``perfbench/checks.py``); the last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it from the
repository root; it imports the package from ``src/`` and writes only under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # run as a script: make the perfbench package importable
    sys.path.insert(0, ROOT)

from perfbench import checks, tracing, workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT_DIR = ".perfbench_out"
PINNED_ENV = ("MOBIUSCS_WORKERS", "MOBIUSCS_NO_NUMBA")
SETUP_CODE = "import mobiuscs\nfrom mobiuscs import cli\ncli.build_parser()\n"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORT_MODULES = ("mobiuscs", "mobiuscs.theta", "mobiuscs.geometry", "mobiuscs.dynamics",
                  "mobiuscs.states", "mobiuscs.projection", "mobiuscs.report", "mobiuscs.cli",
                  "numpy", "scipy.integrate")


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter importing the package and building the parser
# ---------------------------------------------------------------------------

def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = SRC
    return env


def _spawn_setup(importtime: bool) -> tuple[float, str]:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", SETUP_CODE]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=program_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return time.perf_counter() - start, proc.stderr


def measure_setup(repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh set-ups, after one that fills the bytecode cache."""
    _spawn_setup(False)
    return [_spawn_setup(False)[0] for _ in range(repeats)]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        out[name.strip()] = int(cumulative) / 1e6
    return out


def measure_imports(repeats: int) -> dict[str, float]:
    _spawn_setup(True)
    runs = [parse_importtime(_spawn_setup(True)[1]) for _ in range(repeats)]
    return {mod: statistics.median(r.get(mod, 0.0) for r in runs) for mod in IMPORT_MODULES}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def invoke(cli_main, argv) -> tuple[float, object, str | None, str]:
    """(seconds, exit code, escaped exception, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(list(argv))
    except SystemExit as stop:  # argparse rejected the arguments
        rc = stop.code if isinstance(stop.code, int) else 2
    except Exception as error:  # an escaped error fails the call; the loop goes on
        exc = f"{type(error).__name__}: {error}"
    return time.perf_counter() - start, rc, exc, out.getvalue()


@dataclass
class Round:
    wall: float
    durations: list[float]
    items: int
    failed: int
    emitted_bytes: int
    notes: list = field(default_factory=list)


class Runner:
    """Runs a workload's calls round after round and judges every output.

    A verdict is cached per (argv, exit code, output) fingerprint, so a
    repeated byte-identical output is not re-checked.  ``consistent`` turns
    false if a call with passing items gives different outputs in
    different rounds.

    ``attempted`` and ``failed`` count the workload's items once, however
    many rounds ran: an item fails if it failed in any round.  The counts
    then depend on the seed alone, not on how many rounds fit in the run.
    """

    def __init__(self, calls, cli_main):
        self.calls = calls
        self.cli_main = cli_main
        self._verdicts: dict[str, tuple[int, dict]] = {}
        self._first: dict[int, tuple[str, int]] = {}
        self._worst: dict[int, int] = {}
        self.consistent = True

    @property
    def attempted(self) -> int:
        return sum(call.items for call in self.calls)

    @property
    def failed(self) -> int:
        return sum(self._worst.values())

    def run_round(self, tracer=None) -> Round:
        for call in self.calls:
            if call.out and os.path.exists(call.out):
                os.remove(call.out)
        raw = []
        start = time.perf_counter()
        for i, call in enumerate(self.calls):
            if tracer is not None:
                tracer.request = i
            raw.append(invoke(self.cli_main, call.argv))
        wall = time.perf_counter() - start

        failed = emitted = 0
        notes = []
        for i, (call, (_, rc, exc, stdout)) in enumerate(zip(self.calls, raw)):
            payload = stdout
            if call.out and exc is None and os.path.exists(call.out):
                with open(call.out, encoding="utf-8") as fh:
                    payload = fh.read()
            emitted += len(payload.encode())
            n_bad, note = self.judge(i, call, rc, exc, payload)
            failed += n_bad
            if n_bad:
                notes.append({"argv": " ".join(call.argv), "failed": n_bad, **note})
        return Round(wall, [r[0] for r in raw], sum(c.items for c in self.calls),
                     failed, emitted, notes)

    def judge(self, index, call, rc, exc, payload) -> tuple[int, dict]:
        key = hashlib.sha256(f"{call.argv}\0{rc}\0{exc}\0{payload}".encode()).hexdigest()
        verdict = self._verdicts.get(key)
        if verdict is None:
            if exc is not None:
                verdict = (call.items, {"exception": exc})
            elif call.out and not payload:
                verdict = (call.items, {"error": f"exit {rc}, no output written"})
            else:
                failed, note = checks.count_failed(call.kind, call.check, payload)
                # a sweep exits 1 exactly when some row failed; any other
                # non-zero exit, or one with no failed row, fails the whole call
                if rc != 0 and not (call.kind == "sweep" and rc == 1 and failed):
                    failed, note = call.items, dict(note, exit=rc)
                verdict = (failed, note)
            self._verdicts[key] = verdict
        # an output with any passing item must repeat byte for byte; a call
        # that fails outright may fail differently (NaN one time, an
        # exception the next)
        first_key, first_failed = self._first.setdefault(index, (key, verdict[0]))
        if key != first_key and not (verdict[0] == first_failed == call.items):
            self.consistent = False
        self._worst[index] = max(self._worst.get(index, 0), verdict[0])
        return verdict


def run_rounds(runner: Runner, seconds: float) -> list[Round]:
    """Complete rounds until their summed wall time reaches ``seconds``."""
    rounds = []
    while not rounds or sum(r.wall for r in rounds) < seconds:
        rounds.append(runner.run_round())
    return rounds


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, rounds: list[Round], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and the sample count behind each."""
    durations = [d for r in rounds for d in r.durations]
    p90 = statistics.quantiles(durations, n=10, method="inclusive")[8]
    attempted, failed = runner.attempted, runner.failed
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (statistics.median(r.items / r.wall for r in rounds), "items/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_p90_s": (p90, "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "setup_s": f"{len(setup)} fresh interpreters",
        "items_per_s": f"{len(rounds)} rounds of {rounds[0].items} items",
        "op_p50_s": f"{len(durations)} calls",
        "op_p90_s": f"{len(durations)} calls, {sum(d > p90 for d in durations)} beyond",
        "ok_frac": f"{attempted} distinct items, {failed} failed in some round",
        "peak_rss_mb": "1 process",
    }
    return metrics, samples


def per_layer(tracer, own, traced: Round, untraced: list[Round], imports: dict) -> tuple[dict, dict]:
    metrics = tracer.layer_metrics(own)
    metrics["cli.emit_mb"] = (traced.emitted_bytes / 1e6, "MB")
    metrics["trace.overhead_frac"] = (
        traced.wall / statistics.median(r.wall for r in untraced) - 1.0, "ratio")
    for mod, seconds in imports.items():
        metrics[f"setup.{mod}_import_s"] = (seconds, "s")
    samples = {name: "1 traced round" for name in metrics}
    samples["trace.overhead_frac"] = f"1 traced round vs {len(untraced)} untraced"
    for mod in imports:
        samples[f"setup.{mod}_import_s"] = f"{IMPORTTIME_REPEATS} fresh interpreters"
    return metrics, samples


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cleared_env": list(PINNED_ENV),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    """Import mobiuscs from this checkout's ``src/``, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mobiuscs", "cli.py")):
        raise RuntimeError(f"no mobiuscs sources under {SRC}")
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    from mobiuscs import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"mobiuscs imported from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        cli = load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    calls = workloads.build(args.workload, args.seed, OUT_DIR)
    runner = Runner(calls, cli.main)

    if args.trace:
        imports = measure_imports(IMPORTTIME_REPEATS)
        rounds = run_rounds(runner, args.seconds)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.run_round(tracer)
        finally:
            tracer.uninstall()
        own = tracer.self_times()
        metrics, samples = per_layer(tracer, own, traced, rounds, imports)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz"), own)
        rounds.append(traced)
    else:
        setup = measure_setup(SETUP_REPEATS)
        rounds = run_rounds(runner, args.seconds)
        metrics, samples = end_to_end(runner, rounds, setup)

    for call in calls:
        if call.out and os.path.exists(call.out):
            os.remove(call.out)
    attempted, failed = runner.attempted, runner.failed
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "round_walls": [r.wall for r in rounds],
        "correct": runner.consistent, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                    for k, (v, u) in metrics.items()},
        "failures": rounds[0].notes,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(" ".join(f"{k}={v}" for k, v in env.items() if k != "cleared_env"))
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"items_run={sum(r.items for r in rounds)} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit:10s} {samples[name]}")
    print(json.dumps({
        "correct": runner.consistent, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
