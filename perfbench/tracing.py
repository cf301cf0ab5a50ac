"""Spans around the public functions of each mobiuscs module, installed from outside.

``Tracer.install()`` replaces every public function of the layer modules
with a wrapper, at every place the function is bound: ``from .theta import
theta3`` makes ``states.theta3`` a second binding of ``theta.theta3``, and
both are replaced by the same wrapper.  ``uninstall()`` puts the originals
back.  The program itself carries no tracing code.

A span is (name, start, end, parent, request).  Spans live in flat arrays
in memory and are written out after the run.  A span opened on a worker
thread with no open span of its own takes the installing thread's innermost
open span as parent, so the sweep thread pool's work nests under
``cli.cmd_sweep``.  Self time is a span's duration minus the union of the
intervals its children cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("theta", "geometry", "states", "dynamics", "projection", "report", "cli")
# called once per emitted cell (10^5-row exports have 8 * 10^5 cells); its
# time stays inside the cli.emit span instead
PER_CELL = frozenset({"cli.fmt"})
ROUTES = {
    "expect_j": ("ratio", "theta", "series"),
    "expect_u": ("direct", "theta"),
    "norm2": ("direct", "theta", "modular"),
}
WRAPPER_MARK = "__perfbench_span__"


def public_functions(module):
    """(attr, function) for the functions a layer module defines and exports."""
    layer = module.__name__.rsplit(".", 1)[-1]
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for attr in names:
        obj = getattr(module, attr)
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and f"{layer}.{attr}" not in PER_CELL):
            yield attr, obj


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mobiuscs" or name.startswith("mobiuscs."))]


def installed_wrappers() -> list[str]:
    """Names bound to a tracing wrapper anywhere in the package."""
    return [f"{m.__name__}.{attr}" for m in package_modules()
            for attr, obj in vars(m).items() if hasattr(obj, WRAPPER_MARK)]


def _count_integration(counters, args, kwargs, traj):
    # the halving loop tried strides 1, 2, ..., S before keeping S
    rows = traj.t.size - 1
    counters["dynamics.steps_accepted"] += rows * traj.substeps
    counters["dynamics.steps_attempted"] += rows * (2 * traj.substeps - 1)


def _count_checks(counters, args, kwargs, checks):
    counters["report.checks"] += len(checks)


def _count_emitted(counters, args, kwargs, result):
    counters["cli.emit_rows"] += len(args[0] if args else kwargs["rows"])


HOOKS = {
    "dynamics.integrate_mobius": _count_integration,
    "report.run_suite": _count_checks,
    "cli.emit": _count_emitted,
}


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._bindings: list[tuple] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.req = array("q")
        self.start = array("q")
        self.end = array("q")
        self.request = -1
        self.counters: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.parent.append(parent)
            self.name.append(nid)
            self.req.append(self.request)
            self.start.append(0)
            self.end.append(0)
        stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack().pop()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        params = list(inspect.signature(fn).parameters)
        method_pos = params.index("method") if "method" in params else None
        method_default = (inspect.signature(fn).parameters["method"].default
                          if method_pos is not None else None)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if method_pos is not None:
                method = kwargs.get("method", args[method_pos] if len(args) > method_pos
                                    else method_default)
                span = f"{name}.{method}"
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def install(self) -> int:
        """Wrap every public layer function at all its bindings; returns the count."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"mobiuscs.{layer}"]
            for attr, fn in public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for module in package_modules():
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        return len(self._bindings)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the union of its children's intervals (ns)."""
        start, end = self.start, self.end
        own = [e - s for s, e in zip(start, end)]
        children = defaultdict(list)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(idx)
        for parent, kids in children.items():
            lo, hi = start[parent], end[parent]
            covered = 0
            run_lo = run_hi = None
            for k in sorted(kids, key=start.__getitem__):
                s, e = max(start[k], lo), min(end[k], hi)
                if e <= s:
                    continue
                if run_hi is None or s > run_hi:
                    if run_hi is not None:
                        covered += run_hi - run_lo
                    run_lo, run_hi = s, e
                else:
                    run_hi = max(run_hi, e)
            if run_hi is not None:
                covered += run_hi - run_lo
            own[parent] -= covered
        return own

    def layer_metrics(self, own: list[int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, given ``own = self.self_times()``."""
        calls = Counter()
        self_ns = Counter()
        incl_ns = Counter()
        for idx, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += own[idx]
            incl_ns[name] += self.end[idx] - self.start[idx]

        def layer_sum(counter, layer):
            return sum(v for k, v in counter.items() if k.split(".", 1)[0] == layer)

        def mean_us(name):
            return incl_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = (layer_sum(calls, layer), "count")
            m[f"{layer}.self_s"] = (layer_sum(self_ns, layer) / 1e9, "s")
        n_theta = layer_sum(calls, "theta")
        m["theta.us_per_call"] = (layer_sum(self_ns, "theta") / n_theta / 1e3 if n_theta else 0.0, "us")
        for fn, methods in ROUTES.items():
            for method in methods:
                m[f"states.{fn}.{method}.us_per_call"] = (mean_us(f"states.{fn}.{method}"), "us")
        m["states.distribution.calls"] = (calls["states.distribution"], "count")

        integrate_s = incl_ns["dynamics.integrate_mobius"] / 1e9
        attempted = self.counters["dynamics.steps_attempted"]
        m["dynamics.integrate_s"] = (integrate_s, "s")
        m["dynamics.rk4_steps_attempted"] = (attempted, "count")
        m["dynamics.rk4_msteps_per_s"] = (attempted / integrate_s / 1e6 if integrate_s else 0.0, "Msteps/s")
        m["dynamics.step_yield"] = (self.counters["dynamics.steps_accepted"] / attempted
                                    if attempted else 0.0, "ratio")
        m["projection.quadrature_ms_per_call"] = (
            mean_us("projection.universal_projector.quadrature") / 1e3, "ms")
        m["report.checks"] = (self.counters["report.checks"], "count")
        emit_s = incl_ns["cli.emit"] / 1e9
        m["cli.emit_s"] = (emit_s, "s")
        m["cli.emit_rows_per_s"] = (self.counters["cli.emit_rows"] / emit_s if emit_s else 0.0, "rows/s")
        return m

    def write(self, path: str, own: list[int]) -> None:
        """All spans as gzipped tab-separated lines, with their self time."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n")
            for idx in range(len(self.start)):
                fh.write(f"{idx}\t{self.parent[idx]}\t{self.req[idx]}\t"
                         f"{self.names[self.name[idx]]}\t{self.start[idx]}\t"
                         f"{self.end[idx]}\t{own[idx]}\n")
