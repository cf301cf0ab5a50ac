"""Seeded workloads: each is a list of CLI argument vectors for ``cli.main``.

The seed picks the inputs; the program only ever sees the generated argv.
Every call carries the item count it stands for and the parameters its
output check needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
L_RANGE = (-32.0, 32.0)   # crosses |l'| ~ 26.6, where the norms overflow
STRIP_R = 0.5


def _g(x: float) -> str:
    """A float as the CLI reads it back exactly."""
    return f"{x:.17g}"


@dataclass(frozen=True)
class Call:
    """One closed-loop request: ``cli.main(list(argv))``."""

    kind: str            # "sweep", "trajectory" or "point"
    argv: tuple
    items: int           # sweep points, exported rows, or 1 per CLI call
    check: dict = field(default_factory=dict)
    out: str | None = None   # --out path, relative to the checkout root


def label_sweep(rng: np.random.Generator, out_dir: str) -> list[Call]:
    """Six 10^4-point sweeps plus one 10^3-point gaussian-supnorm sweep."""
    l_lo = L_RANGE[0] + rng.uniform(-0.05, 0.05)
    l_hi = L_RANGE[1] + rng.uniform(-0.05, 0.05)
    phi0 = rng.uniform(0.0, 0.05)

    def grid(n_l: int, n_phi: int) -> str:
        return f"l={_g(l_lo)}:{_g(l_hi)}:{n_l},phi={_g(phi0)}:{_g(phi0 + 2 * TWO_PI)}:{n_phi}"

    calls = []
    for target in ("expect-j", "expect-u", "norm2"):
        for s, extra in ((0.0, ("--s", "int")), (0.5, ("--s", "half", "--workers", "2"))):
            calls.append(Call(
                "sweep", ("sweep", target, "--grid", grid(100, 100), "--r", _g(STRIP_R), *extra),
                items=100 * 100,
                check={"target": target, "r": STRIP_R, "s": s,
                       "sample_seed": int(rng.integers(2**32))}))
    calls.append(Call(
        "sweep", ("sweep", "gaussian-supnorm", "--grid", grid(40, 25), "--r", _g(STRIP_R),
                  "--s", "int"),
        items=40 * 25,
        check={"target": "gaussian-supnorm", "r": STRIP_R, "s": 0.0,
               "sample_seed": int(rng.integers(2**32))}))
    return calls


def trajectory_export(rng: np.random.Generator, out_dir: str) -> list[Call]:
    """An emit-bound CSV export, a JSON export, and an integration-bound stiff orbit.

    The seed moves the initial angle of the smooth orbit and the cyclic
    coordinate z0, neither of which changes how many RK4 substeps a run needs.
    """
    phi = 0.3 + rng.uniform(-0.05, 0.05)
    specs = [
        ("smooth.csv", {"phi": phi, "j": 1.0, "L0": 0.2, "r": 0.5, "t_end": 100.0, "dt": 1e-3}, "csv"),
        ("smooth.json", {"phi": phi, "j": 1.0, "L0": 0.2, "r": 0.5, "t_end": 10.0, "dt": 1e-3}, "json"),
        ("stiff.csv", {"phi": 0.0, "j": 30.0, "L0": 0.5, "r": 0.9, "t_end": 20.0, "dt": 1e-2}, "csv"),
    ]
    calls = []
    for name, params, fmt in specs:
        params = dict(params, z0=rng.uniform(-1.0, 1.0), tol=1e-6)
        out = f"{out_dir}/{name}"
        argv = ["dynamics"]
        for key in ("phi", "j", "L0", "z0", "r", "t_end", "dt", "tol"):
            argv += [f"--{key.replace('_', '-')}", _g(params[key])]
        argv += ["--format", fmt, "--out", out]
        calls.append(Call("trajectory", tuple(argv),
                          items=int(round(params["t_end"] / params["dt"])) + 1,
                          check=dict(params, format=fmt), out=out))
    return calls


POINT_KINDS = ("expect-j", "expect-u", "norm2", "overlap", "distribution",
               "coeffs", "quantize", "fidelity", "theta", "spectrum")
WINDOW_RATIOS = (0.0, 0.5, 2.0, 5.0)   # |defect|/delta: fixes the quadrature cost


def _systematic(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """n points evenly spaced over [lo, hi) at a seeded offset, in seeded order.

    Every seed then puts the same share of labels beyond the overflow edge,
    give or take one.
    """
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform()) / n)


def _point_call(kind: str, rng: np.random.Generator, l: float, l2: float, s: float) -> Call:
    phi = rng.uniform(0.0, 2 * TWO_PI)
    label = ("--l", _g(l), "--phi", _g(phi), "--r", _g(STRIP_R), "--s", "half" if s else "int")
    check = {"point": kind, "s": s, "r": STRIP_R}
    if kind == "theta":
        return Call("point", ("theta", *label), 1, check)
    if kind == "spectrum":
        argv = ("spectrum", "--j-max", str(int(rng.integers(1, 11))),
                "--L0", _g(rng.uniform(-1.0, 1.0)), "--r", _g(STRIP_R),
                "--s", "half" if s else "int", "--phi", str(rng.choice(["pi", "3pi"])))
        return Call("point", argv, 1, check)
    if kind == "overlap":
        label += ("--l2", _g(l2), "--phi2", _g(rng.uniform(0.0, 2 * TWO_PI)))
    elif kind == "quantize":
        # integer l puts the border centers l +/- r on the half-integer lattice
        label = ("--l", str(int(round(l))), *label[2:])
    elif kind == "fidelity":
        label += ("--t", _g(rng.uniform(0.0, 2.0)), "--L0", _g(rng.uniform(-1.0, 1.0)))
    return Call("point", ("cs", kind, *label), 1, check)


def point_queries(rng: np.random.Generator, out_dir: str) -> list[Call]:
    """300 single-point calls, 4 projector calls and one ``verify --suite all``."""
    per_kind = 30
    calls = []
    for kind in POINT_KINDS:
        ls = _systematic(rng, *L_RANGE, per_kind)
        l2s = _systematic(rng, *L_RANGE, per_kind)
        ss = rng.permutation(np.arange(per_kind) % 2) * 0.5
        calls += [_point_call(kind, rng, ls[k], l2s[k], float(ss[k])) for k in range(per_kind)]
    for ratio in WINDOW_RATIOS:
        phi = rng.uniform(0.0, TWO_PI)
        delta = rng.uniform(0.05, 0.2)
        theta = 0.5 * (phi + math.pi) + ratio * delta
        calls.append(Call("point", ("project", "--theta", _g(theta), "--phi", _g(phi),
                                    "--delta", _g(delta)), 1, {"point": "project"}))
    calls.append(Call("point", ("verify", "--suite", "all"), 1, {"point": "verify"}))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


WORKLOADS = {
    "label-sweep": label_sweep,
    "trajectory-export": trajectory_export,
    "point-queries": point_queries,
}


def build(workload: str, seed: int, out_dir: str) -> list[Call]:
    return WORKLOADS[workload](np.random.default_rng(seed), out_dir)
