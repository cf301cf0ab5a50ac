"""Output checks: how many of a call's items failed.

An item fails when its value is missing, inf or NaN, when the row carries
an error, or when it disagrees with an oracle:

- a seeded sample of sweep rows against mpmath brute-force lattice sums;
- trajectories against their row count, the energy recomputed from the
  exported state columns (drift <= --tol) and a constant L0;
- single-point calls against the CLI's own independent routes;
- ``verify`` against every row having passed.

The runner handles exceptions and exit codes; these functions only see
output text.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

SWEEP_SAMPLE = 48          # sweep rows per call compared with mpmath
ORACLE_RTOL = 1e-10        # relative tolerance of those comparisons
ROUTE_TOL = 1e-10          # spread allowed between independent CLI routes
GAUSSIAN_LAW_TOL = 1.1e-4  # occupation law vs Gaussian, as in `verify`
WINDOW_TOL = 1e-3          # projector quadrature vs indicator, as in `verify`
TRAJECTORY_COLUMNS = ("t", "phi", "phi_dot", "z0", "z0_dot", "E", "J", "L0")


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def label_center(l: float, phi: float, r: float) -> float:
    """Gaussian center l' of a label (z_sign = +1), in double precision."""
    return l + r * math.sin(0.5 * phi) - math.log(1.0 + r * math.cos(0.5 * phi))


# ---------------------------------------------------------------------------
# mpmath brute-force oracles for sweep rows
# ---------------------------------------------------------------------------

def _mp_levels(mp, center, s):
    """Levels j in Z + s within 40 of the center: the rest weigh < exp(-1600)."""
    lo = int(math.floor(float(center) - s)) - 40
    return [mp.mpf(k) + s for k in range(lo, lo + 82)]


def oracle(target: str, l: float, phi: float, r: float, s: float) -> dict:
    """Reference values of one sweep row, from lattice sums at 30 digits."""
    import mpmath as mp

    mp.mp.dps = 30
    l, phi, r = mp.mpf(l), mp.mpf(phi), mp.mpf(r)
    center = l + r * mp.sin(phi / 2) - mp.log(1 + r * mp.cos(phi / 2))
    levels = _mp_levels(mp, center, s)
    weights = [mp.exp(2 * center * j - j * j) for j in levels]
    norm = mp.fsum(weights)
    if target == "expect-j":
        return {"expect_j": mp.fsum(j * w for j, w in zip(levels, weights)) / norm}
    if target == "norm2":
        return {"norm2": norm}
    if target == "expect-u":
        # <U> = sum_j conj(c_{j+1}) c_j / sum_j |c_j|^2, c_j = exp(l'j - i phi j - j^2/2)
        num = mp.fsum(mp.exp(center * (2 * j + 1) - j * j - j - mp.mpf(1) / 2) for j in levels)
        u = mp.expj(phi) * num / norm
        return {"expect_u_re": u.real, "expect_u_im": u.imag}
    if target == "gaussian-supnorm":
        sup = max(abs(w / norm - mp.exp(-(j - center) ** 2) / mp.sqrt(mp.pi))
                  for j, w in zip(levels, weights))
        return {"supnorm": sup}
    raise ValueError(f"no oracle for sweep target {target!r}")


def _oracle_agrees(target: str, got: dict, ref: dict) -> bool:
    if target == "gaussian-supnorm":
        # an absolute bound: probabilities are at most 1/sqrt(pi)
        return abs(got["supnorm"] - float(ref["supnorm"])) <= ORACLE_RTOL
    if target == "expect-u":
        scale = max(1.0, float(abs(ref["expect_u_re"] + 1j * ref["expect_u_im"])))
        err = abs(complex(got["expect_u_re"], got["expect_u_im"])
                  - complex(float(ref["expect_u_re"]), float(ref["expect_u_im"])))
        return err <= ORACLE_RTOL * scale
    key = next(iter(ref))
    return abs(got[key] - float(ref[key])) <= ORACLE_RTOL * max(1.0, abs(float(ref[key])))


def check_sweep(check: dict, text: str) -> tuple[int, dict]:
    """Failed rows of one sweep, and the |l'| range of the failures."""
    rows = read_csv(text)
    if not rows:
        return 0, {"rows": 0}
    names = ("l", "phi")
    value_keys = [k for k in rows[0] if k not in names and k != "error"]
    r, s = check["r"], check["s"]
    bad = set()
    parsed = []
    for i, row in enumerate(rows):
        values = {k: _float(row[k]) for k in value_keys}
        parsed.append(values)
        if row.get("error") or not _finite(*values.values()):
            bad.add(i)
    # an axis missing from the grid sits at the call's fixed value
    labels = [(float(row.get("l", check.get("l", 0.0))), float(row.get("phi", check.get("phi", 0.0))))
              for row in rows]
    rng = np.random.default_rng(check["sample_seed"])
    for i in rng.choice(len(rows), size=min(SWEEP_SAMPLE, len(rows)), replace=False):
        i = int(i)
        if i in bad:
            continue
        if not _oracle_agrees(check["target"], parsed[i], oracle(check["target"], *labels[i], r, s)):
            bad.add(i)
    centers = [abs(label_center(*labels[i], r)) for i in bad]
    return len(bad), {"rows": len(rows),
                      "min_abs_center_failed": min(centers) if centers else None}


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _strip_bracket(phi: np.ndarray, r: float) -> np.ndarray:
    half = 0.5 * phi
    return (1.0 + r * np.cos(half)) ** 2 + 0.25 * r * r * np.sin(half) ** 2


def load_trajectory(check: dict, payload: str) -> np.ndarray:
    """Exported trajectory as an (n, 8) array in TRAJECTORY_COLUMNS order."""
    if check["format"] == "json":
        rows = json.loads(payload)["rows"]
        return np.array([[row[k] for k in TRAJECTORY_COLUMNS] for row in rows], dtype=float)
    header, _, body = payload.partition("\n")
    if tuple(header.split(",")) != TRAJECTORY_COLUMNS:
        raise ValueError(f"unexpected trajectory header {header!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def check_trajectory(check: dict, payload: str) -> tuple[int, dict]:
    """Failed rows of one exported trajectory."""
    n_expected = int(round(check["t_end"] / check["dt"])) + 1
    try:
        data = load_trajectory(check, payload)
    except (ValueError, KeyError) as exc:
        return n_expected, {"error": f"{type(exc).__name__}: {exc}"}
    if data.shape != (n_expected, len(TRAJECTORY_COLUMNS)):
        return n_expected, {"error": f"shape {data.shape}, expected {n_expected} rows"}
    t, phi, phi_dot, _, _, energy, _, L0 = data.T
    r = check["r"]
    with np.errstate(all="ignore"):
        recomputed = 0.5 * (phi_dot ** 2 * _strip_bracket(phi, r) + L0 ** 2)
        row_bad = ~np.isfinite(data).all(axis=1)
        row_bad |= ~(np.abs(energy - recomputed) <= 1e-12 * np.maximum(1.0, np.abs(recomputed)))
    e0 = recomputed[0]
    drift = float(np.max(np.abs(recomputed - e0)) / max(1.0, abs(e0)))
    whole = []
    if not drift <= check["tol"]:
        whole.append(f"energy drift {drift:.3g} > tol {check['tol']:g}")
    if not (np.all(L0 == L0[0]) and abs(L0[0] - check["L0"]) <= 1e-12 * max(1.0, abs(check["L0"]))):
        whole.append("L0 column not constant at the input value")
    if not np.allclose(t, check["dt"] * np.arange(n_expected), rtol=1e-12, atol=0.0):
        whole.append("t column off the output grid")
    failed = n_expected if whole else int(row_bad.sum())
    return failed, {"rows": n_expected, "energy_drift": drift, "error": "; ".join(whole)}


# ---------------------------------------------------------------------------
# single-point calls
# ---------------------------------------------------------------------------

def _point_ok(check: dict, rows: list[dict]) -> bool:
    kind = check["point"]
    if kind == "verify":
        # ``passed`` prints as "true" or, from a numpy bool, "True"
        return bool(rows) and all(row["passed"].lower() == "true" for row in rows)
    if kind == "theta":
        # the quantity column is a name; every value must be finite
        values = {row["quantity"]: (_float(row["value_re"]), _float(row["value_im"])) for row in rows}
        return (all(_finite(*v) for v in values.values())
                and values.get("modular_residual", (math.nan,))[0] <= ROUTE_TOL)
    values = [{k: _float(v) for k, v in row.items()} for row in rows]
    if not all(_finite(*row.values()) for row in values):
        return False
    if kind == "quantize":
        # rows are optional; each found angle must pin <J> to Z + s
        s = check["s"]
        return all(abs(v["expect_j"] - s - round(v["expect_j"] - s)) <= 1e-9 for v in values)
    if not values:
        return False
    if kind == "coeffs":
        return True
    if kind == "distribution":
        total = sum(v["probability"] for v in values)
        return (abs(total - 1.0) <= ROUTE_TOL
                and max(v["deviation"] for v in values) <= GAUSSIAN_LAW_TOL)
    if kind == "spectrum":
        return all(abs(v["E"] - v["E_border"]) <= 1e-12 * max(1.0, abs(v["E_border"]))
                   for v in values)
    v = values[0]
    if kind == "expect-j":
        routes = (v["expect_j"], v["ratio_path"], v["series_path"])
        return max(routes) - min(routes) <= ROUTE_TOL * max(1.0, abs(v["expect_j"]))
    if kind == "expect-u":
        return v["spread"] <= ROUTE_TOL and v["expect_u_abs"] <= 1.0 + 1e-12
    if kind == "norm2":
        ref = v["norm2"]
        return max(abs(v["direct_path"] - ref), abs(v["modular_path"] - ref)) <= ROUTE_TOL * abs(ref)
    if kind == "overlap":
        return v["spread"] <= ROUTE_TOL * max(1.0, abs(complex(v["overlap_re"], v["overlap_im"])))
    if kind == "fidelity":
        return 0.0 <= v["fidelity"] <= 1.0 + 1e-12
    if kind == "project":
        return v["difference"] <= WINDOW_TOL
    raise ValueError(f"unknown point query {kind!r}")


def check_point(check: dict, text: str) -> tuple[int, dict]:
    return (0 if _point_ok(check, read_csv(text)) else 1), {}


CHECKS = {"sweep": check_sweep, "trajectory": check_trajectory, "point": check_point}


def count_failed(kind: str, check: dict, payload: str) -> tuple[int, dict]:
    return CHECKS[kind](check, payload)
