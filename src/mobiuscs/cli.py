"""Command-line frontend.

Subcommands::

    theta      evaluate the theta-function engine at a label's arguments
    cs         coherent-state quantities (expect-j, expect-u, norm2,
               distribution, overlap, coeffs, quantize, fidelity)
    spectrum   level energies at the border angles
    dynamics   integrate a strip trajectory and export it
    project    universal constraint-window projector
    verify     identity-verification suites (exit 1 on any failure)
    sweep      Cartesian parameter sweeps of scalar targets
    run        re-run the command of a JSON artifact with its config

Angles accept symbolic multiples of pi ("pi", "3pi", "pi/2", "-0.5pi") so
the border angles are expressible exactly.  All numeric output is printed
with 17 significant digits; CSV artifacts use a header row, comma
separators and LF line endings, and identical configs produce
byte-identical artifacts.  The values of a --config file (key=value
lines or a JSON artifact) act as flags placed before the command line's
own, so a flag given on the command line wins.  A command whose result
holds inf or NaN prints no numbers and exits 1.  Sweeps run serially;
``--workers`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import dynamics, projection, report, states, theta
from .errors import DomainError, PrecisionError

_ANGLE_RE = re.compile(r"^([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d*\.?\d+))?$")


def parse_angle(text: str) -> float:
    """Parse 'pi', '3pi', '-pi/2', '0.5pi' or a plain float (radians)."""
    text = str(text).strip()
    m = _ANGLE_RE.match(text)
    if m:
        coeff_s, div_s = m.groups()
        coeff = 1.0 if coeff_s in ("", "+") else -1.0 if coeff_s == "-" else float(coeff_s)
        value = coeff * math.pi
        if div_s:
            value /= float(div_s)
        return value
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


def parse_offset(text: str) -> float:
    """Parse the basis offset: 'int'/'0' -> 0, 'half'/'0.5' -> 1/2."""
    key = str(text).strip().lower()
    if key in ("int", "integer", "0", "0.0", "boson"):
        return 0.0
    if key in ("half", "0.5", "1/2", "fermion"):
        return 0.5
    raise argparse.ArgumentTypeError(f"offset must be 'int' or 'half', got {text!r}")


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def load_config(path: str) -> tuple[list | None, dict[str, str]]:
    """Read a key=value file or a JSON artifact.

    Returns the artifact's command words (None if it has none) and each
    config value as the text of its flag: JSON values go through fmt.  The
    keys command, target and action are skipped, since they are command words.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"config {path!r} is not valid JSON: {exc}") from None
        command = data.get("command")
        items = (data["config"] if isinstance(data.get("config"), dict) else data).items()
    else:
        command, items = None, []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"config line without '=': {line!r}")
            key, _, raw = line.partition("=")
            items.append((key, raw.strip()))
    values = {}
    for key, value in items:
        key = key.strip().replace("-", "_")
        if key in ("command", "target", "action"):
            continue
        if value is None or isinstance(value, (list, dict)):
            raise DomainError(f"config key {key!r} needs a number or a string, got {value!r}")
        values[key] = fmt(value)
    return command, values


CHUNK_ROWS = 4096  # CSV rows formatted and written per write call
_FLOAT_SLOT = "%.17g"  # fmt's format for a float, as a %-operator slot


def _float_kind(values) -> str | None:
    """The column's kind: "float" (floats only), "blank" (floats and "" cells) or None."""
    if isinstance(values, np.ndarray):
        return "float" if values.dtype.kind == "f" else None
    if all(isinstance(v, float) for v in values):
        return "float"
    if all(isinstance(v, float) or v == "" for v in values):
        return "blank"
    return None


def _template_cells(col, kind: str | None, lo: int, hi: int) -> list[str]:
    """The cells of col[lo:hi]: a %.17g slot per float, fmt's text (% doubled) otherwise."""
    if kind == "float":
        return [_FLOAT_SLOT] * (hi - lo)
    if kind == "blank":
        return [_FLOAT_SLOT if isinstance(v, float) else "" for v in col[lo:hi]]
    return [fmt(v).replace("%", "%%") for v in col[lo:hi]]


def _write_csv(columns: dict, fh) -> None:
    """Header and rows, CHUNK_ROWS at a time; nothing at all for an empty table.

    csv lays out and quotes the cells of every column that is not all
    floats and blanks, while each float cell is left as a %.17g slot and
    each blank as an empty cell; one % per chunk then fills the slots in
    row order, which gives fmt's text for each.
    """
    cols = list(columns.values())
    n_rows = len(cols[0]) if cols else 0
    if not n_rows:
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    fh.write(buffer.getvalue())
    kinds = [_float_kind(col) for col in cols]
    float_cols = [col for col, kind in zip(cols, kinds) if kind]
    all_slots = ",".join([_FLOAT_SLOT] * len(cols)) + "\n"
    for lo in range(0, n_rows, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n_rows)
        if all(kind == "float" for kind in kinds):
            template = all_slots * (hi - lo)
        else:
            buffer.seek(0)
            buffer.truncate()
            writer.writerows(zip(*(_template_cells(col, kind, lo, hi)
                                   for col, kind in zip(cols, kinds))))
            template = buffer.getvalue()
        chunks = [col[lo:hi] for col in float_cols]
        if "blank" in kinds:
            values = [v for row in zip(*chunks) for v in row if isinstance(v, float)]
        else:
            values = np.column_stack(chunks).ravel().tolist() if chunks else []
        fh.write(template % tuple(values))


def _columns(rows: list[dict]) -> dict[str, list]:
    """A short table given as rows, as columns keyed like the first row."""
    return {key: [row[key] for row in rows] for key in (rows[0] if rows else ())}


def emit(columns: dict, args, command: list[str], config: dict) -> None:
    """Write a table given as equal-length columns as CSV or JSON, deterministically.

    The output goes to --out or stdout.  JSON rows are built from the
    columns for the artifact alone.
    """
    if args.format == "json":
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        payload = json.dumps({"command": command, "config": config, "rows": rows},
                             default=float) + "\n"
    elif args.format != "csv":
        raise DomainError(f"unknown format {args.format!r}")
    with (open(args.out, "w", encoding="utf-8", newline="\n") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "csv":
            _write_csv(columns, fh)
        else:
            fh.write(payload)


def _modulus(z: complex) -> float:
    """abs(z), but NaN where a part is NaN and none is infinite.

    There CPython's abs() reads a stale errno, so an ERANGE left by an
    earlier overflowed exp makes it raise OverflowError.
    """
    return math.nan if cmath.isnan(z) and not cmath.isinf(z) else abs(z)


def _require_finite(rows: list[dict]) -> None:
    """Raise PrecisionError at the first inf or NaN cell of ``rows``."""
    for row in rows:
        for key, value in row.items():
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise PrecisionError(f"{key} is not finite", achieved=float(value))


def make_label(args) -> states.StateLabel:
    return states.StateLabel(l=args.l, phi=args.phi, r=args.r, s=args.s)


def _config(args) -> dict:
    """An artifact's config: its command's flags but --out, --format and unset (None) ones."""
    return {key: value for key in _parser().config_flags[args.command]
            if key not in ("out", "format") and (value := getattr(args, key)) is not None}


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_theta(args) -> int:
    label = make_label(args)
    c = label.center
    shift = 0.0 if args.s == 0.0 else 0.5
    t3 = theta.theta3(1j * c / math.pi, states.TAU_NATURAL)
    t2 = theta.theta2(1j * c / math.pi, states.TAU_NATURAL)
    modular = (states._exp(c * c, "norm_modular_route") * math.sqrt(math.pi)
               * theta.theta3(c + shift, states.TAU_DUAL))
    natural = t3 if args.s == 0.0 else t2
    rows = [
        {"quantity": "center", "value_re": c, "value_im": 0.0},
        {"quantity": "theta3_natural", "value_re": t3.real, "value_im": t3.imag},
        {"quantity": "theta2_natural", "value_re": t2.real, "value_im": t2.imag},
        {"quantity": "norm_modular_route", "value_re": modular.real, "value_im": modular.imag},
        {"quantity": "modular_residual",
         "value_re": _modulus(natural - modular) / max(1.0, _modulus(modular)), "value_im": 0.0},
        {"quantity": "logderiv_dual",
         "value_re": theta.theta3_logderiv(c + shift, states.TAU_DUAL), "value_im": 0.0},
    ]
    _require_finite(rows)
    emit(_columns(rows), args, ["theta"], _config(args))
    return 0


def cmd_cs(args) -> int:
    label = make_label(args)
    if args.action == "expect-j":
        v1 = states.expect_j(label, method="ratio")
        v2 = states.expect_j(label, method="theta")
        v3 = states.expect_j(label, method="series")
        rows = [{"expect_j": v2, "ratio_path": v1, "series_path": v3,
                 "max_spread": max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3))}]
    elif args.action == "expect-u":
        d = states.expect_u(label, method="direct")
        t = states.expect_u(label, method="theta")
        rows = [{"expect_u_re": t.real, "expect_u_im": t.imag, "expect_u_abs": _modulus(t),
                 "spread": _modulus(d - t)}]
    elif args.action == "norm2":
        rows = [{"norm2": states.norm2(label, method="theta"),
                 "direct_path": states.norm2(label, method="direct"),
                 "modular_path": states.norm2(label, method="modular")}]
    elif args.action == "distribution":
        law = states.occupation_law(label, args.j)  # the --j level alone, if given
        rows = [{"j": jj, "probability": p, "gaussian": g, "deviation": abs(p - g)}
                for jj, p, g in zip(*(col.tolist() for col in law))]
    elif args.action == "overlap":
        other = states.StateLabel(l=args.l2, phi=args.phi2, r=args.r, s=args.s)
        direct = states.overlap(label, other, method="direct")
        closed = states.overlap(label, other, method="theta")
        rows = [{"overlap_re": closed.real, "overlap_im": closed.imag,
                 "spread": _modulus(direct - closed)}]
    elif args.action == "coeffs":
        v = states.build_cs(label, j_max=args.j_max)
        rows = [{"j": jj, "c_re": cc.real, "c_im": cc.imag}
                for jj, cc in zip(v.j, v.c)]
    elif args.action == "quantize":
        roots = states.quantization_scan(args.r, args.l, args.s)
        rows = []
        for phi in roots:
            lab = states.StateLabel(l=args.l, phi=phi, r=args.r, s=args.s)
            rows.append({"phi": phi, "center": lab.center,
                         "expect_j": states.expect_j(lab, method="ratio")})
    elif args.action == "fidelity":
        rows = [{"t": args.t,
                 "fidelity": states.temporal_fidelity(label, args.t, L0=args.L0)}]
    else:
        raise DomainError(f"unknown cs action {args.action!r}")
    _require_finite(rows)
    emit(_columns(rows), args, ["cs", args.action], _config(args))
    return 0


def cmd_spectrum(args) -> int:
    for flag, value in (("--j-max", args.j_max), ("--L0", args.L0), ("--phi", args.phi)):
        if not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value}")
    rows = []
    for j in states.level_grid(args.j_max, args.s):
        general = dynamics.energy_spectrum(float(j), args.L0, args.phi, args.r)
        rows.append({"j": float(j), "L0": args.L0,
                     "E": general.E,
                     "E_border": dynamics.energy_quantized(float(j), args.L0, args.r)})
    _require_finite(rows)
    emit(_columns(rows), args, ["spectrum"], _config(args))
    return 0


def cmd_dynamics(args) -> int:
    phi_dot = dynamics.mobius_phidot(args.j, args.L0, args.phi, args.r)
    z0_dot = args.L0 + 0.5 * args.r * math.cos(0.5 * args.phi) * phi_dot
    s0 = dynamics.MobiusState(phi=args.phi, phi_dot=phi_dot, z0=args.z0, z0_dot=z0_dot)
    traj = dynamics.integrate_mobius(s0, args.r, t_end=args.t_end, dt=args.dt,
                                     energy_tol=args.tol)
    emit(traj.columns(), args, ["dynamics"], _config(args))
    return 0


def cmd_project(args) -> int:
    spec = projection.ProjectionSpec(theta=args.theta, phi=args.phi, delta=args.delta)
    ind = projection.universal_projector(spec, method="indicator")
    quad_val = projection.universal_projector(spec, method="quadrature")
    rows = [{
        "defect": spec.argument,
        "delta": args.delta,
        "indicator": ind,
        "quadrature": quad_val,
        "difference": abs(ind - quad_val),
    }]
    emit(_columns(rows), args, ["project"], _config(args))
    return 0


def cmd_verify(args) -> int:
    checks = report.run_suite(args.suite)
    emit(_columns([c.row() for c in checks]), args, ["verify"], _config(args))
    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.check}: max_error={fmt(c.max_error)} tol={fmt(c.tolerance)}",
              file=sys.stderr)
    return 1 if failed else 0


_GRID_PART = re.compile(r"^(\w+)=([^:]+):([^:]+):(\d+)$")

# the sweep's parameters, in the order of its config, and the type of each
SWEEP_PARAMS = {"l": float, "phi": parse_angle, "r": float, "s": parse_offset,
                "j": float, "L0": float, "theta": parse_angle, "delta": float}


def parse_grid(spec: str) -> list[tuple[str, np.ndarray]]:
    """Parse 'var=start:stop:count[,var=...]' into (name, values) pairs.

    Endpoints are inclusive; count is the number of points; count 0 gives an
    empty axis (and an empty sweep).
    """
    axes = []
    for part in spec.split(","):
        m = _GRID_PART.match(part.strip())
        if not m:
            raise DomainError(f"cannot parse grid component {part!r}")
        name, lo_s, hi_s, count_s = m.groups()
        if name not in SWEEP_PARAMS:
            raise DomainError(f"unknown sweep variable {name!r}")
        try:
            lo, hi = SWEEP_PARAMS[name](lo_s), SWEEP_PARAMS[name](hi_s)
        except (ValueError, argparse.ArgumentTypeError):
            raise DomainError(f"cannot parse grid component {part!r}") from None
        try:
            axes.append((name, np.linspace(lo, hi, int(count_s))))
        except (MemoryError, ValueError):  # past numpy's size limit or the memory
            raise DomainError(f"cannot allocate the grid axis {part.strip()!r}") from None
    return axes


STATE_TARGETS = ("expect-j", "expect-u", "norm2", "gaussian-supnorm")
SWEEP_TARGETS = (*STATE_TARGETS, "energy", "projector")


def _state_values(target: str, batch: states.LabelBatch) -> dict:
    """A state target's value arrays at a LabelBatch."""
    if target == "expect-j":
        return {"expect_j": states.expect_j(batch, method="ratio")}
    if target == "expect-u":
        val = states.expect_u(batch, method="theta")
        return {"expect_u_re": val.real, "expect_u_im": val.imag}
    if target == "norm2":
        return {"norm2": states.norm2(batch, method="theta")}
    return {"supnorm": states.gaussian_supnorm(batch)}


def _sweep_eval(target: str, params: dict) -> dict:
    """One energy or projector sweep point."""
    if target == "energy":
        entry = dynamics.energy_spectrum(params["j"], params["L0"],
                                         params["phi"], params["r"])
        return {"E": entry.E}
    spec = projection.ProjectionSpec(theta=params["theta"], phi=params["phi"],
                                     delta=params["delta"])
    return {"indicator": projection.universal_projector(spec, method="indicator")}


def _grid_columns(axes: list[tuple[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Each axis's value at every point of the Cartesian grid, first axis slowest.

    A repeated axis name keeps its first place and its last axis's values.
    """
    try:
        mesh = np.meshgrid(*[vals for _, vals in axes], indexing="ij")
    except (MemoryError, ValueError):  # past numpy's size limit or the memory
        raise DomainError("cannot allocate the sweep grid's points") from None
    return {name: grid.ravel() for (name, _), grid in zip(axes, mesh)}


def _sweep_batches(target: str, labels: list, values: dict, errors: list) -> None:
    """Evaluate a state target at every row of the l, phi, r and s columns ``labels``.

    Values go into ``values`` (created on a row's first success).  An
    invalid label gets StateLabel's error text, a non-finite row
    _require_finite's, and a batch that raises is retried row by row, so
    that each failing row gets its own error.
    """
    batches, rejected = states.label_batches(*labels)
    for i, message in rejected.items():
        errors[i] = f"DomainError: {message}"
    while batches:
        rows, batch = batches.pop()
        try:
            result = {key: col.tolist() for key, col in _state_values(target, batch).items()}
        except Exception as exc:  # per-row failure is recorded, not fatal
            if len(rows) == 1:
                errors[rows[0]] = f"{type(exc).__name__}: {exc}"
            else:
                batches += [([i], states.LabelBatch([c], [phi], batch.s))
                            for i, c, phi in zip(rows, batch.centers, batch.phis)]
            continue
        for k, i in enumerate(rows):
            bad = next((key for key, col in result.items() if not math.isfinite(col[k])), None)
            if bad is not None:
                errors[i] = f"PrecisionError: {bad} is not finite"
                continue
            for key, col in result.items():
                _value_column(values, key, len(errors))[i] = col[k]


def _value_column(values: dict, key: str, n: int) -> list:
    """values[key], made on first use as n empty cells."""
    if key not in values:
        values[key] = [""] * n
    return values[key]


def cmd_sweep(args) -> int:
    if args.grid is None:
        raise DomainError("sweep needs --grid, on the command line or in its --config")
    axes = parse_grid(args.grid)
    base = {key: getattr(args, key) for key in SWEEP_PARAMS}
    columns = _grid_columns(axes)
    n_points = math.prod(len(vals) for _, vals in axes)

    # columns are built directly: a 10^4-point sweep keeps no per-row dicts
    values: dict[str, list] = {}
    errors = [""] * n_points
    if args.target in STATE_TARGETS:
        labels = [columns[k].tolist() if k in columns else [base[k]] * n_points
                  for k in ("l", "phi", "r", "s")]
        _sweep_batches(args.target, labels, values, errors)
    else:
        for i in range(n_points):
            params = dict(base)
            params.update({name: col[i] for name, col in columns.items()})
            try:
                result = _sweep_eval(args.target, params)
                _require_finite([result])
            except Exception as exc:  # per-row failure is recorded, not fatal
                errors[i] = f"{type(exc).__name__}: {exc}"
                continue
            for key, value in result.items():
                _value_column(values, key, n_points)[i] = value

    # column layout must not depend on which rows failed
    for key in sorted(values):
        columns[key] = values[key]
    columns["error"] = errors
    emit(columns, args, ["sweep", args.target], _config(args))
    return 1 if any(errors) else 0


def _config_argv(parser: argparse.ArgumentParser, args, argv: list[str]) -> list[str]:
    """The command line that ``argv`` and its --config file stand for together.

    The config's values become flags placed before the command line's own,
    and argparse keeps a repeated flag's last value, so the command line
    wins.  ``run`` takes its command words from the artifact, and its own
    command line gives only --out and --format.
    """
    command, values = load_config(args.config)
    if args.command != "run":
        words, tail = argv[:1], argv[1:]
    else:
        words = [str(word) for word in command] if isinstance(command, list) else []
        if not words or words[0] not in parser.config_flags:
            raise DomainError(f"artifact names no command to re-run, got {command!r}")
        tail = ([f"--out={args.out}"] if args.out else []) + [f"--format={args.format}"]
    flags = parser.config_flags[words[0]]
    for key in values:
        if key not in flags:
            raise DomainError(f"unknown config key {key!r} for {words[0]!r}")
    return [*words, *(f"{flags[key]}={text}" for key, text in values.items()), *tail]


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, label=False, out=True) -> None:
    if label:
        p.add_argument("--l", type=float, default=0.0, help="axial label l")
        p.add_argument("--phi", type=parse_angle, default=0.0,
                       help="angle (accepts 'pi', '3pi', 'pi/2', floats)")
        p.add_argument("--r", type=float, default=0.5, help="strip half-width")
        p.add_argument("--s", type=parse_offset, default=0.0,
                       help="basis offset: 'int' or 'half'")
    if out:
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--config", default=None,
                       help="config file (key=value lines or a JSON artifact)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mobiuscs", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="theta engine values at a label")
    _add_common(p, label=True)

    p = sub.add_parser("cs", help="coherent-state quantities")
    p.add_argument("action", choices=(
        "expect-j", "expect-u", "norm2", "distribution", "overlap",
        "coeffs", "quantize", "fidelity"))
    _add_common(p, label=True)
    p.add_argument("--j", type=float, default=None, help="basis level")
    p.add_argument("--j-max", dest="j_max", type=float, default=None)
    p.add_argument("--l2", type=float, default=0.0, help="second label l (overlap)")
    p.add_argument("--phi2", type=parse_angle, default=0.0, help="second label angle")
    p.add_argument("--t", type=float, default=1.0, help="evolution time (fidelity)")
    p.add_argument("--L0", type=float, default=0.0)

    p = sub.add_parser("spectrum", help="level energies")
    _add_common(p, label=True)
    p.add_argument("--j-max", dest="j_max", type=float, default=3.0)
    p.add_argument("--L0", type=float, default=0.0)
    p.set_defaults(phi=math.pi)

    p = sub.add_parser("dynamics", help="integrate a strip trajectory")
    _add_common(p, label=True)
    p.add_argument("--j", type=float, default=1.0, help="initial angular momentum")
    p.add_argument("--L0", type=float, default=0.0, help="axial momentum")
    p.add_argument("--z0", type=float, default=0.0, help="initial axial position")
    p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-6, help="energy-drift acceptance")

    p = sub.add_parser("project", help="universal constraint-window projector")
    _add_common(p)
    p.add_argument("--theta", type=parse_angle, required=False, default=0.0)
    p.add_argument("--phi", type=parse_angle, default=0.0)
    p.add_argument("--delta", type=float, default=0.1)

    p = sub.add_parser("verify", help="identity-verification suites")
    _add_common(p)
    p.add_argument("--suite", default="all", choices=(*report.SUITES, "all"))

    p = sub.add_parser("sweep", help="Cartesian parameter sweep")
    p.add_argument("target", choices=SWEEP_TARGETS)
    _add_common(p, label=True)
    p.add_argument("--grid", default=None,
                   help="axes as 'var=start:stop:count[,var=...]' (inclusive); required")
    p.add_argument("--j", type=float, default=0.5)
    p.add_argument("--L0", type=float, default=0.0)
    p.add_argument("--theta", type=parse_angle, default=0.0)
    p.add_argument("--delta", type=float, default=0.1)
    # kept so existing command lines and artifacts still parse and re-run
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: sweeps run serially")

    p = sub.add_parser("run", help="re-run from a JSON artifact")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    # command -> {dest: flag} of every flag a config may set
    parser.config_flags = {
        name: {a.dest: a.option_strings[-1] for a in command._actions
               if a.option_strings and a.dest not in ("help", "config")}
        for name, command in sub.choices.items()}
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call shares, built on the first call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line with the shared parser.

    A command line with --config is parsed a second time, as _config_argv
    rewrites it.  The command runs as the cmd_<command> bound in this
    module at call time, so a rebinding made after the parser was built
    takes effect.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_config_argv(parser, args, argv))
        # an overflowed lattice sum is caught as a non-finite result and
        # reported as a precision failure; numpy's warning would only precede it
        with np.errstate(over="ignore", invalid="ignore"):
            return globals()[f"cmd_{args.command}"](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision failure: {exc} (achieved {exc.achieved})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
