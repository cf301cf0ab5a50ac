"""Command-line frontend.

Subcommands::

    theta      evaluate the theta-function engine at a label's arguments
    cs         coherent-state quantities (expect-j, expect-u, norm2,
               distribution, overlap, coeffs, quantize, fidelity)
    spectrum   level energies at the border angles
    dynamics   sample a strip trajectory (closed-form quadrature or RK4) and
               export it
    project    universal constraint-window projector
    verify     identity-verification suites (exit 1 on any failure)
    sweep      Cartesian parameter sweeps of scalar targets
    run        re-run the command of a JSON artifact with its config

Angles accept symbolic multiples of pi ("pi", "3pi", "pi/2", "-0.5pi") so
the border angles are expressible exactly; a negative number or angle may
follow its flag as its own word ("--phi -0.5pi", "--l -3.2e-05").  All
numeric output is printed with 17 significant digits; CSV artifacts use a
header row, comma separators and LF line endings, and identical configs
produce byte-identical artifacts.  The values of a --config file (key=value
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
import dataclasses
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import _g17, dynamics, projection, report, states, theta
from .errors import DomainError, PrecisionError
from .geometry import _distinct, _rejected, valid_r

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
            try:
                value /= float(div_s)
            except ZeroDivisionError:
                raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None
        return value
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


def _bind_values(argv: list[str]) -> list[str]:
    """``argv`` with each long flag followed by a negative number or angle written as --flag=value.

    argparse reads a word that starts with '-' as a flag unless it is a plain
    decimal such as -3 or -0.5, so '--phi -0.5pi', '--phi -pi/2', '--l -3.2e-05'
    and '--l -inf' would leave their flags without a value.  A word that
    parse_angle (hence float) reads is bound to the long flag before it.
    """
    out: list[str] = []
    for word in argv:
        if (word[:1] == "-" and word[1:2] != "-" and out and _takes_value(out[-1])
                and _is_angle(word)):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def _takes_value(flag: str) -> bool:
    """Whether the word ``flag`` is a long flag that still needs its value ('--' and --help do not)."""
    return flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)


def _is_angle(word: str) -> bool:
    try:
        parse_angle(word)
    except argparse.ArgumentTypeError:
        return False
    return True


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


_WORDS = ("command", "action", "target")  # the dests that hold an artifact's command words


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
        if key in _WORDS:
            continue
        if value is None or isinstance(value, (list, dict)):
            raise DomainError(f"config key {key!r} needs a number or a string, got {value!r}")
        values[key] = fmt(value)
    return command, values


CHUNK_ROWS = 4096  # rows formatted and written per write call
_FLOAT_SLOT = "%.17g"  # fmt's format for a float, as a %-operator slot
_NEEDS_CSV = frozenset(',"\r\n')  # the characters that can make csv quote a cell
_TEXT = frozenset({str})  # the cell types of a text column
_FLOATS = frozenset({float, np.float64})  # the cell types a list of floats may hold
_FILL = bytes([_g17.FILL])  # the byte deleted from a chunk's byte rows to leave its text


class _TextCells(dict):
    """One table's text cells as csv writes them in a row of several cells.

    Maps each text met so far to its cell.  A text is quoted by the
    table's one csv writer, which writes the header too.  An empty text
    gives ``empty``: csv writes "" for it in a row of several cells and
    '""' in a row of one.  A float column is encoded by ``encode``.
    """

    encode = staticmethod(_g17.encode)

    def __init__(self, empty: str):
        super().__init__()
        self.empty = empty
        self._buffer = io.StringIO()
        self._writer = csv.writer(self._buffer, lineterminator="\n")

    def row(self, cells) -> str:
        """The csv line of ``cells``."""
        self._buffer.seek(0)
        self._buffer.truncate()
        self._writer.writerow(cells)
        return self._buffer.getvalue()

    def cell(self, text: str) -> str:
        if not text:
            return self.empty
        if not _NEEDS_CSV.isdisjoint(text):
            return self.row((text,))[:-1]
        return text

    def of(self, value) -> str:
        """A value's cell: fmt's text, quoted as csv quotes it."""
        return self.cell(fmt(value))


class _JsonCells(dict):
    """One table's text cells as json.dumps(..., default=float) writes them in a row.

    Maps each text met so far to its cell.  A blank float cell is "", and a
    float column is encoded by ``encode``, as json writes a float.
    """

    empty = '""'
    encode = staticmethod(_g17.encode_repr)
    of = staticmethod(json.JSONEncoder(default=float).encode)


def _cells(values, kinds: set, texts):
    """The cells of a column that is not all floats: (cell, None) if every row shares one, else (None, cells).

    A text column gets each distinct text's cell made once, and kept in
    ``texts`` for every column and chunk; any other column has each
    value's cell made.
    """
    if kinds != _TEXT:
        return None, [texts.of(value) for value in values]
    distinct = set(values)
    for text in distinct.difference(texts):
        texts[text] = texts.of(text)
    if len(distinct) == 1:
        return texts[values[0]], None
    return None, list(map(texts.__getitem__, values))


def _chunk_plan(chunk: list, texts: _TextCells):
    """One list column's rows of a chunk as (cell, values), for the chunk's row template.

    The cell is text that every row shares (values None), a %.17g slot
    filled by ``values``, the column's floats, or a %s slot filled by
    ``values``, each row's cell text.
    """
    kinds = set(map(type, chunk))
    if kinds <= _FLOATS:
        return _FLOAT_SLOT, chunk
    cell, cells = _cells(chunk, kinds, texts)
    return ("%s", cells) if cell is None else (cell.replace("%", "%%"), None)


def _chunk_text(n: int, plans: list) -> str:
    """The CSV text of n rows, given each column's (cell, values) from _chunk_plan.

    One row template, repeated n times and holding each column's cell, is
    filled by one % with the slots' values in row order; a %.17g slot
    gives fmt's text for a float.
    """
    template = (",".join(cell for cell, _ in plans) + "\n") * n
    slotted = [values for _, values in plans if values is not None]
    # tuple() of a list: a tuple built from a generator is resized, and
    # CPython keeps each freed one in the free list of its final size
    return template % tuple([value for row in zip(*slotted) for value in row])


def _byte_plan(column, blank, texts):
    """A whole column as (cell, cells), for _chunk_bytes; ``texts`` is a _TextCells or _JsonCells.

    The cell is text that every row shares (cells None), the %.17g slot
    for floats encoded chunk by chunk (cells: the floats, ``blank`` and
    the byte row of an empty cell), or %s for rows gathered from a table
    of distinct cells (cells: the table and each row's index in it).
    ``blank`` is None or the mask of a float array's empty rows.
    """
    if _is_float_array(column):
        return _float_plan(column, blank, texts.empty, texts.of)
    kinds = set(map(type, column))
    if kinds <= _FLOATS:
        return _float_plan(np.array(column, dtype=np.float64), None, texts.empty, texts.of)
    cell, cells = _cells(column, kinds, texts)
    if cell is not None:
        return cell, None
    index = dict.fromkeys(cells)
    for i, text in enumerate(index):
        index[text] = i
    return "%s", (_table([text.encode() for text in index]),
                  np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells)))


def _is_float_array(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _table(cells: list) -> np.ndarray:
    """The byte cells as rows of one width, each filled out with _g17.FILL."""
    width = max(map(len, cells))
    return np.frombuffer(b"".join(cell.ljust(width, _FILL) for cell in cells),
                         dtype=np.uint8).reshape(len(cells), width)


def _float_plan(column: np.ndarray, blank, empty: str, number):
    """_byte_plan of a float array; ``blank`` is None or the mask of its empty rows.

    A column whose values geometry._distinct finds at most half distinct
    gets each distinct bit pattern (0.0 and -0.0 apart) formatted once by
    ``number``, and one shared by every row as its cell text; any other
    column is encoded chunk by chunk.  A blank row's cell is ``empty``.  A
    mask with no row set is taken as None.
    """
    if blank is not None and not blank.any():
        blank = None
    column = np.asarray(column, dtype=np.float64)  # a strided column stays uncopied
    bits = column.view(np.int64)
    distinct = _distinct(bits if blank is None else bits[~blank])
    if distinct is None:
        # a blank row's float, as a sweep's 0.0, is not left to the fallback
        return _FLOAT_SLOT, (column if blank is None else np.where(blank, 1.0, column), blank,
                             np.frombuffer(empty.encode().ljust(_g17.WIDTH, _FILL), np.uint8))
    texts = list(map(number, distinct.view(np.float64).tolist()))
    if blank is None and len(texts) == 1:
        return texts[0], None
    at = np.searchsorted(distinct, bits)
    if blank is not None:
        at[blank] = len(texts)
    return "%s", (_table([text.encode() for text in [*texts, empty]]), at)


def _chunk_bytes(lo: int, hi: int, plans: list, seps: list, encode) -> str:
    """The text of rows lo:hi, given each column's (cell, cells) from _byte_plan.

    seps[0] opens each row and seps[i + 1] follows column i.  The %.17g
    columns are encoded by ``encode`` about CHUNK_ROWS values to a call:
    one column at a time in a full chunk, several together in a short one.
    The columns' rows, with the shared cells and separators between them,
    are laid side by side; deleting every fill byte leaves the text.
    """
    n = hi - lo
    floats = [cells[0][lo:hi] for cell, cells in plans if cells is not None and cell == _FLOAT_SLOT]
    per_call = max(1, CHUNK_ROWS // n)
    encoded = (rows for first in range(0, len(floats), per_call)
               for rows in encode(np.column_stack(floats[first:first + per_call]))
               .reshape(n, -1, _g17.WIDTH).transpose(1, 0, 2))
    parts, shared = [], seps[0]

    def flush(text):
        data = np.frombuffer(text.encode(), dtype=np.uint8)
        parts.append(np.broadcast_to(data, (n, data.size)))

    for (cell, cells), sep in zip(plans, seps[1:]):
        if cells is None:
            shared += cell + sep
            continue
        if shared:
            flush(shared)
        shared = sep
        if cell != _FLOAT_SLOT:
            table, at = cells
            parts.append(table.take(at[lo:hi], axis=0))
            continue
        _, blank, empty = cells
        rows = next(encoded)
        if blank is not None:
            rows[blank[lo:hi]] = empty
        parts.append(rows)
    flush(shared)
    chunk = np.concatenate(parts, axis=1)
    parts.clear()
    text = chunk.tobytes()
    del chunk  # each buffer is freed as soon as the next holds the chunk
    return text.translate(None, _FILL).decode()


def _chunks(n_rows: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK_ROWS, n_rows)) for lo in range(0, n_rows, CHUNK_ROWS)]


def _write_csv(columns: dict, fh, blank: dict) -> None:
    """Header and rows, CHUNK_ROWS at a time; nothing at all for an empty table.

    ``blank`` maps a float column's key to the row mask of its empty cells.
    A table with a float array column is planned column by column, then
    assembled as bytes chunk by chunk; a table of lists alone, as the
    one-row point tables, fills a row template, which costs less than
    numpy's fixed cost per call there.
    """
    cols = list(columns.values())
    n_rows = len(cols[0]) if cols else 0
    if not n_rows:
        return
    texts = _TextCells('""' if len(cols) == 1 else "")
    fh.write(texts.row(columns))
    if not any(map(_is_float_array, cols)):
        for lo, hi in _chunks(n_rows):
            fh.write(_chunk_text(hi - lo, [_chunk_plan(col[lo:hi], texts) for col in cols]))
        return
    plans = [_byte_plan(col, blank.get(key), texts) for key, col in columns.items()]
    seps = ["", *[","] * (len(cols) - 1), "\n"]
    for lo, hi in _chunks(n_rows):
        fh.write(_chunk_bytes(lo, hi, plans, seps, texts.encode))


def _write_json(columns: dict, fh, blank: dict, artifact: dict) -> None:
    """json.dumps of the artifact with the table's rows, ``blank`` cells "", and a newline.

    The rows are assembled as bytes chunk by chunk, as _write_csv
    assembles a table with a float array column, with the artifact's text
    around them.
    """
    fh.write(json.dumps(artifact, default=float)[:-1] + ', "rows": [')
    n_rows = len(next(iter(columns.values()))) if columns else 0
    if n_rows:
        texts = _JsonCells()
        plans = [_byte_plan(col, blank.get(key), texts) for key, col in columns.items()]
        keys = [json.dumps(key) for key in columns]
        seps = ["{%s: " % keys[0], *(", %s: " % key for key in keys[1:]), "}, "]
        for lo, hi in _chunks(n_rows):
            text = _chunk_bytes(lo, hi, plans, seps, texts.encode)
            fh.write(text if hi < n_rows else text[:-2])  # no ", " after the last row
    fh.write("]}\n")


def emit(columns: dict, args, blank: dict | None = None) -> None:
    """Write a table given as equal-length columns as CSV or JSON, deterministically.

    ``blank`` maps the key of a float-array column to the row mask of its
    blank cells: empty in CSV, "" in JSON.  The output goes to --out or
    stdout.  A JSON artifact takes its command words and config from
    ``args``, followed by the table's rows.
    """
    blank = blank or {}
    if args.format == "json":
        artifact = {"command": [getattr(args, key) for key in _WORDS if hasattr(args, key)],
                    "config": _config(args)}
    elif args.format != "csv":
        raise DomainError(f"unknown format {args.format!r}")
    with (open(args.out, "w", encoding="utf-8", newline="\n") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "csv":
            _write_csv(columns, fh, blank)
        else:
            _write_json(columns, fh, blank, artifact)


def _modulus(z: complex) -> float:
    """abs(z), but NaN where a part is NaN and none is infinite.

    There CPython's abs() reads a stale errno, so an ERANGE left by an
    earlier overflowed exp makes it raise OverflowError.
    """
    return math.nan if cmath.isnan(z) and not cmath.isinf(z) else abs(z)


def _require_finite(columns: dict) -> None:
    """Raise PrecisionError at the first row holding an inf or NaN, at its first such key."""
    for row in zip(*columns.values()):
        for key, value in zip(columns, row):
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise PrecisionError(f"{key} is not finite", achieved=float(value))


def make_label(args) -> states.StateLabel:
    return states.StateLabel(l=args.l, phi=args.phi, r=args.r, s=args.s)


def _config(args) -> dict:
    """An artifact's config: its command's flags but --out, --format and unset (None) ones,
    a non-finite float as its fmt text ("nan", "inf", "-inf"), which strict JSON allows."""
    return {key: fmt(value) if isinstance(value, float) and not math.isfinite(value) else value
            for key in _parser().config_flags[args.command]
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
    modular = states.modular_norm(c, args.s, "norm_modular_route")
    natural = t3 if args.s == 0.0 else t2
    values = {"center": c, "theta3_natural": t3, "theta2_natural": t2,
              "norm_modular_route": modular,
              "modular_residual": _modulus(natural - modular) / max(1.0, _modulus(modular)),
              "logderiv_dual": theta.theta3_logderiv(c + shift, states.TAU_DUAL)}
    columns = {"quantity": list(values), "value_re": [v.real for v in values.values()],
               "value_im": [v.imag for v in values.values()]}
    _require_finite(columns)
    emit(columns, args)
    return 0


def cmd_cs(args) -> int:
    label = make_label(args)
    if args.action == "expect-j":
        v1 = states.expect_j(label, method="ratio")
        v2 = states.expect_j(label, method="theta")
        v3 = states.expect_j(label, method="series")
        columns = {"expect_j": [v2], "ratio_path": [v1], "series_path": [v3],
                   "max_spread": [max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3))]}
    elif args.action == "expect-u":
        d = states.expect_u(label, method="direct")
        t = states.expect_u(label, method="dual")
        columns = {"expect_u_re": [t.real], "expect_u_im": [t.imag],
                   "expect_u_abs": [_modulus(t)], "spread": [_modulus(d - t)]}
    elif args.action == "norm2":
        columns = {"norm2": [states.norm2(label, method="theta")],
                   "direct_path": [states.norm2(label, method="direct")],
                   "modular_path": [states.norm2(label, method="modular")]}
    elif args.action == "distribution":
        levels, p, g = states.occupation_law(label, args.j)  # the --j level alone, if given
        columns = {"j": levels.tolist(), "probability": p.tolist(), "gaussian": g.tolist(),
                   "deviation": np.abs(p - g).tolist()}
    elif args.action == "overlap":
        other = states.StateLabel(l=args.l2, phi=args.phi2, r=args.r, s=args.s)
        direct = states.overlap(label, other, method="direct")
        closed = states.overlap(label, other, method="theta")
        columns = {"overlap_re": [closed.real], "overlap_im": [closed.imag],
                   "spread": [_modulus(direct - closed)]}
    elif args.action == "coeffs":
        v = states.build_cs(label, j_max=args.j_max)
        columns = {"j": v.j.tolist(), "c_re": v.c.real.tolist(), "c_im": v.c.imag.tolist()}
    elif args.action == "quantize":
        labels = [states.StateLabel(l=args.l, phi=phi, r=args.r, s=args.s)
                  for phi in states.quantization_scan(args.r, args.l, args.s)]
        columns = {"phi": [lab.phi for lab in labels], "center": [lab.center for lab in labels],
                   "expect_j": [states.expect_j(lab, method="ratio") for lab in labels]}
    elif args.action == "fidelity":
        columns = {"t": [args.t],
                   "fidelity": [states.temporal_fidelity(label, args.t, L0=args.L0)]}
    else:
        raise DomainError(f"unknown cs action {args.action!r}")
    _require_finite(columns)
    emit(columns, args)
    return 0


def cmd_spectrum(args) -> int:
    for flag, value in (("--j-max", args.j_max), ("--L0", args.L0), ("--phi", args.phi)):
        if not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value}")
    j = states.level_grid(args.j_max, args.s)
    columns = {}
    if j.size:  # an empty grid evaluates no level, so it checks no r
        E_border = dynamics.energy_quantized(j, args.L0, args.r)
        L0, phi, r = (np.full(j.size, value) for value in (args.L0, args.phi, args.r))
        columns = {"j": j.tolist(), "L0": L0.tolist(),
                   "E": dynamics.mobius_hamiltonians(j, L0, phi, r).tolist(),
                   "E_border": E_border.tolist()}
    _require_finite(columns)
    emit(columns, args)
    return 0


def cmd_dynamics(args) -> int:
    phi_dot = dynamics.mobius_phidot(args.j, args.L0, args.phi, args.r)
    z0_dot = args.L0 + 0.5 * args.r * math.cos(0.5 * args.phi) * phi_dot
    s0 = dynamics.MobiusState(phi=args.phi, phi_dot=phi_dot, z0=args.z0, z0_dot=z0_dot)
    route = dynamics.integrate_mobius if args.method == "rk4" else dynamics.quadrature_mobius
    traj = route(s0, args.r, t_end=args.t_end, dt=args.dt, energy_tol=args.tol)
    emit(traj.columns(), args)
    return 0


def cmd_project(args) -> int:
    spec = projection.ProjectionSpec(theta=args.theta, phi=args.phi, delta=args.delta)
    ind = projection.universal_projector(spec, method="indicator")
    quad_val = projection.universal_projector(spec, method="quadrature")
    emit({"defect": [spec.argument], "delta": [args.delta], "indicator": [ind],
          "quadrature": [quad_val], "difference": [abs(ind - quad_val)]}, args)
    return 0


def cmd_verify(args) -> int:
    checks = report.run_suite(args.suite)
    keys = [*(field.name for field in dataclasses.fields(report.VerificationCheck)), "passed"]
    emit({key: [getattr(c, key) for c in checks] for key in keys}, args)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.check}: max_error={fmt(c.max_error)} tol={fmt(c.tolerance)}",
              file=sys.stderr)
    return 0 if all(c.passed for c in checks) else 1


_GRID_PART = re.compile(r"^(\w+)=([^:]+):([^:]+):(\d+)$")

# the sweep's parameters, in the order of its config, and the type of each
SWEEP_PARAMS = {"l": float, "phi": parse_angle, "r": float, "s": parse_offset,
                "j": float, "L0": float, "theta": parse_angle, "delta": float}


def parse_grid(spec: str) -> list[tuple[str, np.ndarray]]:
    """Parse 'var=start:stop:count[,var=...]' into (name, values) pairs.

    Endpoints are inclusive, and they and every point between must be
    finite; count is the number of points; count 0 gives an empty axis
    (and an empty sweep).
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
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"grid endpoints must be finite, got {part.strip()!r}")
        try:
            values = np.linspace(lo, hi, int(count_s))
        except (MemoryError, ValueError):  # past numpy's size limit or the memory
            raise DomainError(f"cannot allocate the grid axis {part.strip()!r}") from None
        if not np.all(np.isfinite(values)):  # hi - lo overflows: linspace gives inf and NaN
            raise DomainError(f"grid points must be finite, got {part.strip()!r}")
        axes.append((name, values))
    return axes


SWEEP_TARGETS = ("expect-j", "expect-u", "norm2", "gaussian-supnorm", "energy", "projector")


def _state_values(target: str, batch: states.LabelBatch) -> dict:
    """A state target's value arrays at a LabelBatch."""
    if target == "expect-j":
        return {"expect_j": states.expect_j(batch, method="ratio")}
    if target == "expect-u":
        val = states.expect_u(batch, method="dual")
        return {"expect_u_re": val.real, "expect_u_im": val.imag}
    if target == "norm2":
        return {"norm2": states.norm2(batch, method="theta")}
    return {"supnorm": states.gaussian_supnorm(batch)}


def _error_text(exc: Exception) -> str:
    """A sweep row's error cell: the exception's type and message."""
    return f"{type(exc).__name__}: {exc}"


def _sweep_work(target: str, column) -> tuple[list, dict[int, str]]:
    """A target's work items, and the error text of each row it rejects unevaluated.

    ``column(name)`` is a sweep parameter at every point.  A work item is
    (rows, evaluate, columns): evaluate(*columns) gives the target's value
    arrays at rows.  states.label_batches splits a state target's rows; an
    energy or projector row is rejected where a mask mirrors the checks of
    its scalar route, with the text that route raises there.
    """
    if target == "energy":
        cols = [column(key) for key in ("j", "L0", "phi", "r")]
        # math.cos raises at an infinite angle
        valid, route = valid_r(cols[3]) & ~np.isinf(cols[2]), dynamics.energy_spectrum
        evaluate = lambda *c: {"E": dynamics.mobius_hamiltonians(*c)}
    elif target == "projector":
        cols = [column(key) for key in ("theta", "phi", "delta")]
        valid, route = projection.valid_specs(*cols), projection.ProjectionSpec
        evaluate = lambda *c: {"indicator": projection.universal_projectors(*c)}
    else:
        batches, rejected = states.label_batches(*map(column, ("l", "phi", "r", "s")))
        return ([(rows, lambda *c, s=batch.s: _state_values(target, states.LabelBatch(*c, s)),
                  [batch.centers, batch.phis]) for rows, batch in batches],
                {i: f"DomainError: {text}" for i, text in rejected.items()})
    rows = np.flatnonzero(valid)
    return ([(rows, evaluate, [col[rows] for col in cols])] if rows.size else [],
            _rejected(valid, route, *cols, text=_error_text))


def _grid_columns(axes: list[tuple[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Each axis's value at every point of the Cartesian grid, first axis slowest.

    A repeated axis name keeps its first place and its last axis's values.
    """
    try:
        mesh = np.meshgrid(*[vals for _, vals in axes], indexing="ij")
    except (MemoryError, ValueError):  # past numpy's size limit or the memory
        raise DomainError("cannot allocate the sweep grid's points") from None
    return {name: grid.ravel() for (name, _), grid in zip(axes, mesh)}


def _sweep_batches(work: list, rejected: dict, values: dict, errors: list) -> np.ndarray:
    """Run _sweep_work's items: each row gets its values or its error text.

    Values go into the float64 arrays of ``values`` (created on a row's
    first success).  A rejected row gets its text and a non-finite row
    _require_finite's.  An item that raises is halved and each half run on
    its own, so the good rows stay batched and each failing row ends as a
    batch of one with its own error.  Returns the mask of the rows given
    an error.
    """
    failed = np.zeros(len(errors), dtype=bool)
    for i, text in rejected.items():
        errors[i] = text
        failed[i] = True
    while work:
        rows, evaluate, cols = work.pop()
        try:
            result = evaluate(*cols)
        except Exception as exc:  # per-row failure is recorded, not fatal
            if rows.size == 1:
                errors[rows[0]] = _error_text(exc)
                failed[rows] = True
            else:
                half = rows.size // 2
                work += [(rows[lo:hi], evaluate, [col[lo:hi] for col in cols])
                         for lo, hi in ((0, half), (half, rows.size))]
            continue
        good = np.ones(rows.size, dtype=bool)
        for key, col in result.items():  # a row's error names its first non-finite key
            finite = np.isfinite(col)
            for i in rows[good & ~finite].tolist():
                errors[i] = f"PrecisionError: {key} is not finite"
            good &= finite
        failed[rows[~good]] = True
        if good.any():
            for key, col in result.items():
                if key not in values:
                    values[key] = np.zeros(len(errors))
                values[key][rows[good]] = col[good]
    return failed


def cmd_sweep(args) -> int:
    if args.grid is None:
        raise DomainError("sweep needs --grid, on the command line or in its --config")
    axes = parse_grid(args.grid)
    columns = _grid_columns(axes)
    n_points = math.prod(len(vals) for _, vals in axes)

    # columns are built directly: a 10^4-point sweep keeps no per-row dicts
    values: dict[str, np.ndarray] = {}
    errors = [""] * n_points
    work = _sweep_work(args.target, lambda key: columns[key] if key in columns
                       else np.full(n_points, getattr(args, key)))
    failed = _sweep_batches(*work, values, errors)

    # column layout must not depend on which rows failed; a failed row's
    # value cells are blank
    for key in sorted(values):
        columns[key] = values[key]
    columns["error"] = errors
    emit(columns, args, dict.fromkeys(values, failed))
    return 1 if failed.any() else 0


def _config_argv(parser: argparse.ArgumentParser, args, argv: list[str]) -> list[str]:
    """The command line that ``argv`` and its --config file stand for together.

    The config's values become flags placed before the command line's own,
    and argparse keeps a repeated flag's last value, so the command line
    wins.  ``run`` takes its command words from the artifact, and its own
    command line gives only --out and --format.  A dynamics artifact that
    records no method was written by RK4, the only route then, and re-runs
    as --method rk4.
    """
    command, values = load_config(args.config)
    if command == ["dynamics"]:
        values.setdefault("method", "rk4")
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

    p = sub.add_parser("dynamics", help="sample a strip trajectory")
    _add_common(p, label=True)
    p.add_argument("--j", type=float, default=1.0, help="initial angular momentum")
    p.add_argument("--L0", type=float, default=0.0, help="axial momentum")
    p.add_argument("--z0", type=float, default=0.0, help="initial axial position")
    p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-6, help="energy-drift acceptance")
    p.add_argument("--method", choices=("quadrature", "rk4"), default="quadrature",
                   help="closed-form quadrature (RK4 past its coefficient cap) or RK4")

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
    argv = _bind_values(sys.argv[1:] if argv is None else list(argv))
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
