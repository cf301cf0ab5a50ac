"""Coherent states on the strip in the angular-momentum basis.

A state labeled by (l, phi) with half-width r expands over the eigenbasis
J|j> = j|j>, j running over Z + s (s = 0: single cover / boson sector,
s = 1/2: double cover / fermion sector), with coefficients

    c_j = xi^{-j} exp(-j^2/2) = exp(l'*j - i*phi*j - j^2/2)

where xi is the geometric label and l' = -log|xi| the Gaussian center.
Everything measurable closes in theta functions:

    <a|b>       = sum_j exp((l'_a + l'_b)*j + i*(phi_a - phi_b)*j - j^2)
                = Theta_{3|2}(nu | i/pi),  nu = (phi_a-phi_b)/(2*pi) - i*(l'_a+l'_b)/(2*pi)
    <xi|xi>     = Theta_{3|2}(i*l'/pi | i/pi) = exp(l'^2) sqrt(pi) Theta_{3|4}(l' | i*pi)
    <J>         = l' + (1/2) d/dnu log Theta_{3|4}(nu|i*pi) at nu = l'
    <U>/<1>     = exp(-1/4) exp(i*phi) * Theta_{2|3}/Theta_{3|2}(i*l'/pi | i/pi)
                = exp(-1/4) exp(i*phi) * Theta_{4|3}/Theta_{3|4}(l' | i*pi)   (U|j> = |j+1>)
    |<j|xi>|^2 / <xi|xi> = exp(2*l'*j - j^2) / Theta_{3|2}(i*l'/pi | i/pi)
                         = exp(-(j-l')^2) / sum_k exp(-(k-l')^2)

(the second subscript applies in the s = 1/2 sector; Theta_4(nu) enters only
as Theta_3(nu + 1/2)).  Each quantity is exposed through at least two
independent evaluation routes so the closed forms are verifiable against
truncated sums.

The routes on the natural lattice tau = i/pi sum 13 to 15 terms around
the peak term at any finite l' (see theta; Theta_2 on the half-integer
lattice, Theta_3 on the integer one), and overflow past |l'| ~ 26.6.
The dual lattice tau = i*pi (nome exp(-pi^2)) needs 5 terms at any l',
and its Theta_3 has period 1 in nu, so the batched <U> route reads it at
the reduced center l' - round(l') and is finite at any finite l'.  Every
Fock-level sum runs over the 18 to 21 levels around round(l') (_windows):
the <J> ratio, direct <U> and occupation law of the weights exp(-(j - l')^2),
which never overflow, and the direct norm2 and overlap (and projection's
projected overlap) with exp(l'^2) factored out.  norm2 leaves double range
past |l'| ~ 26.6, by every route.

The distinguished angles phi = (2k+1)*pi place the particle on the strip
border, where l' = l +/- r and the theta correction to <J> vanishes; with
r = 1/2 this shifts integer l onto half-odd-integer <J> -- the double-cover
(fermionic) signature, produced by geometry rather than inserted by hand.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PrecisionError
from .geometry import _rejected, coherent_label, label_center, label_centers, valid_r
from .dynamics import energy_quantized
from .theta import (row_blocks, theta2, theta2_many, theta3, theta3_logderiv, theta3_many,
                    theta34_real)

__all__ = [
    "StateLabel",
    "label_for_center",
    "LabelBatch",
    "label_batches",
    "FockVector",
    "default_j_max",
    "level_grid",
    "build_cs",
    "cs_coeffs",
    "overlap",
    "norm2",
    "modular_norm",
    "expect_j",
    "expect_u",
    "occupation_law",
    "gaussian_supnorm",
    "quantization_scan",
    "evolve",
    "temporal_fidelity",
]

TAU_NATURAL = 1j / math.pi   # lattice parameter of the direct overlap sums
TAU_DUAL = 1j * math.pi      # modular partner (nome exp(-pi^2))
TAIL_TOL = 1e-12             # relative Gaussian tail build_cs leaves past its cutoff
SCAN_TOL = 1e-9              # quantization_scan's distance from the lattice
SCAN_GRID = 256              # angles quantization_scan returns at r = 0


@dataclass(frozen=True)
class StateLabel:
    """Physical label (l, phi) with half-width r, basis offset s, sign choice."""

    l: float
    phi: float
    r: float
    s: float = 0.0
    z_sign: int = +1

    def __post_init__(self):
        _check_label(self.l, self.phi, self.r, self.s, self.z_sign)

    @property
    def xi(self) -> complex:
        return coherent_label(self.l, self.phi, self.r, self.z_sign)

    @property
    def center(self) -> float:
        """Gaussian center l' = -log|xi| of the coefficient profile."""
        return label_center(self.l, self.phi, self.r, self.z_sign)


def _check_label(l: float, phi: float, r: float, s: float, z_sign: int) -> None:
    """Raise DomainError unless StateLabel(l, phi, r, s, z_sign) is a valid label."""
    if not valid_r(r):
        raise DomainError(f"need 0 <= r < 1, got r={r}")
    if s not in (0.0, 0.5):
        raise DomainError(f"basis offset s must be 0 or 0.5, got {s}")
    if z_sign not in (+1, -1):
        raise DomainError(f"z_sign must be +1 or -1, got {z_sign}")
    if not math.isfinite(l):
        raise DomainError("label l must be finite")
    if not math.isfinite(phi):
        raise DomainError("label phi must be finite")


def label_for_center(center: float, phi: float, r: float, s: float = 0.0) -> StateLabel:
    """The label at angle phi and half-width r whose Gaussian center l' is ``center``."""
    l = center - r * math.sin(0.5 * phi) + math.log(1.0 + r * math.cos(0.5 * phi))
    return StateLabel(l=l, phi=phi, r=r, s=s)


@dataclass(frozen=True)
class LabelBatch:
    """Many labels of one basis offset s, held as the columns the batched routes read.

    ``norm2(batch, method="theta")``, ``expect_j(batch, method="ratio")``,
    ``expect_u(batch, method="dual")``, ``gaussian_supnorm`` and
    ``occupation_law`` give one entry per label; a StateLabel runs as a
    batch of one, and no entry depends on the other labels of its batch.
    ``expect_u(label, method="theta")``, the natural-lattice ratio, takes a
    StateLabel only: it is the scalar oracle of the dual route.

    ``centers`` and ``phis`` are float64 arrays, or sequences of floats.
    """

    centers: np.ndarray
    phis: np.ndarray
    s: float


def label_batches(l, phi, r, s, z_sign: int = +1) -> tuple[list, dict[int, str]]:
    """Split label columns (sequences or arrays of floats) into one LabelBatch per basis offset.

    Returns ``([(rows, batch), ...], rejected)``, rows and the batch's
    columns as arrays.  A row goes into a batch if StateLabel accepts its
    label, and its center is taken as StateLabel.center takes it;
    ``rejected`` maps the others to StateLabel's error text.
    The columns are checked with numpy masks, and the centers of each
    sector's rows come from geometry.label_centers, bit-equal to the labels' own.
    """
    l, phi, r, s = (np.asarray(col, dtype=float) for col in (l, phi, r, s))
    valid = (valid_r(r) & ((s == 0.0) | (s == 0.5))
             & np.isfinite(l) & np.isfinite(phi) & (z_sign in (+1, -1)))
    rejected = _rejected(valid, lambda *row: _check_label(*row, z_sign), l, phi, r, s)
    batches = []
    for offset in (0.0, 0.5):
        rows = np.flatnonzero(valid & (s == offset))
        if rows.size:
            centers = label_centers(l[rows], phi[rows], r[rows], z_sign)
            batches.append((rows, LabelBatch(centers, phi[rows], offset)))
    return batches, rejected


def _batched(label: StateLabel | LabelBatch, kernel):
    """kernel(batch) at a LabelBatch; at a StateLabel, the one entry of its batch of one."""
    if isinstance(label, LabelBatch):
        return kernel(label)
    entry = kernel(LabelBatch([label.center], [label.phi], label.s))[0]
    return entry.item() if isinstance(entry, np.generic) else entry  # a Python number


def _refuse_batch(fn: str, label, batched: str, method: str) -> None:
    if isinstance(label, LabelBatch):
        raise ValueError(f"{fn} takes a LabelBatch with method={batched!r} only, got {method!r}")


@dataclass(frozen=True)
class FockVector:
    """Truncated coefficient vector over the j = Z + offset basis."""

    offset: float
    j: np.ndarray
    c: np.ndarray

    def norm2(self) -> float:
        return float(np.vdot(self.c, self.c).real)

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def inner(self, other: "FockVector") -> complex:
        if self.offset != other.offset or self.j.size != other.j.size:
            raise DomainError("FockVectors live on different level grids")
        return complex(np.vdot(self.c, other.c))


def default_j_max(center: float) -> int:
    """Level cutoff giving a relative Gaussian tail below ~exp(-81)."""
    if not math.isfinite(center):
        raise DomainError(f"level cutoff j_max must be finite, got {abs(center) + 9}")
    return math.ceil(abs(center)) + 9


def level_grid(j_max: float, s: float) -> np.ndarray:
    """Symmetric grid of every basis level in Z + s with |j| <= j_max."""
    if not math.isfinite(j_max):
        raise DomainError(f"level cutoff j_max must be finite, got {j_max}")
    try:
        if s == 0.0:
            n = math.floor(j_max)
            return np.arange(-n, n + 1, dtype=float)
        # floor(j_max + 1/2) positive levels; j_max - 1/2 is exact where j_max + 1/2 may round up
        n = math.floor(j_max - 0.5) + 1
        return np.arange(-n, n, dtype=float) + 0.5
    except (MemoryError, ValueError, OverflowError):  # past numpy's size limit or the memory
        raise DomainError(f"cannot allocate the levels |j| <= {j_max:g}") from None


def _exp(x: float, what: str) -> float:
    """math.exp(x), raising PrecisionError where the result would overflow (x = inf too)."""
    try:
        if x != math.inf:
            return math.exp(x)
    except OverflowError:
        pass
    raise PrecisionError(f"{what} overflows: exp({x:g})", achieved=math.inf)


def _require_tail(j_max: float, center: float) -> None:
    """Raise PrecisionError unless the Gaussian tail exp(-(j_max - |l'|)^2) is below TAIL_TOL."""
    gap = j_max - abs(center)
    tail = math.exp(-gap * gap) if gap > 0.0 else math.inf
    if not tail < TAIL_TOL:
        needed = int(math.ceil(abs(center) + math.sqrt(-math.log(TAIL_TOL)))) + 1
        raise PrecisionError(
            f"j_max={j_max} too small for center {center:g}; need at least {needed}",
            achieved=tail,
        )


def build_cs(label: StateLabel, j_max: float | None = None) -> FockVector:
    """Coefficient vector of the coherent state |xi>.

    Raises PrecisionError, before any level is allocated, where the peak
    modulus exp(max_g (l'^2 - (g - f)^2)/2) over the levels j = j0 + g
    (_windows) leaves double range: from |l'| ~ 37.7 on.
    """
    center = label.center
    if j_max is None:
        j_max = default_j_max(center)
    elif not math.isfinite(j_max):  # an input error goes ahead of the peak's overflow
        raise DomainError(f"level cutoff j_max must be finite, got {j_max}")
    near = abs(math.remainder(center, 1.0))  # |f|: the distance from l' to Z
    nearest = near if label.s == 0.0 else 0.5 - near
    _exp(0.5 * (center * center - nearest * nearest), "coefficient peak")
    j = level_grid(j_max, label.s)
    _require_tail(j_max, center)
    return FockVector(offset=label.s, j=j, c=cs_coeffs(center, label.phi, j))


def cs_coeffs(center: float, phase: float, j: np.ndarray) -> np.ndarray:
    """Coherent-state coefficients exp(l'*j - i*phase*j - j^2/2) at the levels ``j``."""
    return np.exp(center * j - 1j * phase * j - 0.5 * j * j)


def overlap(a: StateLabel, b: StateLabel, method: str = "theta") -> complex:
    """<a|b>: the closed theta form, or method="direct", sum_j exp(2*m*j + i*delta*j - j^2)
    at m = (l'_a + l'_b)/2, delta = phi_a - phi_b, summed on the window of m
    (_window_overlap).  Either route raises PrecisionError where <a|b> overflows.
    """
    if a.s != b.s:
        raise DomainError("overlapping states must share the basis offset s")
    if a.r != b.r:
        raise DomainError("overlapping states must share the half-width r")
    if method == "direct":
        m = 0.5 * a.center + 0.5 * b.center  # halved first: no overflow
        return _window_overlap(m, a.phi - b.phi, a.s, "direct overlap")
    if method == "theta":
        nu = (a.phi - b.phi) / (2.0 * math.pi) - 1j * (a.center + b.center) / (2.0 * math.pi)
        with np.errstate(over="ignore", invalid="ignore"):
            value = (theta3 if a.s == 0.0 else theta2)(nu, TAU_NATURAL)
        if not cmath.isfinite(value):  # past l'_a + l'_b ~ 53
            raise PrecisionError(f"theta overlap overflows: {value}", achieved=math.inf)
        return value
    raise ValueError(f"unknown method {method!r}")


def _window_overlap(m: float, delta: float, s: float, what: str) -> complex:
    """sum_j exp(2*m*j + i*delta*j - j^2) over j in Z + s, as
    exp(m^2) * exp(i*delta*j0) * sum_g exp(-(g - f)^2 + i*delta*g) on the window of m
    (_windows).  Raises PrecisionError naming ``what`` where the value overflows.
    """
    (_, j0, g, f), = _windows([m], s)
    window = complex(np.exp(-((g - f) ** 2) + 1j * delta * g).sum())
    value = _exp(m * m, what) * cmath.exp(1j * delta * j0.item()) * window
    if not cmath.isfinite(value):
        raise PrecisionError(f"{what} overflows: {value}", achieved=math.inf)
    return value


def norm2(label: StateLabel | LabelBatch, method: str = "direct") -> float | np.ndarray:
    """<xi|xi>; depends on (l, phi) only through the center l'.

    method="direct"   sum_j exp(2*l'*j - j^2) as exp(l'^2) * sum_g exp(-(g - f)^2) (_windows);
    method="theta"    Theta_{3|2}(i*l'/pi | i/pi);
    method="modular"  exp(l'^2)*sqrt(pi)*Theta_3(l' (+1/2) | i*pi).

    Each route overflows past |l'| ~ 26.6, where exp(l'^2) leaves double range.
    A LabelBatch (method="theta") gives an array, its theta sums batched.
    """
    if method == "theta":
        return _batched(label, _natural_norm2)
    _refuse_batch("norm2", label, "theta", method)
    center = label.center
    if method == "direct":
        (_, _, g, f), = _windows([center], label.s)
        return _exp(center * center, "direct norm2") * float(_gaussian(g - f).sum())
    if method == "modular":
        return float(modular_norm(center, label.s).real)
    raise ValueError(f"unknown method {method!r}")


def modular_norm(center: float, s: float, what: str = "modular norm2") -> complex:
    """exp(l'^2)*sqrt(pi)*Theta_3(l' (+1/2) | i*pi), with the theta sum's imaginary roundoff.

    Raises PrecisionError naming ``what`` where exp(l'^2) overflows.
    """
    th = theta3(center + (0.0 if s == 0.0 else 0.5), TAU_DUAL)
    return _exp(center * center, what) * math.sqrt(math.pi) * th


def _natural_norm2(batch: LabelBatch) -> np.ndarray:
    """Theta_{3|2}(i*l'/pi | i/pi) per label: theta3's or theta2's real part at 1j*l'/pi."""
    nu = 1j * (np.asarray(batch.centers, dtype=float) / math.pi)
    return (theta3_many if batch.s == 0.0 else theta2_many)(nu, TAU_NATURAL).real


def expect_j(label: StateLabel | LabelBatch, method: str = "ratio") -> float | np.ndarray:
    """<J> in the coherent state, by one of three independent routes.

    method="ratio"   direct ratio l' + sum_j (j - l')*w_j / sum_j w_j over the rescaled
                     weights w_j = exp(-(j - l')^2) = exp(2*l'*j - j^2) / exp(l'^2);
    method="theta"   l' + (1/2) * dlog Theta_3(nu|i*pi)/dnu at nu = l' (+1/2);
    method="series"  l' plus the explicit product-expansion correction
                     -/+ 2*pi*sin(2*pi*l') * sum_{n>=1} q^{2n-1} /
                     (1 +/- 2*q^{2n-1}*cos(2*pi*l') + q^{4n-2}),  q = exp(-pi^2)

    (upper signs: s = 0; lower signs: s = 1/2).  The correction vanishes for
    l' in (1/2)Z, where <J> = l' exactly.

    A LabelBatch (method="ratio") gives an array: labels that share a level
    grid are summed as one (labels x levels) array.
    """
    if method == "ratio":
        return _batched(label, _expect_j_ratio)
    _refuse_batch("expect_j", label, "ratio", method)
    center = label.center
    if method == "theta":
        shift = 0.0 if label.s == 0.0 else 0.5
        return center + 0.5 * theta3_logderiv(center + shift, TAU_DUAL)
    if method == "series":
        sign = 1.0 if label.s == 0.0 else -1.0
        q = math.exp(-math.pi * math.pi)
        # the correction is 1-periodic; from 2^52 on l' is an integer, and 2*pi*l' may overflow
        phase = center if abs(center) < _EXACT_INT else math.fmod(center, 1.0)
        cos2 = math.cos(2.0 * math.pi * phase)
        total = 0.0
        q_odd = q
        for _ in range(64):
            total += q_odd / (1.0 + sign * 2.0 * q_odd * cos2 + q_odd * q_odd)
            q_odd *= q * q
            if q_odd < 1e-320:
                break
        correction = -sign * 2.0 * math.pi * math.sin(2.0 * math.pi * phase) * total
        return center + correction
    raise ValueError(f"unknown method {method!r}")


_EXACT_INT = 2.0 ** 52  # from here on every double is an integer


def _windows(centers, s: float):
    """(rows, j0, g, f) per row block of labels: the window of levels j0 + g around each peak.

    j0 = rint(l') and f = l' - j0 (exact) are columns, g = level_grid(default_j_max(f), s)
    18 to 21 levels: j - l' = g - f in one rounding at any finite l', and past the window
    exp(-(j - l')^2) < exp(-81).  A non-finite l' raises default_j_max's DomainError.
    """
    centers = np.asarray(centers, dtype=float)
    for center in centers[~np.isfinite(centers)][:1]:
        default_j_max(center)  # raises
    j0 = np.rint(centers)
    f = centers - j0
    cutoffs = np.ceil(np.abs(f)).astype(int)  # 0 or 1, with f's default_j_max; ints hash fast
    for cutoff, rows in row_blocks(cutoffs, lambda c: 2 * default_j_max(c) + 1):
        yield rows, j0[rows, None], level_grid(default_j_max(cutoff), s), f[rows, None]


def _gaussian(d: np.ndarray) -> np.ndarray:
    """exp(-d^2) at every entry of ``d``, formed in place in one new array."""
    w = d * d
    np.negative(w, out=w)
    return np.exp(w, out=w)


def _expect_j_ratio(batch: LabelBatch) -> np.ndarray:
    """l' + sum_j (j - l')*w_j / sum_j w_j with the rescaled weights w_j = exp(-(j - l')^2).

    Each label sums the levels of its window (_windows).  From |l'| = 2^52
    on, every double is an integer, f = 0 and <J> = l'.
    """
    centers = np.asarray(batch.centers, dtype=float)
    correction = np.empty(centers.size)
    for rows, _, g, f in _windows(centers, batch.s):
        d = g - f
        w = _gaussian(d)
        norm = w.sum(axis=1)
        d *= w  # (j - l')*w_j, in place
        correction[rows] = d.sum(axis=1) / norm
    return centers + correction


def expect_u(label: StateLabel | LabelBatch, method: str = "dual") -> complex | np.ndarray:
    """<U>/<xi|xi> for the shift U|j> = |j+1>; modulus never exceeds 1.

    method="theta"   exp(-1/4)*exp(i*phi) * Theta_2/Theta_3(i*l'/pi | i/pi) (the
                     theta roles swap in the s = 1/2 sector, where the shifted
                     lattice is the integer one); overflows past |l'| ~ 26.6;
    method="dual"    exp(-1/4)*exp(i*phi) * Theta_3(f + 1/2 | i*pi)/Theta_3(f | i*pi),
                     f = l' - round(l'), and the reciprocal ratio for s = 1/2
                     (Jacobi's imaginary transformation); finite at any l';
    method="direct"  sum_j conj(c_{j+1}) c_j / sum_j |c_j|^2 over the rescaled
                     coefficients c_j = exp(-(j - l')^2/2 - i*phi*j), on the window
                     j = j0 + g of _windows; finite at any l'.

    A LabelBatch (method="dual") gives an array.
    """
    if method == "dual":
        return _batched(label, _expect_u_dual)
    _refuse_batch("expect_u", label, "dual", method)
    center = label.center
    if method == "theta":
        nu = 1j * center / math.pi
        a, b = theta2(nu, TAU_NATURAL), theta3(nu, TAU_NATURAL)
        return math.exp(-0.25) * cmath.exp(1j * label.phi) * (a / b if label.s == 0.0 else b / a)
    if method == "direct":
        (_, _, g, f), = _windows([center], label.s)  # exp(-i*phi*j0) cancels
        c = np.exp(-0.5 * (g - f[0]) ** 2 - 1j * label.phi * g)
        return complex(np.vdot(c[1:], c[:-1])) / float(np.vdot(c, c).real)
    raise ValueError(f"unknown method {method!r}")


def _expect_u_dual(batch: LabelBatch) -> np.ndarray:
    """The dual ratio per label, Theta_3 and Theta_4 = Theta_3(. + 1/2) from one cosine table.

    f = l' - round(l') is exact in double precision.  Theta_3 and Theta_4
    have period 1 in nu, and the cosines cos(2*pi*f*n) of the reduced
    center are accurate at any l', where those of l' itself are not.  Every
    real argument takes the same five terms on the dual lattice.
    """
    centers = np.asarray(batch.centers, dtype=float)
    th3, th4 = theta34_real(centers - np.rint(centers), TAU_DUAL)
    ratio = th4 / th3 if batch.s == 0.0 else th3 / th4
    return np.exp(1j * np.asarray(batch.phis, dtype=float)) * (math.exp(-0.25) * ratio)


def _check_level(j: float, s: float) -> None:
    if not math.isfinite(j):
        raise DomainError(f"level j must be finite, got {j}")
    if abs(j - round(j - s) - s) > 1e-12:
        raise DomainError(f"level j={j} is not in Z + {s}")


def _law_blocks(batch: LabelBatch, level: float | None = None):
    """(rows, levels, probability, gaussian) per row block of labels, over their windows.

    The weights w_j = exp(-(j - l')^2) = |<j|xi>|^2 / exp(l'^2) sum to between
    exp(-1/4) and 2 on a window, so nothing overflows at any l';
    probability = w/sum(w) and gaussian = w/sqrt(pi) come from the one array.
    With ``level``, that level alone, its weight at d = (level - j0) - f.
    """
    for rows, j0, g, f in _windows(batch.centers, batch.s):
        w = _gaussian(g - f)
        norm = w.sum(axis=1, keepdims=True)
        j = j0 + g if level is None else np.full_like(j0, level)
        if level is not None:
            with np.errstate(over="ignore"):  # d*d = inf past |d| ~ 1e154: a weight of 0.0
                w = _gaussian(j - j0 - f)
        yield rows, j, w / norm, w / math.sqrt(math.pi)


def _occupation_law(batch: LabelBatch, level: float | None = None) -> list[tuple]:
    """(levels, probability, gaussian) per label, or with ``level`` that level's entry alone."""
    if level is not None:
        _check_level(level, batch.s)
    law = [None] * len(batch.centers)
    for rows, j, p, g in _law_blocks(batch, level):
        for row, i in enumerate(rows):
            _check_lattice_resolved(batch.centers[i])  # j0 + g is unresolved from 2^52 on
            law[i] = (j[row], p[row], g[row])
    return law


def occupation_law(label: StateLabel | LabelBatch, level: float | None = None):
    """|<j|xi>|^2 / <xi|xi> and its Gaussian limit exp(-(j - l')^2)/sqrt(pi), level by level.

    The arrays (levels, probability, gaussian) over the window of l' (_windows), one
    triple per label of a LabelBatch; with ``level`` (in Z + s), that level alone, inside
    the window or beyond it.  PrecisionError from |l'| = 2^52 on (_check_lattice_resolved).
    """
    return _batched(label, lambda batch: _occupation_law(batch, level))


def gaussian_supnorm(label: StateLabel | LabelBatch) -> float | np.ndarray:
    """max over the window's levels of |probability - gaussian| (see occupation_law)."""
    return _batched(label, _gaussian_supnorm)


def _gaussian_supnorm(batch: LabelBatch) -> np.ndarray:
    out = np.empty(len(batch.centers))
    for rows, _, p, g in _law_blocks(batch):
        out[rows] = np.abs(p - g).max(axis=1)
    return out


def _check_lattice_resolved(center: float) -> None:
    """Raise PrecisionError from |l'| = 2^52 on: every double there is an integer.

    Z + 1/2 has no double there, and the rounding of l' reaches the lattice
    spacing, so whether <J> lies on Z + s cannot be told.
    """
    if abs(center) >= _EXACT_INT:
        raise PrecisionError(f"cannot resolve the level lattice at center {center:g} >= 2^52",
                             achieved=math.ulp(center))


def quantization_scan(r: float, l: float, s: float = 0.5) -> list[float]:
    """Angles phi in [0, 4*pi) where the action identity pins <J> to the lattice.

    A configuration is accepted when (i) the theta correction to <J>
    vanishes, i.e. the center l' sits on (1/2)Z, so <J> = l' exactly, and
    (ii) <J> lies on the sector lattice Z + s.  For r > 0 the candidates are
    the border angles phi = pi, 3*pi (cos(phi/2) = 0: the particle sits on
    the strip edge and l' = l +/- r); interior angles where l' crosses the
    lattice accidentally are excluded.  For r = 0 the center is
    phi-independent and every angle qualifies whenever l is on the lattice,
    in which case the full scan grid of SCAN_GRID angles is returned.  Both
    tests are met within SCAN_TOL.
    """
    if not valid_r(r):
        raise DomainError(f"need 0 <= r < 1, got r={r}")
    if s not in (0.0, 0.5):
        raise DomainError("s must be 0 or 0.5")

    if r == 0.0:
        grid = np.linspace(0.0, 4.0 * math.pi, SCAN_GRID, endpoint=False)
        _check_lattice_resolved(l)
        if abs(l - s - round(l - s)) <= SCAN_TOL:
            return [float(p) for p in grid]
        return []

    roots = []
    for phi in (math.pi, 3.0 * math.pi):
        label = StateLabel(l=l, phi=phi, r=r, s=s)
        center = label.center
        _check_lattice_resolved(center)
        if abs(math.remainder(center, 0.5)) > SCAN_TOL:  # 2 * center may overflow
            continue
        jbar = expect_j(label, method="ratio")
        if abs(jbar - s - round(jbar - s)) > SCAN_TOL:
            continue
        roots.append(phi)
    return roots


def evolve(v: FockVector, t: float, r: float, L0: float = 0.0) -> FockVector:
    """Diagonal time evolution c_j -> exp(-i*E_j*t)*c_j with the border spectrum."""
    energies = energy_quantized(v.j, L0, r)
    return replace(v, c=v.c * np.exp(-1j * energies * t))


def temporal_fidelity(label: StateLabel, t: float, L0: float = 0.0) -> float:
    """|<xi(phase-advanced)|exp(-iHt)|xi>| / norms.

    The comparison state keeps the center fixed and advances the angle by
    omega*t with omega = dE/dj at j = l' (level-spacing proxy).  Equals 1 at
    t = 0 and stays below 1 for t != 0: the spectrum is quadratic, so
    coherent evolution is a diagnostic, not an identity.
    """
    for name, value in (("t", t), ("L0", L0)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    v = build_cs(label)
    evolved = evolve(v, t, label.r, L0)
    center = label.center
    omega = 4.0 * center / (4.0 + label.r ** 2)
    phase = label.phi + omega * t
    comparison = replace(v, c=cs_coeffs(center, phase, v.j))
    inner = comparison.inner(evolved)
    norms = comparison.norm() * evolved.norm()
    if not (cmath.isfinite(inner) and math.isfinite(norms)):
        # the coefficients overflowed; abs() of a NaN overlap may even raise
        raise PrecisionError("fidelity overlap overflows", achieved=math.inf)
    return abs(inner) / norms
