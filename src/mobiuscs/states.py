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
    <U>/<1>     = exp(-1/4) exp(i*phi) * theta ratio          (U|j> = |j+1>)
    |<j|xi>|^2 / <xi|xi> = exp(2*l'*j - j^2) / Theta_{3|2}(i*l'/pi | i/pi)
                         = exp(-(j-l')^2) / sum_k exp(-(k-l')^2)

(the second subscript applies in the s = 1/2 sector; Theta_4(nu) enters only
as Theta_3(nu + 1/2)).  Each quantity is exposed through at least two
independent evaluation routes so the closed forms are verifiable against
truncated sums.

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
from .geometry import coherent_label, label_center
from .dynamics import energy_quantized
from .theta import (
    row_blocks,
    theta2,
    theta2_many,
    theta3,
    theta3_logderiv,
    theta3_many,
)

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
    "fiducial",
    "overlap",
    "norm2",
    "expect_j",
    "expect_u",
    "occupation_law",
    "distribution",
    "gaussian_supnorm",
    "quantization_scan",
    "evolve",
    "temporal_fidelity",
    "bargmann_coeff",
]

TAU_NATURAL = 1j / math.pi   # lattice parameter of the direct overlap sums
TAU_DUAL = 1j * math.pi      # modular partner (nome exp(-pi^2))


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
    if not (0.0 <= r < 1.0):
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
    ``expect_u(batch, method="theta")``, ``gaussian_supnorm`` and
    ``occupation_law`` give one entry per label; a StateLabel runs as a
    batch of one, and no entry depends on the other labels of its batch.
    """

    centers: list[float]
    phis: list[float]
    s: float


def label_batches(l, phi, r, s, z_sign: int = +1) -> tuple[list, dict[int, str]]:
    """Split label columns (sequences of floats) into one LabelBatch per basis offset.

    Returns ``([(rows, batch), ...], rejected)``.  A row goes into a batch
    if StateLabel accepts its label, and its center is taken as
    StateLabel.center takes it; ``rejected`` maps the others to StateLabel's error text.
    """
    sectors = {0.0: ([], [], []), 0.5: ([], [], [])}
    rejected = {}
    for i, (li, phi_i, ri, si) in enumerate(zip(l, phi, r, s)):
        try:
            _check_label(li, phi_i, ri, si, z_sign)
        except DomainError as exc:
            rejected[i] = str(exc)
            continue
        rows, centers, phis = sectors[0.0 if si == 0.0 else 0.5]
        rows.append(i)
        centers.append(label_center(li, phi_i, ri, z_sign))
        phis.append(phi_i)
    batches = [(rows, LabelBatch(centers, phis, offset))
               for offset, (rows, centers, phis) in sectors.items() if rows]
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
    tail_bound: float = 0.0

    def norm2(self) -> float:
        return float(np.vdot(self.c, self.c).real)

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def inner(self, other: "FockVector") -> complex:
        if self.offset != other.offset or self.j.size != other.j.size:
            raise DomainError("FockVectors live on different level grids")
        return complex(np.vdot(self.c, other.c))

    def shift_up(self) -> "FockVector":
        """Apply the raising shift U|j> = |j+1> (top level truncated away)."""
        c = np.zeros_like(self.c)
        c[1:] = self.c[:-1]
        return replace(self, c=c)


def default_j_max(center: float) -> int:
    """Level cutoff giving a relative Gaussian tail below ~exp(-81)."""
    return int(math.ceil(abs(center))) + 9


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


def _tail_bound(j_max: float, center: float) -> float:
    gap = j_max - abs(center)
    if gap <= 0.0:
        return math.inf
    return math.exp(-gap * gap)


def _exp(x: float, what: str) -> float:
    """math.exp(x), raising PrecisionError where the result would overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        raise PrecisionError(f"{what} overflows: exp({x:g})", achieved=math.inf) from None


def _require_tail(j_max: float, center: float, rel_tol: float = 1e-12) -> float:
    tail = _tail_bound(j_max, center)
    if not tail < rel_tol:
        needed = int(math.ceil(abs(center) + math.sqrt(-math.log(rel_tol)))) + 1
        raise PrecisionError(
            f"j_max={j_max} too small for center {center:g}; need at least {needed}",
            achieved=tail,
        )
    return tail


def build_cs(label: StateLabel, j_max: float | None = None) -> FockVector:
    """Coefficient vector of the coherent state |xi>."""
    center = label.center
    if j_max is None:
        j_max = default_j_max(center)
    j = level_grid(j_max, label.s)
    tail = _require_tail(j_max, center)
    return FockVector(offset=label.s, j=j, c=cs_coeffs(center, label.phi, j), tail_bound=tail)


def cs_coeffs(center: float, phase: float, j: np.ndarray) -> np.ndarray:
    """Coherent-state coefficients exp(l'*j - i*phase*j - j^2/2) at the levels ``j``."""
    return np.exp(center * j - 1j * phase * j - 0.5 * j * j)


def fiducial(j_max: float | None = None, s: float = 0.0) -> FockVector:
    """Reference state at unit label: coefficients exp(-j^2/2)."""
    return build_cs(StateLabel(l=0.0, phi=0.0, r=0.0, s=s), j_max=j_max)


def overlap(a: StateLabel, b: StateLabel, method: str = "theta") -> complex:
    """<a|b>: truncated direct sum, or the closed theta form."""
    if a.s != b.s:
        raise DomainError("overlapping states must share the basis offset s")
    if a.r != b.r:
        raise DomainError("overlapping states must share the half-width r")
    if method == "direct":
        j_max = max(default_j_max(c) for c in (a.center, b.center, 0.5 * (a.center + b.center)))
        va = build_cs(a, j_max=j_max)
        vb = build_cs(b, j_max=j_max)
        return va.inner(vb)
    if method == "theta":
        nu = (a.phi - b.phi) / (2.0 * math.pi) - 1j * (a.center + b.center) / (2.0 * math.pi)
        if a.s == 0.0:
            return theta3(nu, TAU_NATURAL)
        return theta2(nu, TAU_NATURAL)
    raise ValueError(f"unknown method {method!r}")


def norm2(label: StateLabel | LabelBatch, method: str = "direct") -> float | np.ndarray:
    """<xi|xi>; depends on (l, phi) only through the center l'.

    method="direct"   truncated lattice sum sum_j exp(2*l'*j - j^2);
    method="theta"    Theta_{3|2}(i*l'/pi | i/pi);
    method="modular"  exp(l'^2)*sqrt(pi)*Theta_3(l' (+1/2) | i*pi).

    A LabelBatch (method="theta") gives an array, its theta sums batched.
    """
    if method == "theta":
        many = theta3_many if label.s == 0.0 else theta2_many
        return _batched(label, lambda batch: many([1j * c / math.pi for c in batch.centers],
                                                  TAU_NATURAL).real)
    _refuse_batch("norm2", label, "theta", method)
    center = label.center
    if method == "direct":
        j = level_grid(default_j_max(center), label.s)
        return float(np.exp(2.0 * center * j - j * j).sum())
    if method == "modular":
        shift = 0.0 if label.s == 0.0 else 0.5
        th = theta3(center + shift, TAU_DUAL)
        return float(_exp(center * center, "modular norm2") * math.sqrt(math.pi) * th.real)
    raise ValueError(f"unknown method {method!r}")


def expect_j(label: StateLabel | LabelBatch, method: str = "ratio") -> float | np.ndarray:
    """<J> in the coherent state, by one of three independent routes.

    method="ratio"   direct ratio sum_j j*w_j / sum_j w_j, w_j = exp(2*l'*j - j^2);
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
        cos2 = math.cos(2.0 * math.pi * center)
        total = 0.0
        q_odd = q
        for _ in range(64):
            total += q_odd / (1.0 + sign * 2.0 * q_odd * cos2 + q_odd * q_odd)
            q_odd *= q * q
            if q_odd < 1e-320:
                break
        correction = -sign * 2.0 * math.pi * math.sin(2.0 * math.pi * center) * total
        return center + correction
    raise ValueError(f"unknown method {method!r}")


def _grid_blocks(batch: LabelBatch, weight, reach: int = 0):
    """(rows, levels, weight(centers, levels)) per row block of labels on one level grid."""
    centers = np.array(batch.centers, dtype=float)
    # widened towards reach by at most 19 levels: past |l'| + 28, exp(-(j - l')^2) is 0.0
    j_maxes = [d + min(max(reach - d, 0), 19) for d in map(default_j_max, batch.centers)]
    for j_max, rows in row_blocks(j_maxes, lambda j_max: 2 * j_max + 1):
        j = level_grid(j_max, batch.s)
        yield rows, j, weight(centers[rows, None], j)


def _expect_j_ratio(batch: LabelBatch) -> np.ndarray:
    out = np.empty(len(batch.centers))
    for rows, j, w in _grid_blocks(batch, lambda c, j: np.exp(2.0 * c * j - j * j)):
        out[rows] = (j * w).sum(axis=1) / w.sum(axis=1)
    return out


def expect_u(label: StateLabel | LabelBatch, method: str = "theta") -> complex | np.ndarray:
    """<U>/<xi|xi> for the shift U|j> = |j+1>; modulus never exceeds 1.

    Closed form exp(-1/4)*exp(i*phi) * Theta_2/Theta_3 at nu = i*l'/pi (the
    theta roles swap in the s = 1/2 sector, where the shifted lattice is the
    integer one).

    A LabelBatch (method="theta") gives an array: the theta sums are
    batched, the ratio and the phase are taken per label in Python complex
    arithmetic.
    """
    if method == "theta":
        return _batched(label, _expect_u_theta)
    _refuse_batch("expect_u", label, "theta", method)
    if method == "direct":
        v = build_cs(label)
        return complex(np.vdot(v.c[1:], v.c[:-1])) / v.norm2()
    raise ValueError(f"unknown method {method!r}")


def _expect_u_theta(batch: LabelBatch) -> np.ndarray:
    nu = [1j * c / math.pi for c in batch.centers]
    t2 = theta2_many(nu, TAU_NATURAL).tolist()
    t3 = theta3_many(nu, TAU_NATURAL).tolist()
    return np.array([math.exp(-0.25) * cmath.exp(1j * phi) * (a / b if batch.s == 0.0 else b / a)
                     for a, b, phi in zip(t2, t3, batch.phis)], dtype=complex)


def _check_level(j: float, s: float) -> None:
    if not math.isfinite(j):
        raise DomainError(f"level j must be finite, got {j}")
    if abs(j - round(j - s) - s) > 1e-12:
        raise DomainError(f"level j={j} is not in Z + {s}")


def _occupation_law(batch: LabelBatch, level: float | None = None) -> list[tuple]:
    """(levels, probability, gaussian) per label, or with ``level`` that level's entry alone.

    The weights w_j = exp(-(j - l')^2) = |<j|xi>|^2 / exp(l'^2) sum to between
    exp(-1/4) and 2 on a label's grid, so nothing overflows at any l';
    probability = w/sum(w) and gaussian = w/sqrt(pi) come from the one array.
    """
    if level is not None:
        _check_level(level, batch.s)
    law = [None] * len(batch.centers)
    reach = math.ceil(abs(level or 0.0))
    for rows, j, w in _grid_blocks(batch, lambda c, j: np.exp(-((j - c) ** 2)), reach):
        p, g = w / w.sum(axis=1, keepdims=True), w / math.sqrt(math.pi)
        if level is not None:
            k = round(level - j[0])
            if 0 <= k < j.size:
                j, p, g = j[k:k + 1], p[:, k:k + 1], g[:, k:k + 1]
            else:  # beyond the widened grid its weight, and so both entries, is 0.0
                j, p, g = np.array([float(level)]), *np.zeros((2, len(rows), 1))
        for row, i in enumerate(rows):
            law[i] = (j, p[row], g[row])
    return law


def occupation_law(label: StateLabel | LabelBatch, level: float | None = None):
    """|<j|xi>|^2 / <xi|xi> and its Gaussian limit exp(-(j - l')^2)/sqrt(pi), level by level.

    The arrays (levels, probability, gaussian) over level_grid(default_j_max(l'), s);
    a LabelBatch gives one such triple per label.  With ``level`` (in Z + s) they hold
    that level alone, from a grid widened to reach it if it lies beyond (see _grid_blocks).
    """
    return _batched(label, lambda batch: _occupation_law(batch, level))


def distribution(label: StateLabel, j: float) -> float:
    """Occupation probability |<j|xi>|^2 / <xi|xi> at level j in Z + s (see occupation_law)."""
    return float(_batched(label, lambda batch: _occupation_law(batch, j))[1][0])


def gaussian_supnorm(label: StateLabel | LabelBatch) -> float | np.ndarray:
    """max over the level grid of |probability - gaussian| (see occupation_law)."""
    return _batched(label, lambda batch: np.array(
        [np.abs(p - g).max() for _, p, g in _occupation_law(batch)]))


def quantization_scan(
    r: float,
    l: float,
    s: float = 0.5,
    tol: float = 1e-9,
    n_grid: int = 256,
) -> list[float]:
    """Angles phi in [0, 4*pi) where the action identity pins <J> to the lattice.

    A configuration is accepted when (i) the theta correction to <J>
    vanishes, i.e. the center l' sits on (1/2)Z, so <J> = l' exactly, and
    (ii) <J> lies on the sector lattice Z + s.  For r > 0 the candidates are
    the border angles phi = pi, 3*pi (cos(phi/2) = 0: the particle sits on
    the strip edge and l' = l +/- r); interior angles where l' crosses the
    lattice accidentally are excluded.  For r = 0 the center is
    phi-independent and every angle qualifies whenever l is on the lattice,
    in which case the full scan grid is returned.
    """
    if not (0.0 <= r < 1.0):
        raise DomainError(f"need 0 <= r < 1, got r={r}")
    if s not in (0.0, 0.5):
        raise DomainError("s must be 0 or 0.5")

    if r == 0.0:
        grid = np.linspace(0.0, 4.0 * math.pi, n_grid, endpoint=False)
        if abs(l - s - round(l - s)) <= tol:
            return [float(p) for p in grid]
        return []

    roots = []
    for phi in (math.pi, 3.0 * math.pi):
        label = StateLabel(l=l, phi=phi, r=r, s=s)
        center = label.center
        if abs(center - 0.5 * round(2.0 * center)) > tol:
            continue
        # past |l'| ~ 26.6 the weights overflow and <J> comes out NaN, which
        # is raised below; numpy's warnings would only precede it
        with np.errstate(over="ignore", invalid="ignore"):
            jbar = expect_j(label, method="ratio")
        if not math.isfinite(jbar):
            raise PrecisionError(f"<J> is not finite at l={l:g}, phi={phi:g}", achieved=jbar)
        if abs(jbar - s - round(jbar - s)) > tol:
            continue
        roots.append(phi)
    return roots


def evolve(v: FockVector, t: float, r: float, L0: float = 0.0) -> FockVector:
    """Diagonal time evolution c_j -> exp(-i*E_j*t)*c_j with the border spectrum."""
    energies = energy_quantized(v.j, L0, r)
    return replace(v, c=v.c * np.exp(-1j * energies * t))


def temporal_fidelity(label: StateLabel, t: float, L0: float = 0.0,
                      j_max: float | None = None) -> float:
    """|<xi(phase-advanced)|exp(-iHt)|xi>| / norms.

    The comparison state keeps the center fixed and advances the angle by
    omega*t with omega = dE/dj at j = l' (level-spacing proxy).  Equals 1 at
    t = 0 and stays below 1 for t != 0: the spectrum is quadratic, so
    coherent evolution is a diagnostic, not an identity.
    """
    v = build_cs(label, j_max=j_max)
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


def bargmann_coeff(label: StateLabel, j: float) -> complex:
    """Analytic coefficient (xi*)^{-j} exp(-j^2/2) = conj(<j|xi>)."""
    _check_level(j, label.s)
    center = label.center
    return cmath.exp(center * j + 1j * label.phi * j - 0.5 * j * j)
