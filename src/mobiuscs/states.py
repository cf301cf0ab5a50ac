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
    |<j|xi>|^2 / <xi|xi> = exp(-2*l'*j - j^2) / Theta_{3|2}(i*l'/pi | i/pi)

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
    DEFAULT_POLICY,
    SeriesPolicy,
    row_blocks,
    theta2,
    theta2_many,
    theta3,
    theta3_logderiv,
    theta3_many,
)

__all__ = [
    "StateLabel",
    "LabelBatch",
    "label_batches",
    "FockVector",
    "default_j_max",
    "level_grid",
    "build_cs",
    "fiducial",
    "overlap",
    "norm2",
    "expect_j",
    "expect_u",
    "occupation_law",
    "distribution",
    "gaussian_distribution",
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


@dataclass(frozen=True)
class LabelBatch:
    """Many labels of one basis offset s, held as the columns the batched routes read.

    ``norm2(batch, method="theta")``, ``expect_j(batch, method="ratio")`` and
    ``expect_u(batch, method="theta")`` return one value per label, each
    bit for bit the value of the same route at that StateLabel.
    """

    centers: list[float]
    phis: list[float]
    s: float


def label_batches(l, phi, r, s, z_sign: int = +1) -> tuple[list, list[int]]:
    """Split label columns (sequences of floats) into one LabelBatch per basis offset.

    Returns ``([(rows, batch), ...], rejected)``.  A row goes into a batch
    if StateLabel accepts its label, and its center is taken as
    StateLabel.center takes it; ``rejected`` lists the other rows.
    """
    sectors = {0.0: ([], [], []), 0.5: ([], [], [])}
    rejected = []
    for i, (li, phi_i, ri, si) in enumerate(zip(l, phi, r, s)):
        try:
            _check_label(li, phi_i, ri, si, z_sign)
        except DomainError:
            rejected.append(i)
            continue
        rows, centers, phis = sectors[0.0 if si == 0.0 else 0.5]
        rows.append(i)
        centers.append(label_center(li, phi_i, ri, z_sign))
        phis.append(phi_i)
    batches = [(rows, LabelBatch(centers, phis, offset))
               for offset, (rows, centers, phis) in sectors.items() if rows]
    return batches, rejected


def _batched_method(fn: str, method: str, batched: str) -> None:
    if method != batched:
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
    """Symmetric grid of basis levels in Z + s with |j| <= j_max."""
    n = int(math.floor(j_max))
    if s == 0.0:
        return np.arange(-n, n + 1, dtype=float)
    return np.arange(-n, n, dtype=float) + 0.5


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
    tail = _require_tail(j_max, center)
    j = level_grid(j_max, label.s)
    c = np.exp(center * j - 1j * label.phi * j - 0.5 * j * j)
    return FockVector(offset=label.s, j=j, c=c, tail_bound=tail)


def fiducial(j_max: float | None = None, s: float = 0.0) -> FockVector:
    """Reference state at unit label: coefficients exp(-j^2/2)."""
    return build_cs(StateLabel(l=0.0, phi=0.0, r=0.0, s=s), j_max=j_max)


def _pair_center_j_max(a: StateLabel, b: StateLabel) -> int:
    return max(default_j_max(a.center), default_j_max(b.center),
               default_j_max(0.5 * (a.center + b.center)))


def _check_pair(a: StateLabel, b: StateLabel) -> None:
    if a.s != b.s:
        raise DomainError("overlapping states must share the basis offset s")
    if a.r != b.r:
        raise DomainError("overlapping states must share the half-width r")


def overlap(a: StateLabel, b: StateLabel, method: str = "theta",
            policy: SeriesPolicy = DEFAULT_POLICY) -> complex:
    """<a|b>: truncated direct sum, or the closed theta form."""
    _check_pair(a, b)
    if method == "direct":
        j_max = _pair_center_j_max(a, b)
        va = build_cs(a, j_max=j_max)
        vb = build_cs(b, j_max=j_max)
        return va.inner(vb)
    if method == "theta":
        nu = (a.phi - b.phi) / (2.0 * math.pi) - 1j * (a.center + b.center) / (2.0 * math.pi)
        if a.s == 0.0:
            return theta3(nu, TAU_NATURAL, policy)
        return theta2(nu, TAU_NATURAL, policy)
    raise ValueError(f"unknown method {method!r}")


def norm2(label: StateLabel | LabelBatch, method: str = "direct",
          policy: SeriesPolicy = DEFAULT_POLICY) -> float | np.ndarray:
    """<xi|xi>; depends on (l, phi) only through the center l'.

    method="direct"   truncated lattice sum sum_j exp(2*l'*j - j^2);
    method="theta"    Theta_{3|2}(i*l'/pi | i/pi);
    method="modular"  exp(l'^2)*sqrt(pi)*Theta_3(l' (+1/2) | i*pi).

    A LabelBatch (method="theta") gives an array, its theta sums batched.
    """
    if isinstance(label, LabelBatch):
        _batched_method("norm2", method, "theta")
        nu = [1j * c / math.pi for c in label.centers]
        many = theta3_many if label.s == 0.0 else theta2_many
        return many(nu, TAU_NATURAL, policy).real
    center = label.center
    if method == "direct":
        return _direct_norm2(center, label.s)
    if method == "theta":
        nu = 1j * center / math.pi
        th = theta3(nu, TAU_NATURAL, policy) if label.s == 0.0 else theta2(nu, TAU_NATURAL, policy)
        return float(th.real)
    if method == "modular":
        shift = 0.0 if label.s == 0.0 else 0.5
        th = theta3(center + shift, TAU_DUAL, policy)
        return float(_exp(center * center, "modular norm2") * math.sqrt(math.pi) * th.real)
    raise ValueError(f"unknown method {method!r}")


def _direct_norm2(center: float, s: float) -> float:
    """Truncated lattice sum sum_j exp(2*l'*j - j^2) over the level grid of ``center``."""
    j = level_grid(default_j_max(center), s)
    return float(np.exp(2.0 * center * j - j * j).sum())


def expect_j(label: StateLabel | LabelBatch, method: str = "ratio",
             policy: SeriesPolicy = DEFAULT_POLICY) -> float | np.ndarray:
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
    if isinstance(label, LabelBatch):
        _batched_method("expect_j", method, "ratio")
        centers = np.array(label.centers, dtype=float)
        out = np.empty(centers.size)
        j_maxes = [default_j_max(c) for c in label.centers]
        for j_max, rows in row_blocks(j_maxes, lambda j_max: 2 * j_max + 1):
            j = level_grid(j_max, label.s)
            w = np.exp(2.0 * centers[rows, None] * j - j * j)
            out[rows] = (j * w).sum(axis=1) / w.sum(axis=1)
        return out
    center = label.center
    if method == "ratio":
        j = level_grid(default_j_max(center), label.s)
        w = np.exp(2.0 * center * j - j * j)
        return float((j * w).sum() / w.sum())
    if method == "theta":
        shift = 0.0 if label.s == 0.0 else 0.5
        return center + 0.5 * theta3_logderiv(center + shift, TAU_DUAL, policy)
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


def expect_u(label: StateLabel | LabelBatch, method: str = "theta",
             policy: SeriesPolicy = DEFAULT_POLICY) -> complex | np.ndarray:
    """<U>/<xi|xi> for the shift U|j> = |j+1>; modulus never exceeds 1.

    Closed form exp(-1/4)*exp(i*phi) * Theta_2/Theta_3 at nu = i*l'/pi (the
    theta roles swap in the s = 1/2 sector, where the shifted lattice is the
    integer one).

    A LabelBatch (method="theta") gives an array: the theta sums are
    batched, the ratio and the phase are taken per label in Python complex
    arithmetic, as for one label.
    """
    if isinstance(label, LabelBatch):
        _batched_method("expect_u", method, "theta")
        nu = [1j * c / math.pi for c in label.centers]
        t2 = theta2_many(nu, TAU_NATURAL, policy).tolist()
        t3 = theta3_many(nu, TAU_NATURAL, policy).tolist()
        scale = math.exp(-0.25)
        return np.array([scale * cmath.exp(1j * phi) * (a / b if label.s == 0.0 else b / a)
                         for a, b, phi in zip(t2, t3, label.phis)], dtype=complex)
    if method == "direct":
        v = build_cs(label)
        num = complex(np.vdot(v.c[1:], v.c[:-1]))
        return num / v.norm2()
    if method == "theta":
        nu = 1j * label.center / math.pi
        t2 = theta2(nu, TAU_NATURAL, policy)
        t3 = theta3(nu, TAU_NATURAL, policy)
        ratio = t2 / t3 if label.s == 0.0 else t3 / t2
        return math.exp(-0.25) * cmath.exp(1j * label.phi) * ratio
    raise ValueError(f"unknown method {method!r}")


def _occupation(center: float, s: float, j: float, norm: float) -> float:
    """|<j|xi>|^2 / <xi|xi> at level j, given the direct norm of the state.

    Where the norm has overflowed but the weight has not (|l'| ~ 26.632 to
    26.642 for a whole level grid), both are divided by exp(l'^2): the law
    is then exp(-(j - l')^2) / sum_k exp(-(k - l')^2).
    """
    weight = _exp(2.0 * center * j - j * j, "occupation weight")
    if norm == math.inf:
        k = level_grid(default_j_max(center), s)
        return math.exp(-((j - center) ** 2)) / float(np.exp(-((k - center) ** 2)).sum())
    return weight / norm


def occupation_law(center: float, s: float, levels) -> list[float]:
    """|<j|xi>|^2 / <xi|xi> at each of ``levels`` (all in Z + s) at center l'.

    The direct norm is summed once, not once per level.
    """
    with np.errstate(over="ignore"):  # _occupation handles an overflowed norm
        norm = _direct_norm2(center, s)
    return [_occupation(center, s, j, norm) for j in levels]


def distribution(label: StateLabel, j: float) -> float:
    """Occupation probability |<j|xi>|^2 / <xi|xi> at level j in Z + s."""
    if abs(j - round(j - label.s) - label.s) > 1e-12:
        raise DomainError(f"level j={j} is not in Z + {label.s}")
    return occupation_law(label.center, label.s, (j,))[0]


def gaussian_distribution(j: float, center: float) -> float:
    """Limiting Gaussian law exp(-(j - l')^2)/sqrt(pi) of the occupation."""
    return math.exp(-((j - center) ** 2)) / math.sqrt(math.pi)


def gaussian_supnorm(center: float, s: float) -> float:
    """max over the level grid of |distribution - gaussian_distribution| at center l'."""
    levels = level_grid(default_j_max(center), s)
    return max(abs(p - gaussian_distribution(j, center))
               for j, p in zip(levels, occupation_law(center, s, levels)))


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
    comparison = replace(
        v, c=np.exp(center * v.j - 1j * phase * v.j - 0.5 * v.j * v.j)
    )
    inner = comparison.inner(evolved)
    norms = comparison.norm() * evolved.norm()
    if not (cmath.isfinite(inner) and math.isfinite(norms)):
        # the coefficients overflowed; abs() of a NaN overlap may even raise
        raise PrecisionError("fidelity overlap overflows", achieved=math.inf)
    return abs(inner) / norms


def bargmann_coeff(label: StateLabel, j: float) -> complex:
    """Analytic coefficient (xi*)^{-j} exp(-j^2/2) = conj(<j|xi>)."""
    if abs(j - round(j - label.s) - label.s) > 1e-12:
        raise DomainError(f"level j={j} is not in Z + {label.s}")
    center = label.center
    return cmath.exp(center * j + 1j * label.phi * j - 0.5 * j * j)
