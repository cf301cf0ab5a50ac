"""Torus coherent states, the physical factorization, and constraint projectors.

The torus state factorizes over two independent level lattices,

    |T> = sum_{j,m} a_j b_m |j, m>,
    a_j = exp(l'_ms*j - i*phi*j - j^2/2),   b_m = exp(l'_aux*m - k*theta*m - m^2/2),

where l'_ms is the strip center (z_sign = -1 flavor, circling with phase i)
and l'_aux collects the leftover toroidal data, circling with its *own*
imaginary unit k (i^2 = k^2 = -1, i and k never multiplied together).  The
two label planes are therefore kept as two separate coefficient arrays and
only combined through moduli.

The physical reduction torus -> strip contracts states across the m = 0
slice, the only level whose auxiliary coefficient b_0 = 1 carries no k-phase:

    <T(a)| P |T(b)> = sum_j exp((l'_a + l'_b)*j + i*(phi_a - phi_b)*j - j^2),
    P = sum_j |j,0><j,0|

the strip overlap series at the two torus centers, which degenerates to the
circle (boson) overlap as r -> 0.

The universal constraint projector depends only on the constraint window:

    E(x; delta) = integral dlam exp(-i*lam*x^2) * sin(delta^2*lam)/(pi*lam),
    x = theta - (pi+phi)/2

a Dirichlet integral evaluating to the indicator of x^2 < delta^2 (1/2 on
the boundary).  Both the closed indicator and the oscillatory integral
truncated at a certified cutoff are exposed; the truncated integral is two
sine integrals, evaluated in closed form (power series and the E_1
continued fraction), not by numerical quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import _libm, _pow2, constraint_theta, label_center
from .states import (
    FockVector,
    StateLabel,
    _tail_bound,
    _window_overlap,
    cs_coeffs,
    default_j_max,
    level_grid,
)

__all__ = [
    "ProjectionSpec",
    "TorusFock",
    "torus_centers",
    "build_torus_cs",
    "project_overlap",
    "universal_projector",
    "universal_projectors",
    "valid_specs",
    "project_mobius_to_circle",
]


BOUNDARY_TOL = 1e-9  # the indicator's boundary layer, relative to max(1, delta^2)
TAIL_TOL = 1e-4  # the quadrature's certified tail


@dataclass(frozen=True)
class ProjectionSpec:
    """Constraint data: angles and the window half-width delta."""

    theta: float
    phi: float
    delta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.theta, self.phi, self.delta))):
            raise DomainError("need finite theta, phi and delta")
        if not self.delta > 0.0:
            raise DomainError("delta must be positive")
        x = self.argument
        if not math.isfinite(x * x + self.delta * self.delta):
            raise DomainError("defect or delta too large: its square overflows")

    @property
    def argument(self) -> float:
        """Signed constraint defect theta - (pi + phi)/2."""
        return self.theta - constraint_theta(self.phi)


def torus_centers(l: float, theta: float, phi: float, r: float) -> tuple[float, float]:
    """Gaussian centers (l'_ms, l'_aux) of the factorized torus state's two label planes.

    l'_ms is the center of the strip label's z_sign = -1 flavor; the planes'
    phases are phi (unit i) and theta (unit k).  On the constraint
    theta = (phi+pi)/2 the theta-dependent terms of l'_aux cancel and
    l'_aux = 2*pi*sin(phi)^2.
    """
    center_ms = label_center(l, phi, r, z_sign=-1)  # raises DomainError unless 0 <= r < 1
    half = 0.5 * phi
    center_aux = (2.0 * math.pi * math.sin(phi) ** 2 + r * (math.cos(theta) + math.sin(half))
                  - math.log((1.0 + r * math.sin(theta)) / (1.0 + r * math.cos(half))))
    return center_ms, center_aux


@dataclass(frozen=True)
class TorusFock:
    """Factorized torus coefficients: strip plane a_j, auxiliary plane b_m."""

    j: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def modulus_grid(self) -> np.ndarray:
        """|c_{j,m}| as an outer product; rank 1 by construction, so the
        second singular value of this grid is a separability diagnostic."""
        return np.outer(np.abs(self.a), np.abs(self.b))


def build_torus_cs(
    l: float,
    theta: float,
    phi: float,
    r: float,
    j_max: float | None = None,
    s: float = 0.0,
) -> TorusFock:
    """Factorized torus coherent state at the given labels."""
    center_ms, center_aux = torus_centers(l, theta, phi, r)
    if j_max is None:
        j_max = max(default_j_max(center_ms), default_j_max(center_aux))
    j = level_grid(j_max, s)
    m = level_grid(j_max, 0.0)
    a = cs_coeffs(center_ms, phi, j)
    b = cs_coeffs(center_aux, theta, m)
    return TorusFock(j=j, m=m.astype(int), a=a, b=b)


def project_overlap(a: StateLabel, b: StateLabel) -> complex:
    """<T(a)| P |T(b)>: the overlap of two strip states through the torus reduction.

    Each label is lifted to the torus at its constraint angle
    theta = (phi+pi)/2.  On the m = 0 slice b_0 = 1, so the contraction is
    the strip-plane sum at the two torus centers, summed on the window of
    their midpoint as the direct overlap sums it.  The lift carries the
    z_sign = -1 flavor: a z_sign = +1 label raises DomainError.  Raises
    PrecisionError where the overlap overflows.
    """
    if a.s != b.s or a.r != b.r:
        raise DomainError("projected overlap requires matching (r, s)")
    if a.z_sign != -1 or b.z_sign != -1:
        raise DomainError("the torus lift carries the z_sign = -1 flavor, got a z_sign = +1 label")
    center_a, _ = torus_centers(a.l, constraint_theta(a.phi), a.phi, a.r)
    center_b, _ = torus_centers(b.l, constraint_theta(b.phi), b.phi, b.r)
    return _window_overlap(0.5 * center_a + 0.5 * center_b, a.phi - b.phi, a.s,
                           "projected overlap")


# ---------------------------------------------------------------------------
# Universal constraint projector
# ---------------------------------------------------------------------------

def _si(x: float) -> float:
    """Sine integral Si(x) = integral_0^x sin(u)/u du, to double precision.

    |x| <= 2: the power series sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!)
    (DLMF 6.6.5); above: Si(x) = pi/2 + Im E_1(ix) with
    E_1(ix) = e^{-ix} / (1+ix - 1^2/(3+ix - 2^2/(5+ix - ...))) summed by the
    modified Lentz method (DLMF 6.9, Numerical Recipes 6.8 ``cisi``).
    """
    if not math.isfinite(x):
        raise DomainError(f"Si needs a finite argument, got {x}")
    t = abs(x)
    if t <= 2.0:
        term = total = t
        k = 0
        while abs(term) > 1e-17 * total:
            k += 1
            term *= -t * t / ((2 * k) * (2 * k + 1))
            total += term / (2 * k + 1)
    else:
        b = complex(1.0, t)
        c = complex(1e300)
        d = h = 1.0 / b
        # converges in about 90 terms just above t = 2, in 2 at t = 1e5
        for k in range(1, 1000):
            a = -float(k * k)
            b += 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            step = c * d
            h *= step
            if abs(step.real - 1.0) + abs(step.imag) < 2.2e-16:
                break
        total = 0.5 * math.pi + (complex(math.cos(t), -math.sin(t)) * h).imag
    return math.copysign(total, x)


def universal_projector(spec: ProjectionSpec, method: str = "indicator") -> float:
    """Constraint-window projector value in [0, 1].

    method="indicator"   closed Dirichlet-integral value: 1 inside the
                         window x^2 < delta^2, 0 outside, 1/2 on the
                         boundary (within BOUNDARY_TOL * max(1, delta^2)
                         of it);
    method="quadrature"  truncated oscillatory integral
                         (1/pi) * [Si((a+x2)*L) + Si((a-x2)*L)] with the
                         cutoff L chosen so the certified tail is below
                         TAIL_TOL; Si is evaluated in closed form.
    """
    x2 = spec.argument ** 2
    a = spec.delta ** 2
    if method == "indicator":
        if abs(x2 - a) <= BOUNDARY_TOL * max(1.0, a):
            return 0.5
        return 1.0 if x2 < a else 0.0
    if method == "quadrature":
        # the lam integral splits into two sine integrals,
        #   E = (1/pi) * [Si((a+x2)*L) + Si((a-x2)*L)],
        # truncated at a single L with |integral_T^inf sin(u)/u du| <= 2/T
        # certifying each tail below TAIL_TOL/4.  Inside the boundary layer
        # |a - x2| << a + x2 the range is capped (a vanishing coefficient
        # would demand an unbounded range); there the smoothed value tends
        # to the boundary limit 1/2 by construction.
        c_plus = a + x2
        c_minus = a - x2
        coeffs = [c for c in (c_plus, c_minus) if c != 0.0]
        if not coeffs:
            raise DomainError("degenerate window: delta and the defect both vanish")
        # L = T/floor; each Si argument c*L = (c/floor)*T stays within 16*T
        T = 8.0 / TAIL_TOL
        floor = max(min(abs(c) for c in coeffs), c_plus / 16.0)
        value = sum(_si(c / floor * T) for c in coeffs) / math.pi
        return float(min(max(value, 0.0), 1.0))
    raise ValueError(f"unknown method {method!r}")


def valid_specs(theta, phi, delta) -> np.ndarray:
    """The rows of the float columns theta, phi and delta that ProjectionSpec accepts."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = theta - constraint_theta(phi)
        return (np.isfinite(theta) & np.isfinite(phi) & np.isfinite(delta) & (delta > 0.0)
                & np.isfinite(x * x + delta * delta))


def universal_projectors(theta, phi, delta) -> np.ndarray:
    """The "indicator" universal_projector at every row of the float columns, bit for bit.

    Its operations in its order, with libm's pow mapped over the column.
    Each row must be one valid_specs accepts: the caller masks the others out.
    """
    x2, a = _libm(_pow2, theta - constraint_theta(phi)), _libm(_pow2, delta)
    return np.where(np.abs(x2 - a) <= BOUNDARY_TOL * np.maximum(1.0, a), 0.5,
                    np.where(x2 < a, 1.0, 0.0))


def project_mobius_to_circle(v: FockVector) -> FockVector:
    """Relabel a strip coherent state onto the circle (integer basis).

    The label (center, phase mod 2*pi) is read off adjacent coefficient
    ratios log(c_{j+1}/c_j) = center - i*phase - (j + 1/2) and rebuilt on
    the integer levels of v's range: the double-cover information is
    dropped, the boson-sector state is returned.  Idempotent: the levels
    come from v, because a cutoff chosen from the re-read center would
    jump where its rounding moves ceil(|center|) across an integer.
    """
    if v.j.size < 2:
        raise DomainError("need at least two levels to read off the label")
    k = int(np.argmax(np.abs(v.c)))
    if k == v.j.size - 1:
        k -= 1
    ratio = v.c[k + 1] / v.c[k]
    w = cmath.log(ratio) + (v.j[k] + 0.5)
    center = w.real
    phase = -w.imag % (2.0 * math.pi)
    j = level_grid(v.j[-1], 0.0)
    return FockVector(offset=0.0, j=j, c=cs_coeffs(center, phase, j),
                      tail_bound=_tail_bound(j[-1], center))
