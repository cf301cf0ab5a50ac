"""Embeddings of the torus and the Mobius strip, and the coherent-state label map.

The strip is carved out of a torus of central radius ``R`` and tube radius
``r`` by tying the tube angle to the azimuth::

    theta = (phi + pi) / 2

so the embedded point closes only after a 4*pi excursion in phi (double
cover).  Composing the torus embedding with the constraint puts the strip
point at

    X = (R + r*cos(phi/2)) * cos(phi)
    Y = (R + r*cos(phi/2)) * sin(phi)
    Z = l - r*sin(phi/2)            # z_sign = -1

The mirrored convention Z = l + r*sin(phi/2) (z_sign = +1) is equally valid
and is the default for the coherent-state label; both are kept because the
two sign choices propagate differently into the dynamics cross terms.

The coherent-state label is the exponentially damped planar position

    xi = exp(-(l + z_sign*r*sin(phi/2)) + i*phi) * (1 + r*cos(phi/2))

so |xi| = exp(-l') with the Gaussian center

    l' = (l + z_sign*r*sin(phi/2)) - log(1 + r*cos(phi/2)) = -log|xi|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "TorusGeometry",
    "torus_point",
    "constraint_theta",
    "mobius_point",
    "coherent_label",
    "label_center",
    "label_centers",
    "valid_r",
]


@dataclass(frozen=True)
class TorusGeometry:
    """Central radius R, tube (half-width) radius r, and axial offset l."""

    R: float = 1.0
    r: float = 0.5
    l: float = 0.0

    def __post_init__(self):
        if not valid_r(self.r, self.R):
            raise DomainError(f"need 0 <= r < R, got r={self.r}, R={self.R}")


def valid_r(r, upper: float = 1.0):
    """Whether 0 <= r < upper: a bool for a float, the row mask for a float column."""
    return (0.0 <= r) & (r < upper)


def _check_z_sign(z_sign: int) -> int:
    if z_sign not in (+1, -1):
        raise DomainError(f"z_sign must be +1 or -1, got {z_sign}")
    return z_sign


def torus_point(theta: float, phi: float, g: TorusGeometry) -> np.ndarray:
    """Embedded torus point (X, Y, Z); angles unrestricted, 2*pi-periodic."""
    radial = g.R + g.r * math.sin(theta)
    return np.array([
        radial * math.cos(phi),
        radial * math.sin(phi),
        g.l + g.r * math.cos(theta),
    ])


def constraint_theta(phi: float) -> float:
    """Tube angle enforced on the strip: theta = (phi + pi)/2."""
    return 0.5 * (phi + math.pi)


def mobius_point(phi: float, g: TorusGeometry, z_sign: int = +1) -> np.ndarray:
    """Embedded strip point; z_sign=-1 equals torus_point(constraint_theta(phi), phi)."""
    _check_z_sign(z_sign)
    half = 0.5 * phi
    radial = g.R + g.r * math.cos(half)
    return np.array([
        radial * math.cos(phi),
        radial * math.sin(phi),
        g.l + z_sign * g.r * math.sin(half),
    ])


def coherent_label(l: float, phi: float, r: float, z_sign: int = +1) -> complex:
    """Complex coherent-state label xi; |xi| >= (1-r)*exp(-l-r) > 0."""
    _check_z_sign(z_sign)
    if not valid_r(r):
        raise DomainError(f"need 0 <= r < 1, got r={r}")
    half = 0.5 * phi
    height = l + z_sign * r * math.sin(half)
    radial = 1.0 + r * math.cos(half)
    return radial * complex(math.cos(phi), math.sin(phi)) * math.exp(-height)


def label_center(l: float, phi: float, r: float, z_sign: int = +1) -> float:
    """Gaussian center l' of the coefficient profile; equals -log|xi|."""
    _check_z_sign(z_sign)
    if not valid_r(r):
        raise DomainError(f"need 0 <= r < 1, got r={r}")
    half = 0.5 * phi
    return (l + z_sign * r * math.sin(half)) - math.log(1.0 + r * math.cos(half))


@functools.lru_cache(maxsize=64)
def _probe(n: int) -> np.ndarray:
    """4*isqrt(n) distinct rows of 0..n-1, pseudo-random and sorted, the same on every call."""
    return np.sort(np.random.default_rng(n).choice(n, 4 * math.isqrt(n), replace=False))


def _distinct(bits: np.ndarray) -> np.ndarray | None:
    """The sorted distinct entries of the int64 column bits; None if over half are distinct.

    A column of 1024 rows or more whose _probe rows hold no repeat is taken
    as over half distinct, unsorted.  At most half distinct, it would show
    about 16 repeated pairs there, and at least one if it has fewer distinct
    entries than probed rows: a grid axis is found, in runs or periodic.
    """
    if bits.size >= 1024:
        probe = np.sort(bits[_probe(bits.size)])
        if np.all(probe[1:] != probe[:-1]):
            return None
    kept = np.sort(bits)  # np.unique takes 4x as long
    new = kept[1:] != kept[:-1]
    if 2 * (np.count_nonzero(new) + 1) > kept.size:
        return None
    return kept[np.concatenate(([True], new))]


def _libm(fn, col: np.ndarray):
    """The math function fn at every entry of col (numpy's own may differ in the last bit).

    A column that _distinct finds at most half distinct (0.0 and -0.0
    apart) has fn run once per distinct bit pattern, as sweep grids repeat
    each angle along the other axes; any other column, once per row.  A
    tuple of functions shares the one dedupe and gives a tuple of columns.
    """
    fns = fn if isinstance(fn, tuple) else (fn,)
    col = np.ascontiguousarray(col, dtype=np.float64)
    bits = col.view(np.int64)
    distinct = _distinct(bits)
    if distinct is None:
        values, index = col.tolist(), slice(None)
    else:
        values, index = distinct.view(np.float64).tolist(), np.searchsorted(distinct, bits)
    mapped = tuple(np.fromiter(map(f, values), dtype=float, count=len(values))[index]
                   for f in fns)
    return mapped if isinstance(fn, tuple) else mapped[0]


_pow2 = functools.partial(pow, exp=2)  # a float's ** 2: libm's pow, not numpy's x*x


def _rejected(valid: np.ndarray, check, *cols, text=str) -> dict[int, str]:
    """text(error) of the error check(*row) raises at each row of cols that valid leaves out."""
    rows, rejected = np.flatnonzero(~valid), {}
    for i, row in zip(rows.tolist(), zip(*(col[rows].tolist() for col in cols))):
        try:
            check(*row)
        except Exception as exc:  # the row's own error, as its scalar route gives it
            rejected[i] = text(exc)
    return rejected


def label_centers(l: np.ndarray, phi: np.ndarray, r: np.ndarray, z_sign: int = +1) -> np.ndarray:
    """label_center at every entry of the float columns l, phi and r, bit for bit.

    The same IEEE operations in the same order, with math's sin, cos and log
    mapped over the column.
    """
    _check_z_sign(z_sign)
    if not np.all(valid_r(r)):
        raise DomainError("need 0 <= r < 1 in every row")
    sn, c = _libm((math.sin, math.cos), 0.5 * phi)
    return (l + z_sign * r * sn) - _libm(math.log, 1.0 + r * c)
