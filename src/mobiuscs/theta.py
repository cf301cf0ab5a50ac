"""Jacobi theta functions Theta_2 and Theta_3.

Conventions used throughout the package::

    Theta3(nu | tau) = sum_{n in Z} exp(i*pi*tau*n^2 + 2*i*pi*nu*n)
    Theta2(nu | tau) = sum_{n in Z} exp(i*pi*tau*(n+1/2)^2 + 2*i*pi*nu*(n+1/2))

with nome q = exp(i*pi*tau), |q| < 1 (requires Im(tau) > 0).  Theta2 is
evaluated through the shift relation

    Theta2(nu | tau) = exp(i*pi*(tau/4 + nu)) * Theta3(nu + tau/2 | tau)

and the half-integer lattice sum is kept as an independent cross-check.
The modular transform

    Theta3(nu | tau) = exp(-i*pi*nu^2/tau) * sqrt(i/tau) * Theta3(-nu/tau | -1/tau)

exchanges slowly and rapidly convergent regimes; the prefactor reduces to
sqrt(pi) at tau = i*pi.

All sums are truncated symmetrically with a certified Gaussian tail bound,
so every returned value carries an absolute error below the policy
tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError, PrecisionError

__all__ = [
    "SeriesPolicy",
    "DEFAULT_POLICY",
    "theta3",
    "theta3_many",
    "theta2",
    "theta2_many",
    "theta2_series",
    "theta3_modular",
    "theta3_logderiv",
]


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control for the lattice sums.

    ``target_tol`` is an absolute bound on the neglected tail; summation
    stops only once the Gaussian-decay bound for the remaining terms is
    below it.  ``max_terms`` caps the one-sided index range.
    """

    target_tol: float = 1e-14
    max_terms: int = 10_000

    def __post_init__(self):
        if not self.target_tol > 0.0:
            raise DomainError("target_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_POLICY = SeriesPolicy()


def _check_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise DomainError(f"Im(tau) must be positive for convergence, got tau={tau}")
    return tau


def _tail_bound(m: float, a: float, b: float) -> float:
    """Certified two-sided tail bound at one-sided order m (see _truncation_order).

    inf where the term ratio rho is not yet < 1, or where exp() of the
    leading term would leave double range: the bound cannot pass there.
    """
    x = -math.pi * b * (2.0 * m + 1.0) + 2.0 * math.pi * a
    if x > 0.0:  # rho > 1; math.exp would overflow past x = 709.78
        return math.inf
    rho = math.exp(x)
    if rho >= 1.0:
        return math.inf
    log_mag = -math.pi * b * m * m + 2.0 * math.pi * a * m
    if log_mag > 700.0:
        return math.inf
    return 2.0 * math.exp(log_mag) / (1.0 - rho)


def _truncation_order(nu: complex, tau: complex, policy: SeriesPolicy, shift: float = 0.0) -> int:
    """Smallest one-sided order N whose certified tail bound is < target_tol.

    Terms at index n (plus lattice ``shift``) have modulus
    exp(-pi*Im(tau)*(n+shift)^2 + 2*pi*|Im(nu)|*|n+shift|); for m >= N the
    two-sided tail is below

        2 * exp(-pi*b*m^2 + 2*pi*a*m) / (1 - rho),
        rho = exp(-pi*b*(2*m+1) + 2*pi*a)

    once the term ratio rho is < 1.  Since 1 - rho <= 1, the bound can only
    pass beyond the larger root m* of pi*b*m^2 - 2*pi*a*m = log(2/tol), and
    past m* > a/b it decreases with m; so N is found by stepping from
    ceil(m* - shift) under the exact test.
    """
    b = tau.imag
    a = abs(complex(nu).imag)
    tol = policy.target_tol
    n = 1
    if tol < 2.0:  # else the bound need not decrease in m: step from 1
        peak = a / b
        root = peak + math.sqrt(peak * peak + math.log(2.0 / tol) / (math.pi * b)) - shift
        n = max(1, math.ceil(root)) if root < policy.max_terms else policy.max_terms
    while n > 1 and _tail_bound(n - 1 + shift, a, b) < tol:
        n -= 1
    while not _tail_bound(n + shift, a, b) < tol:
        if n >= policy.max_terms:
            bound = _tail_bound(policy.max_terms + shift, a, b)
            raise PrecisionError(
                f"lattice sum did not reach tol={policy.target_tol:g} within "
                f"{policy.max_terms} terms (achieved bound {bound:g})",
                achieved=bound,
            )
        n += 1
    return n


def _lattice_rows(nu: np.ndarray, tau: complex, n: np.ndarray) -> np.ndarray:
    """sum_n exp(i*pi*tau*n^2 + 2*i*pi*nu*n) over the lattice points ``n``, per entry of ``nu``.

    Each row sums in the order of a 1-D sum over ``n``, so a row's value
    does not depend on which other rows share the array.
    """
    expo = 1j * math.pi * tau * n * n + 2j * math.pi * nu[:, None] * n
    return np.exp(expo).sum(axis=1)


BLOCK_TERMS = 1 << 15  # lattice terms (rows x points) summed in one array


def row_blocks(keys, width):
    """(key, row indices) for the rows sharing each key, in first-seen order.

    Rows of one key are cut into blocks of at most BLOCK_TERMS // width(key)
    rows (at least one), so no array holds more than one block's terms.
    """
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for key, rows in groups.items():
        step = max(1, BLOCK_TERMS // width(key))
        for lo in range(0, len(rows), step):
            yield key, rows[lo:lo + step]


def theta3(nu: complex, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> complex:
    """Theta3(nu|tau) by direct two-sided summation over the integer lattice."""
    tau = _check_tau(tau)
    nu = complex(nu)
    n_max = _truncation_order(nu, tau, policy)
    n = np.arange(-n_max, n_max + 1, dtype=float)
    return complex(_lattice_rows(np.array([nu]), tau, n)[0])


def theta3_many(nu, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    """:func:`theta3` at every entry of ``nu``, bit for bit.

    Entries are grouped by truncation order and each group is summed as
    one (rows x lattice points) array.
    """
    tau = _check_tau(tau)
    nu = np.array(nu, dtype=complex).ravel()
    orders = [_truncation_order(v, tau, policy) for v in nu.tolist()]
    out = np.empty(nu.size, dtype=complex)
    for n_max, rows in row_blocks(orders, lambda n_max: 2 * n_max + 1):
        n = np.arange(-n_max, n_max + 1, dtype=float)
        out[rows] = _lattice_rows(nu[rows], tau, n)
    return out


def theta2_series(nu: complex, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> complex:
    """Theta2(nu|tau) by direct summation over the half-integer lattice.

    Independent of :func:`theta2`; kept as the oracle for the shift relation.
    """
    tau = _check_tau(tau)
    nu = complex(nu)
    n_max = _truncation_order(nu, tau, policy, shift=0.5)
    n = np.arange(-n_max, n_max, dtype=float) + 0.5
    return complex(_lattice_rows(np.array([nu]), tau, n)[0])


def _shift_prefactor(nu: complex, tau: complex) -> complex:
    """exp(i*pi*(tau/4 + nu)), raising PrecisionError where it leaves double range."""
    try:
        return cmath.exp(1j * math.pi * (tau / 4.0 + nu))
    except OverflowError:
        x = -math.pi * (tau / 4.0 + nu).imag
        raise PrecisionError(f"Theta2 prefactor overflows: exp({x:g})", achieved=math.inf) from None


def theta2(nu: complex, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> complex:
    """Theta2(nu|tau) via the half-period shift of Theta3."""
    tau = _check_tau(tau)
    nu = complex(nu)
    t3 = theta3(nu + tau / 2.0, tau, policy)
    return _shift_prefactor(nu, tau) * t3


def theta2_many(nu, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    """:func:`theta2` at every entry of ``nu``, bit for bit.

    The shifted Theta3 sums go through :func:`theta3_many`; each prefactor
    and product is taken in Python complex arithmetic, as in :func:`theta2`.
    """
    tau = _check_tau(tau)
    nu = [complex(v) for v in np.ravel(nu)]
    t3 = theta3_many([v + tau / 2.0 for v in nu], tau, policy).tolist()
    return np.array([_shift_prefactor(v, tau) * t for v, t in zip(nu, t3)], dtype=complex)


def theta3_modular(nu: complex, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> complex:
    """Theta3(nu|tau) evaluated through the tau -> -1/tau transform.

    Fast path when the natural nome exp(i*pi*tau) decays slowly (small
    Im(tau)): the partner lattice parameter -1/tau has Im = Im(tau)/|tau|^2.
    """
    tau = _check_tau(tau)
    nu = complex(nu)
    tau_dual = -1.0 / tau
    nu_dual = -nu / tau
    prefactor = cmath.exp(-1j * math.pi * nu * nu / tau) * cmath.sqrt(1j / tau)
    return prefactor * theta3(nu_dual, tau_dual, policy)


def theta3_logderiv(nu: float, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """(1/Theta3) * dTheta3/dnu at real nu, from the triple-product expansion.

    d/dnu log Theta3(nu|tau)
        = 2*pi*i * sum_{n>=1} [ w_n/(1+w_n) - v_n/(1+v_n) ],
        w_n = q^{2n-1} e^{+2*pi*i*nu},  v_n = q^{2n-1} e^{-2*pi*i*nu}

    which for real nu and purely imaginary tau collapses to the real series
    -4*pi*sin(2*pi*nu) * sum_{n>=1} q^{2n-1} / |1 + q^{2n-1} e^{2*pi*i*nu}|^2.
    """
    tau = _check_tau(tau)
    nu = float(nu)
    q = cmath.exp(1j * math.pi * tau)
    absq = abs(q)
    if absq >= 1.0:
        raise DomainError("nome magnitude must be < 1")
    th3 = theta3(nu, tau, policy)
    if abs(th3) < 1e3 * policy.target_tol:
        raise DegeneracyError(f"Theta3({nu}|{tau}) vanishes within tolerance; log-derivative undefined")

    phase = cmath.exp(2j * math.pi * nu)
    total = 0.0 + 0.0j
    qodd = q
    for n in range(1, policy.max_terms + 1):
        w = qodd * phase
        v = qodd / phase
        dw = 1.0 + w
        dv = 1.0 + v
        if min(abs(dw), abs(dv)) < 1e-12:
            raise DegeneracyError("triple-product denominator vanished (zero of Theta3)")
        total += w / dw - v / dv
        # remaining terms are bounded by a geometric series in |q|^2
        tail = 4.0 * math.pi * abs(qodd) * absq * absq / (1.0 - absq * absq) / max(1.0 - absq, 1e-300)
        if tail < policy.target_tol:
            break
        qodd *= q * q
    else:
        raise PrecisionError("log-derivative series did not converge", achieved=tail)

    value = 2j * math.pi * total
    return float(value.real)
