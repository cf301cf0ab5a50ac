"""Jacobi theta functions Theta_2 and Theta_3.

Conventions used throughout the package::

    Theta3(nu | tau) = sum_{n in Z} exp(i*pi*tau*n^2 + 2*i*pi*nu*n)
    Theta2(nu | tau) = sum_{n in Z} exp(i*pi*tau*(n+1/2)^2 + 2*i*pi*nu*(n+1/2))

with nome q = exp(i*pi*tau), |q| < 1 (requires Im(tau) > 0).  Theta2 is
summed on its own half-integer lattice.  Its term at n + 1/2 is the term
at n of Theta3(nu + tau/2 | tau) times one constant exp(i*pi*(tau/4 + nu))
(the half-period shift relation, kept as an oracle), so it takes that
sum's window.  The modular transform

    Theta3(nu | tau) = exp(-i*pi*nu^2/tau) * sqrt(i/tau) * Theta3(-nu/tau | -1/tau)

exchanges slowly and rapidly convergent regimes; the prefactor reduces to
sqrt(pi) at tau = i*pi.

Each Theta_3 sum runs over a window n0 - N ... n0 + N centred on its
largest term, n0 = rint(-Im(nu)/Im(tau)), with the quasi-periodicity
Theta3(nu + tau | tau) = exp(-i*pi*tau - 2*i*pi*nu) * Theta3(nu | tau)
(DLMF 20.2(iii)) giving N: a certified Gaussian bound keeps the neglected
tail below the policy tolerance times the modulus of the term at the
window centre, which is an absolute bound where n0 = 0 (every real nu).
N is a step function of |Im| of the reduced argument: every sum, one entry
or a column, reads it from one table of its steps per (Im(tau), policy).
A constant factor leaves a relative bound as it is, so Theta2 keeps the
bound of the shifted Theta3 whose window it sums.

Where Re(tau) = 0 and Re(nu) = 0 every term is a real exponential, as in
the norms <xi|xi> = Theta_{3|2}(i*l'/pi | i/pi).  Such a row is summed as
exp(-pi*Im(tau)*n^2 - 2*pi*Im(nu)*n) through numpy's real exp, which is
vectorized; numpy's complex exp calls libm's cexp one element at a time,
and every other row keeps it.  At real x and purely imaginary tau,
theta34_real gives Theta3(x|tau) and Theta4(x|tau) = Theta3(x + 1/2|tau),
whose terms differ by (-1)^n, from one table of cos(2*pi*x*n).
"""

from __future__ import annotations

import bisect
import cmath
import functools
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
    "theta34_real",
    "theta3_modular",
    "theta3_logderiv",
]


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control for the lattice sums.

    ``target_tol`` bounds the neglected tail of a Theta_3 sum relative to
    the modulus of the term at its window centre n0, which is an absolute
    bound where n0 = 0; summation stops only once the Gaussian-decay bound
    for the remaining terms is below it.  ``max_terms`` caps the index
    range: no window reaches past |n| = max_terms.
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


def _truncation_order(nu: complex, tau: complex, policy: SeriesPolicy) -> int:
    """Smallest one-sided order N whose certified tail bound is < target_tol.

    Terms at index n have modulus exp(-pi*Im(tau)*n^2 + 2*pi*|Im(nu)|*|n|);
    for m >= N the two-sided tail is below

        2 * exp(-pi*b*m^2 + 2*pi*a*m) / (1 - rho),
        rho = exp(-pi*b*(2*m+1) + 2*pi*a)

    once the term ratio rho is < 1.  Since 1 - rho <= 1, the bound can only
    pass beyond the larger root m* of pi*b*m^2 - 2*pi*a*m = log(2/tol), and
    past m* > a/b it decreases with m; so N is found by stepping from
    ceil(m*) under the exact test.
    """
    b = tau.imag
    a = abs(nu.imag)
    tol = policy.target_tol
    n = 1
    if tol < 2.0:  # else the bound need not decrease in m: step from 1
        peak = a / b
        root = peak + math.sqrt(peak * peak + math.log(2.0 / tol) / (math.pi * b))
        n = max(1, math.ceil(root)) if root < policy.max_terms else policy.max_terms
    while n > 1 and _tail_bound(n - 1, a, b) < tol:
        n -= 1
    while not _tail_bound(n, a, b) < tol:
        if n >= policy.max_terms:
            raise _cap_error(a, b, policy)
        n += 1
    return n


def _cap_error(a: float, b: float, policy: SeriesPolicy) -> PrecisionError:
    """The error of a sum at |Im nu| = a, Im tau = b that needs more than policy.max_terms terms."""
    return PrecisionError(
        f"lattice sum did not reach tol={policy.target_tol:g} within {policy.max_terms} terms",
        achieved=_tail_bound(policy.max_terms, a, b),
    )


@functools.lru_cache(maxsize=64)
def _order_table(b: float, policy: SeriesPolicy) -> tuple[np.ndarray, np.ndarray]:
    """(thresholds, orders): _truncation_order at |Im nu| = a on Im tau = b, as a step table.

    The order at a is orders[k] for the first k with a <= thresholds[k]
    (bisect_left, or searchsorted with side="left").  Each threshold but
    the last is the largest double keeping the order before it, found by
    bisection on the bits of a: the tail bound, hence the order, does not
    decrease in a.  An order that policy.max_terms cannot meet reads
    max_terms + 1 ("fails"), as does every a past the last threshold b: a
    sum's reduced argument has a <= Im(tau)/2 but for rounding.
    """
    fails = policy.max_terms + 1

    def order(bits: int) -> int:  # at the double >= 0 with these bits (they sort as the doubles do)
        a = float(np.int64(bits).view(np.float64))
        try:
            return _truncation_order(complex(0.0, a), complex(0.0, b), policy)
        except PrecisionError:
            return fails

    steps, orders = [], [order(0)]
    lo, top = 0, int(np.float64(b).view(np.int64))
    while orders[-1] != order(top):  # order(lo) is orders[-1]: bisect for its last double
        hi = top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if order(mid) == orders[-1] else (lo, mid)
        steps.append(lo)
        orders.append(order(hi))
        lo = hi
    thresholds = np.array([*steps, top], dtype=np.int64).view(np.float64)
    orders = np.array([*orders, fails])
    thresholds.flags.writeable = orders.flags.writeable = False  # shared by every caller
    return thresholds, orders


def _window(nu: complex, tau: complex, policy: SeriesPolicy) -> tuple[int, int]:
    """(n0, N): Theta3(nu|tau) is summed over n = n0 - N ... n0 + N.

    The terms exp(i*pi*tau*n^2 + 2*i*pi*nu*n) peak at n0 = rint(-Im(nu)/Im(tau))
    (n0 = 0 where Im(nu) is not finite), and relative to |t_n0| the term at
    n0 + k is that of index k in the sum at the reduced argument
    i*(Im(nu) + n0*Im(tau)), whose |Im| is at most Im(tau)/2 (the
    quasi-periodicity Theta3(nu + tau | tau) = exp(-i*pi*tau - 2*i*pi*nu)
    Theta3(nu | tau)).  So N is _truncation_order at that argument, read
    from _order_table, and the neglected tail stays below target_tol*|t_n0|.
    A window reaching past policy.max_terms (|n0| + N > max_terms) raises
    the error that _truncation_order raises for the unreduced nu.
    """
    b = tau.imag
    c = -nu.imag / b if math.isfinite(nu.imag) else 0.0
    if abs(c) < policy.max_terms:
        n0 = round(c)
        a = abs(nu.imag + n0 * b) if n0 else abs(nu.imag)
        thresholds, orders = _order_table(b, policy)
        n = int(orders[bisect.bisect_left(thresholds, a)])
        if math.isfinite(a) and abs(n0) + n <= policy.max_terms:
            return n0, n
    raise _cap_error(abs(nu.imag), b, policy)


def _lattice_rows(nu: np.ndarray, tau: complex, n: np.ndarray) -> np.ndarray:
    """sum_n exp(i*pi*tau*n^2 + 2*i*pi*nu*n) over the lattice points ``n``, per entry of ``nu``.

    ``n`` is one row of points for every entry, or one row per entry.  Each
    row sums in the order of a 1-D sum over its points, so a row's value
    does not depend on which other rows share the array.  A row whose
    exponent is real (Re tau = 0 and Re nu = 0) sums the real exponentials
    exp(-pi*Im(tau)*n^2 - 2*pi*Im(nu)*n), imaginary part +0.0; every other
    row sums the complex ones.  The choice is made per row, so a row's bits
    do not depend on its column either.  The result is a float array where
    every row is real, else a complex one.
    """
    real = nu.real == 0.0 if tau.real == 0.0 else None
    count = 0 if real is None else np.count_nonzero(real)
    if count == 0:
        return _complex_rows(nu, tau, n)
    if count == nu.size:
        return _real_rows(nu.imag, tau.imag, n)
    out = np.empty(nu.size, dtype=complex)
    out[real] = _real_rows(nu.imag[real], tau.imag, n if n.ndim == 1 else n[real])
    out[~real] = _complex_rows(nu[~real], tau, n if n.ndim == 1 else n[~real])
    return out


def _complex_rows(nu: np.ndarray, tau: complex, n: np.ndarray) -> np.ndarray:
    """_lattice_rows through the complex exponential (numpy's exp calls libm's cexp per term)."""
    return np.exp(1j * math.pi * tau * n * n + 2j * math.pi * nu[:, None] * n).sum(axis=1)


def _real_rows(a: np.ndarray, b: float, n: np.ndarray) -> np.ndarray:
    """sum_n exp(-pi*b*n^2 - 2*pi*a*n) per entry of ``a``: _lattice_rows at nu = i*a, tau = i*b.

    The exponent is the real part of the complex one, rounded as it rounds.
    """
    expo = -(2.0 * math.pi) * a[:, None] * n
    square = n * -(math.pi * b)
    square *= n
    expo += square
    return np.exp(expo, out=expo).sum(axis=1)


BLOCK_TERMS = 1 << 15  # lattice terms (rows x points) summed in one array


def _windows(nu: np.ndarray, tau: complex,
             policy: SeriesPolicy) -> tuple[np.ndarray | None, np.ndarray]:
    """[_window(v, tau, policy) for v in nu] as columns (peaks n0 as floats, orders N).

    The orders are read from _order_table as _window reads them, and the
    first row (in index order) whose reduced |Im| is not finite or whose
    window reaches past policy.max_terms raises _window's error for it.
    Where no |Im(nu)| exceeds Im(tau)/2, every n0 is 0 and peaks is None.
    """
    b = tau.imag
    with np.errstate(all="ignore"):
        a = np.abs(nu.imag)
        peaks = None  # |Im(nu)/Im(tau)| <= 1/2, or NaN: n0 = 0
        if (2.0 * a > b).any():
            peaks = np.rint(-nu.imag / b)  # _window's n0 (a non-finite Im(nu) fails there)
            a = np.abs(nu.imag + peaks * b)
        thresholds, table = _order_table(b, policy)
        orders = table[thresholds.searchsorted(a)]
        ok = np.isfinite(a) & ((orders if peaks is None else np.abs(peaks) + orders)
                               <= policy.max_terms)
    if not ok.all():
        raise _cap_error(abs(float(nu.imag[ok.argmin()])), b, policy)
    return peaks, orders


def row_blocks(keys, width):
    """(key, row indices) for the rows sharing each key, in first-seen order.

    Rows of one key are cut into blocks of at most BLOCK_TERMS // width(key)
    rows (at least one), so no array holds more than one block's terms.
    The rows of each distinct key are found by one numpy comparison over
    the key column, cheaper than a sort for the few distinct orders or
    level grids of a column.
    """
    keys = np.asarray(keys)
    for key in dict.fromkeys(keys.tolist()):
        rows = (keys == key).nonzero()[0]
        step = max(1, BLOCK_TERMS // width(key))
        for lo in range(0, rows.size, step):
            yield key, rows[lo:lo + step]


def _lattice_sum(nu: complex, tau: complex, policy: SeriesPolicy, offset: float) -> complex:
    """sum_n exp(i*pi*tau*n^2 + 2*i*pi*nu*n) over n = k + offset, k in _window(nu + offset*tau).

    Offset 0 gives Theta3(nu|tau) and offset 1/2 Theta2(nu|tau).  The
    one row picks its kernel as _lattice_rows does, without a mask.
    """
    tau = _check_tau(tau)
    nu = complex(nu)
    n0, n_max = _window(nu + offset * tau if offset else nu, tau, policy)
    n = np.arange(n0 - n_max, n0 + n_max + 1, dtype=float)
    if offset:
        n += offset
    if tau.real == 0.0 and nu.real == 0.0:
        return complex(_real_rows(np.array([nu.imag]), tau.imag, n)[0])
    return complex(_complex_rows(np.array([nu]), tau, n)[0])


def _lattice_sums(nu, tau: complex, policy: SeriesPolicy, offset: float) -> np.ndarray:
    """_lattice_sum at every entry of ``nu``, bit for bit, grouped by truncation order.

    The windows of the whole column are read from the order table
    (_windows), and each group is summed as one (rows x lattice points)
    array, each row's points shifted by its peak.  A column raises the
    PrecisionError of its first entry whose window reaches past
    policy.max_terms.
    """
    tau = _check_tau(tau)
    nu = np.array(nu, dtype=complex).ravel()
    out = np.empty(nu.size, dtype=complex)
    peaks, orders = _windows(nu + offset * tau if offset else nu, tau, policy)
    for n_max, rows in row_blocks(orders, lambda n_max: 2 * n_max + 1):
        n = np.arange(-n_max, n_max + 1, dtype=float)
        if offset:
            n += offset
        out[rows] = _lattice_rows(nu[rows], tau, n if peaks is None else peaks[rows, None] + n)
    return out


def theta3(nu: complex, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> complex:
    """Theta3(nu|tau) by direct summation over the integer lattice, around its peak term."""
    return _lattice_sum(nu, tau, policy, 0.0)


def theta3_many(nu, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    """:func:`theta3` at every entry of ``nu``, bit for bit (see _lattice_sums)."""
    return _lattice_sums(nu, tau, policy, 0.0)


def theta2(nu: complex, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> complex:
    """Theta2(nu|tau) by direct summation over the half-integer lattice, around its peak term.

    The window is that of Theta3(nu + tau/2 | tau), and a window reaching
    past policy.max_terms raises the error of that Theta3.
    """
    return _lattice_sum(nu, tau, policy, 0.5)


def theta2_many(nu, tau: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    """:func:`theta2` at every entry of ``nu``, bit for bit (see _lattice_sums)."""
    return _lattice_sums(nu, tau, policy, 0.5)


def theta34_real(x, tau: complex,
                 policy: SeriesPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """(Theta3(x|tau), Theta4(x|tau)) at every real entry of ``x``, for purely imaginary tau.

    Theta4(x|tau) = Theta3(x + 1/2|tau) has the terms of Theta3 times (-1)^n.
    At real x the terms at n and -n are complex conjugates, so with the odd
    and even halves O and E of sum_{n=1}^{N} w_n cos(2*pi*x*n),
    w_n = exp(-pi*Im(tau)*n^2),

        Theta3 = 1 + 2*(E + O),    Theta4 = 1 + 2*(E - O),

    both from one table of the cosines, as float arrays.  Every real
    argument has _window's window at nu = 0 (peak n0 = 0, and the order at
    |Im nu| = 0), so N is read once for the column, and each entry depends
    on its own x alone.  The cosines are of 2*pi*x*n as given: reduce x
    modulo 1 first where it is large.
    """
    tau = _check_tau(tau)
    if tau.real != 0.0:
        raise DomainError(f"theta34_real needs a purely imaginary tau, got tau={tau}")
    _, n_max = _window(0j, tau, policy)
    n = np.arange(1.0, n_max + 1.0)
    w = np.exp(-(math.pi * tau.imag) * n * n)
    halves = np.zeros((2, np.size(x)))  # the odd and even halves O, E
    for k, cos in enumerate(_cos_table(np.array(x, dtype=float).ravel(), n_max)):
        cos *= w[k]
        halves[k % 2] += cos  # n = k + 1
    odd, even = halves
    return 1.0 + 2.0 * (even + odd), 1.0 + 2.0 * (even - odd)


def _cos_table(x: np.ndarray, n_max: int) -> np.ndarray:
    """cos(2*pi*x*n) for n = 1 ... n_max (rows) at every entry of ``x`` (columns).

    One libm cosine per entry: the rows past n = 1 follow from the Chebyshev
    recurrence cos((n+1)t) = 2*cos(t)*cos(nt) - cos((n-1)t), whose error
    grows at most as n^2 ulp, where the weights exp(-pi*Im(tau)*n^2) fall.
    """
    table = np.empty((n_max, x.size))
    table[0] = np.cos(2.0 * math.pi * x)
    twice, previous = 2.0 * table[0], np.ones(x.size)
    for k in range(1, n_max):
        np.multiply(twice, table[k - 1], out=table[k])
        table[k] -= previous
        previous = table[k - 1]
    return table


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
    if abs(nu) >= 2.0 ** 52:  # an integer, where the 1-periodic series is its value at 0
        nu = math.fmod(nu, 1.0)
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
