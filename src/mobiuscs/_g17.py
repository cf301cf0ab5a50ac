"""Two texts of every float64 v of an array, byte for byte, computed in numpy:
'%.17g' % v (encode) and json.dumps(v), which is float.__repr__(v) for a
finite v (encode_repr).

The 17 significant digits of a finite normal double a are the integer N
nearest to a * 10^(16 - X), X = floor(log10 a), rounded half-even as
CPython's dtoa rounds.  A double-double table holds each power 10^q with
relative error below 2^-106, so that a times it is the error-free product
of Dekker's TwoProduct (Veltkamp's split, exact since numpy contracts no
multiply-add) plus one rounded term: hi is an integer and N = hi + rint(lo),
and N + d, d = lo - rint(lo), is a * 10^(16 - X) to within 2^-46.  A value
whose lo lies within _TIE of a half-integer, where rint could round the
wrong way, falls back to CPython's formatter, as do +-0, +-inf, nan and
subnormals (Loitsch, PLDI 2010: certify, else fall back).  The text then
follows %g: fixed notation where -4 <= X < 17, else d.ddd...e+XX, with
trailing zeros and a bare point stripped.

repr's digits are the shortest that read back as a (Steele and White, PLDI
1990; Adams, PLDI 2018): of the multiples of 10^k in a's rounding interval,
for the largest k that has one, the one nearest N + d.  In scaled units the
interval reaches h = ulp(a) * 10^(16 - X) / 2 above a, and as far below but
for a power of two above the smallest normal, where it reaches h/2; its ends
are kept where the mantissa is even.  h is below 12, so the interval holds
at most one multiple of 100: where it holds one, that is the answer, else
the nearer of N's two neighbouring multiples of 10 that lies in it, else N.
Where a candidate's distance from N + d lies within _TIE of its side's reach
or of the other candidate's distance, or N is taken with d within _TIE of a
half, the value falls back to CPython's repr.  repr's text differs from %g
in three ways: exponent notation starts at X = 16, a whole number in fixed
notation keeps '.0', and a non-finite value is written NaN, Infinity or
-Infinity, as json writes it.

The tables are built on first use, from exact integer arithmetic.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

_Q_LO, _Q_HI = -293, 325  # the table's powers 10^q: q = 16 - X for X in [-309, 309]
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_SMALLEST, _LARGEST = sys.float_info.min, sys.float_info.max  # the normal doubles
_E16, _E17 = 10 ** 16, 10 ** 17
_E_SMALLEST = -1021  # frexp's exponent of the smallest normal, whose gap below is not halved

# The scaled a * 10^q is V = (p + err + m * P_lo + m * delta) * 2^k, where p + err
# is the exact product m * P_hi and p >= 1/4, so V < 2^57 gives 2^k < 2^59.  The
# table's rounding |delta| <= 2^-107 adds at most 2^-48 after scaling, that of
# m * P_lo (half an ulp of 2^-54) 2^-49, and that of the sum lo = err + m * P_lo,
# |lo| < 2^6, 2^-48: |lo - (V - hi)| < 2^-46 = 1.4e-14.  _TIE keeps a margin of 7.
# repr's h = P_hi * 2^(k - 54) is below 12 and within 2^-49 of its exact value, and
# a distance that comes within 1 of it is below 13, rounded by at most 2^-50: the
# comparisons err by under 1.8e-14, a margin of 5.
_TIE = 1e-13

# A value's text is a row of WIDTH bytes less its FILL bytes, a byte that UTF-8
# text never holds.  The row holds '-0.000', the 17 digits of N each followed
# by a '.', then 'e', the exponent's sign and three digits; a mask chosen by
# the value's notation, digit count and sign fills what is not kept.
WIDTH = 48
FILL = 0xFF
_MINUS, _ZEROS, _DIGIT0, _E = 0, 1, 6, 40  # '0.000' at 1..5, digit j at 6 + 2j, '.' after it
_X_MAX = 330  # exponent words cover X in [-_X_MAX, _X_MAX]
_FIXED = 21  # %g's notation classes: X + 4 for X in [-4, 16]; then 2- and 3-digit exponents
_FIXED_REPR = 20  # repr's: X + 4 for X in [-4, 15]; then 2- and 3-digit exponents
_ND = 18  # key stride for the number of significant digits, 1..17
_FALLBACK = f"%-{WIDTH}.17g"  # CPython's text, padded with spaces to the row
_FALLBACK_REPR = f"%-{WIDTH}r"
_NAMES = (b"NaN", b"Infinity", b"-Infinity")  # json's texts of the non-finite values
_SPACE = ord(" ")


def _ratio(num: int, den: int) -> tuple[float, float]:
    """num/den as a double-double (hi, lo), each part correctly rounded."""
    hi = num / den  # int true division rounds correctly
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _power(q: int) -> tuple[float, float, int]:
    """10^q = (hi + lo) * 2^e with hi in [0.5, 1]."""
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    e = num.bit_length() - den.bit_length() + 1
    num, den = (num, den << e) if e >= 0 else (num << -e, den)  # num/den in (1/4, 1)
    if 2 * num < den:
        num, e = 2 * num, e - 1
    return (*_ratio(num, den), e)


def _kept(cls: int, nd: int, fixed: int, whole_point: bool) -> list[int]:
    """The row positions kept for a positive value of notation class cls with nd digits.

    Classes below ``fixed`` are fixed notation; ``whole_point`` keeps '.0'
    after a whole number there.
    """
    digits = [_DIGIT0 + 2 * j for j in range(nd)]
    if cls < 4:  # 0.000ddd
        return [_ZEROS, _ZEROS + 1, *range(_ZEROS + 2, _ZEROS + 5 - cls), *digits]
    if cls < fixed:  # ddd.ddd, N's digits past nd being zeros
        x = cls - 4
        whole = [_DIGIT0 + 2 * j for j in range(x + 1)]
        if nd > x + 1:
            return whole + [whole[-1] + 1, *digits[x + 1:]]
        return whole + ([whole[-1] + 1, whole[-1] + 2] if whole_point else [])  # digit x+1 is 0
    point = [_DIGIT0 + 1, *digits[1:]] if nd > 1 else []
    return [_DIGIT0, *point, _E, _E + 1, *([_E + 2] if cls > fixed else []), _E + 3, _E + 4]


def _fill(fixed: int, whole_point: bool) -> np.ndarray:
    """FILL words keyed by (class, digit count, sign), the kept bytes cleared."""
    kept = [((cls * _ND + nd) * 2 + neg) * WIDTH + p for cls in range(fixed + 2)
            for nd in range(1, _ND) for neg in (0, 1)
            for p in ([_MINUS] if neg else []) + _kept(cls, nd, fixed, whole_point)]
    fill = np.full(((fixed + 2) * _ND * 2, WIDTH), FILL, dtype=np.uint8)
    fill.flat[kept] = 0
    return fill.view(np.uint64)


def _words(texts: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(texts), dtype=np.uint64)


@functools.cache
def _tables() -> dict:
    """The powers of ten, the digit, exponent and %g fill words, built on first use."""
    powers = np.array([_power(q) for q in range(_Q_LO, _Q_HI + 1)])
    hi = powers[:, 0]
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    digits = np.arange(10 ** 4)[:, None] // [1000, 100, 10, 1] % 10  # each group of 4
    pairs = np.full((10 ** 4, 8), ord("."), dtype=np.uint8)
    pairs[:, ::2] = digits + ord("0")
    return {"hi": hi, "hi_hi": hi_hi, "hi_lo": hi - hi_hi, "lo": powers[:, 1],
            "e": powers[:, 2].astype(np.int64),
            "lead": _words([b"-0.000%d." % d for d in range(10)]),
            "pairs": pairs.view(np.uint64).ravel(),
            "exps": _words([b"e%+04d\0\0\0" % x for x in range(-_X_MAX, _X_MAX + 1)]),
            "zeros": np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1),  # trailing
            "fill": _fill(_FIXED, False)}


@functools.cache
def _repr_tables() -> dict:
    """repr's fill words and json's rows of the non-finite values, built on first use."""
    names = b"".join(name.ljust(WIDTH, bytes([FILL])) for name in _NAMES)
    return {"fill": _fill(_FIXED_REPR, True),
            "names": np.frombuffer(names, dtype=np.uint8).reshape(len(_NAMES), WIDTH)}


def _scaled(t: dict, m, m_hi, m_lo, e, x):
    """N = the rounded m * 2^e * 10^(16 - x) as int64, and the rounding's offset d = lo - rint(lo)."""
    i = 16 - x - _Q_LO
    p_hi, p_lo, hi_hi, hi_lo, pe = (t[key].take(i) for key in ("hi", "lo", "hi_hi", "hi_lo", "e"))
    p = m * p_hi
    err = ((m_hi * hi_hi - p) + m_hi * hi_lo + m_lo * hi_hi) + m_lo * hi_lo
    k = e + pe
    hi = np.ldexp(p, k)
    lo = np.ldexp(err + m * p_lo, k)
    r = np.rint(lo)
    return hi.astype(np.int64) + r.astype(np.int64), lo - r


def _off_decade(n, d):
    """-1 where N's decade is below [10^16, 10^17], +1 above, else 0.

    N = 10^16 with d < 0 is a value below 10^16, redone one decade down.
    Where d is within rounding error of 0, either decade gives the same
    text there, as at N = 10^17, the carry of a value just below 10^17.
    """
    return (n > _E17).astype(np.int64) - ((n < _E16) | ((n == _E16) & (d < 0)))


def _decimal(x: np.ndarray, t: dict):
    """(N, d, X, normal, m, e) of each |x| = m * 2^e; normal masks the rows N and d hold.

    A row that is not a finite normal double, or whose decade log10 and
    one redo leave unresolved, is left out of normal.
    """
    a = np.abs(x)
    normal = (a >= _SMALLEST) & (a <= _LARGEST)
    a = np.where(normal, a, 1.0)
    m, e = np.frexp(a)
    c = _SPLIT * m
    m_hi = c - (c - m)
    m_lo = m - m_hi
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    n, d = _scaled(t, m, m_hi, m_lo, e, exp10)
    off = _off_decade(n, d)
    redo = np.flatnonzero(off)
    if redo.size:  # log10 missed the decade by one
        exp10[redo] += off[redo]
        n[redo], d[redo] = _scaled(t, m[redo], m_hi[redo], m_lo[redo], e[redo], exp10[redo])
        normal[redo[_off_decade(n[redo], d[redo]) != 0]] = False
    return n, d, exp10, normal, m, e


def _level(rest, p: int, d, below, reach):
    """N rounded down or up to a multiple of p, whichever lies in the interval and is nearer.

    ``rest`` is N mod p.  Returns (ok, up, unsure): whether either lies in
    it, whether the one taken is N rounded up, and whether a distance lies
    within _TIE of its side's reach or of the other distance, where the
    answer is not certified.
    """
    down, up = rest + d, (p - rest) - d  # the scaled x - down and up - x
    in_down, in_up = down <= below, up <= reach
    ok = in_down | in_up
    unsure = ((np.minimum(np.abs(down - below), np.abs(up - reach)) <= _TIE)
              | (ok & (np.abs(up - down) <= _TIE)))
    return ok, in_up & ((up < down) | ~in_down), unsure


def _shortest(t: dict, n, d, exp10, normal, m, e):
    """repr's digits as a 17-digit integer in place of N, and the mask of the certified rows.

    The interval reaches at most 12 to either side, so it holds at most one
    multiple of 100: where it holds one, that is the multiple of 10^k for
    the largest k, and its trailing zeros give its length.  Else the
    nearer multiple of 10 in it is taken, else N itself, which lies within
    1/2 of x.
    """
    i = 16 - exp10 - _Q_LO
    reach = np.ldexp(t["hi"].take(i), e + t["e"].take(i) - 54)  # h, the reach above x
    below = np.where((m == 0.5) & (e > _E_SMALLEST), 0.5 * reach, reach)
    rest = n % 100
    hundreds, up_100, unsure_100 = _level(rest, 100, d, below, reach)
    rest_10 = rest % 10
    tens, up_10, unsure_10 = _level(rest_10, 10, d, below, reach)
    n = np.where(hundreds, n - rest + 100 * up_100, np.where(tens, n - rest_10 + 10 * up_10, n))
    nearest = np.abs(np.abs(d) - 0.5) > _TIE  # N itself, if taken, is the nearest
    return n, normal & ~unsure_100 & (hundreds | (~unsure_10 & (tens | nearest)))


def _layout(t: dict, fill: np.ndarray, fixed: int, n, exp10, negative) -> np.ndarray:
    """The (len(n), WIDTH) byte rows of the digits n at decimal exponents exp10."""
    carry = n == _E17  # rounding carried into an 18th digit
    n[carry] = _E16
    exp10 = exp10 + carry
    high = n // 10 ** 8
    low = n - high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    groups = [high // 10 ** 4, high % 10 ** 4, low // 10 ** 4, low % 10 ** 4]
    zeros = t["zeros"]
    trailing = zeros.take(groups[0])
    for g in groups[1:]:
        trailing = np.where(g == 0, trailing + 4, zeros.take(g))
    in_fixed = (exp10 >= -4) & (exp10 < fixed - 4)
    cls = np.where(in_fixed, exp10 + 4, np.where(np.abs(exp10) < 100, fixed, fixed + 1))
    # each row's fill, with the bytes it keeps cleared, then the bytes OR-ed in
    words = fill.take((cls * _ND + 17 - trailing) * 2 + negative, axis=0)
    words[:, 0] |= t["lead"].take(lead)
    for j, g in enumerate(groups, 1):
        words[:, j] |= t["pairs"].take(g)
    words[:, 5] |= t["exps"].take(exp10 + _X_MAX, mode="clip")
    return words.view(np.uint8)


def _fall_back(rows: np.ndarray, x: np.ndarray, slow: np.ndarray, form: str) -> None:
    """CPython's text by ``form`` (padded to WIDTH with spaces) in the rows ``slow``."""
    if slow.size:
        text = (form * slow.size % tuple(x[slow].tolist())).encode("ascii")
        texts = np.frombuffer(text, dtype=np.uint8).reshape(slow.size, WIDTH)
        rows[slow] = np.where(texts == _SPACE, FILL, texts)


def encode(values) -> np.ndarray:
    """'%.17g' % v of each value, as (n, WIDTH) uint8 rows: each row's bytes but FILL."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    t = _tables()
    n, d, exp10, normal, _, _ = _decimal(x, t)
    certified = normal & (np.abs(np.abs(d) - 0.5) > _TIE)
    rows = _layout(t, t["fill"], _FIXED, n, exp10, np.signbit(x))
    _fall_back(rows, x, np.flatnonzero(~certified), _FALLBACK)
    return rows


def encode_repr(values) -> np.ndarray:
    """json.dumps(v) of each value, as encode's rows: float.__repr__(v) for a finite v."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    t, r = _tables(), _repr_tables()
    n, d, exp10, normal, m, e = _decimal(x, t)
    n, certified = _shortest(t, n, d, exp10, normal, m, e)
    rows = _layout(t, r["fill"], _FIXED_REPR, n, exp10, np.signbit(x))
    finite = np.isfinite(x)
    special = np.flatnonzero(~finite)
    if special.size:
        value = x[special]
        rows[special] = r["names"].take(np.where(np.isnan(value), 0, 1 + (value < 0)), axis=0)
    _fall_back(rows, x, np.flatnonzero(~certified & finite), _FALLBACK_REPR)
    return rows
