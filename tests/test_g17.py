"""The vectorized encoders against CPython, value by value: encode against '%.17g' % v,
encode_repr against float.__repr__(v) (json's NaN, Infinity and -Infinity where v is not finite)."""

import math
import os
import struct
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuscs import _g17


def texts(values, encode=_g17.encode) -> list[str]:
    return [row.tobytes().translate(None, bytes([_g17.FILL])).decode()
            for row in encode(np.asarray(values, dtype=np.float64))]


def reference(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


JSON_NAMES = {math.inf: "Infinity", -math.inf: "-Infinity"}


def repr_texts(values) -> list[str]:
    return texts(values, _g17.encode_repr)


def repr_reference(values) -> list[str]:
    return [float.__repr__(v) if math.isfinite(v) else "NaN" if math.isnan(v) else JSON_NAMES[v]
            for v in np.asarray(values, dtype=np.float64).tolist()]


def test_edge_values():
    powers = np.array([10.0 ** k for k in range(-307, 309)] + [1e-308, 1e-320])
    ties = np.arange(26215, 262144, 2) / 2.0 ** 18  # 18 significant digits, the last a 5
    values = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.7976931348623157e308,
         1.7976931348623157e308, math.inf, -math.inf, math.nan,
         1e-4, 9.9999999999999995e-05, 1e-5, 1e16, 1e17, 99999999999999999.0,
         9999999999999998.0, 0.1, 1 / 3, -2.5, 123456789012345675.0, 2.0 ** 53 + 2],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
        -powers, ties, -ties[::97]])
    assert texts(values) == reference(values)


def test_a_grid_of_fixed_notation():
    values = np.arange(10 ** 5) * 1e-3
    assert texts(values) == reference(values)


def test_exact_ties_fall_back_to_cpython():
    # a*10^(16-X) is a half-integer, where no error bound certifies the rounding
    ties = np.array([26215, 100001, 262143]) / 2.0 ** 18
    assert texts(ties) == reference(ties) == ["0.10000228881835938", "0.38147354125976562",
                                               "0.99999618530273438"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(patterns):
    values = np.frombuffer(struct.pack(f"<{len(patterns)}Q", *patterns), dtype="<f8")
    assert texts(values) == reference(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float(values):
    assert texts(values) == reference(values)


def test_import_builds_no_table():
    code = ("import sys, mobiuscs.cli, mobiuscs._g17 as g; "
            "print('fractions' in sys.modules, g._tables.cache_info().currsize, "
            "g._repr_tables.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(_g17.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.split() == ["False", "0", "0"]


# -- the shortest round-trip text ---------------------------------------------------

def test_repr_edge_values():
    powers = np.array([10.0 ** k for k in range(-307, 309)])
    two = np.ldexp(1.0, np.arange(-1022, 1024))  # the gap below is half that above, but at 2^-1022
    values = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
         1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, math.inf), 1e-4, 1e-5,
         9.9999999999999995e-05, 9999999999999998.0, 2.0 ** 53 - 1, 2.0 ** 53 + 1,
         2.0 ** 53 + 2, 1e15, 1e17, 0.1, 0.3, 1 / 3, -2.5, 1e22, 1e23, 123456789012345675.0],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf), -powers,
        two, np.nextafter(two, 0.0), np.nextafter(two, math.inf), -two])
    assert repr_texts(values) == repr_reference(values)


def test_repr_grids():
    values = np.concatenate([np.arange(10 ** 5) * 1e-3, np.arange(-5000, 5000) * 1e-3 + 0.3,
                             np.cumsum(np.full(10 ** 4, 0.1)), np.arange(-10 ** 4, 10 ** 4) / 8.0])
    assert repr_texts(values) == repr_reference(values)


def test_repr_half_ulp_ties():
    # past 2^53 the interval's ends are integers: 10x +- 5 below 2^53, 10x +- 10 above, and
    # x +- 2 past 2^54, which the multiples of 10 hit, kept where the mantissa is even; then
    # values whose scaled 17-digit rounding is a tie, as in test_exact_ties_fall_back_to_cpython
    values = np.concatenate([2.0 ** 53 + np.arange(-2000.0, 4000.0),
                             2.0 ** 54 + 4 * np.arange(-1000.0, 1000.0),
                             np.arange(26215, 262144, 2) / 2.0 ** 18])
    assert repr_texts(values) == repr_reference(values)
    assert repr_texts([2.0 ** 54 + 4, 2.0 ** 54 + 8]) == ["1.8014398509481988e+16",
                                                         "1.801439850948199e+16"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_repr_any_bit_pattern(patterns):
    values = np.frombuffer(struct.pack(f"<{len(patterns)}Q", *patterns), dtype="<f8")
    assert repr_texts(values) == repr_reference(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_repr_any_float(values):
    assert repr_texts(values) == repr_reference(values)
