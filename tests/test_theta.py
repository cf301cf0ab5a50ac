"""Theta engine: series values, shift relation, modular transform, log-derivative."""

import bisect
import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuscs import theta as theta_module
from mobiuscs.errors import DomainError, PrecisionError
from mobiuscs.states import TAU_DUAL, TAU_NATURAL, LabelBatch, expect_u
from mobiuscs.theta import (
    DEFAULT_POLICY,
    SeriesPolicy,
    _cap_error,
    _order_table,
    _truncation_order,
    _window,
    _windows,
    theta2,
    theta2_many,
    theta3,
    theta3_logderiv,
    theta3_many,
    theta3_modular,
    theta34_real,
)


# -- brute-force oracles ------------------------------------------------------

def brute_theta3(nu, tau, n_max=60):
    n = np.arange(-n_max, n_max + 1)
    return complex(np.sum(np.exp(1j * np.pi * tau * n**2 + 2j * np.pi * nu * n)))


def brute_theta2(nu, tau, n_max=60):
    n = np.arange(-n_max, n_max) + 0.5
    return complex(np.sum(np.exp(1j * np.pi * tau * n**2 + 2j * np.pi * nu * n)))


# values frozen from the brute-force oracles above
THETA3_AT_0 = 1.772637204826652        # brute_theta3(0, i/pi): sum e^{-n^2}
THETA3_HALF_DUAL = 0.9998965536275924  # brute_theta3(1/2, i*pi): 1 - 2e^{-pi^2} + ...
THETA2_AT_0 = 1.7722704969843799       # brute_theta2(0, i/pi): sum e^{-(n+1/2)^2}


class TestTheta3:
    def test_reference_value_natural(self):
        val = theta3(0.0, TAU_NATURAL)
        assert abs(val - THETA3_AT_0) < 1e-14
        assert abs(val - brute_theta3(0.0, TAU_NATURAL, n_max=10)) < 1e-14

    def test_reference_value_dual(self):
        val = theta3(0.5, TAU_DUAL)
        assert abs(val - THETA3_HALF_DUAL) < 1e-14
        assert abs(val - brute_theta3(0.5, TAU_DUAL)) < 1e-14

    def test_evenness(self):
        for nu in (0.17, 0.42 + 0.05j, -1.3):
            assert abs(theta3(nu, TAU_NATURAL) - theta3(-nu, TAU_NATURAL)) < 1e-13

    def test_periodicity(self):
        for nu in (0.0, 0.31, 0.77):
            a = theta3(nu, TAU_NATURAL)
            b = theta3(nu + 1.0, TAU_NATURAL)
            assert abs(a - b) < 1e-13 * max(1.0, abs(a))

    def test_complex_tau_against_oracle(self):
        for tau in (0.3 + 0.6j, -0.2 + 2.0j):
            for nu in (0.1, 0.4 + 0.2j):
                assert abs(theta3(nu, tau) - brute_theta3(nu, tau)) < 1e-12

    def test_rejects_bad_tau(self):
        with pytest.raises(DomainError):
            theta3(0.0, 1.0 - 0.5j)
        with pytest.raises(DomainError):
            theta3(0.0, 2.0)

    def test_max_terms_exhaustion(self):
        policy = SeriesPolicy(target_tol=1e-14, max_terms=2)
        with pytest.raises(PrecisionError) as info:
            theta3(0.0, 0.01j, policy)
        assert info.value.achieved > 1e-14


class TestTheta2:
    def test_reference_value(self):
        val = theta2(0.0, TAU_NATURAL)
        assert abs(val - THETA2_AT_0) < 1e-13
        assert abs(val - brute_theta2(0.0, TAU_NATURAL, n_max=10)) < 1e-13

    @pytest.mark.parametrize("tau", [TAU_NATURAL, TAU_DUAL, 0.3 + 0.8j])
    def test_lattice_sum_matches_brute_force_and_shift_relation(self, tau):
        for nu in (0.0, 0.23, 0.5, 1.1 - 0.2j, 3.7j * complex(tau).imag):
            a = theta2(nu, tau)
            brute = brute_theta2(nu, tau)
            # the half-period shift relation: exp(i*pi*(tau/4 + nu)) * Theta3(nu + tau/2 | tau)
            shift = cmath.exp(1j * math.pi * (tau / 4.0 + nu)) * theta3(nu + tau / 2.0, tau)
            assert abs(a - brute) < 1e-13 * max(1.0, abs(brute))
            assert abs(a - shift) < 1e-13 * max(1.0, abs(shift))

    def test_vanishes_at_half(self):
        # alternating pair cancellation at nu = 1/2 for a real nome
        assert abs(theta2(0.5, TAU_DUAL)) < 1e-14
        assert abs(brute_theta2(0.5, TAU_DUAL)) < 1e-14

    @pytest.mark.parametrize("center", [-720.0, -1000.0])
    def test_overflows_to_inf_like_theta3(self, center):
        # past |l'| ~ 26.6 the terms leave double range: the sum is inf, as Theta3's is
        nu = 1j * center / math.pi
        with np.errstate(over="ignore", invalid="ignore"):
            assert theta2(nu, TAU_NATURAL).real == math.inf
            assert theta3(nu, TAU_NATURAL).real == math.inf


class TestModular:
    def test_specialization_at_origin(self):
        lhs = theta3(0.0, TAU_NATURAL)
        rhs = math.sqrt(math.pi) * theta3(0.0, TAU_DUAL)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        assert abs(brute_theta3(0.0, TAU_NATURAL) - rhs) <= 1e-12 * abs(rhs)

    def test_imaginary_argument_pair(self):
        lp = 0.3
        lhs = brute_theta3(1j * lp / math.pi, TAU_NATURAL)
        rhs = math.exp(lp * lp) * math.sqrt(math.pi) * brute_theta3(lp, TAU_DUAL)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        assert abs(theta3_modular(1j * lp / math.pi, TAU_NATURAL) - lhs) <= 1e-12 * abs(lhs)

    def test_zero_argument_any_tau(self):
        # at nu = 0 the transform reduces to theta3(0|-1/tau) = sqrt(-i*tau)*theta3(0|tau)
        for tau in (0.7j, 2.2j, 0.4 + 1.1j):
            lhs = theta3(0.0, -1.0 / tau)
            rhs = np.emath.sqrt(-1j * tau) * theta3(0.0, tau)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_dual_path_grid(self):
        for im in np.linspace(0.5, 5.0, 8):
            for re in (0.0, 0.25):
                tau = re + 1j * im
                for nu in (0.0, 0.2, 0.45 + 0.1j):
                    a = theta3(nu, tau)
                    b = theta3_modular(nu, tau)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


taus = st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.3, 3.0))
nus = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-0.5, 0.5))


class TestProperties:
    """The fixed-example identities above, over random (nu, tau) at the same tolerances."""

    @settings(deadline=None)
    @given(nu=nus, tau=taus)
    def test_evenness(self, nu, tau):
        assert abs(theta3(nu, tau) - theta3(-nu, tau)) < 1e-13

    @settings(deadline=None)
    @given(nu=nus, tau=taus)
    def test_unit_periodicity(self, nu, tau):
        a = theta3(nu, tau)
        assert abs(a - theta3(nu + 1.0, tau)) < 1e-13 * max(1.0, abs(a))

    @settings(deadline=None)
    @given(nu=nus, tau=taus)
    def test_quasi_periodicity(self, nu, tau):
        # Theta3(nu + tau | tau) = exp(-i*pi*tau - 2*i*pi*nu) * Theta3(nu | tau)
        shifted = theta3(nu + tau, tau)
        expected = cmath.exp(-1j * math.pi * tau - 2j * math.pi * nu) * theta3(nu, tau)
        assert abs(shifted - expected) < 1e-13 * max(1.0, abs(shifted))

    @settings(deadline=None)
    @given(nu=nus, tau=taus)
    def test_modular_dual_path(self, nu, tau):
        a = theta3(nu, tau)
        assert abs(a - theta3_modular(nu, tau)) <= 1e-12 * max(1.0, abs(a))


class TestLogDerivative:
    def test_zero_at_origin(self):
        assert theta3_logderiv(0.0, TAU_DUAL) == 0.0

    def test_zero_at_half(self):
        assert abs(theta3_logderiv(0.5, TAU_DUAL)) < 1e-16

    def test_against_finite_differences(self):
        h = 1e-6
        for nu in np.linspace(0.0, 1.0, 17, endpoint=False):
            for tau in (TAU_DUAL, 1.5j):
                ld = theta3_logderiv(nu, tau)
                fd = (theta3(nu + h, tau) - theta3(nu - h, tau)).real / (2.0 * h)
                fd /= theta3(nu, tau).real
                assert abs(ld - fd) < 1e-8

    def test_quarter_point_value(self):
        # at nu = 1/4 the product series collapses to -4*pi * sum q^{2n-1}/(1+q^{4n-2})
        val = theta3_logderiv(0.25, TAU_DUAL)
        q = math.exp(-math.pi**2)
        expected = -4.0 * math.pi * (q / (1.0 + q**2) + q**3 / (1.0 + q**6))
        assert abs(val - expected) < 1e-14


class TestTruncation:
    def test_doubling_max_terms_is_stable(self):
        tol = 1e-14
        for nu, tau in ((0.0, TAU_NATURAL), (0.4, 0.9j), (0.2 + 0.1j, 0.5j)):
            a = theta3(nu, tau, SeriesPolicy(target_tol=tol, max_terms=10_000))
            b = theta3(nu, tau, SeriesPolicy(target_tol=tol, max_terms=20_000))
            assert abs(a - b) <= tol

    def test_tightening_tolerance_is_within_bound(self):
        for nu, tau in ((0.0, TAU_NATURAL), (0.3, 0.7j)):
            loose = theta3(nu, tau, SeriesPolicy(target_tol=1e-8))
            tight = theta3(nu, tau, SeriesPolicy(target_tol=1e-15))
            assert abs(loose - tight) <= 1e-8


def loop_truncation_order(a, b, policy):
    """The order search that the closed form replaced: scan n = 1, 2, ..."""
    bound = math.inf
    for n in range(1, policy.max_terms + 1):
        rho = math.exp(-math.pi * b * (2.0 * n + 1.0) + 2.0 * math.pi * a)
        if rho >= 1.0:
            continue
        log_mag = -math.pi * b * n * n + 2.0 * math.pi * a * n
        if log_mag > 700.0:
            continue
        bound = 2.0 * math.exp(log_mag) / (1.0 - rho)
        if bound < policy.target_tol:
            return n
    raise PrecisionError(
        f"lattice sum did not reach tol={policy.target_tol:g} within {policy.max_terms} terms",
        achieved=bound,
    )


def _order_or_failure(order, *args):
    try:
        return order(*args)
    except PrecisionError as exc:
        return str(exc), repr(exc.achieved)


class TestTruncationOrder:
    def test_closed_form_matches_loop(self):
        # |Im nu| past 2*pi*a = 709.8 made the loop's exp() overflow: those
        # cases have no loop answer to match and are counted separately
        imag_nu = (0.0, 1e-9, 0.1, 1.0, 2.5, 8.47, 20.0, 60.0, 112.0, 300.0, math.nan, math.inf)
        imag_tau = (*np.geomspace(1e-3, 1e2, 8), 1.0 / math.pi, math.pi, math.inf)
        policies = [SeriesPolicy(tol, cap)
                    for tol in (1e-300, 1e-14, 1e-8, 1e-2, 0.5, 1.999999999, 2.0, 3.0, math.inf)
                    for cap in (1_000, 40)]
        compared = overflowed = capped = 0
        for a in imag_nu:
            for b in imag_tau:
                for policy in policies:
                    try:
                        expected = _order_or_failure(loop_truncation_order, a, b, policy)
                    except OverflowError:
                        overflowed += 1
                        continue
                    got = _order_or_failure(_truncation_order, 1j * a, complex(0.0, b), policy)
                    assert got == expected, (a, b, policy)
                    compared += 1
                    capped += isinstance(expected, tuple)
        assert compared > 1500 and capped > 200 and overflowed > 0

    def test_cap_message(self):
        policy = SeriesPolicy(target_tol=1e-14, max_terms=40)
        with pytest.raises(PrecisionError) as info:
            _truncation_order(0.0, 1e-3j, policy)
        assert str(info.value) == "lattice sum did not reach tol=1e-14 within 40 terms"
        assert info.value.achieved > 1e-14

    @pytest.mark.parametrize("nu,achieved", [(complex(0, math.nan), "nan"), (complex(0, math.inf), "inf")])
    def test_non_finite_argument_fails_at_the_cap(self, nu, achieved):
        with pytest.raises(PrecisionError) as info:
            _truncation_order(nu, TAU_NATURAL, SeriesPolicy())
        assert str(info.value).endswith("within 10000 terms")
        assert repr(info.value.achieved) == achieved

    def test_large_argument_sums_instead_of_overflowing(self):
        # 2*pi*|Im nu| = 800 > 709.8: exp() of the term ratio would leave double range
        order = _truncation_order(400j / math.pi, TAU_NATURAL, SeriesPolicy())
        assert 800 <= order <= 810
        with np.errstate(over="ignore", invalid="ignore"):
            assert theta3(400j / math.pi, TAU_NATURAL).real == math.inf


class TestMany:
    @pytest.mark.parametrize("tau", [TAU_NATURAL, TAU_DUAL, 0.3 + 0.8j])
    def test_bit_identical_to_scalar(self, tau):
        rng = np.random.default_rng(11)
        nu = np.concatenate([1j * rng.uniform(-12.0, 12.0, 300),
                             rng.uniform(-1.0, 1.0, 100) + 1j * rng.uniform(-3.0, 3.0, 100)])
        # bytes, so that overflowed entries (inf and NaN parts) compare too
        with np.errstate(over="ignore", invalid="ignore"):
            many = theta3_many(nu, tau)
            scalar = np.array([theta3(v, tau) for v in nu])
        assert many.tobytes() == scalar.tobytes()

    def test_empty(self):
        assert theta3_many([], TAU_NATURAL).shape == (0,)

    def test_real_arguments_on_the_dual_lattice_sum_five_terms(self, monkeypatch):
        # the dual <U> route of states reads Theta3 and Theta4(f | i*pi) at real f from
        # theta34_real: one table of cos(2*pi*f*n), n = 1, 2, for the five terms n = -2 ... 2
        tables, lattice = [], []
        cos_table = theta_module._cos_table
        monkeypatch.setattr(theta_module, "_cos_table",
                            lambda x, n_max: tables.append((x.size, n_max)) or cos_table(x, n_max))
        lattice_rows = theta_module._lattice_rows
        monkeypatch.setattr(theta_module, "_lattice_rows",
                            lambda *args: lattice.append(args) or lattice_rows(*args))
        f = np.random.default_rng(3).uniform(-0.5, 0.5, 2000)
        peaks, orders = _windows(f.astype(complex), TAU_DUAL, DEFAULT_POLICY)
        assert peaks is None and orders.tolist() == [2] * 2000
        expect_u(LabelBatch(f, np.zeros(f.size), 0.0), method="dual")
        assert tables == [(2000, 2)] and lattice == []

    @pytest.mark.parametrize("size", [0, 1, 5, 64, 5000])
    def test_row_blocks_match_a_dict_grouping(self, size):
        keys = np.random.default_rng(size).integers(0, 40, size) ** 3  # some blocks get cut

        def width(key):
            return 2 * key + 1

        groups = {}
        for i, key in enumerate(keys.tolist()):
            groups.setdefault(key, []).append(i)
        step = {key: max(1, theta_module.BLOCK_TERMS // width(key)) for key in groups}
        expected = [(key, rows[lo:lo + step[key]])
                    for key, rows in groups.items() for lo in range(0, len(rows), step[key])]
        got = [(key, list(rows)) for key, rows in theta_module.row_blocks(keys, width)]
        assert got == expected


TAUS = [TAU_NATURAL, TAU_DUAL, 0.3 + 0.8j]


def search_window(nu, tau, policy=DEFAULT_POLICY):
    """_window's (n0, N) with N from the search _truncation_order at the reduced argument."""
    b = tau.imag
    c = -nu.imag / b if math.isfinite(nu.imag) else 0.0
    if abs(c) < policy.max_terms:
        n0 = round(c)
        try:
            n = _truncation_order(complex(0.0, nu.imag + n0 * b) if n0 else nu, tau, policy)
        except PrecisionError:
            pass
        else:
            if abs(n0) + n <= policy.max_terms:
                return n0, n
    raise _cap_error(abs(nu.imag), b, policy)


def scalar_windows(nu, tau, policy=DEFAULT_POLICY):
    """[search_window(v, ...) for v in nu], or the failure of its first failing entry."""
    return _order_or_failure(lambda: [search_window(v, complex(tau), policy)
                                      for v in np.asarray(nu, dtype=complex).tolist()])


def table_windows(nu, tau, policy=DEFAULT_POLICY):
    """[_window(v, ...) for v in nu], or the failure of its first failing entry."""
    return _order_or_failure(lambda: [_window(v, complex(tau), policy)
                                      for v in np.asarray(nu, dtype=complex).tolist()])


def column_windows(nu, tau, policy=DEFAULT_POLICY):
    """_windows(nu, ...) as a list of windows (n0, N), or its failure."""
    def windows():
        peaks, orders = _windows(np.asarray(nu, dtype=complex), complex(tau), policy)
        peaks = [0] * len(orders) if peaks is None else peaks.astype(int).tolist()
        return list(zip(peaks, orders.tolist()))
    return _order_or_failure(windows)


def window_edge(tau, policy):
    """|Im nu| at the far end of the last peak n0 whose windows all stay within policy.max_terms.

    Within the cell of a peak n0 the reduced |Im| runs up to Im(tau)/2,
    where the order is largest (see _window).
    """
    b = complex(tau).imag
    n0 = policy.max_terms - _truncation_order(0.5j * b, complex(tau), policy)
    return b * (n0 + 0.5)


class TestColumnOrders:
    """theta3's and theta3_many's windows, read from the order table, against the order search."""

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, SeriesPolicy(1e-8, 300), SeriesPolicy(3.0, 50)])
    def test_dense_grid_up_to_the_max_terms_edge(self, tau, policy):
        a = np.linspace(0.0, window_edge(tau, policy) * (1.0 - 1e-12), 20_001)
        rng = np.random.default_rng(3)
        nu = rng.uniform(-1.0, 1.0, a.size) + 1j * a * rng.choice([-1.0, 1.0], a.size)
        expected = scalar_windows(nu, tau, policy)
        assert isinstance(expected, list)
        assert max(abs(n0) + n for n0, n in expected) >= policy.max_terms - 1
        assert table_windows(nu, tau, policy) == expected
        assert column_windows(nu, tau, policy) == expected
        small = np.abs(nu.imag) <= 0.5 * complex(tau).imag  # every n0 = 0: no reduction
        assert column_windows(nu[small], tau, policy) == [w for w, k in zip(expected, small) if k]

    @pytest.mark.parametrize("tau", TAUS)
    def test_non_finite_real_parts_keep_their_orders(self, tau):
        rng = np.random.default_rng(4)
        real = rng.choice([math.inf, -math.inf, math.nan, 0.25], 500)
        nu = real + 1j * rng.uniform(-40.0, 40.0, 500)
        assert column_windows(nu, tau) == scalar_windows(nu, tau)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("bad", [complex(0.0, math.nan), complex(0.0, math.inf),
                                     complex(math.nan, math.nan), 1e6j])
    def test_first_failing_entry_raises_its_scalar_error(self, tau, bad):
        nu = 1j * np.linspace(-5.0, 5.0, 200)
        nu[70] = bad
        nu[150] = complex(0.0, math.inf) if bad != complex(0.0, math.inf) else 1e6j
        expected = _order_or_failure(_truncation_order, complex(nu[70]), tau, DEFAULT_POLICY)
        assert isinstance(expected, tuple)
        assert scalar_windows(nu, tau) == expected
        assert column_windows(nu, tau) == expected
        with pytest.raises(PrecisionError) as info:
            theta3_many(nu, tau)
        assert (str(info.value), repr(info.value.achieved)) == expected

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 197])
    def test_theta3_many_at_every_column_length(self, tau, size, monkeypatch):
        self.check_column(theta3, theta3_many, 0.0, tau, size, monkeypatch)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 197])
    def test_theta2_many_at_every_column_length(self, tau, size, monkeypatch):
        self.check_column(theta2, theta2_many, 0.5, tau, size, monkeypatch)

    @staticmethod
    def check_column(scalar_fn, many_fn, offset, tau, size, monkeypatch):
        """many_fn against scalar_fn bit for bit; windows are those of Theta3 at nu + offset*tau."""
        seen = []
        row_blocks = theta_module.row_blocks
        monkeypatch.setattr(theta_module, "row_blocks",
                            lambda keys, width: seen.append(list(keys)) or row_blocks(keys, width))
        rng = np.random.default_rng(size)
        b = complex(tau).imag
        # peaks n0 = rint(-Im nu / Im tau) of 1 to 30 in modulus, either sign, after the shift
        nu = (rng.uniform(-1.0, 1.0, size)
              + 1j * b * rng.uniform(0.5, 30.0, size) * rng.choice([-1.0, 1.0], size))
        if offset:
            nu -= offset * tau
        windows = [_window(v + offset * tau if offset else v, tau, DEFAULT_POLICY)
                   for v in nu.tolist()]
        assert all(n0 != 0 for n0, _ in windows)
        with np.errstate(over="ignore", invalid="ignore"):
            many = many_fn(nu, tau)
            scalar = np.array([scalar_fn(v, tau) for v in nu])
        # each row is summed around its peak term, its rows grouped by order N
        assert seen == [[n for _, n in windows]]
        assert many.tobytes() == scalar.tobytes()
        for bad in (complex(0.0, math.nan), 1e6j):  # one failing row in the middle
            column = nu.copy()
            column[size // 2] = bad
            with pytest.raises(PrecisionError) as info:
                scalar_fn(bad, tau)
            expected = (str(info.value), repr(info.value.achieved))
            with pytest.raises(PrecisionError) as info:
                many_fn(column, tau)
            assert (str(info.value), repr(info.value.achieved)) == expected


def search_order(a, b, policy):
    """_truncation_order at |Im nu| = a on Im tau = b, or max_terms + 1 where it fails."""
    try:
        return _truncation_order(complex(0.0, a), complex(0.0, b), policy)
    except PrecisionError:
        return policy.max_terms + 1


TABLE_IMAG_TAU = [0.05, 1.0 / math.pi, 0.8, 1.0, math.pi, 5.0]
TABLE_POLICIES = [SeriesPolicy(1e-14), SeriesPolicy(1e-6), SeriesPolicy(1e-300), SeriesPolicy(3.0),
                  SeriesPolicy(1e-14, 3), SeriesPolicy(1e-14, 8)]


class TestOrderTable:
    """_order_table's steps against the order search it is built from."""

    @pytest.mark.parametrize("b", TABLE_IMAG_TAU)
    @pytest.mark.parametrize("policy", TABLE_POLICIES)
    def test_table_reads_the_search_at_every_step_and_on_a_grid(self, b, policy):
        thresholds, orders = _order_table(b, policy)
        assert len(orders) == len(thresholds) + 1
        assert thresholds[-1] == b and orders[-1] == policy.max_terms + 1
        assert list(orders) == sorted(orders)  # the orders never decrease in a
        assert list(thresholds) == sorted(set(thresholds))
        steps = thresholds[:-1].tolist()
        points = [x for t in steps
                  for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
        points += np.linspace(0.0, b, 2001).tolist() + [b, math.nextafter(b, 0.0), 5e-324]
        points += np.random.default_rng(7).uniform(0.0, b, 2000).tolist()
        for a in points:
            assert orders[bisect.bisect_left(thresholds, a)] == search_order(a, b, policy), a
        got = np.take(orders, np.searchsorted(thresholds, np.array(points)))
        assert got.tolist() == [search_order(a, b, policy) for a in points]
        # every step is where the search steps: the last double of the order before it
        for t, before, after in zip(steps, orders, orders[1:]):
            assert search_order(t, b, policy) == before
            assert search_order(math.nextafter(t, math.inf), b, policy) == after
        # theta3's and theta3_many's lookups at those points, one at a time and as one
        # column, and at the steps of the cells of peaks n0 = -3 and 7
        nu = 1j * np.array(points + [t + k * b for t in points[:len(steps) * 3] for k in (3, -7)])
        for tau in (complex(0.0, b), complex(0.3, b)):
            expected = [_order_or_failure(search_window, v, tau, policy) for v in nu.tolist()]
            assert [_order_or_failure(_window, v, tau, policy) for v in nu.tolist()] == expected
            first_failure = next((w for w in expected if isinstance(w[0], str)), expected)
            assert column_windows(nu, tau, policy) == first_failure

    def test_capped_policies_read_fails_where_the_search_fails(self):
        for policy in TABLE_POLICIES[-2:]:
            fails = policy.max_terms + 1
            assert any(fails in _order_table(b, policy)[1][:-1] for b in TABLE_IMAG_TAU)
            assert any(fails not in _order_table(b, policy)[1][:-1] for b in TABLE_IMAG_TAU)

    def test_past_the_table_reads_fails(self):
        # a reduced argument has a <= Im(tau)/2 but for rounding; past a = Im(tau) the table
        # holds no order
        thresholds, orders = _order_table(1.0 / math.pi, DEFAULT_POLICY)
        assert orders[bisect.bisect_left(thresholds, math.nextafter(1.0 / math.pi, 1.0))] == 10_001

    def test_built_on_first_use_in_a_bounded_cache(self):
        code = ("import mobiuscs.cli\nfrom mobiuscs.theta import _order_table\n"
                "print(_order_table.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == "0\n"
        rng = np.random.default_rng(9)
        for tau in rng.uniform(-1.0, 1.0, 100) + 1j * rng.uniform(0.2, 3.0, 100):
            theta3(0.1 + 0.3j, tau)
        assert _order_table.cache_info().currsize <= _order_table.cache_info().maxsize == 64


def test_mpmath_cross_check():
    mp = pytest.importorskip("mpmath")
    for nu, tau in ((0.0, TAU_NATURAL), (0.3, TAU_DUAL), (0.21, 0.4 + 1.3j)):
        q = complex(np.exp(1j * np.pi * np.asarray(tau, dtype=complex)))
        ref3 = complex(mp.jtheta(3, math.pi * nu, q))
        ref2 = complex(mp.jtheta(2, math.pi * nu, q))
        assert abs(theta3(nu, tau) - ref3) < 1e-12 * max(1.0, abs(ref3))
        assert abs(theta2(nu, tau) - ref2) < 1e-12 * max(1.0, abs(ref2))


def symmetric_theta3(nu, tau, policy=DEFAULT_POLICY):
    """Theta3 summed symmetrically about n = 0, over n = -N ... N with N = _truncation_order(nu)."""
    n_max = _truncation_order(complex(nu), complex(tau), policy)
    n = np.arange(-n_max, n_max + 1, dtype=float)
    expo = 1j * math.pi * tau * n * n + 2j * math.pi * np.array([nu])[:, None] * n
    return complex(np.exp(expo).sum(axis=1)[0])


class TestWindows:
    """Each sum runs over n0 - N ... n0 + N around its peak term n0 = rint(-Im nu/Im tau)."""

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("size", [1, 2, 65])
    def test_symmetric_where_the_peak_is_at_zero(self, tau, size):
        half = 0.5 * complex(tau).imag
        rng = np.random.default_rng(size)
        imag = rng.uniform(-half, half, size)
        imag[:2] = [half, -half][:size]  # rint(-+1/2) = 0: still the symmetric window
        nu = rng.uniform(-1.0, 1.0, size) + 1j * imag
        expected = np.array([symmetric_theta3(v, tau) for v in nu.tolist()])
        assert theta3_many(nu, tau).tobytes() == expected.tobytes()
        assert all(_window(v, tau, DEFAULT_POLICY)[0] == 0 for v in nu.tolist())

    @pytest.mark.parametrize("tau", TAUS)
    def test_neglected_tail_is_below_tol_times_the_peak_term(self, tau):
        mp = pytest.importorskip("mpmath")
        tau = complex(tau)
        with mp.workdps(30):
            t = mp.mpc(tau.real, tau.imag)

            def term(nu, n):
                return mp.exp(1j * mp.pi * t * n * n + 2j * mp.pi * mp.mpc(nu.real, nu.imag) * n)

            checked = 0
            for im in (0.51, -0.7, 1.5, -3.3, 6.49, -12.6, 26.2):
                nu = complex(0.3, im * tau.imag)
                n0, n_max = _window(nu, tau, DEFAULT_POLICY)
                assert n0 == round(-im) != 0
                # beyond n0 -+ 40 the terms fall below exp(-pi*Im(tau)*1600/2) of t_n0
                tail = mp.fsum(term(nu, n) for k in range(n_max + 1, 41)
                               for n in (n0 - k, n0 + k))
                assert abs(tail) <= DEFAULT_POLICY.target_tol * abs(term(nu, n0))
                checked += 1
        assert checked == 7

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("size", [32, 192])
    @pytest.mark.parametrize("bad", [complex(0.0, math.nan), complex(0.0, math.inf),
                                     complex(math.nan, math.nan), 1e6j])
    def test_a_failing_row_raises_its_unreduced_error(self, tau, size, bad):
        nu = 1j * np.linspace(-5.0, 5.0, size) * complex(tau).imag  # peaks n0 = -5 ... 5
        nu[size // 3] = bad
        nu[size // 2] = 1e6j if bad != 1e6j else complex(0.0, math.inf)
        expected = _order_or_failure(_truncation_order, bad, tau, DEFAULT_POLICY)
        assert isinstance(expected, tuple)
        for call in (lambda: theta3_many(nu, tau), lambda: theta3(bad, tau)):
            with pytest.raises(PrecisionError) as info:
                call()
            assert (str(info.value), repr(info.value.achieved)) == expected

    def test_a_window_past_max_terms_raises_the_unreduced_error(self):
        # natural lattice, nu = i*l'/pi: the window reaches |l'| + 6 or 7 on its far side
        policy = SeriesPolicy(max_terms=200)
        assert _window(190j / math.pi, TAU_NATURAL, policy) == (-190, 6)
        for l in (195.0, 210.0, 1e4):
            expected = _order_or_failure(_truncation_order, 1j * l / math.pi, TAU_NATURAL, policy)
            assert isinstance(expected, tuple)
            nu = 1j * np.array([0.0, 190.0, l, 1e6]) / math.pi
            for call in (lambda: theta3_many(nu, TAU_NATURAL, policy),
                         lambda: theta3(nu[2], TAU_NATURAL, policy)):
                with pytest.raises(PrecisionError) as info:
                    call()
                assert (str(info.value), repr(info.value.achieved)) == expected


def real_and_complex_column(tau, size, seed):
    """A column of real-exponent rows (Re nu = +-0) and complex rows, peaks n0 != 0.

    Row size // 3 overflows to inf (a real-exponent row past |l'| ~ 26.6 on
    the natural lattice) and row size // 2 is NaN (its real part), where
    the column is long enough to hold them apart.
    """
    rng = np.random.default_rng(seed)
    b = complex(tau).imag
    imag = b * rng.uniform(0.5, 30.0, size) * rng.choice([-1.0, 1.0], size)
    real = rng.choice([0.0, -0.0, 0.3, -0.71], size)
    nu = real + 1j * imag
    if size > 2:
        nu[size // 3] = complex(0.0, 300.0 / math.pi)
        nu[size // 2] = complex(math.nan, b * 3.3)
    return nu


class TestRealRows:
    """_lattice_rows sums a row whose exponent is real through the real exp, row by row."""

    @pytest.mark.parametrize("tau", [TAU_NATURAL, TAU_DUAL, 0.8j, 0.3 + 0.8j])
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 197])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_mixed_rows_match_their_one_row_calls(self, tau, size, offset, monkeypatch):
        real_rows = []
        kernel = theta_module._real_rows
        monkeypatch.setattr(theta_module, "_real_rows",
                            lambda a, b, n: real_rows.append(a.size) or kernel(a, b, n))
        scalar_fn, many_fn = (theta2, theta2_many) if offset else (theta3, theta3_many)
        nu = real_and_complex_column(tau, size, seed=size)
        if size == 1:
            nu[0] = nu[0].imag * 1j  # one real-exponent row alone
        with np.errstate(over="ignore", invalid="ignore"):
            many = many_fn(nu, tau)
            rows = np.array([many_fn(nu[k:k + 1], tau)[0] for k in range(size)])
            scalar = np.array([scalar_fn(v, tau) for v in nu.tolist()])
        assert many.tobytes() == rows.tobytes() == scalar.tobytes()
        real = (nu.real == 0.0) & (complex(tau).real == 0.0)
        # each real row went through the real kernel once in the column and twice alone
        assert sum(real_rows) == 3 * np.count_nonzero(real)
        assert (many[real].imag.tobytes() == np.zeros(np.count_nonzero(real)).tobytes())
        if size > 2:
            assert not cmath.isfinite(many[size // 3])
            if real[size // 3]:
                assert many[size // 3] == complex(math.inf, 0.0)
            assert cmath.isnan(many[size // 2])

    def test_real_rows_are_the_real_exponentials(self):
        b, nu = 1.0 / math.pi, 1j * np.array([-3.7, 0.0, 12.25]) / math.pi
        n = np.arange(-40.0, 41.0)
        got = theta3_many(nu, TAU_NATURAL)
        expo = -math.pi * b * n * n - 2.0 * math.pi * nu.imag[:, None] * n
        assert np.abs(got - np.exp(expo).sum(axis=1)).max() <= 1e-15 * np.abs(got).max()
        # the exponent is the real part of the complex one, rounded as it rounds (but for
        # the sign of a zero, which exp does not see)
        complex_expo = 1j * math.pi * TAU_NATURAL * n * n + 2j * math.pi * nu[:, None] * n
        assert (theta_module._real_rows(nu.imag, b, n).tobytes()
                == np.exp(complex_expo.real).sum(axis=1).tobytes())

    def test_overflowing_real_row_warns_as_the_complex_sum_did(self):
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            assert theta3(300j / math.pi, TAU_NATURAL) == complex(math.inf, 0.0)


def brute_theta34(x, tau, n_max=60):
    """(Theta3, Theta4)(x|tau) at real x from the complex brute-force oracle, real parts."""
    return brute_theta3(x, tau, n_max).real, brute_theta3(x + 0.5, tau, n_max).real


class TestTheta34Real:
    """theta34_real: Theta3 and Theta4 at real x on purely imaginary tau, from one cosine table."""

    TAUS = [TAU_DUAL, TAU_NATURAL, 0.8j]

    @staticmethod
    def term_sum(tau):
        """sum_n |terms| = sum_n exp(-pi*Im(tau)*n^2) over the column's window."""
        n_max = _window(0j, complex(tau), DEFAULT_POLICY)[1]
        return sum(math.exp(-math.pi * complex(tau).imag * n * n) for n in range(-n_max, n_max + 1))

    @pytest.mark.parametrize("tau", TAUS)
    def test_against_theta3_and_brute_sums(self, tau):
        x = np.concatenate([np.random.default_rng(8).uniform(-2.0, 2.0, 400),
                            [0.0, -0.0, 0.25, 0.5, -0.5, 1.0, 0.125]])
        th3, th4 = theta34_real(x, tau)
        tol = 4.0 * 2.0 ** -52 * self.term_sum(tau)
        for k, v in enumerate(x.tolist()):
            assert abs(th3[k] - theta3(v, tau).real) <= tol
            assert abs(th4[k] - theta3(v + 0.5, tau).real) <= tol
            b3, b4 = brute_theta34(v, tau)
            assert abs(th3[k] - b3) <= tol and abs(th4[k] - b4) <= tol
        assert th3.dtype == th4.dtype == np.float64

    def test_frozen_values(self):
        th3, th4 = theta34_real([0.0, 0.5], TAU_DUAL)
        assert th4[0] == th3[1] == pytest.approx(THETA3_HALF_DUAL, abs=2e-16)
        th3, th4 = theta34_real([0.0], TAU_NATURAL)
        assert th3[0] == pytest.approx(THETA3_AT_0, abs=4e-16)

    @pytest.mark.parametrize("tau", TAUS + [0.05j, 5.0j])
    def test_order_is_windows_at_every_x(self, tau, monkeypatch):
        orders = []
        cos_table = theta_module._cos_table
        monkeypatch.setattr(theta_module, "_cos_table",
                            lambda x, n_max: orders.append(n_max) or cos_table(x, n_max))
        x = np.concatenate([np.linspace(-3.0, 3.0, 301), [1e17, -1e300, math.nan, math.inf]])
        with np.errstate(invalid="ignore"):
            theta34_real(x, tau)
        assert len(orders) == 1
        assert {_window(complex(v), complex(tau), DEFAULT_POLICY) for v in x.tolist()} == {
            (0, orders[0])}
        assert orders[0] == _truncation_order(0j, complex(tau), DEFAULT_POLICY)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 197])
    def test_rows_alone_and_in_a_column(self, tau, size):
        x = np.random.default_rng(size).uniform(-1.0, 1.0, size)
        th3, th4 = theta34_real(x, tau)
        alone = [theta34_real(x[k:k + 1], tau) for k in range(size)]
        assert th3.tobytes() == np.concatenate([a for a, _ in alone]).tobytes()
        assert th4.tobytes() == np.concatenate([b for _, b in alone]).tobytes()

    def test_empty(self):
        th3, th4 = theta34_real([], TAU_DUAL)
        assert th3.shape == th4.shape == (0,)

    @pytest.mark.parametrize("tau", [0.3 + 0.8j, -1e-300 + 1j])
    def test_rejects_a_tau_off_the_imaginary_axis(self, tau):
        with pytest.raises(DomainError, match="purely imaginary tau"):
            theta34_real([0.1], tau)

    def test_rejects_tau_below_the_real_axis(self):
        with pytest.raises(DomainError, match="Im\\(tau\\) must be positive"):
            theta34_real([0.1], -1j)

    def test_past_max_terms_raises_theta3s_error(self):
        policy = SeriesPolicy(max_terms=3)
        with pytest.raises(PrecisionError) as info:
            theta3(0.3, 0.05j, policy)
        expected = (str(info.value), repr(info.value.achieved))
        with pytest.raises(PrecisionError) as info:
            theta34_real([0.3], 0.05j, policy)
        assert (str(info.value), repr(info.value.achieved)) == expected
