"""Theta engine: series values, shift relation, modular transform, log-derivative."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuscs.errors import DomainError, PrecisionError
from mobiuscs.states import TAU_DUAL, TAU_NATURAL
from mobiuscs.theta import (
    SeriesPolicy,
    _truncation_order,
    theta2,
    theta2_many,
    theta2_series,
    theta3,
    theta3_logderiv,
    theta3_many,
    theta3_modular,
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

    def test_shift_relation_matches_series(self):
        for nu in (0.0, 0.23, 0.5, 1.1 - 0.2j):
            for tau in (TAU_NATURAL, TAU_DUAL, 0.3 + 0.8j):
                a = theta2(nu, tau)
                b = theta2_series(nu, tau)
                assert abs(a - b) < 1e-13 * max(1.0, abs(b))

    def test_vanishes_at_half(self):
        # alternating pair cancellation at nu = 1/2 for a real nome
        assert abs(theta2(0.5, TAU_DUAL)) < 1e-14
        assert abs(brute_theta2(0.5, TAU_DUAL)) < 1e-14

    @pytest.mark.parametrize("center", [-720.0, -1000.0])
    def test_overflowing_prefactor_is_a_precision_error(self, center):
        # exp(i*pi*(tau/4 + nu)) = exp(-center - 1/4) at nu = i*center/pi leaves double
        # range (the shifted Theta3 sum there overflows to inf, with numpy's warning)
        nu = 1j * center / math.pi
        for call in (lambda: theta2(nu, TAU_NATURAL), lambda: theta2_many([nu], TAU_NATURAL)):
            with np.errstate(over="ignore"), pytest.raises(
                    PrecisionError, match=r"Theta2 prefactor overflows: exp\(") as exc:
                call()
            assert exc.value.achieved == math.inf


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


def loop_truncation_order(a, b, policy, shift):
    """The order search that the closed form replaced: scan n = 1, 2, ..."""
    bound = math.inf
    for n in range(1, policy.max_terms + 1):
        m = n + shift
        rho = math.exp(-math.pi * b * (2.0 * m + 1.0) + 2.0 * math.pi * a)
        if rho >= 1.0:
            continue
        log_mag = -math.pi * b * m * m + 2.0 * math.pi * a * m
        if log_mag > 700.0:
            continue
        bound = 2.0 * math.exp(log_mag) / (1.0 - rho)
        if bound < policy.target_tol:
            return n
    raise PrecisionError(
        f"lattice sum did not reach tol={policy.target_tol:g} within "
        f"{policy.max_terms} terms (achieved bound {bound:g})",
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
                    for shift in (0.0, 0.5):
                        try:
                            expected = _order_or_failure(loop_truncation_order, a, b, policy, shift)
                        except OverflowError:
                            overflowed += 1
                            continue
                        got = _order_or_failure(_truncation_order, 1j * a, complex(0.0, b),
                                                policy, shift)
                        assert got == expected, (a, b, policy, shift)
                        compared += 1
                        capped += isinstance(expected, tuple)
        assert compared > 1500 and capped > 200 and overflowed > 0

    def test_cap_message(self):
        policy = SeriesPolicy(target_tol=1e-14, max_terms=40)
        with pytest.raises(PrecisionError) as info:
            _truncation_order(0.0, 1e-3j, policy)
        assert str(info.value) == ("lattice sum did not reach tol=1e-14 within 40 terms "
                                   f"(achieved bound {info.value.achieved:g})")
        assert info.value.achieved > 1e-14

    @pytest.mark.parametrize("nu,achieved", [(complex(0, math.nan), "nan"), (complex(0, math.inf), "inf")])
    def test_non_finite_argument_fails_at_the_cap(self, nu, achieved):
        with pytest.raises(PrecisionError) as info:
            _truncation_order(nu, TAU_NATURAL, SeriesPolicy())
        assert str(info.value).endswith(f"within 10000 terms (achieved bound {achieved})")

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
            many3, many2 = theta3_many(nu, tau), theta2_many(nu, tau)
            scalar3 = np.array([theta3(v, tau) for v in nu])
            scalar2 = np.array([theta2(v, tau) for v in nu])
        assert many3.tobytes() == scalar3.tobytes()
        assert many2.tobytes() == scalar2.tobytes()

    def test_empty(self):
        assert theta3_many([], TAU_NATURAL).shape == (0,)
        assert theta2_many([], TAU_NATURAL).shape == (0,)


def test_mpmath_cross_check():
    mp = pytest.importorskip("mpmath")
    for nu, tau in ((0.0, TAU_NATURAL), (0.3, TAU_DUAL), (0.21, 0.4 + 1.3j)):
        q = complex(np.exp(1j * np.pi * np.asarray(tau, dtype=complex)))
        ref3 = complex(mp.jtheta(3, math.pi * nu, q))
        ref2 = complex(mp.jtheta(2, math.pi * nu, q))
        assert abs(theta3(nu, tau) - ref3) < 1e-12 * max(1.0, abs(ref3))
        assert abs(theta2(nu, tau) - ref2) < 1e-12 * max(1.0, abs(ref2))
