"""Embeddings, constraint, double cover, and the label map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuscs import dynamics, geometry
from mobiuscs.errors import DomainError
from mobiuscs.geometry import (
    TorusGeometry,
    _distinct,
    _libm,
    coherent_label,
    constraint_theta,
    label_center,
    label_centers,
    mobius_point,
    torus_point,
)

G = TorusGeometry(R=1.0, r=0.5, l=0.0)


class TestTorusPoint:
    def test_substitution_values(self):
        np.testing.assert_allclose(torus_point(0.0, 0.0, G), [1.0, 0.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(torus_point(math.pi / 2, 0.0, G), [1.5, 0.0, 0.0], atol=1e-15)

    def test_degenerate_tube_is_circle(self):
        g0 = TorusGeometry(R=1.0, r=0.0, l=0.3)
        for theta in np.linspace(0, 2 * math.pi, 7):
            p = torus_point(theta, 1.1, g0)
            np.testing.assert_allclose(p, [math.cos(1.1), math.sin(1.1), 0.3], atol=1e-15)

    def test_invalid_geometry(self):
        with pytest.raises(DomainError):
            TorusGeometry(R=1.0, r=1.0)


class TestConstraint:
    def test_values(self):
        assert constraint_theta(0.0) == math.pi / 2
        assert constraint_theta(math.pi) == math.pi
        assert constraint_theta(2 * math.pi) == 1.5 * math.pi

    def test_double_cover_of_embedded_point(self):
        p0 = torus_point(constraint_theta(0.0), 0.0, G)
        p2 = torus_point(constraint_theta(2 * math.pi), 2 * math.pi, G)
        p4 = torus_point(constraint_theta(4 * math.pi), 4 * math.pi, G)
        assert np.max(np.abs(p0 - p2)) > 0.1          # orientation reversal
        assert np.max(np.abs(p0 - p4)) < 4e-15        # closes after 4*pi


class TestMobiusPoint:
    def test_substitution_values(self):
        np.testing.assert_allclose(mobius_point(0.0, G), [1.5, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(mobius_point(math.pi, G, z_sign=+1), [-1.0, 0.0, 0.5],
                                   atol=1e-15)

    def test_equals_constrained_torus_point(self):
        for phi in np.linspace(0.0, 4 * math.pi, 100, endpoint=False):
            pm = mobius_point(phi, G, z_sign=-1)
            pt = torus_point(constraint_theta(phi), phi, G)
            assert np.max(np.abs(pm - pt)) <= 1e-15

    def test_double_cover(self):
        # the 4*pi shift is exact up to trig argument rounding at |phi| ~ 12*pi
        for phi in np.linspace(0.0, 4 * math.pi, 50, endpoint=False):
            p0 = mobius_point(phi, G)
            p2 = mobius_point(phi + 2 * math.pi, G)
            p4 = mobius_point(phi + 4 * math.pi, G)
            assert np.max(np.abs(p0 - p4)) <= 4e-15
            if min(abs(math.cos(phi / 2)), abs(math.sin(phi / 2))) > 0.05:
                assert np.max(np.abs(p0 - p2)) > 1e-3

    def test_invalid_sign(self):
        with pytest.raises(DomainError):
            mobius_point(0.0, G, z_sign=0)


class TestLabel:
    def test_substitution_values(self):
        assert coherent_label(0.0, 0.0, 0.5) == pytest.approx(1.5, abs=1e-15)
        assert coherent_label(0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        expected = -math.exp(-0.5)
        got = coherent_label(0.0, math.pi, 0.5, z_sign=+1)
        assert abs(got - expected) < 1e-15

    def test_center_values(self):
        assert label_center(0.0, math.pi, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert label_center(0.7, 1.3, 0.0) == pytest.approx(0.7, abs=1e-15)
        assert label_center(0.0, 0.0, 0.5) == pytest.approx(-math.log(1.5), abs=1e-15)

    def test_center_is_log_modulus(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            l = rng.uniform(-2, 2)
            phi = rng.uniform(0, 4 * math.pi)
            r = rng.uniform(0, 0.95)
            z = int(rng.choice([-1, 1]))
            xi = coherent_label(l, phi, r, z)
            assert abs(math.log(abs(xi)) + label_center(l, phi, r, z)) <= 1e-14

    def test_phase_is_angle(self):
        for phi in (0.3, 2.0, 5.5):
            xi = coherent_label(0.2, phi, 0.4)
            assert abs((np.angle(xi) - phi + math.pi) % (2 * math.pi) - math.pi) < 1e-14

    def test_modulus_strictly_positive(self):
        assert abs(coherent_label(0.0, 2 * math.pi, 0.9)) >= (1 - 0.9) * math.exp(-0.9) - 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            coherent_label(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            label_center(0.0, 0.0, -0.1)
        with pytest.raises(DomainError):
            label_centers(np.zeros(2), np.zeros(2), np.array([0.5, 1.0]))
        with pytest.raises(DomainError):
            label_centers(np.zeros(2), np.zeros(2), np.zeros(2), z_sign=0)

    @pytest.mark.parametrize("z_sign", [+1, -1])
    def test_centers_are_label_center_bit_for_bit(self, z_sign):
        rng = np.random.default_rng(8)
        # mostly small l, where a last-bit change in sin, cos or log shows in the center
        l = np.where(rng.uniform(size=5000) < 0.1,
                     rng.uniform(-1e3, 1e3, 5000), rng.uniform(-3.0, 3.0, 5000))
        phi = rng.uniform(-1e4, 1e4, 5000)
        r = np.where(rng.uniform(size=5000) < 0.1, 0.0, rng.uniform(0.0, 1.0, 5000))
        expected = [label_center(*point, z_sign) for point in zip(l.tolist(), phi.tolist(), r.tolist())]
        assert label_centers(l, phi, r, z_sign).tobytes() == np.array(expected).tobytes()


# a small pool makes repeats likely; 0.0 and -0.0 are two entries of it
POOL = [0.0, -0.0, 0.5, -0.5, math.pi, 1e-300, -1e300, 2.0 ** 52, 7.25]


class TestLibm:
    @settings(max_examples=200, deadline=None)
    @given(col=st.one_of(
        st.lists(st.sampled_from(POOL), max_size=60),
        st.lists(st.floats(-1e6, 1e6), max_size=60),
        st.lists(st.floats(-1e6, 1e6), max_size=30, unique=True),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6).flatmap(
            lambda values: st.lists(st.sampled_from(values), max_size=60))))
    def test_matches_mapped_math_bit_for_bit(self, col):
        col = np.array(col, dtype=float)
        for fn in (math.sin, math.cos, math.atan, lambda x: math.copysign(1.0, x)):
            calls = []
            got = _libm(lambda x: calls.append(x) or fn(x), col)
            assert got.tobytes() == np.array([fn(x) for x in col.tolist()], dtype=float).tobytes()
            distinct = len({x.hex() for x in col.tolist()})  # -0.0 apart from 0.0
            # once per distinct bit pattern when at most half the rows are distinct
            assert len(calls) == (distinct if 2 * distinct <= col.size else col.size)

    def test_signed_zeros_stay_apart(self):
        col = np.array([0.0, -0.0] * 8)
        assert _libm(lambda x: math.copysign(1.0, x), col).tolist() == [1.0, -1.0] * 8

    @pytest.mark.parametrize("col", [np.repeat(np.linspace(0.0, 2 * math.pi, 50), 40),
                                     np.random.default_rng(6).standard_normal(2000)])
    def test_functions_share_one_dedupe(self, col):
        sin, cos = _libm((math.sin, math.cos), col)
        assert sin.tobytes() == _libm(math.sin, col).tobytes()
        assert cos.tobytes() == _libm(math.cos, col).tobytes()

    def test_one_dedupe_per_angle_column(self, monkeypatch):
        l, phi = (axis.ravel() for axis in np.meshgrid(
            np.linspace(-32.0, 32.0, 100), np.linspace(0.0, 4 * math.pi, 100), indexing="ij"))
        r = np.full(l.size, 0.5)
        calls = []
        monkeypatch.setattr(geometry, "_distinct",
                            lambda bits, fn=geometry._distinct: calls.append(bits.size) or fn(bits))
        centers = label_centers(l, phi, r)
        energies = dynamics.mobius_hamiltonians(l, r, phi, r)
        # sin and cos of phi/2 share one dedupe; log and pow take one more column each
        assert calls == [l.size] * 4
        rows = list(zip(l.tolist(), phi.tolist()))
        assert centers.tobytes() == np.array([label_center(x, p, 0.5) for x, p in rows]).tobytes()
        assert energies.tobytes() == np.array(
            [dynamics.mobius_hamiltonian(x, 0.5, p, 0.5) for x, p in rows]).tobytes()


class TestDistinct:
    @staticmethod
    def bits(col):
        return np.ascontiguousarray(col, dtype=np.float64).view(np.int64)

    @pytest.mark.parametrize("n_first, n_last", [
        (100, 100), (2, 5000), (5000, 2), (10, 1000), (1000, 10), (3, 4000), (40, 25),
        (7, 1500), (1, 1024),
    ])
    def test_both_axes_of_a_grid_are_deduped(self, n_first, n_last):
        # the first axis repeats in runs of n_last rows, the last with period n_last
        first, last = np.meshgrid(np.linspace(-32.0, 32.0, n_first),
                                  np.linspace(0.0, 4 * math.pi, n_last), indexing="ij")
        for axis in (first.ravel(), last.ravel()):
            kept = np.unique(self.bits(axis))
            if 2 * kept.size <= axis.size:
                assert _distinct(self.bits(axis)).tolist() == kept.tolist()
            else:  # (1, 1024): the only axis is all distinct
                assert _distinct(self.bits(axis)) is None

    def test_rule_below_the_probe(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 17, 500, 1023):
            for col in (rng.standard_normal(n), rng.integers(0, max(1, n // 2), n) * 0.5,
                        np.zeros(n), np.where(np.arange(n) % 2 == 0, 0.0, -0.0)):
                kept = np.unique(self.bits(col))
                got = _distinct(self.bits(col))
                assert (got is None if 2 * kept.size > n else got.tolist() == kept.tolist())

    def test_distinct_column_is_not_sorted(self, monkeypatch):
        sizes = []
        sort = np.sort
        monkeypatch.setattr(np, "sort",
                            lambda a, *args, **kw: sizes.append(a.size) or sort(a, *args, **kw))
        col = np.random.default_rng(4).standard_normal(10_000)
        assert _distinct(self.bits(col)) is None
        assert sizes and max(sizes) <= 4 * math.isqrt(col.size)
        calls = []
        assert _libm(lambda x: calls.append(x) or math.exp(x), col).tobytes() == np.array(
            [math.exp(x) for x in col.tolist()]).tobytes()
        assert len(calls) == col.size and max(sizes) <= 4 * math.isqrt(col.size)
