"""Coherent-state construction, overlaps, expectations, occupation, quantization."""

import cmath
import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuscs.dynamics import energy_quantized
from mobiuscs.errors import DomainError, PrecisionError
from mobiuscs.states import (
    FockVector,
    LabelBatch,
    StateLabel,
    TAU_NATURAL,
    build_cs,
    default_j_max,
    evolve,
    expect_j,
    expect_u,
    gaussian_supnorm,
    label_batches,
    label_for_center,
    level_grid,
    norm2,
    occupation_law,
    overlap,
    quantization_scan,
    temporal_fidelity,
)
from mobiuscs.theta import theta2, theta3

RNG = np.random.default_rng(314159)

# frozen from the direct-summation oracles (sum over |j| <= 12)
FIDUCIAL_AMPLITUDE_SUM = 2.5066282880429056   # sum_j exp(-j^2/2), j in Z
FIDUCIAL_NORM2_INT = 1.772637204826652        # sum_j exp(-j^2),  j in Z
FIDUCIAL_NORM2_HALF = 1.7722704969843799      # sum_j exp(-j^2),  j in Z + 1/2
UNIT = StateLabel(l=0.0, phi=0.0, r=0.0)      # the unit label: coefficients exp(-j^2/2)

LEVEL_CUTOFFS = (0, 0.4, 0.5, 0.6, 1, 3, 3.5, 3.7, 7.6,
                 math.nextafter(0.5, 0.0), math.nextafter(3.5, 0.0), -0.5)


def mp_sums(center, s, phi=0.0, dps=40):
    """(<J>, <U>, <xi|xi>) at the double ``center`` from 40-digit sums over |j - l'| <= 41.

    The weights are exp(-(j - l')^2) = exp(2*l'*j - j^2) / exp(l'^2); the
    rest weigh below exp(-1600), which is 0 in double precision.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = dps
    c = mp.mpf(center)
    levels = [mp.mpf(k) + s for k in range(math.floor(center - s) - 40,
                                          math.floor(center - s) + 42)]
    weights = [mp.exp(-(j - c) ** 2) for j in levels]
    total = mp.fsum(weights)
    jbar = mp.fsum(j * w for j, w in zip(levels, weights)) / total
    # conj(c_{j+1}) c_j / exp(l'^2) = exp(i*phi) exp(-((j + 1 - l')^2 + (j - l')^2)/2)
    shifted = mp.fsum(mp.exp(-((j + 1 - c) ** 2 + (j - c) ** 2) / 2) for j in levels)
    u = mp.expj(phi) * shifted / total
    return jbar, u, mp.exp(c * c) * total


def brute_levels(j_max, s):
    """Every level of Z + s with |j| <= j_max, filtered from a wider range."""
    return [k + s for k in range(-20, 21) if abs(k + s) <= j_max]


class TestLevelGrid:
    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("j_max", LEVEL_CUTOFFS)
    def test_every_level_within_the_cutoff(self, j_max, s):
        assert level_grid(j_max, s).tolist() == brute_levels(j_max, s)

    # numpy refuses these at once; never test with a cutoff that could allocate
    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("j_max", [1e12, 1e300])
    def test_unallocatable_cutoff_is_a_domain_error(self, j_max, s):
        with pytest.raises(DomainError, match="cannot allocate"):
            level_grid(j_max, s)


class TestBuildCS:
    def test_fiducial_center_coefficient(self):
        v = build_cs(UNIT)
        assert v.c[v.j.size // 2] == 1.0  # j = 0 term of the unit label

    def test_fiducial_amplitude_sum(self):
        v = build_cs(UNIT, j_max=12)
        assert np.sum(v.c).real == pytest.approx(FIDUCIAL_AMPLITUDE_SUM, abs=1e-14)
        assert abs(np.sum(v.c).real - math.sqrt(2 * math.pi)) < 2e-8

    def test_fiducial_norms_both_sectors(self):
        assert build_cs(UNIT, j_max=12).norm2() == pytest.approx(FIDUCIAL_NORM2_INT, abs=1e-14)
        assert build_cs(replace(UNIT, s=0.5), j_max=12).norm2() == pytest.approx(
            FIDUCIAL_NORM2_HALF, abs=1e-14)

    def test_half_sector_coefficient_value(self):
        lab = StateLabel(l=0.0, phi=math.pi, r=0.5, s=0.5)
        v = build_cs(lab)
        idx = np.nonzero(v.j == 0.5)[0][0]
        expected = cmath.exp(0.5 * 0.5 - 1j * math.pi / 2) * math.exp(-0.125)
        assert abs(v.c[idx] - expected) < 1e-15

    def test_coefficients_match_bargmann_conjugate(self):
        lab = StateLabel(l=0.2, phi=1.7, r=0.4, s=0.0)
        v = build_cs(lab)
        for idx in (0, v.j.size // 2, v.j.size - 1):
            j = float(v.j[idx])
            bargmann = cmath.exp(lab.center * j + 1j * lab.phi * j - 0.5 * j * j)
            assert abs(np.conj(v.c[idx]) - bargmann) < 1e-14

    def test_insufficient_cutoff_raises(self):
        lab = StateLabel(l=3.0, phi=0.0, r=0.5)
        with pytest.raises(PrecisionError):
            build_cs(lab, j_max=3)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_peak_overflow_is_a_precision_error(self, s):
        # the peak modulus exp((l'^2 - (j - l')^2)/2) leaves double range from |l'| ~ 37.7
        for center in (37.6, -37.6):
            assert np.isfinite(build_cs(label_for_center(center, 1.0, 0.5, s)).c).all()
        # 2^52 and 1e300 raise before |j| <= |l'| + 9 is allocated
        for center in (37.8, -37.8, 2.0 ** 52, -1e300):
            with pytest.raises(PrecisionError, match="coefficient peak overflows"):
                build_cs(StateLabel(l=center, phi=1.0, r=0.0, s=s))

    def test_label_validation(self):
        with pytest.raises(DomainError):
            StateLabel(l=0.0, phi=0.0, r=1.2)
        with pytest.raises(DomainError):
            StateLabel(l=0.0, phi=0.0, r=0.5, s=0.3)
        with pytest.raises(DomainError):
            StateLabel(l=math.inf, phi=0.0, r=0.5)
        for phi in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="label phi must be finite"):
                StateLabel(l=0.0, phi=phi, r=0.5)


def bits(x):
    return struct.pack("<d", x)


class TestLabelBatch:
    # every kind of label StateLabel refuses, between valid ones of both sectors
    COLUMNS = [
        (0.3, 1.1, 0.5, 0.0), (-2.0, math.pi, 0.0, 0.5), (1.0, 0.0, 1.0, 0.0),
        (1.0, 0.0, -0.1, 0.5), (1.0, 0.0, math.nan, 0.0), (1.0, 0.0, 0.5, 0.25),
        (math.nan, 0.0, 0.5, 0.0), (-math.inf, 0.0, 0.5, 0.5), (0.0, math.nan, 0.5, 0.0),
        (0.0, math.inf, 0.5, 0.5), (27.0, 0.4, 0.9, 0.5), (-0.0, -5.0, 0.2, -0.0),
        (40.0, 2.0, 0.5, 0.0),
    ]

    @staticmethod
    def scalar(point, z_sign=+1):
        """StateLabel at the point, or the text of the DomainError it raises there."""
        try:
            return StateLabel(*point, z_sign=z_sign)
        except DomainError as exc:
            return str(exc)

    @pytest.mark.parametrize("z_sign", [+1, -1])
    def test_rows_and_centers_match_state_label(self, z_sign):
        batches, rejected = label_batches(*zip(*self.COLUMNS), z_sign=z_sign)
        labels = [self.scalar(point, z_sign) for point in self.COLUMNS]
        assert rejected == {i: lab for i, lab in enumerate(labels) if isinstance(lab, str)}
        assert [batch.s for _, batch in batches] == [0.0, 0.5]
        for rows, batch in batches:
            assert all(labels[i].s == batch.s for i in rows)
            for col in (batch.phis, batch.centers):
                assert isinstance(col, np.ndarray) and col.dtype == np.float64
            assert [bits(p) for p in batch.phis] == [bits(labels[i].phi) for i in rows]
            assert [bits(c) for c in batch.centers] == [bits(labels[i].center) for i in rows]
        assert sorted([*rejected, *(i for rows, _ in batches for i in rows)]) == list(
            range(len(self.COLUMNS)))

    @pytest.mark.parametrize("z_sign", [+1, -1])
    def test_random_columns_match_state_label(self, z_sign):
        rng = np.random.default_rng(2718 + z_sign)
        n = 10_000

        def column(values, odd):
            # finite draws, with the odd values planted in about one row in eight
            return np.where(rng.uniform(size=n) < 0.125, rng.choice(odd, n), values).tolist()

        non_finite = [math.inf, -math.inf, math.nan]
        l = column(rng.uniform(-60.0, 60.0, n), non_finite + [1e300, -0.0])
        phi = column(rng.uniform(-30.0, 30.0, n), non_finite + [math.pi, -0.0])
        r = column(rng.uniform(0.0, 1.0, n), [1.0, 1.5, -0.1, math.nan, math.inf, 0.0, 0.999999])
        s = column(rng.choice([0.0, 0.5], n), [0.25, 1.0, -0.5, math.nan, -0.0])
        batches, rejected = label_batches(l, phi, r, s, z_sign=z_sign)
        labels = [self.scalar(point, z_sign) for point in zip(l, phi, r, s)]
        assert rejected == {i: lab for i, lab in enumerate(labels) if isinstance(lab, str)}
        assert 1000 < len(rejected) < n - 1000
        assert sorted([*rejected, *(i for rows, _ in batches for i in rows)]) == list(range(n))
        for rows, batch in batches:
            assert all(labels[i].s == batch.s for i in rows)
            assert [bits(p) for p in batch.phis] == [bits(labels[i].phi) for i in rows]
            assert [bits(c) for c in batch.centers] == [bits(labels[i].center) for i in rows]

    def test_invalid_z_sign_rejects_every_row(self):
        assert label_batches([0.0], [0.0], [0.5], [0.0], z_sign=0) == (
            [], {0: "z_sign must be +1 or -1, got 0"})

    ROUTES = [lambda x: norm2(x, method="theta"), lambda x: expect_j(x, method="ratio"),
              lambda x: expect_u(x, method="dual"), gaussian_supnorm]

    def test_batch_rows_match_one_label_calls_bit_for_bit(self):
        # a StateLabel runs the batch kernel on one label: no row may depend on its batch
        rng = np.random.default_rng(11)
        points = list(zip(rng.uniform(-40, 40, 300), rng.uniform(-20, 20, 300),
                          rng.uniform(0, 0.95, 300), rng.choice([0.0, 0.5], 300)))
        points = [tuple(float(x) for x in p) for p in points]
        batches, rejected = label_batches(*zip(*points))
        assert rejected == {}
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, batch in batches:
                labels = [StateLabel(*points[i]) for i in rows]
                for route in self.ROUTES:
                    many = route(batch)
                    assert many.shape == (len(rows),)
                    for value, lab in zip(many.tolist(), labels):
                        expected = route(lab)
                        assert type(expected) in (float, complex)
                        if isinstance(expected, complex):
                            assert (bits(value.real), bits(value.imag)) == (
                                bits(expected.real), bits(expected.imag))
                        else:
                            assert bits(value) == bits(expected)
                for lab, law in zip(labels, occupation_law(batch)):
                    assert [col.tobytes() for col in law] == [
                        col.tobytes() for col in occupation_law(lab)]

    @staticmethod
    def outcome(call):
        """The bytes of a route's values, or the type and text of the error it raises."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return np.asarray(call()).tobytes()
        except (DomainError, PrecisionError) as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 197])
    def test_batch_of_every_length_matches_one_label_calls(self, s, size):
        # centers |l'| > 1/2: every natural-lattice sum has its peak at n0 = -rint(l') != 0;
        # with one failing label in the middle, a batch raises its first failing row's error
        rng = np.random.default_rng(size)
        l = (rng.uniform(3.0, 26.0, size) * rng.choice([-1.0, 1.0], size)).tolist()
        phi = rng.uniform(-20.0, 20.0, size).tolist()
        for far in (None, 1e300, 2.0 ** 60):
            if far is not None:
                l[size // 2] = far
            [(rows, batch)], rejected = label_batches(l, phi, [0.5] * size, [s] * size)
            assert rejected == {} and np.all(np.abs(batch.centers) > 0.5)
            labels = [StateLabel(*point) for point in zip(l, phi, [0.5] * size, [s] * size)]
            for route in self.ROUTES:
                expected = [self.outcome(lambda: route(lab)) for lab in labels]
                failed = [o for o in expected if isinstance(o, tuple)]
                got = self.outcome(lambda: route(batch))
                assert got == (failed[0] if failed else b"".join(expected))
                if far is not None and route is self.ROUTES[0]:
                    assert failed  # the natural norm fails past |l'| ~ 10^4

    @pytest.mark.parametrize("fn,method", [(norm2, "direct"), (norm2, "modular"),
                                           (expect_j, "theta"), (expect_u, "direct"),
                                           (expect_u, "theta")])
    def test_unbatched_method_is_refused(self, fn, method):
        batch = LabelBatch(centers=[0.1], phis=[0.0], s=0.0)
        with pytest.raises(ValueError, match="takes a LabelBatch with method="):
            fn(batch, method=method)

    @pytest.mark.parametrize("name, kwargs", [
        ("norm2", {"method": "theta"}), ("expect_j", {"method": "ratio"}),
        ("expect_u", {"method": "dual"}), ("gaussian_supnorm", {}), ("occupation_law", {}),
    ])
    def test_one_label_call_enters_one_route(self, name, kwargs, monkeypatch):
        # a tracer wraps the public names: the kernel is reached without calling one again
        import mobiuscs.states as states_module

        calls = []
        for attr in states_module.__all__:
            fn = getattr(states_module, attr)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(states_module, attr,
                                    lambda *a, _fn=fn, _n=attr, **k: calls.append(_n) or _fn(*a, **k))
        getattr(states_module, name)(StateLabel(l=0.3, phi=1.0, r=0.5), **kwargs)
        assert [c for c in calls if c not in ("level_grid", "default_j_max")] == [name]


class TestOverlap:
    def test_self_overlap_at_zero_center(self):
        a = label_for_center(0.0, 1.3, 0.5)
        assert overlap(a, a, method="direct").real == pytest.approx(
            FIDUCIAL_NORM2_INT, abs=1e-13)

    def test_hermitian_symmetry(self):
        a = StateLabel(l=0.2, phi=2.0, r=0.5)
        b = StateLabel(l=-0.4, phi=0.7, r=0.5)
        assert abs(overlap(a, b) - np.conj(overlap(b, a))) < 1e-14

    @settings(deadline=None)
    @given(ls=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
           phis=st.tuples(st.floats(0.0, 4 * math.pi), st.floats(0.0, 4 * math.pi)),
           r=st.floats(0.0, 0.95), s=st.sampled_from([0.0, 0.5]))
    def test_hermitian_symmetry_random(self, ls, phis, r, s):
        a = StateLabel(l=ls[0], phi=phis[0], r=r, s=s)
        b = StateLabel(l=ls[1], phi=phis[1], r=r, s=s)
        for method in ("theta", "direct"):
            assert abs(overlap(a, b, method=method)
                       - np.conj(overlap(b, a, method=method))) < 1e-14

    def test_dual_path_example(self):
        a = StateLabel(l=0.0, phi=math.pi, r=0.5)
        b = StateLabel(l=0.0, phi=0.0, r=0.5)
        d = overlap(a, b, method="direct")
        t = overlap(a, b, method="theta")
        assert abs(d - t) <= 1e-12

    def test_dual_path_random_both_sectors(self):
        pairs = []
        for _ in range(40):
            s = float(RNG.integers(0, 2)) * 0.5
            a = label_for_center(RNG.uniform(-2, 2), RNG.uniform(0, 4 * math.pi), 0.5, s)
            b = label_for_center(RNG.uniform(-2, 2), RNG.uniform(0, 4 * math.pi), 0.5, s)
            pairs.append((a, b))
        rng = np.random.default_rng(1)  # 100 more pairs, all in the s = 0 sector
        for _ in range(100):
            ca, cb = rng.uniform(-2.0, 2.0, size=2)
            pa, pb = rng.uniform(0.0, 4.0 * math.pi, size=2)
            pairs.append((label_for_center(ca, pa, 0.5), label_for_center(cb, pb, 0.5)))
        for a, b in pairs:
            d = overlap(a, b, method="direct")
            t = overlap(a, b, method="theta")
            assert abs(d - t) <= 1e-12 * max(1.0, abs(t))

    def test_mismatched_sectors_rejected(self):
        a = StateLabel(l=0.0, phi=0.0, r=0.5, s=0.0)
        b = StateLabel(l=0.0, phi=0.0, r=0.5, s=0.5)
        with pytest.raises(DomainError):
            overlap(a, b)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("phi2", [1.0, 2.5])
    def test_theta_overflow_is_a_precision_error(self, s, phi2):
        # past l'_a + l'_b ~ 53 the lattice sum is inf (phi2 = phi) or nan (a phase):
        # a PrecisionError either way, and no RuntimeWarning escapes
        for l in (27.0, 30.0, -30.0):
            a = StateLabel(l=l, phi=1.0, r=0.0, s=s)
            b = StateLabel(l=l, phi=phi2, r=0.0, s=s)
            with pytest.raises(PrecisionError, match="theta overlap overflows"):
                overlap(a, b, method="theta")
        a = StateLabel(l=26.0, phi=1.0, r=0.0, s=s)
        assert cmath.isfinite(overlap(a, replace(a, phi=phi2), method="theta"))


class TestNorm:
    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_modular_route_against_mpmath(self, s):
        rng = np.random.default_rng(1313)
        centers = [*rng.uniform(-26.6, 26.6, 200).tolist(), 0.0, 0.5, -0.5, 26.6, -26.6]
        for center in centers:
            got = norm2(label_for_center(center, 0.0, 0.5, s), method="modular")
            ref = float(mp_sums(center, s)[2])
            assert abs(got - ref) <= 1e-13 * ref, center

    @staticmethod
    def theta_norms(centers, s):
        """norm2's bytes at a LabelBatch of the centers, or the text it raises."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                batch = LabelBatch(centers, np.zeros(len(centers)), s)
                return norm2(batch, method="theta").tobytes()
        except PrecisionError as exc:
            return str(exc)

    @staticmethod
    def scalar_theta(centers, s):
        """The real parts of theta3 (s = 0) or theta2 (s = 1/2) at 1j*c/pi, in index order.

        As bytes, or the text of the first entry that raises.
        """
        fn = theta3 if s == 0.0 else theta2
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return np.array([fn(1j * c / math.pi, TAU_NATURAL).real for c in centers]).tobytes()
        except PrecisionError as exc:
            return str(exc)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 197])
    def test_theta_route_is_the_scalar_theta_sum(self, s, size):
        # bit for bit at signed zeros and near the overflow edge; at +-2^52 the lattice
        # sums exceed max_terms, and a batch raises the error of its first failing row
        rng = np.random.default_rng(size)
        centers = [-0.0, 0.0, 26.0, -26.0, 2.0 ** 52, -(2.0 ** 52),
                   *rng.uniform(-40.0, 40.0, 2 * size).tolist()]
        failures = 0
        for lo in range(0, len(centers), size):
            batch = centers[lo:lo + size]
            finite = [c for c in batch if abs(c) < 2.0 ** 52]
            assert self.theta_norms(finite, s) == self.scalar_theta(finite, s)
            expected = self.scalar_theta(batch, s)
            assert self.theta_norms(batch, s) == expected
            failures += isinstance(expected, str)
        assert failures == (2 if size == 1 else 1)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_theta_route_at_a_non_finite_center_fails_at_the_cap(self, s, bad):
        # nu = 1j*(c/pi) is nan+nanj at a NaN center, as 1j*c/pi is; at c = +-inf it is
        # nan+-infj, where Python's complex quotient gives nan+nanj (achieved bound nan)
        centers = np.random.default_rng(6).uniform(-20.0, 20.0, 128).tolist()
        centers[70] = bad
        with pytest.raises(PrecisionError) as info, np.errstate(over="ignore", invalid="ignore"):
            norm2(LabelBatch(centers, np.zeros(len(centers)), s), method="theta")
        assert str(info.value) == "lattice sum did not reach tol=1e-14 within 10000 terms"
        assert repr(info.value.achieved) == ("nan" if math.isnan(bad) else "inf")
        if math.isnan(bad):
            assert self.theta_norms(centers, s) == self.scalar_theta(centers, s)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_theta_route_overflows_to_inf_in_both_sectors(self, s):
        # past |l'| ~ 26.6 (here l' = -707.25 ... -712.25) each row is inf, as the scalar's;
        # no row raises: the caller reports the non-finite value
        centers = (-0.25 - np.linspace(707.0, 712.0, 400)).tolist()
        for batch in (centers, centers[::-1]):
            got = self.theta_norms(batch, s)
            assert got == self.scalar_theta(batch, s)
            assert np.frombuffer(got).tolist() == [math.inf] * len(batch)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_theta_route_against_mpmath_up_to_the_overflow_edge(self, s):
        rng = np.random.default_rng(2424)
        centers = [*rng.uniform(-26.5, 26.55, 600).tolist(),
                   -26.5, -26.3, -26.1, -0.5, -0.0, 0.0, 0.5, 26.1, 26.3, 26.5, 26.55, 26.6]
        got = norm2(LabelBatch(centers, np.zeros(len(centers)), s), method="theta")
        assert np.isfinite(got).all()
        worst = max(abs(g - float(mp_sums(c, s)[2])) / g for g, c in zip(got.tolist(), centers))
        assert worst <= 3e-13

    def test_depends_only_on_center(self):
        a = label_for_center(0.37, 0.5, 0.5)
        b = label_for_center(0.37, 2.9, 0.5)
        assert norm2(a) == pytest.approx(norm2(b), abs=1e-14)

    def test_positive(self):
        assert norm2(StateLabel(l=-1.0, phi=2.2, r=0.8)) > 0.0


class TestExpectJ:
    def test_half_integer_center_is_exact(self):
        lab = StateLabel(l=0.0, phi=math.pi, r=0.5, s=0.5)  # center = 1/2
        assert abs(expect_j(lab, method="ratio") - 0.5) < 1e-12
        assert abs(expect_j(lab, method="theta") - 0.5) < 1e-13
        assert abs(expect_j(lab, method="series") - 0.5) < 1e-13

    def test_zero_center(self):
        lab = label_for_center(0.0, 1.0, 0.5)
        assert abs(expect_j(lab, method="ratio")) < 1e-15

    def test_triple_path_and_correction_scale(self):
        lab = label_for_center(0.3, 1.0, 0.5)
        v1 = expect_j(lab, method="ratio")
        v2 = expect_j(lab, method="theta")
        v3 = expect_j(lab, method="series")
        assert max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3)) <= 1e-10
        q = math.exp(-math.pi**2)
        assert abs(v1 - 0.3) <= 2 * math.pi * q / (1 - q) ** 2  # <= ~3.3e-4

    def test_triple_path_grid(self):
        for s in (0.0, 0.5):
            for l in np.linspace(-1.0, 1.0, 20):
                for phi in np.linspace(0.0, 4 * math.pi, 20, endpoint=False):
                    lab = StateLabel(l=l, phi=phi, r=0.5, s=s)
                    v1 = expect_j(lab, method="ratio")
                    v2 = expect_j(lab, method="theta")
                    v3 = expect_j(lab, method="series")
                    assert max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3)) <= 1e-10

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_ratio_route_against_mpmath(self, s):
        # scale-free weights: finite and within a few ulp of l' at every |l'| <= 40
        rng = np.random.default_rng(4040)
        centers = [*rng.uniform(-40.0, 40.0, 200).tolist(), 26.7, -30.25, 40.0, -39.9]
        batch = LabelBatch(centers=centers, phis=[0.0] * len(centers), s=s)
        for center, got in zip(centers, expect_j(batch, method="ratio").tolist()):
            ref = float(mp_sums(center, s)[0])
            assert abs(got - ref) <= 2 * math.ulp(max(1.0, abs(ref))), center

    @staticmethod
    def symmetric_ratio(center, s):
        """The ratio summed over the symmetric grid level_grid(default_j_max(l'), s)."""
        j = level_grid(default_j_max(center), s)
        d = j - center
        w = np.exp(-(d * d))
        return center + (d * w).sum() / w.sum()

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 197])
    def test_ratio_window_against_the_symmetric_grid(self, s, size):
        # each label sums the levels around rint(l'): the symmetric grid's bytes for
        # |l'| < 1/2, where the two grids coincide, and within 4 ulp of them elsewhere
        rng = np.random.default_rng(size)
        near = [-0.0, 0.0, math.nextafter(0.5, 0.0), -math.nextafter(0.5, 0.0)]
        centers = np.array([*near, *rng.uniform(-0.5, 0.5, size), *rng.uniform(-40.0, 40.0, size),
                            0.5, -0.5, 1.5, -2.5, 26.7, 1000.25, -999.75])
        got = expect_j(LabelBatch(centers, np.zeros(centers.size), s), method="ratio")
        expected = np.array([self.symmetric_ratio(c, s) for c in centers.tolist()])
        small = np.abs(centers) < 0.5
        assert got[small].tobytes() == expected[small].tobytes()
        assert np.all(np.abs(got - expected) <= 4 * np.spacing(np.abs(expected)))

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_ratio_route_at_large_centers(self, s):
        # the window sums 18 to 21 levels at any |l'| < 2^52; from 2^52 on, where every
        # double is an integer, it sums the levels around l' itself and <J> = l'
        centers = [5000.3, -1e4 - 0.7, 1e9 + 0.25, -(2.0 ** 51 + 0.5), 2.0 ** 52 - 0.5]
        batch = LabelBatch(centers=centers, phis=[0.0] * len(centers), s=s)
        for center, got in zip(centers, expect_j(batch, method="ratio").tolist()):
            ref = float(mp_sums(center, s)[0])
            assert abs(got - ref) <= 2 * math.ulp(ref), center
        far = [2.0 ** 52, -(2.0 ** 52), 2.0 ** 53 + 2.0, 1e300, -1.7976931348623157e308]
        got = expect_j(LabelBatch([*centers, *far], [0.0] * 10, s), method="ratio")
        assert got[5:].tolist() == far
        for center in far:
            lab = label_for_center(center, 0.0, 0.5, s)
            assert [expect_j(lab, method=m) for m in ("theta", "series")] == [lab.center] * 2

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("size", [4, 70])
    def test_supnorm_is_periodic_past_the_integer_edge(self, s, size):
        # the law reads only g - f on its window; past 2^52 every double is an integer, f = 0,
        # and each label gives the bits of l' = 0 (default_j_max(9.5e18) is past 2^63)
        far = [9.5e18, 1e17, 2.0 ** 60, -1e300]
        centers = [0.3] * (size - len(far)) + far
        sups = gaussian_supnorm(LabelBatch(centers, [0.0] * size, s))
        at_zero = gaussian_supnorm(StateLabel(l=0.0, phi=0.0, r=0.0, s=s))
        assert sups[-len(far):].tolist() == [at_zero] * len(far)

    def test_correction_vanishes_on_half_lattice(self):
        # sin(2*pi*l') kills the correction at every half-integer center
        for s in (0.0, 0.5):
            for center in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5):
                lab = label_for_center(center, 1.7, 0.5, s)
                for method in ("ratio", "theta", "series"):
                    assert abs(expect_j(lab, method=method) - center) <= 1e-13


class TestExpectU:
    def test_zero_center_value(self):
        # e^{-1/4} * Theta2(0|i/pi)/Theta3(0|i/pi), both from summation oracles
        lab = label_for_center(0.0, 0.8, 0.5)
        expected_mod = math.exp(-0.25) * FIDUCIAL_NORM2_HALF / FIDUCIAL_NORM2_INT
        got = expect_u(lab, method="theta")
        assert abs(got) == pytest.approx(expected_mod, abs=1e-13)
        assert cmath.phase(got) == pytest.approx(0.8, abs=1e-13)

    def test_relative_average_has_unit_modulus(self):
        lab = label_for_center(0.0, 2.1, 0.5)
        ref = StateLabel(l=0.0, phi=0.0, r=0.0)
        ratio = expect_u(lab) / expect_u(ref)
        assert abs(ratio) == pytest.approx(1.0, abs=1e-12)

    def test_modulus_bounded_by_one(self):
        for _ in range(30):
            lab = StateLabel(l=float(RNG.uniform(-2, 2)),
                             phi=float(RNG.uniform(0, 4 * math.pi)),
                             r=float(RNG.uniform(0, 0.95)),
                             s=float(RNG.integers(0, 2)) * 0.5)
            assert abs(expect_u(lab)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_dual_route_against_mpmath(self, s):
        centers = [30.0, 40.0, 1e3, 1e6, -30.0, -40.0, -1e3, -1e6, 0.3, 26.7, 1e6 + 0.37]
        phis = [1.0 + 0.5 * k for k in range(len(centers))]
        dual = expect_u(LabelBatch(centers=centers, phis=phis, s=s), method="dual")
        for center, phi, got in zip(centers, phis, dual.tolist()):
            ref = complex(mp_sums(center, s, phi)[1])
            assert abs(got - ref) <= 1e-15, center
            assert abs(got) <= 1.0

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_dual_route_at_the_ends_of_double_range(self, s):
        at_zero = expect_u(LabelBatch(centers=[0.0], phis=[0.7], s=s), method="dual")
        for l in (1e300, -1e300):
            lab = StateLabel(l=l, phi=0.7, r=0.5, s=s)
            got = expect_u(lab, method="dual")
            assert cmath.isfinite(got) and abs(got) <= 1.0
            assert got == at_zero[0]

    def test_direct_route_past_the_norm_overflow_edge(self):
        # the rescaled coefficients exp(-(j - l')^2/2 - i*phi*j) never overflow
        for center in (30.0, -40.5, 400.2):
            lab = label_for_center(center, 1.3, 0.5)
            direct = expect_u(lab, method="direct")
            assert abs(direct - complex(mp_sums(lab.center, 0.0, 1.3)[1])) <= 1e-13

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_direct_route_at_any_center(self, s):
        # the 18 to 21 levels around round(l'), where l' itself has no grid that fits in memory
        for l in (1e17, -1e300, 2.0 ** 52 + 2.0, -(2.0 ** 53), 1.7976931348623157e308):
            lab = StateLabel(l=l, phi=0.7, r=0.5, s=s)
            direct = expect_u(lab, method="direct")
            assert abs(direct - expect_u(lab, method="dual")) <= 1e-15, l
        for center in (0.3, -7.61, 26.7, -400.5, 1e6 + 0.37, 2.0 ** 51 + 0.5):
            lab = label_for_center(center, 1.3, 0.5, s)
            ref = complex(mp_sums(lab.center, s, 1.3)[1])
            assert abs(expect_u(lab, method="direct") - ref) <= 1e-15, center

    @pytest.mark.parametrize("center,text", [(math.inf, "inf"), (-math.inf, "inf"),
                                             (math.nan, "nan")])
    def test_direct_route_at_a_non_finite_center_keeps_its_error(self, center, text):
        lab = SimpleNamespace(center=center, phi=0.0, s=0.0)
        with pytest.raises(DomainError) as info:
            expect_u(lab, method="direct")
        assert str(info.value) == f"level cutoff j_max must be finite, got {text}"

    def test_operator_action_route(self):
        # raising the vector (U|j> = |j+1>) and contracting reproduces the closed form
        lab = StateLabel(l=0.2, phi=1.3, r=0.5, s=0.5)
        v = build_cs(lab)
        value = complex(np.vdot(v.c[1:], v.c[:-1])) / v.norm2()
        assert abs(value - expect_u(lab, method="theta")) <= 1e-12


class TestDistribution:
    def test_reference_value(self):
        lab = label_for_center(0.0, 1.0, 0.5)
        (p,) = occupation_law(lab, 0.0)[1]
        assert p == pytest.approx(1.0 / FIDUCIAL_NORM2_INT, abs=1e-14)

    def test_normalization(self):
        for s in (0.0, 0.5):
            lab = label_for_center(0.8, 2.0, 0.5, s)
            levels = level_grid(default_j_max(lab.center), s)
            total = sum(occupation_law(lab, float(j))[1][0] for j in levels)
            assert abs(total - 1.0) <= 1e-12

    # |l'| where the direct norm overflows but every weight is finite
    BAND_CENTERS = (26.634, 26.636, 26.638, 26.6405)

    @staticmethod
    def mp_law(center, s, levels, dps=40):
        """Occupation law, its Gaussian limit and their sup-distance at ``levels``.

        From mpmath sums of the weights exp(2*l'*j - j^2) over every level
        within 40 of the center; the rest weigh below exp(-1600), which is 0
        in double precision.
        """
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = dps
        c = mp.mpf(center)
        lo = math.floor(center - s) - 40
        weights = {k + s: mp.exp(2 * c * (k + s) - mp.mpf(k + s) ** 2) for k in range(lo, lo + 82)}
        norm = mp.fsum(weights.values())
        scale = mp.exp(-c * c) / mp.sqrt(mp.pi)   # exp(2*l'*j - j^2 - l'^2) = exp(-(j - l')^2)
        law = [weights.get(j, mp.mpf(0)) / norm for j in levels]
        gauss = [weights.get(j, mp.mpf(0)) * scale for j in levels]
        sup = max(abs(p - g) for p, g in zip(law, gauss))
        return [float(p) for p in law], [float(g) for g in gauss], float(sup)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_norm_overflow_band_against_mpmath(self, s):
        in_band = 0
        for center in self.BAND_CENTERS:
            lab = StateLabel(l=center, phi=0.0, r=0.0, s=s)   # r = 0: l' = l
            levels = level_grid(default_j_max(center), s)
            law, _, sup = self.mp_law(center, s, levels, dps=30)
            with np.errstate(over="ignore"):
                in_band += norm2(lab, method="direct") == math.inf
            got = [occupation_law(lab, float(j))[1][0] for j in levels]
            assert max(abs(g - w) for g, w in zip(got, law)) <= 1e-10
            assert abs(gaussian_supnorm(lab) - sup) <= 1e-10
        assert in_band == len(self.BAND_CENTERS)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_law_against_mpmath_at_any_center(self, s):
        # the weights exp(-(j - l')^2) hold 1e-15 absolute where exp(2*l'*j - j^2)
        # lost 5e-14 (|l'| <= 26) or overflowed (past |l'| ~ 26.64)
        rng = np.random.default_rng(2718)
        centers = [*rng.uniform(-26.0, 26.0, 300).tolist(),
                   30.0, -30.0, 100.25, -100.25, 1000.7, -1000.7]
        batch = LabelBatch(centers=centers, phis=[0.0] * len(centers), s=s)
        sups = gaussian_supnorm(batch)
        for center, (levels, law, gauss), sup in zip(centers, occupation_law(batch), sups):
            j0 = round(center)
            assert levels.tolist() == (j0 + level_grid(default_j_max(center - j0), s)).tolist()
            mp_p, mp_g, mp_sup = self.mp_law(center, s, levels.tolist())
            assert np.max(np.abs(law - mp_p)) <= 1e-15, center
            assert np.max(np.abs(gauss - mp_g)) <= 1e-15, center
            assert abs(sup - mp_sup) <= 1e-15, center

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("center", [40.2, -40.2, 1000.7])
    def test_far_center_law_sums_to_one(self, center, s):
        levels, law, gauss = occupation_law(StateLabel(l=center, phi=0.0, r=0.0, s=s))
        assert abs(math.fsum(law.tolist()) - 1.0) <= 1e-14
        assert levels[np.argmax(law)] == round(center - s) + s

    def test_supnorm_matches_per_level_distribution(self):
        for center in (-7.3, 0.0, 0.42, 12.9, 26.6, 26.636, 26.645, 40.0):
            for s in (0.0, 0.5):
                lab = StateLabel(l=center, phi=0.0, r=0.0, s=s)
                levels, law, gauss = occupation_law(lab)
                assert [occupation_law(lab, j)[1][0] for j in levels.tolist()] == law.tolist()
                assert gaussian_supnorm(lab) == max(abs(p - g) for p, g in zip(law, gauss))

    def test_level_alone_is_its_entry_of_the_law(self):
        lab = StateLabel(l=0.9, phi=1.0, r=0.5, s=0.5)
        levels, law, gauss = occupation_law(lab)
        for k, j in enumerate(levels.tolist()):
            one = occupation_law(lab, j)
            assert [col.tolist() for col in one] == [[j], [law[k]], [gauss[k]]]
        # a level past the window weighs exp(-d^2), d = (j - j0) - f, against the window's sum
        j0 = round(lab.center)
        f = lab.center - j0
        norm = math.fsum(math.exp(-((j - j0 - f) ** 2)) for j in levels.tolist())
        for far in (levels[-1] + 5.0, levels[0] - 3.0):
            (j,), (p,), (g,) = occupation_law(lab, far)
            w = math.exp(-((far - j0 - f) ** 2))
            assert j == far and p == pytest.approx(w / norm, rel=1e-14)
            assert g == pytest.approx(w / math.sqrt(math.pi), rel=1e-14) and g > 0.0
        # past |l'| + 28 the weight is 0.0 in double precision
        for level in (levels[-1] + 19.0, levels[-1] + 20.0, -1e12 - 0.5, 2.0**51 + 0.5):
            law = occupation_law(lab, level)
            assert [col.tolist() for col in law] == [[level], [0.0], [0.0]]
            assert math.exp(-((level - lab.center) ** 2)) == 0.0

    def test_off_lattice_level_rejected(self):
        lab = StateLabel(l=0.0, phi=0.0, r=0.5, s=0.0)
        with pytest.raises(DomainError):
            occupation_law(lab, 0.25)


class TestQuantizationScan:
    def test_border_roots_half_sector(self):
        roots = quantization_scan(0.5, 0.0, s=0.5)
        assert roots == pytest.approx([math.pi, 3 * math.pi])
        values = [expect_j(StateLabel(l=0.0, phi=p, r=0.5, s=0.5), method="ratio")
                  for p in roots]
        assert values[0] == pytest.approx(0.5, abs=1e-12)
        assert values[1] == pytest.approx(-0.5, abs=1e-12)

    def test_quarter_width_example(self):
        roots = quantization_scan(0.25, 0.25, s=0.5)
        assert math.pi in [pytest.approx(p) for p in roots]
        lab = StateLabel(l=0.25, phi=math.pi, r=0.25, s=0.5)
        assert lab.center == pytest.approx(0.5, abs=1e-15)
        assert expect_j(lab, method="ratio") == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_width_all_angles(self):
        roots = quantization_scan(0.0, 0.5, s=0.5)
        assert len(roots) == 256
        assert roots == pytest.approx(np.linspace(0.0, 4 * math.pi, 256, endpoint=False).tolist())
        assert quantization_scan(0.0, 0.3, s=0.5) == []

    def test_realized_values_on_sector_lattices(self):
        realized_half = set()
        for base in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for phi in quantization_scan(0.5, base - 0.5, s=0.5):
                lab = StateLabel(l=base - 0.5, phi=phi, r=0.5, s=0.5)
                val = expect_j(lab, method="ratio")
                assert abs(val - 0.5 - round(val - 0.5)) <= 1e-12
                realized_half.add(round(val + 0.5) - 0.5)
        assert len(realized_half) >= 2  # a genuine half-odd lattice, not one point

        for base in (-1.0, 0.0, 1.0):
            for phi in quantization_scan(0.5, base - 0.5, s=0.0):
                lab = StateLabel(l=base - 0.5, phi=phi, r=0.5, s=0.0)
                val = expect_j(lab, method="ratio")
                assert abs(val - round(val)) <= 1e-12

    def test_roots_past_the_norm_overflow_edge(self):
        # the ratio route's weights exp(-(j - l')^2) stay finite at l' = 30 +/- 1/2
        assert quantization_scan(0.5, 30.0, s=0.5) == [math.pi, 3 * math.pi]
        values = [expect_j(StateLabel(l=30.0, phi=p, r=0.5, s=0.5), method="ratio")
                  for p in (math.pi, 3 * math.pi)]
        assert values == [30.5, 29.5]

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("r", [0.0, 0.5])
    @pytest.mark.parametrize("l", [2.0 ** 52, -(2.0 ** 52) - 4.0, 1e300, -1.7976931348623157e308])
    def test_lattice_past_2_52_is_not_resolved(self, l, r, s):
        # every double is an integer there: Z + 1/2 has none, and the rounding of l' reaches
        # the lattice spacing, so no root is reported
        with pytest.raises(PrecisionError, match="cannot resolve the level lattice"):
            quantization_scan(r, l, s=s)

    def test_roots_just_below_2_52(self):
        l = 2.0 ** 52 - 1.0
        assert quantization_scan(0.5, l, s=0.5) == [math.pi, 3 * math.pi]
        assert quantization_scan(0.5, l, s=0.0) == []


class TestEvolution:
    def test_zero_time_is_identity(self):
        v = build_cs(StateLabel(l=0.3, phi=1.0, r=0.5))
        w = evolve(v, 0.0, 0.5)
        assert np.array_equal(v.c, w.c)

    def test_norm_preserved(self):
        v = build_cs(StateLabel(l=0.3, phi=1.0, r=0.5, s=0.5))
        for t in (0.7, 13.9, 150.0):
            w = evolve(v, t, 0.5, L0=0.4)
            assert w.norm2() == pytest.approx(v.norm2(), abs=1e-14)

    def test_energies_match_per_level_loop(self):
        v = build_cs(StateLabel(l=1.7, phi=0.4, r=0.5, s=0.5))
        for t, r, L0 in ((0.7, 0.5, 0.4), (13.9, 0.0, -1.3), (150.0, 0.93, 0.0)):
            energies = np.array([energy_quantized(j, L0, r) for j in v.j])
            expected = v.c * np.exp(-1j * energies * t)
            assert evolve(v, t, r, L0=L0).c.tobytes() == expected.tobytes()

    def test_fidelity_diagnostic(self):
        lab = StateLabel(l=0.0, phi=math.pi, r=0.5, s=0.5)
        assert temporal_fidelity(lab, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert temporal_fidelity(lab, 2.0) < 1.0  # quadratic spectrum disperses


class TestBargmann:
    # the analytic coefficient (xi*)^{-j} exp(-j^2/2) = conj(<j|xi>), written inline
    def test_unit_label(self):
        lab = StateLabel(l=0.0, phi=0.0, r=0.0)
        v = build_cs(lab)
        j = 0.0
        bargmann = cmath.exp(lab.center * j + 1j * lab.phi * j - 0.5 * j * j)
        assert bargmann == np.conj(v.c[v.j == j][0]) == 1.0

    def test_distribution_consistency(self):
        lab = StateLabel(l=0.1, phi=2.7, r=0.5, s=0.5)
        for j in (-0.5, 0.5, 1.5):
            bargmann = cmath.exp(lab.center * j + 1j * lab.phi * j - 0.5 * j * j)
            p = abs(bargmann) ** 2 / norm2(lab)
            assert p == pytest.approx(occupation_law(lab, j)[1][0], rel=1e-12)


class TestContinuity:
    def test_lipschitz_on_grid(self):
        # normalized-vector distance against label distance; C recorded below
        C = 6.0
        base = StateLabel(l=0.2, phi=1.0, r=0.5)
        v0 = build_cs(base, j_max=12)
        v0n = v0.c / v0.norm()
        for dl, dphi in ((1e-3, 0.0), (0.0, 1e-3), (1e-4, -1e-4), (-2e-3, 1e-3)):
            lab = StateLabel(l=0.2 + dl, phi=1.0 + dphi, r=0.5)
            v1 = build_cs(lab, j_max=12)
            dist = np.linalg.norm(v1.c / v1.norm() - v0n)
            assert dist <= C * (abs(dl) + abs(dphi))
