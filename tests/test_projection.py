"""Torus factorization, projected overlap, constraint projector, circle relabeling."""

import ast
import cmath
import importlib
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mobiuscs
from mobiuscs import projection
from mobiuscs.errors import DomainError, PrecisionError
from mobiuscs.geometry import constraint_theta
from mobiuscs.projection import (
    BOUNDARY_TOL,
    TAIL_TOL,
    ProjectionSpec,
    _si,
    build_torus_cs,
    project_mobius_to_circle,
    project_overlap,
    torus_centers,
    universal_projector,
    universal_projectors,
    valid_specs,
)
from mobiuscs.states import StateLabel, build_cs, label_for_center, overlap

RNG = np.random.default_rng(2718)


class TestTorusCenters:
    def test_constraint_collapses_auxiliary_terms(self):
        for phi in (0.4, 2.2, 5.0):
            _, aux = torus_centers(0.3, constraint_theta(phi), phi, 0.5)
            assert aux == pytest.approx(2.0 * math.pi * math.sin(phi) ** 2, rel=1e-13)

    def test_cylinder_limit(self):
        assert torus_centers(0.7, 1.0, 2.0, 0.0)[0] == 0.7

    def test_substitution_value(self):
        assert abs(torus_centers(0.0, math.pi, math.pi, 0.5)[0] + 0.5) < 1e-15

    def test_strip_center_is_the_z_sign_minus_label_center(self):
        for l, phi, r in ((0.2, 0.7, 0.5), (-3.0, 5.5, 0.9), (1e300, 1.0, 0.3)):
            lab = StateLabel(l=l, phi=phi, r=r, z_sign=-1)
            assert torus_centers(l, 0.0, phi, r)[0] == lab.center

    def test_half_width_checked(self):
        with pytest.raises(DomainError):
            torus_centers(0.0, 0.0, 0.0, 1.0)


class TestTorusFock:
    def test_marginal_matches_strip_state(self):
        # b_0 = 1 exactly, so the m = 0 slice is the strip plane a_j itself
        tf = build_torus_cs(0.2, 1.3, 0.7, 0.5)
        lab = StateLabel(l=0.2, phi=0.7, r=0.5, z_sign=-1)
        v = build_cs(lab, j_max=float(tf.j[-1]))
        assert tf.b[tf.m == 0].tolist() == [1.0]
        assert np.max(np.abs(tf.a - v.c)) <= 1e-12

    def test_fiducial_torus_coefficients(self):
        tf = build_torus_cs(0.0, 0.0, 0.0, 0.0, j_max=8)
        np.testing.assert_allclose(tf.a, np.exp(-0.5 * tf.j**2), atol=1e-15)
        np.testing.assert_allclose(tf.b, np.exp(-0.5 * tf.m.astype(float) ** 2), atol=1e-15)


def random_labels(rng, n, s):
    """n pairs of z_sign = -1 labels, each of one (r, s): r in (0.05, 0.95), |l| <= 3."""
    pairs = []
    for _ in range(n):
        r = float(rng.uniform(0.05, 0.95))
        pairs.append(tuple(StateLabel(l=float(rng.uniform(-3.0, 3.0)),
                                      phi=float(rng.uniform(0, 4 * math.pi)), r=r, s=s,
                                      z_sign=-1) for _ in range(2)))
    return pairs


# label l values at and past the overflow edge, next to ordinary ones
EDGE_L = [40.0, -40.0, 1e4, -1e4, 1e300, -1e300]


class TestProjectedOverlap:
    def test_self_overlap_real_positive(self):
        a = StateLabel(l=0.3, phi=2.0, r=0.5, z_sign=-1)
        val = project_overlap(a, a)
        assert abs(val.imag) < 1e-13 * abs(val)
        assert val.real > 0.0

    def test_circle_limit(self):
        for rng, n_pairs in ((RNG, 10), (np.random.default_rng(9), 20)):
            for _ in range(n_pairs):
                a, b = (StateLabel(l=float(rng.uniform(-1, 1)),
                                   phi=float(rng.uniform(0, 2 * math.pi)), r=0.0, z_sign=-1)
                        for _ in range(2))
                chain = project_overlap(a, b)
                circle = overlap(a, b, method="theta")
                assert abs(chain - circle) <= 1e-10 * max(1.0, abs(circle))

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_contraction_matches_theta_overlap(self, s):
        for a, b in random_labels(np.random.default_rng(31 + int(2 * s)), 200, s):
            closed = overlap(a, b, method="theta")
            assert abs(project_overlap(a, b) - closed) <= 1e-12 * max(1.0, abs(closed))

    @pytest.mark.parametrize("signs", [(1, -1), (-1, 1), (1, 1)])
    def test_z_sign_plus_is_refused(self, signs):
        a, b = (StateLabel(l=0.3, phi=2.0, r=0.5, z_sign=z) for z in signs)
        with pytest.raises(DomainError, match="z_sign"):
            project_overlap(a, b)

    @pytest.mark.parametrize("other", [dict(r=0.4), dict(s=0.5)])
    def test_mismatched_half_width_or_offset_is_refused(self, other):
        a = StateLabel(l=0.3, phi=2.0, r=0.5, z_sign=-1)
        b = StateLabel(**{"l": 0.1, "phi": 1.0, "r": 0.5, "z_sign": -1, **other})
        with pytest.raises(DomainError, match="matching"):
            project_overlap(a, b)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("l", EDGE_L)
    def test_overflow_is_a_precision_error(self, l, s):
        a = StateLabel(l=l, phi=1.0, r=0.5, s=s, z_sign=-1)
        with pytest.raises(PrecisionError, match="projected overlap overflows"):
            project_overlap(a, a)

    @settings(deadline=None)
    @given(l=st.one_of(st.floats(-30.0, 30.0), st.sampled_from(EDGE_L)),
           l2=st.one_of(st.floats(-30.0, 30.0), st.sampled_from(EDGE_L)),
           phis=st.tuples(*[st.floats(-4 * math.pi, 4 * math.pi)] * 2),
           r=st.floats(0.0, 1.0, exclude_max=True), s=st.sampled_from([0.0, 0.5]),
           z_signs=st.sampled_from([(-1, -1), (-1, 1), (1, -1), (1, 1)]))
    @example(l=40.0, l2=-40.0, phis=(0.0, 1.0), r=0.5, s=0.5, z_signs=(-1, -1))
    @example(l=1e300, l2=-1e300, phis=(2.0, 1.0), r=0.9, s=0.0, z_signs=(-1, -1))
    def test_contract(self, l, l2, phis, r, s, z_signs):
        # a finite complex, or DomainError/PrecisionError; never a RuntimeWarning
        a = StateLabel(l=l, phi=phis[0], r=r, s=s, z_sign=z_signs[0])
        b = StateLabel(l=l2, phi=phis[1], r=r, s=s, z_sign=z_signs[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if 1 in z_signs:
                with pytest.raises(DomainError):
                    project_overlap(a, b)
                return
            try:
                value = project_overlap(a, b)
            except PrecisionError:
                return
        assert isinstance(value, complex) and cmath.isfinite(value)


def referenced_names(tree: ast.Module) -> set:
    """Every name a module's code reads, leaving out each top-level definition's reads of itself."""
    names = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            name = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                names.add(name)
    return names


@pytest.mark.parametrize("module", ["theta", "geometry", "states", "dynamics", "projection",
                                    "report"])
def test_every_public_name_has_a_caller_in_src(module):
    # a public name serves the CLI or backs a verify check; one only tests reach is dead
    src = pathlib.Path(projection.__file__).parent
    used = set().union(*(referenced_names(ast.parse(path.read_text()))
                         for path in src.glob("*.py")))
    names = importlib.import_module(f"mobiuscs.{module}").__all__
    assert [name for name in names if name not in used] == []


class TestUniversalProjector:
    def test_satisfied_constraint(self):
        spec = ProjectionSpec(theta=constraint_theta(1.2), phi=1.2, delta=0.1)
        assert universal_projector(spec, method="indicator") == 1.0
        assert universal_projector(spec, method="quadrature") == pytest.approx(1.0, abs=1e-3)

    def test_outside_window(self):
        spec = ProjectionSpec(theta=constraint_theta(1.2) + 0.2, phi=1.2, delta=0.1)
        assert universal_projector(spec, method="indicator") == 0.0
        assert universal_projector(spec, method="quadrature") == pytest.approx(0.0, abs=1e-3)

    def test_boundary_half(self):
        spec = ProjectionSpec(theta=constraint_theta(1.2) + 0.1, phi=1.2, delta=0.1)
        assert universal_projector(spec, method="indicator") == 0.5
        assert universal_projector(spec, method="quadrature") == pytest.approx(0.5, abs=5e-3)

    def test_idempotent_values(self):
        for ratio in (0.0, 0.4, 1.7, 3.0):
            spec = ProjectionSpec(theta=constraint_theta(0.3) + ratio * 0.1,
                                  phi=0.3, delta=0.1)
            ind = universal_projector(spec, method="indicator")
            assert ind * ind == ind
            qd = universal_projector(spec, method="quadrature")
            assert abs(qd * qd - qd) <= 2e-3
            assert 0.0 <= qd <= 1.0

    def test_window_validation(self):
        with pytest.raises(DomainError):
            ProjectionSpec(theta=0.0, phi=0.0, delta=0.0)

    @pytest.mark.parametrize("field,value", [
        ("theta", math.nan), ("theta", math.inf), ("phi", math.nan), ("phi", -math.inf),
        ("delta", math.nan), ("delta", math.inf), ("delta", 1e200), ("theta", 1e200),
    ])
    def test_non_finite_spec_rejected(self, field, value):
        spec = {"theta": 0.0, "phi": 0.0, "delta": 0.1, field: value}
        with pytest.raises(DomainError):
            ProjectionSpec(**spec)

    def test_boundary_quadrature_is_the_truncated_integral(self):
        # the quadrature route is the Dirichlet integral truncated at the
        # certified cutoff L; at the boundary both Si arguments are extreme
        # (c_plus*L = 16*T = 1.28e6, c_minus*L ~ 0), and the value must be
        # that truncated integral, not only near 1/2
        mp = pytest.importorskip("mpmath")
        spec = ProjectionSpec(theta=constraint_theta(1.0) + 0.1, phi=1.0, delta=0.1)
        x2 = spec.argument ** 2
        a = spec.delta ** 2
        coeffs = [c for c in (a + x2, a - x2) if c != 0.0]
        floor = max(min(abs(c) for c in coeffs), (a + x2) / 16.0)
        with mp.workdps(40):
            cutoff = mp.mpf(8.0 / TAIL_TOL) / floor
            exact = float(sum(mp.si(c * cutoff) for c in coeffs) / mp.pi)
        qd = universal_projector(spec, method="quadrature")
        assert abs(qd - exact) <= 1e-12


# (defect, delta) at |defect^2 - delta^2| = BOUNDARY_TOL * max(1, delta^2) exactly,
# outside the window and inside it
BOUNDARY_ROWS = [("0x1.9218890c37ce7p-15", "0x1.2e2de5bbe9a89p-15"),
                 ("0x1.7ca99733f0257p-15", "0x1.1102e430f1935p-15"),
                 ("0x1.dd36f1646815cp-18", "0x1.0fe5361018eebp-15"),
                 ("0x1.3c4c72ed837adp-17", "0x1.14ce541d9f09ep-15")]

# (defect, delta) on the window's edge where libm's pow(x, 2) and numpy's x*x
# put the row on different sides of it
POW_FLIP_ROWS = [("0x1.82b96258e5ae1p-1", "0x1.82b9625335fdcp-1"),
                 ("0x1.82b9624d864d7p-1", "0x1.82b9625335fdcp-1"),
                 ("0x1.10e6654e407e7p-16", "0x1.2a4eb61b171bcp-15"),
                 ("0x1.9f0837b2e867bp+0", "0x1.9f0837af6d216p+0"),
                 ("0x1.c049fa8e79e39p-1", "0x1.c049fa89921d4p-1"),
                 ("0x1.c049fa84aa56fp-1", "0x1.c049fa89921d4p-1")]


def scalar_indicators(theta, phi, delta):
    return [universal_projector(ProjectionSpec(*row), method="indicator")
            for row in zip(theta.tolist(), phi.tolist(), delta.tolist())]


class TestProjectorColumn:
    def test_matches_the_scalar_indicator_bit_for_bit(self):
        rng = np.random.default_rng(61)
        n = 10_000
        phi = rng.uniform(-4 * math.pi, 4 * math.pi, n)
        delta = rng.uniform(1e-3, 3.0, n)
        theta = constraint_theta(phi) + rng.uniform(-2.0, 2.0, n) * delta
        got = universal_projectors(theta, phi, delta)
        assert got.tobytes() == np.array(scalar_indicators(theta, phi, delta)).tobytes()
        assert set(got.tolist()) == {0.0, 1.0}

    def test_boundary_rows_and_one_ulp_either_side(self):
        defects, deltas = [], []
        for x_hex, d_hex in BOUNDARY_ROWS + POW_FLIP_ROWS:
            x, d = float.fromhex(x_hex), float.fromhex(d_hex)
            defects += [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]
            deltas += [d] * 3
        # and near the edge of a window wider than 1, where the layer scales with delta^2
        for d in (1.5, 2.75):
            edge = math.sqrt(d * d * (1.0 + BOUNDARY_TOL))
            for k in range(-3, 4):
                defects.append(edge + k * math.ulp(edge))
                deltas.append(d)
        x = np.array(defects + [-v for v in defects])
        delta = np.array(deltas * 2)
        phi = np.full(x.size, -math.pi)  # constraint_theta(-pi) = 0: theta is the defect
        theta = x + constraint_theta(phi)
        assert np.array_equal(theta - constraint_theta(phi), x)
        got = universal_projectors(theta, phi, delta)
        assert got.tobytes() == np.array(scalar_indicators(theta, phi, delta)).tobytes()
        assert {0.0, 0.5, 1.0} <= set(got.tolist())
        for x_hex, d_hex in BOUNDARY_ROWS:
            x, d = float.fromhex(x_hex), float.fromhex(d_hex)
            assert abs(x ** 2 - d ** 2) == BOUNDARY_TOL * max(1.0, d ** 2)
        # numpy's square would move the POW_FLIP_ROWS across the edge
        x, d = (np.array([float.fromhex(h) for h in col]) for col in zip(*POW_FLIP_ROWS))
        a = d * d
        squared = np.where(np.abs(x * x - a) <= BOUNDARY_TOL * np.maximum(1.0, a), 0.5,
                           np.where(x * x < a, 1.0, 0.0))
        assert np.all(squared != scalar_indicators(x, np.full(x.size, -math.pi), d))

    def test_valid_specs_is_the_spec_check(self):
        cells = [0.0, -0.0, 0.1, -0.1, 1.0, math.pi, 1e154, -1e154, 1e200, 1e300,
                 math.inf, -math.inf, math.nan]
        theta, phi, delta = (axis.ravel() for axis in np.meshgrid(cells, cells, cells))
        mask = valid_specs(theta, phi, delta)
        for row, ok in zip(zip(theta.tolist(), phi.tolist(), delta.tolist()), mask.tolist()):
            try:
                ProjectionSpec(*row)
                accepted = True
            except DomainError:
                accepted = False
            assert ok == accepted, row
        assert 0 < np.count_nonzero(mask) < mask.size


class TestSineIntegral:
    def test_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(6)
        special = [0.0, 2.0, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0),
                   8e4, 1.28e6, 2e6]
        magnitudes = np.concatenate([np.geomspace(1e-6, 2e6, 500),
                                     rng.uniform(0.0, 4.0, 250),
                                     rng.uniform(0.0, 2e6, 250)])
        signs = rng.choice([-1.0, 1.0], size=magnitudes.size)
        points = special + [-x for x in special] + list(signs * magnitudes)
        assert len(points) >= 1000
        worst = max(abs(_si(float(x)) - float(mp.si(float(x)))) for x in points)
        assert worst <= 4e-15

    def test_odd_with_zero_at_origin(self):
        assert _si(0.0) == 0.0
        for x in (1e-300, 0.7, 2.0, 3.1, 55.0, 1.28e6):
            assert _si(-x) == -_si(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, x):
        with pytest.raises(DomainError):
            _si(x)


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mobiuscs.__file__)))
    # numpy.ma, which numpy loads only on use, would add about 13 ms to the import
    code = ("import sys, mobiuscs, mobiuscs.cli; "
            "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "False False"


class TestCircleRelabeling:
    def test_fiducial_fixed_point(self):
        fid = build_cs(StateLabel(l=0.0, phi=0.0, r=0.0))
        out = project_mobius_to_circle(fid)
        assert np.max(np.abs(out.c - fid.c)) == 0.0

    def test_idempotent(self):
        v = build_cs(StateLabel(l=0.3, phi=2.5, r=0.5, s=0.5))
        p1 = project_mobius_to_circle(v)
        p2 = project_mobius_to_circle(p1)
        assert np.max(np.abs(p1.c - p2.c)) <= 1e-15

    # the label is re-read from a coefficient ratio, whose rounding scales
    # the coefficients' error with l'; the bound holds for |l'| below ~0.45
    @settings(deadline=None)
    @given(center=st.floats(-0.3, 0.3), phi=st.floats(0.0, 4 * math.pi),
           r=st.floats(0.0, 0.95), s=st.sampled_from([0.0, 0.5]))
    @example(center=0.0, phi=1.0, r=0.0, s=0.5)  # l' re-reads as 2.8e-17: ceil gives 1, not 0
    def test_idempotent_random(self, center, phi, r, s):
        p1 = project_mobius_to_circle(build_cs(label_for_center(center, phi, r, s)))
        p2 = project_mobius_to_circle(p1)
        assert np.array_equal(p1.j, p2.j)
        assert np.max(np.abs(p1.c - p2.c)) <= 1e-15

    def test_projected_overlaps_match_circle_family(self):
        a = StateLabel(l=0.3, phi=2.5, r=0.5, s=0.5)
        b = StateLabel(l=-0.2, phi=1.1, r=0.5, s=0.5)
        pa = project_mobius_to_circle(build_cs(a))
        pb = project_mobius_to_circle(build_cs(b))
        ca = StateLabel(l=a.center, phi=a.phi % (2 * math.pi), r=0.0, s=0.0)
        cb = StateLabel(l=b.center, phi=b.phi % (2 * math.pi), r=0.0, s=0.0)
        expected = overlap(ca, cb, method="direct")
        got = pa.inner(pb)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
