"""Strip/torus dynamics: closed forms, Legendre duality, conservation, integration."""

import hashlib
import math

import numpy as np
import pytest

from mobiuscs import cli, dynamics
from mobiuscs.errors import CoordinateSingularityError, DomainError, EnergyDriftError
from mobiuscs.dynamics import (
    MobiusState,
    TorusState,
    conserved_set,
    energy_quantized,
    energy_spectrum,
    integrate_mobius,
    mobius_hamiltonian,
    mobius_lagrangian,
    mobius_momenta,
    mobius_phidot,
    torus_hamiltonian,
    torus_lagrangian,
    torus_momenta,
)
from mobiuscs.geometry import TorusGeometry, constraint_theta

RNG = np.random.default_rng(20260810)


def rolled_rk4_mobius(phi, pphi, z0, c_phi, c_pphi, c_z0, p_z, r, h, stride, out):
    """Reference RK4 step: the stage loop that _rk4_mobius unrolls."""
    cos = math.cos
    sin = math.sin
    half_h = 0.5 * h
    half_r = 0.5 * r
    quarter_r = 0.25 * r
    quarter_r2 = 0.25 * r * r
    neg_r = -r
    # (weight of the stage slope, step from the base state to the next stage)
    stages = ((1.0, half_h), (2.0, half_h), (2.0, h), (1.0, h))
    for row in range(out.shape[0]):
        for _ in range(stride):
            # -0.0 + x == x for every x, so the sums round as k1 + 2k2 + 2k3 + k4
            sum_phi = sum_pphi = sum_z0 = -0.0
            s_phi = phi
            s_pphi = pphi
            for weight, step in stages:
                half = 0.5 * s_phi
                c = cos(half)
                sn = sin(half)
                one = 1.0 + r * c
                denom = one * one + quarter_r2 * sn * sn
                jj = (s_pphi + half_r * c * p_z) / denom
                d_denom = neg_r * sn * one + quarter_r2 * sn * c
                dpphi = quarter_r * sn * jj * p_z + 0.5 * jj * jj * d_denom
                dz0 = half_r * c * jj + p_z
                sum_phi = sum_phi + weight * jj
                sum_pphi = sum_pphi + weight * dpphi
                sum_z0 = sum_z0 + weight * dz0
                s_phi = phi + step * jj
                s_pphi = pphi + step * dpphi

            y = h * sum_phi / 6.0 - c_phi
            t = phi + y
            c_phi = (t - phi) - y
            phi = t

            y = h * sum_pphi / 6.0 - c_pphi
            t = pphi + y
            c_pphi = (t - pphi) - y
            pphi = t

            y = h * sum_z0 / 6.0 - c_z0
            t = z0 + y
            c_z0 = (t - z0) - y
            z0 = t
        out[row, 0] = phi
        out[row, 1] = pphi
        out[row, 2] = z0
    return phi, pphi, z0, c_phi, c_pphi, c_z0


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestMobiusLagrangian:
    def test_cylinder_limit(self):
        s = MobiusState(1.3, 0.8, 0.0, -0.6)
        assert mobius_lagrangian(s, 0.0) == pytest.approx(0.5 * (0.8**2 + 0.6**2), abs=1e-15)

    def test_substitution_value(self):
        s = MobiusState(math.pi, 1.0, 0.0, 0.0)
        assert mobius_lagrangian(s, 0.5) == pytest.approx(0.53125, abs=1e-15)

    def test_embedding_oracle_matches_closed_form(self):
        for _ in range(20):
            s = MobiusState(*RNG.uniform(-2, 2, size=4))
            r = float(RNG.uniform(0.05, 0.95))
            closed = mobius_lagrangian(s, r, path="closed")
            exact = mobius_lagrangian(s, r, path="embedding", z_sign=-1)
            fd = mobius_lagrangian(s, r, path="embedding_fd", z_sign=-1)
            assert closed == pytest.approx(exact, abs=1e-15)
            assert closed == pytest.approx(fd, abs=1e-8)

    def test_mirrored_sign_flips_cross_term(self):
        s = MobiusState(1.0, 0.7, 0.2, 0.9)
        r = 0.5
        plus = mobius_lagrangian(s, r, path="embedding", z_sign=+1)
        minus = mobius_lagrangian(s, r, path="embedding", z_sign=-1)
        cross = r * math.cos(0.5 * s.phi) * s.z0_dot * s.phi_dot
        assert plus - minus == pytest.approx(cross, abs=1e-14)


class TestMobiusMomenta:
    def test_cylinder_limit(self):
        s = MobiusState(0.4, 1.7, 0.0, -0.2)
        assert mobius_momenta(s, 0.0) == pytest.approx((1.7, -0.2))

    def test_substitution_value(self):
        p_phi, L0 = mobius_momenta(MobiusState(math.pi, 2.0, 0.0, 1.0), 0.5)
        assert p_phi == pytest.approx(2.125, abs=1e-15)
        assert L0 == pytest.approx(1.0, abs=1e-15)

    def test_round_trip(self):
        for _ in range(30):
            s = MobiusState(*RNG.uniform(-3, 3, size=4))
            r = float(RNG.uniform(0.0, 0.95))
            J, L0 = mobius_momenta(s, r)
            assert mobius_phidot(J, L0, s.phi, r) == pytest.approx(s.phi_dot, abs=1e-12)


class TestMobiusHamiltonian:
    def test_cylinder_limit(self):
        assert mobius_hamiltonian(1.2, 0.7, 0.5, 0.0) == pytest.approx(
            0.5 * (1.2**2 + 0.7**2), abs=1e-15)

    def test_border_closed_form(self):
        for r in (0.1, 0.5, 0.9):
            for k in (0, 1):
                phi = (2 * k + 1) * math.pi
                for variant in ("reduced", "compact"):
                    h = mobius_hamiltonian(1.3, 0.4, phi, r, variant=variant)
                    assert h == pytest.approx(energy_quantized(1.3, 0.4, r), rel=1e-12)

    def test_legendre_duality(self):
        for _ in range(40):
            s = MobiusState(*RNG.uniform(-2, 2, size=4))
            r = float(RNG.uniform(0.05, 0.95))
            p_phi, L0 = mobius_momenta(s, r)
            legendre = p_phi * s.phi_dot + L0 * s.z0_dot - mobius_lagrangian(s, r)
            h = mobius_hamiltonian(p_phi, L0, s.phi, r)
            assert h == pytest.approx(legendre, abs=1e-10)

    def test_compact_variant_discrepancy_is_the_dropped_term(self):
        # reduced - compact = JJ^2/2 * (r^2/4) * cos^2(phi/2): the term the
        # compact bracket drops; it vanishes exactly at the border angles
        for _ in range(20):
            J, L0, phi = RNG.uniform(-2, 2, size=3)
            r = float(RNG.uniform(0.05, 0.95))
            jj = mobius_phidot(J, L0, phi, r)
            gap = (mobius_hamiltonian(J, L0, phi, r, variant="reduced")
                   - mobius_hamiltonian(J, L0, phi, r, variant="compact"))
            predicted = 0.5 * jj * jj * 0.25 * r * r * math.cos(0.5 * phi) ** 2
            assert gap == pytest.approx(predicted, abs=1e-13)


class TestSpectrum:
    def test_reference_value(self):
        assert energy_quantized(0.5, 0.0, 0.5) == pytest.approx(2.0 * 0.25 / 4.25, abs=1e-15)
        assert energy_quantized(0.0, 0.0, 0.3) == 0.0

    def test_general_angle_reduces_at_border(self):
        for r in (0.1, 0.5, 0.9):
            for s in (0.0, 0.5):
                for j in np.arange(-3, 4) + s:
                    e = energy_spectrum(float(j), 0.4, math.pi, r).E
                    assert e == pytest.approx(energy_quantized(float(j), 0.4, r), rel=1e-12)

    def test_time_reversal_symmetry_exact(self):
        for _ in range(20):
            j, L0, phi = RNG.uniform(-3, 3, size=3)
            r = float(RNG.uniform(0.05, 0.95))
            assert energy_spectrum(j, L0, phi, r).E == energy_spectrum(-j, -L0, phi, r).E

    def test_nonnegative(self):
        for _ in range(20):
            j, L0, phi = RNG.uniform(-3, 3, size=3)
            assert energy_spectrum(j, L0, phi, 0.5).E >= 0.0


class TestIntegration:
    def test_cylinder_free_motion_is_exact(self):
        traj = integrate_mobius(MobiusState(0.0, 1.0, 0.0, 0.0), 0.0, t_end=100.0, dt=1e-3)
        assert np.max(np.abs(traj.phi - traj.t)) <= 1e-10
        assert np.max(np.abs(traj.z0)) <= 1e-12

    def test_energy_and_axial_momentum_conserved(self):
        traj = integrate_mobius(MobiusState(0.3, 1.1, 0.0, 0.4), 0.5, t_end=100.0, dt=1e-3)
        drift = traj.drift()
        assert drift["E"] <= 1e-8
        assert drift["L0"] <= 1e-8

    def test_angular_momentum_is_not_an_integral(self):
        # phi is not cyclic: p_phi genuinely oscillates along the orbit
        traj = integrate_mobius(MobiusState(0.3, 1.1, 0.0, 0.4), 0.5, t_end=20.0, dt=1e-3)
        assert traj.drift()["J"] > 1e-3

    def test_time_reversal(self):
        s0 = MobiusState(0.7, 0.9, 0.1, -0.3)
        fwd = integrate_mobius(s0, 0.5, t_end=10.0, dt=1e-3)
        flipped = MobiusState(fwd.phi[-1], -fwd.phi_dot[-1], fwd.z0[-1], -fwd.z0_dot[-1])
        back = integrate_mobius(flipped, 0.5, t_end=10.0, dt=1e-3)
        assert back.phi[-1] == pytest.approx(s0.phi, abs=1e-8)
        assert back.phi_dot[-1] == pytest.approx(-s0.phi_dot, abs=1e-8)
        assert back.z0[-1] == pytest.approx(s0.z0, abs=1e-8)

    def test_step_halving_then_rejection(self):
        s0 = MobiusState(0.3, 2.0, 0.0, 1.0)
        with pytest.raises(EnergyDriftError):
            integrate_mobius(s0, 0.9, t_end=10.0, dt=1.0, energy_tol=1e-14, max_halvings=0)

        # earlier trials stop at their first failing block; the last one runs
        # to its end, so the error reports the drift of its whole run: the
        # drift of an accepted run at the same internal step, on the same grid
        # the drift of this orbit keeps growing after the first block
        s0, r, dt = MobiusState(0.3, 1.1, 0.0, 0.4), 0.5, 0.1
        t_end = 4 * dynamics.BLOCK_ROWS * dt
        with pytest.raises(EnergyDriftError) as info:
            integrate_mobius(s0, r, t_end=t_end, dt=dt, energy_tol=1e-14, max_halvings=2)
        same_step = integrate_mobius(s0, r, t_end=t_end, dt=dt / 4, energy_tol=math.inf,
                                     max_halvings=0)
        energy = same_step.columns()["E"][::4]
        E0 = conserved_set(s0, r).E
        drift = np.max(np.abs(energy - E0)) / max(1.0, abs(E0))
        assert info.value.achieved == pytest.approx(drift, rel=1e-9)

    def test_stiff_orbit_stops_failing_trials_early(self, monkeypatch):
        steps = []
        kernel = dynamics._rk4_mobius

        def counted(*args):
            stride, out = args[-2:]
            steps.append(stride * out.shape[0])
            return kernel(*args)

        monkeypatch.setattr(dynamics, "_rk4_mobius", counted)
        r, L0, j = 0.9, 0.5, 30.0
        phi_dot = mobius_phidot(j, L0, 0.0, r)
        s0 = MobiusState(0.0, phi_dot, 0.0, L0 + 0.5 * r * phi_dot)
        traj = integrate_mobius(s0, r, t_end=20.0, dt=1e-2)
        # strides 1-32 fail within their first block (by row 42 of 2,000);
        # stride 64 fails only at row 1,892, in the last, partial block
        assert traj.substeps == 128
        assert sum(steps) == 63 * dynamics.BLOCK_ROWS + (64 + 128) * 2000
        assert traj.steps == sum(steps) == 400_128

    def test_raising_step_stops_its_trial_and_counts_its_block(self, monkeypatch):
        kernel = dynamics._rk4_mobius

        def diverging(*args):
            stride = args[-2]
            if stride < 4:
                raise OverflowError("math range error")
            return kernel(*args)

        monkeypatch.setattr(dynamics, "_rk4_mobius", diverging)
        s0, n_out = MobiusState(0.3, 1.1, 0.0, 0.4), 2 * dynamics.BLOCK_ROWS + 5
        traj = integrate_mobius(s0, 0.5, t_end=n_out * 1e-2, dt=1e-2)
        assert traj.substeps == 4
        assert traj.steps == (1 + 2) * dynamics.BLOCK_ROWS + 4 * n_out
        with pytest.raises(EnergyDriftError) as info:
            integrate_mobius(s0, 0.5, t_end=n_out * 1e-2, dt=1e-2, max_halvings=1)
        assert info.value.achieved == math.inf

    def test_smooth_orbit_counts_one_step_per_row(self):
        n_out = 3 * dynamics.BLOCK_ROWS + 17
        traj = integrate_mobius(MobiusState(0.3, 1.1, 0.0, 0.4), 0.5, t_end=n_out * 1e-3, dt=1e-3)
        assert traj.substeps == 1
        assert traj.steps == n_out == traj.t.size - 1

    @pytest.mark.parametrize("field,value", [
        ("phi", math.nan), ("phi_dot", math.inf), ("z0", -math.inf), ("z0_dot", math.nan),
        ("t_end", math.inf), ("t_end", math.nan), ("dt", math.nan), ("r", math.nan),
        # finite, but no halving can pass: a NaN or negative tolerance, and
        # an initial energy that overflows to inf
        ("energy_tol", math.nan), ("energy_tol", -1.0), ("phi_dot", 1e200),
        # a t_end/dt that overflows to inf, and grids of 10^14 and 10^302
        # rows: past the memory and past numpy's size limit
        ("dt", 1e-300), ("t_end", 1e12), ("t_end", 1e300),
    ])
    def test_non_finite_input_rejected_before_stepping(self, monkeypatch, field, value):
        def no_step(*args):
            raise AssertionError("the RK4 kernel ran on non-finite input")

        monkeypatch.setattr(dynamics, "_rk4_mobius", no_step)
        state = {"phi": 0.1, "phi_dot": 1.0, "z0": 0.0, "z0_dot": 0.2}
        run = {"r": 0.5, "t_end": 1.0, "dt": 1e-2}
        (state if field in state else run)[field] = value
        with pytest.raises(DomainError):
            integrate_mobius(MobiusState(**state), **run)

    def test_strip_bracket_rounds_alike_on_floats_and_arrays(self):
        rng = np.random.default_rng(6)
        c, sn = np.cos(rng.uniform(-6, 6, size=(2, 200)))
        r = float(rng.uniform(0.0, 0.95))
        scalar = [dynamics._strip_bracket(float(a), float(b), r) for a, b in zip(c, sn)]
        assert np.array_equal(bits(scalar), bits(dynamics._strip_bracket(c, sn, r)))

    def test_columns_schema(self):
        traj = integrate_mobius(MobiusState(0.1, 1.0, 0.0, 0.2), 0.5, t_end=1.0, dt=1e-2)
        cols = traj.columns()
        assert list(cols) == ["t", "phi", "phi_dot", "z0", "z0_dot", "E", "J", "L0"]
        assert all(v.shape == traj.t.shape for v in cols.values())

    def test_conserved_set_matches_columns(self):
        s0 = MobiusState(0.1, 1.0, 0.0, 0.2)
        cs = conserved_set(s0, 0.5)
        traj = integrate_mobius(s0, 0.5, t_end=0.1, dt=1e-2)
        cols = traj.columns()
        assert cols["E"][0] == pytest.approx(cs.E, abs=1e-14)
        assert cols["J"][0] == pytest.approx(cs.J, abs=1e-14)
        assert cols["L0"][0] == pytest.approx(cs.L0, abs=1e-14)


class TestKernel:
    @staticmethod
    def run(kernel, state, p_z, r, h, stride, rows):
        out = np.full((rows, 3), np.nan)
        try:
            return kernel(*state, p_z, r, h, stride, out), out
        except (ValueError, OverflowError) as exc:
            # a diverging step: math.* raises, and the rows before it stay filled
            return type(exc), out

    def test_matches_rolled_reference_bit_for_bit(self):
        rng = np.random.default_rng(8)
        raised = 0
        for _ in range(200):
            phi, pphi = rng.uniform(-4 * math.pi, 4 * math.pi), rng.uniform(-5.0, 5.0)
            z0, p_z = rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
            r = rng.uniform(0.0, 0.95)
            h = 10.0 ** rng.uniform(-4.0, -0.5)
            stride = int(rng.integers(1, 5))
            rows = int(rng.integers(1, 6))
            state = ref_state = (phi, pphi, z0, 0.0, 0.0, 0.0)
            for _ in range(2):  # the second call continues from the compensations
                state, out = self.run(dynamics._rk4_mobius, state, p_z, r, h, stride, rows)
                ref_state, ref = self.run(rolled_rk4_mobius, ref_state, p_z, r, h, stride, rows)
                assert np.array_equal(bits(out), bits(ref))
                if isinstance(ref_state, type):
                    assert state is ref_state
                    raised += 1
                    break
                assert np.array_equal(bits(state), bits(ref_state))
        assert raised < 20

    def test_stiff_export_digest(self, capsys):
        # sha256 of the CSV this command printed before the kernel was unrolled
        code = cli.main(["dynamics", "--phi", "0", "--j", "30", "--L0", "0.5", "--r", "0.9",
                         "--t-end", "2", "--dt", "1e-2"])
        out = capsys.readouterr().out
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "dc38f0060850e922811700750fcfa6a0cfe726074612de1602e3d672e699910b")


class TestTorus:
    G = TorusGeometry(R=1.0, r=0.5)

    def test_printed_variant_value(self):
        s = TorusState(theta=math.pi / 2, phi=0.0, theta_dot=0.0, phi_dot=1.0)
        assert torus_lagrangian(s, self.G, path="printed") == pytest.approx(1.15625, abs=1e-15)
        assert torus_lagrangian(s, self.G, path="embedding") == pytest.approx(1.125, abs=1e-15)

    def test_embedding_matches_fd_oracle(self):
        for _ in range(15):
            s = TorusState(*RNG.uniform(-2, 2, size=6))
            exact = torus_lagrangian(s, self.G, path="embedding")
            fd = torus_lagrangian(s, self.G, path="embedding_fd")
            assert exact == pytest.approx(fd, abs=1e-7)

    def test_degenerate_tube(self):
        g0 = TorusGeometry(R=1.0, r=0.0)
        s = TorusState(0.7, 0.2, 1.3, 0.9, 0.0, 0.5)
        assert torus_lagrangian(s, g0, path="embedding") == pytest.approx(
            0.5 * (0.9**2 + 0.5**2), abs=1e-15)

    def test_constraint_reduction_to_strip(self):
        err = 0.0
        for phi in np.linspace(0.0, 4 * math.pi, 50, endpoint=False):
            for rate in np.linspace(-2.0, 2.0, 50):
                st = TorusState(constraint_theta(phi), phi, 0.5 * rate, rate, 0.0, 0.4)
                sm = MobiusState(phi, rate, 0.0, 0.4)
                lt = torus_lagrangian(st, self.G, path="embedding")
                lm = mobius_lagrangian(sm, self.G.r, path="embedding", z_sign=-1)
                err = max(err, abs(lt - lm))
        assert err <= 1e-10

    def test_printed_variant_constraint_gap(self):
        # the printed bracket leaves an extra (r^2/8) * phi_dot^2 after reduction
        st = TorusState(constraint_theta(1.1), 1.1, 0.55, 1.1, 0.0, 0.4)
        sm = MobiusState(1.1, 1.1, 0.0, 0.4)
        gap = (torus_lagrangian(st, self.G, path="printed")
               - mobius_lagrangian(sm, self.G.r, path="closed"))
        assert gap == pytest.approx(0.125 * self.G.r**2 * 1.1**2, abs=1e-14)

    def test_hamiltonian_equatorial(self):
        assert torus_hamiltonian(1.3, 0.0, 0.0, 0.0, 0.5) == pytest.approx(
            0.5 * 1.3**2, abs=1e-15)

    def test_legendre_duality(self):
        for _ in range(40):
            theta = float(RNG.uniform(0, 2 * math.pi))
            if abs(math.cos(theta)) < 1e-2:
                continue
            s = TorusState(theta, *RNG.uniform(-2, 2, size=5))
            J0, L0, p_th = torus_momenta(s, self.G)
            h = torus_hamiltonian(J0, L0, p_th, s.theta, self.G.r)
            legendre = (J0 * s.phi_dot + L0 * s.z0_dot + p_th * s.theta_dot
                        - torus_lagrangian(s, self.G, path="embedding"))
            assert h == pytest.approx(legendre, abs=1e-10)

    def test_chart_singularity(self):
        with pytest.raises(CoordinateSingularityError):
            torus_hamiltonian(1.0, 1.0, 0.0, math.pi / 2, 0.5)
