"""The registry of identity checks behind ``mobiuscs verify``.

``CHECKS`` is one ordered table.  Each entry names one closed-form
identity (or conservation property), its suite, the grid it is
evaluated over and its tolerance; evaluating it compares two
independent routes over that grid and returns the maximum observed
error.  ``passed`` is defined as ``max_error <= tolerance`` and nothing
else.  ``verify`` and the acceptance gate run this same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dynamics, geometry, projection, states, theta
from .states import TAU_DUAL, TAU_NATURAL, label_for_center

__all__ = ["VerificationCheck", "Check", "CHECKS", "SUITES", "run_suite"]


@dataclass(frozen=True)
class VerificationCheck:
    check: str
    description: str
    grid: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_error <= self.tolerance)

    def row(self) -> dict:
        return {
            "check": self.check,
            "description": self.description,
            "grid": self.grid,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class Check:
    """One registry entry: an identity, where and how tightly it is checked."""

    name: str
    suite: str
    description: str
    grid: str
    tolerance: float
    evaluate: Callable[[], float]  # returns the maximum observed error

    def run(self) -> VerificationCheck:
        return VerificationCheck(self.name, self.description, self.grid,
                                 self.evaluate(), self.tolerance)


_registry: list[Check] = []


def _check(suite: str, name: str, description: str, grid: str, tolerance: float):
    """Register the decorated function as the evaluator of a new check, in order."""
    def register(evaluate: Callable[[], float]) -> Callable[[], float]:
        _registry.append(Check(name, suite, description, grid, tolerance, evaluate))
        return evaluate
    return register


# -- theta ------------------------------------------------------------------

@_check("theta", "theta3-modular", "lattice sum vs tau -> -1/tau transform of theta3",
        "l' in [-2,2], 50 points", 1e-12)
def _theta3_modular() -> float:
    err = 0.0
    for lp in np.linspace(-2.0, 2.0, 50):
        direct = theta.theta3(1j * lp / math.pi, TAU_NATURAL)
        closed = math.exp(lp * lp) * math.sqrt(math.pi) * theta.theta3(lp, TAU_DUAL)
        err = max(err, abs(direct - closed) / abs(closed))
    return err


@_check("theta", "theta2-shift", "half-period shift relation vs half-integer lattice sum",
        "l' in [-2,2], 50 points", 1e-13)
def _theta2_shift() -> float:
    err = 0.0
    for lp in np.linspace(-2.0, 2.0, 50):
        shift = theta.theta2(1j * lp / math.pi, TAU_NATURAL)
        series = theta.theta2_series(1j * lp / math.pi, TAU_NATURAL)
        err = max(err, abs(shift - series) / max(1.0, abs(series)))
    return err


@_check("theta", "theta3-logderiv", "product-expansion log-derivative vs finite differences",
        "nu in [0,1), 21 points", 1e-8)
def _theta3_logderiv() -> float:
    err = 0.0
    h = 1e-6
    for nu in np.linspace(0.0, 1.0, 21, endpoint=False):
        ld = theta.theta3_logderiv(nu, TAU_DUAL)
        fd = (theta.theta3(nu + h, TAU_DUAL) - theta.theta3(nu - h, TAU_DUAL)).real / (2.0 * h)
        fd /= theta.theta3(nu, TAU_DUAL).real
        err = max(err, abs(ld - fd))
    return err


@_check("theta", "theta3-symmetry", "evenness, unit periodicity and modular dual path",
        "nu in [-0.9,0.9] x Im(tau) in {0.5,1,3}", 1e-12)
def _theta3_symmetry() -> float:
    err = 0.0
    for nu in np.linspace(-0.9, 0.9, 13):
        for tau_im in (0.5, 1.0, 3.0):
            tau = 0.2 + 1j * tau_im
            base = theta.theta3(nu, tau)
            err = max(err, abs(base - theta.theta3(-nu, tau)) / max(1.0, abs(base)))
            err = max(err, abs(base - theta.theta3(nu + 1.0, tau)) / max(1.0, abs(base)))
            err = max(err, abs(base - theta.theta3_modular(nu, tau)) / max(1.0, abs(base)))
    return err


# -- states -----------------------------------------------------------------

@_check("states", "overlap-closed-form", "truncated overlap sum vs theta closed form",
        "60 random label pairs, |center| <= 2, both sectors", 1e-12)
def _overlap_closed_form() -> float:
    rng = np.random.default_rng(20260810)
    err = 0.0
    for _ in range(60):
        r = 0.5
        ca, cb = rng.uniform(-2.0, 2.0, size=2)
        pa, pb = rng.uniform(0.0, 4.0 * math.pi, size=2)
        s = float(rng.integers(0, 2)) * 0.5
        a = label_for_center(ca, pa, r, s)
        b = label_for_center(cb, pb, r, s)
        direct = states.overlap(a, b, method="direct")
        closed = states.overlap(a, b, method="theta")
        err = max(err, abs(direct - closed) / max(1.0, abs(closed)))
    return err


@_check("states", "norm-closed-form", "norm^2 direct sum vs theta vs modular route",
        "center in [-1.5,1.5] x s in {0,1/2}", 1e-12)
def _norm_closed_form() -> float:
    err = 0.0
    for s in (0.0, 0.5):
        for lp in np.linspace(-1.5, 1.5, 13):
            lab = label_for_center(lp, 1.0, 0.5, s)
            d = states.norm2(lab, method="direct")
            t = states.norm2(lab, method="theta")
            m = states.norm2(lab, method="modular")
            err = max(err, abs(d - t) / d, abs(d - m) / d)
    return err


@_check("states", "momentum-triple-path", "<J> by direct ratio, log-derivative, product series",
        "10x10 (l,phi) grid x s in {0,1/2}", 1e-10)
def _momentum_triple_path() -> float:
    err = 0.0
    for s in (0.0, 0.5):
        for l in np.linspace(-1.0, 1.0, 10):
            for phi in np.linspace(0.0, 4.0 * math.pi, 10, endpoint=False):
                lab = states.StateLabel(l=l, phi=phi, r=0.5, s=s)
                v1 = states.expect_j(lab, method="ratio")
                v2 = states.expect_j(lab, method="theta")
                v3 = states.expect_j(lab, method="series")
                err = max(err, abs(v1 - v2), abs(v1 - v3), abs(v2 - v3))
    return err


@_check("states", "shift-dual-path", "<U> by shifted contraction vs theta ratio",
        "center in [-1,1] x s in {0,1/2}", 1e-12)
def _shift_dual_path() -> float:
    err = 0.0
    for s in (0.0, 0.5):
        for lp in np.linspace(-1.0, 1.0, 9):
            lab = label_for_center(lp, 2.0, 0.5, s)
            d = states.expect_u(lab, method="direct")
            t = states.expect_u(lab, method="theta")
            err = max(err, abs(d - t))
    return err


@_check("states", "occupation-gaussian", "occupation law vs limiting Gaussian, sup over levels",
        "center in [0,1], 21 points", 1.1e-4)
def _occupation_gaussian() -> float:
    return max(states.gaussian_supnorm(label_for_center(lp, math.pi, 0.5))
               for lp in np.linspace(0.0, 1.0, 21))


# -- dynamics ---------------------------------------------------------------

@_check("dynamics", "spectrum-border", "generic-angle energy at phi=pi vs closed border form",
        "j in {-3..3}+s, r in {0.1,0.5,0.9}, L0 in {0,0.4,0.7,0.8}", 1e-12)
def _spectrum_border() -> float:
    err = 0.0
    for r in (0.1, 0.5, 0.9):
        for s in (0.0, 0.5):
            for j in np.arange(-3, 4) + s:
                for L0 in (0.0, 0.4, 0.7, 0.8):
                    e_gen = dynamics.energy_spectrum(j, L0, math.pi, r).E
                    e_closed = dynamics.energy_quantized(j, L0, r)
                    err = max(err, abs(e_gen - e_closed) / max(1.0, e_closed))
    return err


@_check("dynamics", "legendre-strip", "reduced Hamiltonian vs p.qdot - L on random states",
        "50 random states, r in (0.05,0.95), absolute error", 1e-10)
def _legendre_strip() -> float:
    rng = np.random.default_rng(42)
    err = 0.0
    for _ in range(50):
        st = dynamics.MobiusState(*rng.uniform(-2.0, 2.0, size=4))
        r = float(rng.uniform(0.05, 0.95))
        p_phi, L0 = dynamics.mobius_momenta(st, r)
        h_red = dynamics.mobius_hamiltonian(p_phi, L0, st.phi, r)
        legendre = p_phi * st.phi_dot + L0 * st.z0_dot - dynamics.mobius_lagrangian(st, r, path="closed")
        err = max(err, abs(h_red - legendre))
    return err


@_check("dynamics", "legendre-torus", "torus Hamiltonian vs p.qdot - L on random states",
        "50 random non-singular states, r=0.5, absolute error", 1e-10)
def _legendre_torus() -> float:
    rng = np.random.default_rng(43)
    g = geometry.TorusGeometry(R=1.0, r=0.5)
    err = 0.0
    taken = 0
    while taken < 50:
        theta_v = float(rng.uniform(0.0, 2.0 * math.pi))
        if abs(math.cos(theta_v)) < 1e-2:
            continue
        taken += 1
        st = dynamics.TorusState(theta_v, *rng.uniform(-2.0, 2.0, size=5))
        J0, L0, p_th = dynamics.torus_momenta(st, g)
        h = dynamics.torus_hamiltonian(J0, L0, p_th, st.theta, g.r)
        legendre = (J0 * st.phi_dot + L0 * st.z0_dot + p_th * st.theta_dot
                    - dynamics.torus_lagrangian(st, g, path="embedding"))
        err = max(err, abs(h - legendre))
    return err


@_check("dynamics", "torus-strip-reduction",
        "torus Lagrangian under the angle constraint vs strip form",
        "50x50 (phi, phi_dot) grid, r=0.5, absolute error", 1e-10)
def _torus_strip_reduction() -> float:
    g = geometry.TorusGeometry(R=1.0, r=0.5)
    err = 0.0
    for phi in np.linspace(0.0, 4.0 * math.pi, 50, endpoint=False):
        for rate in np.linspace(-2.0, 2.0, 50):
            st_m = dynamics.MobiusState(phi, rate, 0.0, 0.4)
            st_t = dynamics.TorusState(
                geometry.constraint_theta(phi), phi, 0.5 * rate, rate, 0.0, 0.4)
            lm = dynamics.mobius_lagrangian(st_m, g.r, path="embedding", z_sign=-1)
            lt = dynamics.torus_lagrangian(st_t, g, path="embedding")
            err = max(err, abs(lm - lt))
    return err


@_check("dynamics", "conservation-short", "energy and axial momentum drift over a trajectory",
        "r=0.5, t_end=10, dt=1e-3", 1e-9)
def _conservation_short() -> float:
    traj = dynamics.integrate_mobius(dynamics.MobiusState(0.3, 1.1, 0.0, 0.4), 0.5,
                                     t_end=10.0, dt=1e-3)
    drifts = traj.drift()
    return max(drifts["E"], drifts["L0"])


# -- projection -------------------------------------------------------------

def _window(ratio: float, delta: float = 0.1) -> projection.ProjectionSpec:
    """The window at phi = 1 whose constraint defect is ratio * delta."""
    return projection.ProjectionSpec(
        theta=geometry.constraint_theta(1.0) + ratio * delta, phi=1.0, delta=delta)


@_check("projection", "window-dual-path", "constraint window: quadrature vs closed indicator",
        "|defect|/delta in {0,0.5,2,5}, delta=0.1", 1e-3)
def _window_dual_path() -> float:
    err = 0.0
    for ratio in (0.0, 0.5, 2.0, 5.0):
        spec = _window(ratio)
        ind = projection.universal_projector(spec, method="indicator")
        qd = projection.universal_projector(spec, method="quadrature")
        err = max(err, abs(ind - qd))
    return err


@_check("projection", "window-boundary", "constraint window boundary value 1/2",
        "|defect| = delta = 0.1", 5e-3)
def _window_boundary() -> float:
    return abs(projection.universal_projector(_window(1.0), method="quadrature") - 0.5)


@_check("projection", "torus-separability", "torus coefficient grid is rank one",
        "single generic state", 1e-12)
def _torus_separability() -> float:
    tf = projection.build_torus_cs(0.2, 1.3, 0.7, 0.5)
    sv = np.linalg.svd(tf.modulus_grid(), compute_uv=False)
    return float(sv[1] / sv[0])


@_check("projection", "circle-reduction", "projected overlap at r=0 vs circle overlap",
        "5x5 (l, dphi) grid", 1e-10)
def _circle_reduction() -> float:
    err = 0.0
    for l in np.linspace(-1.0, 1.0, 5):
        for dphi in np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False):
            a = states.StateLabel(l=l, phi=1.0 + dphi, r=0.0, s=0.0)
            b = states.StateLabel(l=0.3, phi=1.0, r=0.0, s=0.0)
            chain = projection.project_overlap(a, b)
            circle = states.overlap(a, b, method="direct")
            err = max(err, abs(chain - circle) / max(1.0, abs(circle)))
    return err


CHECKS: tuple[Check, ...] = tuple(_registry)
SUITES: tuple[str, ...] = tuple(dict.fromkeys(check.suite for check in CHECKS))


def run_suite(name: str) -> list[VerificationCheck]:
    """Run the registry's checks of suite ``name`` ("all": every check), in table order."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [check.run() for check in CHECKS if name in ("all", check.suite)]
