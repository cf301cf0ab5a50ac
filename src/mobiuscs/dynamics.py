"""Free-particle dynamics on the strip and torus embeddings (m = 1).

Generalized coordinates on the strip are (phi, Z0): the azimuth and the
axial position of the fiber.  The kinetic Lagrangian obtained from the
z_sign = -1 embedding is

    L = 1/2 { phi_dot^2 * [(1 + r*cos(phi/2))^2 + r^2/4]
              - r*cos(phi/2) * z0_dot * phi_dot + z0_dot^2 }

Z0 is cyclic, so L0 = dL/dz0_dot is conserved; phi is not cyclic (the
surface metric depends on it), so the angular momentum

    J = p_phi = phi_dot * [(1 + r*cos(phi/2))^2 + (r^2/4)*sin^2(phi/2)]
        - (r/2)*cos(phi/2) * L0

varies along a generic orbit.  The conserved energy, reduced with L0, is

    H = 1/2 { JJ^2 * [(1 + r*cos(phi/2))^2 + (r^2/4)*sin^2(phi/2)] + L0^2 }

with JJ = phi_dot recovered from (J, L0, phi).  A "compact" variant with
bracket [(1 + r*cos(phi/2))^2 - (r^2/4)*cos(phi)] is retained for
comparison; it differs by (r^2/4)*cos^2(phi/2) and coincides at
phi = (2k+1)*pi, where the spectrum closes to

    E = 2 j^2 / (4 + r^2) + L0^2 / 2.

Trajectories come from a fixed-step RK4 in canonical variables with
compensated (Kahan) state accumulation and step-halving acceptance on the
energy drift.  A trial at one internal step is checked every BLOCK_ROWS
output rows and abandoned at the first block whose drift is over the
tolerance or not finite, so a step that is too coarse costs one block, not
a whole run.  The last trial allowed always runs to its end, so that
EnergyDriftError reports the drift of its whole run, and an accepted run is
checked once more over all its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoordinateSingularityError, DomainError, EnergyDriftError
from .geometry import TorusGeometry, mobius_point, torus_point

__all__ = [
    "MobiusState",
    "TorusState",
    "SpectrumEntry",
    "ConservedSet",
    "Trajectory",
    "mobius_lagrangian",
    "mobius_momenta",
    "mobius_phidot",
    "mobius_hamiltonian",
    "energy_quantized",
    "energy_spectrum",
    "conserved_set",
    "integrate_mobius",
    "torus_lagrangian",
    "torus_momenta",
    "torus_hamiltonian",
]

# output rows per step-halving check: a failing trial stops within this many
BLOCK_ROWS = 256


@dataclass(frozen=True)
class MobiusState:
    phi: float
    phi_dot: float
    z0: float = 0.0
    z0_dot: float = 0.0


@dataclass(frozen=True)
class TorusState:
    theta: float
    phi: float
    theta_dot: float
    phi_dot: float
    z0: float = 0.0
    z0_dot: float = 0.0


@dataclass(frozen=True)
class SpectrumEntry:
    j: float
    L0: float
    E: float


@dataclass(frozen=True)
class ConservedSet:
    J: float
    L0: float
    E: float


def _check_r(r: float, upper: float = 1.0) -> float:
    if not (0.0 <= r < upper):
        raise DomainError(f"need 0 <= r < {upper}, got r={r}")
    return float(r)


# ---------------------------------------------------------------------------
# Mobius strip: Lagrangian, momenta, Hamiltonian
# ---------------------------------------------------------------------------

def mobius_lagrangian(s: MobiusState, r: float, path: str = "closed", z_sign: int = -1) -> float:
    """Kinetic Lagrangian at a strip state.

    path="closed"        the closed form above (cross term -r*cos(phi/2), i.e.
                         the z_sign = -1 embedding, written out);
    path="embedding"     exact form derived from the embedding with the given
                         z_sign (cross term flips with the sign convention);
    path="embedding_fd"  kinetic energy from central finite differences of the
                         embedded point -- the independent oracle.
    """
    _check_r(r)
    half = 0.5 * s.phi
    c = math.cos(half)
    if path == "closed":
        bracket = (1.0 + r * c) ** 2 + 0.25 * r * r
        return 0.5 * (s.phi_dot ** 2 * bracket - r * c * s.z0_dot * s.phi_dot + s.z0_dot ** 2)
    if path == "embedding":
        bracket = (1.0 + r * c) ** 2 + 0.25 * r * r
        return 0.5 * (s.phi_dot ** 2 * bracket + z_sign * r * c * s.z0_dot * s.phi_dot + s.z0_dot ** 2)
    if path == "embedding_fd":
        eps = 1e-6
        g_plus = TorusGeometry(R=1.0, r=r, l=s.z0 + eps * s.z0_dot)
        g_minus = TorusGeometry(R=1.0, r=r, l=s.z0 - eps * s.z0_dot)
        p_plus = mobius_point(s.phi + eps * s.phi_dot, g_plus, z_sign=z_sign)
        p_minus = mobius_point(s.phi - eps * s.phi_dot, g_minus, z_sign=z_sign)
        vel = (p_plus - p_minus) / (2.0 * eps)
        return 0.5 * float(vel @ vel)
    raise ValueError(f"unknown path {path!r}")


def _strip_bracket(c, sn, r):
    """Metric bracket (1 + r*c)^2 + (r^2/4)*sn^2 at c = cos(phi/2), sn = sin(phi/2).

    Takes floats or arrays, and rounds the same way on both.
    """
    return (1.0 + r * c) ** 2 + 0.25 * r * r * sn * sn


def mobius_momenta(s: MobiusState, r: float) -> tuple[float, float]:
    """Conjugate momenta (p_phi, L0) in the closed (z_sign = -1) convention."""
    _check_r(r)
    half = 0.5 * s.phi
    c = math.cos(half)
    sn = math.sin(half)
    L0 = s.z0_dot - 0.5 * r * c * s.phi_dot
    p_phi = s.phi_dot * _strip_bracket(c, sn, r) - 0.5 * r * c * L0
    return p_phi, L0


def mobius_phidot(J: float, L0: float, phi: float, r: float) -> float:
    """Angular rate phi_dot recovered from (J, L0, phi); inverts mobius_momenta."""
    _check_r(r)
    half = 0.5 * phi
    c = math.cos(half)
    sn = math.sin(half)
    return (J + 0.5 * r * L0 * c) / _strip_bracket(c, sn, r)


def mobius_hamiltonian(J: float, L0: float, phi: float, r: float, variant: str = "reduced") -> float:
    """Energy as a function of (J, L0, phi).

    variant="reduced"  bracket (1+r*cos(phi/2))^2 + (r^2/4)*sin^2(phi/2): the
                       Legendre transform of the closed Lagrangian, conserved
                       along trajectories;
    variant="compact"  bracket (1+r*cos(phi/2))^2 - (r^2/4)*cos(phi): a
                       commonly quoted compact form that drops a
                       (r^2/4)*cos^2(phi/2) term; kept for comparison.  The
                       two coincide at phi = (2k+1)*pi.
    """
    _check_r(r)
    half = 0.5 * phi
    c = math.cos(half)
    jj = mobius_phidot(J, L0, phi, r)
    if variant == "reduced":
        bracket = _strip_bracket(c, math.sin(half), r)
    elif variant == "compact":
        bracket = (1.0 + r * c) ** 2 - 0.25 * r * r * math.cos(phi)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return 0.5 * (jj * jj * bracket + L0 * L0)


def energy_quantized(j: float, L0: float, r: float) -> float:
    """Closed-form level energy at the quantized angles phi = (2k+1)*pi."""
    _check_r(r)
    return 2.0 * j * j / (4.0 + r * r) + 0.5 * L0 * L0


def energy_spectrum(j: float, L0: float, phi: float, r: float, variant: str = "reduced") -> SpectrumEntry:
    """Level energy for eigenvalue j at angle phi; reduces to energy_quantized."""
    return SpectrumEntry(j=j, L0=L0, E=mobius_hamiltonian(j, L0, phi, r, variant=variant))


def conserved_set(s: MobiusState, r: float) -> ConservedSet:
    """Monitored quantities (J, L0, E) at a state.

    L0 and E are first integrals of the strip flow.  J = p_phi is *not* (the
    metric depends on phi); it is tracked because it parameterizes the
    Hamiltonian and quantization formulas.
    """
    p_phi, L0 = mobius_momenta(s, r)
    E = mobius_hamiltonian(p_phi, L0, s.phi, r)
    return ConservedSet(J=p_phi, L0=L0, E=E)


# ---------------------------------------------------------------------------
# Trajectory integration (hot kernel)
# ---------------------------------------------------------------------------

def _rk4_mobius(phi, pphi, z0, c_phi, c_pphi, c_z0, p_z, r, h, stride, out):
    """Fixed-step RK4 in (phi, p_phi, z0) at constant p_z.

    Kahan-compensated state accumulation keeps the roundoff of ~1e5-step
    runs near machine precision.  Each row of ``out`` receives the state
    (phi, p_phi, z0) after another ``stride`` steps.  Returns the state and
    its compensations, which continue the run in the next call.

    The four stages are written out: stage i evaluates the slopes
    (phi_dot, dp_phi, dz0) at its state, and the step sums them as
    k1 + 2*k2 + 2*k3 + k4, left to right.
    """
    cos = math.cos
    sin = math.sin
    half_h = 0.5 * h
    half_r = 0.5 * r
    quarter_r = 0.25 * r
    quarter_r2 = 0.25 * r * r
    neg_r = -r
    for row in range(out.shape[0]):
        for _ in range(stride):
            half = 0.5 * phi
            c = cos(half)
            sn = sin(half)
            hc = half_r * c
            qs = quarter_r2 * sn
            one = 1.0 + r * c
            jj1 = (pphi + hc * p_z) / (one * one + qs * sn)
            dp1 = quarter_r * sn * jj1 * p_z + 0.5 * jj1 * jj1 * (neg_r * sn * one + qs * c)
            dz1 = hc * jj1 + p_z

            half = 0.5 * (phi + half_h * jj1)
            c = cos(half)
            sn = sin(half)
            hc = half_r * c
            qs = quarter_r2 * sn
            one = 1.0 + r * c
            jj2 = (pphi + half_h * dp1 + hc * p_z) / (one * one + qs * sn)
            dp2 = quarter_r * sn * jj2 * p_z + 0.5 * jj2 * jj2 * (neg_r * sn * one + qs * c)
            dz2 = hc * jj2 + p_z

            half = 0.5 * (phi + half_h * jj2)
            c = cos(half)
            sn = sin(half)
            hc = half_r * c
            qs = quarter_r2 * sn
            one = 1.0 + r * c
            jj3 = (pphi + half_h * dp2 + hc * p_z) / (one * one + qs * sn)
            dp3 = quarter_r * sn * jj3 * p_z + 0.5 * jj3 * jj3 * (neg_r * sn * one + qs * c)
            dz3 = hc * jj3 + p_z

            half = 0.5 * (phi + h * jj3)
            c = cos(half)
            sn = sin(half)
            hc = half_r * c
            qs = quarter_r2 * sn
            one = 1.0 + r * c
            jj4 = (pphi + h * dp3 + hc * p_z) / (one * one + qs * sn)
            dp4 = quarter_r * sn * jj4 * p_z + 0.5 * jj4 * jj4 * (neg_r * sn * one + qs * c)
            dz4 = hc * jj4 + p_z

            y = h * (jj1 + 2.0 * jj2 + 2.0 * jj3 + jj4) / 6.0 - c_phi
            t = phi + y
            c_phi = (t - phi) - y
            phi = t

            y = h * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4) / 6.0 - c_pphi
            t = pphi + y
            c_pphi = (t - pphi) - y
            pphi = t

            y = h * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4) / 6.0 - c_z0
            t = z0 + y
            c_z0 = (t - z0) - y
            z0 = t
        out[row, 0] = phi
        out[row, 1] = pphi
        out[row, 2] = z0
    return phi, pphi, z0, c_phi, c_pphi, c_z0


def _sampled_energy(rows, r, L0, E0):
    """(cos(phi/2), phi_dot, relative energy drift from E0) of (phi, p_phi, z0) rows.

    The drift is inf when any energy is not finite.
    """
    half = 0.5 * rows[:, 0]
    c = np.cos(half)
    denom = _strip_bracket(c, np.sin(half), r)
    with np.errstate(over="ignore", invalid="ignore"):
        phi_dot = (rows[:, 1] + 0.5 * r * c * L0) / denom
        energy = 0.5 * (phi_dot ** 2 * denom + L0 * L0)
    if not np.all(np.isfinite(energy)):
        return c, phi_dot, math.inf
    return c, phi_dot, float(np.max(np.abs(energy - E0)) / max(1.0, abs(E0)))


def _accepts(drift, energy_tol):
    return math.isfinite(drift) and drift <= energy_tol


def _run_trial(out, state, p_z, r, h, stride, E0, energy_tol):
    """Integrate from ``state`` into out[1:], BLOCK_ROWS rows at a time.

    Returns (drift, rows).  ``drift`` is None when every row was filled.
    With an ``energy_tol``, the trial stops at the first block whose drift it
    does not accept and returns that drift, leaving the later rows unfilled.
    A step that raises stops the trial with drift inf: math.* raises instead
    of returning inf/NaN when a step diverges.  ``rows`` counts the rows of
    every block the trial started, the one that raised included.
    """
    for lo in range(1, out.shape[0], BLOCK_ROWS):
        block = out[lo:lo + BLOCK_ROWS]
        rows = lo - 1 + block.shape[0]
        try:
            state = _rk4_mobius(*state, p_z, r, h, stride, block)
        except (ValueError, OverflowError):
            return math.inf, rows
        if energy_tol is not None:
            drift = _sampled_energy(block, r, p_z, E0)[2]
            if not _accepts(drift, energy_tol):
                return drift, rows
    return None, out.shape[0] - 1


@dataclass(frozen=True)
class Trajectory:
    """Sampled strip trajectory with monitored quantities as columns.

    ``substeps`` is the number of RK4 steps per output row of the accepted
    trial; ``steps`` counts the RK4 steps of every trial the run started.
    """

    t: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray
    z0: np.ndarray
    z0_dot: np.ndarray
    r: float
    L0: float
    substeps: int
    steps: int

    def columns(self) -> dict[str, np.ndarray]:
        half = 0.5 * self.phi
        c = np.cos(half)
        sn = np.sin(half)
        # rounds as r**2 * sn**2, not as _strip_bracket does: the exported
        # E and J keep their bytes
        bracket = (1.0 + self.r * c) ** 2 + 0.25 * self.r ** 2 * sn ** 2
        return {
            "t": self.t,
            "phi": self.phi,
            "phi_dot": self.phi_dot,
            "z0": self.z0,
            "z0_dot": self.z0_dot,
            "E": 0.5 * (self.phi_dot ** 2 * bracket + self.L0 ** 2),
            "J": self.phi_dot * bracket - 0.5 * self.r * c * self.L0,
            "L0": np.full(self.t.size, self.L0),
        }

    def drift(self) -> dict[str, float]:
        """Max relative excursion of each monitored quantity from its start."""
        cols = self.columns()
        out = {}
        for name in ("E", "J"):
            col = cols[name]
            out[name] = float(np.max(np.abs(col - col[0])) / max(1.0, abs(col[0])))
        out["L0"] = 0.0  # exactly constant by construction of the canonical flow
        return out


def integrate_mobius(
    s0: MobiusState,
    r: float,
    t_end: float,
    dt: float,
    energy_tol: float = 1e-6,
    max_halvings: int = 8,
) -> Trajectory:
    """Integrate the strip flow, sampling every dt up to t_end.

    The run is accepted only if the relative energy drift stays below
    ``energy_tol``; otherwise the internal step is halved (output grid
    unchanged) up to ``max_halvings`` times before EnergyDriftError.  Each
    trial but the last stops at the first block of BLOCK_ROWS rows that
    drifts too far.  Non-finite inputs, a t_end/dt that is not finite and an
    output grid that cannot be allocated raise DomainError before any step
    is taken.
    """
    _check_r(r)
    if not all(map(math.isfinite, (s0.phi, s0.phi_dot, s0.z0, s0.z0_dot, t_end, dt))):
        raise DomainError("need a finite initial state, t_end and dt")
    if dt <= 0.0 or t_end <= 0.0:
        raise DomainError("need dt > 0 and t_end > 0")
    span = t_end / dt
    if not math.isfinite(span):
        raise DomainError(f"t_end/dt = {span} is not finite")
    n_out = int(round(span))
    if n_out < 1:
        raise DomainError("t_end shorter than one step")

    if not energy_tol >= 0.0:
        raise DomainError(f"need energy_tol >= 0, got {energy_tol}")

    p_phi0, L0 = mobius_momenta(s0, r)
    E0 = mobius_hamiltonian(p_phi0, L0, s0.phi, r)
    if not math.isfinite(E0):
        # no trial step can keep a drift from an infinite energy finite
        raise DomainError(f"initial energy {E0} is not finite")
    try:
        # every trial writes rows 1..n_out of the same grid
        out = np.empty((n_out + 1, 3))
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise DomainError(f"cannot allocate {n_out + 1} output rows") from None
    out[0] = s0.phi, p_phi0, s0.z0

    drift = math.inf
    steps = 0
    for attempt in range(max_halvings + 1):
        stride = 2 ** attempt
        # the last trial runs to its end, so that the error reports its drift
        block_tol = energy_tol if attempt < max_halvings else None
        early, rows = _run_trial(out, (s0.phi, p_phi0, s0.z0, 0.0, 0.0, 0.0), L0, r,
                                 dt / stride, stride, E0, block_tol)
        steps += stride * rows
        if early is not None:
            drift = early
            continue
        c, phi_dot, drift = _sampled_energy(out, r, L0, E0)
        if _accepts(drift, energy_tol):
            t = dt * np.arange(n_out + 1)
            z0_dot = L0 + 0.5 * r * c * phi_dot
            return Trajectory(
                t=t,
                phi=out[:, 0],
                phi_dot=phi_dot,
                z0=out[:, 2],
                z0_dot=z0_dot,
                r=r,
                L0=L0,
                substeps=stride,
                steps=steps,
            )
    raise EnergyDriftError(
        f"energy drift {drift:g} above {energy_tol:g} after {max_halvings} halvings",
        achieved=drift,
    )


# ---------------------------------------------------------------------------
# Torus: Lagrangian, momenta, Hamiltonian
# ---------------------------------------------------------------------------

def torus_lagrangian(s: TorusState, g: TorusGeometry, path: str = "embedding") -> float:
    """Kinetic Lagrangian at a torus state (independent angles theta, phi).

    path="embedding"     exact form from the embedding:
                         1/2 { phi_dot^2 (R + r sin th)^2 + (r th_dot)^2
                               - 2 r sin th z0_dot th_dot + z0_dot^2 };
    path="printed"       variant carrying an extra (r^2/4) phi_dot^2 term
                         inside the azimuthal bracket, kept for comparison
                         (it is what the strip reduction would leave behind);
    path="embedding_fd"  finite-difference kinetic energy oracle.
    """
    if not (0.0 <= g.r < g.R):
        raise DomainError("need 0 <= r < R")
    sth = math.sin(s.theta)
    if path == "embedding":
        return 0.5 * (
            s.phi_dot ** 2 * (g.R + g.r * sth) ** 2
            + (g.r * s.theta_dot) ** 2
            - 2.0 * g.r * sth * s.z0_dot * s.theta_dot
            + s.z0_dot ** 2
        )
    if path == "printed":
        return 0.5 * (
            s.phi_dot ** 2 * ((g.R + g.r * sth) ** 2 + 0.25 * g.r ** 2)
            + (g.r * s.theta_dot) ** 2
            - 2.0 * g.r * sth * s.z0_dot * s.theta_dot
            + s.z0_dot ** 2
        )
    if path == "embedding_fd":
        eps = 1e-6
        g_plus = TorusGeometry(R=g.R, r=g.r, l=s.z0 + eps * s.z0_dot)
        g_minus = TorusGeometry(R=g.R, r=g.r, l=s.z0 - eps * s.z0_dot)
        p_plus = torus_point(s.theta + eps * s.theta_dot, s.phi + eps * s.phi_dot, g_plus)
        p_minus = torus_point(s.theta - eps * s.theta_dot, s.phi - eps * s.phi_dot, g_minus)
        vel = (p_plus - p_minus) / (2.0 * eps)
        return 0.5 * float(vel @ vel)
    raise ValueError(f"unknown path {path!r}")


def torus_momenta(s: TorusState, g: TorusGeometry) -> tuple[float, float, float]:
    """Conjugate momenta (J0, L0, p_theta) of the torus Lagrangian."""
    sth = math.sin(s.theta)
    J0 = s.phi_dot * (g.R + g.r * sth) ** 2
    L0 = s.z0_dot - g.r * sth * s.theta_dot
    p_theta = g.r ** 2 * s.theta_dot - g.r * sth * s.z0_dot
    return J0, L0, p_theta


def torus_hamiltonian(
    J0: float,
    L0: float,
    p_theta: float,
    theta: float,
    r: float,
    singular_tol: float = 1e-9,
) -> float:
    """Torus energy in momenta (R = 1); singular where cos(theta) = 0."""
    _check_r(r)
    if r == 0.0:
        raise DomainError("tube radius r must be positive for the momentum chart")
    cth = math.cos(theta)
    if abs(cth) < singular_tol:
        raise CoordinateSingularityError(
            f"theta={theta} is within {singular_tol} of the chart singularity cos(theta)=0"
        )
    sth = math.sin(theta)
    return 0.5 * (
        J0 ** 2 / (1.0 + r * sth) ** 2
        + (p_theta + r * sth * L0) ** 2 / (r * cth) ** 2
        + L0 ** 2
    )
