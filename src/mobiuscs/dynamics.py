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

with JJ = phi_dot recovered from (J, L0, phi).  At the border angles
phi = (2k+1)*pi, where cos(phi/2) = 0, the spectrum closes to

    E = 2 j^2 / (4 + r^2) + L0^2 / 2.

Trajectories come by two routes, which share their input checks
(_start) and act as each other's oracles.

quadrature_mobius samples the flow in closed form.  Z0 is cyclic and E is
conserved, so K = phi_dot^2 * B(phi) is constant (B the bracket above), and
G(phi(t)) = G(phi0) + sign(phi_dot0)*sqrt(K)*t with G the integral of
sqrt(B).  G and its inverse come from one table of Chebyshev panels over a
period, graded toward the neck phi = 2*pi, where B has its minimum
(1 - r)^2; so the route is one path at every r < 1.

integrate_mobius is a fixed-step RK4 in canonical variables with
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
from .geometry import TorusGeometry, _libm, _pow2, valid_r

__all__ = [
    "MobiusState",
    "TorusState",
    "Trajectory",
    "mobius_lagrangian",
    "mobius_momenta",
    "mobius_phidot",
    "mobius_hamiltonian",
    "mobius_hamiltonians",
    "energy_quantized",
    "integrate_mobius",
    "quadrature_mobius",
    "torus_lagrangian",
    "torus_momenta",
    "torus_hamiltonian",
]

# output rows per step-halving check: a failing trial stops within this many
BLOCK_ROWS = 256
# |cos(theta)| below which torus_hamiltonian refuses the momentum chart
SINGULAR_TOL = 1e-9


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


def _check_r(r: float, upper: float = 1.0) -> float:
    if not valid_r(r, upper):
        raise DomainError(f"need 0 <= r < {upper}, got r={r}")
    return float(r)


# ---------------------------------------------------------------------------
# Mobius strip: Lagrangian, momenta, Hamiltonian
# ---------------------------------------------------------------------------

def mobius_lagrangian(s: MobiusState, r: float, z_sign: int = -1) -> float:
    """Kinetic Lagrangian at a strip state, in closed form from the embedding.

    The cross term flips with the sign convention z_sign; at the default
    z_sign = -1 it is the closed form above (cross term -r*cos(phi/2)).
    ``verify``'s lagrangian-embedding checks it against central finite
    differences of geometry.mobius_point.
    """
    _check_r(r)
    half = 0.5 * s.phi
    c = math.cos(half)
    bracket = (1.0 + r * c) ** 2 + 0.25 * r * r
    return 0.5 * (s.phi_dot ** 2 * bracket + z_sign * r * c * s.z0_dot * s.phi_dot + s.z0_dot ** 2)


def _strip_bracket(c, sn, r, square=lambda one: one ** 2):
    """Metric bracket (1 + r*c)^2 + (r^2/4)*sn^2 at c = cos(phi/2), sn = sin(phi/2).

    Takes floats or arrays, but does not round alike on both: ``** 2`` is
    libm's pow on a float and numpy's x*x on an array, which differ in the
    last bit on about 875 of 10^6 inputs.  _sampled_energy, hence
    Trajectory.phi_dot, exports numpy's rounding.  ``square`` squares
    1 + r*c: mobius_hamiltonians passes libm's pow, mapped over the column.
    """
    return square(1.0 + r * c) + 0.25 * r * r * sn * sn


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


def mobius_hamiltonian(J: float, L0: float, phi: float, r: float) -> float:
    """Energy as a function of (J, L0, phi); at J = j, the spectrum's level energy.

    The bracket (1+r*cos(phi/2))^2 + (r^2/4)*sin^2(phi/2) makes it the
    Legendre transform of the closed Lagrangian, conserved along
    trajectories; at phi = (2k+1)*pi it reduces to energy_quantized.
    """
    _check_r(r)
    half = 0.5 * phi
    c = math.cos(half)
    jj = mobius_phidot(J, L0, phi, r)
    bracket = _strip_bracket(c, math.sin(half), r)
    return 0.5 * (jj * jj * bracket + L0 * L0)


def mobius_hamiltonians(J, L0, phi, r) -> np.ndarray:
    """mobius_hamiltonian at every row of the float columns, bit for bit.

    Its operations in its order, with libm's cos, sin and pow mapped over
    the column.  Each row must pass valid_r and hold no infinite phi (where
    mobius_hamiltonian raises): the caller masks the other rows out.
    """
    c, sn = _libm((math.cos, math.sin), 0.5 * phi)
    bracket = _strip_bracket(c, sn, r, lambda one: _libm(_pow2, one))
    jj = (J + 0.5 * r * L0 * c) / bracket
    return 0.5 * (jj * jj * bracket + L0 * L0)


def energy_quantized(j: float, L0: float, r: float) -> float:
    """Closed-form level energy at the quantized angles phi = (2k+1)*pi."""
    _check_r(r)
    return 2.0 * j * j / (4.0 + r * r) + 0.5 * L0 * L0


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
    Both are 0 on a trajectory sampled in closed form (quadrature_mobius).
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
        # the exported E and J keep their bytes: each ** 2 of an array is
        # numpy's x*x, and the r term groups as r**2 * sn**2, not as
        # _strip_bracket's r*r*sn*sn
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


def _start(s0: MobiusState, r: float, t_end: float, dt: float, energy_tol: float):
    """The checks both routes make before any step, and their output grid.

    Returns (out, p_phi0, L0, E0): ``out`` holds n_out + 1 rows of three
    columns, each column contiguous.  Non-finite inputs, a t_end/dt that is
    not finite, a NaN or negative energy_tol, an initial energy that is not
    finite and an output grid that cannot be allocated raise DomainError.
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
        out = np.empty((3, n_out + 1)).T
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise DomainError(f"cannot allocate {n_out + 1} output rows") from None
    return out, p_phi0, L0, E0


def integrate_mobius(
    s0: MobiusState,
    r: float,
    t_end: float,
    dt: float,
    energy_tol: float = 1e-6,
    max_halvings: int = 8,
) -> Trajectory:
    """Integrate the strip flow by RK4, sampling every dt up to t_end.

    The run is accepted only if the relative energy drift stays below
    ``energy_tol``; otherwise the internal step is halved (output grid
    unchanged) up to ``max_halvings`` times before EnergyDriftError.  Each
    trial but the last stops at the first block of BLOCK_ROWS rows that
    drifts too far.  Non-finite inputs, a t_end/dt that is not finite and an
    output grid that cannot be allocated raise DomainError before any step
    is taken.
    """
    out, p_phi0, L0, E0 = _start(s0, r, t_end, dt, energy_tol)
    n_out = out.shape[0] - 1
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
# Trajectory in closed form
# ---------------------------------------------------------------------------

FOUR_PI = 4.0 * math.pi
# Chebyshev points per panel of the quadrature table
PANEL_POINTS = 12
# panels of the quadrature table per halving of the distance to the neck
STEP_PANELS = 3
# rows the quadrature inverts at a time, so that their temporaries stay in cache
CHUNK_ROWS = 16384
# first-kind Chebyshev points on [-1, 1], and the map from values there to coefficients
_ANGLES = (np.arange(PANEL_POINTS) + 0.5) * (math.pi / PANEL_POINTS)
_NODES = np.cos(_ANGLES)
_FIT = (2.0 / PANEL_POINTS) * np.cos(np.outer(_ANGLES, np.arange(PANEL_POINTS)))
_FIT[:, 0] *= 0.5


def _chebyshev(coef, s, panel):
    """sum_k coef[k][panel] T_k(s) by Clenshaw's recurrence.

    Gathers one coefficient row at a time, so that no per-row matrix of
    coefficients is formed.
    """
    x = 2.0 * s
    b1 = b2 = 0.0
    for row in coef[:0:-1]:
        b1, b2 = x * b1 - b2 + row.take(panel), b1
    return s * b1 - b2 + coef[0].take(panel)


def _root_bracket(phi, r):
    half = 0.5 * phi
    return np.sqrt(_strip_bracket(np.cos(half), np.sin(half), r))


class _StripQuadrature:
    """G(phi) = integral_0^phi sqrt(B) from one table of Chebyshev panels, and its inverse.

    sqrt(B) is even and 4*pi-periodic, so G is odd, G(phi + 4*pi) = G(phi) +
    period, and the table holds [0, 2*pi], from the widest point to the neck.
    sqrt(B) is analytic only within about 1 - r of the neck, so the panels
    grade toward it geometrically: each is about a fifth as wide as its
    distance from the neck, and their edges lie 2*pi*2^(-j/STEP_PANELS) from
    it, down to the first edge at most 1 - r, or 2^-40, closer than which no
    panel adds to G in double precision.  On a panel, G is the antiderivative
    of sqrt(B)'s interpolant at PANEL_POINTS Chebyshev points, and phi(G) a
    Chebyshev series at as many points in G, solved once by Newton steps
    clipped to the panel.
    """

    def __init__(self, r: float):
        self.r = r
        edges = math.ceil(STEP_PANELS * math.log2(2.0 * math.pi / max(1.0 - r, 2.0 ** -40)))
        self.lo = 2.0 * math.pi * (1.0 - 0.5 ** (np.arange(edges + 1) / STEP_PANELS))
        self.hi = np.append(self.lo[1:], 2.0 * math.pi)
        self.mid = 0.5 * (self.lo + self.hi)
        self.half = 0.5 * (self.hi - self.lo)
        a = _root_bracket(self.mid[:, None] + self.half[:, None] * _NODES, r) @ _FIT
        # the antiderivative's coefficients, b_k = (a_{k-1} - a_{k+1})/(2k) but
        # b_1 = a_0 - a_2/2, with b_0 setting it to 0 at each panel's left edge
        k = np.arange(1, PANEL_POINTS + 1)
        padded = np.zeros((a.shape[0], PANEL_POINTS + 3))
        padded[:, 1:-2] = a
        b = self.half[:, None] * (padded[:, :-2] - padded[:, 2:]) / np.append(1.0, 2.0 * k)
        b[:, 1] += 0.5 * self.half * a[:, 0]
        b[:, 0] = -(b[:, 1:] @ (-1.0) ** k)
        rise = b.sum(axis=1)
        g_hi = np.cumsum(rise)
        g_lo = np.append(0.0, g_hi[:-1])
        # the sum again with its rounding errors (TwoSum): the period is the
        # same to an ulp whatever the panels, and an orbit's turns multiply it
        added = g_hi - g_lo
        g_hi += np.cumsum((g_lo - (g_hi - added)) + (rise - added))
        g_lo = np.append(0.0, g_hi[:-1])
        b[:, 0] += g_lo
        self.forward = b.T.copy()
        self.period = 2.0 * g_hi[-1]
        # a panel narrower than the roundoff of G takes no g but at the end,
        # where the lookup stops at the last panel that G can tell apart
        self.g_lo = g_lo[:np.flatnonzero(g_hi > g_lo)[-1] + 1]
        self.g_mid = 0.5 * (g_lo + g_hi)
        self.g_half = 0.5 * (g_hi - g_lo)
        target = self.g_mid[:, None] + self.g_half[:, None] * _NODES
        s = np.tile(_NODES, (self.lo.size, 1))  # G linear on the panel
        panel = np.arange(self.lo.size)[:, None]
        for _ in range(3):  # s to 1e-13 at every r measured; a row's Newton step squares it
            phi = self.mid[:, None] + self.half[:, None] * s
            slope = self.half[:, None] * _root_bracket(phi, r)
            s = np.clip(s - (_chebyshev(self.forward, s, panel) - target) / slope, -1.0, 1.0)
        self.backward = ((self.mid[:, None] + self.half[:, None] * s) @ _FIT).T.copy()

    def __call__(self, phi):
        """G at an array of angles, or at a float."""
        turns = np.rint(phi / FOUR_PI)
        x = phi - turns * FOUR_PI
        a = np.minimum(np.abs(x), 2.0 * math.pi)
        p = np.searchsorted(self.lo, a, side="right") - 1
        g = _chebyshev(self.forward, (a - self.mid.take(p)) / self.half.take(p), p)
        return np.copysign(g, x) + turns * self.period

    def inverse(self, g: np.ndarray) -> np.ndarray:
        """phi with G(phi) = g: the backward series, then one Newton step on G."""
        turns = np.rint(g / self.period)
        y = g - turns * self.period
        a = np.minimum(np.abs(y), 0.5 * self.period)
        p = np.searchsorted(self.g_lo, a, side="right") - 1
        phi = _chebyshev(self.backward, (a - self.g_mid.take(p)) / self.g_half.take(p), p)
        value = _chebyshev(self.forward, (phi - self.mid.take(p)) / self.half.take(p), p)
        phi -= (value - a) / _root_bracket(phi, self.r)
        # G is monotone, so the panel brackets the root: this bounds the step
        # where sqrt(B) is small, at the neck
        np.clip(phi, self.lo.take(p), self.hi.take(p), out=phi)
        return np.copysign(phi, y) + turns * FOUR_PI


def quadrature_mobius(
    s0: MobiusState,
    r: float,
    t_end: float,
    dt: float,
    energy_tol: float = 1e-6,
) -> Trajectory:
    """The strip flow in closed form, sampled every dt up to t_end.

    Z0 is cyclic and E is conserved, so K = phi_dot^2 B(phi) is constant and
    the orbit is the quadrature G(phi(t)) = G(phi0) + sign(phi_dot0)*sqrt(K)*t,
    G = integral of sqrt(B), taken from a table of Chebyshev panels (see
    _StripQuadrature); phi_dot = sign(phi_dot0)*sqrt(K/B(phi)) and
    z0 = z0(0) + L0*t + r*(sin(phi/2) - sin(phi0/2)).  K = 0 keeps phi
    constant.  The result has substeps = steps = 0.

    Raises the DomainErrors of integrate_mobius, and EnergyDriftError where a
    value is not finite or the energy drift is over ``energy_tol``.
    """
    out, _, L0, E0 = _start(s0, r, t_end, dt, energy_tol)
    t = dt * np.arange(out.shape[0])
    phi, phi_dot, z0 = out.T
    half0 = 0.5 * s0.phi
    K = s0.phi_dot * s0.phi_dot * _strip_bracket(math.cos(half0), math.sin(half0), r)
    with np.errstate(over="ignore", invalid="ignore"):  # such a row raises below
        if K == 0.0:
            phi[:] = s0.phi
        else:
            flow = _StripQuadrature(r)
            g0, rate = flow(s0.phi), math.copysign(math.sqrt(K), s0.phi_dot)
            for lo in range(0, t.size, CHUNK_ROWS):
                phi[lo:lo + CHUNK_ROWS] = flow.inverse(g0 + rate * t[lo:lo + CHUNK_ROWS])
            phi[0] = s0.phi
        half = 0.5 * phi
        c, sn = np.cos(half), np.sin(half)
        bracket = _strip_bracket(c, sn, r)
        np.copysign(np.sqrt(K / bracket), s0.phi_dot, out=phi_dot)
        np.add(s0.z0 + L0 * t, r * (sn - sn[0]), out=z0)
        energy = 0.5 * (phi_dot ** 2 * bracket + L0 * L0)
    finite = np.isfinite(out).all()
    drift = float(np.max(np.abs(energy - E0)) / max(1.0, abs(E0))) if finite else math.inf
    if not _accepts(drift, energy_tol):
        raise EnergyDriftError(f"energy drift {drift:g} above {energy_tol:g}", achieved=drift)
    return Trajectory(t=t, phi=phi, phi_dot=phi_dot, z0=z0, z0_dot=L0 + 0.5 * r * c * phi_dot,
                      r=r, L0=L0, substeps=0, steps=0)


# ---------------------------------------------------------------------------
# Torus: Lagrangian, momenta, Hamiltonian
# ---------------------------------------------------------------------------

def torus_lagrangian(s: TorusState, g: TorusGeometry) -> float:
    """Kinetic Lagrangian at a torus state (independent angles theta, phi), from the embedding:

        1/2 { phi_dot^2 (R + r sin th)^2 + (r th_dot)^2 - 2 r sin th z0_dot th_dot + z0_dot^2 }

    ``verify``'s lagrangian-embedding checks it against central finite
    differences of geometry.torus_point.
    """
    if not valid_r(g.r, g.R):
        raise DomainError("need 0 <= r < R")
    sth = math.sin(s.theta)
    return 0.5 * (
        s.phi_dot ** 2 * (g.R + g.r * sth) ** 2
        + (g.r * s.theta_dot) ** 2
        - 2.0 * g.r * sth * s.z0_dot * s.theta_dot
        + s.z0_dot ** 2
    )


def torus_momenta(s: TorusState, g: TorusGeometry) -> tuple[float, float, float]:
    """Conjugate momenta (J0, L0, p_theta) of the torus Lagrangian."""
    sth = math.sin(s.theta)
    J0 = s.phi_dot * (g.R + g.r * sth) ** 2
    L0 = s.z0_dot - g.r * sth * s.theta_dot
    p_theta = g.r ** 2 * s.theta_dot - g.r * sth * s.z0_dot
    return J0, L0, p_theta


def torus_hamiltonian(J0: float, L0: float, p_theta: float, theta: float, r: float) -> float:
    """Torus energy in momenta (R = 1); singular within SINGULAR_TOL of cos(theta) = 0."""
    _check_r(r)
    if r == 0.0:
        raise DomainError("tube radius r must be positive for the momentum chart")
    cth = math.cos(theta)
    if abs(cth) < SINGULAR_TOL:
        raise CoordinateSingularityError(
            f"theta={theta} is within {SINGULAR_TOL} of the chart singularity cos(theta)=0"
        )
    sth = math.sin(theta)
    return 0.5 * (
        J0 ** 2 / (1.0 + r * sth) ** 2
        + (p_theta + r * sth * L0) ** 2 / (r * cth) ** 2
        + L0 ** 2
    )
