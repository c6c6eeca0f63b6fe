"""Modulated body variables and the small-size structure of the body
equation.

The ambient vorticity moves the body-frame origin with a drift (the blob
velocity at the origin) and strains it with a traceless symmetric
gradient (two scalars a, b).  Removing the drift, and a strain
correction attached to the conformal center of the shape, from the body
velocity gives the modulated momentum.  In these variables Newton's
equations collapse to two exactly gyroscopic quadratic tensors, a
circulation term along a fixed axis, a weakly gyroscopic scalar and a
weakly nonlinear remainder.  This module builds those pieces, the
closed-form force approximations they come from, and residual and
identity checks evaluated on series sampled along a run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .biotsavart import HydrodynamicField, velocity_free_space, velocity_gradient
from .coupled_system import CoupledState
from .geometry import perp
from .potential import MassData

__all__ = [
    "ModulationData",
    "modulation",
    "ModulationSeries",
    "sample_modulation",
    "cross_product",
    "gyro_axis",
    "apply_lambda",
    "expansion_B",
    "expansion_C",
    "boundary_approximation_defect",
    "ResidualSeries",
    "normal_form_residual",
    "rotated_mass_identity_check",
    "modulation_rate_monitor",
]


# ---------------------------------------------------------------------------
# modulated variables


@dataclass(frozen=True)
class ModulationData:
    """Origin samples of the ambient blob field and the body momentum
    with the ambient drift and the strain correction through the
    conformal center removed; the spin is scaled to eps*r."""

    origin_velocity: np.ndarray     # ambient velocity at the body origin
    a: float                        # strain scalars: gradient [[-a, b], [b, a]]
    b: float
    ell_modulated: np.ndarray
    p_modulated: np.ndarray         # (ell_modulated, eps r)
    clean: bool                     # False when a blob core crowds the origin

    def strain(self, v) -> np.ndarray:
        return _strain(self.a, self.b, v)


def _strain(a: float, b: float, v) -> np.ndarray:
    """Apply the gradient [[-a, b], [b, a]]; v may be one vector or (n, 2)."""
    v = np.asarray(v, dtype=float)
    return np.stack([-a * v[..., 0] + b * v[..., 1],
                     b * v[..., 0] + a * v[..., 1]], axis=-1)


def modulation(state: CoupledState) -> ModulationData:
    """Sample the blob field at the body origin and modulate (ell, r)."""
    drift = velocity_free_space(state.field, np.zeros((1, 2)))[0]
    gs = velocity_gradient(state.field, np.zeros(2))
    a, b, clean = gs.a, gs.b, gs.clean

    eps = state.eps
    xi = state.mass.xi
    ell_mod = state.ell - drift - eps * _strain(a, b, xi)
    return ModulationData(
        origin_velocity=drift, a=a, b=b, ell_modulated=ell_mod,
        p_modulated=np.array([*ell_mod, eps * state.r]), clean=clean)


_SAMPLED = ("t", "theta", "gamma", "r", "drift", "a", "b", "p_modulated")


@dataclass(frozen=True)
class ModulationSeries:
    """The samples of one coupled run that the trajectory diagnostics
    read, at a uniform cadence; ``series[::2]`` doubles the cadence."""

    t: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    r: np.ndarray
    drift: np.ndarray           # (m, 2) ambient velocity at the body origin
    a: np.ndarray               # (m,) strain scalars
    b: np.ndarray
    p_modulated: np.ndarray     # (m, 3)
    eps: float
    alpha: float
    mass: MassData

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, samples: slice) -> ModulationSeries:
        return replace(self, **{key: getattr(self, key)[samples]
                                for key in _SAMPLED})

    @classmethod
    def from_columns(cls, columns, state: CoupledState) -> ModulationSeries:
        """Stack sampled columns keyed by field name; eps, alpha and mass
        come from ``state``."""
        return cls(eps=state.eps, alpha=state.alpha, mass=state.mass,
                   **{key: np.asarray(columns[key]) for key in _SAMPLED})


def sample_modulation(state: CoupledState) -> dict:
    """One ModulationSeries row keyed by field name."""
    mod = modulation(state)
    return {"t": state.t, "theta": state.placement.theta,
            "gamma": state.gamma, "r": state.r, "drift": mod.origin_velocity,
            "a": mod.a, "b": mod.b, "p_modulated": mod.p_modulated}


# ---------------------------------------------------------------------------
# gyroscopic structure


def cross_product(pa, pb) -> np.ndarray:
    """Cross product of (velocity, spin) triples:
    (l_a, w_a) x (l_b, w_b) = (w_a l_b^perp - w_b l_a^perp, l_a^perp . l_b).

    The ordinary R^3 cross product in 2d notation, along the last axis.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    la, wa = pa[..., :2], pa[..., 2:]
    lb, wb = pb[..., :2], pb[..., 2:]
    dot = perp(la)[..., None, :] @ lb[..., None]  # rows get single-call bits
    return np.concatenate([wa * perp(lb) - wb * perp(la), dot[..., 0]], -1)


def gyro_axis(mass: MassData) -> np.ndarray:
    """Fixed axis of the circulation term: (xi^perp, -1)."""
    return np.array([*perp(mass.xi), -1.0])


def _lambda_quadratic(mass: MassData, which: str, p: np.ndarray) -> np.ndarray:
    ell, r = p[..., :2], p[..., 2:]
    if which == "g":
        return np.concatenate([mass.m1 * r * perp(ell), np.zeros_like(r)], -1)
    Mell = (mass.added_2x2 @ ell[..., None])[..., 0]  # single-call bits
    dot = perp(ell)[..., None, :] @ Mell[..., None]
    under = np.concatenate([r * perp(Mell), dot[..., 0]], -1)
    if which == "under":
        return under
    if which == "a":
        return under + r * cross_product(p, mass.mu)
    raise ValueError(f"unknown tensor {which!r}; use 'g', 'under' or 'a'")


def apply_lambda(mass: MassData, which: str, p, q=None) -> np.ndarray:
    """Evaluate one of the quadratic gyroscopic tensors on momenta along
    the last axis: a (3,) p gives (3,), a (k, 3) stack gives (k, 3).
    With one argument: the quadratic form <Lambda, p, p>.  With two: the
    symmetric bilinear extension by polarization.  'g' is the genuine-mass
    tensor, 'under' the bare added-mass one, 'a' adds the spin coupling
    through the first moments of the potentials.
    """
    p = np.asarray(p, dtype=float)
    if q is None:
        return _lambda_quadratic(mass, which, p)
    q = np.asarray(q, dtype=float)
    return 0.5 * (_lambda_quadratic(mass, which, p + q)
                  - _lambda_quadratic(mass, which, p)
                  - _lambda_quadratic(mass, which, q))


def _weak_gyro(a: float, b: float, mass: MassData) -> np.ndarray:
    """Weakly gyroscopic vector (0, 0, xi . strain(xi) + a eta_1 - b eta_2)."""
    xi, eta = mass.xi, mass.eta
    third = xi @ _strain(a, b, xi) + a * eta[0] - b * eta[1]
    return np.array([0.0, 0.0, third])


# ---------------------------------------------------------------------------
# closed-form force approximations (order-of-accuracy studies only)


def expansion_B(state: CoupledState, mod: ModulationData) -> np.ndarray:
    """Leading behavior of the vorticity force at small body size.

    Every coefficient carries its size scaling already (mass entries,
    area, centroid and quartic moments of the scaled shape), so the
    components 1, 2 are accurate to O(eps^2) and component 3 to
    O(eps^3).
    """
    sc = state.scaled
    m = sc.mass
    S = sc.area
    xg = sc.centroid
    a, b = mod.a, mod.b
    k0 = mod.origin_velocity
    l1, l2 = state.ell
    r = state.r

    lead = r * (m[:2, :2] + S * np.eye(2)) @ perp(k0)
    col1 = np.array([-(m[0, 0] + S) * a + m[0, 1] * b,
                     -m[1, 0] * a + (m[1, 1] + S) * b])
    col2 = np.array([m[0, 1] * a + (m[0, 0] + S) * b,
                     (m[1, 1] + S) * a + m[1, 0] * b])
    col3 = np.array([m[0, 4] + S * xg[1], m[1, 4] + S * xg[0]])
    col4 = np.array([-m[0, 3] + S * xg[0], -m[1, 3] - S * xg[1]])
    b12 = lead - l1 * col1 - l2 * col2 - 2 * r * a * col3 - 2 * r * b * col4

    b3 = (r * (np.array([m[2, 1], -m[2, 0]]) + S * xg) @ k0
          - l1 * ((-m[2, 0] + S * xg[1]) * a + (m[2, 1] + S * xg[0]) * b)
          - l2 * ((m[2, 1] + S * xg[0]) * a + (m[2, 0] - S * xg[1]) * b)
          - 2 * r * a * (m[2, 4] + sc.m_diff)
          + 2 * r * b * (m[2, 3] + sc.m_cross))
    return np.array([b12[0], b12[1], b3])


def expansion_C(state: CoupledState,
                mod: ModulationData) -> tuple[np.ndarray, np.ndarray]:
    """Leading behavior of the two boundary forces (quadratic part,
    circulation part); same accuracy pattern as expansion_B."""
    sc = state.scaled
    m = sc.mass
    S = sc.area
    xg = sc.centroid
    a, b = mod.a, mod.b
    k0 = mod.origin_velocity
    l1, l2 = state.ell
    r = state.r
    off = k0 - state.ell

    lead = (r ** 2 * np.array([-m[2, 1], m[2, 0]])
            - r * perp(m[:2, :2] @ off + S * k0))
    t1 = np.array([(m[0, 0] + S) * a - m[0, 1] * b,
                   -m[0, 1] * a - (m[0, 0] + S) * b])
    t2 = np.array([m[1, 0] * a - (m[1, 1] + S) * b,
                   -(m[1, 1] + S) * a - m[1, 0] * b])
    t3 = np.array([-m[2, 0] + m[3, 1] + 2 * S * xg[1],
                   m[2, 1] - m[3, 0] + 2 * S * xg[0]])
    t4 = np.array([m[2, 1] + m[4, 1] + 2 * S * xg[0],
                   m[2, 0] - m[4, 0] - 2 * S * xg[1]])
    ca12 = lead - l1 * t1 - l2 * t2 + a * r * t3 + b * r * t4

    ca3 = (perp(off) @ (m[:2, :2] @ off)
           + r * off @ np.array([-m[2, 1], m[2, 0]])
           - r * S * (k0 @ xg)
           + l1 * (a * (-m[3, 1] + S * xg[1] + 2 * m[0, 4])
                   + b * (-m[4, 1] + S * xg[0] - 2 * m[0, 3]))
           + l2 * (a * (m[3, 0] + S * xg[0] + 2 * m[1, 4])
                   + b * (m[4, 0] - S * xg[1] - 2 * m[1, 3]))
           + 2 * r * a * (m[2, 4] + sc.m_diff)
           - 2 * r * b * (m[2, 3] + sc.m_cross))

    gamma, eps = state.gamma, state.eps
    xi, eta = state.mass.xi, state.mass.eta
    cb12 = (gamma * perp(off) + gamma * eps * r * xi
            + gamma * eps * perp(mod.strain(xi)))
    cb3 = (gamma * eps * (xi @ off)
           + gamma * eps ** 2 * (-a * eta[0] + b * eta[1]))

    return (np.array([ca12[0], ca12[1], ca3]),
            np.array([cb12[0], cb12[1], cb3]))


def boundary_approximation_defect(state: CoupledState,
                                  mod: ModulationData) -> float:
    """Boundary L2 gap between the drift-strain-potential surrogate of
    the circulation-free trace and the exact one.

    The surrogate replaces the blob field by its origin jet (drift plus
    strain) and carries the induced potentials; the spin potential is
    shared by both sides.  Decays like eps^(5/2).
    """
    sc = state.scaled
    mesh = sc.base.mesh
    nodes = state.eps * mesh.x
    off = state.ell - mod.origin_velocity

    surrogate = (mod.origin_velocity + mod.strain(nodes)
                 + off[0] * sc.phi_boundary_trace(1)
                 + off[1] * sc.phi_boundary_trace(2)
                 - mod.a * sc.phi_boundary_trace(4)
                 - mod.b * sc.phi_boundary_trace(5)
                 + state.r * sc.phi_boundary_trace(3))
    exact = HydrodynamicField(sc, state.field).tilde_boundary_trace(
        state.ell, state.r)
    gap = exact - surrogate
    return float(np.sqrt(((gap ** 2).sum(1) * state.eps * mesh.w).sum()))


# ---------------------------------------------------------------------------
# trajectory diagnostics


@dataclass(frozen=True)
class ResidualSeries:
    """Centered-difference residual of the modulated body equation,
    rescaled by eps^min(alpha, 2), at the interior sample times."""

    t: np.ndarray
    implied: np.ndarray          # remainder force series, (n-2, 3)
    fitted_constant: float       # max |implied| / (1 + |p| + eps |p|^2)
    dt_converged: bool | None = None  # None when the run is too short to tell

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.implied, axis=1)


def _residual_core(series: ModulationSeries, dt):
    eps, alpha, mass = series.eps, series.alpha, series.mass
    p = series.p_modulated
    M = eps ** alpha * mass.genuine + eps ** 2 * mass.added_3x3
    axis = gyro_axis(mass)
    quad = (eps ** (alpha - 1.0) * apply_lambda(mass, "g", p)
            + eps * apply_lambda(mass, "a", p))
    out = np.empty((len(series) - 2, 3))
    for k in range(1, len(series) - 1):
        dp = (p[k + 1] - p[k - 1]) / (2.0 * dt)
        gyro = series.gamma[k] * cross_product(p[k], axis)
        weak = eps * series.gamma[k] * _weak_gyro(series.a[k], series.b[k],
                                                  mass)
        out[k - 1] = (M @ dp + quad[k] - gyro - weak) / eps ** min(alpha, 2.0)
    sizes = np.linalg.norm(p[1:-1], axis=1)
    fitted = float((np.linalg.norm(out, axis=1)
                    / (1.0 + sizes + eps * sizes ** 2)).max())
    return out, fitted


def normal_form_residual(series: ModulationSeries, dt: float) -> ResidualSeries:
    """Everything in the modulated equation except the remainder force,
    moved to one side: what is left over, divided by its expected size.

    The momentum derivative uses centered differences at the sampled
    cadence, no smoothing; dt_converged compares against the double
    cadence and flags runs sampled too coarsely for the difference to
    mean anything."""
    if len(series) < 3:
        raise ValueError("need at least three uniformly spaced samples")
    out, fitted = _residual_core(series, dt)

    converged = None
    if len(series) >= 5:
        _, coarse = _residual_core(series[::2], 2.0 * dt)
        scale = max(fitted, np.finfo(float).tiny)
        converged = bool(abs(coarse - fitted) <= 0.1 * scale)

    return ResidualSeries(t=series.t[1:-1], implied=out,
                          fitted_constant=fitted, dt_converged=converged)


def rotated_mass_identity_check(series: ModulationSeries, dt: float) -> float:
    """Max gap, over interior times and the two velocity components,
    between the attitude-rotated inertia terms and the plain time
    derivative of the rotated momentum.

    Both sides use centered differences; the gap vanishes at rate dt^2.
    """
    if len(series) < 3:
        raise ValueError("need at least three uniformly spaced samples")
    eps, alpha, mass = series.eps, series.alpha, series.mass
    Mg, Ma = mass.genuine, mass.added_3x3
    M = eps ** alpha * Mg + eps ** 2 * Ma
    p = series.p_modulated

    def Q(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    rotated = np.array([
        (eps ** alpha * Mg @ Q(theta) + eps ** 2 * Q(theta) @ Ma) @ pk
        for theta, pk in zip(series.theta, p)])

    quad = (eps ** (alpha - 1.0) * apply_lambda(mass, "g", p)
            + eps * apply_lambda(mass, "a", p))
    worst = 0.0
    for k in range(1, len(series) - 1):
        dp = (p[k + 1] - p[k - 1]) / (2.0 * dt)
        lhs = (Q(series.theta[k]) @ (M @ dp + quad[k]))[:2]
        rhs = ((rotated[k + 1] - rotated[k - 1]) / (2.0 * dt))[:2]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def modulation_rate_monitor(series: ModulationSeries, dt: float):
    """Centered-difference rate of the drift-plus-strain correction,
    with the spin rotation removed, fitted against 1 + |p_modulated|.

    Returns (times, rates, fitted constant).  Bounded along healthy runs.
    """
    vals = series.drift + series.eps * _strain(series.a, series.b,
                                               series.mass.xi)
    rates = np.empty((len(series) - 2, 2))
    fitted = 0.0
    for k in range(1, len(series) - 1):
        rate = ((vals[k + 1] - vals[k - 1]) / (2.0 * dt)
                + series.r[k] * perp(series.drift[k]))
        rates[k - 1] = rate
        size = np.linalg.norm(series.p_modulated[k])
        fitted = max(fitted, float(np.linalg.norm(rate) / (1.0 + size)))
    return series.t[1:-1], rates, fitted
