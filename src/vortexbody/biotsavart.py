"""Vorticity carried by regularized blobs, and every velocity assembly
built on it: free-space sums, the zero-flux zero-circulation exterior
field around the body, and the full body-frame decomposition.

The blob kernel is the Gaussian-core regularization

    u(x) = sum_j (Gamma_j / 2 pi) perp(x - y_j) (1 - exp(-|x-y_j|^2/delta^2)) / |x-y_j|^2,

which agrees with the exact point kernel to machine precision once
|x - y_j| exceeds a few core radii.  Its stream function is
(1/2pi)(ln r + E1(r^2/delta^2)/2), used by the energy bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import exp1

from .geometry import TWO_PI, polygon_contains
from .potential import ScaledPotentials, log_gradient_sum


class BodyCollisionError(RuntimeError):
    """Raised when vorticity reaches the body: outside the regime where
    the evolution is defined."""


@dataclass(frozen=True)
class BlobField:
    """A finite set of Gaussian blobs sharing one core radius.

    ``frame`` records whether positions are body-frame or lab-frame
    coordinates; all kernel math is frame-agnostic.
    """

    x: np.ndarray          # (n, 2)
    gamma: np.ndarray      # (n,)
    delta: float
    frame: str = "body"

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_2d(np.asarray(self.x, float)))
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, float)))
        if self.x.shape[0] != self.gamma.shape[0]:
            raise ValueError("positions and circulations disagree in length")
        if self.frame not in ("body", "lab"):
            raise ValueError("frame must be 'body' or 'lab'")

    @classmethod
    def empty(cls, delta: float = 0.1, frame: str = "body") -> "BlobField":
        return cls(x=np.zeros((0, 2)), gamma=np.zeros(0), delta=delta, frame=frame)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def beta(self) -> float:
        """Total circulation carried by the blobs."""
        return float(self.gamma.sum())

    def with_positions(self, x: np.ndarray) -> "BlobField":
        return replace(self, x=np.asarray(x, dtype=float))

    def shifted(self, offset, frame: str | None = None) -> "BlobField":
        return replace(self, x=self.x + np.asarray(offset, float),
                       frame=frame or self.frame)

    def distances_to(self, point) -> np.ndarray:
        return np.hypot(*(self.x - np.asarray(point, float)).T)


def _kernel_terms(field: BlobField, points):
    """Pairwise differences, squared distances and the core factor."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    d = pts[:, None, :] - field.x[None, :, :]
    rho = d[..., 0] ** 2 + d[..., 1] ** 2
    core = -np.expm1(-rho / field.delta ** 2)
    return pts, d, rho, core


def velocity_free_space(field: BlobField, points) -> np.ndarray:
    """Regularized Biot-Savart sum at each point; rows align with points.

    Evaluation at a blob's own center is fine: that term vanishes in
    the core limit.  Large point sets are processed in chunks to keep
    the pairwise temporaries bounded.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if field.n == 0:
        return np.zeros_like(pts)
    out = np.empty_like(pts)
    step = max(1, 2 ** 21 // max(field.n, 1))
    for lo in range(0, pts.shape[0], step):
        _, d, rho, core = _kernel_terms(field, pts[lo:lo + step])
        coef = np.zeros_like(rho)
        np.divide(core, rho, out=coef, where=rho > 0.0)
        coef *= field.gamma / TWO_PI
        out[lo:lo + step, 0] = -(coef * d[..., 1]).sum(axis=1)
        out[lo:lo + step, 1] = (coef * d[..., 0]).sum(axis=1)
    return out


@dataclass(frozen=True)
class GradientSample:
    """The traceless symmetric velocity gradient at a point, packed as the
    two scalars (a, b) of [[-a, b], [b, a]].  ``clean`` is False when a
    blob core sits within five radii, where the harmonic structure the
    modulation terms rely on breaks down."""

    a: float
    b: float
    clean: bool = True

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[-self.a, self.b], [self.b, self.a]])

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.array([-self.a * v[0] + self.b * v[1],
                         self.b * v[0] + self.a * v[1]])


def velocity_gradient(field: BlobField, point) -> GradientSample:
    """Symmetric part of the blob-sum Jacobian at one point.

    For a divergence-free sum the diagonal is traceless exactly; the
    off-diagonal is symmetrized, discarding the local vorticity of any
    nearby cores (the clean flag reports whether any are near).
    """
    if field.n == 0:
        return GradientSample(0.0, 0.0, True)
    pts, d, rho, core = _kernel_terms(field, point)
    if pts.shape[0] != 1:
        raise ValueError("one sample point at a time")
    d, rho, core = d[0], rho[0], core[0]
    # dG/d(rho) for G = (1 - exp(-rho/delta^2)) / rho.  The direct form
    # loses all digits for rho << delta^2, so switch to the series there.
    delta2 = field.delta ** 2
    u = rho / delta2
    near = u < 1e-3
    safe_rho = np.where(near, 1.0, rho)
    gp = np.where(near,
                  (-0.5 + u / 3.0 - u ** 2 / 8.0) / delta2 ** 2,
                  (rho / delta2 * np.exp(-u) - core) / safe_rho ** 2)
    a = float(np.sum(field.gamma / np.pi * d[:, 0] * d[:, 1] * gp))
    b = float(np.sum(field.gamma / TWO_PI * (d[:, 0] ** 2 - d[:, 1] ** 2) * gp))
    clean = bool(rho.min() > (5.0 * field.delta) ** 2) if field.n else True
    return GradientSample(a, b, clean)


# ---------------------------------------------------------------------------
# exterior hydrodynamic field


class HydrodynamicField:
    """The zero-flux, zero-circulation velocity induced by a blob field
    outside the body.

    One boundary solve per blob snapshot: the free-space field's normal
    trace is cancelled by an exterior potential, solved on the unit mesh
    (the kernel is scale-invariant) and evaluated through the scaling
    laws.  The correction density is reused for every evaluation point.
    """

    def __init__(self, scaled: ScaledPotentials, field: BlobField):
        base = scaled.base
        mesh = base.mesh
        eps = scaled.eps
        nodes_eps = eps * mesh.x
        if field.n and polygon_contains(nodes_eps, field.x).any():
            raise BodyCollisionError("blob inside the body")
        self.scaled = scaled
        self.field = field
        u_free = velocity_free_space(field, nodes_eps)
        g = -(u_free * mesh.normal).sum(axis=1)
        # project out the tiny incompatible part (blob-core tails inside
        # the body); its size is a quality diagnostic
        w_eps = eps * mesh.w
        self.flux_defect = float(np.sum(g * w_eps) / np.sum(w_eps))
        g = g - self.flux_defect
        self._sigma = base.ops.neumann_density(g, compat_tol=np.inf)
        self._charges = self._sigma * mesh.w
        self._boundary_tangent = ((u_free * mesh.tau).sum(axis=1)
                                  + base.ops.arc_derivative(
                                      base.ops.layer_values(self._sigma)))

    def velocity(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        correction = log_gradient_sum(pts / self.scaled.eps,
                                      self.scaled.base.mesh.x, self._charges)
        return velocity_free_space(self.field, pts) + correction

    def boundary_trace(self) -> np.ndarray:
        """Velocity on the body boundary: tangent up to the flux defect."""
        return self._boundary_tangent[:, None] * self.scaled.base.mesh.tau


class BodyFrameVelocity:
    """The full body-frame fluid velocity

        v = K_H[omega] + gamma H + l1 grad Phi_1 + l2 grad Phi_2 + r grad Phi_3

    and its circulation-free part obtained by dropping gamma H.
    """

    def __init__(self, scaled: ScaledPotentials, field: BlobField,
                 gamma: float, ell, r: float):
        self.scaled = scaled
        self.gamma = float(gamma)
        self.ell = np.asarray(ell, dtype=float)
        self.r = float(r)
        self.hydro = HydrodynamicField(scaled, field)
        # the exterior correction and the Kirchhoff potentials are all
        # single layers on the same nodes: merge their charges so one
        # gradient sum serves the whole circulation-free part
        phi = scaled.base.phi
        self._layer_charges = (self.hydro._charges
                               + self.ell[0] * phi[0].charges
                               + self.ell[1] * phi[1].charges
                               + self.r * scaled.eps * phi[2].charges)

    def tilde_velocity(self, points) -> np.ndarray:
        """v minus its circulation carrier gamma H."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        layer = log_gradient_sum(pts / self.scaled.eps,
                                 self.scaled.base.mesh.x, self._layer_charges)
        return velocity_free_space(self.hydro.field, pts) + layer

    def velocity(self, points) -> np.ndarray:
        v = self.tilde_velocity(points)
        if self.gamma != 0.0:
            v = v + self.gamma * self.scaled.h_velocity(points)
        return v

    def boundary_trace(self) -> np.ndarray:
        return (self.tilde_boundary_trace()
                + self.gamma * self.scaled.h_boundary_trace())

    def tilde_boundary_trace(self) -> np.ndarray:
        s = self.scaled
        pot = (self.ell[0] * s.phi_boundary_trace(1)
               + self.ell[1] * s.phi_boundary_trace(2)
               + self.r * s.phi_boundary_trace(3))
        return self.hydro.boundary_trace() + pot

    def boundary_normal_data(self) -> np.ndarray:
        """What v.n must equal on the boundary: the rigid normal velocity."""
        mesh = self.scaled.base.mesh
        k1 = mesh.neumann_data(1)
        k2 = mesh.neumann_data(2)
        k3 = self.scaled.eps * mesh.neumann_data(3)
        return self.ell[0] * k1 + self.ell[1] * k2 + self.r * k3


# ---------------------------------------------------------------------------
# energy bookkeeping helpers


def pair_stream_matrix(field: BlobField) -> np.ndarray:
    """Regularized free-space stream values for every blob pair.

    Off-diagonal: (1/2pi)(ln r + E1(r^2/delta^2)/2), the stream function
    consistent with the Gaussian-core kernel.  Diagonal: its finite limit
    (1/2pi)(ln delta - euler_gamma/2), the blob self-interaction.
    """
    d = field.x[:, None, :] - field.x[None, :, :]
    rho = d[..., 0] ** 2 + d[..., 1] ** 2
    out = np.empty_like(rho)
    off = rho > 0
    out[off] = (0.5 * np.log(rho[off]) + 0.5 * exp1(rho[off] / field.delta ** 2))
    np.fill_diagonal(out, np.log(field.delta) - 0.5 * np.euler_gamma)
    return out / TWO_PI
