"""Vorticity carried by regularized blobs, and every velocity assembly
built on it: free-space sums, and the zero-flux zero-circulation exterior
field around the body, which also serves the body-frame velocity at the
blobs, the adjoint sum of the vorticity force and the test that no blob
is inside the body from one blob x node geometry per blob snapshot.

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

from .geometry import TWO_PI, perp, point_vortex, squared_distances
from .potential import ScaledPotentials

# rows per block of every blob-blob pair sum: a (PAIR_ROWS, n) block stays
# in cache and below the allocator's mmap threshold, and no (n, n) array
# is ever held
PAIR_ROWS = 64


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


def velocity_free_space(field: BlobField, points) -> np.ndarray:
    """Regularized Biot-Savart sum at each point; rows align with points.

    With G = (1 - exp(-rho/delta^2))/rho over the squared pair distances
    rho (0 where rho = 0, the core limit of a blob at its own center),
    u = perp(p (G Gamma) - G (Gamma y))/2pi: G times the columns
    [Gamma, Gamma y1, Gamma y2], built and multiplied PAIR_ROWS points
    at a time.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    columns = field.gamma[:, None] * np.column_stack([np.ones(field.n), field.x])
    moments = np.empty((len(pts), 3))
    for i0 in range(0, len(pts), PAIR_ROWS):
        rows = slice(i0, i0 + PAIR_ROWS)
        rho = squared_distances(pts[rows], field.x)
        minus_g = np.divide(rho, -field.delta ** 2)
        np.expm1(minus_g, out=minus_g)
        np.divide(minus_g, rho, out=minus_g, where=rho > 0.0)
        np.matmul(minus_g, columns, out=moments[rows])
    return perp(moments[:, 1:] - pts * moments[:, :1]) / TWO_PI


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


def velocity_gradient(field: BlobField, point) -> GradientSample:
    """Symmetric part of the blob-sum Jacobian at one point.

    For a divergence-free sum the diagonal is traceless exactly; the
    off-diagonal is symmetrized, discarding the local vorticity of any
    nearby cores (the clean flag reports whether any are near).
    """
    pts = np.asarray(point, dtype=float).reshape(-1, 2)
    if pts.shape[0] != 1:
        raise ValueError("one sample point at a time")
    d = pts[0] - field.x
    rho = d[:, 0] ** 2 + d[:, 1] ** 2
    core = -np.expm1(-rho / field.delta ** 2)
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
    clean = bool(np.all(rho > (5.0 * field.delta) ** 2))
    return GradientSample(a, b, clean)


# ---------------------------------------------------------------------------
# exterior hydrodynamic field and the body-frame velocity at the blobs


class HydrodynamicField:
    """The zero-flux, zero-circulation velocity induced by a blob field
    outside the body, and everything a coupled stage reads from the same
    blob x node geometry.

    The body-frame fluid velocity is

        v = K_H[omega] + gamma H + l1 grad Phi_1 + l2 grad Phi_2 + r grad Phi_3,

    where K_H[omega] is the free-space blob sum plus an exterior
    correction cancelling its normal trace.  The correction, the Kirchhoff
    potentials and H are single layers on the same unit-mesh nodes, so one
    build of kx = d1/r^2, ky = d2/r^2 (d = x/eps - node) serves the
    free-space field at the nodes (the correction's data), the gradients
    of every layer at the blobs (one GEMM), the adjoint sum behind
    force_B, the blob clearance, and the test that no blob sits inside
    the body (a double-layer winding sum; BodyCollisionError otherwise).
    The Neumann kernel is scale-invariant, so the correction is solved on
    the unit mesh.
    """

    def __init__(self, scaled: ScaledPotentials, field: BlobField):
        base = scaled.base
        mesh = base.mesh
        eps = scaled.eps
        self.scaled = scaled
        self.field = field
        # the blob-blob sum, in (PAIR_ROWS, blobs) blocks freed before the
        # node geometry exists
        self._free = velocity_free_space(field, field.x)

        # the (blobs, nodes) geometry, updated in place so that the build
        # never holds more than four such arrays at a time
        unit = field.x / eps
        kx = np.subtract.outer(unit[:, 0], mesh.x[:, 0])
        ky = np.subtract.outer(unit[:, 1], mesh.x[:, 1])
        r2 = kx * kx
        r2 += ky * ky
        self.clearance = eps * float(np.sqrt(r2.min())) if field.n else np.inf
        kx /= r2
        ky /= r2
        self._kx, self._ky = kx, ky
        # sum_k w_k n_k . d/r^2 is Gauss's double-layer integral (n into the
        # solid): 2 pi for a blob inside the body, 0 outside, NaN on a node.
        # Within about half a panel of the boundary the trapezoid sum can
        # read either side; the dt-guard and the 2 delta collision rule of
        # lab._coupled_abort_reason act well outside that band.
        n_w = mesh.normal * mesh.w[:, None]
        wind = kx @ n_w[:, 0] + ky @ n_w[:, 1]
        if not (wind < np.pi).all():
            raise BodyCollisionError("blob inside the body")

        # free-space blob velocity at the scaled nodes eps*y: the node
        # minus blob offset is -eps*d, so u = (G/2pi) @ (core (ky, -kx)) / eps
        core = np.multiply(r2, -(eps / field.delta) ** 2, out=r2)
        np.expm1(core, out=core)
        np.negative(core, out=core)
        g = field.gamma / TWO_PI
        u_free = np.column_stack([g @ (core * ky), -(g @ (core * kx))]) / eps

        g_n = -(u_free * mesh.normal).sum(axis=1)
        # project out the tiny incompatible part (blob-core tails inside
        # the body); its size is a quality diagnostic
        w_eps = eps * mesh.w
        self.flux_defect = float(np.sum(g_n * w_eps) / np.sum(w_eps))
        sigma = base.ops.neumann_density(g_n - self.flux_defect,
                                         compat_tol=np.inf)
        self.charges = sigma * mesh.w
        self._boundary_tangent = ((u_free * mesh.tau).sum(axis=1)
                                  + base.ops.arc_derivative(
                                      base.ops.layer_values(sigma)))

        # every layer gradient at the blobs from one GEMM; the columns are
        # the correction, phi_1, phi_2, eps phi_3 (its scaling law) and H
        phi = base.phi
        columns = np.column_stack([self.charges, phi[0].charges,
                                   phi[1].charges, eps * phi[2].charges,
                                   base.H.charges]) / TWO_PI
        self._grad = np.stack([kx @ columns, ky @ columns], axis=-1)
        self._h_pole = point_vortex(unit, base.H.pole)

    def blob_velocity(self, gamma: float, ell, r: float) -> np.ndarray:
        """The body-frame fluid velocity v at every blob."""
        g = self._grad
        h = self._h_pole + perp(g[:, 4])
        return (self._free + g[:, 0] + ell[0] * g[:, 1] + ell[1] * g[:, 2]
                + r * g[:, 3] + (gamma / self.scaled.eps) * h)

    def gradient_adjoint(self, weights) -> np.ndarray:
        """Transpose of the layer gradient at the blobs: for each node y_k,
        sum_j weights_j . grad (1/2pi) ln|x_j/eps - y_k| in unit variables."""
        return (weights[:, 0] @ self._kx + weights[:, 1] @ self._ky) / TWO_PI

    def tilde_boundary_trace(self, ell, r: float) -> np.ndarray:
        """Boundary trace of v minus its circulation carrier gamma H: the
        correction's tangent trace plus the rigid-motion potentials."""
        s = self.scaled
        return (self._boundary_tangent[:, None] * s.base.mesh.tau
                + ell[0] * s.phi_boundary_trace(1)
                + ell[1] * s.phi_boundary_trace(2)
                + r * s.phi_boundary_trace(3))


# ---------------------------------------------------------------------------
# energy bookkeeping helpers


def pair_stream_matrix(field: BlobField, start: int = 0,
                       stop: int | None = None) -> np.ndarray:
    """Regularized free-space stream values between blobs start:stop (rows)
    and blobs start: (columns); the defaults give every pair.

    Apart: (1/2pi)(ln r + E1(r^2/delta^2)/2), the stream function
    consistent with the Gaussian-core kernel.  E1 is evaluated only where
    r^2 < 40 delta^2; beyond, E1 < 1.1e-19 and is dropped.
    Coincident pairs (the diagonal, and blobs sharing a position): its
    finite limit (1/2pi)(ln delta - euler_gamma/2), the blob
    self-interaction.
    """
    rho = squared_distances(field.x[start:stop], field.x[start:])
    delta2 = field.delta ** 2
    apart = rho > 0.0
    near = apart & (rho < 40.0 * delta2)
    e1 = exp1(rho[near] / delta2)
    np.log(rho, out=rho, where=apart)
    rho[near] += e1
    # ln rho + E1(rho/delta^2) tends to 2 ln delta - euler_gamma as rho -> 0
    rho[~apart] = 2.0 * np.log(field.delta) - np.euler_gamma
    rho /= 2.0 * TWO_PI
    return rho
