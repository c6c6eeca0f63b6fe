"""Vorticity carried by regularized blobs, and every velocity assembly
built on it: free-space sums, and the zero-flux zero-circulation exterior
field around the body, which also serves the body-frame velocity at the
blobs, the adjoint sum of the vorticity force and the test that no blob
is inside the body from one blob x node geometry per blob snapshot.

The blob kernel is the Gaussian-core regularization

    u(x) = sum_j (Gamma_j / 2 pi) perp(x - y_j) (1 - exp(-|x-y_j|^2/delta^2)) / |x-y_j|^2,

which agrees with the exact point kernel to machine precision once
|x - y_j| exceeds a few core radii.  Its stream function is
(1/4pi)(ln r^2 + E1(u)), u = r^2/delta^2, used by the energy bookkeeping:
2 ln delta + f(u) with f(u) = ln u + E1(u) = -euler_gamma - S(u), one
smooth function from u = 0, S the power-series part of E1 (Abramowitz &
Stegun 5.1.11).  f comes from a table of nine-term Taylor expansions on
[0, 40), within 4.4e-16 of the exact value, built once at import from
S below u = 0.75 and from E1's continued fraction (A&S 5.1.22) plus ln u
above.  Beyond 40, E1 is below roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (_CHUNK_FLOATS, TWO_PI, outer_difference, perp,
                       point_vortex, squared_distances)
from .potential import ScaledPotentials

# rows per block of both blob-blob pair sums, velocity_free_space and
# pair_energy, so no (n, n) array is ever held.  A (PAIR_ROWS, n) block
# is 512 n bytes, within glibc's default 128 KiB mmap threshold only up to
# n = 256: at 2796 blobs (1.43 MB blocks) a warm call of either sum
# faults about 640-660 pages (ru_minflt, 2-core Xeon), at 308 blobs none
PAIR_ROWS = 64

# the power-series part of E1 (A&S 5.1.11), E1(u) = -euler_gamma - ln u - S(u)
# with S(u) = sum_k (-u)^k/(k k!): eighteen terms truncate below 2e-21 for
# u < 0.75
_SERIES_COEFFS = tuple((-1) ** k / (k * math.factorial(k))
                       for k in range(1, 19))


def _e1_direct(u: np.ndarray) -> np.ndarray:
    """E1(u) for u >= 0.75 to about 1e-15 relative: the even part of the
    continued fraction (A&S 5.1.22)
    exp(-u)/(u + 1 - 1/(u + 3 - 4/(u + 5 - ...))) evaluated backward from
    depth 120."""
    tail = np.zeros_like(u)
    for k in range(120, 0, -1):
        tail = k * k / (u + (2 * k + 1) - tail)
    return np.exp(-u) / (u + 1.0 - tail)


# f(u) = ln u + E1(u) = -euler_gamma - S(u) on [0, 40): nodes u_i = i/128
# hold the Taylor coefficients c_k = f^(k)(u_i)/k!, k < 9; Horner in
# d = u - u_i, |d| <= 1/256, truncates below 1e-19
_F_STOP, _F_PER_UNIT, _F_TERMS = 40.0, 128, 9


def _ln_e1_taylor_table() -> tuple[np.ndarray, np.ndarray]:
    nodes = np.arange(round(_F_STOP * _F_PER_UNIT) + 1) / _F_PER_UNIT
    coeffs = np.empty((_F_TERMS, nodes.size))
    # below 0.75, -S(u) differentiated term by term:
    # c_k = -sum_m a_m binom(m, k) u^(m-k), a_m the series coefficients
    v = nodes[nodes < 0.75]
    for k in range(_F_TERMS):
        coeffs[k, :v.size] = -sum(a * math.comb(m, k) * v ** (m - k)
                                  for m, a in enumerate(_SERIES_COEFFS, 1)
                                  if m >= k)
    coeffs[0, :v.size] -= np.euler_gamma
    # from 0.75 on, E1 by its continued fraction and its derivatives from
    # E1' = -exp(-u)/u, c_k = (-1)^k exp(-u) sum_{m<k} u^(m-k)/m! / k (s
    # holds the sum), plus ln's (-1)^(k+1)/(k u^k)
    u = nodes[v.size:]
    coeffs[0, v.size:] = np.log(u) + _e1_direct(u)
    inv_u = 1.0 / u
    s = np.zeros_like(u)
    term = np.exp(-u)
    for k in range(1, _F_TERMS):
        s = (s + term / math.factorial(k - 1)) * inv_u
        coeffs[k, v.size:] = (-1) ** k * (s - inv_u ** k) / k
    return nodes, coeffs


_F_NODES, _F_COEFFS = _ln_e1_taylor_table()


def _ln_e1(u: np.ndarray) -> np.ndarray:
    """ln u + E1(u) for 0 <= u < 40, -euler_gamma at u = 0, from the
    Taylor table's nearest node."""
    i = np.rint(u * _F_PER_UNIT).astype(np.intp)
    d = u - _F_NODES[i]
    c = _F_COEFFS.take(i, axis=1)
    e = c[-1]
    for k in range(_F_TERMS - 2, -1, -1):
        e *= d
        e += c[k]
    return e


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
        if not 0.0 < self.delta < np.inf:
            raise ValueError("delta must be positive and finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def beta(self) -> float:
        """Total circulation carried by the blobs."""
        return float(self.gamma.sum())

    def with_positions(self, x: np.ndarray) -> "BlobField":
        return replace(self, x=np.asarray(x, dtype=float))

    def support_annulus(self, center) -> tuple[float, float]:
        """Closest and farthest blob distance from ``center``; (inf, 0)
        when there are no blobs."""
        d = np.hypot(*(self.x - np.asarray(center, float)).T)
        return (float(d.min(initial=np.inf)), float(d.max(initial=0.0)))


def _kernel_in_place(rho: np.ndarray, delta: float) -> np.ndarray:
    """G = (1 - exp(-rho/delta^2))/rho over squared pair distances rho,
    written into rho; 0 where rho = 0, the core limit of a blob at its own
    center.  From rho = 40 delta^2 on, 1 - exp(-rho/delta^2) rounds to
    exactly 1, so G is the reciprocal there and expm1 runs on the nearer
    pairs only."""
    flat = rho.reshape(-1)
    near = np.flatnonzero(flat < 40.0 * delta ** 2)
    r = flat.take(near)
    with np.errstate(divide="ignore"):
        np.reciprocal(rho, out=rho)
    g = np.divide(r, -delta ** 2)
    np.expm1(g, out=g)
    np.divide(g, r, out=g, where=r > 0.0)
    flat.put(near, np.negative(g, out=g))
    return rho


def velocity_free_space(field: BlobField, points) -> np.ndarray:
    """Regularized Biot-Savart sum at each point; rows align with points.

    With G = (1 - exp(-rho/delta^2))/rho over the squared pair distances
    rho (exactly 1/rho from rho = 40 delta^2 on; 0 where rho = 0),
    u = perp(p (G Gamma) - G (Gamma y))/2pi: G times the columns
    [Gamma, Gamma y1, Gamma y2], built and multiplied PAIR_ROWS points
    at a time.  When the points are the blobs (by value), G is symmetric
    and each pair is built once: row block i0:i1 against columns i0:,
    whose transpose adds the block's pull on the rows below.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    columns = field.gamma[:, None] * np.column_stack([np.ones(field.n), field.x])

    def block(rows, sources):
        return _kernel_in_place(squared_distances(rows, sources), field.delta)

    if np.array_equal(pts, field.x):
        moments = np.zeros((field.n, 3))
        for i0 in range(0, field.n, PAIR_ROWS):
            i1 = min(i0 + PAIR_ROWS, field.n)
            g = block(pts[i0:i1], pts[i0:])
            moments[i0:i1] += g @ columns[i0:]
            moments[i1:] += g[:, i1 - i0:].T @ columns[i0:i1]
    else:
        moments = np.empty((len(pts), 3))
        for i0 in range(0, len(pts), PAIR_ROWS):
            rows = slice(i0, i0 + PAIR_ROWS)
            np.matmul(block(pts[rows], field.x), columns, out=moments[rows])
    return perp(pts * moments[:, :1] - moments[:, 1:]) / TWO_PI


def velocity_gradient(field: BlobField, point) -> tuple[float, float, bool]:
    """Symmetric part of the blob-sum Jacobian at one point, as
    ``(a, b, clean)``: the gradient is [[-a, b], [b, a]], and ``clean``
    is False when a blob core sits within five radii, where the harmonic
    structure the modulation terms rely on breaks down.

    For a divergence-free sum the diagonal is traceless exactly; the
    off-diagonal is symmetrized, discarding the local vorticity of any
    nearby cores.
    """
    pts = np.asarray(point, dtype=float).reshape(-1, 2)
    if pts.shape[0] != 1:
        raise ValueError("one sample point at a time")
    d = pts[0] - field.x
    rho = d[:, 0] ** 2 + d[:, 1] ** 2
    # dG/d(rho) for G = (1 - exp(-rho/delta^2)) / rho.  The direct form
    # loses all digits for rho << delta^2, so switch to the series there;
    # each form runs on its own entries only, so a far blob's large u never
    # reaches the series' powers of u.
    delta2 = field.delta ** 2
    u = rho / delta2
    near = u < 1e-3
    gp = np.empty_like(rho)
    un = u[near]
    gp[near] = (-0.5 + un / 3.0 - un ** 2 / 8.0) / delta2 ** 2
    far = ~near
    uf = u[far]
    gp[far] = (uf * np.exp(-uf) + np.expm1(-uf)) / rho[far] ** 2
    a = float(np.sum(field.gamma / np.pi * d[:, 0] * d[:, 1] * gp))
    b = float(np.sum(field.gamma / TWO_PI * (d[:, 0] ** 2 - d[:, 1] ** 2) * gp))
    clean = bool(np.all(rho > (5.0 * field.delta) ** 2))
    return a, b, clean


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

    The build holds two (blobs, nodes) arrays of its own, kx and ky,
    divided by r^2 in place.  r^2 exists in row chunks only, and the core
    factor of the free-space sum at the near pairs only, where it differs
    from 1.
    """

    def __init__(self, scaled: ScaledPotentials, field: BlobField):
        base = scaled.base
        mesh = base.mesh
        eps = scaled.eps
        self.scaled = scaled
        self.field = field
        # the blob-blob sum, each pair once, in (PAIR_ROWS, columns) blocks
        # freed before the node geometry exists
        self._free = velocity_free_space(field, field.x)

        # the (blobs, nodes) geometry, written in place from here on
        unit = field.x / eps
        kx = outer_difference(unit[:, 0], mesh.x[:, 0])
        ky = outer_difference(unit[:, 1], mesh.x[:, 1])
        # r^2 lives in row chunks under 128 KiB: each chunk gives its
        # minimum, divides kx and ky, and lists its near pairs.  The
        # free-space velocity at the nodes needs the core factor
        # 1 - exp(-u), u = r^2 (eps/delta)^2, which from u = 40 on rounds
        # to exactly 1, so it is kept at the near pairs only
        rate = -(eps / field.delta) ** 2
        step = max(1, _CHUNK_FLOATS // mesh.n)
        r2_min, near, core = [], [np.empty(0, np.intp)], [np.empty(0)]
        for i0 in range(0, field.n, step):
            cx, cy = kx[i0:i0 + step], ky[i0:i0 + step]
            r2 = cx * cx
            r2 += cy * cy
            r2_min.append(r2.min())
            # a blob on a node leaves 0/0 here; the winding sum rejects the NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                cx /= r2
                cy /= r2
            u = np.multiply(r2, rate, out=r2).reshape(-1)
            pairs = np.flatnonzero(u > -40.0)
            near.append(pairs + i0 * mesh.n)
            core.append(-np.expm1(u[pairs]))
        self.clearance = eps * float(np.sqrt(np.min(r2_min, initial=np.inf)))
        near, core = np.concatenate(near), np.concatenate(core)
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
        # minus blob offset is -eps*d, so u = (G/2pi) @ (core (ky, -kx)) / eps.
        # Each product scales the near entries by the core in place and
        # restores them after; the far entries' factor is exactly 1
        g = field.gamma / TWO_PI

        def core_product(k):
            flat = k.reshape(-1)
            held = flat[near]
            flat[near] = core * held
            product = g @ k
            flat[near] = held
            return product

        u_free = np.column_stack([core_product(ky), -core_product(kx)]) / eps

        g_n = -(u_free * mesh.normal).sum(axis=1)
        # project out the tiny incompatible part (blob-core tails inside
        # the body); its size is a quality diagnostic
        w_eps = eps * mesh.w
        self.flux_defect = float(np.sum(g_n * w_eps) / np.sum(w_eps))
        sigma = base.ops.neumann_density(g_n - self.flux_defect)
        self.charges = sigma * mesh.w
        self._boundary_tangent = ((u_free * mesh.tau).sum(axis=1)
                                  + base.ops.arc_derivative(base.ops.V @ sigma))

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
        traces = self.scaled.phi_traces
        return (self._boundary_tangent[:, None] * self.scaled.base.mesh.tau
                + ell[0] * traces[0] + ell[1] * traces[1] + r * traces[2])


# ---------------------------------------------------------------------------
# energy bookkeeping helpers


def pair_stream_matrix(field: BlobField, start: int = 0,
                       stop: int | None = None) -> np.ndarray:
    """Regularized free-space stream values between blobs start:stop (rows)
    and blobs start: (columns); the defaults give every pair.

    (1/4pi)(ln r^2 + E1(u)), u = r^2/delta^2, the stream function
    consistent with the Gaussian-core kernel.  Where u < 40 it is written
    as 2 ln delta + f(u) with f(u) = ln u + E1(u) from the module's Taylor
    table, so coincident pairs (the diagonal, and blobs sharing a
    position) read f(0) = -euler_gamma, the finite limit
    (1/2pi)(ln delta - euler_gamma/2) of the blob self-interaction.
    Beyond, E1 < 1.1e-19 and is dropped.
    """
    rho = squared_distances(field.x[start:stop], field.x[start:])
    flat = rho.reshape(-1)
    near = np.flatnonzero(flat < 40.0 * field.delta ** 2)
    u = flat.take(near) / field.delta ** 2
    with np.errstate(divide="ignore"):
        np.log(rho, out=rho)
    flat.put(near, 2.0 * np.log(field.delta) + _ln_e1(u))
    rho /= 2.0 * TWO_PI
    return rho


def pair_energy(field: BlobField) -> float:
    """Gamma^T P Gamma, with P the pair_stream_matrix of every pair, over
    the upper block-triangle of the symmetric P: row block i0:i1 against
    columns i0:, its off-diagonal part counted twice and its diagonal
    block once."""
    g = field.gamma
    psi = 0.0
    for i0 in range(0, field.n, PAIR_ROWS):
        g_b = g[i0:i0 + PAIR_ROWS]
        block = pair_stream_matrix(field, i0, i0 + PAIR_ROWS)
        psi += g_b @ (2.0 * (block @ g[i0:]) - block[:, :len(g_b)] @ g_b)
    return psi
