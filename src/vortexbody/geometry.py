"""Boundary geometry for a rigid body immersed in a planar fluid.

Body contours are truncated Fourier curves z(s) = sum_k c_k exp(i k s).
Everything downstream (quadrature, layer potentials, force integrals)
consumes the node data bundled in :class:`BoundaryMesh`, so the sign
conventions are fixed here once and for all:

* the parametrization runs counterclockwise,
* the unit normal points INTO the solid (out of the fluid),
* tau = -perp(n), with perp(v) = (-v2, v1).

With these choices the divergence theorem on the enclosed region S reads
``integral over the boundary of f.n ds = - integral over S of div f dx``.

The module also holds :func:`rk4_step`, the classical RK4 step that every
time integrator (coupled and vortex-wave) goes through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def perp(v):
    """Rotate by +90 degrees along the last axis: perp((v1, v2)) = (-v2, v1)."""
    v = np.asarray(v)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def squared_distances(points, sources) -> np.ndarray:
    """|p_i - y_j|^2 for every point p_i and source y_j, shape (m, n), summed
    in place from the two coordinate differences: never an (m, n, 2) stack."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    y = np.asarray(sources, dtype=float).reshape(-1, 2)
    rho = np.subtract.outer(p[:, 0], y[:, 0])
    rho *= rho
    d2 = np.subtract.outer(p[:, 1], y[:, 1])
    d2 *= d2
    rho += d2
    return rho


def point_vortex(points, center, strength: float = 1.0) -> np.ndarray:
    """Velocity (strength/2pi) perp(d)/|d|^2, d = p - center, at each point."""
    d = np.asarray(points, dtype=float).reshape(-1, 2) - center
    r2 = (d ** 2).sum(axis=1)
    return strength * perp(d) / (TWO_PI * r2[:, None])


def rk4_step(rhs, y: tuple, dt: float) -> tuple:
    """One classical RK4 step of y' = rhs(*y) for a tuple y of arrays and
    floats; ``rhs`` returns the rates in the same order.  Whatever rhs
    raises at a stage ends the step."""
    if dt <= 0:
        raise ValueError("dt must be positive")

    def at(c, k):
        return tuple(a + c * dt * rate for a, rate in zip(y, k))

    k1 = rhs(*y)
    k2 = rhs(*at(0.5, k1))
    k3 = rhs(*at(0.5, k2))
    k4 = rhs(*at(1.0, k3))
    return tuple(a + (dt / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
                 for a, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4))


def rotation(theta: float) -> np.ndarray:
    """2x2 counterclockwise rotation matrix."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Placement:
    """Rigid placement of the body: center of mass ``h``, attitude ``theta``.

    Body coordinates x and lab coordinates y are related by
    y = R(theta) x + h.  Point arrays have shape (..., 2).
    """

    h: np.ndarray
    theta: float

    def to_lab(self, x):
        return np.asarray(x) @ rotation(self.theta).T + np.asarray(self.h)


@dataclass(frozen=True)
class ShapeSpec:
    """Closed boundary curve z(s) = sum_k c_k exp(i k s) on [0, 2pi).

    ``modes`` holds the integer wavenumbers k, ``coeffs`` the complex
    amplitudes c_k.  Presets are normalized so the centroid of the
    enclosed region sits at the origin; :meth:`translated` exists to
    build deliberately off-center test curves.
    """

    name: str
    modes: tuple
    coeffs: tuple

    def _phase(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.exp(1j * np.outer(s, np.asarray(self.modes)))

    def point(self, s):
        """Curve points as complex numbers."""
        return self._phase(s) @ np.asarray(self.coeffs)

    def derivative(self, s, order: int = 1):
        k = np.asarray(self.modes)
        c = np.asarray(self.coeffs) * (1j * k) ** order
        return self._phase(s) @ c

    def scaled(self, factor: float) -> "ShapeSpec":
        return ShapeSpec(self.name, self.modes,
                         tuple(c * factor for c in self.coeffs))

    def translated(self, offset) -> "ShapeSpec":
        off = complex(offset[0], offset[1])
        d = dict(zip(self.modes, self.coeffs))
        d[0] = d.get(0, 0.0) + off
        modes = tuple(sorted(d))
        return ShapeSpec(self.name, modes, tuple(d[k] for k in modes))


def _centered(name: str, coeff_map: dict) -> ShapeSpec:
    """Freeze a ShapeSpec with the enclosed-region centroid moved to 0."""
    modes = tuple(sorted(coeff_map))
    shape = ShapeSpec(name, modes, tuple(coeff_map[k] for k in modes))
    max_mode = max(1, max(abs(k) for k in modes))
    mesh = build_mesh(shape, max(64, 8 * max_mode))
    c = geometric_moments(mesh).centroid
    # subtracting the centroid from c_0 recenters exactly (translation is linear)
    return shape.translated((-c[0], -c[1]))


def disk(radius: float = 1.0) -> ShapeSpec:
    if radius <= 0:
        raise ValueError("disk radius must be positive")
    return ShapeSpec("disk", (1,), (complex(radius),))


def ellipse(a: float, b: float) -> ShapeSpec:
    """Axis-aligned ellipse with semi-axes a (horizontal) and b (vertical)."""
    if a <= 0 or b <= 0:
        raise ValueError("ellipse semi-axes must be positive")
    return ShapeSpec("ellipse", (-1, 1),
                     (complex(0.5 * (a - b)), complex(0.5 * (a + b))))


def perturbed_disk(cos_amps: dict | None = None,
                   sin_amps: dict | None = None,
                   base: float = 1.0) -> ShapeSpec:
    """Radial perturbation of the unit circle.

    r(t) = base + sum_k cos_amps[k] cos(k t) + sum_k sin_amps[k] sin(k t),
    recentered so the enclosed centroid is the origin.
    """
    cos_amps = dict(cos_amps or {})
    sin_amps = dict(sin_amps or {})
    coeff = {1: complex(base)}
    for k, amp in cos_amps.items():
        # cos(kt) e^{it} = (e^{i(k+1)t} + e^{-i(k-1)t}) / 2
        coeff[k + 1] = coeff.get(k + 1, 0.0) + 0.5 * amp
        coeff[1 - k] = coeff.get(1 - k, 0.0) + 0.5 * amp
    for k, amp in sin_amps.items():
        # sin(kt) e^{it} = (e^{i(k+1)t} - e^{-i(k-1)t}) / (2i)
        coeff[k + 1] = coeff.get(k + 1, 0.0) + amp / 2j
        coeff[1 - k] = coeff.get(1 - k, 0.0) - amp / 2j
    return _centered("perturbed-disk", coeff)


@dataclass(frozen=True)
class BoundaryMesh:
    """Equispaced-parameter quadrature data for one boundary curve.

    Weights are periodic-trapezoid arc-length weights, spectrally accurate
    for analytic curves.  ``normal`` points into the solid, ``xpp`` is the
    second parametric derivative (needed for the curvature diagonal of
    layer-potential kernels).
    """

    shape: ShapeSpec
    n: int
    s: np.ndarray          # (n,) parameter values
    x: np.ndarray          # (n, 2) nodes
    tau: np.ndarray        # (n, 2) unit tangent, counterclockwise
    normal: np.ndarray     # (n, 2) unit normal, into the solid
    w: np.ndarray          # (n,) arc-length weights
    speed: np.ndarray      # (n,) |x'(s)|
    xpp: np.ndarray        # (n, 2) x''(s)
    interior_point: np.ndarray  # a point strictly inside the solid

    @property
    def z(self):
        return self.x[:, 0] + 1j * self.x[:, 1]

    @property
    def perimeter(self) -> float:
        return float(self.w.sum())

    @property
    def circumradius(self) -> float:
        return float(np.max(np.hypot(self.x[:, 0], self.x[:, 1])))

    def neumann_data(self, i: int) -> np.ndarray:
        """The five canonical rigid-motion boundary data K_1..K_5.

        K_1 = n1, K_2 = n2, K_3 = perp(x).n, K_4 = (-x1, x2).n,
        K_5 = (x2, x1).n.
        """
        x, nv = self.x, self.normal
        if i == 1:
            return nv[:, 0].copy()
        if i == 2:
            return nv[:, 1].copy()
        if i == 3:
            return -x[:, 1] * nv[:, 0] + x[:, 0] * nv[:, 1]
        if i == 4:
            return -x[:, 0] * nv[:, 0] + x[:, 1] * nv[:, 1]
        if i == 5:
            return x[:, 1] * nv[:, 0] + x[:, 0] * nv[:, 1]
        raise ValueError(f"no boundary datum with index {i}")


def _segments_cross(pts: np.ndarray) -> bool:
    """Proper-crossing test over all non-adjacent closed-polyline segments."""
    n = len(pts)
    b = np.roll(pts, -1, axis=0)
    i_idx, j_idx = np.triu_indices(n, k=2)
    keep = ~((i_idx == 0) & (j_idx == n - 1))
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    p = pts[i_idx]
    r = b[i_idx] - pts[i_idx]
    q = pts[j_idx]
    v = b[j_idx] - pts[j_idx]
    rxv = r[:, 0] * v[:, 1] - r[:, 1] * v[:, 0]
    d = q - p
    dxv = d[:, 0] * v[:, 1] - d[:, 1] * v[:, 0]
    dxr = d[:, 0] * r[:, 1] - d[:, 1] * r[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = dxv / rxv
        u = dxr / rxv
    ok = np.abs(rxv) > 1e-14
    eps = 1e-12
    hit = ok & (t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)
    return bool(np.any(hit))


def build_mesh(shape: ShapeSpec, n_panels: int) -> BoundaryMesh:
    """Sample a shape at n_panels equispaced parameters.

    Rejects odd or too-coarse panel counts, degenerate parametrizations,
    clockwise orientation and self-intersecting curves.
    """
    if n_panels < 8 or n_panels % 2 != 0:
        raise ValueError("n_panels must be an even integer >= 8")
    s = np.arange(n_panels) * (TWO_PI / n_panels)
    z = shape.point(s)
    zp = shape.derivative(s, 1)
    zpp = shape.derivative(s, 2)
    speed = np.abs(zp)
    if speed.min() < 1e-12 * max(speed.max(), 1.0):
        raise ValueError("degenerate parametrization: |x'(s)| vanishes")
    x = np.column_stack([z.real, z.imag])
    tau = np.column_stack([zp.real, zp.imag]) / speed[:, None]
    normal = perp(tau)
    w = speed * (TWO_PI / n_panels)
    if _segments_cross(x):
        raise ValueError("boundary curve self-intersects")
    # orientation: with n into the solid, -(1/2) sum (x.n) w is the area
    area = -0.5 * float(np.sum((x * normal).sum(axis=1) * w))
    if area <= 0:
        raise ValueError("parametrization must be counterclockwise")
    mesh = BoundaryMesh(shape=shape, n=n_panels, s=s, x=x, tau=tau,
                        normal=normal, w=w, speed=speed,
                        xpp=np.column_stack([zpp.real, zpp.imag]),
                        interior_point=np.zeros(2))
    centroid = geometric_moments(mesh).centroid
    return BoundaryMesh(shape=shape, n=n_panels, s=s, x=x, tau=tau,
                        normal=normal, w=w, speed=speed,
                        xpp=np.column_stack([zpp.real, zpp.imag]),
                        interior_point=centroid)


@dataclass(frozen=True)
class MomentSet:
    """Area moments of the enclosed region.

    m_diff = integral of (x1^2 - x2^2), m_cross = 2 * integral of x1 x2,
    m_polar = integral of |x|^2, all over the solid region.
    """

    area: float
    centroid: np.ndarray
    m_diff: float
    m_cross: float
    m_polar: float


def geometric_moments(mesh: BoundaryMesh) -> MomentSet:
    """Exact-to-quadrature area moments via the divergence theorem.

    The normal points into the solid, so each volume integral equals
    MINUS the boundary flux of a vector field with the right divergence.
    """
    x1, x2 = mesh.x[:, 0], mesh.x[:, 1]
    n1, n2 = mesh.normal[:, 0], mesh.normal[:, 1]
    w = mesh.w

    def flux(f1, f2):
        return -float(np.sum((f1 * n1 + f2 * n2) * w))

    area = flux(0.5 * x1, 0.5 * x2)
    cx = flux(0.5 * x1 ** 2, 0.0 * x2) / area
    cy = flux(0.0 * x1, 0.5 * x2 ** 2) / area
    m_diff = flux(x1 ** 3 / 3.0, -x2 ** 3 / 3.0)
    m_cross = flux(x1 ** 2 * x2, 0.0 * x2)
    m_polar = flux(x1 ** 3 / 3.0, x2 ** 3 / 3.0)
    return MomentSet(area=area, centroid=np.array([cx, cy]),
                     m_diff=m_diff, m_cross=m_cross, m_polar=m_polar)


def polygon_contains(vertices: np.ndarray, points) -> np.ndarray:
    """Even-odd containment test of points against a closed polygon.

    ``vertices`` is an (n, 2) array traversed once (closure implied).
    Only ``init_coupled``'s input check calls it; boundary-grazing points
    may land on either side, so callers must keep a positive margin anyway.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    v0 = vertices
    v1 = np.roll(vertices, -1, axis=0)
    py = pts[:, 1][:, None]
    px = pts[:, 0][:, None]
    straddles = (v0[None, :, 1] > py) != (v1[None, :, 1] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = (v0[None, :, 0]
                   + (py - v0[None, :, 1]) * (v1[None, :, 0] - v0[None, :, 0])
                   / (v1[None, :, 1] - v0[None, :, 1]))
    hits = straddles & (px < x_cross)
    return (hits.sum(axis=1) % 2).astype(bool)
