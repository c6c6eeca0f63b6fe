"""Complex-variable contour calculus on boundary meshes.

A divergence-free, curl-free vector field f = (f1, f2) is encoded by the
complex trace fhat = f1 - i f2 (holomorphic in z = x1 + i x2 where f is
both div- and curl-free).  The pointwise identity

    fhat dz = (f.tau) ds - i (f.n) ds

(with n into the solid, tau = -perp(n)) converts between complex contour
integrals and real flux/circulation quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryMesh

#: recognized weight tags for contour_integral
WEIGHTS = ("1", "z", "zbar", "abs2", "z2", "zabs2")


def hat_field(f) -> np.ndarray:
    """Complex trace f1 - i f2 of a real vector field sampled as (..., 2)."""
    f = np.asarray(f)
    return f[..., 0] - 1j * f[..., 1]


def _weight_values(mesh: BoundaryMesh, weight: str) -> np.ndarray:
    z = mesh.z
    if weight == "1":
        return np.ones_like(z)
    if weight == "z":
        return z
    if weight == "zbar":
        return np.conj(z)
    if weight == "abs2":
        return (z * np.conj(z)).real.astype(complex)
    if weight == "z2":
        return z * z
    if weight == "zabs2":
        return z * (z * np.conj(z)).real
    raise ValueError(f"unknown weight {weight!r}; expected one of {WEIGHTS}")


def contour_integral(mesh: BoundaryMesh, field=None, weight: str = "1") -> complex:
    """Counterclockwise integral of weight(z) * fhat(z) dz over the boundary.

    ``field`` may be a real (n, 2) sample array, a complex (n,) trace, or
    None for fhat = 1.  dz is the exact parametric tangent increment, so
    the rule is the spectral periodic trapezoid.
    """
    if field is None:
        fhat = np.ones(mesh.n, dtype=complex)
    else:
        field = np.asarray(field)
        fhat = hat_field(field) if field.ndim == 2 else field.astype(complex)
    dz = (mesh.tau[:, 0] + 1j * mesh.tau[:, 1]) * mesh.w
    return complex(np.sum(_weight_values(mesh, weight) * fhat * dz))


@dataclass(frozen=True)
class IdentityRow:
    name: str
    value: complex
    reference: complex
    length_power: int = 0   # value ~ size ** length_power (field rows set it)

    @property
    def error(self) -> float:
        return abs(self.value - self.reference)


def identity_suite(mesh: BoundaryMesh) -> tuple[IdentityRow, ...]:
    """Check the full table of rigid-motion boundary-moment identities.

    Every row is a pure-geometry statement: a quadrature of a polynomial
    moment against one of the data K_1..K_5 (or a complex Stokes integral)
    against its divergence-theorem value in terms of area moments.  All
    rows hold for ANY embedded counterclockwise curve, so the suite is a
    runtime self-check of mesh orientation, weights and normals.
    """
    mom = mesh.moments
    area, (g1, g2) = mom.area, mom.centroid
    m_diff, m_cross, m_polar = mom.m_diff, mom.m_cross, mom.m_polar
    x1, x2 = mesh.x[:, 0], mesh.x[:, 1]
    K = {i: mesh.neumann_data(i) for i in range(1, 6)}
    w = mesh.w

    def real_row(name, integrand, ref):
        return IdentityRow(name, complex(float(np.sum(integrand * w))), complex(ref))

    rows = []
    for i in range(1, 6):
        rows.append(real_row(f"deg0 K{i}", K[i], 0.0))
    rows += [
        real_row("x1 K1", x1 * K[1], -area),
        real_row("x1 K2", x1 * K[2], 0.0),
        real_row("x2 K1", x2 * K[1], 0.0),
        real_row("x2 K2", x2 * K[2], -area),
        real_row("x1 K3", x1 * K[3], area * g2),
        real_row("x2 K3", x2 * K[3], -area * g1),
        real_row("x1 K4", x1 * K[4], area * g1),
        real_row("x2 K4", x2 * K[4], -area * g2),
        real_row("x1 K5", x1 * K[5], -area * g2),
        real_row("x2 K5", x2 * K[5], -area * g1),
    ]
    r2 = x1 * x1 + x2 * x2
    d2 = x1 * x1 - x2 * x2
    rows += [
        real_row("|x|^2 K1", r2 * K[1], -2 * g1 * area),
        real_row("|x|^2 K2", r2 * K[2], -2 * g2 * area),
        real_row("|x|^2 K3", r2 * K[3], 0.0),
        real_row("x1x2 K1", x1 * x2 * K[1], -area * g2),
        real_row("x1x2 K2", x1 * x2 * K[2], -area * g1),
        real_row("x1x2 K3", x1 * x2 * K[3], -m_diff),
        real_row("(x1^2-x2^2) K1", d2 * K[1], -2 * area * g1),
        real_row("(x1^2-x2^2) K2", d2 * K[2], 2 * area * g2),
        real_row("(x1^2-x2^2) K3", d2 * K[3], 2 * m_cross),
        real_row("|x|^2 K4", r2 * K[4], 2 * m_diff),
        real_row("|x|^2 K5", r2 * K[5], -2 * m_cross),
        real_row("x1x2 K4", x1 * x2 * K[4], 0.0),
        real_row("x1x2 K5", x1 * x2 * K[5], -m_polar),
        real_row("(x1^2-x2^2) K4", d2 * K[4], 2 * m_polar),
        real_row("(x1^2-x2^2) K5", d2 * K[5], 0.0),
    ]
    rows += [
        IdentityRow("stokes zbar dz", contour_integral(mesh, None, "zbar"),
                    2j * area),
        IdentityRow("stokes zbar^2 dz",
                    complex(np.sum(np.conj(mesh.z) ** 2
                                   * (mesh.tau[:, 0] + 1j * mesh.tau[:, 1]) * w)),
                    4 * area * g2 + 4j * area * g1),
        IdentityRow("stokes |z|^2 dz", contour_integral(mesh, None, "abs2"),
                    -2 * area * g2 + 2j * area * g1),
        IdentityRow("stokes z|z|^2 dz", contour_integral(mesh, None, "zabs2"),
                    -2 * m_cross + 2j * m_diff),
    ]
    return tuple(rows)
