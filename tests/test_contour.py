import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexbody import geometry as vb
from vortexbody import contour as ct


def blasius_pair(mesh, f, g, tangency_tol: float = 1e-8):
    """Force and torque quadratic pairing of two tangent boundary fields.

    Returns (force, torque) with force = integral of (f.g) n ds as a
    2-vector and torque = integral of (f.g) perp(x).n ds, both evaluated
    through the complex route

        force1 + i force2 = i * conj( integral of fhat ghat dz )
        torque            = Re  integral of z fhat ghat dz.

    Both fields must be tangent to the boundary; a normal component above
    ``tangency_tol`` (relative to the field magnitude) is an error, since
    the pairing identities assume tangency.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    for name, v in (("f", f), ("g", g)):
        scale = max(float(np.abs(v).max()), 1e-300)
        worst = float(np.abs((v * mesh.normal).sum(axis=1)).max())
        if worst > tangency_tol * scale:
            raise ValueError(
                f"field {name} is not tangent: max |{name}.n| = {worst:.3e} "
                f"exceeds {tangency_tol:.1e} * max|{name}| = {tangency_tol * scale:.3e}")
    fg = ct.hat_field(f) * ct.hat_field(g)
    force_c = 1j * np.conj(ct.contour_integral(mesh, fg, "1"))
    torque = ct.contour_integral(mesh, fg, "z").real
    return np.array([force_c.real, force_c.imag]), float(torque)


def canonical_meshes(n=512):
    return [
        vb.build_mesh(vb.disk(1.0), n),
        vb.build_mesh(vb.ellipse(2, 1), n),
        vb.build_mesh(vb.perturbed_disk(cos_amps={3: 0.2}), n),
        # off-center curves exercise every centroid-bearing row
        vb.build_mesh(vb.ellipse(2, 1).translated((0.7, -0.3)), n),
    ]


def test_identity_suite_machine_accuracy():
    for mesh in canonical_meshes():
        rows = ct.identity_suite(mesh)
        assert len(rows) == 34
        bad = [(r.name, r.error) for r in rows if not r.error < 1e-8]
        assert not bad, bad


def test_basic_contour_integrals():
    mesh = vb.build_mesh(vb.ellipse(2, 1), 256)
    area = mesh.moments.area
    # holomorphic integrands vanish; zbar picks up the area
    assert abs(ct.contour_integral(mesh, None, "1")) < 1e-12
    assert abs(ct.contour_integral(mesh, None, "z")) < 1e-12
    assert abs(ct.contour_integral(mesh, None, "zbar") - 2j * area) < 1e-10
    with pytest.raises(ValueError):
        ct.contour_integral(mesh, None, "z^3")


def test_hat_unhat_roundtrip():
    rng = np.random.default_rng(7)
    f = rng.normal(size=(40, 2))
    fhat = ct.hat_field(f)
    np.testing.assert_allclose(np.stack([fhat.real, -fhat.imag], axis=-1), f,
                               atol=1e-15)
    np.testing.assert_allclose(ct.hat_field([1.0, 2.0]), 1 - 2j)


@settings(max_examples=30, deadline=None)
@given(
    amps=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    stretch=st.floats(0.5, 2.5),
)
def test_blasius_pair_matches_real_quadrature(amps, stretch):
    """The complex pairing must reproduce the direct real quadratures exactly
    (the conversion identity holds pointwise, so there is no quadrature gap)."""
    mesh = vb.build_mesh(vb.ellipse(stretch, 1.0), 128)
    a0, a1, b0, b1 = amps
    f = mesh.tau * (1.0 + a0 * np.cos(2 * mesh.s) + a1 * np.sin(mesh.s))[:, None]
    g = mesh.tau * (0.5 + b0 * np.sin(2 * mesh.s) + b1 * np.cos(3 * mesh.s))[:, None]
    force, torque = blasius_pair(mesh, f, g)
    fg = (f * g).sum(axis=1)
    force_direct = (fg[:, None] * mesh.normal * mesh.w[:, None]).sum(axis=0)
    torque_direct = float(np.sum(fg * mesh.neumann_data(3) * mesh.w))
    np.testing.assert_allclose(force, force_direct, atol=1e-12)
    assert abs(torque - torque_direct) < 1e-12


def test_blasius_requires_tangency():
    mesh = vb.build_mesh(vb.disk(1.0), 64)
    with pytest.raises(ValueError, match="not tangent"):
        blasius_pair(mesh, mesh.normal, mesh.tau)


@settings(max_examples=30, deadline=None)
@given(
    c1=st.floats(-1, 1), s1=st.floats(-1, 1),
    c2=st.floats(-1, 1), s2=st.floats(-1, 1),
)
def test_flux_circulation_split(c1, s1, c2, s2):
    """fhat dz = (f.tau) ds - i (f.n) ds, so the complex integral splits into
    circulation and minus-i-flux for any (not necessarily tangent) field."""
    mesh = vb.build_mesh(vb.perturbed_disk(cos_amps={2: 0.1}), 128)
    f = np.column_stack([
        c1 * np.cos(mesh.s) + s1 * np.sin(2 * mesh.s) + 0.3,
        c2 * np.sin(mesh.s) + s2 * np.cos(3 * mesh.s) - 0.1,
    ])
    flux = float(np.sum((f * mesh.normal).sum(axis=1) * mesh.w))
    circ = float(np.sum((f * mesh.tau).sum(axis=1) * mesh.w))
    integral = ct.contour_integral(mesh, f)
    assert abs(integral.real - circ) < 1e-12
    assert abs(integral.imag + flux) < 1e-12


def test_weighted_splits_against_real_quadrature():
    """Same splitting with z and z^2 weights, used by the torque identities."""
    mesh = vb.build_mesh(vb.ellipse(1.5, 0.8), 128)
    rng = np.random.default_rng(3)
    f = rng.normal(size=(mesh.n, 2))  # arbitrary rough field is fine
    z = mesh.z
    fdotn = (f * mesh.normal).sum(axis=1)
    fdott = (f * mesh.tau).sum(axis=1)
    lhs = ct.contour_integral(mesh, f, "z")
    rhs = np.sum(z * fdott * mesh.w) - 1j * np.sum(z * fdotn * mesh.w)
    assert abs(lhs - rhs) < 1e-12
    # weight functions multiply the pointwise split unchanged (scalar factors)
    lhs2 = ct.contour_integral(mesh, f, "z2")
    rhs2 = np.sum(z ** 2 * fdott * mesh.w) - 1j * np.sum(z ** 2 * fdotn * mesh.w)
    assert abs(lhs2 - rhs2) < 1e-10
