import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexbody as vb

# Oracle: perimeter of the (2,1) ellipse, 4*a*E(1 - b^2/a^2) via scipy.special.ellipe
ELLIPSE_21_PERIMETER = 9.688448220547675


def test_disk_mesh_nodes_and_frames():
    mesh = vb.build_mesh(vb.disk(1.0), 8)
    angles = np.arange(8) * np.pi / 4
    np.testing.assert_allclose(mesh.x[:, 0], np.cos(angles), atol=1e-14)
    np.testing.assert_allclose(mesh.x[:, 1], np.sin(angles), atol=1e-14)
    # normals point to the center (into the solid)
    np.testing.assert_allclose(mesh.normal, -mesh.x, atol=1e-14)
    # tau = -perp(n)
    np.testing.assert_allclose(mesh.tau, -vb.perp(mesh.normal), atol=1e-15)


def test_weights_sum_to_perimeter_and_closed_normal():
    for shape in (vb.disk(1.0), vb.ellipse(2, 1),
                  vb.perturbed_disk(cos_amps={3: 0.2})):
        mesh = vb.build_mesh(shape, 128)
        assert abs(mesh.w.sum() - mesh.perimeter) < 1e-10
        closure = (mesh.normal * mesh.w[:, None]).sum(axis=0)
        assert np.abs(closure).max() < 1e-10


def test_ellipse_perimeter_golden():
    mesh = vb.build_mesh(vb.ellipse(2, 1), 512)
    assert abs(mesh.perimeter - ELLIPSE_21_PERIMETER) < 1e-8


def test_mesh_validation():
    with pytest.raises(ValueError):
        vb.build_mesh(vb.disk(1.0), 4)
    with pytest.raises(ValueError):
        vb.build_mesh(vb.disk(1.0), 9)
    # clockwise parametrization is rejected
    with pytest.raises(ValueError):
        vb.build_mesh(vb.ShapeSpec("cw", (-1,), (1.0 + 0j,)), 64)
    # a mode mix that loops through itself is rejected with a diagnostic
    with pytest.raises(ValueError, match="self-intersect"):
        vb.build_mesh(vb.ShapeSpec("knot", (1, 3), (1.0 + 0j, 0.8 + 0j)), 128)


def test_disk_moments_exact():
    mesh = vb.build_mesh(vb.disk(1.0), 64)
    mom = vb.geometric_moments(mesh)
    assert abs(mom.area - np.pi) < 1e-12
    assert abs(mom.m_polar - np.pi / 2) < 1e-12
    assert abs(mom.m_diff) < 1e-12
    assert abs(mom.m_cross) < 1e-12
    assert np.abs(mom.centroid).max() < 1e-13


def test_ellipse_moments_closed_form():
    # integral of x1^2 over the ellipse is pi a^3 b / 4, of x2^2 is pi a b^3 / 4
    mesh = vb.build_mesh(vb.ellipse(2, 1), 256)
    mom = vb.geometric_moments(mesh)
    assert abs(mom.area - 2 * np.pi) < 1e-10
    assert abs(mom.m_diff - 3 * np.pi / 2) < 1e-10
    assert abs(mom.m_cross) < 1e-10
    assert abs(mom.m_polar - 5 * np.pi / 2) < 1e-10


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.3, 3.0), b=st.floats(0.3, 3.0))
def test_ellipse_moments_property(a, b):
    mesh = vb.build_mesh(vb.ellipse(a, b), 96)
    mom = vb.geometric_moments(mesh)
    scale = max(1.0, a * b) ** 2
    assert abs(mom.area - np.pi * a * b) < 1e-10 * scale
    assert abs(mom.m_diff - np.pi * a * b * (a * a - b * b) / 4) < 1e-9 * scale
    assert abs(mom.m_polar - np.pi * a * b * (a * a + b * b) / 4) < 1e-9 * scale


def test_presets_are_centered():
    for shape in (vb.perturbed_disk(cos_amps={3: 0.2}),
                  vb.perturbed_disk(cos_amps={2: 0.15}, sin_amps={3: 0.10})):
        mom = vb.geometric_moments(vb.build_mesh(shape, 256))
        assert np.abs(mom.centroid).max() < 1e-13


def test_translated_shape_moves_centroid():
    shape = vb.ellipse(2, 1).translated((0.3, -0.4))
    mom = vb.geometric_moments(vb.build_mesh(shape, 256))
    np.testing.assert_allclose(mom.centroid, [0.3, -0.4], atol=1e-12)


def test_scaled_shape():
    eps = 0.125
    base = vb.build_mesh(vb.ellipse(2, 1), 64)
    small = vb.build_mesh(vb.ellipse(2, 1).scaled(eps), 64)
    np.testing.assert_allclose(small.x, eps * base.x, atol=1e-15)
    np.testing.assert_allclose(small.w, eps * base.w, atol=1e-15)
    mom = vb.geometric_moments(small)
    assert abs(mom.area - eps ** 2 * 2 * np.pi) < 1e-12


def test_spectral_refinement():
    per = ELLIPSE_21_PERIMETER
    e8 = abs(vb.build_mesh(vb.ellipse(2, 1), 8).perimeter - per)
    e16 = abs(vb.build_mesh(vb.ellipse(2, 1), 16).perimeter - per)
    assert e8 / e16 > 10.0


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(-6.0, 6.0), hx=st.floats(-2, 2), hy=st.floats(-2, 2))
def test_placement_roundtrip(theta, hx, hy):
    pl = vb.Placement(h=np.array([hx, hy]), theta=theta)
    pts = np.array([[0.3, -1.2], [1.0, 0.0], [-0.7, 0.45]])
    R = vb.rotation(theta)
    # inverse map: y -> (y - h) R
    np.testing.assert_allclose((pl.to_lab(pts) - pl.h) @ R, pts, atol=1e-12)
    np.testing.assert_allclose((pts @ R) @ R.T, pts, atol=1e-12)


def test_perp_and_rotation():
    v = np.array([1.0, 2.0])
    np.testing.assert_allclose(vb.perp(v), [-2.0, 1.0])
    np.testing.assert_allclose(vb.perp(vb.perp(v)), -v)
    np.testing.assert_allclose(vb.rotation(np.pi / 2) @ v, vb.perp(v), atol=1e-15)


def test_rk4_step_is_fourth_order():
    # v' = perp(v) rotates v; the clock t' = 1 has a constant rate, which
    # RK4 integrates exactly, so only the roundoff of summing dt is left
    v0 = np.array([1.0, 0.5])
    errors = []
    for n in (20, 40):
        y = (v0, 0.0)
        for _ in range(n):
            y = vb.geometry.rk4_step(lambda v, t: (vb.perp(v), 1.0), y, 1.0 / n)
        errors.append(np.abs(y[0] - vb.rotation(1.0) @ v0).max())
        assert abs(y[1] - 1.0) < 1e-14
    assert 14.0 <= errors[0] / errors[1] <= 18.0
    with pytest.raises(ValueError):
        vb.geometry.rk4_step(lambda v, t: (vb.perp(v), 1.0), (v0, 0.0), 0.0)
