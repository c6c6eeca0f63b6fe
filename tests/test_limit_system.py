"""Vortex-wave dynamics against the two-vortex closed form and the
invariants of the exact system."""

import numpy as np
import pytest

from conftest import empty_field
from vortexbody.biotsavart import BlobField, velocity_free_space
from vortexbody.limit_system import (
    VortexCollisionError,
    VortexWaveState,
    vw_rhs,
    vw_step,
)


def lab_blobs(x, gamma, delta=1e-8):
    return BlobField(x=x, gamma=gamma, delta=delta, frame="lab")


def weighted_centroid(state: VortexWaveState) -> np.ndarray:
    """Circulation-weighted centroid (gamma h + sum G_j x_j)/(gamma + sum G_j),
    an invariant of the exact dynamics; its drift measures time-stepping
    error."""
    total = state.gamma + state.field.beta
    return (state.gamma * state.h + state.field.gamma @ state.field.x) / total


def test_empty_vorticity_keeps_vortex_static():
    st = VortexWaveState(h=[0.4, -0.2], field=empty_field(frame="lab"),
                         gamma=3.0)
    h_dot, blob_dot = vw_rhs(st.h, st.field, st.gamma)
    assert np.array_equal(h_dot, [0.0, 0.0])
    assert blob_dot.shape == (0, 2)
    out = st
    for _ in range(5):
        out = vw_step(out, 0.1)
    assert np.array_equal(out.h, st.h)
    assert out.t == pytest.approx(0.5)


def test_symmetric_ring_cancels():
    th = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    ring = lab_blobs(np.stack([2 * np.cos(th), 2 * np.sin(th)], -1) + [1.0, 0.5],
                     np.full(12, 0.3))
    st = VortexWaveState(h=[1.0, 0.5], field=ring, gamma=1.0)
    h_dot, _ = vw_rhs(st.h, st.field, st.gamma)
    assert np.abs(h_dot).max() < 1e-14


def test_single_far_blob_speed():
    d, G = 2.5, 1.7
    st = VortexWaveState(h=[0.0, 0.0], field=lab_blobs([[d, 0.0]], [G]),
                         gamma=5.0)
    h_dot, blob_dot = vw_rhs(st.h, st.field, st.gamma)
    assert abs(np.hypot(*h_dot) - G / (2 * np.pi * d)) < 1e-12
    # the blob feels only the vortex (gamma, not G)
    assert abs(np.hypot(*blob_dot[0]) - 5.0 / (2 * np.pi * d)) < 1e-12


def test_vortex_velocity_matches_kernel_module():
    rng = np.random.default_rng(2)
    fld = lab_blobs(rng.normal(size=(7, 2)) + [3.0, 1.0],
                    rng.normal(size=7), delta=0.04)
    st = VortexWaveState(h=[0.1, -0.3], field=fld, gamma=4.0)
    h_dot, _ = vw_rhs(st.h, st.field, st.gamma)
    direct = velocity_free_space(fld, st.h)[0]
    assert np.array_equal(h_dot, direct)


def test_pair_surrogate_period():
    # blob strength equal to gamma: both rotate about the midpoint with
    # period 2 pi^2 d^2 / gamma
    g, d = 2.0, 1.3
    st0 = VortexWaveState(h=[0.0, 0.0], field=lab_blobs([[d, 0.0]], [g]),
                          gamma=g)
    period = 2 * np.pi**2 * d**2 / g
    n = 4000
    st = st0
    annuli = []
    for _ in range(n):
        st = vw_step(st, period / n)
        annuli.append(st.field.support_annulus(st.h))
    assert np.abs(st.h - st0.h).max() < 1e-3 * d
    assert np.abs(st.field.x - st0.field.x).max() < 1e-3 * d
    annuli = np.array(annuli)
    assert np.abs(annuli - d).max() < 0.01 * d


def test_support_annulus_cases():
    one = lab_blobs([[1.0, 0.0]], [1.0])
    assert one.support_annulus((0.0, 0.0)) == (1.0, 1.0)

    th = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    ring = lab_blobs(np.stack([2 * np.cos(th), 2 * np.sin(th)], -1),
                     np.ones(8))
    lo, hi = ring.support_annulus((0.0, 0.0))
    assert lo == pytest.approx(2.0) and hi == pytest.approx(2.0)

    empty = empty_field(frame="lab")
    assert empty.support_annulus((0.0, 0.0)) == (np.inf, 0.0)


def test_circulations_and_centroid_conserved():
    rng = np.random.default_rng(0)
    fld = lab_blobs(rng.normal(size=(3, 2)) * 0.4 + [2.0, 0.0],
                    [0.5, -0.2, 0.8], delta=0.05)
    st = VortexWaveState(h=[0.0, 0.0], field=fld, gamma=2 * np.pi)
    c0 = weighted_centroid(st)
    g0 = st.field.gamma.copy()
    for _ in range(1000):
        st = vw_step(st, 1e-3)
    assert np.array_equal(st.field.gamma, g0)
    drift = np.abs(weighted_centroid(st) - c0).max() / np.abs(c0).max()
    assert drift < 1e-4


def test_step_convergence_is_fourth_order():
    rng = np.random.default_rng(0)
    fld = lab_blobs(rng.normal(size=(3, 2)) * 0.4 + [2.0, 0.0],
                    [0.5, -0.2, 0.8], delta=0.05)

    def run(steps):
        st = VortexWaveState(h=[0.0, 0.0], field=fld, gamma=2 * np.pi)
        for _ in range(steps):
            st = vw_step(st, 1.0 / steps)
        return np.concatenate([st.h, st.field.x.ravel()])

    ref = run(800)
    ratio = (np.abs(run(100) - ref).max() / np.abs(run(200) - ref).max())
    assert 16.0 * 0.8 < ratio < 16.0 * 1.2


def test_blob_near_vortex_rejected():
    st = VortexWaveState(h=[0.0, 0.0],
                         field=lab_blobs([[0.2, 0.0]], [1.0], delta=0.1),
                         gamma=1.0)
    with pytest.raises(VortexCollisionError):
        vw_rhs(st.h, st.field, st.gamma)


def test_body_frame_blobs_rejected():
    with pytest.raises(ValueError):
        VortexWaveState(h=[0.0, 0.0],
                        field=BlobField(x=[[1.0, 0.0]], gamma=[1.0],
                                        delta=0.1, frame="body"),
                        gamma=1.0)
