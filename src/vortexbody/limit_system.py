"""Point vortex of strength gamma coupled to transported background
vorticity: the zero-size limit of the body-fluid system.

The vortex moves with the blob-induced velocity alone; the blobs feel
each other and the vortex.  Both evolve in the lab frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import point_vortex, rk4_step
from .biotsavart import BlobField, velocity_free_space


class VortexCollisionError(RuntimeError):
    """Vorticity reached the point vortex; the evolution is no longer in
    the regime where the model makes sense."""


@dataclass(frozen=True)
class VortexWaveState:
    h: np.ndarray
    field: BlobField
    gamma: float
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float).reshape(2))
        if self.field.frame != "lab":
            raise ValueError("vortex-wave blobs live in the lab frame")


def vw_rhs(h, field: BlobField, gamma: float):
    """Velocities of the vortex at h and of every blob.

    The vortex sees only the blobs (no self term); the blobs see each
    other and the exact point-vortex kernel.
    """
    rho_min, _ = field.support_annulus(h)
    if rho_min < 5.0 * field.delta:
        raise VortexCollisionError(
            f"blob within 5 core radii of the vortex (d={rho_min:.3e})")
    h_dot = velocity_free_space(field, h)[0]
    blob_dot = velocity_free_space(field, field.x) + point_vortex(field.x, h, gamma)
    return h_dot, blob_dot


def vw_step(state: VortexWaveState, dt: float) -> VortexWaveState:
    """One RK4 step of the joint (vortex, blobs) system."""
    f = state.field
    h, x = rk4_step(lambda h, x: vw_rhs(h, f.with_positions(x), state.gamma),
                    (state.h, f.x), dt)
    return replace(state, h=h, field=f.with_positions(x), t=state.t + dt)
