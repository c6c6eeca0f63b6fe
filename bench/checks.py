"""Output checks the benchmark applies after its timed region.

Each check compares the program's output with a value computed here,
apart from the program, or with a property the method must have.  None
compares with a stored copy of earlier output.  Every function returns
a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# criterion 3 of the acceptance gate: relative energy drift along a
# coupled run at these step sizes stays below this
ENERGY_DRIFT_BOUND = 1e-4
# the closed-form added masses are matched to ~1e-15 at every panel
# count the workloads use (spectral convergence on the ellipse)
MASS_RTOL = 1e-12
# one RK4 step recomputed here must agree with the program's step to
# this share of the step's largest displacement; RK4 against forward
# Euler differs by ~5e-4 of the displacement at dt = 1e-3
STEP_RTOL = 1e-8
# the limit impulse gamma h + sum G_j x_j is linear, so RK4 keeps it up
# to roundoff; relative to sum |G_j| |x_j| + |gamma| |h|
IMPULSE_RTOL = 1e-12


def added_mass_failures(mass: np.ndarray, a: float, b: float) -> list[str]:
    """Ellipse with semi-axes a (along x1) and b: m11 = pi b^2,
    m22 = pi a^2, m33 = pi (a^2 - b^2)^2 / 8."""
    expected = (math.pi * b * b, math.pi * a * a,
                math.pi * (a * a - b * b) ** 2 / 8.0)
    out = []
    for i, want in enumerate(expected):
        got = float(mass[i, i])
        if not abs(got - want) <= MASS_RTOL * want:
            out.append(f"added mass m{i + 1}{i + 1} = {got!r}, "
                       f"closed form {want!r}")
    return out


# ---------------------------------------------------------------------------
# limit run: the vortex-wave system, written here in complex form


def _conj_velocity(z_targets, z_blobs, strengths, delta, chunk=256):
    """u - i v at each target from Gaussian blobs: sum_j G_j / (2 pi i)
    (1 - exp(-|z - z_j|^2 / delta^2)) / (z - z_j); a coincident pair
    contributes nothing."""
    out = np.empty(z_targets.shape, dtype=complex)
    for lo in range(0, z_targets.size, chunk):
        dz = z_targets[lo:lo + chunk, None] - z_blobs[None, :]
        r2 = dz.real ** 2 + dz.imag ** 2
        safe = np.where(r2 > 0.0, dz, 1.0)
        core = np.where(r2 > 0.0, 1.0 - np.exp(-r2 / delta ** 2), 0.0)
        out[lo:lo + chunk] = (core / safe) @ strengths / (2j * math.pi)
    return out


def vortex_wave_rates(h: complex, z: np.ndarray, strengths: np.ndarray,
                      delta: float, gamma: float):
    """dh/dt and dz_j/dt: the vortex moves with the blob field, each blob
    with the other blobs plus the exact point-vortex kernel."""
    h_dot = np.conj(_conj_velocity(np.array([h]), z, strengths, delta))[0]
    point = gamma / (2j * math.pi) / (z - h)
    z_dot = np.conj(_conj_velocity(z, z, strengths, delta) + point)
    return h_dot, z_dot


def vortex_wave_rk4(h: complex, z: np.ndarray, strengths: np.ndarray,
                    delta: float, gamma: float, dt: float):
    """One classical RK4 step of the vortex-wave system."""
    k1 = vortex_wave_rates(h, z, strengths, delta, gamma)
    k2 = vortex_wave_rates(h + 0.5 * dt * k1[0], z + 0.5 * dt * k1[1],
                           strengths, delta, gamma)
    k3 = vortex_wave_rates(h + 0.5 * dt * k2[0], z + 0.5 * dt * k2[1],
                           strengths, delta, gamma)
    k4 = vortex_wave_rates(h + dt * k3[0], z + dt * k3[1],
                           strengths, delta, gamma)
    h1 = h + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    z1 = z + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return h1, z1


def impulse_scale(h: complex, z: np.ndarray, strengths: np.ndarray,
                  gamma: float) -> float:
    return float(abs(gamma) * abs(h) + np.abs(strengths) @ np.abs(z))


def limit_step_failures(reference, row1: dict, blobs1: np.ndarray,
                        spot: np.ndarray) -> list[str]:
    """Compare the program's first limit step with ``reference``.

    ``reference`` holds (h0, z0, h1, z1, strengths, gamma) from
    ``vortex_wave_rk4``; ``row1`` is row 1 of limit-trajectory.csv;
    ``blobs1`` the program's blob positions after one step, shape (n, 2);
    ``spot`` the blob indices compared.
    """
    h0, z0, h1, z1, strengths, gamma = reference
    scale = max(abs(h1 - h0), float(np.abs(z1 - z0).max()))
    out = []
    h_prog = complex(row1["h1"], row1["h2"])
    if not abs(h_prog - h1) <= STEP_RTOL * scale:
        out.append(f"vortex after one step at {h_prog!r}, "
                   f"reference {h1!r}")
    z_prog = blobs1[spot, 0] + 1j * blobs1[spot, 1]
    gap = float(np.abs(z_prog - z1[spot]).max()) if spot.size else 0.0
    if not gap <= STEP_RTOL * scale:
        out.append(f"blob positions after one step off by {gap:.3e} "
                   f"(step size {scale:.3e})")
    # positions may differ by STEP_RTOL * scale each, plus roundoff
    impulse = gamma * h1 + strengths @ z1
    i_prog = complex(row1["impulse1"], row1["impulse2"])
    tol = (STEP_RTOL * scale * (abs(gamma) + float(np.abs(strengths).sum()))
           + IMPULSE_RTOL * impulse_scale(h1, z1, strengths, gamma))
    if not abs(i_prog - impulse) <= tol:
        out.append(f"impulse after one step {i_prog!r}, "
                   f"reference {impulse!r}")
    return out


def impulse_drift_failures(impulse: np.ndarray, scale: float) -> list[str]:
    """``impulse`` is the (m, 2) impulse column pair of the limit run."""
    drift = float(np.abs(impulse - impulse[0]).max())
    if not drift <= IMPULSE_RTOL * scale:
        return [f"limit impulse drifts by {drift:.3e}, beyond roundoff "
                f"({IMPULSE_RTOL:g} x {scale:.3g})"]
    return []


# ---------------------------------------------------------------------------
# coupled runs


def coupled_row_failures(rows, eps, T: float, steps: int,
                         sup_h: list[float], transport: list[float],
                         markers: set[str]) -> list[list[str]]:
    """Messages for each coupled run of one sweep, in config order.

    ``sup_h`` and ``transport`` are recomputed here from the trajectory
    files and the returned blob paths; ``markers`` are the labels with an
    ``.aborted`` file.  A row that does not shrink both distances against
    the previous (larger) eps fails: that is the convergence claim.
    """
    out = []
    for i, row in enumerate(rows):
        msgs = []
        label = f"coupled-eps{row['eps']:g}"
        if i >= len(eps) or row["eps"] != eps[i]:
            msgs.append(f"row {i} has eps {row['eps']!r}, config order "
                        f"{list(eps)!r}")
        if row["aborted"] is not None or label in markers:
            msgs.append(f"{label} aborted ({row['aborted']})")
        if row["steps"] != steps or not abs(row["t_eps"] - T) <= 1e-9 * T:
            msgs.append(f"{label} reached t_eps={row['t_eps']!r} in "
                        f"{row['steps']} steps, expected T={T!r}")
        drift = row["energy_drift"]
        if not 0.0 <= drift <= ENERGY_DRIFT_BOUND:
            msgs.append(f"{label} energy drift {drift!r} beyond "
                        f"{ENERGY_DRIFT_BOUND:g}")
        for key, ref in (("sup_h_distance", sup_h), ("sup_transport",
                                                     transport)):
            if i >= len(ref) or not abs(row[key] - ref[i]) <= 1e-12 * ref[i]:
                msgs.append(f"{label} {key} {row[key]!r} differs from the "
                            f"value recomputed from its outputs")
            elif i and not row[key] < rows[i - 1][key]:
                msgs.append(f"{label} {key} {row[key]!r} does not fall "
                            f"below {rows[i - 1][key]!r} at the larger eps")
        out.append(msgs)
    return out


# ---------------------------------------------------------------------------
# identities


def identity_row_failures(rows) -> list[str]:
    """One message per row of ``lab.check`` that does not pass."""
    return [f"{r.group}/{r.shape}/{r.name}: error {r.error!r} > "
            f"{r.tolerance!r}" for r in rows
            if not (math.isfinite(r.error) and r.error <= r.tolerance)]
