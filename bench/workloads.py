"""The benchmark workloads: their inputs, one round of operations each,
and the output checks that decide which operations failed.

All workloads are closed loop with a single caller.  A round of a
trajectory workload is one ``lab.run`` (one coupled run per eps plus the
limit run); a round of ``identities-512`` is one ``lab.check``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from vortexbody import lab

import checks

# The ellipse of every workload; its added masses have closed forms.
ELLIPSE_AXES = (2.0, 1.0)

# A copy of SWEEP_CONFIG from tests/test_acceptance.py.  Only the panel
# count, the lattice, the eps list, T and the seed are filled in; the
# dynamics do not depend on the seed, which feeds only randomized
# identity checks.
CONFIG_TEMPLATE = """\
[shape]
preset = ellipse
a = 2.0
b = 1.0
panels = {panels}

[body]
alpha = 2.0
gamma = 6.283185307179586
ell0 = 0.5 0.0

[vorticity]
patch = 1.0 1.8 1.0
spacing = {spacing}
{delta}
[sweep]
eps = {eps}

[time]
t = {T}
dt = 0.001

[run]
seed = {seed}
rho = 4.0
"""

# name -> (full size, tiny size for the benchmark's own tests)
# dense-2800 sweeps two scales, not three, so that a 30 s run holds two
# rounds of its ~12 s lab.run
TRAJECTORY = {
    "sweep-308": (dict(panels=256, spacing=0.15, eps="0.2 0.1 0.05", T=0.01),
                  dict(panels=128, spacing=0.3, delta=0.15,
                       eps="0.2 0.1 0.05", T=0.005)),
    "dense-2800": (dict(panels=128, spacing=0.05, eps="0.1 0.05", T=0.001),
                   dict(panels=64, spacing=0.15, eps="0.1 0.05", T=0.001)),
}
IDENTITIES = {"identities-512": (512, 128)}
NAMES = (*TRAJECTORY, *IDENTITIES)

SPOT_BLOBS = 16   # blobs whose first limit step is recomputed


def config_text(name: str, seed: int, tiny: bool = False) -> str:
    params = dict(TRAJECTORY[name][tiny])
    delta = params.pop("delta", None)
    return CONFIG_TEMPLATE.format(
        seed=seed, delta="" if delta is None else f"delta = {delta}\n",
        **params)


def make(name: str, seed: int, out_root: Path, tiny: bool = False):
    if name in TRAJECTORY:
        return TrajectoryWorkload(name, seed, out_root, tiny)
    if name in IDENTITIES:
        return IdentityWorkload(seed, IDENTITIES[name][tiny])
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


class TrajectoryWorkload:
    """``lab.run(config, out_dir, threads=1)`` on one config."""

    def __init__(self, name: str, seed: int, out_root: Path, tiny: bool):
        self.out_root = out_root
        path = out_root / f"{name}.cfg"
        path.write_text(config_text(name, seed, tiny))
        self.config = lab.parse_config(path)
        self.shapes = (("ellipse", self.config.shape),)
        self.panels = self.config.panels
        n_blobs = lab.initial_field(self.config, "lab").n
        rng = np.random.default_rng(seed)
        self.spot = np.sort(rng.choice(n_blobs, min(SPOT_BLOBS, n_blobs),
                                       replace=False))
        self._reference = None

    def run_round(self, k: int):
        out = self.out_root / f"round-{k}"
        records, report = lab.run(self.config, out, threads=1)
        return records, report, out

    def attempted(self, result) -> int:
        return len(self.config.eps) + 1

    def failures(self, result) -> tuple[int, list[str]]:
        """(failed operations, messages) for one round."""
        records, report, out = result
        cfg = self.config
        limit = records[-1]
        coupled = [r for r in records if r.kind == "coupled"]
        lim = _read_csv(out / "limit-trajectory.csv")
        sup_h, transport = [], []
        for rec in coupled:
            tr = _read_csv(out / f"{rec.label}-trajectory.csv")
            m = min(tr["t"].size, lim["t"].size)
            sup_h.append(float(np.hypot(tr["h1"][:m] - lim["h1"][:m],
                                        tr["h2"][:m] - lim["h2"][:m]).max()))
            m = min(len(rec.blob_lab), len(limit.blob_lab))
            gap = np.linalg.norm(rec.blob_lab[:m] - limit.blob_lab[:m], axis=2)
            transport.append(float(gap.mean(axis=1).max()))
        markers = {p.stem for p in out.glob("*.aborted")}
        rows = checks.coupled_row_failures(report.rows, cfg.eps, cfg.T,
                                           cfg.steps, sup_h, transport,
                                           markers)
        messages = [m for row in rows for m in row]
        failed = sum(bool(row) for row in rows) + len(cfg.eps) - len(rows)

        limit_msgs = []
        if (limit.aborted is not None or "limit" in markers
                or len(limit.t) != cfg.steps + 1):
            limit_msgs.append(f"limit run aborted ({limit.aborted}) after "
                              f"{len(limit.t) - 1} of {cfg.steps} steps")
        if self._reference is None:
            self._reference = self._limit_reference(limit)
        if len(limit.t) > 1:
            row1 = {key: col[1] for key, col in lim.items()}
            limit_msgs += checks.limit_step_failures(
                self._reference, row1, limit.blob_lab[1], self.spot)
        impulse = np.column_stack([lim["impulse1"], lim["impulse2"]])
        h0, z0, _, _, strengths, gamma = self._reference
        limit_msgs += checks.impulse_drift_failures(
            impulse, checks.impulse_scale(h0, z0, strengths, gamma))
        return failed + bool(limit_msgs), messages + limit_msgs

    def _limit_reference(self, limit):
        """One RK4 step of the vortex-wave system from the limit run's
        initial state, computed by the benchmark's own code."""
        cfg = self.config
        h0 = complex(*limit.h[0])
        z0 = limit.blob_lab[0, :, 0] + 1j * limit.blob_lab[0, :, 1]
        delta = cfg.delta or cfg.spacing
        h1, z1 = checks.vortex_wave_rk4(h0, z0, limit.blob_gamma, delta,
                                        cfg.gamma, cfg.dt)
        return h0, z0, h1, z1, limit.blob_gamma, cfg.gamma


class IdentityWorkload:
    """``lab.check(panels, seed)`` on the three canonical shapes."""

    def __init__(self, seed: int, panels: int):
        self.seed = seed
        self.panels = panels
        self.shapes = lab.CANONICAL_SHAPES

    def run_round(self, k: int):
        return lab.check(panels=self.panels, seed=self.seed)

    def attempted(self, result) -> int:
        return len(result.rows)

    def failures(self, result) -> tuple[int, list[str]]:
        messages = checks.identity_row_failures(result.rows)
        return len(messages), messages
