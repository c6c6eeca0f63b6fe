"""The library surface the benchmark under bench/ relies on.

bench/tracer.py wraps functions by attribute path, and the workloads call
a few entry points by name.  A rename or deletion in the package that
breaks either fails here, in the regular suite, and not only in the
benchmark's own tests.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from vortexbody import (biotsavart, coupled_system, geometry, lab, limit_system,
                        potential)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("prefix, path",
                         [(prefix, path)
                          for prefix, path, _ in load_tracer().TARGETS])
def test_tracer_target_resolves(prefix, path):
    module = importlib.import_module("vortexbody." + prefix.split(".")[0])
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # methods are wrapped on the class that defines them
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__[attr])
    else:
        assert callable(getattr(module, attr))


def test_workload_entry_points():
    assert "threads" in inspect.signature(lab.run).parameters
    check_params = inspect.signature(lab.check).parameters
    assert {"panels", "seed"} <= set(check_params)
    assert lab.CANONICAL_SHAPES
    for fn in (lab.parse_config, lab.initial_field, geometry.build_mesh,
               potential.build_potential_set, potential.build_mass_data):
        assert callable(fn)
    # the RunRecord attributes bench/workloads.py reads
    fields = {f.name for f in dataclasses.fields(lab.RunRecord)}
    assert {"kind", "t", "h", "blob_lab", "blob_gamma", "aborted"} <= fields
    assert isinstance(inspect.getattr_static(lab.RunRecord, "label"),
                      property)


def test_one_blob_node_pass_per_stage():
    # each RK stage builds its blob x node geometry once: HydrodynamicField
    # checks containment on its own offsets, and force_B, a transposed
    # product on them, is the one pass the tracer counts
    tracer_module = load_tracer()
    pset = potential.build_potential_set(
        geometry.build_mesh(geometry.ellipse(2.0, 1.0), 64))
    state = coupled_system.init_coupled(
        potential.ScaledPotentials(pset, 0.1), m1=1.0, J1=1.0,
        alpha=2.0, gamma=1.0,
        field=biotsavart.BlobField(
            *coupled_system.VorticityPatch(0.5, 0.8).discretize(0.1), 0.1))
    assert state.field.n != pset.mesh.n
    tracer = tracer_module.Tracer()
    with tracer.installed():
        for _ in range(2):
            state = coupled_system.coupled_step(state, 1e-3)
    assert tracer.calls[tracer_module.STEP] == 2
    assert tracer.calls["geometry.polygon_contains"] == 0
    passes, _ = tracer.metrics(1)[tracer_module.PASSES]
    assert passes == 1.0


def test_tensor_row_is_one_call_per_tensor():
    # lab.check evaluates each zero-work tensor on all draws of a shape in
    # one batched call, not once per draw
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    with tracer.installed():
        lab.check(panels=64, seed=0)
    calls = tracer.calls["normal_form.apply_lambda"]
    assert 0 < calls <= 2 * len(lab.CANONICAL_SHAPES)


def test_energy_is_one_blob_node_pass():
    # total_energy reads both boundary sums off the nodes: one free log
    # sum over blobs x (nodes + pole) and one Dirichlet solve
    tracer_module = load_tracer()
    pset = potential.build_potential_set(
        geometry.build_mesh(geometry.ellipse(2.0, 1.0), 64))
    state = coupled_system.init_coupled(
        potential.ScaledPotentials(pset, 0.1), m1=1.0, J1=1.0,
        alpha=2.0, gamma=1.0,
        field=biotsavart.BlobField(
            *coupled_system.VorticityPatch(0.5, 0.8).discretize(0.1), 0.1))
    assert state.field.n
    tracer = tracer_module.Tracer()
    with tracer.installed():
        coupled_system.total_energy(state)
    assert tracer.calls["potential.log_potential_sum"] == 1
    assert tracer.calls["potential.BoundaryOperators.dirichlet_density"] == 1


def test_energy_takes_every_near_pair_from_the_table(monkeypatch):
    # total_energy's pair sum sends the near entries (u < 40) of each row
    # block against its columns i0: through the one table, the self-pairs
    # included, and no other entry
    passed = []

    def counted(u):
        passed.append(np.array(u))
        return table(u)

    table = biotsavart._ln_e1
    monkeypatch.setattr(biotsavart, "_ln_e1", counted)
    pset = potential.build_potential_set(
        geometry.build_mesh(geometry.ellipse(2.0, 1.0), 64))
    state = coupled_system.init_coupled(
        potential.ScaledPotentials(pset, 0.1), m1=1.0, J1=1.0,
        alpha=2.0, gamma=1.0,
        field=biotsavart.BlobField(
            *coupled_system.VorticityPatch(1.0, 1.8).discretize(0.15), 0.15))
    f = state.field
    assert f.n == 308
    coupled_system.total_energy(state)
    u = np.sort(np.concatenate(passed))
    rho = np.concatenate([
        geometry.squared_distances(f.x[i0:i0 + biotsavart.PAIR_ROWS], f.x[i0:])
        .reshape(-1) for i0 in range(0, f.n, biotsavart.PAIR_ROWS)])
    want = np.sort(rho[rho < 40.0 * f.delta ** 2] / f.delta ** 2)
    assert np.array_equal(u, want)
    assert (u == 0.0).sum() == f.n


def test_steppers_share_rk4(monkeypatch):
    # both systems step through geometry.rk4_step, once per step
    pset = potential.build_potential_set(
        geometry.build_mesh(geometry.ellipse(2.0, 1.0), 64))
    coupled = coupled_system.init_coupled(
        potential.ScaledPotentials(pset, 0.1), m1=1.0, J1=1.0,
        alpha=2.0, gamma=1.0,
        field=biotsavart.BlobField(
            *coupled_system.VorticityPatch(0.5, 0.8).discretize(0.1), 0.1))
    limit = limit_system.VortexWaveState(
        h=(0.0, 0.0), gamma=1.0, field=biotsavart.BlobField(
            *coupled_system.VorticityPatch(1.0, 1.3).discretize(0.1), 0.1,
            frame="lab"))
    calls = []

    def counted(*args):
        calls.append(1)
        return geometry.rk4_step(*args)

    monkeypatch.setattr(coupled_system, "rk4_step", counted)
    monkeypatch.setattr(limit_system, "rk4_step", counted)
    for _ in range(2):
        coupled = coupled_system.coupled_step(coupled, 1e-3)
    assert len(calls) == 2
    for _ in range(2):
        limit = limit_system.vw_step(limit, 1e-3)
    assert len(calls) == 4
