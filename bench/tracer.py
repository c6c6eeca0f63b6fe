"""In-memory spans around the public functions of every vortexbody module.

The library carries no tracing of its own.  ``Tracer.installed()`` swaps
each traced function for a wrapper in every vortexbody namespace that
bound it (``lab.coupled_step`` as well as ``coupled_system.coupled_step``)
and, for methods and classes, on the class itself, so that callers that
look the name up at call time all go through the wrapper.  Leaving the
context restores the originals.

A span is (name, start, end, parent).  A layer's self time is its span's
duration minus the durations of its direct child spans.  Spans nest only
when one thread calls into the library at a time, which holds because the
benchmark runs ``lab.run(..., threads=1)``: the main thread blocks while
the single pool worker runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

RK_STAGES = 4   # coupled_step is classical RK4


def _rows(points) -> int:
    return np.asarray(points).size // 2


def _state_pairs(state):
    return state.field.n, state.scaled.base.mesh.n


# (metric prefix, attribute path inside the module, pairs from arguments)
# The pairs function returns (points, sources) for the calls whose cost is
# one pass over a points x sources product.
TARGETS = (
    ("geometry.build_mesh", "build_mesh", None),
    ("geometry.polygon_contains", "polygon_contains",
     lambda vertices, points: (_rows(points), len(vertices))),
    ("contour.identity_suite", "identity_suite", None),
    ("potential.build_potential_set", "build_potential_set", None),
    ("potential.log_gradient_sum", "log_gradient_sum",
     lambda points, nodes, charges: (_rows(points), len(nodes))),
    ("potential.log_potential_sum", "log_potential_sum",
     lambda points, nodes, charges: (_rows(points), len(nodes))),
    ("potential.BoundaryOperators.neumann_density",
     "BoundaryOperators.neumann_density", None),
    ("potential.BoundaryOperators.dirichlet_density",
     "BoundaryOperators.dirichlet_density", None),
    ("biotsavart.velocity_free_space", "velocity_free_space",
     lambda field, points: (_rows(points), field.n)),
    ("biotsavart.HydrodynamicField", "HydrodynamicField.__init__", None),
    ("biotsavart.pair_stream_matrix", "pair_stream_matrix", None),
    ("biotsavart.velocity_gradient", "velocity_gradient", None),
    ("coupled_system.coupled_step", "coupled_step",
     lambda state, dt: _state_pairs(state)),
    ("coupled_system.force_B", "force_B",
     lambda state, *args, **kwargs: _state_pairs(state)),
    ("coupled_system.force_C", "force_C", None),
    ("coupled_system.total_energy", "total_energy", None),
    ("coupled_system.CoupledState.boundary_distance",
     "CoupledState.boundary_distance", lambda state: _state_pairs(state)),
    ("limit_system.vw_step", "vw_step", None),
    ("normal_form.normal_form_residual", "normal_form_residual", None),
    ("normal_form.modulation_rate_monitor", "modulation_rate_monitor", None),
    ("normal_form.apply_lambda", "apply_lambda", None),
    ("lab.run_coupled", "run_coupled", None),
    ("lab.run_limit", "run_limit", None),
    ("lab.assemble_report", "assemble_report", None),
    ("lab.write_artifacts", "write_artifacts", None),
    ("lab.check", "check", None),
)

STEP = "coupled_system.coupled_step"
# pair totals: counter name -> the traced functions that feed it
PAIR_COUNTERS = {
    "biotsavart.blob_pairs": ("biotsavart.velocity_free_space",),
    "potential.node_pairs": ("potential.log_gradient_sum",
                             "potential.log_potential_sum"),
}
PASSES = "coupled_system.blob_node_passes_per_stage"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for prefix, _, _ in TARGETS:
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
    return names + [PASSES, *PAIR_COUNTERS]


class Tracer:
    """Spans and pair counts for one traced benchmark run."""

    def __init__(self):
        self.names = [prefix for prefix, _, _ in TARGETS]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.pairs = dict.fromkeys(self.names, 0)
        self.passes = 0
        self._step_pairs = None      # (blobs, nodes) inside coupled_step
        self._stack = []             # open spans: [index, child seconds]
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name_id: int, pairs_of):
        name = self.names[name_id]
        tracer = self
        is_step = name == STEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved_step = tracer._step_pairs
            if pairs_of is not None:
                pts, src = pairs_of(*args, **kwargs)
                tracer.pairs[name] += pts * src
                if is_step:
                    tracer._step_pairs = (pts, src)
                elif saved_step is not None and (
                        (pts, src) == saved_step
                        or (src, pts) == saved_step):
                    tracer.passes += 1
            stack = tracer._stack
            index = len(tracer._span_name)
            tracer._span_name.append(name_id)
            tracer._span_parent.append(stack[-1][0] if stack else -1)
            tracer._span_start.append(0.0)
            tracer._span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack.pop() is not frame:
                    raise RuntimeError(f"span {name} closed out of order")
                duration = end - start
                tracer._span_start[index] = start
                tracer._span_end[index] = end
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer._step_pairs = saved_step

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "vortexbody" or key.startswith("vortexbody.")]
        undo = []
        try:
            for name_id, (prefix, path, pairs_of) in enumerate(TARGETS):
                module = importlib.import_module(
                    "vortexbody." + prefix.split(".")[0])
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    fn = owner.__dict__[attr]
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(fn, name_id, pairs_of))
                    continue
                fn = getattr(module, attr)
                wrapped = self._wrap(fn, name_id, pairs_of)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, key, fn))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_name)

    def top_level_seconds(self) -> float:
        """Summed duration of the spans that have no parent, which equals
        the summed self time of all spans."""
        parent = np.frombuffer(self._span_parent, dtype=np.int32)
        start = np.frombuffer(self._span_start)
        end = np.frombuffer(self._span_end)
        top = parent == -1
        return float((end[top] - start[top]).sum())

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round of operations: calls, self seconds,
        blob x node passes per RK stage, and pair totals."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / rounds, "s")
        stages = RK_STAGES * self.calls[STEP]
        out[PASSES] = (self.passes / stages if stages else 0.0, "count")
        for counter, sources in PAIR_COUNTERS.items():
            out[counter] = (sum(self.pairs[s] for s in sources) / rounds,
                            "count")
        return out

    def write(self, path) -> None:
        """Write every span: name table, start, end and parent index."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            start=np.frombuffer(self._span_start),
            end=np.frombuffer(self._span_end),
            parent=np.frombuffer(self._span_parent, dtype=np.int32))
