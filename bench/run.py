"""Benchmark of the vortexbody convergence sweep and identity checks.

    python3 bench/run.py --workload sweep-308 --seed 0 --seconds 30 --trace 0

Runs whole rounds of one workload for up to ``--seconds`` (at least one
round), checks every round's outputs, and prints each metric by name and
unit, then one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the per-layer ones from spans recorded around every
public function of the library, written to ``bench/out/``.  ``--tiny``
shrinks every workload for the benchmark's own tests.

The library is imported from ``src/`` next to this directory.  BLAS and
OpenMP run one thread, and the sweep runs serially, so wall and CPU time
measure the same single thread of work.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-up is timed in slices of this many seconds (at least one set-up
# each), one before the first round and one after every round: a set-up
# lasts milliseconds, and the host's CPU speed changes over seconds.
SETUP_SLICE_S = 0.25


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _import_library() -> float:
    """Import vortexbody from the checkout's src/ and return the seconds
    the imports took; raise ImportError when it is not there."""
    started = perf_counter()
    sys.path.insert(0, str(SRC))
    import vortexbody.lab  # noqa: F401

    origin = Path(sys.modules["vortexbody"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"vortexbody came from {origin}, not {SRC}")
    return perf_counter() - started


class SetupTimer:
    """Times build_mesh, build_potential_set and build_mass_data over the
    workload's shapes, in-process; keeps the ellipse's potential set."""

    def __init__(self, workload):
        from vortexbody.geometry import build_mesh
        from vortexbody.potential import build_mass_data, build_potential_set

        self._build = (build_mesh, build_potential_set, build_mass_data)
        self.workload = workload
        self.times = []
        self.ellipse_pset = None
        self._once()             # untimed warm-up

    def _once(self) -> float:
        build_mesh, build_potential_set, build_mass_data = self._build
        started = perf_counter()
        for label, shape in self.workload.shapes:
            pset = build_potential_set(build_mesh(shape, self.workload.panels))
            build_mass_data(pset)
            if label == "ellipse":
                self.ellipse_pset = pset
        return perf_counter() - started

    def slice(self) -> None:
        started = perf_counter()
        self.times.append(self._once())
        while perf_counter() - started < SETUP_SLICE_S:
            self.times.append(self._once())


def run_rounds(workload, seconds: float, setup: SetupTimer, tracer=None):
    """Whole rounds until the next one would end past ``seconds``, with a
    set-up slice before the first round and after each round.

    Returns the results, each round's wall and CPU seconds, and the peak
    resident set after the first round: later rounds grow the heap a
    little (the allocator raises its mmap threshold), so the peak is
    taken where it does not depend on how many rounds fit.
    """
    results, walls, cpus = [], [], []
    setup.slice()
    started = perf_counter()
    while True:
        with tracer.installed() if tracer else nullcontext():
            wall0, cpu0 = perf_counter(), _cpu_seconds()
            results.append(workload.run_round(len(results)))
            walls.append(perf_counter() - wall0)
            cpus.append(_cpu_seconds() - cpu0)
        if len(results) == 1:
            peak_rss_mb = _peak_rss_mb()
        setup.slice()
        if perf_counter() - started + walls[-1] > seconds:
            return results, walls, cpus, peak_rss_mb


def _parse(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload (for the benchmark's tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        import_s = _import_library()
    except ImportError as exc:
        print(f"bench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    args = _parse(argv)

    import checks
    import workloads
    from tracer import Tracer

    out_root = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, args.seed, out_root,
                                  args.tiny)
        setup = SetupTimer(workload)
        tracer = Tracer() if args.trace else None
        results, walls, cpus, peak_rss_mb = run_rounds(
            workload, args.seconds, setup, tracer)

        setup_msgs = checks.added_mass_failures(setup.ellipse_pset.mass,
                                                *workloads.ELLIPSE_AXES)
        attempted = failed = 0
        messages = list(setup_msgs)
        for result in results:
            attempted += workload.attempted(result)
            n_failed, msgs = workload.failures(result)
            failed += n_failed
            messages += msgs
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    for msg in messages[:20]:
        print(f"bench: check failed: {msg}", file=sys.stderr)

    # The host alternates between a fast and a slow CPU speed, in spells
    # of seconds; a median over rounds jumps between the two, while the
    # mean follows the mix (bench/README.md has the measurements).
    setup_s = statistics.median(setup.times)
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"),
                   "run_s": (statistics.fmean(walls), "s"),
                   "cpu_s": (statistics.fmean(cpus), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = tracer.metrics(len(results))
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem.with_suffix(".npz"))
        summary = {
            "workload": args.workload, "seed": args.seed,
            "rounds": len(results), "import_s": import_s,
            "setup_s": setup_s, "traced_run_s": statistics.fmean(walls),
            "round_walls_s": walls, "spans": tracer.span_count,
            "top_level_share": tracer.top_level_seconds() / sum(walls),
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
        stem.with_suffix(".json").write_text(
            json.dumps(summary, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed}: {len(results)} rounds, "
          f"{attempted} operations attempted, {failed} failed; "
          f"imports took {import_s:.3f} s")
    print(f"  set-up samples: {len(setup.times)}, median "
          f"{setup_s:.4g} s, min {min(setup.times):.4g} s")
    print("  round samples (s):  " + " ".join(f"{t:.4g}" for t in walls))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not setup_msgs, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
