"""Run the benchmark once per seed on each workload and summarize.

    python3 bench/repeat.py --seeds 0-9 --seconds 30 [--workloads ...]

Runs are sequential, one process at a time, seeds in the outer loop.
For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the bound in BENCHMARK.json.  Raw results go to
``bench/out/repeat-<label>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--label", default="last")
    args = p.parse_args(argv)

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["stdout"] = done.stdout
            runs[w].append(result)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in
                list(result["metrics"].items())[:4]), flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"repeat-{args.label}.json").write_text(json.dumps(runs) + "\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<16}{'metric':<13}{'median':>11}{'q1':>11}"
          f"{'q3':>11}{'spread':>9}{'bound':>7}  failed/attempted")
    for w, results in runs.items():
        share = {r["failed"] / r["attempted"] for r in results}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"{w:<16}{name:<13}{med:>11.5g}{q1:>11.5g}{q3:>11.5g}"
                  f"{(q3 - q1) / med:>9.4f}{bound:>7.2f}  {sorted(share)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
