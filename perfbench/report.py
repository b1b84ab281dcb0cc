"""Run the workload matrix through ``run.py`` and summarise it.

Usage, from the root of a checkout::

    python3 perfbench/report.py --seeds 0 1 2 3 4 [--workloads t5_opt_64x ...] [--trace]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
each metric's median over the seeds with its spread: the distance between
the first and third quartiles (``statistics.quantiles(n=4)``) as a share
of the median. When both ran, it prints the same-workload vector ratio
``t5_opt_64x_vector.cpu_s / t5_opt_64x.cpu_s`` with its base. With
``--trace`` it prints the per-layer metrics instead, each layer's self
time also as a share of the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=workloads)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    medians: dict[str, dict[str, float]] = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        names = list(runs[0]["metrics"])
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}")
        medians[workload] = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = medians[workload][name] = statistics.median(values)
            line = f"  {name:48s} {median:14.6g} {unit:6s} spread {spread(values):.3f}"
            if not args.trace and len(values) > 1:
                line += "  [" + " ".join(f"{v:.4g}" for v in values) + "]"
            if args.trace and (name.endswith(".self_s") or name == "hits.manager.finalize_s"):
                walls = [
                    sum(v["value"] for k, v in r["metrics"].items()
                        if k.endswith("self_s") or k in ("hits.manager.finalize_s", "trace.unattributed_s"))
                    for r in runs
                ]
                line += f"  share {statistics.median(v / w for v, w in zip(values, walls)):.1%}"
            print(line)
    base, vector = medians.get("t5_opt_64x", {}), medians.get("t5_opt_64x_vector", {})
    if "cpu_s" in base and "cpu_s" in vector:
        print(
            f"\nvector ratio t5_opt_64x_vector.cpu_s / t5_opt_64x.cpu_s = "
            f"{vector['cpu_s'] / base['cpu_s']:.3f} "
            f"(base t5_opt_64x.cpu_s = {base['cpu_s']:.4f} s, "
            f"vector {vector['cpu_s']:.4f} s; medians over seeds {args.seeds})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
