"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload t5_opt_64x --seed 0 --seconds 15 --trace 0

Load is a closed loop from one process: one client, no threads. The client
submits a workload instance (a query, a session or a store restart) and
waits for its last row before it submits the next. A seed names a
workload's ``instances`` datasets; the loop cycles through them until
``--seconds`` have passed and each has run once. Cost and accuracy metrics
come from that first pass, so they are exact for a seed; timings are
medians over every pass, and the bounded ones are CPU times.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the first
``TRACED_INSTANCES`` instances untraced and then traced, with spans
patched around the engine's layer entry points only for the traced run,
and prints the per-layer metrics. Every run checks the rows it gets back;
a failed check or a raised query counts in ``failed`` and does not stop
the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the provenance block.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench" / f"run-{os.getpid()}"
"""This process's answer-store files; removed at the end of the run."""

TRACED_INSTANCES = 1
DEFAULT_SEED = 0
PRINTED_ONLY = ("wall_s", "virtual_makespan_s", "ops_failed")
"""Printed with the end-to-end metrics but left out of the result line.
``ops_failed`` is 0 by design and is the result's ``failed``/``attempted``.
``wall_s`` also counts the time the process waits while it is
descheduled, for other processes or for the hypervisor, so it moves with
the load on a shared host. The bounded time metric is ``cpu_s``, the CPU
time the process was charged, which equals ``wall_s`` on an idle host
because the simulator is serial and single-threaded. CPU time still
grows when other guests share the core's caches or slow its clock.
The virtual makespan is exact for a seed, but the simulated crowd's
per-posting jitter moves one instance's makespan by 20-30% from seed to
seed, more than a bound on ten seeds can hold at this run length; the
traced run reports it as ``crowd.marketplace.virtual_makespan_s``."""


@dataclass
class Sample:
    setup_s: float
    """CPU time of the instance's set-up, including set-up done inside the
    timed call."""
    elapsed_s: float
    """The timed call's wall time, including set-up done inside it."""
    wall_s: float
    cpu_s: float
    """The timed call's wall and CPU time, less set-up done inside it."""
    outcome: object


def _instance_seed(workload, seed: int, index: int) -> int:
    return seed * workload.instances + index


def _clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _measure(workload, seed: int, index: int, tracing=None):
    """Set up one instance, then run it; ``tracing`` (a context manager
    factory) is entered only around the timed run. Returns the sample and
    the instance's dataset."""
    instance_seed = _instance_seed(workload, seed, index)
    gc.collect()
    start = _clocks()
    data = workload.dataset(instance_seed)
    state = workload.setup(data, instance_seed, WORKDIR)
    setup_done = _clocks()
    if tracing is None:
        outcome = workload.run(state)
        end = _clocks()
    else:
        with tracing():
            setup_done = _clocks()
            outcome = workload.run(state)
            end = _clocks()
    elapsed = end[0] - setup_done[0]
    sample = Sample(
        setup_s=setup_done[1] - start[1] + outcome.setup_inside_cpu_s,
        elapsed_s=elapsed,
        wall_s=elapsed - outcome.setup_inside_s,
        cpu_s=end[1] - setup_done[1] - outcome.setup_inside_cpu_s,
        outcome=outcome,
    )
    return sample, data


class Run:
    """One workload's samples, the checks made on them, and failures."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.datasets = {}
        """Instance index -> its dataset, kept for the row checks."""
        self.first: dict[int, Sample] = {}
        self.samples: list[Sample] = []
        self.attempted = 0
        self.failed = 0

    def attempt(self, index: int, tracing=None) -> Sample | None:
        """Measure one instance and check it; ``None`` when it failed."""
        from perfbench.checks import row_problems

        self.attempted += 1
        try:
            sample, data = _measure(self.workload, self.seed, index, tracing)
        except Exception:  # the run goes on; the failure is counted
            self.fail(f"instance {index} raised:\n{traceback.format_exc()}")
            return None
        outcome = sample.outcome
        self.datasets.setdefault(index, data)
        problems = list(outcome.problems)
        for rows in outcome.rows:
            problems.extend(row_problems(rows, data))
        reference = self.first.get(index)
        if reference is not None and _economics(reference.outcome) != _economics(outcome):
            problems.append("rows or counts differ from this instance's first run")
        if problems:
            self.fail(f"instance {index}: " + "; ".join(problems))
            return None
        self.first.setdefault(index, sample)
        self.samples.append(sample)
        return sample

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload.name} seed {self.seed}: {message}", file=sys.stderr)

    def check_digest(self) -> None:
        """At the default seed, the rows must match the recorded digest."""
        from perfbench.checks import digest, recorded_digest

        instances = self.workload.instances
        if self.seed != DEFAULT_SEED or len(self.first) < instances:
            return
        found = digest([self.first[i].outcome.rows for i in range(instances)])
        expected = recorded_digest(self.workload.name)
        print(f"rows digest {self.workload.name} seed {self.seed}: {found}")
        if found != expected:
            self.fail(f"rows digest {found} != recorded {expected}")


def _economics(outcome) -> tuple:
    return (
        outcome.rows,
        outcome.hits,
        outcome.assignments,
        round(outcome.dollars, 6),
        outcome.virtual_makespan_s,
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics as ``name -> (value, unit)``."""
    from perfbench.checks import accuracy

    samples = run.samples
    first = [run.first[i].outcome for i in sorted(run.first)]
    returned = correct = 0
    recalls = []
    for index in sorted(run.first):
        for rows in run.first[index].outcome.rows:
            n_rows, n_correct, n_true = accuracy(rows, run.datasets[index])
            returned += n_rows
            correct += n_correct
            recalls.append(n_correct / n_true)

    def mean(values) -> float:
        return statistics.fmean(values) if values else 0.0

    cpu_s = statistics.median(s.cpu_s for s in samples)
    assignments = mean([o.assignments for o in first])
    return {
        "cpu_s": (cpu_s, "s"),
        "wall_s": (statistics.median(s.wall_s for s in samples), "s"),
        "us_per_assignment": (cpu_s / assignments * 1e6, "us"),
        "setup_s": (statistics.median(s.setup_s for s in samples), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "hits": (mean([o.hits for o in first]), "count"),
        "assignments": (assignments, "count"),
        "dollars": (mean([o.dollars for o in first]), "USD"),
        "virtual_makespan_s": (mean([o.virtual_makespan_s for o in first]), "s"),
        "row_precision": (correct / returned if returned else 0.0, "ratio"),
        "row_recall": (mean(recalls), "ratio"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Untraced then traced runs of the first instances; the per-layer metrics."""
    from contextlib import contextmanager

    from perfbench.layers import TARGETS, layer_metrics
    from perfbench.tracer import Tracer, leaked_spans, patched

    untraced = {}
    for index in range(TRACED_INSTANCES):
        sample = run.attempt(index)
        if sample is not None:
            untraced[index] = sample
    tracer = Tracer()

    @contextmanager
    def tracing():
        with patched(tracer, TARGETS):
            yield

    traced = {}
    for index in untraced:
        sample = run.attempt(index, tracing)
        if sample is not None:
            traced[index] = sample
    leaks = leaked_spans()
    if leaks:
        run.fail(f"spans left installed after the traced run: {leaks}")
    return layer_metrics(
        tracer,
        traced_wall_s=sum(s.elapsed_s for s in traced.values()),
        untraced_wall_s=sum(untraced[i].elapsed_s for i in traced),
        outcomes=[s.outcome for s in traced.values()],
    )


def provenance(workload, seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = (ROOT / ".git" / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    except OSError:
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "seed": seed,
        "instance_seeds": [_instance_seed(workload, seed, i) for i in range(workload.instances)],
        "workload": workload.name,
        "scale": workload.scale,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    # Every toggle at its default; a workload sets its own.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ.update(dict(workload.env))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    run = Run(workload, args.seed)
    try:
        if args.trace:
            metrics = per_layer(run)
        else:
            start = time.perf_counter()
            index = 0
            while index < workload.instances or time.perf_counter() - start < args.seconds:
                run.attempt(index % workload.instances)
                index += 1
            metrics = end_to_end(run) if run.samples else {}
            run.check_digest()
    finally:
        for leftover in WORKDIR.glob("*.db*"):
            leftover.unlink()
        WORKDIR.rmdir()
        try:
            WORKDIR.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    if not args.trace:
        metrics["ops_failed"] = (run.failed / run.attempted if run.attempted else 1.0, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print("provenance " + json.dumps(provenance(workload, args.seed)))
    result = {
        "correct": run.failed == 0 and bool(run.samples),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
