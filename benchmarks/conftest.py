"""Benchmark harness conventions.

Each benchmark regenerates one paper artifact (table or figure), prints the
reproduced rows/series, and asserts the paper's *qualitative* shape — who
wins, by roughly what factor, where crossovers fall. Absolute numbers come
from the simulated marketplace and are not expected to match the authors'
2011 MTurk testbed.

Experiments run once per benchmark (``rounds=1``): the interesting metric is
the artifact itself, not the wall-clock of the simulation.

Per-bench wall-clock timings are still recorded: every benchmark test's
duration is merged into ``.bench_timings.json`` at the repository root
(gitignored) at session end, so a local run can compare durations without
rerunning pytest-benchmark's statistics machinery. Wall-clock durations
differ on every run, so they are never written to a tracked file: a
benchmark run leaves the working tree clean.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

TIMINGS_PATH = Path(__file__).resolve().parent.parent / ".bench_timings.json"

_timings: dict[str, float] = {}


def pytest_configure(config):
    # Registered here (the only place the marker is used) so plain
    # `pytest` keeps running everything while `-m "not slow"` can deselect
    # the >30s artifacts locally — including under --strict-markers.
    config.addinivalue_line(
        "markers",
        "slow: benchmark measurement taking >30s wall; deselect locally "
        'with -m "not slow"',
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def pytest_runtest_setup(item):
    item._bench_wall_start = time.perf_counter()


def pytest_runtest_teardown(item):
    start = getattr(item, "_bench_wall_start", None)
    if start is not None:
        _timings[item.nodeid] = round(time.perf_counter() - start, 4)


def pytest_sessionfinish(session):
    if not _timings:
        return
    # Merge into the existing record so a partial run (one bench file)
    # refreshes its own entries without clobbering the rest.
    merged: dict[str, float] = {}
    if TIMINGS_PATH.exists():
        try:
            merged = json.loads(TIMINGS_PATH.read_text()).get("timings", {})
        except (ValueError, AttributeError):
            merged = {}
    merged.update(_timings)
    TIMINGS_PATH.write_text(
        json.dumps(
            {
                "unit": "seconds_wall_clock_per_test",
                "timings": dict(sorted(merged.items())),
            },
            indent=1,
        )
    )
