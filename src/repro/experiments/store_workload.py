"""The cold/warm restart workload for the persistent answer store.

Shared by ``benchmarks/bench_store.py`` (which records the two-run restart
scenario — HIT/dollar savings and cold/warm latency — into
``BENCH_store.json``) and ``scripts/profile_hotpath.py --check`` (which
re-measures the warm/cold wall ratio and guards it against that
recording), so both measure exactly the same thing.

The scenario is the paper's central economic claim played across process
boundaries: run the optimized Table-5 movie query once against a fresh
store file (the *cold* run — every answer bought from the crowd and
written through to SQLite), then rebuild the engine, marketplace, and
store from scratch on the same file (the *warm* run — a simulated process
restart: no in-memory state survives, only the disk). The warm run must
produce bit-identical rows while re-buying nothing.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk, QueryResult
from repro.crowd import SimulatedMarketplace
from repro.datasets.movie import movie_dataset
from repro.experiments.end_to_end import QUERY_WITH_FILTER
from repro.joins.batching import JoinInterface
from repro.util.gcpause import paused_gc


def store_config() -> ExecutionConfig:
    """The optimized Table-5 plan (same shape as the golden-trace query)."""
    return ExecutionConfig(
        join_interface=JoinInterface.SMART,
        grid_rows=5,
        grid_cols=5,
        use_feature_filters=True,
        generative_batch_size=5,
        sort_method="rate",
        compare_group_size=5,
        rate_batch_size=5,
    )


def build_store_engine(path: str | Path, seed: int = 0, data=None) -> Qurk:
    """A fresh engine + marketplace over a persistent store at ``path``.

    Every call builds everything anew — calling this twice on the same
    ``path`` *is* the restart scenario: the second engine shares nothing
    with the first except the store file. ``data`` may pass a prebuilt
    ``movie_dataset(seed=seed)`` to amortise dataset construction across
    measurements (the dataset is input, not engine state).
    """
    data = data or movie_dataset(seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed)
    engine = Qurk(platform=market, config=store_config(), store=path)
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    return engine


def run_once(path: str | Path, seed: int = 0, data=None) -> QueryResult:
    """One complete run (cold or warm depending on the file's history)."""
    engine = build_store_engine(path, seed=seed, data=data)
    try:
        return engine.execute(QUERY_WITH_FILTER)
    finally:
        engine.store.close()


def measure_cold_warm(
    base_dir: str | Path, seed: int = 0, repeats: int = 3, data=None
) -> dict:
    """Best-of cold/warm CPU timings for the restart pair.

    Each repeat runs the pair against its own fresh store file under
    ``base_dir`` (a warm run is only warm relative to *its* cold run), with
    the GC paused and drained around each timed region — the same hygiene
    as the other CI-guarded measurements. Returns best-of seconds for both
    runs plus their ``warm_cold_ratio``: the machine-independent number
    ``scripts/profile_hotpath.py --check`` guards, since the warm run's
    work is pure store-read path while the cold run anchors the scale.
    """
    import gc

    data = data or movie_dataset(seed=seed)
    base = Path(base_dir)
    run_once(base / "warmup.db", seed=seed, data=data)  # untimed warm-up
    timings = {"cold": float("inf"), "warm": float("inf")}
    with paused_gc():
        for i in range(max(1, repeats)):
            path = base / f"restart-{i}.db"
            for label in ("cold", "warm"):
                gc.collect()
                start = time.process_time()
                run_once(path, seed=seed, data=data)
                timings[label] = min(
                    timings[label], time.process_time() - start
                )
    ratio = timings["warm"] / timings["cold"] if timings["cold"] > 0 else 0.0
    return {
        "repeats": repeats,
        "cold_seconds": round(timings["cold"], 4),
        "warm_seconds": round(timings["warm"], 4),
        "warm_cold_ratio": round(ratio, 4),
    }
