"""The benchmark's workloads: Table-5 movie-query plans run end to end.

Each workload is one closed-loop user: it builds its inputs from a seed
(:meth:`Workload.setup`), submits its query or session and waits for the
last row (:meth:`Workload.run`). Set-up and the timed run are separate
calls so ``run.py`` can time them apart. Every workload
extends ``LatencyConfig.deadline_hours`` to ``8.0 × scale`` so each HIT
group completes and a deadline cut never changes the workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import SimulatedMarketplace
from repro.crowd.latency import LatencyConfig, LatencyModel
from repro.datasets.movie import MovieDataset, movie_dataset
from repro.experiments.end_to_end import QUERY_NO_FILTER, QUERY_WITH_FILTER, Variant
from repro.experiments.session_workload import variant_configs
from repro.experiments.store_workload import store_config
from repro.joins.batching import JoinInterface

OPTIMIZED = Variant("Filter + Smart 5x5 + Rate", True, JoinInterface.SMART, grid=5)
UNOPTIMIZED = Variant(
    "No Filter + Simple + Compare", False, JoinInterface.SIMPLE, sort_method="compare"
)
SESSION_QUERIES = 8


@dataclass
class Outcome:
    """What one timed run returned: its rows (one list per query) and the
    economics the ledger and the platform's virtual clock recorded."""

    rows: list[list[tuple[str, str]]]
    hits: int = 0
    assignments: int = 0
    dollars: float = 0.0
    virtual_makespan_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    """Workload-specific check failures (e.g. a warm run that bought HITs)."""
    considerations: int = 0
    refusals: int = 0
    completed: int = 0
    """Marketplace counters (``MarketplaceStats``) accrued by the run."""
    setup_inside_s: float = 0.0
    setup_inside_cpu_s: float = 0.0
    """Set-up wall and CPU time spent inside the timed call (the store
    restart's engine rebuild); ``run.py`` moves it from ``wall_s`` and
    ``cpu_s`` to ``setup_s``."""


def _pairs(result) -> list[tuple[str, str]]:
    return [(str(row["a.name"]), str(row["s.img"])) for row in result.rows]


def _market(data: MovieDataset, seed: int, scale: int) -> SimulatedMarketplace:
    latency = LatencyModel(LatencyConfig(deadline_hours=8.0 * scale))
    return SimulatedMarketplace(data.truth, seed=seed, latency=latency)


def _stats(market: SimulatedMarketplace) -> tuple[int, int, int]:
    stats = market.stats
    return stats.considerations, stats.refusals, stats.assignments_completed


def _load(target, data: MovieDataset):
    target.register_table(data.actors)
    target.register_table(data.scenes)
    target.define(data.task_dsl)
    return target


def _execute(market: SimulatedMarketplace, engine: Qurk, query: str, outcome: Outcome):
    """Run ``query`` and add its economics to ``outcome``."""
    clock, before = market.clock_seconds, _stats(market)
    result = engine.execute(query)
    _add(outcome, market, clock, before, [result])
    return result


def _add(outcome: Outcome, market, clock: float, before: tuple[int, int, int], results) -> None:
    for result in results:
        outcome.hits += result.hit_count
        outcome.assignments += result.assignment_count
        outcome.dollars += result.total_cost
    outcome.virtual_makespan_s += market.clock_seconds - clock
    after = _stats(market)
    outcome.considerations += after[0] - before[0]
    outcome.refusals += after[1] - before[1]
    outcome.completed += after[2] - before[2]


@dataclass(frozen=True)
class Workload:
    """A single-engine Table-5 plan over ``movie_dataset(seed, scale)``."""

    name: str
    why: str
    scale: int
    config: ExecutionConfig
    query: str
    env: tuple[tuple[str, str], ...] = ()
    """``REPRO_*`` toggles set for this workload; all others stay unset."""
    instances: int = 5
    """Datasets per seed. One instance's wall time and recall vary from
    seed to seed and from moment to moment on a shared host; medians and
    means over several keep a run's figures steady across seeds."""

    def dataset(self, seed: int) -> MovieDataset:
        return movie_dataset(seed=seed, scale=self.scale)

    def setup(self, data: MovieDataset, seed: int, workdir: Path):
        market = _market(data, seed, self.scale)
        return market, _load(Qurk(platform=market, config=self.config), data)

    def run(self, state) -> Outcome:
        market, engine = state
        outcome = Outcome(rows=[])
        outcome.rows.append(_pairs(_execute(market, engine, self.query, outcome)))
        return outcome


@dataclass(frozen=True)
class SessionWorkload(Workload):
    """``SESSION_QUERIES`` queries on one marketplace through
    ``EngineSession.run(concurrent=True)``, cycling ``variant_configs()``."""

    def setup(self, data: MovieDataset, seed: int, workdir: Path):
        market = _market(data, seed, self.scale)
        session = _load(EngineSession(platform=market), data)
        variants = variant_configs()
        for index in range(SESSION_QUERIES):
            label, config = variants[index % len(variants)]
            session.submit(self.query, config=config, label=label)
        return market, session

    def run(self, state) -> Outcome:
        market, session = state
        clock, before = market.clock_seconds, _stats(market)
        result = session.run(concurrent=True)
        outcome = Outcome(rows=[])
        for handle in result.queries:
            if not handle.ok:
                outcome.problems.append(f"query {handle.label} failed: {handle.error!r}")
        finished = [result[handle] for handle in result.queries if handle.ok]
        outcome.rows = [_pairs(query) for query in finished]
        _add(outcome, market, clock, before, finished)
        return outcome


@dataclass(frozen=True)
class StoreRestartWorkload(Workload):
    """The optimized plan cold against a fresh SQLite answer store, then warm
    from a rebuilt engine and marketplace on the same file.

    Both engine builds count as set-up: :meth:`setup` builds the cold
    engine, and :meth:`run` reports the warm rebuild's times as
    ``Outcome.setup_inside_s`` and ``Outcome.setup_inside_cpu_s``.
    """

    def _engine(self, data: MovieDataset, seed: int, path: Path):
        market = _market(data, seed, self.scale)
        return market, _load(Qurk(platform=market, config=self.config, store=path), data)

    def setup(self, data: MovieDataset, seed: int, workdir: Path):
        path = workdir / f"{self.name}-{seed}.db"
        path.unlink(missing_ok=True)
        return self._engine(data, seed, path), data, seed, path

    def run(self, state) -> Outcome:
        (market, engine), data, seed, path = state
        outcome = Outcome(rows=[])
        try:
            cold = _execute(market, engine, self.query, outcome)
        finally:
            engine.store.close()
        start, start_cpu = time.perf_counter(), time.process_time()
        market, engine = self._engine(data, seed, path)
        outcome.setup_inside_s = time.perf_counter() - start
        outcome.setup_inside_cpu_s = time.process_time() - start_cpu
        try:
            warm = _execute(market, engine, self.query, outcome)
        finally:
            engine.store.close()
        path.unlink()
        outcome.rows.append(_pairs(cold))
        if _pairs(warm) != _pairs(cold):
            outcome.problems.append("warm rows differ from cold rows")
        if warm.hit_count != 0:
            outcome.problems.append(f"warm run bought {warm.hit_count} HITs")
        return outcome


_OPT = OPTIMIZED.config()
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "t5_opt_64x",
            "optimized plan at scale 64: row-heavy (Row building, answer synthesis)",
            64,
            _OPT,
            QUERY_WITH_FILTER,
        ),
        Workload(
            "t5_unopt_8x",
            "unoptimized plan at scale 8: HIT-heavy, marketplace dispatch dominates",
            8,
            UNOPTIMIZED.config(),
            QUERY_NO_FILTER,
        ),
        SessionWorkload(
            "session_8q",
            "8 concurrent queries on one market: cross-query task cache, round-robin",
            8,
            _OPT,
            QUERY_WITH_FILTER,
            # Cross-query sharing adds seed-to-seed spread to HITs and wall time.
            instances=8,
        ),
        StoreRestartWorkload(
            "store_restart",
            "cold then warm run on one SQLite answer store: the only store traffic",
            32,
            store_config(),
            QUERY_WITH_FILTER,
        ),
        Workload(
            "t5_opt_64x_vector",
            "t5_opt_64x under REPRO_VECTOR=1: numpy dispatch, bypasses answer_hit",
            64,
            _OPT,
            QUERY_WITH_FILTER,
            env=(("REPRO_VECTOR", "1"),),
        ),
    )
}
