"""The collector pause around each query (repro.util.gcpause).

Two halves: the *contract* — the engine's two public entry points run with
automatic cyclic collection off and always hand back the caller's state —
and the *premise* that makes pausing safe: a query leaves a fixed handful
of cyclic garbage, whatever the data scale, so nothing piles up until the
pause lifts.
"""

from __future__ import annotations

import gc

import pytest

from repro import ExecutionConfig, Qurk, SimulatedMarketplace
from repro.core.session import EngineSession
from repro.crowd import GroundTruth
from repro.datasets import movie_dataset
from repro.errors import BudgetExceededError
from repro.experiments.end_to_end import QUERY_WITH_FILTER, Variant
from repro.experiments.session_workload import build_session
from repro.joins.batching import JoinInterface
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.util.gcpause import paused_gc

FILTER_QUERY = "SELECT t.id FROM t WHERE isEven(t.img)"
FILTER_DSL = (
    "TASK isEven(field) TYPE Filter:\n"
    "    Prompt: \"<img src='%s'>\", tuple[field]\n"
)
OPTIMIZED = Variant("Filter + Smart 5x5 + Rate", True, JoinInterface.SMART, grid=5)


class RecordingMarketplace(SimulatedMarketplace):
    """Records whether the collector was enabled at each HIT dispatch."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gc_enabled_at_dispatch: list[bool] = []

    def submit_hit_group(self, hits, group_id=None, post_time=None, client_id=None):
        self.gc_enabled_at_dispatch.append(gc.isenabled())
        return super().submit_hit_group(
            hits, group_id=group_id, post_time=post_time, client_id=client_id
        )


def filter_truth(n: int = 20) -> GroundTruth:
    truth = GroundTruth()
    truth.add_filter_task(
        "isEven", {f"img://item/{i}": i % 2 == 0 for i in range(n)}
    )
    return truth


def load_filter_table(target, n: int = 20):
    table = Table("t", Schema.of("id integer", "img url"))
    for i in range(n):
        table.insert({"id": i, "img": f"img://item/{i}"})
    target.register_table(table)
    target.define(FILTER_DSL)
    return target


def filter_engine(config: ExecutionConfig | None = None) -> Qurk:
    return load_filter_table(
        Qurk(RecordingMarketplace(filter_truth(), seed=0), config=config)
    )


def filter_session() -> EngineSession:
    session = load_filter_table(
        EngineSession(platform=RecordingMarketplace(filter_truth(), seed=0))
    )
    session.submit(FILTER_QUERY)
    session.submit(FILTER_QUERY, config=ExecutionConfig(filter_batch_size=2))
    return session


# ---------------------------------------------------------------------------
# the context manager
# ---------------------------------------------------------------------------


def test_paused_gc_nests_and_restores_the_entry_state():
    assert gc.isenabled()
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner exit does not lift the outer pause
    assert gc.isenabled()


def test_paused_gc_restores_after_an_exception():
    with pytest.raises(RuntimeError):
        with paused_gc():
            raise RuntimeError("boom")
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# the engine's entry points
# ---------------------------------------------------------------------------


def test_execute_dispatches_with_gc_paused_and_restores_it():
    engine = filter_engine()
    result = engine.execute(FILTER_QUERY)
    assert result.hit_count > 0
    dispatched = engine.platform.gc_enabled_at_dispatch
    assert dispatched and not any(dispatched)
    assert gc.isenabled()


def test_execute_restores_gc_when_the_query_raises():
    engine = filter_engine(ExecutionConfig(max_budget=0.001, resilience=False))
    with pytest.raises(BudgetExceededError):
        engine.execute(FILTER_QUERY)
    assert gc.isenabled()


def test_session_run_dispatches_with_gc_paused_and_restores_it():
    session = filter_session()
    outcome = session.run()
    assert not outcome.errors
    dispatched = session.platform.gc_enabled_at_dispatch
    assert dispatched and not any(dispatched)
    assert gc.isenabled()


def test_a_caller_that_paused_gc_keeps_it_paused():
    with paused_gc():
        filter_engine().execute(FILTER_QUERY)
        assert not gc.isenabled()
        filter_session().run()
        assert not gc.isenabled()
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# the premise: cyclic garbage per query does not grow with scale
# ---------------------------------------------------------------------------


def cyclic_garbage_of_optimized_query(scale: int) -> int:
    data = movie_dataset(seed=0, scale=scale)
    engine = Qurk(SimulatedMarketplace(data.truth, seed=0), config=OPTIMIZED.config())
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    with paused_gc():
        gc.collect()
        engine.execute(QUERY_WITH_FILTER)
        return gc.collect()


def cyclic_garbage_of_session(scale: int) -> int:
    session, _, _ = build_session(8, seed=0, data=movie_dataset(seed=0, scale=scale))
    with paused_gc():
        gc.collect()
        outcome = session.run()
        assert not outcome.errors
        return gc.collect()


def test_cyclic_garbage_of_a_query_does_not_grow_with_scale():
    # The garbage is plan-shaped (recursive closures over the plan), not
    # data-shaped: 38 objects for this plan at any scale.
    small = cyclic_garbage_of_optimized_query(1)
    assert small == cyclic_garbage_of_optimized_query(4)
    assert small < 100


def test_cyclic_garbage_of_a_session_does_not_grow_with_scale():
    small = cyclic_garbage_of_session(1)  # 224 for the 8-query session
    assert small == cyclic_garbage_of_session(2)
    assert small < 500
