"""Dispatch draws stay exact: pool picks, Fenwick slot takes, design memo.

The worker pick under a per-HIT exclusion set answers from the cached
cumulative table and falls back to a rebuild only near a boundary; the
slot table takes and restores slots in one descent each; covering designs
are memoized per engine or session. Each is checked here against the
straightforward computation it replaces.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.core.plan import SortNode
from repro.core.session import EngineSession
from repro.core.sort_exec import compare_sort
from repro.crowd import SimulatedMarketplace
from repro.crowd.marketplace import _FenwickSlots
from repro.crowd.pool import PoolConfig, WorkerPool
from repro.datasets import squares_dataset
from repro.hits.hit import count_vote_values
from repro.metrics.agreement import comparison_kappa, comparison_kappa_from_counts
from repro.sorting import groups as groups_module
from repro.sorting.head_to_head import (
    head_to_head_order,
    pair_winners_from_counts,
    pair_winners_from_votes,
)
from repro.util.rng import RandomSource

from tests.conftest import make_context

FIXED = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def reference_pick(pool, rng, batch_units, exclude):
    """The pick as the rebuild defines it: drop, re-accumulate, bisect.

    ``rng`` is a ``random.Random`` or a bare draw; it is drawn from only
    when some worker is eligible."""
    workers = []
    weights = []
    affinity = pool.config.spammer_batch_affinity
    for rank, worker in enumerate(pool.workers):
        if worker.worker_id in pool.banned or worker.worker_id in exclude:
            continue
        weight = 1.0 / (rank + 1) ** pool.config.zipf_exponent
        if worker.is_spammer and batch_units > 1:
            weight = weight * (1.0 + min(4.0, affinity * (batch_units - 1)))
        workers.append(worker)
        weights.append(weight)
    if not workers:
        return None
    draw = rng if isinstance(rng, float) else rng.random()
    cumulative = list(accumulate(weights))
    index = bisect_right(cumulative, draw * float(sum(weights)))
    last = len(cumulative) - 1
    return workers[index if index < last else last]


class FixedDraw:
    """An rng stand-in whose ``raw.random()`` returns given draws in turn."""

    def __init__(self, *draws: float) -> None:
        self._draws = list(draws)
        self.raw = self

    def random(self) -> float:
        return self._draws.pop(0)


pools = st.builds(
    lambda size, seed: WorkerPool.build(PoolConfig(size=size), seed=seed),
    st.integers(3, 160),
    st.integers(0, 50),
)


@FIXED
@given(
    pool=pools,
    seed=st.integers(0, 10**6),
    batch_units=st.sampled_from([1, 2, 5, 25]),
    ban_count=st.integers(0, 3),
    picks=st.lists(st.integers(0, 6), min_size=1, max_size=40),
)
def test_guarded_pick_equals_rebuild(pool, seed, batch_units, ban_count, picks):
    ids = [worker.worker_id for worker in pool.workers]
    chooser = random.Random(seed)
    if ban_count:
        pool.ban(chooser.sample(ids, min(ban_count, len(ids) - 1)))
    rng = RandomSource(seed)
    twin = random.Random()
    twin.setstate(rng.raw.getstate())
    for count in picks:
        # Exclusions drawn from the whole pool, banned workers included.
        exclude = set(chooser.sample(ids, min(count, len(ids))))
        picked = pool.pick_candidate(rng, batch_units, exclude)
        assert picked is reference_pick(pool, twin, batch_units, exclude)
        assert rng.raw.getstate() == twin.getstate()


@FIXED
@given(pool=pools, batch_units=st.sampled_from([1, 3]), banned=st.integers(0, 2))
def test_excluding_every_worker_returns_none_without_a_draw(pool, batch_units, banned):
    ids = [worker.worker_id for worker in pool.workers]
    if banned:
        pool.ban(ids[:banned])
    rng = RandomSource(3)
    state = rng.raw.getstate()
    # The banned workers need not be named: they are not candidates.
    assert pool.pick_candidate(rng, batch_units, set(ids[banned:])) is None
    assert rng.raw.getstate() == state


@FIXED
@given(
    pool=pools,
    batch_units=st.sampled_from([1, 4]),
    data=st.data(),
)
def test_a_draw_on_a_boundary_takes_the_rebuild(pool, batch_units, data):
    ids = [worker.worker_id for worker in pool.workers]
    exclude = set(
        data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids) - 1))
    )
    kept = [
        1.0 / (rank + 1) ** pool.config.zipf_exponent
        * (
            1.0 + min(4.0, pool.config.spammer_batch_affinity * (batch_units - 1))
            if worker.is_spammer and batch_units > 1
            else 1.0
        )
        for rank, worker in enumerate(pool.workers)
        if worker.worker_id not in exclude
    ]
    boundaries = list(accumulate(kept))
    boundary = data.draw(st.sampled_from(boundaries[:-1] or boundaries))
    draw = boundary / float(sum(kept))

    rebuilds = []
    rebuilt_pick = WorkerPool._rebuilt_pick

    def spy(*args):
        rebuilds.append(args)
        return rebuilt_pick(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorkerPool, "_rebuilt_pick", staticmethod(spy))
        picked = pool.pick_candidate(FixedDraw(draw), batch_units, exclude)
    assert rebuilds, "a point on a boundary must be settled by the rebuild"
    assert picked is reference_pick(pool, draw, batch_units, exclude)


@FIXED
@given(
    n=st.integers(1, 200),
    ops=st.lists(
        st.tuples(st.floats(0, 1, exclude_max=True), st.booleans()), max_size=300
    ),
)
def test_take_and_restore_match_list_pop(n, ops):
    slots = _FenwickSlots(list(range(n)))
    alive = list(range(n))
    for fraction, refuse in ops:
        if not alive:
            break
        k = int(fraction * len(alive))
        pos = slots.take(k)
        assert pos == alive.pop(k)
        assert len(slots) == len(alive)
        if refuse:
            slots.restore(pos)
            insort(alive, pos)
            assert len(slots) == len(alive)
    assert slots.alive_slots() == alive
    # Every survivor is still reachable at its list index.
    while alive:
        assert slots.take(0) == alive.pop(0)


# ---------------------------------------------------------------------------
# Covering-design memo scope
# ---------------------------------------------------------------------------

SORT_QUERY = "SELECT label FROM squares ORDER BY squareSorter(img)"


def squares_engine(seed: int = 4) -> Qurk:
    data = squares_dataset(n=8, seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed)
    engine = Qurk(market, ExecutionConfig(seed=seed))
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return engine


def count_designs(monkeypatch) -> list:
    built = []
    covering_groups = groups_module.covering_groups

    def counting(*args, **kwargs):
        built.append(args)
        return covering_groups(*args, **kwargs)

    monkeypatch.setattr(groups_module, "covering_groups", counting)
    return built


def test_designs_are_built_once_per_session(monkeypatch):
    built = count_designs(monkeypatch)
    data = squares_dataset(n=8, seed=4)
    session = EngineSession(
        SimulatedMarketplace(data.truth, seed=4), config=ExecutionConfig(seed=4)
    )
    session.register_table(data.table)
    session.define(data.task_dsl)
    first = session.submit(SORT_QUERY)
    second = session.submit(SORT_QUERY)
    session.run()
    assert len(built) == 1
    assert len(session.designs) == 1
    assert first.ctx.designs is second.ctx.designs is session.designs
    assert first.result.rows == second.result.rows


def test_designs_are_not_shared_across_engines(monkeypatch):
    built = count_designs(monkeypatch)
    one, two = squares_engine(), squares_engine()
    rows_one = one.execute(SORT_QUERY).rows
    one.execute(SORT_QUERY)
    assert len(built) == 1, "an engine reuses its own design across queries"
    rows_two = two.execute(SORT_QUERY).rows
    assert len(built) == 2, "a second engine builds its own"
    assert one.designs is not two.designs
    assert rows_one == rows_two


# ---------------------------------------------------------------------------
# Compare-sort combine counts each vote list once
# ---------------------------------------------------------------------------


# kappa as the separate-count combine recorded it before the shared count.
@pytest.mark.parametrize(
    "seed, recorded_kappa", [(1, 0.8730462519936202), (5, 0.7480519480519481)]
)
def test_compare_combine_matches_per_function_counts(seed, recorded_kappa):
    data = squares_dataset(n=12, seed=seed)
    ctx = make_context(
        data.truth, data.task_dsl, seed=seed, config=ExecutionConfig(seed=seed)
    )
    node = SortNode()
    task = ctx.catalog.task("squareSorter")
    order, corpus = compare_sort(task, data.items, ctx, node)
    winners = pair_winners_from_votes(corpus)
    assert order == head_to_head_order(list(data.items), winners)
    signals = ctx.stats_for(node).signals
    assert signals["comparison_kappa"] == comparison_kappa(corpus) == recorded_kappa
    assert order == list(data.true_order)

    counts = {qid: count_vote_values(votes) for qid, votes in corpus.items()}
    assert pair_winners_from_counts(counts) == winners
    kappa = comparison_kappa_from_counts(list(counts.values()))
    assert kappa == comparison_kappa(corpus)
