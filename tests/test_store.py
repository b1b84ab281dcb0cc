"""The persistent answer store: round-trip fidelity, crash/corruption
recovery, TTL + eviction determinism, and engine/session wiring.

The durability contract under test: the store must *never* crash the
engine. A truncated, garbage, or wrong-schema-version DB file is
quarantined and rebuilt empty with a logged warning; a connection that
dies mid-flight degrades the store to memory-only mode; and in every case
queries keep running — at worst they re-buy answers the broken file lost.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import shutil
import sqlite3
import time
from pathlib import Path

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import SimulatedMarketplace
from repro.crowd.latency import LatencyConfig, LatencyModel
from repro.datasets import animals_dataset
from repro.datasets.movie import movie_dataset
from repro.errors import PlanError
from repro.experiments.end_to_end import QUERY_WITH_FILTER
from repro.experiments.store_workload import build_store_engine, store_config
from repro.hits.cache import TaskCache, payload_cache_key
from repro.hits.hit import HIT, Assignment, FilterPayload, FilterQuestion
from repro.hits.manager import TaskManager
from repro.hits.store import (
    STORE_SCHEMA_VERSION,
    PersistentAnswerStore,
    StoreConfig,
    _decode_assignments,
    _encode_assignments,
    combiner_fingerprint,
    open_store,
)
from repro.relational.expressions import UNKNOWN
from repro.util import store as store_toggle


def make_hit(item: str = "a", assignments: int = 5) -> HIT:
    return HIT(
        hit_id=f"h-{item}",
        payloads=(FilterPayload("t", (FilterQuestion(item),)),),
        assignments_requested=assignments,
    )


def make_assignment(hit: HIT, worker: str = "w", **answers) -> Assignment:
    return Assignment(
        assignment_id=f"{hit.hit_id}:{worker}",
        hit_id=hit.hit_id,
        worker_id=worker,
        answers=answers or {"q": True},
        accept_time=12.25,
        submit_time=19.75,
    )


@pytest.fixture
def db_path(tmp_path) -> Path:
    return tmp_path / "answers.db"


# ---------------------------------------------------------------------------
# TaskCache parity and round-trip fidelity
# ---------------------------------------------------------------------------


def test_miss_store_hit_and_counters(db_path):
    store = PersistentAnswerStore(db_path)
    hit = make_hit()
    assert store.lookup(hit) is None
    store.store(hit, [make_assignment(hit)])
    cached = store.lookup(hit)
    assert cached is not None and len(cached) == 1
    assert store.hits == 1 and store.misses == 1
    # In-process traffic is the memory layer's win, not persistence's.
    assert store.persistent_hits == 0
    assert len(store) == 1
    store.close()


def test_repeat_lookup_returns_same_tuple(db_path):
    store = PersistentAnswerStore(db_path)
    hit = make_hit()
    store.store(hit, (make_assignment(hit),))
    first = store.lookup(hit)
    assert isinstance(first, tuple)
    assert store.lookup(hit) is first  # immutability contract, like TaskCache
    store.close()


def test_restart_round_trips_assignments_exactly(db_path):
    """A fresh process (fresh store, same file) gets bit-identical
    Assignment NamedTuples back: floats, bool-vs-int distinction, strings,
    and the UNKNOWN sentinel (as the same singleton)."""
    hit = make_hit()
    original = (
        make_assignment(
            hit,
            "w1",
            **{
                "t:filter:a": True,
                "count": 3,
                "score": 0.1 + 0.2,  # not exactly representable: repr-exact
                "label": "weasel",
                "feature": UNKNOWN,
            },
        ),
        make_assignment(hit, "w2", **{"t:filter:a": False}),
    )
    store = PersistentAnswerStore(db_path)
    store.store(hit, original)
    store.close()

    reopened = PersistentAnswerStore(db_path)
    restored = reopened.lookup(make_hit())
    assert restored == original
    assert all(isinstance(a, Assignment) for a in restored)
    answers = restored[0].answers
    assert answers["t:filter:a"] is True  # bool, not 1
    assert answers["count"] == 3 and not isinstance(answers["count"], bool)
    assert answers["score"] == 0.1 + 0.2
    assert answers["feature"] is UNKNOWN  # singleton identity restored
    assert reopened.persistent_hits == 1
    assert reopened.assignments_reused == 2
    reopened.close()


def test_contains_key_matches_lookup_would_hit(db_path):
    clock = [1000.0]
    store = PersistentAnswerStore(
        db_path, ttl_seconds=50.0, clock=lambda: clock[0]
    )
    hit = make_hit()
    assert not store.contains_key(hit.cache_key)
    store.store(hit, [make_assignment(hit)])
    assert store.contains_key(hit.cache_key)
    # contains_key is accounting-free
    assert store.hits == 0 and store.misses == 0
    clock[0] += 100.0  # past TTL: peek and lookup must agree it's gone
    assert not store.contains_key(hit.cache_key)
    assert store.lookup(hit) is None
    store.close()


def test_len_and_clear(db_path):
    store = PersistentAnswerStore(db_path)
    for item in ("a", "b", "c"):
        hit = make_hit(item)
        store.store(hit, [make_assignment(hit)])
    assert len(store) == 3
    store.clear()
    assert len(store) == 0
    assert store.lookup(make_hit("a")) is None
    store.close()
    # clear() is durable, not just the memory layer
    reopened = PersistentAnswerStore(db_path)
    assert len(reopened) == 0
    reopened.close()


def test_fingerprint_isolates_combiner_semantics(db_path):
    """Rows written under one combiner fingerprint are invisible to a
    store opened under another — stale semantics never leak — and come
    back when the original fingerprint returns."""
    hit = make_hit()
    store = PersistentAnswerStore(
        db_path, fingerprint=combiner_fingerprint("majority")
    )
    store.store(hit, [make_assignment(hit)])
    store.close()

    other = PersistentAnswerStore(
        db_path, fingerprint=combiner_fingerprint("bayes")
    )
    assert other.lookup(make_hit()) is None
    other.close()

    back = PersistentAnswerStore(
        db_path, fingerprint=combiner_fingerprint("majority")
    )
    assert back.lookup(make_hit()) is not None
    back.close()


def test_open_store_specs(tmp_path):
    path = tmp_path / "spec.db"
    from_path = open_store(str(path))
    assert isinstance(from_path, PersistentAnswerStore)
    assert open_store(from_path) is from_path
    from_path.close()
    config = StoreConfig(
        path=path, ttl_seconds=60.0, max_rows=10, combiner="majority"
    )
    from_config = open_store(config)
    assert from_config.ttl_seconds == 60.0 and from_config.max_rows == 10
    assert from_config.fingerprint == combiner_fingerprint("majority")
    from_config.close()
    with pytest.raises(TypeError):
        open_store(42)


def test_invalid_knobs_rejected(db_path):
    with pytest.raises(ValueError):
        PersistentAnswerStore(db_path, ttl_seconds=0)
    with pytest.raises(ValueError):
        PersistentAnswerStore(db_path, max_rows=0)
    with pytest.raises(ValueError):
        PersistentAnswerStore(db_path, max_bytes=0)


# ---------------------------------------------------------------------------
# Crash / corruption injection
# ---------------------------------------------------------------------------


def _populated(db_path) -> None:
    store = PersistentAnswerStore(db_path)
    for item in ("a", "b", "c"):
        hit = make_hit(item)
        store.store(hit, [make_assignment(hit)])
    store.close()


def test_garbage_file_quarantined_and_rebuilt(db_path, caplog):
    db_path.write_bytes(b"definitely not a sqlite database " * 64)
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        store = PersistentAnswerStore(db_path)
    assert store.rebuilds == 1 and not store.degraded
    assert any("quarantined" in rec.message for rec in caplog.records)
    quarantined = list(db_path.parent.glob("answers.db.corrupt-*"))
    assert len(quarantined) == 1
    # The rebuilt store is fully functional.
    hit = make_hit()
    assert store.lookup(hit) is None
    store.store(hit, [make_assignment(hit)])
    assert store.lookup(hit) is not None
    store.close()


def test_truncated_db_recovers_without_raising(db_path):
    _populated(db_path)
    blob = db_path.read_bytes()
    db_path.write_bytes(blob[: len(blob) // 2])
    store = PersistentAnswerStore(db_path)  # must not raise
    assert store.rebuilds in (0, 1)  # partial recovery or full rebuild
    hit = make_hit("fresh")
    store.store(hit, [make_assignment(hit)])
    assert store.lookup(hit) is not None
    store.close()


def test_kill_mid_write_at_any_byte_boundary(db_path, tmp_path):
    """Simulate a crash at arbitrary points of a file write: every prefix
    of a valid DB must open to a working empty-or-partial store."""
    _populated(db_path)
    blob = db_path.read_bytes()
    for fraction in (0.01, 0.1, 0.5, 0.9, 0.99):
        target = tmp_path / f"cut-{fraction}.db"
        target.write_bytes(blob[: max(1, int(len(blob) * fraction))])
        store = PersistentAnswerStore(target)  # must never raise
        hit = make_hit("post-crash")
        store.store(hit, [make_assignment(hit)])
        assert store.lookup(hit) is not None
        store.close()


def test_interrupted_connection_degrades_to_memory_only(db_path, caplog):
    """A connection that dies mid-flight (the process's handle is yanked)
    must degrade the store to memory-only mode, not raise into the engine."""
    store = PersistentAnswerStore(db_path)
    hit = make_hit()
    store.store(hit, [make_assignment(hit)])
    store._conn.close()  # simulate the interruption behind the store's back
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        other = make_hit("other")
        store.store(other, [make_assignment(other)])  # no exception
        assert store.lookup(other) is not None  # memory layer still serves
    assert store.degraded
    assert any("memory-only" in rec.message for rec in caplog.records)
    # Hits already in memory keep working; cold keys are honest misses.
    assert store.lookup(hit) is not None
    assert store.lookup(make_hit("never-seen")) is None


def test_wrong_schema_version_quarantined_and_rebuilt(db_path, caplog):
    _populated(db_path)
    conn = sqlite3.connect(db_path)
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
        (str(STORE_SCHEMA_VERSION + 41),),
    )
    conn.commit()
    conn.close()
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        store = PersistentAnswerStore(db_path)
    assert store.rebuilds == 1
    assert store.lookup(make_hit("a")) is None  # old rows not trusted
    store.store(make_hit("a"), [make_assignment(make_hit("a"))])
    assert store.lookup(make_hit("a")) is not None
    store.close()


def test_encoded_blob_is_byte_stable():
    """The blob codec's output is pinned: rows written by earlier versions
    and by this one are byte-identical, so ``STORE_SCHEMA_VERSION`` and
    recorded ``byte_size`` values stay valid."""
    hit = make_hit()
    assignments = (
        make_assignment(
            hit,
            "w1",
            **{
                "t:filter:a": True,
                "count": 3,
                "score": 0.1 + 0.2,
                "label": "weasel",
                "feature": UNKNOWN,
                "neg": -2.5e-07,
            },
        ),
        make_assignment(hit, "w2", **{"t:filter:a": False})._replace(
            accept_time=1.0, submit_time=2.5
        ),
    )
    assert _encode_assignments(assignments) == (
        '[{"assignment_id":"h-a:w1","hit_id":"h-a","worker_id":"w1",'
        '"answers":{"t:filter:a":true,"count":3,"score":0.30000000000000004,'
        '"label":"weasel","feature":{"$repro-unknown$":true},"neg":-2.5e-07},'
        '"accept_time":12.25,"submit_time":19.75},'
        '{"assignment_id":"h-a:w2","hit_id":"h-a","worker_id":"w2",'
        '"answers":{"t:filter:a":false},"accept_time":1.0,"submit_time":2.5}]'
    )
    assert _decode_assignments(_encode_assignments(assignments)) == assignments


def test_undecodable_row_is_dropped_as_miss(db_path):
    """A structurally valid DB holding an unreadable blob (partial write
    that still checksums, manual edit) yields a miss, not a crash."""
    _populated(db_path)
    hit = make_hit("a")
    conn = sqlite3.connect(db_path)
    conn.execute(
        "UPDATE answers SET assignments = ? WHERE cache_key = ?",
        ("{not valid json", hit.cache_key),
    )
    conn.commit()
    conn.close()
    store = PersistentAnswerStore(db_path)
    assert store.lookup(make_hit("a")) is None
    assert store.lookup(make_hit("b")) is not None  # siblings unaffected
    store.close()


def test_row_with_non_object_answers_is_dropped_as_miss(db_path):
    """Valid JSON of the wrong shape is undecodable too: a lookup misses
    and drops the row instead of handing the engine a malformed
    assignment."""
    _populated(db_path)
    hit = make_hit("a")
    conn = sqlite3.connect(db_path)
    conn.execute(
        "UPDATE answers SET assignments = ? WHERE cache_key = ?",
        (
            '[{"assignment_id":"x","hit_id":"h-a","worker_id":"w",'
            '"answers":[1],"accept_time":1.0,"submit_time":2.0}]',
            hit.cache_key,
        ),
    )
    conn.commit()
    conn.close()
    store = PersistentAnswerStore(db_path)
    assert store.lookup(make_hit("a")) is None
    assert store.row_count() == 2
    store.close()


def test_unserializable_answer_stays_memory_only(db_path, caplog):
    """An answer value JSON can't carry keeps that entry in-process
    (TaskCache behavior) instead of failing the store."""
    store = PersistentAnswerStore(db_path)
    hit = make_hit()
    weird = make_assignment(hit, answers_placeholder=True)._replace(
        answers={"q": object()}
    )
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        store.store(hit, [weird])
    assert store.lookup(hit) is not None  # served from memory
    assert not store.degraded
    store.close()
    reopened = PersistentAnswerStore(db_path)
    assert reopened.lookup(make_hit()) is None  # never reached disk
    reopened.close()


def test_set_valued_answer_stays_memory_only(db_path):
    store = PersistentAnswerStore(db_path)
    hit = make_hit()
    store.store(hit, [make_assignment(hit)._replace(answers={"q": {"x", "y"}})])
    assert store.lookup(hit) is not None and not store.degraded
    assert store.row_count() == 0
    store.close()


# ---------------------------------------------------------------------------
# Group commit: one transaction per batch()
# ---------------------------------------------------------------------------


def test_batch_commits_once_and_survives_reopen(db_path):
    store = PersistentAnswerStore(db_path)
    statements: list[str] = []
    store._conn.set_trace_callback(statements.append)
    with store.batch():
        for item in ("a", "b", "c"):
            hit = make_hit(item)
            store.store(hit, [make_assignment(hit)])
    store._conn.set_trace_callback(None)
    assert [s for s in statements if s in ("BEGIN", "COMMIT")] == ["BEGIN", "COMMIT"]
    # Drop the handle without close(): only committed rows may survive.
    store._conn.close()
    reopened = PersistentAnswerStore(db_path)
    assert all(reopened.lookup(make_hit(item)) is not None for item in "abc")
    reopened.close()


def test_nested_batch_is_a_no_op(db_path):
    store = PersistentAnswerStore(db_path)
    statements: list[str] = []
    store._conn.set_trace_callback(statements.append)
    with store.batch():
        with store.batch():
            hit = make_hit()
            store.store(hit, [make_assignment(hit)])
        assert store._conn.in_transaction  # the inner exit did not commit
    assert not store._conn.in_transaction
    assert statements.count("BEGIN") == 1 and statements.count("COMMIT") == 1
    store.close()


def test_batch_on_degraded_or_closed_store_is_a_no_op(db_path, caplog):
    closed = PersistentAnswerStore(db_path)
    closed.close()
    with closed.batch():
        hit = make_hit()
        closed.store(hit, [make_assignment(hit)])
    assert closed.lookup(hit) is not None and not closed.degraded

    broken = PersistentAnswerStore(db_path)
    broken._conn.close()  # the handle dies behind the store's back
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        with broken.batch():  # BEGIN fails: degrade, run the body anyway
            broken.store(hit, [make_assignment(hit)])
        with broken.batch():
            pass
    assert broken.degraded and broken.lookup(hit) is not None


def test_failed_commit_degrades_to_memory_only(db_path, caplog):
    store = PersistentAnswerStore(db_path)
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        with store.batch():
            hit = make_hit()
            store.store(hit, [make_assignment(hit)])
            store._conn.execute("COMMIT")  # the batch's COMMIT now fails
    assert store.degraded
    assert store.lookup(hit) is not None  # memory layer still serves


# ---------------------------------------------------------------------------
# TTL and eviction determinism
# ---------------------------------------------------------------------------


def test_ttl_sweep_on_open(db_path):
    clock = [0.0]
    store = PersistentAnswerStore(
        db_path, ttl_seconds=100.0, clock=lambda: clock[0]
    )
    hit = make_hit()
    store.store(hit, [make_assignment(hit)])
    store.close()
    clock[0] = 500.0
    reopened = PersistentAnswerStore(
        db_path, ttl_seconds=100.0, clock=lambda: clock[0]
    )
    assert reopened.evictions_ttl == 1
    assert reopened.lookup(make_hit()) is None
    reopened.close()


def test_ttl_expiry_keeps_other_fingerprints_rows(db_path):
    """Lazy TTL expiry deletes only the expiring store's own row: a row
    another combiner fingerprint recorded under the same cache key stays
    until its own TTL runs out."""
    clock = [0.0]

    def opened(combiner):
        return PersistentAnswerStore(
            db_path,
            ttl_seconds=100.0,
            fingerprint=combiner_fingerprint(combiner),
            clock=lambda: clock[0],
        )

    a = opened("majority")
    a.store(make_hit(), [make_assignment(make_hit())])
    clock[0] = 50.0
    b = opened("quality_adjust")
    b.store(make_hit(), [make_assignment(make_hit(), "wb")])
    b.close()
    clock[0] = 120.0
    assert a.lookup(make_hit()) is None
    assert a.evictions_ttl == 1
    a.close()
    reopened_b = opened("quality_adjust")
    restored = reopened_b.lookup(make_hit())
    assert restored is not None and restored[0].worker_id == "wb"
    reopened_b.close()


def test_budget_eviction_of_other_fingerprint_keeps_own_entry(db_path):
    """Budget eviction deletes exactly one ``(key, fingerprint, version)``
    row and leaves this store's memory entry alone when the victim belongs
    to another fingerprint."""
    clock = [0.0]
    old = PersistentAnswerStore(
        db_path, fingerprint=combiner_fingerprint("majority"), clock=lambda: clock[0]
    )
    old.store(make_hit(), [make_assignment(make_hit())])
    old.close()
    clock[0] = 10.0
    new = PersistentAnswerStore(
        db_path,
        max_rows=1,
        fingerprint=combiner_fingerprint("quality_adjust"),
        clock=lambda: clock[0],
    )
    new.store(make_hit(), [make_assignment(make_hit(), "wn")])
    assert new.evictions_budget == 1 and new.row_count() == 1
    assert new.lookup(make_hit())[0].worker_id == "wn"
    new.close()
    reopened = PersistentAnswerStore(
        db_path, fingerprint=combiner_fingerprint("quality_adjust")
    )
    assert reopened.lookup(make_hit()) is not None
    reopened.close()


def test_ttl_expires_memory_layer_too(db_path):
    clock = [0.0]
    store = PersistentAnswerStore(
        db_path, ttl_seconds=10.0, clock=lambda: clock[0]
    )
    hit = make_hit()
    store.store(hit, [make_assignment(hit)])
    assert store.lookup(hit) is not None  # in-memory, fresh
    clock[0] = 11.0
    assert store.lookup(hit) is None  # expired even without a restart
    store.close()


def _eviction_survivors(path, items, clock_step=1.0) -> set[str]:
    clock = [100.0]
    store = PersistentAnswerStore(
        path, max_rows=3, clock=lambda: clock[0]
    )
    for item in items:
        hit = make_hit(item)
        store.store(hit, [make_assignment(hit)])
        clock[0] += clock_step
    survivors = {
        item for item in items if store.contains_key(make_hit(item).cache_key)
    }
    store.close()
    return survivors


def test_eviction_budget_is_deterministic(tmp_path):
    """Same store sequence, same clock → same survivors, twice over."""
    items = ["e", "b", "a", "d", "c", "f"]
    first = _eviction_survivors(tmp_path / "one.db", items)
    second = _eviction_survivors(tmp_path / "two.db", items)
    assert first == second
    assert first == {"d", "c", "f"}  # strict LRU under a ticking clock


def test_eviction_tiebreak_is_lexicographic(tmp_path):
    """Equal last_used_at timestamps (frozen clock) break ties by
    cache_key, so eviction order never depends on dict/disk order."""
    survivors = _eviction_survivors(
        tmp_path / "tie.db", ["e", "b", "a", "d", "c", "f"], clock_step=0.0
    )
    # Victims are the lexicographically smallest keys; FilterQuestion item
    # order matches key order here.
    assert survivors == {"d", "e", "f"}


def test_max_bytes_budget_enforced(db_path):
    clock = [0.0]
    store = PersistentAnswerStore(
        db_path, max_bytes=700, clock=lambda: clock[0]
    )
    for i in range(6):
        hit = make_hit(f"item-{i}")
        store.store(hit, [make_assignment(hit)])
        clock[0] += 1.0
    assert store.byte_size() <= 700
    assert store.evictions_budget > 0
    store.close()


def test_budget_eviction_is_per_insert_inside_a_batch(db_path):
    """A batch keeps the per-insert eviction order. Under a byte budget
    with tied timestamps, evicting once at the end of the group would keep
    a different set: here {c} instead of {a, c}."""
    hits = {item: make_hit(item) for item in ("a", "b", "c")}
    rows = {
        "a": [make_assignment(hits["a"], label="x")],
        "b": [make_assignment(hits["b"], label="x" * 400)],
        "c": [make_assignment(hits["c"], label="x" * 200)],
    }
    size = {
        item: len(_encode_assignments(rows[item])) + len(hits[item].cache_key)
        for item in rows
    }
    budget = size["a"] + size["c"]
    assert size["b"] + size["c"] > budget  # b goes when c arrives
    store = PersistentAnswerStore(db_path, max_bytes=budget, clock=lambda: 5.0)
    with store.batch():
        for item in ("b", "c", "a"):
            store.store(hits[item], rows[item])
    survivors = {item for item in rows if store.contains_key(hits[item].cache_key)}
    assert survivors == {"a", "c"}
    assert store.evictions_budget == 1
    assert store.byte_size() == budget
    store.close()


def test_budget_totals_scan_once_per_batch(db_path):
    """Budget enforcement reads the table totals once per transaction and
    keeps them exact across the batch's inserts, replacements and
    evictions."""
    store = PersistentAnswerStore(db_path, max_rows=4, clock=lambda: 1.0)
    scans = []
    store._conn.set_trace_callback(
        lambda sql: scans.append(sql) if "SUM(byte_size)" in sql else None
    )
    for group in (("a", "b", "c"), ("d", "b", "e", "f", "g")):
        with store.batch():
            for item in group:
                hit = make_hit(item)
                store.store(hit, [make_assignment(hit, label=item * 9)])
    assert len(scans) == 2
    store._conn.set_trace_callback(None)
    # Tied timestamps evict the smallest keys; the re-stored "b" replaced
    # its row without adding one.
    assert {
        item for item in "abcdefg" if store.contains_key(make_hit(item).cache_key)
    } == {"d", "e", "f", "g"}
    assert store.row_count() == 4 and store.evictions_budget == 3
    store.close()


def test_evicted_key_not_counted_by_budget_preflight(db_path):
    """Satellite contract: projected_new_assignments must not count a hit
    the store can no longer deliver (evicted or expired rows)."""
    clock = [0.0]
    store = PersistentAnswerStore(
        db_path, max_rows=1, clock=lambda: clock[0]
    )
    manager = TaskManager(platform=None, cache=store)
    unit_a = [FilterPayload("t", (FilterQuestion("a"),))]
    unit_b = [FilterPayload("t", (FilterQuestion("b"),))]

    merged_a = TaskManager.merge_units([unit_a], 1)[0]
    hit_a = HIT(hit_id="h-a", payloads=merged_a, assignments_requested=5)
    store.store(hit_a, [make_assignment(hit_a)])
    assert manager.projected_new_assignments([unit_a], 1, 5) == 0

    clock[0] += 1.0
    merged_b = TaskManager.merge_units([unit_b], 1)[0]
    hit_b = HIT(hit_id="h-b", payloads=merged_b, assignments_requested=5)
    store.store(hit_b, [make_assignment(hit_b)])  # evicts a (max_rows=1)
    assert manager.projected_new_assignments([unit_a], 1, 5) == 5
    assert manager.projected_new_assignments([unit_b], 1, 5) == 0
    store.close()


# ---------------------------------------------------------------------------
# Engine / session wiring
# ---------------------------------------------------------------------------

ANIMALS_QUERY = (
    "SELECT a.name, animalInfo(a.img).common AS common FROM animals AS a"
)


def animals_engine(store=None, cache=None, seed=5):
    data = animals_dataset()
    market = SimulatedMarketplace(data.truth, seed=seed)
    engine = Qurk(
        platform=market,
        config=ExecutionConfig(generative_batch_size=5),
        store=store,
        cache=cache,
    )
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return engine


def test_engine_restart_warm_run_is_free_and_identical(db_path):
    cold_engine = animals_engine(store=db_path)
    cold = cold_engine.execute(ANIMALS_QUERY)
    assert cold.total_cost > 0
    assert cold.store_summary is not None
    assert cold.store_summary["persistent_hits"] == 0
    cold_engine.store.close()

    warm_engine = animals_engine(store=db_path)  # fresh process, same file
    warm = warm_engine.execute(ANIMALS_QUERY)
    assert warm.as_dicts() == cold.as_dicts()  # bit-identical rows
    assert warm.hit_count == 0 and warm.total_cost == 0.0
    summary = warm.store_summary
    assert summary["persistent_hits"] > 0
    assert summary["assignments_reused"] > 0
    assert summary["cost_saved"] == pytest.approx(cold.total_cost)
    assert "store:" in warm.explain()
    warm_engine.store.close()


def test_cold_store_run_matches_plain_taskcache_run(db_path):
    """An empty persistent store behaves exactly like TaskCache():
    same rows, HITs, and dollars for the same seed."""
    with_store = animals_engine(store=db_path)
    store_result = with_store.execute(ANIMALS_QUERY)
    with_store.store.close()

    with_cache = animals_engine(cache=TaskCache())
    cache_result = with_cache.execute(ANIMALS_QUERY)

    assert store_result.as_dicts() == cache_result.as_dicts()
    assert store_result.hit_count == cache_result.hit_count
    assert store_result.total_cost == cache_result.total_cost


def test_repro_store_off_ignores_configured_store(db_path):
    with store_toggle.forced(False):
        engine = animals_engine(store=db_path)
        assert engine.store is None
        result = engine.execute(ANIMALS_QUERY)
    assert result.store_summary is None
    assert not db_path.exists()  # not even opened
    assert "store:" not in result.explain()


def test_engine_rejects_cache_and_store_together(db_path):
    with pytest.raises(PlanError):
        animals_engine(store=db_path, cache=TaskCache())


def test_session_over_store_shares_and_persists(db_path):
    """A session's shared cache can be the store: cross-query dedup and
    owner attribution work unchanged, and a later session on the same file
    reuses the answers from disk."""
    data = animals_dataset()
    market = SimulatedMarketplace(data.truth, seed=5)
    session = EngineSession(
        platform=market,
        config=ExecutionConfig(generative_batch_size=5),
        store=db_path,
    )
    session.register_table(data.table)
    session.define(data.task_dsl)
    h0 = session.submit(ANIMALS_QUERY)
    h1 = session.submit(ANIMALS_QUERY)
    outcome = session.run()
    assert outcome[h0].as_dicts() == outcome[h1].as_dicts()
    # One of the twins borrowed the other's answers (view attribution).
    assert outcome.stats.cross_cache_hits > 0
    assert outcome.stats.store_summary is not None
    assert "session store:" in outcome.explain()
    session.store.close()

    market2 = SimulatedMarketplace(data.truth, seed=5)
    revisit = EngineSession(
        platform=market2,
        config=ExecutionConfig(generative_batch_size=5),
        store=db_path,
    )
    revisit.register_table(data.table)
    revisit.define(data.task_dsl)
    h = revisit.submit(ANIMALS_QUERY)
    warm = revisit.run()
    assert warm[h].as_dicts() == outcome[h0].as_dicts()
    assert warm[h].total_cost == 0.0
    assert warm.stats.store_summary["persistent_hits"] > 0
    revisit.store.close()


def test_engine_session_inherits_engine_store(db_path):
    engine = animals_engine(store=db_path)
    session = engine.session()
    assert session.store is engine.store
    engine.store.close()


def test_store_survives_engine_level_corruption(db_path):
    """End to end: a corrupted file between runs never stops a query."""
    engine = animals_engine(store=db_path)
    engine.execute(ANIMALS_QUERY)
    engine.store.close()
    blob = db_path.read_bytes()
    db_path.write_bytes(b"\x00" * 128 + blob[128:])  # stomp the header
    retry = animals_engine(store=db_path)
    assert retry.store.rebuilds == 1
    result = retry.execute(ANIMALS_QUERY)  # re-buys, does not raise
    assert result.total_cost > 0
    retry.store.close()


# ---------------------------------------------------------------------------
# Group commit and budget cost on the restart workload
# ---------------------------------------------------------------------------


def _traced_restart_store(path, **budget):
    """A store on ``path`` whose SQL is recorded per ``batch()``: returns
    the store and a list of ``(statement, batch ordinal)`` pairs, ordinal
    0 meaning outside any batch."""
    store = PersistentAnswerStore(path, **budget)
    log: list[tuple[str, int]] = []
    state = {"batches": 0, "open": 0}
    inner = store.batch

    @contextlib.contextmanager
    def counted_batch():
        if state["open"] == 0:
            state["batches"] += 1
        state["open"] += 1
        try:
            with inner():
                yield
        finally:
            state["open"] -= 1

    store.batch = counted_batch
    store._conn.set_trace_callback(
        lambda sql: log.append((sql, state["batches"] if state["open"] else 0))
    )
    return store, log, state


def test_restart_pair_commits_once_per_batch_never_per_row(db_path):
    """Cold then warm Table-5 run: every INSERT and UPDATE runs inside a
    ``batch()`` transaction, and there is at most one BEGIN/COMMIT per
    batch, so write transactions scale with HIT groups, not HITs."""
    data = movie_dataset(seed=0)
    for run in ("cold", "warm"):
        store, log, state = _traced_restart_store(db_path)
        result = build_store_engine(store, data=data).execute(QUERY_WITH_FILTER)
        store._conn.set_trace_callback(None)
        store.close()
        writes = [(sql, b) for sql, b in log if sql.startswith(("INSERT", "UPDATE"))]
        assert writes, run
        assert all(b > 0 for _, b in writes), run
        begins = [b for sql, b in log if sql == "BEGIN"]
        commits = [b for sql, b in log if sql == "COMMIT"]
        assert len(begins) == len(set(begins)) <= state["batches"]
        assert len(commits) == len(begins)
        assert len(commits) < len(writes)
        assert (result.hit_count == 0) == (run == "warm")


def test_budgeted_run_scans_totals_at_most_once_per_group(db_path):
    data = movie_dataset(seed=0)
    store, log, state = _traced_restart_store(db_path, max_bytes=10**12)
    build_store_engine(store, data=data).execute(QUERY_WITH_FILTER)
    store._conn.set_trace_callback(None)
    store.close()
    scans = [b for sql, b in log if "SUM(byte_size)" in sql]
    inserts = [b for sql, b in log if sql.startswith("INSERT")]
    assert scans and all(b > 0 for b in scans)
    assert len(scans) == len(set(scans))  # at most one per batch
    assert len(scans) < len(inserts)


def test_byte_budget_adds_little_cpu_at_scale_32(tmp_path):
    """A never-evicting byte budget stays within 1.25x of no budget on a
    scale-32 cold run (it used to rescan the table after every insert)."""
    data = movie_dataset(seed=0, scale=32)
    latency = LatencyConfig(deadline_hours=8.0 * 32)

    def cold_run(spec) -> float:
        market = SimulatedMarketplace(data.truth, seed=0, latency=LatencyModel(latency))
        engine = Qurk(platform=market, config=store_config(), store=spec)
        engine.register_table(data.actors)
        engine.register_table(data.scenes)
        engine.define(data.task_dsl)
        start = time.process_time()
        engine.execute(QUERY_WITH_FILTER)
        elapsed = time.process_time() - start
        engine.store.close()
        return elapsed

    best = {"plain": float("inf"), "budget": float("inf")}
    for repeat in range(2):
        best["plain"] = min(best["plain"], cold_run(tmp_path / f"p{repeat}.db"))
        best["budget"] = min(
            best["budget"],
            cold_run(StoreConfig(tmp_path / f"b{repeat}.db", max_bytes=10**12)),
        )
    assert best["budget"] <= 1.25 * best["plain"], best
