"""Tests for the benchmark's layer tracer (``perfbench/tracer.py``)."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench.layers import LAYERS, TARGETS, layer_metrics  # noqa: E402
from perfbench.tracer import Target, Tracer, leaked_spans, patched  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(3.0)

    def inner():
        clock.advance(2.0)
        traced_leaf()
        clock.advance(1.0)

    def outer():
        clock.advance(1.0)
        traced_inner()
        traced_inner()
        clock.advance(0.5)

    traced_leaf = tracer.wrap("c", leaf)
    traced_inner = tracer.wrap("b", inner)
    traced_outer = tracer.wrap("a", outer)
    clock.advance(0.25)  # before the first span: unattributed
    traced_outer()

    assert dict(tracer.calls) == {"a": 1, "b": 2, "c": 2}
    assert tracer.self_s["a"] == pytest.approx(1.5)
    assert tracer.self_s["b"] == pytest.approx(6.0)
    assert tracer.self_s["c"] == pytest.approx(6.0)
    assert tracer.covered_s == pytest.approx(13.5)
    assert tracer.unattributed(clock.now) == pytest.approx(0.25)


def test_recursion_and_raising_spans_keep_the_arithmetic():
    clock = FakeClock()
    tracer = Tracer(clock)

    def countdown(n):
        clock.advance(1.0)
        if n == 0:
            raise ValueError("bottom")
        return traced(n - 1)

    traced = tracer.wrap("r", countdown)
    with pytest.raises(ValueError):
        traced(3)
    assert tracer.calls["r"] == 4
    assert tracer.self_s["r"] == pytest.approx(4.0)
    assert tracer.covered_s == pytest.approx(4.0)


def test_generators_are_refused():
    def items():
        yield 1

    with pytest.raises(TypeError):
        Tracer().wrap("g", items)


def _bindings(targets):
    """(owner, attribute) -> bound object, for every binding of every target."""
    found = {}
    originals = {}
    for target in targets:
        owner, name, original = target.resolve()
        found[(owner, name)] = original
        originals[id(original)] = original
    for module in list(sys.modules.values()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if id(value) in originals and originals[id(value)] is value:
                found[(module, attr)] = value
    return found


def _small_query():
    from repro.core.engine import Qurk
    from repro.crowd import SimulatedMarketplace
    from repro.datasets.movie import movie_dataset
    from repro.experiments.end_to_end import QUERY_WITH_FILTER

    from perfbench.workloads import OPTIMIZED

    data = movie_dataset(seed=0)
    engine = Qurk(platform=SimulatedMarketplace(data.truth, seed=0), config=OPTIMIZED.config())
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    return engine, QUERY_WITH_FILTER


def test_every_span_is_restored_after_a_traced_run():
    before = _bindings(TARGETS)
    assert len(before) > len(TARGETS)  # names imported elsewhere are bound too
    engine, query = _small_query()
    tracer = Tracer()
    with patched(tracer, TARGETS):
        assert all(bound is not before[key] for key, bound in _bindings_now(before).items())
        rows = engine.execute(query).rows
    assert rows
    assert tracer.calls["engine"] == 1 and tracer.calls["relational"] > 0
    assert leaked_spans() == []
    assert _bindings_now(before) == before


def _bindings_now(before):
    return {
        (owner, name): (vars(owner)[name] if isinstance(owner, type) else getattr(owner, name))
        for owner, name in before
    }


def test_spans_are_restored_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with patched(Tracer(), TARGETS):
            raise RuntimeError("query failed")
    assert leaked_spans() == []


def test_a_target_listed_twice_is_refused_and_nothing_leaks():
    target = Target("planner", "repro.core.planner:build_plan")
    with pytest.raises(RuntimeError):
        with patched(Tracer(), [target, target]):
            pass
    assert leaked_spans() == []


def test_layer_self_times_plus_unattributed_add_up_to_the_traced_wall():
    engine, query = _small_query()
    tracer = Tracer()
    with patched(tracer, TARGETS):
        start = time.perf_counter()
        engine.execute(query)
        wall = time.perf_counter() - start
    metrics = layer_metrics(tracer, wall, wall, outcomes=[])
    self_times = [metrics[f"{layer}.self_s"][0] for layer in LAYERS]
    self_times.append(metrics["hits.manager.finalize_s"][0])
    unattributed = metrics["trace.unattributed_s"][0]
    assert all(value >= 0 for value in self_times)
    assert 0 <= unattributed < wall
    assert sum(self_times) + unattributed == pytest.approx(wall, rel=1e-9, abs=1e-12)
