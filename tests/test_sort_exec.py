"""Tests for the crowd-sort execution layer."""

import dataclasses

import pytest

from repro.core.context import ExecutionConfig
from repro.core.plan import SortNode
from repro.core.sort_exec import (
    _item_html,
    begin_compare_sort,
    compare_sort,
    execute_sort,
    hybrid_sort,
    make_strategy,
    rate_sort,
)
from repro.datasets import squares_dataset
from repro.errors import PlanError
from repro.hits.compiler import HITCompiler
from repro.hits.hit import HIT
from repro.language.ast import OrderItem
from repro.language.parser import parse_expression
from repro.metrics.kendall import kendall_tau_from_orders
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sorting.hybrid import ConfidenceStrategy, RandomStrategy, SlidingWindowStrategy

from tests.conftest import make_context


def squares_context(seed=5, n=12, **config):
    data = squares_dataset(n=n, seed=seed)
    ctx = make_context(
        data.truth, data.task_dsl, seed=seed, config=ExecutionConfig(seed=seed, **config)
    )
    return data, ctx


def task_of(ctx):
    return ctx.catalog.task("squareSorter")


def test_compare_sort_recovers_order():
    data, ctx = squares_context()
    order, corpus = compare_sort(task_of(ctx), data.items, ctx)
    assert kendall_tau_from_orders(order, data.true_order) > 0.9
    assert corpus  # raw votes exposed for κ analysis


def compare_hits(n: int, batch_groups: int):
    """The HITs a compare sort over ``n`` fixed-width refs posts."""
    # smallest=100, step=1: every ref is ``img://squares/NNNxNNN``, so
    # key lengths depend only on how many items a HIT carries.
    data = squares_dataset(n=n, smallest=100, step=1, seed=5)
    ctx = make_context(
        data.truth,
        data.task_dsl,
        seed=5,
        config=ExecutionConfig(
            seed=5, compare_batch_groups=batch_groups, strict_hits=False
        ),
    )
    task = task_of(ctx)
    hits = begin_compare_sort(task, data.items, ctx).batch.result().hits
    return task, data.items, hits


def test_compare_hit_keys_do_not_grow_with_sort_size():
    """A compare HIT carries only its own groups' item HTML, so its cache
    key is O(group), not O(N)."""
    longest = {}
    for n in (20, 40, 80):
        for batch_groups in (1, 3):
            _, _, hits = compare_hits(n, batch_groups)
            for hit in hits:
                (payload,) = hit.payloads
                in_groups = {item for group in payload.groups for item in group.items}
                assert set(payload.item_html) == in_groups
            longest[n, batch_groups] = max(len(hit.cache_key) for hit in hits)
    assert longest[20, 1] == longest[80, 1]
    # Three groups of five hold at most 15 distinct items; N=20's denser
    # covering design repeats items inside a HIT, so it may stay below.
    assert longest[20, 3] <= longest[40, 3] == longest[80, 3]


@pytest.mark.parametrize("batch_groups", [1, 3])
def test_compare_hit_html_matches_full_dict_payload(batch_groups):
    """Trimming ``item_html`` to the groups' items leaves every compiled
    compare HIT byte-identical."""
    task, refs, hits = compare_hits(20, batch_groups)
    full = {ref: _item_html(task, ref) for ref in refs}
    compiler = HITCompiler()
    for hit in hits:
        twin = HIT(
            hit_id=hit.hit_id,
            payloads=tuple(
                dataclasses.replace(p, item_html=full) for p in hit.payloads
            ),
            assignments_requested=hit.assignments_requested,
        )
        assert hit.html == compiler.render_hit(twin)


def test_rate_sort_returns_summaries():
    data, ctx = squares_context()
    order, summaries = rate_sort(task_of(ctx), data.items, ctx)
    assert set(order) == set(data.items)
    assert all(summaries[ref].count > 0 for ref in data.items)
    assert kendall_tau_from_orders(order, data.true_order) > 0.4


def test_hybrid_sort_between_rate_and_compare():
    data, ctx = squares_context(hybrid_iterations=10)
    order, sorter = hybrid_sort(task_of(ctx), data.items, ctx)
    assert sorter.hits_spent == 10
    assert kendall_tau_from_orders(order, data.true_order) > 0.6


def test_make_strategy_dispatch():
    assert isinstance(make_strategy("random", 5, 6, 0), RandomStrategy)
    assert isinstance(make_strategy("confidence", 5, 6, 0), ConfidenceStrategy)
    assert isinstance(make_strategy("window", 5, 6, 0), SlidingWindowStrategy)
    with pytest.raises(PlanError):
        make_strategy("bogus", 5, 6, 0)


def make_rows(data, extra_column=None):
    names = ["s.img"] + ([extra_column] if extra_column else [])
    schema = Schema.of(*names)
    rows = []
    for i, ref in enumerate(data.items):
        values = {"s.img": ref}
        if extra_column:
            values[extra_column] = f"group-{i % 2}"
        rows.append(Row(schema, values))
    return rows


def test_execute_sort_plain_only():
    data, ctx = squares_context()
    rows = make_rows(data, extra_column="s.name")
    node = SortNode(
        order_items=(OrderItem(parse_expression("s.name")),),
        inputs=(),
    )
    ordered = execute_sort(node, rows, ctx)
    names = [row["s.name"] for row in ordered]
    assert names == sorted(names)


def test_execute_sort_crowd_only():
    data, ctx = squares_context()
    rows = make_rows(data)
    node = SortNode(
        order_items=(OrderItem(parse_expression("squareSorter(s.img)")),),
        inputs=(),
    )
    ordered = execute_sort(node, rows, ctx)
    refs = [str(row["s.img"]) for row in ordered]
    assert kendall_tau_from_orders(refs, data.true_order) > 0.9


def test_execute_sort_grouped_prefix():
    data, ctx = squares_context()
    rows = make_rows(data, extra_column="s.name")
    node = SortNode(
        order_items=(
            OrderItem(parse_expression("s.name")),
            OrderItem(parse_expression("squareSorter(s.img)")),
        ),
        inputs=(),
    )
    ordered = execute_sort(node, rows, ctx)
    groups = [str(row["s.name"]) for row in ordered]
    assert groups == sorted(groups)  # grouped by the plain prefix


def test_execute_sort_rejects_two_crowd_items():
    data, ctx = squares_context()
    node = SortNode(
        order_items=(
            OrderItem(parse_expression("squareSorter(s.img)")),
            OrderItem(parse_expression("squareSorter(s.img)")),
        ),
        inputs=(),
    )
    with pytest.raises(PlanError):
        execute_sort(node, make_rows(data), ctx)


def test_execute_sort_rejects_plain_after_crowd():
    data, ctx = squares_context()
    node = SortNode(
        order_items=(
            OrderItem(parse_expression("squareSorter(s.img)")),
            OrderItem(parse_expression("s.img")),
        ),
        inputs=(),
    )
    with pytest.raises(PlanError):
        execute_sort(node, make_rows(data), ctx)


def test_execute_sort_singleton_groups_cost_nothing():
    data, ctx = squares_context()
    rows = make_rows(data, extra_column="s.name")[:1]
    node = SortNode(
        order_items=(OrderItem(parse_expression("squareSorter(s.img)")),),
        inputs=(),
    )
    execute_sort(node, rows, ctx)
    assert ctx.manager.ledger.total_hits == 0  # nothing to compare
