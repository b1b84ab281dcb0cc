"""Integration tests: full queries through the Qurk engine."""

import pytest

from repro import ExecutionConfig, JoinInterface, Qurk, SimulatedMarketplace
from repro.datasets import (
    animals_dataset,
    celebrity_dataset,
    movie_dataset,
    squares_dataset,
)
from repro.errors import PlanError
from repro.metrics import kendall_tau_from_orders


def make_squares_engine(n=15, seed=7, **config):
    data = squares_dataset(n=n, seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed)
    engine = Qurk(platform=market, config=ExecutionConfig(**config))
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return data, engine


def test_compare_sort_recovers_true_order():
    data, engine = make_squares_engine(sort_method="compare")
    result = engine.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    expected = [f"square-{20 + 3 * i}" for i in range(15)]
    tau = kendall_tau_from_orders(result.column("squares.label"), expected)
    assert tau > 0.95
    assert result.hit_count > 0
    assert result.total_cost > 0


def test_rate_sort_close_but_cheaper():
    data, engine_compare = make_squares_engine(sort_method="compare")
    compare_result = engine_compare.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    _, engine_rate = make_squares_engine(sort_method="rate")
    rate_result = engine_rate.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    expected = [f"square-{20 + 3 * i}" for i in range(15)]
    rate_tau = kendall_tau_from_orders(rate_result.column("squares.label"), expected)
    assert rate_result.hit_count < compare_result.hit_count
    assert rate_tau > 0.55


def test_sort_desc_reverses():
    _, engine = make_squares_engine(sort_method="compare")
    asc = engine.execute("SELECT squares.label FROM squares ORDER BY squareSorter(img)")
    desc = engine.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img) DESC"
    )
    assert list(reversed(asc.column("squares.label"))) == desc.column("squares.label")


def test_limit_top_k():
    _, engine = make_squares_engine(sort_method="compare")
    result = engine.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img) DESC LIMIT 3"
    )
    assert len(result) == 3
    assert result.rows[0]["squares.label"] == "square-62"


def test_hybrid_sort_runs():
    _, engine = make_squares_engine(
        n=12, sort_method="hybrid", hybrid_iterations=8, hybrid_strategy="window"
    )
    result = engine.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    expected = [f"square-{20 + 3 * i}" for i in range(12)]
    tau = kendall_tau_from_orders(result.column("squares.label"), expected)
    assert tau > 0.6


def celebrity_engine(n=15, seed=1, **config):
    data = celebrity_dataset(n=n, seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed)
    engine = Qurk(platform=market, config=ExecutionConfig(**config))
    engine.register_table(data.celebs)
    engine.register_table(data.photos)
    engine.define(data.task_dsl)
    return data, engine


JOIN_QUERY = (
    "SELECT c.name, p.id FROM celeb c JOIN photos p ON samePerson(c.img, p.img)"
)
FILTERED_JOIN_QUERY = (
    "SELECT c.name, p.id FROM celeb c JOIN photos p ON samePerson(c.img, p.img) "
    "AND POSSIBLY gender(c.img) = gender(p.img) "
    "AND POSSIBLY skinColor(c.img) = skinColor(p.img)"
)


def join_accuracy(result, n):
    true_positives = sum(
        1
        for row in result.rows
        if str(row["c.name"]).rsplit("-", 1)[1] == str(row["p.id"])
    )
    false_positives = len(result) - true_positives
    return true_positives, false_positives


def test_simple_join_finds_matches():
    data, engine = celebrity_engine(join_interface=JoinInterface.SIMPLE)
    result = engine.execute(JOIN_QUERY)
    tp, fp = join_accuracy(result, 15)
    assert tp >= 13
    assert fp <= 2
    assert result.hit_count == 225


def test_feature_filtering_cuts_hits_without_losing_matches():
    _, plain_engine = celebrity_engine(join_interface=JoinInterface.SIMPLE)
    plain = plain_engine.execute(JOIN_QUERY)
    _, filtered_engine = celebrity_engine(join_interface=JoinInterface.SIMPLE)
    filtered = filtered_engine.execute(FILTERED_JOIN_QUERY)
    assert filtered.hit_count < plain.hit_count
    tp, _ = join_accuracy(filtered, 15)
    assert tp >= 12


def test_use_feature_filters_false_ignores_possibly():
    _, engine = celebrity_engine(
        join_interface=JoinInterface.SIMPLE, use_feature_filters=False
    )
    result = engine.execute(FILTERED_JOIN_QUERY)
    assert result.hit_count == 225  # full cross product, no extraction pass


def test_smart_join_uses_grid_hits():
    _, engine = celebrity_engine(
        join_interface=JoinInterface.SMART, grid_rows=5, grid_cols=5,
        use_feature_filters=False,
    )
    result = engine.execute(JOIN_QUERY)
    assert result.hit_count == 9  # ceil(15/5)² grids


def test_join_then_sort_grouped_by_name():
    data = movie_dataset(seed=2)
    market = SimulatedMarketplace(data.truth, seed=2)
    engine = Qurk(
        platform=market,
        config=ExecutionConfig(
            join_interface=JoinInterface.SMART,
            grid_rows=5,
            grid_cols=5,
            sort_method="rate",
        ),
    )
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    result = engine.execute(
        "SELECT a.name, s.img FROM actors a JOIN scenes s "
        "ON inScene(a.img, s.img) "
        "AND POSSIBLY numInScene(s.img) = 1 "
        "ORDER BY a.name, quality(s.img)"
    )
    names = result.column("a.name")
    assert names == sorted(names)  # grouped by actor
    assert len(result) > 20


def test_generative_select_fields():
    data = animals_dataset()
    market = SimulatedMarketplace(data.truth, seed=3)
    engine = Qurk(platform=market)
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    result = engine.execute(
        "SELECT animals.name, animalInfo(img).common AS common FROM animals LIMIT 27"
    )
    matches = sum(
        1 for row in result.rows if row["common"] == row["animals.name"]
    )
    assert matches >= 24  # normalization + majority recovers names


def test_where_crowd_filter():
    data = celebrity_dataset(n=10, seed=4)
    truth = data.truth
    truth.add_filter_task(
        "isFemale",
        {
            ref: data.attributes[ref]["gender"] == "Female"
            for ref in data.celeb_refs
        },
    )
    market = SimulatedMarketplace(truth, seed=4)
    engine = Qurk(platform=market)
    engine.register_table(data.celebs)
    engine.define(data.task_dsl)
    engine.define(
        'TASK isFemale(field) TYPE Filter:\n'
        'Prompt: "<img src=\'%s\'>", tuple[field]\n'
    )
    result = engine.execute("SELECT c.name FROM celeb c WHERE isFemale(c)")
    expected = {
        f"celebrity-{i}"
        for i, ref in enumerate(data.celeb_refs)
        if data.attributes[ref]["gender"] == "Female"
    }
    got = set(result.column("c.name"))
    # At most one boundary mistake from crowd noise.
    assert len(got ^ expected) <= 1


def test_budget_enforcement():
    from repro.errors import BudgetExceededError

    _, engine = celebrity_engine(
        join_interface=JoinInterface.SIMPLE, max_budget=0.10
    )
    with pytest.raises(BudgetExceededError):
        engine.execute(JOIN_QUERY)


def test_define_rejects_select():
    _, engine = celebrity_engine()
    with pytest.raises(PlanError):
        engine.define("SELECT c.name FROM celeb c")


def test_execute_rejects_multiple_selects():
    _, engine = celebrity_engine()
    with pytest.raises(PlanError):
        engine.execute("SELECT c.name FROM celeb c SELECT c.name FROM celeb c")


def test_result_helpers():
    _, engine = make_squares_engine(n=5, sort_method="rate")
    result = engine.execute("SELECT squares.label FROM squares ORDER BY squareSorter(img)")
    assert len(result.as_dicts()) == 5
    assert "Sort" in result.explain()
    assert result.elapsed_seconds > 0


def test_extreme_tournament():
    data, engine = make_squares_engine(n=13, sort_method="compare")
    winner, hits = engine.extreme("squareSorter", data.items, most=True)
    assert winner == data.true_order[-1]
    assert hits >= 3


def test_engine_explain_without_execution():
    _, engine = make_squares_engine(n=5)
    text = engine.explain(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    assert "Scan(squares" in text


def test_crowd_filter_elapsed_is_relative_to_its_own_posting():
    """A later query's filter node times from its own post, not from t=0."""
    from repro.crowd import GroundTruth
    from repro.relational.schema import Schema
    from repro.relational.table import Table

    truth = GroundTruth()
    truth.add_filter_task(
        "isEven", {f"img://item/{i}": i % 2 == 0 for i in range(20)}
    )
    table = Table("t", Schema.of("id integer", "img url"))
    for i in range(20):
        table.insert({"id": i, "img": f"img://item/{i}"})
    engine = Qurk(platform=SimulatedMarketplace(truth, seed=0))
    engine.register_table(table)
    engine.define(
        "TASK isEven(field) TYPE Filter:\n"
        "    Prompt: \"<img src='%s'>\", tuple[field]\n"
    )
    engine.execute("SELECT t.id FROM t WHERE isEven(t.img)")
    second = engine.execute("SELECT t.id FROM t WHERE isEven(t.img)")
    (crowd_filter,) = [
        stats
        for stats in second.node_stats.values()
        if stats.label.startswith("CrowdFilter")
    ]
    assert 0.0 < crowd_filter.elapsed_seconds <= second.elapsed_seconds
