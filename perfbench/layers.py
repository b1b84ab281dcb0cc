"""The engine's layers, named after its modules, and their entry points.

Each layer reports ``<layer>.calls`` and ``<layer>.self_s`` from a traced
run; :func:`layer_metrics` adds the ratios and counts measured at the same
boundaries. ``PendingBatch.result`` is its own span so that finalizing a
HIT batch shows apart from building and posting it.
"""

from __future__ import annotations

from perfbench.tracer import Target, Tracer

FINALIZE = "hits.manager.finalize"

TARGETS = [
    Target("language", "repro.language.parser:parse_query"),
    Target("language", "repro.language.parser:parse_statements"),
    Target("planner", "repro.core.planner:build_plan"),
    Target("planner", "repro.core.optimizer:optimize"),
    Target("engine", "repro.core.engine:Qurk.execute"),
    Target("session", "repro.core.session:EngineSession.run"),
    Target("scheduler", "repro.core.scheduler:PipelineScheduler.run"),
    # A session steps each query's scheduler instead of calling run().
    Target("scheduler", "repro.core.scheduler:PipelineScheduler.prepare"),
    Target("scheduler", "repro.core.scheduler:PipelineScheduler.step_once"),
    Target("scheduler", "repro.core.scheduler:PipelineScheduler.finish"),
    Target("operators", "repro.core.join_exec:execute_join"),
    Target("operators", "repro.core.sort_exec:execute_sort"),
    Target("operators", "repro.core.crowd_calls:run_filter_call"),
    Target("operators", "repro.core.crowd_calls:begin_generative_units"),
    Target("hits.manager", "repro.hits.manager:TaskManager.build_hits"),
    Target("hits.manager", "repro.hits.manager:TaskManager.begin_hits"),
    Target("hits.manager", "repro.hits.manager:TaskManager.post_hits"),
    Target(FINALIZE, "repro.hits.manager:PendingBatch.result"),
    Target("hits.cache", "repro.hits.cache:TaskCache.lookup", count_found=True),
    Target("hits.cache", "repro.hits.cache:TaskCache.store"),
    Target("hits.cache", "repro.hits.cache:TaskCacheView.lookup", count_found=True),
    Target("hits.cache", "repro.hits.cache:TaskCacheView.store"),
    Target("hits.store", "repro.hits.store:PersistentAnswerStore.lookup", count_found=True),
    Target("hits.store", "repro.hits.store:PersistentAnswerStore.store"),
    Target("crowd.marketplace", "repro.crowd.marketplace:SimulatedMarketplace.submit_hit_group"),
    Target("crowd.marketplace", "repro.crowd.marketplace:SimulatedMarketplace.harvest"),
    Target("crowd.marketplace", "repro.crowd.marketplace:SimulatedMarketplace.harvest_next"),
    Target("crowd.marketplace", "repro.crowd.marketplace:SimulatedMarketplace.post_hit_group"),
    Target("crowd.marketplace", "repro.crowd.marketplace:MarketplaceClient.submit_hit_group"),
    Target("crowd.marketplace", "repro.crowd.marketplace:MarketplaceClient.harvest"),
    Target("crowd.marketplace", "repro.crowd.marketplace:MarketplaceClient.post_hit_group"),
    Target("crowd.behavior", "repro.crowd.behavior:answer_hit"),
    Target("crowd.vector", "repro.crowd.vector:dispatch_vector"),
    Target("combine", "repro.combine.base:combine_corpus"),
    Target("combine", "repro.combine.majority:MajorityVote.combine"),
    Target("combine", "repro.combine.quality_adjust:QualityAdjust.combine"),
    Target("combine", "repro.combine.dawid_skene:dawid_skene"),
    Target("relational", "repro.relational.rows:Row.__init__"),
    Target("sorting", "repro.sorting.graph:graph_order"),
    Target("sorting", "repro.sorting.rating:summarize_ratings"),
    # Compare sorts order through head-to-head wins, not graph_order.
    Target("sorting", "repro.sorting.head_to_head:head_to_head_order"),
    Target("joins", "repro.joins.batching:smart_grids"),
    Target("joins", "repro.joins.batching:smart_grids_for_candidates"),
    Target("joins", "repro.joins.feature_filter:filter_candidates"),
]

LAYERS = list(dict.fromkeys(t.layer for t in TARGETS if t.layer != FINALIZE))


def _hit_ratio(tracer: Tracer, layer: str) -> float:
    lookups = [t.path for t in TARGETS if t.layer == layer and t.count_found]
    calls = sum(tracer.target_calls[path] for path in lookups)
    return sum(tracer.found[path] for path in lookups) / calls if calls else 0.0


def layer_metrics(
    tracer: Tracer, traced_wall_s: float, untraced_wall_s: float, outcomes: list
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``, from the tracer
    and the traced runs' workload outcomes."""
    considerations = sum(o.considerations for o in outcomes)
    assignments = sum(o.completed for o in outcomes)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    metrics["hits.manager.finalize_s"] = (tracer.self_s[FINALIZE], "s")
    metrics["hits.cache.hit_ratio"] = (_hit_ratio(tracer, "hits.cache"), "ratio")
    metrics["hits.store.writes"] = (
        tracer.target_calls["repro.hits.store:PersistentAnswerStore.store"],
        "count",
    )
    metrics["hits.store.hit_ratio"] = (_hit_ratio(tracer, "hits.store"), "ratio")
    metrics["crowd.marketplace.considerations_per_assignment"] = (
        considerations / assignments if assignments else 0.0,
        "ratio",
    )
    metrics["crowd.marketplace.refusals"] = (sum(o.refusals for o in outcomes), "count")
    metrics["crowd.marketplace.virtual_makespan_s"] = (
        sum(o.virtual_makespan_s for o in outcomes),
        "s",
    )
    metrics["relational.rows_built"] = (tracer.calls["relational"], "count")
    metrics["trace.unattributed_s"] = (tracer.unattributed(traced_wall_s), "s")
    metrics["trace.overhead_ratio"] = (
        traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0,
        "ratio",
    )
    return metrics
