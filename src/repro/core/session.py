"""Multi-query sessions: one marketplace, many concurrent queries.

The paper frames Qurk as a workflow engine serving *many* users' queries
against one crowd marketplace; this module is that serving layer. An
:class:`EngineSession` accepts N queries and runs each through the
pipelined scheduler (:mod:`repro.core.scheduler`) as a named client of one
shared :class:`~repro.crowd.marketplace.SimulatedMarketplace` virtual
clock, with three session-level guarantees:

* **Fair round-robin admission.** Each live query advances by one
  scheduler effect per round (:meth:`PipelineScheduler.step_once`), so a
  heavyweight query cannot starve a light one of marketplace admission;
  the session's admission log records the interleaving.
* **Cross-query HIT dedup.** Every query posts through a
  :class:`~repro.hits.cache.TaskCacheView` over one shared
  :class:`~repro.hits.cache.TaskCache`: identical units posted by
  different queries are asked of the crowd once and fanned out, with the
  borrowed assignments (and dollars saved) attributed per query.
* **Budget isolation.** Each query has its own
  :class:`~repro.hits.pricing.CostLedger` and ``max_budget``; a
  :class:`~repro.errors.BudgetExceededError` (or any other failure) in
  one query settles that query's outstanding groups and is recorded on
  its handle — sibling queries' ledgers and executions are untouched.

Determinism
-----------
Each query's marketplace draws come from its own client stream keyed by
*its own* posting order (see "Named clients" in
:mod:`repro.crowd.marketplace`), so a query's rows, votes, and ledger are
bit-identical whether the session runs its queries concurrently or
serially (``run(concurrent=False)``) — concurrency changes completion
*times*, not results. A single-query session runs on the marketplace's
default client stream and is bit-identical to a plain
:class:`~repro.core.engine.Qurk` execution, which
``tests/test_determinism_trace.py`` pins against the golden trace.

The exception is deliberate: cross-query cache sharing lets a query reuse
a sibling's answers, in which case its votes equal the sibling's instead
of fresh draws. Cached entries belong to whichever query posts a unit
first, and *that* is a property of the schedule — for queries that share
HITs, the two run modes can disagree about which sibling posts a shared
unit first (and therefore whose stream answered it and who paid). Each
unit is still asked of the crowd exactly once in either mode; per-query
bit-identicality across modes is guaranteed for queries that share no
HITs, and holds for shared-HIT workloads whenever the admission order of
the shared units is the same under both schedules (e.g. identical queries
progressing in lockstep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.adaptive import AdaptiveState, build_state
from repro.core.context import ExecutionConfig, QueryContext
from repro.core.engine import (
    MarketplaceSnapshot,
    QueryResult,
    parse_single_select,
    register_task_definitions,
    resolve_store,
    store_counters,
    store_summary_delta,
)
from repro.core.executor import run_plan
from repro.core.explain import render_session_summary
from repro.core.optimizer import optimize
from repro.core.plan import PlanNode
from repro.core.planner import build_plan
from repro.core.scheduler import PipelineScheduler
from repro.crowd.marketplace import MarketplaceClient
from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    MarketplaceError,
    PlanError,
)
from repro.hits.cache import HITCache, TaskCache, TaskCacheView
from repro.hits.manager import CrowdPlatform, TaskManager, platform_supports_overlap
from repro.hits.pricing import CostLedger
from repro.hits.resilience import ResilienceState, build_resilience
from repro.hits.store import StoreSpec
from repro.language.ast import SelectQuery
from repro.relational.catalog import Catalog
from repro.relational.table import Table
from repro.sorting.groups import CoveringDesigns
from repro.util import adapt as adapt_toggle
from repro.util import pipeline as pipeline_toggle
from repro.util import resilience as resilience_toggle
from repro.util import store as store_toggle
from repro.util import vector as vector_toggle
from repro.util.gcpause import paused_gc


_SESSION_FAULT_COUNTERS = (
    "abandoned_assignments",
    "expired_slots",
    "spam_assignments",
    "straggler_assignments",
    "transient_errors",
)
"""Marketplace fault counters snapshotted per query (default-client case)."""


@dataclass
class SessionQuery:
    """One submitted query's handle: inputs before :meth:`EngineSession.run`,
    outcome after.

    Exactly one of ``result`` / ``error`` is set once the session ran.
    """

    key: str
    """Stable session-assigned id (``q0``, ``q1``, ... in submission order);
    also the query's marketplace client id in multi-query sessions."""

    label: str
    query: str | SelectQuery
    catalog: Catalog
    config: ExecutionConfig

    plan: PlanNode | None = None
    result: QueryResult | None = None
    error: Exception | None = None

    # live machinery, populated by the session at run time
    ledger: CostLedger = field(default_factory=CostLedger)
    cache_view: TaskCacheView | None = None
    client: MarketplaceClient | None = None
    ctx: QueryContext | None = None
    adapt_state: AdaptiveState | None = None
    """The query's own adaptive-optimizer state. Estimate state is
    strictly per-query under concurrency: each query's selectivity book
    sees only its own observations, so its re-planning is a deterministic
    function of its own progress, never of how far siblings happen to have
    advanced in the round-robin."""
    resilience_state: ResilienceState | None = None
    """The query's own resilience bundle (retry policy, degradation
    summary, circuit breaker); ``None`` when the layer is inert. Strictly
    per-query: an aborted or degraded query settles its own groups while
    siblings and the shared cache stay untouched."""
    epoch: float = 0.0
    _sched: PipelineScheduler | None = None
    _stats_before: tuple[int, int, int] | None = None
    _faults_before: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        """Whether the query completed (vs failed or not yet run)."""
        return self.result is not None

    @property
    def cross_cache_hits(self) -> int:
        """HIT lookups this query served from another query's entries."""
        return self.cache_view.cross_hits if self.cache_view is not None else 0

    @property
    def cross_assignments_shared(self) -> int:
        """Assignments this query reused instead of re-posting."""
        return self.cache_view.cross_assignments if self.cache_view is not None else 0


@dataclass
class SessionStats:
    """Session-level overlap and sharing economics."""

    mode: str
    """``concurrent`` (round-robin over pipelined schedulers) or ``serial``
    (each query to completion in submission order)."""

    queries: int = 0
    completed: int = 0
    failed: int = 0
    epoch: float = 0.0
    makespan_seconds: float = 0.0
    """Virtual span from the session epoch to the last harvested finish —
    what a requester waits for the whole batch."""

    serial_latency_seconds: float = 0.0
    """Sum of the per-query virtual spans — what running the queries one
    after another would have taken."""

    cross_cache_hits: int = 0
    cross_assignments_shared: int = 0
    cost_saved: float = 0.0
    """Dollars the cross-query sharing avoided re-spending."""

    store_summary: dict[str, object] | None = None
    """Persistent-answer-store traffic for the whole run when the session's
    shared cache is a :class:`~repro.hits.store.PersistentAnswerStore`
    (hits/misses, disk reuse, evictions, dollars saved); None otherwise.
    Session-wide rather than per-query: the store is shared, so disk reuse
    belongs to the batch, not to whichever sibling happened to ask first."""

    groups_posted: dict[str, int] = field(default_factory=dict)
    admission_log: list[tuple[str, str | None]] = field(default_factory=list)
    """(query key, group id) per marketplace submission, in admission
    order — the observable record of round-robin fairness."""

    @property
    def overlap_speedup(self) -> float:
        """Serial latency over makespan (1.0 = no overlap won anything)."""
        if self.makespan_seconds <= 0:
            return 1.0
        return self.serial_latency_seconds / self.makespan_seconds


@dataclass
class SessionResult:
    """All queries' outcomes plus the session economics."""

    queries: list[SessionQuery]
    stats: SessionStats

    def __getitem__(self, key: str | int | SessionQuery) -> QueryResult:
        """A query's result by handle, key, or submission index.

        Raises the query's recorded error if it failed.
        """
        handle = self._handle(key)
        if handle.error is not None:
            raise handle.error
        assert handle.result is not None
        return handle.result

    def _handle(self, key: str | int | SessionQuery) -> SessionQuery:
        if isinstance(key, SessionQuery):
            return key
        if isinstance(key, int):
            return self.queries[key]
        # Keys take precedence over labels: a label that happens to equal
        # another query's key must not shadow that query.
        for query in self.queries:
            if query.key == key:
                return query
        for query in self.queries:
            if query.label == key:
                return query
        raise KeyError(key)

    @property
    def results(self) -> dict[str, QueryResult]:
        """Completed queries' results by key."""
        return {q.key: q.result for q in self.queries if q.result is not None}

    @property
    def errors(self) -> dict[str, Exception]:
        """Failed queries' errors by key."""
        return {q.key: q.error for q in self.queries if q.error is not None}

    def explain(self) -> str:
        """Per-query EXPLAIN trees plus the session overlap/sharing footer."""
        lines: list[str] = []
        for query in self.queries:
            lines.append(f"== {query.key} ({query.label})")
            if query.error is not None:
                lines.append(f"  failed: {type(query.error).__name__}: {query.error}")
            elif query.result is not None:
                lines.append(query.result.explain())
                if query.cross_cache_hits:
                    lines.append(
                        f"shared: cross_query_cache_hits={query.cross_cache_hits}"
                        f", assignments_reused={query.cross_assignments_shared}"
                    )
        lines.append(render_session_summary(self.stats))
        return "\n".join(lines)


class EngineSession:
    """Run many queries concurrently over one shared crowd marketplace.

    Typical use::

        market = SimulatedMarketplace(truth, seed=1)
        session = EngineSession(platform=market)
        session.register_table(celebs)
        session.define(TASK_DSL)
        h0 = session.submit("SELECT ...")
        h1 = session.submit("SELECT ...", config=other_config)
        outcome = session.run()
        outcome[h0].rows, outcome[h1].total_cost, outcome.stats.overlap_speedup

    Tables, functions, and tasks registered on the session land in its
    default catalog, shared by every query that does not bring its own.
    ``run(concurrent=False)`` executes the same queries one at a time —
    the baseline the benchmarks compare overlap against; per-query results
    are identical either way (see the module docstring). Sessions are
    one-shot: build a new one for another batch.

    Concurrency needs the platform's multi-client
    ``submit_hit_group``/``harvest`` API and the pipelined executor; a
    blocking-only platform (or ``REPRO_PIPELINE=0``) falls back to serial
    execution, and a per-query ``ExecutionConfig(pipeline=False)`` makes
    just that query run depth-first — atomically on its first round-robin
    turn — while its siblings still overlap.
    """

    def __init__(
        self,
        platform: CrowdPlatform,
        config: ExecutionConfig | None = None,
        catalog: Catalog | None = None,
        cache: TaskCache | None = None,
        store: StoreSpec | None = None,
    ) -> None:
        # Honour REPRO_* environment changes made after import (the
        # toggles' import-time capture used to swallow them silently).
        pipeline_toggle.refresh_from_env()
        adapt_toggle.refresh_from_env()
        resilience_toggle.refresh_from_env()
        store_toggle.refresh_from_env()
        vector_toggle.refresh_from_env()
        self.platform = platform
        self.config = config or ExecutionConfig()
        self.catalog = catalog or Catalog()
        self.store = resolve_store(store, cache)
        """The attached persistent answer store (``None`` when no ``store=``
        was configured or ``REPRO_STORE=0`` ignored it)."""
        # Explicit None test: an *empty* store is falsy (len() == 0) but
        # must still serve as the shared cache.
        self.cache: HITCache = (
            self.store if self.store is not None else (cache or TaskCache())
        )
        self._owners: dict[str, str] = {}
        self.designs: CoveringDesigns = {}
        """Covering designs built by the session's compare sorts, shared by
        its queries beside the shared cache."""
        self.queries: list[SessionQuery] = []
        self._ran = False

    # -- registration (mirrors the Qurk facade) ------------------------

    def register_table(self, table: Table, replace: bool = False) -> None:
        """Make a table queryable in the session's default catalog."""
        self.catalog.register_table(table, replace=replace)

    def register_function(
        self, name: str, fn: Callable[..., object], replace: bool = False
    ) -> None:
        """Register a computer-evaluable scalar function."""
        self.catalog.register_function(name, fn, replace=replace)

    def define(self, dsl_text: str, replace: bool = False) -> list[str]:
        """Parse and register TASK definitions; returns the task names."""
        return register_task_definitions(self.catalog, dsl_text, replace=replace)

    # -- building the batch --------------------------------------------

    def submit(
        self,
        query: str | SelectQuery,
        config: ExecutionConfig | None = None,
        catalog: Catalog | None = None,
        label: str | None = None,
    ) -> SessionQuery:
        """Queue a query for the next :meth:`run`; returns its handle.

        ``config`` / ``catalog`` default to the session's; a per-query
        ``config`` is how one query gets its own ``max_budget``,
        ``assignments``, sort method, etc.
        """
        if self._ran:
            raise ExecutionError("session already ran; sessions are one-shot")
        key = f"q{len(self.queries)}"
        handle = SessionQuery(
            key=key,
            label=label or key,
            query=query,
            catalog=catalog or self.catalog,
            config=config or self.config,
        )
        self.queries.append(handle)
        return handle

    # -- execution ------------------------------------------------------

    @paused_gc()
    def run(self, concurrent: bool = True) -> SessionResult:
        """Execute every submitted query; never raises for per-query
        failures (they land on the handles / ``SessionResult.errors``)."""
        if self._ran:
            raise ExecutionError("session already ran; sessions are one-shot")
        if not self.queries:
            raise PlanError("session has no queries; submit() some first")
        self._ran = True
        overlap = platform_supports_overlap(self.platform)
        multi = len(self.queries) > 1
        # With no pipelinable query (REPRO_PIPELINE=0, or every query
        # configured pipeline=False) there is nothing to interleave —
        # report the serial execution that actually happens.
        can_pipeline = overlap and any(self._pipelined(h) for h in self.queries)
        stats = SessionStats(
            mode="concurrent" if concurrent and multi and can_pipeline else "serial",
            queries=len(self.queries),
            epoch=self.platform.clock_seconds,
        )
        store_before = (
            store_counters(self.store) if self.store is not None else None
        )

        for handle in self.queries:
            handle.cache_view = TaskCacheView(
                shared=self.cache, owner=handle.key, owners=self._owners
            )
            if overlap:
                # Single-query sessions stay on the default client stream:
                # that is what makes them bit-identical to a plain engine.
                handle.client = MarketplaceClient(
                    self.platform,
                    client_id=handle.key if multi else None,
                    on_submit=self._admission_logger(stats, handle.key),
                )
            handle.resilience_state = build_resilience(
                handle.config, handle.client or self.platform
            )
            manager = TaskManager(
                handle.client or self.platform,
                ledger=handle.ledger,
                cache=handle.cache_view,
                resilience=handle.resilience_state,
            )
            handle.adapt_state = build_state(handle.config)
            handle.ctx = QueryContext(
                catalog=handle.catalog,
                manager=manager,
                config=handle.config,
                designs=self.designs,
                label=handle.key,
                adapt=handle.adapt_state,
            )

        if stats.mode == "concurrent":
            self._run_concurrent(stats)
        else:
            self._run_serial(stats)

        stats.completed = sum(1 for h in self.queries if h.result is not None)
        stats.failed = sum(1 for h in self.queries if h.error is not None)
        stats.makespan_seconds = self.platform.clock_seconds - stats.epoch
        stats.serial_latency_seconds = sum(
            h.result.elapsed_seconds for h in self.queries if h.result is not None
        )
        stats.cross_cache_hits = sum(h.cross_cache_hits for h in self.queries)
        stats.cross_assignments_shared = sum(
            h.cross_assignments_shared for h in self.queries
        )
        pricing = self.queries[0].ledger.pricing
        stats.cost_saved = pricing.cost(stats.cross_assignments_shared)
        if self.store is not None and store_before is not None:
            stats.store_summary = store_summary_delta(
                self.store, store_before, pricing
            )
        stats.groups_posted = {
            h.key: h.client.groups_posted
            for h in self.queries
            if h.client is not None
        }
        return SessionResult(queries=list(self.queries), stats=stats)

    @staticmethod
    def _admission_logger(stats: SessionStats, key: str):
        def log(_client, ticket) -> None:
            stats.admission_log.append((key, ticket.group_id))

        return log

    def _pipelined(self, handle: SessionQuery) -> bool:
        flag = handle.config.pipeline
        if flag is None:
            flag = pipeline_toggle.enabled()
        return bool(flag)

    def _plan(self, handle: SessionQuery) -> PlanNode:
        parsed = parse_single_select(handle.query, handle.catalog)
        plan = optimize(
            build_plan(parsed, handle.catalog), adapt=handle.adapt_state
        )
        if handle.adapt_state is not None:
            from repro.core.adaptive import preflight

            # Same forecast + whole-plan budget pre-flight as the engine;
            # a budget_preflight abort raises here and lands on this
            # query's handle, before it posts anything.
            preflight(
                handle.adapt_state,
                plan,
                handle.catalog,
                handle.config,
                handle.ledger.pricing,
            )
        return plan

    def _run_serial(self, stats: SessionStats) -> None:
        """Each query to completion, in submission order (the baseline)."""
        for handle in self.queries:
            handle.epoch = self.platform.clock_seconds
            self._note_stats_before(handle)
            try:
                handle.plan = self._plan(handle)
                assert handle.ctx is not None
                rows = run_plan(handle.plan, handle.ctx)
            except Exception as exc:
                if not self._absorb_failure(handle, exc):
                    handle.error = exc
            else:
                self._finalize(handle, rows)

    def _run_concurrent(self, stats: SessionStats) -> None:
        """Round-robin: one scheduler effect per live query per round."""
        live: list[SessionQuery] = []
        for handle in self.queries:
            handle.epoch = self.platform.clock_seconds
            self._note_stats_before(handle)
            try:
                handle.plan = self._plan(handle)
            except Exception as exc:
                handle.error = exc
                continue
            assert handle.ctx is not None
            if self._pipelined(handle):
                handle._sched = PipelineScheduler(handle.plan, handle.ctx)
                handle._sched.prepare()
            live.append(handle)

        while live:
            progressed = False
            for handle in list(live):
                try:
                    if self._turn(handle):
                        progressed = True
                    if handle.result is not None or handle.error is not None:
                        live.remove(handle)
                except Exception as exc:
                    if handle._sched is not None:
                        handle._sched.settle()
                    if not self._absorb_failure(handle, exc):
                        handle.error = exc
                    live.remove(handle)
                    progressed = True
            if live and not progressed:
                stuck = ", ".join(h.key for h in live)
                raise ExecutionError(f"session deadlock; blocked queries: {stuck}")

    def _turn(self, handle: SessionQuery) -> bool:
        """One round-robin turn; returns whether the query progressed."""
        assert handle.ctx is not None and handle.plan is not None
        sched = handle._sched
        if sched is None:
            # Depth-first query (pipeline=False): atomic on its first turn.
            rows = run_plan(handle.plan, handle.ctx)
            self._finalize(handle, rows)
            return True
        progressed = sched.step_once()
        if sched.done:
            self._finalize(handle, sched.finish())
            return True
        return progressed

    def _absorb_failure(self, handle: SessionQuery, exc: Exception) -> bool:
        """Graceful query-level degradation: with the resilience layer
        armed, a budget/platform failure completes the query with the rows
        produced so far (plus an ``aborted`` entry in the degradation
        summary) instead of failing the handle. The scheduler was already
        settled by the caller, so the query's own groups are harvested;
        siblings and the shared cache are untouched. Returns whether the
        failure was absorbed."""
        state = handle.resilience_state
        if state is None or not isinstance(
            exc, (BudgetExceededError, MarketplaceError)
        ):
            return False
        rows = handle._sched.partial_rows() if handle._sched is not None else []
        state.aborted = f"{type(exc).__name__}: {exc}"
        self._finalize(handle, rows)
        return True

    def _note_stats_before(self, handle: SessionQuery) -> None:
        if handle.client is not None:
            return  # per-client deltas come from the facade itself
        live_stats = getattr(self.platform, "stats", None)
        if live_stats is not None:
            handle._stats_before = (
                getattr(live_stats, "considerations", 0),
                getattr(live_stats, "refusals", 0),
                getattr(live_stats, "assignments_completed", 0),
            )
            handle._faults_before = {
                name: getattr(live_stats, name, 0) for name in _SESSION_FAULT_COUNTERS
            }

    def _snapshot(self, handle: SessionQuery) -> MarketplaceSnapshot | None:
        if handle.client is not None:
            return MarketplaceSnapshot(
                considerations=handle.client.considerations,
                refusals=handle.client.refusals,
                assignments_completed=handle.client.assignments_completed,
            )
        if handle._stats_before is not None:
            live_stats = getattr(self.platform, "stats", None)
            before = handle._stats_before
            return MarketplaceSnapshot(
                considerations=getattr(live_stats, "considerations", 0) - before[0],
                refusals=getattr(live_stats, "refusals", 0) - before[1],
                assignments_completed=getattr(live_stats, "assignments_completed", 0)
                - before[2],
            )
        return None

    def _fault_deltas(self, handle: SessionQuery) -> dict[str, int] | None:
        """This query's injected-fault counts (client counters or platform
        stat diffs), for its degradation summary."""
        if handle.client is not None:
            client = handle.client
            return {
                "abandoned_assignments": client.abandoned_assignments,
                "expired_slots": client.expired_slots,
                "spam_assignments": client.spam_assignments,
                "straggler_assignments": client.straggler_assignments,
            }
        if handle._faults_before is not None:
            live_stats = getattr(self.platform, "stats", None)
            return {
                name: getattr(live_stats, name, 0) - before
                for name, before in handle._faults_before.items()
            }
        return None

    def _finalize(self, handle: SessionQuery, rows) -> None:
        assert handle.ctx is not None and handle.plan is not None
        if handle.client is not None and handle.client.last_finish_time is not None:
            elapsed = max(0.0, handle.client.last_finish_time - handle.epoch)
        elif handle.client is not None:
            elapsed = 0.0  # no crowd work reached the marketplace
        else:
            elapsed = self.platform.clock_seconds - handle.epoch
        degradation = None
        state = handle.resilience_state
        if state is not None:
            degradation = state.summary.as_dict()
            faults = self._fault_deltas(handle)
            if faults is not None:
                degradation.update(faults)
            if state.aborted is not None:
                degradation["aborted"] = state.aborted
        handle.result = QueryResult(
            rows=rows,
            plan=handle.plan,
            hit_count=handle.ledger.total_hits,
            assignment_count=handle.ledger.total_assignments,
            total_cost=handle.ledger.total_cost,
            elapsed_seconds=elapsed,
            node_stats=handle.ctx.node_stats,
            marketplace_stats=self._snapshot(handle),
            pipeline_summary=handle.ctx.pipeline_summary,
            adaptive_summary=handle.adapt_state.summary(
                actual_hits=handle.ledger.total_hits,
                actual_cost=handle.ledger.total_cost,
            )
            if handle.adapt_state is not None
            else None,
            degradation_summary=degradation,
        )
