"""PERF — the hot-path overhaul's wall-clock evidence.

Unlike the paper-artifact benchmarks, this one measures *wall-clock*.
Micro benchmarks cover the three layers the hot-path overhaul rebuilt —
RNG child derivation, weighted sampling, and HIT building — and the macro
benchmark runs the Table 5 end-to-end movie query (the unoptimized
Simple-join + Compare-sort plan and the optimized Filter + Smart 5x5 + Rate
plan) at 1x/4x/16x dataset scale. Scaled runs extend the posting deadline
proportionally so every HIT group completes (the 8-hour default would
otherwise cut off the 16x group mid-flight and change the workload).

Speedups are taken against ``RECORDED_BEFORE_SECONDS``: the wall-clock the
pre-overhaul implementations recorded on these exact workloads (the
``before_seconds`` of ``BENCH_perf_hotpath.json`` when both implementations
still shipped). Those implementations are gone, so the baseline is a
constant; a speedup computed on much slower or faster hardware than the
recording's says more about the host than about the code. The macro legs
assert the recorded HIT and assignment counts, so the comparison is always
against the identical simulated workload. Acceptance is a >= 3x speedup on
the 16x macro.

The vector legs extend the macro sweep to 64x and 256x under the
``REPRO_VECTOR`` numpy kernel, against the scalar path at the same scale.
They run the *optimized* Table 5 variant only: the unoptimized
compare-sort plan is quadratic in scale and exists to price the paper's
baseline, not to carry the 256x stress run. The headline bar is the
same-workload vector/scalar wall ratio at 256x, held to the recorded ratio
plus 5%. With numpy absent the vector legs are skipped and the recorded
JSON simply omits them.

Results land in ``benchmarks/BENCH_perf_hotpath.json``. The bit-identical
vote-stream contract lives in ``tests/test_determinism_trace.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.crowd import SimulatedMarketplace
from repro.crowd.latency import LatencyConfig, LatencyModel
from repro.datasets.movie import movie_dataset
from repro.experiments.end_to_end import QUERY_NO_FILTER, QUERY_WITH_FILTER
from repro.hits.manager import TaskManager
from repro.hits.hit import FilterPayload, FilterQuestion
from repro.joins.batching import JoinInterface
from repro.util import vector as vector_toggle
from repro.util.rng import RandomSource, child_seed

# The whole module rides on one >30s measurement fixture
# (test_micro_speedups et al.); the registered `slow` marker lets tier-1
# deselect it locally with -m "not slow" without changing default runs.
pytestmark = pytest.mark.slow

RESULTS_PATH = Path(__file__).parent / "BENCH_perf_hotpath.json"

MACRO_SCALES = (1, 4, 16)
MACRO_TARGET_SPEEDUP_AT_16X = 3.0

RECORDED_BEFORE_SECONDS = {
    "rng_child_derivation": 0.0335,
    "weighted_sampling": 0.0718,
    "hit_build": 0.003,
    "scale_1x": 0.39,
    "scale_4x": 2.417,
    "scale_16x": 46.154,
}
"""Wall-clock of the pre-overhaul implementations on each workload below."""

RECORDED_MACRO_COUNTS = {
    "scale_1x": (1201, 6005),
    "scale_4x": (5494, 27470),
    "scale_16x": (32258, 161290),
}
"""(HITs, assignments) of the macro workloads the baseline was timed on."""

# Scalar vs REPRO_VECTOR legs (optimized variant only; see module
# docstring). The 4x leg doubles as the baseline for the CI wall-ratio
# guard in scripts/profile_hotpath.py --check.
VECTOR_SCALES = (4, 64, 256)
VECTOR_COUNT_TOLERANCE = 0.02
RECORDED_VECTOR_RATIO_AT_256X = 0.583
VECTOR_RATIO_REGRESSION_LIMIT = 1.05


# -- measurement helpers ----------------------------------------------------


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _against_recorded(name: str, after: float) -> dict:
    before = RECORDED_BEFORE_SECONDS[name]
    return {
        "before_seconds": before,
        "after_seconds": round(after, 4),
        "speedup": round(before / after, 2) if after > 0 else float("inf"),
    }


# -- micro workloads --------------------------------------------------------


def _micro_child_seed() -> None:
    # Experiment harnesses re-derive the same component children across
    # variants/trials; the derivation is memoized.
    for _ in range(40):
        for label in range(500):
            child_seed(7, "component", label)


def _micro_weighted_sampling() -> None:
    rng = RandomSource(3)
    weights = [1.0 / (i + 1) ** 0.9 for i in range(150)]
    for _ in range(4000):
        rng.weighted_index(weights)
        rng.zipf_index(150, 0.9)


def _micro_hit_build() -> None:
    # Effort estimation is needed eagerly; HTML is only needed if read.
    class _NullPlatform:
        clock_seconds = 0.0

        def post_hit_group(self, hits, group_id=None):  # pragma: no cover
            return []

    manager = TaskManager(_NullPlatform())
    units = [
        [FilterPayload("flt", (FilterQuestion(f"img://item/{i}"),))]
        for i in range(600)
    ]
    manager.build_hits(units, batch_size=5, assignments=5, label="bench")


# -- macro workload: Table 5 end-to-end -------------------------------------


def _run_table5_variant(scale: int, variant: str, seed: int = 0) -> tuple[int, int]:
    """One headline Table 5 plan end-to-end; returns (hits, assignments)."""
    data = movie_dataset(seed=seed, scale=scale)
    latency = LatencyModel(LatencyConfig(deadline_hours=8.0 * scale))
    market = SimulatedMarketplace(data.truth, seed=seed, latency=latency)
    if variant == "unoptimized":
        config = ExecutionConfig(
            join_interface=JoinInterface.SIMPLE,
            use_feature_filters=False,
            sort_method="compare",
            compare_group_size=5,
        )
        query = QUERY_NO_FILTER
    else:
        config = ExecutionConfig(
            join_interface=JoinInterface.SMART,
            grid_rows=5,
            grid_cols=5,
            use_feature_filters=True,
            generative_batch_size=5,
            sort_method="rate",
            compare_group_size=5,
            rate_batch_size=5,
        )
        query = QUERY_WITH_FILTER
    engine = Qurk(platform=market, config=config)
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    engine.execute(query)
    return engine.ledger.total_hits, market.stats.assignments_completed


def _measure_macro(scale: int) -> dict:
    name = f"scale_{scale}x"
    repeats = 2 if scale < 16 else 1
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        hits_a, asn_a = _run_table5_variant(scale, "unoptimized")
        hits_b, asn_b = _run_table5_variant(scale, "optimized")
        best = min(best, time.perf_counter() - start)
    counts = (hits_a + hits_b, asn_a + asn_b)
    # The baseline was timed on exactly this simulated workload.
    assert counts == RECORDED_MACRO_COUNTS[name], (name, counts)
    return {"hits": counts[0], "assignments": counts[1], **_against_recorded(name, best)}


def _measure_vector(scale: int) -> dict:
    """Scalar vs vector-kernel wall clock at one macro scale.

    The two determinism domains draw different answers, and
    answer-dependent feature filtering then shifts the posted workload
    slightly (~0.2% at 256x), so counts are pinned within
    ``VECTOR_COUNT_TOLERANCE`` rather than bit-equal.
    """
    counts: dict[str, tuple[int, int]] = {}
    timings: dict[str, float] = {}
    # Small-scale legs are fractions of a second, and the 4x ratio is the
    # CI guard's baseline — best-of keeps it off the noise floor.
    repeats = 3 if scale < 64 else 1
    for label, vector_on in (("scalar", False), ("vector", True)):
        with vector_toggle.forced(vector_on):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                counts[label] = _run_table5_variant(scale, "optimized")
                best = min(best, time.perf_counter() - start)
            timings[label] = best
    for scalar_count, vector_count in zip(counts["scalar"], counts["vector"]):
        assert abs(vector_count - scalar_count) <= max(
            2, VECTOR_COUNT_TOLERANCE * scalar_count
        ), counts
    return {
        "hits": counts["vector"][0],
        "assignments": counts["vector"][1],
        "scalar_seconds": round(timings["scalar"], 3),
        "vector_seconds": round(timings["vector"], 3),
        "ratio": round(timings["vector"] / timings["scalar"], 3),
    }


# -- the benchmark ----------------------------------------------------------


@pytest.fixture(scope="module")
def results() -> dict:
    micro = {
        "rng_child_derivation": _against_recorded(
            "rng_child_derivation", _best_of(_micro_child_seed)
        ),
        "weighted_sampling": _against_recorded(
            "weighted_sampling", _best_of(_micro_weighted_sampling)
        ),
        "hit_build": _against_recorded("hit_build", _best_of(_micro_hit_build)),
    }
    macro = {f"scale_{scale}x": _measure_macro(scale) for scale in MACRO_SCALES}
    payload = {
        "benchmark": "perf_hotpath",
        "modes": {
            "before": "recorded wall-clock of the pre-overhaul implementations",
            "after": "scalar path (default)",
            "vector": "REPRO_VECTOR=1 (numpy batch dispatch kernel)",
        },
        "micro": micro,
        "macro": macro,
    }
    if vector_toggle.available():
        payload["vector_macro"] = {
            f"scale_{scale}x": _measure_vector(scale) for scale in VECTOR_SCALES
        }
    RESULTS_PATH.write_text(json.dumps(payload, indent=1))
    return payload


def test_micro_speedups(results):
    print()
    print(json.dumps(results["micro"], indent=1))
    # Each rebuilt layer must stay faster than the implementation it replaced.
    for name, row in results["micro"].items():
        assert row["speedup"] > 1.2, (name, row)


def test_macro_speedup_grows_with_scale(results):
    print()
    print(json.dumps(results["macro"], indent=1))
    speedups = [results["macro"][f"scale_{s}x"]["speedup"] for s in MACRO_SCALES]
    # The old implementations degraded superlinearly (O(n) pops, O(n^3)
    # covering scans); the advantage must widen as the dataset grows.
    assert speedups[-1] > speedups[0]


def test_macro_16x_meets_target(results):
    row = results["macro"]["scale_16x"]
    assert row["speedup"] >= MACRO_TARGET_SPEEDUP_AT_16X, row


def test_vector_macro_beats_scalar_at_scale(results):
    """The kernel's batching must pay off where it matters: at 64x and
    256x the vector leg beats the scalar path outright."""
    if "vector_macro" not in results:
        pytest.skip("numpy not installed; vector legs not measured")
    print()
    print(json.dumps(results["vector_macro"], indent=1))
    for scale in (64, 256):
        row = results["vector_macro"][f"scale_{scale}x"]
        assert row["ratio"] < 1.0, (scale, row)


def test_vector_256x_ratio_within_recorded(results):
    """The headline bar: on the identical 256x workload, the vector kernel's
    wall-clock stays within 5% of its recorded ratio to the scalar path."""
    if "vector_macro" not in results:
        pytest.skip("numpy not installed; vector legs not measured")
    row = results["vector_macro"]["scale_256x"]
    limit = RECORDED_VECTOR_RATIO_AT_256X * VECTOR_RATIO_REGRESSION_LIMIT
    assert row["ratio"] <= limit, (row, limit)


def test_results_recorded(results):
    recorded = json.loads(RESULTS_PATH.read_text())
    assert recorded["macro"]["scale_16x"]["after_seconds"] > 0
    if "vector_macro" in recorded:
        assert recorded["vector_macro"]["scale_256x"]["vector_seconds"] > 0
