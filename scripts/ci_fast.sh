#!/usr/bin/env sh
# Fast CI lane: the full test suite minus the >30s benchmark artifacts,
# plus the persistent-store warm-path smoke guard.
#
#   scripts/ci_fast.sh            # from the repo root
#
# Eight stages, all minutes-not-hours:
#   1. `pytest -m "not slow"` over tests/ — every correctness, contract,
#      determinism, and durability test (the `slow` marker only exists on
#      long benchmark measurements, so nothing tier-1 is skipped);
#   2. `python -m repro.analysis src tests` — the determinism & contract
#      linter (docs/LINT.md): fails on any non-baselined finding and on
#      stale baseline entries (shrink-only);
#   3. registry smoke — the four builtin task types plus the scenario
#      pack resolve through the executor registry, and both scenario
#      types parse/plan end-to-end (a broken registration fails here,
#      before the benchmarks);
#   4. `pytest benchmarks/bench_scenarios.py` — the scenario-pack
#      benchmarks at their fast settings, (re)recording
#      benchmarks/BENCH_scenarios.json (deterministic: the same bytes
#      unless the scenarios' results moved);
#   5. `profile_hotpath.py --check-store` — the store cold/warm restart
#      micro-bench in smoke mode, failing on a >5% warm-path wall
#      regression against the ratio recorded in benchmarks/BENCH_store.json
#      (run `pytest benchmarks/bench_store.py` to (re)record it);
#   6. `vector_smoke.py` — the 4x macro under the scalar path vs the
#      REPRO_VECTOR numpy kernel: cross-domain workload counts within
#      tolerance and vector run-to-run determinism. Exits 0 with a notice
#      when numpy ([vector] extra) is not installed;
#   7. `pytest perfbench/tests` — the benchmark's layer tracer, which
#      patches engine entry points (`Row.__init__`, `answer_hit`, ...) by
#      name, so renaming or reshaping one fails here (~2s);
#   8. clean-tree guard — fails if the stages above changed a tracked file
#      or left an untracked, unignored one (compared with the tree as the
#      script found it, so local edits in progress do not trip it). A
#      writer that trips it is fixed to write a gitignored path.
#
# The heavyweight lane stays `scripts/profile_hotpath.py --check` plus
# `pytest benchmarks/bench_*.py -q` (bench files do not match pytest's
# default `test_*` pattern, so a bare `pytest benchmarks` collects nothing).

set -e

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

tree_state() {
    git diff HEAD --binary
    git status --porcelain --untracked-files=all
}
tree_before=$(tree_state | cksum)

python -m pytest tests -q -m "not slow"
python -m repro.analysis src tests
python - <<'EOF'
# Registry smoke: builtins + scenario pack resolve, scenarios execute.
from repro.scenarios.categorize import run_categorize_variant, categorize_dataset
from repro.scenarios.er_join import run_er_join_variant, er_join_dataset
from repro.tasks.registry import default_registry

available = default_registry().available()
for key in ("Categorize", "EquiJoin", "ErJoin", "Filter", "Generative", "Rank"):
    assert key in available, f"{key} missing from registry: {available}"

from repro.joins.batching import JoinInterface

er = run_er_join_variant(er_join_dataset(seed=0), "smoke", JoinInterface.SMART, seed=0)
assert er.recall >= 0.7, er
cat = run_categorize_variant(categorize_dataset(n=8, seed=0), "smoke", batch_size=4, seed=0)
assert cat.accuracy >= 0.8, cat
print(f"registry smoke OK: {len(available)} task types, "
      f"er recall={er.recall:.2f}, categorize accuracy={cat.accuracy:.2f}")
EOF
python -m pytest benchmarks/bench_scenarios.py -q
python scripts/profile_hotpath.py --check-store --check-repeats "${CI_STORE_REPEATS:-3}"
python scripts/vector_smoke.py
python -m pytest -q perfbench/tests
if [ "$(tree_state | cksum)" != "$tree_before" ]; then
    echo "ci_fast.sh changed the working tree:" >&2
    git status --short >&2
    exit 1
fi
echo "clean-tree guard OK"
