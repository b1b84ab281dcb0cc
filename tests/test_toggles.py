"""The REPRO_* toggles' environment contract.

The toggles used to read their environment variable once, at import, so
``os.environ["REPRO_PIPELINE"] = "0"`` after ``import repro`` was silently
ignored. They now re-read the variable at engine/session construction
(:func:`refresh_from_env`); a *changed* environment value wins, while an
unchanged environment leaves programmatic ``set_enabled`` / ``forced``
overrides alone.
"""

from __future__ import annotations

import os

import pytest

from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import SimulatedMarketplace
from repro.datasets import animals_dataset
from repro.util import adapt, pipeline, resilience, store, vector


def _require_unset(var: str) -> str | None:
    previous = os.environ.get(var)
    if previous is not None:
        pytest.skip(f"{var} is set in this environment; test assumes defaults")
    return previous


def _restore(var: str, previous: str | None) -> None:
    if previous is None:
        os.environ.pop(var, None)
    else:
        os.environ[var] = previous
    pipeline.refresh_from_env()
    adapt.refresh_from_env()
    resilience.refresh_from_env()
    store.refresh_from_env()
    vector.refresh_from_env()


def animals_engine():
    data = animals_dataset()
    market = SimulatedMarketplace(data.truth, seed=1)
    engine = Qurk(platform=market)
    engine.register_table(data.table)
    return engine, data


def test_pipeline_env_set_after_import_takes_effect_at_engine_construction():
    previous = _require_unset("REPRO_PIPELINE")
    try:
        os.environ["REPRO_PIPELINE"] = "0"
        assert pipeline.enabled()  # not yet re-read: construction does that
        engine, _ = animals_engine()
        assert not pipeline.enabled()
        result = engine.execute("SELECT a.name FROM animals a")
        assert result.pipeline_summary is None  # ran depth-first
    finally:
        _restore("REPRO_PIPELINE", previous)
    engine, _ = animals_engine()
    assert pipeline.enabled()
    assert engine.execute("SELECT a.name FROM animals a").pipeline_summary is not None


def test_pipeline_env_honored_by_session_construction():
    previous = _require_unset("REPRO_PIPELINE")
    try:
        os.environ["REPRO_PIPELINE"] = "0"
        data = animals_dataset()
        session = EngineSession(platform=SimulatedMarketplace(data.truth, seed=1))
        assert not pipeline.enabled()
        session.register_table(data.table)
        query = "SELECT a.name FROM animals a"
        h0, h1 = session.submit(query), session.submit(query)
        outcome = session.run()
        assert outcome[h0].pipeline_summary is None
        assert outcome[h1].pipeline_summary is None
        # With nothing pipelinable there is nothing to interleave: the
        # session must report the serial execution that actually happened.
        assert outcome.stats.mode == "serial"
    finally:
        _restore("REPRO_PIPELINE", previous)


def test_adapt_env_set_after_import_takes_effect_at_engine_construction():
    previous = _require_unset("REPRO_ADAPT")
    try:
        os.environ["REPRO_ADAPT"] = "0"
        assert adapt.enabled()  # not yet re-read: construction does that
        engine, _ = animals_engine()
        assert not adapt.enabled()
        result = engine.execute("SELECT a.name FROM animals a")
        assert result.adaptive_summary is None  # static rewriter ran
    finally:
        _restore("REPRO_ADAPT", previous)
    engine, _ = animals_engine()
    assert adapt.enabled()
    assert (
        engine.execute("SELECT a.name FROM animals a").adaptive_summary
        is not None
    )


def test_resilience_env_set_after_import_takes_effect_at_engine_construction():
    previous = _require_unset("REPRO_RESILIENCE")
    try:
        os.environ["REPRO_RESILIENCE"] = "0"
        assert resilience.enabled()  # not yet re-read: construction does that
        engine, _ = animals_engine()
        assert not resilience.enabled()
    finally:
        _restore("REPRO_RESILIENCE", previous)
    animals_engine()
    assert resilience.enabled()


def test_resilience_env_honored_by_session_construction():
    previous = _require_unset("REPRO_RESILIENCE")
    try:
        os.environ["REPRO_RESILIENCE"] = "0"
        data = animals_dataset()
        EngineSession(platform=SimulatedMarketplace(data.truth, seed=1))
        assert not resilience.enabled()
    finally:
        _restore("REPRO_RESILIENCE", previous)


def test_store_env_set_after_import_takes_effect_at_engine_construction(tmp_path):
    previous = _require_unset("REPRO_STORE")
    db_path = tmp_path / "answers.db"
    try:
        os.environ["REPRO_STORE"] = "0"
        assert store.enabled()  # not yet re-read: construction does that
        data = animals_dataset()
        engine = Qurk(
            platform=SimulatedMarketplace(data.truth, seed=1), store=db_path
        )
        assert not store.enabled()
        assert engine.store is None  # configured store ignored entirely
        engine.register_table(data.table)
        result = engine.execute("SELECT a.name FROM animals a")
        assert result.store_summary is None
        assert not db_path.exists()  # not even the file was opened
    finally:
        _restore("REPRO_STORE", previous)
    engine = Qurk(
        platform=SimulatedMarketplace(data.truth, seed=1), store=db_path
    )
    assert store.enabled()
    assert engine.store is not None
    engine.store.close()


def test_store_env_honored_by_session_construction(tmp_path):
    previous = _require_unset("REPRO_STORE")
    db_path = tmp_path / "answers.db"
    try:
        os.environ["REPRO_STORE"] = "0"
        data = animals_dataset()
        session = EngineSession(
            platform=SimulatedMarketplace(data.truth, seed=1), store=db_path
        )
        assert not store.enabled()
        assert session.store is None
        # With the store ignored, the session falls back to a plain
        # in-process TaskCache as its shared cross-query cache.
        from repro.hits.cache import TaskCache

        assert isinstance(session.cache, TaskCache)
        assert not db_path.exists()
    finally:
        _restore("REPRO_STORE", previous)


def test_store_refresh_does_not_clobber_forced_context(tmp_path):
    """An unchanged environment leaves forced()/set_enabled() alone, so a
    forced(False) block survives engine construction inside it."""
    data = animals_dataset()
    db_path = tmp_path / "answers.db"
    with store.forced(False):
        engine = Qurk(
            platform=SimulatedMarketplace(data.truth, seed=1), store=db_path
        )
        assert not store.enabled()
        assert engine.store is None
    assert store.enabled()


def test_vector_env_set_after_import_takes_effect_at_engine_construction():
    """REPRO_VECTOR defaults *off* (opt-in), so the env contract runs in the
    opposite direction from the other toggles: setting the variable after
    import must arm the kernel at the next engine construction."""
    previous = _require_unset("REPRO_VECTOR")
    try:
        os.environ["REPRO_VECTOR"] = "1"
        assert not vector.requested()  # not yet re-read: construction does that
        animals_engine()
        assert vector.requested()
        # enabled() additionally gates on numpy being importable.
        assert vector.enabled() == vector.available()
    finally:
        _restore("REPRO_VECTOR", previous)
    animals_engine()
    assert not vector.requested()
    assert not vector.enabled()


def test_vector_env_honored_by_session_construction():
    previous = _require_unset("REPRO_VECTOR")
    try:
        os.environ["REPRO_VECTOR"] = "1"
        data = animals_dataset()
        EngineSession(platform=SimulatedMarketplace(data.truth, seed=1))
        assert vector.requested()
    finally:
        _restore("REPRO_VECTOR", previous)


def test_vector_refresh_does_not_clobber_forced_context():
    """An unchanged environment leaves forced()/set_enabled() alone, so a
    forced(True) block survives engine construction inside it."""
    _require_unset("REPRO_VECTOR")
    with vector.forced(True):
        animals_engine()
        assert vector.requested()
    assert not vector.requested()


def test_vector_requested_without_numpy_degrades_to_scalar(monkeypatch):
    """With numpy unimportable, a requested kernel must not break anything:
    enabled() stays False, the degradation note appears, a RuntimeWarning
    fires at construction, and the query runs on the scalar path."""
    monkeypatch.setattr(vector, "_NUMPY", None)
    monkeypatch.setattr(vector, "_NUMPY_PROBED", True)
    # Both the forced() entry and engine construction warn; the whole
    # block sits inside pytest.warns so neither leaks into the run log.
    with pytest.warns(RuntimeWarning, match="REPRO_VECTOR"):
        with vector.forced(True):
            assert vector.requested()
            assert not vector.available()
            assert not vector.enabled()
            assert vector.requested_but_unavailable()
            note = vector.status_note()
            assert note is not None and "numpy" in note
            engine, _ = animals_engine()
            result = engine.execute("SELECT a.name FROM animals a")
            assert result.rows
            # The degradation note also reaches the EXPLAIN footer.
            assert "numpy is not installed" in result.explain()


def test_resilience_config_overrides_toggle():
    """ExecutionConfig.resilience beats the toggle in both directions (on a
    faulted marketplace, the only place the layer arms at all)."""
    from repro.core.context import ExecutionConfig
    from repro.crowd import FaultPlan
    from repro.datasets import animals_dataset

    data = animals_dataset()
    query = "SELECT a.name FROM animals a"

    def faulted_engine():
        market = SimulatedMarketplace(
            data.truth, seed=1, faults=FaultPlan(abandonment_rate=0.2)
        )
        engine = Qurk(platform=market)
        engine.register_table(data.table)
        return engine

    with resilience.forced(True):
        result = faulted_engine().execute(
            query, config=ExecutionConfig(resilience=False)
        )
        assert result.degradation_summary is None
    with resilience.forced(False):
        result = faulted_engine().execute(
            query, config=ExecutionConfig(resilience=True)
        )
        assert result.degradation_summary is not None


def test_adapt_config_overrides_toggle():
    from repro.core.context import ExecutionConfig

    engine, _ = animals_engine()
    with adapt.forced(True):
        result = engine.execute(
            "SELECT a.name FROM animals a", config=ExecutionConfig(adapt=False)
        )
        assert result.adaptive_summary is None
    with adapt.forced(False):
        result = engine.execute(
            "SELECT a.name FROM animals a", config=ExecutionConfig(adapt=True)
        )
        assert result.adaptive_summary is not None


def test_refresh_does_not_clobber_programmatic_overrides():
    """An unchanged environment must leave forced()/set_enabled() alone —
    constructing an engine inside a forced(False) block keeps it off."""
    with pipeline.forced(False):
        animals_engine()
        assert not pipeline.enabled()
    assert pipeline.enabled()
    with adapt.forced(False):
        animals_engine()
        assert not adapt.enabled()
    assert adapt.enabled()


def test_env_change_overrides_programmatic_setting():
    previous = os.environ.get("REPRO_ADAPT")
    try:
        adapt.set_enabled(False)
        os.environ["REPRO_ADAPT"] = "1"
        assert adapt.refresh_from_env()  # changed env wins
        assert adapt.enabled()
    finally:
        _restore("REPRO_ADAPT", previous)
