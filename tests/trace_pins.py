"""Pinned digests of fixed-seed runs that the golden trace does not cover.

The golden trace pins one query (the optimized plan at seed 0). These
digests pin a few more runs, each through a different hot path: the
unoptimized plan (join pairs, compare groups, covering groups), the
optimized plan at another seed, one bare marketplace filter group, and one
fault-injected ticket. Each digest is a SHA-256 over the canonical JSON of
everything the run exposes — rows, votes, virtual clock, ledger, and
marketplace counters — so any moved draw shows up as a digest mismatch.

The recipes live next to the tests that check them
(``test_determinism_trace.plan_trace``,
``test_marketplace.pinned_dispatch_trace``,
``test_resilience.pinned_fault_ticket_trace``). Regenerate the file only
for an intentional stream break, with
``python scripts/regen_golden_trace.py --pins``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

PINS_PATH = Path(__file__).parent / "golden" / "trace_pins.json"


def _jsonable(value: object) -> object:
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    return repr(value)


def trace_digest(trace: object) -> str:
    """SHA-256 of ``trace`` as canonical JSON.

    Dataclasses become their field dicts; any other non-JSON value goes
    through ``repr``. Floats serialise via ``repr`` too, so the digest is
    bit-exact.
    """
    blob = json.dumps(trace, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pinned_digest(name: str) -> str:
    """The digest recorded for ``name`` in ``golden/trace_pins.json``."""
    return json.loads(PINS_PATH.read_text())[name]
