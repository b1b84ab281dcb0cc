"""Pause CPython's cyclic garbage collector around one query.

A query holds every crowd answer alive as a ``Vote`` (and every worker's
pass as an ``Assignment``) until it returns. Both are ``NamedTuple``
subclasses, which CPython never untracks, so a 64x Table-5 query keeps
~267k tracked objects alive and the steadily growing heap triggers several
full collections, each rescanning every live vote. The engine creates
almost no cyclic garbage (a fixed few dozen objects per query, whatever
the scale), so reference counting frees everything and the collector can
wait until the query ends. See "Memory management" in
``docs/ARCHITECTURE.md``.

This is the one module allowed to switch the collector (qurklint RL012).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused_gc() -> Iterator[None]:
    """Disable automatic cyclic collection for the block.

    Nest-safe: on exit the collector is re-enabled only if it was enabled
    on entry, so an inner pause never lifts an outer one and a caller that
    turned the collector off keeps it off. Explicit ``gc.collect()`` calls
    still run inside the block.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
