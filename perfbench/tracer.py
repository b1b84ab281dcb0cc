"""Layer spans recorded from outside the program, by patching entry points.

A :class:`Tracer` aggregates spans per layer: the number of calls and the
*self* time, a span's duration minus the time its child spans cover. The
part of a traced wall time that no span covers is its unattributed time
(:meth:`Tracer.unattributed`), so the layers' self times plus the
unattributed time add up to the wall time being traced.

:func:`patched` installs wrapping spans around named entry points for the
duration of a ``with`` block and restores every original on exit. A
module-level function imported by name elsewhere is bound in each
importing module, so every binding in ``sys.modules`` that *is* the
original is replaced. References held elsewhere (dispatch tables,
closures, default arguments) are not reached; their time lands in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


class Tracer:
    """Per-layer call counts and self times from nested spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.found: dict[str, int] = defaultdict(int)
        """Per target: calls that returned something other than ``None``
        (lookups that hit), for targets wrapped with ``count_found``."""
        self.target_calls: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        """Total duration of outermost spans."""
        self._stack: list[list[float]] = []

    def wrap(
        self, layer: str, fn: Callable, target: str | None = None, count_found: bool = False
    ) -> Callable:
        """``fn`` recorded as a span of ``layer`` (counted under ``target``)."""
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            raise TypeError(f"{target or fn!r}: a span would end before the work does")
        target = target or fn.__qualname__
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self.calls[layer] += 1
                self.target_calls[target] += 1
                self.self_s[layer] += duration - frame[1]
                if count_found and result is not None:
                    self.found[target] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.covered_s += duration

        span.__wrapped_by_tracer__ = True
        return span

    def unattributed(self, wall_s: float) -> float:
        """The part of ``wall_s`` (traced by this tracer) no span covers."""
        return wall_s - self.covered_s


@dataclass(frozen=True)
class Target:
    """One entry point: ``"module:function"`` or ``"module:Class.method"``."""

    layer: str
    path: str
    count_found: bool = False

    def resolve(self) -> tuple[object, str, Callable]:
        """(owner, attribute name, original) — for a function the owner is
        its defining module, for a method the class that defines it."""
        module_name, _, qualname = self.path.partition(":")
        owner: object = importlib.import_module(module_name)
        *outer, name = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            original = owner.__dict__.get(name)
            if not inspect.isfunction(original):
                raise TypeError(f"{self.path}: not a plain method defined on {owner.__name__}")
        else:
            original = getattr(owner, name)
            if not inspect.isfunction(original):
                raise TypeError(f"{self.path}: not a function")
        return owner, name, original


def _module_bindings() -> Iterator[tuple[object, str, object]]:
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace:
            for attr, value in list(namespace.items()):
                yield module, attr, value


def _is_span(value: object) -> bool:
    return inspect.isfunction(value) and getattr(value, "__wrapped_by_tracer__", False)


@contextmanager
def patched(tracer: Tracer, targets: list[Target]) -> Iterator[None]:
    """Wrap every target's bindings in spans of ``tracer`` inside the block."""
    spans: dict[int, tuple[Callable, Callable]] = {}  # id(span) -> (span, original)
    functions: dict[int, Callable] = {}  # id(original) -> span
    installed: list[tuple[object, str, Callable]] = []
    try:
        for target in targets:
            owner, name, original = target.resolve()
            if _is_span(original) or id(original) in functions:
                raise RuntimeError(f"{target.path} is already traced")
            span = tracer.wrap(target.layer, original, target.path, target.count_found)
            spans[id(span)] = (span, original)
            if isinstance(owner, type):
                installed.append((owner, name, original))
                setattr(owner, name, span)
            else:
                functions[id(original)] = span
        for module, attr, value in _module_bindings():
            span = functions.get(id(value))
            if span is not None and spans[id(span)][1] is value:
                installed.append((module, attr, value))
                setattr(module, attr, span)
        yield
    finally:
        for owner, name, original in reversed(installed):
            setattr(owner, name, original)
        # A module first imported inside the block may have bound a span.
        for module, attr, value in _module_bindings():
            entry = spans.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


def leaked_spans() -> list[str]:
    """Every module or class binding that still holds a tracer span."""
    leaks = []
    for module, attr, value in _module_bindings():
        if _is_span(value):
            leaks.append(f"{module.__name__}.{attr}")
        elif isinstance(value, type) and value.__module__ == module.__name__:
            leaks.extend(
                f"{module.__name__}.{attr}.{name}"
                for name, member in vars(value).items()
                if _is_span(member)
            )
    return leaks
