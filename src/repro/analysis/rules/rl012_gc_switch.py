"""RL012 — switching the cyclic garbage collector outside gcpause."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo, Rule, register
from repro.analysis.rules.common import imported_roots, resolve_call

_SWITCHES = frozenset({"gc.disable", "gc.enable", "gc.set_threshold", "gc.freeze"})

_OWNER = "src/repro/util/gcpause.py"


@register
class GcSwitchRule(Rule):
    id = "RL012"
    title = "gc.disable/enable/set_threshold/freeze outside repro.util.gcpause"
    rationale = (
        "The collector's switch is process-global. A gc.disable() whose "
        "finally does not restore the entry state leaves every later query, "
        "test and host thread without cyclic collection, and a gc.enable() "
        "inside a paused query lifts the caller's pause. paused_gc() is the "
        "one nest-safe switch; gc.collect() stays free to call."
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.rel_path != _OWNER

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        roots = imported_roots(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node, roots)
            if target in _SWITCHES:
                yield self.finding(
                    module,
                    node,
                    f"{target}() outside {_OWNER}; wrap the block in "
                    "repro.util.gcpause.paused_gc() instead",
                )
