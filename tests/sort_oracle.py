"""Plain reference implementations of the sort layer, for differential tests.

:mod:`repro.sorting.graph` breaks cycles incrementally and orders with a
heap; :mod:`repro.sorting.hybrid` scores confidence windows through a
sliding pair index. The straightforward versions below are what those
optimized implementations must match exactly:

* :func:`break_cycles` — full Tarjan over the whole graph on every sweep,
  deleting the weakest (margin, edge) of each cyclic component, with the
  victim scan over a fresh copy of every edge;
* :func:`topological_order` — Kahn's algorithm whose ready list is
  re-sorted after every step;
* :class:`RecomputingConfidenceStrategy` — every window's overlap
  recomputed from the rating summaries.

They are quadratic-and-worse, which is why they live here and not in
``src/``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import QurkError
from repro.sorting.graph import ComparisonGraph, strongly_connected_components
from repro.sorting.hybrid import ConfidenceStrategy
from repro.sorting.rating import RatingSummary


def break_cycles(graph: ComparisonGraph) -> list[tuple[str, str]]:
    """Delete minimum-margin edges inside SCCs until the graph is acyclic.

    One sweep removes the weakest edge of every cyclic component, then
    Tarjan runs again over the whole graph. Returns the removed edges.
    """
    removed: list[tuple[str, str]] = []
    while True:
        cyclic = [
            component
            for component in strongly_connected_components(graph)
            if len(component) > 1
        ]
        if not cyclic:
            return removed
        for component in cyclic:
            members = set(component)
            internal = [
                (edge, weight)
                for edge, weight in graph.edges.items()
                if edge[0] in members and edge[1] in members
            ]
            victim = min(internal, key=lambda pair: (pair[1], pair[0]))[0]
            graph.remove_edge(*victim)
            removed.append(victim)


def topological_order(graph: ComparisonGraph) -> list[str]:
    """Kahn topological sort, least → most, over a re-sorted ready list."""
    in_degree: dict[str, int] = {node: 0 for node in graph.items}
    for _, loser in graph.edges:
        in_degree[loser] += 1
    ready = sorted(node for node, degree in in_degree.items() if degree == 0)
    order: list[str] = []
    adjacency: dict[str, list[str]] = {node: [] for node in graph.items}
    for winner, loser in graph.edges:
        adjacency[winner].append(loser)
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in sorted(adjacency[node]):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
        ready.sort()
    if len(order) != len(graph.items):
        raise QurkError("graph has cycles; run break_cycles first")
    order.reverse()
    return order


def graph_order(items, corpus) -> list[str]:
    """Votes → cycle-broken topological order, through the oracles above."""
    graph = ComparisonGraph.from_votes(items, corpus)
    break_cycles(graph)
    return topological_order(graph)


class RecomputingConfidenceStrategy(ConfidenceStrategy):
    """:class:`ConfidenceStrategy` scoring each window from scratch."""

    def next_window(
        self,
        order: Sequence[str],
        summaries: Mapping[str, RatingSummary],
        iteration: int,
    ) -> list[int]:
        size = min(self.window_size, len(order))
        if self._ranked_starts is None:
            scores = []
            for start in range(0, len(order) - size + 1):
                window_items = [order[start + k] for k in range(size)]
                scores.append((self.window_overlap(window_items, summaries), start))
            scores.sort(key=lambda pair: (-pair[0], pair[1]))
            self._ranked_starts = [start for _, start in scores]
        start = self._ranked_starts[iteration % len(self._ranked_starts)]
        return list(range(start, start + size))
