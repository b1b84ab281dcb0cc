"""Hybrid sort (§4.1.3): rate first, then repair with comparison windows.

The hybrid algorithm starts from the rating-based order L and iteratively
picks windows of S items to re-order with one comparison HIT each. The user
buys accuracy one HIT at a time, interpolating between Rate quality
(~τ 0.78 on squares) and Compare quality (τ 1.0) — Figure 7.

Three window-selection strategies from the paper:

* **Random** — S random items per iteration.
* **Confidence-based** — consecutive windows scored by rating-uncertainty
  overlap Rᵢ = Σ max(μa + σa − μb − σb, 0) over in-window pairs (μa < μb);
  windows with the most overlap (least confidence) are repaired first.
* **Sliding window** — consecutive windows advancing by a stride t, wrapping
  around the list; strides that are not divisors of N shift phase on each
  pass, letting far-from-home items keep migrating (why Window 6 beats
  Window 5 on 40 items).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.errors import QurkError
from repro.sorting.head_to_head import head_to_head_order
from repro.sorting.rating import RatingSummary, order_by_rating
from repro.util.rng import RandomSource

CompareFunction = Callable[[Sequence[str]], Mapping[tuple[str, str], str]]
"""Runs one comparison HIT on a window; returns per-pair winners."""


class WindowStrategy:
    """Chooses which positions of the current order to repair next."""

    def next_window(
        self,
        order: Sequence[str],
        summaries: Mapping[str, RatingSummary],
        iteration: int,
    ) -> list[int]:
        """Positions (indices into ``order``) of the next window."""
        raise NotImplementedError


class RandomStrategy(WindowStrategy):
    """Pick S random items each iteration."""

    def __init__(self, window_size: int, seed: int = 0) -> None:
        self.window_size = window_size
        self._rng = RandomSource(seed).child("hybrid-random")

    def next_window(
        self,
        order: Sequence[str],
        summaries: Mapping[str, RatingSummary],
        iteration: int,
    ) -> list[int]:
        size = min(self.window_size, len(order))
        return sorted(self._rng.sample(range(len(order)), size))


class ConfidenceStrategy(WindowStrategy):
    """Repair the least-confident consecutive windows first.

    Window scores are computed once from the initial rating statistics and
    consumed in decreasing order (wrapping around when iterations exceed the
    number of windows), per §4.1.3.
    """

    def __init__(self, window_size: int) -> None:
        self.window_size = window_size
        self._ranked_starts: list[int] | None = None

    @staticmethod
    def window_overlap(
        window_items: Sequence[str], summaries: Mapping[str, RatingSummary]
    ) -> float:
        """Rᵢ: total pairwise σ-interval overlap within a window."""
        total = 0.0
        for i in range(len(window_items)):
            for j in range(len(window_items)):
                if i == j:
                    continue
                a = summaries[window_items[i]]
                b = summaries[window_items[j]]
                if a.mean < b.mean or (a.mean == b.mean and i < j):
                    total += max(a.mean + a.std - (b.mean - b.std), 0.0)
        return total

    def next_window(
        self,
        order: Sequence[str],
        summaries: Mapping[str, RatingSummary],
        iteration: int,
    ) -> list[int]:
        size = min(self.window_size, len(order))
        if self._ranked_starts is None:
            scores = _window_scores_indexed(order, summaries, size)
            scores.sort(key=lambda pair: (-pair[0], pair[1]))
            self._ranked_starts = [start for _, start in scores]
        starts = self._ranked_starts
        start = starts[iteration % len(starts)]
        return list(range(start, start + size))


def _window_scores_indexed(
    order: Sequence[str],
    summaries: Mapping[str, RatingSummary],
    size: int,
) -> list[tuple[float, int]]:
    """Every consecutive window's Rᵢ via a sliding pair-contribution index.

    Calling :meth:`ConfidenceStrategy.window_overlap` for each of the
    N−S+1 windows would cost O(S²) mean/σ lookups and ``max`` evaluations
    per window, with the same pair re-derived in up to S−1 neighbouring
    windows. Here each qualifying ordered pair (p, q) within sliding
    distance (|p−q| < S) is scored exactly once — advancing the window by
    one position only ever introduces the S−1 pairs that end at the
    entering item — and windows then *sum* their pairs from the index.
    Sums deliberately re-add the S² table entries per window in
    ``window_overlap``'s (p, q) iteration order rather than sliding the
    float total itself: float addition is not associative, and a drifting
    running sum could re-rank windows whose ``window_overlap`` scores tie
    exactly (the ranked order feeds the hybrid repair trajectory).
    """
    n = len(order)
    means = [summaries[item].mean for item in order]
    stds = [summaries[item].std for item in order]
    rows: list[list[tuple[int, float]]] = []
    for p in range(n):
        row: list[tuple[int, float]] = []
        for q in range(max(0, p - size + 1), min(n, p + size)):
            if q == p:
                continue
            if means[p] < means[q] or (means[p] == means[q] and p < q):
                row.append(
                    (q, max(means[p] + stds[p] - (means[q] - stds[q]), 0.0))
                )
        rows.append(row)
    scores: list[tuple[float, int]] = []
    for start in range(0, n - size + 1):
        end = start + size
        total = 0.0
        for p in range(start, end):
            for q, value in rows[p]:
                if start <= q < end:
                    total += value
        scores.append((total, start))
    return scores


class SlidingWindowStrategy(WindowStrategy):
    """Consecutive windows advancing by stride t, wrapping mod N."""

    def __init__(self, window_size: int, stride: int) -> None:
        if stride < 1:
            raise QurkError("stride must be positive")
        self.window_size = window_size
        self.stride = stride

    def next_window(
        self,
        order: Sequence[str],
        summaries: Mapping[str, RatingSummary],
        iteration: int,
    ) -> list[int]:
        size = min(self.window_size, len(order))
        n = len(order)
        offset = (iteration * self.stride) % n
        return [(offset + k) % n for k in range(size)]


class HybridSorter:
    """Iteratively repairs a rating order with comparison windows.

    Each :meth:`step` spends exactly one comparison HIT. Window items are
    re-ordered by head-to-head wins and written back into the window's
    positions in ascending order — including across a wrap, which is what
    lets items migrate between the ends of the list over multiple passes.
    """

    def __init__(
        self,
        summaries: Mapping[str, RatingSummary],
        strategy: WindowStrategy,
        compare: CompareFunction,
    ) -> None:
        if not summaries:
            raise QurkError("cannot sort an empty item set")
        self.summaries = dict(summaries)
        self.strategy = strategy
        self.compare = compare
        self.order: list[str] = order_by_rating(self.summaries)
        self.iterations = 0
        self.hits_spent = 0

    def step(self) -> list[str]:
        """Run one repair iteration (one comparison HIT); returns the order."""
        positions = self.strategy.next_window(
            self.order, self.summaries, self.iterations
        )
        if len(set(positions)) != len(positions):
            raise QurkError(f"strategy returned duplicate positions {positions}")
        window_items = [self.order[position] for position in positions]
        winners = self.compare(window_items)
        repaired = head_to_head_order(window_items, winners)
        for position, item in zip(sorted(positions), repaired):
            self.order[position] = item
        self.iterations += 1
        self.hits_spent += 1
        return list(self.order)

    def run(self, iterations: int) -> list[list[str]]:
        """Run several iterations; returns the order after each one."""
        return [self.step() for _ in range(iterations)]
