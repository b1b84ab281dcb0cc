"""Head-to-head ordering (§4.1.1).

"We can compute the number of HITs in which each item was ranked higher
than other items. This approach, which we call 'head-to-head', provides an
intuitively correct ordering on the data, which is identical to the true
ordering when there are no cycles."

Items are scored by pairwise wins (after per-pair majority voting) and
sorted ascending by score, so the returned order runs least → most — the
same direction as the latent values.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import QurkError
from repro.hits.hit import Vote, count_vote_values


def pair_winners_from_votes(
    corpus: Mapping[str, Sequence[Vote]]
) -> dict[tuple[str, str], str]:
    """Majority winner per comparison question.

    Question ids follow the ``task:cmp:a|b`` convention; the vote values are
    winning item references. Ties break toward the lexicographically smaller
    item for determinism.
    """
    return pair_winners_from_counts(
        {qid: count_vote_values(votes) for qid, votes in corpus.items()}
    )


def pair_winners_from_counts(
    counts_by_qid: Mapping[str, Mapping[object, int]]
) -> dict[tuple[str, str], str]:
    """:func:`pair_winners_from_votes` over per-question vote counts
    (:func:`~repro.hits.hit.count_vote_values`) a caller already took."""
    winners: dict[tuple[str, str], str] = {}
    for qid, counts in counts_by_qid.items():
        if not counts:
            continue
        try:
            pair_part = qid.rsplit(":cmp:", 1)[1]
            a, b = pair_part.split("|", 1)
        except (IndexError, ValueError) as exc:
            raise QurkError(f"malformed comparison qid {qid!r}") from exc
        top = max(counts.values())
        leaders = sorted(
            [value for value, count in counts.items() if count == top], key=str
        )
        winners[(a, b)] = str(leaders[0])
    return winners


class WinCountIndex:
    """Maintained per-item win tallies over a stream of pair outcomes.

    The win-count side of :func:`head_to_head_order`, factored out as a
    maintained index: callers that *accumulate* outcomes — folding in one
    comparison group's winners at a time instead of materialising the
    whole winners map first — pay O(1) per outcome and can read the
    current order (or just the extremes) at any point. Ordering ties
    break by item reference, matching :func:`head_to_head_order` exactly.
    """

    def __init__(self, items: Sequence[str]) -> None:
        self._wins: dict[str, int] = {item: 0 for item in items}

    def record(self, a: str, b: str, winner: str) -> None:
        """Fold in one pair outcome (winner must be one of the two sides)."""
        if winner not in (a, b):
            raise QurkError(
                f"winner {winner!r} is neither side of the pair ({a!r}, {b!r})"
            )
        if winner in self._wins:
            self._wins[winner] += 1

    def wins(self, item: str) -> int:
        """Current win count (0 for unknown items)."""
        return self._wins.get(item, 0)

    def order(self) -> list[str]:
        """Items ascending by (wins, item) — least → most."""
        return sorted(self._wins, key=lambda item: (self._wins[item], item))


def head_to_head_order(
    items: Sequence[str],
    winners: Mapping[tuple[str, str], str],
) -> list[str]:
    """Order items ascending by number of pairwise wins.

    ``winners`` maps (a, b) pairs (any orientation) to the winning item.
    Items never appearing in a pair score zero. Win-count ties break by item
    reference for determinism.
    """
    index = WinCountIndex(items)
    for (a, b), winner in winners.items():
        index.record(a, b, winner)
    # Sort the caller's sequence (not the index keys) so pathological
    # duplicate inputs keep their historical behaviour.
    return sorted(items, key=lambda item: (index.wins(item), item))


def win_fractions(
    items: Sequence[str], corpus: Mapping[str, Sequence[Vote]]
) -> dict[str, float]:
    """Raw vote-level win share per item (no per-pair majority first).

    A smoother score than whole-pair wins; used by EXPLAIN output and the
    hybrid sorter's diagnostics.
    """
    wins: dict[str, int] = {item: 0 for item in items}
    appearances: dict[str, int] = {item: 0 for item in items}
    for qid, votes in corpus.items():
        pair_part = qid.rsplit(":cmp:", 1)
        if len(pair_part) != 2:
            raise QurkError(f"malformed comparison qid {qid!r}")
        a, b = pair_part[1].split("|", 1)
        for vote in votes:
            for side in (a, b):
                if side in appearances:
                    appearances[side] += 1
            if vote.value in wins:
                wins[str(vote.value)] += 1
    return {
        item: (wins[item] / appearances[item]) if appearances[item] else 0.0
        for item in items
    }
