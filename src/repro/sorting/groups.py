"""Group generation for comparison sorts (§4.1.1).

The comparison interface shows S items per group and yields C(S, 2)
pairwise comparisons per group, so covering all C(N, 2) pairs needs at
least N(N−1)/(S(S−1)) groups. The greedy generator below may emit
overlapping groups — as the paper notes, "our batch-generation algorithm
may generate overlapping groups, so some pairs may be shown more than 5
times" — but always covers every pair.
"""

from __future__ import annotations

from typing import MutableMapping, Sequence

from repro.errors import QurkError
from repro.util.rng import RandomSource


def pairs_covered(groups: Sequence[Sequence[str]]) -> set[tuple[str, str]]:
    """The set of (sorted) item pairs appearing together in some group."""
    covered: set[tuple[str, str]] = set()
    for group in groups:
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = sorted((group[i], group[j]))
                covered.add((a, b))
    return covered


def minimum_group_count(n_items: int, group_size: int) -> float:
    """The paper's lower bound N(N−1)/(S(S−1)) on group count."""
    return (n_items * (n_items - 1)) / (group_size * (group_size - 1))


class _ArgmaxView:
    """Lazy sequence of the items whose score equals ``best``, in item order.

    ``random.Random.choice(seq)`` consumes one ``_randbelow(len(seq))`` draw
    and reads ``seq[i]`` once. Exposing the argmax candidates through this
    view therefore consumes exactly the draws a materialized candidate list
    would — with the same length and the same i-th element — without
    allocating the list on every greedy pick. Occurrence lookup rides on
    C-level ``list.index``.
    """

    __slots__ = ("scores", "best", "items", "count")

    def __init__(
        self, scores: list[int], best: int, items: list[str], count: int
    ) -> None:
        self.scores = scores
        self.best = best
        self.items = items
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> str:
        scores = self.scores
        best = self.best
        position = scores.index(best)
        for _ in range(index):
            position = scores.index(best, position + 1)
        return self.items[position]


def covering_groups(
    items: Sequence[str], group_size: int, seed: int = 0
) -> list[tuple[str, ...]]:
    """Greedy covering design: groups of ``group_size`` covering all pairs.

    Strategy: repeatedly build a group seeded with the item participating in
    the most uncovered pairs, then grow it with the item covering the most
    new pairs against the current members. Ties break randomly (seeded) so
    repeated trials explore different designs: each pick is one
    ``rng.choice`` over the tied candidates in item order.

    The greedy runs on integer item ids with incremental gains:

    * "is this pair uncovered?" is an integer-set membership;
    * per-pick gains are maintained incrementally in an int array (adding a
      member bumps the gain of its uncovered partners); group members sit
      at a large negative sentinel so they can never tie a real candidate,
      and the argmax/count/select steps all run as C-level list primitives;
    * candidate argmax sets are exposed lazily via :class:`_ArgmaxView`
      instead of materialized per pick.
    """
    unique = list(dict.fromkeys(items))
    if len(unique) != len(items):
        raise QurkError("items must be distinct")
    if group_size < 2:
        raise QurkError("group size must be at least 2")
    if group_size > len(unique):
        raise QurkError(
            f"group size {group_size} exceeds item count {len(unique)}"
        )
    rng = RandomSource(seed).child("covering-groups")
    n = len(unique)
    index_of = {item: i for i, item in enumerate(unique)}
    partners: list[set[int]] = [
        set(range(i)) | set(range(i + 1, n)) for i in range(n)
    ]
    degree = [n - 1] * n
    uncovered_count = n * (n - 1) // 2
    # Members get this sentinel in the gain array; at most group_size
    # increments can land on it afterwards, so it stays below zero while
    # every real candidate's gain is >= 0.
    member_sentinel = -(n + group_size + 1)

    groups: list[tuple[str, ...]] = []
    while uncovered_count:
        # Seed pick: argmax over degree (every item is a candidate).
        best = max(degree)
        first = rng.choice(_ArgmaxView(degree, best, unique, degree.count(best)))
        first_id = index_of[first]
        group = [first]
        group_ids = [first_id]
        # gain[i] = number of current members whose pair with i is uncovered.
        gain = [0] * n
        for p in partners[first_id]:
            gain[p] = 1
        gain[first_id] = member_sentinel
        while len(group) < group_size:
            best = max(gain)
            chosen = rng.choice(_ArgmaxView(gain, best, unique, gain.count(best)))
            chosen_id = index_of[chosen]
            group.append(chosen)
            group_ids.append(chosen_id)
            for p in partners[chosen_id]:
                gain[p] += 1
            gain[chosen_id] = member_sentinel
        for i in range(len(group_ids)):
            a = group_ids[i]
            pa = partners[a]
            for j in range(i + 1, len(group_ids)):
                b = group_ids[j]
                if b in pa:
                    pa.discard(b)
                    partners[b].discard(a)
                    uncovered_count -= 1
                    degree[a] -= 1
                    degree[b] -= 1
        groups.append(tuple(group))
    return groups


CoveringDesigns = MutableMapping[
    tuple[tuple[str, ...], int, int], tuple[tuple[str, ...], ...]
]
"""A memo of built designs keyed on ``(items, group_size, seed)``."""


def memoized_covering_groups(
    designs: CoveringDesigns,
    items: Sequence[str],
    group_size: int,
    seed: int = 0,
) -> tuple[tuple[str, ...], ...]:
    """:func:`covering_groups` through a caller-owned memo.

    The design is a pure function of its arguments (its tie-break stream
    is derived from ``seed`` alone), so a repeat is a lookup. The owner
    scopes the memo: an engine or session holds one beside its shared task
    cache, so the queries that share answers also share designs, and
    separate runs never do.
    """
    key = (tuple(items), group_size, seed)
    groups = designs.get(key)
    if groups is None:
        groups = designs[key] = tuple(covering_groups(key[0], group_size, seed))
    return groups
