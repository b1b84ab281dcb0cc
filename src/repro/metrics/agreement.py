"""Agreement bookkeeping: vote corpora → κ inputs and worker accuracies."""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.hits.hit import Vote, count_vote_values
from repro.metrics.fleiss import fleiss_kappa, modified_kappa


def vote_count_table(
    corpus: Mapping[str, Sequence[Vote]]
) -> list[dict[object, int]]:
    """Per-question label counts, the input shape for Fleiss' κ."""
    return [count_vote_values(votes) for votes in corpus.values()]


def feature_kappa(corpus: Mapping[str, Sequence[Vote]]) -> float:
    """Standard Fleiss' κ over a feature-extraction vote corpus (Table 4)."""
    return fleiss_kappa(vote_count_table(corpus))


def comparison_kappa(corpus: Mapping[str, Sequence[Vote]]) -> float:
    """Modified κ over pairwise-comparison votes (Figure 6).

    Each comparison question has two possible winners, so k = 2 regardless
    of which item references appear as labels.
    """
    return comparison_kappa_from_counts(vote_count_table(corpus))


def comparison_kappa_from_counts(rows: Sequence[Mapping[object, int]]) -> float:
    """:func:`comparison_kappa` over per-question vote counts a caller
    already took (one :func:`~repro.hits.hit.count_vote_values` each)."""
    return modified_kappa(rows, categories=2)


def comparison_agreement_table(
    corpus: Mapping[str, Sequence[Vote]]
) -> dict[str, float]:
    """Per-question agreement: share of votes for the most popular winner."""
    agreement: dict[str, float] = {}
    for qid, votes in corpus.items():
        if not votes:
            continue
        counts = count_vote_values(votes)
        agreement[qid] = max(counts.values()) / sum(counts.values())
    return agreement


def worker_accuracies(
    corpus: Mapping[str, Sequence[Vote]],
    truth: Callable[[str], object],
    min_tasks: int = 1,
) -> dict[str, tuple[int, float]]:
    """Per-worker (tasks completed, accuracy) against a truth function.

    The §3.3.3 regression feeds on this: does doing more tasks correlate
    with lower accuracy?
    """
    completed: dict[str, int] = {}
    correct: dict[str, int] = {}
    for qid, votes in corpus.items():
        expected = truth(qid)
        for vote in votes:
            completed[vote.worker_id] = completed.get(vote.worker_id, 0) + 1
            if vote.value == expected:
                correct[vote.worker_id] = correct.get(vote.worker_id, 0) + 1
    return {
        worker: (count, correct.get(worker, 0) / count)
        for worker, count in completed.items()
        if count >= min_tasks
    }
