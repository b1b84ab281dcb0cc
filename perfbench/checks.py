"""Row checks for the movie query's output and its accuracy against truth.

The invariants hold for any seed; the digests in ``digests.json`` pin the
exact rows each workload returns at the default seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.datasets.movie import MovieDataset

DIGESTS = Path(__file__).with_name("digests.json")


def row_problems(rows: list[tuple[str, str]], data: MovieDataset) -> list[str]:
    """Invariant breaches in one query's (a.name, s.img) rows."""
    actors = {str(row["name"]) for row in data.actors}
    scenes = {str(row["img"]) for row in data.scenes}
    problems = []
    missing = [pair for pair in rows if pair[0] not in actors or pair[1] not in scenes]
    if missing:
        problems.append(f"{len(missing)} rows not in the input tables, e.g. {missing[0]}")
    names = [name for name, _ in rows]
    if names != sorted(names):
        problems.append("rows are not ordered by a.name")
    if len(set(rows)) != len(rows):
        problems.append(f"{len(rows) - len(set(rows))} duplicate rows")
    return problems


def accuracy(rows: list[tuple[str, str]], data: MovieDataset) -> tuple[int, int, int]:
    """(rows returned, rows that are true matches, true matches) for one query."""
    actor_ref = {str(row["name"]): str(row["img"]) for row in data.actors}
    matches = set(data.matches)
    correct = sum((actor_ref.get(name), scene) in matches for name, scene in rows)
    return len(rows), correct, len(matches)


def digest(rows_per_instance: list[list[list[tuple[str, str]]]]) -> str:
    """SHA-256 of every instance's rows, query by query, in order."""
    return hashlib.sha256(json.dumps(rows_per_instance).encode("utf-8")).hexdigest()


def recorded_digest(workload: str) -> str | None:
    """The digest recorded for ``workload`` at the default seed, if any."""
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)
