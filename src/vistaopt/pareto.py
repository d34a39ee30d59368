"""The candidate pool: per-sample dominance, insertion with eviction, and
win-count-proportional parent sampling."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import EmptyPoolError, LengthMismatchError


def dominates(a: list[int] | tuple[int, ...], b: list[int] | tuple[int, ...]) -> bool:
    """Strict per-sample dominance: a >= b everywhere and > somewhere."""
    if len(a) != len(b):
        raise LengthMismatchError(f"vectors of length {len(a)} vs {len(b)}")
    strictly_better = False
    for x, y in zip(a, b):
        if x < y:
            return False
        if x > y:
            strictly_better = True
    return strictly_better


@dataclass(frozen=True)
class InsertOutcome:
    accepted: bool
    dominated_by: int | None = None   # member id that rejected the candidate
    evicted: tuple[int, ...] = ()     # member ids removed on accept


@dataclass
class ParetoPool:
    """Non-dominated candidates over the ordered validation set.

    Mutated only by the coordinator between rounds; readers during a round
    see an immutable snapshot via ``snapshot()``.
    """

    vector_length: int
    members: list[int] = field(default_factory=list)
    score_matrix: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.members)

    def _check_length(self, vector: tuple[int, ...]) -> None:
        if len(vector) != self.vector_length:
            raise LengthMismatchError(
                f"vector length {len(vector)} != pool length {self.vector_length}")

    def _dominator(self, vector: tuple[int, ...]) -> int | None:
        self._check_length(vector)
        return next((m for m in self.members if dominates(self.score_matrix[m], vector)), None)

    def admits(self, vector: list[int] | tuple[int, ...]) -> bool:
        """Whether ``try_insert`` would accept ``vector``; changes nothing."""
        return self._dominator(tuple(int(v) for v in vector)) is None

    def try_insert(self, candidate_id: int, vector: list[int] | tuple[int, ...]) -> InsertOutcome:
        """Reject iff some member dominates the candidate; on accept, insert
        and evict every member the candidate dominates."""
        vector = tuple(int(v) for v in vector)
        if (dominated_by := self._dominator(vector)) is not None:
            return InsertOutcome(accepted=False, dominated_by=dominated_by)
        evicted = tuple(m for m in self.members if dominates(vector, self.score_matrix[m]))
        for member in evicted:
            self.members.remove(member)
            del self.score_matrix[member]
        self.members.append(candidate_id)
        self.score_matrix[candidate_id] = vector
        return InsertOutcome(accepted=True, evicted=evicted)

    def insert_seed(self, candidate_id: int, vector: list[int] | tuple[int, ...]) -> None:
        """The seed enters unconditionally at initialization; the normal
        eviction rule removes it later if dominated."""
        if self.members:
            raise ValueError("seed insertion only valid on an empty pool")
        self.try_insert(candidate_id, vector)

    def win_counts(self) -> dict[int, int]:
        """Member wins = validation samples where the member attains the
        pool-wide per-sample maximum; ties credit every maximizer."""
        counts = {m: 0 for m in self.members}
        for i in range(self.vector_length):
            best = max(self.score_matrix[m][i] for m in self.members)
            for m in self.members:
                if self.score_matrix[m][i] == best:
                    counts[m] += 1
        return counts

    def select_parent(self, rng: random.Random) -> int:
        """Sample a member with weight win_count + 1.

        The +1 smoothing keeps every non-dominated member reachable; a
        member can sit on the frontier with zero coordinate wins under
        graded scores, and the bare proportional rule would starve it.
        """
        if not self.members:
            raise EmptyPoolError("cannot select a parent from an empty pool")
        if len(self.members) == 1:
            return self.members[0]
        counts = self.win_counts()
        weights = [counts[m] + 1 for m in self.members]
        return rng.choices(self.members, weights=weights, k=1)[0]

    def snapshot(self) -> dict:
        counts = self.win_counts() if self.members else {}
        return {
            "members": list(self.members),
            "score_matrix": [list(self.score_matrix[m]) for m in self.members],
            "win_counts": [counts[m] for m in self.members],
        }
