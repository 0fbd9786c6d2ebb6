"""GF(2) linear algebra on bit-packed rows (ints as bitsets)."""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List


class _RankChain:
    """A GF(2) elimination that can be resumed, keyed by its rows' values.

    Word-parallel elimination: each XOR cancels a whole packed row at once;
    pivots sit in a list indexed by their bit length, 0 for an empty slot.
    Slot 0 stays 0, a sentinel that stops a row's reduction once it is 0.
    `rows` are the rows taken so far and `dependent` the indices of those
    that cancelled to 0, so the first k rows have rank k minus the
    dependent indices below k.
    """

    __slots__ = ("rows", "pivots", "dependent")

    def __init__(self) -> None:
        self.rows, self.pivots, self.dependent = [], [0], []

    def rank(self, rows: List[int]) -> int:
        """The rank of `rows`: read off when they lead `self.rows`, by
        continuing the elimination when they extend it, else by starting
        it again from `rows` alone."""
        k, n = len(self.rows), len(rows)
        if self.rows[:n] != rows[:k]:
            self.__init__()
        elif n <= k:
            return n - bisect_left(self.dependent, n)
        else:
            rows = rows[k:]
        pivots, dependent = self.pivots, self.dependent
        rank = len(self.rows) - len(dependent)
        self.rows += rows
        pivots += [0] * (max(rows).bit_length() + 1 - len(pivots))
        for row in rows:
            while p := pivots[row.bit_length()]:
                row ^= p
            if row:
                pivots[row.bit_length()] = row
                rank += 1
            else:
                dependent.append(rank + len(dependent))
        return rank


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a matrix given as integer rows (bit i = column i)."""
    return _RankChain().rank(list(rows))
