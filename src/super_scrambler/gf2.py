"""GF(2) linear algebra on bit-packed rows (ints as bitsets)."""

from __future__ import annotations

from typing import Iterable


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a matrix given as integer rows (bit i = column i).

    Word-parallel elimination: each XOR cancels a whole packed row at once;
    pivots sit in a list indexed by their highest set bit, 0 for an empty slot.
    """
    rows = list(rows)
    pivots = [0] * max(rows, default=0).bit_length()
    rank = 0
    for row in rows:
        while row:
            h = row.bit_length() - 1
            p = pivots[h]
            if not p:
                pivots[h] = row
                rank += 1
                break
            row ^= p
    return rank
