"""Linear algebra over GF(2) on bit-packed rows.

A matrix is a tuple of Python ints, one per row, with bit j holding column j,
so XOR of whole rows is a single word-level operation.  Every matrix the
package builds is square, so its size is the number of rows.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def pack(bits: Iterable[int]) -> int:
    """One row from its 0/1 entries, column 0 first."""
    return sum((b & 1) << j for j, b in enumerate(bits))


def unpack(row: int, n: int) -> list[int]:
    """The first n entries of a packed row, column 0 first."""
    return [(row >> j) & 1 for j in range(n)]


def rank_f2(rows: Sequence[int]) -> int:
    """Rank over GF(2) by Gaussian elimination; each pivot clears its lowest bit from the rest."""
    work = list(rows)
    rank = 0
    while work:
        pivot = work.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            work = [r ^ pivot if r & low else r for r in work]
    return rank
