"""Monsky matrix of an odd squarefree integer and its 2-Selmer rank.

The matrix is assembled from Legendre symbols of +-2 and of the prime factors
against each other; the corank of the 2r x 2r block matrix gives the 2-Selmer
rank s_m.  Only odd m is supported: the even variant has a different shape and
nothing downstream needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import FactoredSquarefree, legendre
from .gf2 import BitMatrix, block_compose, rank_f2


@dataclass(frozen=True)
class MonskyDecomposition:
    m: FactoredSquarefree
    C: BitMatrix
    M: BitMatrix
    s: int


def _eps(sign: int) -> int:
    # +1 -> 0, -1 -> 1
    return 0 if sign == 1 else 1


def legendre_matrix(primes: tuple[int, ...]) -> BitMatrix:
    """eps((p_j / p_i)) at (i, j) off the diagonal; each diagonal entry is its row sum."""
    rows = []
    for i, p in enumerate(primes):
        row = [0 if j == i else _eps(legendre(q, p)) for j, q in enumerate(primes)]
        row[i] = sum(row) % 2
        rows.append(row)
    return BitMatrix.from_rows(rows)


def monsky(m: FactoredSquarefree) -> MonskyDecomposition:
    """Build the block matrix [[C+D2, D2], [D2, C+D-2]] and the rank 2r - rank(M)."""
    if m.value % 2 == 0:
        raise ValueError("Monsky matrix is defined here for odd m only")
    if m.value < 3:
        raise ValueError(f"need m >= 3, got {m.value}")
    primes = m.primes
    r = len(primes)
    d2 = BitMatrix.diagonal(_eps(legendre(2, p)) for p in primes)
    dm2 = BitMatrix.diagonal(_eps(legendre(-2, p)) for p in primes)
    c = legendre_matrix(primes)
    m_matrix = block_compose([[c ^ d2, d2], [d2, c ^ dm2]])
    s = 2 * r - rank_f2(m_matrix)
    return MonskyDecomposition(m=m, C=c, M=m_matrix, s=s)


def selmer_rank(m: FactoredSquarefree) -> int:
    return monsky(m).s
