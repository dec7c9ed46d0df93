"""Monsky matrix of an odd squarefree integer and its 2-Selmer rank.

The matrix is assembled from Legendre symbols of +-2 and of the prime factors
against each other; the corank of the 2r x 2r block matrix gives the 2-Selmer
rank s_m.  Only odd m is supported: the even variant has a different shape and
nothing downstream needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import FactoredSquarefree, legendre
from .gf2 import pack, rank_f2


@dataclass(frozen=True)
class MonskyDecomposition:
    m: FactoredSquarefree
    M: tuple[int, ...]
    s: int


def _eps(sign: int) -> int:
    # +1 -> 0, -1 -> 1
    return 0 if sign == 1 else 1


def legendre_matrix(primes: tuple[int, ...]) -> tuple[int, ...]:
    """Packed rows: eps((p_j / p_i)) at (i, j) off the diagonal; each diagonal entry is its row sum."""
    rows = []
    for i, p in enumerate(primes):
        row = [0 if j == i else _eps(legendre(q, p)) for j, q in enumerate(primes)]
        row[i] = sum(row) % 2
        rows.append(pack(row))
    return tuple(rows)


def monsky(m: FactoredSquarefree) -> MonskyDecomposition:
    """Build the block matrix [[C+D2, D2], [D2, C+D-2]] and the rank 2r - rank(M)."""
    if m.value % 2 == 0:
        raise ValueError("Monsky matrix is defined here for odd m only")
    if m.value < 3:
        raise ValueError(f"need m >= 3, got {m.value}")
    primes = m.primes
    r = len(primes)
    top, bottom = [], []
    for i, (c, p) in enumerate(zip(legendre_matrix(primes), primes)):
        d2 = _eps(legendre(2, p)) << i
        dm2 = _eps(legendre(-2, p)) << i
        top.append((c ^ d2) | (d2 << r))
        bottom.append(d2 | ((c ^ dm2) << r))
    m_matrix = tuple(top + bottom)
    return MonskyDecomposition(m=m, M=m_matrix, s=2 * r - rank_f2(m_matrix))


def selmer_rank(m: FactoredSquarefree) -> int:
    return monsky(m).s
