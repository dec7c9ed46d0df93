"""Hypothesis validation, the symbol matrix A_n, and 4-/8-rank criteria.

The inputs of interest are n = p_1 ... p_t * q with p_i = 1 and q = 3 (mod 8).
Two matrix constructions live here: A_n from Legendre symbols of the p_i
against each other, and the modified Redei matrix from Hilbert symbols
(p_i, -n / p_j).  They coincide exactly when q is a residue modulo every p_i,
which the test suite checks rather than assumes; the 4-rank always reads off
the Hilbert-symbol matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import FactoredSquarefree, factor_squarefree, hilbert, jacobi, legendre, quartic_symbol
from .gf2 import pack, rank_f2
from .norms import rep_2e2_f2
from .selmer import legendre_matrix


class WrongResidueShape(ValueError):
    """v is squarefree but its prime residues mod 8 do not fit p_i = 1, q = 3.

    n is the factored v, so a caller need not factor it again.
    """

    def __init__(self, message: str, n: FactoredSquarefree):
        super().__init__(message)
        self.n = n


class HypothesisNotMet(ValueError):
    """An operation was called on a HypothesisN whose conditions fail."""


@dataclass(frozen=True)
class HypothesisN:
    n: FactoredSquarefree
    q: int
    p_list: tuple[int, ...]
    n_q: FactoredSquarefree
    t: int
    qr_condition: bool
    A: tuple[int, ...]
    rank_condition: bool

    def holds(self) -> bool:
        return self.qr_condition and self.rank_condition

    @property
    def modulus(self) -> int:
        return 1 << (self.t + 2)


def hypothesis_from_factored(n: FactoredSquarefree) -> HypothesisN:
    """Validate n = p_1 ... p_t * q and fill in the matrix and both conditions.

    Raises WrongResidueShape (with the failing condition) when n is not of
    that shape.
    """
    v = n.value
    qs = [p for p in n.primes if p % 8 == 3]
    ps = [p for p in n.primes if p % 8 == 1]
    if len(qs) != 1:
        raise WrongResidueShape(f"{v} has {len(qs)} prime factors = 3 (mod 8), need exactly 1", n)
    stray = [p for p in n.primes if p % 8 not in (1, 3)]
    if stray:
        raise WrongResidueShape(f"prime factors {stray} of {v} are not 1 or 3 (mod 8)", n)
    if not ps:
        raise WrongResidueShape(f"{v} has no prime factor = 1 (mod 8)", n)
    q = qs[0]
    p_list = tuple(ps)
    t = len(p_list)
    a = legendre_matrix(p_list)
    return HypothesisN(
        n=n,
        q=q,
        p_list=p_list,
        n_q=FactoredSquarefree(v // q, p_list),
        t=t,
        qr_condition=all(legendre(q, p) == 1 for p in p_list),
        A=a,
        rank_condition=rank_f2(a) == t - 1,
    )


def build_hypothesis(v: int) -> HypothesisN:
    """Factor v, then hypothesis_from_factored; NotSquarefree if v is not squarefree."""
    if v < 3:
        raise ValueError(f"need v >= 3, got {v}")
    return hypothesis_from_factored(factor_squarefree(v))


def redei_matrix(h: HypothesisN) -> tuple[int, ...]:
    """Packed rows of the t x t matrix of eps(hilbert(p_i, -n, p_j)), diagonal included."""
    return tuple(pack(0 if hilbert(p_i, -h.n.value, p_j) == 1 else 1 for p_j in h.p_list) for p_i in h.p_list)


def four_rank(h: HypothesisN) -> int:
    return h.t - rank_f2(redei_matrix(h))


def eight_rank_neg_n(h: HypothesisN) -> int:
    """1 iff the quartic symbol (q / n_q)_4 is +1.  Needs both conditions."""
    if not h.holds():
        raise HypothesisNotMet(f"{h.n.value}: qr={h.qr_condition}, rank={h.rank_condition}")
    return 1 if quartic_symbol(h.q, h.n_q) == 1 else 0


def eight_rank_neg_nq(h: HypothesisN) -> int:
    """1 iff (-1/e) = +1 for n_q = 2e^2 - f^2.  Needs the rank condition."""
    if not h.rank_condition:
        raise HypothesisNotMet(f"{h.n.value}: rank A != t - 1")
    e, _ = rep_2e2_f2(h.n_q)
    return 1 if jacobi(-1, e) == 1 else 0
