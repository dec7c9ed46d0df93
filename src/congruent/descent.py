"""Divisor-pair descent layer: local maps phi_p, their joint kernel, and a
bounded search for integer points on the associated pair of quadrics.

G is the group of positive divisors of m under a * b = ab / gcd(a,b)^2.  The
map phi_p is pinned on pairs (a, b) with p coprime to ab and on the anchors
(1, m) and (m, 1); multiplying by an anchor clears p from any coordinate, so
the homomorphism property extends phi_p to all of G x G.  The test suite
verifies that extension exhaustively instead of trusting it.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt
from typing import NamedTuple, Optional

from .arith import FactoredSquarefree, legendre

# find_witness tries up to bound^2 pairs (x, y); a larger bound is refused
MAX_WITNESS_BOUND = 10**4


class PairNotInKernel(ValueError):
    """Witness search requested for a pair outside the joint kernel."""


class DivisorPair(NamedTuple):
    a: int
    b: int


class TorsorWitness(NamedTuple):
    pair: DivisorPair
    x: int
    y: int
    z: int
    w: int


def star(a: int, b: int) -> int:
    """Group law on positive divisors: a * b / gcd(a, b)^2."""
    g = gcd(a, b)
    return a * b // (g * g)


def divisors(m: FactoredSquarefree) -> list[int]:
    out = [1]
    for p in m.primes:
        out += [d * p for d in out]
    return sorted(out)


def _phi_coprime(a: int, b: int, p: int) -> tuple[int, int]:
    return legendre(a, p), legendre(b, p)


def phi_p(pair: DivisorPair, p: int, m: FactoredSquarefree) -> tuple[int, int]:
    """The local pair of signs at p | m, extended multiplicatively off-anchor."""
    if m.value % p != 0:
        raise ValueError(f"{p} does not divide {m.value}")
    a, b = pair
    if m.value % a != 0 or m.value % b != 0:
        raise ValueError(f"pair {pair} is not a divisor pair of {m.value}")
    pa, pb = a % p == 0, b % p == 0
    s1, s2 = _phi_coprime(star(a, m.value) if pa else a, star(b, m.value) if pb else b, p)
    if pa:  # the anchor (m, 1) has signs ((2/p), (2/p))
        s1, s2 = s1 * legendre(2, p), s2 * legendre(2, p)
    if pb:  # the anchor (1, m) has signs ((2/p), (-2/p))
        s1, s2 = s1 * legendre(2, p), s2 * legendre(-2, p)
    return s1, s2


def _in_kernel(pair: DivisorPair, m: FactoredSquarefree) -> bool:
    return all(phi_p(pair, p, m) == (1, 1) for p in m.primes)


def kernel_K(m: FactoredSquarefree) -> set[DivisorPair]:
    """Pairs sent to (+1, +1) by every phi_p.  Cardinality is 2**s_m (tested)."""
    if m.value % 2 == 0:
        raise ValueError("descent layer handles odd m only")
    pairs = (DivisorPair(a, b) for a, b in product(divisors(m), repeat=2))
    return {pair for pair in pairs if _in_kernel(pair, m)}


def find_witness(m: FactoredSquarefree, pair: DivisorPair, bound: int = MAX_WITNESS_BOUND) -> Optional[TorsorWitness]:
    """Search for (x, y, z, w), not all zero, with ab x^2 +- m y^2 = a z^2 / b w^2.

    Absence within the bound proves nothing; any returned witness satisfies
    both equations exactly.  Only pairs in the kernel can carry witnesses.
    A bound outside 1..MAX_WITNESS_BOUND is refused before the search.
    """
    if not 1 <= bound <= MAX_WITNESS_BOUND:
        raise ValueError(f"bound {bound} is outside the supported range 1..{MAX_WITNESS_BOUND}")
    a, b = pair
    mv = m.value
    if a < 1 or b < 1 or mv % a or mv % b or not _in_kernel(pair, m):
        raise PairNotInKernel(f"{tuple(pair)} is not in the kernel for m = {mv}")
    # dividing the system by a and b forces z^2 = b x^2 + (m/a) y^2 and
    # w^2 = a x^2 - (m/b) y^2; any solution scales down to gcd(x, y) = 1
    ma, mb = mv // a, mv // b
    for y in range(0, bound + 1):
        for x in range(1, bound + 1):
            if gcd(x, y) != 1:
                continue
            z2 = b * x * x + ma * y * y
            z = isqrt(z2)
            if z * z != z2:
                continue
            w2 = a * x * x - mb * y * y
            if w2 < 0:
                continue
            w = isqrt(w2)
            if w * w != w2:
                continue
            witness = TorsorWitness(pair=pair, x=x, y=y, z=z, w=w)
            _verify_witness(witness, mv)
            return witness
    return None


def _verify_witness(wit: TorsorWitness, m: int) -> None:
    a, b = wit.pair
    x, y, z, w = wit.x, wit.y, wit.z, wit.w
    if (x, y, z, w) == (0, 0, 0, 0):
        raise ArithmeticError("trivial witness")
    if a * b * x * x + m * y * y != a * z * z or a * b * x * x - m * y * y != b * w * w:
        raise ArithmeticError(f"witness {wit} fails the defining equations")
