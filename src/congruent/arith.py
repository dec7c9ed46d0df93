"""Exact integer kernel: primality, squarefree factorization, residue symbols, modular powers, the prime sieve.

Everything here is pure integer arithmetic (no floats) and safe for
concurrent use; factor_squarefree takes n up to the per-n bound MAX_PER_N
and is_prime is deterministic below PSI_12.  _pow_mod is the one modular
power over numpy arrays, _prime_sieve the one prime sieve and _progressions
the one expansion of arithmetic progressions into their terms; the scan's
segmented candidate filter and residue tests, the divisor sums' live points,
primes and square roots, and _factor's trial divisors all use them.  _pow_mod
reduces each square and each product before the next, so none passes
mod^2 < 2^63.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, prod
from typing import NamedTuple

import numpy as np


# n above this is refused before it is factored or counted: every point n - c z^2
# of tunnell's lines stays far inside int64, every sieving prime p <= 10^5 has
# p^2 < 2^63, and trial division by the primes up to sqrt(n) sieves at most
# 10^5 entries.  On a 2-core machine the counts of one check take about 1.4 ms
# near 10^7, 6.6 ms near 10^9 and 25 ms near the bound, whose check process
# peaks near 38 MiB.
MAX_PER_N = 10**10


class NotSquarefree(ValueError):
    """A repeated prime factor was found where a squarefree integer is required."""


class _Factored(NamedTuple):
    value: int
    primes: tuple[int, ...]


class FactoredSquarefree(_Factored):
    """A squarefree positive integer with its sorted prime factorization, checked when made."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # the base's _make, which _replace calls, would skip the checks
        return cls(*iterable)

    def __new__(cls, value: int, primes: tuple[int, ...]):
        if prod(primes) != value:
            raise ValueError(f"primes {primes} do not multiply to {value}")
        if any(primes[i] >= primes[i + 1] for i in range(len(primes) - 1)):
            raise ValueError("primes must be strictly increasing")
        if any(not is_prime(p) for p in primes):
            raise ValueError(f"non-prime entry in {primes}")
        return super().__new__(cls, value, primes)


# The first 12 primes as witnesses give a deterministic strong-pseudoprime test
# for n < PSI_12, the least strong pseudoprime to all of them, 399165290221 *
# 798330580441 (Sorenson and Webster, Strong pseudoprimes to twelve prime
# bases, Math. Comp. 86 (2017)).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic primality for n < PSI_12 (fixed Miller-Rabin witnesses); ValueError for n >= PSI_12."""
    if n >= PSI_12:
        raise ValueError(f"is_prime is deterministic only below {PSI_12}, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def refuse_beyond_per_n_bound(n: int) -> None:
    """ValueError for an n above MAX_PER_N; called before n is factored or counted."""
    if n > MAX_PER_N:
        raise ValueError(f"n = {n} exceeds the per-n bound {MAX_PER_N}")


def _factor(v: int) -> list[int]:
    """Prime factors of v with multiplicity, ascending; trial division by the primes up to sqrt(v) leaves 1 or a prime."""
    p = np.flatnonzero(_prime_sieve(isqrt(v)))
    factors = []
    for d in p[v % p == 0].tolist():
        while v % d == 0:
            factors.append(d)
            v //= d
    if v > 1:
        factors.append(v)
    return factors


def factor_squarefree(v: int) -> FactoredSquarefree:
    """Factor v completely; ValueError for v > MAX_PER_N before any work, NotSquarefree if a prime divides v twice."""
    if v < 1:
        raise ValueError(f"expected a positive integer, got {v}")
    refuse_beyond_per_n_bound(v)
    factors = _factor(v)
    for i in range(len(factors) - 1):
        if factors[i] == factors[i + 1]:
            raise NotSquarefree(f"{factors[i]}^2 divides {v}")
    return FactoredSquarefree(v, tuple(factors))


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd positive m; jacobi(a, 1) = +1."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {m}")
    a %= m
    sign = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p): 0 if p | a, +1 for residues, -1 otherwise."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    return jacobi(a, p)


def quartic_symbol(k: int, m: FactoredSquarefree) -> int:
    """Quartic residue symbol of k modulo m, extended multiplicatively.

    Each prime factor l of m must satisfy l = 1 (mod 4) and (k/l) = +1, else
    the symbol is undefined and a ValueError is raised.  For prime l the value
    is +1 exactly when k^((l-1)/4) = 1 (mod l).
    """
    sign = 1
    for l in m.primes:
        if l % 4 != 1:
            raise ValueError(f"quartic symbol undefined: {l} = {l % 4} (mod 4)")
        if legendre(k, l) != 1:
            raise ValueError(f"quartic symbol undefined: {k} is not a residue mod {l}")
        if pow(k, (l - 1) // 4, l) != 1:
            sign = -sign
    return sign


def _split_valuation(a: int, p: int) -> tuple[int, int]:
    """Write a = p**alpha * a2 with p not dividing a2."""
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    return alpha, a


def hilbert(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b / p) over the p-adic numbers, p prime."""
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if p != 2 and (p % 2 == 0 or not is_prime(p)):
        raise ValueError(f"modulus must be prime, got {p}")
    alpha, a2 = _split_valuation(a, p)
    beta, b2 = _split_valuation(b, p)
    if p == 2:
        # w(x) = (x^2 - 1)/8 is the 2-residue character of odd x
        exponent = ((a2 - 1) // 2) * ((b2 - 1) // 2)
        exponent += beta * ((a2 * a2 - 1) // 8)
        exponent += alpha * ((b2 * b2 - 1) // 8)
        return -1 if exponent % 2 else 1
    sign = -1 if ((p - 1) // 2) * alpha * beta % 2 else 1
    if beta % 2:
        sign *= legendre(a2, p)
    if alpha % 2:
        sign *= legendre(b2, p)
    return sign


def _pow_mod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod mod elementwise (numpy broadcasting), for int64 arrays with 0 <= base < mod and mod^2 < 2^63.

    The exponent's bits become one row of factors per bit, base where it is set
    and 1 elsewhere, walked from the most significant: r * r % mod * f % mod.
    No pass is made for an empty exp.
    """
    top = int(exp.max(initial=0)).bit_length()
    ndim = max(base.ndim, exp.ndim, mod.ndim)
    # the bits as bool before the factors are made, so no two int64 (top, ...) arrays are held at once
    factors = np.where((exp & (1 << np.arange(top - 1, -1, -1)).reshape((-1,) + (1,) * ndim)) != 0, base, 1)
    result = np.ones_like(base)
    for f in factors:
        result = result * result % mod * f % mod
    return result


def _prime_sieve(limit: int) -> np.ndarray:
    """A bool array whose entry i, for i = 0..limit, is True iff i is prime."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def _progressions(start: np.ndarray, step: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The terms start + step * j, j < count, of each progression, flat, progression by progression."""
    return np.repeat(start - step * (np.cumsum(count) - count), count) + np.repeat(step, count) * np.arange(int(count.sum()))


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n
