"""Exact integer kernel: primality, squarefree factorization, residue symbols, modular powers, the prime sieve.

Everything here is pure integer arithmetic (no floats), safe for concurrent
use, and deterministic for inputs below 2**63.  _pow_mod is the one modular
power over numpy arrays, _prime_sieve the one prime sieve and _progressions
the one expansion of arithmetic progressions into their terms; the scan's
segmented candidate filter and residue tests and the divisor sums' live
points, primes and square roots all use them.  _pow_mod reduces each square
and each product before the next, so none passes mod^2 < 2^63.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod
from typing import NamedTuple

import numpy as np


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


# Witnesses giving a deterministic strong-pseudoprime test for n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic primality for n < 3.3e24 (fixed Miller-Rabin witnesses)."""
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


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n.  Deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


_TRIAL_LIMIT = 10**6


def _factor(v: int) -> list[int]:
    """Prime factors of v with multiplicity, ascending."""
    factors = []
    for p in (2, 3, 5):
        while v % p == 0:
            factors.append(p)
            v //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # gaps between integers coprime to 30
    i = 0
    while p * p <= v and p <= _TRIAL_LIMIT:
        while v % p == 0:
            factors.append(p)
            v //= p
        p += wheel[i]
        i = (i + 1) % 8
    if v > 1:
        stack = [v]
        while stack:
            m = stack.pop()
            if is_prime(m):
                factors.append(m)
            else:
                d = _brent_rho(m)
                stack.append(d)
                stack.append(m // d)
    factors.sort()
    return factors


def factor_squarefree(v: int) -> FactoredSquarefree:
    """Factor v completely; raise NotSquarefree if any prime divides it twice."""
    if v < 1:
        raise ValueError(f"expected a positive integer, got {v}")
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
