"""Norm-form representations P = u^2 + 2v^2 = 2e^2 - f^2.

Both exist whenever every prime factor of P is 1 (mod 8): such primes split in
Q(sqrt(-2)) and Q(sqrt(2)), both of class number one.  The normalization makes
u, e, f odd and v even, all positive; u and f are the smallest over all
representations, which pins a deterministic answer for composite P.

Square roots of -2 and +2 mod each prime p come from one primitive 8th root of
unity: c = d^((p-1)/8) for a non-residue d has c^4 = -1, so
(c + c^3)^2 = -2 and (c - c^3)^2 = (c + c^7)^2 = 2.  CRT combines them mod P.

u^2 + 2v^2: each root of -2 feeds a Cornacchia descent.  2e^2 - f^2: for each
root r of +2, Euclid in Z[sqrt(2)] gives f + e sqrt(2) = gcd(P, r + sqrt(2)),
of norm f^2 - 2e^2 = +-P; one factor of the unit 1 + sqrt(2) (norm -1) fixes
the sign, and 3 - 2 sqrt(2) then walks the solution to minimal f.  Euclid ends
because rounding each coordinate of the quotient leaves an error x + y sqrt(2)
with |x|, |y| <= 1/2, so |N(rem)| <= |N(divisor)| / 2.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt
from typing import NamedTuple

from .arith import FactoredSquarefree, is_square, jacobi, legendre


class NoRepresentation(ValueError):
    """P is not representable; only possible when a precondition is violated."""


class NormRepresentation(NamedTuple):
    P: FactoredSquarefree
    u: int
    v: int
    e: int
    f: int


def _check_domain(P: FactoredSquarefree) -> None:
    if not P.primes:
        raise NoRepresentation("P must have at least one prime factor")
    bad = [p for p in P.primes if p % 8 != 1]
    if bad:
        raise NoRepresentation(f"prime factors {bad} of {P.value} are not 1 (mod 8)")


def _root_pm2(p: int, square: int) -> int:
    """A square root of square = +-2 mod a prime p = 1 (mod 8), as c -+ c^3 with c^4 = -1."""
    d = 3  # 2 is a residue mod p
    while legendre(d, p) != -1:
        d += 1
    c = pow(d, (p - 1) // 8, p)
    c3 = c * c * c % p
    return (c - c3) % p if square == 2 else (c + c3) % p


def _crt_roots(P: FactoredSquarefree, square: int) -> list[int]:
    """All square roots of `square` = +-2 mod P.value, one per sign pattern, up to negation."""
    n = P.value
    prime_roots = [_root_pm2(p, square) for p in P.primes]
    roots = []
    # fix the first prime's sign; varying it only negates the combined root
    for signs in product((1, -1), repeat=len(P.primes) - 1):
        r = 0
        for p, rp, s in zip(P.primes, prime_roots, (1,) + signs):
            np_ = n // p
            r = (r + s * rp * np_ * pow(np_, -1, p)) % n
        roots.append(r)
    return roots


def rep_u2_2v2(P: FactoredSquarefree) -> tuple[int, int]:
    """The representation P = u^2 + 2v^2 with smallest u (u odd, v even, positive)."""
    _check_domain(P)
    n = P.value
    best = None
    for r in _crt_roots(P, -2):
        if r < n - r:
            r = n - r
        a, b = n, r
        while b * b > n:
            a, b = b, a % b
        rem = n - b * b
        if rem % 2 == 0 and is_square(rem // 2):
            u, v = b, isqrt(rem // 2)
            if best is None or (u, v) < best:
                best = (u, v)
    if best is None:
        raise NoRepresentation(f"no u^2 + 2v^2 representation found for {n}")
    u, v = best
    if u * u + 2 * v * v != n:
        raise ArithmeticError(f"descent produced a bad representation for {n}")
    return best


def _gcd_sqrt2(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A gcd in Z[sqrt(2)] of a = a0 + a1 sqrt(2) and b, by Euclid (pairs (x, y) stand for x + y sqrt(2)).

    The quotient a/b = a * conj(b) / N(b) is rounded coordinatewise, so
    |N(rem)| <= |N(b)| / 2 and the loop ends; a step that does not halve the
    norm raises ArithmeticError.  N(b) = 0 only at b = 0, as sqrt(2) is irrational.
    """
    nb = b[0] * b[0] - 2 * b[1] * b[1]
    while nb:
        (a0, a1), (b0, b1) = a, b
        # floor(x / nb + 1/2) for either sign of nb
        q0 = (2 * (a0 * b0 - 2 * a1 * b1) + nb) // (2 * nb)
        q1 = (2 * (a1 * b0 - a0 * b1) + nb) // (2 * nb)
        a, b = b, (a0 - q0 * b0 - 2 * q1 * b1, a1 - q0 * b1 - q1 * b0)
        last, nb = nb, b[0] * b[0] - 2 * b[1] * b[1]
        if 2 * abs(nb) > abs(last):
            raise ArithmeticError(f"Euclid in Z[sqrt(2)] did not halve the norm {last}")
    return a


def rep_2e2_f2(P: FactoredSquarefree) -> tuple[int, int]:
    """The representation P = 2e^2 - f^2 with smallest f (e, f odd positive)."""
    _check_domain(P)
    n = P.value
    best = None
    for r in _crt_roots(P, 2):
        # (n, r + sqrt(2)) is an ideal of norm n, and Z[sqrt(2)] is a PID
        f, e = _gcd_sqrt2((n, 0), (r, 1))
        if f * f - 2 * e * e == n:
            f, e = f + 2 * e, f + e  # times 1 + sqrt(2), of norm -1
        if f * f - 2 * e * e != -n:
            raise ArithmeticError(f"Euclid in Z[sqrt(2)] produced a bad gcd for {n}")
        f, e = abs(f), abs(e)
        while True:
            f2, e2 = abs(3 * f - 4 * e), abs(3 * e - 2 * f)
            if f2 < f:
                f, e = f2, e2
            else:
                break
        if 2 * e * e - f * f != n:
            raise ArithmeticError(f"reduction produced a bad representation for {n}")
        if best is None or (f, e) < best:
            best = (f, e)
    if best is None:
        raise NoRepresentation(f"no 2e^2 - f^2 representation found for {n}")
    f, e = best
    return e, f


def parity_criterion(P: FactoredSquarefree) -> bool:
    """True iff (-1/e) = +1 for the returned e, i.e. e = 1 (mod 4)."""
    e, _ = rep_2e2_f2(P)
    return jacobi(-1, e) == 1


def represent(P: FactoredSquarefree) -> NormRepresentation:
    """Both representations bundled, with the defining equations re-verified."""
    u, v = rep_u2_2v2(P)
    e, f = rep_2e2_f2(P)
    rep = NormRepresentation(P=P, u=u, v=v, e=e, f=f)
    if u * u + 2 * v * v != P.value or 2 * e * e - f * f != P.value:
        raise ArithmeticError(f"representation of {P.value} failed verification")
    if u % 2 == 0 or e % 2 == 0 or f % 2 == 0 or v % 2 == 1:
        raise ArithmeticError(f"parity normalization violated for {P.value}")
    if gcd(u, 2 * v) != 1 or gcd(e, f) != 1:
        raise ArithmeticError(f"representation of {P.value} is imprimitive")
    return rep
