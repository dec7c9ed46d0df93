"""Norm-form representations P = u^2 + 2v^2 = 2e^2 - f^2.

Both exist whenever every prime factor of P is 1 (mod 8): such primes split in
Q(sqrt(-2)) and Q(sqrt(2)), both of class number one.  The normalization makes
u, e, f odd and v even, all positive; u and f are the smallest over all
representations, which pins a deterministic answer for composite P.

u^2 + 2v^2: square roots of -2 mod P (one per prime, combined by CRT) feed a
Cornacchia descent.  2e^2 - f^2: square roots of +2 mod P seed an indefinite
binary-form reduction of discriminant 8 down to the principal form, and the
fundamental unit 1 + sqrt(2) then walks the solution to minimal f.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt
from typing import NamedTuple

from .arith import FactoredSquarefree, is_square, jacobi, sqrt_mod_prime


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


def _crt_roots(P: FactoredSquarefree, square: int) -> list[int]:
    """All square roots of `square` mod P.value, one per sign pattern, up to negation."""
    n = P.value
    prime_roots = [sqrt_mod_prime(square, p) for p in P.primes]
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


def _reduce_disc8(a: int, b: int, c: int) -> tuple[int, int]:
    """Walk the form (a, b, c) of discriminant 8 to x^2 + 2xy - y^2.

    Returns (x, y) with x^2 + 2xy - y^2 equal to the original form's value at
    (1, 0).  The reduced cycle of discriminant 8 is {(1,2,-1), (-1,2,1)}, so
    the loop always terminates on the principal form.
    """
    # each step maps (a, b, c) -> (c, b', *) via (x, y) -> (-y, x + s*y),
    # with b' = 2cs - b placed in the classical reduction window
    m00, m01, m10, m11 = 1, 0, 0, 1
    for _ in range(10000):
        if (a, b, c) == (1, 2, -1):
            # first column of the accumulated transform's inverse
            return m11, -m10
        if c == 0:
            raise ArithmeticError("form became degenerate")
        two_c = 2 * abs(c)
        if abs(c) >= 3:  # |c| > sqrt(8): want b' in (-|c|, |c|]
            b_new = (-b) % two_c
            if b_new > abs(c):
                b_new -= two_c
        else:  # want b' in (sqrt(8) - 2|c|, sqrt(8)), i.e. [3 - 2|c|, 2]
            lo = 3 - two_c
            b_new = lo + (-b - lo) % two_c
        s = (b_new + b) // (2 * c)
        a, b, c = c, b_new, a - b * s + c * s * s
        m00, m01, m10, m11 = m01, -m00 + m01 * s, m11, -m10 + m11 * s
    raise ArithmeticError("form reduction did not converge")


def rep_2e2_f2(P: FactoredSquarefree) -> tuple[int, int]:
    """The representation P = 2e^2 - f^2 with smallest f (e, f odd positive)."""
    _check_domain(P)
    n = P.value
    best = None
    for r in _crt_roots(P, 2):
        # (n, 2r, (r^2-2)/n) has discriminant 8 and represents n at (1, 0)
        x, y = _reduce_disc8(n, 2 * r, (r * r - 2) // n)
        if x * x + 2 * x * y - y * y != n:
            raise ArithmeticError(f"form reduction produced a bad point for {n}")
        big_x, big_y = x + y, y  # X^2 - 2Y^2 = n
        f, e = big_x + 2 * big_y, big_x + big_y  # now f^2 - 2e^2 = -n
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
