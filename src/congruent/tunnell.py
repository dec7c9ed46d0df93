"""Congruent-number classification by ternary-form representation counts.

For odd squarefree n the two counts are over 2x^2 + y^2 + 32z^2 = n and
2x^2 + y^2 + 8z^2 = n; for even n the forms 4x^2 + y^2 + 32z^2 and
4x^2 + y^2 + 8z^2 are evaluated at n/2.  A congruent n forces
2*c32 = c8 unconditionally, so an inequality certifies non-congruence; the
converse direction holds only under BSD, and the labels say so.

Every count is a sum over z of w_z * r(n - c z^2), with w_z = 1 at z = 0 and
2 otherwise and r(m) a binary count such as #{2x^2 + y^2 = m} (exact int64
throughout), and the class numbers a row needs are such sums too, by Gauss's
three-square theorem.  Two sources of r share those sums: TunnellTable keeps
r for a whole range, which a scan reads; DivisorSums factors the O(sqrt(n))
points n - c z^2 of one n (Tunnell 1983; Hart, Tornaria and Watkins 2010),
which counts, classify and a check read.  theta_counts enumerates the lattice
box per n and is the reference both are tested against.
ThetaCounts.label is the one place the label rule is written.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import factor_squarefree
from .classgroup import MAX_ABS_DISCRIMINANT

# n above this is refused before any per-n count: every point n - c z^2 stays
# far inside int64, and a check near the bound takes seconds and tens of MiB.
MAX_PER_N = 10**10


class Classification(enum.Enum):
    NON_CONGRUENT_UNCONDITIONAL = "non_congruent_unconditional"
    CONGRUENT_UNDER_BSD = "congruent_under_bsd"


@dataclass(frozen=True)
class ThetaCounts:
    n: int
    c32: int
    c8: int

    @property
    def label(self) -> Classification:
        """A congruent n forces 2*c32 = c8; an inequality certifies non-congruence."""
        if 2 * self.c32 == self.c8:
            return Classification.CONGRUENT_UNDER_BSD
        return Classification.NON_CONGRUENT_UNCONDITIONAL


def _count_form(a: int, c: int, target: int) -> int:
    """#{(x, y, z) in Z^3 : a x^2 + y^2 + c z^2 = target} by box enumeration."""
    count = 0
    for x in range(isqrt(target // a) + 1):
        wx = 1 if x == 0 else 2
        rest_x = target - a * x * x
        for z in range(isqrt(rest_x // c) + 1):
            wz = 1 if z == 0 else 2
            rest = rest_x - c * z * z
            y = isqrt(rest)
            if y * y == rest:
                count += wx * wz * (1 if y == 0 else 2)
    return count


def theta_counts(n: int) -> ThetaCounts:
    """Exhaustive counts for one squarefree n >= 1, the reference for the theta sums.

    The work is O(n), so n > MAX_ABS_DISCRIMINANT is refused.
    """
    if n > MAX_ABS_DISCRIMINANT:
        raise ValueError(f"n = {n} exceeds the supported bound {MAX_ABS_DISCRIMINANT}")
    factor_squarefree(n)  # raises NotSquarefree otherwise
    if n % 2 == 1:
        return ThetaCounts(n=n, c32=_count_form(2, 32, n), c8=_count_form(2, 8, n))
    half = n // 2
    return ThetaCounts(n=n, c32=_count_form(4, 32, half), c8=_count_form(4, 8, half))


def _theta_weights(coeff: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices coeff*k^2 <= limit and their theta weights (1 at k=0, else 2)."""
    ks = np.arange(isqrt(limit // coeff) + 1, dtype=np.int64)
    w = np.full(ks.size, 2, dtype=np.int64)
    w[0] = 1
    return coeff * ks * ks, w


def _binary_counts(limit: int) -> np.ndarray:
    """r(m) = #{(x, y) in Z^2 : 2x^2 + y^2 = m} for m = 0..limit."""
    r = np.zeros(limit + 1, dtype=np.int64)
    y_idx, y_w = _theta_weights(1, limit)
    for xi, xw in zip(*_theta_weights(2, limit)):
        cut = np.searchsorted(y_idx, limit - xi, side="right")
        # indices xi + y^2 are distinct within one x, so fancy += is safe
        r[xi + y_idx[:cut]] += xw * y_w[:cut]
    return r


class _ThetaSums:
    """Tunnell's counts and the scan's two class numbers as z-sums over binary counts.

    Each ternary count #{a x^2 + y^2 + c z^2 = n} is the sum over z of
    w_z * r(n - c z^2), with r(m) = #{a x^2 + y^2 = m}.  TunnellTable and
    DivisorSums share these sums and the class-number rule; they differ only
    in where r comes from (_r_at, for an int64 array of odd m).
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._z = {c: _theta_weights(c, limit) for c in (32, 8, 2)}

    def _r_at(self, m: np.ndarray) -> np.ndarray:
        """r(m) = #{2x^2 + y^2 = m} for an int64 array of odd m in 1..limit."""
        raise NotImplementedError

    def class_number(self, m: int) -> int:
        """h(-m) for m = 3 (mod 8), h(-4m) for m = 1 (mod 8); m must be squarefree.

        T(m) = #{2x^2 + y^2 + 2z^2 = m} counts the a^2 + b^2 + y^2 = m with a = b
        (mod 2), through the bijection (a, b) = (x + z, x - z).  By Gauss's r_3:
        for m = 3 (mod 8) all three are odd, T = r_3 = 24 h(-m); for m = 1 (mod 8)
        only y is odd, in a third of them by symmetry, T = r_3 / 3 = 4 h(-4m).
        ArithmeticError if T is not divisible; ValueError unless 4 <= m <= limit has a shape above.
        """
        if not 4 <= m <= self.limit or m % 8 not in (1, 3):
            raise ValueError(f"m = {m} is not an m = 1 or 3 (mod 8) in the class-number range 4..{self.limit}")
        divisor = 24 if m % 8 == 3 else 4
        t = self._sum_over_z(m, 2, self._r_at)
        if t % divisor:
            raise ArithmeticError(f"T({m}) = {t} is not divisible by {divisor}")
        return t // divisor

    def _counts_at(self, n: int, m: int, r_at) -> ThetaCounts:
        """n's counts c32 and c8 as the z-sums at m (m = n for odd n, n/2 for even n)."""
        return ThetaCounts(n=n, c32=self._sum_over_z(m, 32, r_at), c8=self._sum_over_z(m, 8, r_at))

    def _sum_over_z(self, n: int, c_coeff: int, r_at) -> int:
        """#{a x^2 + y^2 + c z^2 = n} as the sum over z of w_z * r(n - c z^2), r given by r_at."""
        z_idx, z_w = self._z[c_coeff]
        k = isqrt(n // c_coeff) + 1
        return int(np.dot(z_w[:k], r_at(n - z_idx[:k])))


class TunnellTable(_ThetaSums):
    """Representation counts for every odd n up to a limit.

    Holds the binary counts r(m) = #{2x^2 + y^2 = m} up to the limit, built
    in one O(limit) pass.  A query sums w_z * r(n - c z^2) over z, for c = 32
    and 8 in counts and c = 2 in class_number: O(sqrt(n)) per n.
    """

    def __init__(self, limit: int):
        super().__init__(limit)
        self._r = _binary_counts(limit)

    def _r_at(self, m: np.ndarray) -> np.ndarray:
        return self._r[m]

    def counts(self, n: int) -> ThetaCounts:
        if not 1 <= n <= self.limit or n % 2 == 0:
            raise ValueError(f"n = {n} is not an odd n in the table range 1..{self.limit}")
        return self._counts_at(n, n, self._r_at)


class DivisorSums(_ThetaSums):
    """Counts and class numbers for n up to limit <= MAX_PER_N, with r(m) by divisor sums.

    A query factors only the O(sqrt(n)) points n - c z^2 it sums over, so time
    and memory are O(sqrt(n)) where a table or a reduced-form count is O(n).
    """

    def __init__(self, limit: int):
        if limit > MAX_PER_N:
            raise ValueError(f"n = {limit} exceeds the per-n bound {MAX_PER_N}")
        super().__init__(limit)

    def _r_at(self, m: np.ndarray) -> np.ndarray:
        return _divisor_sums(m, 8)

    def counts(self, n: int) -> ThetaCounts:
        """Counts for odd or even n in 1..limit; even n sums #{4x^2 + y^2 = m} at n/2."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"n = {n} is not in the range 1..{self.limit}")
        if n % 2:
            return self._counts_at(n, n, self._r_at)
        return self._counts_at(n, n // 2, lambda m: _divisor_sums(m, 4))


def counts(n: int) -> ThetaCounts:
    """Tunnell's counts for one squarefree n <= MAX_PER_N, in O(sqrt(n)) time and memory."""
    source = DivisorSums(n)  # refuses n > MAX_PER_N before any work
    factor_squarefree(n)  # raises NotSquarefree otherwise
    return source.counts(n)


def classify(n: int) -> Classification:
    return counts(n).label


def _odd_primes(limit: int) -> np.ndarray:
    """The odd primes up to limit, by a sieve of Eratosthenes."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)[1:]


def _divisor_sums(m: np.ndarray, modulus: int) -> np.ndarray:
    """2 * sum over d | m of (-modulus/d), for an int64 array of odd m >= 1 and modulus 8 or 4.

    x^2 + 2y^2 and x^2 + y^2 are the only reduced forms of discriminant -8 and
    -4, so #{x^2 + 2y^2 = m} = 2 sum (-8/d) and #{x^2 + y^2 = m} = 4 sum (-4/d);
    for odd m, x is even in half of the latter.  So this is r(m) = #{2x^2 + y^2 = m}
    (modulus 8) or #{4x^2 + y^2 = m} (modulus 4).  The sum is multiplicative:
    p^e || m contributes e + 1 when (-modulus/p) = 1, else 1 for even e and 0
    for odd e.  Trial division by the odd primes up to sqrt(max m) leaves each
    cofactor 1 or a prime, so no primality test is made.  For odd p, (-8/p) = 1
    iff p = 1, 3 (mod 8) and (-4/p) = 1 iff p = 1 (mod 4): both read
    p % modulus < modulus / 2.
    """
    if int(m.min()) < 1 or not (m & 1).all():
        raise ValueError("divisor sums need odd m >= 1")
    local = np.ones_like(m)
    cofactor = m.copy()
    # the m still being divided, their positions and their unfactored parts
    live = np.arange(m.size)
    rest = m.copy()
    for i, p in enumerate(_odd_primes(isqrt(int(m.max()))).tolist()):
        # a part below p^2 is 1 or a prime, so it is done; dropping the done
        # parts at every 8th prime saves most of the passes a check would cost
        if i % 8 == 0:
            done = rest < p * p
            if done.any():
                cofactor[live[done]] = rest[done]
                live, rest = live[~done], rest[~done]
                if live.size == 0:
                    break
        hit = np.flatnonzero(rest % p == 0)
        if hit.size == 0:
            continue
        part = rest[hit] // p
        e = np.ones(hit.size, dtype=np.int64)
        more = part % p == 0
        while more.any():
            part[more] //= p
            e += more
            more = part % p == 0
        rest[hit] = part
        local[live[hit]] *= e + 1 if p % modulus < modulus // 2 else 1 - (e & 1)
    cofactor[live] = rest
    splits = cofactor % modulus < modulus // 2
    local *= np.where(cofactor == 1, 1, np.where(splits, 2, 0))
    return 2 * local
