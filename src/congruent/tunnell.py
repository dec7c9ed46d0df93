"""Congruent-number classification by ternary-form representation counts.

For odd squarefree n the two counts are over 2x^2 + y^2 + 32z^2 = n and
2x^2 + y^2 + 8z^2 = n; for even n the forms 4x^2 + y^2 + 32z^2 and
4x^2 + y^2 + 8z^2 are evaluated at n/2.  A congruent n forces
2*c32 = c8 unconditionally, so an inequality certifies non-congruence; the
converse direction holds only under BSD, and the labels say so.

Two independent paths: theta_counts enumerates the lattice box per n;
TunnellTable keeps r(m) = #{2x^2 + y^2 = m} for a whole range and writes each
ternary count for odd n as the sum over z of w_z * r(n - c z^2), with w_z = 1
at z = 0 and 2 otherwise (exact int64 throughout).  The same table gives the
class numbers a scan row needs, by Gauss's three-square theorem.
ThetaCounts.label is the one place the label rule is written.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import factor_squarefree
from .classgroup import MAX_ABS_DISCRIMINANT


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
    """Exhaustive counts for one squarefree n >= 1; the work is O(n), so n > MAX_ABS_DISCRIMINANT is refused."""
    if n > MAX_ABS_DISCRIMINANT:
        raise ValueError(f"n = {n} exceeds the supported bound {MAX_ABS_DISCRIMINANT}")
    factor_squarefree(n)  # raises NotSquarefree otherwise
    if n % 2 == 1:
        return ThetaCounts(n=n, c32=_count_form(2, 32, n), c8=_count_form(2, 8, n))
    half = n // 2
    return ThetaCounts(n=n, c32=_count_form(4, 32, half), c8=_count_form(4, 8, half))


def classify(n: int) -> Classification:
    return theta_counts(n).label


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


class TunnellTable:
    """Representation counts for every odd n up to a limit.

    Holds the binary counts r(m) = #{2x^2 + y^2 = m} up to the limit, built
    in one O(limit) pass.  A query sums w_z * r(n - c z^2) over z, for c = 32
    and 8 in counts and c = 2 in class_number: O(sqrt(n)) per n.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._r = _binary_counts(limit)
        self._z = {c: _theta_weights(c, limit) for c in (32, 8, 2)}

    def counts(self, n: int) -> ThetaCounts:
        if not 1 <= n <= self.limit or n % 2 == 0:
            raise ValueError(f"n = {n} is not an odd n in the table range 1..{self.limit}")
        return ThetaCounts(n=n, c32=self._sum_over_z(n, 32), c8=self._sum_over_z(n, 8))

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
        t = self._sum_over_z(m, 2)
        if t % divisor:
            raise ArithmeticError(f"T({m}) = {t} is not divisible by {divisor}")
        return t // divisor

    def _sum_over_z(self, n: int, c_coeff: int) -> int:
        """#{2x^2 + y^2 + c z^2 = n} as the sum over z of w_z * r(n - c z^2)."""
        z_idx, z_w = self._z[c_coeff]
        k = isqrt(n // c_coeff) + 1
        return int(np.dot(z_w[:k], self._r[n - z_idx[:k]]))
