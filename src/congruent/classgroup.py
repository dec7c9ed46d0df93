"""Class numbers of imaginary quadratic fields by counting reduced forms.

h(D) is the number of reduced primitive binary quadratic forms (a, b, c) of
discriminant D < 0: b^2 - 4ac = D, |b| <= a <= c, gcd(a, b, c) = 1, and b >= 0
whenever |b| = a or a = c.  Counting is exact integer work; the inner sweep is
vectorized with numpy (int64 is exact throughout the supported range).

check and scan read their class numbers from the theta sums in tunnell
instead; this count serves classnum and every other D, and is the reference
the theta sums are tested against.
"""

from __future__ import annotations

from math import isqrt
from typing import Union

import numpy as np

from .arith import FactoredSquarefree, factor_squarefree


# |D| above this is refused before anything is allocated: the reduced-form
# sweep holds O(|D|) int64 entries, about 246 MiB of peak RSS at |D| = 10^8.
# tunnell.theta_counts refuses n above it too, its O(n) count taking seconds.
MAX_ABS_DISCRIMINANT = 10**8


def fundamental_discriminant(m: Union[int, FactoredSquarefree]) -> int:
    """D = -m when -m = 1 (mod 4), else -4m, for |D| <= MAX_ABS_DISCRIMINANT.

    A D beyond the bound is refused first; then an int m is factored:
    NotSquarefree if it is not.
    """
    value = m.value if isinstance(m, FactoredSquarefree) else m
    if value < 1:
        raise ValueError(f"expected positive m, got {value}")
    D = -value if (-value) % 4 == 1 else -4 * value
    _refuse_beyond_bound(D)
    if not isinstance(m, FactoredSquarefree):
        factor_squarefree(m)
    return D


def _refuse_beyond_bound(D: int) -> None:
    if -D > MAX_ABS_DISCRIMINANT:
        raise ValueError(f"|D| = {-D} exceeds the supported bound {MAX_ABS_DISCRIMINANT}")


def _count_reduced_forms(D: int) -> int:
    # Sweep b with b = D (mod 2), 0 <= b <= sqrt(|D|/3); for each b the reduced
    # forms are the factorizations (b^2 - D)/4 = a*c with b <= a <= c. Forms
    # with b > 0 not on the boundary (b = a or a = c, b = 0) count twice for -b.
    bmax = isqrt(-D // 3)
    bs = np.arange(D & 1, bmax + 1, 2, dtype=np.int64)
    if bs.size == 0:
        return 0
    vals = (bs * bs - D) >> 2
    amax = np.sqrt(vals.astype(np.float64)).astype(np.int64)
    amax += (amax + 1) * (amax + 1) <= vals
    amax -= amax * amax > vals
    lo = np.maximum(bs, 1)
    lengths = np.maximum(amax - lo + 1, 0)
    total = int(lengths.sum())
    if total == 0:
        return 0
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat_a = np.arange(total, dtype=np.int64) - offsets + np.repeat(lo, lengths)
    flat_val = np.repeat(vals, lengths)
    mask = flat_val % flat_a == 0
    a_d = flat_a[mask]
    b_d = np.repeat(bs, lengths)[mask]
    c_d = flat_val[mask] // a_d
    primitive = np.gcd(np.gcd(a_d, b_d), c_d) == 1
    on_boundary = (b_d == 0) | (b_d == a_d) | (a_d == c_d)
    weights = np.where(on_boundary, 1, 2)
    return int(weights[primitive].sum())


def class_number(D: int) -> int:
    """Exact h(D) for a fundamental discriminant D < 0 with |D| <= MAX_ABS_DISCRIMINANT."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"not a negative discriminant: {D}")
    _refuse_beyond_bound(D)
    return _count_reduced_forms(D)


def genus_two_rank(D: int) -> int:
    """Gauss genus theory: r_2 = (number of distinct primes dividing D) - 1."""
    if D % 4:
        return len(factor_squarefree(-D).primes) - 1
    return len(set(factor_squarefree(-D // 4).primes) | {2}) - 1
