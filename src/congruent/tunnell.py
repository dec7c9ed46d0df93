"""Congruent-number classification by ternary-form representation counts.

For odd squarefree n the two counts are over 2x^2 + y^2 + 32z^2 = n and
2x^2 + y^2 + 8z^2 = n; for even n the forms 4x^2 + y^2 + 32z^2 and
4x^2 + y^2 + 8z^2 are evaluated at n/2.  A congruent n forces
2*c32 = c8 unconditionally, so an inequality certifies non-congruence; the
converse direction holds only under BSD, and the labels say so.

Every count is a sum over z of w_z * r(n - c z^2), with w_z = 1 at z = 0 and
2 otherwise and r(m) a binary count such as #{2x^2 + y^2 = m}, and the class
numbers a row needs are such sums too, by Gauss's three-square theorem.  For
odd n all three sums read one line r(n - 2z^2): c8 is its sum over even z and
c32 over z = 0 (mod 4).  z = 0 lies in every such set, so each weighted sum
is 2 * (the plain sum of r over the set) - r(n), and no weight is formed.
y^2 = 1 (mod 8) for odd y, so r(m) = 0 at every odd m = 5 or 7 (mod 8), and
a line m - 2z^2 is live at every z (m = 3 mod 8), at even z (1), at odd z
(5) or nowhere (7).  TunnellTable keeps r (int16, bound-checked) only at the
m = 1, 3 (mod 8) up to a limit, a contiguous array per class built a chunk
of k at a time, a quarter of the range, and serves a scan: its sums_at sums
the lines of the n = 3 (mod 8) a scan asks for, a window of n at a time, by
contiguous slice adds, summed in int16 a run of slices at a time and each run
into one int32 accumulator, and its t1 holds T of
every m = 1 (mod 8) up to limit/3, each n_q's class number.  divisor_lines
sums the lines of a batch of checked centres, deduplicated as a sorted set,
in int64 into rows T, c8 and c32 with a column per centre, taking r at the
O(sqrt(n)) points of each line as divisor sums (Tunnell 1983; Hart,
Tornaria and Watkins 2010); counts, classify and a check read it.  Its
kernel, _line_divisor_sums, lists only the live points >= 1 of each line
(mod 4 on an even n's line), flat, with their z and r: every z of an n = 3
(mod 8), the even z of an n_q = 1 (mod 8), none of an n = 7 (mod 8);
_live_sums sums them into the rows.  The kernel finds the points an odd
prime p <= sqrt(c) divides from the square roots of c/2 mod p, each one
modular power and one lookup in a table of the 2-power roots of unity mod p
(Bernstein 2001), and a point's power of p by dividing again only the points
p still divides, a sieve in O(K log log c + pi(sqrt(c)) log c) for a line of
centre c with K live points.  theta_counts enumerates the lattice box per n and is the reference
both are tested against.  congruent_under_bsd is the one place the label
rule is written; ThetaCounts.label and every scan row read it.
"""

from __future__ import annotations

import enum
import functools
from math import isqrt
from typing import NamedTuple, Union

import numpy as np

from .arith import MAX_PER_N, FactoredSquarefree, _pow_mod, _prime_sieve, _progressions, factor_squarefree, refuse_beyond_per_n_bound
from .classgroup import MAX_ABS_DISCRIMINANT


class Classification(enum.Enum):
    NON_CONGRUENT_UNCONDITIONAL = "non_congruent_unconditional"
    CONGRUENT_UNDER_BSD = "congruent_under_bsd"


class ThetaCounts(NamedTuple):
    n: int
    c32: int
    c8: int

    @property
    def label(self) -> Classification:
        if congruent_under_bsd(self.c8, self.c32):
            return Classification.CONGRUENT_UNDER_BSD
        return Classification.NON_CONGRUENT_UNCONDITIONAL


def congruent_under_bsd(c8, c32):
    """The label rule, for scalars or arrays.

    A congruent n forces 2*c32 = c8, so an inequality certifies non-congruence.
    """
    return 2 * c32 == c8


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


def class_number(m: int, t: int) -> int:
    """h(-m) for m = 3 (mod 8), h(-4m) for m = 1 (mod 8), from T = T(m); m must be squarefree.

    The line of an odd centre m is r(m - 2z^2) over z, with r(m) = #{2x^2 + y^2 = m},
    and T(m) = #{2x^2 + y^2 + 2z^2 = m} is its sum over every z (row T of
    divisor_lines and of TunnellTable.sums_at, and TunnellTable.t1).  It
    counts the a^2 + b^2 + y^2 = m with a = b (mod 2), through the bijection
    (a, b) = (x + z, x - z).  By
    Gauss's r_3: for m = 3 (mod 8) all three are odd, T = r_3 = 24 h(-m); for
    m = 1 (mod 8) only y is odd, in a third of them by symmetry,
    T = r_3 / 3 = 4 h(-4m).  NotDivisible if T is not divisible; ValueError
    unless m >= 4 has a shape above.
    """
    if m < 4 or m % 8 not in (1, 3):
        raise ValueError(f"m = {m} is not an m = 1 or 3 (mod 8) with m >= 4")
    divisor = 24 if m % 8 == 3 else 4
    if t % divisor:
        raise NotDivisible(m, t, divisor)
    return t // divisor


class NotDivisible(ArithmeticError):
    """T(m) is not the multiple of h that Gauss's r_3 makes it."""

    def __init__(self, m: int, t: int, divisor: int):
        super().__init__(f"T({m}) = {t} is not divisible by {divisor}")


# points of one batch of lines in divisor_lines, at most: 128 KiB per int64 array
_BLOCK_CELLS = 1 << 14

# values of k per window of the table's slice sums: below this numpy's cost per
# slice dominates, above it the rows leave the cache (BENCH_scan.json)
_WINDOW = 1 << 16

# values of k per chunk of a class build, counted in int32 (1 MiB): smaller
# chunks repeat the loop over u more often, larger ones hold more (BENCH_scan.json)
_CHUNK = 1 << 18

# the largest r a table holds, and the largest sum of a run of _add_shifted
_INT16_MAX = int(np.iinfo(np.int16).max)


def _chunk_counts(residue: int, k0: int, k1: int) -> np.ndarray:
    """r(8k + residue) = #{2x^2 + y^2 = 8k + residue} for k0 <= k < k1, residue 1 or 3, as int32, column k - k0.

    y is odd, y = 2v + 1 with v >= 0 for the sign of y, so y^2 = 8 v(v+1)/2 + 1.
    For residue 1, x = 2u: r(8k + 1) = 2 sum w_u over u^2 + v(v+1)/2 = k,
    w_u = 1 at u = 0 and 2 otherwise.  For residue 3, x = 2u + 1:
    r(8k + 3) = 4 #{u, v >= 0 : u(u+1) + v(v+1)/2 = k}.  Each u adds to the
    k of the triangles in k0 - u^2..k1 - u^2 (or u(u+1)), one slice of them.
    int32 cannot wrap: one u adds at most 4 to an entry.
    """
    r = np.zeros(k1 - k0, dtype=np.int32)
    v = np.arange(isqrt(2 * k1) + 1, dtype=np.int64)
    triangles = v * (v + 1) // 2
    u = np.arange(isqrt(k1) + 1, dtype=np.int64)
    squares = u * u + (residue >> 1) * u  # u^2 or u(u+1)
    squares = squares[squares < k1]
    lo, hi = (np.searchsorted(triangles, edge - squares) for edge in (k0, k1))
    for i, (square, a, b) in enumerate(zip(squares, lo, hi)):
        # each triangle once for this u = i, so the indices are distinct
        r[square - k0 + triangles[a:b]] += 2 if residue == 1 and i == 0 else 4
    return r


def _class_counts(limit: int, residue: int) -> tuple[np.ndarray, int]:
    """r(8k + residue) for k = 0..(limit - residue) // 8, residue 1 or 3, as int16, counted _CHUNK values of k at a time, and its maximum.

    Each chunk is counted in int32 by _chunk_counts and written into the
    int16 class once its maximum is checked, so the build holds the class
    and one chunk.  OverflowError names the first m whose count does not fit.
    """
    size = max(0, (limit - residue) // 8 + 1)
    r = np.empty(size, dtype=np.int16)
    top = 0
    for k0 in range(0, size, _CHUNK):
        chunk = _chunk_counts(residue, k0, min(k0 + _CHUNK, size))
        if (chunk_top := int(chunk.max())) > _INT16_MAX:
            at = int(chunk.argmax())
            raise OverflowError(f"r({8 * (k0 + at) + residue}) = {chunk_top} exceeds the table bound {_INT16_MAX} of int16")
        r[k0 : k0 + chunk.size] = chunk
        top = max(top, chunk_top)
        del chunk  # before the next chunk is counted
    return r, top


def _add_shifted(out: np.ndarray, r: np.ndarray, k0: int, shifts: list[int], group: int) -> None:
    """out[k - k0] += r[k - s] for each s of the ascending shifts and each k >= s of k0..k0 + len(out) - 1: one slice per s.

    Each run of group slices is summed in a row of r's dtype, exact while
    group * max r fits it, and the row is added into out once per run.
    """
    k1 = k0 + out.size
    shifts = [s for s in shifts if s < k1]
    row = np.empty(out.size, dtype=r.dtype)
    for i in range(0, len(shifts), group):
        first, *rest = shifts[i : i + group]
        lo = max(k0, first)  # the run's shifts ascend, so the first's slice is the longest
        np.copyto(row[lo - k0 :], r[lo - first : k1 - first])
        for s in rest:
            at = max(k0, s)
            row[at - k0 :] += r[at - s : k1 - s]
        out[lo - k0 :] += row[lo - k0 :]


class TunnellTable:
    """The binary counts r(m) = #{2x^2 + y^2 = m} at every m = 1 or 3 (mod 8) up to a limit, and T(m) at the m = 1 up to limit/3.

    y^2 = 1 (mod 8) for odd y, so 2x^2 + y^2 is 1 or 3 (mod 8) at every odd
    value: r(m) = 0 at every odd m = 5 or 7 (mod 8), and the table stores
    only the two live classes, as contiguous int16 arrays r1[k] = r(8k + 1)
    and r3[k] = r(8k + 3), limit/2 bytes together.  _class_counts counts each
    class a chunk of _CHUNK values of k at a time in int32 and narrows each
    chunk into the class once its maximum is checked, so the build holds at
    most the table and one int32 chunk.  The check is a guard, not a live limit: r(m) =
    2 sum_{d | m} (-8/d) <= 2 tau(m), so r stays far below 2^15 (its
    maximum up to 10^7 is 144).  top keeps the largest r the check saw, and
    group = 32,767 // top is how many slices _add_shifted sums in int16.

    t1[k] = T(8k + 1) in int32 for every 8k + 1 <= limit/3, which an n_q = n/q
    of a scan row is: its line is live at even z = 2j only, where it reads
    r1[k - j^2].  sums_at() gives the sums of the n = 3 (mod 8) at the k asked for.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be positive")
        (self.r1, top1), (self.r3, top3) = (_class_counts(limit, residue) for residue in (1, 3))
        self.top = max(top1, top3)
        self.t1 = np.zeros((limit // 3 - 1) // 8 + 1, dtype=np.int32)
        squares = [j * j for j in range(isqrt(self.t1.size) + 1)]
        for k0 in range(0, self.t1.size, _WINDOW):
            _add_shifted(self.t1[k0 : k0 + _WINDOW], self.r1, k0, squares, self.group)
        self.t1 *= 2  # T = 2 sum_j r1[k - j^2] - r1[k], in place
        self.t1 -= self.r1[: self.t1.size]

    @property
    def group(self) -> int:
        """The shifts _add_shifted sums in int16 before each add into int32: the most whose sum of r cannot exceed 32,767."""
        return _INT16_MAX // self.top

    def sums_at(self, ks: np.ndarray) -> np.ndarray:
        """Rows T, c8 and c32 in int32 of the table's n = 8k + 3 at the ascending k of ks alone, column i for ks[i].

        The k of each window of _WINDOW values are summed together, from the
        first of them to the last, in one int32 accumulator.  The line
        n - 2z^2 reads r3[k - j^2] at even z = 2j and r1[k - j(j+1)] at odd
        z = 2j + 1, each j a slice add (_add_shifted) cut where its index goes
        below 0, at the points below 1.  With e0 the sum over even j, e1 over
        odd j and o over the odd z: c32 = 2 e0 - r3[k], c8 = 2 (e0 + e1) -
        r3[k] and T = 2 (e0 + e1 + o) - r3[k], each gathered at the k once its
        part is added.  int32 cannot wrap: 2 acc <= T + r3[k], T <= 2 max r
        (isqrt(limit // 2) + 1), and the checked max r <= 32,767 keeps their
        sum below 2^31 for every limit up to 2 * 10^9.  int16 cannot wrap
        either: _add_shifted sums group slices at a time in an int16 row
        before each add into acc, and group * max r <= 32,767, with group >=
        12 at every limit a scan admits, as r(m) <= 2 tau(m) <= 2 * 1,344
        below 10^9.  ValueError names the first k out of order or outside
        0..len(r3) - 1.
        """
        ks = np.asarray(ks, dtype=np.int64)
        bad = (ks < 0) | (ks >= self.r3.size)
        bad[1:] |= ks[1:] < ks[:-1]
        if bad.any():
            raise ValueError(f"k = {ks[bad.argmax()]} is out of order or not within 0..{self.r3.size - 1}, the k of the table's n = 8k + 3")
        rows = np.empty((3, ks.size), dtype=np.int32)
        edges = [0, *(np.flatnonzero(np.diff(ks // _WINDOW)) + 1).tolist(), ks.size] if ks.size else []
        for lo, hi in zip(edges, edges[1:]):
            k0, k1 = int(ks[lo]), int(ks[hi - 1]) + 1
            acc, at, r3 = np.zeros(k1 - k0, dtype=np.int32), ks[lo:hi] - k0, self.r3[ks[lo:hi]]
            squares = [j * j for j in range(isqrt(k1) + 1)]
            parts = ((self.r3, squares[::2]), (self.r3, squares[1::2]), (self.r1, [square + j for j, square in enumerate(squares)]))
            for row, (r, shifts) in zip(rows[::-1], parts):  # c32, c8, T
                _add_shifted(acc, r, k0, shifts, self.group)
                np.subtract(2 * acc[at], r3, out=row[lo:hi])
        return rows


# row j: whether a z = j (mod 4) enters the sum over every z, over the even z and over the z = 0 (mod 4)
_Z_SETS = np.array([[1, 1, 1], [1, 0, 0], [1, 1, 0], [1, 0, 0]])


def _live_sums(size: np.ndarray, z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The sums of the lines whose live points _line_divisor_sums lists, a column per line, in int64.

    The rows sum w_z * r, w_z = 1 at z = 0, else 2, over every z, the even z
    and the z = 0 (mod 4): T, c8 and c32 on the line c - 2z^2 of an odd
    centre, c8 and c32 first on the line n/2 - 8z^2 of an even n.  Each point
    adds into its line's sum of its z mod 4, and _Z_SETS adds those up.
    """
    parts = np.zeros(4 * size.size, dtype=np.int64)
    np.add.at(parts, np.repeat(np.arange(0, 4 * size.size, 4), size) + (z & 3), np.where(z, 2 * r, r))
    return (parts.reshape(-1, 4) @ _Z_SETS).T


def divisor_lines(centres) -> np.ndarray:
    """The line sums of odd centres in 1..MAX_PER_N, with r(m) by divisor sums: rows T, c8 and c32, column i for centres[i].

    Batches of at most _BLOCK_CELLS points of the distinct centres go through
    _line_divisor_sums, which sieves the live points of each line by the
    primes up to the square root of its centre n, in O(sqrt(n) log log n +
    pi(sqrt(n)) log n) time and O(sqrt(n) log log n) memory, and _live_sums.
    ValueError names the least centre that is not an odd integer in
    1..MAX_PER_N before any work.
    """
    refuse_beyond_per_n_bound(max(centres, default=0))
    ms = np.array(sorted(set(centres)))
    # before an int64 cast could truncate a centre (3.5 to 3)
    if (bad := (ms < 1) | (ms > MAX_PER_N) | (ms % 2 != 1)).any():
        raise ValueError(f"m = {ms[bad.argmax()]} is not an odd centre in 1..{MAX_PER_N}")
    ms = ms.astype(np.int64, copy=False)
    step = max(1, _BLOCK_CELLS // (isqrt(int(ms[-1]) // 2) + 1 if ms.size else 1))
    sums = np.zeros((3, ms.size), dtype=np.int64)
    for lo in range(0, ms.size, step):
        sums[:, lo : lo + step] = _live_sums(*_line_divisor_sums(ms[lo : lo + step], 2, 8))
    return sums[:, np.searchsorted(ms, centres)]


def counts(n: Union[int, FactoredSquarefree]) -> ThetaCounts:
    """Tunnell's counts for one squarefree n <= MAX_PER_N, in O(sqrt(n)) time and memory.

    An int n is factored (NotSquarefree if it is not); a FactoredSquarefree
    is not factored again.  Odd n sums its line r(n - 2z^2), as divisor_lines
    does; even n sums the line r'(n/2 - 8z^2), r'(m) = #{4x^2 + y^2 = m}.
    """
    factored = isinstance(n, FactoredSquarefree)
    if factored:
        n = n.value
    refuse_beyond_per_n_bound(n)
    if not factored:
        factor_squarefree(n)  # raises NotSquarefree otherwise
    a, modulus, centre = (2, 8, n) if n % 2 else (8, 4, n // 2)
    sums = _live_sums(*_line_divisor_sums(np.array([centre], dtype=np.int64), a, modulus))[:, 0].tolist()
    return ThetaCounts(n=n, c32=sums[1 + n % 2], c8=sums[n % 2])  # rows T, c8, c32 for odd n; c8, c32 for even n


def classify(n: Union[int, FactoredSquarefree]) -> Classification:
    return counts(n).label


# the bound of a sieving-prime table is the least power of two >= sqrt(max c),
# but at least this, so one table of 563 primes serves every centre below 2^24
_LEAST_SIEVE_BOUND = 1 << 12
# a table key is (index of p) << _KEY_BITS | g^i, and every g^i < p <= 10^5 < 2^17
_KEY_BITS = 17
# hits _line_divisor_sums expands at once; the two lines of a check of an
# n <= 10^7 have under 8,000, so they take one slice
_HIT_BUDGET = 1 << 15


@functools.cache
def _sieving_primes(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The odd primes p <= bound and the constants _square_roots reads, built once per bound and kept read-only.

    With p - 1 = q 2^s, q odd: the exponent (q - 1)/2; c = d^q for a
    non-residue d (p - 1 for s = 1, 2 for s = 2, else the least), which has
    order 2^s; and a table of the 2^(s-1) powers g^i of g = c^2, the values
    b^q takes at the residues b.  The table's keys, (index of p) << 17 | g^i,
    are sorted (int32, one sort), and c^-i is stored next to each: about
    2.3k entries for the bound 2^12 and 96k for 10^5.
    """
    p = np.flatnonzero(_prime_sieve(bound))[1:]  # the odd primes
    low = (p - 1) & (1 - p)  # 2^s, the lowest set bit of p - 1
    q = (p - 1) // low
    wide = np.flatnonzero(low > 2)  # s >= 2; for s = 1, d = -1 and c = -1
    d = np.full(wide.size, 2)
    # the least non-residue of a p = 1 (mod 8) is an odd prime l < sqrt(p) + 1,
    # and (l/p) = (p/l) by reciprocity, so it is read off the squares mod l;
    # each l is tried only on the primes that still lack one
    pending = np.flatnonzero(low[wide] >= 8)
    for l in p[p <= isqrt(int(p[-1])) + 1].tolist():
        squares = np.zeros(l, dtype=bool)
        squares[np.arange(l) ** 2 % l] = True
        found = ~squares[p[wide[pending]] % l]
        d[pending[found]] = l
        if (pending := pending[~found]).size == 0:
            break
    c = p - 1
    c[wide] = _pow_mod(d, q[wide], p[wide])
    # the primes of one s at a time: the powers c^i, i < L = 2^(s-1), by
    # doubling i; g^i is their square and c^-i = -c^(L-i), as c^L = -1
    size = low >> 1
    packed = []
    for run in (1 << k for k in range(int(size.max()).bit_length())):
        j = np.flatnonzero(size == run)
        pj = p[j, None]
        power = np.ones((j.size, run), dtype=np.int64)
        step, half = c[j, None], 1
        while half < run:
            power[:, half : 2 * half] = power[:, :half] * step % pj
            step, half = step * step % pj, 2 * half
        inverse = np.ones_like(power)
        inverse[:, 1:] = pj - power[:, :0:-1]
        packed.append(((j[:, None] << _KEY_BITS | power * power % pj) << _KEY_BITS | inverse).ravel())
    packed = np.sort(np.concatenate(packed))
    constants = p, q >> 1, c, (packed >> _KEY_BITS).astype(np.int32), packed & (1 << _KEY_BITS) - 1
    for column in constants:
        column.flags.writeable = False  # every caller shares them
    return constants


def _square_roots(
    b: np.ndarray, p: np.ndarray, half_q: np.ndarray, keys: np.ndarray, inverse: np.ndarray, index: np.ndarray | None = None
) -> np.ndarray:
    """A square root of b modulo the odd prime p, elementwise, or -1 where b is a non-residue.

    b is an int64 array reduced mod p; p, its (q - 1)/2 and index, the index of
    p in a _sieving_primes table whose keys and c^-i are given, broadcast
    against it.  By default index is 0, 1, ... along the last axis, as for
    the first primes of the table.  One modular power and one table lookup
    per element: with y = b^((q-1)/2), x = b y and t = x y = b^q, a residue's
    t is some g^i = c^(2i), found by its key, and x c^-i squares to
    b t c^(-2i) = b.  A non-residue's t is no g^i, so its candidate's square
    is not b and marks it; b = 0 has root 0.
    """
    if index is None:
        index = np.arange(p.shape[-1])
    y = _pow_mod(b, half_q, p)
    x = b * y % p
    at = np.searchsorted(keys, index << _KEY_BITS | x * y % p)
    root = x * inverse[np.minimum(at, keys.size - 1)] % p
    return np.where(root * root % p == b, root, -1)


def _line_divisor_sums(centres: np.ndarray, a: int, modulus: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2 * sum over d | m of (-modulus/d) at the live points m = c - a z^2 >= 1 of the lines of odd centres c >= 1.

    The result is flat, in int64: each line's count of live points, then z
    and the sum at each point, line by line in increasing z.  With a = 2 and
    modulus 8 the sum is r(m) = #{2x^2 + y^2 = m} on the line of an odd
    centre; with a = 8 and modulus 4, #{4x^2 + y^2 = m} on the n/2 line of an
    even n.  x^2 + 2y^2 and x^2 + y^2 are the only reduced forms of
    discriminant -8 and -4, so #{x^2 + 2y^2 = m} = 2 sum (-8/d) and
    #{x^2 + y^2 = m} = 4 sum (-4/d); for odd m, x is even in half of the
    latter.  The sum is multiplicative: p^e || m contributes e + 1 when
    (-modulus/p) = 1, else 1 for even e and 0 for odd e.  For odd p,
    (-8/p) = 1 iff p = 1, 3 (mod 8) and (-4/p) = 1 iff p = 1 (mod 4): both
    read p % modulus < modulus / 2.

    Only live points are listed and factored.  The sum is 0 at an odd m with
    (-modulus/m) = -1, where the divisors d and m/d have opposite characters,
    and a z^2 is 0 (mod modulus) at even z and a at odd z, so each parity of
    z is live or dead on the whole line.  A line lists every z, the even z
    (the sub-line c - 4a z'^2, as for c = 1 (mod 8) with a = 2), the odd z, or
    none, up to its last point >= 1; the sum is 0 at every point it omits.

    A sieve finds the factors: an odd p divides c - a z^2 exactly when
    z^2 = c/a (mod p), so the points p divides are the progressions
    z = +-root (mod p), one progression when p | c, and on a sub-line
    z = first + 2j they are progressions in j of the same step p.  Line i
    pairs with the primes p <= sqrt(c_i): they leave 1 or a prime of each of
    its points, so no primality test is made.  _square_roots takes the roots
    of every (centre, prime) pair at once; the progressions become hits a
    slice of about _HIT_BUDGET hits at a time, so memory holds one slice, not
    every hit of the batch, and each hit's exponent comes from dividing its
    point.  A line of K_i live points costs O(K_i log log c_i) for the hits
    and O(pi(sqrt(c_i)) log c_i) for the roots.
    """
    if int(centres.min()) < 1 or not (centres & 1).all():
        raise ValueError("divisor sums need odd m >= 1 at every centre")
    primes, half_q, _, keys, inverse = _sieving_primes(
        min(max(1 << (isqrt(int(centres.max())) - 1).bit_length(), _LEAST_SIEVE_BOUND), isqrt(MAX_PER_N))
    )
    shape = []  # of each line: its first live z, their stride and count, and its prime bound sqrt(c), 0 if none is live
    for c in centres.tolist():
        even, odd = c % modulus < modulus // 2, (c - a) % modulus < modulus // 2  # live at even, odd z
        first, stride = int(not even), 2 - (even and odd)
        size = (isqrt((c - 1) // a) - first) // stride + 1 if even or odd else 0
        shape.append((first, stride, size, isqrt(c) if size else 0))
    first, stride, size, bound = np.array(shape).T
    offset = np.cumsum(size) - size  # of each line's first point
    # z is made again for the result, so that the sieve does not hold it
    m = np.repeat(centres, size) - a * _progressions(first, stride, size) ** 2
    # the (line, prime) pairs: the primes p <= sqrt(c) of each live line
    cut = np.searchsorted(primes, bound, side="right")
    pair = np.repeat(np.arange(centres.size), cut)
    index = np.concatenate([np.arange(n) for n in cut.tolist()])
    p = primes[index]
    b = centres[pair] % p
    for _ in range(a.bit_length() - 1):  # b = c/a (mod p), a power of 2: halve mod p
        b = (b + (b & 1) * p) >> 1
    root = _square_roots(b, p, half_q[index], keys, inverse, index)
    found = np.flatnonzero(root >= 0)
    pair, p, root = pair[found], p[found], root[found]
    other = np.flatnonzero(root)
    rows = np.concatenate([pair, pair[other]])
    step = np.concatenate([p, p[other]])
    # z = +-root (mod p) is j = (z - first)/stride (mod p) on the sub-line z = first + stride j
    start = (np.concatenate([root, p[other] - root[other]]) - first[rows]) % step
    halve = stride[rows] >> 1
    start = (start + (start & halve) * step) >> halve
    # the hits j = start, start + step, ... below each line's count of live points
    count = (size[rows] - start + step - 1) // step
    start += offset[rows]  # the line's offset among the points m
    plus = step % modulus < modulus // 2  # (-modulus/p) = 1
    end = np.cumsum(count)
    before = end - count
    total = int(end[-1]) if end.size else 0
    local = np.full_like(m, 2)  # 2 * the product of the contributions found at each point
    sieved = np.ones_like(m)  # the product of the p^e found at each point
    lo = done = 0
    while done < total:  # the progressions lo..hi - 1 hold the hits done.. of this slice
        hi = end.size
        if total - done > _HIT_BUDGET:
            hi = max(lo + 1, int(np.searchsorted(end, done + _HIT_BUDGET, side="right")))
        which = np.repeat(np.arange(lo, hi), count[lo:hi])
        hp = step[which]
        hit = start[which] + hp * (np.arange(done, done + which.size) - before[which])
        rest = m[hit] // hp
        e = np.ones_like(rest)
        # the hits their prime divides again, compact; a wrong hit below its prime leaves 0, which every p divides
        more = np.flatnonzero((rest % hp == 0) & (rest > 0))
        rest, prime = rest[more], hp[more]
        while more.size:
            rest //= prime
            e[more] += 1
            again = rest % prime == 0
            more, rest, prime = more[again], rest[again], prime[again]
        np.multiply.at(sieved, hit, hp**e)
        np.multiply.at(local, hit, np.where(plus[which], e + 1, 1 - (e & 1)))
        lo, done = hi, done + which.size
    # what the primes leave of a live m is 1 or a prime P, and (-modulus/P) = 1
    # wherever the primes' part of the sum is not already 0
    local <<= m > sieved  # doubled where a prime is left
    return size, _progressions(first, stride, size), local
