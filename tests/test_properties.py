"""Property-based tests of the exact kernels, with sympy as a third oracle.

Every test is derandomized, so a run draws the same examples each time, and
keeps no example database.
"""

from math import gcd, prod

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congruent.arith import NotSquarefree, factor_squarefree, jacobi
from congruent.descent import star
from congruent.gf2 import rank_f2
from congruent.norms import represent
from congruent.tunnell import MAX_PER_N

from test_norms import all_ef_reps, all_u_reps
from test_tunnell import dense_lines

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

odd_moduli = st.integers(min_value=0, max_value=10**6).map(lambda k: 2 * k + 1)
residues = st.integers(min_value=-(10**9), max_value=10**9)
PRIMES_1_MOD_8 = [p for p in sympy.primerange(3, 400) if p % 8 == 1]


@SETTINGS
@given(residues, residues, odd_moduli)
def test_jacobi_multiplicative_in_the_top(a, b, m):
    assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)


@SETTINGS
@given(residues, odd_moduli, odd_moduli)
def test_jacobi_multiplicative_in_the_bottom(a, m, n):
    assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


@SETTINGS
@given(odd_moduli, odd_moduli)
def test_jacobi_reciprocity(m, n):
    if gcd(m, n) != 1:
        assert jacobi(m, n) == jacobi(n, m) == 0
        return
    flip = -1 if m % 4 == 3 and n % 4 == 3 else 1
    assert jacobi(m, n) * jacobi(n, m) == flip


@SETTINGS
@given(residues, odd_moduli)
def test_jacobi_matches_sympy(a, m):
    assert jacobi(a, m) == sympy.jacobi_symbol(a % m, m)


@SETTINGS
@given(st.one_of(st.integers(min_value=1, max_value=MAX_PER_N), st.integers(min_value=MAX_PER_N + 1, max_value=10**12)))
@example(MAX_PER_N)
@example(MAX_PER_N + 1)
def test_factor_squarefree_matches_sympy(v):
    # v is drawn below and above the per-n bound about as often, up to 10^12: a match with
    # sympy up to the bound, the bound's ValueError above it
    if v > MAX_PER_N:
        with pytest.raises(ValueError, match=f"^n = {v} exceeds the per-n bound {MAX_PER_N}$"):
            factor_squarefree(v)
        return
    factors = sympy.factorint(v)
    if any(e > 1 for e in factors.values()):
        with pytest.raises(NotSquarefree):
            factor_squarefree(v)
    else:
        assert factor_squarefree(v).primes == tuple(sorted(factors))


@st.composite
def bit_matrices(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    packed = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return tuple(packed), cols


@SETTINGS
@given(bit_matrices())
def test_rank_equals_rank_of_transpose(matrix):
    m, cols = matrix
    transposed = tuple(sum(((row >> j) & 1) << i for i, row in enumerate(m)) for j in range(cols))
    r = rank_f2(m)
    assert r == rank_f2(transposed)
    assert r <= min(len(m), cols)


@st.composite
def divisor_triples(draw):
    """A squarefree m and three of its divisors, each a subset of m's primes."""
    primes = draw(st.lists(st.sampled_from(list(sympy.primerange(2, 60))), min_size=1, max_size=6, unique=True))
    divisor = st.lists(st.sampled_from(primes), unique=True).map(prod)
    return prod(primes), draw(divisor), draw(divisor), draw(divisor)


@SETTINGS
@given(divisor_triples())
def test_star_group_law(mabc):
    m, a, b, c = mabc
    assert m % star(a, b) == 0  # closed on the divisors of m
    assert star(a, b) == star(b, a)
    assert star(star(a, b), c) == star(a, star(b, c))
    assert star(a, 1) == a and star(a, a) == 1  # identity 1, every a its own inverse


@settings(SETTINGS, max_examples=40)
@given(st.lists(st.sampled_from(PRIMES_1_MOD_8), min_size=1, max_size=3, unique=True))
def test_represent_normalisation(primes):
    P = factor_squarefree(prod(primes))
    rep = represent(P)
    assert rep.u * rep.u + 2 * rep.v * rep.v == P.value
    assert 2 * rep.e * rep.e - rep.f * rep.f == P.value
    assert min(rep.u, rep.v, rep.e, rep.f) > 0
    assert rep.u % 2 == rep.e % 2 == rep.f % 2 == 1 and rep.v % 2 == 0
    # u and f are the smallest over every representation
    assert (rep.u, rep.v) == all_u_reps(P.value)[0]
    assert (rep.e, rep.f) == all_ef_reps(P.value)[0]


# odd centres c <= MAX_PER_N, small ones (whole lines, points below 1) as often as large ones
odd_centres = st.one_of(st.integers(0, 5_000), st.integers(0, MAX_PER_N // 2 - 1)).map(lambda k: 2 * k + 1)
# (a, modulus): the line c - 2z^2 of an odd n and the line n/2 - 8z^2 of an even n
LINE_SHAPES = [(2, 8), (8, 4)]


def divisor_sum_by_sympy(m, modulus):
    """2 * sum over d | m of (-modulus/d), 0 for m below 1."""
    if m < 1:
        return 0
    return 2 * sum(sympy.jacobi_symbol(-modulus % d, d) for d in sympy.divisors(m))


@SETTINGS
@given(st.lists(odd_centres, min_size=1, max_size=3), st.sampled_from(LINE_SHAPES), st.integers(1, 48))
# 105 = 3 * 5 * 7 and 10^10 - 1 = 3^2 * 11 * 41 * 271 * 9091: sieving primes divide
# the centre (one root each) and 9 divides it; 225 = 3^2 * 5^2 at z = 0
@example([105, 9_999_999_999, 225], (2, 8), 48)
@example([105, 9_999_999_999, 225], (8, 4), 48)
# below 9 no prime is sieved; m = 1 at z = 0 of 1, at z = 1 of 3 (a = 2) and of 9 (a = 8)
@example([1, 3, 5, 7], (2, 8), 3)
@example([1, 7, 9], (8, 4), 2)
# p = 257 (p - 1 = 2^8) divides the point at z = 1, and 65537 (p - 1 = 2^16)
# divides it once, or (4295098371 - 2 = 65537^2) twice
@example([257 * 301 + 2, 65537 * 70001 + 2, 65537**2 + 2], (2, 8), 4)
@example([257 * 301 + 8, 65537 * 70001 + 8, 65537**2 + 8], (8, 4), 4)
# the last hypothesis n below the per-n bound and its n_q
@example([9_999_999_771, 3_333_333_257], (2, 8), 48)
@example([9_999_999_771, 3_333_333_257], (8, 4), 48)
# odd prime squares, each = 1 (mod 8) and so read at even z on the a = 2 line,
# whose point p^2 at z = 0 needs p = isqrt(c) itself; the last centre puts
# the lines' prime bounds 10^5 apart
@example([9, 121, 289, 361, 529, 9_999_999_771], (2, 8), 48)
@example([9, 121, 289, 361, 529, 9_999_999_771], (8, 4), 48)
# one centre of each class 1, 3, 5 and 7 (mod 8)
@example([1_000_001, 1_000_003, 1_000_005, 1_000_007], (2, 8), 48)
@example([1_000_001, 1_000_003, 1_000_005, 1_000_007], (8, 4), 48)
# centres = 3 (mod 8), live at every z, whose z = 1 points are 3^14 and 5^8:
# the exponent loop divides them 13 and 7 more times
@example([4_782_971, 390_627], (2, 8), 48)
def test_line_divisor_sums_match_sympy(centres, shape, k):
    a, modulus = shape
    got, listed = dense_lines(centres, a, k, modulus)
    expected = [[divisor_sum_by_sympy(c - a * z * z, modulus) for z in range(k)] for c in centres]
    assert got.tolist() == expected
    assert not np.array(expected)[~listed].any()  # no live point is left out
