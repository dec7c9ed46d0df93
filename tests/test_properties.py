"""Property-based tests of the exact kernels, with sympy as a third oracle.

Every test is derandomized, so a run draws the same examples each time, and
keeps no example database.
"""

from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from congruent.arith import NotSquarefree, factor_squarefree, jacobi
from congruent.descent import star
from congruent.gf2 import rank_f2
from congruent.norms import represent

from test_norms import all_ef_reps, all_u_reps

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
@given(st.integers(min_value=1, max_value=10**12))
def test_factor_squarefree_matches_sympy(v):
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
