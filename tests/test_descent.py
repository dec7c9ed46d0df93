"""Tests for the divisor-pair maps, their kernel, and torsor witnesses."""

from itertools import product

import pytest

from congruent.arith import factor_squarefree
from congruent.descent import (
    MAX_WITNESS_BOUND,
    DivisorPair,
    PairNotInKernel,
    divisors,
    find_witness,
    kernel_K,
    phi_p,
    star,
)
from congruent.selmer import selmer_rank


def odd_squarefree(limit):
    out = []
    for m in range(3, limit + 1, 2):
        try:
            out.append(factor_squarefree(m))
        except ValueError:
            continue
    return out


def test_star_group_law():
    assert star(1, 1) == 1
    assert star(3, 5) == 15
    assert star(15, 5) == 3
    assert star(15, 15) == 1


def test_phi_identity_and_anchors():
    m5 = factor_squarefree(5)
    assert phi_p(DivisorPair(1, 1), 5, m5) == (1, 1)
    assert phi_p(DivisorPair(5, 1), 5, m5) == (-1, -1)  # ((2/5), (2/5))
    assert phi_p(DivisorPair(1, 5), 5, m5) == (-1, -1)  # ((2/5), (-2/5))
    m3 = factor_squarefree(3)
    assert phi_p(DivisorPair(3, 1), 3, m3) == (-1, -1)  # (2/3) = -1 twice
    assert phi_p(DivisorPair(1, 3), 3, m3) == (-1, 1)  # (2/3), (-2/3)


def test_phi_rejects_bad_arguments():
    m15 = factor_squarefree(15)
    with pytest.raises(ValueError):
        phi_p(DivisorPair(1, 1), 7, m15)
    with pytest.raises(ValueError):
        phi_p(DivisorPair(2, 1), 3, m15)


def test_phi_is_homomorphism_small():
    # exhaustive over all pair products; the acceptance suite covers m <= 1000
    for m in odd_squarefree(200):
        divs = divisors(m)
        pairs = [DivisorPair(a, b) for a, b in product(divs, repeat=2)]
        for p in m.primes:
            values = {pair: phi_p(pair, p, m) for pair in pairs}
            for g, h in product(pairs, repeat=2):
                gh = DivisorPair(star(g.a, h.a), star(g.b, h.b))
                expected = (values[g][0] * values[h][0], values[g][1] * values[h][1])
                assert values[gh] == expected, (m.value, p, g, h)


def test_kernel_examples():
    assert kernel_K(factor_squarefree(3)) == {DivisorPair(1, 1)}
    k5 = kernel_K(factor_squarefree(5))
    assert len(k5) == 2 and DivisorPair(1, 1) in k5
    k219 = kernel_K(factor_squarefree(219))
    assert k219 == {DivisorPair(1, 1), DivisorPair(73, 1), DivisorPair(1, 73), DivisorPair(73, 73)}


def test_kernel_size_matches_selmer_rank_small():
    for m in odd_squarefree(300):
        assert len(kernel_K(m)) == 2 ** selmer_rank(m), m.value


def test_witness_trivial_pair():
    w = find_witness(factor_squarefree(3), DivisorPair(1, 1), bound=10)
    assert (w.x, w.y, w.z, w.w) == (1, 0, 1, 1)


def test_witness_m5():
    m5 = factor_squarefree(5)
    pair = next(p for p in kernel_K(m5) if p != DivisorPair(1, 1))
    assert pair == DivisorPair(5, 5)
    w = find_witness(m5, pair, bound=100)
    assert (w.x, w.y, w.z, w.w) == (1, 2, 3, 1)
    # both defining equations hold exactly
    a, b = w.pair
    assert a * b * w.x**2 + 5 * w.y**2 == a * w.z**2
    assert a * b * w.x**2 - 5 * w.y**2 == b * w.w**2


def test_witness_outside_kernel():
    with pytest.raises(PairNotInKernel):
        find_witness(factor_squarefree(3), DivisorPair(3, 1), bound=10)


def test_witness_rejects_non_divisor_pair():
    with pytest.raises(PairNotInKernel):
        find_witness(factor_squarefree(3), DivisorPair(2, 1), bound=10)


def test_witness_kernel_check_matches_kernel_K():
    for m in odd_squarefree(255):
        kernel = kernel_K(m)
        for a, b in product(divisors(m), repeat=2):
            pair = DivisorPair(a, b)
            if pair in kernel:
                find_witness(m, pair, bound=1)
            else:
                with pytest.raises(PairNotInKernel):
                    find_witness(m, pair, bound=1)


def test_witness_bound_is_semi_decision():
    # a tiny bound returning None proves nothing and must not raise
    m5 = factor_squarefree(5)
    assert find_witness(m5, DivisorPair(5, 5), bound=1) is None


def test_witness_bound_is_refused_outside_its_range():
    # up to bound^2 pairs are tried, so a bound beyond the limit is refused
    # before the search even where a witness is found at once, and so is a
    # bound that searches nothing
    m3 = factor_squarefree(3)
    assert MAX_WITNESS_BOUND == 10**4
    for bound in (10**6, MAX_WITNESS_BOUND + 1, 0, -1):
        with pytest.raises(ValueError, match=f"bound {bound} is outside the supported range 1..10000"):
            find_witness(m3, DivisorPair(1, 1), bound=bound)
    assert find_witness(m3, DivisorPair(1, 1), bound=MAX_WITNESS_BOUND) is not None
