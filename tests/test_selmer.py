"""Tests for the Monsky matrix construction and 2-Selmer ranks."""

import pytest

from congruent.arith import factor_squarefree
from congruent.descent import kernel_K
from congruent.selmer import legendre_matrix, monsky, selmer_rank

from test_gf2 import entries, naive_rank


def squarefree_odd(limit):
    out = []
    for m in range(3, limit + 1, 2):
        try:
            out.append(factor_squarefree(m))
        except ValueError:
            continue
    return out


def test_monsky_m3():
    dec = monsky(factor_squarefree(3))
    assert entries(dec.M) == [[1, 1], [1, 0]]
    assert dec.s == 0


def test_monsky_m5():
    dec = monsky(factor_squarefree(5))
    assert entries(dec.M) == [[1, 1], [1, 1]]
    assert dec.s == 1


def test_monsky_m41():
    # 2 and -2 are both residues mod 41, so M is the 2x2 zero matrix
    dec = monsky(factor_squarefree(41))
    assert entries(dec.M) == [[0, 0], [0, 0]]
    assert naive_rank(entries(dec.M)) == 0
    assert dec.s == 2
    # independent confirmation through the divisor-pair kernel
    assert len(kernel_K(factor_squarefree(41))) == 2**2


def test_monsky_rejects_bad_m():
    with pytest.raises(ValueError):
        monsky(factor_squarefree(6))
    with pytest.raises(ValueError):
        monsky(factor_squarefree(1))


def test_block_structure_consistency():
    for m in squarefree_odd(200):
        dec = monsky(m)
        r = len(m.primes)
        assert len(dec.M) == 2 * r
        assert all(row >> (2 * r) == 0 for row in dec.M)
        # diagonal of C is the mod-2 row sum of its off-diagonal entries
        c = entries(legendre_matrix(m.primes))
        for i in range(r):
            assert c[i][i] == sum(c[i][j] for j in range(r) if j != i) % 2
        # [[C+D2, D2], [D2, C+D-2]]: off the diagonal, each block of M is C or zero
        M = entries(dec.M)
        for i in range(r):
            for j in range(r):
                if i != j:
                    assert M[i][j] == M[r + i][r + j] == c[i][j]
                    assert M[i][r + j] == M[r + i][j] == 0
            assert M[i][r + i] == M[r + i][i] == M[i][i] ^ c[i][i]
        assert dec.s == selmer_rank(m) >= 0


def test_monsky_rank_against_naive_oracle():
    for m in squarefree_odd(300):
        dec = monsky(m)
        assert 2 * len(m.primes) - naive_rank(entries(dec.M)) == dec.s


def test_parity_law_small():
    # full range up to 5000 runs in the acceptance suite
    for m in squarefree_odd(600):
        s = selmer_rank(m)
        if m.value % 8 in (1, 3):
            assert s % 2 == 0, m.value
        else:
            assert s % 2 == 1, m.value
