"""Tests for hypothesis building, the two matrix constructions, and ranks."""

import pytest

from congruent.arith import FactoredSquarefree, NotSquarefree, factor_squarefree, quartic_symbol
from congruent.classgroup import class_number, fundamental_discriminant
from congruent.gf2 import rank_f2
from congruent.redei import (
    HypothesisNotMet,
    WrongResidueShape,
    build_hypothesis,
    eight_rank_neg_n,
    eight_rank_neg_nq,
    four_rank,
    redei_matrix,
)

from test_gf2 import entries


def test_build_hypothesis_52779():
    h = build_hypothesis(52779)
    assert h.q == 3
    assert h.p_list == (73, 241)
    assert h.t == 2
    assert h.n_q == FactoredSquarefree(17593, (73, 241))
    assert h.qr_condition and h.rank_condition
    assert h.modulus == 16
    assert entries(h.A) == [[1, 1], [1, 1]]


def test_build_hypothesis_shape_errors():
    with pytest.raises(WrongResidueShape):
        build_hypothesis(15)  # 5 = 5 (mod 8)
    with pytest.raises(WrongResidueShape):
        build_hypothesis(3)  # no p = 1 (mod 8) factor
    with pytest.raises(WrongResidueShape):
        build_hypothesis(3 * 11 * 73)  # two factors = 3 (mod 8)
    with pytest.raises(NotSquarefree):
        build_hypothesis(9)


def test_build_hypothesis_t1():
    h = build_hypothesis(219)
    assert h.t == 1
    assert entries(h.A) == [[0]]
    assert h.rank_condition  # rank 0 = t - 1
    assert h.qr_condition
    assert h.modulus == 8


def test_redei_matrix_equals_a():
    # the equality needs only the residue condition, not the rank condition
    for n in (52779, 219, 134123, 21243):
        h = build_hypothesis(n)
        assert h.qr_condition
        assert redei_matrix(h) == h.A, n


def test_redei_matrix_134123_rank():
    h = build_hypothesis(134123)
    assert rank_f2(redei_matrix(h)) == h.t - 1 == 1


def test_four_rank():
    assert four_rank(build_hypothesis(52779)) == 1
    assert four_rank(build_hypothesis(219)) == 1
    assert four_rank(build_hypothesis(42267)) == 1


def test_eight_rank_neg_n():
    assert eight_rank_neg_n(build_hypothesis(52779)) == 1
    assert eight_rank_neg_n(build_hypothesis(42267)) == 0
    # t = 1: the value is the quartic symbol itself
    h = build_hypothesis(219)
    expected = 1 if quartic_symbol(3, factor_squarefree(73)) == 1 else 0
    assert eight_rank_neg_n(h) == expected
    # cross-check against the 2-part of the class number
    assert (eight_rank_neg_n(h) == 1) == (class_number(fundamental_discriminant(219)) % 8 == 0)


def test_eight_rank_neg_nq():
    assert eight_rank_neg_nq(build_hypothesis(52779)) == 1  # h(-4*17593) = 48
    assert eight_rank_neg_nq(build_hypothesis(42267)) == 1  # h(-4*14089) = 96
    assert eight_rank_neg_nq(build_hypothesis(89571)) == 0  # h(-4*29857) = 56


def test_eight_rank_preconditions():
    # 51 = 3 * 17 fails the residue condition but satisfies the rank condition
    h = build_hypothesis(51)
    assert not h.qr_condition and h.rank_condition
    with pytest.raises(HypothesisNotMet):
        eight_rank_neg_n(h)
    eight_rank_neg_nq(h)  # legal: only needs the rank condition
    # 4539 = 3 * 17 * 89 has (17/89) = +1, so rank A = 0 != t - 1
    h2 = build_hypothesis(4539)
    assert not h2.rank_condition
    with pytest.raises(HypothesisNotMet):
        eight_rank_neg_nq(h2)
    with pytest.raises(HypothesisNotMet):
        eight_rank_neg_n(h2)


def test_residue_class_invariants():
    for n in (219, 4539, 51, 52779, 42267):
        h = build_hypothesis(n)
        assert h.n.value % 8 == 3
        assert h.n_q.value % 8 == 1
        assert h.q % 8 == 3
        assert all(p % 8 == 1 for p in h.p_list)
