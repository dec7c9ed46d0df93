"""Tests for theta-count classification, both the per-n and the sieved path."""

import random
from math import isqrt

import pytest

from congruent.arith import NotSquarefree, factor_squarefree, is_prime
from congruent.classgroup import _count_reduced_forms, fundamental_discriminant
from congruent.tunnell import Classification, ThetaCounts, TunnellTable, classify, theta_counts


def brute_counts(n):
    """Third, slowest path: signed triple loops over the full box."""
    if n % 2 == 1:
        a, target = 2, n
    else:
        a, target = 4, n // 2
    out = []
    for c in (32, 8):
        count = 0
        xb, yb, zb = isqrt(target // a), isqrt(target), isqrt(target // c)
        for x in range(-xb, xb + 1):
            for y in range(-yb, yb + 1):
                for z in range(-zb, zb + 1):
                    if a * x * x + y * y + c * z * z == target:
                        count += 1
        out.append(count)
    return tuple(out)


def is_squarefree(n):
    try:
        factor_squarefree(n)
    except NotSquarefree:
        return False
    return True


def squarefree_up_to(limit):
    return [n for n in range(1, limit + 1) if is_squarefree(n)]


def test_counts_examples():
    assert theta_counts(1) == ThetaCounts(n=1, c32=2, c8=2)
    assert theta_counts(2) == ThetaCounts(n=2, c32=2, c8=2)


def test_classify_small_known():
    assert classify(1) == Classification.NON_CONGRUENT_UNCONDITIONAL
    assert classify(2) == Classification.NON_CONGRUENT_UNCONDITIONAL
    assert classify(3) == Classification.NON_CONGRUENT_UNCONDITIONAL
    for congruent in (5, 6, 7, 41):
        assert classify(congruent) == Classification.CONGRUENT_UNDER_BSD, congruent


def test_counts_equality_for_41():
    c = theta_counts(41)
    assert 2 * c.c32 == c.c8


def test_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        theta_counts(12)
    with pytest.raises(NotSquarefree):
        classify(18)


def test_against_signed_brute_force():
    for n in squarefree_up_to(300):
        c = theta_counts(n)
        assert (c.c32, c.c8) == brute_counts(n), n


def test_table_matches_per_n():
    # every squarefree n <= 4000, then a seeded sample of the n = 3 (mod 8)
    # that a scan reads, far enough out for the long z-ranges; the table
    # holds odd n only, so every even n is refused
    table = TunnellTable(200_000)
    far = [n for n in random.Random(4).sample(range(4003, 200_001, 8), 60) if is_squarefree(n)]
    assert len(far) >= 40
    for n in squarefree_up_to(4000) + far[:40]:
        if n % 2 == 0:
            with pytest.raises(ValueError, match="odd"):
                table.counts(n)
            continue
        a, b = theta_counts(n), table.counts(n)
        assert a == b, n
        assert b.label == a.label == classify(n), n


def test_table_range_checks():
    table = TunnellTable(100)
    with pytest.raises(ValueError):
        table.counts(101)
    with pytest.raises(ValueError):
        table.counts(0)
    with pytest.raises(ValueError):
        TunnellTable(0)


def test_table_class_numbers_match_reduced_forms():
    # every squarefree m <= 30,000 of the two shapes a scan row asks for
    table = TunnellTable(30_000)
    ms = [m for m in range(9, 30_001, 2) if m % 8 in (1, 3) and is_squarefree(m)]
    assert len(ms) == 6076
    for m in ms:
        assert table.class_number(m) == _count_reduced_forms(fundamental_discriminant(m)), m


def test_table_class_number_refusals():
    table = TunnellTable(1000)
    for m in (1, 3, 0, -5, 10, 104, 13, 15, 21, 23, 1003):
        with pytest.raises(ValueError, match="class-number range 4..1000"):
            table.class_number(m)
    assert (table.class_number(11), table.class_number(17)) == (1, 4)
    # T(17) sums r(17 - 2 z^2) over z; one miscounted r leaves T indivisible by 4
    table._r[17 - 2 * 2 * 2] += 1
    with pytest.raises(ArithmeticError, match="not divisible by 4"):
        table.class_number(17)


def test_prime_catalog_below_500():
    # q = 3 (mod 8) primes are never congruent; q = 5, 7 (mod 8) always are
    for p in range(3, 500):
        if not is_prime(p):
            continue
        label = classify(p)
        if p % 8 == 3:
            assert label == Classification.NON_CONGRUENT_UNCONDITIONAL, p
        elif p % 8 in (5, 7):
            assert label == Classification.CONGRUENT_UNDER_BSD, p


def test_scan_scale_values():
    assert classify(52779) == Classification.CONGRUENT_UNDER_BSD
    assert classify(42267) == Classification.NON_CONGRUENT_UNCONDITIONAL
