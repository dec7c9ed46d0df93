"""Tests for theta-count classification: the table's blocks, divisor_lines and the reference counts."""

import random
from math import isqrt

import numpy as np
import pytest

import congruent.tunnell
from congruent.arith import NotSquarefree, factor_squarefree, is_prime
from congruent.classgroup import _count_reduced_forms, fundamental_discriminant
from congruent.tunnell import (
    Classification,
    ThetaCounts,
    TunnellTable,
    _line_divisor_sums,
    classify,
    counts,
    divisor_lines,
    theta_counts,
)


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
    # that a scan reads and of even n, far enough out for the long z-ranges;
    # the table holds odd n only, so every even n is refused
    table = TunnellTable(200_000)
    rng = random.Random(4)
    far = [n for n in rng.sample(range(4003, 200_001, 8), 60) if is_squarefree(n)]
    far_even = [n for n in rng.sample(range(4002, 200_001, 4), 30) if is_squarefree(n)]
    assert len(far) >= 40 and len(far_even) >= 20
    ns = squarefree_up_to(4000) + far[:40] + far_even[:20]
    block = table.block(ns)
    for n in ns:
        a = theta_counts(n)
        assert counts(n) == a, n
        if n % 2 == 0:
            with pytest.raises(ValueError, match=f"^m = {n} is not a centre"):
                block.counts(n)
            continue
        assert block.counts(n) == a, n


def test_divisor_sums_match_the_table_and_a_direct_count():
    # r(m) = #{2x^2 + y^2 = m} against the table on every odd m <= 200,000, and
    # r'(m) = #{4x^2 + y^2 = m} against a signed count on every odd m <= 50,000:
    # the lines c - a z^2 of the odd centres c in the top 1,300 of each range
    # reach every odd m in it, and a batch of short and long lines reads 0 at
    # its points below 1
    table = TunnellTable(200_000)
    limit = 50_000
    direct = np.zeros(limit + 1, dtype=np.int64)
    ys = np.arange(-isqrt(limit), isqrt(limit) + 1, dtype=np.int64)
    for x in range(-isqrt(limit // 4), isqrt(limit // 4) + 1):
        vals = 4 * x * x + ys * ys
        np.add.at(direct, vals[vals <= limit], 1)
    for a, modulus, r, top in ((2, 8, table._r, 200_000), (8, 4, direct, limit)):
        top_lines = np.arange(top - 1299, top, 2, dtype=np.int64)
        short_and_long = np.array([1, 3, 9, 17, 225, 2_431, top - 1001, top - 1], dtype=np.int64)
        for centres in (top_lines, short_and_long):
            k = isqrt(int(centres[-1]) // a) + 1
            points = centres[:, None] - a * np.arange(k, dtype=np.int64) ** 2
            expected = np.where(points >= 1, r[np.maximum(points, 1)], 0)
            assert np.array_equal(_line_divisor_sums(centres, a, k, modulus), expected)
            if centres is top_lines:
                assert np.isin(np.arange(1, top, 2), points).all()
    for bad in ([0, 1], [2], [-3]):
        with pytest.raises(ValueError, match="odd m >= 1"):
            _line_divisor_sums(np.array(bad, dtype=np.int64), 2, 1, 8)


def test_divisor_sum_class_numbers_match_reduced_forms():
    # a seeded log-uniform sample of squarefree m of both shapes up to 10^7,
    # with check_large's largest n and its n_q
    rng = random.Random(9)
    ms = [9_999_939, 3_333_313]
    while len(ms) < 30:
        m = int(10 ** rng.uniform(1, 7))
        if m % 8 in (1, 3) and m > 3 and is_squarefree(m):
            ms.append(m)
    assert {m % 8 for m in ms} == {1, 3}
    sums = divisor_lines(ms)
    for m in ms:
        assert sums.class_number(m) == _count_reduced_forms(fundamental_discriminant(m)), m


def test_per_n_bounds():
    with pytest.raises(ValueError, match="n = 10000000001 exceeds the per-n bound 10000000000"):
        counts(10_000_000_001)
    with pytest.raises(ValueError, match="n = 100000007 exceeds the supported bound 100000000"):
        theta_counts(100_000_007)
    with pytest.raises(ValueError, match="n = 10000000001 exceeds the per-n bound 10000000000"):
        divisor_lines([3, 10_000_000_001])
    sums = divisor_lines(range(1, 1000, 2))
    with pytest.raises(ValueError, match="^m = 1001 is not a centre"):
        sums.counts(1001)
    with pytest.raises(ValueError, match="^m = 1003 is not a centre"):
        sums.class_number(1003)


def test_table_range_checks():
    block = TunnellTable(100).block(range(-1, 103))
    with pytest.raises(ValueError, match="^m = 101 is not a centre"):
        block.counts(101)
    with pytest.raises(ValueError, match="^m = 0 is not a centre"):
        block.counts(0)
    with pytest.raises(ValueError):
        TunnellTable(0)


def test_table_class_numbers_match_reduced_forms():
    # every squarefree m <= 30,000 of the two shapes a scan row asks for
    table = TunnellTable(30_000)
    ms = [m for m in range(9, 30_001, 2) if m % 8 in (1, 3) and is_squarefree(m)]
    assert len(ms) == 6076
    block = table.block(ms)
    for m in ms:
        assert block.class_number(m) == _count_reduced_forms(fundamental_discriminant(m)), m


def test_table_class_number_refusals():
    table = TunnellTable(1000)
    block = table.block(range(-5, 1004))
    for m in (1, 3, 0, -5, 10, 104, 13, 15, 21, 23, 1003):
        with pytest.raises(ValueError, match=f"^m = {m} is not"):
            block.class_number(m)
    assert (block.class_number(11), block.class_number(17)) == (1, 4)
    # T(17) sums r(17 - 2 z^2) over z; one miscounted r leaves T indivisible by 4
    table._r[17 - 2 * 2 * 2] += 1
    with pytest.raises(ArithmeticError, match="not divisible by 4"):
        table.block(range(1, 1000, 2)).class_number(17)


def test_table_blocks_match_per_n_sums():
    # one batch of lines from a table to 10^7 against divisor_lines and a
    # one-centre block on a seeded log-uniform sample of odd squarefree centres
    # with 9,999,939 and its n_q, and against theta_counts on the centres below 10^5
    table = TunnellTable(10_000_000)
    rng = random.Random(12)
    ms = [9_999_939, 3_333_313]
    while len(ms) < 60:
        m = int(10 ** rng.uniform(0, 7)) | 1
        if is_squarefree(m):
            ms.append(m)
    assert sum(m < 100_000 for m in ms) >= 20
    # duplicates, even centres and centres out of range are left out of the block
    block = table.block(ms + [ms[5], 2, 10_000_001, 0, -7])
    for m in ms:
        per_n, alone = divisor_lines([m]), table.block([m])
        assert block.counts(m) == per_n.counts(m) == alone.counts(m), m
        if m < 100_000:
            assert block.counts(m) == theta_counts(m), m
        if m > 3 and m % 8 in (1, 3):
            assert block.class_number(m) == per_n.class_number(m) == alone.class_number(m), m
    assert (block.class_number(9_999_939), block.class_number(3_333_313)) == (788, 740)
    for m in (2, 10_000_001, 0, -7, 9_999_937):
        with pytest.raises(ValueError, match=f"^m = {m} is not a centre of these sums"):
            block.counts(m)
    with pytest.raises(ValueError, match="^m = 1 is not a centre"):
        table.block([]).counts(1)


def test_block_class_number_refuses_an_indivisible_sum():
    table = TunnellTable(1000)
    table._r[17 - 2 * 2 * 2] += 1
    with pytest.raises(ArithmeticError, match=r"T\(17\) = \d+ is not divisible by 4"):
        table.block([17, 19]).class_number(17)
    assert table.block([17, 19]).class_number(19) == 1  # its line 19, 17, 11, 1 misses r(9)


def test_table_counts_are_int16_below_a_checked_bound(monkeypatch):
    # the build counts in int32, which cannot wrap; the maximum is checked before narrowing
    assert TunnellTable(1000)._r.dtype == np.int16
    real = congruent.tunnell._binary_counts

    def swollen(limit):
        r = real(limit)
        r[41] = 40_000
        return r

    monkeypatch.setattr(congruent.tunnell, "_binary_counts", swollen)
    with pytest.raises(OverflowError, match=r"r\(41\) = 40000 exceeds the table bound 32767 of int16"):
        TunnellTable(1000)


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
