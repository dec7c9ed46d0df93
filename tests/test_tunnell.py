"""Tests for theta-count classification: the table's window sums, divisor_lines and the reference counts."""

import os
import random
import subprocess
import sys
import tracemalloc
from math import isqrt

import numpy as np
import pytest

import congruent.tunnell
from congruent.arith import NotSquarefree, _pow_mod, factor_squarefree, is_prime
from congruent.classgroup import _count_reduced_forms, fundamental_discriminant
from congruent.scan import MAX_SCAN_LIMIT
from congruent.tunnell import (
    Classification,
    NotDivisible,
    ThetaCounts,
    MAX_PER_N,
    TunnellTable,
    _line_divisor_sums,
    _live_sums,
    _sieving_primes,
    _square_roots,
    class_number,
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


def column_counts(sums, centres):
    """The ThetaCounts each column of line sums holds, for the centres in the order asked."""
    _, c8, c32 = sums.tolist()
    return [ThetaCounts(n=m, c32=b, c8=a) for m, a, b in zip(centres, c8, c32)]


def dense_lines(centres, a, k, modulus):
    """The r that _line_divisor_sums lists at z < k as a len(centres) x k matrix, 0 elsewhere, and the mask of listed points.

    Every listed point c - a z^2 must be >= 1, at increasing z along its line.
    """
    centres = np.asarray(centres, dtype=np.int64)
    size, z, r = _line_divisor_sums(centres, a, modulus)
    assert size.size == centres.size and size.sum() == z.size == r.size
    line = np.repeat(np.arange(centres.size), size)
    assert (centres[line] - a * z * z >= 1).all()
    assert (np.diff(z)[np.diff(line) == 0] > 0).all()
    keep = z < k
    dense = np.zeros((centres.size, k), dtype=np.int64)
    listed = np.zeros((centres.size, k), dtype=bool)
    dense[line[keep], z[keep]] = r[keep]
    listed[line[keep], z[keep]] = True
    return dense, listed


def table_rows(table, rng):
    """Rows T, c8 and c32 of every n = 3 (mod 8) of the table, from runs of k of seeded edges that tile its k from k0 = 0."""
    cuts = sorted({0, 1, table.r3.size, *rng.sample(range(2, table.r3.size), 40)})
    return np.concatenate([table.sums_at(np.arange(k0, k1)) for k0, k1 in zip(cuts, cuts[1:])], axis=1)


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
    # every n = 3 (mod 8) below 200,000 from runs of k with seeded edges, and T
    # of every m = 1 (mod 8) up to 200,000/3, against divisor_lines and the
    # sums of a signed count of 2x^2 + y^2; then every squarefree n <= 4000
    # and a seeded sample of the n = 3 (mod 8) a scan reads and of even n, far
    # enough out for the long z-ranges, against the box enumeration.  The
    # table holds no line of an even n or of an n = 5, 7 (mod 8)
    table = TunnellTable(200_000)
    ns, ms = np.arange(3, 200_000, 8), np.arange(1, 200_000 // 3 + 1, 8)
    rows = table_rows(table, random.Random(5))
    assert rows.dtype == table.t1.dtype == np.int32 and rows.shape == (3, ns.size) and table.t1.shape == ms.shape
    assert np.array_equal(rows, divisor_lines(ns)) and np.array_equal(rows, signed_line_sums(ns, 200_000))
    assert np.array_equal(table.t1, divisor_lines(ms)[0]) and np.array_equal(table.t1, signed_line_sums(ms, 200_000)[0])
    rng = random.Random(4)
    far = [n for n in rng.sample(range(4003, 200_001, 8), 60) if is_squarefree(n)]
    far_even = [n for n in rng.sample(range(4002, 200_001, 4), 30) if is_squarefree(n)]
    assert len(far) >= 40 and len(far_even) >= 20
    for n in squarefree_up_to(4000) + far[:40] + far_even[:20]:
        a = theta_counts(n)
        assert counts(n) == a, n
        if n % 8 == 3:
            assert column_counts(rows[:, [n >> 3]], [n]) == [a], n
        elif n % 8 == 1:
            assert table.t1[n >> 3] == a.c8, n  # the line of an m = 1 (mod 8) is live at even z only: T = c8


def signed_count(a, limit):
    """#{(x, y) : a x^2 + y^2 = m} for m = 0..limit, by a signed loop over x."""
    direct = np.zeros(limit + 1, dtype=np.int64)
    ys = np.arange(-isqrt(limit), isqrt(limit) + 1, dtype=np.int64)
    for x in range(-isqrt(limit // a), isqrt(limit // a) + 1):
        vals = a * x * x + ys * ys
        np.add.at(direct, vals[vals <= limit], 1)
    return direct


def signed_line_sums(centres, limit):
    """Rows T, c8 and c32 of the lines r(c - 2z^2) of odd centres c <= limit, r from signed_count: the third reference."""
    r = signed_count(2, limit)
    sums = np.zeros((3, centres.size), dtype=np.int64)
    for z in range(isqrt(limit // 2) + 1):
        points = centres - 2 * z * z
        at = np.where(points >= 1, r[np.maximum(points, 0)], 0) * (2 if z else 1)
        sums[0] += at
        sums[1] += at if z % 2 == 0 else 0
        sums[2] += at if z % 4 == 0 else 0
    return sums


def test_divisor_sums_match_the_table_and_a_direct_count():
    # r(m) = #{2x^2 + y^2 = m} against the table on every odd m <= 200,000, and
    # r'(m) = #{4x^2 + y^2 = m} against a signed count on every odd m <= 50,000:
    # the lines c - a z^2 of the odd centres c in the top 1,300 of each range
    # reach every odd m in it, and a batch of short and long lines reads 0 at
    # its points below 1.  The table holds only m = 1, 3 (mod 8); a signed
    # count of 2x^2 + y^2 is 0 at every odd m = 5, 7 (mod 8), as y^2 = 1
    # (mod 8), and so are the divisor sums: that zero makes the table exact
    table = TunnellTable(200_000)
    limit = 50_000
    direct = signed_count(4, limit)
    binary = signed_count(2, 200_000)
    odd = np.arange(1, 200_000, 2)
    live, dead = odd[odd % 8 < 4], odd[odd % 8 > 4]
    assert not binary[dead].any()
    assert np.array_equal(table.r1, binary[1::8]) and np.array_equal(table.r3, binary[3::8])
    from_table = np.zeros_like(binary)
    from_table[1::8], from_table[3::8] = table.r1, table.r3
    for a, modulus, r, top in ((2, 8, from_table, 200_000), (8, 4, direct, limit)):
        top_lines = np.arange(top - 1299, top, 2, dtype=np.int64)
        short_and_long = np.array([1, 3, 9, 17, 225, 2_431, top - 1001, top - 1], dtype=np.int64)
        for centres in (top_lines, short_and_long):
            k = isqrt(int(centres[-1]) // a) + 1
            points = centres[:, None] - a * np.arange(k, dtype=np.int64) ** 2
            expected = np.where(points >= 1, r[np.maximum(points, 1)], 0)
            sums, listed = dense_lines(centres, a, k, modulus)
            assert np.array_equal(sums, expected)
            assert not expected[~listed].any()  # no live point is left out
            if centres is top_lines:
                assert np.isin(np.arange(1, top, 2), points).all()
                if a == 2:
                    at = np.zeros(top + 1, dtype=np.int64)
                    at[points[points >= 1]] = sums[points >= 1]
                    assert np.array_equal(at[live], from_table[live]) and not at[dead].any()
    for bad in ([0, 1], [2], [-3]):
        with pytest.raises(ValueError, match="odd m >= 1"):
            _line_divisor_sums(np.array(bad, dtype=np.int64), 2, 8)


@pytest.mark.parametrize("budget", [1, 7, 1_000])
def test_hit_slices_leave_the_divisor_sums_unchanged(monkeypatch, budget):
    # the batches of the test above, their hits expanded a slice of about
    # `budget` at a time (1: one progression per slice), against one slice
    for a, modulus, top in ((2, 8, 200_000), (8, 4, 50_000)):
        top_lines = np.arange(top - 1299, top, 2, dtype=np.int64)
        short_and_long = np.array([1, 3, 9, 17, 225, 2_431, top - 1001, top - 1], dtype=np.int64)
        for centres in (top_lines, short_and_long):
            monkeypatch.setattr(congruent.tunnell, "_HIT_BUDGET", 1 << 62)
            whole = _line_divisor_sums(centres, a, modulus)
            monkeypatch.setattr(congruent.tunnell, "_HIT_BUDGET", budget)
            sliced = _line_divisor_sums(centres, a, modulus)
            assert len(sliced) == 3 and all(np.array_equal(x, y) for x, y in zip(sliced, whole))


def test_wrong_hits_give_a_wrong_sum_and_end():
    # roots moved by one send hits to points their prime does not divide, some
    # of them below the prime, where the quotient is 0 and 0 % p == 0; the
    # exponent loop must still end, with sums that differ.  A subprocess with
    # a timeout, so that a loop that never ends fails the test
    script = """
import numpy as np
import congruent.tunnell as tunnell
centres = np.arange(198_701, 200_000, 2, dtype=np.int64)
size, z, right = tunnell._line_divisor_sums(centres, 2, 8)
real = tunnell._square_roots
def moved(b, p, *rest):
    root = real(b, p, *rest)
    return np.where(root >= 0, (root + 1) % p, root)
tunnell._square_roots = moved
moved_size, moved_z, wrong = tunnell._line_divisor_sums(centres, 2, 8)
assert np.array_equal(moved_size, size) and np.array_equal(moved_z, z)
print(np.array_equal(wrong, right))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": pythonpath}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    for m, t in zip(ms, divisor_lines(ms)[0].tolist()):
        assert class_number(m, t) == _count_reduced_forms(fundamental_discriminant(m)), m


def test_sieving_table_matches_a_per_prime_reference():
    # every odd prime p <= isqrt(MAX_PER_N), from p - 1 = q 2^s and Python pow alone
    p, half_q, c, keys, inverse = (column.tolist() for column in _sieving_primes(isqrt(MAX_PER_N)))
    primes = [m for m in range(3, isqrt(MAX_PER_N) + 1, 2) if is_prime(m)]
    assert p == primes
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(keys) == len(inverse)
    runs = {}  # prime index -> {g^i: c^-i}
    for key, v in zip(keys, inverse):
        runs.setdefault(key >> 17, {})[key & (1 << 17) - 1] = v
    assert sorted(runs) == list(range(len(primes)))
    for j, prime in enumerate(primes):
        q, s = prime - 1, 0
        while q % 2 == 0:
            q, s = q // 2, s + 1
        assert half_q[j] == (q - 1) // 2, prime
        assert pow(c[j], 1 << (s - 1), prime) == prime - 1, prime  # c has order exactly 2^s
        # the key g^i = c^(2i) of every i < 2^(s-1), and c^-i next to it
        run = runs[j]
        assert len(run) == 1 << (s - 1), prime
        for i in range(1 << (s - 1)):
            assert run[pow(c[j], 2 * i, prime)] * pow(c[j], i, prime) % prime == 1, (prime, i)


def test_square_roots_of_every_b_below_2000():
    # every b mod every odd prime p < 2,000: a root squares to b exactly for the
    # residues and 0 by Euler's criterion, and -1 marks every non-residue
    p, half_q, _, keys, inverse = _sieving_primes(1 << 12)
    cut = int(np.searchsorted(p, 2_000))
    b = np.arange(2_000, dtype=np.int64)[:, None] % p[:cut]
    root = _square_roots(b, p[:cut], half_q[:cut], keys, inverse)
    euler = _pow_mod(b, (p[:cut] - 1) // 2, p[:cut])
    residue = euler != p[:cut] - 1
    assert residue.sum() > 0 and (~residue).sum() > 0
    assert np.array_equal(root * root % p[:cut] == b, residue)
    assert np.array_equal(root == -1, ~residue)
    for j, prime in enumerate(p[:cut].tolist()):
        assert [pow(x, 2, prime) for x in root[:prime, j].tolist() if x >= 0] == [
            x for x in range(prime) if x == 0 or pow(x, (prime - 1) // 2, prime) == 1
        ], prime


def test_per_n_bounds():
    with pytest.raises(ValueError, match="n = 10000000001 exceeds the per-n bound 10000000000"):
        counts(10_000_000_001)
    with pytest.raises(ValueError, match="n = 100000007 exceeds the supported bound 100000000"):
        theta_counts(100_000_007)
    with pytest.raises(ValueError, match="n = 10000000001 exceeds the per-n bound 10000000000"):
        divisor_lines([3, 10_000_000_001])
    # 3.5 would be truncated to 3 by an int64 cast
    for bad in ([3, 0], [2], [-3], [11, 3.5]):
        with pytest.raises(ValueError, match=f"^m = {bad[-1]} is not an odd centre in 1..10000000000$"):
            divisor_lines(bad)
    assert divisor_lines(range(1, 1000, 2)).shape == (3, 500)


def test_table_range_checks():
    # the n = 8k + 3 <= 100 are k = 0..12; a k outside them, or out of order, is refused before any r is read
    table = TunnellTable(100)
    assert table.r3.size == 13 and table.sums_at(np.arange(13)).shape == (3, 13) and table.sums_at(np.arange(0)).shape == (3, 0)

    class Unread:
        size = 13

        def __getitem__(self, points):
            raise AssertionError("r was read")

    table.r1 = table.r3 = Unread()
    for ks, bad in (([-1, 3], -1), ([4, 3], 3), ([0, 5, 13], 13), ([14], 14), ([2, 2, 12, 0], 0)):
        with pytest.raises(ValueError, match=rf"^k = {bad} is out of order or not within 0..12, the k of the table's n = 8k \+ 3$"):
            table.sums_at(np.array(ks))
    with pytest.raises(ValueError):
        TunnellTable(0)


def test_table_class_numbers_match_reduced_forms():
    # every squarefree m <= 30,000 of the two shapes a scan row asks for: T(n)
    # from the table's sums, T(n_q) from the class-1 sums, which reach limit/3
    table = TunnellTable(90_000)
    ms = [m for m in range(9, 30_001, 2) if m % 8 in (1, 3) and is_squarefree(m)]
    assert len(ms) == 6076
    t3 = table.sums_at(np.arange(30_000 // 8))[0]
    for m in ms:
        t = (t3 if m % 8 == 3 else table.t1)[m >> 3]
        assert class_number(m, int(t)) == _count_reduced_forms(fundamental_discriminant(m)), m


def test_table_class_number_refusals():
    # T = 24 is divisible by both 24 and 4, so each refusal comes from m alone
    table = TunnellTable(1000)
    for m in (1, 3, 0, -5, 10, 104, 13, 15, 21, 23):
        with pytest.raises(ValueError, match=f"^m = {m} is not"):
            class_number(m, 24)
    with pytest.raises(ValueError, match="^k = 125 is out of order or not within 0..124"):
        table.sums_at(np.array([0, 125]))  # 1003 = 8 * 125 + 3
    assert (class_number(11, int(table.sums_at(np.array([1]))[0, 0])), class_number(17, int(table.t1[2]))) == (1, 4)


def test_table_windows_match_per_n_sums():
    # runs of k with seeded edges, the sampled k alone in one call across many
    # windows, and T of class 1 from a table to 10^7 against divisor_lines on
    # a seeded log-uniform sample of squarefree n = 3 (mod 8) and m = 1
    # (mod 8) up to 10^7/3, with 9,999,939 and its n_q, and against
    # theta_counts on those below 10^5
    limit = 10_000_000
    table = TunnellTable(limit)
    rng = random.Random(12)
    ms = [9_999_939, 3_333_313]
    while len(ms) < 60:
        m = int(10 ** rng.uniform(0, 7)) | 1
        if (m % 8 == 3 or m % 8 == 1 and m <= limit // 3) and is_squarefree(m):
            ms.append(m)
    assert sum(m < 100_000 for m in ms) >= 20 and sum(m % 8 == 1 for m in ms) >= 20
    for m in ms:
        per_n, k = divisor_lines([m]), m >> 3
        if m % 8 == 3:
            k0, k1 = max(0, k - rng.randrange(1 << 12)), min(table.r3.size, k + 1 + rng.randrange(1 << 12))
            sums = table.sums_at(np.arange(k0, k1))[:, k - k0]
            assert np.array_equal(sums, per_n[:, 0]) and np.array_equal(sums, table.sums_at(np.array([k]))[:, 0]), m
            if m < 100_000:
                assert column_counts(sums[:, None], [m]) == [theta_counts(m)], m
        else:
            sums = table.t1[k : k + 1]
            assert sums[0] == per_n[0, 0] and (m >= 100_000 or sums[0] == theta_counts(m).c8), m
        if m > 3:
            assert class_number(m, int(sums[0])) == class_number(m, int(per_n[0, 0])), m
    threes = sorted(m for m in ms if m % 8 == 3)
    ks = np.array(threes) >> 3
    assert len(set((ks // congruent.tunnell._WINDOW).tolist())) >= 5
    assert np.array_equal(table.sums_at(ks), divisor_lines(threes))
    t_n, t_nq = table.sums_at(np.array([9_999_939 >> 3]))[0, 0], table.t1[3_333_313 >> 3]
    assert (class_number(9_999_939, int(t_n)), class_number(3_333_313, int(t_nq))) == (788, 740)
    with pytest.raises(ValueError, match="^k = 1250000 is out of order or not within 0..1249999, the k of the table's n = 8k \\+ 3$"):
        table.sums_at(np.array([0, table.r3.size]))


def test_line_sums_come_back_in_the_order_asked():
    # unsorted centres with duplicates: column i is centres[i] and matches the
    # box enumeration.  They fit one batch, so the short lines of 1, 3 and 17
    # run out to 99,991's 224 points, far below 1, where the sums must read 0.
    # Sorted, the lines of 7, 15 and 99,991 (7 mod 8), which have no live
    # point, come in the middle and last, and 5 and 13 (5 mod 8) are live at
    # odd z only
    centres = [99_991, 3, 41, 3, 1, 52_779, 13, 41, 99_991, 17, 5, 1, 15, 219, 7]
    assert all(is_squarefree(m) for m in centres)
    lines = divisor_lines(centres)
    assert lines.shape == (3, len(centres)) and lines.dtype == np.int64
    assert column_counts(lines, centres) == [theta_counts(m) for m in centres]
    for m, (t, c8, c32) in zip(centres, lines.T.tolist()):
        if m % 8 > 4:  # T alone on a class-5 line, nothing on a class-7 line
            assert c8 == c32 == 0 and (t > 0) == (m % 8 == 5), m
    by_centre = dict(zip(centres, lines[0].tolist()))
    assert [class_number(m, by_centre[m]) for m in (41, 52_779, 17, 219)] == [
        _count_reduced_forms(fundamental_discriminant(m)) for m in (41, 52_779, 17, 219)
    ]


def test_lines_with_no_live_point_sum_to_zero():
    # a line of a centre = 7 (mod 8) has no live point: first in a batch, and
    # in batches of such lines only (the test above has them in the middle
    # and last), against the box enumeration
    for centres in ([7, 11, 15, 17, 23], [7], [7, 15, 23]):
        lines = divisor_lines(centres)
        assert column_counts(lines, centres) == [theta_counts(m) for m in centres]
        assert not lines[:, [m % 8 == 7 for m in centres]].any()
    # the sums alone: lines with no point around one with points at z = 0 and
    # 1, whose sums over every z, the even z and z = 0 (mod 4) are
    # 2(5 + 3) - 5, 2 * 5 - 5 and 2 * 5 - 5
    size, z, r = (np.array(x, dtype=np.int64) for x in ([0, 2, 0], [0, 1], [5, 3]))
    assert _live_sums(size, z, r).tolist() == [[0, 11, 0], [0, 5, 0], [0, 5, 0]]
    assert _live_sums(np.zeros(2, dtype=np.int64), z[:0], r[:0]).tolist() == [[0, 0]] * 3


def test_table_sums_are_exact_int32_on_a_line_of_large_r():
    # r = 30,000 at every point of the line of 999,995, near int16's top: the
    # sums, up to 30,000 * (2 * 708 - 1), need an int32 accumulator.  The
    # centre is 3 (mod 8), so its even z read r3 and its odd z read r1
    table = TunnellTable(1_000_000)
    m, k = 999_995, 999_995 >> 3
    j = np.arange(isqrt(k) + 1)
    table.r3[k - j * j] = 30_000
    odd = j[j * (j + 1) <= k]
    table.r1[k - odd * (odd + 1)] = 30_000
    sums = table.sums_at(np.arange(k - 5, k + 1))[:, 5]
    assert sums.dtype == np.int32
    assert sums.tolist() == [30_000 * (2 * len(range(0, isqrt(m // 2) + 1, step)) - 1) for step in (1, 2, 4)]
    assert sums[0] == 42_450_000


def test_window_rows_fit_int32_up_to_the_scan_bound():
    # every partial sum of a row is at most T <= 2 max r (isqrt(limit // 2) + 1),
    # twice the accumulator at most T + max r, and the table's checked max r
    # is int16's: no int32 row or accumulator can wrap in a scan
    assert np.iinfo(np.int16).max == 32_767 and TunnellTable(100).sums_at(np.array([0])).dtype == np.int32
    assert 2 * 32_767 * (isqrt(MAX_SCAN_LIMIT // 2) + 1) < 2**31
    assert 2 * 32_767 * (isqrt(MAX_SCAN_LIMIT // 2) + 1) + 32_767 < 2**31
    assert 2 * 32_767 * (isqrt(2 * 10**9 // 2) + 1) + 32_767 < 2**31  # the bound sums_at states


def test_table_reads_0_below_1():
    # the lines of every n = 3 (mod 8) and m = 1 (mod 8) below 100 run below 1
    # within a few z, where each slice of the sums is cut; r(0) = 1 is never read
    table = TunnellTable(100)
    assert np.array_equal(table.sums_at(np.arange(13)), divisor_lines(range(3, 100, 8)))
    assert np.array_equal(table.t1, divisor_lines(range(1, 34, 8))[0])


def test_table_holds_a_quarter_of_the_range():
    # contiguous int16 arrays of r at m = 1, 3 (mod 8): L/4 values at most, and
    # int32 T at the m = 1 (mod 8) up to L/3
    table = TunnellTable(10**6)
    assert all(r.dtype == np.int16 and r.flags.c_contiguous for r in (table.r1, table.r3))
    assert table.r1.size + table.r3.size <= 10**6 // 4 + 2 and table.t1.size <= 10**6 // 24 + 1


def test_table_build_holds_one_int32_class():
    # the build holds at most the int16 table (L/2 bytes) and one int32 chunk,
    # here a whole class (L/2 bytes); with both int32 classes alive it took
    # 1.45 MiB
    tracemalloc.start()
    try:
        TunnellTable(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6 + (1 << 16)


def test_table_build_holds_the_table_and_one_chunk():
    # at 4 * 10^6 a class spans two chunks: the build holds the int16 table,
    # t1 and one int32 chunk, with 64 KiB to spare; a class built whole in
    # int32 before it is narrowed took 4 MB
    limit = 4_000_000
    tracemalloc.start()
    try:
        table = TunnellTable(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.r1.size > congruent.tunnell._CHUNK
    assert peak < table.r1.nbytes + table.r3.nbytes + table.t1.nbytes + 4 * congruent.tunnell._CHUNK + (1 << 16), peak


@pytest.mark.parametrize("chunk", [7, 1000])
def test_class_chunks_leave_the_table_unchanged(monkeypatch, chunk):
    # the classes counted a chunk of `chunk` values of k at a time against
    # one chunk and a signed count of 2x^2 + y^2, and the sums read from them
    limit = 20_000 if chunk == 7 else 200_000
    monkeypatch.setattr(congruent.tunnell, "_CHUNK", 1 << 62)
    whole = TunnellTable(limit)
    monkeypatch.setattr(congruent.tunnell, "_CHUNK", chunk)
    table = TunnellTable(limit)
    binary = signed_count(2, limit)
    assert table.r1.size > 20 * chunk
    for r, residue in ((table.r1, 1), (table.r3, 3)):
        assert r.dtype == np.int16 and np.array_equal(r, binary[residue::8])
    assert np.array_equal(table.r1, whole.r1) and np.array_equal(table.r3, whole.r3) and np.array_equal(table.t1, whole.t1)
    ks = np.arange(table.r3.size)
    assert np.array_equal(table.sums_at(ks), whole.sums_at(ks))


def test_class_number_reads_h_from_t():
    assert (class_number(11, 24), class_number(17, 16), class_number(52_779, 80 * 24)) == (1, 4, 80)
    for m in (1, 3, 10, 13):
        with pytest.raises(ValueError, match=rf"^m = {m} is not an m = 1 or 3 \(mod 8\) with m >= 4$"):
            class_number(m, 24)
    with pytest.raises(NotDivisible, match=r"^T\(11\) = 25 is not divisible by 24$"):
        class_number(11, 25)
    with pytest.raises(NotDivisible, match=r"^T\(17\) = 18 is not divisible by 4$"):
        class_number(17, 18)
    assert issubclass(NotDivisible, ArithmeticError)


def test_table_class_number_refuses_an_indivisible_sum(monkeypatch):
    # T(17) sums r(17 - 2 z^2) over z; r(9) miscounted in the build leaves it
    # indivisible by 4, and T(19), whose line 19, 17, 11, 1 misses r(9), whole
    real = congruent.tunnell._chunk_counts

    def miscounted(residue, k0, k1):
        r = real(residue, k0, k1)
        if residue == 9 % 8 and k0 <= 9 // 8 < k1:
            r[9 // 8 - k0] += 1
        return r

    monkeypatch.setattr(congruent.tunnell, "_chunk_counts", miscounted)
    table = TunnellTable(1000)
    with pytest.raises(ArithmeticError, match=r"T\(17\) = \d+ is not divisible by 4"):
        class_number(17, int(table.t1[17 >> 3]))
    assert class_number(19, int(table.sums_at(np.array([19 >> 3]))[0, 0])) == 1


def test_table_counts_are_int16_below_a_checked_bound(monkeypatch):
    # the build counts each chunk in int32, which cannot wrap; its maximum is checked before narrowing
    assert TunnellTable(1000).r1.dtype == TunnellTable(1000).r3.dtype == np.int16
    real = congruent.tunnell._chunk_counts

    def swollen_at(m):
        def swollen(residue, k0, k1):
            r = real(residue, k0, k1)
            if residue == m % 8 and k0 <= m // 8 < k1:
                r[m // 8 - k0] = 40_000
            return r

        return swollen

    monkeypatch.setattr(congruent.tunnell, "_chunk_counts", swollen_at(41))
    with pytest.raises(OverflowError, match=r"r\(41\) = 40000 exceeds the table bound 32767 of int16"):
        TunnellTable(1000)
    # past the first chunk, and not first in its own: k = 20 is entry 6 of the chunk 14..20
    monkeypatch.setattr(congruent.tunnell, "_CHUNK", 7)
    monkeypatch.setattr(congruent.tunnell, "_chunk_counts", swollen_at(163))
    with pytest.raises(OverflowError, match=r"^r\(163\) = 40000 exceeds the table bound 32767 of int16$"):
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
