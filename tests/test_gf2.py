"""Tests for GF(2) rank on bit-packed rows."""

import random

from congruent.gf2 import pack, rank_f2, unpack


def naive_rank(rows):
    """Row reduction on lists of 0/1 ints, the slow way."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def entries(m):
    """The 0/1 entries of a square matrix of packed rows, row by row."""
    return [unpack(r, len(m)) for r in m]


def transpose(rows, cols):
    """Packed rows of the transpose of a rows x cols matrix, the slow way."""
    return tuple(sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(cols))


def test_rank_trivial():
    assert rank_f2((0, 0, 0)) == 0
    assert rank_f2((0,)) == 0
    assert rank_f2(()) == 0
    for k in range(1, 9):
        assert rank_f2(tuple(1 << i for i in range(k))) == k
    assert rank_f2((pack([1, 1]), pack([1, 0]))) == 2


def test_rank_does_not_mutate():
    m = [pack([1, 1]), pack([1, 0])]
    rank_f2(m)
    assert [unpack(r, 2) for r in m] == [[1, 1], [1, 0]]


def test_rank_bounds_and_transpose():
    rng = random.Random(11)
    for _ in range(200):
        m = tuple(pack(rng.randrange(2) for _ in range(16)) for _ in range(16))
        r = rank_f2(m)
        assert r <= 16
        assert r == rank_f2(transpose(m, 16))


def test_rank_against_naive_oracle():
    rng = random.Random(12)
    for _ in range(10000):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        rows = [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
        assert rank_f2(tuple(pack(r) for r in rows)) == naive_rank(rows), rows


def test_pack_and_unpack():
    assert pack([1, 0, 1, 1]) == 0b1101  # column 0 is bit 0
    assert pack([]) == 0
    assert unpack(0b1101, 4) == [1, 0, 1, 1]
    assert unpack(0b1101, 6) == [1, 0, 1, 1, 0, 0]
    rng = random.Random(13)
    for _ in range(200):
        bits = [rng.randrange(2) for _ in range(rng.randrange(0, 12))]
        assert unpack(pack(bits), len(bits)) == bits
