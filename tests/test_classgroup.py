"""Tests for exact class numbers via reduced-form counting."""

from math import gcd, isqrt

import pytest

import congruent.arith
import congruent.classgroup
from congruent.arith import NotSquarefree, factor_squarefree
from congruent.classgroup import MAX_ABS_DISCRIMINANT, class_number, fundamental_discriminant, genus_two_rank
from congruent.cli import main


def brute_force_h(D):
    """Independent count: sweep a, then b in [-a, a], demand 4a | b^2 - D."""
    count = 0
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            count += 1
    return count


def fundamental_discs(limit):
    out = []
    for d in range(3, limit + 1):
        if d % 4 == 3:
            out.append(-d)  # -d = 1 (mod 4), d squarefree checked below
    for d in range(1, limit // 4 + 1):
        if d % 4 in (1, 2):
            out.append(-4 * d)
    cleaned = []
    for D in out:
        m = -D if D % 4 == 1 else -D // 4
        try:
            fundamental_discriminant(m)
        except (NotSquarefree, ValueError):
            continue
        cleaned.append(D)
    return cleaned


def test_fundamental_discriminant_values():
    assert fundamental_discriminant(17593) == -70372
    assert fundamental_discriminant(52779) == -52779
    assert fundamental_discriminant(1) == -4
    assert fundamental_discriminant(3) == -3
    assert fundamental_discriminant(factor_squarefree(17593)) == -70372
    with pytest.raises(NotSquarefree):
        fundamental_discriminant(12)


def test_fundamental_discriminant_refuses_a_d_beyond_the_bound_before_factoring(monkeypatch):
    def no_factoring(v):
        raise AssertionError(f"{v} factored")

    monkeypatch.setattr(congruent.arith, "_factor", no_factoring)
    # -4m for m = 1 (mod 4), just beyond the bound; -m for m = 3 (mod 4); a square m
    for m, D in ((25_000_001, 100_000_004), (10**8 + 3, 10**8 + 3), (25 * 10**14, 10**16)):
        with pytest.raises(ValueError, match=f"^\\|D\\| = {D} exceeds the supported bound {MAX_ABS_DISCRIMINANT}$"):
            fundamental_discriminant(m)


def test_class_number_spot_values():
    for D, h in ((-4, 1), (-8, 1), (-3, 1), (-20, 2), (-24, 2), (-23, 3), (-47, 5), (-71, 7)):
        assert class_number(D) == h


def test_class_number_table_values():
    assert class_number(fundamental_discriminant(52779)) == 80
    assert class_number(fundamental_discriminant(17593)) == 48


def test_v2_field(capsys):
    # v2(h) is computed where `classnum` prints it
    assert main(["classnum", "-m", "52779"]) == 0
    assert "D = -52779, h = 80, v2 = 4," in capsys.readouterr().out
    assert main(["classnum", "-m", "3"]) == 0
    assert "D = -3, h = 1, v2 = 0," in capsys.readouterr().out


def test_class_number_rejects_bad_disc():
    with pytest.raises(ValueError):
        class_number(-6)  # -6 = 2 (mod 4)
    with pytest.raises(ValueError):
        class_number(5)


def test_class_number_refuses_discriminants_beyond_the_bound(monkeypatch):
    def no_counting(D):
        raise AssertionError(f"h({D}) counted")

    # the bound is checked before the count allocates anything
    monkeypatch.setattr(congruent.classgroup, "_count_reduced_forms", no_counting)
    D = -(MAX_ABS_DISCRIMINANT + 3)  # = 1 (mod 4)
    with pytest.raises(ValueError, match=f"bound {MAX_ABS_DISCRIMINANT}"):
        class_number(D)


def test_oracle_equivalence_small():
    # the acceptance suite pushes this to |D| <= 10^4
    for D in fundamental_discs(2000):
        assert class_number(D) == brute_force_h(D), D


def test_genus_two_rank():
    assert genus_two_rank(fundamental_discriminant(1)) == 0
    assert genus_two_rank(fundamental_discriminant(17593)) == 2
    assert genus_two_rank(fundamental_discriminant(52779)) == 2


def test_genus_bound_divides_h():
    for m in (3, 5, 15, 21, 35, 105, 219, 697, 17593, 52779):
        D = fundamental_discriminant(m)
        h = class_number(D)
        assert h % (1 << genus_two_rank(D)) == 0, m
