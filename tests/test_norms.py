"""Tests for the two norm-form representations and their parity relation."""

import random
from math import gcd, isqrt

import pytest

from congruent.arith import factor_squarefree, is_prime, jacobi
from congruent.norms import (
    NoRepresentation,
    _crt_roots,
    _gcd_sqrt2,
    parity_criterion,
    rep_2e2_f2,
    rep_u2_2v2,
    represent,
)


def all_u_reps(P):
    reps = []
    for v in range(0, isqrt(P // 2) + 1):
        rest = P - 2 * v * v
        u = isqrt(rest)
        if u * u == rest:
            reps.append((u, v))
    return sorted(reps)


def all_ef_reps(P, f_bound=None):
    reps = []
    if f_bound is None:
        f_bound = 4 * isqrt(P) + 4
    for f in range(1, f_bound, 2):
        t = P + f * f
        e = isqrt(t // 2)
        if t % 2 == 0 and e * e == t // 2:
            reps.append((e, f))
    return sorted(reps, key=lambda ef: ef[1])


def eligible_p(limit):
    out = []
    for p in range(17, limit, 8):
        try:
            fp = factor_squarefree(p)
        except ValueError:
            continue
        if fp.primes and all(q % 8 == 1 for q in fp.primes):
            out.append(fp)
    return out


def test_rep_examples():
    assert rep_u2_2v2(factor_squarefree(17)) == (3, 2)
    assert rep_u2_2v2(factor_squarefree(73)) == (1, 6)
    assert rep_u2_2v2(factor_squarefree(89)) == (9, 2)
    assert rep_2e2_f2(factor_squarefree(17)) == (3, 1)
    assert rep_2e2_f2(factor_squarefree(73)) == (7, 5)
    assert rep_2e2_f2(factor_squarefree(89)) == (7, 3)


def test_parity_criterion_examples():
    assert parity_criterion(factor_squarefree(17)) is False
    assert parity_criterion(factor_squarefree(73)) is False
    assert parity_criterion(factor_squarefree(113)) is True


def test_rejects_out_of_domain():
    for bad in (1, 5, 21, 3 * 17):
        with pytest.raises(NoRepresentation):
            rep_u2_2v2(factor_squarefree(bad))
        with pytest.raises(NoRepresentation):
            rep_2e2_f2(factor_squarefree(bad))


def test_rep_2e2_f2_rejects_a_bad_reduction(monkeypatch):
    import congruent.norms as norms_mod

    monkeypatch.setattr(norms_mod, "_gcd_sqrt2", lambda a, b: (1, 1))
    with pytest.raises(ArithmeticError):
        rep_2e2_f2(factor_squarefree(17))


def test_reconstruction_parity_and_primitivity():
    for fp in eligible_p(20000):
        rep = represent(fp)
        assert rep.u**2 + 2 * rep.v**2 == fp.value
        assert 2 * rep.e**2 - rep.f**2 == fp.value
        assert rep.u % 2 == 1 and rep.e % 2 == 1 and rep.f % 2 == 1 and rep.v % 2 == 0
        assert rep.u > 0 and rep.v > 0 and rep.e > 0 and rep.f > 0
        assert gcd(rep.u, 2 * rep.v) == 1 and gcd(rep.e, rep.f) == 1


def test_returned_rep_is_exhaustive_minimum():
    # every P < 20,000 has one or two primes; below 400,000 every three-prime P
    # (four CRT roots) and a seeded sample of the two-prime P are checked too
    every = eligible_p(400000)
    small = [fp for fp in every if fp.value < 20000]
    three = [fp for fp in every if len(fp.primes) == 3]
    two = [fp for fp in every if len(fp.primes) == 2 and fp.value >= 20000]
    assert len(three) == 48 and three[0].value == 50881
    sample = small + three + random.Random(33).sample(two, 150)
    for fp in sample:
        assert rep_u2_2v2(fp) == all_u_reps(fp.value)[0], fp.value
        e, f = rep_2e2_f2(fp)
        assert (e, f) == all_ef_reps(fp.value)[0], fp.value


def test_crt_roots_of_pm2_mod_primes():
    # each prime's root is c -+ c^3 for an 8th root of unity c, for +2 and -2
    primes = [p for p in range(17, 10**5, 8) if is_prime(p)]
    assert len(primes) == 2384
    for p in primes:
        fp = factor_squarefree(p)
        for square in (2, -2):
            (r,) = _crt_roots(fp, square)
            assert (r * r - square) % p == 0, (p, square)


def test_gcd_sqrt2_norm_takes_both_signs():
    # the gcd's norm is +-P, and both signs occur, so the 1 + sqrt(2) step runs
    signs = {1: 0, -1: 0}
    for fp in eligible_p(20000):
        n = fp.value
        for r in _crt_roots(fp, 2):
            f, e = _gcd_sqrt2((n, 0), (r, 1))
            norm = f * f - 2 * e * e
            assert abs(norm) == n, (n, r)
            signs[norm // n] += 1
    assert signs[1] > 0 and signs[-1] > 0, signs


def test_parity_relation_all_representations_small():
    # every representation pair agrees: (-1/e) = +1 iff 4 | v
    # (the acceptance suite runs this to 2*10^5)
    for fp in eligible_p(30000):
        u_reps = all_u_reps(fp.value)
        ef_reps = all_ef_reps(fp.value)
        assert u_reps and ef_reps, fp.value
        for _, v in u_reps:
            for e, _ in ef_reps:
                assert (jacobi(-1, e) == 1) == (v % 4 == 0), (fp.value, v, e)
