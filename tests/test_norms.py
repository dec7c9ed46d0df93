"""Tests for the two norm-form representations and their parity relation."""

from math import gcd, isqrt

import pytest

from congruent.arith import factor_squarefree, jacobi
from congruent.norms import NoRepresentation, parity_criterion, rep_2e2_f2, rep_u2_2v2, represent


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

    monkeypatch.setattr(norms_mod, "_reduce_disc8", lambda a, b, c: (1, 1))
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
    for fp in eligible_p(20000):
        assert rep_u2_2v2(fp) == all_u_reps(fp.value)[0]
        e, f = rep_2e2_f2(fp)
        assert (e, f) == all_ef_reps(fp.value)[0]


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
