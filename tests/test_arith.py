"""Tests for the integer kernel: symbols, factorization, primality."""

import random

import numpy as np
import pytest

from congruent.arith import (
    FactoredSquarefree,
    NotSquarefree,
    _pow_mod,
    factor_squarefree,
    hilbert,
    is_prime,
    jacobi,
    legendre,
    quartic_symbol,
    sqrt_mod_prime,
)


def odd_primes_below(limit):
    return [p for p in range(3, limit) if is_prime(p)]


def test_legendre_known_values():
    assert legendre(3, 73) == 1
    assert legendre(73, 241) == -1
    assert legendre(2, 7) == 1
    for p in (3, 7, 73, 241, 1009):
        assert legendre(1, p) == 1
        assert legendre(p, p) == 0


def test_legendre_rejects_bad_modulus():
    for p in (2, 4, 9, 15, 1000003 * 3):
        with pytest.raises(ValueError):
            legendre(5, p)


def test_legendre_euler_criterion_oracle():
    # independent oracle: a^((p-1)/2) mod p mapped to {-1, 0, +1}
    for p in odd_primes_below(1000):
        for a in range(p):
            e = pow(a, (p - 1) // 2, p)
            expected = -1 if e == p - 1 else e
            assert legendre(a, p) == expected, (a, p)


def test_legendre_multiplicative():
    rng = random.Random(1)
    primes = odd_primes_below(2000)
    for _ in range(2000):
        p = rng.choice(primes)
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_quadratic_reciprocity():
    rng = random.Random(2)
    primes = odd_primes_below(3000)
    for _ in range(2000):
        p, q = rng.sample(primes, 2)
        flip = -1 if p % 4 == 3 and q % 4 == 3 else 1
        assert legendre(p, q) * legendre(q, p) == flip


def test_jacobi_values():
    assert jacobi(5, 1) == 1
    assert jacobi(0, 1) == 1
    assert jacobi(2, 17593) == 1
    assert jacobi(3, 35) == 1
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_jacobi_negative_and_periodic():
    rng = random.Random(9)
    for m in range(1, 400, 2):
        # (-1/m) = (-1)^((m-1)/2)
        assert jacobi(-1, m) == (1 if m % 4 in (0, 1) else -1)
        a = rng.randrange(-1000, 1000)
        assert jacobi(a, m) == jacobi(a + m, m) == jacobi(a - 3 * m, m)


def test_jacobi_matches_legendre_product():
    rng = random.Random(3)
    primes = odd_primes_below(300)
    for _ in range(1000):
        p, q = rng.choice(primes), rng.choice(primes)
        a = rng.randrange(1, p * q)
        assert jacobi(a, p * q) == legendre(a, p) * legendre(a, q)


def test_quartic_symbol_values():
    assert quartic_symbol(4, factor_squarefree(17)) == 1
    assert quartic_symbol(3, factor_squarefree(17593)) == 1
    assert quartic_symbol(3, factor_squarefree(73)) == -1


def test_quartic_symbol_of_square_is_legendre():
    rng = random.Random(4)
    primes = [p for p in odd_primes_below(2000) if p % 4 == 1]
    for _ in range(500):
        p = rng.choice(primes)
        k = rng.randrange(1, p)
        assert quartic_symbol(k * k, factor_squarefree(p)) == legendre(k, p)


def test_quartic_symbol_square_law_composite():
    rng = random.Random(5)
    primes = [p for p in odd_primes_below(500) if p % 4 == 1]
    for _ in range(300):
        p, q = rng.sample(primes, 2)
        m = FactoredSquarefree(p * q, tuple(sorted((p, q))))
        k = rng.randrange(2, p * q)
        if jacobi(k, p * q) == 0 or legendre(k, p) != 1 or legendre(k, q) != 1:
            continue
        s = quartic_symbol(k, m)
        assert s * s == 1
        assert quartic_symbol(k * k, m) == jacobi(k, p * q)


def test_quartic_symbol_undefined_cases():
    with pytest.raises(ValueError):
        quartic_symbol(2, factor_squarefree(7))  # 7 = 3 (mod 4)
    with pytest.raises(ValueError):
        quartic_symbol(3, factor_squarefree(5))  # 3 is a non-residue mod 5


def test_hilbert_trivial_at_odd_p_coprime():
    rng = random.Random(6)
    for p in (3, 5, 73, 241):
        for _ in range(200):
            a = rng.randrange(1, 500)
            b = rng.randrange(1, 500)
            if a % p == 0 or b % p == 0:
                continue
            assert hilbert(a, b, p) == 1


def test_hilbert_known_values():
    assert hilbert(-1, -1, 2) == -1
    assert hilbert(73, -52779, 73) == -1


def test_hilbert_rejects_zero():
    with pytest.raises(ValueError):
        hilbert(0, 5, 3)
    with pytest.raises(ValueError):
        hilbert(5, 0, 2)


def test_hilbert_bilinear():
    rng = random.Random(7)
    for p in (2, 3, 5, 73):
        for _ in range(400):
            a1 = rng.randrange(-60, 61) or 1
            a2 = rng.randrange(-60, 61) or 1
            b = rng.randrange(-60, 61) or 1
            assert hilbert(a1 * a2, b, p) == hilbert(a1, b, p) * hilbert(a2, b, p)
            assert hilbert(b, a1 * a2, p) == hilbert(b, a1, p) * hilbert(b, a2, p)


def test_factor_squarefree_values():
    assert factor_squarefree(52779).primes == (3, 73, 241)
    assert factor_squarefree(1).primes == ()
    assert factor_squarefree(2).primes == (2,)
    with pytest.raises(NotSquarefree):
        factor_squarefree(12)
    with pytest.raises(ValueError):
        factor_squarefree(0)


def test_factor_squarefree_beyond_trial_division():
    p, q = 1000003, 1000033
    assert is_prime(p) and is_prime(q)
    assert factor_squarefree(p * q).primes == (p, q)
    with pytest.raises(NotSquarefree):
        factor_squarefree(p * p)


def test_factored_squarefree_validation():
    with pytest.raises(ValueError):
        FactoredSquarefree(6, (2, 2))
    with pytest.raises(ValueError):
        FactoredSquarefree(6, (3, 2))
    with pytest.raises(ValueError):
        FactoredSquarefree(10, (2, 3))
    with pytest.raises(ValueError):
        FactoredSquarefree(4, (4,))  # entries must be prime


def test_is_prime_small_and_carmichael():
    assert [n for n in range(25) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_sqrt_mod_prime():
    rng = random.Random(8)
    for p in odd_primes_below(500):
        for _ in range(5):
            x = rng.randrange(1, p)
            r = sqrt_mod_prime(x * x % p, p)
            assert r * r % p == x * x % p


def test_pow_mod_matches_python_pow():
    # seeded triples, exp = 0 among them, with moduli up to 3.03e9 (mod^2 < 2^63),
    # one exponent per bit length up to 62; and empty arrays, which pass no bit
    rng = random.Random(19)
    mod = [rng.choice([3, 5, 17, 65537, 3_037_000_493, rng.randrange(2, 3_037_000_499)]) for _ in range(400)]
    base = [rng.randrange(m) for m in mod]
    exp = [0, 0, 1] + [rng.randrange(1 << rng.randrange(1, 63)) for _ in range(397)]
    got = _pow_mod(*(np.array(v, dtype=np.int64) for v in (base, exp, mod)))
    assert got.tolist() == [pow(b, e, m) for b, e, m in zip(base, exp, mod)]
    assert _pow_mod(np.array([5, 0]), np.array([0, 0]), np.array([7, 7])).tolist() == [1, 1]
    empty = np.zeros((2, 0), dtype=np.int64)
    assert _pow_mod(empty, empty[0], empty[0]).shape == (2, 0)
    assert _pow_mod(empty[0], empty[0], empty[0]).shape == (0,)
