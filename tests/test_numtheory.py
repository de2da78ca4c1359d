import math
import random

import pytest

from cycloseq.cli import main as cli_main
from cycloseq.numtheory import (OddPrimePair, is_odd_prime, is_prime,
                                legendre, odd_prime_pairs, odd_primes_up_to)

ODD_PRIMES_100 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97]


def _legendre_oracle(a, r):
    # independent route: explicit quadratic-residue set
    a %= r
    if a == 0:
        return 0
    residues = {(k * k) % r for k in range(1, r)}
    return 1 if a in residues else -1


def _subtraction_gcd(x, y):
    # the textbook oracle, fine for small inputs
    x, y = abs(x), abs(y)
    while x and y:
        if x >= y:
            x -= y
        else:
            y -= x
    return x or y


def _binary_gcd(x, y):
    # independent algorithm for big inputs
    x, y = abs(x), abs(y)
    if not x or not y:
        return x or y
    shift = 0
    while (x | y) & 1 == 0:
        x >>= 1
        y >>= 1
        shift += 1
    while x & 1 == 0:
        x >>= 1
    while y:
        while y & 1 == 0:
            y >>= 1
        if x > y:
            x, y = y, x
        y -= x
    return x << shift


def test_legendre_frozen_values():
    assert legendre(1, 3) == 1
    assert legendre(2, 3) == -1
    assert legendre(3, 5) == -1
    assert legendre(4, 5) == 1
    assert legendre(6, 3) == 0
    assert legendre(0, 7) == 0
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1


@pytest.mark.parametrize("bad", [2, 1, 0, -3, 9, 15, 21])
def test_legendre_rejects_non_odd_prime_modulus(bad):
    with pytest.raises(ValueError):
        legendre(1, bad)


def test_legendre_matches_residue_set_oracle():
    for r in ODD_PRIMES_100:
        for a in range(r):
            assert legendre(a, r) == _legendre_oracle(a, r), (a, r)


def test_legendre_is_multiplicative():
    for r in ODD_PRIMES_100:
        table = [legendre(a, r) for a in range(r)]
        for a in range(r):
            for b in range(r):
                assert table[a] * table[b] == table[(a * b) % r], (a, b, r)


def test_legendre_minus_one_tracks_mod_four():
    for r in odd_primes_up_to(200):
        assert (legendre(-1, r) == 1) == (r % 4 == 1), r


def test_is_prime_small_exhaustive():
    def slow(m):
        if m < 2:
            return False
        f = 2
        while f * f <= m:
            if m % f == 0:
                return False
            f += 1
        return True

    for m in range(-5, 2000):
        assert is_prime(m) == slow(m), m


def _miller_rabin_oracle(m):
    # Strong-probable-prime test to the bases 2, 7 and 61. It is deterministic
    # for every odd m in (61, 4759123141) (Jaeschke 1993, "On strong
    # pseudoprimes to several bases"), so it decides the range below 2**32.
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 7, 61):
        x = pow(base, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def test_is_prime_matches_the_oracle_below_its_bound():
    named = {
        1048577: False,  # 2**20 + 1 = 17 * 61681
        1048583: True,
        1048589: True,
        2**31 - 1: True,  # Mersenne prime
        3215031751: False,  # 151 * 751 * 28351, strong pseudoprime to 2, 3, 5, 7
        4294967291: True,  # the largest prime below 2**32
        4294967295: False,  # 2**32 - 1 = 3 * 5 * 17 * 257 * 65537
    }
    for m, prime in named.items():
        assert is_prime(m) == prime == _miller_rabin_oracle(m), m
    rng = random.Random(4759123141)
    for _ in range(500):
        m = rng.randrange(2**20 + 1, 2**32, 2)
        assert is_prime(m) == _miller_rabin_oracle(m), m


def test_is_prime_refuses_at_its_bound(capsys):
    # Trial division decides only below 2**32; odd input at or above it is
    # refused, even input is still decided.
    message = "primality is only decided below 4294967296"
    for m in (2**32 + 15, 2**61 - 1, 2**67 - 1, 193707721 * 761838257287):
        with pytest.raises(ValueError, match=message):
            is_prime(m)
    with pytest.raises(ValueError, match=message):
        OddPrimePair(3, 2**32 + 15)
    assert not is_prime(2**32)
    assert cli_main(["adic", "--p", "3", "--q", str(2**32 + 15),
                     "--abc", "000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_is_odd_prime():
    assert not is_odd_prime(2)
    assert is_odd_prime(3)
    assert is_odd_prime(997)
    assert not is_odd_prime(1)
    assert not is_odd_prime(9)
    assert not is_odd_prime(15)
    assert not is_odd_prime(-7)


# The 2-adic layer takes every gcd with math.gcd; these pin its semantics
# (absolute values, gcd(0, 0) == 0) against independent oracles.


def test_gcd_frozen_values():
    assert math.gcd(12, 18) == 6
    assert math.gcd(-4, 6) == 2
    assert math.gcd(0, 0) == 0
    assert math.gcd(0, 5) == 5
    assert math.gcd(7, 0) == 7
    assert math.gcd(2670, 32767) == 1
    assert math.gcd(14, 7) == 7


def test_gcd_small_against_subtraction_oracle():
    rng = random.Random(20260817)
    for _ in range(300):
        x = rng.randrange(-500, 500)
        y = rng.randrange(-500, 500)
        assert math.gcd(x, y) == _subtraction_gcd(x, y), (x, y)


def test_gcd_big_inputs_against_binary_oracle():
    rng = random.Random(414213562)
    for _ in range(50):
        x = rng.getrandbits(128)
        y = rng.getrandbits(128)
        g = math.gcd(x, y)
        assert g == _binary_gcd(x, y)
        if g:
            assert x % g == 0 and y % g == 0
            assert math.gcd(x // g, y // g) == 1


def test_odd_prime_pair_validation():
    pair = OddPrimePair(3, 5)
    assert pair.n == 15
    with pytest.raises(ValueError, match="p must be an odd prime"):
        OddPrimePair(4, 5)
    with pytest.raises(ValueError, match="p must be an odd prime"):
        OddPrimePair(2, 5)
    with pytest.raises(ValueError, match="q must be an odd prime"):
        OddPrimePair(3, 9)
    with pytest.raises(ValueError, match="distinct"):
        OddPrimePair(7, 7)


def test_pair_enumeration():
    assert [(pr.p, pr.q) for pr in odd_prime_pairs(40)] == [(3, 5), (3, 7), (3, 11), (3, 13), (5, 7)]
    pairs = odd_prime_pairs(200)
    assert len(pairs) == 32
    assert all(pr.p < pr.q and pr.n <= 200 for pr in pairs)
    # sorted by (p, q)
    keys = [(pr.p, pr.q) for pr in pairs]
    assert keys == sorted(keys)
