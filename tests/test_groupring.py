import random

import numpy as np
import pytest

import cycloseq.autocorr as _autocorr
import cycloseq.groupring as gr
from cycloseq.groupring import (GroupRingElement, build_decomposition, crt_blocks,
                                crt_expanded_form, crt_lemma1, crt_sign_form,
                                dump, element, expanded_product_form, gamma_p,
                                gamma_q, gamma_total, gauss_gp, gauss_gq,
                                invert_support, monomial, mul, one,
                                verify_correlation_identity, verify_lemma1,
                                zero)
from cycloseq.numtheory import OddPrimePair, legendre, odd_prime_pairs
from cycloseq.sequence import (CheckResult, SequenceParams, generate, residue_table,
                               sign_view)

ALL_TRIPLES = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _oracle_mul(u, v):
    # cyclic convolution from the definition, dict of Python ints
    n = u.order
    acc = {}
    for i, ci in enumerate(u.coeffs.tolist()):
        if ci == 0:
            continue
        for j, cj in enumerate(v.coeffs.tolist()):
            if cj == 0:
                continue
            k = (i + j) % n
            acc[k] = acc.get(k, 0) + ci * cj
    return element(n, [acc.get(k, 0) for k in range(n)])


def _dense_lemma1(primes, gp, gq):
    # (name, product, right side) of each Lemma-1 identity in the dense ring
    p, q, n = primes.p, primes.q, primes.n
    cp, cq = gamma_p(primes), gamma_q(primes)
    return [
        ("gauss_gp_squared", mul(gp, gp), legendre(-1, p) * (p * one(n) - cq)),
        ("gauss_gq_squared", mul(gq, gq), legendre(-1, q) * (q * one(n) - cp)),
        ("gamma_p_times_gauss_gq", mul(cp, gq), zero(n)),
        ("gamma_q_times_gauss_gp", mul(cq, gp), zero(n)),
        ("gamma_p_times_gamma_q", mul(cp, cq), gamma_total(n)),
    ]


def _first_diff(got, want):
    # (exponent, got, want) at the first differing coefficient, or None
    diff = np.flatnonzero(np.asarray(got) != np.asarray(want))
    if len(diff) == 0:
        return None
    k = int(diff[0])
    return k, int(got[k]), int(want[k])


def _random_element(rng, n, lo, hi):
    return element(n, [rng.randint(lo, hi) for _ in range(n)])


def test_construction_and_equality():
    u = element(5, [1, -2, 0, 0, 3])
    assert u.order == 5
    assert u.coeffs.tolist() == [1, -2, 0, 0, 3]
    assert u.support() == (0, 1, 4)
    assert u.max_abs() == 3
    assert u == element(5, [1, -2, 0, 0, 3])
    assert u != element(5, [1, -2, 0, 0, 4])
    assert len({u, element(5, [1, -2, 0, 0, 3])}) == 1
    assert zero(4) == element(4, [0, 0, 0, 0])
    assert one(4) == element(4, [1, 0, 0, 0])
    assert monomial(6, 4, -7).coeffs.tolist() == [0, 0, 0, 0, -7, 0]
    assert monomial(6, 8) == monomial(6, 2)


def test_construction_errors():
    with pytest.raises(ValueError, match="coefficients"):
        element(5, [1, 2, 3])
    with pytest.raises(ValueError, match="order"):
        element(0, [])
    with pytest.raises(ValueError, match="different group rings"):
        mul(one(5), one(6))


def test_coeffs_are_immutable():
    u = element(3, [1, 2, 3])
    with pytest.raises(ValueError):
        u.coeffs[0] = 9


def test_monomial_products_wrap():
    n = 15
    assert mul(monomial(n, 10), monomial(n, 10)) == monomial(n, 5)
    assert mul(one(n), monomial(n, 7)) == monomial(n, 7)
    assert mul(monomial(n, 3, 2), monomial(n, 12, -5)) == monomial(n, 0, -10)


def test_scalar_and_additive_operations():
    u = element(4, [1, 0, -2, 5])
    assert (3 * u).coeffs.tolist() == [3, 0, -6, 15]
    assert (u * -1) == -u
    assert (u + u).coeffs.tolist() == [2, 0, -4, 10]
    assert (u - u) == zero(4)


def test_mul_matches_convolution_oracle():
    rng = random.Random(20260817)
    for n in (7, 12, 15):
        for _ in range(6):
            u = _random_element(rng, n, -9, 9)
            v = _random_element(rng, n, -9, 9)
            assert mul(u, v) == _oracle_mul(u, v)
    # wide coefficients force the arbitrary-precision path
    for _ in range(3):
        u = _random_element(rng, 10, -(10 ** 12), 10 ** 12)
        v = _random_element(rng, 10, -(10 ** 12), 10 ** 12)
        assert mul(u, v) == _oracle_mul(u, v)


def test_mul_paths_agree_under_scaling():
    rng = random.Random(271828)
    u = _random_element(rng, 15, -9, 9)
    v = _random_element(rng, 15, -9, 9)
    k = 10 ** 17  # scaled products overflow int64, so the paths must agree exactly
    assert mul(k * u, v) == k * mul(u, v)


def test_big_coefficient_exactness():
    big = 10 ** 10
    u = element(6, [big, 0, -big, 1, 0, 2])
    sq = mul(u, u)
    assert sq.coeffs.tolist() == [
        big * big + 1, -4 * big, -2 * big * big + 4, 2 * big, big * big + 4, 2 * big,
    ]
    assert sq.coeffs[2] == -199999999999999999996


def test_ring_axioms_on_random_elements():
    rng = random.Random(161803)
    n = 15
    for _ in range(5):
        u = _random_element(rng, n, -9, 9)
        v = _random_element(rng, n, -9, 9)
        w = _random_element(rng, n, -9, 9)
        assert mul(mul(u, v), w) == mul(u, mul(v, w))
        assert mul(u, v) == mul(v, u)
        assert mul(u, v + w) == mul(u, v) + mul(u, w)
        assert mul(u, one(n)) == u


def test_invert_support():
    n = 15
    for k in range(n):
        assert invert_support(monomial(n, k)) == monomial(n, (n - k) % n)
    rng = random.Random(573)
    u = _random_element(rng, n, -9, 9)
    v = _random_element(rng, n, -9, 9)
    assert invert_support(invert_support(u)) == u
    assert invert_support(mul(u, v)) == mul(invert_support(u), invert_support(v))
    assert invert_support(one(n)) == one(n)


def test_frozen_supports_for_3_5():
    primes = OddPrimePair(3, 5)
    assert gamma_p(primes).support() == (0, 3, 6, 9, 12)
    assert gamma_q(primes).support() == (0, 5, 10)
    gp = gauss_gp(primes)
    assert gp.coeffs.tolist() == [0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    gq = gauss_gq(primes)
    assert [int(gq.coeffs[k]) for k in (3, 6, 9, 12)] == [-1, 1, 1, -1]
    assert gq.support() == (3, 6, 9, 12)
    assert gamma_total(15).coeffs.tolist() == [1] * 15


def test_dump_format():
    gp = gauss_gp(OddPrimePair(3, 5))
    assert dump(gp) == "5: -1\n10: 1"
    assert dump(zero(4)) == ""


def test_gauss_gp_square_frozen():
    primes = OddPrimePair(3, 5)
    sq = mul(gauss_gp(primes), gauss_gp(primes))
    want = -2 * one(15) + monomial(15, 5) + monomial(15, 10)
    assert sq == want


@pytest.mark.parametrize("p,q", [(3, 5), (5, 7), (3, 13), (7, 11)])
def test_lemma1_identities(p, q):
    primes = OddPrimePair(p, q)
    assert verify_lemma1(primes) == CheckResult("lemma1", True)
    assert [name for name, _, _ in crt_lemma1(primes)] == [
        "gauss_gp_squared", "gauss_gq_squared",
        "gamma_p_times_gauss_gq", "gamma_q_times_gauss_gp",
        "gamma_p_times_gamma_q",
    ]


def test_decomposition_e_values():
    expected_e = {
        (0, 0, 0): -1, (0, 0, 1): -3, (0, 1, 0): 1, (0, 1, 1): -1,
        (1, 0, 0): 1, (1, 0, 1): -1, (1, 1, 0): 3, (1, 1, 1): 1,
    }
    for (a, b, c), e in expected_e.items():
        dec = build_decomposition(SequenceParams.of(3, 5, a, b, c))
        assert dec.e == e, (a, b, c)
    dec = build_decomposition(SequenceParams.of(3, 5, 0, 0, 0))
    assert int(dec.h.coeffs[0]) == 1  # e + (-1)**a + (-1)**b


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (5, 7)])
def test_decomposition_consistency(p, q):
    for a, b, c in ALL_TRIPLES:
        dec = build_decomposition(SequenceParams.of(p, q, a, b, c))
        assert dec.s == dec.h + mul(dec.gp, dec.gq)
        # applying sigma flips only the character product term
        chi_minus1 = legendre(-1, p) * legendre(-1, q)
        assert invert_support(dec.s) == dec.h + chi_minus1 * mul(dec.gp, dec.gq)


def test_expanded_product_form_matches_direct_product():
    for a, b, c in ALL_TRIPLES:
        params = SequenceParams.of(5, 7, a, b, c)
        dec = build_decomposition(params)
        direct = mul(invert_support(dec.s), dec.s)
        assert direct == expanded_product_form(params), (a, b, c)


def test_correlation_identity_ideal_case():
    params = SequenceParams.of(3, 5, 1, 0, 0)
    check = verify_correlation_identity(params)
    assert check == CheckResult("correlation_identity", True)
    dec = build_decomposition(params)
    product = mul(invert_support(dec.s), dec.s)
    assert product.coeffs.tolist() == [15] + [-1] * 14


@pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (3, 13)])
def test_correlation_identity_samples(p, q):
    for a, b, c in ALL_TRIPLES:
        check = verify_correlation_identity(SequenceParams.of(p, q, a, b, c))
        assert isinstance(check, CheckResult)
        assert bool(check), (p, q, a, b, c, check.detail)


def test_crt_route_matches_dense_ring_on_every_pair():
    # Differential test: every tensor-form product the checks use equals the
    # dense O(n**2) product, coefficient by coefficient, for all pq <= 1000.
    for primes in odd_prime_pairs(1000):
        n = primes.n
        dense = {name: (got, want) for name, got, want
                 in _dense_lemma1(primes, gauss_gp(primes), gauss_gq(primes))}
        for name, lhs, rhs in crt_lemma1(primes):
            got, want = dense[name]
            assert lhs.dense().tolist() == got.coeffs.tolist(), (primes, name)
            assert rhs.dense().tolist() == want.coeffs.tolist(), (primes, name)
        blocks = crt_blocks(primes)
        for a, b, c in ALL_TRIPLES:
            params = SequenceParams(primes, a, b, c)
            _, s = crt_sign_form(params, blocks)
            s_dense = element(n, sign_view(generate(params)))
            assert s.dense().tolist() == s_dense.coeffs.tolist(), (primes, a, b, c)
            want = mul(invert_support(s_dense), s_dense).coeffs.tolist()
            assert (s.sigma() * s).dense().tolist() == want, (primes, a, b, c)
            assert crt_expanded_form(params, blocks).dense().tolist() == want


def test_flipped_character_fails_alike_on_both_routes(monkeypatch):
    primes, k0 = OddPrimePair(5, 7), 2

    def flipped(r):
        table = residue_table(r)
        if r == primes.p:
            table[k0] = -table[k0]
        return table

    monkeypatch.setattr(gr, "residue_table", flipped)
    gp = gauss_gp(primes).coeffs.copy()
    exp = next(j * primes.q for j in range(1, primes.p) if j * primes.q % primes.p == k0)
    gp[exp] = -gp[exp]
    dense = _dense_lemma1(primes, element(primes.n, gp), gauss_gq(primes))
    crt = [(name, _first_diff(lhs.dense(), rhs.dense()))
           for name, lhs, rhs in crt_lemma1(primes)]
    want = [(name, _first_diff(got.coeffs, want.coeffs)) for name, got, want in dense]
    assert crt == want
    failing = [name for name, diff in want if diff is not None]
    assert failing and failing[0] == "gauss_gp_squared"
    k = want[0][1][0]
    assert verify_lemma1(primes) == CheckResult(
        "lemma1", False, f"gauss_gp_squared first differs at exponent {k}")


def test_correlation_identity_takes_the_callers_sequence():
    params = SequenceParams.of(5, 7, 0, 1, 1)
    seq = generate(params)
    emp = _autocorr.empirical_profile(seq)
    assert verify_correlation_identity(params, seq, emp).ok
    with pytest.raises(ValueError, match="other parameters"):
        verify_correlation_identity(SequenceParams.of(5, 7, 1, 1, 1), seq, emp)
