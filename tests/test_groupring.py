import random

import numpy as np
import pytest

import cycloseq.autocorr as _autocorr
import cycloseq.groupring as gr
from cycloseq import cli
from cycloseq.groupring import (CrtElement, crt_blocks, crt_expanded_form, crt_lemma1,
                                crt_sign_form, crt_sign_products, dump, gamma_p,
                                gamma_q, gauss_gp, gauss_gq, mul,
                                verify_correlation_identity, verify_lemma1)
from cycloseq.numtheory import OddPrimePair, legendre, odd_prime_pairs
from cycloseq.sequence import (CheckResult, SequenceParams, generate, residue_table,
                               sign_view)

ALL_TRIPLES = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
RANDOM_PAIRS = [OddPrimePair(3, 5), OddPrimePair(5, 7), OddPrimePair(3, 13)]


# Dense oracle: Z[Gamma] as int64 coefficient vectors indexed by exponent.
# It shares no code with the CRT form, and its character sums evaluate one
# Legendre symbol per exponent instead of reading residue_table.

def _oracle_mul(u, v):
    # cyclic convolution from the definition, in Python ints
    n = len(u)
    acc = [0] * n
    for i, ci in enumerate(u.tolist()):
        for j, cj in enumerate(v.tolist()):
            acc[(i + j) % n] += ci * cj
    return acc


def _dense_mul(u, v):
    # product in Z[Gamma]: full convolution folded mod x**n - 1
    n = len(u)
    full = np.convolve(u, v)
    full[: n - 1] += full[n:]
    return full[:n]


def _dense_sigma(u):
    # x**k -> x**(-k)
    return np.roll(u[::-1], 1)


def _dense_subgroup_sum(primes, step):
    u = np.zeros(primes.n, dtype=np.int64)
    u[::step] = 1
    return u


def _dense_gauss(primes, r):
    # Legendre symbols mod r on the multiples of n // r, one symbol at a time
    u = np.zeros(primes.n, dtype=np.int64)
    for j in range(1, r):
        exp = j * (primes.n // r)
        u[exp] = legendre(exp, r)
    return u


def _dense_lemma1(primes, gp, gq):
    # (name, product, right side) of each Lemma-1 identity in the dense ring
    p, q, n = primes.p, primes.q, primes.n
    cp, cq = _dense_subgroup_sum(primes, p), _dense_subgroup_sum(primes, q)
    one = np.eye(1, n, dtype=np.int64)[0]
    zero = np.zeros(n, dtype=np.int64)
    return [
        ("gauss_gp_squared", _dense_mul(gp, gp), legendre(-1, p) * (p * one - cq)),
        ("gauss_gq_squared", _dense_mul(gq, gq), legendre(-1, q) * (q * one - cp)),
        ("gamma_p_times_gauss_gq", _dense_mul(cp, gq), zero),
        ("gamma_q_times_gauss_gp", _dense_mul(cq, gp), zero),
        ("gamma_p_times_gamma_q", _dense_mul(cp, cq), np.ones(n, dtype=np.int64)),
    ]


def _first_diff(got, want):
    # (exponent, got, want) at the first differing coefficient, or None
    diff = np.flatnonzero(np.asarray(got) != np.asarray(want))
    if len(diff) == 0:
        return None
    k = int(diff[0])
    return k, int(got[k]), int(want[k])


def _factor(values):
    return np.array(values, dtype=np.int64)


def _monomial(primes, k, coeff=1):
    # x**k is delta at k mod p tensor delta at k mod q
    u, v = np.zeros(primes.p, dtype=np.int64), np.zeros(primes.q, dtype=np.int64)
    u[k % primes.p] = v[k % primes.q] = 1
    return CrtElement(primes, [(coeff, u, v, 1, 1)])


def _random_element(rng, primes):
    # 1-4 rank-1 terms, small coefficients, factor entries in [-3, 3]
    return CrtElement(primes, [
        (rng.randint(-5, 5),
         _factor([rng.randint(-3, 3) for _ in range(primes.p)]),
         _factor([rng.randint(-3, 3) for _ in range(primes.q)]), 3, 3)
        for _ in range(rng.randint(1, 4))])


def _random_triples(seed, count=4):
    rng = random.Random(seed)
    return [(primes, *(_random_element(rng, primes) for _ in range(3)))
            for primes in RANDOM_PAIRS for _ in range(count)]


def test_construction_and_equality():
    primes = OddPrimePair(3, 5)
    u = gamma_p(primes)
    assert u.order == 15
    assert u.dense().tolist() == [1, 0, 0] * 5
    ones_q = np.ones(5, dtype=np.int64)
    delta_p = _factor([1, 0, 0])
    split = CrtElement(primes, [(3, delta_p, ones_q, 1, 1), (-2, delta_p, ones_q, 1, 1)])
    assert len(split.terms) == 2 and split == u
    assert 2 * u != u
    assert u != gamma_p(OddPrimePair(3, 7))
    for _, x, y, _ in _random_triples(1414):
        assert len((x + y - y).terms) > len(x.terms) and x + y - y == x


def test_construction_errors():
    with pytest.raises(ValueError, match="different group rings"):
        mul(_monomial(OddPrimePair(3, 5), 0), _monomial(OddPrimePair(3, 7), 0))


def test_sum_across_rings_is_refused():
    # (3, 5) and (5, 3) share n = 15 but not the p x q grid, so their terms
    # cannot be pooled
    x, y = gamma_p(OddPrimePair(3, 5)), gamma_p(OddPrimePair(5, 3))
    for combine in (lambda: x + y, lambda: x - y, lambda: y + x):
        with pytest.raises(ValueError, match="different group rings"):
            combine()


def test_monomial_products_wrap():
    primes = OddPrimePair(3, 5)
    for k in range(primes.n):
        assert _monomial(primes, k).dense().tolist() == np.eye(1, 15, k, dtype=int)[0].tolist()
    assert mul(_monomial(primes, 10), _monomial(primes, 10)) == _monomial(primes, 5)
    assert mul(_monomial(primes, 0), _monomial(primes, 7)) == _monomial(primes, 7)
    assert mul(_monomial(primes, 3, 2), _monomial(primes, 12, -5)) == _monomial(primes, 0, -10)


def test_scalar_and_additive_operations():
    for primes, u, _, _ in _random_triples(4242):
        assert (3 * u).dense().tolist() == (3 * u.dense()).tolist()
        assert (-1 * u).dense().tolist() == (-u.dense()).tolist()
        assert (u + u).dense().tolist() == (2 * u.dense()).tolist()
        assert u - u == CrtElement(primes)


def test_mul_matches_convolution_oracle():
    for _, u, v, _ in _random_triples(20260817):
        want = _oracle_mul(u.dense(), v.dense())
        assert _dense_mul(u.dense(), v.dense()).tolist() == want
        assert mul(u, v).dense().tolist() == want
        assert (u * v).dense().tolist() == want


def test_mul_paths_agree_under_scaling():
    # scalars ride in the Python-int coefficients, so scaling an operand
    # and scaling the product give one element
    k = 10 ** 12
    for _, u, v, _ in _random_triples(271828):
        assert mul(k * u, v) == k * mul(u, v) == mul(u, k * v)


def test_big_coefficient_exactness():
    # exact right up to the int64 limit, checked against Python ints
    primes = OddPrimePair(3, 5)
    one = _monomial(primes, 0)
    assert (2 ** 62 * one + (2 ** 62 - 1) * one).dense()[0] == 2 ** 63 - 1
    k = 10 ** 12
    for _, u, v, _ in _random_triples(8675309):
        want = [k * c for c in _oracle_mul(u.dense(), v.dense())]
        assert mul(k * u, v).dense().tolist() == want


def test_int64_overflow_is_refused_not_wrapped():
    primes = OddPrimePair(3, 5)
    k = 3 * 2 ** 61
    gp = gauss_gp(primes)
    square = k * (gp * gp)  # -3 * 2**62 at exponent 0
    with pytest.raises(OverflowError):
        square.dense()
    one = _monomial(primes, 0)
    with pytest.raises(OverflowError):
        (k * one + k * one).dense()  # 3 * 2**62 at exponent 0
    big = CrtElement(primes, [(1, _factor([2 ** 61, 0, 0]), _factor([1, 0, 0, 0, 0]),
                               2 ** 61, 1)])
    with pytest.raises(OverflowError):
        mul(big, big)  # 2**122 in the first factor


def test_ring_axioms_on_random_elements():
    for primes, u, v, w in _random_triples(161803):
        assert mul(mul(u, v), w) == mul(u, mul(v, w))
        assert mul(u, v) == mul(v, u)
        assert mul(u, v + w) == mul(u, v) + mul(u, w)
        assert mul(u, _monomial(primes, 0)) == u


def test_invert_support():
    # sigma is an involutive ring automorphism and inverts exponents
    primes = OddPrimePair(3, 5)
    for k in range(primes.n):
        assert _monomial(primes, k).sigma() == _monomial(primes, -k)
    for _, u, v, _ in _random_triples(573):
        assert u.sigma().dense().tolist() == _dense_sigma(u.dense()).tolist()
        assert u.sigma().sigma() == u
        assert mul(u, v).sigma() == mul(u.sigma(), v.sigma())
        assert (u + v).sigma() == u.sigma() + v.sigma()


def test_frozen_supports_for_3_5():
    primes = OddPrimePair(3, 5)
    assert np.flatnonzero(gamma_p(primes).dense()).tolist() == [0, 3, 6, 9, 12]
    assert np.flatnonzero(gamma_q(primes).dense()).tolist() == [0, 5, 10]
    gp = gauss_gp(primes).dense()
    assert gp.tolist() == [0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    gq = gauss_gq(primes).dense()
    assert [int(gq[k]) for k in (3, 6, 9, 12)] == [-1, 1, 1, -1]
    assert np.flatnonzero(gq).tolist() == [3, 6, 9, 12]
    assert crt_blocks(primes).total.dense().tolist() == [1] * 15


def test_dump_format():
    primes = OddPrimePair(3, 5)
    assert dump(gauss_gp(primes)) == "5: -1\n10: 1"
    assert dump(CrtElement(primes)) == ""


def test_gauss_gp_square_frozen():
    primes = OddPrimePair(3, 5)
    sq = mul(gauss_gp(primes), gauss_gp(primes))
    assert sq.dense().tolist() == [-2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert sq == -2 * _monomial(primes, 0) + _monomial(primes, 5) + _monomial(primes, 10)


@pytest.mark.parametrize("p,q", [(3, 5), (5, 7), (3, 13), (7, 11)])
def test_lemma1_identities(p, q):
    blocks = crt_blocks(OddPrimePair(p, q))
    assert verify_lemma1(blocks) == CheckResult("lemma1", True)
    assert [name for name, _, _ in crt_lemma1(blocks)] == [
        "gauss_gp_squared", "gauss_gq_squared",
        "gamma_p_times_gauss_gq", "gamma_q_times_gauss_gp",
        "gamma_p_times_gamma_q",
    ]


def test_decomposition_e_values():
    expected_e = {
        (0, 0, 0): -1, (0, 0, 1): -3, (0, 1, 0): 1, (0, 1, 1): -1,
        (1, 0, 0): 1, (1, 0, 1): -1, (1, 1, 0): 3, (1, 1, 1): 1,
    }
    blocks = crt_blocks(OddPrimePair(3, 5))
    for (a, b, c), e in expected_e.items():
        params = SequenceParams.of(3, 5, a, b, c)
        assert params.e == e, (a, b, c)
        h = crt_sign_form(params, blocks) - blocks.unit
        assert int(h.dense()[0]) == e + (-1) ** a + (-1) ** b


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (5, 7)])
def test_decomposition_consistency(p, q):
    blocks = crt_blocks(OddPrimePair(p, q))
    gg = blocks.gauss_gp * blocks.gauss_gq
    for a, b, c in ALL_TRIPLES:
        params = SequenceParams.of(p, q, a, b, c)
        s = crt_sign_form(params, blocks)
        h = s - blocks.unit
        assert s.dense().tolist() == sign_view(generate(params)).tolist()
        assert s == h + gg
        # applying sigma flips only the character product term
        chi_minus1 = legendre(-1, p) * legendre(-1, q)
        assert s.sigma() == h + chi_minus1 * gg


def test_expanded_product_form_matches_direct_product():
    blocks = crt_blocks(OddPrimePair(5, 7))
    for a, b, c in ALL_TRIPLES:
        params = SequenceParams.of(5, 7, a, b, c)
        s = crt_sign_form(params, blocks)
        assert mul(s.sigma(), s) == crt_expanded_form(params, blocks), (a, b, c)


def _correlation_identity(params):
    seq = generate(params)
    blocks = crt_blocks(params.primes)
    return verify_correlation_identity(blocks, crt_sign_products(blocks), seq,
                                       _autocorr.empirical_profile(seq),
                                       _autocorr.closed_form_profile(params))


def test_correlation_identity_ideal_case():
    params = SequenceParams.of(3, 5, 1, 0, 0)
    check = _correlation_identity(params)
    assert check == CheckResult("correlation_identity", True)
    s = crt_sign_form(params, crt_blocks(params.primes))
    assert mul(s.sigma(), s).dense().tolist() == [15] + [-1] * 14


@pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (3, 13)])
def test_correlation_identity_samples(p, q):
    for a, b, c in ALL_TRIPLES:
        check = _correlation_identity(SequenceParams.of(p, q, a, b, c))
        assert isinstance(check, CheckResult)
        assert bool(check), (p, q, a, b, c, check.detail)


def test_crt_route_matches_dense_ring_on_every_pair():
    # Differential test: every tensor-form product the checks use equals the
    # dense O(n**2) product, coefficient by coefficient, for all pq <= 1000.
    # The pair-level sign products, reweighted by each triple's coefficients
    # of S, equal both sigma(S) * S built by mul and the dense product.
    for primes in odd_prime_pairs(1000):
        dense = {name: (got, want) for name, got, want in _dense_lemma1(
            primes, _dense_gauss(primes, primes.p), _dense_gauss(primes, primes.q))}
        blocks = crt_blocks(primes)
        products = crt_sign_products(blocks)
        for name, lhs, rhs in crt_lemma1(blocks):
            got, want = dense[name]
            assert lhs.dense().tolist() == got.tolist(), (primes, name)
            assert rhs.dense().tolist() == want.tolist(), (primes, name)
        for a, b, c in ALL_TRIPLES:
            params = SequenceParams(primes, a, b, c)
            s = crt_sign_form(params, blocks)
            s_dense = sign_view(generate(params)).astype(np.int64)
            assert s.dense().tolist() == s_dense.tolist(), (primes, a, b, c)
            want = _dense_mul(_dense_sigma(s_dense), s_dense).tolist()
            assert (s.sigma() * s).dense().tolist() == want, (primes, a, b, c)
            # handed the oracle as both profiles, the check passes only if its
            # reweighted product (and the sign form and expanded form) equal it
            check = verify_correlation_identity(blocks, products, generate(params),
                                                np.array(want), np.array(want))
            assert check == CheckResult("correlation_identity", True), (primes, a, b, c)
            assert crt_expanded_form(params, blocks).dense().tolist() == want


def test_correlation_identity_holds_past_the_old_int64_ceiling():
    # S's character term is the rank-1 unit block chi_p (x) chi_q with entry
    # bounds 1, so the dense bound of sigma(S) * S is at most 36n; built as
    # gauss_gp * gauss_gq it was about n**3 and refused from n ~ 2.1e6. The
    # empirical route is O(n**2), so only the closed and expanded forms run.
    params = SequenceParams.of(1447, 1451, 0, 0, 1)
    blocks = crt_blocks(params.primes)
    s = crt_sign_form(params, blocks)
    assert np.array_equal(s.dense(), sign_view(generate(params)))
    product = (s.sigma() * s).dense()
    assert np.array_equal(product, _autocorr.closed_form_profile(params))
    assert np.array_equal(product, crt_expanded_form(params, blocks).dense())


def _flip_character(monkeypatch, r, k):
    """Make gr.residue_table give (k/r) the wrong sign."""
    def flipped(modulus):
        table = residue_table(modulus)
        if modulus == r:
            table[k] = -table[k]
        return table

    monkeypatch.setattr(gr, "residue_table", flipped)


def test_flipped_character_fails_alike_on_both_routes(monkeypatch):
    primes, k0 = OddPrimePair(5, 7), 2
    _flip_character(monkeypatch, primes.p, k0)
    gp = _dense_gauss(primes, primes.p)
    exp = next(j * primes.q for j in range(1, primes.p) if j * primes.q % primes.p == k0)
    gp[exp] = -gp[exp]
    dense = _dense_lemma1(primes, gp, _dense_gauss(primes, primes.q))
    blocks = crt_blocks(primes)
    crt = [(name, _first_diff(lhs.dense(), rhs.dense()))
           for name, lhs, rhs in crt_lemma1(blocks)]
    want = [(name, _first_diff(got, want)) for name, got, want in dense]
    assert crt == want
    failing = [name for name, diff in want if diff is not None]
    assert failing and failing[0] == "gauss_gp_squared"
    k = want[0][1][0]
    assert verify_lemma1(blocks) == CheckResult(
        "lemma1", False, f"gauss_gp_squared first differs at exponent {k}")


def test_sign_form_off_the_sequence_is_a_failed_route(monkeypatch, capsys):
    # The same fault puts crt_sign_form's S off the generated sequence: verify
    # names the check, the triple and the route instead of raising.
    _flip_character(monkeypatch, 5, 2)
    rc = cli.main(["verify", "--p", "5", "--q", "7", "--check", "correlation_identity"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert lines[0].startswith("correlation_identity (p=5, q=7): FAIL "
                               "(abc=000 sign_form_vs_sequence; ")
    assert lines[-1] == "0/1 checks pass"


def test_correlation_identity_names_each_route_it_is_handed_wrong():
    params = SequenceParams.of(5, 7, 0, 1, 1)
    seq = generate(params)
    blocks = crt_blocks(params.primes)
    emp = _autocorr.empirical_profile(seq)
    closed = _autocorr.closed_form_profile(params)
    products = crt_sign_products(blocks)
    off = emp.copy()
    off[3] += 1
    assert verify_correlation_identity(
        blocks, products, seq, off, closed) == CheckResult(
        "correlation_identity", False, "product_vs_empirical")
    assert verify_correlation_identity(blocks, products, seq, off, off) == CheckResult(
        "correlation_identity", False,
        "product_vs_empirical; product_vs_closed_form")
