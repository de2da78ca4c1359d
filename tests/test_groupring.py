import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycloseq.autocorr as _autocorr
import cycloseq.groupring as gr
from cycloseq import cli
from cycloseq.autocorr import verify_theorem1
from cycloseq.groupring import (CrtElement, crt_basis, crt_expanded_form, crt_factors,
                                crt_lemma1, crt_sign_form, dump, gamma_p, gamma_q,
                                gauss_gp, gauss_gq, mul, verify_correlation_identity,
                                verify_lemma1)
from cycloseq.numtheory import OddPrimePair, legendre, odd_prime_pairs
from cycloseq.sequence import (BinarySequence, CheckResult, SequenceParams, generate,
                               residue_table, sign_view)

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
    return CrtElement(primes, [u], [[coeff]], [v])


def _random_element(rng, primes):
    # 1-4 rank-1 terms, small coefficients, factor entries in [-3, 3]: a
    # diagonal coefficient matrix
    terms = [(rng.randint(-5, 5),
              _factor([rng.randint(-3, 3) for _ in range(primes.p)]),
              _factor([rng.randint(-3, 3) for _ in range(primes.q)]))
             for _ in range(rng.randint(1, 4))]
    coeffs = np.diag([c for c, _, _ in terms])
    return CrtElement(primes, [u for _, u, _ in terms], coeffs, [v for _, _, v in terms])


def _unit_block(basis, i, j):
    # b_i (x) b_j as the basis stacks under the matrix unit E_ij
    m = np.zeros((3, 3), dtype=np.int64)
    m[i, j] = 1
    return CrtElement(basis.primes, basis.us, m, basis.vs)


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
    split = CrtElement(primes, [delta_p, delta_p], [[3, 0], [0, -2]], [ones_q, ones_q])
    assert len(split.m) == 2 and split == u
    assert 2 * u != u
    assert u != gamma_p(OddPrimePair(3, 7))
    for _, x, y, _ in _random_triples(1414):
        assert len((x + y - y).m) > len(x.m) and x + y - y == x


def test_construction_errors():
    with pytest.raises(ValueError, match="different group rings"):
        mul(_monomial(OddPrimePair(3, 5), 0), _monomial(OddPrimePair(3, 7), 0))


def test_non_integral_input_is_refused_not_truncated():
    # A coefficient or a row entry such as 0.5 or 2.7 would silently become
    # 0 or 2; integral values of any type, 2.0 and numpy ints among them,
    # are taken as the ints they equal.
    primes = OddPrimePair(3, 5)
    ones_p, ones_q = np.ones(3), np.ones(5)
    with pytest.raises(ValueError, match="coefficients must be integers"):
        0.5 * gamma_p(primes)
    with pytest.raises(ValueError, match="coefficients must be integers"):
        CrtElement(primes, [ones_p], [[2.7]], [ones_q])
    for row in ([0.5, 1, 1], np.array([1, 1, 1e30]), [float("nan"), 1, 1]):
        with pytest.raises(ValueError, match="rows must be integers"):
            CrtElement(primes, [row], [[1]], [ones_q])
        with pytest.raises(ValueError, match="rows must be integers"):
            CrtElement(primes, [ones_q[:3]], [[1]], [np.resize(row, 5)])
    assert 2.0 * gamma_p(primes) == 2 * gamma_p(primes)
    element = CrtElement(primes, [ones_p], [[np.int64(2)]], [np.ones(5, dtype=np.uint8)])
    assert element.m == ((2,),) and type(element.m[0][0]) is int
    assert element.dense().tolist() == [2] * 15


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


def test_a_scalar_on_the_right_is_a_type_error():
    # A scalar multiplies from the left alone; on the right of *, + or - the
    # operators hand it back to Python, which raises TypeError naming the
    # operator. mul, the public product, refuses it with the ValueError that
    # the CLI reports.
    u = gamma_p(OddPrimePair(3, 5))
    for combine in (lambda: u * 3, lambda: u + 3, lambda: u - 3, lambda: 3 + u):
        with pytest.raises(TypeError):
            combine()
    with pytest.raises(TypeError, match="for -: 'CrtElement' and 'int'"):
        u - 3
    for x, y in ((u, 3), (3, u), (u, u.dense())):
        with pytest.raises(ValueError, match="mul takes two group-ring elements"):
            mul(x, y)
    assert (3 * u).dense().tolist() == (3 * u.dense()).tolist()


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
    big = CrtElement(primes, [_factor([2 ** 61, 0, 0])], [[1]], [_factor([1, 0, 0, 0, 0])])
    with pytest.raises(OverflowError):
        mul(big, big)  # 2**122 in the first factor


def test_dense_refuses_a_coefficient_times_factor_past_int64():
    # 2**30 * 2**40 = 2**70 at exponent 0: the bound reads the factor's entry,
    # so the contraction refuses it instead of wrapping to 0.
    primes = OddPrimePair(3, 5)
    wide = CrtElement(primes, [[2 ** 40, 0, 0]], [[2 ** 30]], [_factor([1, 0, 0, 0, 0])])
    with pytest.raises(OverflowError, match="dense coefficients could exceed int64"):
        wide.dense()


def test_a_chain_of_products_is_refused_only_when_its_values_could_overflow():
    # one * one * ... keeps every coefficient 0 or 1, so no product of the
    # chain may be refused, however long it is.
    one = _monomial(OddPrimePair(3, 5), 0)
    chain = one
    for _ in range(30):
        chain = chain * one
    assert chain == one
    assert chain.dense().tolist() == [1] + [0] * 14


def test_a_write_into_an_elements_rows_is_bounded_at_the_next_contraction():
    # The int64 bound is read from the rows at each contraction, not kept
    # with the element, so a write after it is built cannot leave it stale:
    # 2**40 under a weight of 2**40 is refused, not wrapped to 0, whether it
    # is written into us, into vs or into the basis rows a block views.
    primes = OddPrimePair(3, 5)
    for axis in (0, 1):
        e = CrtElement(primes, [[1, 0, 0]], [[2 ** 40]], [[1, 0, 0, 0, 0]])
        (e.us, e.vs)[axis][0, 0] = 2 ** 40
        with pytest.raises(OverflowError, match="dense coefficients could exceed int64"):
            e.dense()
    basis = crt_basis(primes)
    block = gr._block(basis, 0, 0)  # delta (x) delta on views of the basis rows
    basis.us[0, 0] = basis.vs[0, 0] = 2 ** 40
    with pytest.raises(OverflowError, match="dense coefficients could exceed int64"):
        block.dense()
    # In range, the written values are read exactly.
    basis.us[0, 0] = basis.vs[0, 0] = 2 ** 20
    assert block.dense().tolist() == [2 ** 40] + [0] * 14
    e = CrtElement(primes, [[1, 0, 0]], [[2 ** 40]], [[1, 0, 0, 0, 0]])
    e.us[0, 1] = 2 ** 20  # 2**60 at exponent 10, which is 1 mod 3 and 0 mod 5
    want = [0] * 15
    want[0], want[10] = 2 ** 40, 2 ** 60
    assert e.dense().tolist() == want
    x = _monomial(primes, 0) + _monomial(primes, 5)  # 10 + 5 wraps onto 0
    product = mul(e, x).dense().tolist()
    assert product == _oracle_mul(e.dense(), x.dense())
    assert product[0] == 2 ** 60 + 2 ** 40


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
    assert _unit_block(crt_basis(primes), 1, 1).dense().tolist() == [1] * 15


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
    basis = crt_basis(OddPrimePair(p, q))
    assert verify_lemma1(crt_factors(basis)) == CheckResult("lemma1", True)
    assert [name for name, _, _ in crt_lemma1(basis)] == [
        "gauss_gp_squared", "gauss_gq_squared",
        "gamma_p_times_gauss_gq", "gamma_q_times_gauss_gp",
        "gamma_p_times_gamma_q",
    ]


def test_decomposition_e_values():
    expected_e = {
        (0, 0, 0): -1, (0, 0, 1): -3, (0, 1, 0): 1, (0, 1, 1): -1,
        (1, 0, 0): 1, (1, 0, 1): -1, (1, 1, 0): 3, (1, 1, 1): 1,
    }
    basis = crt_basis(OddPrimePair(3, 5))
    for (a, b, c), e in expected_e.items():
        params = SequenceParams.of(3, 5, a, b, c)
        assert params.e == e, (a, b, c)
        h = crt_sign_form(params, basis) - _unit_block(basis, 2, 2)
        assert int(h.dense()[0]) == e + (-1) ** a + (-1) ** b


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (5, 7)])
def test_decomposition_consistency(p, q):
    primes = OddPrimePair(p, q)
    basis = crt_basis(primes)
    gg = gauss_gp(primes) * gauss_gq(primes)
    for a, b, c in ALL_TRIPLES:
        params = SequenceParams.of(p, q, a, b, c)
        s = crt_sign_form(params, basis)
        h = s - _unit_block(basis, 2, 2)
        assert s.dense().tolist() == sign_view(generate(params)).tolist()
        assert s == h + gg
        # applying sigma flips only the character product term
        chi_minus1 = legendre(-1, p) * legendre(-1, q)
        assert s.sigma() == h + chi_minus1 * gg


def test_expanded_product_form_matches_direct_product():
    basis = crt_basis(OddPrimePair(5, 7))
    for a, b, c in ALL_TRIPLES:
        params = SequenceParams.of(5, 7, a, b, c)
        s = crt_sign_form(params, basis)
        assert mul(s.sigma(), s) == crt_expanded_form(params, basis), (a, b, c)


def _correlation_identity(params):
    seq = generate(params)
    return verify_correlation_identity(crt_factors(crt_basis(params.primes)), seq,
                                       _autocorr.empirical_profile(seq),
                                       _autocorr.closed_form_profile(params))


def test_correlation_identity_of_no_sequences_is_empty():
    # As verify_theorem1 does on the same (0, n) stacks
    factors = crt_factors(crt_basis(OddPrimePair(5, 7)))
    empty = np.zeros((0, 35), dtype=np.int64)
    assert verify_theorem1(empty, empty) == []
    assert verify_correlation_identity(factors, [], empty, empty) == []


def test_correlation_identity_ideal_case():
    params = SequenceParams.of(3, 5, 1, 0, 0)
    check = _correlation_identity(params)
    assert check == CheckResult("correlation_identity", True)
    s = crt_sign_form(params, crt_basis(params.primes))
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
    # The pair's product table, contracted with each triple's coefficients
    # of S, equals both sigma(S) * S built by mul and the dense product.
    for primes in odd_prime_pairs(1000):
        dense = {name: (got, want) for name, got, want in _dense_lemma1(
            primes, _dense_gauss(primes, primes.p), _dense_gauss(primes, primes.q))}
        basis = crt_basis(primes)
        factors = crt_factors(basis)
        for name, lhs, rhs in crt_lemma1(basis):
            got, want = dense[name]
            assert lhs.dense().tolist() == got.tolist(), (primes, name)
            assert rhs.dense().tolist() == want.tolist(), (primes, name)
        for a, b, c in ALL_TRIPLES:
            params = SequenceParams(primes, a, b, c)
            s = crt_sign_form(params, basis)
            s_dense = sign_view(generate(params)).astype(np.int64)
            assert s.dense().tolist() == s_dense.tolist(), (primes, a, b, c)
            want = _dense_mul(_dense_sigma(s_dense), s_dense).tolist()
            assert (s.sigma() * s).dense().tolist() == want, (primes, a, b, c)
            # handed the oracle as both profiles, the check passes only if its
            # contracted product (and the sign form and expanded form) equal it
            check = verify_correlation_identity(factors, generate(params),
                                                np.array(want), np.array(want))
            assert check == CheckResult("correlation_identity", True), (primes, a, b, c)
            assert crt_expanded_form(params, basis).dense().tolist() == want


def test_correlation_identity_holds_past_the_old_int64_ceiling():
    # dense() bounds sigma(S) * S from its factors' peaks, at most n + 34; a
    # bound that grew by p or q per product refused it from n ~ 2.1e6. The
    # empirical route is O(n**2), so only the closed and expanded forms run.
    params = SequenceParams.of(1447, 1451, 0, 0, 1)
    basis = crt_basis(params.primes)
    s = crt_sign_form(params, basis)
    assert np.array_equal(s.dense(), sign_view(generate(params)))
    product = (s.sigma() * s).dense()
    assert np.array_equal(product, _autocorr.closed_form_profile(params))
    assert np.array_equal(product, crt_expanded_form(params, basis).dense())


def _flip_character(monkeypatch, r, *ks):
    """Make gr.residue_table give (k/r) the wrong sign for each k in ks."""
    def flipped(modulus):
        table = residue_table(modulus)
        if modulus == r:
            table[list(ks)] *= -1
        return table

    monkeypatch.setattr(gr, "residue_table", flipped)


def test_flipped_character_fails_alike_on_both_routes(monkeypatch):
    primes, k0 = OddPrimePair(5, 7), 2
    _flip_character(monkeypatch, primes.p, k0)
    gp = _dense_gauss(primes, primes.p)
    exp = next(j * primes.q for j in range(1, primes.p) if j * primes.q % primes.p == k0)
    gp[exp] = -gp[exp]
    dense = _dense_lemma1(primes, gp, _dense_gauss(primes, primes.q))
    basis = crt_basis(primes)
    crt = [(name, _first_diff(lhs.dense(), rhs.dense()))
           for name, lhs, rhs in crt_lemma1(basis)]
    want = [(name, _first_diff(got, want)) for name, got, want in dense]
    assert crt == want
    failing = [name for name, diff in want if diff is not None]
    assert failing and failing[0] == "gauss_gp_squared"
    k = want[0][1][0]
    assert verify_lemma1(crt_factors(crt_basis(primes))) == CheckResult(
        "lemma1", False, f"gauss_gp_squared first differs at exponent {k}")


def test_lemma1_detail_is_the_smallest_pair_exponent(monkeypatch):
    # chi_7 flipped at 1 and at 6 = -1: since 7 = 3 mod 4, entry 0 of
    # chi * chi and the sum of chi are unchanged. On Z_7, chi * chi first
    # differs at index 1, exponent 78 = (1, 0) in Z_91; the pair's smallest
    # failing exponent is 13 = (6, 0), as the dense oracle says.
    primes = OddPrimePair(7, 13)
    _flip_character(monkeypatch, 7, 1, 6)
    chi = gr.residue_table(7).astype(np.int64)
    square = np.array(_oracle_mul(chi, chi))
    want = legendre(-1, 7) * (7 * np.eye(1, 7, dtype=np.int64)[0] - 1)
    assert square[0] == want[0] and chi.sum() == 0
    failing = np.flatnonzero(square != want).tolist()
    assert failing == [1, 2, 5, 6]
    assert [next(k for k in range(0, 91, 13) if k % 7 == i) for i in failing] == [
        78, 65, 26, 13]
    gp = _dense_gauss(primes, 7)
    gp[[78, 13]] *= -1
    dense = _dense_lemma1(primes, gp, _dense_gauss(primes, 13))
    assert _first_diff(*dense[0][1:])[0] == 13
    assert verify_lemma1(crt_factors(crt_basis(primes))) == CheckResult(
        "lemma1", False, "gauss_gp_squared first differs at exponent 13")


def _pair_lemma1(basis):
    # the pair-level check: every identity of crt_lemma1 densified to length n
    for name, lhs, rhs in crt_lemma1(basis):
        diff = np.flatnonzero(lhs.dense() != rhs.dense())
        if len(diff):
            return CheckResult("lemma1", False, f"{name} first differs at exponent {diff[0]}")
    return CheckResult("lemma1", True)


def _changed_basis(primes, data):
    # the basis element (delta, J, chi) on each prime under the identity, its
    # characters with up to 3 entries changed to -1, 0 or 1
    stacks = []
    for r in (primes.p, primes.q):
        chi = residue_table(r).astype(np.int64)
        changes = data.draw(st.dictionaries(st.integers(0, r - 1),
                                            st.sampled_from((-1, 0, 1)), max_size=3))
        for k, value in changes.items():
            chi[k] = value
        stacks.append([np.eye(1, r, dtype=np.int64)[0], np.ones(r, dtype=np.int64), chi])
    return CrtElement(primes, stacks[0], np.eye(3, dtype=np.int64), stacks[1])


@settings(database=None, derandomize=True, max_examples=200)
@given(primes=st.sampled_from(odd_prime_pairs(400)), data=st.data())
def test_lemma1_on_the_primes_matches_the_pair_check(primes, data):
    # Differential test: characters with arbitrary entries changed to -1, 0
    # or 1 give the same verdict and detail on the primes as on the pair; the
    # table and the blocks are built from the same changed characters.
    blocks = _changed_basis(primes, data)
    factors = crt_factors(blocks)
    assert verify_lemma1(factors) == _pair_lemma1(blocks)


@settings(database=None, derandomize=True, max_examples=100)
@given(primes=st.sampled_from(odd_prime_pairs(400)), data=st.data())
def test_table_product_matches_mul_and_the_dense_ring_under_changed_characters(
        primes, data):
    # Differential test: with the characters changed as above, the table's
    # sigma(S) * S, S.sigma() * S from mul and the dense product agree for
    # every triple. Handed the dense product as both profiles, the check may
    # fail only the routes that assume the true characters, never the
    # product's.
    basis = _changed_basis(primes, data)
    factors = crt_factors(basis)
    for a, b, c in ALL_TRIPLES:
        params = SequenceParams(primes, a, b, c)
        s = crt_sign_form(params, basis)
        want = _dense_mul(_dense_sigma(s.dense()), s.dense())
        assert (s.sigma() * s).dense().tolist() == want.tolist(), (a, b, c)
        check = verify_correlation_identity(factors, generate(params), want, want)
        assert set(check.detail.split("; ")) <= {
            "", "sign_form_vs_sequence", "product_vs_expanded"}, (a, b, c)


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
    emp = _autocorr.empirical_profile(seq)
    closed = _autocorr.closed_form_profile(params)
    factors = crt_factors(crt_basis(params.primes))
    off = emp.copy()
    off[3] += 1
    assert verify_correlation_identity(
        factors, seq, off, closed) == CheckResult(
        "correlation_identity", False, "product_vs_empirical")
    assert verify_correlation_identity(factors, seq, off, off) == CheckResult(
        "correlation_identity", False,
        "product_vs_empirical; product_vs_closed_form")


def test_correlation_identity_fails_a_profile_of_another_length():
    # A profile one shift short or long differs from the product: its route
    # fails, as np.array_equal has it, alone or in a stack, and the check
    # does not raise.
    params = SequenceParams.of(5, 7, 1, 1, 0)
    seq = generate(params)
    closed = _autocorr.closed_form_profile(params)
    factors = crt_factors(crt_basis(params.primes))
    for emp in (closed[:-1], np.append(closed, 1)):
        assert verify_correlation_identity(factors, seq, emp, closed) == CheckResult(
            "correlation_identity", False, "product_vs_empirical")
        assert verify_correlation_identity(factors, [seq, seq], np.stack([emp, emp]),
                                           np.stack([closed, closed])) == [CheckResult(
            "correlation_identity", False, "product_vs_empirical")] * 2


def test_correlation_identity_refuses_another_pairs_products():
    seq = generate(SequenceParams.of(3, 5, 1, 0, 0))
    factors = crt_factors(crt_basis(OddPrimePair(5, 7)))
    closed = _autocorr.closed_form_profile(seq.params)
    with pytest.raises(ValueError, match="different group rings"):
        verify_correlation_identity(factors, seq, closed, closed)


def _identity_oracle(basis, seq, emp, closed):
    # correlation_identity from elements: S of the basis, sigma(S) * S by mul
    # and the expanded form, densified to Z_n and compared route by route
    s = crt_sign_form(seq.params, basis)
    product = (s.sigma() * s).dense()
    routes = (("sign_form_vs_sequence", s.dense(), sign_view(seq)),
              ("product_vs_expanded", product, crt_expanded_form(seq.params, basis).dense()),
              ("product_vs_empirical", product, emp),
              ("product_vs_closed_form", product, closed))
    failures = [name for name, got, want in routes if not np.array_equal(got, want)]
    return CheckResult("correlation_identity", not failures, "; ".join(failures))


def _theorem1_oracle(emp, closed):
    bad = np.flatnonzero(emp != closed)
    if len(bad) == 0:
        return CheckResult("theorem1", True)
    tau = int(bad[0])
    return CheckResult("theorem1", False,
                       f"tau={tau} empirical={emp[tau]} closed={closed[tau]}")


class _ChangedProfiles:
    """A row table whose stacked reads add ``change[t]`` to the profile of
    sequence t at its shift, recording the size of every read."""

    def __init__(self, table, change):
        self.table, self.change, self.reads = table, change, []

    def profile(self, rows):
        stack = self.table.profile(rows).copy()
        self.reads.append(len(stack))
        for i, t in enumerate(range(len(self.table.seqs))[rows]):
            if t in self.change:
                stack[i, self.change[t]] += 1
        return stack


@settings(database=None, derandomize=True, deadline=None, max_examples=120)
@given(primes=st.sampled_from(odd_prime_pairs(400)), data=st.data())
def test_the_pairs_stacked_pass_equals_the_one_triple_checks(primes, data):
    # Differential test: a pair's stacked pass, in chunks of one triple or of
    # all, gives each triple of a random subset, in either prime order, the
    # CheckResult of the one-triple verify_theorem1 and
    # verify_correlation_identity, detail included, and both equal the
    # element oracles above. The pieces may be corrupted: a changed
    # empirical or closed-form entry, characters changed in the basis of the
    # product table, or a sequence with one bit flipped off its sign form
    # (its row table reads the flipped bits).
    primes = data.draw(st.sampled_from([primes, OddPrimePair(primes.q, primes.p)]))
    triples = data.draw(st.lists(st.sampled_from(ALL_TRIPLES), min_size=1, unique=True))
    count = len(triples)
    budget = data.draw(st.sampled_from((1, 8 * primes.n)), label="budget")
    pair = cli._Pair(primes, triples)
    basis = _changed_basis(primes, data)
    pair.factors = crt_factors(basis)
    seqs = list(pair.seqs)
    for t, k in data.draw(st.dictionaries(st.integers(0, count - 1),
                                          st.integers(0, primes.n - 1), max_size=2)).items():
        bits = seqs[t].bits.copy()
        bits[k] ^= 1
        seqs[t] = BinarySequence(seqs[t].params, bits)
    pair.seqs = tuple(seqs)
    shift = st.dictionaries(st.integers(0, count - 1), st.integers(0, primes.n - 1),
                            max_size=2)
    table = pair.table = _ChangedProfiles(_autocorr.RowTable(pair.seqs), data.draw(shift))
    closed_change = data.draw(shift)

    def closed(rows):
        stack = _autocorr.closed_form_profile(pair.params[rows]).copy()
        for i, t in enumerate(range(count)[rows]):
            if t in closed_change:
                stack[i, closed_change[t]] -= 1
        return stack

    pair.closed = closed
    with mock.patch.object(cli, "_CHUNK_VALUES", budget):
        results = pair.results
    assert table.reads == ([1] * count if budget == 1 else [count])
    for t, seq in enumerate(pair.seqs):
        emp, want = table.table.profile(t), closed(slice(t, t + 1))[0]
        if t in table.change:
            emp[table.change[t]] += 1
        theorem1 = verify_theorem1(emp, want)
        identity = verify_correlation_identity(pair.factors, seq, emp, want)
        assert (results["theorem1"][t], results["correlation_identity"][t]) == (
            theorem1, identity), (t, triples[t])
        assert (theorem1, identity) == (_theorem1_oracle(emp, want),
                                        _identity_oracle(basis, seq, emp, want)), t
