import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycloseq.autocorr
from cycloseq.autocorr import (AutocorrelationFamily, AutocorrelationProfile,
                               class_values, closed_form_profile, distribution,
                               empirical_profile, nontrivial_bound,
                               profile_as_json_dict, verify_theorem1)
from cycloseq.numtheory import OddPrimePair, legendre, odd_prime_pairs
from cycloseq.sequence import (BinarySequence, CheckResult, SequenceParams, crt_grid,
                               generate)

ALL_TRIPLES = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _oracle_autocorr(bits, tau):
    # definition transcribed: sum of (-1)**(s[lam] + s[lam+tau]) over one period
    n = len(bits)
    total = 0
    for lam in range(n):
        total += (-1) ** (int(bits[lam]) + int(bits[(lam + tau) % n]))
    return total


def _oracle_closed_form(params, tau):
    # the per-class value of class_values at the class of tau, found per shift
    vp, vq, vplus, vminus = class_values(params)
    if tau == 0:
        return params.n
    if tau % params.p == 0:
        return vp
    if tau % params.q == 0:
        return vq
    return vplus if legendre(tau, params.p) * legendre(tau, params.q) == 1 else vminus


def _direct_profile(bits):
    # the O(n^2) oracle: every shift of the doubled sign vector by np.correlate
    s = 1 - 2 * np.asarray(bits, dtype=np.int64)
    return np.correlate(np.concatenate([s, s[:-1]]), s, mode="valid")


def _from_grid(pair, grid):
    # bits whose entry k is grid[k mod p, k mod q], indexed without crt_read
    k = np.arange(pair.n)
    return BinarySequence(SequenceParams(pair, 0, 0, 0), grid[k % pair.p, k % pair.q])


def test_empirical_frozen_values():
    s35 = empirical_profile(generate(SequenceParams.of(3, 5, 1, 0, 0)))
    assert (int(s35[0]), int(s35[1])) == (15, -1)
    s37 = empirical_profile(generate(SequenceParams.of(3, 7, 1, 0, 0)))
    assert (int(s37[3]), int(s37[7]), int(s37[5])) == (1, -3, 1)
    s37000 = empirical_profile(generate(SequenceParams.of(3, 7, 0, 0, 0)))
    assert int(s37000[1]) == 1


@pytest.mark.parametrize("p,q,a,b,c", [
    (3, 5, 1, 0, 0), (3, 5, 0, 1, 1), (3, 7, 0, 0, 1), (5, 7, 1, 1, 0),
])
def test_empirical_matches_oracle_every_shift(p, q, a, b, c):
    seq = generate(SequenceParams.of(p, q, a, b, c))
    prof = empirical_profile(seq)
    for tau in range(seq.n):
        assert int(prof[tau]) == _oracle_autocorr(seq.bits, tau), tau


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (5, 7), (3, 11), (5, 11)])
def test_theorem1_check_passes(p, q):
    for a, b, c in ALL_TRIPLES:
        params = SequenceParams.of(p, q, a, b, c)
        check = verify_theorem1(empirical_profile(generate(params)),
                                closed_form_profile(params))
        assert check.ok and bool(check), (p, q, a, b, c, check.detail)


def test_theorem1_names_the_first_differing_shift():
    params = SequenceParams.of(3, 5, 1, 0, 0)
    closed = closed_form_profile(params)
    emp = empirical_profile(generate(params))
    emp[[4, 9]] += 2
    assert verify_theorem1(emp, closed) == CheckResult(
        "theorem1", False, "tau=4 empirical=1 closed=-1")


def test_closed_form_profile_matches_pointwise_form():
    params = SequenceParams.of(5, 7, 0, 1, 0)
    prof = closed_form_profile(params)
    for tau in range(params.n):
        assert int(prof[tau]) == _oracle_closed_form(params, tau), tau


def test_distribution_frozen_ideal():
    prof = distribution(SequenceParams.of(3, 5, 1, 0, 0))
    assert prof.family is AutocorrelationFamily.IDEAL
    assert prof.distribution == {15: 1, -1: 14}
    assert prof.max_nontrivial_abs == 1
    assert (prof.value_class_p, prof.value_class_q) == (-1, -1)


def test_distribution_frozen_three_valued():
    prof = distribution(SequenceParams.of(3, 7, 1, 0, 0))
    assert prof.family is AutocorrelationFamily.THREE_VALUED_OPTIMAL
    assert prof.distribution == {21: 1, 1: 12, -3: 8}
    assert prof.max_nontrivial_abs == 3
    assert (prof.value_class_p, prof.value_class_q) == (1, -3)
    assert (prof.value_unit_plus, prof.value_unit_minus) == (1, -3)


def test_distribution_frozen_other():
    prof = distribution(SequenceParams.of(3, 5, 0, 0, 0))
    assert prof.family is AutocorrelationFamily.OTHER
    assert prof.distribution == {15: 1, 3: 12, -1: 2}


def test_distribution_counts_sum_to_period():
    for pair in odd_prime_pairs(300):
        for a, b, c in ALL_TRIPLES:
            prof = distribution(SequenceParams(pair, a, b, c))
            assert sum(prof.distribution.values()) == pair.n


def test_distribution_methods_agree():
    for p, q in [(3, 5), (3, 7), (5, 7), (3, 13)]:
        for a, b, c in ALL_TRIPLES:
            params = SequenceParams.of(p, q, a, b, c)
            closed = distribution(params)
            emp = distribution(params, empirical_profile(generate(params)))
            assert closed.distribution == emp.distribution
            assert closed.family is emp.family
            assert (closed.value_class_p, closed.value_class_q,
                    closed.value_unit_plus, closed.value_unit_minus) == \
                   (emp.value_class_p, emp.value_class_q,
                    emp.value_unit_plus, emp.value_unit_minus)


def test_distribution_from_profile_checks_it():
    params = SequenceParams.of(3, 5, 0, 0, 0)
    emp = empirical_profile(generate(params))
    with pytest.raises(ValueError, match="expected 15 autocorrelation values"):
        distribution(params, emp[:-1])
    emp = emp.copy()
    emp[3] += 2  # a second value in the class of nonzero multiples of p
    with pytest.raises(ValueError, match="several autocorrelation values"):
        distribution(params, emp)


def test_twin_prime_families():
    for p, q in [(3, 5), (5, 7), (11, 13)]:
        for abc in [(1, 0, 0), (0, 1, 1)]:
            prof = distribution(SequenceParams.of(p, q, *abc))
            assert prof.family is AutocorrelationFamily.IDEAL, (p, q, abc)
            assert prof.distribution == {p * q: 1, -1: p * q - 1}
        for abc in [(0, 0, 0), (1, 1, 1)]:
            prof = distribution(SequenceParams.of(p, q, *abc))
            assert prof.family is AutocorrelationFamily.OTHER, (p, q, abc)
            nontrivial = set(prof.distribution) - {p * q}
            assert nontrivial == {3, -1}, (p, q, abc)


def test_gap_four_families():
    for p, q in [(3, 7), (7, 11), (13, 17)]:
        for abc in [(1, 0, 0), (0, 1, 1)]:
            prof = distribution(SequenceParams.of(p, q, *abc))
            assert prof.family is AutocorrelationFamily.THREE_VALUED_OPTIMAL, (p, q, abc)
            assert set(prof.distribution) - {p * q} <= {1, -3}


def test_value_at():
    # frozen closed-form values at single shifts, each equal to the definition
    params = SequenceParams.of(3, 7, 1, 0, 0)
    closed = closed_form_profile(params)
    assert [int(closed[tau]) for tau in (0, 3, 7, 5)] == [21, 1, -3, 1]
    bits = generate(params).bits
    for tau in range(params.n):
        assert int(closed[tau]) == _oracle_autocorr(bits, tau), tau


def test_imbalance_identity():
    # the squared sequence imbalance equals the sum of all C(tau)
    rng = random.Random(20260817)
    cases = [(3, 7, 1, 0, 0), (3, 5, 1, 0, 0)]
    cases += [(3, 5, rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
              for _ in range(4)]
    cases += [(5, 11, rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
              for _ in range(4)]
    for p, q, a, b, c in cases:
        params = SequenceParams.of(p, q, a, b, c)
        seq = generate(params)
        imbalance = int((1 - 2 * seq.bits.astype(np.int64)).sum())
        assert imbalance ** 2 == int(empirical_profile(seq).sum()), (p, q, a, b, c)
    assert int(empirical_profile(generate(SequenceParams.of(3, 7, 1, 0, 0))).sum()) == 9
    assert int(empirical_profile(generate(SequenceParams.of(3, 5, 1, 0, 0))).sum()) == 1


def test_nontrivial_bound_holds():
    assert nontrivial_bound(OddPrimePair(3, 5)) == 9
    assert nontrivial_bound(OddPrimePair(3, 13)) == 13
    for pair in odd_prime_pairs(400):
        for a, b, c in ALL_TRIPLES:
            prof = distribution(SequenceParams(pair, a, b, c))
            assert prof.max_nontrivial_abs <= nontrivial_bound(pair), (pair, a, b, c)


def test_autocorr_symmetry():
    for p, q, a, b, c in [(3, 5, 0, 1, 0), (3, 7, 1, 1, 0), (5, 7, 0, 0, 1)]:
        seq = generate(SequenceParams.of(p, q, a, b, c))
        prof = empirical_profile(seq)
        for tau in range(1, seq.n):
            assert int(prof[tau]) == int(prof[seq.n - tau])


def test_class_values_frozen():
    assert class_values(SequenceParams.of(3, 7, 1, 0, 0)) == (1, -3, 1, -3)
    assert class_values(SequenceParams.of(3, 5, 1, 0, 0)) == (-1, -1, -1, -1)
    assert class_values(SequenceParams.of(3, 5, 0, 0, 0)) == (3, -1, 3, 3)


def test_profile_json_dict():
    obj = profile_as_json_dict(distribution(SequenceParams.of(3, 7, 1, 0, 0)))
    assert obj == {
        "p": 3, "q": 7, "a": 1, "b": 0, "c": 0, "n": 21,
        "family": "ThreeValuedOptimal",
        "ac_P": 1, "ac_Q": -3, "ac_unit_plus": 1, "ac_unit_minus": -3,
        "max_nontrivial_abs": 3,
        "distribution": {"-3": 8, "1": 12, "21": 1},
    }


def test_empirical_profile_equals_direct_correlation_on_every_small_family():
    for pair in odd_prime_pairs(1000):
        for a, b, c in ALL_TRIPLES:
            seq = generate(SequenceParams(pair, a, b, c))
            assert np.array_equal(empirical_profile(seq),
                                  _direct_profile(seq.bits)), (pair, a, b, c)


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(pair=st.sampled_from(odd_prime_pairs(3000)), data=st.data())
def test_empirical_profile_equals_direct_correlation_on_pooled_rows(pair, data):
    # m = None draws every bit at random; otherwise each grid row comes from a
    # pool of m random rows, so the grid has at most m distinct rows
    m = data.draw(st.none() | st.integers(1, pair.p), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if m is None:
        seq = BinarySequence(SequenceParams(pair, 0, 0, 0),
                             rng.integers(0, 2, size=pair.n, dtype=np.uint8))
    else:
        pool = rng.integers(0, 2, size=(m, pair.q), dtype=np.uint8)
        seq = _from_grid(pair, pool[rng.integers(0, m, size=pair.p)])
    assert np.array_equal(empirical_profile(seq), _direct_profile(seq.bits))


def test_family_grids_have_three_distinct_rows():
    # Row 0 of the grid holds c and a, and every other row is b followed by
    # chi_p(row) * chi_q, so residue and nonresidue rows give the other two.
    # Three rows fit in one packed group on each axis, so a family instance
    # reads the grid once 3 (p^2 + q^2) + _CRT_OVERHEAD < n^2. The smallest
    # such pair is (17, 19), every pair with n > 381 is one, and a pair with a
    # prime 3 is one once q >= 131.
    for pair in odd_prime_pairs(1000):
        for primes in (pair, OddPrimePair(pair.q, pair.p)):
            for a, b, c in ALL_TRIPLES:
                grid = crt_grid(primes, generate(SequenceParams(primes, a, b, c)).bits)
                assert len({row.tobytes() for row in grid}) == 3, (primes, a, b, c)


# The grid costs m ceil(m / g) (p^2 + q^2) multiply-adds with g rows packed
# per word (10 for p, q in {17, 19}, 7 for 101 and 103, 5 for 1021), the
# direct route n^2.
@pytest.mark.parametrize("p,q,rows,crt", [
    (11, 13, None, False),  # n^2 below the fixed overhead: the grid is laid out but not read
    (11, 29, None, False),  # 3 family rows: 3 (p^2 + q^2) + 10^5 >= n^2 ...
    (17, 19, None, True),   # ... and the smallest family pair past the rule
    (19, 23, None, True),
    (3, 127, None, False),  # a p = 3 pair just below the switch ...
    (3, 131, None, True),   # ... and the first past it
    (3, 1021, None, True),  # 3 q^2 + 27 + 10^5 < 9 q^2
    (17, 19, 6, True),      # 6 (p^2 + q^2) + 10^5 < n^2 ...
    (17, 19, 7, False),     # ... and 7 (p^2 + q^2) + 10^5 >= n^2
    (17, 19, 17, False),    # every row distinct, two groups per axis
    (31, 37, 31, True),     # every row distinct, and still cheaper on the grid
    (31, 37, 2, True),
    (101, 103, 1, True),    # one row repeated p times
    (101, 103, 72, True),   # 72 * 11 (p^2 + q^2) + 10^5 < n^2, and ...
    (101, 103, 73, True),   # ... 73 * 11 (p^2 + q^2) + 10^5 < n^2 as well
])
def test_kernel_choice_follows_the_operation_count(monkeypatch, p, q, rows, crt):
    pair = OddPrimePair(p, q)
    if rows is None:
        seq = generate(SequenceParams(pair, 1, 0, 1))
    else:
        rng = np.random.default_rng(rows)
        pool = rng.integers(0, 2, size=(rows, q), dtype=np.uint8)
        assert len({row.tobytes() for row in pool}) == rows
        seq = _from_grid(pair, pool[np.arange(p) % rows])
    reads = []
    original = cycloseq.autocorr.crt_read
    monkeypatch.setattr(cycloseq.autocorr, "crt_read",
                        lambda *args: reads.append(args) or original(*args))
    assert np.array_equal(empirical_profile(seq), _direct_profile(seq.bits))
    assert len(reads) == crt


def test_profile_is_hashable_and_derives_its_summary():
    params = SequenceParams.of(3, 7, 1, 0, 0)
    prof = distribution(params)
    same = AutocorrelationProfile(params, 1, -3, 1, -3)
    assert prof == same and hash(prof) == hash(same)
    assert len({prof, same, distribution(SequenceParams.of(3, 5, 1, 0, 0))}) == 2
    assert (prof.distribution, prof.max_nontrivial_abs, prof.family) == \
        ({21: 1, 1: 12, -3: 8}, 3, AutocorrelationFamily.THREE_VALUED_OPTIMAL)
