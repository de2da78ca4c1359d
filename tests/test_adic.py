import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycloseq.adic as adic
from cycloseq.adic import (AdicComplexityReport, best_value_predicate,
                           bits_to_int, complexity_report, d_exact, d_star,
                           dp_closed, dq_closed, mersenne, s2, verify_theorem2)
from cycloseq.numtheory import OddPrimePair, odd_prime_pairs
from cycloseq.sequence import (BinarySequence, CheckResult, SequenceParams,
                               bitstring, generate)

ALL_TRIPLES = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def test_mersenne():
    assert mersenne(1) == 1
    assert mersenne(5) == 31
    assert mersenne(15) == 32767
    assert mersenne(61) == 2 ** 61 - 1


def _word(p, q, bits) -> BinarySequence:
    return BinarySequence(SequenceParams.of(p, q, 0, 0, 0), bits)


def test_bits_to_int():
    assert bits_to_int(_word(3, 5, [1, 0, 1] + [0] * 12)) == 5
    assert bits_to_int(_word(3, 5, [0, 0, 0, 1] + [0] * 11)) == 8
    assert bits_to_int(_word(3, 5, np.ones(15, dtype=np.uint8))) == 32767
    rng = np.random.default_rng(20261018)
    for p, q in ((3, 5), (3, 7), (5, 7), (3, 13), (7, 11), (11, 13), (61, 67)):
        length = p * q
        seq = _word(p, q, rng.integers(0, 2, size=length, dtype=np.uint8))
        want = sum(int(b) << i for i, b in enumerate(seq.bits))
        assert bits_to_int(seq) == want, length
        assert s2(seq) == (mersenne(length) - 2 * want) % mersenne(length), length


def test_bit_vector_validation():
    # adic reads seq.bits as packed uint8 words, so a 0/1 vector of any dtype
    # must come out of BinarySequence as the same word; the refusals of
    # anything else are in tests/test_sequence.py.
    bits = np.random.default_rng(7).integers(0, 2, size=35)
    want = _word(5, 7, bits.astype(np.uint8))
    for same in (bits, bits.astype(bool), bits.astype(float), bits.tolist()):
        seq = _word(5, 7, same)
        assert seq.bits.dtype == np.uint8
        assert (bits_to_int(seq), s2(seq), d_exact(seq)) == (
            bits_to_int(want), s2(want), d_exact(want))


def test_t2_s2_frozen():
    seq = generate(SequenceParams.of(3, 5, 1, 0, 0))
    assert bits_to_int(seq) == 31432
    assert s2(seq) == 2670


def test_degenerate_bit_vectors():
    ones = _word(3, 5, np.ones(15, dtype=np.uint8))
    zeros = _word(3, 5, np.zeros(15, dtype=np.uint8))
    assert bits_to_int(ones) == 32767
    assert d_exact(ones) == 32767
    assert bits_to_int(zeros) == 0
    assert d_exact(zeros) == 32767


@settings(database=None, derandomize=True)
@given(primes=st.sampled_from(odd_prime_pairs(3000)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_words_match_python_int_oracles(primes, seed):
    # Oracles in plain Python ints, sharing no code with packbits.
    n = primes.n
    seq = _word(primes.p, primes.q,
                np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8))
    m = 2 ** n - 1
    t = int(bitstring(seq)[::-1], 2)
    assert bits_to_int(seq) == t
    assert s2(seq) == sum((1 - 2 * int(b)) << i for i, b in enumerate(seq.bits)) % m
    assert d_exact(seq) == math.gcd(t, m)


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (5, 7), (3, 13)])
def test_word_congruence(p, q):
    # 2*T(2) + S(2) is the all-ones word, hence 0 mod 2**n - 1
    m = mersenne(p * q)
    for a, b, c in ALL_TRIPLES:
        seq = generate(SequenceParams.of(p, q, a, b, c))
        assert (2 * bits_to_int(seq) + s2(seq)) % m == 0
        assert math.gcd(bits_to_int(seq), m) == math.gcd(s2(seq), m)


def test_d_exact_frozen():
    assert d_exact(generate(SequenceParams.of(3, 5, 1, 0, 0))) == 1
    assert d_exact(generate(SequenceParams.of(3, 13, 0, 1, 0))) == 7
    assert d_exact(generate(SequenceParams.of(3, 5, 0, 0, 1))) == 31
    assert d_exact(generate(SequenceParams.of(3, 7, 0, 0, 1))) == 127


def test_closed_forms_frozen():
    params = SequenceParams.of(3, 5, 1, 0, 0)
    assert dp_closed(params) == math.gcd(4, 7) == 1
    assert dq_closed(params) == math.gcd(4, 31) == 1
    params = SequenceParams.of(3, 13, 0, 1, 0)
    assert dp_closed(params) == math.gcd(14, 7) == 7
    assert dq_closed(params) == math.gcd(2, 8191) == 1


@pytest.mark.parametrize("p,q", [(3, 5), (3, 13), (5, 7), (3, 17), (5, 11)])
def test_closed_forms_match_sign_based_arguments(p, q):
    # same gcds written with the unit-class normalization constant e
    for a, b, c in ALL_TRIPLES:
        params = SequenceParams.of(p, q, a, b, c)
        e = (-1) ** c - (-1) ** a - (-1) ** b
        assert dp_closed(params) == math.gcd(e + (-1) ** a * q, mersenne(p))
        assert dq_closed(params) == math.gcd(e + (-1) ** b * p, mersenne(q))


def test_d_star_is_one():
    cases = [(3, 5, 1, 0, 0), (3, 5, 0, 0, 1), (3, 7, 0, 0, 1),
             (3, 17, 0, 0, 1), (5, 7, 1, 1, 0), (3, 13, 0, 1, 0)]
    for p, q, a, b, c in cases:
        assert d_star(generate(SequenceParams.of(p, q, a, b, c))) == 1
    # the (3, 5) cofactor is the prime 151 and the frozen S(2) word is coprime to it
    assert mersenne(15) // (mersenne(3) * mersenne(5)) == 151
    assert math.gcd(2670, 151) == 1


def test_best_value_predicate_edges():
    truth = {(3, 5): True, (3, 7): True, (3, 11): False, (3, 13): False,
             (5, 7): True, (13, 17): True, (47, 61): True}
    for (p, q), want in truth.items():
        assert best_value_predicate(OddPrimePair(p, q)) is want, (p, q)


def test_complexity_report_clean_instance():
    report = complexity_report(SequenceParams.of(3, 5, 1, 0, 0))
    assert isinstance(report, AdicComplexityReport)
    assert report.d_exact == 1
    assert (report.d_p, report.d_q) == (1, 1)
    assert report.best_value is True
    assert report.deviations == ()
    assert report.closed_form_consistent
    assert (report.n, report.d_exact) == (15, 1)
    assert report.complexity_float == pytest.approx(14.99996, abs=1e-4)
    seq = generate(SequenceParams.of(3, 5, 1, 0, 0))
    assert bits_to_int(seq) == 31432 and s2(seq) == 2670


def test_complexity_report_witness_instance():
    report = complexity_report(SequenceParams.of(3, 13, 0, 1, 0))
    assert report.d_exact == 7
    assert (report.d_p, report.d_q) == (7, 1)
    assert report.best_value is False
    assert report.deviations == ()
    assert (report.n, report.d_exact) == (39, 7)
    assert report.complexity_float == pytest.approx(36.193, abs=1e-3)


def test_complexity_report_small_degenerate():
    # p = 3 with fill bits 001: the d_q argument vanishes, so d = 2**q - 1
    report = complexity_report(SequenceParams.of(3, 5, 0, 0, 1))
    assert report.d_exact == 31
    assert (report.d_p, report.d_q) == (1, 31)
    assert report.best_value is True
    assert report.deviations == ("best_value predicted but d != 1",)
    assert report.closed_form_consistent


def test_complexity_report_large_degenerate():
    # same fill bits with q = 17: d_p = 7 as well, so max and min both break
    report = complexity_report(SequenceParams.of(3, 17, 0, 0, 1))
    assert (report.d_p, report.d_q) == (7, 131071)
    assert report.d_exact == 7 * 131071 == 917497
    assert report.best_value is False
    assert "d != max(d_p, d_q)" in report.deviations
    assert "min(d_p, d_q) != 1" in report.deviations
    assert "d != d_p * d_q" not in report.deviations
    assert not report.closed_form_consistent


def test_mirror_pair_gives_the_mirrored_report():
    # S(a, b, c) over (p, q) is S(b, a, c) over (q, p), so the same d comes out
    # with d_p and d_q exchanged: the exceptions of p = 3 (criteria 07 and 09)
    # recur exactly at their q = 3 mirrors
    deviating = 0
    for pair in odd_prime_pairs(1000):
        for a, b, c in ALL_TRIPLES:
            report = complexity_report(SequenceParams(pair, a, b, c))
            mirror = complexity_report(SequenceParams.of(pair.q, pair.p, b, a, c))
            where = (pair.p, pair.q, a, b, c)
            assert mirror.d_exact == report.d_exact, where
            assert (mirror.d_p, mirror.d_q) == (report.d_q, report.d_p), where
            assert mirror.deviations == report.deviations, where
            assert verify_theorem2(mirror) == verify_theorem2(report), where
            deviating += bool(report.deviations)
    assert deviating > 0


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (3, 13), (3, 17), (3, 31), (5, 7)])
def test_product_identity_holds_everywhere(p, q):
    # d == d_p * d_q on every instance, including the degenerate ones
    for a, b, c in ALL_TRIPLES:
        seq = generate(SequenceParams.of(p, q, a, b, c))
        report = complexity_report(seq.params)
        assert report.d_exact == report.d_p * report.d_q, (p, q, a, b, c)
        assert d_star(seq) == 1


def test_report_json_dict():
    obj = complexity_report(SequenceParams.of(3, 13, 0, 1, 0)).as_json_dict()
    assert obj["complexity_bits_exact"] == "log2((2^39-1)/7)"
    assert obj["complexity_float"] == pytest.approx(36.193, abs=1e-3)
    del obj["complexity_float"]
    assert obj == {
        "p": 3, "q": 13, "a": 0, "b": 1, "c": 0, "n": 39,
        "d": 7, "d_p": 7, "d_q": 1, "d_star": 1, "best_value": False,
        "complexity_bits_exact": "log2((2^39-1)/7)",
        "deviations": [],
    }


def test_verify_theorem2_semantics():
    report = complexity_report(SequenceParams.of(3, 5, 0, 0, 1))
    good = verify_theorem2(report)
    assert good == CheckResult("theorem2", True) and bool(good)
    # a failed best-value prediction alone does not fail the check
    assert report.deviations == ("best_value predicted but d != 1",)
    bad = verify_theorem2(complexity_report(SequenceParams.of(3, 17, 0, 0, 1)))
    assert not bad.ok and not bool(bad)
    assert bad.detail == "d != max(d_p, d_q); min(d_p, d_q) != 1"


GATING = ("d != max(d_p, d_q)", "min(d_p, d_q) != 1", "fold_p != d_p", "fold_q != d_q")


def test_theorem2_reads_the_numbers_of_a_report():
    # Reports built directly, so clauses no real instance reaches are covered.
    params = SequenceParams.of(5, 7, 1, 0, 0)
    product = AdicComplexityReport(SequenceParams.of(3, 13, 0, 0, 1), 7, 8191, 7, 8191)
    assert product.best_value is False
    assert product.deviations == ("d != max(d_p, d_q)", "min(d_p, d_q) != 1")
    assert verify_theorem2(product) == CheckResult(
        "theorem2", False, "d != max(d_p, d_q); min(d_p, d_q) != 1")

    best_value_only = AdicComplexityReport(params, 1, 31, 1, 31)
    assert best_value_only.best_value is True
    assert best_value_only.deviations == ("best_value predicted but d != 1",)
    assert verify_theorem2(best_value_only) == CheckResult("theorem2", True)


@settings(database=None, derandomize=True)
@given(primes=st.sampled_from([(3, 5), (3, 13), (3, 17), (5, 7), (47, 61)]),
       numbers=st.tuples(*[st.integers(1, 8) | st.integers(min_value=1)] * 4))
def test_theorem2_fails_exactly_on_a_gating_deviation(primes, numbers):
    report = AdicComplexityReport(SequenceParams.of(*primes, 0, 0, 1), *numbers)
    gating = [dev for dev in report.deviations if dev in GATING]
    assert report.closed_form_consistent == (not gating)
    result = verify_theorem2(report)
    assert result.ok is report.closed_form_consistent
    if not result:
        assert result.detail == "; ".join(report.deviations)


def test_report_d_star_matches_the_cofactor_gcd():
    # The report prints d_star as the proved 1; the oracle d_star(seq) takes
    # gcd(S(2), cofactor) with an n-bit gcd and must agree on every instance.
    for primes in odd_prime_pairs(1000):
        for a, b, c in ALL_TRIPLES:
            seq = generate(SequenceParams(primes, a, b, c))
            assert d_star(seq) == 1, seq


def test_large_period_complexity():
    # ~3000-bit words: exercises the big-integer path and the wide log2
    report = complexity_report(SequenceParams.of(3, 997, 0, 0, 1))
    assert report.d_exact == 7 * mersenne(997)
    assert report.complexity_float == pytest.approx(1991.1926450779424, abs=1e-2)


def test_numpy_primes_give_the_int_report():
    # np.int64 primes are stored as Python ints, so mersenne(p) and mersenne(q)
    # do not wrap in int64 once p or q reaches 64.
    for pair in odd_prime_pairs(400):
        wide = OddPrimePair(np.int64(pair.p), np.int64(pair.q))
        assert all(type(v) is int for v in (wide.p, wide.q, wide.n))
        for abc in ((0, 1, 0), (1, 0, 0), (0, 0, 1)):
            want = complexity_report(SequenceParams(pair, *abc)).as_json_dict()
            got = complexity_report(SequenceParams(wide, *abc)).as_json_dict()
            assert got == want, (pair, abc)


@settings(database=None, derandomize=True)
@given(primes=st.sampled_from(odd_prime_pairs(3000)),
       abc=st.sampled_from(ALL_TRIPLES))
def test_report_d_matches_the_n_bit_oracles(primes, abc):
    # The report folds T(2) onto 2**p - 1 and 2**q - 1 and reports the proved
    # d_star = 1; d_exact and d_star take n-bit gcds on the whole word.
    seq = generate(SequenceParams(primes, *abc))
    report = complexity_report(seq.params)
    assert report.d_exact == d_exact(seq)
    assert d_star(seq) == 1


@pytest.mark.parametrize("p,q,abc", [
    (11, 23, (0, 0, 0)), (11, 23, (1, 1, 0)), (23, 47, (0, 1, 1)), (23, 47, (1, 0, 1)),
    (3, 1021, (0, 0, 1)), (3, 1021, (1, 1, 0)), (3, 1021, (1, 0, 0)),
    (7, 73, (0, 1, 0)), (7, 73, (1, 1, 1)), (1009, 1013, (1, 0, 0)),
])
def test_report_d_on_fixed_pairs(p, q, abc):
    # (11, 23) and (23, 47): q divides 2**p - 1, so q also divides Phi_pq(2)
    # and 2**p - 1 and Phi_pq(2) share a prime; (3, 1021) and (7, 73) are
    # unbalanced, and (3, 1021) with 001 or 110 has d_q = 2**q - 1.
    seq = generate(SequenceParams.of(p, q, *abc))
    report = complexity_report(seq.params)
    assert report.d_exact == d_exact(seq)
    assert d_star(seq) == 1
    if p in (11, 23):
        assert mersenne(p) % q == 0


def test_report_gcds_are_on_p_and_q_bit_numbers(monkeypatch):
    # Every gcd complexity_report takes has operands of at most max(p, q)
    # bits: no n-bit gcd, seen through a stand-in for adic's math module.
    operands = []

    def gcd(*args):
        operands.extend(args)
        return math.gcd(*args)

    stand_in = types.ModuleType("math")
    stand_in.__dict__.update(vars(math))
    stand_in.gcd = gcd
    monkeypatch.setattr(adic, "math", stand_in)
    params = SequenceParams.of(1009, 1013, 0, 1, 1)
    complexity_report(params)
    assert len(operands) >= 4
    assert max(int(x).bit_length() for x in operands) <= 1013


@settings(database=None, derandomize=True, max_examples=120)
@given(primes=st.sampled_from(odd_prime_pairs(400)), data=st.data())
def test_stacked_sequences_and_reports_equal_the_one_triple_calls(primes, data):
    # A pair's params, in either prime order and with repeats, give one stack
    # of sequences and one report per triple; each equals the one-triple call
    # and the n-bit oracle d_exact. The refusals hold for the stack as a whole.
    primes = data.draw(st.sampled_from([primes, OddPrimePair(primes.q, primes.p)]))
    triples = data.draw(st.lists(st.sampled_from(ALL_TRIPLES), min_size=1, max_size=12))
    stack = [SequenceParams(primes, *abc) for abc in triples]
    seqs = generate(stack)
    assert seqs == [generate(params) for params in stack]
    reports = complexity_report(stack)
    assert reports == [complexity_report(params) for params in stack]
    assert [report.d_exact for report in reports] == [d_exact(seq) for seq in seqs]
    assert complexity_report(stack[:1]) == reports[:1]

    other = SequenceParams.of(3, 5, 0, 0, 0) if primes.n != 15 else SequenceParams.of(
        3, 7, 0, 0, 0)
    mixed = stack + [other]
    with pytest.raises(ValueError, match="one pair"):
        generate(mixed)
    with pytest.raises(ValueError, match="one pair"):
        complexity_report(mixed)
    with pytest.raises(ValueError, match="at least one"):
        generate([])
    with pytest.raises(ValueError, match="at least one"):
        complexity_report([])


def test_theorem2_fails_when_a_measured_fold_differs_from_its_closed_form(monkeypatch):
    # At (61, 5) with 100, d = d_q = 31 and d_p = 1. A closed form d_p of 31
    # leaves d = max(d_p, d_q); the min and product clauses and the fold_p
    # clause see it. Both closed forms swapped leave every clause on d, d_p and d_q
    # holding, and the two fold clauses alone fail.
    params = SequenceParams.of(61, 5, 1, 0, 0)
    report = complexity_report(params)
    assert (report.d_exact, report.d_p, report.d_q) == (31, 1, 31)
    assert (report.fold_p, report.fold_q) == (1, 31)
    assert verify_theorem2(report) == CheckResult("theorem2", True)
    monkeypatch.setattr(adic, "dp_closed", lambda params: 31)
    assert verify_theorem2(complexity_report(params)) == CheckResult(
        "theorem2", False, "min(d_p, d_q) != 1; d != d_p * d_q; fold_p != d_p")
    monkeypatch.setattr(adic, "dp_closed", dq_closed)
    monkeypatch.setattr(adic, "dq_closed", dp_closed)
    swapped = complexity_report(params)
    assert (swapped.d_exact, swapped.d_p, swapped.d_q) == (31, 31, 1)
    assert verify_theorem2(swapped) == CheckResult(
        "theorem2", False, "fold_p != d_p; fold_q != d_q")


@settings(database=None, derandomize=True)
@given(word=st.integers(0, 2 ** 3000), r=st.integers(2, 400))
def test_fold_is_the_residue_mod_a_mersenne_number(word, r):
    assert adic._fold(word, r) == word % mersenne(r)


@pytest.mark.parametrize("r", [3, 5, 61, 1013])
def test_fold_edges(r):
    m = mersenne(r)
    for word in (0, 1, m, m + 1, m * m, (1 << (7 * r)) - 1, 1 << (9 * r + 1)):
        assert adic._fold(word, r) == word % m, (r, word)
