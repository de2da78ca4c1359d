import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import cycloseq.autocorr
from cycloseq.autocorr import (AutocorrelationFamily, AutocorrelationProfile, RowTable,
                               class_values, closed_form_profile, distribution,
                               empirical_profile, nontrivial_bound,
                               profile_as_json_dict, verify_theorem1)
from cycloseq.numtheory import OddPrimePair, legendre, odd_prime_pairs
from cycloseq.sequence import (CheckResult, SequenceParams, crt_grid, crt_read, family_bits,
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
    return grid[k % pair.p, k % pair.q]


def _on_grid(pair, values):
    # the p x q grid holding values[k] at (k mod p, k mod q), laid without
    # crt_grid
    k = np.arange(pair.n)
    grid = np.empty((pair.p, pair.q), dtype=values.dtype)
    grid[k % pair.p, k % pair.q] = values
    return grid


def _direct_grid(pair, grid):
    # the O(n^2) oracle of a grid of bits, read and laid back by index
    return _on_grid(pair, _direct_profile(_from_grid(pair, grid)))


def _family_stack(pair, triples):
    # the (k, p, q) grid stack of the triples' bits, as a pair's table reads it
    return family_bits([SequenceParams(pair, *abc) for abc in triples])


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
        check = verify_theorem1(crt_grid(params.primes, empirical_profile(generate(params))),
                                closed_form_profile(params))
        assert check.ok and bool(check), (p, q, a, b, c, check.detail)


def test_theorem1_names_the_first_differing_shift():
    # tau = 4 sits at cell (1, 4) and tau = 9 at (0, 4), which row-major
    # grid order meets first
    params = SequenceParams.of(3, 5, 1, 0, 0)
    closed = closed_form_profile(params)
    emp = crt_grid(params.primes, empirical_profile(generate(params)))
    emp[1, 4] += 2
    emp[0, 4] += 2
    assert verify_theorem1(emp, closed) == CheckResult(
        "theorem1", False, "tau=4 empirical=1 closed=-1")


def test_theorem1_names_the_least_differing_tau_not_the_first_cell():
    # At (3, 5), tau = 10 sits at cell (1, 0) and tau = 12 at (0, 2).
    # Row-major grid order meets (0, 2) first, but the detail names the least
    # tau, in one grid and in each grid of a stack alike.
    params = SequenceParams.of(3, 5, 1, 0, 0)
    closed = closed_form_profile(params)
    emp = closed.copy()
    emp[1, 0] += 2
    emp[0, 2] += 2
    failed = CheckResult("theorem1", False, "tau=10 empirical=1 closed=-1")
    assert verify_theorem1(emp, closed) == failed
    assert verify_theorem1(np.stack([closed, emp]), np.stack([closed, closed])) == [
        CheckResult("theorem1", True), failed]


def test_theorem1_fails_when_the_shapes_differ():
    # A failed comparison is a CheckResult, not numpy's broadcast error,
    # which cli.main would print as "error: ...".
    result = verify_theorem1(np.zeros((3, 5), dtype=np.int64), np.zeros((3, 4), dtype=np.int64))
    assert result == CheckResult("theorem1", False,
                                 "empirical shape (3, 5) != closed shape (3, 4)")


def test_theorem1_fails_every_row_of_a_stack_read_against_one_profile():
    # A (2, 3, 5) stack is not compared grid by grid with one broadcast
    # (3, 5) profile: every instance of the stack fails.
    closed = closed_form_profile(SequenceParams.of(3, 5, 1, 0, 0))
    emp = np.stack([closed, closed])
    assert verify_theorem1(emp, closed) == [CheckResult(
        "theorem1", False, "empirical shape (2, 3, 5) != closed shape (3, 5)")] * 2
    assert verify_theorem1(emp, emp) == [CheckResult("theorem1", True)] * 2

def test_closed_form_profile_matches_pointwise_form():
    params = SequenceParams.of(5, 7, 0, 1, 0)
    prof = closed_form_profile(params)
    assert prof.shape == (5, 7)
    for tau in range(params.n):
        assert int(prof[tau % 5, tau % 7]) == _oracle_closed_form(params, tau), tau


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
            emp = distribution(params, _on_grid(params.primes,
                                                empirical_profile(generate(params))))
            assert closed.distribution == emp.distribution
            assert closed.family is emp.family
            assert (closed.value_class_p, closed.value_class_q,
                    closed.value_unit_plus, closed.value_unit_minus) == \
                   (emp.value_class_p, emp.value_class_q,
                    emp.value_unit_plus, emp.value_unit_minus)


def test_distribution_from_profile_checks_it():
    params = SequenceParams.of(3, 5, 0, 0, 0)
    emp = _on_grid(params.primes, empirical_profile(generate(params)))
    for wrong in (emp[:-1], emp.ravel(), crt_read(params.primes, emp)):
        with pytest.raises(ValueError, match=r"expected a 3 x 5 profile grid, got \("):
            distribution(params, wrong)
    emp[0, 3] += 2  # a second value in the class of nonzero multiples of p
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
    assert [int(closed[tau % 3, tau % 7]) for tau in (0, 3, 7, 5)] == [21, 1, -3, 1]
    bits = generate(params).bits
    for tau in range(params.n):
        assert int(closed[tau % 3, tau % 7]) == _oracle_autocorr(bits, tau), tau


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
        grid = rng.integers(0, 2, size=(pair.p, pair.q), dtype=np.uint8)
    else:
        pool = rng.integers(0, 2, size=(m, pair.q), dtype=np.uint8)
        grid = pool[rng.integers(0, m, size=pair.p)]
    assert np.array_equal(RowTable(pair, grid[None]).profile(0), _direct_grid(pair, grid))


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
            table = RowTable(primes, _family_stack(primes, ALL_TRIPLES))
            assert table.own.shape == (8, 3), primes
            assert table.across.shape[:2] == (3, 3), primes
            assert table.along.shape[:2] == (8, 8), primes


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
    (101, 103, 1, True),    # one row repeated q times
    (101, 103, 72, True),   # 72 * 11 (p^2 + q^2) + 10^5 < n^2, and ...
    (101, 103, 73, True),   # ... 73 * 11 (p^2 + q^2) + 10^5 < n^2 as well
])
def test_kernel_choice_follows_the_operation_count(monkeypatch, p, q, rows, crt):
    pair = OddPrimePair(p, q)
    if rows is None:
        grid = family_bits(SequenceParams(pair, 1, 0, 1))
    else:
        # rows of length p, the shorter axis, the rows the table reads
        rng = np.random.default_rng(rows)
        pool = rng.integers(0, 2, size=(rows, p), dtype=np.uint8)
        assert len({row.tobytes() for row in pool}) == rows
        grid = pool[np.arange(q) % rows].T
    # only the direct route reads Z_n order: its grid in, its profile out
    reads = []
    original = cycloseq.autocorr.crt_read
    monkeypatch.setattr(cycloseq.autocorr, "crt_read",
                        lambda *args: reads.append(args) or original(*args))
    table = RowTable(pair, grid[None])
    assert np.array_equal(table.profile(0), _direct_grid(pair, grid))
    assert (table.along is not None, len(reads)) == (crt, 0 if crt else 1)


def _pooled(pair, rng, axis, m, partition):
    # Non-family bits: on axis 0 the p grid rows, of length q, are drawn from
    # a pool of m random rows; on axis 1 the q grid columns, of length p, are.
    # Which pool entry each line takes depends only on (axis, m, partition),
    # so two such sequences share their line partition exactly when those
    # agree, and their lines differ all the same.
    lines, length = (pair.p, pair.q) if axis == 0 else (pair.q, pair.p)
    m = 1 + m % lines
    pool = rng.integers(0, 2, size=(m, length), dtype=np.uint8)
    grid = pool[np.random.default_rng((axis, m, partition)).integers(0, m, size=lines)]
    return grid if axis == 0 else grid.T


@settings(database=None, derandomize=True, deadline=None, max_examples=120)
@given(pair=st.sampled_from(odd_prime_pairs(400)), data=st.data())
def test_row_table_profiles_equal_np_correlate_on_mixed_stacks(pair, data):
    # A table's stack mixes family members, in any order and with repeats,
    # with non-family bits whose grids have 1 to p distinct rows or 1 to q
    # distinct columns, so the sequences of one table share some row
    # partitions and not others. "rule" lets the table pick its route; the
    # other two force one route on any stack.
    pair = data.draw(st.sampled_from([pair, OddPrimePair(pair.q, pair.p)]), label="order")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    family = st.tuples(st.just("family"), st.sampled_from(ALL_TRIPLES))
    pooled = st.tuples(st.just("pooled"), st.sampled_from((0, 1)), st.integers(0, 400),
                       st.integers(0, 2))
    stack = data.draw(st.lists(family | pooled, min_size=1, max_size=9), label="stack")
    bits = np.array([family_bits(SequenceParams(pair, *spec[1])) if spec[0] == "family"
                     else _pooled(pair, rng, *spec[1:]) for spec in stack])
    route = data.draw(st.sampled_from(("rule", "grid", "direct")), label="route")
    overhead = {"rule": cycloseq.autocorr._CRT_OVERHEAD, "grid": -10 ** 18,
                "direct": 10 ** 18}[route]
    with mock.patch.object(cycloseq.autocorr, "_CRT_OVERHEAD", overhead):
        table = RowTable(pair, bits)
    event(f"{route}: {'direct' if table.along is None else 'grid'}")
    for t, grid in enumerate(bits):
        assert np.array_equal(table.profile(t), _direct_grid(pair, grid)), (t, stack[t])


def test_row_table_tells_apart_rows_that_differ_past_their_first_word():
    # At (67, 71) the table's rows have 67 entries, so each takes two uint64
    # words. Two rows here differ only at entry 66: they are equal in their
    # first words and must stay distinct all the same. Two sequences' rows
    # differ only at index 70 of the longer axis, so that index must be a
    # line of its own.
    pair = OddPrimePair(67, 71)
    rng = np.random.default_rng(67)
    pool = rng.integers(0, 2, size=(3, 67), dtype=np.uint8)
    pool[1] = pool[0]
    pool[1, 66] ^= 1
    assignment = np.arange(71) % 2
    moved = assignment.copy()
    moved[70] = 2
    bits = np.array([pool[assignment].T, pool[moved].T,
                     family_bits(SequenceParams(pair, 0, 1, 1))])
    table = RowTable(pair, bits)
    assert table.along is not None
    for t, grid in enumerate(bits):
        assert np.array_equal(table.profile(t), _direct_grid(pair, grid)), t


# A table of T sequences reads the grid when C ceil(C / g) L**2 + M ceil(M / g)
# l**2 + _CRT_OVERHEAD < T (n**2 + _CALL_OVERHEAD), with C lines along the
# longer axis L, M distinct rows along the shorter axis l, and g = 15 for
# axes of 5 and 7 (12 for 13, 31 for 3).
@pytest.mark.parametrize("p,q,count,crt", [
    (5, 7, 8, True),    # 3 * 49 + 8 * 25 + 120000 = 120347 < 8 * 21225 = 169800
    (5, 7, 2, False),   # 3 * 49 + 4 * 25 + 120000 >= 2 * 21225
    (7, 5, 8, True),    # the same pair with its primes swapped
    (3, 5, 6, True),    # 3 * 25 + 8 * 9 + 120000 = 120147 < 6 * 20225 = 121350 ...
    (3, 5, 5, False),   # ... and >= 5 * 20225 = 101125
    (13, 5, 3, False),  # 3 * 169 + 6 * 25 + 120000 >= 3 * 24225
])
def test_table_route_follows_the_operation_count(p, q, count, crt):
    pair = OddPrimePair(p, q)
    bits = _family_stack(pair, ALL_TRIPLES[:count])
    table = RowTable(pair, bits)
    assert (table.along is not None) == crt
    for t, grid in enumerate(bits):
        assert np.array_equal(table.profile(t), _direct_grid(pair, grid))


@pytest.mark.parametrize("p,q,count,crt", [
    (17, 19, 8, True), (19, 17, 5, True), (5, 7, 8, True), (11, 13, 2, False),
    (5, 7, 3, False)])
def test_row_table_reads_a_slice_as_the_stack_of_its_profiles(p, q, count, crt):
    # on both routes, a slice of the table's sequences, steps, negative
    # bounds and empty slices included, reads the stack of the one-sequence
    # profiles in the slice's order
    pair = OddPrimePair(p, q)
    bits = _family_stack(pair, ALL_TRIPLES[:count])
    table = RowTable(pair, bits)
    assert (table.along is not None) == crt
    for rows in (slice(None), slice(1, None, 2), slice(None, None, -1), slice(-2, None),
                 slice(count, None), slice(1, 2)):
        want = [_direct_grid(pair, bits[t]) for t in range(count)[rows]]
        assert np.array_equal(table.profile(rows),
                              np.array(want).reshape(len(want), p, q)), rows


def test_closed_form_profiles_of_one_pair_stack_in_order():
    # a list of params of one pair gives the stack of their closed forms, in
    # the list's order; params of two pairs are refused
    params = [SequenceParams.of(5, 7, *abc) for abc in ALL_TRIPLES[::-3]]
    stack = closed_form_profile(params)
    assert stack.shape == (len(params), 5, 7)
    for row, one in zip(stack, params):
        assert np.array_equal(row, closed_form_profile(one))
    with pytest.raises(ValueError, match="one pair"):
        closed_form_profile([params[0], SequenceParams.of(7, 5, 0, 0, 0)])


def test_row_table_refuses_an_empty_or_misshapen_stack():
    # A table reads a (k, p, q) stack, k >= 1, of 0/1 grids: a (0, p, q)
    # stack, a (k, p, q + 1) stack, the transposed (k, q, p) stack, the
    # (k, n) stack of the bits in Z_n order, one grid, a (1, k, p, q) stack
    # and a stack holding a 2 are refused, before either route is chosen.
    primes = OddPrimePair(5, 7)
    stack = _family_stack(primes, ALL_TRIPLES)
    for bits in (np.zeros((0, 5, 7), dtype=np.uint8), np.zeros((8, 5, 8), dtype=np.uint8),
                 stack.transpose(0, 2, 1), crt_read(primes, stack), stack[0], stack[None]):
        with pytest.raises(ValueError, match=r"a row table reads a \(k, 5, 7\) stack"):
            RowTable(primes, bits)
    two = stack.copy()
    two[5, 3] = 2
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        RowTable(primes, two)
    assert RowTable(primes, stack).profile(7)[0, 0] == 35


@pytest.mark.parametrize("p,q,count,crt", [
    (17, 19, 8, True), (17, 19, 1, True), (11, 13, 1, False)])
def test_row_table_refuses_a_sequence_index_out_of_range(p, q, count, crt):
    # unchecked, -1 would read the last sequence and count would raise
    # IndexError; both routes refuse every t outside the table's range
    pair = OddPrimePair(p, q)
    table = RowTable(pair, _family_stack(pair, ALL_TRIPLES[:count]))
    assert (table.along is not None) == crt
    for t in (-1, -count, count, count + 1):
        with pytest.raises(ValueError, match="no sequence"):
            table.profile(t)
    assert table.profile(count - 1)[0, 0] == pair.n


def test_row_table_refuses_a_non_integer_index():
    # 2.0 in range(8) holds, so the range check alone would pass it on to a
    # slice, and so does True, a Python int; numpy ints and slices are read
    # as before.
    table = RowTable(OddPrimePair(5, 7), _family_stack(OddPrimePair(5, 7), ALL_TRIPLES))
    for t in (2.0, 2.5, np.float64(2), "2", None, True, False, np.True_):
        with pytest.raises(ValueError, match="no sequence .* in a row table of 8"):
            table.profile(t)
    assert np.array_equal(table.profile(np.int64(2)), table.profile(2))
    assert np.array_equal(table.profile(slice(2, 3))[0], table.profile(2))


def test_profile_is_hashable_and_derives_its_summary():
    params = SequenceParams.of(3, 7, 1, 0, 0)
    prof = distribution(params)
    same = AutocorrelationProfile(params, 1, -3, 1, -3)
    assert prof == same and hash(prof) == hash(same)
    assert len({prof, same, distribution(SequenceParams.of(3, 5, 1, 0, 0))}) == 2
    assert (prof.distribution, prof.max_nontrivial_abs, prof.family) == \
        ({21: 1, 1: 12, -3: 8}, 3, AutocorrelationFamily.THREE_VALUED_OPTIMAL)
