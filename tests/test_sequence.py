import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq.adic import complexity_report
from cycloseq.autocorr import RowTable
from cycloseq import sequence
from cycloseq.numtheory import (OddPrimePair, legendre, odd_prime_pairs,
                                odd_primes_up_to)
from cycloseq.sequence import (BinarySequence, SequenceParams, as_json_dict,
                               bitstring, by_class, crt_grid, crt_read, generate,
                               residue_table, to_json, unit_character)

ALL_TRIPLES = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _oracle_bits(p, q, a, b, c):
    # definition transcribed per position, with residue-set Legendre symbols
    def leg(x, r):
        x %= r
        if x == 0:
            return 0
        return 1 if x in {(k * k) % r for k in range(1, r)} else -1

    bits = []
    for lam in range(p * q):
        if lam == 0:
            bits.append(c)
        elif lam % p == 0:
            bits.append(a)
        elif lam % q == 0:
            bits.append(b)
        else:
            bits.append((1 - leg(lam, p) * leg(lam, q)) // 2)
    return bits


def test_generate_frozen_example():
    seq = generate(SequenceParams.of(3, 5, 1, 0, 0))
    assert seq.bits.tolist() == [0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1]
    assert seq.weight == 8
    assert bitstring(seq) == "000100110101111"


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (5, 7), (3, 13), (7, 11), (13, 17)])
def test_generate_matches_definition_oracle(p, q):
    for a, b, c in ALL_TRIPLES:
        seq = generate(SequenceParams.of(p, q, a, b, c))
        assert seq.bits.tolist() == _oracle_bits(p, q, a, b, c), (p, q, a, b, c)


def test_classify():
    # on the grid P is row 0, Q column 0 and {0} the corner; read in Z_n
    # order, the classes sit at their positions
    pair = OddPrimePair(3, 5)
    grid = by_class(pair, "zero", "p", "q", "unit", "unit", object)
    assert grid.shape == (3, 5)
    assert grid[0, 0] == "zero" and set(grid[0, 1:]) == {"p"} and set(grid[1:, 0]) == {"q"}
    assert set(grid[1:, 1:].ravel()) == {"unit"}
    names = crt_read(pair, grid)
    assert names[0] == "zero"
    assert names[6] == names[12] == "p"
    assert names[5] == names[10] == "q"
    assert names[7] == names[14] == "unit"


def test_partition_sizes():
    for pair in odd_prime_pairs(2000):
        counts = np.bincount(by_class(pair, 0, 1, 2, 3, 3, np.int8).ravel())
        assert counts.tolist() == [1, pair.q - 1, pair.p - 1,
                                   (pair.p - 1) * (pair.q - 1)], pair


def test_partition_sizes_large_pair():
    # near the 1e5 scale: vectorized count
    pair = OddPrimePair(311, 313)
    lam = np.arange(pair.n)
    on_p = (lam % pair.p == 0)
    on_q = (lam % pair.q == 0)
    assert int((on_p & on_q).sum()) == 1  # 0 is the only common multiple
    assert int((on_p & ~on_q).sum()) == pair.q - 1
    assert int((~on_p & on_q).sum()) == pair.p - 1
    assert int((~on_p & ~on_q).sum()) == (pair.p - 1) * (pair.q - 1)


def test_residue_table_matches_legendre():
    for r in odd_primes_up_to(999):
        table = residue_table(r)
        assert table.dtype == np.int8
        assert table.tolist() == [legendre(k, r) for k in range(r)], r
    for bad in (1, 2, 9, 15):
        with pytest.raises(ValueError, match="odd prime"):
            residue_table(bad)


def test_crt_read_is_the_good_thomas_index_map():
    # entry k is the grid entry at (k mod p, k mod q), for every k in [0, n);
    # the index is cached per pair, so (3, 5), (5, 3) and (3, 5) again, in that
    # order, check that a swapped pair with the same n never reuses it
    pairs = odd_prime_pairs(1000) + [OddPrimePair(3, 997), OddPrimePair(1009, 1013),
                                     OddPrimePair(5, 3), OddPrimePair(3, 5)]
    for pair in pairs:
        p, q, k = pair.p, pair.q, np.arange(pair.n)
        grid = np.arange(pair.n).reshape(p, q)
        assert np.array_equal(crt_read(pair, grid), grid[k % p, k % q]), (p, q)


@pytest.mark.parametrize("p,q", [(3, 5), (7, 5), (11, 13)])
def test_crt_read_crt_grid_and_by_class_read_stacks_row_by_row(p, q):
    # a stack of k grids (or vectors, or of k values per class) gives the
    # stack of the k one-grid results, in order, and crt_grid inverts
    # crt_read on stacks as on one grid
    pair = OddPrimePair(p, q)
    grids = np.random.default_rng(p * q).integers(-9, 9, size=(2, 3, p, q))
    vectors = crt_read(pair, grids)
    assert vectors.shape == (2, 3, pair.n)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(vectors[i, j], crt_read(pair, grids[i, j]))
        assert np.array_equal(crt_grid(pair, vectors[i, j]), grids[i, j])
    assert np.array_equal(crt_grid(pair, vectors), grids)
    values = [(0, 1, 2, 3, 4), (5, -6, 7, -8, 9), (1, 1, 2, 2, 3)]
    stack = by_class(pair, *zip(*values), np.int64)
    assert stack.shape == (3, p, q)
    for row, five in zip(stack, values):
        assert np.array_equal(row, by_class(pair, *five, np.int64))


def _class_code(lam, pair):
    """0 at zero, 1 on P, 2 on Q, 3 / 4 on units with character +1 / -1."""
    if lam == 0:
        return 0
    if lam % pair.p == 0:
        return 1
    if lam % pair.q == 0:
        return 2
    return 3 if legendre(lam, pair.p) * legendre(lam, pair.q) == 1 else 4


def test_by_class_matches_the_pointwise_classes():
    # differential test against the class definition and the Legendre symbol
    # per position, position lam read at (lam mod p, lam mod q) of the grid
    for pair in odd_prime_pairs(300) + [OddPrimePair(3, 997), OddPrimePair(7, 3)]:
        codes = by_class(pair, 0, 1, 2, 3, 4, np.int8)
        assert codes.dtype == np.int8 and codes.shape == (pair.p, pair.q)
        lam = np.arange(pair.n)
        assert codes[lam % pair.p, lam % pair.q].tolist() == [
            _class_code(k, pair) for k in range(pair.n)], pair


def test_per_pair_memos_are_read_only():
    # _crt_index and _unit_signs hand every later call for the pair the same
    # array, so a write into one would corrupt each later crt_read, crt_grid
    # and by_class of that pair; what those return is the caller's own copy.
    pair = OddPrimePair(5, 7)
    for memo in (sequence._crt_index(5, 7), *sequence._unit_signs(pair)):
        with pytest.raises(ValueError):
            memo[1] = 0
    codes = by_class(pair, 0, 1, 2, 3, 4, np.int8)
    codes[:] = 9
    assert crt_read(pair, by_class(pair, 0, 1, 2, 3, 4, np.int8))[:3].tolist() == [0, 3, 4]
    assert crt_read(pair, np.arange(pair.n).reshape(5, 7))[:3].tolist() == [0, 8, 16]


def test_unit_character_balance():
    for pair in odd_prime_pairs(800):
        chi = unit_character(pair)
        assert int(chi.sum()) == 0, (pair.p, pair.q)
        assert int(np.abs(chi).sum()) == (pair.p - 1) * (pair.q - 1)


def test_unit_positions_do_not_depend_on_fill_bits():
    pair = OddPrimePair(5, 11)
    chi = unit_character(pair)
    assert chi.shape == (5, 11)
    unit_mask = crt_read(pair, chi) != 0
    reference = generate(SequenceParams(pair, 0, 0, 0)).bits[unit_mask]
    for a, b, c in ALL_TRIPLES:
        seq = generate(SequenceParams(pair, a, b, c))
        assert np.array_equal(seq.bits[unit_mask], reference)


def test_fill_bit_flips_move_exactly_their_classes():
    pair = OddPrimePair(3, 5)
    base = generate(SequenceParams(pair, 1, 0, 0)).bits
    flipped = generate(SequenceParams(pair, 1, 1, 1)).bits
    diff = sorted(np.nonzero(base != flipped)[0].tolist())
    assert diff == [0, 5, 10]  # position 0 plus the multiples of q


def test_swap_symmetry():
    # swapping the primes swaps the roles of a and b
    left = generate(SequenceParams.of(3, 5, 1, 0, 0))
    right = generate(SequenceParams.of(5, 3, 0, 1, 0))
    assert left.bits.tolist() == right.bits.tolist()


def test_params_validation():
    with pytest.raises(ValueError, match="a must be 0 or 1"):
        SequenceParams.of(3, 5, 2, 0, 0)
    with pytest.raises(ValueError, match="c must be 0 or 1"):
        SequenceParams.of(3, 5, 0, 0, -1)
    with pytest.raises(ValueError, match="odd prime"):
        SequenceParams.of(4, 5, 0, 0, 0)
    params = SequenceParams.of(3, 5, 1, 0, 1)
    assert (params.p, params.q, params.n, params.abc) == (3, 5, 15, "101")


@pytest.mark.parametrize("one", [True, 1.0])
def test_fill_bits_are_stored_as_ints(one):
    # True and 1.0 equal 1, so they pass the 0/1 check; they must not leak
    # into the abc label, the JSON or the 2-adic report.
    params = SequenceParams.of(5, 7, one, 0, 0)
    assert type(params.a) is int
    assert params.abc == "100"
    assert '"a": 1,' in to_json(generate(params))
    ints = SequenceParams.of(5, 7, 1, 0, 0)
    assert (json.dumps(complexity_report(params).as_json_dict())
            == json.dumps(complexity_report(ints).as_json_dict()))


def test_bits_are_immutable():
    seq = generate(SequenceParams.of(3, 5, 1, 0, 0))
    with pytest.raises(ValueError):
        seq.bits[0] = 1


def test_checked_bits_freeze_a_view_not_the_callers_array():
    # BinarySequence and a direct-route RowTable keep a read-only view of the
    # uint8 bits they are handed: the caller's own array stays writeable, and
    # the view aliases it, so a later write into it shows through.
    params = SequenceParams.of(3, 5, 1, 0, 0)
    mine = generate(params).bits.copy()
    seq = BinarySequence(params, mine)
    assert mine.flags.writeable and not seq.bits.flags.writeable
    with pytest.raises(ValueError):
        seq.bits[0] = 1
    mine[0] ^= 1
    assert seq.bits[0] == mine[0]
    stack = sequence.family_bits([params, params])
    table = RowTable(params.primes, stack)
    assert table.along is None  # two sequences at (3, 5) take the direct route
    assert stack.flags.writeable and not table.bits.flags.writeable
    assert np.shares_memory(table.bits, stack)


def test_generate_rows_equal_the_checked_sequences_of_their_bits():
    # Grid t of a pair's family_bits stack, read in Z_n order, is the bits of
    # generate(params[t]), which are read-only uint8; a stack of one is the
    # one-triple call.
    for pair in (OddPrimePair(3, 5), OddPrimePair(13, 67), OddPrimePair(7, 3)):
        stack = [SequenceParams(pair, *abc) for abc in ALL_TRIPLES + ALL_TRIPLES[:2]]
        bits = sequence.family_bits(stack)
        assert bits.shape == (10, pair.p, pair.q)
        for params, grid in zip(stack, bits):
            seq = generate(params)
            assert seq == BinarySequence(params, crt_read(pair, grid))
            assert np.array_equal(crt_grid(pair, seq.bits), sequence.family_bits(params))
            assert seq.bits.dtype == np.uint8 and not seq.bits.flags.writeable
        assert np.array_equal(sequence.family_bits(stack[:1]), bits[:1])


def test_generate_checks_its_stack_once(monkeypatch):
    # generate builds through the constructor, which checks its bits once
    shapes = []
    check = sequence._checked_bits
    monkeypatch.setattr(sequence, "_checked_bits",
                        lambda bits: shapes.append(bits.shape) or check(bits))
    generate(SequenceParams.of(5, 7, 1, 0, 1))
    assert shapes == [(35,)]


def test_generate_refuses_a_stack_with_a_bit_that_is_not_0_or_1(monkeypatch):
    # generate's bits go through the constructor's check, and a pair's
    # stack through its row table's, which sees every row
    family_bits = sequence.family_bits

    def with_a_two(params):
        bits = family_bits(params)
        bits[..., 3] = 2
        return bits

    monkeypatch.setattr(sequence, "family_bits", with_a_two)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        generate(SequenceParams.of(5, 7, 1, 0, 1))
    stack = family_bits([SequenceParams.of(5, 7, *abc) for abc in ALL_TRIPLES])
    stack[5, 3] = 2
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        RowTable(OddPrimePair(5, 7), stack)

@pytest.mark.parametrize("bits", [np.zeros(14, dtype=np.uint8), [],
                                  np.zeros((3, 5), dtype=np.uint8)])
def test_binary_sequence_length_check(bits):
    params = SequenceParams.of(3, 5, 1, 0, 0)
    with pytest.raises(ValueError, match="expected 15 bits, got"):
        BinarySequence(params, bits)


@pytest.mark.parametrize("bits", [[2] + [0] * 14, [0] * 14 + [-1],
                                  np.array([256] + [1] * 14), [0.5] + [1] * 14])
def test_binary_sequence_refuses_non_binary_bits(bits):
    # 2 would read as 1 in T(2) but as -3 in the sign vector; 256 would wrap
    # to 0 and 0.5 truncate to 0 in the uint8 cast
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        BinarySequence(SequenceParams.of(3, 5, 1, 0, 0), bits)


def test_json_round_trip():
    seq = generate(SequenceParams.of(3, 5, 1, 0, 0))
    obj = as_json_dict(seq)
    assert obj == {"p": 3, "q": 5, "a": 1, "b": 0, "c": 0, "bits": "000100110101111"}
    assert json.loads(to_json(seq)) == obj


def test_bitstring_matches_per_character_oracle():
    cases = [(pair, trip) for pair in odd_prime_pairs(200) for trip in ALL_TRIPLES]
    cases.append((OddPrimePair(1009, 1013), (1, 0, 0)))
    for pair, (a, b, c) in cases:
        seq = generate(SequenceParams(pair, a, b, c))
        assert bitstring(seq) == "".join("1" if bit else "0" for bit in seq.bits), pair


def _correlations_oracle(xs, ys):
    # np.correlate on each row of ys wrapped once, one pair of rows at a time
    out = [[np.correlate(np.concatenate((y, y[:-1])), x, mode="valid") for y in ys]
           for x in xs]
    return np.array(out, dtype=np.int64).reshape(len(xs), len(ys), xs.shape[1])


@pytest.mark.parametrize("k", range(1, 65))
@settings(database=None, derandomize=True, deadline=None, max_examples=6)
@given(data=st.data())
def test_correlations_equal_np_correlate(k, data):
    # k = (2B).bit_length() for the bound B = L max|xs| max|ys|, so k in 1..64
    # takes every packing group size 62 // k from 62 (B = 0, all-zero xs) down
    # to 1 (k > 31), as far as B < 2**63 reaches. ys has up to 2g + 1 rows,
    # more than one group holds, and xs[0] = max|xs| * eps and
    # ys[0] = +-max|ys| * eps, so their output at shift 0 is exactly +-B.
    k_bits, group = sequence._packing(0 if k == 1 else 1 << (k - 2))
    assert k_bits == k and group == max(62 // k, 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if k == 1:
        length = data.draw(st.integers(1, 300), label="length")
        peak_x, peak_y = 0, data.draw(st.integers(0, 2 ** 40), label="peak_y")
    else:
        low, high = 1 << (k - 2), (1 << (k - 1)) - 1  # B in [low, high]
        length = data.draw(st.integers(1, min(300, low)), label="length")
        peak_y = data.draw(st.integers(1, low // length), label="peak_y")
        peak_x = data.draw(st.integers(-(-low // (length * peak_y)),
                                       high // (length * peak_y)), label="peak_x")
    bound = length * peak_x * peak_y
    assert bound == 0 if k == 1 else (2 * bound).bit_length() == k
    eps = rng.choice(np.array([-1, 1]), size=length)
    xs = rng.integers(-peak_x, peak_x, size=(data.draw(st.integers(1, 3)), length),
                      endpoint=True)
    ys = rng.integers(-peak_y, peak_y, size=(data.draw(st.integers(1, 2 * group + 1)),
                                             length), endpoint=True)
    xs[0] = peak_x * eps
    ys[0] = -peak_y * eps if data.draw(st.booleans(), label="negative") else peak_y * eps
    want = _correlations_oracle(xs, ys)
    got = sequence._correlations(xs, ys)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert abs(int(got[0, 0, 0])) == bound


def test_correlations_refuse_what_int64_cannot_hold():
    with pytest.raises(OverflowError, match="exceed int64"):
        sequence._correlations(np.full((1, 2), 2 ** 31), np.full((1, 2), 2 ** 31))
    with pytest.raises(ValueError, match="one length"):
        sequence._correlations(np.ones((1, 3)), np.ones((1, 4)))
