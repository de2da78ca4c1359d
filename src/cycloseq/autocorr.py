"""Periodic autocorrelation of the two-prime cyclotomic sequences.

The autocorrelation at shift tau is

    C(tau) = sum over lam of (-1)**(s[lam] + s[lam + tau]),

indices mod n. C(0) = n always. For S(a, b, c) the nontrivial values depend
only on the residue class of tau:

    tau in P:  (q - p) + 2*(-1)**(a + c) - 1
    tau in Q:  (p - q) + 2*(-1)**(b + c) - 1
    tau in U:  1 + 2*(-1)**(a + b) + e*(1 + (-1/p)(-1/q))*(tau/p)(tau/q)

with e = (-1)**c - (-1)**a - (-1)**b. Every empirical value is recomputed
from the bits alone, with no Legendre symbol and no formula of the paper, by
exact int64 cyclic correlations through the package's one correlation kernel,
``sequence._correlations``. The sequences of one pair share one
``RowTable``: on the p x q CRT grid every triple has the same few distinct
rows, so one kernel call per axis correlates the distinct rows and row
indicators of all of them, and each profile is one contraction of that
table; a table whose grids have many distinct rows correlates each sequence
directly over the period instead. The kernel packs several rows into one
int64 word, offset so that every field is nonnegative, and takes the bound
that makes the packing exact from the data; no floating point is involved.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numtheory import OddPrimePair, legendre
from .sequence import (BinarySequence, CheckResult, SequenceParams, _correlations,
                       _multiply_adds, by_class, crt_grid, crt_read, sign_view)


class AutocorrelationFamily(Enum):
    IDEAL = "Ideal"
    THREE_VALUED_OPTIMAL = "ThreeValuedOptimal"
    OTHER = "Other"


@dataclass(frozen=True)
class AutocorrelationProfile:
    """Per-class autocorrelation values of one instance.

    ``value_unit_plus``/``value_unit_minus`` are the values on unit shifts
    with character +1 / -1; they coincide when the character term vanishes,
    and the distribution then reports a single merged bucket. Everything
    else is derived from the parameters and these four values.
    """

    params: SequenceParams
    value_class_p: int
    value_class_q: int
    value_unit_plus: int
    value_unit_minus: int

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def _class_values(self) -> tuple[int, int, int, int]:
        return (self.value_class_p, self.value_class_q,
                self.value_unit_plus, self.value_unit_minus)

    @property
    def distribution(self) -> dict:
        """value -> count over all n shifts, trivial shift included."""
        p, q = self.params.p, self.params.q
        half = (p - 1) * (q - 1) // 2
        counts = {self.n: 1}
        for value, k in zip(self._class_values, (q - 1, p - 1, half, half)):
            counts[value] = counts.get(value, 0) + k
        return counts

    @property
    def max_nontrivial_abs(self) -> int:
        return max(map(abs, self._class_values))

    @property
    def family(self) -> AutocorrelationFamily:
        nontrivial = set(self._class_values)
        if nontrivial == {-1}:
            return AutocorrelationFamily.IDEAL
        if nontrivial <= {1, -3}:
            return AutocorrelationFamily.THREE_VALUED_OPTIMAL
        return AutocorrelationFamily.OTHER


# Fixed costs as counts of multiply-adds: one table on the grid, and one
# kernel call of the direct route (``RowTable`` gives the measurements).
_CRT_OVERHEAD = 12 * 10 ** 4
_CALL_OVERHEAD = 2 * 10 ** 4


def _packed(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 entries as rows of uint64 words, 64 entries to a word."""
    words = np.zeros((len(bits), -(-bits.shape[1] // 64)), dtype=np.uint64)
    packed = np.packbits(bits, axis=1)
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return words


def _distinct(words: np.ndarray) -> tuple:
    """(first, owner) for the rows of a 2-D word array: ``first[r]`` is the
    index of the first row, in sorted order, of the r-th distinct row and
    ``owner[i]`` the r of row i. One ``np.lexsort`` puts equal rows next to
    each other."""
    order = np.lexsort(words.T)
    ranked = words[order]
    new = np.ones(len(order), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    owner = np.empty(len(order), dtype=np.intp)
    owner[order] = np.cumsum(new) - 1
    return order[new], owner


def _pairs(size: np.ndarray) -> tuple:
    """(first, second) over blocks numbered in runs of ``size``: every pair
    of blocks within one run, run by run and row-major in each."""
    run = np.repeat(np.arange(len(size)), size)  # the run of each block
    reps = size[run]  # the pairs each block opens
    start = (np.cumsum(size) - size)[run]  # the first block of its run
    opened = np.cumsum(reps) - reps  # its first pair
    first = np.repeat(np.arange(len(run)), reps)
    second = np.repeat(start - opened, reps) + np.arange(len(first))
    return first, second


def _narrow(out: np.ndarray, bound: int) -> np.ndarray:
    """Kernel outputs in [-bound, bound] as a 2-D array, one output row per
    pair, in the narrowest signed dtype that holds them."""
    return out.reshape(-1, out.shape[-1]).astype(np.min_scalar_type(-bound))


class RowTable:
    """The periodic autocorrelation of every sequence of one pair, held as
    correlations of grid rows, from the bits alone.

    Each sequence goes on the p x q grid of ``crt_grid``, where a shift by tau
    is a shift by (tau mod p, tau mod q). The table reads the grid as rows
    along its shorter axis, one row per index of the longer axis. With R_r
    the distinct rows of all the grids and e_r the 0/1 indicator of the rows
    of one grid equal to R_r, that grid is the sum of e_r (x) R_r, so its
    correlation is the sum over r, s of corr(e_r, e_s) (x) corr(R_r, R_s).
    The rows of all grids, and then the indicators of all grids, are packed
    into uint64 words and made distinct with one ``np.lexsort`` each, so the
    triples of a pair share their rows and indicators: the 8 triples of a
    pair have 8 distinct rows and 3 distinct indicators (the line of 0, the
    residue lines and the nonresidue lines). One call of the kernel
    ``_correlations`` per axis then correlates every distinct indicator with
    every other (``across``, along the longer axis, which the 3 indicators
    and not the 8 rows pay for) and every distinct sign row with every other
    (``along``), one output row per pair of rows. ``profile(t)`` contracts
    the block of sequence t, across[k, k] with along[r, r] over the pairs of
    its rows, and reads the p x q grid back through ``crt_read``, so the
    table holds no per-shift array and a caller reads one profile at a time.

    The kernel packs g = 62 // (2L).bit_length() rows into one int64 word and
    spends m * ceil(m / g) * L**2 multiply-adds on m rows of length L
    (``_multiply_adds``); the direct route correlates the n signs of each
    sequence in n**2, one kernel call each. One rule per table picks the
    route: the grid when its two axes and ``_CRT_OVERHEAD`` cost less than
    n**2 + ``_CALL_OVERHEAD`` for every sequence of the table. So the 8
    triples of a family read the grid at every pair, and a single family
    sequence (``empirical_profile``) once n > 381 or, with a prime 3, once
    the other prime is at least 131. On the direct route the table holds
    only its sequences.

    The two constants, measured on a 2-vCPU Xeon VM (numpy 2.4, best of
    7 x 15 tables of S(1, 0, 1) alone or of the 8 triples, each route
    forced; microseconds, grid / direct, both including the de-duplication):

        pair       one triple   8 triples
        (3, 5)      236 / 143   195 / 198
        (5, 7)      236 / 144   197 / 203
        (3, 53)     146 / 101   236 / 332
        (11, 29)    139 / 140   235 / 649
        (5, 59)     145 / 130   247 / 596
        (5, 67)     147 / 146   269 / 737
        (17, 19)    142 / 143   230 / 657

    A multiply-add costs about 1.4 ns there. For one sequence the grid
    breaks even at n**2 of about 10**5 multiply-adds, which the rule keeps
    (_CRT_OVERHEAD - _CALL_OVERHEAD = 10**5); a table of 8 triples reads the
    grid at least as fast as 8 direct calls at every pair, as the rule has
    it, since a kernel call's fixed cost of about 25 us is paid 8 times on
    the direct route and twice on the grid.

    Exactness: an across output is a count in [0, longer prime] and an along
    output lies in [-shorter prime, shorter prime]; the kernel derives these
    bounds (L * 1 * 1) from the rows and packs only as many fields as they
    leave room for in 62 bits, and the table keeps them in the narrowest
    dtype that holds them. Every partial sum of a contraction stays within n
    in absolute value, since the e_r of one grid partition its rows. No
    floating point is involved.
    """

    __slots__ = ("primes", "seqs", "across", "along", "kind_pairs", "row_pairs", "starts")

    def __init__(self, seqs):
        self.seqs = tuple(seqs)
        if not self.seqs:
            raise ValueError("a row table needs at least one sequence")
        self.primes = primes = self.seqs[0].params.primes
        if any(seq.params.primes != primes for seq in self.seqs):
            raise ValueError("a row table holds the sequences of one pair")
        p, q, count = primes.p, primes.q, len(self.seqs)
        short, long, axis = (p, q, 0) if p < q else (q, p, 1)
        # every grid's rows along the short axis, packed as _packed packs
        # rows, one sequence after another
        words = np.zeros((count, long, -(-short // 64)), dtype=np.uint64)
        for seq, packed in zip(self.seqs, words.view(np.uint8)):
            bits = np.packbits(crt_grid(primes, seq.bits), axis=axis)
            packed[:, :bits.shape[axis]] = bits.T if axis == 0 else bits
        words = words.reshape(count * long, -1)
        rows, owner = _distinct(words)
        owner = owner.reshape(count, long)
        # one block per distinct row of each sequence, sequence by sequence:
        # held[t, r] marks row r in sequence t, and block[t, r] numbers it
        held = np.zeros((count, len(rows)), dtype=np.intp)
        held[np.arange(count)[:, None], owner] = 1
        block = np.cumsum(held.ravel()).reshape(held.shape) - 1
        indicators = np.zeros((block[-1, -1] + 1, long), dtype=bool)
        indicators[block[np.arange(count)[:, None], owner], np.arange(long)] = True
        kinds, kind = _distinct(_packed(indicators))
        self.across = self.along = self.kind_pairs = self.row_pairs = self.starts = None
        if (_multiply_adds(len(kinds), len(kinds), long, long)
                + _multiply_adds(len(rows), len(rows), short, short) + _CRT_OVERHEAD
                >= count * (_multiply_adds(1, 1, primes.n, primes.n) + _CALL_OVERHEAD)):
            return
        size = held.sum(axis=1)
        first, second = _pairs(size)
        row = np.nonzero(held)[1]
        self.kind_pairs = kind[first] * len(kinds) + kind[second]
        self.row_pairs = row[first] * len(rows) + row[second]
        self.starts = [0, *np.cumsum(size * size).tolist()]
        indicators = indicators[kinds]
        signs = 1 - 2 * np.unpackbits(words[rows].view(np.uint8), axis=1,
                                      count=short).astype(np.int64)
        self.across = _narrow(_correlations(indicators, indicators), long)
        self.along = _narrow(_correlations(signs, signs), short)

    def profile(self, t: int) -> np.ndarray:
        """All n autocorrelation values of sequence t, summed exactly."""
        if self.along is None:
            signs = sign_view(self.seqs[t])[None]
            return _correlations(signs, signs)[0, 0]
        pairs = slice(self.starts[t], self.starts[t + 1])
        across = self.across.take(self.kind_pairs[pairs], axis=0).astype(np.int64)
        along = self.along.take(self.row_pairs[pairs], axis=0).astype(np.int64)
        if self.primes.p < self.primes.q:
            return crt_read(self.primes, along.T @ across)
        return crt_read(self.primes, across.T @ along)


def empirical_profile(seq: BinarySequence) -> np.ndarray:
    """All n autocorrelation values of ``seq``, summed exactly from the bits:
    the ``RowTable`` of ``seq`` alone, so it reads the grid once n > 381 (or
    a prime 3 pairs with one of at least 131) and correlates the n signs
    directly otherwise. A caller with several sequences of one pair builds
    their ``RowTable`` once instead."""
    return RowTable((seq,)).profile(0)


def class_values(params: SequenceParams) -> tuple[int, int, int, int]:
    """(P value, Q value, unit value at chi=+1, unit value at chi=-1)."""
    p, q = params.p, params.q
    vp = (q - p) + 2 * (-1) ** (params.a + params.c) - 1
    vq = (p - q) + 2 * (-1) ** (params.b + params.c) - 1
    # unit-shift value is base + term * chi(tau)
    base = 1 + 2 * (-1) ** (params.a + params.b)
    term = params.e * (1 + legendre(-1, p) * legendre(-1, q))
    return vp, vq, base + term, base - term


def closed_form_profile(params: SequenceParams) -> np.ndarray:
    """All n closed-form values as one int64 array."""
    return by_class(params.primes, params.n, *class_values(params), np.int64)


def nontrivial_bound(primes: OddPrimePair) -> int:
    """Upper bound max(|q - p| + 3, 9) on every nontrivial |C(tau)|."""
    return max(abs(primes.q - primes.p) + 3, 9)


def distribution(params: SequenceParams,
                 emp: "np.ndarray | None" = None) -> AutocorrelationProfile:
    """Full autocorrelation profile.

    By default the class values come from the per-class closed form in O(1)
    per class. A caller that holds ``emp = empirical_profile(generate(params))``
    passes it in, and the values are read from it instead: the oracle path.
    """
    if emp is None:
        vp, vq, vplus, vminus = class_values(params)
    elif emp.shape != (params.n,):
        raise ValueError(f"expected {params.n} autocorrelation values, got {emp.shape}")
    else:
        codes = by_class(params.primes, 0, 1, 2, 3, 4, np.int8)
        vp, vq, vplus, vminus = (_constant_over(emp[codes == k]) for k in (1, 2, 3, 4))
    return AutocorrelationProfile(params, vp, vq, vplus, vminus)


def _constant_over(values: np.ndarray) -> int:
    vals = np.unique(values)
    if len(vals) != 1:
        raise ValueError(f"class carries several autocorrelation values: {vals.tolist()}")
    return int(vals[0])


def verify_theorem1(emp: np.ndarray, closed: np.ndarray) -> CheckResult:
    """Compare the empirical and the closed-form autocorrelation of one
    instance at every shift."""
    bad = np.nonzero(emp != closed)[0]
    if len(bad) == 0:
        return CheckResult("theorem1", True)
    tau = int(bad[0])
    return CheckResult("theorem1", False,
                       f"tau={tau} empirical={int(emp[tau])} closed={int(closed[tau])}")


def profile_as_json_dict(profile: AutocorrelationProfile) -> dict:
    p = profile.params
    return {
        "p": p.p, "q": p.q, "a": p.a, "b": p.b, "c": p.c, "n": p.n,
        "family": profile.family.value,
        "ac_P": profile.value_class_p,
        "ac_Q": profile.value_class_q,
        "ac_unit_plus": profile.value_unit_plus,
        "ac_unit_minus": profile.value_unit_minus,
        "max_nontrivial_abs": profile.max_nontrivial_abs,
        "distribution": {str(v): c for v, c in sorted(profile.distribution.items())},
    }
