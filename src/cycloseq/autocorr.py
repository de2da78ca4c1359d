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
exact int64 cyclic correlations through the package's one correlation
kernel, ``sequence._correlations``: the (k, p, q) grid stack of one pair's
bits makes one ``RowTable``, one kernel call per grid axis for all of them,
whose profile grids are contractions of that table. The kernel packs
several rows into one int64 word, offset so that every field is
nonnegative, and takes the bound that makes the packing exact from the
data; no floating point is involved.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numtheory import OddPrimePair
from .sequence import (BinarySequence, CheckResult, SequenceParams, _checked_bits,
                       _correlations, _multiply_adds, _one_pair, by_class, crt_grid,
                       crt_read, first_difference)


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


def _distinct(words: np.ndarray) -> tuple:
    """(first, owner) for the rows of a 2-D integer array: ``first[r]`` is
    the index of the first row, in sorted order, of the r-th distinct row and
    ``owner[i]`` the r of row i. One ``np.lexsort`` puts equal rows next to
    each other."""
    order = np.lexsort(words.T)
    ranked = words[order]
    new = np.ones(len(order), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    owner = np.empty(len(order), dtype=np.intp)
    owner[order] = np.cumsum(new) - 1
    return order[new], owner


class RowTable:
    """The periodic autocorrelation of every sequence of one pair, held as
    correlations of grid rows and line indicators, from the bits alone.

    ``bits`` is a (k, p, q) stack of 0/1 grids, k >= 1, checked once by
    ``_checked_bits``: on the grid a shift by tau is a shift by (tau mod p,
    tau mod q). The table reads each grid as rows along its shorter axis, one
    row per index of the longer axis. The rows of all grids, packed into
    uint64 words by one ``packbits`` along that axis, are made distinct by
    ``_distinct``: R_r are the distinct rows, and row i of grid t is
    R_owner[t, i]. One more ``_distinct``, of the columns of owner, splits the
    longer axis into lines, the sets of indices that hold one row in every
    sequence, and line c holds R_own[t, c] in sequence t. With f_c the 0/1
    indicator of line c, grid t is the sum of f_c (x) R_own[t, c], so its
    correlation is the sum over c, d of corr(f_c, f_d) (x) corr(R_own[t, c],
    R_own[t, d]). The 8 triples of a pair have 8 distinct rows and 3 lines (0,
    the residues and the nonresidues of the longer prime). One call of the
    kernel ``_correlations`` per axis correlates every line indicator with
    every other (``across``, C x C x the longer prime, which the 3 lines and
    not the 8 rows pay for) and every distinct sign row with every other
    (``along``, R x R x the shorter prime). ``profile(t)`` contracts all of
    across with along[own[t], own[t]] into the p x q grid of its profile; for
    a slice of the sequences, one stacked contraction does so for all of them.
    So the table holds no per-shift array, and a caller bounds what it holds
    by the slices it reads (the CLI's check pass reads max(1, 2**13 // n)
    sequences at a time).

    The kernel packs g = 62 // (2L).bit_length() rows into one int64 word and
    spends m * ceil(m / g) * L**2 multiply-adds on m rows of length L
    (``_multiply_adds``); the direct route correlates the n signs of each
    sequence in n**2, one kernel call each. One rule per table picks the
    route: the grid when its two axes and ``_CRT_OVERHEAD`` cost less than
    n**2 + ``_CALL_OVERHEAD`` for every sequence of the table. So the 8
    triples of a family read the grid at every pair, and a single family
    sequence (``empirical_profile``) once n > 381 or, with a prime 3, once
    the other prime is at least 131. On the direct route the table holds
    only its bits and their lines, and reads them in Z_n order to correlate;
    on the grid it keeps no bits.

    The two constants, measured on a 2-vCPU Xeon VM (numpy 2.4; a table of
    S(1, 0, 1) alone or of the 8 triples, each route forced, built and read
    once, the 8 as one slice; best of 40 rounds of 7 tables, every case of a
    round in turn; microseconds, grid / direct, both including the
    de-duplication):

        pair       one triple   8 triples
        (3, 5)      113 /  57   155 / 183
        (5, 7)      112 /  58   160 / 192
        (3, 7)      111 /  56   156 / 186
        (3, 11)     113 /  57   159 / 192
        (7, 11)     113 /  60   164 / 219
        (3, 53)     124 /  75   197 / 339
        (11, 29)    126 / 121   206 / 686
        (5, 59)     130 / 111   214 / 619
        (5, 67)     135 / 127   227 / 740
        (17, 19)    121 / 122   203 / 691

    A multiply-add costs about 1.4 ns there. For one sequence the grid
    breaks even at n**2 of about 10**5 multiply-adds, which the rule keeps
    (_CRT_OVERHEAD - _CALL_OVERHEAD = 10**5). A table of 8 triples reads the
    grid at every pair, as the rule has it, and read as one slice it beats 8
    direct calls at every pair above, by about 15 % at the smallest: a kernel
    call's fixed cost of about 25 us is paid 8 times on the direct route and
    twice on the grid, and the 8 profiles are one contraction.

    Exactness: an across output is a count in [0, longer prime] and an along
    output lies in [-shorter prime, shorter prime]; the kernel derives these
    bounds (L * 1 * 1) from the rows and packs only as many fields as they
    leave room for in 62 bits, and the table keeps them in the narrowest
    dtype that holds them. At every shift the across outputs of all pairs of
    lines sum to the longer prime, since the lines partition the axis, so
    every partial sum of a contraction stays within n in absolute value. No
    floating point is involved.
    """

    __slots__ = ("primes", "bits", "own", "across", "along")

    def __init__(self, primes: OddPrimePair, bits: np.ndarray):
        raw = np.asarray(bits)
        p, q = primes.p, primes.q
        if raw.ndim != 3 or raw.shape[1:] != (p, q) or not len(raw):
            raise ValueError(f"a row table reads a (k, {p}, {q}) stack of bits "
                             f"with k >= 1, not {raw.shape}")
        self.primes, self.bits, count = primes, _checked_bits(raw), len(raw)
        short, long, axis = (p, q, 0) if p < q else (q, p, 1)
        # every grid's rows along the short axis as uint64 words
        packed = np.packbits(self.bits, axis=1 + axis)
        words = np.zeros((count, long, -(-short // 64)), dtype=np.uint64)
        words.view(np.uint8)[:, :, :packed.shape[1 + axis]] = (
            packed.transpose(0, 2, 1) if axis == 0 else packed)
        words = words.reshape(count * long, -1)
        rows, owner = _distinct(words)
        owner = owner.reshape(count, long)
        lines, line = _distinct(owner.T)
        self.own = owner[:, lines]
        self.across = self.along = None
        if (_multiply_adds(len(lines), len(lines), long, long)
                + _multiply_adds(len(rows), len(rows), short, short) + _CRT_OVERHEAD
                >= count * (_multiply_adds(1, 1, primes.n, primes.n) + _CALL_OVERHEAD)):
            return
        self.bits = None
        indicators = line == np.arange(len(lines))[:, None]
        signs = 1 - 2 * np.unpackbits(words[rows].view(np.uint8), axis=1,
                                      count=short).astype(np.int64)
        self.across = _correlations(indicators, indicators).astype(np.min_scalar_type(-long))
        self.along = _correlations(signs, signs).astype(np.min_scalar_type(-short))

    def profile(self, t) -> np.ndarray:
        """All n autocorrelation values of sequence t, summed exactly, as a
        p x q grid; for a slice t of the table's sequences, their (k, p, q)
        stack, one contraction for the whole slice."""
        one = not isinstance(t, slice)
        if one and (isinstance(t, bool) or not isinstance(t, (int, np.integer))
                    or t not in range(len(self.own))):
            raise ValueError(f"no sequence {t} in a row table of {len(self.own)}")
        rows = slice(t, t + 1) if one else t
        if self.along is None:
            signs = 1 - 2 * crt_read(self.primes, self.bits[rows]).astype(np.int64)
            profiles = np.array([_correlations(x[None], x[None])[0, 0] for x in signs])
            profiles = crt_grid(self.primes, profiles.reshape(-1, self.primes.n))
        else:
            own = self.own[rows]
            pairs = own.shape[1] ** 2
            along = self.along[own[:, :, None], own[:, None, :]].reshape(
                len(own), pairs, self.along.shape[-1]).astype(np.int64)
            across = self.across.reshape(pairs, -1).astype(np.int64)
            if self.primes.p < self.primes.q:
                profiles = along.transpose(0, 2, 1) @ across
            else:
                profiles = across.T @ along
        return profiles[0] if one else profiles


def empirical_profile(seq: BinarySequence) -> np.ndarray:
    """All n autocorrelation values of ``seq`` in Z_n order, summed exactly
    from the bits by the ``RowTable`` of ``seq`` alone (the grid route once
    n > 381, or once a prime 3 pairs with one of at least 131). A caller with
    several sequences of one pair builds the ``RowTable`` of their grids."""
    primes = seq.params.primes
    return crt_read(primes, RowTable(primes, crt_grid(primes, seq.bits)[None]).profile(0))


def class_values(params: SequenceParams) -> tuple[int, int, int, int]:
    """(P value, Q value, unit value at chi=+1, unit value at chi=-1)."""
    p, q = params.p, params.q
    vp = (q - p) + 2 * (-1) ** (params.a + params.c) - 1
    vq = (p - q) + 2 * (-1) ** (params.b + params.c) - 1
    # unit-shift value is base + term * chi(tau)
    base = 1 + 2 * (-1) ** (params.a + params.b)
    eps_p, eps_q = params.primes.epsilons
    term = params.e * (1 + eps_p * eps_q)
    return vp, vq, base + term, base - term


def closed_form_profile(params) -> np.ndarray:
    """All n closed-form values as one p x q int64 grid; for a sequence of k
    params of one pair, their (k, p, q) stack, from one ``by_class``."""
    stack = _one_pair(params)
    profiles = by_class(stack[0].primes, *zip(*[(x.n, *class_values(x)) for x in stack]),
                        np.int64)
    return profiles[0] if isinstance(params, SequenceParams) else profiles


def nontrivial_bound(primes: OddPrimePair) -> int:
    """Upper bound max(|q - p| + 3, 9) on every nontrivial |C(tau)|."""
    return max(abs(primes.q - primes.p) + 3, 9)


def distribution(params: SequenceParams,
                 emp: "np.ndarray | None" = None) -> AutocorrelationProfile:
    """Full autocorrelation profile.

    By default the class values come from the per-class closed form in O(1)
    per class. A caller that holds an empirical profile grid ``emp`` passes
    it in, and the values are read from it instead: the oracle path.
    """
    if emp is None:
        vp, vq, vplus, vminus = class_values(params)
    elif emp.shape != (params.p, params.q):
        raise ValueError(f"expected a {params.p} x {params.q} profile grid, got {emp.shape}")
    else:
        codes = by_class(params.primes, 0, 1, 2, 3, 4, np.int8)
        vp, vq, vplus, vminus = (_constant_over(emp[codes == k]) for k in (1, 2, 3, 4))
    return AutocorrelationProfile(params, vp, vq, vplus, vminus)


def _constant_over(values: np.ndarray) -> int:
    vals = np.unique(values)
    if len(vals) != 1:
        raise ValueError(f"class carries several autocorrelation values: {vals.tolist()}")
    return int(vals[0])


def verify_theorem1(emp: np.ndarray, closed: np.ndarray):
    """Compare the empirical and the closed-form autocorrelation grids of one
    instance (or, in a list, of each of a (k, p, q) stack) at every shift: a
    detail names the least differing tau (``first_difference``), or both
    shapes if they differ, and then all fail."""
    one = np.ndim(emp) == 2
    if np.shape(emp) != np.shape(closed):
        failed = CheckResult("theorem1", False,
                             f"empirical shape {np.shape(emp)} != closed shape {np.shape(closed)}")
        return failed if one else [failed] * len(emp)
    emp, closed = (emp[None], closed[None]) if one else (emp, closed)
    results = []
    for t, bad in enumerate((emp != closed).any(axis=(-2, -1)).tolist()):
        detail = ("tau={} empirical={} closed={}".format(*first_difference(emp[t], closed[t]))
                  if bad else "")
        results.append(CheckResult("theorem1", not bad, detail))
    return results[0] if one else results


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
