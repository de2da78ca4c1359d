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
``sequence._correlations``: on the p x q CRT grid when its few distinct rows
make that cheaper, directly over the period otherwise. The kernel packs
several rows into one int64 word, offset so that every field is nonnegative,
and takes the bound that makes the packing exact from the data; no floating
point is involved.
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


# A fixed cost of the CRT route, about 0.1 ms, as a count of multiply-adds.
_CRT_OVERHEAD = 10 ** 5


def empirical_profile(seq: BinarySequence) -> np.ndarray:
    """All n autocorrelation values, summed exactly from the bits.

    The bits go on the p x q grid of ``crt_grid``, where a shift by tau is a
    shift by (tau mod p, tau mod q). With m distinct rows R_r and e_r the 0/1
    indicator of the rows equal to R_r, the grid is the sum of e_r (x) R_r, so
    its correlation is the sum over r, s of corr_p(e_r, e_s) (x)
    corr_q(R_r, R_s), read back through ``crt_read``. Each axis is one call
    of the kernel ``_correlations``: it packs g = 62 // (2L).bit_length() rows
    into one int64 word (g = 5 at L ~ 1000, so a family grid's three rows share
    one word) and spends m * ceil(m / g) * L**2 multiply-adds on an axis of
    length L (``_multiply_adds``). The direct route correlates the n signs in
    n**2. The grid is read when its two axes and ``_CRT_OVERHEAD`` cost less,
    so a pair with a prime 3 reads it once q >= 131.

    Exactness: an across output is a count in [0, p] and an along output lies
    in [-q, q]. The kernel derives these bounds (L * 1 * 1) from the rows and
    packs only as many fields as they leave room for in 62 bits, and every
    partial sum of the contraction across.T @ along stays within n in
    absolute value, since the e_r partition the rows. No floating point is
    involved.
    """
    p, q, n = seq.params.p, seq.params.q, seq.n
    grid = crt_grid(seq.params.primes, seq.bits)
    first = {}
    owner = np.array([first.setdefault(row.tobytes(), i)
                      for i, row in enumerate(grid)])
    reps = list(first.values())
    m = len(reps)
    if (_multiply_adds(m, m, p, p) + _multiply_adds(m, m, q, q) + _CRT_OVERHEAD
            < _multiply_adds(1, 1, n, n)):
        indicators = np.equal.outer(reps, owner)
        rows = 1 - 2 * grid[reps].astype(np.int64)
        across = _correlations(indicators, indicators).reshape(m * m, p)
        along = _correlations(rows, rows).reshape(m * m, q)
        return crt_read(seq.params.primes, across.T @ along)
    s = sign_view(seq)[None]
    return _correlations(s, s)[0, 0]


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
