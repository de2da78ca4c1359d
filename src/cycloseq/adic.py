"""Exact 2-adic complexity of the two-prime cyclotomic sequences.

For one period s[0..n-1] let T(2) = sum of s[lam] * 2**lam. The 2-adic
complexity is log2((2**n - 1) / d) with d = gcd(T(2), 2**n - 1). Because
2*T(2) is congruent to -S(2) mod 2**n - 1, where S(2) is the sign polynomial
evaluated at 2, the same d is gcd(S(2), 2**n - 1); everything here is exact
big-integer arithmetic.

The gcd d factors through the three pairwise-coprime-by-valuation parts of
2**n - 1: d_p = gcd(S(2), 2**p - 1), d_q = gcd(S(2), 2**q - 1) and the
cofactor part d_star, which is always 1. Closed forms:

    d_p = gcd(q - 1 + (-1)**(a+c) - (-1)**(a+b), 2**p - 1)
    d_q = gcd(p - 1 + (-1)**(b+c) - (-1)**(a+b), 2**q - 1)

Caution: the d_q argument vanishes for p = 3 with (a, b, c) in
{(0,0,1), (1,1,0)} (the cases where e = (-1)**c - (-1)**a - (-1)**b has
absolute value p), and then d_q = 2**q - 1 exactly. On those instances d
equals d_p * d_q but not max(d_p, d_q) whenever d_p > 1, and the best-value
prediction d = 1 fails. ``AdicComplexityReport.deviations`` records every
such departure instead of raising.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import OddPrimePair, gcd_big
from .sequence import BinarySequence, SequenceParams, generate


def mersenne(n: int) -> int:
    """2**n - 1 by shift and subtract."""
    return (1 << n) - 1


def _bits_of(seq_or_bits) -> np.ndarray:
    if isinstance(seq_or_bits, BinarySequence):
        return seq_or_bits.bits
    bits = np.asarray(seq_or_bits, dtype=np.uint8)
    if bits.ndim != 1 or len(bits) == 0:
        raise ValueError("expected a nonempty one-dimensional bit vector")
    if np.any(bits > 1):
        raise ValueError("bits must be 0 or 1")
    return bits


def bits_to_int(seq_or_bits) -> int:
    """sum of bits[lam] * 2**lam as one big integer."""
    bits = _bits_of(seq_or_bits)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def t2(seq_or_bits) -> int:
    """T(2): the period word read as a base-2 integer, position lam at weight 2**lam."""
    return bits_to_int(seq_or_bits)


def s2(seq_or_bits) -> int:
    """S(2) = sum of (-1)**s[lam] * 2**lam, reduced into [0, 2**n - 1).

    Since (-1)**s = 1 - 2*s, S(2) = (2**n - 1) - 2*T(2), congruent to -2*T(2).
    """
    bits = _bits_of(seq_or_bits)
    return (-2 * bits_to_int(bits)) % mersenne(len(bits))


def d_exact(seq_or_bits) -> int:
    """d = gcd(T(2), 2**n - 1).

    Raises RuntimeError unless 2*T(2) + S(2) == 0 mod 2**n - 1, the
    congruence that makes gcd(S(2), 2**n - 1) the same d (2 is a unit).
    """
    bits = _bits_of(seq_or_bits)
    m = mersenne(len(bits))
    t = t2(bits)
    if (2 * t + s2(bits)) % m != 0:
        raise RuntimeError("2*T(2) + S(2) is not divisible by 2**n - 1")
    return gcd_big(t, m)


def dp_closed(params: SequenceParams) -> int:
    """Closed form for gcd(S(2), 2**p - 1)."""
    arg = params.q - 1 + (-1) ** (params.a + params.c) - (-1) ** (params.a + params.b)
    return gcd_big(arg, mersenne(params.p))


def dq_closed(params: SequenceParams) -> int:
    """Closed form for gcd(S(2), 2**q - 1); see the module caution on p = 3."""
    arg = params.p - 1 + (-1) ** (params.b + params.c) - (-1) ** (params.a + params.b)
    return gcd_big(arg, mersenne(params.q))


def d_star(seq: BinarySequence) -> int:
    """gcd of S(2) with the cofactor (2**n - 1) / ((2**p - 1)(2**q - 1)).

    Equals 1 for every valid parameter set; the smallest admissible period is
    n = 15, which is exactly the edge the cofactor argument needs.
    """
    primes = seq.params.primes
    cofactor = mersenne(primes.n) // (mersenne(primes.p) * mersenne(primes.q))
    return gcd_big(s2(seq), cofactor)


def best_value_predicate(primes: OddPrimePair) -> bool:
    """True when 16p > 4q + 4 > p + 5, the regime predicting d = 1."""
    p, q = primes.p, primes.q
    return 16 * p > 4 * q + 4 and 4 * q + 4 > p + 5


_ORACLE_CLAUSES = ("d != max(d_p, d_q)", "min(d_p, d_q) != 1", "d_star != 1")


def _log2_big(x: int) -> float:
    bl = x.bit_length()
    if bl <= 512:
        return math.log2(x)
    shift = bl - 64
    return shift + math.log2(x >> shift)


@dataclass(frozen=True)
class AdicComplexityReport:
    """Exact 2-adic complexity data for one parameter set.

    ``complexity_exact`` is the pair (n, d) denoting log2((2**n - 1) / d);
    the float field approximates it as n + log2(1 - 2**-n) - log2(d).
    ``deviations`` lists any closed-form identities the instance violates
    (empty for every instance with p >= 5).
    """

    params: SequenceParams
    n: int
    t2_mod: int
    s2_mod: int
    d_exact: int
    d_p: int
    d_q: int
    d_star: int
    best_value: bool
    deviations: tuple

    @property
    def theorem_consistent(self) -> bool:
        return not self.deviations

    @property
    def closed_form_consistent(self) -> bool:
        """The closed-form oracle equivalence alone: d == max(d_p, d_q),
        min(d_p, d_q) == 1 and d_star == 1. The best-value prediction is
        excluded here; it is reported via ``deviations``."""
        return not any(dev in _ORACLE_CLAUSES for dev in self.deviations)

    @property
    def complexity_exact(self) -> tuple:
        return (self.n, self.d_exact)

    @property
    def complexity_float(self) -> float:
        return float(self.n) + math.log2(1.0 - 2.0 ** -self.n) - _log2_big(self.d_exact)

    def as_json_dict(self) -> dict:
        p = self.params
        return {
            "p": p.p, "q": p.q, "a": p.a, "b": p.b, "c": p.c, "n": self.n,
            "d": self.d_exact, "d_p": self.d_p, "d_q": self.d_q,
            "d_star": self.d_star, "best_value": self.best_value,
            "complexity_bits_exact": f"log2((2^{self.n}-1)/{self.d_exact})",
            "complexity_float": self.complexity_float,
            "deviations": list(self.deviations),
        }


def complexity_report(params: SequenceParams) -> AdicComplexityReport:
    """Compute every quantity exactly and flag closed-form departures."""
    seq = generate(params)
    m = mersenne(params.n)
    t = t2(seq)
    s = s2(seq)
    d = gcd_big(t, m)
    dp, dq = dp_closed(params), dq_closed(params)
    dst = d_star(seq)
    best = best_value_predicate(params.primes)

    deviations = []
    if d != max(dp, dq):
        deviations.append("d != max(d_p, d_q)")
    if min(dp, dq) != 1:
        deviations.append("min(d_p, d_q) != 1")
    if d != dp * dq:
        deviations.append("d != d_p * d_q")
    if dst != 1:
        deviations.append("d_star != 1")
    if best and d != 1:
        deviations.append("best_value predicted but d != 1")

    return AdicComplexityReport(params, params.n, t % m, s, d, dp, dq, dst,
                                best, tuple(deviations))


@dataclass(frozen=True)
class Theorem2Check:
    """Closed-form oracle-equivalence verdict for one parameter set.

    ``ok`` covers d == max(d_p, d_q), min(d_p, d_q) == 1 and d_star == 1;
    the report's ``deviations`` additionally records a failed best-value
    prediction, which does not gate ``ok``.
    """

    ok: bool
    report: AdicComplexityReport

    def __bool__(self) -> bool:
        return self.ok


def verify_theorem2(params: SequenceParams) -> Theorem2Check:
    report = complexity_report(params)
    return Theorem2Check(report.closed_form_consistent, report)
