"""Exact 2-adic complexity of the two-prime cyclotomic sequences.

The oracles here read one period s[0..n-1] of a ``BinarySequence``, n = pq,
and ``complexity_report`` reads the params alone. Let T(2) = sum of
s[lam] * 2**lam. The 2-adic complexity is log2((2**n - 1) / d) with
d = gcd(T(2), 2**n - 1). Because 2*T(2) is congruent to -S(2) mod
2**n - 1, where S(2) is the sign polynomial evaluated at 2, and 2 is a unit
mod 2**n - 1, the same d is gcd(S(2), 2**n - 1); everything here is exact
big-integer arithmetic.

2**n - 1 = (2**p - 1)(2**q - 1) * Phi_pq(2), with Phi_pq the pq-th
cyclotomic polynomial; the first two factors are coprime, but Phi_pq(2) may
share a prime with one of them (q | 2**p - 1 at (11, 23)). Let d_p =
gcd(S(2), 2**p - 1), d_q = gcd(S(2), 2**q - 1) and d_star = gcd(S(2),
Phi_pq(2)), the cofactor part. For every S(a, b, c), d_star = 1, and so
d = gcd(S(2), (2**p - 1)(2**q - 1)) = d_p * d_q:

    Modulo Phi_pq(x) both subgroup sums vanish, so S = e + G_p * G_q with the
    Gauss sums G_p, G_q of Lemma 1, which gives (S - e)**2 = eps * n with
    eps = (-1/p)(-1/q). A prime l dividing S(2) and Phi_pq(2) therefore
    divides e**2 - eps * n, which is nonzero (e**2 is 1 or 9, n >= 15) and at
    most n + 9 in absolute value. A prime divisor l of Phi_pq(2) either has
    ord_l(2) = pq, so l = 1 mod 2pq and l >= 2pq + 1 > n + 9, or lies in
    {p, q}. In the second case l | n, hence l | e**2, so l = 3; but 3 divides
    Phi_m(2) only for m = 2 * 3**k, never for the odd pq.

The proof uses only that the bits are S(a, b, c) of their parameters, which
holds by construction: ``complexity_report`` reads only params, and builds
the bits of one pair's triples as one ``family_bits`` stack, read in Z_n
order. One ``packbits`` gives every word T(2), and each n-bit word is
folded onto the two small factors: since 2**r = 1 mod 2**r - 1,
T(2) mod 2**r - 1 is a sum of r-bit pieces of T(2), which ``_fold`` adds
up in O(n) bit operations. d is then a product of one p-bit and one q-bit
gcd, with no n-bit gcd and no n-bit division; the report keeps both factors,
which ``verify_theorem2`` compares with the closed forms below, and d is
their product. ``d_exact``, ``d_star`` and ``s2`` compute the same
quantities the long way, with n-bit gcds; they are the oracles of the tests.

Closed forms of the two small parts:

    d_p = gcd(q - 1 + (-1)**(a+c) - (-1)**(a+b), 2**p - 1)
    d_q = gcd(p - 1 + (-1)**(b+c) - (-1)**(a+b), 2**q - 1)

Caution: when the smaller prime is 3, one argument vanishes for (a, b, c) in
{(0,0,1), (1,1,0)} (the cases where e = (-1)**c - (-1)**a - (-1)**b has
absolute value 3): the d_q argument if p = 3, and then d_q = 2**q - 1
exactly; the d_p argument if q = 3, and then d_p = 2**p - 1. On those
instances d equals d_p * d_q but not max(d_p, d_q) whenever the other factor
exceeds 1, and the best-value prediction d = 1 fails.
``AdicComplexityReport.deviations`` records every such departure instead of
raising.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import OddPrimePair
from .sequence import (BinarySequence, CheckResult, SequenceParams, _one_pair, crt_read,
                       family_bits)


def mersenne(n: int) -> int:
    """2**n - 1 by shift and subtract."""
    return (1 << n) - 1


def bits_to_int(seq: BinarySequence) -> int:
    """T(2) = sum of s[lam] * 2**lam: the period word as one big integer."""
    return int.from_bytes(np.packbits(seq.bits, bitorder="little").tobytes(), "little")


def _fold(word: int, r: int) -> int:
    """word mod 2**r - 1 in O(n) bit operations for an n-bit word.

    2**r - 1 divides 2**(k*r) - 1, so adding the bits above position k*r to
    those below keeps the residue. k starts at the power of 2 that splits the
    word in about two halves and halves down to 1.
    """
    k = 1
    while 2 * k * r < word.bit_length():
        k *= 2
    while k:
        width = k * r
        while word >> width:
            word = (word & mersenne(width)) + (word >> width)
        k //= 2
    return word % mersenne(r)


def s2(seq: BinarySequence) -> int:
    """S(2) = sum of (-1)**s[lam] * 2**lam, reduced into [0, 2**n - 1).

    Since (-1)**s = 1 - 2*s, S(2) = (2**n - 1) - 2*T(2), congruent to -2*T(2).
    """
    return (-2 * bits_to_int(seq)) % mersenne(seq.n)


def d_exact(seq: BinarySequence) -> int:
    """d = gcd(T(2), 2**n - 1).

    This is also gcd(S(2), 2**n - 1): S(2) is congruent to -2*T(2) mod
    2**n - 1, and 2 is a unit mod the odd 2**n - 1.
    """
    return math.gcd(bits_to_int(seq), mersenne(seq.n))


def dp_closed(params: SequenceParams) -> int:
    """Closed form for gcd(S(2), 2**p - 1); see the module caution on q = 3."""
    arg = params.q - 1 + (-1) ** (params.a + params.c) - (-1) ** (params.a + params.b)
    return math.gcd(arg, mersenne(params.p))


def dq_closed(params: SequenceParams) -> int:
    """Closed form for gcd(S(2), 2**q - 1); see the module caution on p = 3."""
    arg = params.p - 1 + (-1) ** (params.b + params.c) - (-1) ** (params.a + params.b)
    return math.gcd(arg, mersenne(params.q))


def d_star(seq: BinarySequence) -> int:
    """gcd of S(2) with the cofactor Phi_pq(2) = (2**n - 1) / ((2**p - 1)(2**q - 1)).

    Equals 1 for every S(a, b, c) (the module docstring has the proof); a
    report prints that proved 1, and this n-bit gcd is its oracle.
    """
    primes = seq.params.primes
    return math.gcd(s2(seq), mersenne(primes.n) // (mersenne(primes.p) * mersenne(primes.q)))


def best_value_predicate(primes: OddPrimePair) -> bool:
    """True when 16p > 4q + 4 > p + 5, the regime predicting d = 1."""
    p, q = primes.p, primes.q
    return 16 * p > 4 * q + 4 and 4 * q + 4 > p + 5


@dataclass(frozen=True)
class AdicComplexityReport:
    """Exact 2-adic complexity data for one parameter set.

    ``d_p`` and ``d_q`` are the closed forms ``dp_closed`` and ``dq_closed``;
    ``fold_p`` and ``fold_q`` are the measured gcd(T(2), 2**p - 1) and
    gcd(T(2), 2**q - 1), compared with ``d_p`` and ``d_q`` and not printed.
    ``d_exact`` is their product, d = gcd(T(2), 2**n - 1) since d_star = 1
    (see the module docstring), the value of ``d_exact(seq)``; the JSON
    prints that proved d_star = 1, whose oracle is ``d_star(seq)``.
    The complexity is log2((2**n - 1) / d); ``complexity_float``
    approximates it as n + log2(1 - 2**-n) - log2(d).
    ``deviations`` lists any closed-form identities the instance violates
    (empty for every instance whose smaller prime is at least 5).
    """

    params: SequenceParams
    d_p: int
    d_q: int
    fold_p: int
    fold_q: int

    @property
    def d_exact(self) -> int:
        return self.fold_p * self.fold_q

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def best_value(self) -> bool:
        return best_value_predicate(self.params.primes)

    def _clauses(self) -> tuple:
        """(message, failed, gates theorem2) for each closed-form clause."""
        d, dp, dq = self.d_exact, self.d_p, self.d_q
        return (("d != max(d_p, d_q)", d != max(dp, dq), True),
                ("min(d_p, d_q) != 1", min(dp, dq) != 1, True),
                ("d != d_p * d_q", d != dp * dq, False),
                ("fold_p != d_p", self.fold_p != dp, True),
                ("fold_q != d_q", self.fold_q != dq, True),
                ("best_value predicted but d != 1", self.best_value and d != 1, False))

    @property
    def deviations(self) -> tuple:
        return tuple(message for message, failed, _ in self._clauses() if failed)

    @property
    def closed_form_consistent(self) -> bool:
        """The closed-form oracle equivalence alone: d == max(d_p, d_q),
        min(d_p, d_q) == 1 and each measured fold equal to its closed form.
        The best-value prediction is excluded here; it is reported via
        ``deviations``."""
        return not any(failed and gates for _, failed, gates in self._clauses())

    @property
    def complexity_float(self) -> float:
        return float(self.n) + math.log2(1.0 - 2.0 ** -self.n) - math.log2(self.d_exact)

    def as_json_dict(self) -> dict:
        p = self.params
        return {
            "p": p.p, "q": p.q, "a": p.a, "b": p.b, "c": p.c, "n": self.n,
            "d": self.d_exact, "d_p": self.d_p, "d_q": self.d_q,
            "d_star": 1, "best_value": self.best_value,
            "complexity_bits_exact": f"log2((2^{self.n}-1)/{self.d_exact})",
            "complexity_float": self.complexity_float,
            "deviations": list(self.deviations),
        }


def complexity_report(params):
    """Measure fold_p and fold_q exactly, whose product is d since d_star is
    the proved 1, and take d_p and d_q from their closed forms; the report
    derives the rest. For a sequence of params of one pair, one report per
    triple in a list.

    The bits are the ``family_bits`` stack of the params, the family the
    proof that d_star = 1 covers, read in Z_n order. One ``packbits`` of the
    stack gives every T(2), and d is gcd(T(2) mod 2**p - 1, 2**p - 1) times
    gcd(T(2) mod 2**q - 1, 2**q - 1): a p-bit and a q-bit gcd, the residues
    folded from the n-bit word T(2). The report keeps both factors as
    ``fold_p`` and ``fold_q``, which theorem2 compares with the closed forms.
    """
    stack = _one_pair(params)
    p, q = stack[0].p, stack[0].q
    words = np.packbits(crt_read(stack[0].primes, family_bits(stack)), axis=1, bitorder="little")
    reports = []
    for x, row in zip(stack, words):
        word = int.from_bytes(row.tobytes(), "little")
        fold_p = math.gcd(_fold(word, p), mersenne(p))
        fold_q = math.gcd(_fold(word, q), mersenne(q))
        reports.append(AdicComplexityReport(x, dp_closed(x), dq_closed(x), fold_p, fold_q))
    return reports[0] if isinstance(params, SequenceParams) else reports


def verify_theorem2(report: AdicComplexityReport) -> CheckResult:
    """Closed-form oracle equivalence: d == max(d_p, d_q), min(d_p, d_q) == 1,
    and the measured folds equal the closed forms, fold_p == d_p and
    fold_q == d_q. A failed best-value prediction alone does not fail it,
    but is listed in the detail of a failure with every other deviation."""
    if report.closed_form_consistent:
        return CheckResult("theorem2", True)
    return CheckResult("theorem2", False, "; ".join(report.deviations))
