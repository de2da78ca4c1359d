"""
Exact 2-adic complexity
=======================

Read one period as the integer T(2) = sum of s[lam] * 2**lam. The 2-adic
complexity of the sequence is log2((2**n - 1) / d) with d = gcd(T(2), 2**n - 1),
the size of the smallest feedback-with-carry shift register that reproduces
the stream. The gcd factors through the two primes: d = gcd with 2**p - 1
times gcd with 2**q - 1, and both factors have tiny closed forms.
"""

from cycloseq import (SequenceParams, best_value_predicate, bits_to_int,
                      complexity_report, d_exact, dp_closed, dq_closed, generate,
                      mersenne, s2)
from cycloseq.numtheory import OddPrimePair

# the flagship case: d = 1, so the complexity is the maximum possible
params = SequenceParams.of(3, 5, 1, 0, 0)
seq = generate(params)
print("T(2)  =", bits_to_int(seq))
print("S(2)  =", s2(seq))
print("2^n-1 =", mersenne(seq.n))
print("d     =", d_exact(seq))
report = complexity_report(params)
print("complexity = log2((2^15 - 1) / 1) =", round(report.complexity_float, 6))

# a sequence with a genuinely smaller complexity: (3, 13, 0, 1, 0) has d = 7
report = complexity_report(SequenceParams.of(3, 13, 0, 1, 0))
print("\n(3, 13, abc=010)")
print("d       =", report.d_exact)
print("d_p     =", report.d_p, " closed form gcd(14, 2^3 - 1)")
print("d_q     =", report.d_q)
print("complexity =", round(report.complexity_float, 6), "of a possible", report.n)

# the closed forms alone predict d without ever building the sequence
params = SequenceParams.of(3, 13, 0, 1, 0)
print("closed-form d =", max(dp_closed(params), dq_closed(params)))

# the best-value regime: 16p > 4q + 4 > p + 5 forces d = 1
for p, q in [(3, 5), (5, 7), (3, 13), (13, 17)]:
    print(f"best_value_predicate({p}, {q}) =", best_value_predicate(OddPrimePair(p, q)))

# an honest edge: with p = 3 and fill bits 001 (or 110) the d_q closed-form
# argument is p - 3 = 0, so d_q swallows the whole factor 2**q - 1
report = complexity_report(SequenceParams.of(3, 5, 0, 0, 1))
print("\n(3, 5, abc=001)")
print("d =", report.d_exact, " deviations:", list(report.deviations))

# big periods stay exact: the gcd runs on ~3000-bit integers
report = complexity_report(SequenceParams.of(3, 997, 0, 1, 0))
print("\n(3, 997, abc=010)  n =", report.n)
print("d =", report.d_exact, " complexity =", round(report.complexity_float, 4))
