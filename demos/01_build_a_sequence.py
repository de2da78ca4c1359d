"""
Building a two-prime cyclotomic sequence
========================================

One period of S(a, b, c) has length n = p*q. Position 0 carries the bit c,
the nonzero multiples of p carry a, the nonzero multiples of q carry b, and
every unit position lam carries (1 - (lam/p)(lam/q)) / 2, so a unit is 0
exactly when the two Legendre symbols agree.
"""

from cycloseq import SequenceParams, bitstring, generate, to_json, unit_character
from cycloseq.sequence import by_class, crt_read

# the smallest admissible period: p = 3, q = 5, fill bits a=1, b=0, c=0
params = SequenceParams.of(3, 5, 1, 0, 0)
seq = generate(params)
print("period n       :", seq.n)
print("bits           :", bitstring(seq))
print("weight         :", seq.weight, "ones out of", seq.n)

# where each position lives: {0}, multiples of p, multiples of q, units;
# by_class lays the classes out on the p x q grid, position lam at
# (lam mod p, lam mod q), and crt_read reads the grid in position order
markers = crt_read(params.primes, by_class(params.primes, "zero", "p", "q", "unit",
                                           "unit", object))
for lam in range(seq.n):
    print(f"  s[{lam:2d}] = {int(seq.bits[lam])}   class {markers[lam]}")

# the unit character chi(lam) = (lam/p)(lam/q) drives the unit bits;
# it sums to zero over a period, so the unit class is perfectly balanced
chi = crt_read(params.primes, unit_character(params.primes))
print("character values:", chi.tolist())
print("character sum   :", int(chi.sum()))

# changing the fill bits only moves the bits on {0}, P and Q; the unit
# positions never change
for abc in ["000", "100", "010", "001", "111"]:
    other = generate(SequenceParams.of(3, 5, int(abc[0]), int(abc[1]), int(abc[2])))
    print(f"abc={abc}  bits={bitstring(other)}  weight={other.weight}")

# sequences serialize to JSON and back
print(to_json(seq))
