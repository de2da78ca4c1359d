"""
Group-ring algebra behind the autocorrelation theorem
=====================================================

Work in Z[Gamma] with Gamma cyclic of order n = p*q: elements are integer
coefficient vectors, multiplication is cyclic convolution. The sequence sign
vector becomes the element S, and the autocorrelation values are literally
the coefficients of sigma(S) * S where sigma maps x**k to x**(-k).
"""

from cycloseq import (SequenceParams, build_decomposition, dump,
                      expanded_product_form, gamma_p, gamma_q, gauss_gp,
                      gauss_gq, invert_support, mul, verify_correlation_identity)
from cycloseq.groupring import crt_lemma1
from cycloseq.numtheory import OddPrimePair

primes = OddPrimePair(3, 5)

# the four building blocks: two subgroup sums and two Gauss-sum analogues
print("gamma_p  =", dump(gamma_p(primes)).replace("\n", ", "))
print("gamma_q  =", dump(gamma_q(primes)).replace("\n", ", "))
print("gauss_gp =", dump(gauss_gp(primes)).replace("\n", ", "))
print("gauss_gq =", dump(gauss_gq(primes)).replace("\n", ", "))

# squaring a Gauss sum reproduces the classical evaluation: here
# gauss_gp**2 = (-1/p) * (p - gamma_q)
square = mul(gauss_gp(primes), gauss_gp(primes))
print("gauss_gp squared =", dump(square).replace("\n", ", "))

# the five structural identities, checked coefficient by coefficient in
# the CRT tensor form (verify_lemma1 runs the same comparison)
for name, lhs, rhs in crt_lemma1(primes):
    ok = not (lhs - rhs).dense().any()
    print(f"  {name:24s} {'ok' if ok else 'FAILED'}")

# the sign polynomial of S(a, b, c) decomposes over these blocks:
# S = e + (-1)**a gamma_p + (-1)**b gamma_q + gauss_gp * gauss_gq
dec = build_decomposition(SequenceParams.of(3, 5, 1, 0, 0))
print("e =", dec.e)
print("sign coefficients:", dec.s.coeffs.tolist())

# multiply sigma(S) by S: the coefficient at exponent tau IS C_S(tau),
# and expanding the product symbolically gives the closed form
product = mul(invert_support(dec.s), dec.s)
print("sigma(S) * S =", product.coeffs.tolist())
expanded = expanded_product_form(dec.params)
print("expanded form equals the product:", product == expanded)

# one call checks all four routes at once: product, expanded form,
# empirical shifts, and the per-class closed form
for p, q, a, b, c in [(3, 5, 1, 0, 0), (3, 7, 0, 1, 1), (5, 11, 1, 1, 0)]:
    check = verify_correlation_identity(SequenceParams.of(p, q, a, b, c))
    print(f"p={p} q={q} abc={a}{b}{c}: all routes agree = {check.ok}")
