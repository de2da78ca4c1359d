"""
Group-ring algebra behind the autocorrelation theorem
=====================================================

Work in Z[Gamma] with Gamma cyclic of order n = p*q, held in the CRT tensor
form Z[Z_p] (x) Z[Z_q]: an element is a short sum of rank-1 terms, and
``dense()`` reads out its coefficient vector indexed by exponent. The
sequence sign vector becomes the element S, and the autocorrelation values
are literally the coefficients of sigma(S) * S where sigma maps x**k to
x**(-k).
"""

from cycloseq import (SequenceParams, dump, gamma_p, gamma_q, gauss_gp, gauss_gq,
                      generate, mul, verify_correlation_identity)
from cycloseq.autocorr import closed_form_profile, empirical_profile
from cycloseq.groupring import (crt_blocks, crt_expanded_form, crt_factors, crt_lemma1,
                                crt_sign_form)
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

# the five structural identities over the pair's blocks, checked
# coefficient by coefficient in the CRT tensor form (verify_lemma1 checks the
# same identities on the primes, reading them off the pair's crt_factors
# table of products of delta, J and chi on Z_p and Z_q, so it never forms a
# length-n vector unless one fails)
blocks = crt_blocks(primes)
for name, lhs, rhs in crt_lemma1(blocks):
    print(f"  {name:24s} {'ok' if lhs == rhs else 'FAILED'}")

# the sign polynomial of S(a, b, c) decomposes over these blocks:
# S = e + (-1)**a gamma_p + (-1)**b gamma_q + gauss_gp * gauss_gq
params = SequenceParams.of(3, 5, 1, 0, 0)
s = crt_sign_form(params, blocks)
print("e =", params.e)
print("sign coefficients:", s.dense().tolist())

# multiply sigma(S) by S: the coefficient at exponent tau IS C_S(tau),
# and expanding the product symbolically gives the closed form
product = mul(s.sigma(), s)
print("sigma(S) * S =", product.dense().tolist())
expanded = crt_expanded_form(params, blocks)
print("expanded form equals the product:", product == expanded)

# one call checks all four routes at once: product, expanded form,
# empirical shifts, and the per-class closed form, each built by the caller;
# the product is the pair's table of products sigma(b_i) * b_k over the
# basis (delta, J, chi) of each prime, contracted with the coefficients of S
for p, q, a, b, c in [(3, 5, 1, 0, 0), (3, 7, 0, 1, 1), (5, 11, 1, 1, 0)]:
    seq = generate(SequenceParams.of(p, q, a, b, c))
    check = verify_correlation_identity(crt_factors(seq.params.primes), seq,
                                        empirical_profile(seq),
                                        closed_form_profile(seq.params))
    print(f"p={p} q={q} abc={a}{b}{c}: all routes agree = {check.ok}")
