"""
Group-ring algebra behind the autocorrelation theorem
=====================================================

Work in Z[Gamma] with Gamma cyclic of order n = p*q, held in the CRT tensor
form Z[Z_p] (x) Z[Z_q]: an element is a stack of rows over Z_p, a stack
over Z_q and an integer matrix between them, and ``dense()`` reads out its
coefficient vector indexed by exponent. The sequence sign vector becomes the
element S, and the autocorrelation values are literally the coefficients of
sigma(S) * S where sigma maps x**k to x**(-k).
"""

from cycloseq import (SequenceParams, dump, gamma_p, gamma_q, gauss_gp, gauss_gq,
                      generate, mul, verify_correlation_identity)
from cycloseq.autocorr import closed_form_profile, empirical_profile
from cycloseq.groupring import (crt_basis, crt_expanded_form, crt_factors, crt_lemma1,
                                crt_sign_form)
from cycloseq.numtheory import OddPrimePair
from cycloseq.sequence import crt_grid

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

# the five structural identities over the pair's basis (delta, J, chi) on
# Z_p and on Z_q, checked coefficient by coefficient in the CRT tensor form
# (verify_lemma1 checks the same identities on the primes, reading them off
# the pair's crt_factors table, one mul of the basis rows, so it never forms
# a length-n vector unless one fails)
basis = crt_basis(primes)
for name, lhs, rhs in crt_lemma1(basis):
    print(f"  {name:24s} {'ok' if lhs == rhs else 'FAILED'}")

# the sign polynomial of S(a, b, c) is the basis under a 3 x 3 matrix:
# S = e + (-1)**a gamma_p + (-1)**b gamma_q + gauss_gp * gauss_gq
params = SequenceParams.of(3, 5, 1, 0, 0)
s = crt_sign_form(params, basis)
print("e =", params.e)
print("sign coefficients:", s.dense().tolist())

# multiply sigma(S) by S: the coefficient at exponent tau IS C_S(tau),
# and expanding the product symbolically gives the closed form
product = mul(s.sigma(), s)
print("sigma(S) * S =", product.dense().tolist())
expanded = crt_expanded_form(params, basis)
print("expanded form equals the product:", product == expanded)

# one call checks all four routes at once: product, expanded form,
# empirical shifts, and the per-class closed form, each built by the caller;
# the product is the pair's table of products sigma(b_i) * b_k, the rows of
# mul(s.sigma(), s) above, contracted with the weights of that product, and
# every route is compared on the p x q grid, where crt_grid lays the bits
# and the empirical shifts
for p, q, a, b, c in [(3, 5, 1, 0, 0), (3, 7, 0, 1, 1), (5, 11, 1, 1, 0)]:
    seq = generate(SequenceParams.of(p, q, a, b, c))
    pair = seq.params.primes
    check = verify_correlation_identity(crt_factors(crt_basis(pair)), seq.params,
                                        crt_grid(pair, seq.bits),
                                        crt_grid(pair, empirical_profile(seq)),
                                        closed_form_profile(seq.params))
    print(f"p={p} q={q} abc={a}{b}{c}: all routes agree = {check.ok}")
