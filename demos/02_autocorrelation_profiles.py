"""
Autocorrelation profiles and the two special families
=====================================================

The periodic autocorrelation C_S(tau) of S(a, b, c) takes one value on each
residue class of tau, so the whole profile collapses to four numbers plus
the trivial C_S(0) = n. Two parameter families stand out:

* twin primes q = p + 2 with (a,b,c) in {(1,0,0), (0,1,1)}: every
  nontrivial value is -1 (ideal autocorrelation),
* q = p + 4 with the same fill bits: values stay inside {1, -3}
  (optimal three-valued autocorrelation for n = 1 mod 4).
"""

from cycloseq import (SequenceParams, distribution, generate, nontrivial_bound,
                      verify_theorem1)
from cycloseq.autocorr import closed_form_profile, empirical_profile
from cycloseq.numtheory import OddPrimePair
from cycloseq.sequence import crt_grid

# empirical computation: every shift summed exactly from the bits at once
seq = generate(SequenceParams.of(3, 7, 1, 0, 0))
emp = empirical_profile(seq)
print("C(tau) for p=3, q=7, abc=100")
for tau in range(seq.n):
    print(f"  C({tau:2d}) = {int(emp[tau]):3d}")

# the per-class closed form gives the same numbers without touching the
# sequence; verify_theorem1 compares the two routes at every shift, on the
# p x q grid that holds shift tau at (tau mod p, tau mod q)
check = verify_theorem1(crt_grid(seq.params.primes, emp), closed_form_profile(seq.params))
print("closed form matches empirical:", check.ok)

# the full profile as a value -> count table
prof = distribution(SequenceParams.of(3, 7, 1, 0, 0))
print("family:", prof.family.value)
print("distribution:", dict(sorted(prof.distribution.items())))

# ideal family: twin primes with the two distinguished fill-bit choices
print("\ntwin primes, abc=100: every nontrivial value is -1")
for p, q in [(3, 5), (5, 7), (11, 13), (17, 19), (29, 31)]:
    prof = distribution(SequenceParams.of(p, q, 1, 0, 0))
    print(f"  p={p:2d} q={q:2d}  family={prof.family.value}  "
          f"distribution={dict(sorted(prof.distribution.items()))}")

# optimal three-valued family: q = p + 4
print("\ngap-four pairs, abc=011: values inside {1, -3}")
for p, q in [(3, 7), (7, 11), (13, 17), (19, 23), (37, 41)]:
    prof = distribution(SequenceParams.of(p, q, 0, 1, 1))
    print(f"  p={p:2d} q={q:2d}  family={prof.family.value}  "
          f"distribution={dict(sorted(prof.distribution.items()))}")

# every other choice still obeys the bound max(|q-p|+3, 9)
print("\nworst nontrivial value against the bound")
for p, q in [(3, 5), (3, 13), (5, 23), (7, 31)]:
    pair = OddPrimePair(p, q)
    worst = max(distribution(SequenceParams(pair, a, b, c)).max_nontrivial_abs
                for a in (0, 1) for b in (0, 1) for c in (0, 1))
    print(f"  p={p} q={q}: worst {worst} <= bound {nontrivial_bound(pair)}")
