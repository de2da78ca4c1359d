"""Periodic autocorrelation of the two-prime cyclotomic sequences.

The autocorrelation at shift tau is

    C(tau) = sum over lam of (-1)**(s[lam] + s[lam + tau]),

indices mod n. C(0) = n always. For S(a, b, c) the nontrivial values depend
only on the residue class of tau:

    tau in P:  (q - p) + 2*(-1)**(a + c) - 1
    tau in Q:  (p - q) + 2*(-1)**(b + c) - 1
    tau in U:  1 + 2*(-1)**(a + b) + e*(1 + (-1/p)(-1/q))*(tau/p)(tau/q)

with e = (-1)**c - (-1)**a - (-1)**b. Every empirical value is recomputed by
the naive exact integer sum; no floating point or FFT is involved.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numtheory import OddPrimePair, legendre
from .sequence import (BinarySequence, CheckResult, ResidueClass, SequenceParams,
                       by_class, classify, sign_view)


class AutocorrelationFamily(Enum):
    IDEAL = "Ideal"
    THREE_VALUED_OPTIMAL = "ThreeValuedOptimal"
    OTHER = "Other"


@dataclass(frozen=True)
class AutocorrelationProfile:
    """Per-class autocorrelation values plus the full value distribution.

    ``distribution`` maps value -> count over all n shifts, trivial shift
    included. ``value_unit_plus``/``value_unit_minus`` are the values on unit
    shifts with character +1 / -1; they coincide when the character term
    vanishes, and the distribution then reports a single merged bucket.
    """

    params: SequenceParams
    value_class_p: int
    value_class_q: int
    value_unit_plus: int
    value_unit_minus: int
    distribution: dict
    max_nontrivial_abs: int
    family: AutocorrelationFamily

    @property
    def n(self) -> int:
        return self.params.n

    def value_at(self, tau: int) -> int:
        cls = classify(tau % self.n, self.params.primes)
        if cls is ResidueClass.ZERO:
            return self.n
        if cls is ResidueClass.CLASS_P:
            return self.value_class_p
        if cls is ResidueClass.CLASS_Q:
            return self.value_class_q
        chi = legendre(tau, self.params.p) * legendre(tau, self.params.q)
        return self.value_unit_plus if chi == 1 else self.value_unit_minus


def autocorr_empirical(seq: BinarySequence, tau: int) -> int:
    """C(tau) summed directly from the sign vector. Exact integer."""
    s = sign_view(seq)
    return int(np.dot(s, np.roll(s, -(tau % seq.n))))


def empirical_profile(seq: BinarySequence) -> np.ndarray:
    """All n autocorrelation values by direct circular correlation (no FFT)."""
    s = sign_view(seq)
    doubled = np.concatenate([s, s[:-1]])
    return np.correlate(doubled, s, mode="valid")


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


def _classify_family(nontrivial_values: set) -> AutocorrelationFamily:
    if nontrivial_values == {-1}:
        return AutocorrelationFamily.IDEAL
    if nontrivial_values <= {1, -3}:
        return AutocorrelationFamily.THREE_VALUED_OPTIMAL
    return AutocorrelationFamily.OTHER


def distribution(params: SequenceParams,
                 emp: "np.ndarray | None" = None) -> AutocorrelationProfile:
    """Full autocorrelation profile.

    By default the class values come from the per-class closed form in O(1)
    per class. A caller that holds ``emp = empirical_profile(generate(params))``
    passes it in, and the values are read from it instead: the oracle path.
    """
    p, q, n = params.p, params.q, params.n
    if emp is None:
        vp, vq, vplus, vminus = class_values(params)
    elif emp.shape != (n,):
        raise ValueError(f"expected {n} autocorrelation values, got {emp.shape}")
    else:
        codes = by_class(params.primes, 0, 1, 2, 3, 4, np.int8)
        vp, vq, vplus, vminus = (_constant_over(emp[codes == k]) for k in (1, 2, 3, 4))

    counts: dict = {n: 1}
    half = (p - 1) * (q - 1) // 2
    for value, k in ((vp, q - 1), (vq, p - 1), (vplus, half), (vminus, half)):
        counts[value] = counts.get(value, 0) + k
    family = _classify_family({vp, vq, vplus, vminus})
    max_abs = max(abs(v) for v in (vp, vq, vplus, vminus))
    return AutocorrelationProfile(params, vp, vq, vplus, vminus,
                                  counts, max_abs, family)


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
