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
from .sequence import (BinarySequence, ResidueClass, SequenceParams, classify,
                       generate, sign_view, unit_character)


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


def _unit_term(params: SequenceParams) -> tuple[int, int]:
    # (base, term): unit-shift value is base + term * chi(tau)
    e = (-1) ** params.c - (-1) ** params.a - (-1) ** params.b
    base = 1 + 2 * (-1) ** (params.a + params.b)
    term = e * (1 + legendre(-1, params.p) * legendre(-1, params.q))
    return base, term


def class_values(params: SequenceParams) -> tuple[int, int, int, int]:
    """(P value, Q value, unit value at chi=+1, unit value at chi=-1)."""
    p, q = params.p, params.q
    vp = (q - p) + 2 * (-1) ** (params.a + params.c) - 1
    vq = (p - q) + 2 * (-1) ** (params.b + params.c) - 1
    base, term = _unit_term(params)
    return vp, vq, base + term, base - term


def autocorr_closed_form(params: SequenceParams, tau: int) -> int:
    """C(tau) from the per-class closed form."""
    tau %= params.n
    cls = classify(tau, params.primes)
    vp, vq, vplus, vminus = class_values(params)
    if cls is ResidueClass.ZERO:
        return params.n
    if cls is ResidueClass.CLASS_P:
        return vp
    if cls is ResidueClass.CLASS_Q:
        return vq
    chi = legendre(tau, params.p) * legendre(tau, params.q)
    return vplus if chi == 1 else vminus


def closed_form_profile(params: SequenceParams) -> np.ndarray:
    """All n closed-form values as one int64 array."""
    p, q, n = params.p, params.q, params.n
    vp, vq, vplus, vminus = class_values(params)
    base = (vplus + vminus) // 2
    term = (vplus - vminus) // 2
    prof = base + term * unit_character(params.primes).astype(np.int64)
    prof[p::p] = vp
    prof[q::q] = vq
    prof[0] = n
    return prof


def nontrivial_bound(primes: OddPrimePair) -> int:
    """Upper bound max(|q - p| + 3, 9) on every nontrivial |C(tau)|."""
    return max(abs(primes.q - primes.p) + 3, 9)


def _classify_family(nontrivial_values: set) -> AutocorrelationFamily:
    if nontrivial_values == {-1}:
        return AutocorrelationFamily.IDEAL
    if nontrivial_values <= {1, -3}:
        return AutocorrelationFamily.THREE_VALUED_OPTIMAL
    return AutocorrelationFamily.OTHER


def distribution(params: SequenceParams, method: str = "closed") -> AutocorrelationProfile:
    """Full autocorrelation profile.

    method="closed" evaluates the per-class closed form in O(1) per class;
    method="empirical" recomputes every shift from the sequence itself and
    serves as the oracle path.
    """
    if method not in ("closed", "empirical"):
        raise ValueError("method must be 'closed' or 'empirical'")
    p, q, n = params.p, params.q, params.n

    if method == "empirical":
        prof = empirical_profile(generate(params))
        chi = unit_character(params.primes)
        vp = _constant_over(prof, _p_mask(params))
        vq = _constant_over(prof, _q_mask(params))
        vplus = _constant_over(prof, chi == 1)
        vminus = _constant_over(prof, chi == -1)
    else:
        vp, vq, vplus, vminus = class_values(params)

    counts: dict = {n: 1}
    _tally(counts, vp, q - 1)
    _tally(counts, vq, p - 1)
    half = (p - 1) * (q - 1) // 2
    _tally(counts, vplus, half)
    _tally(counts, vminus, half)
    family = _classify_family({vp, vq, vplus, vminus})
    max_abs = max(abs(v) for v in (vp, vq, vplus, vminus))
    return AutocorrelationProfile(params, vp, vq, vplus, vminus,
                                  counts, max_abs, family)


def _tally(counts: dict, value: int, k: int) -> None:
    counts[value] = counts.get(value, 0) + k


def _p_mask(params: SequenceParams) -> np.ndarray:
    lam = np.arange(params.n)
    mask = lam % params.p == 0
    mask[0] = False
    return mask


def _q_mask(params: SequenceParams) -> np.ndarray:
    lam = np.arange(params.n)
    mask = lam % params.q == 0
    mask[0] = False
    return mask


def _constant_over(prof: np.ndarray, mask: np.ndarray) -> int:
    vals = np.unique(prof[mask])
    if len(vals) != 1:
        raise ValueError(f"class carries several autocorrelation values: {vals.tolist()}")
    return int(vals[0])


@dataclass(frozen=True)
class Theorem1Check:
    """Result of comparing empirical against closed-form values at all shifts."""

    ok: bool
    first_mismatch: "tuple | None" = None  # (tau, empirical, closed)

    def __bool__(self) -> bool:
        return self.ok


def verify_theorem1(params: SequenceParams,
                    emp: "np.ndarray | None" = None) -> Theorem1Check:
    """Compare autocorrelation routes at every shift of one period.

    A caller that already holds ``emp = empirical_profile(generate(params))``
    passes it in, so it is not rebuilt.
    """
    if emp is None:
        emp = empirical_profile(generate(params))
    closed = closed_form_profile(params)
    bad = np.nonzero(emp != closed)[0]
    if len(bad) == 0:
        return Theorem1Check(True)
    tau = int(bad[0])
    return Theorem1Check(False, (tau, int(emp[tau]), int(closed[tau])))


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
