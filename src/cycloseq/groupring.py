"""Exact arithmetic in the integer group ring Z[Gamma], Gamma cyclic of order n = p*q.

One representation, the CRT tensor form: Z[Z_pq] is isomorphic to
Z[Z_p] (x) Z[Z_q], exponent k corresponding to (k mod p, k mod q) (the
Good-Thomas index map, ``sequence.crt_read``). A ``CrtElement`` is a sum of
rank-1 terms c * (u (x) v), and every object of the correlation theorem needs
at most four of them, so a product (``mul``) is a handful of cyclic
convolutions of length p and q, and sigma, the automorphism x**k -> x**(-k),
reverses each factor.
``CrtElement.dense()`` reads the coefficient vector indexed by exponent back
out; the checks densify each result once for their comparisons. The dense
O(n**2) ring survives only as the oracle of the differential tests in
``tests/test_groupring.py``.

The module builds no sequence, no profile and no pair's blocks: its checks
compare the ``crt_blocks``, sequence and profiles they are handed, which
``cycloseq.cli`` builds once per pair and per instance. The same holds for
``crt_sign_products``, the 16 products sigma(atom k) * atom l of the four
atoms every sign form S is a combination of: ``cli`` builds them once per
pair, and ``verify_correlation_identity`` reweights them by each triple's
coefficients of S instead of multiplying sigma(S) by S again.

Naming note for the quadratic character sums, which cross over on purpose:
``gamma_p`` is the subgroup sum over multiples of p (q terms), while
``gauss_gp`` is supported on the multiples of q, carrying the Legendre symbols
mod p of its exponents (p - 1 nonzero terms). Likewise for the q variants.
This matches the algebraic role of each object: gauss_gp squares to
(-1/p) * (p*one - gamma_q).
"""

from typing import NamedTuple

import numpy as np

from .numtheory import OddPrimePair, legendre
from .sequence import (BinarySequence, CheckResult, SequenceParams, crt_read,
                       residue_table, sign_view)

_INT64_LIMIT = 1 << 63


def _cyclic_mul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cyclic convolution of two int64 vectors of one length r."""
    r = len(u)
    full = np.convolve(u, v)
    full[: r - 1] += full[r:]
    return full[:r]


def _reverse(u: np.ndarray) -> np.ndarray:
    """u[-i mod r]: sigma on one tensor factor."""
    return np.concatenate((u[:1], u[:0:-1]))


class CrtElement:
    """Element of Z[Z_p] (x) Z[Z_q] as a sum of rank-1 terms c * (u (x) v).

    ``terms`` holds (c, u, v, bound_u, bound_v): c a Python int, u an int64
    vector over Z_p, v one over Z_q, and two Python ints that bound the
    absolute entries of u and of v. The builders start both bounds at 1;
    ``mul`` multiplies the two bounds of a term pair and then by p (for u)
    or q (for v), since a cyclic convolution of length r grows entries at
    most r-fold. The sum of |c| * bound_u * bound_v over the terms bounds
    every dense coefficient. Rather than let int64 wrap, ``mul`` raises
    OverflowError once a factor bound reaches 2**63, and ``dense()`` once that
    sum does. Two elements are equal when their dense coefficients are.
    """

    __slots__ = ("primes", "terms")

    def __init__(self, primes: OddPrimePair, terms=()):
        self.primes = primes
        self.terms = tuple(terms)

    @property
    def order(self) -> int:
        return self.primes.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrtElement):
            return NotImplemented
        return (self.primes == other.primes
                and bool(np.array_equal(self.dense(), other.dense())))

    def __add__(self, other: "CrtElement") -> "CrtElement":
        _same_ring(self, other)
        return CrtElement(self.primes, self.terms + other.terms)

    def __sub__(self, other: "CrtElement") -> "CrtElement":
        return self + -1 * other

    def __rmul__(self, k: int) -> "CrtElement":
        return CrtElement(self.primes, [(k * c, u, v, bu, bv)
                                        for c, u, v, bu, bv in self.terms])

    def __mul__(self, other: "CrtElement") -> "CrtElement":
        return mul(self, other)

    def sigma(self) -> "CrtElement":
        """x**k -> x**(-k), which reverses each factor."""
        return CrtElement(self.primes, [(c, _reverse(u), _reverse(v), bu, bv)
                                        for c, u, v, bu, bv in self.terms])

    def dense(self) -> np.ndarray:
        """Coefficient of x**k for k in [0, n), read at (k mod p, k mod q)."""
        if sum(abs(c) * bu * bv for c, _, _, bu, bv in self.terms) >= _INT64_LIMIT:
            raise OverflowError("dense coefficients could exceed int64")
        p, q = self.primes.p, self.primes.q
        coeffs = np.array([t[0] for t in self.terms], dtype=np.int64)
        us = np.array([t[1] for t in self.terms], dtype=np.int64).reshape(-1, p)
        vs = np.array([t[2] for t in self.terms], dtype=np.int64).reshape(-1, q)
        grid = (coeffs[:, None] * us).T @ vs  # sum of c * outer(u, v)
        return crt_read(self.primes, grid)


def _same_ring(x: CrtElement, y: CrtElement) -> None:
    if x.primes != y.primes:
        raise ValueError("elements live in different group rings")


def mul(x: CrtElement, y: CrtElement) -> CrtElement:
    """Ring product: (u (x) v)(s (x) t) = (u*s) (x) (v*t), termwise."""
    _same_ring(x, y)
    p, q = x.primes.p, x.primes.q
    terms = []
    for c, u, v, bu, bv in x.terms:
        for d, s, t, bs, bt in y.terms:
            bound_u, bound_v = p * bu * bs, q * bv * bt
            if bound_u >= _INT64_LIMIT or bound_v >= _INT64_LIMIT:
                raise OverflowError("product factors could exceed int64")
            terms.append((c * d, _cyclic_mul(u, s), _cyclic_mul(v, t), bound_u, bound_v))
    return CrtElement(x.primes, terms)


def dump(u: CrtElement) -> str:
    """One 'exponent: coefficient' line per nonzero term, sorted by exponent."""
    coeffs = u.dense()
    return "\n".join(f"{k}: {coeffs[k]}" for k in np.flatnonzero(coeffs))


def _rank1(primes: OddPrimePair, u: np.ndarray, v: np.ndarray) -> CrtElement:
    """1 * (u (x) v) for int64 factors with entries in {-1, 0, 1}."""
    return CrtElement(primes, [(1, u, v, 1, 1)])


def _delta(r: int) -> np.ndarray:
    """x**0 on one factor."""
    u = np.zeros(r, dtype=np.int64)
    u[0] = 1
    return u


def _chi(r: int) -> np.ndarray:
    """The quadratic character mod r on one factor."""
    return residue_table(r).astype(np.int64)


def gamma_p(primes: OddPrimePair) -> CrtElement:
    """Subgroup sum over multiples of p: q terms 1 + x**p + ... + x**((q-1)p)."""
    return _rank1(primes, _delta(primes.p), np.ones(primes.q, dtype=np.int64))


def gamma_q(primes: OddPrimePair) -> CrtElement:
    """Subgroup sum over multiples of q: p terms 1 + x**q + ... + x**((p-1)q)."""
    return _rank1(primes, np.ones(primes.p, dtype=np.int64), _delta(primes.q))


def gauss_gp(primes: OddPrimePair) -> CrtElement:
    """Quadratic character sum mod p, supported on multiples of q."""
    return _rank1(primes, _chi(primes.p), _delta(primes.q))


def gauss_gq(primes: OddPrimePair) -> CrtElement:
    """Quadratic character sum mod q, supported on multiples of p."""
    return _rank1(primes, _delta(primes.p), _chi(primes.q))


class CrtBlocks(NamedTuple):
    """The building blocks of the correlation theorem in CRT tensor form."""

    one: CrtElement       # delta_0 (x) delta_0
    gamma_p: CrtElement   # delta_0 (x) J_q
    gamma_q: CrtElement   # J_p (x) delta_0
    total: CrtElement     # J_p (x) J_q, the sum over the whole group
    gauss_gp: CrtElement  # chi_p (x) delta_0
    gauss_gq: CrtElement  # delta_0 (x) chi_q
    unit: CrtElement      # chi_p (x) chi_q = gauss_gp * gauss_gq, entries bounded by 1


def crt_blocks(primes: OddPrimePair) -> CrtBlocks:
    """The seven blocks for one pair; chi_r is ``residue_table(r)``."""
    p, q = primes.p, primes.q
    total = _rank1(primes, np.ones(p, dtype=np.int64), np.ones(q, dtype=np.int64))
    return CrtBlocks(_rank1(primes, _delta(p), _delta(q)), gamma_p(primes),
                     gamma_q(primes), total, gauss_gp(primes), gauss_gq(primes),
                     _rank1(primes, _chi(p), _chi(q)))


def crt_lemma1(blocks: CrtBlocks) -> tuple:
    """(name, left side, right side) of each of the five Lemma-1 identities:

    gauss_gp**2 == (-1/p) * (p*one - gamma_q)
    gauss_gq**2 == (-1/q) * (q*one - gamma_p)
    gamma_p * gauss_gq == 0,  gamma_q * gauss_gp == 0
    gamma_p * gamma_q == sum over the whole group
    """
    p, q = blocks.one.primes.p, blocks.one.primes.q
    zero_ = CrtElement(blocks.one.primes)
    return (
        ("gauss_gp_squared", blocks.gauss_gp * blocks.gauss_gp,
         legendre(-1, p) * (p * blocks.one - blocks.gamma_q)),
        ("gauss_gq_squared", blocks.gauss_gq * blocks.gauss_gq,
         legendre(-1, q) * (q * blocks.one - blocks.gamma_p)),
        ("gamma_p_times_gauss_gq", blocks.gamma_p * blocks.gauss_gq, zero_),
        ("gamma_q_times_gauss_gp", blocks.gamma_q * blocks.gauss_gp, zero_),
        ("gamma_p_times_gamma_q", blocks.gamma_p * blocks.gamma_q, blocks.total),
    )


def _sign_atoms(blocks: CrtBlocks) -> tuple:
    """The four rank-1 atoms of every sign polynomial, in the order of S's
    terms: one, gamma_p, gamma_q, unit."""
    return blocks.one, blocks.gamma_p, blocks.gamma_q, blocks.unit


def crt_sign_form(params: SequenceParams, blocks: CrtBlocks) -> tuple:
    """(h, S) with h = e*one + (-1)**a * gamma_p + (-1)**b * gamma_q and
    S = h + unit, the sign polynomial of S(a, b, c)."""
    one, g_p, g_q, unit = _sign_atoms(blocks)
    h = params.e * one + (-1) ** params.a * g_p + (-1) ** params.b * g_q
    return h, h + unit


def crt_sign_products(blocks: CrtBlocks) -> CrtElement:
    """sigma(A) * A for A the sum of the four sign atoms: 16 rank-1 terms,
    term 4k + l being sigma(atom k) * atom l. Only the coefficients c of a
    sign form S = sum of c_k * atom k depend on the triple, so reweighting
    term 4k + l by c_k * c_l gives sigma(S) * S, term for term as ``mul``
    builds it."""
    atoms = sum(_sign_atoms(blocks), CrtElement(blocks.one.primes))
    return atoms.sigma() * atoms


def crt_expanded_form(params: SequenceParams, blocks: CrtBlocks) -> CrtElement:
    """The expanded form of sigma(S)*S."""
    p, q = params.p, params.q
    e = params.e
    chi_minus1 = legendre(-1, p) * legendre(-1, q)
    return ((p * q + e * e) * blocks.one
            + (q - p + 2 * e * (-1) ** params.a) * blocks.gamma_p
            + (p - q + 2 * e * (-1) ** params.b) * blocks.gamma_q
            + (1 + 2 * (-1) ** (params.a + params.b)) * blocks.total
            + (e * (1 + chi_minus1)) * blocks.unit)


def verify_lemma1(blocks: CrtBlocks) -> CheckResult:
    """Coefficient-exact check of the five identities of ``crt_lemma1`` over the
    pair's ``crt_blocks``; the detail names the first one that fails."""
    for name, lhs, rhs in crt_lemma1(blocks):
        diff = np.flatnonzero(lhs.dense() != rhs.dense())
        if len(diff):
            return CheckResult("lemma1", False,
                               f"{name} first differs at exponent {diff[0]}")
    return CheckResult("lemma1", True)


def verify_correlation_identity(blocks: CrtBlocks, products: CrtElement,
                                seq: BinarySequence, emp: np.ndarray,
                                closed: np.ndarray) -> CheckResult:
    """Check that the group-ring product sigma(S)*S, its expanded form, the
    empirical autocorrelation ``emp`` and the per-class closed form ``closed``
    of ``seq`` all agree at every shift; the detail lists each route that
    differs from the product, after ``sign_form_vs_sequence`` when the sign
    form S built from ``blocks`` (the pair's ``crt_blocks``) is not the sign
    vector of ``seq``. sigma(S)*S is read off ``products``, the pair's
    ``crt_sign_products(blocks)``, reweighted by S's coefficients.
    """
    params = seq.params
    _, s = crt_sign_form(params, blocks)
    _same_ring(s, products)
    coeffs = [c for c, *_ in s.terms]
    weights = [c_k * c_l for c_k in coeffs for c_l in coeffs]
    product = CrtElement(s.primes, [
        (w * c, u, v, bu, bv)
        for w, (c, u, v, bu, bv) in zip(weights, products.terms, strict=True)
    ]).dense()
    expanded = crt_expanded_form(params, blocks).dense()

    failures = []
    if not np.array_equal(s.dense(), sign_view(seq)):
        failures.append("sign_form_vs_sequence")
    if not np.array_equal(product, expanded):
        failures.append("product_vs_expanded")
    if not np.array_equal(product, emp):
        failures.append("product_vs_empirical")
    if not np.array_equal(product, closed):
        failures.append("product_vs_closed_form")
    return CheckResult("correlation_identity", not failures, "; ".join(failures))
