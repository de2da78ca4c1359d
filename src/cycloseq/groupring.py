"""Exact arithmetic in the integer group ring Z[Gamma], Gamma cyclic of order n.

Two representations of the same ring:

* Dense (``GroupRingElement``, ``mul``): the algebra API. Elements are
  coefficient vectors indexed by exponent; multiplication is cyclic
  convolution (reduction mod x**n - 1) and sigma is the support-inverting map
  x**k -> x**(n-k). Coefficients are arbitrary-precision Python ints; a
  64-bit fast path is used only when a proven bound rules out overflow. A
  product costs O(n**2). The tests use this route as the oracle.
* CRT tensor form (``CrtElement``): Z[Z_pq] is isomorphic to
  Z[Z_p] (x) Z[Z_q], exponent k corresponding to (k mod p, k mod q). Every
  object of the correlation theorem is a sum of at most four rank-1 terms
  c * (u (x) v) there, so a product is a handful of cyclic convolutions of
  length p and q. ``verify_lemma1`` and ``verify_correlation_identity`` run
  through this form and densify each result once for the comparisons.

Naming note for the quadratic character sums, which cross over on purpose:
``gamma_p`` is the subgroup sum over multiples of p (q terms), while
``gauss_gp`` is supported on the multiples of q, carrying the Legendre symbols
mod p of its exponents (p - 1 nonzero terms). Likewise for the q variants.
This matches the algebraic role of each object: gauss_gp squares to
(-1/p) * (p*one - gamma_q).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numtheory import OddPrimePair, legendre
from .sequence import (BinarySequence, CheckResult, SequenceParams, generate,
                       residue_table, sign_view)
from . import autocorr as _autocorr

_INT64_SAFE = 1 << 62


class GroupRingElement:
    """Dense element of Z[Gamma]; immutable; exact integer coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("group order must be positive")
        values = [int(c) for c in coeffs]
        if len(values) != order:
            raise ValueError(f"expected {order} coefficients, got {len(values)}")
        arr = np.empty(order, dtype=object)
        arr[:] = values
        arr.flags.writeable = False
        self.order = order
        self.coeffs = arr

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.order == other.order and bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs.tolist())))

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        _check_orders(self, other)
        return GroupRingElement(self.order, (self.coeffs + other.coeffs).tolist())

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        _check_orders(self, other)
        return GroupRingElement(self.order, (self.coeffs - other.coeffs).tolist())

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.order, (-self.coeffs).tolist())

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.order, (self.coeffs * other).tolist())
        if isinstance(other, GroupRingElement):
            return mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.order, (self.coeffs * other).tolist())
        return NotImplemented

    def max_abs(self) -> int:
        return max((abs(c) for c in self.coeffs.tolist()), default=0)

    def support(self) -> tuple:
        return tuple(int(k) for k in np.nonzero(self.coeffs)[0])

    def __repr__(self) -> str:
        nz = len(self.support())
        return f"GroupRingElement(order={self.order}, nonzero={nz})"


def _check_orders(u: GroupRingElement, v: GroupRingElement) -> None:
    if u.order != v.order:
        raise ValueError("elements live in different group rings")


def element(order: int, coeffs) -> GroupRingElement:
    return GroupRingElement(order, coeffs)


def zero(order: int) -> GroupRingElement:
    return GroupRingElement(order, [0] * order)


def one(order: int) -> GroupRingElement:
    """The multiplicative identity 1_Gamma = x**0."""
    return monomial(order, 0)


def monomial(order: int, k: int, coeff: int = 1) -> GroupRingElement:
    coeffs = [0] * order
    coeffs[k % order] = coeff
    return GroupRingElement(order, coeffs)


def mul(u: GroupRingElement, v: GroupRingElement) -> GroupRingElement:
    """Product in Z[Gamma]: full convolution folded mod x**n - 1."""
    _check_orders(u, v)
    n = u.order
    bound = n * u.max_abs() * v.max_abs()
    if bound < _INT64_SAFE:
        full = np.convolve(u.coeffs.astype(np.int64), v.coeffs.astype(np.int64))
    else:
        full = np.convolve(u.coeffs, v.coeffs)
    folded = full[:n].copy()
    folded[: n - 1] += full[n:]
    return GroupRingElement(n, folded.tolist())


def invert_support(u: GroupRingElement) -> GroupRingElement:
    """sigma: x**k -> x**(-k). A ring automorphism of Z[Gamma]."""
    return GroupRingElement(u.order, np.roll(u.coeffs[::-1], 1).tolist())


def dump(u: GroupRingElement) -> str:
    """One 'exponent: coefficient' line per nonzero term, sorted by exponent."""
    return "\n".join(f"{k}: {u.coeffs[k]}" for k in u.support())


def gamma_p(primes: OddPrimePair) -> GroupRingElement:
    """Subgroup sum over multiples of p: q terms 1 + x**p + ... + x**((q-1)p)."""
    coeffs = [0] * primes.n
    for i in range(primes.q):
        coeffs[i * primes.p] = 1
    return GroupRingElement(primes.n, coeffs)


def gamma_q(primes: OddPrimePair) -> GroupRingElement:
    """Subgroup sum over multiples of q: p terms 1 + x**q + ... + x**((p-1)q)."""
    coeffs = [0] * primes.n
    for j in range(primes.p):
        coeffs[j * primes.q] = 1
    return GroupRingElement(primes.n, coeffs)


def gamma_total(order: int) -> GroupRingElement:
    """Sum of all group elements; satisfies g * Gamma = Gamma."""
    return GroupRingElement(order, [1] * order)


def gauss_gp(primes: OddPrimePair) -> GroupRingElement:
    """Quadratic character sum mod p, supported on multiples of q."""
    coeffs = [0] * primes.n
    for j in range(1, primes.p):
        exp = j * primes.q
        coeffs[exp] = legendre(exp, primes.p)
    return GroupRingElement(primes.n, coeffs)


def gauss_gq(primes: OddPrimePair) -> GroupRingElement:
    """Quadratic character sum mod q, supported on multiples of p."""
    coeffs = [0] * primes.n
    for i in range(1, primes.q):
        exp = i * primes.p
        coeffs[exp] = legendre(exp, primes.q)
    return GroupRingElement(primes.n, coeffs)


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

    ``terms`` holds (c, u, v): c a Python int, u an int64 vector over Z_p,
    v one over Z_q. Every element built in this module has coefficients
    bounded by a small multiple of n, so int64 arithmetic is exact.
    """

    __slots__ = ("primes", "terms")

    def __init__(self, primes: OddPrimePair, terms=()):
        self.primes = primes
        self.terms = tuple(terms)

    def __add__(self, other: "CrtElement") -> "CrtElement":
        return CrtElement(self.primes, self.terms + other.terms)

    def __sub__(self, other: "CrtElement") -> "CrtElement":
        return self + -1 * other

    def __rmul__(self, k: int) -> "CrtElement":
        return CrtElement(self.primes, [(k * c, u, v) for c, u, v in self.terms])

    def __mul__(self, other: "CrtElement") -> "CrtElement":
        """Ring product: (u (x) v)(x (x) y) = (u*x) (x) (v*y), termwise."""
        return CrtElement(self.primes, [(c * d, _cyclic_mul(u, x), _cyclic_mul(v, y))
                                        for c, u, v in self.terms
                                        for d, x, y in other.terms])

    def sigma(self) -> "CrtElement":
        """x**k -> x**(-k), which reverses each factor."""
        return CrtElement(self.primes, [(c, _reverse(u), _reverse(v))
                                        for c, u, v in self.terms])

    def dense(self) -> np.ndarray:
        """Coefficient of x**k for k in [0, n), read at (k mod p, k mod q)."""
        p, q = self.primes.p, self.primes.q
        coeffs = np.array([c for c, _, _ in self.terms], dtype=np.int64)
        us = np.array([u for _, u, _ in self.terms], dtype=np.int64).reshape(-1, p)
        vs = np.array([v for _, _, v in self.terms], dtype=np.int64).reshape(-1, q)
        grid = (coeffs[:, None] * us).T @ vs  # sum of c * outer(u, v)
        # k mod p and k mod q for k in [0, n), as flat indices into the grid
        return grid.ravel()[np.tile(np.arange(p) * q, q) + np.tile(np.arange(q), p)]


class CrtBlocks(NamedTuple):
    """The building blocks of the correlation theorem in CRT tensor form."""

    one: CrtElement       # delta_0 (x) delta_0
    gamma_p: CrtElement   # delta_0 (x) J_q
    gamma_q: CrtElement   # J_p (x) delta_0
    total: CrtElement     # J_p (x) J_q, the sum over the whole group
    gauss_gp: CrtElement  # chi_p (x) delta_0
    gauss_gq: CrtElement  # delta_0 (x) chi_q


def crt_blocks(primes: OddPrimePair) -> CrtBlocks:
    """The six blocks for one pair; chi_r is ``residue_table(r)``."""
    p, q = primes.p, primes.q
    delta_p, delta_q = np.zeros(p, dtype=np.int64), np.zeros(q, dtype=np.int64)
    delta_p[0] = delta_q[0] = 1
    ones_p, ones_q = np.ones(p, dtype=np.int64), np.ones(q, dtype=np.int64)
    chi_p = residue_table(p).astype(np.int64)
    chi_q = residue_table(q).astype(np.int64)

    def rank1(u, v):
        return CrtElement(primes, [(1, u, v)])

    return CrtBlocks(rank1(delta_p, delta_q), rank1(delta_p, ones_q),
                     rank1(ones_p, delta_q), rank1(ones_p, ones_q),
                     rank1(chi_p, delta_q), rank1(delta_p, chi_q))


def crt_lemma1(primes: OddPrimePair) -> tuple:
    """(name, left side, right side) of each of the five Lemma-1 identities:

    gauss_gp**2 == (-1/p) * (p*one - gamma_q)
    gauss_gq**2 == (-1/q) * (q*one - gamma_p)
    gamma_p * gauss_gq == 0,  gamma_q * gauss_gp == 0
    gamma_p * gamma_q == sum over the whole group
    """
    p, q = primes.p, primes.q
    b = crt_blocks(primes)
    zero_ = CrtElement(primes)
    return (
        ("gauss_gp_squared", b.gauss_gp * b.gauss_gp,
         legendre(-1, p) * (p * b.one - b.gamma_q)),
        ("gauss_gq_squared", b.gauss_gq * b.gauss_gq,
         legendre(-1, q) * (q * b.one - b.gamma_p)),
        ("gamma_p_times_gauss_gq", b.gamma_p * b.gauss_gq, zero_),
        ("gamma_q_times_gauss_gp", b.gamma_q * b.gauss_gp, zero_),
        ("gamma_p_times_gamma_q", b.gamma_p * b.gamma_q, b.total),
    )


def crt_sign_form(params: SequenceParams, blocks: CrtBlocks) -> tuple:
    """(h, S) with h = e*one + (-1)**a * gamma_p + (-1)**b * gamma_q and
    S = h + gauss_gp * gauss_gq, the sign polynomial of S(a, b, c)."""
    h = (params.e * blocks.one
         + (-1) ** params.a * blocks.gamma_p
         + (-1) ** params.b * blocks.gamma_q)
    return h, h + blocks.gauss_gp * blocks.gauss_gq


def crt_expanded_form(params: SequenceParams, blocks: CrtBlocks) -> CrtElement:
    """The expanded form of sigma(S)*S."""
    p, q = params.p, params.q
    e = params.e
    chi_minus1 = legendre(-1, p) * legendre(-1, q)
    return ((p * q + e * e) * blocks.one
            + (q - p + 2 * e * (-1) ** params.a) * blocks.gamma_p
            + (p - q + 2 * e * (-1) ** params.b) * blocks.gamma_q
            + (1 + 2 * (-1) ** (params.a + params.b)) * blocks.total
            + (e * (1 + chi_minus1)) * (blocks.gauss_gp * blocks.gauss_gq))


def _checked_signs(s: CrtElement, seq: BinarySequence) -> np.ndarray:
    """S densified, cross-checked coefficientwise against the sequence."""
    dense = s.dense()
    if not np.array_equal(dense, sign_view(seq)):
        raise RuntimeError("sign polynomial decomposition does not match the sequence")
    return dense


def verify_lemma1(primes: OddPrimePair) -> CheckResult:
    """Coefficient-exact check of the five structural product identities of
    ``crt_lemma1``; the detail names the first one that fails."""
    for name, lhs, rhs in crt_lemma1(primes):
        diff = np.flatnonzero(lhs.dense() != rhs.dense())
        if len(diff):
            return CheckResult("lemma1", False,
                               f"{name} first differs at exponent {diff[0]}")
    return CheckResult("lemma1", True)


@dataclass(frozen=True)
class Decomposition:
    """S = e*one + (-1)**a * gamma_p + (-1)**b * gamma_q + gauss_gp * gauss_gq."""

    params: SequenceParams
    e: int
    h: GroupRingElement
    gp: GroupRingElement
    gq: GroupRingElement
    s: GroupRingElement


def build_decomposition(params: SequenceParams) -> Decomposition:
    """Assemble the structured form of the sign polynomial and cross-check it
    coefficientwise against the generated sequence."""
    blocks = crt_blocks(params.primes)
    h, s = crt_sign_form(params, blocks)
    signs = _checked_signs(s, generate(params))
    n = params.n
    return Decomposition(params, params.e, element(n, h.dense()),
                         element(n, blocks.gauss_gp.dense()),
                         element(n, blocks.gauss_gq.dense()), element(n, signs))


def expanded_product_form(params: SequenceParams) -> GroupRingElement:
    """The expanded form of sigma(S)*S as an explicit ring element."""
    expanded = crt_expanded_form(params, crt_blocks(params.primes))
    return element(params.n, expanded.dense())


def verify_correlation_identity(params: SequenceParams,
                                seq: "BinarySequence | None" = None,
                                emp: "np.ndarray | None" = None) -> CheckResult:
    """Check that the group-ring product, its expanded form, the empirical
    autocorrelation, and the per-class closed form all agree at every shift;
    the detail lists each route that differs from the product.

    A caller that already holds ``seq = generate(params)`` and
    ``emp = empirical_profile(seq)`` passes them in, so neither is rebuilt.
    """
    if seq is None:
        seq = generate(params)
    elif seq.params != params:
        raise ValueError("the sequence was built from other parameters")
    blocks = crt_blocks(params.primes)
    _, s = crt_sign_form(params, blocks)
    _checked_signs(s, seq)
    product = (s.sigma() * s).dense()
    expanded = crt_expanded_form(params, blocks).dense()
    if emp is None:
        emp = _autocorr.empirical_profile(seq)
    closed = _autocorr.closed_form_profile(params)

    failures = []
    if not np.array_equal(product, expanded):
        failures.append("product_vs_expanded")
    if not np.array_equal(product, emp):
        failures.append("product_vs_empirical")
    if not np.array_equal(product, closed):
        failures.append("product_vs_closed_form")
    return CheckResult("correlation_identity", not failures, "; ".join(failures))
