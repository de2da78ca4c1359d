"""Exact arithmetic in the integer group ring Z[Gamma], Gamma cyclic of order n.

Elements are dense coefficient vectors indexed by exponent; multiplication is
cyclic convolution (reduction mod x**n - 1) and sigma is the support-inverting
map x**k -> x**(n-k). Coefficients are arbitrary-precision Python ints; a
64-bit fast path is used only when a proven bound rules out overflow.

Naming note for the quadratic character sums, which cross over on purpose:
``gamma_p`` is the subgroup sum over multiples of p (q terms), while
``gauss_gp`` is supported on the multiples of q, carrying the Legendre symbols
mod p of its exponents (p - 1 nonzero terms). Likewise for the q variants.
This matches the algebraic role of each object: gauss_gp squares to
(-1/p) * (p*one - gamma_q).
"""

from dataclasses import dataclass

import numpy as np

from .numtheory import OddPrimePair, legendre
from .sequence import SequenceParams, generate, sign_view
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
        return _wrap(self.order, self.coeffs + other.coeffs)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        _check_orders(self, other)
        return _wrap(self.order, self.coeffs - other.coeffs)

    def __neg__(self) -> "GroupRingElement":
        return _wrap(self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return _wrap(self.order, self.coeffs * other)
        if isinstance(other, GroupRingElement):
            return mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return _wrap(self.order, self.coeffs * other)
        return NotImplemented

    def max_abs(self) -> int:
        return max((abs(c) for c in self.coeffs.tolist()), default=0)

    def support(self) -> tuple:
        return tuple(int(k) for k in np.nonzero(self.coeffs)[0])

    def __repr__(self) -> str:
        nz = len(self.support())
        return f"GroupRingElement(order={self.order}, nonzero={nz})"


def _wrap(order: int, arr: np.ndarray) -> GroupRingElement:
    # Normalize every coefficient back to a Python int so that no fixed-width
    # numpy scalar can leak into later arbitrary-precision arithmetic.
    elem = GroupRingElement.__new__(GroupRingElement)
    out = np.empty(order, dtype=object)
    out[:] = [int(c) for c in arr.tolist()]
    out.flags.writeable = False
    elem.order = order
    elem.coeffs = out
    return elem


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
    return _wrap(n, folded)


def invert_support(u: GroupRingElement) -> GroupRingElement:
    """sigma: x**k -> x**(-k). A ring automorphism of Z[Gamma]."""
    return _wrap(u.order, np.roll(u.coeffs[::-1], 1))


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


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    first_diff: "tuple | None" = None  # (exponent, got, want)

    def __bool__(self) -> bool:
        return self.ok


def _compare(name: str, got: GroupRingElement, want: GroupRingElement) -> IdentityCheck:
    diff = np.nonzero(got.coeffs != want.coeffs)[0]
    if len(diff) == 0:
        return IdentityCheck(name, True)
    k = int(diff[0])
    return IdentityCheck(name, False, (k, int(got.coeffs[k]), int(want.coeffs[k])))


@dataclass(frozen=True)
class Lemma1Report:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def failed(self) -> tuple:
        return tuple(c for c in self.checks if not c.ok)


def verify_lemma1(primes: OddPrimePair) -> Lemma1Report:
    """Coefficient-exact check of the five structural product identities:

    gauss_gp**2 == (-1/p) * (p*one - gamma_q)
    gauss_gq**2 == (-1/q) * (q*one - gamma_p)
    gamma_p * gauss_gq == 0,  gamma_q * gauss_gp == 0
    gamma_p * gamma_q == sum over the whole group
    """
    p, q, n = primes.p, primes.q, primes.n
    gp, gq = gauss_gp(primes), gauss_gq(primes)
    cp, cq = gamma_p(primes), gamma_q(primes)
    e1 = one(n)
    checks = (
        _compare("gauss_gp_squared", mul(gp, gp), legendre(-1, p) * (p * e1 - cq)),
        _compare("gauss_gq_squared", mul(gq, gq), legendre(-1, q) * (q * e1 - cp)),
        _compare("gamma_p_times_gauss_gq", mul(cp, gq), zero(n)),
        _compare("gamma_q_times_gauss_gp", mul(cq, gp), zero(n)),
        _compare("gamma_p_times_gamma_q", mul(cp, cq), gamma_total(n)),
    )
    return Lemma1Report(checks)


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
    primes = params.primes
    e = (-1) ** params.c - (-1) ** params.a - (-1) ** params.b
    gp, gq = gauss_gp(primes), gauss_gq(primes)
    h = (e * one(primes.n)
         + (-1) ** params.a * gamma_p(primes)
         + (-1) ** params.b * gamma_q(primes))
    s = h + mul(gp, gq)
    signs = sign_view(generate(params))
    if not np.array_equal(s.coeffs.astype(np.int64), signs):
        raise RuntimeError("sign polynomial decomposition does not match the sequence")
    return Decomposition(params, e, h, gp, gq, s)


@dataclass(frozen=True)
class CorrelationIdentityCheck:
    """Agreement of four routes to the autocorrelation vector: the symbolic
    product sigma(S)*S, its expanded closed form in the ring, the empirical
    shift-and-sum values, and the per-class closed form."""

    ok: bool
    failures: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def expanded_product_form(params: SequenceParams) -> GroupRingElement:
    """The expanded form of sigma(S)*S as an explicit ring element."""
    primes = params.primes
    p, q, n = primes.p, primes.q, primes.n
    e = (-1) ** params.c - (-1) ** params.a - (-1) ** params.b
    chi_minus1 = legendre(-1, p) * legendre(-1, q)
    return ((p * q + e * e) * one(n)
            + (q - p + 2 * e * (-1) ** params.a) * gamma_p(primes)
            + (p - q + 2 * e * (-1) ** params.b) * gamma_q(primes)
            + (1 + 2 * (-1) ** (params.a + params.b)) * gamma_total(n)
            + (e * (1 + chi_minus1)) * mul(gauss_gp(primes), gauss_gq(primes)))


def verify_correlation_identity(params: SequenceParams) -> CorrelationIdentityCheck:
    """Check that the group-ring product, its expanded form, the empirical
    autocorrelation, and the per-class closed form all agree at every shift."""
    dec = build_decomposition(params)
    product = mul(invert_support(dec.s), dec.s)
    expanded = expanded_product_form(params)
    emp = _autocorr.empirical_profile(generate(params))
    closed = _autocorr.closed_form_profile(params)

    failures = []
    prod64 = product.coeffs.astype(np.int64)
    if product != expanded:
        failures.append("product_vs_expanded")
    if not np.array_equal(prod64, emp):
        failures.append("product_vs_empirical")
    if not np.array_equal(prod64, closed):
        failures.append("product_vs_closed_form")
    return CorrelationIdentityCheck(not failures, tuple(failures))
