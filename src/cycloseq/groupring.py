"""Exact arithmetic in the integer group ring Z[Gamma], Gamma cyclic of order n = p*q.

One representation, the CRT tensor form: Z[Z_pq] is isomorphic to
Z[Z_p] (x) Z[Z_q], exponent k corresponding to (k mod p, k mod q) (the
Good-Thomas index map, ``sequence.crt_read``). A ``CrtElement`` is a sum of
rank-1 terms c * (u (x) v), and every object of the correlation theorem needs
at most four of them. Sigma, the automorphism x**k -> x**(-k), reverses each
factor, and a cyclic convolution u * s is the correlation of sigma(u) with s,
so a product (``mul``) is one call of the package's correlation kernel
``sequence._correlations`` per axis, which makes one length-p and one
length-q correlation per left term and packed group of right terms.
``CrtElement.dense()`` reads the coefficient vector indexed by exponent back
out through a ``CrtStack`` contraction, int64 matmuls over the distinct
factors. The dense O(n**2) ring survives only as the oracle of the
differential tests in ``tests/test_groupring.py``.

The module builds no sequence, no profile and no pair's blocks: its checks
compare the ``crt_blocks``, sequence and profiles they are handed, which
``cycloseq.cli`` builds once per pair and per instance. The same holds for
``crt_sign_products``, the 16 products sigma(atom k) * atom l of the four
atoms every sign form S is a combination of, stacked with the five blocks S
and its expanded form combine: ``cli`` builds them once per pair, and
``verify_correlation_identity`` forms each triple's sigma(S) * S, S and
expanded form as one weighted contraction each of those stacks, building no
``CrtElement``. ``verify_lemma1`` works on the primes: each Lemma-1 identity
is a tensor product of identities on Z_p and Z_q, which it checks at length
p and q, reading chi_p and chi_q from the blocks.

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
from .sequence import (BinarySequence, CheckResult, SequenceParams, _correlations,
                       crt_read, residue_table, sign_view)

_INT64_LIMIT = 1 << 63


def _reverse(u: np.ndarray) -> np.ndarray:
    """u[..., -i mod r]: sigma on one tensor factor, or on each row of a stack."""
    return np.concatenate((u[..., :1], u[..., :0:-1]), axis=-1)


def _products(lefts: list, rights: list, r: int) -> np.ndarray:
    """out[i, j] = lefts[i] * rights[j], the cyclic convolutions on Z_r: the
    correlation of sigma(u) with s is u * s, so this is one ``_correlations``
    call, one correlation per left factor and packed group of right ones."""
    return _correlations(_reverse(np.reshape(lefts, (-1, r))), np.reshape(rights, (-1, r)))


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
        return crt_read(self.primes, CrtStack(self).contract((1,) * len(self.terms)))


def _distinct_rows(rows: list, r: int) -> tuple:
    """(the distinct rows as an int64 array in order of first use, the index
    of each row in it as a list)."""
    stack = np.array(rows, dtype=np.int64).reshape(-1, r)
    position, keep, inverse = {}, [], []
    for k, row in enumerate(stack):
        key = row.tobytes()
        if key not in position:
            position[key] = len(keep)
            keep.append(k)
        inverse.append(position[key])
    return stack[keep], inverse


class CrtStack:
    """The terms of a ``CrtElement`` stacked once for many contractions.

    Each distinct factor is kept once: term k is
    ``coeffs[k] * (us[iu[k]] (x) vs[iv[k]])``, and ``bounds[k]`` is the
    product of its two factor bounds. The 16 sign products have only 6 or 7
    distinct factors on each side, so a contraction multiplies that many
    rows, not 16.
    """

    __slots__ = ("primes", "coeffs", "us", "iu", "vs", "iv", "bounds")

    def __init__(self, x: CrtElement):
        self.primes = x.primes
        self.coeffs = [t[0] for t in x.terms]
        self.us, self.iu = _distinct_rows([t[1] for t in x.terms], x.primes.p)
        self.vs, self.iv = _distinct_rows([t[2] for t in x.terms], x.primes.q)
        self.bounds = [bu * bv for _, _, _, bu, bv in x.terms]

    def contract(self, weights) -> np.ndarray:
        """The p x q grid of the sum of weights[k] * c_k * (u_k (x) v_k):
        the weights summed into a small matrix m, then us.T @ m @ vs in
        int64. The sum of |weights[k] * c_k| * bounds[k] bounds every
        partial sum, so it raises OverflowError once that reaches 2**63
        rather than let int64 wrap."""
        scaled = [w * c for w, c in zip(weights, self.coeffs, strict=True)]
        if sum(abs(s) * b for s, b in zip(scaled, self.bounds)) >= _INT64_LIMIT:
            raise OverflowError("dense coefficients could exceed int64")
        m = [[0] * len(self.vs) for _ in self.us]
        for i, j, s in zip(self.iu, self.iv, scaled):
            m[i][j] += s
        m = np.array(m, dtype=np.int64).reshape(len(self.us), len(self.vs))
        return (self.us.T @ m) @ self.vs


def _same_ring(x, y) -> None:
    """Refuse two objects (elements, stacks or params) of different pairs."""
    if x.primes != y.primes:
        raise ValueError("elements live in different group rings")


def mul(x: CrtElement, y: CrtElement) -> CrtElement:
    """Ring product: (u (x) v)(s (x) t) = (u*s) (x) (v*t), termwise. Once the
    bounds of every term pair are checked, one ``_products`` call per axis
    forms the factor products of all pairs."""
    _same_ring(x, y)
    p, q = x.primes.p, x.primes.q
    pairs = [(c * d, p * bu * bs, q * bv * bt)
             for c, _, _, bu, bv in x.terms for d, _, _, bs, bt in y.terms]
    if any(max(bound_u, bound_v) >= _INT64_LIMIT for _, bound_u, bound_v in pairs):
        raise OverflowError("product factors could exceed int64")
    us = _products([t[1] for t in x.terms], [t[1] for t in y.terms], p).reshape(-1, p)
    vs = _products([t[2] for t in x.terms], [t[2] for t in y.terms], q).reshape(-1, q)
    return CrtElement(x.primes, [(c, u, v, bu, bv) for (c, bu, bv), u, v
                                 in zip(pairs, us, vs, strict=True)])


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


def _forms(blocks: CrtBlocks) -> tuple:
    """The five blocks that S and the expanded form of sigma(S)*S combine:
    the four sign atoms, then total."""
    return (*_sign_atoms(blocks), blocks.total)


def _sign_coeffs(params: SequenceParams) -> tuple:
    """S's coefficients over the four sign atoms."""
    return params.e, (-1) ** params.a, (-1) ** params.b, 1


def _expanded_coeffs(params: SequenceParams) -> tuple:
    """The expanded form's coefficients over the five ``_forms``."""
    p, q, e = params.p, params.q, params.e
    chi_minus1 = legendre(-1, p) * legendre(-1, q)
    return (p * q + e * e, q - p + 2 * e * (-1) ** params.a,
            p - q + 2 * e * (-1) ** params.b, e * (1 + chi_minus1),
            1 + 2 * (-1) ** (params.a + params.b))


def _combination(elements: tuple, coeffs: tuple) -> CrtElement:
    return sum((c * x for c, x in zip(coeffs, elements, strict=True)),
               CrtElement(elements[0].primes))


def crt_sign_form(params: SequenceParams, blocks: CrtBlocks) -> CrtElement:
    """S = e*one + (-1)**a * gamma_p + (-1)**b * gamma_q + unit, the sign
    polynomial of S(a, b, c)."""
    return _combination(_sign_atoms(blocks), _sign_coeffs(params))


def crt_expanded_form(params: SequenceParams, blocks: CrtBlocks) -> CrtElement:
    """The expanded form of sigma(S)*S: (pq + e**2)*one
    + (q - p + 2e(-1)**a)*gamma_p + (p - q + 2e(-1)**b)*gamma_q
    + e(1 + (-1/p)(-1/q))*unit + (1 + 2(-1)**(a+b))*total."""
    return _combination(_forms(blocks), _expanded_coeffs(params))


def crt_sign_products(blocks: CrtBlocks) -> tuple:
    """(products, forms), the pair's two ``CrtStack``s for
    ``verify_correlation_identity``. Row 4k + l of products is
    sigma(atom k) * atom l of the four sign atoms, term for term as ``mul``
    builds sigma(A) * A for A their sum; forms are the five ``_forms``. Only
    the coefficients c of a sign form S = sum of c_k * atom k depend on the
    triple, so weighting row 4k + l by c_k * c_l contracts to sigma(S) * S,
    and weighting forms by the coefficients of S or of the expanded form
    contracts to that element."""
    primes = blocks.one.primes
    atoms = sum(_sign_atoms(blocks), CrtElement(primes))
    return (CrtStack(atoms.sigma() * atoms),
            CrtStack(sum(_forms(blocks), CrtElement(primes))))


def _factors(x: CrtElement) -> tuple:
    """(u, v) of a block, the one term 1 * (u (x) v)."""
    ((_, u, v, _, _),) = x.terms
    return u, v


def _lemma1_factors(blocks: CrtBlocks) -> tuple:
    """(name, (u, v), (s, t)) for each identity of ``crt_lemma1``, which is
    u (x) v == s (x) t. The left factors are products on Z_p and on Z_q of
    the factors of gauss_gp = chi_p (x) delta, gauss_gq = delta (x) chi_q,
    gamma_p = delta (x) J_q and gamma_q = J_p (x) delta, so each identity holds
    when its factor identities do: chi*chi = (-1/r)(r*delta - J), J*chi = 0,
    delta*delta = delta and delta*J = J."""
    p, q = blocks.one.primes.p, blocks.one.primes.q
    chi_p, _ = _factors(blocks.gauss_gp)
    _, chi_q = _factors(blocks.gauss_gq)
    delta_p, j_q = _factors(blocks.gamma_p)
    j_p, delta_q = _factors(blocks.gamma_q)
    # Every product of two of delta, J and chi on each prime, indexed in that order.
    on_p = _products([delta_p, j_p, chi_p], [delta_p, j_p, chi_p], p)
    on_q = _products([delta_q, j_q, chi_q], [delta_q, j_q, chi_q], q)
    return (
        ("gauss_gp_squared", (on_p[2, 2], on_q[0, 0]),
         (legendre(-1, p) * (p * delta_p - j_p), delta_q)),
        ("gauss_gq_squared", (on_p[0, 0], on_q[2, 2]),
         (delta_p, legendre(-1, q) * (q * delta_q - j_q))),
        ("gamma_p_times_gauss_gq", (on_p[0, 0], on_q[1, 2]), (delta_p, 0 * j_q)),
        ("gamma_q_times_gauss_gp", (on_p[1, 2], on_q[0, 0]), (0 * j_p, delta_q)),
        ("gamma_p_times_gamma_q", (on_p[0, 1], on_q[1, 0]), (j_p, j_q)),
    )


def verify_lemma1(blocks: CrtBlocks) -> CheckResult:
    """Coefficient-exact check of the five identities of ``crt_lemma1`` over the
    pair's ``crt_blocks``, on the primes: each identity is checked through its
    factor identities on Z_p and on Z_q (``_lemma1_factors``), length-p and
    length-q work. Only where a factor identity fails is the p x q difference
    u (x) v - s (x) t formed; the detail names the first identity that
    differs there and its smallest exponent in Z_n."""
    primes = blocks.one.primes
    for name, (u, v), (s, t) in _lemma1_factors(blocks):
        if np.array_equal(u, s) and np.array_equal(v, t):
            continue
        diff = np.flatnonzero(crt_read(primes, np.outer(u, v) - np.outer(s, t)))
        if len(diff):
            return CheckResult("lemma1", False,
                               f"{name} first differs at exponent {diff[0]}")
    return CheckResult("lemma1", True)


def verify_correlation_identity(products: tuple, seq: BinarySequence,
                                emp: np.ndarray, closed: np.ndarray) -> CheckResult:
    """Check that the group-ring product sigma(S)*S, its expanded form, the
    empirical autocorrelation ``emp`` and the per-class closed form ``closed``
    of ``seq`` all agree at every shift; the detail lists each route that
    differs from the product, after ``sign_form_vs_sequence`` when the sign
    form S is not the sign vector of ``seq``. ``products`` is the pair's
    ``crt_sign_products``: sigma(S)*S, S and the expanded form are one
    contraction each of its stacks, weighted by the triple's coefficients.
    """
    params = seq.params
    sign_products, forms = products
    _same_ring(forms, params)
    coeffs = _sign_coeffs(params)
    product = sign_products.contract([c_k * c_l for c_k in coeffs for c_l in coeffs])
    expanded = forms.contract(_expanded_coeffs(params))
    sign = crt_read(params.primes, forms.contract(coeffs + (0,)))

    failures = []
    if not np.array_equal(sign, sign_view(seq)):
        failures.append("sign_form_vs_sequence")
    if not np.array_equal(product, expanded):  # both p x q grids
        failures.append("product_vs_expanded")
    product = crt_read(params.primes, product)
    if not np.array_equal(product, emp):
        failures.append("product_vs_empirical")
    if not np.array_equal(product, closed):
        failures.append("product_vs_closed_form")
    return CheckResult("correlation_identity", not failures, "; ".join(failures))
