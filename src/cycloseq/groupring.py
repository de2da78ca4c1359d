"""Exact arithmetic in the integer group ring Z[Gamma], Gamma cyclic of order n = p*q.

One representation, the CRT tensor form: Z[Z_pq] is isomorphic to
Z[Z_p] (x) Z[Z_q], exponent k corresponding to (k mod p, k mod q) (the
Good-Thomas index map, ``sequence.crt_read``). A ``CrtElement`` is a sum of
rank-1 terms c * (u (x) v). Sigma, the automorphism x**k -> x**(-k),
reverses each factor, and a cyclic convolution u * s is the correlation of
sigma(u) with s, so a product (``mul``) is one call of the package's
correlation kernel ``sequence._correlations`` per axis.

The checks work in a smaller basis. Every object of the correlation theorem
lies in A_p (x) A_q, where A_r is spanned by delta (x**0), J (the sum of
Z_r) and chi (the quadratic character ``residue_table(r)``). Per prime,
``crt_factors`` stacks B_r = (delta, J, chi) and makes one kernel call with
lefts (delta, J, chi, sigma(chi)) and rights B_r. As the correlation of x
with y is sigma(x) * y, that call holds every b_i * b_k, the factors of the
Lemma-1 identities, and every sigma(b_i) * b_k, of which sigma(S) * S is a
combination. No value of sigma(chi) is assumed, so with a faulty chi the
table holds the true products of the character it was handed.
``cycloseq.cli`` builds the table once per pair: ``verify_lemma1`` reads its
factor identities off it, and ``verify_correlation_identity`` forms each
triple's sigma(S) * S, S and expanded form as one contraction each, with
3 x 3 coefficient matrices over the basis pairs b_i (x) b_j.

Every int64 contraction here is ``_contract(us, m, vs)``, the p x q grid
us.T @ m @ vs, and its bound comes from the data: it raises OverflowError
once the sum of |m_ij| * peak u_i * peak v_j reaches 2**63, the peak of a
row being its largest |entry|, floored at 1. The table keeps the peaks of
its stacks, so a pair computes them once. The kernel refuses its own
products from the data alike, so no term carries a bound. The dense
O(n**2) ring is only the oracle of the tests in ``tests/test_groupring.py``.

Naming note for the quadratic character sums, which cross over on purpose:
``gamma_p`` is the subgroup sum over multiples of p (q terms), while
``gauss_gp`` is supported on the multiples of q, carrying the Legendre symbols
mod p of its exponents (p - 1 nonzero terms). Likewise for the q variants.
This matches the algebraic role of each object: gauss_gp squares to
(-1/p) * (p*one - gamma_q).
"""

import operator
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


class _Rows(NamedTuple):
    """Int64 rows of one length and the peak of each: its largest |entry|,
    floored at 1, as a Python int."""

    rows: np.ndarray
    peaks: list


def _stack(vectors, r: int) -> _Rows:
    """The vectors as one int64 stack of length-r rows, with its row peaks;
    |entry| is read as uint64, so that |-2**63| does not wrap."""
    rows = np.array(vectors, dtype=np.int64).reshape(-1, r)
    return _Rows(rows, np.abs(rows).view(np.uint64).max(axis=1, initial=1).tolist())


def _contract(us: _Rows, m: list, vs: _Rows) -> np.ndarray:
    """The p x q grid of the sum of m[i][j] * (u_i (x) v_j), us.T @ m @ vs in
    int64, for m a matrix of Python ints. The sum of |m[i][j]| * peak u_i *
    peak v_j bounds every partial sum of both products (the floor of 1 on
    the peaks covers us.T @ m), so it raises OverflowError once that reaches
    2**63 rather than let int64 wrap."""
    rows = [sum(map(operator.mul, map(abs, row), vs.peaks)) for row in m]
    if sum(map(operator.mul, rows, us.peaks)) >= _INT64_LIMIT:
        raise OverflowError("dense coefficients could exceed int64")
    m = np.array(m, dtype=np.int64).reshape(len(us.peaks), len(vs.peaks))
    return (us.rows.T @ m) @ vs.rows


class CrtElement:
    """Element of Z[Z_p] (x) Z[Z_q] as a sum of rank-1 terms c * (u (x) v).

    ``terms`` holds (c, u, v): c a Python int, u an int64 vector over Z_p
    and v one over Z_q. No term carries a bound. ``mul`` leaves its factor
    products to the correlation kernel, which refuses any that could leave
    int64 from the factors' entries, and ``dense()`` is one ``_contract``,
    which refuses from the coefficients and the factors' peaks. So a chain
    of products is refused only when its values could overflow. Two elements
    are equal when their dense coefficients are.
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
        return CrtElement(self.primes, [(k * c, u, v) for c, u, v in self.terms])

    def __mul__(self, other: "CrtElement") -> "CrtElement":
        return mul(self, other)

    def sigma(self) -> "CrtElement":
        """x**k -> x**(-k), which reverses each factor."""
        return CrtElement(self.primes, [(c, _reverse(u), _reverse(v))
                                        for c, u, v in self.terms])

    def dense(self) -> np.ndarray:
        """Coefficient of x**k for k in [0, n), read at (k mod p, k mod q): one
        ``_contract`` with the coefficients on the diagonal of m."""
        coeffs = [c for c, _, _ in self.terms]
        m = [[c if i == j else 0 for j in range(len(coeffs))]
             for i, c in enumerate(coeffs)]
        return crt_read(self.primes, _contract(
            _stack([u for _, u, _ in self.terms], self.primes.p), m,
            _stack([v for _, _, v in self.terms], self.primes.q)))


def _same_ring(x, y) -> None:
    """Refuse two objects (elements, tables or params) of different pairs."""
    if x.primes != y.primes:
        raise ValueError("elements live in different group rings")


def mul(x: CrtElement, y: CrtElement) -> CrtElement:
    """Ring product: (u (x) v)(s (x) t) = (u*s) (x) (v*t), termwise. One
    ``_products`` call per axis forms the factor products of all term pairs,
    and the kernel refuses any that could leave int64."""
    _same_ring(x, y)
    p, q = x.primes.p, x.primes.q
    us = _products([t[1] for t in x.terms], [t[1] for t in y.terms], p).reshape(-1, p)
    vs = _products([t[2] for t in x.terms], [t[2] for t in y.terms], q).reshape(-1, q)
    coeffs = [c * d for c, _, _ in x.terms for d, _, _ in y.terms]
    return CrtElement(x.primes, zip(coeffs, us, vs, strict=True))


def dump(u: CrtElement) -> str:
    """One 'exponent: coefficient' line per nonzero term, sorted by exponent."""
    coeffs = u.dense()
    return "\n".join(f"{k}: {coeffs[k]}" for k in np.flatnonzero(coeffs))


def _rank1(primes: OddPrimePair, u: np.ndarray, v: np.ndarray) -> CrtElement:
    """1 * (u (x) v) for int64 factors with entries in {-1, 0, 1}."""
    return CrtElement(primes, [(1, u, v)])


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


def _sign_matrix(params: SequenceParams) -> list:
    """C, S's coefficients: S = sum of C[i][j] * (b_i (x) b_j) over the basis
    (delta, J, chi) on each prime; entries (0, 0), (0, 1), (1, 0), (1, 1) and
    (2, 2) weigh the blocks one, gamma_p, gamma_q, total and unit."""
    return [[params.e, (-1) ** params.a, 0], [(-1) ** params.b, 0, 0], [0, 0, 1]]


def _expanded_matrix(params: SequenceParams) -> list:
    """E, the expanded form's coefficients over the same basis pairs."""
    p, q, e = params.p, params.q, params.e
    sign_a, sign_b = (-1) ** params.a, (-1) ** params.b
    chi_minus1 = legendre(-1, p) * legendre(-1, q)
    return [[p * q + e * e, q - p + 2 * e * sign_a, 0],
            [p - q + 2 * e * sign_b, 1 + 2 * sign_a * sign_b, 0],
            [0, 0, e * (1 + chi_minus1)]]


def _element(blocks: CrtBlocks, matrix: list) -> CrtElement:
    """The sum of matrix[i][j] * (b_i (x) b_j) over (delta, J, chi) on each
    prime, read off the rank-1 blocks."""
    ((_, delta_p, j_q),) = blocks.gamma_p.terms
    ((_, j_p, delta_q),) = blocks.gamma_q.terms
    ((_, chi_p, _),) = blocks.gauss_gp.terms
    ((_, _, chi_q),) = blocks.gauss_gq.terms
    on_p, on_q = (delta_p, j_p, chi_p), (delta_q, j_q, chi_q)
    return CrtElement(blocks.one.primes, [(c, on_p[i], on_q[j])
                                          for i, row in enumerate(matrix)
                                          for j, c in enumerate(row) if c])


def crt_sign_form(params: SequenceParams, blocks: CrtBlocks) -> CrtElement:
    """S = e*one + (-1)**a * gamma_p + (-1)**b * gamma_q + unit, the sign
    polynomial of S(a, b, c)."""
    return _element(blocks, _sign_matrix(params))


def crt_expanded_form(params: SequenceParams, blocks: CrtBlocks) -> CrtElement:
    """The expanded form of sigma(S)*S: (pq + e**2)*one
    + (q - p + 2e(-1)**a)*gamma_p + (p - q + 2e(-1)**b)*gamma_q
    + e(1 + (-1/p)(-1/q))*unit + (1 + 2(-1)**(a+b))*total."""
    return _element(blocks, _expanded_matrix(params))


class PrimeFactors(NamedTuple):
    """One prime's part of ``crt_factors``, over the basis (delta, J, chi)."""

    basis: _Rows           # delta, J, chi
    products: np.ndarray   # [i, k] = b_i * b_k
    sigma_products: _Rows  # row 3i + k = sigma(b_i) * b_k


class CrtFactors(NamedTuple):
    """The pair's product table, one ``PrimeFactors`` per prime."""

    primes: OddPrimePair
    on_p: PrimeFactors
    on_q: PrimeFactors


def _prime_factors(chi: np.ndarray) -> PrimeFactors:
    """The table of one prime r = len(chi) for the character ``chi``: one
    kernel call correlates (delta, J, chi, sigma(chi)) with (delta, J, chi),
    and the correlation of x with y is sigma(x) * y."""
    r = len(chi)
    basis = np.stack((_delta(r), np.ones(r, dtype=np.int64), chi))
    table = _correlations(np.vstack((basis, _reverse(chi))), basis)
    return PrimeFactors(_stack(basis, r), table[[0, 1, 3]], _stack(table[:3], r))


def crt_factors(primes: OddPrimePair) -> CrtFactors:
    """The pair's table for ``verify_lemma1`` and ``verify_correlation_identity``;
    chi_r is ``residue_table(r)``."""
    return CrtFactors(primes, _prime_factors(_chi(primes.p)),
                      _prime_factors(_chi(primes.q)))


def verify_lemma1(factors: CrtFactors) -> CheckResult:
    """Coefficient-exact check of the five identities of ``crt_lemma1``, on the
    primes. gauss_gp = chi_p (x) delta, gauss_gq = delta (x) chi_q,
    gamma_p = delta (x) J_q and gamma_q = J_p (x) delta, so each identity
    u (x) v == s (x) t holds when its factor identities u == s and v == t
    do: chi*chi = (-1/r)(r*delta - J), J*chi = 0, delta*delta = delta and
    delta*J = J, with every left side read off the pair's ``crt_factors``.
    Only where a factor identity fails is the p x q difference
    u (x) v - s (x) t formed; the detail names the first identity that
    differs there and its smallest exponent in Z_n."""
    primes = factors.primes
    p, q = primes.p, primes.q
    delta_p, j_p, _ = factors.on_p.basis.rows
    delta_q, j_q, _ = factors.on_q.basis.rows
    on_p, on_q = factors.on_p.products, factors.on_q.products
    for name, (u, v), (s, t) in (
            ("gauss_gp_squared", (on_p[2, 2], on_q[0, 0]),
             (legendre(-1, p) * (p * delta_p - j_p), delta_q)),
            ("gauss_gq_squared", (on_p[0, 0], on_q[2, 2]),
             (delta_p, legendre(-1, q) * (q * delta_q - j_q))),
            ("gamma_p_times_gauss_gq", (on_p[0, 0], on_q[1, 2]), (delta_p, 0 * j_q)),
            ("gamma_q_times_gauss_gp", (on_p[1, 2], on_q[0, 0]), (0 * j_p, delta_q)),
            ("gamma_p_times_gamma_q", (on_p[0, 1], on_q[1, 0]), (j_p, j_q))):
        if np.array_equal(u, s) and np.array_equal(v, t):
            continue
        grid = _contract(_stack([u, s], p), [[1, 0], [0, -1]], _stack([v, t], q))
        diff = np.flatnonzero(crt_read(primes, grid))
        if len(diff):
            return CheckResult("lemma1", False,
                               f"{name} first differs at exponent {diff[0]}")
    return CheckResult("lemma1", True)


def verify_correlation_identity(factors: CrtFactors, seq: BinarySequence,
                                emp: np.ndarray, closed: np.ndarray) -> CheckResult:
    """Check that the group-ring product sigma(S)*S, its expanded form, the
    empirical autocorrelation ``emp`` and the per-class closed form ``closed``
    of ``seq`` all agree at every shift; the detail lists each route that
    differs from the product, after ``sign_form_vs_sequence`` when the sign
    form S is not the sign vector of ``seq``. ``factors`` is the pair's
    ``crt_factors``. With B_r its basis stacks, T_r its sigma-product stacks
    and C and E the coefficient matrices of S and of the expanded form,
    S = B_p.T C B_q, the expanded form is B_p.T E B_q and
    sigma(S)*S = T_p.T (C (x) C) T_q: three contractions.
    """
    params = seq.params
    _same_ring(factors, params)
    on_p, on_q = factors.on_p, factors.on_q
    coeffs = _sign_matrix(params)
    # Row 3i + k, column 3j + l: C[i][j] * C[k][l], the weight of
    # (sigma(b_i) * b_k) (x) (sigma(b_j) * b_l) in sigma(S) * S.
    kron = [[x * y for x in row_i for y in row_k]
            for row_i in coeffs for row_k in coeffs]
    product = _contract(on_p.sigma_products, kron, on_q.sigma_products)
    expanded = _contract(on_p.basis, _expanded_matrix(params), on_q.basis)
    sign = crt_read(params.primes, _contract(on_p.basis, coeffs, on_q.basis))

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
