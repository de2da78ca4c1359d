"""Exact arithmetic in the integer group ring Z[Gamma], Gamma cyclic of order n = p*q.

One representation, the CRT tensor form: Z[Z_pq] is isomorphic to
Z[Z_p] (x) Z[Z_q], exponent k corresponding to (k mod p, k mod q) (the
Good-Thomas index map, ``sequence.crt_read``), so the coefficients form a
p x q grid, which ``dense()`` reads in Z_n order. A ``CrtElement`` is a
triple (U, M, V), the sum of M[i][j] * (u_i (x) v_j) over a stack U of rows
on Z_p, a stack V on Z_q and an integer matrix M, diagonal for a rank-1 sum.
Sigma, x**k -> x**(-k), reverses every row. A cyclic convolution u * s is
the correlation of sigma(u) with s, so a product (``mul``) is one call of
the correlation kernel ``sequence._correlations`` per axis, under M (x) M'.

Every object of the correlation theorem lies in A_p (x) A_q, A_r spanned by
delta (x**0), J (the sum of Z_r) and chi (``residue_table(r)``). The named
blocks b_i (x) b_j (``gamma_p``, ``gauss_gp``, ...) are rows of the stacks
B_r = (delta, J, chi) of ``crt_basis``, and S(a, b, c)'s sign form and the
expanded form of sigma(S) * S are B_p and B_q under 3 x 3 matrices C and E.
A product's stacks depend only on its factors' stacks, so the checks read
one table per pair, ``crt_factors``: the ``mul`` of (delta, J, sigma(chi),
chi) by B, which holds every sigma(b_i) * b_k and chi * b_k with no value of
sigma(chi) assumed. ``verify_lemma1`` reads its factor identities off it,
and ``verify_correlation_identity`` contracts its sigma(b_i) * b_k rows
under C (x) C, the rows and weights of ``S.sigma() * S``: for a stack of
triples, under the stacked C (x) C, one contraction for the whole stack.

Every int64 contraction here is ``_contract(us, ms, vs)``, the (k, p, q)
stack of the grids us.T @ m @ vs of a stack of k matrices m, which raises
OverflowError where a bound read from the rows it is given reaches 2**63;
the kernel refuses its own products alike, so no row carries a bound. The
dense O(n**2) ring is only the tests' oracle.

Naming note for the quadratic character sums, which cross over on purpose:
``gamma_p`` is the subgroup sum over multiples of p (q terms), while
``gauss_gp`` is supported on the multiples of q, carrying the Legendre symbols
mod p of its exponents (p - 1 nonzero terms). Likewise for the q variants.
This matches the algebraic role of each object: gauss_gp squares to
(-1/p) * (p*one - gamma_q).
"""

import operator

import numpy as np

from .numtheory import OddPrimePair
from .sequence import (CheckResult, SequenceParams, _correlations, crt_read,
                       first_difference, residue_table)

_INT64_LIMIT = 1 << 63


def _reverse(u: np.ndarray) -> np.ndarray:
    """u[..., -i mod r]: sigma on one tensor factor, or on each row of a stack."""
    return np.concatenate((u[..., :1], u[..., :0:-1]), axis=-1)


def _stack(vectors, r: int) -> np.ndarray:
    """The vectors as one int64 stack of length-r rows; an entry that is not
    integral is refused rather than truncated."""
    raw = np.asarray(vectors)
    with np.errstate(invalid="ignore"):  # an entry int64 cannot hold is refused below
        rows = raw.astype(np.int64).reshape(-1, r)
    if raw.dtype.kind not in "biu" and np.any(rows != raw.reshape(-1, r)):
        raise ValueError("a ring element's rows must be integers")
    return rows


def _peaks(rows: np.ndarray) -> list:
    """The peak of each row, its largest |entry| floored at 1, as Python
    ints; |entry| is read as uint64, so that |-2**63| does not wrap."""
    return np.abs(rows).view(np.uint64).max(axis=1, initial=1).tolist()


def _integer(x) -> int:
    """x as a Python int, refused rather than truncated if it is not integral."""
    if int(x) != x:
        raise ValueError(f"a ring element's coefficients must be integers, not {x!r}")
    return int(x)


def _contract(us: np.ndarray, ms, vs: np.ndarray) -> np.ndarray:
    """The (k, p, q) stack of the grids of the sums of m[i][j] * (u_i (x) v_j)
    over a stack ms of k integer matrices, us.T @ m @ vs in int64 for each m.
    With the peaks read from us and vs at the call, for each m the sum of
    |m[i][j]| * peak u_i * peak v_j, in Python ints, bounds every partial sum
    of both products (the floor of 1 on the peaks covers us.T @ m), so it
    raises OverflowError once that reaches 2**63 for any m of the stack
    rather than let int64 wrap. Those sums are formed only when the largest
    |entry| of the stack times the sums of the peaks, which bounds them all,
    reaches 2**63; an entry that int64 cannot hold is past both."""
    try:
        ms = np.asarray(ms, dtype=np.int64).reshape(len(ms), len(us), len(vs))
    except OverflowError:
        raise OverflowError("dense coefficients could exceed int64") from None
    u_peaks, v_peaks = _peaks(us), _peaks(vs)
    if max(-int(ms.min(initial=0)), int(ms.max(initial=0))) * sum(u_peaks) * sum(
            v_peaks) >= _INT64_LIMIT:
        for m in ms.tolist():
            rows = [sum(map(operator.mul, map(abs, row), v_peaks)) for row in m]
            if sum(map(operator.mul, rows, u_peaks)) >= _INT64_LIMIT:
                raise OverflowError("dense coefficients could exceed int64")
    return (us.T @ ms) @ vs


def _kron(m, m2) -> tuple:
    """m (x) m2 in Python ints: entry [i*len(m2) + k][j*len(m2[0]) + l] is
    m[i][j] * m2[k][l]."""
    # Built from lists: CPython builds a tuple of a generator by resizing it,
    # and the resized tuples, once freed, pile up on its free lists.
    return tuple([tuple([x * y for x in row for y in row2]) for row in m for row2 in m2])


class CrtElement:
    """Element of Z[Z_p] (x) Z[Z_q]: the sum of m[i][j] * (u_i (x) v_j).

    ``us`` and ``vs`` are int64 arrays, the rows u_i over Z_p and v_j over
    Z_q (vectors given are stacked); ``m`` is a matrix of Python ints, and
    the empty default is 0. ``mul``'s kernel refuses a row product that could
    leave int64 from the rows' entries, and ``dense()``'s ``_contract`` from
    m and the rows' peaks, so a chain of products is refused only when its
    values could overflow. Two elements are equal when their dense
    coefficients are.
    """

    __slots__ = ("primes", "us", "m", "vs")

    def __init__(self, primes: OddPrimePair, us=(), m=(), vs=()):
        self._fill(primes, _stack(us, primes.p), tuple([tuple(map(_integer, row)) for row in m]),
                   _stack(vs, primes.q))

    @classmethod
    def _of(cls, primes: OddPrimePair, us: np.ndarray, m: tuple,
            vs: np.ndarray) -> "CrtElement":
        """The element of int64 stacks and a tuple matrix of Python ints that
        an operation has formed, taken as they are."""
        element = cls.__new__(cls)
        element._fill(primes, us, m, vs)
        return element

    def _fill(self, primes, us, m, vs) -> None:
        if len(m) != len(us) or any(len(row) != len(vs) for row in m):
            raise ValueError("the coefficient matrix does not fit the stacks")
        self.primes, self.us, self.m, self.vs = primes, us, m, vs

    @property
    def order(self) -> int:
        return self.primes.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrtElement):
            return NotImplemented
        return (self.primes == other.primes
                and bool(np.array_equal(self.dense(), other.dense())))

    def __add__(self, other: "CrtElement") -> "CrtElement":
        """Both stacks stacked, under the block-diagonal matrix of the two."""
        if not isinstance(other, CrtElement):
            return NotImplemented
        _same_ring(self, other)
        left, right = len(self.vs), len(other.vs)
        m = tuple([row + (0,) * right for row in self.m] + [(0,) * left + row for row in other.m])
        return CrtElement._of(self.primes, np.vstack((self.us, other.us)), m,
                              np.vstack((self.vs, other.vs)))

    def __sub__(self, other: "CrtElement") -> "CrtElement":
        if not isinstance(other, CrtElement):
            return NotImplemented
        return self + -1 * other

    def __rmul__(self, k: int) -> "CrtElement":
        return CrtElement(self.primes, self.us, [[k * c for c in row] for row in self.m], self.vs)

    def __mul__(self, other: "CrtElement") -> "CrtElement":
        if not isinstance(other, CrtElement):
            return NotImplemented
        return mul(self, other)

    def sigma(self) -> "CrtElement":
        """x**k -> x**(-k), which reverses every row."""
        return CrtElement._of(self.primes, _reverse(self.us), self.m, _reverse(self.vs))

    def dense(self) -> np.ndarray:
        """Coefficient of x**k for k in [0, n), read at (k mod p, k mod q) of
        the grid of one ``_contract``: the element's Z_n order, for output."""
        return crt_read(self.primes, _contract(self.us, (self.m,), self.vs)[0])


def _same_ring(x, y) -> None:
    """Refuse two objects (elements or params) of different pairs."""
    if x.primes != y.primes:
        raise ValueError("elements live in different group rings")


def mul(x: CrtElement, y: CrtElement) -> CrtElement:
    """Ring product: (u (x) v)(s (x) t) = (u*s) (x) (v*t). One
    ``_correlations`` call per axis forms the products of all row pairs, the
    correlation of sigma(u_i) with s_k being u_i * s_k, at row
    i * len(y.us) + k, and the weights are x.m (x) y.m; the kernel
    refuses any product that could leave int64."""
    if not (isinstance(x, CrtElement) and isinstance(y, CrtElement)):
        raise ValueError(f"mul takes two group-ring elements, not "
                         f"{type(x).__name__} and {type(y).__name__}")
    _same_ring(x, y)
    p, q = x.primes.p, x.primes.q
    us = _correlations(_reverse(x.us), y.us).reshape(-1, p)
    vs = _correlations(_reverse(x.vs), y.vs).reshape(-1, q)
    return CrtElement._of(x.primes, us, _kron(x.m, y.m), vs)


def dump(u: CrtElement) -> str:
    """One 'exponent: coefficient' line per nonzero term, sorted by exponent."""
    coeffs = u.dense()
    return "\n".join(f"{k}: {coeffs[k]}" for k in np.flatnonzero(coeffs))


def crt_basis(primes: OddPrimePair) -> CrtElement:
    """The stacks B_r = (delta, J, chi) of each prime under the identity;
    chi_r is ``residue_table(r)``."""
    def stack(r):
        return [np.eye(1, r, dtype=np.int64)[0], np.ones(r, dtype=np.int64), residue_table(r)]

    return CrtElement(primes, stack(primes.p), np.eye(3, dtype=np.int64), stack(primes.q))


def _block(basis: CrtElement, i: int, j: int) -> CrtElement:
    """b_i (x) b_j: row i of ``basis``'s stack on Z_p, row j of its stack on
    Z_q, under [[1]]."""
    return CrtElement._of(basis.primes, basis.us[i:i + 1], ((1,),), basis.vs[j:j + 1])


def gamma_p(primes: OddPrimePair) -> CrtElement:
    """Subgroup sum over multiples of p: q terms 1 + x**p + ... + x**((q-1)p)."""
    return _block(crt_basis(primes), 0, 1)


def gamma_q(primes: OddPrimePair) -> CrtElement:
    """Subgroup sum over multiples of q: p terms 1 + x**q + ... + x**((p-1)q)."""
    return _block(crt_basis(primes), 1, 0)


def gauss_gp(primes: OddPrimePair) -> CrtElement:
    """Quadratic character sum mod p, supported on multiples of q."""
    return _block(crt_basis(primes), 2, 0)


def gauss_gq(primes: OddPrimePair) -> CrtElement:
    """Quadratic character sum mod q, supported on multiples of p."""
    return _block(crt_basis(primes), 0, 2)


def _lemma1(stacks: CrtElement) -> list:
    """(name, (i, j), (k, l), s, t) of each Lemma-1 identity
    (b_i (x) b_j)(b_k (x) b_l) == s (x) t, s and t read off rows 0-2 of
    ``stacks``, (delta, J, chi) in ``crt_basis`` and ``crt_factors`` alike:

    gauss_gp**2 == (-1/p) * (p*one - gamma_q)
    gauss_gq**2 == (-1/q) * (q*one - gamma_p)
    gamma_p * gauss_gq == 0,  gamma_q * gauss_gp == 0
    gamma_p * gamma_q == sum over the whole group
    """
    p, q = stacks.primes.p, stacks.primes.q
    eps_p, eps_q = stacks.primes.epsilons
    (delta_p, j_p, _), (delta_q, j_q, _) = stacks.us[:3], stacks.vs[:3]
    return [
        ("gauss_gp_squared", (2, 0), (2, 0), eps_p * (p * delta_p - j_p), delta_q),
        ("gauss_gq_squared", (0, 2), (0, 2), delta_p, eps_q * (q * delta_q - j_q)),
        ("gamma_p_times_gauss_gq", (0, 1), (0, 2), delta_p, 0 * j_q),
        ("gamma_q_times_gauss_gp", (1, 0), (2, 0), 0 * j_p, delta_q),
        ("gamma_p_times_gamma_q", (0, 1), (1, 0), j_p, j_q),
    ]


def crt_lemma1(basis: CrtElement) -> tuple:
    """(name, left side, right side) of each of the five Lemma-1 identities of
    ``_lemma1`` as elements, the named blocks read off ``basis``."""
    return tuple((name, _block(basis, *x) * _block(basis, *y),
                  CrtElement(basis.primes, [s], [[1]], [t]))
                 for name, x, y, s, t in _lemma1(basis))


def _sign_matrix(params: SequenceParams) -> list:
    """C, S's coefficients: S = sum of C[i][j] * (b_i (x) b_j) over the basis
    (delta, J, chi) on each prime; entries (0, 0), (0, 1), (1, 0), (1, 1) and
    (2, 2) weigh the blocks one, gamma_p, gamma_q, total and unit."""
    return [[params.e, (-1) ** params.a, 0], [(-1) ** params.b, 0, 0], [0, 0, 1]]


def _expanded_matrix(params: SequenceParams) -> list:
    """E, the expanded form's coefficients over the same basis pairs."""
    p, q, e = params.p, params.q, params.e
    sign_a, sign_b = (-1) ** params.a, (-1) ** params.b
    eps_p, eps_q = params.primes.epsilons
    return [[p * q + e * e, q - p + 2 * e * sign_a, 0],
            [p - q + 2 * e * sign_b, 1 + 2 * sign_a * sign_b, 0],
            [0, 0, e * (1 + eps_p * eps_q)]]


def crt_sign_form(params: SequenceParams, basis: CrtElement) -> CrtElement:
    """S = e*one + (-1)**a * gamma_p + (-1)**b * gamma_q + unit, the sign
    polynomial of S(a, b, c): ``basis``'s stacks under C."""
    return CrtElement(basis.primes, basis.us, _sign_matrix(params), basis.vs)


def crt_expanded_form(params: SequenceParams, basis: CrtElement) -> CrtElement:
    """The expanded form of sigma(S)*S: (pq + e**2)*one
    + (q - p + 2e(-1)**a)*gamma_p + (p - q + 2e(-1)**b)*gamma_q
    + e(1 + (-1/p)(-1/q))*unit + (1 + 2(-1)**(a+b))*total, ``basis``'s stacks
    under E."""
    return CrtElement(basis.primes, basis.us, _expanded_matrix(params), basis.vs)


def crt_factors(basis: CrtElement) -> CrtElement:
    """The pair's table for ``verify_lemma1`` and ``verify_correlation_identity``,
    one ``mul`` of sigma(B) + chi (x) chi, whose stacks are the lefts
    (delta, J, sigma(chi), chi), by B, the stacks of ``basis`` (``crt_basis``
    or any element on stacks (delta, J, chi)). So row 3i + k of each stack is
    sigma(b_i) * b_k for i < 3, rows 0-2 being B, and row 9 + k is chi * b_k."""
    return mul(basis.sigma() + _block(basis, 2, 2), basis)


def verify_lemma1(factors: CrtElement) -> CheckResult:
    """Coefficient-exact check of the identities of ``crt_lemma1`` on the
    primes: (b_i (x) b_j)(b_k (x) b_l) == s (x) t holds when b_i * b_k == s
    and b_j * b_l == t, each left side read off the pair's ``crt_factors``.
    Only where one fails are both sides' p x q grids formed; the detail names
    the first identity that differs and its least exponent there."""
    primes = factors.primes
    left = (0, 1, 3)  # b_i is left[i] of (delta, J, sigma(chi), chi)
    for name, (i, j), (k, l), s, t in _lemma1(factors):
        u, v = factors.us[3 * left[i] + k], factors.vs[3 * left[j] + l]
        if np.array_equal(u, s) and np.array_equal(v, t):
            continue
        grids = _contract(_stack([u, s], primes.p), ([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
                          _stack([v, t], primes.q))
        if not np.array_equal(*grids):
            return CheckResult("lemma1", False, f"{name} first differs at exponent "
                                                f"{first_difference(*grids)[0]}")
    return CheckResult("lemma1", True)


def verify_correlation_identity(factors: CrtElement, params, bits, emp: np.ndarray,
                                closed: np.ndarray):
    """Check that the group-ring product sigma(S)*S of ``params``, its
    expanded form, the empirical autocorrelation ``emp`` and the per-class
    closed form ``closed`` all agree at every shift; the detail lists each
    route that differs from the product, after ``sign_form_vs_sequence`` when
    S is not the sign grid of the p x q ``bits``. ``factors`` is the pair's
    ``crt_factors``: with B_r its rows 0-2, T_r its sigma(b_i) * b_k rows
    0-8 and C and E the matrices of S and of the expanded form, S is
    B_p.T C B_q, the expanded form B_p.T E B_q and sigma(S)*S
    T_p.T (C (x) C) T_q, as ``S.sigma() * S`` forms it.

    Given a sequence of k params of the pair, with the grids ``bits``,
    ``emp`` and ``closed`` their (k, p, q) stacks, it checks all k in one
    pass, one ``CheckResult`` each in a list: one ``_contract`` of the
    stacked C (x) C and one of the stacked E and C. Every route is compared
    on the grid, S against 1 - 2 * bits in a dtype that holds it exactly.
    """
    one = isinstance(params, SequenceParams)
    stack = (params,) if one else tuple(params)
    if not stack:
        return []
    bits = np.asarray(bits)
    bits, emp, closed = (bits[None], emp[None], closed[None]) if one else (bits, emp, closed)
    primes = factors.primes
    for x in stack:
        _same_ring(factors, x)
    k = len(stack)
    coeffs = np.array([_sign_matrix(x) for x in stack], dtype=np.int64)
    kron = (coeffs[:, :, None, :, None] * coeffs[:, None, :, None, :]).reshape(k, 9, 9)
    product = _contract(factors.us[:9], kron, factors.vs[:9])
    forms = _contract(factors.us[:3],  # the k expanded forms, then the k S
                      [_expanded_matrix(x) for x in stack] + coeffs.tolist(),
                      factors.vs[:3])
    # bits of another shape fail their route, as a misshapen profile does
    signs = (1 - 2 * bits.astype(np.result_type(bits, np.int8))
             if bits.shape == (k, primes.p, primes.q) else None)
    routes = {"sign_form_vs_sequence": _differs(forms[k:], signs),
              "product_vs_expanded": _differs(product, forms[:k])}
    del forms, signs  # so that no route's grid outlives its comparison
    routes["product_vs_empirical"] = _differs(product, emp)
    routes["product_vs_closed_form"] = _differs(product, closed)
    results = []
    for differs in zip(*routes.values()):
        failures = [name for name, bad in zip(routes, differs) if bad]
        results.append(CheckResult("correlation_identity", not failures, "; ".join(failures)))
    return results[0] if one else results


def _differs(x: np.ndarray, y: np.ndarray) -> list:
    """Whether each array of the stack x differs from its partner in y, as a
    list of bools; every one does when the stacks' shapes differ."""
    if x.shape != np.shape(y):
        return [True] * len(x)
    return (x != y).any(axis=(-2, -1)).tolist()
