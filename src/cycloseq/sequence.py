"""Generalized cyclotomic binary sequences of order two with period n = p*q.

For distinct odd primes p, q the residues mod n split into four classes:

    {0},  P = {p, 2p, ..., (q-1)p},  Q = {q, 2q, ..., (p-1)q},  U = units mod pq.

A sequence S(a, b, c) with fill bits a, b, c in {0, 1} is defined per period by

    s[0] = c,   s[lam] = a on P,   s[lam] = b on Q,
    s[lam] = (1 - (lam/p)(lam/q)) / 2 on U,

where (./p) denotes the Legendre symbol, so a unit position carries 0 exactly
when the two quadratic characters agree.

All sequences of a pair share one layout, the p x q grid that holds k at
(k mod p, k mod q): P is row 0, Q column 0, {0} the corner, U the interior.
``family_bits`` builds one pair's bits as one (k, p, q) stack from one
``by_class`` of their fill values, and the checks compare grids; Z_n order
(``crt_read``) is read for output, ``generate``'s bits and failures only.
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numtheory import OddPrimePair, is_odd_prime


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one named check; truthy iff ``ok``.

    ``detail`` says where the check first failed, in the words the CLI
    prints, and is empty when it passed.
    """

    name: str
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SequenceParams:
    """Prime pair plus the three fill bits (a, b, c)."""

    primes: OddPrimePair
    a: int
    b: int
    c: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            bit = getattr(self, name)
            if bit not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")
            # True and 1.0 pass the check; store the int they equal.
            object.__setattr__(self, name, int(bit))

    @classmethod
    def of(cls, p: int, q: int, a: int, b: int, c: int) -> "SequenceParams":
        return cls(OddPrimePair(p, q), a, b, c)

    @property
    def p(self) -> int:
        return self.primes.p

    @property
    def q(self) -> int:
        return self.primes.q

    @property
    def n(self) -> int:
        return self.primes.n

    @property
    def abc(self) -> str:
        return f"{self.a}{self.b}{self.c}"

    @property
    def e(self) -> int:
        """(-1)**c - (-1)**a - (-1)**b, the constant of the sign polynomial."""
        return (-1) ** self.c - (-1) ** self.a - (-1) ** self.b


def residue_table(r: int) -> np.ndarray:
    """Legendre symbols (k/r) for k in [0, r) as an int8 array.

    Built from the set of nonzero squares mod r, so it costs O(r) with no
    per-element symbol evaluation. r must be an odd prime.
    """
    if not is_odd_prime(r):
        raise ValueError("modulus of a Legendre symbol must be an odd prime")
    table = np.full(r, -1, dtype=np.int8)
    k = np.arange(1, r, dtype=np.int64)
    table[k * k % r] = 1
    table[0] = 0
    return table


def _packing(bound: int) -> tuple:
    """(k, g) for outputs in [-bound, bound]: fields of k = (2 bound).bit_length()
    bits, at least one, and g = 62 // k of them per int64 word, at least one."""
    k = max((2 * bound).bit_length(), 1)
    return k, max(62 // k, 1)


def _multiply_adds(rows_x: int, rows_y: int, length: int, bound: int) -> int:
    """Multiply-adds ``_correlations`` spends on rows_x by rows_y rows of one
    length whose outputs lie in [-bound, bound]: one length**2 correlation per
    row of ``xs`` and packed group of ``ys``."""
    return rows_x * -(-rows_y // _packing(bound)[1]) * length * length


def _correlations(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """out[r, s, u] = sum over i of xs[r, i] * ys[s, (i + u) mod L], every
    cyclic correlation of a row of xs with a row of ys, exactly in int64.

    B = L * max|xs| * max|ys| bounds every partial sum of every output. With
    (k, g) = ``_packing(B)``, g rows of ys go k bits apart into one int64
    word, so one correlation per row of xs and group returns the group's
    outputs as fields k bits apart, and no partial sum leaves
    (-2**61, 2**61). Adding B to every field makes each one a nonnegative
    k-bit number that shift and mask read back. With g = 1 each pair of rows
    takes one plain correlation. No floating point is involved.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    rows, length = xs.shape
    if ys.shape[1] != length:
        raise ValueError("correlated rows must have one length")
    bound = length * _peak(xs) * _peak(ys)
    if bound >= 1 << 63:
        raise OverflowError("correlations could exceed int64")
    out = np.empty((rows, len(ys), length), dtype=np.int64)
    k, group = _packing(bound)
    group = min(group, len(ys))
    if group <= 1:
        for s, y in enumerate(ys):
            wrapped = np.concatenate((y, y[:-1]))
            for r, x in enumerate(xs):
                out[r, s] = np.correlate(wrapped, x, mode="valid")
        return out
    shifts = np.arange(0, group * k, k, dtype=np.int64)
    bias = bound * ((1 << group * k) - 1) // ((1 << k) - 1)
    weights, shifts = 1 << shifts, shifts[:, None]
    words = np.empty((rows, 1, length), dtype=np.int64)
    for start in range(0, len(ys), group):
        block = ys[start:start + group]
        packed = weights[:len(block)] @ block
        wrapped = np.concatenate((packed, packed[:-1]))
        for r, x in enumerate(xs):
            words[r, 0] = np.correlate(wrapped, x, mode="valid")
        words += bias
        fields = (words >> shifts[:len(block)]) & ((1 << k) - 1)
        np.subtract(fields, bound, out=out[:, start:start + len(block)])
    return out


def _peak(values: np.ndarray) -> int:
    """max |v| over an int64 array as a Python int, 0 when it is empty; |v|
    read as uint64, so that |-2**63| does not wrap."""
    return int(np.abs(values).view(np.uint64).max(initial=0))


@lru_cache(maxsize=1)
def _crt_index(p: int, q: int) -> np.ndarray:
    """Flat grid index of each k in [0, n); callers read one pair at a time.
    Read-only, since every later call for the pair returns this array."""
    index = np.tile(np.arange(p) * q, q) + np.tile(np.arange(q), p)
    index.flags.writeable = False
    return index


def crt_read(primes: OddPrimePair, grid: np.ndarray) -> np.ndarray:
    """Entry k of Z_n for k in [0, n), read at (k mod p, k mod q) of a p x q
    grid, or of each grid of a (..., p, q) stack: the Good-Thomas index map,
    the one place this package computes it."""
    flat = grid.reshape(grid.shape[:-2] + (primes.n,))
    return np.take(flat, _crt_index(primes.p, primes.q), axis=-1)


def crt_grid(primes: OddPrimePair, values: np.ndarray) -> np.ndarray:
    """The p x q grid holding entry k of ``values`` at (k mod p, k mod q), or
    the (..., p, q) stack of grids of a (..., n) stack: the inverse of
    ``crt_read``, through the same index."""
    grid = np.empty(values.shape, dtype=values.dtype)
    index = _crt_index(primes.p, primes.q)
    for row, vector in zip(grid.reshape(-1, primes.n), values.reshape(-1, primes.n)):
        row[index] = vector  # one flat scatter per grid, numpy's fast path
    return grid.reshape(values.shape[:-1] + (primes.p, primes.q))


def by_class(primes: OddPrimePair, zero, on_p, on_q, unit_plus, unit_minus,
             dtype) -> np.ndarray:
    """A p x q ``dtype`` grid by residue class: ``zero`` at the corner, ``on_p``
    on P (row 0), ``on_q`` on Q (column 0), ``unit_plus``/``unit_minus`` where
    chi_p (x) chi_q is +1/-1; for five length-k vectors, the (k, p, q) stack:
    one q-entry take builds two rows, one p-entry take lays them by chi_p."""
    values = np.array([zero, on_p, on_q, unit_plus, unit_minus], dtype=dtype)
    rows, columns = _unit_signs(primes)
    # (minus, plus) by chi_q where chi_p = +1, (plus, minus) where it is -1
    pairs = np.moveaxis(values[[4, 3, 3, 4]], 0, -1).reshape(values.shape[1:] + (2, 2))
    grid = np.take(np.take(pairs, columns, axis=-1), rows, axis=-2)
    grid[..., 0, :] = values[1, ..., None]
    grid[..., :, 0] = values[2, ..., None]
    grid[..., 0, 0] = values[0]
    return grid


@lru_cache(maxsize=1)
def _unit_signs(primes: OddPrimePair) -> tuple:
    """Read-only (rows, columns): chi_p = -1 and chi_q = +1, the sign pattern."""
    rows, columns = residue_table(primes.p) < 0, residue_table(primes.q) > 0
    rows.flags.writeable = columns.flags.writeable = False
    return rows, columns


def first_difference(x: np.ndarray, y: np.ndarray) -> tuple:
    """(tau, x at tau, y at tau) for the least tau whose cell differs between
    two p x q grids that differ, the shape naming the pair; read on failure."""
    x, y = crt_read(OddPrimePair(*x.shape), np.stack((x, y)))
    tau = int(np.argmax(x != y))
    return tau, int(x[tau]), int(y[tau])


def unit_character(primes: OddPrimePair) -> np.ndarray:
    """chi(lam) = (lam/p)(lam/q) on the p x q grid; zero off the unit class."""
    return by_class(primes, 0, 0, 0, 1, -1, np.int8)


def _checked_bits(bits: np.ndarray) -> np.ndarray:
    """A read-only uint8 view of ``bits`` after the package's one 0/1 check,
    which refuses what the cast would wrap (256 -> 0) or truncate (0.5 -> 0);
    it aliases uint8 bits, whose buffer stays the caller's and writeable."""
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    bits = np.asarray(bits, dtype=np.uint8).view()
    bits.flags.writeable = False
    return bits


class BinarySequence:
    """One period of S(a, b, c) as a read-only uint8 array of 0/1 bits in
    Z_n order, from the constructor's ``_checked_bits``."""

    def __init__(self, params: SequenceParams, bits: np.ndarray):
        raw = np.asarray(bits)
        if raw.shape != (params.n,):
            raise ValueError(f"expected {params.n} bits, got {raw.shape}")
        self.params, self.bits = params, _checked_bits(raw)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def weight(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinarySequence):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.bits, other.bits)

    def __repr__(self) -> str:
        return (f"BinarySequence(p={self.params.p}, q={self.params.q}, "
                f"abc={self.params.abc}, n={self.n}, weight={self.weight})")


def _one_pair(params) -> tuple:
    """``params`` as a stack: a tuple of the params of one pair, ``(params,)``
    for one ``SequenceParams``. An empty stack, or one that mixes pairs, is
    refused with ValueError."""
    stack = (params,) if isinstance(params, SequenceParams) else tuple(params)
    if not stack:
        raise ValueError("a stack of params needs at least one")
    if any(x.primes != stack[0].primes for x in stack):
        raise ValueError("a stack of params holds the params of one pair")
    return stack


def family_bits(params) -> np.ndarray:
    """One period of S(a, b, c) as a p x q uint8 grid of 0/1 bits; for a
    sequence of k params of one pair, their (k, p, q) stack, from one
    ``by_class`` of the stacked fill values (c, a, b, 0, 1)."""
    stack = _one_pair(params)
    fills = [(x.c, x.a, x.b, 0, 1) for x in stack]
    bits = by_class(stack[0].primes, *zip(*fills), np.uint8)
    return bits[0] if isinstance(params, SequenceParams) else bits


def generate(params: SequenceParams) -> BinarySequence:
    """Build one period of S(a, b, c), its grid read in Z_n order."""
    return BinarySequence(params, crt_read(params.primes, family_bits(params)))


def bitstring(seq: BinarySequence) -> str:
    """ASCII '0'/'1' serialization, position 0 first."""
    return (seq.bits + ord("0")).tobytes().decode("ascii")


def as_json_dict(seq: BinarySequence) -> dict:
    p = seq.params
    return {"p": p.p, "q": p.q, "a": p.a, "b": p.b, "c": p.c, "bits": bitstring(seq)}


def to_json(seq: BinarySequence) -> str:
    return json.dumps(as_json_dict(seq), sort_keys=True)
