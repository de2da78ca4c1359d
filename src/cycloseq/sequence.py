"""Generalized cyclotomic binary sequences of order two with period n = p*q.

For distinct odd primes p, q the residues mod n split into four classes:

    {0},  P = {p, 2p, ..., (q-1)p},  Q = {q, 2q, ..., (p-1)q},  U = units mod pq.

A sequence S(a, b, c) with fill bits a, b, c in {0, 1} is defined per period by

    s[0] = c,   s[lam] = a on P,   s[lam] = b on Q,
    s[lam] = (1 - (lam/p)(lam/q)) / 2 on U,

where (./p) denotes the Legendre symbol, so a unit position carries 0 exactly
when the two quadratic characters agree.
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


@lru_cache(maxsize=1)
def _crt_index(p: int, q: int) -> np.ndarray:
    """Flat grid index of each k in [0, n); callers read one pair at a time.
    Read-only, since every later call for the pair returns this array."""
    index = np.tile(np.arange(p) * q, q) + np.tile(np.arange(q), p)
    index.flags.writeable = False
    return index


def crt_read(primes: OddPrimePair, grid: np.ndarray) -> np.ndarray:
    """Entry k of Z_n for k in [0, n), read at (k mod p, k mod q) of a p x q
    grid: the Good-Thomas index map, the one place this package computes it."""
    return grid.ravel()[_crt_index(primes.p, primes.q)]


def crt_grid(primes: OddPrimePair, values: np.ndarray) -> np.ndarray:
    """The p x q grid holding entry k of ``values`` at (k mod p, k mod q): the
    inverse of ``crt_read``, through the same index."""
    grid = np.empty(primes.n, dtype=values.dtype)
    grid[_crt_index(primes.p, primes.q)] = values
    return grid.reshape(primes.p, primes.q)


def by_class(primes: OddPrimePair, zero, on_p, on_q, unit_plus, unit_minus,
             dtype) -> np.ndarray:
    """A ``dtype`` vector over Z_n by residue class: ``zero`` at 0, ``on_p`` on
    P, ``on_q`` on Q, ``unit_plus``/``unit_minus`` on the units with
    (lam/p)(lam/q) = +1/-1. On the p x q grid of ``crt_read`` P is row 0, Q
    column 0, {0} the corner and U the interior; the one class layout."""
    values = np.array([zero, on_p, on_q, unit_plus, unit_minus], dtype=dtype)
    return np.take(values, _class_codes(primes))


@lru_cache(maxsize=1)
def _class_codes(primes: OddPrimePair) -> np.ndarray:
    """Class code 0-4 of each k in [0, n), in ``by_class``'s argument order;
    read-only, and built once per pair as ``_crt_index`` is."""
    agree = np.equal.outer(residue_table(primes.p), residue_table(primes.q))
    codes = 4 - agree.view(np.int8)  # 3 where chi_p[i] * chi_q[j] = +1, else 4
    codes[0, :] = 1
    codes[:, 0] = 2
    codes[0, 0] = 0
    codes = crt_read(primes, codes)
    codes.flags.writeable = False
    return codes


def unit_character(primes: OddPrimePair) -> np.ndarray:
    """chi(lam) = (lam/p)(lam/q) for lam in [0, n); zero off the unit class."""
    return by_class(primes, 0, 0, 0, 1, -1, np.int8)


class BinarySequence:
    """One period of S(a, b, c) as a uint8 array of 0/1 bits.

    The constructor holds the package's one 0/1 check: any other entry is
    refused before the cast could wrap (256 -> 0) or truncate (0.5 -> 0) it.
    """

    def __init__(self, params: SequenceParams, bits: np.ndarray):
        raw = np.asarray(bits)
        if raw.shape != (params.n,):
            raise ValueError(f"expected {params.n} bits, got {raw.shape}")
        if np.any((raw != 0) & (raw != 1)):
            raise ValueError("bits must be 0 or 1")
        bits = np.asarray(raw, dtype=np.uint8)
        bits.flags.writeable = False
        self.params = params
        self.bits = bits

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


def family_bits(params: SequenceParams) -> np.ndarray:
    """One period of S(a, b, c) as a uint8 vector of 0/1 bits."""
    return by_class(params.primes, params.c, params.a, params.b, 0, 1, np.uint8)


def generate(params: SequenceParams) -> BinarySequence:
    """Build one period of S(a, b, c)."""
    return BinarySequence(params, family_bits(params))


def sign_view(seq: BinarySequence) -> np.ndarray:
    """(-1)**s[lam] per position, as an int64 array of +1/-1."""
    return 1 - 2 * seq.bits.astype(np.int64)


def bitstring(seq: BinarySequence) -> str:
    """ASCII '0'/'1' serialization, position 0 first."""
    return (seq.bits + ord("0")).tobytes().decode("ascii")


def as_json_dict(seq: BinarySequence) -> dict:
    p = seq.params
    return {"p": p.p, "q": p.q, "a": p.a, "b": p.b, "c": p.c, "bits": bitstring(seq)}


def to_json(seq: BinarySequence) -> str:
    return json.dumps(as_json_dict(seq), sort_keys=True)
