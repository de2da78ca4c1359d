"""Number-theoretic primitives: primality, Legendre symbols, prime pairs.

Primality is trial division, decided below 2**32 only. A pair with a larger
prime has period n >= 3 * 2**32, and one period of bits alone then takes
more than 12 GB, so such pairs are refused up front.
"""

from dataclasses import dataclass
from numbers import Integral

_PRIME_BOUND = 1 << 32


def is_prime(m: int) -> bool:
    """Primality by trial division; non-integers are not prime. Raises
    ValueError for odd m >= 2**32."""
    if not isinstance(m, Integral) or m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    if m >= _PRIME_BOUND:
        raise ValueError(f"primality is only decided below {_PRIME_BOUND}")
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def is_odd_prime(m: int) -> bool:
    return m > 2 and is_prime(m)


def legendre(a: int, r: int) -> int:
    """Legendre symbol (a/r) in {-1, 0, 1} via Euler's criterion.

    r must be an odd prime; raises ValueError otherwise.
    """
    if not is_odd_prime(r):
        raise ValueError("modulus of a Legendre symbol must be an odd prime")
    a %= r
    if a == 0:
        return 0
    return 1 if pow(a, (r - 1) // 2, r) == 1 else -1


def odd_primes_up_to(limit: int) -> list:
    """All odd primes <= limit, ascending."""
    return [m for m in range(3, limit + 1, 2) if is_prime(m)]


def odd_prime_pairs(max_n: int) -> list:
    """All OddPrimePair(p, q) with p < q and p*q <= max_n, sorted by (p, q)."""
    primes = odd_primes_up_to(max_n // 3)
    pairs = []
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            if p * q > max_n:
                break
            pairs.append(OddPrimePair(p, q))
    return pairs


@dataclass(frozen=True)
class OddPrimePair:
    """Two distinct odd primes (p, q); n is the sequence period p*q."""

    p: int
    q: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError("p must be an odd prime")
        if not is_odd_prime(self.q):
            raise ValueError("q must be an odd prime")
        if self.p == self.q:
            raise ValueError("p and q must be distinct")
        # numpy integers pass the checks but wrap in int64; store Python ints.
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "q", int(self.q))

    @property
    def n(self) -> int:
        return self.p * self.q
