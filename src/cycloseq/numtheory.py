"""Number-theoretic primitives: primality, Legendre symbols, prime pairs."""

from dataclasses import dataclass

# Miller-Rabin witnesses, deterministic below _MR_BOUND = 399165290221 *
# 798330580441, the least odd composite passing all twelve (OEIS A014233).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461

_TRIAL_LIMIT = 1 << 20


def _miller_rabin(m: int, base: int) -> bool:
    # m odd, m > 2, base < m
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, m)
    if x == 1 or x == m - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % m
        if x == m - 1:
            return True
    return False


def is_prime(m: int) -> bool:
    """Primality by trial division, deterministic Miller-Rabin above 2**20.

    Raises ValueError for odd m >= _MR_BOUND, where the witnesses prove nothing.
    """
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    if m <= _TRIAL_LIMIT:
        f = 3
        while f * f <= m:
            if m % f == 0:
                return False
            f += 2
        return True
    if m >= _MR_BOUND:
        raise ValueError(f"primality is only decided below {_MR_BOUND}")
    for base in _MR_WITNESSES:
        if not _miller_rabin(m, base):
            return False
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

    @property
    def n(self) -> int:
        return self.p * self.q
