"""Seeded workload inputs for the cycloseq benchmark.

Each workload turns a seed into one CLI argv plus the facts the output checks
need (pairs, triples). The program only ever sees the argv. Inputs are drawn
so that every seed costs about the same: the pair pools below are narrow in n,
and the sweep draw is stratified by a cost proxy, so run-to-run spread comes
from the machine and not from the draw.
"""

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-small", "verify-mid", "autocorr-large", "adic-large")

ALL_TRIPLES = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))

# Fill-bit triples whose closed-form d_q argument vanishes for p = 3.
DEGENERATE_TRIPLES = ((0, 0, 1), (1, 1, 0))

SWEEP_MAX_N = 1000
SWEEP_PAIRS = 30


@dataclass(frozen=True)
class Case:
    """One workload instance: the argv the CLI runs and what it was built from."""

    workload: str
    seed: int
    argv: tuple
    pairs: tuple      # ((p, q), ...) sorted
    triples: tuple    # fill-bit triples the command covers


def odd_primes(limit: int) -> list:
    """Odd primes <= limit by a sieve (independent of the program under test)."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit + 1, i)))
    return [m for m in range(3, limit + 1) if sieve[m]]


def pairs_up_to(max_n: int) -> list:
    primes = odd_primes(max_n // 3)
    return [(p, q) for i, p in enumerate(primes) for q in primes[i + 1:] if p * q <= max_n]


def balanced_pairs_near(target: int, tol: float) -> list:
    """Pairs p < q <= 1.25 p with |p*q - target| <= tol * target."""
    primes = odd_primes(int(math.isqrt(target) * 1.3) + 2)
    return [(p, q) for p in primes for q in primes
            if p < q <= 1.25 * p and abs(p * q - target) <= tol * target]


def d_p_closed(p: int, q: int, a: int, b: int, c: int) -> int:
    """Closed form gcd(q - 1 + (-1)^(a+c) - (-1)^(a+b), 2^p - 1)."""
    return math.gcd(q - 1 + (-1) ** (a + c) - (-1) ** (a + b), (1 << p) - 1)


def known_deviation(p: int, q: int, a: int, b: int, c: int) -> bool:
    """The p = 3 degeneracy: abc in {001, 110} with d_p > 1 fails theorem2."""
    return p == 3 and (a, b, c) in DEGENERATE_TRIPLES and d_p_closed(p, q, a, b, c) > 1


def _abc(triple) -> str:
    return "".join(map(str, triple))


def _sweep_cost(pair) -> int:
    """Cost proxy for one sweep pair: the ring and autocorrelation work grows
    with n = p*q, the residue tables with p + q (about 2x as much per unit)."""
    p, q = pair
    return p * q + 2 * (p + q)


def _stratified_sweep_pairs(rng: random.Random, pool: list, k: int) -> list:
    """One pair from each of k strata of the pool sorted by the cost proxy.

    At least one pair carries the known p = 3 deviation, so the exit-2 path and
    the pinned failing rows are exercised on every seed.
    """
    pool = sorted(pool, key=lambda pq: (_sweep_cost(pq), pq))
    bounds = [round(i * len(pool) / k) for i in range(k + 1)]
    strata = [pool[bounds[i]:bounds[i + 1]] for i in range(k)]
    picks = [rng.choice(stratum) for stratum in strata]
    carriers = [i for i, stratum in enumerate(strata)
                if any(known_deviation(p, q, 0, 0, 1) for p, q in stratum)]
    if not any(known_deviation(p, q, 0, 0, 1) for p, q in picks):
        i = rng.choice(carriers)
        picks[i] = rng.choice([pq for pq in strata[i] if known_deviation(*pq, 0, 0, 1)])
    return sorted(picks)


def make_case(workload: str, seed: int, toy: bool = False) -> Case:
    """Inputs for one run. ``toy`` shrinks every instance for the benchmark's tests."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep-small":
        pool = pairs_up_to(120 if toy else SWEEP_MAX_N)
        pairs = _stratified_sweep_pairs(rng, pool, 4 if toy else SWEEP_PAIRS)
        argv = ["sweep"]
        for p, q in pairs:
            argv += ["--pairs", f"{p},{q}"]
        return Case(workload, seed, tuple(argv), tuple(pairs), ALL_TRIPLES)
    if workload == "verify-mid":
        pool = [(3, 17), (5, 7)] if toy else balanced_pairs_near(5000, 0.05)
        p, q = rng.choice(pool)
        argv = ("verify", "--p", str(p), "--q", str(q), "--all")
        return Case(workload, seed, argv, ((p, q),), ALL_TRIPLES)
    if workload == "autocorr-large":
        pool = [(11, 13), (3, 17)] if toy else balanced_pairs_near(64507, 0.01)
        p, q = rng.choice(pool)
        triple = rng.choice(ALL_TRIPLES)
        argv = ("autocorr", "--p", str(p), "--q", str(q), "--abc", _abc(triple),
                "--both", "--format", "csv")
        return Case(workload, seed, argv, ((p, q),), (triple,))
    if workload == "adic-large":
        pool = [(13, 17), (3, 17)] if toy else balanced_pairs_near(1022117, 0.005)
        p, q = rng.choice(pool)
        triple = rng.choice(ALL_TRIPLES)
        argv = ("adic", "--p", str(p), "--q", str(q), "--abc", _abc(triple))
        return Case(workload, seed, argv, ((p, q),), (triple,))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
