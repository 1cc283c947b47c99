"""Write perfbench/qpool.json: the field sizes the e2page-bigq workload draws from.

`groupk e2page --max-degree N` puts K_{2i-1}(F_q) = Z/(q^i - 1) on the page
for i <= (N + 1) // 2, and the package canonicalises each order q^i - 1 by
trial division.  The work that takes depends on how q^i - 1 factors, not on
the size of q alone: it runs to the larger of the second-largest prime factor
and the square root of the largest.  So the pool records that work for every
candidate, and the workload draws a fixed number of (q, N) pairs from each
work band; every seed then asks for the same amount of canonicalisation.

Usage: python3 perfbench/make_qpool.py   (stdlib only; deterministic)
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

OUT = Path(__file__).with_name("qpool.json")
LOG2_RANGE = (16, 28)  # q drawn log-uniformly from [2^16, 2^28]
CANDIDATES = 3000
PRIME_POWER_SHARE = 0.2
DEGREES = (5, 7)  # N = 6 canonicalises the same orders as N = 5
MAX_WORK = 2**23  # trial divisions; above this one op takes about a second


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (the first 12 prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of the odd composite n (Pollard-Brent)."""
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int, rng: random.Random) -> list[int]:
    """Prime factors of n with multiplicity, ascending."""
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out.append(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.append(m)
        else:
            f = _rho(m, rng)
            stack += [f, m // f]
    return sorted(out)


def trial_division_work(m: int, factors: list[int]) -> int:
    """Loop iterations trial division (2, then odd d) spends factoring m."""
    primes = sorted(set(factors))
    n = m
    d_end = 2
    for p in primes:
        if p * p > n:  # n is the prime p itself; the loop stops past sqrt(n)
            d_end = max(d_end, math.isqrt(n) + 1)
            break
        while n % p == 0:
            n //= p
        d_end = p
    return max(1, d_end // 2)


def candidates(rng: random.Random):
    lo, hi = LOG2_RANGE
    seen = set()
    while len(seen) < CANDIDATES:
        if rng.random() < PRIME_POWER_SHARE:
            e = rng.randrange(2, 8)
            p_lo, p_hi = math.ceil(2 ** (lo / e)), math.floor(2 ** (hi / e))
            if p_lo > p_hi:
                continue
            p = rng.randrange(p_lo, p_hi + 1)
            if not is_prime(p):
                continue
            q = p**e
        else:
            q = int(2 ** rng.uniform(lo, hi))
            if not is_prime(q):
                continue
        if q not in seen:
            seen.add(q)
            yield q


def main():
    rng = random.Random(20161227)
    entries = []
    for q in candidates(rng):
        # q^i - 1 for i <= 4 is a product of these cyclotomic values
        phi1, phi2, phi3, phi4 = (
            prime_factors(v, rng) for v in (q - 1, q + 1, q * q + q + 1, q * q + 1)
        )
        orders = [phi1, phi1 + phi2, phi1 + phi3, phi1 + phi2 + phi4]
        per_i = [trial_division_work(q**i - 1, f) for i, f in enumerate(orders, 1)]
        p = prime_factors(q, rng)[0]  # validate_prime_power's own trial division
        check = math.isqrt(q) // 2 if p == q else p // 2
        for n in DEGREES:
            work = check + sum(per_i[: (n + 1) // 2])
            if work <= MAX_WORK:
                entries.append([q, n, work])
    entries.sort()
    OUT.write_text(json.dumps({
        "doc": "[q, N, trial divisions] for e2page --q q --max-degree N; see make_qpool.py",
        "log2_range": LOG2_RANGE,
        "max_work": MAX_WORK,
        "entries": entries,
    }, separators=(",", ":")) + "\n")
    print(f"wrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
