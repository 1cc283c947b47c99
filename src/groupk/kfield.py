"""K-theory of finite fields via Quillen's computation, plus prime-power checks."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .abelian import FgAbelianGroup
from .errors import NotAPrimePower, TooLarge

_Q_GUARD = 2**64
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class PrimePower:
    """q = p^e with p prime."""

    q: int
    p: int
    e: int


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 12 prime bases: exact for n < 3.3e24
    (Sorenson-Webster, Math. Comp. 86 (2017)), so for every n up to the guard."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
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


def _exact_root(n: int, k: int) -> int | None:
    """r with r**k == n, or None; the float estimate is exact to +-1 for n <= 2^64."""
    if k == 1:
        return n
    r = math.isqrt(n) if k == 2 else round(n ** (1.0 / k))
    return next((c for c in (r - 1, r, r + 1) if c > 1 and c**k == n), None)


def validate_prime_power(q: int) -> PrimePower:
    """Factor q as p^e or raise NotAPrimePower.

    Only the true exponent e of q = p^e has a prime e-th root, so every
    exponent up to log2(q) is tried.
    """
    if q < 2:
        raise NotAPrimePower(f"field size must be >= 2, got {q}")
    if q > _Q_GUARD:
        raise NotAPrimePower(f"field size {q} exceeds the guard {_Q_GUARD}")
    for e in range(q.bit_length() - 1, 0, -1):
        p = _exact_root(q, e)
        if p is not None and _is_prime(p):
            return PrimePower(q, p, e)
    raise NotAPrimePower(f"{q} is not a prime power")


def k_finite_field(q: PrimePower, n: int) -> FgAbelianGroup:
    """K_n of the field with q elements.

    Z in degree 0; zero in negative and positive even degrees; cyclic of
    order q^i - 1 in degree n = 2i - 1.
    """
    if n < 0:
        return FgAbelianGroup.trivial()
    if n == 0:
        return FgAbelianGroup.free(1)
    if n % 2 == 0:
        return FgAbelianGroup.trivial()
    i = (n + 1) // 2
    order = q.q**i - 1
    # str() of an int with more digits than this limit raises (0: no limit);
    # 10^limit > 2^(3 limit), so an order that short never builds 10^limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and order.bit_length() > 3 * limit and order >= 10**limit:
        raise TooLarge(f"K_{n}(F_{q.q}) has order q^{i} - 1, over {limit} digits")
    return FgAbelianGroup.cyclic(order)
