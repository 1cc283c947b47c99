"""Finitely generated abelian groups in invariant-factor canonical form.

Every K-group and homology group computed by this package is a value of
:class:`FgAbelianGroup`.  The canonical form (free rank plus a divisibility
chain of invariant factors >= 2) is unique, so isomorphism testing is plain
structural equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def invariant_factors_from_orders(orders) -> tuple[int, ...]:
    """Canonical divisibility chain for a direct sum of cyclic groups Z/m.

    Orders equal to 1 are dropped.  No factoring is needed: replacing a pair
    by Z/gcd(a, b) + Z/lcm(a, b) keeps the group, and after one sweep over
    all pairs each position divides every later one.
    """
    fs = []
    for m in orders:
        if m < 1:
            raise ValueError(f"cyclic order must be >= 1, got {m}")
        if m > 1:
            fs.append(m)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            g = math.gcd(fs[i], fs[j])
            fs[i], fs[j] = g, fs[i] // g * fs[j]
    return tuple(f for f in fs if f > 1)


@dataclass(frozen=True)
class FgAbelianGroup:
    """A finitely generated abelian group Z^r + Z/d1 + ... + Z/dk, d1 | d2 | ..."""

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors", tuple(self.invariant_factors))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2 (units must be dropped)")
            if prev is not None and d % prev != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, {prev} does not divide {d}"
                )
            prev = d

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, m: int) -> "FgAbelianGroup":
        """Z/m; m = 1 gives the trivial group."""
        if m < 1:
            raise ValueError(f"cyclic order must be >= 1, got {m}")
        return cls(0, () if m == 1 else (m,))

    @classmethod
    def from_orders(cls, free_rank: int, orders) -> "FgAbelianGroup":
        """Canonicalize an arbitrary list of cyclic orders plus a free part."""
        return cls(free_rank, invariant_factors_from_orders(orders))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self) -> str:
        if self.is_trivial():
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "invariant_factors": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, data: dict) -> "FgAbelianGroup":
        return cls(data["free_rank"], tuple(data["invariant_factors"]))


def from_presentation(relations) -> FgAbelianGroup:
    """Cokernel of an integer relation matrix (rows = relations, cols = generators).

    An empty relation matrix over g generators gives Z^g.
    """
    from . import intlinalg

    return intlinalg.homology_from_diagonals(relations.cols, (), intlinalg.smith_diagonal(relations))


def direct_sum(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    return direct_sum_all((a, b))


def direct_sum_all(groups) -> FgAbelianGroup:
    free = 0
    orders: list[int] = []
    for g in groups:
        free += g.free_rank
        orders.extend(g.invariant_factors)
    return FgAbelianGroup.from_orders(free, orders)


def tensor(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """a (x) b over Z, by bilinearity and Z/m (x) Z/n = Z/gcd(m, n)."""
    orders: list[int] = []
    free = a.free_rank * b.free_rank
    orders += [m for m in a.invariant_factors for _ in range(b.free_rank)]
    orders += [n for n in b.invariant_factors for _ in range(a.free_rank)]
    orders += [math.gcd(m, n) for m in a.invariant_factors for n in b.invariant_factors]
    return FgAbelianGroup.from_orders(free, orders)


def tor_product(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tor_1(a, b): only torsion contributes, Tor(Z/m, Z/n) = Z/gcd(m, n)."""
    orders = [math.gcd(m, n) for m in a.invariant_factors for n in b.invariant_factors]
    return FgAbelianGroup.from_orders(0, orders)
