"""Integral group homology from the normalized bar resolution, with oracles.

The engine computes H_n(G; Z) from the bar complex; homology with (trivially
acted-on) coefficients follows by universal coefficients.  Two independent
oracles — the 2-periodic resolution for cyclic groups and the Kunneth formula
for direct products — exist so the engine can be cross-checked, never trusted
on its own.
"""

from __future__ import annotations

import itertools

from . import intlinalg
from .abelian import FgAbelianGroup, direct_sum_all, tensor, tor_product
from .errors import InsufficientDegrees, TooLarge
from .groups import FiniteGroup, cyclic
from .intlinalg import IntegerMatrix, check_complex, homology_from_diagonals, homology_of_pair

DEFAULT_DEGREE_CAP = 4
DEFAULT_GENERATOR_LIMIT = 10**5


def bar_basis_dimension(G: FiniteGroup, n: int) -> int:
    return (G.order - 1) ** n


def _check_guards(G, n, degree_cap, generator_limit):
    if n > degree_cap:
        raise TooLarge(f"degree {n} exceeds the degree cap {degree_cap}")
    if bar_basis_dimension(G, n) > generator_limit:
        raise TooLarge(
            f"bar basis in degree {n} has {bar_basis_dimension(G, n)} generators, "
            f"over the limit {generator_limit} (GROUPK_GENERATOR_LIMIT)"
        )


def bar_boundary(
    G: FiniteGroup,
    n: int,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> IntegerMatrix:
    """Boundary matrix from degree n to degree n-1 of the normalized bar complex.

    Basis of degree k: k-tuples of non-identity elements in lexicographic
    order.  With trivial coefficients the outer faces drop the first or last
    entry; inner faces multiply neighbours, and any face that produces the
    identity is dropped by normalization.
    """
    if n < 1:
        raise ValueError("boundary defined for degree >= 1")
    # the (n+1)-st boundary is needed for H_n at the cap
    _check_guards(G, n, degree_cap + 1, generator_limit)
    nonid = range(1, G.order)
    lower = list(itertools.product(nonid, repeat=n - 1))
    lower_index = {t: k for k, t in enumerate(lower)}
    entries: dict[tuple[int, int], int] = {}

    def add(row_tuple, col, sign):
        if 0 in row_tuple:
            return  # normalization: faces through the identity vanish
        r = lower_index[row_tuple]
        v = entries.get((r, col), 0) + sign
        if v == 0:
            entries.pop((r, col), None)
        else:
            entries[(r, col)] = v

    for col, g in enumerate(itertools.product(nonid, repeat=n)):
        add(g[1:], col, 1)
        sign = -1
        for i in range(n - 1):
            merged = g[:i] + (G.mul(g[i], g[i + 1]),) + g[i + 2:]
            add(merged, col, sign)
            sign = -sign
        add(g[:-1], col, sign)
    return IntegerMatrix(len(lower), (G.order - 1) ** n, entries, entry_limit=None)


class _BarComplex:
    """The normalized bar complex of one group; each boundary d_k is built and
    Smith-reduced at most once.

    Smith diagonals are kept for the life of the context.  A boundary matrix
    is kept only while one of the two d^2 = 0 checks it takes part in is
    still to run.
    """

    def __init__(self, G: FiniteGroup):
        self.G = G
        self.matrices: dict[int, IntegerMatrix] = {}
        self.diagonals: dict[int, list[int]] = {}
        self.checked = {0}  # k with d_k @ d_{k+1} = 0 verified; d_0 is zero

    def homology(self, n: int, degree_cap: int, generator_limit: int) -> FgAbelianGroup:
        """H_n for n >= 1; the caller has checked the guards for d_n and d_{n+1}."""
        pair = (n, n + 1)
        if n not in self.checked:
            for k in pair:
                if k not in self.matrices:
                    self.matrices[k] = bar_boundary(
                        self.G, k, degree_cap=degree_cap, generator_limit=generator_limit
                    )
            check_complex(self.matrices[n + 1], self.matrices[n])
            self.checked.add(n)
        for k in pair:
            if k not in self.diagonals:
                self.diagonals[k] = intlinalg.smith_diagonal(self.matrices[k])
        for k in pair:
            if k - 1 in self.checked and k in self.checked:
                self.matrices.pop(k, None)
        return homology_from_diagonals(
            bar_basis_dimension(self.G, n), self.diagonals[n], self.diagonals[n + 1]
        )


_context: _BarComplex | None = None  # the last group's complex; one group at a time


def integral_homology(
    G: FiniteGroup,
    n: int,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> FgAbelianGroup:
    """H_n(G; Z) in canonical form.

    The guards are checked on every call, before any memoised work is used.
    """
    if n < 0:
        raise ValueError("homology degree must be >= 0")
    if n > degree_cap:
        raise TooLarge(f"degree {n} exceeds the degree cap {degree_cap}")
    if n == 0:
        return FgAbelianGroup.free(1)
    for k in (n, n + 1):
        _check_guards(G, k, degree_cap + 1, generator_limit)
    global _context
    if _context is None or _context.G != G:
        _context = _BarComplex(G)
    return _context.homology(n, degree_cap, generator_limit)


def homology_with_coefficients(
    G: FiniteGroup,
    n: int,
    coefficients: FgAbelianGroup,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> FgAbelianGroup:
    """H_n(G; A) for trivially acted-on A, via universal coefficients:
    H_n(G; Z) (x) A  +  Tor(H_{n-1}(G; Z), A).
    """
    if coefficients.is_trivial():
        return FgAbelianGroup.trivial()
    hn = integral_homology(G, n, degree_cap=degree_cap, generator_limit=generator_limit)
    part = tensor(hn, coefficients)
    if n >= 1:
        hprev = integral_homology(G, n - 1, degree_cap=degree_cap, generator_limit=generator_limit)
        part = direct_sum_all([part, tor_product(hprev, coefficients)])
    return part


def cyclic_homology_oracle(m: int, n: int) -> FgAbelianGroup:
    """H_n(Z/m; Z) from the 2-periodic resolution (norm / difference maps).

    After tensoring down to trivial coefficients the difference map is 0 and
    the norm map is multiplication by m; the homology of that segment is
    computed honestly, not read from a table.
    """
    if m < 1:
        raise ValueError(f"cyclic order must be >= 1, got {m}")
    if n < 0:
        raise ValueError("degree must be >= 0")

    def boundary(k: int) -> IntegerMatrix:
        # degree k -> k-1, k >= 1: difference map in odd degrees, norm in even
        value = 0 if k % 2 == 1 else m
        return IntegerMatrix(1, 1, {(0, 0): value})

    d_in = boundary(n + 1)
    d_out = boundary(n) if n >= 1 else IntegerMatrix.zero(0, 1)
    return homology_of_pair(d_in, d_out)


def cyclic_homology_sequence(m: int, top: int) -> list[FgAbelianGroup]:
    return [cyclic_homology_oracle(m, n) for n in range(top + 1)]


def kunneth_oracle(hA, hB, n: int) -> FgAbelianGroup:
    """H_n of a product space from the factors' homology sequences:
    sum of tensors in total degree n plus Tor terms in total degree n-1.
    """
    if len(hA) <= n or len(hB) <= n:
        raise InsufficientDegrees(
            f"need homology through degree {n}, got lengths {len(hA)} and {len(hB)}"
        )
    parts = [tensor(hA[i], hB[n - i]) for i in range(n + 1)]
    parts += [tor_product(hA[i], hB[n - 1 - i]) for i in range(n)]
    return direct_sum_all(parts)


def clear_homology_cache():
    """Drop every memoised boundary matrix, Smith diagonal and d^2 check."""
    global _context
    _context = None
