"""Integral group homology of finite groups, with oracles.

integral_homology_sequence computes H_0 .. H_N(G; Z) in one pass up the free
ZG-resolution of groupk.resolution, keeping nothing between calls, after
checking the request against the guards of the normalized bar complex: they
still count bar generators, so the accepted domain is the bar engine's.
bar_homology_sequence is that bar engine, the tests' reference.  e2_page runs
on it until the benchmark stops keeping every op's stdout (ROADMAP item 1):
switched over, e2page-bigq's peak RSS rose from about 35 to 125 MB.  Homology
with (trivially acted-on) coefficients follows by universal coefficients.
Two independent oracles — the 2-periodic resolution for cyclic groups and the
Kunneth formula for direct products — exist so the engines can be
cross-checked, never trusted on their own.
"""

from __future__ import annotations

import itertools

from . import intlinalg
from .abelian import FgAbelianGroup, direct_sum_all, tensor, tor_product
from .errors import InsufficientDegrees, TooLarge
from .groups import FiniteGroup, cyclic
from .intlinalg import IntegerMatrix, check_complex, homology_from_diagonals, homology_of_pair
from .resolution import DEFAULT_GENERATOR_LIMIT, resolution_homology_sequence

DEFAULT_DEGREE_CAP = 4


def bar_basis_dimension(G: FiniteGroup, n: int) -> int:
    return (G.order - 1) ** n


def _capped(n: int, degree_cap: int) -> int:
    if n > degree_cap:
        raise TooLarge(f"degree {n} exceeds the degree cap {degree_cap}")
    return n


def _check_guards(G, n, degree_cap, generator_limit):
    _capped(n, degree_cap)
    if bar_basis_dimension(G, n) > generator_limit:
        raise TooLarge(
            f"bar basis in degree {n} has {bar_basis_dimension(G, n)} generators, "
            f"over the limit {generator_limit} (GROUPK_GENERATOR_LIMIT)"
        )
    # a degree-n generator is an n-tuple, so even one per degree (C1, C2) puts
    # about n^2 / 2 entries in the chain through degree n
    if n * n > generator_limit:
        raise TooLarge(
            f"degree {n} squared is {n * n}, over the limit {generator_limit} (GROUPK_GENERATOR_LIMIT)"
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
    rows: dict[int, dict[int, int]] = {}

    def add(row_tuple, col, sign):
        if 0 in row_tuple:
            return  # normalization: faces through the identity vanish
        r = lower_index[row_tuple]
        row = rows.setdefault(r, {})
        v = row.get(col, 0) + sign
        if v == 0:
            del row[col]  # two faces of this column cancel
            if not row:
                del rows[r]
        else:
            row[col] = v

    for col, g in enumerate(itertools.product(nonid, repeat=n)):
        add(g[1:], col, 1)
        sign = -1
        for i in range(n - 1):
            merged = g[:i] + (G.mul(g[i], g[i + 1]),) + g[i + 2:]
            add(merged, col, sign)
            sign = -sign
        add(g[:-1], col, sign)
    return IntegerMatrix.from_row_dicts(len(lower), (G.order - 1) ** n, rows)


def bar_homology_sequence(
    G: FiniteGroup,
    top: int,
    *,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> list[FgAbelianGroup]:
    """[H_0(G; Z), ..., H_top(G; Z)] from one pass up the normalized bar complex.

    The guards of d_1 .. d_{top+1} are checked lowest first before any is
    built, so a request past a bound fails at once.  Each d_k is then built,
    checked against d_{k-1} and Smith-reduced once; only d_{k-1} and its
    diagonal are kept, and nothing outlives the call.
    """
    if top < 0:
        raise ValueError("homology degree must be >= 0")
    if top == 0:
        return [FgAbelianGroup.free(1)]
    for k in range(1, top + 2):
        _check_guards(G, k, top + 1, generator_limit)
    groups = []
    below, below_diagonal = IntegerMatrix.zero(0, 1), []  # d_0, the zero map
    for k in range(1, top + 2):
        d = bar_boundary(G, k, degree_cap=top, generator_limit=generator_limit)
        check_complex(d, below)
        below = d  # frees d_{k-1} before d_k is reduced
        diagonal = intlinalg.smith_diagonal(d)
        groups.append(homology_from_diagonals(bar_basis_dimension(G, k - 1), below_diagonal, diagonal))
        below_diagonal = diagonal
    return groups


def integral_homology_sequence(
    G: FiniteGroup,
    top: int,
    *,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> list[FgAbelianGroup]:
    """[H_0(G; Z), ..., H_top(G; Z)] from the free ZG-resolution.

    The request is first checked against the bar guards of d_1 .. d_{top+1},
    lowest first, so it is accepted or refused, with the same message,
    exactly where bar_homology_sequence accepts or refuses it.
    """
    if top > 0:  # H_0 = Z needs no boundary, and is not guarded on the bar engine either
        for k in range(1, top + 2):
            _check_guards(G, k, top + 1, generator_limit)
    return resolution_homology_sequence(G, top, generator_limit=generator_limit)


def integral_homology(
    G: FiniteGroup,
    n: int,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> FgAbelianGroup:
    """H_n(G; Z) in canonical form: the last entry of the sequence through n."""
    return integral_homology_sequence(
        G, _capped(n, degree_cap), generator_limit=generator_limit)[-1]


def universal_coefficients(hs, n: int, coefficients: FgAbelianGroup) -> FgAbelianGroup:
    """H_n(G; A) for trivially acted-on A from hs = [H_0(G; Z), ..., H_n(G; Z)]:
    H_n(G; Z) (x) A  +  Tor(H_{n-1}(G; Z), A).
    """
    if coefficients.is_trivial():
        return FgAbelianGroup.trivial()
    part = tensor(hs[n], coefficients)
    if n >= 1:
        part = direct_sum_all([part, tor_product(hs[n - 1], coefficients)])
    return part


def homology_with_coefficients(
    G: FiniteGroup,
    n: int,
    coefficients: FgAbelianGroup,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> FgAbelianGroup:
    """H_n(G; A) for trivially acted-on A; no boundary is built when A = 0."""
    if coefficients.is_trivial():
        return FgAbelianGroup.trivial()
    hs = integral_homology_sequence(G, _capped(n, degree_cap), generator_limit=generator_limit)
    return universal_coefficients(hs, n, coefficients)


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
    """A no-op: no homology work is kept between calls."""
