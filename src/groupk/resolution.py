"""Integral group homology from a small free ZG-resolution.

The method is Ellis's, "Computing group resolutions", J. Symbolic Comput. 38
(2004), the one behind HAP's ResolutionFiniteGroup.  The free module ZG^k is
stored as Z^(k|G|), the coordinate (i, g) at i*|G| + g, and h acts on the
left by (i, g) -> (i, h*g).  Starting from the augmentation ZG -> Z, each
degree takes a Z-basis of the kernel below and picks from it, least support
first, generators whose G-translates span that kernel; d_n sends the i-th
generator of F_n to the i-th vector picked.  Tensored down to Z, d_n is the
k_{n-1} x k_n matrix of block sums, and its Smith diagonals give H_n.

A lattice is kept as a reduced echelon form, {pivot: row} with each row a
{coordinate: value} dict whose least coordinate is its pivot and whose pivot
entry is positive.  A new row is reduced against the later pivots, and its
pivot reduces the entries above it in earlier rows, as in a Hermite normal
form.  Without that, on products of order up to 64, kernel entries reached
about 4000 bits and some groups took over 5 s each; with it they stayed
under 8 bits, and the slowest group took 0.3 s on a 2-vCPU VM.
"""

from __future__ import annotations

import math

from . import intlinalg
from .abelian import FgAbelianGroup
from .errors import TooLarge
from .groups import FiniteGroup
from .homology import DEFAULT_GENERATOR_LIMIT
from .intlinalg import IntegerMatrix, check_complex, homology_from_diagonals

# a fixed bound on lattice entries, so that entry growth fails fast; for H_2
# no group tried up to the order cap needed more than 48 bits
ENTRY_BIT_LIMIT = 512


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0, for a > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _insert(echelon, v, size) -> bool:
    """Add v, a vector in Z^size, to the lattice of echelon's rows, in place.

    Returns False when v already lies in the lattice.
    """
    w = [0] * size  # v, reduced from its least coordinate up
    for k, x in v.items():
        w[k] = x
    grew = False  # a gcd step grows the lattice even when v then reduces to 0
    pivot = None  # v's own pivot, once it has one
    for p in range(min(v), size):
        a = w[p]
        if not a:
            continue
        row = echelon.get(p)
        if row is None:
            if pivot is None:
                pivot = p
                if a < 0:
                    w = [-x for x in w]
            continue
        b = row[p]
        if pivot is None and a % b:
            # row and v span what a row of pivot gcd(a, b) and a v with no p-entry span
            g, x, y = _xgcd(b, a)
            grew = True
            del echelon[p]
            new = {k: y * w[k] for k in range(p, size) if w[k]}
            for k, r in row.items():
                new[k] = new.get(k, 0) + x * r
            _insert(echelon, {k: r for k, r in new.items() if r}, size)
            s, t = a // g, b // g
            w = [-t * e for e in w]
            for k, r in row.items():
                w[k] += s * r
        else:
            f = a // b
            if f:
                for k, r in row.items():
                    w[k] -= f * r
    if pivot is None:
        return grew
    v = {k: w[k] for k in range(pivot, size) if w[k]}
    a = v[pivot]
    for q, row in echelon.items():
        f = row.get(pivot, 0) // a
        if f:
            new = dict(row)
            for k, x in v.items():
                new[k] = new.get(k, 0) - f * x
            echelon[q] = _checked({k: x for k, x in new.items() if x})
    echelon[pivot] = _checked(v)
    return True


def _checked(row):
    """row, unless one of its entries is longer than ENTRY_BIT_LIMIT bits."""
    bits = max(map(abs, row.values())).bit_length()
    if bits > ENTRY_BIT_LIMIT:
        raise TooLarge(f"a resolution lattice entry has {bits} bits, over the bound {ENTRY_BIT_LIMIT}")
    return row


def _kernel(columns, m, block=1):
    """Reduced echelon of the kernel of the map Z^N -> Z^m whose images of the
    unit vectors are `columns`, after summing coordinates in blocks of `block`.

    Column c goes in as (columns[c], unit vector at m + c // block); the rows
    whose pivot lies past m have no image part, and span the kernel's block
    sums.  With block 1 that is the kernel itself, and as the columns go in
    last first, each one's own coordinate is the least transform coordinate
    so far: no earlier row has an entry there to reduce.
    """
    echelon: dict[int, dict[int, int]] = {}
    size = m + len(columns) // block
    for c in reversed(range(len(columns))):
        _insert(echelon, {**columns[c], m + c // block: 1}, size)
    return {p - m: {k - m: x for k, x in row.items()} for p, row in echelon.items() if p >= m}


def _translate(G, v, h):
    """h * v for v in ZG^k."""
    n, left = G.order, G.table[h]
    return {k - k % n + left[k % n]: x for k, x in v.items()}


def _block_sums(v, n):
    """The image of v in ZG^k (x)_ZG Z = Z^k."""
    sums: dict[int, int] = {}
    for k, x in v.items():
        sums[k // n] = sums.get(k // n, 0) + x
    return {j: x for j, x in sums.items() if x}


def _generators(G, kernel, size):
    """Kernel rows, least support first, whose G-translates span the kernel.

    A row already in the span so far is skipped; the pick stops once the span
    has the kernel's rank and the same pivot product, so index 1.
    """
    det = math.prod(row[p] for p, row in kernel.items())
    span, picked = {}, []
    for _, _, row in sorted((len(row), p, row) for p, row in kernel.items()):
        if len(span) == len(kernel) and math.prod(r[p] for p, r in span.items()) == det:
            break
        if _insert(span, row, size):
            picked.append(row)
            for h in range(1, G.order):
                _insert(span, _translate(G, row, h), size)
    return picked


def _matrix(rows, columns):
    """The rows x len(columns) matrix whose c-th column is the vector columns[c]."""
    data: dict[int, dict[int, int]] = {}
    for c, v in enumerate(columns):
        for k, x in v.items():
            data.setdefault(k, {})[c] = x
    return IntegerMatrix.from_row_dicts(rows, len(columns), data)


def resolution_homology_sequence(
    G: FiniteGroup,
    top: int,
    *,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> list[FgAbelianGroup]:
    """[H_0(G; Z), ..., H_top(G; Z)] from a free ZG-resolution F_top -> ... -> F_0.

    Before the kernel of d_{n-1} is taken, the lattice it eliminates, of rank
    k_{n-1}|G| over Z, is checked against generator_limit.  Each d_n is
    checked against d_{n-1} over ZG before it is tensored down and
    Smith-reduced.  Degree top + 1 needs no generators: ker d_top is the
    image of d_{top+1}, so the block sums of its basis span the image of
    d_{top+1} (x) Z.
    """
    if top < 0:
        raise ValueError("homology degree must be >= 0")
    if top == 0:
        return [FgAbelianGroup.free(1)]
    n = G.order
    columns = [{0: 1}] * n  # the augmentation ZG -> Z
    below = _matrix(1, columns)
    rank_below, below_diagonal, groups = 1, [], []
    for degree in range(1, top + 2):
        if len(columns) > generator_limit:
            raise TooLarge(
                f"resolution module in degree {degree - 1} has {len(columns)} generators "
                f"over Z, over the limit {generator_limit} (GROUPK_GENERATOR_LIMIT)"
            )
        if degree <= top:
            picked = _generators(G, _kernel(columns, below.rows), len(columns))
            images = [_block_sums(v, n) for v in picked]
            columns = [_translate(G, v, h) for v in picked for h in range(n)]
            d = _matrix(below.cols, columns)
            check_complex(d, below)
            below = d
        else:
            images = list(_kernel(columns, below.rows, n).values())
        diagonal = intlinalg.smith_diagonal(_matrix(rank_below, images))
        groups.append(homology_from_diagonals(rank_below, below_diagonal, diagonal))
        rank_below, below_diagonal = len(images), diagonal
    return groups
