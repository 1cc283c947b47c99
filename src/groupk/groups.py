"""Finite groups as explicit multiplication tables, with builders and structure.

Index 0 is always the identity; builders emit deterministic element orderings
so every downstream computation is reproducible byte-for-byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import FgAbelianGroup, from_presentation
from .errors import GroupKError, NotAGroup, TooLarge
from .intlinalg import IntegerMatrix

DEFAULT_ORDER_CAP = 64


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication-table presentation: table[i][j] = index of g_i * g_j."""

    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.table[i].index(0)

    def conj(self, g: int, x: int) -> int:
        return self.mul(self.mul(g, x), self.inv(g))

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(x), -k)
        acc = 0
        base = x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[i][j] == self.table[j][i] for i in range(n) for j in range(i))

    def elements(self):
        return range(self.order)


def _group(elements, mul) -> FiniteGroup:
    """The table of `mul` on `elements` (identity first), indexed in their order."""
    index = {x: k for k, x in enumerate(elements)}
    return FiniteGroup(tuple(tuple(index[mul(a, b)] for b in elements) for a in elements))


def _compose(p, q):
    """The permutation x -> p[q[x]]."""
    return tuple(p[x] for x in q)


def group_from_table(table) -> FiniteGroup:
    """Validate a multiplication table and return the group.

    Checks the Latin-square property, a two-sided identity (relabeled to
    index 0 if found elsewhere) and associativity.  Raises NotAGroup with the
    first violating tuple of indices.  Inverses need no check: every row and
    every column of a Latin square contains the identity, and associativity
    makes the right and left inverses so found equal.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    rows = [list(r) for r in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}", witness=(i,))
        for j, v in enumerate(row):
            if not (0 <= v < n):
                raise NotAGroup(f"entry table[{i}][{j}] = {v} out of range", witness=(i, j))
    for i in range(n):
        if len(set(rows[i])) != n:
            raise NotAGroup(f"row {i} is not a permutation (not a Latin square)", witness=(i,))
        col = [rows[k][i] for k in range(n)]
        if len(set(col)) != n:
            raise NotAGroup(f"column {i} is not a permutation (not a Latin square)", witness=(i,))
    # find the two-sided identity
    e = None
    for c in range(n):
        if all(rows[c][j] == j for j in range(n)) and all(rows[i][c] == i for i in range(n)):
            e = c
            break
    if e is None:
        raise NotAGroup("no two-sided identity element", witness=())
    # swap the identity into index 0
    order = list(range(n))
    order[0], order[e] = e, 0
    G = _group(order, lambda a, b: rows[a][b])
    t = G.table
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    raise NotAGroup(
                        f"associativity fails at ({i}, {j}, {k})", witness=(i, j, k)
                    )
    return G


def _check_cap(order: int, order_cap: int):
    if order > order_cap:
        raise TooLarge(f"group of order {order} exceeds the order cap {order_cap} (GROUPK_ORDER_CAP)")


def cyclic(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    _check_cap(n, order_cap)
    return _group(range(n), lambda i, j: (i + j) % n)


def direct_product(a: FiniteGroup, b: FiniteGroup, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    _check_cap(a.order * b.order, order_cap)
    pairs = list(itertools.product(a.elements(), b.elements()))
    return _group(pairs, lambda x, y: (a.table[x[0]][y[0]], b.table[x[1]][y[1]]))


def dihedral(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i, then reflections s r^i."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    _check_cap(2 * n, order_cap)
    elements = [(i, s) for s in range(2) for i in range(n)]
    return _group(elements, lambda x, y: ((x[0] - y[0] if x[1] else x[0] + y[0]) % n, x[1] ^ y[1]))


def symmetric(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Symmetric group on n letters, n <= 5; elements in lexicographic order."""
    if not (1 <= n <= 5):
        raise ValueError(f"symmetric group supported for 1 <= n <= 5, got {n}")
    perms = list(itertools.permutations(range(n)))
    _check_cap(len(perms), order_cap)
    return _group(perms, _compose)


def permutation_closure(generators, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Subgroup generated by permutations on a common finite set.

    Each generator is a sequence mapping point k to generator[k].  Elements
    are discovered breadth-first from the identity, which fixes the ordering.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    deg = len(gens[0])
    for g in gens:
        if len(g) != deg or sorted(g) != list(range(deg)):
            raise ValueError(f"not a permutation of 0..{deg - 1}: {g}")
    ident = tuple(range(deg))
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in seen:
                    if len(elements) + len(new) + 1 > order_cap:
                        raise TooLarge(
                            f"permutation closure exceeds the order cap {order_cap} (GROUPK_ORDER_CAP)"
                        )
                    seen.add(q)
                    new.append(q)
        elements.extend(new)
        frontier = new
    return _group(elements, _compose)


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The conjugacy classes, each sorted ascending, in order of least element."""
    n = G.order
    seen = [False] * n
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = sorted({G.conj(g, x) for g in range(n)})
        for y in orbit:
            seen[y] = True
        classes.append(tuple(orbit))
    return tuple(classes)


def element_order(G: FiniteGroup, x: int) -> int:
    if not (0 <= x < G.order):
        raise IndexError(x)
    k = 1
    y = x
    while y != 0:
        y = G.mul(y, x)
        k += 1
    return k


def abelianization(G: FiniteGroup) -> FgAbelianGroup:
    """G / [G, G] in canonical form.

    It is the cokernel of one presentation on G's own elements: a generator
    x_g per element and one relation x_g + x_h - x_{gh} per pair.  Maps out
    of it to an abelian group are the homomorphisms out of G, so it is G^ab
    by the universal property.
    """
    n = G.order
    entries = {}
    for r, (i, j) in enumerate(itertools.product(range(n), repeat=2)):
        for col, c in ((i, 1), (j, 1), (G.mul(i, j), -1)):
            entries[(r, col)] = entries.get((r, col), 0) + c
    return from_presentation(IntegerMatrix(n * n, n, entries))


def group_from_file(path, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Read the multiplication-table file format.

    First line: the order m.  Then m lines of m whitespace-separated indices.
    Any further nonempty lines are element labels, one per line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc.reason
        raise GroupKError(f"cannot read table file {path!r}: {reason}") from None
    lines = [ln for ln in lines if ln]
    if not lines:
        raise NotAGroup("empty table file")
    try:
        m = int(lines[0])
    except ValueError:
        raise NotAGroup(f"first line must be the order, got {lines[0]!r}") from None
    if m < 1:
        raise NotAGroup(f"order must be >= 1, got {m}")
    _check_cap(m, order_cap)
    if len(lines) < 1 + m:
        raise NotAGroup(f"expected {m} table rows, found {len(lines) - 1}")
    table = []
    for ln in lines[1:1 + m]:
        try:
            table.append([int(tok) for tok in ln.split()])
        except ValueError:
            raise NotAGroup(f"non-integer table entry in row {ln!r}") from None
    labels = lines[1 + m:]
    if labels and len(labels) != m:
        raise NotAGroup(f"expected {m} labels, got {len(labels)}", witness=())
    return group_from_table(table)
