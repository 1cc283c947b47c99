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
    labels: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def identity(self) -> int:
        return 0

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


@dataclass(frozen=True)
class ConjugacyClassSet:
    """Partition of element indices under conjugation, one representative each."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]

    def __len__(self):
        return len(self.classes)


def _default_labels(n: int) -> tuple[str, ...]:
    return ("e",) + tuple(f"g{i}" for i in range(1, n))


def group_from_table(table, labels=None) -> FiniteGroup:
    """Validate a multiplication table and return the group.

    Checks the Latin-square property, a two-sided identity (relabeled to
    index 0 if found elsewhere), associativity, and inverses.  Raises
    NotAGroup with the first violating tuple of indices.
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
    if labels is None:
        labels = list(_default_labels(n))
    else:
        labels = list(labels)
        if len(labels) != n:
            raise NotAGroup(f"expected {n} labels, got {len(labels)}", witness=())
    if e != 0:
        # relabel so the identity sits at index 0
        perm = list(range(n))
        perm[0], perm[e] = perm[e], perm[0]
        inv_perm = perm  # a transposition is its own inverse
        rows = [
            [inv_perm[rows[perm[i]][perm[j]]] for j in range(n)]
            for i in range(n)
        ]
        labels = [labels[perm[i]] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                    raise NotAGroup(
                        f"associativity fails at ({i}, {j}, {k})", witness=(i, j, k)
                    )
    for i in range(n):
        if 0 not in rows[i]:
            raise NotAGroup(f"element {i} has no inverse", witness=(i,))
    return FiniteGroup(tuple(tuple(r) for r in rows), tuple(labels))


def _check_cap(order: int, order_cap: int):
    if order > order_cap:
        raise TooLarge(f"group of order {order} exceeds the order cap {order_cap} (GROUPK_ORDER_CAP)")


def cyclic(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    _check_cap(n, order_cap)
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    labels = ("e",) + tuple(f"g^{i}" if i > 1 else "g" for i in range(1, n))
    return FiniteGroup(table, labels)


def direct_product(a: FiniteGroup, b: FiniteGroup, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    n = a.order * b.order
    _check_cap(n, order_cap)

    def idx(i, j):
        return i * b.order + j

    table = tuple(
        tuple(
            idx(a.table[i1][i2], b.table[j1][j2])
            for i2 in range(a.order) for j2 in range(b.order)
        )
        for i1 in range(a.order) for j1 in range(b.order)
    )
    labels = tuple(
        f"({a.labels[i]},{b.labels[j]})" for i in range(a.order) for j in range(b.order)
    )
    return FiniteGroup(table, labels)


def dihedral(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i and reflections s r^i."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    _check_cap(2 * n, order_cap)

    def idx(i, s):
        return i + n * s

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for s in range(2):
            for k in range(n):
                for t in range(2):
                    if s == 0:
                        table[idx(i, s)][idx(k, t)] = idx((i + k) % n, t)
                    else:
                        table[idx(i, s)][idx(k, t)] = idx((i - k) % n, 1 - t)
    labels = ["e"] + [f"r^{i}" if i > 1 else "r" for i in range(1, n)]
    labels += [f"s*r^{i}" if i > 1 else ("s" if i == 0 else "s*r") for i in range(n)]
    return FiniteGroup(tuple(tuple(r) for r in table), tuple(labels))


def symmetric(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Symmetric group on n letters, n <= 5; elements in lexicographic order."""
    if not (1 <= n <= 5):
        raise ValueError(f"symmetric group supported for 1 <= n <= 5, got {n}")
    perms = list(itertools.permutations(range(n)))
    _check_cap(len(perms), order_cap)
    index = {p: k for k, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms)
        for p in perms
    )
    labels = tuple("".join(str(x + 1) for x in p) for p in perms)
    return FiniteGroup(table, labels)


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
                q = tuple(p[g[x]] for x in range(deg))
                if q not in seen:
                    if len(elements) + len(new) + 1 > order_cap:
                        raise TooLarge(
                            f"permutation closure exceeds the order cap {order_cap} (GROUPK_ORDER_CAP)"
                        )
                    seen.add(q)
                    new.append(q)
        elements.extend(new)
        frontier = new
    index = {p: k for k, p in enumerate(elements)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(deg))] for q in elements)
        for p in elements
    )
    labels = tuple("(" + " ".join(str(x) for x in p) + ")" for p in elements)
    return FiniteGroup(table, labels)


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClassSet:
    n = G.order
    seen = [False] * n
    classes = []
    reps = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = sorted({G.conj(g, x) for g in range(n)})
        for y in orbit:
            seen[y] = True
        classes.append(tuple(orbit))
        reps.append(orbit[0])
    return ConjugacyClassSet(tuple(classes), tuple(reps))


def element_order(G: FiniteGroup, x: int) -> int:
    if not (0 <= x < G.order):
        raise IndexError(x)
    k = 1
    y = x
    while y != 0:
        y = G.mul(y, x)
        k += 1
    return k


def _subgroup_closure(G: FiniteGroup, seed) -> list[int]:
    elems = {0} | set(seed)
    frontier = list(elems)
    while frontier:
        new = []
        for a in list(elems):
            for b in frontier:
                c = G.mul(a, b)
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return sorted(elems)


def commutator_subgroup(G: FiniteGroup) -> list[int]:
    n = G.order
    comms = {
        G.mul(G.mul(x, y), G.mul(G.inv(x), G.inv(y)))
        for x in range(n) for y in range(n)
    }
    return _subgroup_closure(G, comms)


def quotient_by_normal(G: FiniteGroup, normal) -> FiniteGroup:
    """Quotient by a normal subgroup given as a sorted list of indices."""
    nset = set(normal)
    coset_of = {}
    reps = []
    for x in G.elements():
        if x in coset_of:
            continue
        coset = sorted(G.mul(h, x) for h in nset)
        rep = coset[0]
        reps.append(rep)
        for y in coset:
            coset_of[y] = rep
    reps.sort()
    pos = {r: k for k, r in enumerate(reps)}
    table = tuple(
        tuple(pos[coset_of[G.mul(a, b)]] for b in reps) for a in reps
    )
    labels = tuple(G.labels[r] for r in reps)
    return FiniteGroup(table, labels)


def abelianization(G: FiniteGroup) -> FgAbelianGroup:
    """G / [G, G] in canonical form.

    The abelian quotient is presented on its own elements: one relation
    x_i + x_j - x_{ij} per pair, and the cokernel is read off by Smith form.
    """
    Q = quotient_by_normal(G, commutator_subgroup(G))
    m = Q.order
    entries = {}
    r = 0
    for i in range(m):
        for j in range(m):
            k = Q.mul(i, j)
            # relation x_i + x_j - x_{ij} = 0
            for col, c in ((i, 1), (j, 1), (k, -1)):
                entries[(r, col)] = entries.get((r, col), 0) + c
            r += 1
    relations = IntegerMatrix(r, m, entries, entry_limit=None)
    return from_presentation(relations)


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
    return group_from_table(table, labels or None)
