"""The benchmark's own model of the groups it sends to groupk.

Every group is a direct product of factors, each given by permutation
generators on its own block of points.  The model is used three ways: to
write the group as a CLI spec (`C2xC4`, `D6`, `perm:...` or `table:...`), to
count q-classes for the oracle, and to name the homology closed form the
oracle uses.  None of it calls groupk's group builders.
"""

from __future__ import annotations

from dataclasses import dataclass

# Factor kinds.  "C" and "D" take a parameter n (order n and 2n); the others
# are fixed groups.  ATOM_KINDS are the ones the CLI's product syntax accepts.
ATOM_KINDS = ("C", "D", "S3", "S4")


@dataclass(frozen=True)
class Factor:
    kind: str  # "C", "D", "S3", "S4", "A4", "Q8"
    n: int = 0

    @property
    def order(self) -> int:
        return {"C": self.n, "D": 2 * self.n, "S3": 6, "S4": 24, "A4": 12, "Q8": 8}[self.kind]

    @property
    def atom(self) -> str:
        return f"{self.kind}{self.n}" if self.kind in ("C", "D") else self.kind

    def generators(self) -> list[tuple[int, ...]]:
        """Permutations of 0..degree-1 that generate this factor."""
        n = self.n
        if self.kind == "C":
            return [tuple((i + 1) % n for i in range(n))]
        if self.kind == "D":  # symmetries of the n-gon, n >= 3
            return [tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n))]
        if self.kind == "S3":
            return [(1, 2, 0), (1, 0, 2)]
        if self.kind == "S4":
            return [(1, 2, 3, 0), (1, 0, 2, 3)]
        if self.kind == "A4":
            return [(1, 2, 0, 3), (1, 0, 3, 2)]
        # Q8 in its regular representation: i and j acting on the 8 elements
        return [(1, 4, 7, 2, 5, 0, 3, 6), (2, 3, 4, 5, 6, 7, 0, 1)]


@dataclass(frozen=True)
class Group:
    """A direct product of factors, in the order the spec lists them."""

    factors: tuple[Factor, ...]

    @property
    def label(self) -> str:
        return "x".join(f.atom for f in self.factors)

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.order
        return out

    @property
    def has_atom_spec(self) -> bool:
        return all(f.kind in ATOM_KINDS for f in self.factors)

    def generators(self) -> list[tuple[int, ...]]:
        """Generators of the product, each factor on its own block of points."""
        blocks = [(f, f.generators()) for f in self.factors]
        degree = sum(len(gens[0]) for _, gens in blocks)
        out = []
        offset = 0
        for _, gens in blocks:
            size = len(gens[0])
            for g in gens:
                perm = list(range(degree))
                for i in range(size):
                    perm[offset + i] = offset + g[i]
                out.append(tuple(perm))
            offset += size
        return out

    def elements(self) -> list[tuple[int, ...]]:
        """All elements, breadth-first from the identity."""
        gens = self.generators()
        ident = tuple(range(len(gens[0])))
        elems = [ident]
        seen = {ident}
        for p in elems:  # grows while iterating
            for g in gens:
                r = compose(p, g)
                if r not in seen:
                    seen.add(r)
                    elems.append(r)
        if len(elems) != self.order:
            raise AssertionError(f"{self.label}: closure has {len(elems)} elements, expected {self.order}")
        return elems

    def perm_spec(self) -> str:
        """`perm:` spec with 1-based points, one generator per `;`."""
        return "perm:" + ";".join(cycle_text(g) for g in self.generators())

    def table_text(self) -> str:
        """The `table:` file format: order, then one row per element."""
        elems = self.elements()
        index = {p: k for k, p in enumerate(elems)}
        lines = [str(len(elems))]
        lines += [" ".join(str(index[compose(a, b)]) for b in elems) for a in elems]
        return "\n".join(lines) + "\n"

    def q_class_count(self, q: int) -> int:
        """Orbits of G under conjugation together with x -> x^q (Berman's count)."""
        elems = self.elements()
        seen: set = set()
        count = 0
        for x in elems:
            if x in seen:
                continue
            count += 1
            seen.add(x)
            frontier = [x]
            while frontier:
                y = frontier.pop()
                nbrs = {compose(compose(inverse(g), y), g) for g in elems}
                nbrs.add(power(y, q))
                for z in nbrs - seen:
                    seen.add(z)
                    frontier.append(z)
        return count


def compose(p, g):
    """Apply p, then g (points map i -> g[p[i]])."""
    return tuple(g[i] for i in p)


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def power(p, k):
    acc = tuple(range(len(p)))
    base = p
    while k:
        if k & 1:
            acc = compose(acc, base)
        base = compose(base, base)
        k >>= 1
    return acc


def cycle_text(perm) -> str:
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x + 1))
            x = perm[x]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out)


def C(*ns: int) -> Group:
    return Group(tuple(Factor("C", n) for n in ns))


def named(*kinds) -> Group:
    """named("D", 4, "C", 2) -> D4xC2; fixed kinds take no parameter."""
    factors = []
    items = list(kinds)
    while items:
        kind = items.pop(0)
        n = items.pop(0) if kind in ("C", "D") else 0
        factors.append(Factor(kind, n))
    return Group(tuple(factors))
