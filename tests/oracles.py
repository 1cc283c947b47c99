"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: exhaustive enumeration, cofactor
determinants, minor gcds.  None of it shares code paths with the package.
"""

import heapq
import itertools
import math


def det(rows):
    """Determinant by permutation expansion; fine for n <= 5."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def minor_gcd(rows, k):
    """gcd of absolute values of all k x k minors; 0 if all vanish."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    g = 0
    for ris in itertools.combinations(range(m), k):
        for cis in itertools.combinations(range(n), k):
            sub = [[rows[i][j] for j in cis] for i in ris]
            g = math.gcd(g, abs(det(sub)))
    return g


def cyclotomic_coset_count(n, q):
    """Number of orbits of r -> q*r mod n on Z/n (q coprime to n)."""
    seen = [False] * n
    count = 0
    for r in range(n):
        if seen[r]:
            continue
        count += 1
        x = r
        while not seen[x]:
            seen[x] = True
            x = (x * q) % n
    return count


def character_orbit_count(invariant_factors, free_rank, q):
    """Orbits of multiplication by q on the character group of a finite
    abelian group given in canonical form (free rank must be 0)."""
    assert free_rank == 0
    elements = itertools.product(*(range(d) for d in invariant_factors))
    seen = set()
    count = 0
    for x in elements:
        if x in seen:
            continue
        count += 1
        y = x
        while y not in seen:
            seen.add(y)
            y = tuple((q * c) % d for c, d in zip(y, invariant_factors))
    return count


def abelian_group_profile(orders):
    """(cardinality, exponent) of a direct sum of Z/m by enumeration."""
    card = math.prod(orders)
    exponent = 1
    for elt in itertools.product(*(range(m) for m in orders)):
        k = 1
        cur = elt
        while any(cur):
            cur = tuple((a + b) % m for a, b, m in zip(cur, elt, orders))
            k += 1
        exponent = max(exponent, k)
    return card, exponent


class SmallField:
    """The field with p^e elements as polynomials mod an irreducible monic.

    Only needs e <= 3, where irreducibility over F_p is just 'no root'.
    """

    def __init__(self, p, e):
        self.p = p
        self.e = e
        if e == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = self._find_irreducible()
        self.elements = list(itertools.product(range(p), repeat=e))

    def _find_irreducible(self):
        p, e = self.p, self.e
        assert 2 <= e <= 3
        for tail in itertools.product(range(p), repeat=e):
            coeffs = tail + (1,)  # monic of degree e
            if all(self._poly_eval(coeffs, x) % p != 0 for x in range(p)):
                return coeffs
        raise AssertionError("no irreducible polynomial found")

    @staticmethod
    def _poly_eval(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def mul(self, a, b):
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce modulo the monic modulus
        for k in range(len(prod) - 1, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(e):
                    prod[k - e + i] = (prod[k - e + i] - c * self.modulus[i]) % p
        return tuple(prod[:e])

    def multiplicative_order(self, a):
        one = (1,) + (0,) * (self.e - 1)
        k = 1
        cur = a
        while cur != one:
            cur = self.mul(cur, a)
            k += 1
        return k


def multiplicative_group_order(p, e):
    """Order of the unit group of F_{p^e}, verified cyclic by finding a
    generator; returns the group order."""
    field = SmallField(p, e)
    zero = (0,) * e
    units = [a for a in field.elements if a != zero]
    orders = [field.multiplicative_order(a) for a in units]
    assert max(orders) == len(units), "unit group is cyclic"
    return len(units)


def conjugacy_class_sizes_symmetric(n):
    """Class sizes of S_n by exhaustive conjugation over all pairs."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[x]] for x in range(n))

    def invert(p):
        out = [0] * n
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    seen = set()
    sizes = []
    for x in perms:
        if index[x] in seen:
            continue
        orbit = {index[compose(compose(g, x), invert(g))] for g in perms}
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def _table_classes(table):
    """Conjugacy classes of a multiplication table (identity at index 0)."""
    n = len(table)
    inv = [row.index(0) for row in table]
    class_of = [None] * n
    classes = []
    for x in range(n):
        if class_of[x] is None:
            orbit = sorted({table[table[g][x]][inv[g]] for g in range(n)})
            for y in orbit:
                class_of[y] = len(classes)
            classes.append(orbit)
    return classes, class_of, inv


def _table_power(table, x, k):
    y = 0
    for _ in range(k):
        y = table[y][x]
    return y


def q_class_blocks(table, q):
    """Closure of each element, in order, under conjugation and x -> x^q,
    minus what earlier blocks took; element by element."""
    n = len(table)
    inv = [row.index(0) for row in table]
    seen = [False] * n
    blocks = []
    for x in range(n):
        if seen[x]:
            continue
        block, frontier = [], [x]
        seen[x] = True
        while frontier:
            y = frontier.pop()
            block.append(y)
            nbrs = {table[table[g][y]][inv[g]] for g in range(n)}
            nbrs.add(_table_power(table, y, q))
            for z in nbrs:
                if not seen[z]:
                    seen[z] = True
                    frontier.append(z)
        blocks.append(sorted(block))
    return blocks


def power_orbit_sizes(table, q):
    """Sorted orbit sizes of x -> x^q on the elements (a permutation when
    gcd(q, |G|) = 1); for abelian G, the component field degrees."""
    n = len(table)
    seen = [False] * n
    sizes = []
    for x in range(n):
        size = 0
        while not seen[x]:
            seen[x] = True
            size += 1
            x = _table_power(table, x, q)
        if size:
            sizes.append(size)
    return tuple(sorted(sizes))


def _rank_mod_p(rows, p):
    rows = [[v % p for v in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _mobius(n):
    result, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    return -result if m > 1 else result


def centre_field_degrees(table, q):
    """Degrees over F_q of the component fields of F_q[G], |G| prime to q,
    read off the centre Z(F_p[G]) alone.

    The class sums K_1..K_h are a basis of the centre, with K_i K_j =
    sum_k c_ijk K_k mod p.  The centre is commutative of characteristic p, so
    z -> z^p is F_p-linear; call its matrix F.  The centre is a product of
    fields F_{p^a_j}, so D(k) = dim ker(F^k - 1) = sum_j gcd(a_j, k).  With
    A(d) = #{j : d | a_j} this is D(k) = sum_{d | k} phi(d) A(d), inverted by
    Moebius; the number of a_j equal to f is sum_m mu(m) A(m f).  Over F_q,
    q = p^e, each F_{p^a} splits into gcd(a, e) fields of degree a/gcd(a, e).
    """
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = round(math.log(q, p))
    assert p**e == q and len(table) % p != 0
    classes, class_of, inv = _table_classes(table)
    h = len(classes)
    # c[k][(i, j)]: pairs (x, y) in C_i x C_j with x y the representative of C_k
    c = []
    for cls in classes:
        z = cls[0]
        counts = {}
        for x in range(len(table)):
            key = (class_of[x], class_of[table[inv[x]][z]])
            counts[key] = counts.get(key, 0) + 1
        c.append(counts)

    def mul(u, v):
        return [sum(n * u[i] * v[j] for (i, j), n in ck.items()) % p for ck in c]

    def unit(i):
        return [int(k == i) for k in range(h)]

    columns = []
    for i in range(h):
        z = unit(i)
        for _ in range(p - 1):
            z = mul(z, unit(i))
        columns.append(z)
    F = [[columns[j][i] for j in range(h)] for i in range(h)]
    D = {}
    Fk = [unit(i) for i in range(h)]
    for k in range(1, h + 1):
        Fk = [[sum(Fk[i][m] * F[m][j] for m in range(h)) % p for j in range(h)] for i in range(h)]
        D[k] = h - _rank_mod_p([[Fk[i][j] - (i == j) for j in range(h)] for i in range(h)], p)
    A = {}
    for k in range(1, h + 1):
        total = sum(_mobius(k // d) * D[d] for d in range(1, k + 1) if k % d == 0)
        phi = sum(1 for r in range(1, k + 1) if math.gcd(r, k) == 1)
        assert total % phi == 0
        A[k] = total // phi
    degrees = []
    for f in range(1, h + 1):
        count = sum(_mobius(m) * A[m * f] for m in range(1, h // f + 1))
        degrees += [f] * count
    assert sum(degrees) == h
    return tuple(sorted(
        a // math.gcd(a, e) for a in degrees for _ in range(math.gcd(a, e))
    ))


def unit_pivot_phase(entries):
    """Reference for the unit-pivot phase of Smith reduction: the tuple-heap
    elimination with a (score, row, column) key, score = fill estimate.

    `entries` maps (row, column) to a nonzero int.  Returns the number of unit
    pivots eliminated and the leftover rows, dense over the surviving columns
    (both in increasing order); None when no column survives.
    """
    rows, colidx = {}, {}
    for (i, j), v in entries.items():
        rows.setdefault(i, {})[j] = v
        colidx.setdefault(j, set()).add(i)

    def score(i, j):
        return (len(rows[i]) - 1) * (len(colidx[j]) - 1)

    heap = []
    for i in sorted(rows):
        for j, v in rows[i].items():
            if v in (1, -1):
                heapq.heappush(heap, (score(i, j), i, j))
    ones = 0
    while heap:
        s, i, j = heapq.heappop(heap)
        if i not in rows or rows[i].get(j) not in (1, -1):
            continue
        v = rows[i][j]
        cur = score(i, j)
        if cur > s and heap and heap[0][0] < cur:
            heapq.heappush(heap, (cur, i, j))
            continue
        prow = rows.pop(i)
        for jj in prow:
            colidx[jj].discard(i)
        for r in sorted(colidx.get(j, ())):
            rrow = rows[r]
            f = rrow.pop(j) * v
            for jj, w in prow.items():
                if jj == j:
                    continue
                nv = rrow.get(jj, 0) - f * w
                if nv == 0:
                    if jj in rrow:
                        del rrow[jj]
                        colidx[jj].discard(r)
                else:
                    if jj not in rrow:
                        colidx[jj].add(r)
                    rrow[jj] = nv
                    if nv in (1, -1):
                        heapq.heappush(heap, (score(r, jj), r, jj))
            if not rrow:
                del rows[r]
        colidx.pop(j, None)
        ones += 1
    left = sorted(rows)
    cols = sorted({j for r in left for j in rows[r]})
    if not cols:
        return ones, None
    return ones, [[rows[r].get(j, 0) for j in cols] for r in left]
