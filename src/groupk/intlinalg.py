"""Exact integer linear algebra: Smith normal form and chain-segment homology.

Matrices carry arbitrary-precision Python integers.  Storage is one dict per
nonzero row, {row: {col: value}} with no stored zeros and no empty rows,
behind a dense (rows x cols) contract; boundary matrices of bar complexes are
overwhelmingly zero and a dense layout would not fit in memory at degree 5.
The bar complex builds its boundaries in this layout, and the free
ZG-resolution its boundaries tensored down to Z; the d^2 check and Smith
elimination read it as it stands.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .abelian import FgAbelianGroup
from .errors import NotAComplex


class IntegerMatrix:
    """Immutable dense-semantics integer matrix with sparse row storage."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        data: dict[int, dict[int, int]] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry index ({i}, {j}) out of range")
                if v != 0:
                    data.setdefault(i, {})[j] = v
        self._data = data

    @classmethod
    def from_row_dicts(cls, rows, cols, data: dict[int, dict[int, int]]) -> "IntegerMatrix":
        """Adopt `data`, {row: {col: value}}, without copying or checking it.

        The caller built it in range, with no zero value and no empty row,
        and hands it over: it must not change it afterwards.
        """
        A = cls.__new__(cls)
        A.rows, A.cols, A._data = rows, cols, data
        return A

    @classmethod
    def from_rows(cls, rows_list):
        nrows = len(rows_list)
        ncols = len(rows_list[0]) if nrows else 0
        entries = {}
        for i, row in enumerate(rows_list):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v != 0:
                    entries[(i, j)] = v
        return cls(nrows, ncols, entries)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls.from_row_dicts(n, n, {i: {i: 1} for i in range(n)})

    def get(self, i, j) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        row = self._data.get(i)
        return row.get(j, 0) if row else 0

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for i, row in self._data.items():
            for j, v in row.items():
                out[i][j] = v
        return out

    def nonzero_count(self) -> int:
        return sum(map(len, self._data.values()))

    def is_zero(self) -> bool:
        return not self._data

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        rows_other = other._data
        data: dict[int, dict[int, int]] = {}
        for i, row in self._data.items():
            acc: dict[int, int] = {}
            for k, v in row.items():
                for j, w in rows_other.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + v * w
            acc = {j: s for j, s in acc.items() if s != 0}
            if acc:
                data[i] = acc
        return IntegerMatrix.from_row_dicts(self.rows, other.cols, data)

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(
            (i, j, v) for i, row in self._data.items() for j, v in row.items()
        )))

    def __repr__(self):
        if self.rows * self.cols <= 64:
            return f"IntegerMatrix({self.to_rows()!r})"
        return f"IntegerMatrix({self.rows}x{self.cols}, {self.nonzero_count()} nonzero)"


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D = diag(diagonal), d_i | d_{i+1}."""

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix
    diagonal: tuple[int, ...]


def _dense_diagonal(mat: list[list[int]], m: int, n: int) -> list[int]:
    """Smith diagonal of the leading m x n block of a dense row-list matrix.

    The block is reduced in place to D; each row and column operation acts
    on the whole row or column, so rows and columns past the block record
    the transforms.  Pivot rule: smallest nonzero absolute value in the
    block, ties by lowest (row, col).
    """

    def pivot_to(t):
        # move the smallest entry of the trailing submatrix to (t, t)
        best = None
        for i in range(t, m):
            row = mat[i]
            for j in range(t, n):
                v = row[j]
                if v != 0:
                    key = (abs(v), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            return False
        _, pi, pj = best
        mat[t], mat[pi] = mat[pi], mat[t]
        if pj != t:
            for row in mat:
                row[t], row[pj] = row[pj], row[t]
        return True

    def add_row(src, dst, c):
        mat[dst] = [a + c * b for a, b in zip(mat[dst], mat[src])]

    def add_col(src, dst, c, top):
        for i in range(top, len(mat)):  # rows above `top` are zero in both columns
            mat[i][dst] += c * mat[i][src]

    diag = []
    for t in range(min(m, n)):
        if not pivot_to(t):
            break
        while True:
            if mat[t][t] < 0:
                mat[t] = [-v for v in mat[t]]
            p = mat[t][t]
            dirty = False
            for i in range(t + 1, m):
                if mat[i][t] != 0:
                    q = mat[i][t] // p
                    if q:
                        add_row(t, i, -q)
                    if mat[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if mat[t][j] != 0:
                    q = mat[t][j] // p
                    if q:
                        add_col(t, j, -q, t)
                    if mat[t][j] != 0:
                        dirty = True
            if dirty:
                # a smaller remainder appeared; it becomes the new pivot
                pivot_to(t)
                continue
            # row and column are clear; enforce divisibility
            offender = next(
                (i for i in range(t + 1, m) if any(v % p for v in mat[i][t + 1:n])), None
            )
            if offender is None:
                break
            add_row(offender, t, 1)
        diag.append(mat[t][t])
    diag += [0] * (min(m, n) - len(diag))
    return diag


def smith_diagonal(A: IntegerMatrix) -> list[int]:
    """Smith diagonal of A (no transform matrices), sparse-aware.

    Unit pivots go first, by Markowitz's minimum-fill rule: a +-1 entry of
    least (row length - 1) * (column count - 1), found through a heap of row
    keys.  The dense routine finishes the rest; the phases agree as each unit
    pivot splits off an invariant factor 1 by unimodular operations.  The
    row scan is one plain loop, no tuple per entry: it is e2page's hot loop.
    """
    rows = {i: dict(row) for i, row in A._data.items()}  # reduced in place
    colcount: dict[int, int] = {}  # live entries per column: every score reads
    for row in rows.values():
        for j in row:
            colcount[j] = colcount.get(j, 0) + 1

    # A heap key packs (score, row) into one int that sorts as the tuple
    # would: score << s | row, each row index below 2**s.
    s = max(A.rows, A.cols).bit_length()
    mask = (1 << s) - 1

    def best_unit(i):
        """(key, column) of row i's unit in its sparsest column, or None."""
        row = rows[i]
        bc, bj = A.rows + 1, -1  # least (colcount[j], j) over units; counts are <= A.rows
        for j, v in row.items():
            if v == 1 or v == -1:
                c = colcount[j]
                if c < bc or c == bc and j < bj:
                    bc, bj = c, j
        if bj < 0:
            return None
        return ((len(row) - 1) * (bc - 1)) << s | i, bj

    heap = [kj[0] for kj in map(best_unit, rows) if kj is not None]
    heapq.heapify(heap)
    pending = {key & mask: 1 for key in heap}  # keys each row has in the heap

    ones = 0
    while heap:
        key = heapq.heappop(heap)
        i = key & mask
        if i not in rows:
            continue
        pending[i] -= 1
        kj = best_unit(i)
        if kj is None:
            continue
        cur, j = kj
        if cur > key and heap and heap[0] >> s < cur >> s:
            if not pending[i]:  # else a later key of row i rescores it
                pending[i] = 1
                heapq.heappush(heap, cur)
            continue
        # eliminate the pivot: clear column j by row operations, drop row i / col j
        prow = rows.pop(i)
        v = prow[j]
        for jj in prow:
            colcount[jj] -= 1
        # ascending rows, as the keys pushed below read counts mid-update
        for r in sorted(r for r, rrow in rows.items() if j in rrow):
            rrow = rows[r]
            c = rrow.pop(j)
            f = c * v  # multiplier with f * v == c since v is a unit
            for jj, w in prow.items():
                if jj == j:
                    continue
                nv = rrow.get(jj, 0) - f * w
                if nv == 0:
                    if jj in rrow:
                        del rrow[jj]
                        colcount[jj] -= 1
                else:
                    if jj not in rrow:
                        colcount[jj] += 1
                    rrow[jj] = nv
            if not rrow:
                del rows[r]
            elif (kj := best_unit(r)) is not None:
                pending[r] = pending.get(r, 0) + 1
                heapq.heappush(heap, kj[0])
        del colcount[j]
        ones += 1

    # dense cleanup of whatever has no unit entries left
    rem_rows = sorted(rows)
    rem_cols = sorted({j for r in rem_rows for j in rows[r]})
    if rem_cols:
        colpos = {j: k for k, j in enumerate(rem_cols)}
        dense = [[0] * len(rem_cols) for _ in rem_rows]
        for k, r in enumerate(rem_rows):
            for j, v in rows[r].items():
                dense[k][colpos[j]] = v
        tail = [d for d in _dense_diagonal(dense, len(rem_rows), len(rem_cols)) if d != 0]
    else:
        tail = []
    diag = [1] * ones + tail
    diag += [0] * (min(A.rows, A.cols) - len(diag))
    return diag


def smith_normal_form(A: IntegerMatrix) -> SmithDecomposition:
    """Full Smith decomposition U @ A @ V = D with unimodular U, V.

    The dense routine reduces the A block of [[A, I_m], [I_n, 0]]; its row
    operations turn I_m into U and its column operations turn I_n into V.
    The pivot rule keeps the output deterministic.
    """
    m, n = A.rows, A.cols
    mat = [row + [int(i == k) for k in range(m)] for i, row in enumerate(A.to_rows())]
    mat += [[int(j == k) for k in range(n)] + [0] * m for j in range(n)]
    diag = _dense_diagonal(mat, m, n)

    def block(rows, cols):
        return IntegerMatrix.from_rows([r[cols] for r in rows])

    return SmithDecomposition(
        U=block(mat[:m], slice(n, None)),
        D=block(mat[:m], slice(n)) if m else IntegerMatrix.zero(0, n),
        V=block(mat[m:], slice(n)),
        diagonal=tuple(diag),
    )


def check_complex(d_in: IntegerMatrix, d_out: IntegerMatrix) -> None:
    """Raise unless  C_{n+1} --d_in--> C_n --d_out--> C_{n-1}  is a chain segment."""
    if d_out.cols != d_in.rows:
        raise ValueError(
            f"middle dimensions disagree: d_out has {d_out.cols} columns, "
            f"d_in has {d_in.rows} rows"
        )
    if not d_out.matmul(d_in).is_zero():
        raise NotAComplex("d_out @ d_in is not zero")


def homology_from_diagonals(middle: int, diag_out, diag_in) -> FgAbelianGroup:
    """ker(d_out) / im(d_in) from the Smith diagonals of a checked chain segment.

    The kernel of d_out is a direct summand of the middle lattice, so the
    invariant factors of d_in as a map into that kernel equal its invariant
    factors into the full lattice; the quotient is then
      Z^(middle - rank d_out - rank d_in)  +  sum of Z/d over nonunit Smith
    diagonal entries d of d_in.
    """
    free = middle - sum(1 for d in diag_out if d != 0) - sum(1 for d in diag_in if d != 0)
    return FgAbelianGroup(free, tuple(d for d in diag_in if d > 1))


def homology_of_pair(d_in: IntegerMatrix, d_out: IntegerMatrix) -> FgAbelianGroup:
    """ker(d_out) / im(d_in) for a chain segment  C_{n+1} --d_in--> C_n --d_out--> C_{n-1}.

    Requires d_out @ d_in = 0; raises NotAComplex otherwise.
    """
    check_complex(d_in, d_out)
    return homology_from_diagonals(d_out.cols, smith_diagonal(d_out), smith_diagonal(d_in))
