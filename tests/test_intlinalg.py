import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from groupk import intlinalg
from groupk.abelian import FgAbelianGroup
from groupk.errors import NotAComplex
from groupk.groups import cyclic, dihedral, direct_product, permutation_closure, symmetric
from groupk.homology import bar_boundary
from groupk.intlinalg import (
    IntegerMatrix,
    homology_of_pair,
    rank,
    smith_diagonal,
    smith_normal_form,
)

from oracles import det, minor_gcd, unit_pivot_phase


def assert_snf_invariants(mat_rows):
    A = IntegerMatrix.from_rows(mat_rows)
    snf = smith_normal_form(A)
    # U A V = D exactly
    assert snf.U.matmul(A).matmul(snf.V) == snf.D
    # U, V unimodular
    assert abs(det(snf.U.to_rows())) == 1
    assert abs(det(snf.V.to_rows())) == 1
    # D diagonal, nonnegative, divisibility chain
    for i, row in snf.D._data.items():
        assert list(row) == [i]
    diag = list(snf.diagonal)
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros only at the tail
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    # determinant-divisor identity: d1...dk = gcd of k x k minors
    prod = 1
    for k, d in enumerate(nonzero, start=1):
        prod *= d
        assert prod == minor_gcd(mat_rows, k)
    if len(nonzero) < len(diag):
        assert minor_gcd(mat_rows, len(nonzero) + 1) == 0
    return snf


class TestSmithNormalForm:
    def test_example_2x2(self):
        # determinant-divisor oracle: d1 = gcd of entries = 2, d1*d2 = |det| = 8
        snf = assert_snf_invariants([[2, 4], [6, 8]])
        assert snf.diagonal == (2, 4)

    def test_identity(self):
        snf = smith_normal_form(IntegerMatrix.identity(3))
        assert snf.diagonal == (1, 1, 1)

    def test_zero(self):
        snf = smith_normal_form(IntegerMatrix.zero(2, 3))
        assert snf.diagonal == (0, 0)

    def test_empty(self):
        snf = smith_normal_form(IntegerMatrix.zero(0, 4))
        assert snf.diagonal == ()

    def test_deterministic(self):
        A = IntegerMatrix.from_rows([[3, 1, -4], [2, 0, 5], [7, -2, 1]])
        assert smith_normal_form(A) == smith_normal_form(A)

    def test_sparse_diagonal_matches_dense(self):
        rng = random.Random(11)
        for _ in range(200)        :
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
            A = IntegerMatrix.from_rows(rows)
            assert tuple(smith_diagonal(A)) == smith_normal_form(A).diagonal

    def test_random_invariants(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            rows = [[rng.randrange(-10, 11) for _ in range(n)] for _ in range(m)]
            assert_snf_invariants(rows)


def same_diagonal(A):
    """Check smith_diagonal(A) against the reference unit-pivot phase followed
    by the dense routine on what it leaves, and against the dense Smith form
    when A is small.  The pivot order is free; the diagonal is not, and the
    unit phase must leave no +-1 entry for the dense tail."""
    dense_diagonal = intlinalg._dense_diagonal

    def unitless(mat, m, n):
        assert (m, n) == (len(mat), len(mat[0]))
        assert all(v != 1 and v != -1 for row in mat for v in row)
        return dense_diagonal(mat, m, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "_dense_diagonal", unitless)
        diag = smith_diagonal(A)
    ones, dense = unit_pivot_phase(
        {(i, j): v for i, row in A._data.items() for j, v in row.items()})
    tail = []
    if dense is not None:
        tail = [d for d in dense_diagonal(dense, len(dense), len(dense[0])) if d != 0]
    assert diag == [1] * ones + tail + [0] * (min(A.rows, A.cols) - ones - len(tail))
    if A.rows * A.cols <= 400:
        assert tuple(diag) == smith_normal_form(A).diagonal


PIVOT_GROUPS = {
    **{f"C{m}": cyclic(m) for m in range(2, 9)},
    "C2xC2": direct_product(cyclic(2), cyclic(2)),
    "C2xC4": direct_product(cyclic(2), cyclic(4)),
    "C2xC2xC2": direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
    "S3": symmetric(3),
    "D4": dihedral(4),
}
# rows and columns on both sides of a power of two, so the key width changes
EDGE_SIZES = (0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17)


class TestUnitPivotPhase:
    @pytest.mark.parametrize("name", sorted(PIVOT_GROUPS))
    def test_bar_boundaries_match_reference(self, name):
        for n in range(1, 5):
            same_diagonal(bar_boundary(PIVOT_GROUPS[name], n))

    def test_random_sparse_match_reference(self):
        rng = random.Random(8)
        values = (1, -1, 1, -1, 2, -2, 3, -5, 6)
        for _ in range(2000):
            m, n = rng.choice(EDGE_SIZES), rng.choice(EDGE_SIZES)
            density = rng.uniform(0.05, 0.6)
            entries = {
                (i, j): rng.choice(values)
                for i in range(m) for j in range(n) if rng.random() < density
            }
            same_diagonal(IntegerMatrix(m, n, entries))


class TestSmithMemory:
    def test_bar_boundary_bytes_per_nonzero(self):
        # built straight into row dicts: no (i, j) tuple keys, no second copy
        G = cyclic(7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            A = bar_boundary(G, 4)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (A.rows, A.cols, A.nonzero_count()) == (216, 1296, 5826)
        assert kept - before <= 80 * A.nonzero_count()
        assert peak - before <= 100 * A.nonzero_count()

    def test_unit_phase_peak_per_nonzero(self):
        # one count per column, not a set of rows; heap keys for rows, not for
        # every unit entry
        cases = [(cyclic(7), 4, (216, 1296, 5826), 160),
                 (symmetric(3), 5, (625, 3125, 16240), 250)]
        for G, n, shape, per_nonzero in cases:
            A = bar_boundary(G, n)
            assert (A.rows, A.cols, A.nonzero_count()) == shape
            tracemalloc.start()
            try:
                smith_diagonal(A)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= per_nonzero * A.nonzero_count()


# every builder group of order <= 8, Q8 as a permutation closure
BUILDER_GROUPS = {
    **PIVOT_GROUPS,
    "C1": cyclic(1), "D2": dihedral(2), "D3": dihedral(3),
    "Q8": permutation_closure([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]),
}


class TestRowStorage:
    @pytest.mark.parametrize("name", sorted(BUILDER_GROUPS))
    def test_bar_boundaries_store_only_nonzeros(self, name):
        for n in range(1, 5):
            A = bar_boundary(BUILDER_GROUPS[name], n)
            assert all(row and all(row.values()) for row in A._data.values())
            entries = {(i, j): v for i, row in enumerate(A.to_rows()) for j, v in enumerate(row)}
            assert A == IntegerMatrix(A.rows, A.cols, entries)

    @settings(deadline=None)
    @given(st.data())
    def test_operations_match_row_lists(self, data):
        def matrix(m, n):
            entries = data.draw(st.dictionaries(
                st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                st.integers(-2, 2), max_size=m * n)) if m and n else {}
            A = IntegerMatrix(m, n, entries)
            assert A.to_rows() == [[entries.get((i, j), 0) for j in range(n)] for i in range(m)]
            return A, A.to_rows()

        def from_lists(m, n, rows):
            # through the checked (i, j) constructor, which drops zeros
            return IntegerMatrix(m, n, {(i, j): rows[i][j] for i in range(m) for j in range(n)})

        m, k, n = (data.draw(st.integers(0, 5)) for _ in range(3))
        A, a = matrix(m, k)
        B, b = matrix(k, n)
        assert [[A.get(i, j) for j in range(k)] for i in range(m)] == a
        assert A.nonzero_count() == sum(v != 0 for row in a for v in row)
        assert A.is_zero() == (A.nonzero_count() == 0)
        ab = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        assert A.matmul(B).to_rows() == ab and A.matmul(B) == from_lists(m, n, ab)
        C, c = matrix(m, k)
        assert (A == C) == (a == c)
        assert A == from_lists(m, k, a) and hash(A) == hash(from_lists(m, k, a))


class TestRank:
    def test_identity(self):
        assert rank(IntegerMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank(IntegerMatrix.zero(2, 3)) == 0

    def test_dependent_rows(self):
        assert rank(IntegerMatrix.from_rows([[2, 4], [1, 2]])) == 1


class TestMatrixType:
    def test_out_of_range_entry(self):
        with pytest.raises(ValueError):
            IntegerMatrix(1, 1, {(1, 0): 3})

    def test_matmul(self):
        A = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        B = IntegerMatrix.from_rows([[0, 1], [1, 0]])
        assert A.matmul(B) == IntegerMatrix.from_rows([[2, 1], [4, 3]])


class TestHomologyOfPair:
    def test_zero_maps_give_free(self):
        d_in = IntegerMatrix.zero(4, 2)
        d_out = IntegerMatrix.zero(3, 4)
        assert homology_of_pair(d_in, d_out) == FgAbelianGroup.free(4)

    def test_cyclic_quotient(self):
        d_in = IntegerMatrix.from_rows([[5]])
        d_out = IntegerMatrix.zero(0, 1)
        assert homology_of_pair(d_in, d_out) == FgAbelianGroup.cyclic(5)

    def test_periodic_resolution_segment(self):
        # Z <--0-- Z <--2-- Z : homology in the middle is Z/2
        d_out = IntegerMatrix.from_rows([[0]])
        d_in = IntegerMatrix.from_rows([[2]])
        assert homology_of_pair(d_in, d_out) == FgAbelianGroup.cyclic(2)

    def test_not_a_complex(self):
        d_out = IntegerMatrix.from_rows([[1]])
        d_in = IntegerMatrix.from_rows([[1]])
        with pytest.raises(NotAComplex):
            homology_of_pair(d_in, d_out)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            homology_of_pair(IntegerMatrix.zero(3, 1), IntegerMatrix.zero(1, 2))
