import io
from collections import Counter

import pytest

from groupk import homology
from groupk.abelian import FgAbelianGroup
from groupk.cli import run
from groupk.errors import InsufficientDegrees, TooLarge
from groupk.groups import (
    abelianization,
    cyclic,
    dihedral,
    direct_product,
    permutation_closure,
    symmetric,
)
from groupk.homology import (
    bar_boundary,
    clear_homology_cache,
    cyclic_homology_oracle,
    cyclic_homology_sequence,
    homology_with_coefficients,
    integral_homology,
    kunneth_oracle,
)
from groupk.intlinalg import homology_of_pair

Z = FgAbelianGroup.free(1)
trivial = FgAbelianGroup.trivial()


def C(m):
    return FgAbelianGroup.cyclic(m)


class TestBarBoundary:
    def test_z2_degree1_is_zero(self):
        d = bar_boundary(cyclic(2), 1)
        assert (d.rows, d.cols) == (1, 1)
        assert d.is_zero()

    def test_z2_degree2(self):
        # the only basis tuple is [g|g]; both outer faces survive, the inner
        # face hits the identity and is dropped, so the matrix is [2]
        d = bar_boundary(cyclic(2), 2)
        assert d.to_rows() == [[2]]

    @pytest.mark.parametrize(
        "group", [cyclic(2), cyclic(3), cyclic(4), direct_product(cyclic(2), cyclic(2)), symmetric(3)]
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundary_squares_to_zero(self, group, n):
        d_out = bar_boundary(group, n)
        d_in = bar_boundary(group, n + 1)
        assert d_out.matmul(d_in).is_zero()

    def test_generator_limit(self):
        with pytest.raises(TooLarge):
            bar_boundary(cyclic(8), 4, generator_limit=100)


class TestIntegralHomology:
    def test_h0_is_z(self):
        assert integral_homology(symmetric(3), 0) == Z

    def test_trivial_group(self):
        for n in range(1, 5):
            assert integral_homology(cyclic(1), n) == trivial

    def test_c2xc2_h2(self):
        g = direct_product(cyclic(2), cyclic(2))
        assert integral_homology(g, 2) == C(2)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_cyclic_matches_oracle(self, m):
        g = cyclic(m)
        for n in range(5):
            assert integral_homology(g, n) == cyclic_homology_oracle(m, n)

    def test_degree_cap(self):
        with pytest.raises(TooLarge):
            integral_homology(cyclic(2), 5)
        assert integral_homology(cyclic(2), 5, degree_cap=5) == C(2)

    def test_h1_equals_abelianization(self):
        for g in [cyclic(6), symmetric(3), symmetric(4), dihedral(4),
                  direct_product(cyclic(2), cyclic(4))]:
            assert integral_homology(g, 1) == abelianization(g)


def boundary_shape(order, k):
    return ((order - 1) ** (k - 1), (order - 1) ** k)


# every builder group of order <= 8, Q8 as a permutation closure
SMALL_GROUPS = {
    **{f"C{n}": cyclic(n) for n in range(1, 9)},
    "C2xC2": direct_product(cyclic(2), cyclic(2)),
    "C2xC4": direct_product(cyclic(2), cyclic(4)),
    "C2xC2xC2": direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))),
    "D2": dihedral(2), "D3": dihedral(3), "D4": dihedral(4), "S3": symmetric(3),
    "Q8": permutation_closure([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]),
}


class TestBarComplexContext:
    def test_homology_reduces_each_boundary_once(self, smith_calls):
        code = run(["homology", "--group", "C2xC2", "--max-degree", "4"], io.StringIO(), io.StringIO())
        assert code == 0
        assert Counter(smith_calls) == {boundary_shape(4, k): 1 for k in range(1, 6)}

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_matches_homology_of_pair(self, name):
        group = SMALL_GROUPS[name]
        clear_homology_cache()
        for n in range(1, 4):
            direct = homology_of_pair(bar_boundary(group, n + 1), bar_boundary(group, n))
            assert integral_homology(group, n) == direct

    def test_guards_hold_after_memoised_work(self):
        g = cyclic(3)
        clear_homology_cache()
        assert integral_homology(g, 3, degree_cap=4) == C(3)
        with pytest.raises(TooLarge, match="degree 3 exceeds the degree cap 2"):
            integral_homology(g, 3, degree_cap=2)
        with pytest.raises(TooLarge, match="degree 4 has 16 generators, over the limit 15"):
            integral_homology(g, 3, generator_limit=15)
        with pytest.raises(TooLarge, match="degree 3 has 8 generators, over the limit 7"):
            integral_homology(g, 3, generator_limit=7)
        assert integral_homology(g, 3, generator_limit=16) == C(3)

    def test_clear_cache_starts_cold(self, smith_calls, monkeypatch):
        built = []
        real = homology.bar_boundary

        def counting(G, k, **kwargs):
            built.append(k)
            return real(G, k, **kwargs)

        monkeypatch.setattr(homology, "bar_boundary", counting)
        g = cyclic(4)
        for _ in range(2):
            assert integral_homology(g, 2) == trivial
        assert built == [2, 3] and len(smith_calls) == 2
        clear_homology_cache()
        assert integral_homology(g, 2) == trivial
        assert built == [2, 3, 2, 3] and len(smith_calls) == 4

    def test_another_group_replaces_the_context(self, smith_calls):
        g, h = cyclic(4), cyclic(3)
        for group in (g, h, g):
            assert integral_homology(group, 2) == trivial
        assert Counter(smith_calls) == {
            boundary_shape(4, 2): 2, boundary_shape(4, 3): 2,
            boundary_shape(3, 2): 1, boundary_shape(3, 3): 1,
        }


class TestCyclicOracle:
    def test_pattern(self):
        assert cyclic_homology_sequence(2, 5) == [Z, C(2), trivial, C(2), trivial, C(2)]

    def test_even_vanishing(self):
        assert cyclic_homology_oracle(5, 4) == trivial

    def test_trivial_group(self):
        for n in range(1, 6):
            assert cyclic_homology_oracle(1, n) == trivial


class TestKunnethOracle:
    def test_z2_squared_degree2(self):
        h = cyclic_homology_sequence(2, 3)
        assert kunneth_oracle(h, h, 2) == C(2)

    def test_z2_squared_degree3(self):
        h = cyclic_homology_sequence(2, 3)
        assert kunneth_oracle(h, h, 3) == FgAbelianGroup(0, (2, 2, 2))

    def test_trivial_second_factor(self):
        h = cyclic_homology_sequence(4, 4)
        point = [Z] + [trivial] * 4
        for n in range(5):
            assert kunneth_oracle(h, point, n) == h[n]

    def test_insufficient_degrees(self):
        with pytest.raises(InsufficientDegrees):
            kunneth_oracle([Z], [Z], 1)

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_bar_engine_matches_kunneth(self, a, b):
        g = direct_product(cyclic(a), cyclic(b))
        ha = cyclic_homology_sequence(a, 3)
        hb = cyclic_homology_sequence(b, 3)
        for n in range(4):
            assert integral_homology(g, n) == kunneth_oracle(ha, hb, n)


class TestCoefficients:
    def test_equals_integral_for_z(self):
        g = direct_product(cyclic(2), cyclic(2))
        assert homology_with_coefficients(g, 2, Z) == C(2)

    def test_c2xc2_degree1_mod4(self):
        g = direct_product(cyclic(2), cyclic(2))
        assert homology_with_coefficients(g, 1, C(4)) == FgAbelianGroup(0, (2, 2))

    def test_degree0_gives_coefficients(self):
        coeffs = [Z, C(2), C(12), FgAbelianGroup(1, (3,))]
        for g in [cyclic(3), symmetric(3), dihedral(3)]:
            for a in coeffs:
                assert homology_with_coefficients(g, 0, a) == a

    def test_trivial_coefficients(self):
        assert homology_with_coefficients(symmetric(3), 2, trivial) == trivial
