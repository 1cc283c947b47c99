import functools
import gc
import io
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    DEFAULT_GENERATOR_LIMIT,
    bar_boundary,
    bar_homology_sequence,
    clear_homology_cache,
    cyclic_homology_oracle,
    cyclic_homology_sequence,
    homology_with_coefficients,
    integral_homology,
    integral_homology_sequence,
    kunneth_oracle,
)
from groupk.intlinalg import IntegerMatrix, homology_of_pair
from oracles import accepted_top
from test_groups import pinned_groups

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

    def test_degree_bound_from_generator_limit(self):
        # C2 has one generator per degree; the degree itself is bounded by n^2 <= limit
        assert bar_boundary(cyclic(2), 4, generator_limit=16).to_rows() == [[2]]
        with pytest.raises(TooLarge, match=r"degree 5 squared is 25, over the limit 24 \(GROUPK_GENERATOR_LIMIT\)"):
            bar_boundary(cyclic(2), 5, generator_limit=24)
        with pytest.raises(TooLarge, match="degree 5 squared is 25"):
            integral_homology(cyclic(1), 4, generator_limit=24)

    def test_degree_bounded_by_generator_limit_alone(self):
        # no separate degree cap: the bar count and n^2 are the only bounds
        assert bar_boundary(cyclic(2), 6).to_rows() == [[2]]
        with pytest.raises(TooLarge, match=r"^bar basis in degree 6 has 64 generators, "
                                           r"over the limit 63 \(GROUPK_GENERATOR_LIMIT\)$"):
            bar_boundary(cyclic(3), 6, generator_limit=63)


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
        assert integral_homology_sequence(g, 4) == cyclic_homology_sequence(m, 4)

    def test_degree_cap(self):
        with pytest.raises(TooLarge):
            integral_homology(cyclic(2), 5)
        assert integral_homology(cyclic(2), 5, degree_cap=5) == C(2)

    def test_h1_equals_abelianization(self):
        groups = [g for g in pinned_groups() if g.order <= 24]  # C6, S3, S4, D4, C2xC4, ...
        assert len(groups) == 138
        for g in groups:
            assert integral_homology(g, 1) == abelianization(g)

    @settings(deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda k: st.lists(st.permutations(range(k)), min_size=1, max_size=3)
    ))
    def test_h1_equals_abelianization_on_random_closures(self, gens):
        # the resolution on one side, the presentation on G's elements on the other
        try:
            g = permutation_closure(gens)
        except TooLarge:
            assume(False)
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


def outcome(engine, g, top, limit):
    """The engine's sequence, or the message of the TooLarge it raised."""
    try:
        return engine(g, top, generator_limit=limit)
    except TooLarge as exc:
        return str(exc)


class TestSharedRequestCheck:
    @pytest.mark.parametrize("limit", [4, 16, 100])
    @pytest.mark.parametrize("name", ["C1", "C2", "C3", "S3", "C2xC2"])
    def test_engines_accept_and_refuse_alike(self, name, limit):
        # at the largest degree the bar guards accept, and at the first they refuse
        g = SMALL_GROUPS[name]
        top = accepted_top(g.order, limit)
        accepted = outcome(bar_homology_sequence, g, top, limit)
        assert isinstance(accepted, list) and len(accepted) == top + 1
        assert outcome(integral_homology_sequence, g, top, limit) == accepted
        refused = outcome(bar_homology_sequence, g, top + 1, limit)
        assert refused.endswith(f"over the limit {limit} (GROUPK_GENERATOR_LIMIT)")
        assert outcome(integral_homology_sequence, g, top + 1, limit) == refused


def live_matrices():
    gc.collect()
    return sum(isinstance(obj, IntegerMatrix) for obj in gc.get_objects())


class TestBarComplexContext:
    @pytest.mark.parametrize("argv, built_degrees, shapes", [
        # homology tensors the free resolution of C2xC2, of ranks 1 .. 5 over
        # ZG, down to Z, and reads H_4 from the image of d_5 (x) Z, of rank 2
        (["homology", "--group", "C2xC2", "--max-degree", "4"],
         [], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 2)]),
        (["e2page", "--group", "C2xC2", "--q", "5", "--max-degree", "4"],
         [1, 2, 3, 4, 5], [boundary_shape(4, k) for k in range(1, 6)]),
    ], ids=["homology", "e2page"])
    def test_homology_reduces_each_boundary_once(self, argv, built_degrees, shapes, built, smith_calls):
        code = run(argv, io.StringIO(), io.StringIO())
        assert code == 0
        assert built == built_degrees
        assert smith_calls == shapes

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

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_matches_homology_of_pair(self, name, built, smith_calls):
        # one pass of each engine: the bar engine builds d_1 .. d_4 and reduces
        # each once; the resolution builds no bar boundary and reduces one
        # tensored boundary per degree, each starting where the one below ends
        group = SMALL_GROUPS[name]
        direct = [Z] + [homology_of_pair(bar_boundary(group, n + 1), bar_boundary(group, n))
                        for n in (1, 2, 3)]
        built.clear()
        smith_calls.clear()
        assert bar_homology_sequence(group, 3) == direct
        assert built == [1, 2, 3, 4]
        assert smith_calls == [boundary_shape(group.order, k) for k in range(1, 5)]
        built.clear()
        smith_calls.clear()
        assert integral_homology_sequence(group, 3) == direct
        assert built == [] and len(smith_calls) == 4 and smith_calls[0][0] == 1
        assert all(lower[1] == upper[0] for lower, upper in zip(smith_calls, smith_calls[1:]))
        for n in (1, 2, 3):
            assert integral_homology(group, n) == direct[n]

    def test_nothing_kept_between_calls(self, built, smith_calls):
        g = cyclic(4)
        before = live_matrices()
        for _ in range(2):
            assert integral_homology(g, 2) == trivial
            assert bar_homology_sequence(g, 2)[2] == trivial
        assert built == [1, 2, 3, 1, 2, 3] and len(smith_calls) == 12
        assert live_matrices() == before


class TestCyclicOracle:
    def test_pattern(self):
        assert cyclic_homology_sequence(2, 5) == [Z, C(2), trivial, C(2), trivial, C(2)]

    def test_even_vanishing(self):
        assert cyclic_homology_oracle(5, 4) == trivial

    def test_trivial_group(self):
        for n in range(1, 6):
            assert cyclic_homology_oracle(1, n) == trivial


@st.composite
def cyclic_orders(draw, limit=12):
    """1 to 3 cyclic orders whose product is at most limit."""
    orders = [draw(st.integers(1, limit))]
    for _ in range(draw(st.integers(0, 2))):
        orders.append(draw(st.integers(1, limit // math.prod(orders))))
    return orders


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
        expected = [kunneth_oracle(ha, hb, n) for n in range(4)]
        assert bar_homology_sequence(g, 3) == expected
        assert integral_homology_sequence(g, 3) == expected
        for n in range(4):
            assert integral_homology(g, n) == expected[n]

    @settings(deadline=None)
    @given(cyclic_orders())
    def test_bar_engine_matches_kunneth_on_random_products(self, orders):
        # 1 to 3 cyclic factors of product <= 12: boundaries up to 121 x 1331
        g = functools.reduce(direct_product, map(cyclic, orders))
        h = cyclic_homology_sequence(orders[0], 2)
        for m in orders[1:]:
            hm = cyclic_homology_sequence(m, 2)
            h = [kunneth_oracle(h, hm, n) for n in range(3)]
        assert bar_homology_sequence(g, 2) == h

    @settings(deadline=None)
    @given(cyclic_orders(64))
    def test_resolution_engine_matches_kunneth_on_random_products(self, orders):
        # 1 to 3 cyclic factors of product <= 64, past the bar engine's reach,
        # through the largest degree the guards accept (315 for C2)
        g = functools.reduce(direct_product, map(cyclic, orders))
        top = accepted_top(g.order, DEFAULT_GENERATOR_LIMIT)
        h = cyclic_homology_sequence(orders[0], top)
        for m in orders[1:]:
            hm = cyclic_homology_sequence(m, top)
            h = [kunneth_oracle(h, hm, n) for n in range(top + 1)]
        assert integral_homology_sequence(g, top) == h


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
