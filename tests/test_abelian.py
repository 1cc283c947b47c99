import math

import pytest
from hypothesis import given, strategies as st

from groupk.abelian import (
    FgAbelianGroup,
    direct_sum,
    direct_sum_all,
    from_presentation,
    tensor,
    tor_product,
)
from groupk.intlinalg import IntegerMatrix

from oracles import abelian_group_profile, minor_gcd

Z = FgAbelianGroup.free(1)
trivial = FgAbelianGroup.trivial()


def C(m):
    return FgAbelianGroup.cyclic(m)


class TestCanonicalForm:
    def test_trivial_is_empty(self):
        assert trivial == FgAbelianGroup(0, ())
        assert trivial.is_trivial()

    def test_unit_factors_rejected(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1, 2))

    def test_broken_chain_rejected(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (2, 3))

    def test_from_orders_merges_coprime(self):
        # the CRT oracle: Z/2 + Z/3 has 6 elements of exponent 6, i.e. Z/6
        card, exp = abelian_group_profile([2, 3])
        assert (card, exp) == (6, 6)
        assert FgAbelianGroup.from_orders(0, [2, 3]) == C(6)

    def test_from_orders_keeps_chain(self):
        assert FgAbelianGroup.from_orders(0, [4, 2]) == FgAbelianGroup(0, (2, 4))
        assert FgAbelianGroup.from_orders(0, [2, 4, 8]) == FgAbelianGroup(0, (2, 4, 8))

    def test_str(self):
        assert str(trivial) == "0"
        assert str(Z) == "Z"
        assert str(FgAbelianGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"

    def test_json_roundtrip(self):
        g = FgAbelianGroup(3, (2, 6))
        assert FgAbelianGroup.from_json(g.to_json()) == g


# products of powers of 2, 3 and 5, so the orders in one list share primes
prime_power_products = st.builds(
    lambda a, b, c: 2**a * 3**b * 5**c,
    st.integers(0, 4), st.integers(0, 3), st.integers(0, 2),
)


def diagonal(orders):
    return [[m if i == j else 0 for j in range(len(orders))] for i, m in enumerate(orders)]


class TestCanonicalFormDifferential:
    @given(st.lists(prime_power_products, max_size=4))
    def test_matches_determinantal_divisors(self, orders):
        rows = diagonal(orders)
        minors = [minor_gcd(rows, k) for k in range(len(orders) + 1)]
        chain = tuple(d for d in (minors[k] // minors[k - 1] for k in range(1, len(minors))) if d > 1)
        assert FgAbelianGroup.from_orders(0, orders) == FgAbelianGroup(0, chain)

    @given(st.lists(prime_power_products, min_size=1, max_size=4))
    def test_matches_smith_path(self, orders):
        relations = IntegerMatrix.from_rows(diagonal(orders))
        assert FgAbelianGroup.from_orders(0, orders) == from_presentation(relations)

    def test_orders_near_q_cubed_for_64_bit_q(self):
        q = 18446744073709551557  # the largest prime below 2^64
        orders = [q**3 - 1, q**2 - 1, q - 1, q**3 + 1, (q - 1) * (q**3 - 1)]
        factors = FgAbelianGroup.from_orders(0, orders).invariant_factors
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert math.prod(factors) == math.prod(orders)


class TestFromPresentation:
    def test_no_relations(self):
        assert from_presentation(IntegerMatrix.zero(0, 3)) == FgAbelianGroup.free(3)

    def test_crt_merge(self):
        m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        assert from_presentation(m) == C(6)

    def test_unit_relation(self):
        assert from_presentation(IntegerMatrix.from_rows([[1]])) == trivial

    def test_unimodular_invariance(self):
        # row and column operations must not change the cokernel
        import random

        rng = random.Random(7)
        for _ in range(50):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            mat = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
            base = from_presentation(IntegerMatrix.from_rows(mat))
            # random row op
            if rows > 1:
                i, j = rng.sample(range(rows), 2)
                mat2 = [r[:] for r in mat]
                mat2[i] = [a + 2 * b for a, b in zip(mat2[i], mat2[j])]
                assert from_presentation(IntegerMatrix.from_rows(mat2)) == base
            # random column op
            if cols > 1:
                i, j = rng.sample(range(cols), 2)
                mat3 = [r[:] for r in mat]
                for r in mat3:
                    r[i] -= 3 * r[j]
                assert from_presentation(IntegerMatrix.from_rows(mat3)) == base


small_groups = st.builds(
    FgAbelianGroup.from_orders,
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=2, max_value=12), max_size=3),
)


class TestOperations:
    def test_direct_sum_examples(self):
        assert direct_sum(Z, Z) == FgAbelianGroup.free(2)
        assert direct_sum(C(2), C(4)) == FgAbelianGroup(0, (2, 4))
        assert direct_sum(C(2), C(3)) == C(6)

    def test_tensor_examples(self):
        assert tensor(Z, C(5)) == C(5)
        assert tensor(C(4), C(6)) == C(2)
        assert tensor(FgAbelianGroup.free(2), C(2)) == FgAbelianGroup(0, (2, 2))

    def test_tor_examples(self):
        assert tor_product(Z, C(5)) == trivial
        assert tor_product(C(4), C(6)) == C(2)
        assert tor_product(FgAbelianGroup(0, (2, 2)), C(2)) == FgAbelianGroup(0, (2, 2))

    def test_cardinality(self):
        assert C(7).cardinality() == 7
        assert Z.cardinality() == math.inf
        assert FgAbelianGroup(0, (2, 4)).cardinality() == 8

    @given(small_groups, small_groups)
    def test_direct_sum_commutes(self, a, b):
        assert direct_sum(a, b) == direct_sum(b, a)

    @given(small_groups, small_groups, small_groups)
    def test_direct_sum_associates(self, a, b, c):
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))

    @given(small_groups, small_groups)
    def test_tensor_symmetric(self, a, b):
        assert tensor(a, b) == tensor(b, a)

    @given(small_groups, small_groups)
    def test_tor_symmetric(self, a, b):
        assert tor_product(a, b) == tor_product(b, a)

    @given(small_groups, small_groups, small_groups)
    def test_tensor_additive(self, a, b, c):
        assert tensor(direct_sum(a, b), c) == direct_sum(tensor(a, c), tensor(b, c))

    @given(small_groups, small_groups, small_groups)
    def test_tor_additive(self, a, b, c):
        assert tor_product(direct_sum(a, b), c) == direct_sum(
            tor_product(a, c), tor_product(b, c)
        )

    def test_direct_sum_all(self):
        assert direct_sum_all([C(2), C(3), Z]) == FgAbelianGroup(1, (6,))
