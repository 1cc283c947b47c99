import math

import pytest

from groupk.abelian import FgAbelianGroup
from groupk.cli import parse_group
from groupk.errors import NotAbelian, NotSemisimple
from groupk.groups import conjugacy_classes, cyclic, dihedral, direct_product, symmetric
from groupk.grouprings import (
    WedderburnSummary,
    _frobenius_orbits,
    abelian_wedderburn,
    component_count,
    is_semisimple,
    k_group_ring,
    wedderburn_summary,
)
from groupk.kfield import validate_prime_power

from oracles import (
    centre_field_degrees,
    character_orbit_count,
    cyclotomic_coset_count,
    power_orbit_sizes,
    q_class_blocks,
)

Z = FgAbelianGroup.free(1)
trivial = FgAbelianGroup.trivial()

C2xC2 = direct_product(cyclic(2), cyclic(2))
Q5 = validate_prime_power(5)
Q2 = validate_prime_power(2)
Q3 = validate_prime_power(3)


def q_classes(g, q):
    """The q-classes: the union of each Frobenius orbit's conjugacy classes."""
    return [sorted(x for c in orbit for x in c) for orbit in _frobenius_orbits(g, q)]


ABELIAN_TEST_GROUPS = [
    ("C1", cyclic(1)),
    ("C2", cyclic(2)),
    ("C3", cyclic(3)),
    ("C6", cyclic(6)),
    ("C8", cyclic(8)),
    ("C2xC2", C2xC2),
    ("C2xC4", direct_product(cyclic(2), cyclic(4))),
    ("C3xC3", direct_product(cyclic(3), cyclic(3))),
]


class TestMaschke:
    def test_c2xc2_q5(self):
        assert is_semisimple(C2xC2, Q5)

    def test_c2xc2_q2(self):
        assert not is_semisimple(C2xC2, Q2)

    def test_trivial_group(self):
        assert is_semisimple(cyclic(1), Q2)


class TestComponentCount:
    def test_c2xc2_q5(self):
        assert component_count(C2xC2, Q5) == 4

    def test_c3_q2(self):
        # orbits of doubling on Z/3 are {0} and {1,2}; the cross-check is the
        # factorization x^3 - 1 = (x - 1)(x^2 + x + 1) over the 2-element field
        assert component_count(cyclic(3), Q2) == 2

    def test_s3_q5(self):
        assert component_count(symmetric(3), Q5) == 3

    def test_not_semisimple(self):
        with pytest.raises(NotSemisimple):
            component_count(C2xC2, Q2)

    def test_bounded_by_class_count(self):
        for name, g in ABELIAN_TEST_GROUPS + [("S3", symmetric(3)), ("D4", dihedral(4))]:
            for q in (Q2, Q3, Q5):
                if not is_semisimple(g, q):
                    continue
                cc = conjugacy_classes(g)
                d = component_count(g, q)
                assert d <= len(cc)
                # equality iff the q-power map fixes every conjugacy class,
                # i.e. the two partitions coincide
                same = sorted(tuple(c) for c in q_classes(g, q)) == sorted(cc)
                assert (d == len(cc)) == same

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
    def test_cyclotomic_coset_oracle(self, n, q):
        qp = validate_prime_power(q)
        if n % qp.p == 0:
            return
        assert component_count(cyclic(n), qp) == cyclotomic_coset_count(n, q)

    def test_character_orbit_oracle(self):
        # independent route: orbits of multiplication by q on the character
        # group, read off the canonical form of the abelianization
        from groupk.groups import abelianization

        for name, g in ABELIAN_TEST_GROUPS:
            for q in (Q2, Q3, Q5):
                if not is_semisimple(g, q):
                    continue
                a = abelianization(g)
                expected = character_orbit_count(a.invariant_factors, a.free_rank, q.q)
                assert component_count(g, q) == expected


class TestAbelianWedderburn:
    def test_c3_q2(self):
        assert abelian_wedderburn(cyclic(3), Q2).field_degrees == (1, 2)

    def test_c2xc2_q5(self):
        assert abelian_wedderburn(C2xC2, Q5).field_degrees == (1, 1, 1, 1)

    def test_trivial(self):
        assert abelian_wedderburn(cyclic(1), Q5).field_degrees == (1,)

    def test_nonabelian_rejected(self):
        with pytest.raises(NotAbelian):
            abelian_wedderburn(symmetric(3), Q5)

    def test_degrees_sum_to_order(self):
        for name, g in ABELIAN_TEST_GROUPS:
            for q in (Q2, Q3, Q5):
                if not is_semisimple(g, q):
                    continue
                w = abelian_wedderburn(g, q)
                assert sum(w.field_degrees) == g.order
                assert len(w.field_degrees) == w.d == component_count(g, q)

    def test_json(self):
        w = abelian_wedderburn(cyclic(3), Q2)
        assert w.to_json() == {
            "semisimple": True, "d": 2, "method": "q-classes", "field_degrees": [1, 2],
        }

    def test_summary_nonabelian(self):
        w = wedderburn_summary(symmetric(3), Q5)
        assert w.semisimple and w.d == 3 and w.field_degrees == (1, 1, 1)

    def test_summary_not_semisimple(self):
        w = wedderburn_summary(symmetric(3), Q3)
        assert w == WedderburnSummary(False, None, None)


class TestKGroupRing:
    def test_even_vanishing(self):
        assert k_group_ring(C2xC2, Q5, 2) == trivial

    def test_k0_free_of_rank_d(self):
        assert k_group_ring(C2xC2, Q5, 0) == FgAbelianGroup.free(4)

    def test_c3_q2_k1(self):
        # components are the fields with 2 and 4 elements: unit groups of
        # order 1 and 3
        assert k_group_ring(cyclic(3), Q2, 1) == FgAbelianGroup.cyclic(3)

    def test_nonabelian_odd_exact(self):
        # F_5[S3] = F_5 x F_5 x M_2(F_5), so K_3 = K_3(F_5)^3 = (Z/24)^3
        assert k_group_ring(symmetric(3), Q5, 3) == FgAbelianGroup.from_orders(0, [24, 24, 24])

    def test_not_semisimple(self):
        with pytest.raises(NotSemisimple):
            k_group_ring(C2xC2, Q2, 0)

    def test_vanishing_ranges(self):
        for name, g in ABELIAN_TEST_GROUPS:
            for q in (Q3, Q5):
                if not is_semisimple(g, q):
                    continue
                for n in range(2, 11, 2):
                    assert k_group_ring(g, q, n) == trivial
                for n in range(-4, 0):
                    assert k_group_ring(g, q, n) == trivial
                assert k_group_ring(g, q, 0).free_rank == component_count(g, q)

    def test_k1_matches_unit_count(self):
        # |K_1(F_q[G])| = prod over components of (q^f - 1)
        for name, g in ABELIAN_TEST_GROUPS:
            for q in (Q2, Q3, Q5):
                if not is_semisimple(g, q):
                    continue
                degs = abelian_wedderburn(g, q).field_degrees
                expected = math.prod(q.q**f - 1 for f in degs)
                k1 = k_group_ring(g, q, 1)
                assert k1.free_rank == 0 and math.prod(k1.invariant_factors) == expected


ORACLE_GROUPS = {
    spec: parse_group(spec)
    for spec in (
        "C1", "C6", "C12", "C2xC4", "C3xC3", "S3", "D4", "D5", "D6",
        "perm:(1 2 3 4)(5 6 7 8);(1 5 3 7)(2 8 4 6)",  # Q8
        "perm:(1 2 3);(2 3 4)",  # A4
        "S4",
        "perm:(1 2 3 4 5 6 7);(2 3 5)(4 7 6)",  # C7 x| C3
        "perm:(1 2 3 4 5);(1 2 3)",  # A5
        "D16",
    )
}
ORACLE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 49, 121)


class TestFrobeniusOrbits:
    def test_oracle_covers_enough_pairs(self):
        semisimple = [
            (g, q) for g in ORACLE_GROUPS.values() for q in ORACLE_QS
            if g.order % validate_prime_power(q).p
        ]
        assert len(semisimple) >= 100

    @pytest.mark.parametrize("spec", ORACLE_GROUPS)
    def test_against_centre_and_element_closure(self, spec):
        g = ORACLE_GROUPS[spec]
        for q in ORACLE_QS:
            qp = validate_prime_power(q)
            assert q_classes(g, qp) == q_class_blocks(g.table, q)
            if is_semisimple(g, qp):
                assert wedderburn_summary(g, qp).field_degrees == centre_field_degrees(g.table, q)

    def test_abelian_degrees_are_power_orbit_sizes(self):
        for name, g in ABELIAN_TEST_GROUPS:
            for q in (Q2, Q3, Q5):
                if is_semisimple(g, q):
                    assert abelian_wedderburn(g, q).field_degrees == power_orbit_sizes(g.table, q.q)

    @pytest.mark.parametrize("spec, q, degrees", [
        # squaring fixes both classes of order 7 and swaps the two of order 3:
        # F_2[G] = F_2 x F_4 x M_3(F_2)^2
        ("perm:(1 2 3 4 5 6 7);(2 3 5)(4 7 6)", 2, (1, 1, 1, 2)),
        # 7 = 2 mod 5 swaps the two classes of 5-cycles
        ("perm:(1 2 3 4 5);(1 2 3)", 7, (1, 1, 1, 2)),
        ("S3", 5, (1, 1, 1)),
    ])
    def test_worked_values(self, spec, q, degrees):
        w = wedderburn_summary(ORACLE_GROUPS[spec], validate_prime_power(q))
        assert w.field_degrees == degrees and w.d == len(degrees)
