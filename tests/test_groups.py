import hashlib

import pytest

from groupk.abelian import FgAbelianGroup
from groupk.cli import parse_group
from groupk.errors import NotAGroup, TooLarge
from groupk.groups import (
    abelianization,
    conjugacy_classes,
    cyclic,
    dihedral,
    direct_product,
    element_order,
    group_from_file,
    group_from_table,
    permutation_closure,
    symmetric,
)

from oracles import conjugacy_class_sizes_symmetric


def all_builders_upto(order):
    """Deterministic sample of built-in groups up to the given order."""
    out = []
    for n in range(1, order + 1):
        out.append((f"C{n}", cyclic(n)))
    for n in range(2, order // 2 + 1):
        out.append((f"D{n}", dihedral(n)))
    for n in (3, 4):
        g = symmetric(n)
        if g.order <= order:
            out.append((f"S{n}", g))
    pairs = [(2, 2), (2, 3), (2, 4), (3, 3)]
    for a, b in pairs:
        g = direct_product(cyclic(a), cyclic(b))
        if g.order <= order:
            out.append((f"C{a}xC{b}", g))
    return out


class TestGroupFromTable:
    def test_trivial(self):
        g = group_from_table([[0]])
        assert g.order == 1

    def test_z2(self):
        g = group_from_table([[0, 1], [1, 0]])
        assert g.order == 2
        assert element_order(g, 1) == 2

    def test_not_latin_square(self):
        with pytest.raises(NotAGroup):
            group_from_table([[0, 1], [1, 1]])

    def test_no_identity(self):
        # Latin square with a left identity (row 0) but no right identity
        with pytest.raises(NotAGroup):
            group_from_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    def test_identity_relabeled_to_zero(self):
        # cyclic group of order 3 written with identity at index 2
        table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
        g = group_from_table(table)
        assert g.table[0] == (0, 1, 2)
        assert all(g.table[i][0] == i for i in range(3))
        assert element_order(g, 1) == 3

    def test_associativity_failure(self):
        # a Latin square with identity that is not associative (order 5 quasigroup)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAGroup) as info:
            group_from_table(table)
        assert "associativity" in str(info.value)


class TestBuilders:
    @pytest.mark.parametrize("name,group", all_builders_upto(24))
    def test_axioms(self, name, group):
        # full validation must accept every builder's table
        g = group_from_table([list(r) for r in group.table])
        assert g.table == group.table

    def test_c2xc2_all_involutions(self):
        g = direct_product(cyclic(2), cyclic(2))
        assert g.order == 4
        assert all(element_order(g, x) == 2 for x in range(1, 4))

    def test_symmetric3(self):
        g = symmetric(3)
        assert g.order == 6
        assert len(conjugacy_classes(g)) == 3

    def test_cyclic1_trivial(self):
        assert cyclic(1).order == 1

    def test_dihedral_order(self):
        assert dihedral(4).order == 8

    def test_order_cap(self):
        with pytest.raises(TooLarge):
            cyclic(100)
        assert cyclic(100, order_cap=128).order == 100

    def test_permutation_closure_s3(self):
        g = permutation_closure([(1, 0, 2), (1, 2, 0)])
        assert g.order == 6
        assert not g.is_abelian()

    def test_permutation_closure_cap(self):
        with pytest.raises(TooLarge):
            permutation_closure([(1, 2, 3, 4, 0)], order_cap=3)


# every builder group of order <= 24, A4 and Q8 as permutation closures
CLASS_TEST_GROUPS = {
    **dict(all_builders_upto(24)),
    **{spec: parse_group(spec) for spec in (
        "perm:(1 2 3);(2 3 4)",  # A4
        "perm:(1 2 3 4)(5 6 7 8);(1 5 3 7)(2 8 4 6)",  # Q8
    )},
}


class TestConjugacy:
    def test_cyclic4_singletons(self):
        cc = conjugacy_classes(cyclic(4))
        assert len(cc) == 4
        assert all(len(c) == 1 for c in cc)

    def test_symmetric3_sizes(self):
        cc = conjugacy_classes(symmetric(3))
        assert sorted(len(c) for c in cc) == conjugacy_class_sizes_symmetric(3)
        assert sorted(len(c) for c in cc) == [1, 2, 3]

    def test_trivial(self):
        assert len(conjugacy_classes(cyclic(1))) == 1

    def test_identity_alone(self):
        for _, g in all_builders_upto(16):
            cc = conjugacy_classes(g)
            assert (0,) in cc

    def test_class_count_detects_abelian(self):
        for _, g in all_builders_upto(16):
            assert (len(conjugacy_classes(g)) == g.order) == g.is_abelian()

    @pytest.mark.parametrize("name", CLASS_TEST_GROUPS)
    def test_sorted_classes_partition_the_group(self, name):
        # the Frobenius walk in grouprings takes each class's first element as its representative
        g = CLASS_TEST_GROUPS[name]
        classes = conjugacy_classes(g)
        assert classes[0] == (0,)
        assert all(c == tuple(sorted(set(c))) for c in classes)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        assert sorted(x for c in classes for x in c) == list(range(g.order))
        assert all({g.conj(h, c[0]) for h in g.elements()} == set(c) for c in classes)


class TestElementOrder:
    def test_identity(self):
        assert element_order(cyclic(5), 0) == 1

    def test_generator_of_c6(self):
        assert element_order(cyclic(6), 1) == 6

    def test_transposition(self):
        g = symmetric(3)
        # find a transposition by brute force and square it
        for x in range(1, 6):
            if g.mul(x, x) == 0 and x != 0:
                assert element_order(g, x) == 2
                break
        else:
            pytest.fail("no involution found in S3")

    def test_divides_group_order(self):
        for _, g in all_builders_upto(16):
            for x in g.elements():
                assert g.order % element_order(g, x) == 0


class TestAbelianization:
    def test_symmetric3(self):
        assert abelianization(symmetric(3)) == FgAbelianGroup.cyclic(2)

    def test_c2xc2(self):
        g = direct_product(cyclic(2), cyclic(2))
        assert abelianization(g) == FgAbelianGroup(0, (2, 2))

    def test_dihedral4(self):
        assert abelianization(dihedral(4)) == FgAbelianGroup(0, (2, 2))

    def test_symmetric4(self):
        assert abelianization(symmetric(4)) == FgAbelianGroup.cyclic(2)

    def test_cyclic(self):
        assert abelianization(cyclic(6)) == FgAbelianGroup.cyclic(6)


class TestTableFile:
    def test_roundtrip(self, tmp_path):
        g = symmetric(3)
        path = tmp_path / "s3.txt"
        lines = [str(g.order)]
        lines += [" ".join(str(v) for v in row) for row in g.table]
        lines += ["e", "a", "b", "ab", "ba", "aba"]  # labels are read and counted only
        path.write_text("\n".join(lines) + "\n")
        h = group_from_file(path)
        assert h.table == g.table

    def test_label_count_checked(self, tmp_path):
        path = tmp_path / "c3.txt"
        path.write_text("3\n0 1 2\n1 2 0\n2 0 1\ne\ng\n")
        with pytest.raises(NotAGroup, match="expected 3 labels, got 2"):
            group_from_file(path)

    def test_without_labels(self, tmp_path):
        path = tmp_path / "c2.txt"
        path.write_text("2\n0 1\n1 0\n")
        assert group_from_file(path).order == 2

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n")
        with pytest.raises(NotAGroup):
            group_from_file(path)


def pinned_groups():
    """Every builder over a fixed range, in a fixed order."""
    atoms = [cyclic(n) for n in range(1, 65)] + [dihedral(n) for n in range(1, 33)]
    groups = atoms + [symmetric(n, order_cap=120) for n in range(1, 6)]
    groups += [direct_product(a, b) for a in atoms[1:] for b in atoms[1:] if a.order * b.order <= 64]
    # the Q8 of tests/test_homology.py's SMALL_GROUPS
    groups.append(permutation_closure([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]))
    return groups


class TestElementOrdering:
    # The element order of a builder fixes every table, Smith pivot and output
    # downstream, and the cost of the Smith reduction with them.
    DIGEST = "48b279b5891b84f4c399cfd79a6ca6fd1c46ff3f376d0b57e8894728bd70e7b5"

    def test_builder_tables_are_pinned(self):
        groups = pinned_groups()
        assert len(groups) == 479
        digest = hashlib.sha256()
        for g in groups:
            digest.update(repr(g.table).encode())
        assert digest.hexdigest() == self.DIGEST
