"""The free ZG-resolution engine against the bar engine and the oracles."""

import functools
import io
import json
import random
import time

import pytest

from groupk import resolution
from groupk.abelian import FgAbelianGroup
from groupk.cli import parse_group, run
from groupk.errors import NotAComplex, TooLarge
from groupk.homology import (
    DEFAULT_GENERATOR_LIMIT,
    bar_homology_sequence,
    cyclic_homology_sequence,
    kunneth_oracle,
)
from groupk.resolution import resolution_homology_sequence
from oracles import accepted_top

Z = FgAbelianGroup.free(1)
C = FgAbelianGroup.cyclic

A4 = "perm:(1 2 3);(1 2)(3 4)"
Q8 = "perm:(1 2 3 4)(5 6 7 8);(1 5 3 7)(2 8 4 6)"
A5 = "perm:(1 2 3);(3 4 5)"


def _atoms(limit):
    """(spec, order) of the builder atoms C_n (n >= 2), D_n (n >= 3) and S3, S4 up to limit."""
    atoms = [(f"C{n}", n) for n in range(2, limit + 1)]
    atoms += [(f"D{n}", 2 * n) for n in range(3, limit // 2 + 1)]
    return atoms + [(s, o) for s, o in (("S3", 6), ("S4", 24)) if o <= limit]


def builder_specs(limit):
    """C1 and every product of builder atoms of order at most limit, factors in atom order."""
    atoms = _atoms(limit)
    specs = ["C1"]

    def extend(prefix, order, start):
        for k in range(start, len(atoms)):
            spec, o = atoms[k]
            if order * o <= limit:
                specs.append("x".join(prefix + [spec]))
                extend(prefix + [spec], order * o, k)

    extend([], 1, 0)
    return specs


def relabeled(G, seed, tmp_path):
    """G read back from a table: file whose element order is a random shuffle."""
    n = G.order
    perm = list(range(n))
    random.Random(seed).shuffle(perm)  # element i becomes perm[i]
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[G.mul(i, j)]
    path = tmp_path / f"relabeled-{seed}.txt"
    path.write_text(f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table))
    return parse_group(f"table:{path}")


def dihedral_sequence(n, top):
    """H_0..H_top of D_n (order 2n).  For odd n every degree: from degree 1 on
    the homology has period 4, Z/2, 0, Z/2n, 0.  For even n through degree 2
    only, by the Schur rule: H_2 = Z/2."""
    if n % 2 == 0:
        return [Z, FgAbelianGroup(0, (2, 2)), C(2)][:top + 1]
    period = (C(2), FgAbelianGroup.trivial(), C(2 * n), FgAbelianGroup.trivial())
    return [Z] + [period[(k - 1) % 4] for k in range(1, top + 1)]


def oracle_sequence(spec, top=2):
    """H_0..H_top of a product of builder atoms, S3 = D3, from the cyclic
    oracle, the dihedral rules and Kunneth; only through degree 2 when an even
    D_n or S4 (H_1 = H_2 = Z/2) is a factor."""
    seqs = []
    for atom in spec.split("x"):
        n = int(atom[1:])
        if atom[0] == "C":
            seqs.append(cyclic_homology_sequence(n, top))
        else:
            seqs.append([Z, C(2), C(2)][:top + 1] if atom == "S4" else dihedral_sequence(n, top))
    length = min(map(len, seqs))
    return functools.reduce(lambda a, b: [kunneth_oracle(a, b, k) for k in range(length)], seqs)


class TestAgainstBarEngine:
    @pytest.mark.parametrize("spec", builder_specs(16) + [A4, Q8])
    def test_matches_bar_engine(self, spec, tmp_path):
        G = parse_group(spec)
        expected = bar_homology_sequence(G, 2)
        assert resolution_homology_sequence(G, 2) == expected
        for seed in (1, 2):
            assert resolution_homology_sequence(relabeled(G, seed, tmp_path), 2) == expected

    def test_builder_list(self):
        specs = builder_specs(16)
        assert len(specs) == len(set(specs)) == 41
        assert {"C1", "C16", "D8", "S3", "C2xS3", "C2xC2xC2xC2", "C4xC4"} <= set(specs)

    @pytest.mark.parametrize("spec", ["C1", "C2", "S3", "C2xC2"])
    def test_higher_degrees(self, spec):
        G = parse_group(spec)
        assert resolution_homology_sequence(G, 4) == bar_homology_sequence(G, 4)

    def test_degree_zero_and_negative(self):
        assert resolution_homology_sequence(parse_group("S3"), 0) == [Z]
        with pytest.raises(ValueError):
            resolution_homology_sequence(parse_group("S3"), -1)


class TestUpToTheOrderCap:
    @pytest.mark.parametrize("spec", [
        "C2xC24", "D24", "D32", "C8xC8", "C4xC4xC4", "C2xC2xC2xC2xC2xC2",
        "C3xD5", "C5xD5", "S3xD5",
    ])
    def test_matches_oracle(self, spec):
        assert resolution_homology_sequence(parse_group(spec), 2) == oracle_sequence(spec)

    def test_a5_schur_multiplier(self):
        assert resolution_homology_sequence(parse_group(A5), 2) == [Z, FgAbelianGroup.trivial(), C(2)]


class TestGuardSweep:
    """homology on every builder group up to the order cap, at the largest
    degree the bar guards accept and at the first one they refuse."""

    @pytest.mark.parametrize("limit", [DEFAULT_GENERATOR_LIMIT, 4, 16, 100, 1000])
    def test_resolution_accepts_what_the_bar_guards_accept(self, limit, monkeypatch):
        # so neither the resolution's generator_limit nor its ENTRY_BIT_LIMIT
        # refuses an accepted request.  On the bar engine S3 through degree 6
        # took 202.6 s, and C3xS3 through degree 3 about 72 s.
        monkeypatch.setenv("GROUPK_GENERATOR_LIMIT", str(limit))
        start = time.perf_counter()
        for spec in builder_specs(64):
            top = accepted_top(parse_group(spec).order, limit)
            out, err = io.StringIO(), io.StringIO()
            argv = ["homology", "--group", spec, "--format", "json", "--max-degree"]
            assert (run(argv + [str(top)], out, err), err.getvalue()) == (0, ""), spec
            oracle = oracle_sequence(spec, top)
            degrees = json.loads(out.getvalue())["degrees"]
            assert [d["group"] for d in degrees[:len(oracle)]] == [h.to_json() for h in oracle], spec
            err = io.StringIO()
            assert run(argv + [str(top + 1)], io.StringIO(), err) == 1, spec
            assert err.getvalue().endswith(f"over the limit {limit} (GROUPK_GENERATOR_LIMIT)\n"), spec
        assert time.perf_counter() - start < 30.0


class TestChecksAndGuards:
    def test_corrupted_boundary_is_not_a_complex(self, monkeypatch):
        real = resolution._generators

        def corrupt(G, kernel, size):
            picked = real(G, kernel, size)
            if size > G.order:  # the generators of degree 2
                v = picked[0]
                k = next(iter(v))
                picked[0] = {**v, k: 2 * v[k]}
            return picked

        monkeypatch.setattr(resolution, "_generators", corrupt)
        with pytest.raises(NotAComplex):
            resolution_homology_sequence(parse_group("S3"), 2)

    @pytest.mark.parametrize("limit, kernels", [(5, 0), (6, 1)])
    def test_generator_limit_checked_before_each_kernel(self, monkeypatch, limit, kernels):
        # S3 has 6 generators over Z in degree 0 and 2 x 6 in degree 1
        calls = []
        real = resolution._kernel

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(resolution, "_kernel", counting)
        with pytest.raises(TooLarge, match=r"over the limit .*\(GROUPK_GENERATOR_LIMIT\)$"):
            resolution_homology_sequence(parse_group("S3"), 2, generator_limit=limit)
        assert len(calls) == kernels

    def test_generator_limit_edge(self):
        # C2xC24 needs 1, 2 and 3 generators over ZG in degrees 0 to 2
        G = parse_group("C2xC24")
        assert resolution_homology_sequence(G, 2, generator_limit=144)[2] == C(2)
        with pytest.raises(TooLarge, match="in degree 2 has 144 generators"):
            resolution_homology_sequence(G, 2, generator_limit=143)

    def test_entry_bit_bound(self, monkeypatch):
        # the lattices of D4 hold entries of more than one bit
        monkeypatch.setattr(resolution, "ENTRY_BIT_LIMIT", 1)
        with pytest.raises(TooLarge, match="bits, over the bound 1$"):
            resolution_homology_sequence(parse_group("D4"), 2)
