import io
import json
import os
import subprocess
import sys
import time

import pytest

import groupk
from groupk.assembly import e2_page
from groupk.cli import parse_group, render_e2_ascii, run
from groupk.errors import ParseError
from groupk.groups import cyclic
from groupk.kfield import validate_prime_power

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str limit of 4300 digits, for one test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any length to str")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestParseGroupSpec:
    def test_product_of_cyclics(self):
        g = parse_group("C2xC2")
        assert g.order == 4 and g.is_abelian()

    def test_symmetric(self):
        assert parse_group("S3").order == 6

    def test_dihedral(self):
        assert parse_group("D4").order == 8

    def test_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_group("C0")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_group("C2xQ8")
        assert info.value.position == 3

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_group("")

    def test_perm_spec(self):
        g = parse_group("perm:(1 2 3);(1 2)")
        assert g.order == 6

    def test_perm_bad_text(self):
        with pytest.raises(ParseError):
            parse_group("perm:(1 2) junk")

    def test_table_spec(self, tmp_path):
        path = tmp_path / "c2.txt"
        path.write_text("2\n0 1\n1 0\n")
        g = parse_group(f"table:{path}")
        assert g.order == 2


class TestExitCodes:
    def test_certify_not_injective_is_zero(self):
        code, out, _ = invoke(["certify", "--group", "C2xC2", "--q", "5"])
        assert code == 0
        assert "NOT_INJECTIVE" in out

    def test_certify_inconclusive_is_two(self):
        code, out, _ = invoke(["certify", "--group", "C2xC2", "--q", "2"])
        assert code == 2
        assert "CharacteristicDividesOrder" in out

    def test_parse_error_is_one(self):
        code, _, err = invoke(["certify", "--group", "C0", "--q", "5"])
        assert code == 1 and "error:" in err

    def test_bad_q_is_one(self):
        code, _, err = invoke(["kfield", "--q", "6"])
        assert code == 1 and "error:" in err

    def test_too_large_is_one(self):
        code, _, err = invoke(["homology", "--group", "C100", "--max-degree", "2"])
        assert code == 1 and "error:" in err

    def test_usage_error_is_one(self):
        code, _, err = invoke(["certify", "--group", "C2xC2"])
        assert code == 1


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["kfield", "--q", "3"],
        ["homology", "--group", "C2"],
        ["e2page", "--group", "C2", "--q", "3"],
    ], ids=lambda argv: argv[0])
    def test_negative_max_degree(self, argv):
        code, out, err = invoke(argv + ["--max-degree", "-1"])
        assert code == 1 and out == ""
        assert err == "error: argument --max-degree: must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["wedderburn", "--group", "S3", "--q", "5"],
        ["certify", "--group", "S3", "--q", "5"],
    ], ids=lambda argv: argv[0])
    def test_max_degree_not_accepted(self, argv):
        # these commands read no degree bound, so they take no --max-degree
        code, out, err = invoke(argv + ["--max-degree", "0"])
        assert code == 1 and out == ""
        # a usage error has no position in a spec to point at
        assert err == "error: unrecognized arguments: --max-degree 0\n"

    @pytest.mark.parametrize("name", ["GROUPK_ORDER_CAP", "GROUPK_GENERATOR_LIMIT"])
    @pytest.mark.parametrize("value", ["abc", "0", "-3", ""])
    def test_bad_limit_variable(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        code, out, err = invoke(["homology", "--group", "C2", "--max-degree", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and name in err

    def test_missing_table_file(self, tmp_path):
        path = tmp_path / "missing.txt"
        code, out, err = invoke(["homology", "--group", f"table:{path}"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(path) in err

    def test_large_prime_in_bounded_time(self):
        q = 2**61 - 1
        start = time.perf_counter()
        code, out, _ = invoke(["kfield", "--q", str(q), "--max-degree", "1"])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out.splitlines()[1] == f"K_1(F_{q}) = Z/{q - 1}"

    def test_64_bit_prime_e2page_in_bounded_time(self):
        q = 18446744073709551557  # the largest prime below 2^64
        start = time.perf_counter()
        code, out, _ = invoke(
            ["e2page", "--group", "C2", "--q", str(q), "--max-degree", "3", "--format", "json"]
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0
        entries = {(e["p"], e["q"]): e["group"] for e in json.loads(out)["entries"]}
        # K_1 = Z/(q-1), K_3 = Z/(q^2-1); H_1(C2; Z/(q-1)) = Z/gcd(2, q-1) as q is odd
        assert entries[(0, 1)] == {"free_rank": 0, "invariant_factors": [q - 1]}
        assert entries[(0, 3)] == {"free_rank": 0, "invariant_factors": [q**2 - 1]}
        assert entries[(1, 1)] == {"free_rank": 0, "invariant_factors": [2]}

    @pytest.mark.parametrize("spec, position", [
        ("perm:(1 2)(1 3)", 10),
        ("perm:(1 2 3)(3 4)", 12),
    ])
    def test_overlapping_cycles(self, spec, position):
        code, out, err = invoke(["homology", "--group", spec, "--max-degree", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"(at position {position})" in err

    @pytest.mark.parametrize("argv", [
        ["--q", "18446744073709551557", "--max-degree", "447"],
        ["--q", "18446744073709551557", "--max-degree", "447", "--format", "json"],
        ["--q", "2", "--max-degree", "30000"],
    ])
    def test_k_group_order_too_long_to_print(self, argv, default_digit_limit):
        start = time.perf_counter()
        code, out, err = invoke(["kfield"] + argv)
        assert time.perf_counter() - start < 2.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"F_{argv[1]}" in err

    def test_longest_printable_k_group_order(self, default_digit_limit):
        # q^223 - 1 has 4297 digits, under the limit of 4300
        code, out, _ = invoke(["kfield", "--q", "18446744073709551557", "--max-degree", "445"])
        assert code == 0
        assert len(out.splitlines()[-1].split("Z/")[1]) == 4297

    @pytest.mark.parametrize("argv", [
        ["homology", "--group", "C2", "--max-degree", "2000"],
        ["homology", "--group", "C1", "--max-degree", "100000"],
        ["e2page", "--group", "C1", "--q", "2", "--max-degree", "30000"],
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}")
    def test_degree_bound_for_tiny_groups(self, argv, built, smith_calls):
        # a basis of one generator per degree never trips the generator count;
        # neither engine reduces anything before the guard fails
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == "" and built == [] and smith_calls == []
        assert err == "error: degree 317 squared is 100489, over the limit 100000 (GROUPK_GENERATOR_LIMIT)\n"

    @pytest.mark.parametrize("argv", [
        ["homology", "--group", "C3xC3", "--max-degree", "6"],
        ["e2page", "--group", "C3xC3", "--q", "2", "--max-degree", "5"],
    ], ids=lambda argv: argv[0])
    def test_size_guard_fails_before_any_build(self, argv, built, smith_calls):
        # d_1 .. d_5 pass the guards; d_6 does not, and nothing is built or
        # reduced first
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == "" and built == [] and smith_calls == []
        assert err == (
            "error: bar basis in degree 6 has 262144 generators, "
            "over the limit 100000 (GROUPK_GENERATOR_LIMIT)\n"
        )

    @pytest.mark.parametrize("argv, name", [
        (["certify", "--group", "C2xC24", "--q", "5"], "GROUPK_GENERATOR_LIMIT"),
        (["homology", "--group", "C100", "--max-degree", "2"], "GROUPK_ORDER_CAP"),
    ])
    def test_size_guard_names_its_variable(self, argv, name, monkeypatch):
        # C2xC24 passes the default limits (see the next test); 100 refuses its
        # resolution module of 3 x 48 generators over Z in degree 2
        monkeypatch.setenv("GROUPK_GENERATOR_LIMIT", "100")
        code, out, err = invoke(argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and name in err

    def test_certify_reaches_the_order_cap(self):
        # order 48: the degree-3 bar basis would have 47^3 > 10^5 generators
        code, out, err = invoke(["certify", "--group", "C2xC24", "--q", "5", "--format", "json"])
        assert (code, err) == (0, "")
        cert = json.loads(out)
        assert cert["verdict"] == "NOT_INJECTIVE"
        assert cert["h2"] == {"free_rank": 0, "invariant_factors": [2]}


class TestOutputs:
    def test_kfield_ascii_q2(self):
        code, out, _ = invoke(["kfield", "--q", "2", "--max-degree", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "K_0(F_2) = Z",
            "K_1(F_2) = 0",
            "K_2(F_2) = 0",
            "K_3(F_2) = Z/3",
            "K_4(F_2) = 0",
            "K_5(F_2) = Z/7",
        ]

    def test_kfield_json_matches_ascii(self):
        _, ascii_out, _ = invoke(["kfield", "--q", "2", "--max-degree", "5"])
        _, json_out, _ = invoke(["kfield", "--q", "2", "--max-degree", "5", "--format", "json"])
        payload = json.loads(json_out)
        displays = [d["display"] for d in payload["degrees"]]
        ascii_values = [line.split(" = ")[1] for line in ascii_out.strip().splitlines()]
        assert displays == ascii_values

    def test_e2page_golden(self):
        code, out, _ = invoke(["e2page", "--group", "C2xC2", "--q", "5", "--max-degree", "3"])
        assert code == 0
        with open(os.path.join(DATA, "e2_C2xC2_q5_N3.txt")) as fh:
            assert out == fh.read()

    def test_e2page_chart_in_bounded_time(self):
        # each cell is read once from the page: about 0.03 s here, against 12 s
        # when every cell searched the whole triangle
        page = e2_page(cyclic(1), validate_prime_power(2), 150)
        start = time.perf_counter()
        chart = render_e2_ascii(page)
        assert time.perf_counter() - start < 1.0
        lines = chart.splitlines()
        assert len(lines) == 150 + 4
        assert lines[1].split() == ["150", "|"] + ["0"] * 151  # K_150(F_2) = 0

    def test_e2page_json_roundtrip(self):
        code, out, _ = invoke(
            ["e2page", "--group", "C2xC2", "--q", "5", "--max-degree", "3", "--format", "json"]
        )
        payload = json.loads(out)
        assert payload["max_total_degree"] == 3
        row2 = [e for e in payload["entries"] if e["q"] == 2]
        assert row2 and all(e["display"] == "0" for e in row2)

    def test_certify_json_roundtrip(self):
        code, out, _ = invoke(
            ["certify", "--group", "C2xC2", "--q", "5", "--format", "json"]
        )
        assert code == 0
        cert = json.loads(out)
        assert cert["verdict"] == "NOT_INJECTIVE"
        assert cert["d"] == 4
        assert cert["h2"] == {"free_rank": 0, "invariant_factors": [2]}

    def test_wedderburn_json(self):
        code, out, _ = invoke(["wedderburn", "--group", "C3", "--q", "2", "--format", "json"])
        assert json.loads(out) == {
            "semisimple": True, "d": 2, "method": "q-classes", "field_degrees": [1, 2],
        }

    def test_wedderburn_nonabelian_field_degrees(self):
        code, out, _ = invoke(
            ["wedderburn", "--group", "perm:(1 2 3 4 5 6 7);(2 3 5)(4 7 6)", "--q", "2"]
        )
        assert code == 0
        assert out.splitlines() == [
            "semisimple: true", "d: 4", "field_degrees: [1, 1, 1, 2]", "method: q-classes",
        ]

    def test_homology_ascii(self):
        code, out, _ = invoke(["homology", "--group", "S3", "--max-degree", "3"])
        assert code == 0
        assert "H_3(S3) = Z/6" in out

    def test_env_order_cap(self, monkeypatch):
        code, _, err = invoke(["homology", "--group", "C70", "--max-degree", "1"])
        assert code == 1
        monkeypatch.setenv("GROUPK_ORDER_CAP", "128")
        code, out, _ = invoke(["homology", "--group", "C70", "--max-degree", "1"])
        assert code == 0 and "H_1(C70) = Z/70" in out


def golden(name):
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


class TestExactText:
    @pytest.mark.parametrize("group, q, code, text", [
        ("C2xC2", "5", 0, [
            "group: C2xC2", "field: F_5 (characteristic 5)", "semisimple: true",
            "components d: 4", "H_2(G) = Z/2", "K_2(F_q[G]) = 0", "verdict: NOT_INJECTIVE",
        ]),
        ("C2xC2", "2", 2, [
            "group: C2xC2", "field: F_2 (characteristic 2)", "semisimple: false",
            "H_2(G) = Z/2", "verdict: INCONCLUSIVE", "reason: CharacteristicDividesOrder",
        ]),
        ("C3", "2", 2, [
            "group: C3", "field: F_2 (characteristic 2)", "semisimple: true",
            "components d: 2", "H_2(G) = 0", "K_2(F_q[G]) = 0", "verdict: INCONCLUSIVE",
            "reason: H2Trivial",
        ]),
    ], ids=["not-injective", "modular", "h2-trivial"])
    def test_certify_ascii(self, group, q, code, text):
        assert invoke(["certify", "--group", group, "--q", q]) == (
            code, "".join(line + "\n" for line in text), "")

    @pytest.mark.parametrize("argv, name", [
        (["certify", "--group", "C2xC2", "--q", "5"], "certify_C2xC2_q5.json"),
        (["homology", "--group", "S3", "--max-degree", "3"], "homology_S3_N3.json"),
        (["kfield", "--q", "4", "--max-degree", "3"], "kfield_q4_N3.json"),
        (["e2page", "--group", "C2xC2", "--q", "5", "--max-degree", "3"], "e2page_C2xC2_q5_N3.json"),
    ], ids=["certify", "homology", "kfield", "e2page"])
    def test_json(self, argv, name):
        assert invoke(argv + ["--format", "json"]) == (0, golden(name), "")

    def test_wedderburn_ascii_not_semisimple(self):
        assert invoke(["wedderburn", "--group", "S3", "--q", "3"]) == (0, "semisimple: false\n", "")

    def test_wedderburn_json_not_semisimple(self):
        # no decomposition, so no component count and no method
        assert invoke(["wedderburn", "--group", "S3", "--q", "3", "--format", "json"]) == (
            0, '{\n  "semisimple": false,\n  "d": null\n}\n', "")


class TestErrorOrder:
    def test_spec_error_outranks_size_guard(self):
        # C100 alone is over the order cap; the bad atom after it is reported first
        code, out, err = invoke(["certify", "--group", "C100xQ8", "--q", "5"])
        assert code == 1 and out == ""
        assert err == "error: cannot parse group atom 'Q8' (at position 5)\n"

    def test_usage_error_leaves_later_commands_as_in_a_fresh_process(self):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(groupk.__file__))}
        argvs = [
            ["certify", "--group", "C2xC2"],
            ["certify", "--group", "C2xC2", "--q", "5", "--format", "json"],
            ["kfield", "--q", "4", "--max-degree", "x"],
            ["homology", "--group", "S3", "--max-degree", "3"],
        ]
        for argv in argvs:
            fresh = subprocess.run([sys.executable, "-m", "groupk", *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
            assert invoke(argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
