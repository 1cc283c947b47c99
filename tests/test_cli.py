import io
import json
import os
import time

import pytest

from groupk.cli import parse_group_spec, run
from groupk.errors import ParseError

DATA = os.path.join(os.path.dirname(__file__), "data")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestParseGroupSpec:
    def test_product_of_cyclics(self):
        g = parse_group_spec("C2xC2").build()
        assert g.order == 4 and g.is_abelian()

    def test_symmetric(self):
        assert parse_group_spec("S3").build().order == 6

    def test_dihedral(self):
        assert parse_group_spec("D4").build().order == 8

    def test_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_group_spec("C0")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_group_spec("C2xQ8")
        assert info.value.position == 3

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_group_spec("")

    def test_perm_spec(self):
        g = parse_group_spec("perm:(1 2 3);(1 2)").build()
        assert g.order == 6

    def test_perm_bad_text(self):
        with pytest.raises(ParseError):
            parse_group_spec("perm:(1 2) junk")

    def test_table_spec(self, tmp_path):
        path = tmp_path / "c2.txt"
        path.write_text("2\n0 1\n1 0\n")
        g = parse_group_spec(f"table:{path}").build()
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
        ["wedderburn", "--group", "C2", "--q", "3"],
        ["e2page", "--group", "C2", "--q", "3"],
        ["certify", "--group", "C2", "--q", "3"],
    ], ids=lambda argv: argv[0])
    def test_negative_max_degree(self, argv):
        code, out, err = invoke(argv + ["--max-degree", "-1"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--max-degree" in err

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

    @pytest.mark.parametrize("argv, name", [
        (["certify", "--group", "C2xC24", "--q", "5"], "GROUPK_GENERATOR_LIMIT"),
        (["homology", "--group", "C100", "--max-degree", "2"], "GROUPK_ORDER_CAP"),
    ])
    def test_size_guard_names_its_variable(self, argv, name):
        code, out, err = invoke(argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and name in err


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
