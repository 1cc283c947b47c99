import json

import pytest

from groupk.abelian import FgAbelianGroup
from groupk.assembly import (
    INCONCLUSIVE,
    NOT_INJECTIVE,
    NonInjectivityCertificate,
    certify_noninjectivity,
    e2_page,
)
from groupk.groups import cyclic, direct_product, symmetric
from groupk.kfield import k_finite_field, validate_prime_power

Z = FgAbelianGroup.free(1)
trivial = FgAbelianGroup.trivial()

C2xC2 = direct_product(cyclic(2), cyclic(2))
Q5 = validate_prime_power(5)


def cells(page):
    """{(p, q): E^2_{p,q}} of the stored triangle."""
    return {(p, q): val for p, q, val in page.entries}


class TestE2Page:
    def test_column_zero_is_k_theory(self):
        page = cells(e2_page(C2xC2, Q5, 3))
        for q in range(4):
            assert page[0, q] == k_finite_field(Q5, q)

    def test_even_rows_vanish(self):
        page = e2_page(C2xC2, Q5, 3)
        for p, q, val in page.entries:
            if q % 2 == 0 and q > 0:
                assert val == trivial

    def test_negative_rows_implicitly_zero(self):
        # only the triangle p, q >= 0, p + q <= N is stored
        page = e2_page(C2xC2, Q5, 2)
        triangle = [(p, q) for q in range(3) for p in range(3 - q)]
        assert [(p, q) for p, q, _ in page.entries] == triangle

    def test_corner_and_h2(self):
        page = cells(e2_page(C2xC2, Q5, 3))
        assert page[0, 0] == Z
        assert page[2, 0] == FgAbelianGroup.cyclic(2)

    def test_trivial_group(self):
        page = cells(e2_page(cyclic(1), Q5, 2))
        assert page[2, 0] == trivial
        assert page[0, 1] == FgAbelianGroup.cyclic(4)


class TestCertificate:
    def test_paper_counterexample(self):
        cert = certify_noninjectivity(C2xC2, Q5, group_name="C2xC2")
        assert cert.verdict == NOT_INJECTIVE
        assert cert.h2 == FgAbelianGroup.cyclic(2)
        assert cert.d == 4
        assert cert.k2_group_ring == trivial
        assert cert.witness["degree"] == 2

    @pytest.mark.parametrize("group", [C2xC2, symmetric(3)], ids=["C2xC2", "S3"])
    def test_reduces_d1_to_d3_once(self, group, built, smith_calls):
        # no bar boundary: d_1 (x) Z, d_2 (x) Z and the image of d_3 (x) Z of
        # the resolution, each reduced once, chained k_0 = 1, k_1, k_2
        certify_noninjectivity(group, Q5)
        assert built == []
        assert len(smith_calls) == 3 and smith_calls[0][0] == 1
        assert [cols for _, cols in smith_calls[:2]] == [rows for rows, _ in smith_calls[1:]]

    def test_characteristic_divides_order(self):
        cert = certify_noninjectivity(C2xC2, validate_prime_power(2))
        assert cert.verdict == INCONCLUSIVE
        assert cert.reason == "CharacteristicDividesOrder"
        assert cert.d is None and cert.k2_group_ring is None

    def test_h2_trivial(self):
        cert = certify_noninjectivity(cyclic(5), validate_prime_power(3))
        assert cert.verdict == INCONCLUSIVE
        assert cert.reason == "H2Trivial"

    def test_trivial_group(self):
        cert = certify_noninjectivity(cyclic(1), validate_prime_power(2))
        assert cert.verdict == INCONCLUSIVE
        assert cert.reason == "H2Trivial"

    def test_deterministic_bytes(self):
        a = certify_noninjectivity(C2xC2, Q5, group_name="C2xC2").to_json()
        b = certify_noninjectivity(C2xC2, Q5, group_name="C2xC2").to_json()
        assert a == b

    def test_assumptions_always_cite_survival(self):
        for g, q in [(C2xC2, Q5), (C2xC2, validate_prime_power(2)), (cyclic(3), Q5)]:
            cert = certify_noninjectivity(g, q)
            assert any("E2_{0,0}" in s for s in cert.cited_assumptions)
        cert = certify_noninjectivity(C2xC2, Q5)
        assert any("Berman" in s for s in cert.cited_assumptions)

    def test_forged_certificate_rejected(self):
        good = certify_noninjectivity(C2xC2, Q5)
        # claiming NOT_INJECTIVE with trivial H_2 must fail the soundness check
        with pytest.raises(ValueError):
            NonInjectivityCertificate(
                group=good.group, q=good.q, p=good.p, e=good.e,
                semisimple=True, d=good.d, h2=trivial,
                k2_group_ring=good.k2_group_ring,
                surviving_terms=good.surviving_terms,
                verdict=NOT_INJECTIVE, reason=None, witness=good.witness,
                cited_assumptions=good.cited_assumptions,
            )

    @pytest.mark.parametrize("group, q, verdict, reason", [
        ("C2xC2", 5, NOT_INJECTIVE, None),
        ("C2xC2", 2, INCONCLUSIVE, "CharacteristicDividesOrder"),
        ("C3", 2, INCONCLUSIVE, "H2Trivial"),
    ])
    def test_json_round_trip(self, group, q, verdict, reason):
        g = C2xC2 if group == "C2xC2" else cyclic(3)
        text = certify_noninjectivity(g, validate_prime_power(q), group_name=group).to_json()
        cert = NonInjectivityCertificate.from_json(text)
        assert (cert.verdict, cert.reason) == (verdict, reason)
        assert cert.to_json() == text

    def test_forged_json_rejected(self):
        data = json.loads(certify_noninjectivity(C2xC2, Q5, group_name="C2xC2").to_json())
        data["h2"] = trivial.to_json()
        with pytest.raises(ValueError, match="nontrivial H_2"):
            NonInjectivityCertificate.from_json(json.dumps(data))

    def test_json_schema_field_order(self):
        cert = certify_noninjectivity(C2xC2, Q5, group_name="C2xC2")
        keys = list(cert.to_json_dict().keys())
        assert keys == [
            "group", "q", "p", "e", "semisimple", "d", "h2", "k2_group_ring",
            "surviving_terms", "verdict", "reason", "witness",
            "cited_assumptions", "tool_version",
        ]
