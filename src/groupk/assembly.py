"""The E^2 page of the Atiyah-Hirzebruch spectral sequence for H_*(BG; K(F)),
the low-degree survival record, and the non-injectivity certificate.

No differentials are ever computed: the survival of the low-degree terms and
of E^2_{2,0} is quoted from the literature (Lueck-Reich, "The Baum-Connes and
the Farrell-Jones conjectures", Lemma 2) and recorded as a cited assumption,
cleanly separated from the machine-verified quantities.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from . import __version__
from .abelian import FgAbelianGroup
from .errors import InsufficientDegrees
from .groups import FiniteGroup
from .grouprings import component_count, is_semisimple, k_group_ring
from .homology import DEFAULT_GENERATOR_LIMIT, bar_homology_sequence, universal_coefficients
from .kfield import PrimePower, k_finite_field
from .resolution import resolution_homology_sequence

NOT_INJECTIVE = "NOT_INJECTIVE"
INCONCLUSIVE = "INCONCLUSIVE"

LOW_DEGREE_SURVIVAL = (
    "cited: E2_{0,0}, E2_{1,0}, E2_{0,1} survive; the assembly map is "
    "injective in degrees 0 and 1 (Lueck-Reich, Lemma 2)"
)
EDGE_SURVIVAL = (
    "cited: E2_{2,0} = H_2(G) survives to E-infinity because the surviving "
    "low-degree terms leave no differential into or out of it"
)
CITED_QUILLEN = (
    "Quillen: K_n of the field with q elements is Z for n = 0, zero for n < 0 "
    "and positive even n, and cyclic of order q^i - 1 for n = 2i - 1"
)
CITED_MASCHKE = "Maschke: F[G] is semisimple when char(F) does not divide |G|"
CITED_WEDDERBURN = (
    "Artin-Wedderburn: a finite semisimple ring is a direct product of matrix "
    "rings over finite fields"
)
CITED_MORITA = "Morita invariance: K_*(M_n(E)) = K_*(E)"
CITED_BERMAN = (
    "Berman: the number of simple components of a semisimple F_q[G] equals "
    "the number of q-classes of G"
)


@dataclass(frozen=True)
class E2Page:
    """E^2_{p,q} = H_p(BG; K_q(F)) for p >= 0, q >= 0, p + q <= N.

    Rows with negative q vanish (negative K-groups of a field are zero) and
    are stored implicitly.
    """

    group: FiniteGroup
    q: PrimePower
    max_total_degree: int
    entries: tuple  # ((p, q, FgAbelianGroup), ...) in (q, p) order

    def entry(self, p: int, qdeg: int) -> FgAbelianGroup:
        if qdeg < 0:
            return FgAbelianGroup.trivial()
        for ep, eq, val in self.entries:
            if (ep, eq) == (p, qdeg):
                return val
        raise KeyError((p, qdeg))


def e2_page(
    G: FiniteGroup,
    q: PrimePower,
    max_total_degree: int,
    *,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> E2Page:
    """Populate E^2_{p,q} = H_p(G; K_q(F_q)) for the triangle p + q <= N,
    from one pass up the bar complex for H_0(G; Z) .. H_N(G; Z)."""
    hs = bar_homology_sequence(G, max_total_degree, generator_limit=generator_limit)
    entries = []
    for qdeg in range(max_total_degree + 1):
        coeff = k_finite_field(q, qdeg)
        for p in range(max_total_degree - qdeg + 1):
            entries.append((p, qdeg, universal_coefficients(hs, p, coeff)))
    return E2Page(G, q, max_total_degree, tuple(entries))


@dataclass(frozen=True)
class SurvivingTerm:
    p: int
    q: int
    justification: str


SURVIVING_TERMS = (
    SurvivingTerm(0, 0, LOW_DEGREE_SURVIVAL),
    SurvivingTerm(1, 0, LOW_DEGREE_SURVIVAL),
    SurvivingTerm(0, 1, LOW_DEGREE_SURVIVAL),
    SurvivingTerm(2, 0, EDGE_SURVIVAL),
)


def surviving_low_degree(page: E2Page) -> tuple[SurvivingTerm, ...]:
    """The four E^2 positions whose survival the argument quotes.

    (0,0), (1,0), (0,1) survive because the assembly map is injective in
    degrees 0 and 1; (2,0) = H_2(G) survives by the same lemma's edge
    argument.  All four are cited facts, not computed ones.
    """
    if page.max_total_degree < 2:
        raise InsufficientDegrees(
            f"page covers total degree {page.max_total_degree}, need >= 2"
        )
    return SURVIVING_TERMS


@dataclass(frozen=True)
class NonInjectivityCertificate:
    """Structured verdict on injectivity of the assembly map for (G, q).

    NOT_INJECTIVE requires all three machine-verified facts: F_q[G]
    semisimple, H_2(G; Z) nonzero, K_2(F_q[G]) = 0.  INCONCLUSIVE means the
    criterion does not apply, never that the map is injective.
    """

    group: str
    q: int
    p: int
    e: int
    semisimple: bool
    d: int | None
    h2: FgAbelianGroup
    k2_group_ring: FgAbelianGroup | None
    surviving_terms: tuple[SurvivingTerm, ...]
    verdict: str
    reason: str | None
    witness: dict | None
    cited_assumptions: tuple[str, ...]
    tool_version: str = __version__

    def __post_init__(self):
        if self.verdict == NOT_INJECTIVE:
            if not self.semisimple:
                raise ValueError("NOT_INJECTIVE requires a semisimple group algebra")
            if self.h2.is_trivial():
                raise ValueError("NOT_INJECTIVE requires nontrivial H_2(G)")
            if self.k2_group_ring is None or not self.k2_group_ring.is_trivial():
                raise ValueError("NOT_INJECTIVE requires K_2(F_q[G]) = 0")
        if LOW_DEGREE_SURVIVAL not in self.cited_assumptions:
            raise ValueError("the low-degree survival fact must be cited")
        if self.d is not None and CITED_BERMAN not in self.cited_assumptions:
            raise ValueError("Berman's count must be cited when d is reported")

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "NonInjectivityCertificate":
        """Inverse of to_json; construction re-runs the NOT_INJECTIVE checks."""
        data = json.loads(text)
        k2 = data["k2_group_ring"]
        return cls(**{
            **data,
            "h2": FgAbelianGroup.from_json(data["h2"]),
            "k2_group_ring": None if k2 is None else FgAbelianGroup.from_json(k2),
            "surviving_terms": tuple(SurvivingTerm(**t) for t in data["surviving_terms"]),
            "cited_assumptions": tuple(data["cited_assumptions"]),
        })


def certify_noninjectivity(
    G: FiniteGroup,
    q: PrimePower,
    *,
    group_name: str | None = None,
    generator_limit: int = DEFAULT_GENERATOR_LIMIT,
) -> NonInjectivityCertificate:
    """Run the full obstruction pipeline for the pair (G, q).

    Verdict NOT_INJECTIVE when p does not divide |G| and H_2(G; Z) is
    nontrivial: then E^2_{2,0} = H_2(G) survives (cited) while K_2(F_q[G])
    vanishes (computed), so the assembly map has nonzero kernel in degree 2.
    """
    name = group_name or f"order-{G.order} group"
    h2 = resolution_homology_sequence(G, 2, generator_limit=generator_limit)[2]
    semisimple = is_semisimple(G, q)
    cited = [LOW_DEGREE_SURVIVAL, EDGE_SURVIVAL]
    d = k2 = witness = None
    if not semisimple:
        verdict, reason = INCONCLUSIVE, "CharacteristicDividesOrder"
    else:
        d = component_count(G, q)
        k2 = k_group_ring(G, q, 2)
        cited += [CITED_MASCHKE, CITED_WEDDERBURN, CITED_BERMAN, CITED_MORITA, CITED_QUILLEN]
        if h2.is_trivial():
            verdict, reason = INCONCLUSIVE, "H2Trivial"
        else:
            verdict, reason = NOT_INJECTIVE, None
            witness = {
                "degree": 2,
                "source": f"E2_{{2,0}} = H_2(G) = {h2}",
                "target": "K_2(F_q[G]) = 0",
            }
    return NonInjectivityCertificate(
        group=name, q=q.q, p=q.p, e=q.e,
        semisimple=semisimple, d=d, h2=h2, k2_group_ring=k2,
        surviving_terms=SURVIVING_TERMS,
        verdict=verdict, reason=reason,
        witness=witness, cited_assumptions=tuple(cited),
    )
