"""Semisimple structure of F_q[G]: Maschke check, component count, K-groups.

Frobenius permutes the conjugacy classes by C -> C^q.  Each orbit is one
q-class and one simple component of F_q[G], and by Brauer's permutation
lemma the orbit length is the degree of that component's centre over F_q.
This holds for every G, so odd K-groups of the group algebra follow from
Morita invariance and the finite-field K-theory formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .abelian import FgAbelianGroup, direct_sum_all
from .errors import NotAbelian, NotSemisimple
from .groups import FiniteGroup, conjugacy_classes
from .kfield import PrimePower, k_finite_field


@dataclass(frozen=True)
class WedderburnSummary:
    """Shape of the Artin-Wedderburn decomposition of F_q[G]."""

    semisimple: bool
    d: int | None  # None when F_q[G] is not semisimple
    field_degrees: tuple[int, ...] | None
    method: ClassVar[str] = "q-classes"

    def to_json(self) -> dict:
        out = {"semisimple": self.semisimple, "d": self.d}
        if self.semisimple:
            out["method"] = self.method
            out["field_degrees"] = list(self.field_degrees)
        return out


def is_semisimple(G: FiniteGroup, q: PrimePower) -> bool:
    """Maschke: F_q[G] is semisimple iff p does not divide |G|."""
    return G.order % q.p != 0


def _require_semisimple(G, q):
    if not is_semisimple(G, q):
        raise NotSemisimple(
            f"characteristic {q.p} divides the group order {G.order}"
        )


def _frobenius_orbits(G: FiniteGroup, q: PrimePower) -> list[list[tuple[int, ...]]]:
    """The conjugacy classes grouped by walking C -> C^q until a class repeats.

    When p does not divide |G| the map is a permutation and the groups are its
    orbits.  Otherwise each walk stops at the first class already seen, so a
    class joins the group of the first class, in order, that reaches it.
    """
    classes = conjugacy_classes(G)
    class_of = {x: k for k, c in enumerate(classes) for x in c}
    image = [class_of[G.power(c[0], q.q)] for c in classes]
    seen = [False] * len(classes)
    orbits = []
    for k in range(len(classes)):
        orbit = []
        while not seen[k]:
            seen[k] = True
            orbit.append(classes[k])
            k = image[k]
        if orbit:
            orbits.append(orbit)
    return orbits


def component_count(G: FiniteGroup, q: PrimePower) -> int:
    """Number of simple components of F_q[G] (Berman's q-class count)."""
    _require_semisimple(G, q)
    return len(_frobenius_orbits(G, q))


def wedderburn_summary(G: FiniteGroup, q: PrimePower) -> WedderburnSummary:
    """Component count and sorted component field degrees over F_q, for any G."""
    if not is_semisimple(G, q):
        return WedderburnSummary(semisimple=False, d=None, field_degrees=None)
    degrees = tuple(sorted(len(o) for o in _frobenius_orbits(G, q)))
    return WedderburnSummary(semisimple=True, d=len(degrees), field_degrees=degrees)


def abelian_wedderburn(G: FiniteGroup, q: PrimePower) -> WedderburnSummary:
    """wedderburn_summary for an abelian G with F_q[G] semisimple."""
    if not G.is_abelian():
        raise NotAbelian("abelian_wedderburn needs an abelian group; use wedderburn_summary")
    _require_semisimple(G, q)
    return wedderburn_summary(G, q)


def k_group_ring(G: FiniteGroup, q: PrimePower, n: int) -> FgAbelianGroup:
    """K_n(F_q[G]) for semisimple F_q[G].

    Morita invariance reduces each matrix component to its field, so even
    positive and all negative degrees vanish, K_0 is Z^d, and odd K_n is
    the sum of K_n(F_(q^f)) over the component field degrees f.
    """
    _require_semisimple(G, q)
    if n < 0:
        return FgAbelianGroup.trivial()
    if n == 0:
        return FgAbelianGroup.free(component_count(G, q))
    if n % 2 == 0:
        return FgAbelianGroup.trivial()
    return direct_sum_all(
        k_finite_field(PrimePower(q.q**f, q.p, q.e * f), n)
        for f in wedderburn_summary(G, q).field_degrees
    )
