"""Expected outputs for every op, from sources independent of the bar engine.

- H_n of products of cyclic groups: groupk's cyclic_homology_oracle (the
  2-periodic resolution) folded with kunneth_oracle.
- H_n of S3 and Q8: their period-4 closed forms.
- H_0..H_2 of the other nonabelian factors: abelianization and the Schur
  multiplier (D_n: Z/2 iff n even; S4 and A4: Z/2; S3 and Q8: 0), combined
  with cyclic factors by the Kunneth formula.
- certify: Maschke's criterion, h2 from above, K_2(F_q[G]) = 0, and the
  number of q-classes counted on the benchmark's own permutation model.
- E^2 entries: Quillen's K-groups and universal coefficients, put in
  canonical form by a gcd/lcm sweep, so no large order is ever factored.
"""

from __future__ import annotations

import json
import math

from catalog import Factor, Group

# Orders of the cyclic summands of H_1 and H_2 for nonabelian factors, and
# the period-4 pattern (H_1, H_2, H_3, H_4) where one is known.
_PERIOD4 = {"S3": [(2,), (), (6,), ()], "Q8": [(2, 2), (), (8,), ()]}
_LOW = {"S4": [(2,), (2,)], "A4": [(3,), (2,)]}


def chain(orders) -> list[int]:
    """Invariant factors d1 | d2 | ... of a sum of cyclic groups, by gcd/lcm."""
    fs = [m for m in orders if m != 1]
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            g = math.gcd(fs[i], fs[j])
            fs[i], fs[j] = g, fs[i] // g * fs[j]
    return [f for f in fs if f != 1]


def _abelian(free: int, orders) -> dict:
    return {"free_rank": free, "invariant_factors": chain(orders)}


def _factor_sequence(f: Factor, top: int):
    """H_0..H_top of one factor as groupk FgAbelianGroup values."""
    from groupk.abelian import FgAbelianGroup
    from groupk.homology import cyclic_homology_oracle

    if f.kind == "C":
        return [cyclic_homology_oracle(f.n, k) for k in range(top + 1)]
    kind = "S3" if f.kind == "D" and f.n == 3 else f.kind  # D3 is S3
    if kind in _PERIOD4:
        low = [_PERIOD4[kind][(k - 1) % 4] for k in range(1, top + 1)]
    elif f.kind == "D":
        if top > 2:
            raise ValueError(f"no closed form for H_{top} of D{f.n}")
        low = [(2, 2), (2,)] if f.n % 2 == 0 else [(2,), ()]
    else:
        if top > 2:
            raise ValueError(f"no closed form for H_{top} of {f.kind}")
        low = _LOW[kind]
    seq = [FgAbelianGroup.free(1)] + [FgAbelianGroup.from_orders(0, o) for o in low]
    return seq[: top + 1]


def homology_sequence(g: Group, top: int) -> list[dict]:
    """H_0..H_top of g as the JSON the CLI prints."""
    from groupk.homology import kunneth_oracle

    seq = _factor_sequence(g.factors[0], top)
    for f in g.factors[1:]:
        other = _factor_sequence(f, top)
        seq = [kunneth_oracle(seq, other, k) for k in range(top + 1)]
    return [h.to_json() for h in seq]


def _prime_power(q: int) -> tuple[int, int]:
    p = 2
    while q % p:
        p += 1
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return p, e


def _trivial(h: dict) -> bool:
    return h["free_rank"] == 0 and not h["invariant_factors"]


def expected(op) -> dict:
    """What a correct run of `op` returns: exit code and the JSON payload."""
    if op.command == "homology":
        hs = homology_sequence(op.group, op.degree)
        return {"rc": 0, "json": {"group": op.argv[2],
                                  "degrees": [{"n": n, "group": h} for n, h in enumerate(hs)]}}
    if op.command == "certify":
        return _certify(op)
    return _e2page(op)


def _certify(op) -> dict:
    g, q = op.group, op.q
    p, e = _prime_power(q)
    h2 = homology_sequence(g, 2)[2]
    semisimple = g.order % p != 0  # Maschke
    out = {"group": op.argv[2], "q": q, "p": p, "e": e, "semisimple": semisimple, "h2": h2}
    if not semisimple:
        out.update(d=None, k2_group_ring=None, verdict="INCONCLUSIVE",
                   reason="CharacteristicDividesOrder")
    else:
        out.update(d=g.q_class_count(q), k2_group_ring=_abelian(0, ()))
        if _trivial(h2):
            out.update(verdict="INCONCLUSIVE", reason="H2Trivial")
        else:
            out.update(verdict="NOT_INJECTIVE", reason=None)
    return {"rc": 0 if out["verdict"] == "NOT_INJECTIVE" else 2, "json": out}


def _e2page(op) -> dict:
    q, top = op.q, op.degree
    hs = homology_sequence(op.group, top)
    entries = []
    for s in range(top + 1):
        for p in range(top - s + 1):
            if s == 0:
                val = hs[p]
            elif s % 2 == 0:
                val = _abelian(0, ())
            else:
                m = q ** ((s + 1) // 2) - 1  # K_{2i-1}(F_q) = Z/(q^i - 1)
                h = hs[p]
                orders = [m] * h["free_rank"] + [math.gcd(d, m) for d in h["invariant_factors"]]
                if p >= 1:  # Tor(H_{p-1}, Z/m)
                    orders += [math.gcd(d, m) for d in hs[p - 1]["invariant_factors"]]
                val = _abelian(0, orders)
            entries.append({"p": p, "q": s, "group": val})
    return {"rc": 0, "json": {"group": op.argv[2], "q": q, "max_total_degree": top,
                              "entries": entries}}


def check(op, want: dict, rc: int, stdout: str) -> str | None:
    """None when the output matches; otherwise a one-line description."""
    if rc != want["rc"]:
        return f"exit code {rc}, expected {want['rc']}"
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    exp = want["json"]
    if op.command == "certify":
        for key, val in exp.items():
            if got.get(key) != val:
                return f"{key} = {got.get(key)!r}, expected {val!r}"
        if (got.get("witness") is None) != (exp["verdict"] != "NOT_INJECTIVE"):
            return "witness present iff NOT_INJECTIVE violated"
        return None
    rows = "degrees" if op.command == "homology" else "entries"
    for key in exp:
        if key != rows and got.get(key) != exp[key]:
            return f"{key} = {got.get(key)!r}, expected {exp[key]!r}"
    got_rows = [{k: v for k, v in r.items() if k != "display"} for r in got.get(rows, [])]
    if got_rows != exp[rows]:
        bad = [(a, b) for a, b in zip(got_rows, exp[rows]) if a != b]
        if bad:
            return f"{rows} differ: got {bad[0][0]}, expected {bad[0][1]}"
        return f"{len(got_rows)} {rows}, expected {len(exp[rows])}"
    return None
