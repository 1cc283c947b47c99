"""Seeded op lists for the three workloads.

An op is one `groupk` command line.  Each workload is a ladder of rungs; a
rung holds a number of ops and a pool of groups (or, for e2page-bigq, of
(q, N) pairs), and the seed deals the rung's ops from its pool like cards
from a shuffled deck, reshuffling when the deck runs out.  Dealing keeps the
mix of every pass the same while the seed chooses which groups, which spec
forms, which q and which order the ops run in.

The rungs are sized so that every seed asks for about the same work: the
cost of an op is set by |G| and the degree (the bar complex has (|G|-1)^n
generators) and, for e2page, by how q^i - 1 factors.  Rungs whose single op
would dominate a pass draw from groups of similar cost in groupk 0.1.0.
See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from catalog import C, Group, named

# Small prime powers for certify: some divide |G| (modular case), some do not.
SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37,
           41, 43, 47, 49, 53, 59, 61, 64, 67, 71, 73, 79, 81, 83, 89, 97)
MODULAR_SHARE = 0.25
QPOOL = Path(__file__).with_name("qpool.json")
TABLE_DIR = Path(".bench_out") / "tables"


@dataclass
class Op:
    """One command line plus what the oracle needs to check its output."""

    argv: list[str]
    command: str
    group: Group
    q: int | None = None
    degree: int | None = None
    band: str = ""


def _spec(group: Group, rng: random.Random, tables: dict[str, str], atom_only=False) -> str:
    forms = (["atom"] if group.has_atom_spec else []) + ([] if atom_only else ["perm", "table"])
    form = rng.choice(forms)
    if form == "atom":
        return group.label
    if form == "perm":
        return group.perm_spec()
    path = (TABLE_DIR / f"{group.label}.txt").as_posix()
    tables[path] = group.table_text()
    return "table:" + path


class _Dealer:
    """Deals items of each pool without replacement, per seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict[int, list] = {}

    def deal(self, pool: list):
        deck = self.decks.get(id(pool))
        if not deck:
            deck = list(pool)
            self.rng.shuffle(deck)
            self.decks[id(pool)] = deck
        return deck.pop()


def _prime_of(q: int) -> int:
    p = 2
    while q % p:
        p += 1
    return p


# --- certify-ladder ---------------------------------------------------------

O8 = [C(8), C(2, 4), C(2, 2, 2), named("D", 4), named("Q8")]
O12 = [C(12), C(2, 6), named("D", 6), named("A4"), named("S3", "C", 2)]
O16 = [C(4, 4), C(2, 8), C(2, 2, 4), named("D", 8), named("Q8", "C", 2)]
O24 = [C(2, 2, 6), named("D", 12), named("D", 6, "C", 2), named("S3", "C", 4)]
# The top band runs every group of order 27 (2.3-3.7 s each in groupk
# 0.1.0): the largest ops set wall_s and the peak RSS, so they do not change
# with the seed.
TOP_27 = [C(27), C(3, 9), C(3, 3, 3)]
# From order 17 up an op takes 0.3-4 s and its cost moves by up to 40% with
# the element order a perm: or table: spec gives, so these rungs use the
# C/D/S spec; the lighter rungs draw every form.
ATOM_ONLY_BANDS = ("17-24", "25-36")

# Rung sizes put the median in the order-12 rung and p75 (14 of 59 ops
# beyond it) in the order-16 rung, so neither sits on the edge of a rung.
CERTIFY_LADDER = [
    ("<=8", [(1, [C(2)]), (1, [C(3)]), (3, [C(4), C(2, 2)]), (1, [C(5)]),
             (4, [C(6), named("S3"), named("D", 3), C(3, 2)]), (2, [C(7)]), (8, O8)]),
    ("9-16", [(2, [C(9), C(3, 3)]), (2, [C(10), named("D", 5)]), (14, O12),
              (1, [C(14), named("D", 7)]), (1, [C(15)]), (10, O16)]),
    ("17-24", [(1, [C(3, 6), named("D", 9), named("S3", "C", 3)]),
               (1, [C(2, 10), named("D", 10)]), (1, [C(21)]), (1, [C(22)]),
               (1, [named("S4")]), (1, O24)]),
    ("25-36", [(3, TOP_27)]),
]


def _certify_ops(rng: random.Random, tables: dict[str, str]) -> list[Op]:
    dealer = _Dealer(rng)
    ops = []
    for band, rungs in CERTIFY_LADDER:
        for count, pool in rungs:
            for _ in range(count):
                g = dealer.deal(pool)
                modular = rng.random() < MODULAR_SHARE
                qs = [q for q in SMALL_Q if (g.order % _prime_of(q) == 0) == modular]
                q = rng.choice(qs)
                spec = _spec(g, rng, tables, band in ATOM_ONLY_BANDS)
                argv = ["certify", "--group", spec, "--q", str(q), "--format", "json"]
                ops.append(Op(argv, "certify", g, q=q, band=band))
    return ops


# --- homology-deep ----------------------------------------------------------

AB8 = [C(8), C(2, 4), C(2, 2, 2)]
O6 = [C(6), C(2, 3), named("S3"), named("D", 3)]
O4 = [C(4), C(2, 2)]

# (count, pool, n).  Order 9 runs at n = 3: H_4 of an order-9 group takes
# about 25 s in groupk 0.1.0, longer than a whole pass.  Three deep ops carry
# most of the time; the 19 ops of 0.2-0.4 s hold p75 (14 of 58 beyond) and
# the 12 ops of about 0.04 s hold the median.
HOMOLOGY_LADDER = [
    (1, AB8, 4), (1, [named("Q8")], 4), (1, [C(7)], 4),
    (4, O6, 4), (3, [C(9), C(3, 3)], 3), (12, O4, 6),
    (4, [C(5)], 4), (8, O4, 5),
    (12, [C(3)], 6), (12, [C(3)], 5),
]


def _homology_ops(rng: random.Random, tables: dict[str, str]) -> list[Op]:
    dealer = _Dealer(rng)
    ops = []
    for count, pool, n in HOMOLOGY_LADDER:
        for _ in range(count):
            g = dealer.deal(pool)
            spec = _spec(g, rng, tables)
            argv = ["homology", "--group", spec, "--max-degree", str(n), "--format", "json"]
            ops.append(Op(argv, "homology", g, degree=n, band=f"|G|={g.order},n={n}"))
    return ops


# --- e2page-bigq ------------------------------------------------------------

# (lo, hi, ops): ops per pass whose trial-division work lies in
# [2^lo, 2^hi).  The bands above 2^18 carry the time; the top band is half a
# bit wide and holds p95 (12 of 255 ops beyond it).
E2_BANDS = [(0, 13, 40), (13, 16, 30), (16, 18, 30), (18, 19, 45),
            (19, 20, 30), (20, 21, 30), (21, 22, 20), (22, 22.5, 10), (22.5, 23, 20)]
# Order-4 groups only at N = 5: at N = 7 their H_7 costs 2 s of Smith.
E2_GROUPS_ANY_N = [C(2), C(3)]
E2_GROUPS_N5 = [C(2), C(3), C(2), C(3), C(4), C(2, 2)]


def _e2page_ops(rng: random.Random, tables: dict[str, str]) -> list[Op]:
    entries = json.loads(QPOOL.read_text())["entries"]
    bands = [[] for _ in E2_BANDS]
    for q, n, work in entries:
        for k, (lo, hi, _) in enumerate(E2_BANDS):
            if 2**lo <= work < 2**hi:
                bands[k].append((q, n, work))
    dealer = _Dealer(rng)
    ops = []
    for (lo, hi, count), pool in zip(E2_BANDS, bands):
        for _ in range(count):
            q, n, _ = dealer.deal(pool)
            if n == 5:
                g = dealer.deal(E2_GROUPS_N5)
                if g.order < 4 and rng.random() < 0.5:
                    n = 6  # same orders to canonicalise, one more row
            else:
                g = dealer.deal(E2_GROUPS_ANY_N)
            argv = ["e2page", "--group", g.label, "--q", str(q),
                    "--max-degree", str(n), "--format", "json"]
            ops.append(Op(argv, "e2page", g, q=q, degree=n, band=f"work 2^{lo}-2^{hi}"))
    return ops


GENERATORS = {
    "certify-ladder": _certify_ops,
    "homology-deep": _homology_ops,
    "e2page-bigq": _e2page_ops,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's op list for this seed, in run order; writes table files."""
    rng = random.Random(f"{workload}/{seed}")
    tables: dict[str, str] = {}
    ops = GENERATORS[workload](rng, tables)
    rng.shuffle(ops)
    TABLE_DIR.mkdir(parents=True, exist_ok=True)
    for path, text in sorted(tables.items()):
        # rewriting an unchanged file costs an ext4 flush (~70 ms) and no information
        if not Path(path).is_file() or Path(path).read_text() != text:
            Path(path).write_text(text)
    return ops
