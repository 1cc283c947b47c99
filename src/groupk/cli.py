"""Command-line front end: group/field spec parsing, ASCII E^2 charts, JSON."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys

from . import __version__
from .abelian import FgAbelianGroup
from .assembly import NOT_INJECTIVE, E2Page, certify_noninjectivity, e2_page
from .errors import GroupKError, ParseError
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    cyclic,
    dihedral,
    direct_product,
    group_from_file,
    permutation_closure,
    symmetric,
)
from .homology import DEFAULT_GENERATOR_LIMIT, integral_homology_sequence
from .kfield import k_finite_field, validate_prime_power
from .grouprings import wedderburn_summary

_ATOM_RE = re.compile(r"^([CDS])([0-9]+)$")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_atom(atom: str, pos: int) -> tuple[str, int]:
    m = _ATOM_RE.match(atom)
    if not m:
        raise ParseError(
            f"cannot parse group atom {atom!r}",
            position=pos,
            expected=["C<n>", "D<n>", "S<n>", "perm:<cycles>", "table:<path>"],
        )
    kind, n = m.group(1), int(m.group(2))
    if n < 1:
        raise ParseError(f"{kind}{n}: parameter must be >= 1", position=pos)
    if kind == "S" and n > 5:
        raise ParseError("S<n> is supported for n <= 5", position=pos)
    return kind, n


def _parse_permutations(body: str, offset: int) -> list[tuple[int, ...]]:
    gens_text = body.split(";")
    perms = []
    points: set[int] = set()
    pos = offset
    for gtext in gens_text:
        cycles = []
        moved: set[int] = set()
        consumed = _CYCLE_RE.sub("", gtext).strip()
        if consumed:
            raise ParseError(
                f"unexpected text {consumed!r} in permutation", position=pos
            )
        for m in _CYCLE_RE.finditer(gtext):
            toks = [t for t in re.split(r"[,\s]+", m.group(1).strip()) if t]
            try:
                cyc = [int(t) for t in toks]
            except ValueError:
                raise ParseError(
                    f"non-integer point in cycle {m.group(0)!r}",
                    position=pos + m.start(),
                ) from None
            if len(set(cyc)) != len(cyc):
                raise ParseError(
                    f"repeated point in cycle {m.group(0)!r}", position=pos + m.start()
                )
            if moved.intersection(cyc):
                raise ParseError(
                    f"cycle {m.group(0)!r} shares a point with an earlier cycle",
                    position=pos + m.start(),
                )
            moved.update(cyc)
            cycles.append(cyc)
            points.update(cyc)
        perms.append(cycles)
        pos += len(gtext) + 1
    if not points:
        raise ParseError("no cycles found after perm:", position=offset)
    domain = sorted(points)
    index = {pt: k for k, pt in enumerate(domain)}
    gens = []
    for cycles in perms:
        perm = list(range(len(domain)))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[index[a]] = index[b]
        gens.append(tuple(perm))
    return gens


def parse_group(text: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build "C2xC2", "D4", "S3", "perm:(1 2 3);(1 2)" or "table:<path>".

    Every atom of a product is parsed before any factor is built, so a spec
    error outranks a size guard.
    """
    if not text:
        raise ParseError("empty group spec", position=0)
    if text.startswith("perm:"):
        gens = _parse_permutations(text[len("perm:"):], len("perm:"))
        return permutation_closure(gens, order_cap=order_cap)
    if text.startswith("table:"):
        path = text[len("table:"):]
        if not path:
            raise ParseError("missing path after table:", position=len("table:"))
        return group_from_file(path, order_cap=order_cap)
    atoms = []
    pos = 0
    for atom in text.split("x"):
        atoms.append(_parse_atom(atom, pos))
        pos += len(atom) + 1
    # looked up per call, so a rebinding of these module names takes effect
    builders = {"C": cyclic, "D": dihedral, "S": symmetric}
    G = None
    for kind, n in atoms:
        factor = builders[kind](n, order_cap=order_cap)
        G = factor if G is None else direct_product(G, factor, order_cap=order_cap)
    return G


def _chart_token(g: FgAbelianGroup) -> str:
    return str(g).replace(" ", "")


def render_e2_ascii(page: E2Page) -> str:
    """ASCII chart in the usual orientation: p rightward, q upward.

    Cells outside the computed triangle print "0" on even rows q >= 2 (the
    coefficient K-group vanishes there) and "*" on odd rows (not computed).
    """
    N = page.max_total_degree
    computed = {(p, qdeg): _chart_token(v) for p, qdeg, v in page.entries}
    cells = {}
    for qdeg in range(N + 1):
        for p in range(N + 1):
            if p + qdeg <= N:
                cells[(p, qdeg)] = computed[(p, qdeg)]
            elif qdeg % 2 == 0 and qdeg > 0:
                cells[(p, qdeg)] = "0"
            else:
                cells[(p, qdeg)] = "*"
    width = max(max(len(v) for v in cells.values()), 2)
    lines = ["  q"]
    for qdeg in range(N, -1, -1):
        row = "  ".join(cells[(p, qdeg)].ljust(width) for p in range(N + 1))
        lines.append(f"{qdeg:>3} | {row.rstrip()}")
    lines.append("    +" + "-" * ((width + 2) * (N + 1)))
    lines.append(
        "      " + "  ".join(str(p).ljust(width) for p in range(N + 1)).rstrip() + "   p"
    )
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groupk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"groupk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, group=False, field=False, degrees=False):
        p = sub.add_parser(name, help=help_text)
        if group:
            p.add_argument("--group", required=True, help="group spec, e.g. C2xC2, D4, S3")
        if field:
            p.add_argument("--q", required=True, type=int, help="field size (prime power)")
        if degrees:
            p.add_argument("--max-degree", type=nonnegative_int, default=4, help="top degree (default 4)")
        p.add_argument("--format", choices=("ascii", "json"), default="ascii")

    add("kfield", "K-groups of a finite field", field=True, degrees=True)
    add("homology", "integral homology of a finite group", group=True, degrees=True)
    add("wedderburn", "semisimple structure of F_q[G]", group=True, field=True)
    add("e2page", "Atiyah-Hirzebruch E^2 page of H_*(BG; K(F))", group=True, field=True, degrees=True)
    add("certify", "non-injectivity certificate for the assembly map", group=True, field=True)
    return parser


def _positive_env(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    if not text.strip().isdecimal() or int(text) < 1:
        raise GroupKError(f"{name} must be a positive integer, got {text!r}")
    return int(text)


def _limits():
    cap = _positive_env("GROUPK_ORDER_CAP", DEFAULT_ORDER_CAP)
    gen = _positive_env("GROUPK_GENERATOR_LIMIT", DEFAULT_GENERATOR_LIMIT)
    return cap, gen


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _lines(lines) -> str:
    """One line each, skipping the false entries that stand for absent ones."""
    return "".join(f"{line}\n" for line in lines if line)


def _by_degree(groups) -> list[dict]:
    return [{"n": n, "group": g.to_json(), "display": str(g)} for n, g in enumerate(groups)]


def run(argv, stdout=None, stderr=None) -> int:
    """Dispatch a command line; returns the process exit code.

    0: success (including verdict NOT_INJECTIVE, --help and --version);
    1: usage or computation error; 2: certify verdict INCONCLUSIVE.  All
    output goes to `stdout` and `stderr`.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):  # where --help and --version print
            args = _parser().parse_args(argv)
        order_cap, generator_limit = _limits()
        G = parse_group(args.group, order_cap) if "group" in args else None
        qp = validate_prime_power(args.q) if "q" in args else None
        as_json = args.format == "json"
        code = 0

        if args.command == "kfield":
            ks = [k_finite_field(qp, n) for n in range(args.max_degree + 1)]
            text = (_json({"q": qp.q, "p": qp.p, "e": qp.e, "degrees": _by_degree(ks)})
                    if as_json else _lines(f"K_{n}(F_{qp.q}) = {k}" for n, k in enumerate(ks)))
        elif args.command == "homology":
            hs = integral_homology_sequence(G, args.max_degree, generator_limit=generator_limit)
            text = (_json({"group": args.group, "degrees": _by_degree(hs)})
                    if as_json else _lines(f"H_{n}({args.group}) = {h}" for n, h in enumerate(hs)))
        elif args.command == "wedderburn":
            s = wedderburn_summary(G, qp)
            text = _json(s.to_json()) if as_json else _lines([
                f"semisimple: {str(s.semisimple).lower()}",
                s.semisimple and f"d: {s.d}",
                s.semisimple and f"field_degrees: {list(s.field_degrees)}",
                s.semisimple and f"method: {s.method}",
            ])
        elif args.command == "e2page":
            page = e2_page(G, qp, args.max_degree, generator_limit=generator_limit)
            text = _json({
                "group": args.group, "q": qp.q,
                "max_total_degree": page.max_total_degree,
                "entries": [
                    {"p": p, "q": qd, "group": v.to_json(), "display": str(v)}
                    for p, qd, v in page.entries
                ],
            }) if as_json else render_e2_ascii(page)
        else:
            cert = certify_noninjectivity(
                G, qp, group_name=args.group, generator_limit=generator_limit
            )
            text = cert.to_json() if as_json else _lines([
                f"group: {cert.group}",
                f"field: F_{cert.q} (characteristic {cert.p})",
                f"semisimple: {str(cert.semisimple).lower()}",
                cert.d is not None and f"components d: {cert.d}",
                f"H_2(G) = {cert.h2}",
                cert.k2_group_ring is not None and f"K_2(F_q[G]) = {cert.k2_group_ring}",
                f"verdict: {cert.verdict}",
                cert.reason and f"reason: {cert.reason}",
            ])
            code = 0 if cert.verdict == NOT_INJECTIVE else 2
        out.write(text)
        return code
    except GroupKError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except SystemExit as exc:  # raised by parse_args after --help or --version
        return exc.code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
