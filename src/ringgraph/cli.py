"""Command-line interface: parse ring expressions, compute, emit reports.

Grammar (ASCII, whitespace insignificant except around the product sign):

    expr := atom (" x " atom)*
    atom := "Z" int
          | "Z" int "[x]/(" poly ")"
          | "GF(" int ["," "[" int ("," int)* "]"] ")"
          | "SZ(" atom "," int ")"          -- base restricted to Zn / GF
          | "(" expr ")"
    poly := term ("+" term)* with term := int "*x^" int | int "*x" | "x^" int | "x" | int

The letter x doubles as polynomial variable and product operator; the
product reading requires whitespace on both sides.

Exit codes: 0 success / verification passed, 1 verification found a
counterexample, 2 parse or semantic error, 3 resource limit hit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import combinations

from . import classify
from .autsearch import (
    DEFAULT_SEARCH_BUDGET,
    aut_group_order,
    automorphisms,
)
from .errors import (
    InvalidModulus,
    OrderLimitExceeded,
    ParseError,
    RingGraphError,
    SearchBudgetExceeded,
    SemanticError,
)
from .expr import GF, Prod, PolyQuot, RingExpr, SquareZero, Zn, expr_order, gf, prime_power
from .orbitgraph import aut_orbit_graph
from .rings import DEFAULT_MAX_ORDER, FiniteRing, generating_set, local_structure, make_ring

__all__ = ["parse_ring_expr", "emit_json", "emit_dot", "ring_summary", "main"]

ENV_MAX_ORDER = "RINGGRAPH_MAX_ORDER"
ENV_BUDGET = "RINGGRAPH_BUDGET"


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(r"[A-Za-z]+|\d+|[()\[\],/+*^]")


class _Token:
    __slots__ = ("kind", "text", "column", "spaced_before", "spaced_after")

    def __init__(self, kind, text, column, spaced_before, spaced_after):
        self.kind = kind
        self.text = text
        self.column = column
        self.spaced_before = spaced_before
        self.spaced_after = spaced_after


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
        raw = m.group()
        kind = "name" if raw[0].isalpha() else ("int" if raw[0].isdigit() else raw)
        before = pos == 0 or text[pos - 1].isspace()
        after = m.end() >= len(text) or text[m.end()].isspace()
        tokens.append(_Token(kind, raw, pos + 1, before, after))
        pos = m.end()
    tokens.append(_Token("end", "", len(text) + 1, True, True))
    return tokens


class _Parser:
    def __init__(self, text: str, max_order: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.max_order = max_order

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.column, (what,))
        return self.take()

    def expect_int(self, what: str = "integer") -> int:
        tok = self.expect("int", what)
        try:
            return int(tok.text)
        except ValueError:  # above sys.get_int_max_str_digits()
            raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                             tok.column) from None

    def refuse_huge_exponent(self, base: int, exponent: int, column: int) -> None:
        """Refuse a ring of order base**exponent whose exponent alone puts it
        above the cap, before a power or a list of that size is built;
        `make_ring` checks the smaller orders."""
        cap = self.max_order
        # base**exponent >= 2**exponent > cap once exponent reaches cap's bit length
        if base >= 2 and exponent >= cap.bit_length():
            raise OrderLimitExceeded(f"ring order at column {column} exceeds cap {cap}")

    # -- grammar ------------------------------------------------------------

    def parse(self) -> RingExpr:
        expr = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected trailing {tok.text!r}", tok.column, ("end of input", "' x '")
            )
        return expr

    def parse_expr(self) -> RingExpr:
        atoms = [self.parse_atom()]
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.text == "x":
                if not (tok.spaced_before and tok.spaced_after):
                    raise ParseError(
                        "product operator 'x' must be surrounded by spaces", tok.column
                    )
                self.take()
                atoms.append(self.parse_atom())
            else:
                break
        if len(atoms) == 1:
            return atoms[0]
        flat = []
        for a in atoms:
            flat.extend(a.factors if isinstance(a, Prod) else (a,))
        return Prod(tuple(flat))

    def parse_atom(self) -> RingExpr:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            inner = self.parse_expr()
            self.expect(")", "')'")
            return inner
        if tok.kind != "name":
            raise ParseError(
                f"unexpected {tok.text or 'end of input'!r}",
                tok.column,
                ("'Z<n>'", "'GF('", "'SZ('", "'('"),
            )
        if tok.text == "Z":
            self.take()
            n = self.expect_int("modulus after 'Z'")
            if self.peek().kind == "[":
                return self._parse_quotient(n, tok.column)
            return self._semantic(lambda: Zn(n), tok.column)
        if tok.text == "GF":
            self.take()
            return self._parse_gf(tok.column)
        if tok.text == "SZ":
            self.take()
            return self._parse_squarezero(tok.column)
        raise ParseError(
            f"unknown name {tok.text!r}", tok.column, ("'Z<n>'", "'GF('", "'SZ('", "'('")
        )

    def _semantic(self, thunk, column):
        try:
            return thunk()
        except (ValueError, RingGraphError) as exc:
            if isinstance(exc, (ParseError, SemanticError)):
                raise
            raise SemanticError(str(exc), column) from exc

    def _parse_quotient(self, n: int, column: int) -> RingExpr:
        if n < 2:
            raise SemanticError(f"quotient base must have n >= 2, got {n}", column)
        self.expect("[", "'['")
        var = self.expect("name", "'x'")
        if var.text != "x":
            raise ParseError(f"polynomial variable must be 'x', got {var.text!r}", var.column)
        self.expect("]", "']'")
        self.expect("/", "'/'")
        self.expect("(", "'('")
        coeffs = self._parse_poly()
        self.expect(")", "')'")
        deg = max(coeffs)
        if coeffs[deg] % n != 1:
            raise SemanticError("quotient modulus must be monic", column)
        # the dense coefficient list has deg + 1 entries, so the cap comes first
        self.refuse_huge_exponent(n, deg, column)
        return self._semantic(
            lambda: PolyQuot(n, tuple(coeffs.get(k, 0) for k in range(deg + 1))), column
        )

    def _parse_poly(self) -> dict[int, int]:
        """Sparse polynomial: {degree: summed coefficient}."""
        coeffs: dict[int, int] = {}

        def term():
            tok = self.peek()
            if tok.kind == "int":
                c = self.expect_int()
                if self.peek().kind == "*":
                    self.take()
                    var = self.expect("name", "'x'")
                    if var.text != "x":
                        raise ParseError(f"expected 'x', got {var.text!r}", var.column)
                    k = self._power()
                    coeffs[k] = coeffs.get(k, 0) + c
                else:
                    coeffs[0] = coeffs.get(0, 0) + c
            elif tok.kind == "name" and tok.text == "x":
                self.take()
                k = self._power()
                coeffs[k] = coeffs.get(k, 0) + 1
            else:
                raise ParseError(
                    f"unexpected {tok.text or 'end of input'!r} in polynomial",
                    tok.column,
                    ("coefficient", "'x'"),
                )

        term()
        while self.peek().kind == "+":
            self.take()
            term()
        return coeffs

    def _power(self) -> int:
        if self.peek().kind == "^":
            self.take()
            return self.expect_int("exponent")
        return 1

    def _parse_gf(self, column: int) -> RingExpr:
        self.expect("(", "'('")
        q = self.expect_int("field order")
        modulus = None
        if self.peek().kind == ",":
            self.take()
            self.expect("[", "'['")
            modulus = [self.expect_int("coefficient")]
            while self.peek().kind == ",":
                self.take()
                modulus.append(self.expect_int("coefficient"))
            self.expect("]", "']'")
        self.expect(")", "')'")
        # searching for a modulus grows with q, so a field above the cap is
        # refused before q is tested or a modulus searched for
        if q > self.max_order:
            raise OrderLimitExceeded(f"field order {q} exceeds cap {self.max_order}")
        if prime_power(q) is None:
            raise SemanticError(f"{q} is not a prime power", column)
        return self._semantic(lambda: gf(q, modulus, self.max_order), column)

    def _parse_squarezero(self, column: int) -> RingExpr:
        self.expect("(", "'('")
        base = self.parse_expr()
        if not isinstance(base, (Zn, GF)):
            raise SemanticError("SZ base must be a Zn or GF expression", column)
        self.expect(",", "','")
        m = self.expect_int("generator count")
        self.expect(")", "')'")
        self.refuse_huge_exponent(expr_order(base), m + 1, column)
        return self._semantic(lambda: SquareZero(base, m), column)


def parse_ring_expr(text: str, max_order: int | None = None) -> RingExpr:
    """Parse the ring-expression grammar; ParseError / SemanticError on failure.

    `max_order` is the order cap, `DEFAULT_MAX_ORDER` when None, as in
    `make_ring`: a GF(q) with q above it raises OrderLimitExceeded before q
    is tested, and so does a quotient or square-zero ring of order
    n**k with 2**k above it, before a power or a list of size k is built.
    """
    return _Parser(text, DEFAULT_MAX_ORDER if max_order is None else max_order).parse()


# ---------------------------------------------------------------------------
# emitters


def ring_summary(expr: RingExpr, ring: FiniteRing, budget=None) -> dict:
    """The stable JSON record describing one ring and its orbit graph."""
    graph = aut_orbit_graph(ring, budget=budget)
    ls = local_structure(ring)
    units_minus_one = ring.units - {ring.one}
    m_connected = None
    if ls.is_local:
        m_connected = graph.subset_connected(ls.maximal_ideal - {ring.zero})
    return {
        "expr": str(expr),
        "order": ring.order,
        "characteristic": ring.characteristic,
        "is_local": ls.is_local,
        "aut_order": aut_group_order(ring, budget=budget),
        "orbit_sizes": sorted(graph.sizes.tolist()),
        "type": graph.graph_type(),
        "totally_disconnected": graph.is_totally_disconnected(),
        "planar": graph.is_planar(),
        "units_minus_one_connected": graph.subset_connected(units_minus_one),
        "m_minus_zero_connected": m_connected,
        "graph_aut_order": graph.graph_aut_order(),
    }


def emit_json(results) -> bytes:
    """Serialize results with a stable field order; byte-identical across runs.

    Integers are written in full, also above CPython's int-to-str digit
    limit (4300 by default), which `graph_aut_order` passes from about
    order 1560 on (n! for Z_n): the limit is lifted for this conversion
    only and restored afterwards.  Interpreters without the limit have no
    `sys.set_int_max_str_digits`.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return (json.dumps(results, indent=2, sort_keys=False) + "\n").encode()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(graph, collapse: bool = False) -> bytes:
    """DOT rendering: one node per element with orbit edges, or one node per orbit."""
    lines = ["graph orbits {"]
    if collapse:
        for i, size in enumerate(graph.sizes.tolist()):
            lines.append(f"  b{i} [label={_dot_quote(f'size={size}')}];")
    else:
        names = graph.ring.element_names
        for x in range(graph.ring.order):
            lines.append(f"  e{x} [label={_dot_quote(names[x])}];")
        for block in graph.blocks:
            lines.extend(f"  e{a} -- e{b};" for a, b in combinations(block, 2))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# command implementations


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise SemanticError(f"environment variable {name} must be an integer, got {raw!r}") from None


def _resolve_limits(args):
    limits = []
    for value, flag, env, default in (
        (args.max_ring_order, "--max-ring-order", ENV_MAX_ORDER, DEFAULT_MAX_ORDER),
        (args.search_budget, "--search-budget", ENV_BUDGET, DEFAULT_SEARCH_BUDGET),
    ):
        source = flag
        if value is None:
            value, source = _env_int(env, default), f"environment variable {env}"
        if value < 0:
            raise SemanticError(f"{source} must be >= 0, got {value}")
        limits.append(value)
    return tuple(limits)


def _load_ring(args):
    """The expression, ring and search budget of a single-ring command."""
    max_order, budget = _resolve_limits(args)
    expr = parse_ring_expr(args.expr, max_order)
    return expr, make_ring(expr, max_order=max_order), budget


def _cmd_info(args, out):
    expr, ring, budget = _load_ring(args)
    out.write(emit_json(ring_summary(expr, ring, budget=budget)).decode())
    return 0


def _cmd_type(args, out):
    _, ring, budget = _load_ring(args)
    out.write(f"{aut_orbit_graph(ring, budget=budget).graph_type()}\n")
    return 0


_AUT_LISTING_LIMIT = 1000


def _cmd_aut(args, out):
    expr, ring, budget = _load_ring(args)
    order = aut_group_order(ring, budget=budget)
    out.write(f"ring: {expr}\n")
    out.write(f"aut_order: {order}\n")
    if order > _AUT_LISTING_LIMIT:
        out.write(f"(group larger than {_AUT_LISTING_LIMIT} elements; listing skipped)\n")
        return 0
    group = automorphisms(ring, budget=budget)
    out.write(f"abelian: {str(group.is_abelian()).lower()}\n")
    gens = generating_set(ring)
    names = ring.element_names
    for k, sigma in enumerate(group):
        if gens:
            images = ", ".join(f"{names[g]} -> {names[sigma(g)]}" for g in gens)
        else:
            images = "identity on the prime subring"
        out.write(f"aut[{k}]: {images}\n")
    return 0


def _cmd_graph(args, out):
    expr, ring, budget = _load_ring(args)
    if args.format == "json":
        out.write(emit_json(ring_summary(expr, ring, budget=budget)).decode())
    else:
        out.write(emit_dot(aut_orbit_graph(ring, budget=budget), collapse=args.collapse).decode())
    return 0


def _check_catalog_order(max_order: int) -> None:
    # a catalog below order 2 holds no classified ring
    if max_order < 2:
        raise SemanticError(f"--max-order must be at least 2, got {max_order}")


def _cmd_verify(args, out):
    _, budget = _resolve_limits(args)
    _check_catalog_order(args.max_order)
    ids = classify.THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    reports = classify._run_sweeps(ids, args.max_order, budget)
    if args.json:
        out.write(emit_json([r.as_dict() for r in reports]).decode())
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL" if r.counterexamples else "EMPTY"
            out.write(f"{status} {r.theorem_id}: checked {r.checked} over {r.universe}\n")
            for expr, detail in r.counterexamples:
                out.write(f"  counterexample {expr}: {detail}\n")
            if r.notes:
                out.write(f"  ({len(r.notes)} observations recorded; see --json)\n")
    if any(r.counterexamples for r in reports):
        return 1
    empty = [r.theorem_id for r in reports if not r.checked]
    if empty:
        print(f"error: {', '.join(empty)} checked no ring at --max-order {args.max_order}",
              file=sys.stderr)
        return 2
    return 0


def _sanitize(name: str) -> str:
    return name.replace(" ", "").replace("/", "_").replace("*", "")


def _cmd_atlas(args, out):
    _, budget = _resolve_limits(args)
    _check_catalog_order(args.max_order)
    catalog = classify.build_catalog(args.max_order, budget=budget)
    os.makedirs(args.out, exist_ok=True)
    index = []
    used = set()
    for entry in catalog.entries:
        stem = _sanitize(str(entry.expr))
        candidate = stem
        k = 1
        while candidate in used:
            k += 1
            candidate = f"{stem}-{k}"
        used.add(candidate)
        summary = ring_summary(entry.expr, entry.ring, budget=budget)
        with open(os.path.join(args.out, candidate + ".json"), "wb") as fh:
            fh.write(emit_json(summary))
        record = {
            "expr": str(entry.expr),
            "order": entry.ring.order,
            "provenance": entry.provenance,
            "file": candidate + ".json",
        }
        if entry.ring.order <= 128 or args.force:
            graph = aut_orbit_graph(entry.ring, budget=budget)
            with open(os.path.join(args.out, candidate + ".dot"), "wb") as fh:
                fh.write(emit_dot(graph, collapse=args.collapse))
            record["dot"] = candidate + ".dot"
        index.append(record)
    with open(os.path.join(args.out, "index.json"), "wb") as fh:
        fh.write(emit_json(index))
    out.write(f"wrote {len(index)} rings to {args.out}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringgraph",
        description="Finite commutative rings, automorphism groups, and their orbit graphs.",
    )
    parser.add_argument("--max-ring-order", type=int, default=None,
                        help=f"carrier-order cap (env {ENV_MAX_ORDER}, default {DEFAULT_MAX_ORDER})")
    parser.add_argument("--search-budget", type=int, default=None,
                        help=f"node budget, one node per element image a search fixes or a "
                             f"listing writes (env {ENV_BUDGET}, default {DEFAULT_SEARCH_BUDGET})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="JSON summary of one ring")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("aut", help="automorphism group order and listing")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("graph", help="orbit graph in DOT (or JSON summary)")
    p.add_argument("expr")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--collapse", action="store_true", help="one node per orbit")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("type", help="print the graph type of a ring")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_type)

    p = sub.add_parser("verify", help="run classification verifications")
    p.add_argument("theorem", choices=classify.THEOREM_IDS + ("all",))
    p.add_argument("--max-order", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("atlas", help="write per-ring JSON/DOT files for a catalog")
    p.add_argument("--max-order", type=int, default=64)
    p.add_argument("--out", default="atlas")
    p.add_argument("--collapse", action="store_true")
    p.add_argument("--force", action="store_true", help="emit DOT even above order 128")
    p.set_defaults(func=_cmd_atlas)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ParseError, SemanticError, InvalidModulus, OSError) as exc:
        # OSError: such as an atlas --out that names a file; 1 means a counterexample
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OrderLimitExceeded, SearchBudgetExceeded) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
