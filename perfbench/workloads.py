"""The benchmark's workloads: inputs, timed queries and answer checks.

A workload is a list of queries, each one call a user of ringgraph makes.
`prepare` builds a pass's inputs outside the clock; the worker then times
every query's `run` and afterwards hands its answer to `check`, which
returns None for a correct answer and a one-line reason otherwise.

Every expected value below is fixed in this file or derived from a closed
form, never read back from the program under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import ringgraph as rg
from ringgraph import cli


@dataclass
class Query:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# -- catalog ---------------------------------------------------------------

# max_order -> (entry count, sha256 of the sorted entry expression strings)
CATALOG = {
    "full": (128, 831, "52f5abfe80ac9f184e2f2411c34eccf1eda020033c65d208692c380fbf317cdd"),
    "tiny": (16, 53, "e96e659436c15c0b346656fa1ea73706d0f3d605e2a278f52e208b91e2812f2a"),
}


def catalog_digest(catalog) -> str:
    lines = sorted(str(e.expr) for e in catalog.entries)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _catalog_queries(scale, rng):
    max_order, entries, digest = CATALOG[scale]

    def check(catalog):
        if len(catalog.entries) != entries:
            return f"{len(catalog.entries)} catalog entries, expected {entries}"
        if catalog_digest(catalog) != digest:
            return "catalog entry strings differ from the recorded digest"
        return None

    return [Query(f"build_catalog({max_order})", lambda: rg.build_catalog(max_order), check)]


# -- verify ----------------------------------------------------------------

# max order -> theorem id -> rings checked; every report must pass
VERIFY = {
    "full": (64, {"trivial-aut": 346, "units-connected": 69, "m-connected": 69,
                  "type-formulas": 36, "involution": 42, "field-ext": 8,
                  "residue-remark": 7}),
    "tiny": (8, {"trivial-aut": 17, "units-connected": 11, "m-connected": 11,
                 "type-formulas": 36, "involution": 5, "field-ext": 8,
                 "residue-remark": 1}),
}


def _verify_queries(scale, rng):
    max_order, checked = VERIFY[scale]
    argv = ["verify", "all", "--max-order", str(max_order), "--json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(answer):
        code, text = answer
        if code != 0:
            return f"exit code {code}, expected 0"
        reports = json.loads(text)
        got = {r["theorem"]: r["checked"] for r in reports}
        if got != checked:
            return f"checked counts {got}, expected {checked}"
        failing = [r["theorem"] for r in reports if not r["passed"]]
        if failing:
            return f"reports not passed: {failing}"
        return None

    return [Query("ringgraph " + " ".join(argv), run, check)]


# -- big-rings -------------------------------------------------------------


def gl_order(m: int, q: int) -> int:
    """|GL(m, q)| = prod over i < m of (q^m - q^i)."""
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def truncated_poly_aut_order(p: int, k: int) -> int:
    """|Aut Z_p[x]/(x^k)| for k >= 2: x maps to a unit times x plus any higher terms."""
    return (p - 1) * p ** (k - 2)


# expression, |Aut R| from its closed form, whether R is local
BIG_RINGS = {
    "full": (
        ("GF(1024)", 10, True),
        ("GF(256) x GF(4)", 8 * 2, False),
        ("SZ(GF(4),3)", gl_order(3, 4) * 2, True),
        ("SZ(Z3,4)", gl_order(4, 3), True),
        ("SZ(Z2,6)", gl_order(6, 2), True),
        ("Z2[x]/(x^8)", truncated_poly_aut_order(2, 8), True),
        ("Z3[x]/(x^5)", truncated_poly_aut_order(3, 5), True),
    ),
    "tiny": (
        ("GF(8)", 3, True),
        ("GF(4) x Z3", 2, False),
        ("SZ(GF(4),1)", gl_order(1, 4) * 2, True),
        ("SZ(Z2,2)", gl_order(2, 2), True),
        ("Z2[x]/(x^3)", truncated_poly_aut_order(2, 3), True),
        ("Z3[x]/(x^3)", truncated_poly_aut_order(3, 3), True),
    ),
}


def relabel(ring, rng):
    """A copy of `ring` whose element x is renamed perm[x], perm drawn from rng."""
    perm = rng.permutation(ring.order)
    inv = np.argsort(perm)
    grid = np.ix_(inv, inv)
    dt = ring.add_table.dtype
    return rg.FiniteRing(
        perm[ring.add_table[grid]].astype(dt),
        perm[ring.mul_table[grid]].astype(dt),
        perm[ring.zero],
        perm[ring.one],
        ring.presentation,
        [ring.element_names[i] for i in inv],
    )


def _big_ring_query(text, aut_order, is_local, rng):
    expr = cli.parse_ring_expr(text)
    canonical = rg.make_ring(expr)
    copy = relabel(canonical, rng)

    def run():
        return cli.ring_summary(expr, canonical), rg.isomorphism(canonical, copy)

    def check(answer):
        summary, iso = answer
        if summary["aut_order"] != aut_order:
            return f"|Aut| = {summary['aut_order']}, closed form gives {aut_order}"
        if summary["order"] != canonical.order or sum(summary["orbit_sizes"]) != canonical.order:
            return "orbit sizes do not partition the ring"
        if summary["is_local"] != is_local:
            return f"is_local = {summary['is_local']}, expected {is_local}"
        if iso is None:
            return "no isomorphism found onto the relabelled copy"
        if iso.source is not canonical or iso.target is not copy:
            return "isomorphism between the wrong rings"
        if not (iso.is_bijective and iso.is_homomorphism):
            return "isomorphism fails the full table check"
        return None

    return Query(text, run, check)


def _big_rings_queries(scale, rng):
    return [_big_ring_query(text, order, local, rng) for text, order, local in BIG_RINGS[scale]]


_BUILDERS = {
    "catalog": _catalog_queries,
    "verify": _verify_queries,
    "big-rings": _big_rings_queries,
}


def prepare(workload: str, scale: str, seed: int, round_: int) -> list[Query]:
    """The queries of one pass; round `round_` of seed `seed` fixes its inputs."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, round_]))
    return _BUILDERS[workload](scale, rng)
