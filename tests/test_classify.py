import hashlib
import math

import numpy as np
import pytest

import ringgraph as rg
from _oracle import table_homomorphism
from ringgraph import classify, rings
from ringgraph.expr import is_prime, poly_is_irreducible, poly_is_primary, prime_power


def test_catalog_order_2():
    cat = rg.build_catalog(2)
    assert [str(e.expr) for e in cat.entries] == ["Z2"]


def test_catalog_order_4_is_the_complete_list():
    cat = rg.build_catalog(4)
    exprs = [str(e.expr) for e in cat.entries]
    assert exprs == ["Z2", "Z3", "GF(4)", "Z2 x Z2", "Z2[x]/(x^2)", "Z4"]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_catalog_prime_square_classification(catalog64, p):
    # at order p^2 the catalog is exactly the four known rings
    entries = [e for e in catalog64.entries if e.ring.order == p * p]
    assert len(entries) == 4
    expected = [
        rg.make_ring(rg.Zn(p * p)),
        rg.make_ring(rg.PolyQuot(p, (0, 0, 1))),
        rg.make_ring(rg.gf(p * p)),
        rg.make_ring(rg.Prod((rg.Zn(p), rg.Zn(p)))),
    ]
    for target in expected:
        assert sum(1 for e in entries if rg.isomorphism(e.ring, target) is not None) == 1


def test_catalog_prime_orders(catalog64):
    for p in (2, 3, 5, 7, 11, 13, 61):
        entries = [e for e in catalog64.entries if e.ring.order == p]
        assert len(entries) == 1 and str(entries[0].expr) == f"Z{p}"


def test_catalog_pairwise_non_isomorphic(catalog64):
    small = [e for e in catalog64.entries if e.ring.order <= 32]
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            if small[i].ring.order != small[j].ring.order:
                continue
            assert rg.isomorphism(small[i].ring, small[j].ring) is None, (
                str(small[i].expr),
                str(small[j].expr),
            )


def test_catalog_rebuild_is_identical(catalog64):
    again = rg.build_catalog(64)
    assert [str(e.expr) for e in again.entries] == [str(e.expr) for e in catalog64.entries]
    assert [e.provenance for e in again.entries] == [e.provenance for e in catalog64.entries]


# max order -> (entries, sha256 of the sorted expression strings, sha256 of
# the "expr|provenance" lines in entry order), recorded before candidates
# were skipped
CATALOG_DIGESTS = {
    64: (346, "3ff3a0ad739e7e670ed4b14cbb2c49abff54d67f3e4474e1549660fe96b3f61b",
         "b535ecd8fe50ec33ee378a39ca8c001a245d46fe25e2872ad73724f4e9f7f141"),
    128: (831, "52f5abfe80ac9f184e2f2411c34eccf1eda020033c65d208692c380fbf317cdd",
          "7c108d810678e7610d19c6ed5966c05f144831dcda0f76eb3651bb2ff6a769b1"),
    256: (2046, "101cf43ebbfb5663079c06fb2e415bc337e0f8236d349052990e29402db603b2",
          "a8b891696ef8898e26f602470c50a96ca51a487afd998619f72a85aa93fa8a96"),
}


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("max_order", sorted(CATALOG_DIGESTS))
def test_catalog_matches_recorded_digests(max_order):
    entries, sorted_digest, ordered_digest = CATALOG_DIGESTS[max_order]
    cat = rg.build_catalog(max_order)
    assert len(cat.entries) == entries
    assert _sha256_lines(sorted(str(e.expr) for e in cat.entries)) == sorted_digest
    assert _sha256_lines([f"{e.expr}|{e.provenance}" for e in cat.entries]) == ordered_digest


# max order -> sha256 of the "expr|table digest|add dtype|mul dtype" lines in
# entry order, recorded when the catalog built every entry's tables; re-pinned
# when tables below order 128 became int8, the lines then hashing to the old
# values with int8 read as int16
CATALOG_TABLE_DIGESTS = {
    64: "9842b870685f80d99e9040927cace576b9a0ee06657d86851e4a7e5ad6cae568",
    128: "8cb968f46f089fe36859c74a4e6aab0fd94a94df56bafc5456322dd0b1fbb743",
    256: "ad330d4af0f3cfb362a18b99c51597ac359d570fba6907054f67140164d2166e",
}


@pytest.mark.parametrize("max_order", sorted(CATALOG_TABLE_DIGESTS))
def test_catalog_builds_no_product_table_and_reads_the_recorded_ones(max_order, cold_ring_cache):
    cat = rg.build_catalog(max_order)
    # a product needs no table of its own, nor does a Z_n unless it is the
    # base of a square-zero candidate that is built, SZ(Z_b, m) with m >= 2
    bases = [b for b in range(2, max_order) if b**3 <= max_order and prime_power(b)]
    deferred = [e for e in cat.entries if e.provenance == "product"]
    assert len(deferred) > len(cat.entries) // 2
    assert all(e.ring._build_tables is not None for e in deferred)
    cyclic = [e for e in cat.entries if isinstance(e.expr, rg.Zn)]
    assert [e.expr.n for e in cyclic if e.ring._build_tables is None] == bases
    lines = [
        f"{e.expr}|{e.ring.table_digest()}|{e.ring.add_table.dtype}|{e.ring.mul_table.dtype}"
        for e in cat.entries
    ]
    assert _sha256_lines(lines) == CATALOG_TABLE_DIGESTS[max_order]


def test_catalog_scans_no_field_fingerprints(cold_ring_cache):
    # a field's class is fixed by its order, so the registry reads no
    # fingerprints of it
    fields = [e for e in rg.build_catalog(128).entries if e.provenance == "gf"]
    assert len(fields) == 13
    assert not [str(e.expr) for e in fields if "fingerprint_keys" in e.ring._derived]
    # the key that proves no scan ran is the one a scan fills
    rings._fingerprint_keys(fields[0].ring)
    assert "fingerprint_keys" in fields[0].ring._derived


def _modulus_code(expr):
    return sum(c * expr.n**i for i, c in enumerate(expr.modulus[:-1]))


def test_candidates_left_out_are_isomorphic_to_a_catalog_entry(monkeypatch):
    # every quotient and square-zero candidate that the catalog does not
    # classify is isomorphic to one named entry of its order: the class of
    # its orbit minimum for an affine duplicate, GF(p^d) for a field
    # quotient, Z_n[x]/(x^2) for SZ(Z_n, 1) over a prime power, and a
    # product entry for the others
    built, classified = {}, set()
    make_ring, register = classify.make_ring, classify._LocalRegistry.classify

    def recording_make(expr, *args, **kwargs):
        built[expr] = make_ring(expr, *args, **kwargs)
        return built[expr]

    def recording_register(self, ring):
        classified.add(id(ring))
        return register(self, ring)

    monkeypatch.setattr(classify, "make_ring", recording_make)
    monkeypatch.setattr(classify._LocalRegistry, "classify", recording_register)
    catalog = rg.build_catalog(128)
    monkeypatch.undo()
    named = {str(e.expr): e for e in catalog.entries}
    by_invariants = {}
    for entry in catalog.entries:
        key = (entry.ring.order, tuple(sorted(entry.ring.fingerprints)))
        by_invariants.setdefault(key, []).append(entry)

    def entry_of(ring, label):
        key = (ring.order, tuple(sorted(ring.fingerprints)))
        found = [(e, rg.isomorphism(e.ring, ring)) for e in by_invariants.get(key, [])]
        found = [(e, iso) for e, iso in found if iso is not None]
        assert len(found) == 1, label
        entry, iso = found[0]
        assert (np.sort(iso.image) == np.arange(ring.order)).all(), label
        assert table_homomorphism(entry.ring, ring, iso.image).all(), label
        return entry

    counts = {"polyquot": [0, 0, 0], "squarezero": [0, 0, 0]}
    for family, expr in classify._family_candidates(128, False):
        if family not in counts:
            continue
        counts[family][0] += 1
        if expr in built and id(built[expr]) in classified:
            continue
        counts[family][1 if expr not in built else 2] += 1
        ring, label = rg.make_ring(expr), str(expr)
        entry = entry_of(ring, label)
        if family == "polyquot":
            n, d = expr.n, expr.degree
            least = int(classify._affine_orbit_minima(n, d)[_modulus_code(expr)])
            if least < _modulus_code(expr):
                rep = rg.PolyQuot(n, tuple(least // n**i % n for i in range(d)) + (1,))
                assert entry is entry_of(rg.make_ring(rep), str(rep)), label
                continue
            if is_prime(n) and poly_is_irreducible(expr.modulus, n):
                assert entry is named[str(rg.gf(n**d))], label
                assert entry.provenance == "gf", label
                continue
        base = expr.base if family == "squarezero" else None
        if isinstance(base, rg.Zn) and expr.m == 1 and prime_power(base.n):
            assert entry is named[str(rg.PolyQuot(base.n, (0, 0, 1)))], label
            assert entry.provenance == "polyquot", label
            continue
        assert entry.provenance == "product", label
    # (candidates, never built, built and left out)
    assert counts == {"polyquot": [729, 697, 0], "squarezero": [23, 10, 0]}


def test_local_quotient_criterion_matches_the_idempotent_scan():
    # Z_{p^a}[x]/(f) is local iff f mod p is a power of one monic irreducible
    agree, non_local = 0, 0
    for family, expr in classify._family_candidates(256, False):
        pp = prime_power(expr.n) if family == "polyquot" else None
        if not pp:
            continue
        local = len(rg.idempotents(rg.make_ring(expr))) == 2
        assert poly_is_primary(expr.modulus, pp[0]) == local, str(expr)
        agree += 1
        non_local += not local
    assert (agree, non_local) == (1018, 411)


def test_catalog_at_every_bound_is_a_prefix():
    # a candidate left out at one bound is left out at every bound, so the
    # catalog up to m is the part of the catalog up to 256 of order <= m
    full = rg.build_catalog(256).entries
    for max_order in [*range(2, 65), 100, 128, 200]:
        want = [(str(e.expr), e.provenance) for e in full if e.ring.order <= max_order]
        got = [(str(e.expr), e.provenance) for e in rg.build_catalog(max_order).entries]
        assert got == want, max_order


def _substituted_code(coeffs, u, a, n):
    """Code of u^-d * f(ux + a) for f = coeffs (ascending, monic), by Horner
    with Python integers."""
    out = [0]
    for c in reversed(coeffs):
        nxt = [0] * (len(out) + 1)
        for k, v in enumerate(out):
            nxt[k] += v * a
            nxt[k + 1] += v * u
        nxt[0] += c
        out = [v % n for v in nxt]
    d = len(coeffs) - 1
    inv = pow(out[d], -1, n)
    assert out[d + 1:] == [0] * (len(out) - d - 1)
    return sum(out[i] * inv % n * n**i for i in range(d))


# every (n, d) that build_catalog(256) uses, and d = 1
@pytest.mark.parametrize(
    "n, d",
    [(n, 1) for n in range(2, 7)] + [(n, 2) for n in range(2, 17)] + [(n, 3) for n in range(2, 7)],
)
def test_affine_orbit_minima_match_plain_expansion(n, d):
    table = classify._affine_orbit_minima(n, d)
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    expected = [
        min(
            _substituted_code([code // n**i % n for i in range(d)] + [1], u, a, n)
            for u in units
            for a in range(n)
        )
        for code in range(n**d)
    ]
    assert table.tolist() == expected


def test_catalog_includes_trivial_ring_only_on_request():
    assert all(e.ring.order > 1 for e in rg.build_catalog(8).entries)
    with_one = rg.build_catalog(8, include_trivial=True)
    assert any(e.ring.order == 1 for e in with_one.entries)


def test_catalog_max_order_cap():
    with pytest.raises(rg.OrderLimitExceeded):
        rg.build_catalog(512)


def test_report_shape():
    cat = rg.build_catalog(8)
    rep = rg.verify_trivial_aut_classification(cat)
    assert rep.passed == (len(rep.counterexamples) == 0)
    assert rep.checked == len(cat.entries)
    d = rep.as_dict()
    assert d["theorem"] == "trivial-aut" and d["passed"] is True


def test_trivial_aut_spot_cases():
    assert rg.aut_group_order(rg.make_ring(rg.Zn(8))) == 1
    assert rg.aut_group_order(rg.make_ring(rg.PolyQuot(2, (0, 0, 1)))) == 1
    assert rg.aut_group_order(rg.make_ring(rg.Prod((rg.Zn(2), rg.Zn(2))))) == 2


def test_units_connected_spot_cases():
    f4 = rg.make_ring(rg.gf(4))
    assert rg.aut_orbit_graph(f4).subset_connected(f4.units - {f4.one})
    sz = rg.make_ring(rg.SquareZero(rg.Zn(2), 2))
    assert rg.aut_orbit_graph(sz).subset_connected(sz.units - {sz.one})
    z5 = rg.make_ring(rg.Zn(5))
    assert not rg.aut_orbit_graph(z5).subset_connected(z5.units - {z5.one})


def test_m_connected_spot_cases():
    z4 = rg.make_ring(rg.Zn(4))
    assert rg.aut_orbit_graph(z4).subset_connected(
        rg.local_structure(z4).maximal_ideal - {z4.zero}
    )
    d3 = rg.make_ring(rg.PolyQuot(3, (0, 0, 1)))
    assert rg.aut_orbit_graph(d3).subset_connected(
        rg.local_structure(d3).maximal_ideal - {d3.zero}
    )
    z9 = rg.make_ring(rg.Zn(9))
    assert not rg.aut_orbit_graph(z9).subset_connected(
        rg.local_structure(z9).maximal_ideal - {z9.zero}
    )


def test_involution_spot_cases():
    dual2 = rg.make_ring(rg.PolyQuot(2, (0, 0, 1)))
    assert rg.aut_group_order(dual2) == 1
    d3 = rg.make_ring(rg.PolyQuot(3, (0, 0, 1)))
    g3 = rg.automorphisms(d3)
    assert g3.order == 2 and g3.is_abelian()
    d5 = rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))
    g5 = rg.automorphisms(d5)
    assert sorted(g5.element_order(s) for s in g5) == [1, 2, 4, 4]


def test_field_extension_examples():
    rep = rg.verify_field_extension_connectivity(max_q=3, max_t=3)
    assert rep.passed and rep.checked == 4  # (2,2) (2,3) (3,2) (3,3)
    f8 = rg.make_ring(rg.gf(8))
    subfield = {x for x in range(8) if f8.pow(x, 2) == x}
    assert not rg.aut_orbit_graph(f8).subset_connected(set(range(8)) - subfield)
    f4 = rg.make_ring(rg.gf(4))
    assert rg.aut_orbit_graph(f4).subset_connected({2, 3})


def test_residue_remark_spot_cases():
    assert rg.aut_orbit_graph(rg.make_ring(rg.gf(8))).graph_type() == 2
    assert rg.aut_orbit_graph(rg.make_ring(rg.gf(27))).graph_type() == 2


def test_type_formula_input_validation():
    with pytest.raises(ValueError):
        rg.verify_type_formulas(n_list=(4,))
    with pytest.raises(ValueError):
        rg.verify_type_formulas(symmetric_samples=((2, 1, 2),))


def test_degree_product_rule_reports_the_first_failing_pair(monkeypatch):
    # a product graph with every element alone breaks the rule at each pair
    # (a, b) with a or b in an orbit of size > 1: a = 2 in GF(4), b = 2 in
    # GF(8); row-major order meets (0, 2) first, column-major (2, 0)
    def discrete_products(ring, budget=None):
        if ring.order == 32:
            return rg.OrbitGraph(ring, np.arange(32))
        return rg.aut_orbit_graph(ring, budget=budget)

    monkeypatch.setattr(classify, "aut_orbit_graph", discrete_products)
    report = rg.verify_type_formulas(
        p_list=(), n_list=(), symmetric_samples=(), field_orders=(),
        product_pairs=((rg.gf(4), rg.gf(8)),),
    )
    assert report.counterexamples == (
        (rg.Prod((rg.gf(4), rg.gf(8))), "degree product rule fails at element pair (0, 2)"),
    )


def test_verify_all_small():
    from ringgraph.classify import THEOREM_IDS

    reports = rg.verify_all(max_order=8)
    assert len(reports) == 7
    assert all(r.passed for r in reports)
    assert [r.theorem_id for r in reports] == list(THEOREM_IDS)


def test_report_that_checked_nothing_does_not_pass():
    rep = rg.verify_residue_field_remark(rg.build_catalog(4))
    assert rep.checked == 0 and not rep.counterexamples and rep.passed is False


def test_units_connected_records_non_local_observations():
    rep = rg.verify_units_connected_classification(rg.build_catalog(8))
    assert rep.passed
    assert any("Z2 x GF(4)" in n for n in rep.notes)
    assert any(n.startswith("non-local Z6") for n in rep.notes)


def test_verify_with_trivial_ring_included():
    cat = rg.build_catalog(8, include_trivial=True)
    rep = rg.verify_trivial_aut_classification(cat)
    assert rep.passed
    assert rep.checked == len(cat.entries) - 1  # zero ring skipped


def test_all_reports_pass_on_default_catalog(catalog64):
    reports = [
        rg.verify_trivial_aut_classification(catalog64),
        rg.verify_units_connected_classification(catalog64),
        rg.verify_m_connected_classification(catalog64),
        rg.verify_type_formulas(),
        rg.verify_involution_and_order_bounds(catalog64),
        rg.verify_field_extension_connectivity(),
        rg.verify_residue_field_remark(catalog64),
    ]
    for rep in reports:
        assert rep.passed, (rep.theorem_id, rep.counterexamples)


def test_local_structure_invariants(catalog64):
    from ringgraph.expr import prime_power

    for entry in catalog64.local_entries():
        ring = entry.ring
        ls = rg.local_structure(ring)
        assert prime_power(ls.residue_field_order) is not None, str(entry.expr)
        assert ring.order % len(ls.maximal_ideal) == 0
        assert ls.maximal_ideal <= ring.nilpotents, str(entry.expr)
