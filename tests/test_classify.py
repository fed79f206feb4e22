import gc
import hashlib
import math
import os
import weakref

import numpy as np
import pytest

import ringgraph as rg
from _oracle import (
    all_family_candidates,
    is_isomorphic_to,
    reference_rigid_local,
    reference_square_zero,
    reference_trivial_aut_shape,
    shuffled_copy,
    table_homomorphism,
)
from conftest import forks_here
from ringgraph import classify, cli, rings
from ringgraph.expr import expr_order, is_prime, poly_is_irreducible, poly_is_primary, prime_power


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


def test_registry_compares_no_cyclic_ring_and_no_field(monkeypatch, cold_ring_cache):
    # Z_n and fields are filed from their expression; the registry compares
    # only quotient and square-zero rings, none of them a Z_n or a field
    classified = []
    register = classify._LocalRegistry.classify

    def recording(self, ring):
        classified.append(ring)
        return register(self, ring)

    monkeypatch.setattr(classify._LocalRegistry, "classify", recording)
    rg.build_catalog(256)
    assert len(classified) == 64
    fixed = [r for r in classified if r.characteristic == r.order or r.is_field]
    assert not [str(r) for r in fixed]


def _count_constructions(monkeypatch):
    built = []
    construct = rings._construct_ring
    monkeypatch.setattr(rings, "_construct_ring", lambda expr: built.append(expr) or construct(expr))
    return built


# the fields that are bases of square-zero candidates at order 128, the
# only ones `build_catalog(128)` builds
_SQUARE_ZERO_FIELDS = (rg.gf(4), rg.gf(8), rg.gf(9))
# every base of a square-zero candidate at order 128, the only Z_n and
# fields that `build_catalog(128)` builds
_SQUARE_ZERO_BASES = (rg.Zn(2), rg.Zn(3), rg.Zn(4), rg.Zn(5)) + _SQUARE_ZERO_FIELDS


def _read_on_first_use(cat):
    """The Z_n and field entries of `cat` that `build_catalog(128)` did not build."""
    return [
        e.expr
        for e in cat.entries
        if e.provenance in ("zn", "gf") and e.expr not in _SQUARE_ZERO_BASES
    ]


def test_catalog_and_local_entries_build_no_product(monkeypatch, cold_ring_cache):
    built = _count_constructions(monkeypatch)
    cat = rg.build_catalog(128)
    assert len(built) == 52
    # no product, and no Z_n or field but the square-zero bases
    assert {e for e in built if isinstance(e, (rg.Prod, rg.Zn, rg.GF))} == set(_SQUARE_ZERO_BASES)
    products = [e for e in cat.entries if e.provenance == "product"]
    assert len(products) == 648
    assert len(cat.local_entries()) == 100
    # reading the local entries builds the other Z_n and fields, and nothing else
    assert built[52:] == _read_on_first_use(cat)


def test_catalog_knows_its_fields_without_building_them(monkeypatch, cold_ring_cache):
    built = _count_constructions(monkeypatch)
    rg.build_catalog(128)
    assert [e for e in built if isinstance(e, rg.GF)] == list(_SQUARE_ZERO_FIELDS)
    monkeypatch.undo()
    # a field entry filed by its order and characteristic alone is a field
    # once its ring is read: every nonzero element has an inverse
    fields = [e for e in rg.build_catalog(256).entries if e.provenance == "gf"]
    assert [e.expr for e in fields] == [
        rg.gf(q) for q in range(4, 257) if prime_power(q) and prime_power(q)[1] >= 2
    ]
    for entry in fields:
        ring = entry.ring
        nonzero = [x for x in range(ring.order) if x != ring.zero]
        assert (ring.mul_table[nonzero] == ring.one).any(axis=1).all(), str(entry.expr)


def test_product_entry_builds_its_ring_from_the_local_entries(monkeypatch, cold_ring_cache):
    cat = rg.build_catalog(128)
    built = _count_constructions(monkeypatch)
    named = {e.expr: e for e in cat.entries}
    products = [e for e in cat.entries if e.provenance == "product"]
    for entry in products:
        ring = entry.ring
        assert ring is rg.make_ring(entry.expr) and entry.ring is ring, str(entry.expr)
        factors = ring._derived["factors"]
        assert len(factors) == len(entry.expr.factors) >= 2, str(entry.expr)
        for expr, factor in zip(entry.expr.factors, factors):
            assert named[expr].provenance != "product", str(entry.expr)
            assert factor is named[expr].ring, str(entry.expr)
    # each product is built once, on its first read, then the Z_n and
    # fields among its factors that neither the catalog nor an earlier
    # read built, and nothing else is built
    lazy = set(_read_on_first_use(cat))
    want = []
    for entry in products:
        want.append(entry.expr)
        want += [f for f in dict.fromkeys(entry.expr.factors) if f in lazy and f not in want]
    assert built == want


def test_dropped_catalog_frees_its_rings_without_the_cycle_collector(cold_ring_cache):
    gc.disable()
    try:
        cat = rg.build_catalog(64)
        refs = [weakref.ref(e.ring) for e in cat.entries if e.provenance != "product"]
        del cat
        assert [str(r()) for r in refs if r() is not None] == []
    finally:
        gc.enable()


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
    for family, expr in all_family_candidates(128):
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


@pytest.mark.parametrize("max_order", [64, 128, 256])
def test_candidates_are_the_universe_less_the_skip_rules(max_order):
    # the rules `build_catalog` once applied to the full universe, before
    # building a candidate, written out here
    minima = {}

    def skipped(family, expr):
        if family == "polyquot":
            pp = prime_power(expr.n)
            if not pp:
                return True  # a product over the prime-power parts of n
            n, d = expr.n, expr.degree
            if (n, d) not in minima:
                minima[n, d] = classify._affine_orbit_minima(n, d)
            if minima[n, d][_modulus_code(expr)] < _modulus_code(expr):
                return True  # isomorphic to its orbit minimum
            if not poly_is_primary(expr.modulus, pp[0]):
                return True  # not local
            return pp[1] == 1 and poly_is_irreducible(expr.modulus, pp[0])  # GF(p^d)
        if family == "squarezero":
            if not prime_power(expr_order(expr.base)):
                return True
            return isinstance(expr.base, rg.Zn) and expr.m == 1  # Z_n[x]/(x^2)
        return False

    want = [c for c in all_family_candidates(max_order) if not skipped(*c)]
    assert list(classify._family_candidates(max_order)) == want


def test_local_quotient_criterion_matches_the_idempotent_scan():
    # Z_{p^a}[x]/(f) is local iff f mod p is a power of one monic irreducible
    agree, non_local = 0, 0
    for family, expr in all_family_candidates(256):
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


def test_catalog_leaves_out_the_trivial_ring():
    assert all(e.ring.order > 1 for e in rg.build_catalog(8).entries)
    assert min(expr_order(e) for _, e in all_family_candidates(8)) == 2


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


def test_involution_closed_forms_agree_with_listings():
    # the involution sweep decides from the chain what it once read off a
    # listing; check both closed forms against the listing wherever one fits
    # the default budget
    listed, abelian = 0, set()
    for entry in rg.build_catalog(128).local_entries():
        ring = entry.ring
        if ring.is_field or ring.order == 1:
            continue
        try:
            group = rg.automorphisms(ring)
        except rg.SearchBudgetExceeded:
            continue
        listed += 1
        exponent = classify._order_exponent(ring, rg.aut_orbit_graph(ring))
        orders = {group.element_order(s) for s in range(len(group))}
        assert all(exponent % k == 0 for k in orders), (str(entry.expr), exponent, orders)
        if group.order <= 48:
            every = rg.AutGroup(ring, group._images)  # no generators: all pairs
            abelian.add(every.is_abelian())
            assert classify._strong_generators_commute(ring, None) == every.is_abelian()
    assert listed >= 50 and abelian == {True, False}


def test_field_extension_examples(monkeypatch):
    monkeypatch.setattr(classify, "_EXT_Q", 3)
    rep = rg.verify_field_extension_connectivity()
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
    # the samples meet the preconditions of the formulas they check
    assert all(n % 2 == 1 for n in classify._DUAL_ODD_MODULI)
    assert all(m < p**k for p, k, m in classify._SYMMETRIC_POWERS)


def test_degree_product_rule_reports_the_first_failing_pair(monkeypatch):
    # a product graph with every element alone breaks the rule at each pair
    # (a, b) with a or b in an orbit of size > 1: a = 2 in GF(4), b = 2 in
    # GF(8); row-major order meets (0, 2) first, column-major (2, 0)
    def discrete_products(ring, budget=None):
        if ring.order == 32:
            return rg.OrbitGraph(ring, np.arange(32))
        return rg.aut_orbit_graph(ring, budget=budget)

    monkeypatch.setattr(classify, "aut_orbit_graph", discrete_products)
    for samples in ("_DUAL_PRIMES", "_DUAL_ODD_MODULI", "_SYMMETRIC_POWERS", "_TYPE_FIELDS"):
        monkeypatch.setattr(classify, samples, ())
    monkeypatch.setattr(classify, "_LOCAL_PAIRS", ((rg.gf(4), rg.gf(8)),))
    report = rg.verify_type_formulas()
    assert report.counterexamples == (
        (rg.Prod((rg.gf(4), rg.gf(8))), "degree product rule fails at element pair (0, 2)"),
    )


def test_verify_all_small():
    from ringgraph.classify import THEOREM_IDS

    reports = rg.verify_all(max_order=8)
    assert len(reports) == 7
    assert all(r.passed for r in reports)
    assert [r.theorem_id for r in reports] == list(THEOREM_IDS)


@pytest.mark.skipif(not forks_here, reason="the split forks on Linux only")
@pytest.mark.parametrize("chain_split", [True], ids=["forked"], indirect=True)
def test_verify_all_leaves_no_child_process(chain_split):
    assert all(r.passed for r in rg.verify_all(16))
    # the call of `_run_sweeps` forked; both chain sweeps found their chains cached
    assert len(chain_split.pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_named_rings_are_recognised_as_isomorphism_searches_recognise_them():
    # the invariant rules against the isomorphism searches they replace:
    # the trivial-aut shape (rules 1-3) on every entry, and on every local
    # entry and a relabelled copy of each up to order 64, Z4 (rule 1), F4
    # (rule 4), the rigid local rings (rules 1-2) and SZ(F_q, m), fields
    # included (rule 5); rule 3 alone is tested below
    catalog = rg.build_catalog(256)
    entries = classify._classified_entries(catalog)
    shapes = [classify._is_product_of_distinct_rigid_locals(e) for e in entries]
    assert len(entries) == 2046 and 0 < sum(shapes) < len(shapes)
    assert shapes == [reference_trivial_aut_shape(e) for e in entries]
    local = [e.ring for e in catalog.local_entries()]
    rng = np.random.default_rng(29)
    relabelled = [shuffled_copy(r, rng)[0] for r in local if r.order <= 64]
    assert len(local) == 148
    for ring in local + relabelled:
        where = (str(ring.presentation), ring.order)
        assert (ring.order == ring.characteristic == 4) == is_isomorphic_to(ring, rg.Zn(4)), where
        assert (ring.order == 4 and ring.is_field) == is_isomorphic_to(ring, rg.gf(4)), where
        assert classify._is_rigid_local(ring) == reference_rigid_local(ring), where
        assert classify._is_square_zero_over_residue_field(ring) == reference_square_zero(ring), where


def test_rigid_local_rings_are_isomorphic_exactly_when_order_and_characteristic_agree():
    # rule 3, on the rigid local entries and a relabelled copy of each
    catalog = rg.build_catalog(256)
    rigid = [e.ring for e in catalog.local_entries() if classify._is_rigid_local(e.ring)]
    rng = np.random.default_rng(3)
    rigid += [shuffled_copy(r, rng)[0] for r in rigid if r.order <= 64]
    assert {(r.order, r.characteristic) for r in rigid} >= {(4, 2), (4, 4), (256, 256)}
    for i, f in enumerate(rigid):
        for g in rigid[i:]:
            same = (f.order, f.characteristic) == (g.order, g.characteristic)
            assert same == (rg.isomorphism(f, g) is not None), (f, g)


def test_units_connected_notes_equal_orbit_graph_checks(catalog64):
    # each note, read from the chain's labels at the units array, against
    # the orbit graph's test on the units as a set
    notes = rg.verify_units_connected_classification(catalog64).notes
    connected = [
        f"non-local {e.expr}: units minus one connected"
        for e in classify._non_local_entries(catalog64)
        if rg.aut_orbit_graph(e.ring).subset_connected(e.ring.units - {e.ring.one})
    ]
    assert list(notes) == connected and connected


def test_sweeps_make_no_isomorphism_search_but_the_sampled_pairs(monkeypatch):
    # the catalog's dedup aside, only the type-formulas sweep's twelve
    # sampled pairs are searched; the chain split is off, so every call is
    # made in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    catalog = rg.build_catalog(64)
    calls = []
    search = classify.isomorphism
    monkeypatch.setattr(classify, "isomorphism", lambda *a, **k: calls.append(a) or search(*a, **k))
    monkeypatch.setattr(classify, "build_catalog", lambda max_order, budget=None: catalog)
    assert all(r.passed for r in rg.verify_all(64))
    assert len(calls) == len(classify._LOCAL_PAIRS) == 12


@pytest.mark.skipif(not forks_here, reason="the split forks on Linux only")
def test_verify_all_reports_are_the_same_split_or_not(monkeypatch, cold_ring_cache):
    reports = []
    for cpus in ({0}, {0, 1}):
        rings._RINGS.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        reports.append(rg.verify_all(64))
    assert reports[0] == reports[1] and all(r.passed for r in reports[0])


def test_report_that_checked_nothing_does_not_pass():
    rep = rg.verify_residue_field_remark(rg.build_catalog(4))
    assert rep.checked == 0 and not rep.counterexamples and rep.passed is False


def test_units_connected_records_non_local_observations():
    rep = rg.verify_units_connected_classification(rg.build_catalog(8))
    assert rep.passed
    assert any("Z2 x GF(4)" in n for n in rep.notes)
    assert any(n.startswith("non-local Z6") for n in rep.notes)


def test_verify_with_trivial_ring_included():
    # a catalog built by hand may hold the zero ring, which the sweep skips
    trivial = classify.CatalogEntry(rg.Zn(1), "zn")
    cat = classify.Catalog(8, (trivial,) + rg.build_catalog(8).entries)
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


def test_sweeps_and_summary_leave_products_without_tables(cold_ring_cache):
    # a product answers its units and prime subring from its factors, and
    # its chain search folds its tables for that search only
    catalog = rg.build_catalog(32)
    for name, reads_catalog in classify.SWEEPS.values():
        if reads_catalog:
            assert getattr(classify, name)(catalog).passed, name
    products = [e.ring for e in catalog.entries if e.provenance == "product"]
    assert products and not any("add_table" in ring.__dict__ for ring in products)
    expr = rg.parse_ring_expr("GF(4) x Z2 x Z2")
    ring = rg.make_ring(expr)
    assert cli.ring_summary(expr, ring)["aut_order"] == 4
    assert "add_table" not in ring.__dict__
