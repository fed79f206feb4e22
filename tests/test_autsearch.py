import dataclasses
import gc
import hashlib
import math
import os
import pickle
import signal
import tracemalloc
import weakref

import numpy as np
import pytest

import ringgraph as rg
from _oracle import (
    naive_generating_set,
    oracle_automorphism_images,
    reference_orbits,
    shuffled_copy,
    table_homomorphism,
)
from conftest import forks_here
from ringgraph import autsearch, classify, rings
from ringgraph.autsearch import (
    _blocks,
    _certify,
    _orbit_labels,
    _stabilizer_chain,
    _stabilizer_chains,
    _transversal,
)


def _count_plans(monkeypatch):
    """The list that every later `rings._build_plan` call appends its ring to."""
    plans = []
    build = rings._build_plan
    monkeypatch.setattr(rings, "_build_plan", lambda ring: plans.append(ring) or build(ring))
    return plans


def _holds_plan(value):
    """Whether a closure plan level is in `value`, searched through
    containers and records."""
    if isinstance(value, rings._ClosureLevel):
        return True
    if isinstance(value, dict):
        return any(_holds_plan(v) for v in value.values())
    if isinstance(value, (tuple, list)):
        return any(_holds_plan(v) for v in value)
    return dataclasses.is_dataclass(value) and _holds_plan(vars(value))


def fresh_copy(ring):
    """Same tables, empty caches; for tests that must not see cached results."""
    return rg.FiniteRing(
        ring.add_table, ring.mul_table, ring.zero, ring.one,
        ring.presentation, ring.element_names,
    )


# -- automorphism group sizes -------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 9, 12, 36])
def test_zn_is_rigid(n):
    assert rg.aut_group_order(rg.make_ring(rg.Zn(n))) == 1


def test_aut_orders_of_named_rings():
    assert rg.automorphisms(rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))).order == 4
    assert rg.automorphisms(rg.make_ring(rg.PolyQuot(9, (0, 0, 1)))).order == 6
    assert rg.automorphisms(rg.make_ring(rg.Prod((rg.Zn(4), rg.Zn(4))))).order == 2
    assert rg.automorphisms(rg.make_ring(rg.gf(8))).order == 3


def test_aut_group_order_matches_enumeration(entries32):
    for entry in entries32:
        group = rg.automorphisms(entry.ring)
        assert rg.aut_group_order(entry.ring) == group.order, str(entry.expr)


def test_automorphisms_leaves_no_reference_cycle():
    gc.disable()
    try:
        ring = fresh_copy(rg.make_ring(rg.gf(8)))
        first = rg.automorphisms(ring)
        again = rg.automorphisms(ring)
        assert again.order == 3 and again._gen_rows == first._gen_rows
        assert np.array_equal(again._images, first._images)
        alive = weakref.ref(ring)
        del ring, first, again
        assert alive() is None
    finally:
        gc.enable()


def test_chain_counts_large_group_without_enumeration():
    ring = rg.make_ring(rg.SquareZero(rg.Zn(2), 5))
    # |GL_5(F_2)| = (32-1)(32-2)(32-4)(32-8)(32-16)
    assert rg.aut_group_order(ring) == 31 * 30 * 28 * 24 * 16
    with pytest.raises(rg.SearchBudgetExceeded):
        rg.automorphisms(ring)


# -- morphism mechanics -------------------------------------------------------


def test_is_homomorphism_examples():
    z4 = rg.make_ring(rg.Zn(4))
    assert rg.is_homomorphism(rg.identity_automorphism(z4))
    swap = rg.RingMorphism(z4, z4, [0, 3, 2, 1])
    assert not swap.is_homomorphism  # does not fix 1
    f4 = rg.make_ring(rg.gf(4))
    frob = rg.RingMorphism(f4, f4, [f4.pow(x, 2) for x in range(4)])
    assert frob.is_homomorphism and frob.is_bijective


def test_maps_and_groups_reject_images_that_are_not_integers():
    z3 = rg.make_ring(rg.Zn(3))
    with pytest.raises(ValueError, match="integers"):
        rg.RingMorphism(z3, z3, [0.0, 1.9, 2.2])  # not the identity
    with pytest.raises(ValueError, match="integers"):
        rg.RingMorphism(z3, z3, [False, True, True])
    f4 = rg.make_ring(rg.gf(4))
    images = rg.automorphisms(f4)._images
    with pytest.raises(ValueError, match="integers"):
        rg.AutGroup(f4, images.astype(float))
    with pytest.raises(ValueError, match="integers"):
        rg.AutGroup(f4, images, [images[1] + 0.25])


def test_subgroup_closure_checks_its_generators_with_one_plan(monkeypatch):
    ring = rg.make_ring(rg.SquareZero(rg.Zn(2), 2))
    group = rg.automorphisms(ring)
    plans = _count_plans(monkeypatch)
    closure = rg.subgroup_closure(ring, group.elements[1:])
    assert closure.order == group.order and len(plans) == 1
    assert rg.subgroup_closure(ring, []).order == 1 and len(plans) == 1
    z4 = rg.make_ring(rg.Zn(4))
    not_unital = rg.RingMorphism(z4, z4, [0, 3, 2, 1])
    for gens in ([not_unital], [rg.identity_automorphism(z4), not_unital]):
        with pytest.raises(rg.NotAutomorphism):
            rg.subgroup_closure(z4, gens)
    # (a, v) -> (a, 0) is a unital homomorphism of SZ(Z2,2), but not injective
    onto_base = rg.RingMorphism(ring, ring, np.arange(ring.order) % 2)
    assert onto_base.is_homomorphism
    with pytest.raises(rg.NotAutomorphism):
        rg.subgroup_closure(ring, [onto_base])
    with pytest.raises(rg.NotAutomorphism):
        rg.subgroup_closure(ring, [rg.identity_automorphism(z4)])


def test_compose_and_inverse_laws():
    f4 = rg.make_ring(rg.gf(4))
    frob = rg.RingMorphism(f4, f4, [f4.pow(x, 2) for x in range(4)])
    ident = rg.identity_automorphism(f4)
    assert rg.compose(frob, ident) == frob
    assert rg.compose(frob, rg.inverse(frob)) == ident
    assert rg.compose(frob, frob) == ident  # x -> x^4 = x
    z6 = rg.make_ring(rg.Zn(6))
    with pytest.raises(rg.NotComposable):
        rg.compose(frob, rg.identity_automorphism(z6))
    collapse = rg.RingMorphism(z6, z6, [0] * 6)
    with pytest.raises(rg.NotBijective):
        rg.inverse(collapse)


def test_isomorphism_examples():
    z4 = rg.make_ring(rg.Zn(4))
    dual2 = rg.make_ring(rg.PolyQuot(2, (0, 0, 1)))
    assert rg.isomorphism(z4, dual2) is None  # characteristics 4 vs 2
    a = rg.make_ring(rg.PolyQuot(2, (1, 1, 1)))
    b = rg.make_ring(rg.GF(2, 2, (1, 1, 1)))
    iso = rg.isomorphism(a, b)
    assert iso is not None and iso.is_homomorphism and iso.is_bijective
    c = rg.make_ring(rg.Zn(15))
    d = rg.make_ring(rg.Prod((rg.Zn(3), rg.Zn(5))))
    assert rg.isomorphism(c, d) is not None


def test_isomorphism_of_a_ring_onto_itself_is_the_identity(entries32, monkeypatch):
    # a ring against itself answers without a search, with the map the
    # search returns first on a copy of it
    for entry in entries32:
        ring, label = entry.ring, str(entry.expr)
        ident = np.arange(ring.order)
        same = rg.isomorphism(ring, ring)
        assert same.source is ring and same.target is ring, label
        assert np.array_equal(same.image, ident) and same.is_automorphism, label
        copy = fresh_copy(ring)
        assert np.array_equal(rg.isomorphism(ring, copy).image, ident), label
    ring = fresh_copy(rg.make_ring(rg.gf(16)))
    plans = _count_plans(monkeypatch)
    assert rg.isomorphism(ring, ring) is not None
    assert plans == [] and "fingerprint_keys" not in ring._derived
    # the count and the key that prove no plan or scan ran are the ones those fill
    assert rg.isomorphism(ring, fresh_copy(ring)) is not None
    assert plans == [ring] and "fingerprint_keys" in ring._derived


def test_subgroup_closure():
    f8 = rg.make_ring(rg.gf(8))
    assert rg.subgroup_closure(f8, []).order == 1
    frob = rg.RingMorphism(f8, f8, [f8.pow(x, 2) for x in range(8)])
    assert rg.subgroup_closure(f8, [frob]).order == 3
    full = rg.automorphisms(f8)
    assert rg.subgroup_closure(f8, list(full)).order == full.order
    z6 = rg.make_ring(rg.Zn(6))
    with pytest.raises(rg.NotAutomorphism):
        rg.subgroup_closure(z6, [rg.RingMorphism(z6, z6, [0] * 6)])


def test_group_queries():
    triv = rg.automorphisms(rg.make_ring(rg.Zn(9)))
    assert triv.order == 1 and triv.is_abelian()
    assert triv.element_order(triv.elements[0]) == 1
    g = rg.automorphisms(rg.make_ring(rg.PolyQuot(9, (0, 0, 1))))
    assert g.order == 6 and g.is_abelian()
    orders = sorted(g.element_order(s) for s in g)
    assert orders == [1, 2, 3, 3, 6, 6]  # cyclic of order 6, like the units of Z9


def test_orbits():
    d = rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))
    g = rg.automorphisms(d)
    assert g.orbit(0) == {0} and g.orbit(1) == {1}
    assert g.orbit(5) == {5, 10, 15, 20}
    f4 = rg.make_ring(rg.gf(4))
    assert rg.automorphisms(f4).orbit(2) == {2, 3}


def test_group_lookup_tables():
    g = rg.automorphisms(rg.make_ring(rg.PolyQuot(5, (0, 0, 1))))
    for i in range(g.order):
        assert g.compose_indices(i, g.inverse_index(i)) == 0
        for j in range(g.order):
            composed = g.elements[i].image[g.elements[j].image]
            k = g.compose_indices(j, i)  # elements[j] applied first
            assert np.array_equal(g.elements[k].image, composed)


def test_group_rejects_duplicate_rows_and_missing_identity():
    ring = rg.make_ring(rg.gf(4))
    images = rg.automorphisms(ring)._images
    with pytest.raises(ValueError, match="duplicate"):
        rg.AutGroup(ring, np.concatenate([images, images[1:]]))
    with pytest.raises(ValueError, match="identity"):
        rg.AutGroup(ring, images[1:])
    with pytest.raises(ValueError, match="identity"):
        rg.AutGroup(ring, images[:0])


def test_group_looks_up_rows_given_in_a_narrow_dtype():
    ring = rg.make_ring(rg.gf(4))
    images = rg.automorphisms(ring)._images
    group = rg.AutGroup(ring, images.astype(np.int32))
    assert group.index_of(rg.identity_automorphism(ring)) == 0
    assert group.index_of(group.elements[1]) == 1
    assert group.compose_indices(1, 1) == 0 and group.inverse_index(1) == 1


def test_group_lookups_outside_a_set_that_is_not_closed_raise():
    f8 = rg.make_ring(rg.gf(8))
    frob = [f8.pow(x, 2) for x in range(8)]
    group = rg.AutGroup(f8, np.array([list(range(8)), frob]))  # frob**2 is missing
    queries = (group.is_abelian, lambda: group.compose_indices(1, 1), lambda: group.inverse_index(1))
    for query in queries:
        with pytest.raises(rg.NotAutomorphism, match=r"elements\[1\]"):
            query()


def test_group_refuses_maps_of_another_ring_and_indices_outside_it():
    f4, z4 = rg.make_ring(rg.gf(4)), rg.make_ring(rg.Zn(4))
    group = rg.automorphisms(f4)
    # the identity of Z4 has the image of the identity of GF(4)
    foreign = (rg.identity_automorphism(z4), rg.RingMorphism(f4, z4, np.arange(4)))
    for sigma in foreign:
        for query in (group.index_of, group.element_order):
            with pytest.raises(rg.NotAutomorphism):
                query(sigma)
    for i in (-2, -1, 2, 3):
        queries = (
            lambda: group.element_order(i),
            lambda: group.inverse_index(i),
            lambda: group.compose_indices(i, 0),
            lambda: group.compose_indices(0, i),
        )
        for query in queries:
            with pytest.raises(IndexError):
                query()
    assert group.element_order(1) == 2 and group.inverse_index(1) == 1
    assert group.compose_indices(1, 1) == 0


@pytest.mark.parametrize("index, expected", [(True, 1), (False, 0), (np.int64(1), 1), (np.uint8(0), 0)])
def test_group_queries_take_an_index_as_a_list_does(index, expected):
    group = rg.automorphisms(rg.make_ring(rg.gf(4)))
    assert group.compose_indices(index, 0) == group.compose_indices(0, index) == expected
    assert group.inverse_index(index) == expected
    assert group.element_order(index) == expected + 1


@pytest.mark.parametrize(
    "index",
    [1.0, np.float64(1), np.array([1, 2]), np.array([1]), "1", None],
    ids=["float", "numpy-float", "array", "one-element-array", "str", "None"],
)
def test_group_queries_refuse_an_index_that_is_no_integer(index):
    group = rg.automorphisms(rg.make_ring(rg.gf(4)))
    queries = (
        lambda: group.element_order(index),
        lambda: group.inverse_index(index),
        lambda: group.compose_indices(index, 0),
        lambda: group.compose_indices(0, index),
    )
    for query in queries:
        with pytest.raises(TypeError):
            query()


def _scan(rows, image):
    """The indices of the rows equal to `image`, by comparing every row."""
    return np.flatnonzero((rows == image).all(axis=1)).tolist()


def test_group_lookups_agree_with_a_scan_of_the_rows(entries32):
    rng = np.random.default_rng(11)
    for entry in entries32:
        ring = entry.ring
        group = rg.automorphisms(ring)
        rows = group._images.astype(np.int64)
        n = len(rows)
        # every pair in a small group, 300 random pairs in a large one
        pairs = [(i, j) for i in range(n) for j in range(n)] if n <= 48 else rng.integers(0, n, (300, 2))
        for i, j in pairs:
            assert [group.compose_indices(i, j)] == _scan(rows, rows[i][rows[j]]), str(entry.expr)
        for i in range(n) if n <= 168 else rng.integers(0, n, 300):
            assert [group.index_of(rg.RingMorphism(ring, ring, rows[i]))] == _scan(rows, rows[i])
            inverse = np.argsort(rows[i])
            assert [group.inverse_index(i)] == _scan(rows, inverse), str(entry.expr)


def test_group_refuses_a_map_that_agrees_with_an_element_on_the_generators_only():
    ring = rg.make_ring(rg.SquareZero(rg.gf(4), 2))
    group = rg.automorphisms(ring)
    # every row is keyed by its images of the generators
    assert group._gens.tolist() == list(rg.generating_set(ring))
    row = group._images[1].astype(np.int64)
    rest = np.setdiff1d(np.arange(ring.order), group._gens)
    a, b = rest[-2:]
    row[[a, b]] = row[[b, a]]  # a permutation still, and equal to elements[1] on the generators
    assert np.array_equal(row[group._gens], group._images[1][group._gens])
    with pytest.raises(rg.NotAutomorphism):
        group.index_of(rg.RingMorphism(ring, ring, row))
    with pytest.raises(ValueError, match="generator"):
        rg.AutGroup(ring, group._images, [group._images[1], row])


def test_a_listed_group_holds_its_rows_and_no_morphism(cold_ring_cache):
    ring = rg.make_ring(rg.SquareZero(rg.Zn(2), 4))
    rg.aut_group_order(ring)  # the chain is searched before the listing is traced
    tracemalloc.start()
    try:
        group = rg.automorphisms(ring)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(group) == 20160
    # the listing is 20160 rows of 32 int8 elements; the index is keyed by 4
    # generator images a row
    assert held < 5e6 and peak < 8e6, (held, peak)
    # no RingMorphism is built before `elements` is read
    assert "elements" not in vars(group)
    assert group.elements[0] == rg.identity_automorphism(ring)


def test_group_generators_are_the_rows_its_queries_read():
    f8 = rg.make_ring(rg.gf(8))
    frob = rg.RingMorphism(f8, f8, [f8.pow(x, 2) for x in range(8)])
    closure = rg.subgroup_closure(f8, [frob])
    assert closure._gen_rows == [closure.index_of(frob)]
    assert closure.orbits() == rg.AutGroup(f8, closure._images).orbits()
    assert rg.subgroup_closure(f8, [])._gen_rows == []
    with pytest.raises(ValueError, match="generator"):
        rg.AutGroup(f8, closure._images[:1], [frob.image])


# -- invariants over the catalog ----------------------------------------------


def test_soundness_and_prime_subring_fixing(entries32):
    for entry in entries32:
        ring = entry.ring
        group = rg.automorphisms(ring)
        # every listed map at once, by the full O(n^2) table check
        images = np.stack([sigma.image for sigma in group])
        assert table_homomorphism(ring, ring, images).all(), str(entry.expr)
        chain = ring.prime_subring
        for sigma in group:
            assert sigma.is_bijective
            for x in chain:
                assert sigma(x) == x, str(entry.expr)


def test_orbit_sizes_divide_group_order(entries32):
    for entry in entries32:
        group = rg.automorphisms(entry.ring)
        for block in group.orbits():
            assert group.order % len(block) == 0, str(entry.expr)


def test_identity_is_element_zero(entries32):
    for entry in entries32:
        group = rg.automorphisms(entry.ring)
        assert np.array_equal(group.elements[0].image, np.arange(entry.ring.order))


def test_product_of_distinct_locals_aut_factorizes():
    samples = [
        (rg.Zn(4), rg.Zn(3)),
        (rg.gf(4), rg.PolyQuot(5, (0, 0, 1)), rg.Zn(3)),
        (rg.Zn(8), rg.Zn(9)),
        (rg.SquareZero(rg.Zn(2), 2), rg.Zn(5)),
    ]
    for exprs in samples:
        rings = [rg.make_ring(e) for e in exprs]
        prod = rg.make_ring(rg.Prod(tuple(exprs)))
        expected = 1
        for r in rings:
            expected *= rg.aut_group_order(r)
        group = rg.automorphisms(prod)
        assert group.order == expected
        # every automorphism fixes each primitive idempotent, i.e. restricts
        prims = sorted(
            e
            for e in rg.idempotents(prod)
            if e != prod.zero
            and not any(
                f not in (prod.zero, e) and prod.mul(e, f) == f
                for f in rg.idempotents(prod)
            )
        )
        for sigma in group:
            for e in prims:
                assert sigma(e) == e


def test_product_with_repeated_factor_has_even_aut():
    for exprs in [(rg.Zn(4), rg.Zn(4)), (rg.gf(4), rg.gf(4), rg.Zn(3))]:
        prod = rg.make_ring(rg.Prod(tuple(exprs)))
        order = rg.aut_group_order(prod)
        assert order > 1 and order % 2 == 0


def test_symmetric_power_aut_is_factorial():
    for p, k, m in ((2, 2, 2), (3, 1, 2), (2, 1, 1)):
        prod = rg.make_ring(rg.Prod(tuple(rg.Zn(p**k) for _ in range(m))))
        assert rg.aut_group_order(prod) == math.factorial(m)


# -- engine behavior ----------------------------------------------------------


def test_search_budget_raises_on_fresh_ring():
    ring = fresh_copy(rg.make_ring(rg.PolyQuot(5, (0, 0, 1))))
    with pytest.raises(rg.SearchBudgetExceeded):
        rg.automorphisms(ring, budget=3)


def test_budget_counts_element_images_in_search_and_listing():
    # SZ(Z2,2): its chain search fixes 8 element images, and listing its 6
    # automorphisms writes 6 * 8 = 48
    ring = fresh_copy(rg.make_ring(rg.SquareZero(rg.Zn(2), 2)))
    assert rg.aut_group_order(ring, budget=8) == 6
    with pytest.raises(rg.SearchBudgetExceeded):
        rg.aut_group_order(fresh_copy(ring), budget=7)
    with pytest.raises(rg.SearchBudgetExceeded, match="48 element images"):
        rg.automorphisms(fresh_copy(ring), budget=47)
    assert rg.automorphisms(fresh_copy(ring), budget=48).order == 6


def test_budget_is_charged_before_a_batch_is_allocated(monkeypatch):
    # SZ(GF(4),2): the chain's first level offers more candidates than the
    # budget allows, so it raises with no candidate rows built
    ring = rg.make_ring(rg.SquareZero(rg.gf(4), 2))
    batches = []
    repeat = np.repeat
    monkeypatch.setattr(np, "repeat", lambda *a, **k: batches.append(a) or repeat(*a, **k))
    for budget in (0, 1, 2):
        with pytest.raises(rg.SearchBudgetExceeded):
            rg.aut_group_order(fresh_copy(ring), budget=budget)
    assert batches == []
    assert rg.aut_group_order(fresh_copy(ring)) == 360 and batches


def _answers(query, ring, budget) -> bool:
    try:
        query(ring, budget=budget)
    except rg.SearchBudgetExceeded:
        return False
    return True


def test_cached_chain_answers_only_where_a_fresh_one_does():
    # Z12 is its prime subring, so its chain searches nothing
    cases = ((rg.gf(4), True), (rg.PolyQuot(5, (0, 0, 1)), True),
             (rg.SquareZero(rg.Zn(2), 2), True), (rg.Zn(12), False))
    for expr, searches in cases:
        ring = fresh_copy(rg.make_ring(expr))
        rg.automorphisms(ring)
        need = ring._derived["aut_chain"].nodes
        assert (need > 0) == searches, str(expr)
        for query in (rg.aut_group_order, rg.aut_orbits, rg.aut_orbit_graph, rg.automorphisms):
            for budget in {0, 3, max(need - 1, 0), need, 10**7}:
                want = _answers(query, fresh_copy(ring), budget)
                assert _answers(query, ring, budget) == want, (str(expr), query, budget)
                if query is rg.aut_group_order:
                    assert want == (budget >= need), (str(expr), budget)


def _sha256(images):
    return hashlib.sha256(np.asarray(images, dtype=np.int64).tobytes()).hexdigest()


def test_chain_keeps_no_closure_plan(monkeypatch, cold_ring_cache):
    ring = rg.make_ring(rg.SquareZero(rg.gf(4), 2))
    plans = _count_plans(monkeypatch)
    assert rg.aut_group_order(ring) == 360
    assert plans == [ring] and not _holds_plan(ring._derived)
    chain = ring._derived["aut_chain"]
    assert chain.orbits and chain.strong and chain.labels.shape == (ring.order,)
    need = chain.nodes
    assert need == 756
    with pytest.raises(rg.SearchBudgetExceeded):
        rg.aut_group_order(ring, budget=need - 1)
    assert rg.aut_group_order(ring, budget=need) == 360
    # the cached chain answers without a plan
    assert plans == [ring] and not _holds_plan(ring._derived)
    # the answers recorded when the chain cached the plan it searched with
    copy, _ = shuffled_copy(ring, np.random.default_rng(5))
    iso = rg.isomorphism(ring, copy)
    assert _sha256(iso.image) == "68cbdd90222f477aad0dffd7c32fbc06266f4aa941b495d67a50a4db94558453"
    assert iso.is_homomorphism and iso.is_bijective
    group = rg.automorphisms(ring)
    assert len(group) == 360
    assert _sha256(group._images) == (
        "a889c3adafe48be939971afc68a5cf4230c254717723d8be415bbef535a90e16"
    )
    assert rg.generating_set(ring) == (2, 4, 16)


def test_operations_build_their_own_plan_and_keep_none(catalog64, monkeypatch, cold_ring_cache):
    # Z_n answers without a plan, and a group too large to list raises
    sample = [
        e for e in catalog64.entries[::5]
        if e.ring.characteristic < e.ring.order
        and rg.aut_group_order(e.ring) * e.ring.order <= 10**6
    ]
    assert sum(e.provenance == "product" for e in sample) >= 20
    # the filter above built the sampled rings into the registry; empty it,
    # so that make_ring builds each one afresh however the tests run
    rings._RINGS.clear()
    rng = np.random.default_rng(19)
    plans = _count_plans(monkeypatch)

    def built(call):
        before = len(plans)
        return call(), len(plans) - before

    for entry in sample:
        ring, label = rg.make_ring(entry.expr), str(entry.expr)
        assert ring is not entry.ring, label
        rg.aut_group_order(ring)
        copy, _ = shuffled_copy(ring, rng)
        iso, n_iso = built(lambda: rg.isomorphism(ring, copy))
        counts = [n_iso] + [
            built(call)[1]
            for call in (
                lambda: rg.automorphisms(ring),
                lambda: rg.generating_set(ring),
                lambda: iso.is_homomorphism,
            )
        ]
        assert counts == [1, 1, 1, 1], label
        assert not _holds_plan(ring._derived), label


def test_enumeration_is_deterministic():
    a = fresh_copy(rg.make_ring(rg.SquareZero(rg.Zn(2), 2)))
    b = fresh_copy(rg.make_ring(rg.SquareZero(rg.Zn(2), 2)))
    ga, gb = rg.automorphisms(a), rg.automorphisms(b)
    assert [tuple(s.image) for s in ga] == [tuple(s.image) for s in gb]


def test_generating_set_matches_naive(entries32):
    for entry in entries32:
        if entry.ring.order > 16:
            continue
        assert list(rg.generating_set(entry.ring)) == naive_generating_set(entry.ring)


def test_oracle_equivalence_sample():
    for expr in [rg.Zn(16), rg.gf(16), rg.PolyQuot(3, (0, 0, 1)), rg.Prod((rg.Zn(2),) * 3)]:
        ring = rg.make_ring(expr)
        mine = {tuple(map(int, s.image)) for s in rg.automorphisms(ring)}
        assert mine == oracle_automorphism_images(ring), str(expr)


def test_isomorphism_found_under_relabeling(entries32):
    rng = np.random.default_rng(20240817)
    for entry in entries32:
        if entry.ring.order > 24:
            continue
        twisted, perm = shuffled_copy(entry.ring, rng)
        iso = rg.isomorphism(entry.ring, twisted)
        assert iso is not None, str(entry.expr)
        assert iso.is_homomorphism and iso.is_bijective


def test_relabelled_cyclic_ring_is_split_by_its_idempotents():
    z30 = rg.make_ring(rg.Zn(30))
    twisted, _ = shuffled_copy(z30, np.random.default_rng(30))
    # the presentation claims Z30, but element k is not k*1
    twisted = rg.FiniteRing(twisted.add_table, twisted.mul_table, twisted.zero, twisted.one,
                            rg.Zn(30), twisted.element_names)
    factors, iso = rg.decompose_local(twisted)
    assert "idempotents" in twisted._derived
    expected = rg.decompose_local(z30)[0]
    assert [f.order for f in factors] == [f.order for f in expected] == [2, 3, 5]
    for f, g in zip(factors, expected):
        assert rg.isomorphism(f, g) is not None
    assert iso.is_bijective and table_homomorphism(twisted, iso.target, iso.image).all()


def test_search_matches_oracle_on_relabeled_rings():
    rng = np.random.default_rng(7)
    exprs = [
        rg.SquareZero(rg.Zn(2), 2),
        rg.gf(16),
        rg.PolyQuot(4, (1, 1, 1)),
        rg.Prod((rg.Zn(2), rg.Zn(2), rg.Zn(4))),
        rg.PolyQuot(3, (0, 0, 0, 1)),
    ]
    for expr in exprs:
        base = rg.make_ring(expr)
        twisted, _ = shuffled_copy(base, rng)
        mine = {tuple(map(int, s.image)) for s in rg.automorphisms(twisted)}
        assert mine == oracle_automorphism_images(twisted), str(expr)
        assert len(mine) == rg.aut_group_order(base), str(expr)


def test_field_aut_orders_are_extension_degrees():
    from ringgraph.expr import prime_power

    for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256):
        _, e = prime_power(q)
        field = rg.make_ring(rg.gf(q))
        assert rg.aut_group_order(field) == e, q
        # the whole group is generated by the squaring/p-th power map
        group = rg.automorphisms(field)
        p = prime_power(field.characteristic)[0]
        frob = rg.RingMorphism(field, field, [field.pow(x, p) for x in range(q)])
        assert rg.subgroup_closure(field, [frob]).order == group.order


def test_odd_dual_number_aut_is_unit_count():
    for n in (3, 5, 7, 9, 11, 15, 21, 25, 27):
        ring = rg.make_ring(rg.PolyQuot(n, (0, 0, 1)))
        assert rg.aut_group_order(ring) == rg.euler_phi(n), n


def test_deep_chain_on_relabelled_square_zero_ring():
    ring, _ = shuffled_copy(rg.make_ring(rg.SquareZero(rg.gf(4), 3)), np.random.default_rng(29))
    assert len(rg.generating_set(ring)) == 5
    # |GL(3,4)| times the Frobenius of GF(4)
    assert rg.aut_group_order(ring) == 362880


def test_deep_square_zero_chain_is_gl_8_2():
    ring = fresh_copy(rg.make_ring(rg.SquareZero(rg.Zn(2), 8)))
    # Aut acts on the square-zero ideal F_2^8 as GL(8,2)
    assert rg.aut_group_order(ring) == math.prod(2**8 - 2**i for i in range(8))


def test_square_zero_over_gf8_answers_under_the_default_budget():
    # a level-1 image of x must be a root of x's minimal polynomial; the
    # other three elements of its fingerprint class fail level 1's checks
    ring = fresh_copy(rg.make_ring(rg.SquareZero(rg.gf(8), 3)))
    # |GL(3,8)| times the Frobenius of GF(8)
    assert rg.aut_group_order(ring) == math.prod(8**3 - 8**i for i in range(3)) * 3 == 346139136


def test_strong_generators_generate_the_group(entries32):
    for entry in entries32:
        ring = entry.ring
        gens = [rg.RingMorphism(ring, ring, g) for g in _stabilizer_chain(ring).strong]
        assert rg.subgroup_closure(ring, gens).order == rg.aut_group_order(ring), str(entry.expr)


def _traced_levels(ring):
    """Per chain level: the transversal traced over the strong generators fixing S_{i-1}."""
    plan, strong = rings._build_plan(ring), _stabilizer_chain(ring).strong
    levels = []
    for i in range(1, len(plan)):
        fixed = plan[i - 1].elements
        gens = [g for g in strong if np.array_equal(g[fixed], fixed)]
        levels.append(_transversal(ring.order, plan[i].gen, gens))
    return levels


def _listed_images(ring):
    """Every automorphism as a row, or None when the group is too large to list."""
    try:
        return rg.automorphisms(ring)._images
    except rg.SearchBudgetExceeded:
        return None


def test_strong_generator_orbits_match_every_representative(catalog64):
    for entry in catalog64.entries:
        ring = entry.ring
        expected = _blocks(_orbit_labels(ring.order, _stabilizer_chain(ring).strong))
        assert rg.aut_orbits(ring) == expected, str(entry.expr)
        reps = [rep for level in _traced_levels(ring) for rep in level.values()]
        assert _blocks(_orbit_labels(ring.order, reps)) == expected, str(entry.expr)
        images = _listed_images(ring)
        if images is not None:
            assert reference_orbits(ring.order, images) == expected, str(entry.expr)


def test_chain_levels_are_transversals(catalog64):
    def gl_order(m, q):
        return math.prod(q**m - q**j for j in range(m))

    sz25 = next(e.ring for e in catalog64.entries if str(e.expr) == "SZ(Z2,5)")
    sz26 = rg.make_ring(rg.SquareZero(rg.Zn(2), 6))
    extra = [
        sz26,
        shuffled_copy(rg.make_ring(rg.SquareZero(rg.gf(4), 2)), np.random.default_rng(3))[0],
    ]
    # the groups too large to list: |Aut SZ(Z2,m)| = |GL(m,2)|
    unlisted = {id(sz25): gl_order(5, 2), id(sz26): gl_order(6, 2)}
    for ring in [entry.ring for entry in catalog64.entries] + extra:
        plan = rings._build_plan(ring)
        chain = _stabilizer_chain(ring).orbits
        assert len(chain) == len(plan) - 1
        images = _listed_images(ring)
        order = unlisted[id(ring)] if images is None else len(images)
        assert math.prod(len(orbit) for orbit in chain) == order, ring
        strong = _stabilizer_chain(ring).strong
        for i, (orbit, level) in enumerate(zip(chain, _traced_levels(ring)), start=1):
            gen, fixed = plan[i].gen, plan[i - 1].elements
            ys = orbit.tolist()
            assert ys == sorted(set(ys)) and gen in ys, (ring, i)
            assert sorted(level) == ys, (ring, i)
            for y, rep in level.items():
                assert np.array_equal(rep[fixed], fixed), (ring, i, y)
                assert rep[gen] == y, (ring, i, y)
            if images is None:
                gens = [g for g in strong if np.array_equal(g[fixed], fixed)]
                reached = next(b for b in reference_orbits(ring.order, gens) if gen in b)
                assert list(reached) == ys, (ring, i)
            else:
                # exactness: the orbit is {sigma(g_i) : sigma in Aut R fixes S_{i-1}}
                fixing = (images[:, fixed] == fixed).all(axis=1)
                assert np.unique(images[fixing, gen]).tolist() == ys, (ring, i)


def test_chain_answers_survive_relabelling(catalog64):
    # a relabelling changes the generators, the candidate order and which
    # searches fail, so this exercises the unreachable-orbit pruning
    rng = np.random.default_rng(1)
    for entry in catalog64.entries:
        twisted, perm = shuffled_copy(entry.ring, rng)
        assert rg.aut_group_order(twisted) == rg.aut_group_order(entry.ring), str(entry.expr)
        moved = sorted(tuple(sorted(int(perm[x]) for x in b)) for b in rg.aut_orbits(entry.ring))
        assert sorted(rg.aut_orbits(twisted)) == moved, str(entry.expr)


def test_cyclic_isomorphism_onto_coprime_products():
    for n in range(2, 201):
        source = rg.make_ring(rg.Zn(n))
        for a in range(2, n // 2 + 1):
            b = n // a
            if a * b != n or math.gcd(a, b) != 1:
                continue
            target = rg.make_ring(rg.Prod((rg.Zn(a), rg.Zn(b))))
            iso = rg.isomorphism(source, target)
            assert iso is not None and iso.is_bijective, (a, b)
            assert table_homomorphism(source, target, iso.image).all(), (a, b)
    for cyclic, other in [
        (rg.Zn(4), rg.gf(4)),
        (rg.Zn(4), rg.PolyQuot(2, (0, 0, 1))),
        (rg.Zn(8), rg.SquareZero(rg.Zn(2), 2)),
        (rg.Zn(12), rg.Prod((rg.Zn(2), rg.Zn(6)))),
        (rg.Zn(36), rg.Prod((rg.Zn(6), rg.Zn(6)))),
    ]:
        a, b = rg.make_ring(cyclic), rg.make_ring(other)
        assert rg.isomorphism(a, b) is None and rg.isomorphism(b, a) is None, (cyclic, other)


def test_certificate_agrees_with_full_table_check():
    rng = np.random.default_rng(11)
    for entry in rg.build_catalog(128).entries:
        ring = entry.ring
        n = ring.order
        strong = _stabilizer_chain(ring).strong
        maps = [np.arange(n), *strong, *(g[h] for g in strong for h in strong)]
        perturbed = []
        for image in maps:
            if n > 1:
                swapped = image.copy()
                i, j = rng.choice(n, size=2, replace=False)
                swapped[[i, j]] = swapped[[j, i]]
                perturbed.append(swapped)
        rest = np.setdiff1d(np.arange(n), [ring.zero, ring.one])
        for _ in range(3):
            shuffled = np.arange(n)
            shuffled[rest] = rng.permutation(rest)
            perturbed.append(shuffled)
        rows = np.stack(maps + perturbed)
        expected = table_homomorphism(ring, ring, rows)
        assert expected[: len(maps)].all(), str(entry.expr)
        assert np.array_equal(_certify(ring, ring, rows), expected), str(entry.expr)
        assert np.array_equal(_certify(ring, ring, rows, injective=False), expected)
        assert rg.RingMorphism(ring, ring, rows[-1]).is_homomorphism == expected[-1]


def test_order_one_ring_certifies():
    ring = fresh_copy(rg.make_ring(rg.Zn(1)))
    assert rg.identity_automorphism(ring).is_homomorphism
    assert _certify(ring, ring, np.zeros((2, 1), dtype=np.int64)).all()
    assert rg.aut_group_order(ring) == 1
    assert rg.aut_orbits(ring) == ((0,),)
    assert rg.automorphisms(ring).order == 1


def _recipe_rows(ring, rng, count=48):
    """Rows replayed along the ring's plan from generator images: those of
    the identity and of the strong generators, then `count` random ones.

    Each row maps c*1 -> c*1 and its generators to their images; every
    other image follows the plan's steps.  Returns the plan, the rows and,
    per level, the failing entries of its "add" check (wrap edges) and of
    its "mul" check (products), one row of flags per row.
    """
    plan = rings._build_plan(ring)
    gens = [level.gen for level in plan[1:]]
    n = ring.order
    real = np.stack([np.arange(n), *_stabilizer_chain(ring).strong])[:, gens]
    rows = np.full((len(real) + count, n), -1, dtype=np.int64)
    rows[:, list(ring.prime_subring)] = ring.prime_subring
    rows[:, gens] = np.concatenate([real, rng.integers(n, size=(count, len(gens)))])
    tables = {"add": ring.add_table, "mul": ring.mul_table}
    for level in plan:
        for op, c, a, b in level.steps:
            rows[:, c] = tables[op][rows[:, a], rows[:, b]]
    assert (rows >= 0).all()  # the plan derives every element
    fails = [
        [rows[:, c] != tables[op][rows[:, a], rows[:, b]] for op, c, a, b in level.checks]
        for level in plan
    ]
    assert all([op for op, *_ in level.checks] == ["add", "mul"] for level in plan)
    return plan, rows, fails


def test_certificate_rejects_a_single_broken_wrap_edge_or_product(catalog64):
    # recipe rows satisfy every tree sum, so they can break only the levels'
    # checks, wrap edges and products; each failing entry is a sum or
    # product f does not preserve, so the rows are not homomorphisms, and
    # the rows that pass must be
    rng = np.random.default_rng(23)
    single_wrap = single_product = 0
    for entry in catalog64.entries:
        ring = rings._working_ring(entry.ring)
        plan, rows, fails = _recipe_rows(ring, rng)
        expected = table_homomorphism(ring, ring, rows)
        assert expected[: 1 + len(_stabilizer_chain(entry.ring).strong)].all(), str(entry.expr)
        loose = _certify(ring, ring, rows, plan, injective=False)
        assert np.array_equal(loose, expected), str(entry.expr)
        injective = (rows == ring.zero).sum(axis=1) == 1
        both = _certify(ring, ring, rows, plan)
        assert np.array_equal(both, expected & injective), str(entry.expr)
        n_wrap, n_product = (sum(f[k].sum(axis=1) for f in fails) for k in (0, 1))
        single_wrap += int(((n_wrap == 1) & (n_product == 0)).sum())
        single_product += int(((n_wrap == 0) & (n_product == 1)).sum())
    assert single_wrap > 0 and single_product > 0


def test_each_level_checks_the_homomorphisms_on_its_subring(catalog64):
    # a recipe row holds the checks of levels 0..i exactly when the full
    # table check restricted to S_i passes, and the search's own rows on
    # S_i pass it and are injective there
    rng = np.random.default_rng(29)
    partial = 0  # rows that hold some level below the last and fail a later one
    for entry in catalog64.entries:
        ring = rings._working_ring(entry.ring)
        plan, rows, _ = _recipe_rows(ring, rng)
        tables = {"add": ring.add_table, "mul": ring.mul_table}
        engine = autsearch._Engine(ring, ring)
        complete = table_homomorphism(ring, ring, rows)
        held = np.ones(len(rows), dtype=bool)
        for i, level in enumerate(plan):
            held &= autsearch._holds(tables, rows, level.checks)
            expected = table_homomorphism(ring, ring, rows, level.elements)
            assert np.array_equal(held, expected), (str(entry.expr), i)
            partial += int((held & ~complete).sum())
            if i:
                start = np.full(ring.order, -1, dtype=np.int64)
                start[plan[i - 1].elements] = plan[i - 1].elements
                found = engine.expand(start, i)
                assert table_homomorphism(ring, ring, found, level.elements).all(), (str(entry.expr), i)
                for row in found:
                    assert len(np.unique(row[level.elements])) == len(level.elements)
        assert held[: 1 + len(_stabilizer_chain(entry.ring).strong)].all(), str(entry.expr)
    assert partial > 0


def test_isomorphism_onto_relabelled_copy_is_a_table_homomorphism(catalog64):
    rng = np.random.default_rng(17)
    for entry in catalog64.entries:
        twisted, _ = shuffled_copy(entry.ring, rng)
        iso = rg.isomorphism(entry.ring, twisted)
        assert iso is not None and iso.is_bijective, str(entry.expr)
        assert table_homomorphism(entry.ring, twisted, iso.image).all(), str(entry.expr)


def test_cyclic_rings_need_no_fingerprints(cold_ring_cache):
    for n in (1, 2, 12, 64):
        ring = fresh_copy(rg.make_ring(rg.Zn(n)))
        assert rg.aut_group_order(ring) == 1
        assert rg.aut_orbits(ring) == tuple((x,) for x in range(n))
        assert "fingerprint_keys" not in ring._derived
    # the catalog files a Z_n from n, so no Z_n scans its fingerprints
    cat = rg.build_catalog(64)
    entries = [e.ring for e in cat.entries if isinstance(e.expr, rg.Zn)]
    cyclic = [ring for expr, ring in rings._RINGS.items() if isinstance(expr, rg.Zn)]
    assert len(cyclic) == len(entries) == 63
    assert not [str(ring) for ring in cyclic if "fingerprint_keys" in ring._derived]
    # the key that proves no scan ran is the one a scan fills
    rings._fingerprint_keys(cyclic[0])
    assert "fingerprint_keys" in cyclic[0]._derived


def test_cyclic_chain_builds_no_plan_or_tables(monkeypatch, cold_ring_cache):
    plans = _count_plans(monkeypatch)
    for n in (1, 2, 64, 128, 2048):
        ring = rg.make_ring(rg.Zn(n))
        assert rg.aut_group_order(ring) == 1, n
        assert "add_table" not in ring.__dict__, n
    assert plans == []


def _chain_answers(ring):
    _stabilizer_chain(ring)
    chain = ring._derived["aut_chain"]
    return (
        rg.aut_group_order(ring),
        [len(orbit) for orbit in chain.orbits],
        chain.labels.tobytes(),
        b"".join(s.tobytes() for s in chain.strong),
        chain.nodes,
    )


def test_chain_of_a_deferred_product_matches_the_built_one(catalog64):
    products = [e for e in catalog64.entries if e.provenance == "product"]
    assert len(products) > 200
    for entry in products:
        factors = entry.ring._derived["factors"]
        deferred, built = rg.product_ring(factors), rg.product_ring(factors)
        assert built.add_table.shape == (built.order, built.order)
        assert _chain_answers(deferred) == _chain_answers(built), str(entry.expr)
        # the search folded the tables for itself only
        assert "add_table" not in deferred.__dict__, str(entry.expr)


def test_orbit_sweep_matches_union_find():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 64, 300):
        for k in range(4):
            images = []
            for _ in range(k):
                # a permutation of a random part of the carrier, so that
                # orbits come in many sizes
                img = np.arange(n)
                part = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
                img[part] = rng.permutation(part)
                images.append(img)
            assert _blocks(_orbit_labels(n, images)) == reference_orbits(n, images), (n, k)


def test_cached_arrays_are_in_the_table_dtype(catalog64):
    for entry in catalog64.entries:
        ring = entry.ring
        rg.aut_group_order(ring)
        chain = ring._derived["aut_chain"]
        cached = (*chain.orbits, *chain.strong, chain.labels, rings._unit_indices(ring))
        dtype = rings._table_dtype(ring.order)
        assert all(array.dtype == dtype for array in cached), str(entry.expr)
    ring = fresh_copy(rg.make_ring(rg.SquareZero(rg.Zn(2), 4)))
    group = rg.automorphisms(ring)
    # the ring keeps its chain and no listing, so a second call lists afresh
    assert "aut_group" not in ring._derived
    again = rg.automorphisms(ring)
    assert again.order == 20160 and again.elements == group.elements
    # the listing too is one read-only array in the table dtype
    assert again._images.dtype == rings._table_dtype(ring.order)
    assert not again._images.flags.writeable


def test_cached_answers_are_read_only(cold_ring_cache):
    ring = rg.make_ring(rg.SquareZero(rg.Zn(2), 2))
    with pytest.raises(ValueError):
        _stabilizer_chain(ring).strong[0][:] = np.arange(8)
    z5 = rg.make_ring(rg.Zn(5))
    with pytest.raises(ValueError):
        z5._neg[2] = 0
    assert z5.neg(2) == 3
    group = rg.automorphisms(ring)
    assert "aut_group" not in ring._derived
    chain = _stabilizer_chain(ring)
    cached = [*chain.orbits, *chain.strong, chain.labels, rings._unit_indices(ring), ring._neg]
    for array in cached:
        with pytest.raises(ValueError):
            array[...] = 0
    assert rg.automorphisms(ring).elements == group.elements and len(ring.units) == 4


def _cycle_walk_order(image):
    """The order of a permutation, walking each cycle element by element."""
    seen = np.zeros(len(image), dtype=bool)
    order = 1
    for start in range(len(image)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = int(image[x])
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def test_element_order_matches_a_cycle_walk(entries32):
    for entry in entries32:
        group = rg.automorphisms(entry.ring)
        for i, sigma in enumerate(group):
            want = _cycle_walk_order(sigma.image)
            assert group.element_order(sigma) == group.element_order(i) == want, (str(entry.expr), i)


def _queued_products(ring_list):
    """The products `_stabilizer_chains` puts on its queue, in queue order."""
    products = [r for r in ring_list if r._build_tables is not None and r.characteristic != r.order]
    return sorted(products, key=lambda r: r.order, reverse=True)


def _watch_the_split(monkeypatch):
    """The rings whose chain this process searches, and the child's (index,
    record) pairs as this process loads them, each as a list filled from
    now on."""
    searched, theirs = [], []
    chain = autsearch._stabilizer_chain

    def searching(ring, budget=None):
        if "aut_chain" not in ring._derived:
            searched.append(ring)
        return chain(ring, budget)

    monkeypatch.setattr(autsearch, "_stabilizer_chain", searching)
    load = pickle.load

    def loading(file):
        pairs = load(file)
        theirs.extend(pairs)
        return pairs

    monkeypatch.setattr(pickle, "load", loading)
    return searched, theirs


@pytest.mark.skipif(not forks_here, reason="the split forks on Linux only")
@pytest.mark.parametrize("chain_split", [False, True], ids=["serial", "forked"], indirect=True)
@pytest.mark.parametrize("max_order", [64, 128])
def test_chain_records_from_the_child_equal_the_serial_ones(chain_split, max_order, monkeypatch):
    ring_list = [e.ring for e in rg.build_catalog(max_order).entries if e.ring.order > 1]
    products = _queued_products(ring_list)
    index = {id(r): i for i, r in enumerate(products)}
    searched, theirs = _watch_the_split(monkeypatch)
    before_meanwhile = []
    _stabilizer_chains(ring_list, meanwhile=lambda: before_meanwhile.append(len(searched)))
    assert len(chain_split.pids) == chain_split.forked
    # on either host this process searched every ring that is not a
    # product, then called `meanwhile` once, and took products after it
    others = [r for r in ring_list if id(r) not in index]
    assert before_meanwhile == [len(others)]
    assert [id(r) for r in searched[: len(others)]] == [id(r) for r in others]
    # the queue gave every product to exactly one process, and each took
    # its products in queue order; without a child this process took them all
    mine = [index[id(r)] for r in searched[len(others):]]
    child = [i for i, *_ in theirs]
    assert bool(child) == chain_split.forked and sorted(mine + child) == list(range(len(products)))
    assert mine == sorted(mine) and child == sorted(child)
    for ring in ring_list:
        record = ring._derived.pop("aut_chain")
        serial = _stabilizer_chain(ring)
        assert (len(record.orbits), len(record.strong), record.nodes) == (
            len(serial.orbits), len(serial.strong), serial.nodes
        )
        dtype = rings._table_dtype(ring.order)
        pairs = zip((*record.orbits, *record.strong, record.labels),
                    (*serial.orbits, *serial.strong, serial.labels))
        for got, want in pairs:
            assert got.dtype == want.dtype == dtype and not got.flags.writeable
            assert np.array_equal(got, want)


@pytest.mark.skipif(not forks_here, reason="the split forks on Linux only")
@pytest.mark.parametrize("chain_split", [True], ids=["forked"], indirect=True)
def test_a_queue_that_does_not_fit_its_pipe_is_searched_serially(chain_split, monkeypatch):
    # a Linux pipe holds 64 KiB by default: 16384 tokens of 4 bytes
    queue = autsearch._product_queue(16384)
    try:
        tokens = [os.read(queue, 4) for _ in range(16385)]
    finally:
        os.close(queue)
    assert [int.from_bytes(t, "little") for t in tokens[:-1]] == list(range(16384))
    assert tokens[-1] == b""
    assert autsearch._product_queue(16385) is None
    # without a queue the rings are searched here, and `meanwhile` is
    # called once, as it is with a child
    monkeypatch.setattr(autsearch, "_product_queue", lambda n: None)
    ring_list = [e.ring for e in rg.build_catalog(16).entries if e.ring.order > 1]
    calls = []
    _stabilizer_chains(ring_list, meanwhile=lambda: calls.append(1))
    assert calls == [1]
    assert chain_split.pids == [] and all("aut_chain" in r._derived for r in ring_list)


@pytest.mark.skipif(not forks_here, reason="the split forks on Linux only")
@pytest.mark.parametrize("chain_split", [True], ids=["forked"], indirect=True)
@pytest.mark.parametrize("error", [rg.SearchBudgetExceeded, RuntimeError])
def test_a_half_that_ends_early_here_kills_the_child_unread(chain_split, error, monkeypatch):
    ring_list = [e.ring for e in rg.build_catalog(64).entries if e.ring.order > 1]
    parent = os.getpid()
    chain = autsearch._stabilizer_chain

    def failing_here(ring, budget=None):
        if os.getpid() == parent:
            raise error("this process's first search fails")
        return chain(ring, budget)

    monkeypatch.setattr(autsearch, "_stabilizer_chain", failing_here)
    kills = []
    kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append((pid, sig)) or kill(pid, sig))
    if error is rg.SearchBudgetExceeded:
        _stabilizer_chains(ring_list)  # over the budget: the batch ends and the call returns
    else:
        with pytest.raises(RuntimeError, match="first search fails"):
            _stabilizer_chains(ring_list)
    assert kills == [(*chain_split.pids, signal.SIGKILL)]
    # this process's first search failed, and the child was killed unread
    assert not [r for r in ring_list if "aut_chain" in r._derived]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_aut_group_refuses_rows_that_are_not_automorphisms():
    f4 = rg.make_ring(rg.gf(4))
    # a second row that is no bijection, and one that moves 1
    for rows in ([[0, 1, 2, 3], [0, 1, 3, 3]], [[0, 1, 2, 3], [0, 2, 1, 3]]):
        with pytest.raises(ValueError, match="automorphisms"):
            rg.AutGroup(f4, rows)
    assert rg.AutGroup(f4, rg.automorphisms(f4)._images).order == 2


def test_automorphisms_certifies_its_listing_once_in_the_group(monkeypatch):
    ring = rg.make_ring(rg.SquareZero(rg.Zn(2), 2))
    calls = []
    certify = autsearch._certify
    monkeypatch.setattr(
        autsearch, "_certify", lambda *a, **k: calls.append(len(np.atleast_2d(a[2]))) or certify(*a, **k)
    )
    rg.aut_group_order(ring)
    calls.clear()
    assert rg.automorphisms(ring).order == 6
    assert calls == [6]


@pytest.mark.parametrize("budget", ["x", 1.5, True, False, np.float64(3), -1, np.int64(-1)])
def test_a_budget_that_is_not_an_integer_is_refused(budget):
    ring = fresh_copy(rg.make_ring(rg.gf(4)))
    with pytest.raises(ValueError, match="budget must be an integer >= 0"):
        rg.aut_group_order(ring, budget=budget)
    # a ring tested against itself needs no search, but its budget is checked
    with pytest.raises(ValueError, match="budget must be an integer >= 0"):
        rg.isomorphism(ring, ring, budget=budget)
    with pytest.raises(ValueError, match="budget must be an integer >= 0"):
        rg.aut_group_order(rg.make_ring(rg.Zn(2)), budget=budget)
    assert rg.aut_group_order(ring, budget=np.int64(100)) == 2


@pytest.mark.skipif(not forks_here, reason="the split forks on Linux only")
@pytest.mark.parametrize("chain_split", [True], ids=["forked"], indirect=True)
def test_a_ring_the_child_does_not_finish_is_searched_by_the_sweep(chain_split, monkeypatch):
    catalog = rg.build_catalog(64)
    ring_list = [e.ring for e in catalog.entries if e.ring.order > 1]
    products = _queued_products(ring_list)
    searched, theirs = _watch_the_split(monkeypatch)
    parent = os.getpid()
    chain = autsearch._stabilizer_chain
    taken = []  # filled in the child only

    def failing_in_the_child(ring, budget=None):
        if os.getpid() != parent:
            taken.append(ring)
            if len(taken) == 2:
                raise RuntimeError("the child's second search fails")
        return chain(ring, budget)

    monkeypatch.setattr(autsearch, "_stabilizer_chain", failing_in_the_child)
    _stabilizer_chains(ring_list)
    assert len(chain_split.pids) == 1
    # the child's first record arrived, its batch ended at its second
    # product, and this process took every product after that one
    assert len(theirs) == 1
    missing = [r for r in products if "aut_chain" not in r._derived]
    assert len(missing) == 1 and all(r is not missing[0] for r in searched)
    failing = missing[0]
    report = classify.verify_trivial_aut_classification(catalog)
    assert all("aut_chain" in r._derived for r in ring_list)
    # one product was left, so the sweep's own call searched it here
    assert len(chain_split.pids) == 1 and searched[-1] is failing
    # the same report, and the same record, as a serial run on fresh rings
    rings._RINGS.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    fresh = rg.build_catalog(64)
    assert classify.verify_trivial_aut_classification(fresh) == report
    assert len(chain_split.pids) == 1
    name = next(e.expr for e in catalog.entries if e.ring is failing)
    got, want = (next(e.ring for e in cat.entries if e.expr == name)._derived["aut_chain"]
                 for cat in (catalog, fresh))
    assert got.nodes == want.nodes and len(got.strong) == len(want.strong)
    assert all(np.array_equal(a, b) for a, b in zip(got.strong, want.strong))
