import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

import ringgraph as rg
from _oracle import (
    naive_generating_set,
    oracle_automorphism_images,
    reference_orbits,
    table_homomorphism,
)
from ringgraph import rings
from ringgraph.autsearch import (
    _blocks,
    _certify,
    _orbit_labels,
    _stabilizer_chain,
    _strong_generators,
    _transversal,
)
from ringgraph.classify import _LocalRegistry
from ringgraph.rings import _certificate, _closure_plan


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


def test_isomorphism_of_a_ring_onto_itself_is_the_identity(entries32):
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
    assert rg.isomorphism(ring, ring) is not None
    assert not {"closure_plan", "fingerprint_keys"} & ring._derived.keys()
    # the keys that prove no plan or scan ran are the ones those fill
    assert rg.isomorphism(ring, fresh_copy(ring)) is not None
    assert {"closure_plan", "fingerprint_keys"} <= ring._derived.keys()


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
        chain = ring.prime_subring
        for sigma in group:
            assert sigma.is_homomorphism and sigma.is_bijective
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
        need = ring._aut_cache["nodes"]
        assert (need > 0) == searches, str(expr)
        for query in (rg.aut_group_order, rg.aut_orbits, rg.aut_orbit_graph, rg.automorphisms):
            for budget in {0, 3, max(need - 1, 0), need, 10**7}:
                want = _answers(query, fresh_copy(ring), budget)
                assert _answers(query, ring, budget) == want, (str(expr), query, budget)
                if query is rg.aut_group_order:
                    assert want == (budget >= need), (str(expr), budget)


def _sha256(images):
    return hashlib.sha256(np.asarray(images, dtype=np.int64).tobytes()).hexdigest()


def test_chain_keeps_no_closure_plan(cold_ring_cache):
    ring = rg.make_ring(rg.SquareZero(rg.gf(4), 2))
    assert rg.aut_group_order(ring) == 360
    assert "closure_plan" not in ring._derived
    assert {"chain", "strong", "labels"} <= ring._aut_cache.keys()
    need = ring._aut_cache["nodes"]
    assert need == 756
    with pytest.raises(rg.SearchBudgetExceeded):
        rg.aut_group_order(ring, budget=need - 1)
    assert rg.aut_group_order(ring, budget=need) == 360
    assert "closure_plan" not in ring._derived
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


def shuffled_copy(ring, rng):
    """Relabel the carrier by a random permutation; an isomorphic ring."""
    n = ring.order
    perm = rng.permutation(n)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    add = perm[np.asarray(ring.add_table, dtype=np.int64)[np.ix_(inv, inv)]]
    mul = perm[np.asarray(ring.mul_table, dtype=np.int64)[np.ix_(inv, inv)]]
    names = [ring.element_names[int(inv[i])] for i in range(n)]
    return rg.FiniteRing(
        add.astype(ring.add_table.dtype),
        mul.astype(ring.mul_table.dtype),
        int(perm[ring.zero]),
        int(perm[ring.one]),
        None,
        names,
    ), perm


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


def test_strong_generators_generate_the_group(entries32):
    for entry in entries32:
        ring = entry.ring
        gens = [rg.RingMorphism(ring, ring, g) for g in _strong_generators(ring)]
        assert rg.subgroup_closure(ring, gens).order == rg.aut_group_order(ring), str(entry.expr)


def _traced_levels(ring):
    """Per chain level: the transversal traced over the strong generators fixing S_{i-1}."""
    plan, strong = _closure_plan(ring), _strong_generators(ring)
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
        expected = _blocks(_orbit_labels(ring.order, _strong_generators(ring)))
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
        plan = _closure_plan(ring)
        chain = _stabilizer_chain(ring)
        assert len(chain) == len(plan) - 1
        images = _listed_images(ring)
        order = unlisted[id(ring)] if images is None else len(images)
        assert math.prod(len(orbit) for orbit in chain) == order, ring
        strong = _strong_generators(ring)
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
        strong = _strong_generators(ring)
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


def _tree_rows(ring):
    """Maps extended along the certificate's additive coset tree.

    Each row is the identity on the additive generators but for one, which
    goes to any element; the other images follow the tree edges.  Returns
    the rows that fix 1 and, per row, the failing sum triples and product
    triples.
    """
    cert = _certificate(ring)
    gens = list(dict.fromkeys(cert.sums[2].tolist()))
    n = ring.order
    rows = np.tile(np.arange(n), (len(gens) * n, 1))
    for k, g in enumerate(gens):
        rows[k * n : (k + 1) * n, g] = np.arange(n)
    assigned = {ring.zero, *gens}
    for c, a, b in cert.sums.T.tolist():
        if c not in assigned:
            rows[:, c] = ring.add_table[rows[:, a], rows[:, b]]
            assigned.add(c)
    assert len(assigned) == n
    rows = rows[rows[:, ring.one] == ring.one]
    fails = [
        rows[:, c] != table[rows[:, a], rows[:, b]]
        for (c, a, b), table in ((cert.sums, ring.add_table), (cert.products, ring.mul_table))
    ]
    return rows, fails


def test_certificate_rejects_a_single_broken_wrap_edge_or_product(entries32):
    # rows that follow the tree can break only wrap edges and products; each
    # failing triple is a sum or product f does not preserve, so the rows
    # are not homomorphisms, and the rows that pass must be
    single_wrap = single_product = 0
    for entry in entries32:
        ring = entry.ring
        rows, (sum_fails, product_fails) = _tree_rows(ring)
        expected = table_homomorphism(ring, ring, rows)
        loose = _certify(ring, ring, rows, injective=False)
        assert np.array_equal(loose, expected), str(entry.expr)
        injective = (rows == ring.zero).sum(axis=1) == 1
        assert np.array_equal(_certify(ring, ring, rows), expected & injective), str(entry.expr)
        n_sum, n_product = sum_fails.sum(axis=1), product_fails.sum(axis=1)
        single_wrap += int(((n_sum == 1) & (n_product == 0)).sum())
        single_product += int(((n_sum == 0) & (n_product == 1)).sum())
    assert single_wrap > 0 and single_product > 0


def test_isomorphism_onto_relabelled_copy_is_a_table_homomorphism(catalog64):
    rng = np.random.default_rng(17)
    for entry in catalog64.entries:
        twisted, _ = shuffled_copy(entry.ring, rng)
        iso = rg.isomorphism(entry.ring, twisted)
        assert iso is not None and iso.is_bijective, str(entry.expr)
        assert table_homomorphism(entry.ring, twisted, iso.image).all(), str(entry.expr)


def test_cyclic_rings_need_no_fingerprints():
    for n in (1, 2, 12, 64):
        ring = fresh_copy(rg.make_ring(rg.Zn(n)))
        assert rg.aut_group_order(ring) == 1
        assert rg.aut_orbits(ring) == tuple((x,) for x in range(n))
        registry = _LocalRegistry(None)
        twisted, _ = shuffled_copy(ring, np.random.default_rng(n))
        assert registry.classify(ring) == registry.classify(twisted) == 0
        assert "fingerprint_keys" not in ring._derived | twisted._derived
        # the key that proves no scan ran is the one a scan fills
        rings._fingerprint_keys(twisted)
        assert "fingerprint_keys" in twisted._derived


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
