import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ringgraph as rg
from _oracle import table_homomorphism
from ringgraph import rings


def assert_ring_axioms(ring):
    """Exhaustive commutative-ring-with-identity check, independent loops."""
    n = ring.order
    add = np.asarray(ring.add_table, dtype=np.int64)
    mul = np.asarray(ring.mul_table, dtype=np.int64)
    idx = np.arange(n)
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[ring.zero] == idx).all()
    assert (mul[ring.one] == idx).all()
    assert (add == ring.zero).any(axis=1).all()  # additive inverses
    step = max(1, 4_000_000 // (n * n))
    for lo in range(0, n, step):
        a = idx[lo : lo + step][:, None, None]
        b = idx[None, :, None]
        c = idx[None, None, :]
        assert (add[add[a, b], c] == add[a, add[b, c]]).all()
        assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
        assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()


# -- construction -----------------------------------------------------------


def test_make_zn6():
    r = rg.make_ring(rg.Zn(6))
    assert r.order == 6 and r.characteristic == 6
    assert r.units == {1, 5}


def test_make_gf4():
    r = rg.make_ring(rg.GF(2, 2, (1, 1, 1)))
    assert r.order == 4 and r.characteristic == 2
    assert len(r.units) == 3


def test_make_dual_numbers_mod5():
    r = rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))
    assert r.order == 25
    # brute force over all 25 elements straight off the tables
    units = {x for x in range(25) if any(r.mul(x, y) == r.one for y in range(25))}
    nilp = {x for x in range(25) if any(r.pow(x, k) == r.zero for k in range(1, 26))}
    assert r.units == units and len(units) == 20
    assert r.nilpotents == nilp
    assert sorted(r.name(x) for x in nilp) == ["0", "2x", "3x", "4x", "x"]


def test_make_ring_errors():
    with pytest.raises(rg.InvalidModulus):
        rg.make_ring(rg.GF(2, 2, (1, 0, 1)))  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(rg.OrderLimitExceeded):
        rg.make_ring(rg.Zn(5000))
    with pytest.raises(rg.OrderLimitExceeded):
        rg.make_ring(rg.Zn(10), max_order=5)


def test_arithmetic_ops():
    r = rg.make_ring(rg.Zn(7))
    assert r.add(3, 5) == 1
    assert r.pow(3, 0) == 1
    assert r.neg(3) == 4
    d = rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))
    x = 5  # the class of the variable
    assert d.mul(x, x) == 0
    with pytest.raises(rg.IndexOutOfRange):
        r.add(0, 7)
    with pytest.raises(rg.IndexOutOfRange):
        r.mul(-1, 0)


def test_zero_ring_is_degenerate_but_usable():
    r = rg.make_ring(rg.Zn(1))
    assert r.order == 1 and r.zero == r.one
    assert r.characteristic == 1
    assert not rg.local_structure(r).is_local


# -- structure queries --------------------------------------------------------


def test_local_structure_examples():
    z4 = rg.local_structure(rg.make_ring(rg.Zn(4)))
    assert z4.is_local and z4.maximal_ideal == {0, 2} and z4.residue_field_order == 2
    assert not rg.local_structure(rg.make_ring(rg.Zn(6))).is_local
    d = rg.local_structure(rg.make_ring(rg.PolyQuot(5, (0, 0, 1))))
    assert d.is_local and len(d.maximal_ideal) == 5 and d.residue_field_order == 5


def test_decompose_z12():
    r = rg.make_ring(rg.Zn(12))
    factors, iso = rg.decompose_local(r)
    assert [f.order for f in factors] == [3, 4]
    assert rg.isomorphism(factors[0], rg.make_ring(rg.Zn(3))) is not None
    assert rg.isomorphism(factors[1], rg.make_ring(rg.Zn(4))) is not None
    assert iso.is_homomorphism and iso.is_bijective


def test_decompose_local_ring_is_identity():
    r = rg.make_ring(rg.Zn(8))
    factors, iso = rg.decompose_local(r)
    assert factors == [r]
    assert np.array_equal(iso.image, np.arange(8))


def test_decompose_local_leaves_no_reference_cycle():
    gc.disable()
    try:
        for expr in (rg.Zn(8), rg.Prod((rg.gf(4), rg.Zn(9)))):
            base = rg.make_ring(expr)
            for names in (base.element_names, lambda: base.element_names):
                ring = rg.FiniteRing(
                    base.add_table, base.mul_table, base.zero, base.one, None, names
                )
                factors, iso = rg.decompose_local(ring)
                assert all(len(f.element_names) == f.order for f in factors)
                alive = weakref.ref(ring)
                del ring, factors, iso
                assert alive() is None, str(expr)
    finally:
        gc.enable()


def test_lazy_element_names():
    calls = []

    def names():
        calls.append(1)
        return ["a", "b"]

    z2 = rg.make_ring(rg.Zn(2))
    ring = rg.FiniteRing(z2.add_table, z2.mul_table, 0, 1, None, names)
    assert calls == []
    assert ring.element_names == ("a", "b") and ring.name(1) == "b"
    assert calls == [1]


_REFERENCE_EXTRA = (
    rg.gf(64),
    rg.SquareZero(rg.gf(4), 2),
    rg.Prod((rg.Zn(4), rg.Zn(8), rg.Zn(3))),
    rg.PolyQuot(2, (0,) * 8 + (1,)),
)


def test_tables_match_independent_reference():
    from _oracle import all_family_candidates, reference_ring

    exprs = [rg.Zn(1)] + [e for _, e in all_family_candidates(32)] + list(_REFERENCE_EXTRA)
    for expr in exprs:
        ring, ref = rg.make_ring(expr), reference_ring(expr)
        assert np.array_equal(ring.add_table, ref.add), str(expr)
        assert np.array_equal(ring.mul_table, ref.mul), str(expr)
        assert (ring.zero, ring.one) == (ref.zero, ref.one), str(expr)
        assert list(ring.element_names) == ref.names, str(expr)


def test_decompose_product():
    r = rg.make_ring(rg.Prod((rg.gf(4), rg.Zn(9))))
    factors, iso = rg.decompose_local(r)
    assert sorted(f.order for f in factors) == [4, 9]
    assert iso.is_homomorphism and iso.is_bijective


def test_decompose_catalog(catalog64):
    for entry in catalog64.entries:
        factors, iso = rg.decompose_local(entry.ring)
        prod = 1
        for f in factors:
            assert rg.local_structure(f).is_local, str(entry.expr)
            prod *= f.order
        assert prod == entry.ring.order
        assert iso.is_homomorphism and iso.is_bijective, str(entry.expr)


_PRODUCTS = (
    "Z1 x Z2",
    "Z4 x Z1 x Z1",
    "Z6 x Z4",
    "GF(4) x GF(4) x Z2",
    "SZ(Z2,2) x Z12",
    "Z6[x]/(x^2+1) x Z3",
)


def _scanned_copy(ring):
    """The same tables with no recorded factors, so every query scans them."""
    return rg.FiniteRing(ring.add_table, ring.mul_table, ring.zero, ring.one, None, ring._names)


def _assert_product_matches_scan(ring, label):
    ref = _scanned_copy(ring)
    factors, iso = rg.decompose_local(ring)
    ref_factors, ref_iso = rg.decompose_local(ref)
    assert len(factors) == len(ref_factors), label
    for f, g in zip(factors, ref_factors):
        assert f.add_table.dtype == g.add_table.dtype, label
        assert f.mul_table.dtype == g.mul_table.dtype, label
        assert np.array_equal(f.add_table, g.add_table), label
        assert np.array_equal(f.mul_table, g.mul_table), label
        assert (f.zero, f.one) == (g.zero, g.one), label
    assert np.array_equal(iso.image, ref_iso.image), label
    assert iso.is_homomorphism and iso.is_bijective, label
    assert ring.fingerprints == ref.fingerprints, label
    assert rg.local_structure(ring) == rg.local_structure(ref), label
    assert ring.units == ref.units, label
    assert ring.prime_subring == ref.prime_subring, label


def test_product_factors_and_fingerprints_match_the_scan():
    from ringgraph.classify import build_catalog

    products = [e for e in build_catalog(128).entries if e.provenance == "product"]
    assert len(products) > 500
    rings = [(str(e.expr), e.ring) for e in products]
    rings += [(text, rg.make_ring(rg.parse_ring_expr(text))) for text in _PRODUCTS]
    for label, ring in rings:
        _assert_product_matches_scan(ring, label)
        # on a fresh copy, neither query scans the product's tables, and
        # decompose_local leaves them deferred
        fresh = rg.product_ring(ring._derived["factors"])
        assert rg.decompose_local(fresh)
        assert "add_table" not in fresh.__dict__, label
        assert fresh.fingerprints
        if sum(f.order > 1 for f in ring._derived["factors"]) >= 2:
            assert not rg.local_structure(fresh).is_local, label
        assert not {"idempotents", "units", "prime_subring"} & fresh._derived.keys(), label
        _assert_product_matches_scan(fresh, label)
        own = [p for f in ring._derived["factors"] for p in rg.decompose_local(f)[0]]
        pieces = rg.decompose_local(ring)[0]
        assert pieces == [ring] or all(any(p is q for q in own) for p in pieces), label
        # a fresh product answers its units and prime subring from its factors
        again = rg.product_ring(ring._derived["factors"])
        assert (again.units, again.prime_subring) == (ring.units, ring.prime_subring), label
        assert "add_table" not in again.__dict__, label


# ring -> table_digest, recorded when every table below order 2^15 was int16
_BOUNDARY_DIGESTS = {
    "Z127": "024e643815ecc613387e0c575876da437dff0048724bbb68da5527e6750b3d2f",
    "Z128": "f127c592f566dfd7481ebe517350b049bc2f0ed05c19a27e3c290a79855d08a2",
    "GF(121)": "6980778ae18d1032026744b16f47eb1a58d2d5e5300a01ba52e79d02ddcef964",
    "GF(125)": "9b437b236e772a0ee6031a382e0cd9893a128eb03eef52a3192afe2735caccab",
    "Z5[x]/(x^3)": "e981bbb817cc4ed62424054e7d894afdd2d00aea42a01228fa1db76e6824d3df",
    "SZ(Z5,2)": "736e8430d77a258e1b6f531db89f29d78b3793200000735c3e23a02a247d276c",
    "Z3 x Z41": "83b92fca31b0cf66e60df87b7cd00e2a439c9a8acd774e63cea75d077eac6fb2",
    "Z2 x Z64": "f04ff5a1db100fc0e0fdf2d6ae4b47075179e9ed71112a2acd14c1e5981cdccf",
    " x ".join(["Z2"] * 7): "0e347982ae113621df0a4d45cec93e1ca4da50f144029d97b17dd1b95402b71d",
}

# the local factors Z2, Z3, Z41 of Z3 x Z41 x Z2, in decompose_local order
_PIECE_DIGESTS = [
    "6b6c0da713eeb0cb1c2b43a41f3bc2bdb3354b25b6cfb861a5225867a5421436",
    "144a0f3314f6a101f14f677e86a11f5d2c5a9da28133060bb2fff2d79a2b9b48",
    "79b7c52c1825fc923eae0c1277d0e52fe100c69b10d56d6a69cd573cd8d265fe",
]


def _assert_in_table_dtype(ring, label):
    dt = rings._table_dtype(ring.order)
    assert ring.add_table.dtype == ring.mul_table.dtype == dt, label


def test_tables_at_the_dtype_boundaries_keep_their_digests(cold_ring_cache):
    assert [rings._table_dtype(n) for n in (1, 127, 128, 2**15 - 1, 2**15)] == [
        np.int8, np.int8, np.int16, np.int16, np.int32,
    ]
    for text, digest in _BOUNDARY_DIGESTS.items():
        ring = rg.make_ring(rg.parse_ring_expr(text))
        assert ring.table_digest() == digest, text
        _assert_in_table_dtype(ring, text)
    product = rg.make_ring(rg.parse_ring_expr("Z3 x Z41 x Z2"))
    # the product's own factors, and the pieces a scan of its tables cuts out
    for ring in (product, _scanned_copy(product)):
        pieces = rg.decompose_local(ring)[0]
        assert [p.table_digest() for p in pieces] == _PIECE_DIGESTS
        for piece in pieces:
            _assert_in_table_dtype(piece, repr(piece))


def test_product_of_a_factor_given_wide_tables_records_it():
    # a ring stores its tables in the table dtype, whatever it was given
    z2 = rg.make_ring(rg.Zn(2))
    wide = rg.FiniteRing(z2.add_table.astype(np.int64), z2.mul_table.astype(np.int64), 0, 1,
                         None, ["0", "1"])
    _assert_in_table_dtype(wide, "Z2 from int64 tables")
    ring = rg.product_ring([wide, rg.make_ring(rg.Zn(3))])
    assert ring._derived["factors"][0] is wide
    _assert_product_matches_scan(ring, "Z2 from int64 tables x Z3")
    assert rg.decompose_local(ring)[0][0] is wide
    nested = rg.product_ring([rg.make_ring(rg.Zn(6)), rg.make_ring(rg.gf(4))])
    _assert_product_matches_scan(nested, "Z6 x GF(4), unnamed")


def test_tables_zero_and_one_are_checked_on_construction():
    add, mul = rings._cyclic_tables(3)
    wrong = [
        (add.astype(float), mul, 0, 1),
        (add, mul.astype(float), 0, 1),
        (add.astype(bool), mul, 0, 1),
        (np.where(add == 2, -1, add), mul, 0, 1),
        (add, np.where(mul == 2, 3, mul), 0, 1),
        (add, mul, 3, 1),
        (add, mul, 0, 3),
        (add, mul, -1, 1),
        (np.array(0), np.array(0), 0, 0),  # 0-d tables
    ]
    for a, m, zero, one in wrong:
        with pytest.raises(ValueError):
            rg.FiniteRing(a, m, zero, one, None, ["0", "1", "2"])
    with pytest.raises(ValueError):
        rings.FiniteRing._deferred(3, lambda: (add, mul), 5, 1, None, [])
    # in range and integer, in any integer dtype: stored in the table dtype
    ring = rg.FiniteRing(add.astype(np.uint16), mul.tolist(), 0, 1, None, ["0", "1", "2"])
    _assert_in_table_dtype(ring, "Z3 from uint16 and list tables")
    assert np.array_equal(ring.add_table, add) and np.array_equal(ring.mul_table, mul)


def test_local_factors_of_a_product_build_no_factor_table(cold_ring_cache):
    ring = rg.make_ring(rg.Prod((rg.Zn(2), rg.Zn(3))))
    factors = ring._derived["factors"]
    assert rings._local_factors(ring) == list(factors)
    assert not any(map(_tables_built, factors))


def test_product_pieces_carry_their_factors_names():
    ring = rg.make_ring(rg.parse_ring_expr("Z2[x]/(x^2) x Z3"))
    factors, _ = rg.decompose_local(ring)
    assert [f.element_names for f in factors] == [("0", "1", "2"), ("0", "1", "x", "x+1")]
    ref_factors, _ = rg.decompose_local(_scanned_copy(ring))
    assert ref_factors[1].element_names == ("(0,0)", "(1,0)", "(x,0)", "(x+1,0)")


def test_decomposing_a_product_leaves_no_reference_cycle():
    gc.disable()
    try:
        inner = rg.make_ring(rg.Prod((rg.Zn(2), rg.Zn(3))))
        for parts in ([rg.gf(4), rg.Zn(9)], [rg.Zn(4), rg.Zn(1)]):
            ring = rg.product_ring([inner] + [rg.make_ring(e) for e in parts])
            factors, iso = rg.decompose_local(ring)
            assert ring.fingerprints and iso.is_homomorphism
            alive, target = weakref.ref(ring), weakref.ref(iso.target)
            del ring, factors, iso
            assert alive() is None and target() is None, parts
    finally:
        gc.enable()


def _assert_split_matches_scan(ring, label):
    split, ref_split = rings._local_split(ring), rings._local_split(_scanned_copy(ring))
    if ref_split is None:
        assert split is None, label
        return
    assert len(split) == len(ref_split), label
    for (f, e), (g, ref_e) in zip(split, ref_split):
        assert f.order == g.order and e == ref_e, label
        assert (f.add_table.dtype, f.mul_table.dtype) == (g.add_table.dtype, g.mul_table.dtype)
        assert np.array_equal(f.add_table, g.add_table), label
        assert np.array_equal(f.mul_table, g.mul_table), label
        assert (f.zero, f.one) == (g.zero, g.one), label
        assert f.element_names == g.element_names, label
    image = rg.decompose_local(ring)[1].image
    assert np.array_equal(image, rg.decompose_local(_scanned_copy(ring))[1].image), label


def _assert_factors_match_pieces(factors, pieces, label):
    """Same orders, and each factor maps onto its piece by a verified isomorphism."""
    assert [f.order for f in factors] == [p.order for p in pieces], label
    for f, piece in zip(factors, pieces):
        iso = rg.isomorphism(f, piece)
        assert iso is not None and iso.is_bijective, label
        assert table_homomorphism(f, piece, iso.image).all(), label


def test_cyclic_split_matches_the_scan():
    for n in range(1, 257):
        ring = rings._make_zn(rg.Zn(n))
        _assert_split_matches_scan(ring, n)
    for text in _PRODUCTS:
        expr = rg.parse_ring_expr(text)
        ring = rg.make_ring(expr)
        pieces = rg.decompose_local(_scanned_copy(ring))[0]
        _assert_factors_match_pieces(rings._local_factors(ring), pieces, text)
    for modulus in ((5, 1), (0, 1), (11, 1)):
        ring = rg.make_ring(rg.PolyQuot(12, modulus))
        _assert_split_matches_scan(ring, modulus)
        assert [f.element_names for f in rg.decompose_local(ring)[0]] == [
            ("0", "4", "8"), ("0", "3", "6", "9")]


def test_cyclic_prime_subring_is_recorded_and_matches_the_scan():
    cyclic = [rings._make_zn(rg.Zn(n)) for n in range(1, 257)]
    cyclic += [
        rings._make_polyquot(n, (c, 1), rg.PolyQuot(n, (c, 1)))
        for n in (2, 6, 9, 12) for c in range(n)
    ]
    for ring in cyclic:
        assert ring.characteristic == ring.order and not _tables_built(ring), str(ring)
        assert ring.prime_subring == _scanned_copy(ring).prime_subring, str(ring)


def test_splitting_a_cyclic_ring_leaves_no_reference_cycle():
    gc.disable()
    try:
        ring = rings._make_zn(rg.Zn(60))
        factors, iso = rg.decompose_local(ring)
        assert [f.order for f in factors] == [3, 4, 5] and iso.is_homomorphism
        assert factors[0].element_names == ("0", "20", "40")
        refs = [weakref.ref(r) for r in (ring, iso.target, *factors)]
        del ring, factors, iso
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_idempotents():
    assert rg.idempotents(rg.make_ring(rg.Zn(4))) == {0, 1}
    assert rg.idempotents(rg.make_ring(rg.Zn(6))) == {0, 1, 3, 4}
    assert rg.idempotents(rg.make_ring(rg.gf(9))) == {0, 1}


def test_annihilator():
    z8 = rg.make_ring(rg.Zn(8))
    assert rg.annihilator(z8, 2) == {0, 4}
    assert rg.annihilator(z8, 0) == set(range(8))
    d = rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))
    assert rg.annihilator(d, 5) == {0, 5, 10, 15, 20}


def test_socle():
    assert rg.socle(rg.make_ring(rg.Zn(8))) == {0, 4}
    f9 = rg.make_ring(rg.gf(9))
    assert rg.socle(f9) == set(range(9))  # zero maximal ideal: degenerate case
    sz = rg.make_ring(rg.SquareZero(rg.Zn(2), 2))
    names = {sz.name(x) for x in rg.socle(sz)}
    assert names == {"0", "x1", "x2", "x1+x2"}
    with pytest.raises(rg.NotLocal):
        rg.socle(rg.make_ring(rg.Zn(6)))


def test_euler_phi():
    assert rg.euler_phi(9) == 6
    assert rg.euler_phi(1) == 1
    assert rg.euler_phi(15) == 8
    with pytest.raises(ValueError):
        rg.euler_phi(0)


def test_units_count_equals_phi():
    for n in range(1, 201):
        r = rg.make_ring(rg.Zn(n))
        assert len(r.units) == rg.euler_phi(n), n


def test_prime_power_unit_counts():
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            r = rg.make_ring(rg.Zn(p**k))
            assert len(r.units) == p ** (k - 1) * (p - 1)


def test_fingerprint_examples():
    z4 = rg.make_ring(rg.Zn(4))
    assert rg.element_fingerprint(z4, 0) == rg.element_fingerprint(z4, 0)
    f1 = rg.element_fingerprint(z4, 1)
    f3 = rg.element_fingerprint(z4, 3)
    assert f1 != f3 and f1[3] == 1 and f3[3] == 2  # multiplicative orders
    d = rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))
    fps = {rg.element_fingerprint(d, x) for x in (5, 10, 15, 20)}
    assert len(fps) == 1


def test_fingerprints_against_naive(catalog64):
    from _oracle import naive_fingerprint

    for entry in catalog64.entries:
        if entry.ring.order > 16:
            continue
        for x in range(entry.ring.order):
            assert rg.element_fingerprint(entry.ring, x) == naive_fingerprint(
                entry.ring, x
            ), (str(entry.expr), x)


def test_fingerprints_match_plain_computation_on_family_rings():
    from _oracle import all_family_candidates, naive_fingerprint

    for expr in [rg.Zn(1)] + [e for _, e in all_family_candidates(32)]:
        ring = rg.make_ring(expr)
        plain = [naive_fingerprint(ring, x) for x in range(ring.order)]
        assert list(ring.fingerprints) == plain, str(expr)


def test_generating_set():
    assert rg.generating_set(rg.make_ring(rg.Zn(12))) == ()
    d = rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))
    assert rg.generating_set(d) == (5,)  # the class of x
    assert len(rg.generating_set(rg.make_ring(rg.gf(4)))) == 1


def test_ring_axioms_catalog(catalog64):
    for entry in catalog64.entries:
        assert_ring_axioms(entry.ring)


@pytest.mark.parametrize(
    "expr",
    [
        rg.Zn(256),
        rg.gf(256),
        rg.SquareZero(rg.Zn(2), 7),
        rg.PolyQuot(6, (1, 2, 0, 1)),
        rg.Prod((rg.Zn(16), rg.gf(16))),
    ],
)
def test_ring_axioms_order_256(expr):
    assert_ring_axioms(rg.make_ring(expr))


def test_crt_isomorphism_all_coprime_pairs_up_to_30():
    for m in range(2, 31):
        for n in range(m + 1, 31):
            if math.gcd(m, n) != 1 or m * n > 900:
                continue
            a = rg.make_ring(rg.Zn(m * n))
            b = rg.make_ring(rg.Prod((rg.Zn(m), rg.Zn(n))))
            iso = rg.isomorphism(a, b)
            assert iso is not None and iso.is_homomorphism and iso.is_bijective, (m, n)


def test_fingerprint_invariance_under_automorphisms(catalog64):
    for entry in catalog64.entries:
        ring = entry.ring
        if rg.aut_group_order(ring) <= 2000:
            sigmas = [s.image for s in rg.automorphisms(ring)]
        else:
            # invariance under a generating set implies invariance under the
            # whole group, and the strong generators generate Aut R
            from ringgraph.autsearch import _stabilizer_chain

            sigmas = _stabilizer_chain(ring).strong
        fps = ring.fingerprints
        for img in sigmas:
            for x in range(ring.order):
                assert fps[x] == fps[int(img[x])], str(entry.expr)


def test_fix_size_is_annihilator_size_and_units_have_an_order(catalog64):
    # {y : xy = x} = 1 + ann(x), and x is a unit iff its multiplicative
    # order is above 0, so the keys store neither; checked by direct counts
    for entry in catalog64.entries:
        ring = entry.ring
        mul = np.asarray(ring.mul_table)
        fix = (mul == np.arange(ring.order)[:, None]).sum(axis=1)
        ann = (mul == ring.zero).sum(axis=0)
        unit = (mul == ring.one).any(axis=1)
        assert np.array_equal(fix, ann), str(entry.expr)
        fps = np.array(ring.fingerprints)
        assert np.array_equal(fps[:, 2], unit) and np.array_equal(fps[:, 3] > 0, unit)
        assert np.array_equal(fps[:, 4], ann) and np.array_equal(fps[:, 5], fix)


def test_equal_keys_exactly_when_fingerprints_are_equal(catalog64):
    # keys of one order share their radices, so they compare across rings
    by_order = {}
    for entry in catalog64.entries:
        keys = rings._fingerprint_keys(entry.ring)
        assert keys.dtype == np.int64 and len(keys) == entry.ring.order
        pairs = by_order.setdefault(entry.ring.order, set())
        pairs.update(zip(keys.tolist(), entry.ring.fingerprints))
    for order, pairs in by_order.items():
        keys, tuples = zip(*pairs)
        assert len(set(keys)) == len(set(tuples)) == len(pairs), order


def test_fingerprint_keys_refuse_orders_that_overflow_int64():
    # the bound holds up to order 760132; a deferred product above it is
    # refused before any factor or table is read
    ring = rg.make_ring(rg.Prod((rg.Zn(761), rg.Zn(1000))), max_order=10**6)
    with pytest.raises(rg.OrderLimitExceeded):
        rings._fingerprint_keys(ring)
    assert ring._build_tables is not None
    assert not any("fingerprint_keys" in f._derived for f in ring._derived["factors"])


def test_immutable_tables():
    r = rg.make_ring(rg.Zn(6))
    with pytest.raises(ValueError):
        r.add_table[0, 0] = 3


def _tables_built(ring):
    return ring._build_tables is None


def test_built_tables_are_read_only():
    for expr in (rg.Zn(12), rg.Prod((rg.Zn(2), rg.gf(4))), rg.SquareZero(rg.Zn(3), 1)):
        ring = rg.make_ring(expr)
        for table in (ring.add_table, ring.mul_table):
            assert not table.flags.writeable, str(expr)
            with pytest.raises(ValueError):
                table[0, 0] = 1


def test_product_of_composite_cyclic_rings_builds_no_table(cold_ring_cache):
    ring = rg.make_ring(rg.Prod((rg.Zn(6), rg.Zn(35))))
    factors = ring._derived["factors"]
    assert [f.order for f in factors] == [6, 35] and ring.order == 210
    assert not _tables_built(ring) and not any(map(_tables_built, factors))
    # big-endian: x = 35a + b stands for (a mod 6, b mod 35)
    a, b = np.divmod(np.arange(210), 35)
    add = (a[:, None] + a) % 6 * 35 + (b[:, None] + b) % 35
    mul = (a[:, None] * a) % 6 * 35 + (b[:, None] * b) % 35
    assert np.array_equal(ring.mul_table, mul) and np.array_equal(ring.add_table, add)
    assert ring.add_table.dtype == ring.mul_table.dtype == np.int16
    assert _tables_built(ring) and all(map(_tables_built, factors))


def test_decompose_local_target_builds_its_tables_when_read():
    for expr in (rg.Zn(60), rg.Prod((rg.Zn(12), rg.gf(4)))):
        ring = rg.make_ring(expr)
        _, iso = rg.decompose_local(ring)
        assert not _tables_built(iso.target), str(expr)
        assert iso.is_homomorphism and iso.is_bijective, str(expr)
        assert _tables_built(iso.target), str(expr)
        assert table_homomorphism(ring, iso.target, iso.image).all(), str(expr)


def test_deferred_tables_are_checked_on_first_read():
    z3 = rings._cyclic_tables(3)
    wrong = [
        (4, lambda: z3),  # 3-by-3 tables for a ring of order 4
        (3, lambda: (z3[0], z3[1][:2])),
        (3, lambda: (z3[0], z3[1] + 1)),  # an entry 3
        (3, lambda: (z3[0].astype(float), z3[1])),
    ]
    for order, build in wrong:
        ring = rings.FiniteRing._deferred(order, build, 0, 1, None, [])
        for _ in range(2):  # a failed build keeps the builder, so it fails again
            with pytest.raises(ValueError):
                ring.mul_table
    # tables built in a wider dtype are stored in the table dtype
    for build in (lambda: z3, lambda: tuple(t.astype(np.int64) for t in z3)):
        ring = rings.FiniteRing._deferred(3, build, 0, 1, None, [])
        assert np.array_equal(ring.add_table, z3[0]) and np.array_equal(ring.mul_table, z3[1])
        _assert_in_table_dtype(ring, "Z3")
    # a product of no rings is refused at once, not on its first read
    with pytest.raises(ValueError):
        rg.product_ring([])


def test_deferred_ring_leaves_no_reference_cycle():
    gc.disable()
    try:
        for read in (False, True):
            z6, z35 = rings._make_zn(rg.Zn(6)), rings._make_zn(rg.Zn(35))
            ring = rg.product_ring([z6, z35])
            if read:
                assert ring.add_table.shape == (210, 210)
            refs = [weakref.ref(r) for r in (ring, z6, z35)]
            del ring, z6, z35
            assert all(r() is None for r in refs), read
    finally:
        gc.enable()


def test_catalog_builds_each_expression_once(monkeypatch, cold_ring_cache):
    # a product reuses its live factors, and a ring is built again only
    # after it was freed, so no expression of the catalog is built twice;
    # the catalog builds no product, Z_n or field but the bases of its
    # square-zero candidates, and reading the entries builds the rest
    built = []
    construct = rings._construct_ring

    def counting(expr):
        built.append(expr)
        return construct(expr)

    monkeypatch.setattr(rings, "_construct_ring", counting)
    cat = rg.build_catalog(256)
    assert len(built) == len(set(built)) == 72
    for entry in cat.entries:
        entry.ring
    assert len(built) == len(set(built)) == 2048


def test_unheld_ring_is_freed_and_held_ring_is_shared(monkeypatch, cold_ring_cache):
    plans = []  # the orders of the rings planned, which it must not hold
    build = rings._build_plan
    monkeypatch.setattr(rings, "_build_plan", lambda ring: plans.append(ring.order) or build(ring))
    gc.disable()
    try:
        for expr in (rg.gf(8), rg.SquareZero(rg.Zn(2), 2), rg.Prod((rg.Zn(4), rg.gf(4)))):
            ring = rg.make_ring(expr)
            assert rg.make_ring(expr) is ring, str(expr)
            assert rg.aut_group_order(ring) > 1
            assert rg.aut_orbit_graph(ring).graph_type() >= 1
            assert rg.make_ring(expr) is ring, str(expr)
            alive = weakref.ref(ring)
            del ring
            assert alive() is None and expr not in rings._RINGS, str(expr)
            fresh = rg.make_ring(expr)
            assert "aut_chain" not in fresh._derived, str(expr)
            # the fresh ring searches again, with a plan of its own
            del plans[:]
            assert rg.aut_group_order(fresh) > 1 and len(plans) == 1, str(expr)
    finally:
        gc.enable()


def test_cold_ring_cache_clears_the_registry(request):
    ring = rg.make_ring(rg.gf(8))
    request.getfixturevalue("cold_ring_cache")
    assert not rings._RINGS and rg.make_ring(rg.gf(8)) is not ring


@st.composite
def small_exprs(draw):
    kind = draw(st.sampled_from(["zn", "gf", "quot", "sz", "prod"]))
    if kind == "zn":
        return rg.Zn(draw(st.integers(1, 48)))
    if kind == "gf":
        return rg.gf(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32])))
    if kind == "quot":
        n = draw(st.integers(2, 6))
        deg = draw(st.integers(1, 2))
        coeffs = tuple(draw(st.integers(0, n - 1)) for _ in range(deg)) + (1,)
        return rg.PolyQuot(n, coeffs)
    if kind == "sz":
        base = draw(st.sampled_from([rg.Zn(2), rg.Zn(3), rg.Zn(4), rg.gf(4)]))
        m = draw(st.integers(0, 2))
        return rg.SquareZero(base, m)
    parts = draw(st.lists(st.sampled_from([rg.Zn(2), rg.Zn(3), rg.Zn(4), rg.gf(4), rg.Zn(5)]), min_size=1, max_size=3))
    return rg.Prod(tuple(parts))


@settings(max_examples=40, deadline=None)
@given(small_exprs())
def test_ring_axioms_hypothesis(expr):
    if rg.expr_order(expr) > 64:
        return
    assert_ring_axioms(rg.make_ring(expr))


def test_prime_subring_of_an_addition_that_is_not_a_group_raises():
    # 7 + 1 = 1: the multiples of 1 cycle through 1..7 and never reach 0
    z8 = rg.make_ring(rg.Zn(8))
    add = z8.add_table.copy()
    add[7, 1] = add[1, 7] = 1
    ring = rg.FiniteRing(add, z8.mul_table, z8.zero, z8.one, None, z8.element_names)
    with pytest.raises(ValueError, match="not a group"):
        ring.characteristic
