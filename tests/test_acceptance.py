"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured runtimes.  Every check is exact; the time limits are asserted.
The shared catalog (max order 64) is built once by the session fixture,
which prints its own build time.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import ringgraph as rg
from _oracle import oracle_automorphism_images


@contextmanager
def criterion(num, desc, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nFAIL criterion {num}: {desc} ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {desc} "
          f"({elapsed:.2f}s, limit {limit_s}s)")
    assert ok, f"criterion {num} took {elapsed:.2f}s, limit {limit_s}s"


def graph_of(expr):
    return rg.aut_orbit_graph(rg.make_ring(expr))


def test_criterion_01_type_formulas():
    with criterion(1, "dual-number type formulas", 5):
        for p in (3, 5, 7, 11, 13):
            assert graph_of(rg.PolyQuot(p, (0, 0, 1))).graph_type() == p - 2, p
        for n in (3, 5, 7, 9, 15, 21):
            expected = rg.euler_phi(n) - 1
            assert graph_of(rg.PolyQuot(n, (0, 0, 1))).graph_type() == expected, n


def test_criterion_02_trivial_aut_classification(catalog64):
    with criterion(2, "trivial-automorphism classification at order <= 64", 60):
        report = rg.verify_trivial_aut_classification(catalog64)
        assert report.passed, report.counterexamples
        assert report.checked == len(catalog64.entries)


def test_criterion_03_units_connected_classification(catalog64):
    with criterion(3, "units-minus-one connectivity classification", 60):
        report = rg.verify_units_connected_classification(catalog64)
        assert report.passed, report.counterexamples


def test_criterion_04_m_connected_classification(catalog64):
    with criterion(4, "maximal-ideal connectivity classification", 60):
        report = rg.verify_m_connected_classification(catalog64)
        assert report.passed, report.counterexamples


PRODUCT_PAIRS = (
    (rg.Zn(4), rg.Zn(9)),
    (rg.Zn(4), rg.PolyQuot(3, (0, 0, 1))),
    (rg.gf(4), rg.Zn(5)),
    (rg.gf(4), rg.PolyQuot(5, (0, 0, 1))),
    (rg.Zn(8), rg.Zn(9)),
    (rg.PolyQuot(2, (0, 0, 0, 1)), rg.Zn(3)),
    (rg.SquareZero(rg.Zn(2), 2), rg.Zn(3)),
    (rg.gf(9), rg.gf(4)),
    (rg.Zn(25), rg.gf(4)),
    (rg.PolyQuot(5, (0, 0, 1)), rg.gf(25)),
    (rg.Zn(9), rg.SquareZero(rg.Zn(2), 2)),
    (rg.gf(8), rg.Zn(9)),
)


def test_criterion_05_product_formulas():
    with criterion(5, "degree and type product formulas on 12 local pairs", 30):
        assert len(PRODUCT_PAIRS) >= 10
        for ea, eb in PRODUCT_PAIRS:
            ra, rb = rg.make_ring(ea), rg.make_ring(eb)
            assert ra.order <= 25 and rb.order <= 25
            assert rg.local_structure(ra).is_local and rg.local_structure(rb).is_local
            assert rg.isomorphism(ra, rb) is None, (str(ea), str(eb))
            ga, gb = rg.aut_orbit_graph(ra), rg.aut_orbit_graph(rb)
            gp = rg.aut_orbit_graph(rg.make_ring(rg.Prod((ea, eb))))
            size_a = np.array([len(ga.blocks[ga.orbit_of(a)]) for a in range(ra.order)])
            size_b = np.array([len(gb.blocks[gb.orbit_of(b)]) for b in range(rb.order)])
            size_p = np.array(
                [len(gp.blocks[gp.orbit_of(x)]) for x in range(ra.order * rb.order)]
            ).reshape(ra.order, rb.order)
            assert (size_a[:, None] * size_b[None, :] == size_p).all(), (str(ea), str(eb))
            ta, tb = ga.graph_type(), gb.graph_type()
            if ta != tb:
                assert gp.graph_type() == (ta + 1) * (tb + 1) - 1, (str(ea), str(eb))


def test_criterion_06_symmetric_products():
    with criterion(6, "k-fold products of one cyclic ring have |Aut| = k!", 30):
        for p, n, k in ((2, 2, 2), (2, 2, 3), (3, 1, 2), (5, 1, 2), (5, 1, 3), (5, 1, 4)):
            assert k < p**n
            ring = rg.make_ring(rg.Prod(tuple(rg.Zn(p**n) for _ in range(k))))
            assert rg.aut_group_order(ring) == math.factorial(k), (p, n, k)


def test_criterion_07_graph_automorphism_embedding(entries32):
    with criterion(7, "ring automorphisms embed into graph automorphisms (<= 32)", 30):
        for entry in entries32:
            assert rg.aut_embeds_in_graph_aut(entry.ring), str(entry.expr)
        z4 = rg.make_ring(rg.Zn(4))
        assert rg.aut_orbit_graph(z4).graph_aut_order() == 24


def test_criterion_08_planarity(catalog64):
    with criterion(8, "planar iff type <= 3 over the catalog", 10):
        for entry in catalog64.entries:
            graph = rg.aut_orbit_graph(entry.ring)
            assert graph.is_planar() == (graph.graph_type() <= 3), str(entry.expr)


def test_criterion_09_field_extension():
    with criterion(9, "subfield-fixing connectivity only at (q,t) = (2,2)", 10):
        report = rg.verify_field_extension_connectivity()
        assert report.passed, report.counterexamples
        assert report.checked == 8  # q in {2,3,4,5}, t in {2,3}


def test_criterion_10_involution_and_order_bounds(catalog64):
    with criterion(10, "abelian 2-group and factorial order bounds", 60):
        report = rg.verify_involution_and_order_bounds(catalog64)
        assert report.passed, report.counterexamples


def test_criterion_11_search_oracle_equivalence(entries32):
    with criterion(11, "pruned search equals the unpruned oracle (<= 32)", 120):
        for entry in entries32:
            mine = {tuple(map(int, s.image)) for s in rg.automorphisms(entry.ring)}
            assert mine == oracle_automorphism_images(entry.ring), str(entry.expr)


def test_criterion_12_perfect_field_type():
    from ringgraph.expr import prime_power

    with criterion(12, "field of order p^m has type m-1", 5):
        for q in (4, 8, 9, 16, 27, 25, 64):
            m = prime_power(q)[1]
            assert graph_of(rg.gf(q)).graph_type() == m - 1, q
