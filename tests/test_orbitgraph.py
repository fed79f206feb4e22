import math

import numpy as np
import pytest

import ringgraph as rg
from ringgraph.autsearch import _aut_labels


def full_graph(expr):
    return rg.aut_orbit_graph(rg.make_ring(expr))


def test_build_graph_trivial_group():
    z6 = rg.make_ring(rg.Zn(6))
    graph = rg.build_graph(z6, rg.subgroup_closure(z6, []))
    assert graph.blocks == tuple((i,) for i in range(6))


def test_build_graph_examples():
    g = full_graph(rg.PolyQuot(5, (0, 0, 1)))
    sizes = sorted(len(b) for b in g.blocks)
    assert sizes == [1, 1, 1, 1, 1, 4, 4, 4, 4, 4]
    assert g.blocks[0] == (0,) and g.blocks[1] == (1,)
    f4 = full_graph(rg.gf(4))
    assert f4.blocks == ((0,), (1,), (2, 3))


def test_orbit_graph_takes_least_element_labels():
    f4 = rg.make_ring(rg.gf(4))
    graph = rg.OrbitGraph(f4, np.array([0, 1, 2, 2]))
    assert graph.blocks == ((0,), (1,), (2, 3)) and graph.sizes.tolist() == [1, 1, 2]
    assert type(graph.graph_type()) is int and type(graph.degree(3)) is int
    assert type(graph.is_planar()) is bool and type(graph.is_totally_disconnected()) is bool
    malformed = (
        [0, 1, 2],  # too short
        [[0, 1, 2, 2]],  # not one-dimensional
        [0.0, 1.0, 2.0, 2.0],  # not integers
        [0, 1, 2, -1],  # negative
        [0, 1, 2, 4],  # outside the carrier
        [0, 1, 3, 3],  # above its element
        [0, 0, 1, 2],  # 1 is a label but not labelled by itself
    )
    for labels in malformed:
        with pytest.raises(ValueError):
            rg.OrbitGraph(f4, np.array(labels))


def test_block_numbering_matches_np_unique(catalog64):
    for entry in catalog64.entries:
        graph = rg.aut_orbit_graph(entry.ring)
        labels = _aut_labels(entry.ring)
        _, block_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
        assert np.array_equal(graph.block_of, block_of), str(entry.expr)
        assert np.array_equal(graph.sizes, sizes), str(entry.expr)


def test_degree():
    g = full_graph(rg.PolyQuot(7, (0, 0, 1)))
    assert g.degree(0) == 0 and g.degree(1) == 0
    assert g.degree(7) == 5  # the class of x
    assert full_graph(rg.gf(4)).degree(2) == 1


def test_graph_type_examples():
    assert full_graph(rg.PolyQuot(7, (0, 0, 1))).graph_type() == 5
    assert full_graph(rg.PolyQuot(15, (0, 0, 1))).graph_type() == 7
    assert full_graph(rg.gf(8)).graph_type() == 2
    assert full_graph(rg.Zn(12)).graph_type() == 0


def test_totally_disconnected():
    assert full_graph(rg.Zn(9)).is_totally_disconnected()
    assert full_graph(rg.PolyQuot(2, (0, 0, 1))).is_totally_disconnected()
    assert not full_graph(rg.gf(4)).is_totally_disconnected()


def test_totally_disconnected_iff_trivial_group(entries32):
    for entry in entries32:
        graph = rg.aut_orbit_graph(entry.ring)
        assert graph.is_totally_disconnected() == (rg.aut_group_order(entry.ring) == 1)


def test_subset_connected():
    f4 = rg.make_ring(rg.gf(4))
    g4 = rg.aut_orbit_graph(f4)
    assert g4.subset_connected(set())
    assert g4.subset_connected({2})
    assert g4.subset_connected(f4.units - {f4.one})
    d5 = rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))
    m5 = rg.local_structure(d5).maximal_ideal
    assert rg.aut_orbit_graph(d5).subset_connected(m5 - {d5.zero})
    z9 = rg.make_ring(rg.Zn(9))
    m9 = rg.local_structure(z9).maximal_ideal
    assert not rg.aut_orbit_graph(z9).subset_connected(m9 - {z9.zero})


def test_cliques():
    assert full_graph(rg.Zn(4)).cliques() == ((0,), (1,), (2,), (3,))
    d = full_graph(rg.PolyQuot(5, (0, 0, 1)))
    assert len(d.cliques()) == 10
    assert len(full_graph(rg.gf(4)).cliques()) == 3
    # ordered by smallest member, each block sorted
    for graph in (d, full_graph(rg.Zn(12))):
        firsts = [b[0] for b in graph.cliques()]
        assert firsts == sorted(firsts)


def test_planarity():
    assert full_graph(rg.PolyQuot(5, (0, 0, 1))).is_planar()
    assert not full_graph(rg.PolyQuot(7, (0, 0, 1))).is_planar()
    assert full_graph(rg.Zn(30)).is_planar()


def test_graph_aut_order():
    assert full_graph(rg.Zn(4)).graph_aut_order() == 24
    assert full_graph(rg.gf(4)).graph_aut_order() == 4
    assert full_graph(rg.Zn(7)).graph_aut_order() == math.factorial(7)


def test_aut_embeds_examples():
    assert rg.aut_embeds_in_graph_aut(rg.make_ring(rg.Zn(4)))
    assert rg.aut_embeds_in_graph_aut(rg.make_ring(rg.gf(4)))
    assert rg.aut_embeds_in_graph_aut(rg.make_ring(rg.PolyQuot(5, (0, 0, 1))))


def test_partition_identities(entries32):
    for entry in entries32:
        graph = rg.aut_orbit_graph(entry.ring)
        ring = entry.ring
        n = ring.order
        assert sum(len(b) for b in graph.blocks) == n
        assert graph.blocks == rg.aut_orbits(ring), str(entry.expr)
        assert graph.sizes.tolist() == [len(b) for b in graph.blocks]
        assert sorted(x for b in graph.blocks for x in b) == list(range(n))
        assert graph.graph_type() == max(graph.degree(x) for x in range(n))
        for x in range(n):
            assert graph.degree(x) == len(graph.blocks[graph.orbit_of(x)]) - 1
        # zero and one are fixed by every automorphism
        assert graph.blocks[graph.orbit_of(ring.zero)] == (ring.zero,)
        assert graph.blocks[graph.orbit_of(ring.one)] == (ring.one,)


def test_edge_oracle_equivalence(entries32):
    # adjacency from the partition equals the direct some-sigma-maps-x-to-y test
    for entry in entries32:
        ring = entry.ring
        group = rg.automorphisms(ring)
        graph = rg.build_graph(ring, group)
        n = ring.order
        direct = np.zeros((n, n), dtype=bool)
        for sigma in group:
            direct[np.arange(n), sigma.image] = True
        direct |= direct.T
        np.fill_diagonal(direct, False)
        labels = graph.block_of
        partition = (labels[:, None] == labels[None, :]) & ~np.eye(n, dtype=bool)
        assert (direct == partition).all(), str(entry.expr)
        # implicit partition agrees with the explicit-group sweep
        assert rg.aut_orbit_graph(ring).blocks == graph.blocks


def test_monotone_in_subgroup():
    f64 = rg.make_ring(rg.gf(64))
    frob = rg.RingMorphism(f64, f64, [f64.pow(x, 2) for x in range(64)])
    square = rg.compose(frob, frob)  # x -> x^4, generates an index-2 subgroup
    h1 = rg.subgroup_closure(f64, [square])
    h2 = rg.automorphisms(f64)
    assert h1.order == 3 and h2.order == 6
    g1 = rg.build_graph(f64, h1)
    g2 = rg.build_graph(f64, h2)
    for block in g1.blocks:
        target = g2.blocks[g2.orbit_of(block[0])]
        assert set(block) <= set(target)


def test_degree_product_example():
    f4 = rg.make_ring(rg.gf(4))
    d5 = rg.make_ring(rg.PolyQuot(5, (0, 0, 1)))
    prod = rg.make_ring(rg.Prod((rg.gf(4), rg.PolyQuot(5, (0, 0, 1)))))
    gp = rg.aut_orbit_graph(prod)
    a, b = 2, 5  # a field generator (degree 1) and the nilpotent x (degree 3)
    assert rg.aut_orbit_graph(f4).degree(a) == 1
    assert rg.aut_orbit_graph(d5).degree(b) == 3
    assert gp.degree(a * 25 + b) == 7


def test_type_product_example():
    prod = rg.make_ring(rg.Prod((rg.Zn(4), rg.PolyQuot(3, (0, 0, 1)))))
    assert rg.aut_orbit_graph(prod).graph_type() == (0 + 1) * (1 + 1) - 1


def test_build_graph_rejects_foreign_group():
    z4 = rg.make_ring(rg.Zn(4))
    z6 = rg.make_ring(rg.Zn(6))
    with pytest.raises(ValueError):
        rg.build_graph(z6, rg.automorphisms(z4))
