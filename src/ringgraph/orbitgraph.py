"""Orbit graphs of rings under automorphism groups.

Two distinct elements are adjacent when some automorphism in the chosen
group maps one to the other, so the graph is always a disjoint union of
complete graphs on the orbits.  The graph is therefore stored only as the
orbit partition; every invariant defined here has a closed form on the
partition.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .autsearch import AutGroup, aut_orbits, automorphisms
from .rings import FiniteRing

__all__ = [
    "OrbitGraph",
    "build_graph",
    "aut_orbit_graph",
    "aut_embeds_in_graph_aut",
]


class OrbitGraph:
    """Partition of a ring carrier into automorphism orbits."""

    def __init__(self, ring: FiniteRing, blocks, group: AutGroup | None = None):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        block_of = np.full(ring.order, -1, dtype=np.int64)
        seen = 0
        for i, b in enumerate(blocks):
            for x in b:
                if block_of[x] != -1:
                    raise ValueError("blocks overlap")
                block_of[x] = i
            seen += len(b)
        if seen != ring.order or (block_of < 0).any():
            raise ValueError("blocks must partition the carrier")
        block_of.setflags(write=False)
        self.ring = ring
        self.group = group
        self.blocks = blocks
        self.block_of = block_of

    def orbit_of(self, x: int) -> int:
        return int(self.block_of[self.ring._check(x)])

    def degree(self, x: int) -> int:
        return len(self.blocks[self.orbit_of(x)]) - 1

    def graph_type(self) -> int:
        """Largest vertex degree, i.e. (largest orbit size) - 1."""
        return max(len(b) for b in self.blocks) - 1

    def is_totally_disconnected(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def subset_connected(self, subset) -> bool:
        """Whether the induced subgraph on `subset` is connected.

        In a disjoint union of cliques that means: at most one element,
        or all elements inside a single block.  The empty set counts as
        connected.
        """
        ids = {self.orbit_of(x) for x in subset}
        return len(ids) <= 1

    def cliques(self) -> tuple[tuple[int, ...], ...]:
        """The orbit blocks, ordered by smallest member."""
        return self.blocks

    def is_planar(self) -> bool:
        # a disjoint union of complete graphs is planar iff no K_5 appears
        return max(len(b) for b in self.blocks) <= 4

    def graph_aut_order(self) -> int:
        """|Aut| of the graph itself, by the closed form for clique unions.

        Vertices permute freely inside each clique and equal-size cliques
        permute among themselves.  Exact integer, no overflow.
        """
        out = 1
        for b in self.blocks:
            out *= math.factorial(len(b))
        for count in Counter(len(b) for b in self.blocks).values():
            out *= math.factorial(count)
        return out

    def __repr__(self):
        sizes = Counter(len(b) for b in self.blocks)
        desc = ", ".join(f"{s}^{c}" for s, c in sorted(sizes.items()))
        return f"OrbitGraph({self.ring!r}, block sizes {desc})"


def build_graph(ring: FiniteRing, group: AutGroup) -> OrbitGraph:
    """Orbit graph of `ring` under an explicit automorphism group."""
    if group.ring is not ring:
        raise ValueError("group does not act on this ring")
    return OrbitGraph(ring, group.orbits(), group)


def aut_orbit_graph(ring: FiniteRing, budget=None) -> OrbitGraph:
    """Orbit graph under the full automorphism group.

    The partition comes from the stabilizer chain's strong generators, so
    this works even when Aut R is too large to list element by element;
    the graph's `group` is always None, since no group is listed.
    """
    return OrbitGraph(ring, aut_orbits(ring, budget=budget), None)


def aut_embeds_in_graph_aut(ring: FiniteRing, budget=None) -> bool:
    """Check that ring automorphisms sit inside the graph automorphisms.

    Verifies that every ring automorphism preserves adjacency as a vertex
    permutation, that distinct automorphisms give distinct permutations,
    and that |Aut R| divides the graph automorphism count.
    """
    group = automorphisms(ring, budget=budget)
    graph = build_graph(ring, group)
    labels = graph.block_of
    same = labels[:, None] == labels[None, :]
    for sigma in group:
        permuted = labels[sigma.image]
        same_after = permuted[:, None] == permuted[None, :]
        if not np.array_equal(same, same_after):
            return False
    distinct = {sigma.image.tobytes() for sigma in group}
    if len(distinct) != group.order:
        return False
    return graph.graph_aut_order() % group.order == 0
