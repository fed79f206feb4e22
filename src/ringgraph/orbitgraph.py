"""Orbit graphs of rings under automorphism groups.

Two distinct elements are adjacent when some automorphism in the chosen
group maps one to the other, so the graph is always a disjoint union of
complete graphs on the orbits.  The graph is therefore stored as the orbit
partition, one label per element: the least element of its orbit.  Every
invariant defined here is a closed form in the orbit sizes.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property

import numpy as np

from .autsearch import AutGroup, _blocks, _stabilizer_chain, automorphisms
from .rings import FiniteRing

__all__ = [
    "OrbitGraph",
    "build_graph",
    "aut_orbit_graph",
    "aut_embeds_in_graph_aut",
]


class OrbitGraph:
    """Partition of a ring carrier into automorphism orbits, given as
    `labels[x]`, the least element of the orbit of x.  Blocks are numbered
    by least element: `block_of[x]` is the block of x, `sizes[b]` its size.
    """

    def __init__(self, ring: FiniteRing, labels):
        labels = np.asarray(labels)
        ok = labels.shape == (ring.order,) and labels.dtype.kind in "iu"
        ok = ok and ((labels >= 0) & (labels <= np.arange(ring.order))).all()
        if not (ok and np.array_equal(labels[labels], labels)):
            raise ValueError("labels must give each element the least element of its block")
        # block b is the (b+1)-th least element that labels itself
        block_of = (np.cumsum(labels == np.arange(ring.order)) - 1)[labels]
        sizes = np.bincount(block_of)
        block_of.setflags(write=False)
        sizes.setflags(write=False)
        self.ring = ring
        self.block_of = block_of
        self.sizes = sizes

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The orbit blocks, ascending, ordered by smallest member."""
        return _blocks(self.block_of)

    def orbit_of(self, x: int) -> int:
        return int(self.block_of[self.ring._check(x)])

    def degree(self, x: int) -> int:
        return int(self.sizes[self.orbit_of(x)]) - 1

    def graph_type(self) -> int:
        """Largest vertex degree, i.e. (largest orbit size) - 1."""
        return int(self.sizes.max()) - 1

    def is_totally_disconnected(self) -> bool:
        return len(self.sizes) == self.ring.order

    def subset_connected(self, subset) -> bool:
        """Whether the induced subgraph on `subset` is connected.

        In a disjoint union of cliques that means: at most one element,
        or all elements inside a single block.  The empty set counts as
        connected.  `subset` is any iterable of elements or an index array,
        read with one gather; an element outside 0..order-1 raises
        IndexOutOfRange.
        """
        items = subset if isinstance(subset, np.ndarray) else list(subset)
        try:
            idx = np.asarray(items, dtype=np.int64)
        except OverflowError:  # an element beyond int64, which `_check` refuses
            idx = np.array([self.ring._check(x) for x in items], dtype=np.int64)
        outside = idx[(idx < 0) | (idx >= self.ring.order)]
        if len(outside):
            self.ring._check(outside[0])  # raises
        return _one_block(self.block_of[idx])

    def cliques(self) -> tuple[tuple[int, ...], ...]:
        """The orbit blocks, ordered by smallest member."""
        return self.blocks

    def is_planar(self) -> bool:
        # a disjoint union of complete graphs is planar iff no K_5 appears
        return self.graph_type() < 4

    def graph_aut_order(self) -> int:
        """|Aut| of the graph itself, by the closed form for clique unions.

        Vertices permute freely inside each clique and equal-size cliques
        permute among themselves.  Exact integer, no overflow.
        """
        counts = Counter(self.sizes.tolist())
        return math.prod(math.factorial(s) ** c * math.factorial(c) for s, c in counts.items())

    def __repr__(self):
        counts = Counter(self.sizes.tolist())
        desc = ", ".join(f"{s}^{c}" for s, c in sorted(counts.items()))
        return f"OrbitGraph({self.ring!r}, block sizes {desc})"


def _one_block(ids: np.ndarray) -> bool:
    """Whether the block ids, or orbit labels, given name at most one block."""
    return bool(not ids.size or ids.min() == ids.max())


def build_graph(ring: FiniteRing, group: AutGroup) -> OrbitGraph:
    """Orbit graph of `ring` under an explicit automorphism group."""
    if group.ring is not ring:
        raise ValueError("group does not act on this ring")
    return OrbitGraph(ring, group._labels())


def aut_orbit_graph(ring: FiniteRing, budget=None) -> OrbitGraph:
    """Orbit graph under the full automorphism group.

    The labels are the ones the stabilizer chain leaves behind, so this
    works even when Aut R is too large to list element by element.
    """
    return OrbitGraph(ring, _stabilizer_chain(ring, budget).labels)


def _aut_subset_connected(ring: FiniteRing, idx: np.ndarray, budget=None) -> bool:
    """`aut_orbit_graph(ring, budget).subset_connected(idx)` for an index
    array of elements of the ring: one gather from the chain's labels, with
    no graph built."""
    return _one_block(_stabilizer_chain(ring, budget).labels[idx])


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
