"""Automorphism enumeration and ring isomorphism testing.

A map is fixed by the images of the prime subring and of a greedy
generating set.  The source ring's plan (`rings._build_plan`) is one
additive coset tree that derives every element of
S_i = <prime subring, g_1..g_i> once from earlier ones, so the images on
S_i are computed by replaying its steps, for all candidate images of g_i
at once: each step is one gather on a matrix holding one candidate per
row.  Rows whose new images change an element's fingerprint are dropped
after every step.  Each level of the plan also carries its checks, the
few equations its steps do not make true: the wrap edges of its new
additive generators, and the products of all additive generators so far
with its generator.  A row that holds them, on top of the levels before,
is an injective unital homomorphism on S_i; a row that fails them is
dropped at that level, since no extension of it is one.  Steps and
checks have one format, (op, c, a, b), and `_holds` tests them on rows,
for the search and for `_certify`, the one check of a map built anywhere
else, which tests every level's steps and checks at once.

A group is held as a stabilizer chain: the orbit of each g_i under the
automorphisms fixing S_{i-1}, and a strong generating set.  That keeps
huge symmetric-type groups countable without enumerating them.  The chain
is built deepest level first: an image of g_i already in the orbit of the
maps found so far needs no search, so a depth-first search runs only for
images they do not reach yet (Sims 1970; Holt, Eick & O'Brien 2005,
ch. 4).  Coset representatives are traced from the strong generators only
when `automorphisms` lists the group.

Each operation builds the plan it reads with `rings._build_plan` and
drops it when it returns.  A ring caches the `_Chain` record of its
search, read-only in its table dtype (`rings._frozen`); `automorphisms`
lists the group from it on each call and keeps no listing.
`_stabilizer_chains` fills the records of many rings at once, in one
schedule on every host: the rings that are not products, then the
caller's other work, then the products, largest first.  On a host with two CPUs it forks a child, and the two processes
take the products from one queue, a pipe of product indices; the child
writes its finished records to a second pipe once the queue is empty.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotAutomorphism,
    NotBijective,
    NotComposable,
    SearchBudgetExceeded,
)
from . import rings
from .rings import FiniteRing, _carrier_array, _fingerprint_keys, _frozen, _working_ring

__all__ = [
    "DEFAULT_SEARCH_BUDGET",
    "RingMorphism",
    "AutGroup",
    "identity_automorphism",
    "is_homomorphism",
    "automorphisms",
    "aut_group_order",
    "aut_orbits",
    "isomorphism",
    "compose",
    "inverse",
    "subgroup_closure",
]

DEFAULT_SEARCH_BUDGET = 10_000_000


class RingMorphism:
    """Total map between two ring carriers, with lazy validity checks.  The
    image must give each source element an integer in the target's carrier."""

    __slots__ = ("source", "target", "image", "_hom", "_bij")

    def __init__(self, source: FiniteRing, target: FiniteRing, image):
        image = _carrier_array(image, target.order, "image values")
        image = np.ascontiguousarray(image, dtype=np.int64)
        if image.shape != (source.order,):
            raise ValueError("image must assign every source element")
        image.setflags(write=False)
        self.source = source
        self.target = target
        self.image = image
        self._hom = None
        self._bij = None

    def __call__(self, x: int) -> int:
        return int(self.image[self.source._check(x)])

    @property
    def is_homomorphism(self) -> bool:
        if self._hom is None:
            ok = _certify(self.source, self.target, self.image, injective=False)
            self._hom = bool(ok[0])
        return self._hom

    @property
    def is_bijective(self) -> bool:
        if self._bij is None:
            self._bij = (
                self.source.order == self.target.order
                and len(np.unique(self.image)) == self.source.order
            )
        return self._bij

    @property
    def is_automorphism(self) -> bool:
        return self.source is self.target and self.is_bijective and self.is_homomorphism

    def __eq__(self, other):
        return (
            isinstance(other, RingMorphism)
            and self.source is other.source
            and self.target is other.target
            and np.array_equal(self.image, other.image)
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.image.tobytes()))

    def __repr__(self):
        return f"RingMorphism({self.source!r} -> {self.target!r})"


def identity_automorphism(ring: FiniteRing) -> RingMorphism:
    return RingMorphism(ring, ring, np.arange(ring.order, dtype=np.int64))


def is_homomorphism(morphism: RingMorphism) -> bool:
    """Whether the map preserves 0, 1, sums and products (see `_certify`)."""
    return morphism.is_homomorphism


def _holds(tables: dict, rows: np.ndarray, equations) -> np.ndarray:
    """Which rows f hold every equation (op, c, a, b) given, in the format of
    a plan level's steps and checks: f(c) = f(a) op f(b) for each entry,
    read in `tables`, the target's tables by op.  One gather per equation."""
    ok = np.ones(len(rows), dtype=bool)
    for op, c, a, b in equations:
        ok &= (tables[op][rows[:, a], rows[:, b]] == rows[:, c]).all(axis=1)
    return ok


def _certify(source: FiniteRing, target: FiniteRing, rows, plan=None, injective=True):
    """Which rows, built anywhere, are (injective) unital ring homomorphisms.

    A row f passes when it maps c*1 to c*1, read in the target's prime
    subring, exactly one x has f(x) = 0 (skipped with injective=False),
    and it holds the steps and checks of every level of the source's plan
    (`_holds`).  The recipe sets c*1 -> c*1 and derives each other element
    by one step from elements before it, so holding the steps makes f the
    recipe row of its own images of the generators, and what is left to
    show is that the checks make a recipe row a homomorphism.  A
    homomorphism holds every step and check, as each is a sum or product.
    The steps and checks are tested on a copy of the rows in the target's
    table dtype, which holds target elements, so each gather takes a
    quarter of the memory of int64 or less.  `plan` is
    `rings._build_plan(source)` when the caller has it.

    Soundness, level by level.  Let f be a recipe row on S_i that holds
    the checks of levels 0..i.  `_Engine.expand` returns such rows only,
    given a row that holds levels 0..i-1.

    - f is additive on S_i.  Let y_1 = 1, y_2, .., y_K be the additive
      generators of levels 0..i in the order the tree took them, span_j
      the additive span of y_1..y_j and m_j the least m > 0 with m y_j in
      span_{j-1}; span_K = S_i, and every x in span_j is z + c y_j for
      exactly one z in span_{j-1} and 0 <= c < m_j.  The recipe makes
      f(z + c y_j) = f(z) + c f(y_j) true: it sets f(c*1) = c*1, and for
      j > 1 derives f(c y_j) = f(y_j) f(c*1) = c f(y_j) and
      f(z + c y_j) = f(z) + f(c y_j).  The wrap edge of y_j, a check of
      the level that appended it, gives f(m_j y_j) = f((m_j - 1) y_j) +
      f(y_j) = m_j f(y_j).  By induction on j, f is additive on span_j:
      span_0 = {0} and f(0) = 0; for x = z + c y_j and x' = z' + c' y_j,
      x + x' = (z + z') + (c + c') y_j, and if c + c' >= m_j it is
      (z + z' + m_j y_j) + (c + c' - m_j) y_j with the first term in
      span_{j-1}; either way additivity on span_{j-1} and the two
      identities give f(x + x') = f(x) + f(x').
    - f is multiplicative on S_i, by induction on i.  On S_0 it is, as
      f(c*1) = c*1 and f is additive there.  Level i's products give
      f(y_t g_i) = f(y_t) f(g_i) for every t <= K; every u in S_i is a sum
      of multiples of the y_t, and each y_t g_i lies in the subring S_i,
      so by additivity f(u g_i) = f(u) f(g_i), and f(s g_i^k) =
      f(s) f(g_i)^k for s in S_{i-1}.  S_{i-1} and g_i generate S_i, so
      every element of S_i is a sum of terms s g_i^k with s in S_{i-1},
      and for two such terms f(s g_i^k s' g_i^l) = f(s s') f(g_i)^(k+l) =
      f(s g_i^k) f(s' g_i^l), as f is multiplicative on S_{i-1};
      additivity extends this to all of S_i.  So no level needs the
      products of its new additive generators with g_j, j < i.
    - f is injective on S_i when no nonzero element of S_i goes to 0, as
      it is additive there.  Here a complete row counts its zeros.
      `expand` needs no count: it keeps only rows that keep the
      fingerprint of every element of S_i, whose first component is the
      additive order, 1 for 0 alone.

    S_k = R, so a complete row that holds every level is an injective
    unital homomorphism.  This is the consistency check of a polycyclic
    presentation (Holt, Eick & O'Brien 2005, ch. 8).  The order-1 ring
    has no equations, and its one row passes on f(0) = 0 = f(1) alone.
    """
    plan = rings._build_plan(source) if plan is None else plan
    rows = np.atleast_2d(rows).astype(rings._table_dtype(target.order))
    prime, image = (np.array(r.prime_subring) for r in (source, target))
    ok = (rows[:, prime] == image[np.arange(len(prime)) % len(image)]).all(axis=1)
    if injective:
        ok &= np.count_nonzero(rows == target.zero, axis=1) == 1
    tables = {"add": target.add_table, "mul": target.mul_table}
    return ok & _holds(tables, rows, [eq for lv in plan for eq in (*lv.steps, *lv.checks)])


# ---------------------------------------------------------------------------
# the search engine


class _Engine:
    """Extension of partial maps from one source ring into one target ring.

    `nodes` counts element images fixed: each candidate image of a
    generator, and each image a recipe round derives on a row that keeps
    its fingerprints.  A level that takes it past the budget raises, so a
    too-large instance never yields a partial answer.  Callers reset
    `nodes` to scope the budget; `peak` is the largest count any scope
    reached.

    The engine builds the source's plan with `rings._build_plan`, and it
    is dropped with the engine.
    """

    def __init__(self, source: FiniteRing, target: FiniteRing, budget=None):
        self.target = target
        self.plan = rings._build_plan(source)
        self.tables = {"add": target.add_table, "mul": target.mul_table}
        self.budget = budget
        self.nodes = self.peak = 0
        # both rings have one order, so equal keys mean equal fingerprints
        self.sfp = _fingerprint_keys(source)
        self.tfp = _fingerprint_keys(target)

    def expand(self, row: np.ndarray, i: int) -> np.ndarray:
        """The extensions to S_i of a row on S_{i-1} that keep their
        fingerprints and hold level i's checks.

        Each candidate image of g_i gets one row, and the level's steps
        derive the other images of S_i on every row at once, one gather
        per step; rows whose new images change an element's fingerprint are
        dropped after each step, and rows that fail one of the level's
        `checks` at the end (`_holds`).  Rows come out in ascending order
        of the image of g_i.  Given a row that holds levels 0..i-1, every
        row returned is an injective unital homomorphism on S_i
        (`_certify`), and on the last level a complete map.  A row dropped
        has no extension that is a homomorphism, which holds every step and
        check, so the search loses nothing by dropping it here.
        """
        level = self.plan[i]
        cands = np.flatnonzero(self.tfp == self.sfp[level.gen])
        used = np.zeros(self.target.order, dtype=bool)
        used[row[self.plan[i - 1].elements]] = True
        cands = cands[~used[cands]]
        # each candidate is a node, so a batch over the budget raises
        # before it is allocated; the level's final count is no smaller
        _check_budget(self.nodes + len(cands), self.budget)
        rows = np.repeat(row[None, :], len(cands), axis=0)
        rows[:, level.gen] = cands
        nodes = len(rows)
        for op, c, a, b in level.steps:
            rows[:, c] = self.tables[op][rows[:, a], rows[:, b]]
            keep = (self.tfp[rows[:, c]] == self.sfp[c]).all(axis=1)
            if not keep.all():  # a copy only when a row goes
                rows = rows[keep]
            nodes += len(rows) * len(c)
        self.nodes += nodes
        self.peak = max(self.peak, self.nodes)
        _check_budget(self.nodes, self.budget)
        keep = _holds(self.tables, rows, level.checks)
        return rows if keep.all() else rows[keep]

    def first(self, row: np.ndarray, i: int) -> np.ndarray | None:
        """The first full map, depth first, extending a row on S_i that
        holds levels 0..i: one `expand` returned, or S_0's k*1 -> k*1.

        Every level below the row's is checked by `expand` on the way down,
        so a full map returned is an injective unital homomorphism.
        """
        if i + 1 == len(self.plan):
            return row
        for nxt in self.expand(row, i + 1):
            found = self.first(nxt, i + 1)
            if found is not None:
                return found
        return None


def _check_budget(nodes: int, budget) -> None:
    """Raise when `nodes` element images exceed the budget (None: the
    default); a budget that is not an integer, is a bool or is negative is a
    ValueError, as the CLI refuses a negative one."""
    budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 0:
        raise ValueError(f"the search budget must be an integer >= 0 or None, got {budget!r}")
    if nodes > budget:
        raise SearchBudgetExceeded(
            f"{nodes} element images exceed the budget of {budget}; raise the budget to continue"
        )


# ---------------------------------------------------------------------------
# groups


class AutGroup:
    """Composition-closed set of automorphisms of one ring.

    Element 0 is the identity; elements are sorted lexicographically by
    image tuple, so group listings are reproducible.  `images` must be
    integer rows on the carrier, hold the identity and no row twice, and
    every row must pass one `_certify` call, or ValueError is raised: a
    self-map that passes is injective, so it is an automorphism.  A group
    of the identity alone needs no plan; `_plan`, the plan a caller built
    with `rings._build_plan(ring)`, spares building a second.  The set is
    not checked for closure: a composition or inverse outside it raises
    NotAutomorphism when met.
    Queries name an element by its index or as a morphism: an index
    outside 0..order-1 raises IndexError, and a morphism that is not an
    element, a map of another ring included, raises NotAutomorphism.

    `generators`, image arrays of elements that generate the group, let
    `is_abelian` and `orbits` read those elements only; a generator that
    is not an element raises ValueError.  Without them every element is
    read.
    """

    def __init__(self, ring: FiniteRing, images: np.ndarray, generators=None, *, _plan=None):
        images = _carrier_array(images, ring.order, "group images")
        order = np.lexsort(images.T[::-1])
        images = np.ascontiguousarray(images[order], dtype=np.int64)  # keys are int64 bytes
        images.setflags(write=False)
        # the identity is the least permutation, so it sorts first
        if not len(images) or not np.array_equal(images[0], np.arange(ring.order)):
            raise ValueError("group images must include the identity")
        if len(images) > 1:
            if not _certify(ring, ring, images, _plan).all():
                raise ValueError("group images must be automorphisms of the ring")
        self._index = {images[i].tobytes(): i for i in range(len(images))}
        if len(self._index) != len(images):
            raise ValueError("duplicate group elements")
        self.ring = ring
        self._images = images
        self.elements = tuple(RingMorphism(ring, ring, images[i]) for i in range(len(images)))
        self._gen_rows = range(len(images))
        if generators is not None:
            rows = [_carrier_array(g, ring.order, "a generator") for g in generators]
            keys = {row.astype(np.int64).tobytes() for row in rows}
            if not keys <= self._index.keys():
                raise ValueError("a generator is not an element of the group")
            self._gen_rows = sorted(self._index[k] for k in keys)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def _row(self, image: np.ndarray, what: str) -> int:
        row = self._index.get(image.tobytes())
        if row is None:
            raise NotAutomorphism(f"{what} is not an element of this group")
        return row

    def _element(self, i: int) -> np.ndarray:
        """The image array of elements[i]; i must lie in 0..order-1."""
        if not 0 <= i < len(self._images):
            raise IndexError(f"element index {i} outside 0..{len(self._images) - 1}")
        return self._images[i]

    def index_of(self, morphism: RingMorphism) -> int:
        if morphism.source is not self.ring or morphism.target is not self.ring:
            raise NotAutomorphism("morphism is not a self-map of this group's ring")
        return self._row(morphism.image, "morphism")

    def compose_indices(self, i: int, j: int) -> int:
        """Index of elements[i] after elements[j] (j applied first)."""
        composed = self._element(i)[self._element(j)]
        return self._row(composed, f"elements[{i}] after elements[{j}]")

    def inverse_index(self, i: int) -> int:
        image = self._element(i)
        inv = np.empty_like(image)
        inv[image] = np.arange(self.ring.order)
        return self._row(inv, f"the inverse of elements[{i}]")

    def is_abelian(self) -> bool:
        rows = self._gen_rows
        for a in rows:
            for b in rows:
                if self.compose_indices(a, b) != self.compose_indices(b, a):
                    return False
        return True

    def element_order(self, sigma) -> int:
        """Order of one element, given as a morphism or by its index, as
        the cycle lcm of its permutation.

        Every point walks its cycle at once, `cur` holding where each has
        got to, and leaves the walk when it is back at its start, so the
        steps at which some point returns are the cycle lengths, and the
        loop runs as many times as the longest cycle is long.
        """
        img = self._element(self.index_of(sigma) if isinstance(sigma, RingMorphism) else sigma)
        point = np.arange(len(img))
        cur, step, lengths = img, 1, set()
        while len(point):
            back = cur == point
            if back.any():
                lengths.add(step)
                point, cur = point[~back], cur[~back]
            cur, step = img[cur], step + 1
        return math.lcm(*lengths)

    def orbit(self, x: int) -> frozenset[int]:
        x = self.ring._check(x)
        return frozenset(np.unique(self._images[:, x]).tolist())

    def _labels(self) -> np.ndarray:
        return _orbit_labels(self.ring.order, self._images[self._gen_rows])

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        return _blocks(self._labels())


def _orbit_labels(n: int, images) -> np.ndarray:
    """Each of 0..n-1 labelled by the least element of its orbit under `images`.

    The orbits are those of the group the permutations generate.  Each
    sweep gives x the smaller of its label and the label of g(x), for every
    g, and then jumps every label to its label's label.  Labels only fall
    and stay inside their orbit.  At the fixed point label(x) <= label(g(x))
    for every x and g, and going round the cycle of g through x makes these
    equal, so each orbit carries one label: its least element.
    """
    label = np.arange(n)
    if len(images):
        maps = np.stack(images)
        while True:
            before = label
            label = np.minimum(label, label[maps].min(axis=0))
            label = label[label]
            if np.array_equal(label, before):
                break
    return label


def _blocks(label: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The blocks of a label array, each ascending, listed in label order."""
    order = np.argsort(label, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), len(label)]
    order = order.tolist()
    return tuple(tuple(order[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class _Chain:
    """What the stabilizer chain search of a ring leaves on it.

    `orbits[i-1]` is the basic orbit of generator g_i, `strong` the maps the
    search found, `labels` each element's least Aut R orbit-mate and
    `nodes` the largest count any budget scope reached.  Every array is
    narrowed once, here, to the ring's table dtype and made read-only
    (`rings._frozen`); the search itself works in int64.
    """

    orbits: tuple
    strong: tuple
    labels: np.ndarray
    nodes: int

    def __post_init__(self):
        n = len(self.labels)
        for name in ("orbits", "strong"):
            object.__setattr__(self, name, tuple(_frozen(a, n) for a in getattr(self, name)))
        object.__setattr__(self, "labels", _frozen(self.labels, n))


def _stabilizer_chain(ring: FiniteRing, budget=None) -> _Chain:
    """The chain of generator stabilizers, cached on the ring as one record.

    Level i is the orbit G_{i-1}·g_i of generator g_i, as an ascending
    index array, where G_{i-1} is the group of automorphisms fixing S_{i-1}
    pointwise, so G_0 = Aut R.  The orbit lengths multiply to |Aut R|.  The
    record also holds the maps that the search found, a strong generating
    set, and the final `label` below, which `aut_orbits` reads.  No coset
    representative is stored: `automorphisms` traces them with
    `_transversal` to list a group.

    Levels are built deepest first, i = k .. 1, where S_k = R and G_k = 1.
    On entry to level i the strong generators found so far generate G_i.
    H is the group they generate together with the maps found at level i,
    and `label` gives each point the least element of its H-orbit, so y
    lies in the orbit H·g_i exactly when label[y] == label[g_i].  The
    candidates of `_Engine.expand` for g_i, rows on S_i that are
    injective homomorphisms there, are walked in ascending y:

    - y in the orbit is skipped: an element of H sends g_i there;
    - y marked unreachable is skipped;
    - otherwise `_Engine.first` completes the candidate row to an
      automorphism or proves that nothing does.  An element of G_{i-1}
      sending g_i to y equals the row on S_i, where the recipe fixes it,
      so it would be found.  A map found joins the strong generators and
      the labels are recomputed.  If none exists, no element of G_{i-1}
      sends g_i to y, and the whole H-orbit of y is marked unreachable: if
      sigma in G_{i-1} sent g_i to h(y), h in H, then h^-1 sigma would lie
      in G_{i-1} (H does) and send g_i to y.

    Soundness: every element of G_{i-1}·g_i is the generator image of a row
    that `expand` returns, so it is walked, and it is never marked
    unreachable; hence at the end the orbit H·g_i is exactly G_{i-1}·g_i.
    The stabilizer of g_i in G_{i-1} fixes S_{i-1} and g_i, which generate
    S_i, so it is G_i; H contains G_i, so the stabilizer of g_i in H is G_i
    too.  By orbit-stabilizer, |H| = |G_i|·|orbit| = |G_{i-1}|, and since
    H lies in G_{i-1}, H = G_{i-1}, which carries the invariant to level
    i-1.  So the strong generators that fix S_{i-1} generate G_{i-1}: those
    found at levels k..i do, and any other that fixes S_{i-1} lies in it.
    Every strong generator is a complete map that held every level's
    checks in `expand`.

    The search's `_Engine` builds the plan, which is dropped with
    it: the ring keeps only the `_Chain` record in `_derived`.  A ring
    whose tables are still deferred, a product, is searched on the
    `rings._working_ring` copy, which folds them and is dropped with the
    plan, so the product's tables stay deferred.  A ring that is its own
    prime subring, Z_n, has no generators and only the identity map, so
    it gets the empty chain with no plan, search or tables.

    One engine serves every level and candidate; the budget applies to each
    level's batch and to each `first` call separately.  The chain is cached
    with the largest count any of these scopes reached, and a cached chain
    raises for a budget below it.  That is what a fresh run does: the
    search does not depend on the budget, so every run builds the same
    scopes, and a scope's count only grows, so a run raises exactly when
    some scope's final count exceeds its budget.

    The cached record may also come from `_stabilizer_chains`, which
    searches some products in a forked child and reads their records from
    it once the products are all taken: such a record is this function's,
    field for field and node count included, installed through `_Chain` in
    the parent, and the budget check above applies to it alike.
    """

    def build():
        if ring.characteristic == ring.order:
            return _Chain((), (), np.arange(ring.order), 0)
        return _search_chain(_working_ring(ring), budget)

    chain = ring._get("aut_chain", build)
    _check_budget(chain.nodes, budget)
    return chain


def _search_chain(ring: FiniteRing, budget) -> _Chain:
    """The `_stabilizer_chain` record, searched on the ring's tables; the
    ring is not its own prime subring.

    Level i's walk starts from the identity on S_{i-1}, which holds the
    checks of levels 0..i-1, as `expand` requires.  A y whose row fails
    level i's checks is not walked, and neither is any point h(y) of its
    H-orbit: the row sending g_i to h(y) is h after the row of y, since h
    fixes S_{i-1}, and it holds an equation exactly when the row of y does,
    h being an automorphism.  No element of G_{i-1} sends g_i into that
    orbit, so the walk reaches the orbits, strong generators and labels it
    would reach by searching y, without the search.
    """
    engine = _Engine(ring, ring, budget)
    plan = engine.plan
    strong: list[np.ndarray] = []
    label = np.arange(ring.order)
    chain = []
    for i in range(len(plan) - 1, 0, -1):
        fixed, gen = plan[i - 1].elements, plan[i].gen
        row = np.full(ring.order, -1, dtype=np.int64)
        row[fixed] = fixed
        dead = np.zeros(ring.order, dtype=bool)
        engine.nodes = 0
        for cand in engine.expand(row, i):
            y = int(cand[gen])
            if label[y] == label[gen] or dead[y]:
                continue
            engine.nodes = 0
            found = engine.first(cand, i)
            if found is None:
                dead |= label == label[y]
            else:
                strong.append(found.copy())
                label = _orbit_labels(ring.order, strong)
        chain.append(np.flatnonzero(label == label[gen]))
    chain.reverse()
    return _Chain(chain, strong, label, engine.peak)


def _stabilizer_chains(ring_list, budget=None, meanwhile=None) -> None:
    """Fill the `_stabilizer_chain` cache of every ring given, in one call.

    Every host runs one schedule.  This process first searches every ring
    that is not a product, local rings included, whose searches leave
    fingerprints, units and the prime subring on the ring for later
    sweeps; then it calls `meanwhile()`, if given, work that needs no
    product's record; then it takes the products, largest first
    (`_taken`).  A product here is a ring whose tables are still deferred
    and that is not its own prime subring; in the catalog that is exactly
    the product entries.  Its search runs on a `_working_ring` copy, so it
    leaves nothing on the ring but its `_Chain`.

    On Linux, when the process may run on two or more CPUs, no other
    Python thread runs and at least two uncached products remain, one
    child is forked to share the products with this process.  They are
    shared through a queue (`_product_queue`): a pipe that holds each
    product's index, largest product first, as one 4-byte token, and
    whose write end is closed before the fork.  Each process takes the
    next product with `os.read(queue, 4)`.  Linux reads a pipe under the
    pipe's lock, so two reads never take bytes of one token; every token
    is in the pipe before either process reads, and every read asks for 4
    bytes, so the bytes left are always whole tokens, and a read returns
    one token, or b"" (EOF) once the queue is empty.  So each product is
    taken exactly once.  The child takes products until the queue ends,
    then pickles the (index, record) pairs it finished, orbits, strong
    generators, labels and nodes, into a second pipe, once.  This process,
    once the queue is empty, loads them and installs each record through
    `_Chain`, narrowed and read-only as its own are.  Without a child this
    process takes every product itself, in the same order.

    The child writes only when it takes no more products, so it can wait
    on a full pipe only while this process finishes its own work, which
    it does before it reads.

    Every answer and node count is the same with a child and without one.
    A search that runs over the budget ends the batch and leaves its ring
    and the rest uncached, and a product the child does not finish (any
    exception ends the child's batch: it takes no more products, and it
    still writes the records it finished) gets no record.  The callers
    then search every ring they passed with the same budget, so the first
    of them to raise does.  Any other exception, from a search here or
    from `meanwhile`, propagates from its step.  The steps and their
    order are the same on every host, so every host raises the same first
    error, with the same message.

    The child leaves only through `os._exit`, so it never returns into the
    caller.  This process kills the child with SIGKILL and reaps it before
    it returns or raises.  When its own work ends early, over the budget
    or by an exception, `meanwhile`'s included, that stops a child still
    searching, and nothing is read from it; otherwise the child has
    already written all it will.
    """
    todo = [r for r in ring_list if "aut_chain" not in r._derived]
    products = [r for r in todo if r._build_tables is not None and r.characteristic != r.order]
    products.sort(key=lambda r: r.order, reverse=True)
    queued = {id(r) for r in products}
    queue = _product_queue(len(products)) if len(products) >= 2 and _may_fork() else None
    forked = _fork_with_pipe() if queue is not None else None
    if queue is not None and forked is None:
        os.close(queue)
        queue = None
    pid, read, write = forked or (None, None, None)
    if pid == 0:
        try:
            # a collection would copy the pages of every object it visits,
            # and could finalize the parent's garbage a second time
            gc.disable()
            os.close(read)
            chains = []
            try:
                for i in _taken(queue, len(products)):
                    chains.append((i, _stabilizer_chain(products[i], budget)))
            finally:
                with os.fdopen(write, "wb") as out:
                    pickle.dump([(i, c.orbits, c.strong, c.labels, c.nodes) for i, c in chains], out)
        finally:
            os._exit(0)
    if pid is not None:
        import signal  # here, so that a process that never forks skips its import

        os.close(write)
    try:
        if not _search_each([r for r in todo if id(r) not in queued], budget):
            return
        if meanwhile is not None:
            meanwhile()
        mine = (products[i] for i in _taken(queue, len(products)))
        if not _search_each(mine, budget) or pid is None:
            return
        with os.fdopen(read, "rb", closefd=False) as records:
            try:
                theirs = pickle.load(records)
            except (EOFError, pickle.UnpicklingError):  # the child wrote nothing whole
                theirs = []
        for i, *fields in theirs:
            products[i]._derived.setdefault("aut_chain", _Chain(*fields))
    finally:
        if pid is not None:
            os.close(read)
            os.close(queue)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _taken(queue, n: int):
    """An iterator over the indices of the products this process takes, in
    order: the queue's tokens, each read when the next is asked for, until
    it is empty; or 0..n-1 when there is no queue, because no child shares
    the products."""
    if queue is None:
        return iter(range(n))
    return (int.from_bytes(token, "little") for token in iter(lambda: os.read(queue, 4), b""))


def _search_each(ring_list, budget) -> bool:
    """Search the rings' chains in order; False, with that ring and the
    rest uncached, at the first search that runs over the budget."""
    for ring in ring_list:
        try:
            _stabilizer_chain(ring, budget)
        except SearchBudgetExceeded:
            return False
    return True


def _product_queue(n: int):
    """The read end of a pipe holding the indices 0..n-1, in order, as
    4-byte little-endian tokens, with its write end closed; or None.

    The tokens are all written before any process reads, so they must fit
    the pipe's buffer at once: 64 KiB on Linux, 16384 tokens, or less when
    the kernel hands a user over its pipe quota a pipe of one or two pages.
    The write is non-blocking, so tokens that do not fit come back as a
    short write, and None is returned, as it is when the system has no
    pipe to spare: no child is forked, and this process takes every
    product.
    """
    try:
        read, write = os.pipe()
    except OSError:
        return None
    tokens = b"".join(i.to_bytes(4, "little") for i in range(n))
    os.set_blocking(write, False)
    try:
        written = os.write(write, tokens)  # an empty pipe takes a page at least
    finally:
        os.close(write)
    if written == len(tokens):
        return read
    os.close(read)
    return None


def _may_fork() -> bool:
    """Whether a forked child can search next to this process: Linux, two
    or more usable CPUs, and no other Python thread, whose locks a child
    could inherit held."""
    return (
        sys.platform.startswith("linux")
        and hasattr(os, "fork")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _fork_with_pipe():
    """`os.fork()` with a pipe from the child to this process, as (pid, read
    end, write end), or None when the system has no process or pipe to spare.

    Python 3.12+ warns when it forks a process with other OS threads; that
    warning, and only it, is silenced.  After `import numpy` the process
    holds OpenBLAS's idle worker threads, which run no Python code.
    OpenBLAS stops its pool around a fork (`pthread_atfork`), glibc's
    malloc takes its locks across it, and the child makes no BLAS call,
    only integer gathers and ufuncs, so the deadlock the warning is about
    cannot happen here.
    """
    try:
        read, write = os.pipe()
    except OSError:
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        try:
            return os.fork(), read, write
        except OSError:
            os.close(read)
            os.close(write)
            return None


def _transversal(n: int, point: int, gens) -> dict:
    """Point y -> a product of the maps `gens` sending `point` to y, by one BFS."""
    orbit = {point: np.arange(n, dtype=np.int64)}
    frontier = [point]
    while frontier:
        nxt = []
        for s in gens:
            for y in frontier:
                z = int(s[y])
                if z not in orbit:
                    orbit[z] = s[orbit[y]]
                    nxt.append(z)
        frontier = nxt
    return orbit


def aut_group_order(ring: FiniteRing, budget=None) -> int:
    """|Aut R| from the stabilizer chain, without enumerating the group."""
    return math.prod(len(orbit) for orbit in _stabilizer_chain(ring, budget).orbits)


def automorphisms(ring: FiniteRing, budget=None) -> AutGroup:
    """The full automorphism group as an explicit, verified element list.

    Each element is r_1 .. r_k, r_i from a transversal of G_i in G_{i-1}.
    The ring keeps its stabilizer chain and not the listing, an
    |Aut R|-by-|R| array that each call traces afresh and hands to the
    group it returns, whose constructor certifies every element.
    """
    chain = _stabilizer_chain(ring, budget)
    # the listing writes |R| element images per automorphism
    _check_budget(math.prod(len(orbit) for orbit in chain.orbits) * ring.order, budget)
    plan = rings._build_plan(ring)
    images = np.arange(ring.order, dtype=np.int64)[None, :]
    for i, orbit in enumerate(chain.orbits, start=1):
        fixed = plan[i - 1].elements
        gens = [g for g in chain.strong if np.array_equal(g[fixed], fixed)]
        level = _transversal(ring.order, plan[i].gen, gens)
        if sorted(level) != orbit.tolist():  # pragma: no cover - the chain's invariant
            raise RuntimeError("internal error: transversal does not cover the chain orbit")
        # row a*L + b is images[a] after representative b, one gather per level
        images = images[:, np.stack(list(level.values()))].reshape(-1, ring.order)
    return AutGroup(ring, images, chain.strong, _plan=plan)


def aut_orbits(ring: FiniteRing, budget=None) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the carrier under the full automorphism group.

    The blocks of the label array the stabilizer chain leaves behind, so
    this stays cheap even when the group is too large to enumerate.
    """
    return _blocks(_stabilizer_chain(ring, budget).labels)


def isomorphism(source: FiniteRing, target: FiniteRing, budget=None) -> RingMorphism | None:
    """A verified ring isomorphism, or None.

    Cheap rejections first: order, characteristic, then the fingerprint
    multiset; after that the generator-image search runs against the
    target's fingerprint classes.

    When the characteristic equals the order, both rings are their own
    prime subrings, Z_n, and k*1 -> k*1 is returned without a search: it
    is the only unital map between prime rings of equal characteristic,
    and it is additive, multiplicative and bijective because it is the
    identity of Z_n read in both carriers.

    A ring tested against itself gets the identity without a search, the
    map the search would return first.  Every index below g_i lies in
    S_{i-1}, since g_i is the least index outside it, so under the
    identity on S_{i-1} each of them is a used image, and g_i is the first
    candidate image of g_i; the identity on S_i keeps every fingerprint,
    and the identity holds every level's checks.  The budget is checked
    first, so a bad one raises ValueError even then.

    Otherwise the search starts from k*1 -> k*1 on S_0, which holds level
    0's checks, as the characteristics agree: its wrap edge is
    (char-1)*1 + 1 = 0, and it has no products.  A map the search returns
    held every level's checks on the way down, so it is an injective
    homomorphism (`_certify`) between rings of one order: an isomorphism.
    """
    _check_budget(0, budget)
    if source is target:
        return identity_automorphism(source)
    if source.order != target.order or source.characteristic != target.characteristic:
        return None
    # k*1 -> k*1 embeds the prime subring, S_0, when the characteristics agree
    row = np.full(source.order, -1, dtype=np.int64)
    row[list(source.prime_subring)] = target.prime_subring
    if source.characteristic == source.order:
        return RingMorphism(source, target, row)
    keys = [np.sort(_fingerprint_keys(ring)) for ring in (source, target)]
    if not np.array_equal(*keys):
        return None
    found = _Engine(source, target, budget).first(row, 0)
    return None if found is None else RingMorphism(source, target, found)


def compose(f: RingMorphism, g: RingMorphism) -> RingMorphism:
    """The map x -> g(f(x)); f.target must be g.source."""
    if f.target is not g.source:
        raise NotComposable("f.target and g.source differ")
    return RingMorphism(f.source, g.target, g.image[f.image])


def inverse(f: RingMorphism) -> RingMorphism:
    if not f.is_bijective:
        raise NotBijective("cannot invert a non-bijective morphism")
    inv = np.empty(f.source.order, dtype=np.int64)
    inv[f.image] = np.arange(f.source.order)
    return RingMorphism(f.target, f.source, inv)


def subgroup_closure(ring: FiniteRing, gens) -> AutGroup:
    """Smallest automorphism group of `ring` containing the given maps, checked
    with one plan: a self-map that `_certify` passes is injective.
    The generators are checked before the closure, which they bound, and the
    group is handed the same plan."""
    gens = list(gens)
    gen_arrays = [g.image for g in gens]
    plan = rings._build_plan(ring) if gens else None
    if gens and not (
        all(g.source is ring and g.target is ring for g in gens)
        and _certify(ring, ring, np.stack(gen_arrays), plan).all()
    ):
        raise NotAutomorphism("subgroup_closure generators must be automorphisms of the ring")
    ident = np.arange(ring.order, dtype=np.int64)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gen_arrays:
                c = a[g]
                key = c.tobytes()
                if key not in seen:
                    seen[key] = c
                    nxt.append(c)
        frontier = nxt
    return AutGroup(ring, np.stack(list(seen.values())), gen_arrays, _plan=plan)
