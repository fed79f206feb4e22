"""Automorphism enumeration and ring isomorphism testing.

A map is fixed by the images of the prime subring and of a greedy
generating set.  The source ring's closure plan derives every element of
S_i = <prime subring, g_1..g_i> from earlier ones, so the images on S_i are
computed by replaying that recipe, for all candidate images of g_i at once:
each recipe round is one gather on a matrix holding one candidate per row.
Rows whose new images change an element's fingerprint are dropped after
every round.  Only complete maps, at the last level, must pass `_certify`,
which checks sums along an additive coset tree of the ring and products of
its additive generators: a row that is not a homomorphism on S_i has no
extension that is one, so checking it earlier would only prune sooner.
A group is held as a stabilizer chain: the orbit of each g_i under the
automorphisms fixing S_{i-1}, and a strong generating set.  That keeps
huge symmetric-type groups countable without enumerating them.  The chain
is built deepest level first: an image of g_i already in the orbit of the
maps found so far needs no search, so a depth-first search runs only for
images they do not reach yet (Sims 1970; Holt, Eick & O'Brien 2005,
ch. 4).  Coset representatives are traced from the strong generators only
when `automorphisms` lists the group.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    NotAutomorphism,
    NotBijective,
    NotComposable,
    SearchBudgetExceeded,
)
from .rings import FiniteRing, _certificate, _closure_plan, _fingerprint_keys, _uncached_plan

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
    """Total map between two ring carriers, with lazy validity checks."""

    __slots__ = ("source", "target", "image", "_hom", "_bij")

    def __init__(self, source: FiniteRing, target: FiniteRing, image):
        image = np.ascontiguousarray(image, dtype=np.int64)
        if image.shape != (source.order,):
            raise ValueError("image must assign every source element")
        if image.size and (image.min() < 0 or image.max() >= target.order):
            raise ValueError("image values outside target carrier")
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
            self._hom = bool(_certify(self.source, self.target, self.image, injective=False)[0])
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


def _certify(
    source: FiniteRing, target: FiniteRing, rows, injective=True, cert=None
) -> np.ndarray:
    """Which complete image rows are injective unital ring homomorphisms.

    A row f passes when f(0) = 0, f(1) = 1, exactly one x has f(x) = 0, and
    f(c) = f(a) op f(b) for every triple (c, a, b) of the source's
    `_Certificate`: c = a + b on the additive coset tree of an additive
    generating set A = (a_1..a_K) and on one wrap edge per a_k, and
    c = a * b for a <= b in A.  With injective=False the zero count is
    skipped.  A row costs O(|R| + |A|^2) lookups, not O(|R|^2).

    Soundness.  Let span_k be the additive span of a_1..a_k and m_k the
    least m > 0 with m a_k in span_{k-1}; every x in span_k is z + c a_k
    for exactly one z in span_{k-1} and 0 <= c < m_k.  By induction on k,
    f is additive on span_k.  span_0 = {0} and f(0) = 0.  The tree edges
    z + c a_k = (z + (c-1) a_k) + a_k give f(z + c a_k) = f(z) + c f(a_k),
    by induction on c.  The wrap edge m_k a_k = (m_k - 1) a_k + a_k then
    gives f(m_k a_k) = m_k f(a_k).  For x = z + c a_k and x' = z' + c' a_k,
    x + x' = (z + z') + (c + c') a_k; if c + c' >= m_k, it is
    (z + z' + m_k a_k) + (c + c' - m_k) a_k with the first term in
    span_{k-1}.  Either way, additivity on span_{k-1} and the two
    identities give f(x + x') = f(x) + f(x').  span_K is the whole ring,
    so f is additive.  Every x is a sum of elements of A, and products
    distribute, so f(x y) = sum f(a b) over the summands a of x and b of
    y; both rings are commutative, so the pairs a <= b cover every a b,
    and f(x y) = sum f(a) f(b) = f(x) f(y).  So f is a unital ring
    homomorphism, and one zero means its kernel is trivial, so it is
    injective.  This is the consistency check of a polycyclic
    presentation (Holt, Eick & O'Brien 2005, ch. 8).  The order-1 ring has
    no triples, and its one row passes on f(0) = 0 = f(1) alone.

    `cert` is the source's certificate, the cached one by default.
    """
    if cert is None:
        cert = _certificate(source)
    rows = np.atleast_2d(rows)
    ok = (rows[:, source.zero] == target.zero) & (rows[:, source.one] == target.one)
    checks = ((cert.sums, target.add_table), (cert.products, target.mul_table))
    # at most 2*10^6 entries per chunk in the gather of the sum triples (the
    # product triples are fewer) and in the zero count
    step = max(1, 2_000_000 // (3 * cert.sums.shape[1] + rows.shape[1]))
    for lo in range(0, len(rows), step):
        chunk = rows[lo : lo + step]
        if injective:
            ok[lo : lo + step] &= (chunk == target.zero).sum(axis=1) == 1
        for triples, table in checks:
            c, a, b = chunk[:, triples].transpose(1, 0, 2)
            ok[lo : lo + step] &= (table[a, b] == c).all(axis=1)
    return ok


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

    `plan` is the source's (levels, certificate) pair of `rings._build_plan`;
    by default the one the source caches.
    """

    def __init__(self, source: FiniteRing, target: FiniteRing, budget=None, plan=None):
        self.source = source
        self.target = target
        self.plan, self.cert = plan or (_closure_plan(source), _certificate(source))
        self.budget = budget
        self.nodes = self.peak = 0
        # both rings have one order, so equal keys mean equal fingerprints
        self.sfp = _fingerprint_keys(source)
        self.tfp = _fingerprint_keys(target)

    def expand(self, row: np.ndarray, i: int) -> np.ndarray:
        """The extensions to S_i of a row on S_{i-1} that keep their fingerprints.

        Rows come out in ascending order of the image of g_i.  At the last
        level they are complete maps, and only those that pass `_certify`
        are returned; earlier levels return every row that keeps its
        fingerprints.  That loses no exactness: the recipe fixes the images
        on S_i, so two homomorphisms that agree on S_{i-1} and g_i agree on
        S_i, and a row that is not a homomorphism on S_i has no extension
        that is one.  Every completion of such a row fails the final
        certificate, so `first` returns None for it, as if the row had
        been rejected at its own level, and marking its orbit dead in the
        stabilizer chain stays sound.
        """
        level = self.plan[i]
        cands = np.flatnonzero(self.tfp == self.sfp[level.gen])
        used = np.zeros(self.target.order, dtype=bool)
        used[row[self.plan[i - 1].elements]] = True
        cands = cands[~used[cands]]
        rows = np.repeat(row[None, :], len(cands), axis=0)
        rows[:, level.gen] = cands
        nodes = len(rows)
        for rnd in level.rounds:
            for (c, a, b), table in zip(rnd, (self.target.add_table, self.target.mul_table)):
                rows[:, c] = table[rows[:, a], rows[:, b]]
            new = np.concatenate([rnd[0][0], rnd[1][0]])
            rows = rows[(self.tfp[rows[:, new]] == self.sfp[new]).all(axis=1)]
            nodes += len(rows) * len(new)
        self.nodes += nodes
        self.peak = max(self.peak, self.nodes)
        _check_budget(self.nodes, self.budget)
        if i + 1 < len(self.plan):
            return rows
        return rows[_certify(self.source, self.target, rows, cert=self.cert)]

    def first(self, row: np.ndarray, i: int) -> np.ndarray | None:
        """The first certified full map, depth first, extending a row on S_i.

        A row on the last level must come from `expand`, which certified it.
        """
        if i + 1 == len(self.plan):
            return row
        for nxt in self.expand(row, i + 1):
            found = self.first(nxt, i + 1)
            if found is not None:
                return found
        return None


def _check_budget(nodes: int, budget) -> None:
    """Raise when `nodes` element images exceed the budget (None: the default)."""
    budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if nodes > budget:
        raise SearchBudgetExceeded(
            f"{nodes} element images exceed the budget of {budget}; raise the budget to continue"
        )


# ---------------------------------------------------------------------------
# groups


class AutGroup:
    """Composition-closed set of automorphisms of one ring.

    Element 0 is the identity; elements are sorted lexicographically by
    image tuple, so group listings are reproducible.  `images` must hold
    the identity and no row twice, or ValueError is raised.  The set is
    not checked for closure: a composition or inverse that falls outside
    it raises NotAutomorphism when a lookup meets it.

    `generators`, image arrays of elements that generate the group, let
    `is_abelian` and `orbits` read those elements only; a generator that
    is not an element raises ValueError.  Without them every element is
    read.
    """

    def __init__(self, ring: FiniteRing, images: np.ndarray, generators=None):
        order = np.lexsort(images.T[::-1])
        images = np.ascontiguousarray(images[order], dtype=np.int64)  # keys are int64 bytes
        images.setflags(write=False)
        self._index = {images[i].tobytes(): i for i in range(len(images))}
        if len(self._index) != len(images):
            raise ValueError("duplicate group elements")
        # the identity is the least permutation, so it sorts first
        if not len(images) or not np.array_equal(images[0], np.arange(ring.order)):
            raise ValueError("group images must include the identity")
        self.ring = ring
        self._images = images
        self.elements = tuple(RingMorphism(ring, ring, images[i]) for i in range(len(images)))
        self._gen_rows = range(len(images))
        if generators is not None:
            keys = {np.asarray(g, dtype=np.int64).tobytes() for g in generators}
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

    def index_of(self, morphism: RingMorphism) -> int:
        return self._row(np.asarray(morphism.image, dtype=np.int64), "morphism")

    def compose_indices(self, i: int, j: int) -> int:
        """Index of elements[i] after elements[j] (j applied first)."""
        composed = self._images[i][self._images[j]]
        return self._row(composed, f"elements[{i}] after elements[{j}]")

    def inverse_index(self, i: int) -> int:
        inv = np.empty_like(self._images[i])
        inv[self._images[i]] = np.arange(self.ring.order)
        return self._row(inv, f"the inverse of elements[{i}]")

    def is_abelian(self) -> bool:
        rows = self._gen_rows
        for a in rows:
            for b in rows:
                if self.compose_indices(a, b) != self.compose_indices(b, a):
                    return False
        return True

    def element_order(self, sigma) -> int:
        """Order of one automorphism, as the cycle lcm of its permutation."""
        if isinstance(sigma, RingMorphism):
            img = sigma.image
        else:
            img = self._images[sigma]
        seen = np.zeros(len(img), dtype=bool)
        out = 1
        for start in range(len(img)):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = int(img[x])
                length += 1
            out = math.lcm(out, length)
        return out

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


def _stabilizer_chain(ring: FiniteRing, budget=None) -> list[np.ndarray]:
    """The basic orbits of the chain of generator stabilizers.

    Level i is the orbit G_{i-1}·g_i of generator g_i, as an ascending
    index array, where G_{i-1} is the group of automorphisms fixing S_{i-1}
    pointwise, so G_0 = Aut R.  The orbit lengths multiply to |Aut R|.  The
    maps that the search found, a strong generating set, are cached beside
    the chain and read by `_strong_generators`, and so is the final `label`
    below, which `_aut_labels` reads.  No coset representative is stored:
    `automorphisms` traces them with `_transversal` to list a group.

    Levels are built deepest first, i = k .. 1, where S_k = R and G_k = 1.
    On entry to level i the strong generators found so far generate G_i.
    H is the group they generate together with the maps found at level i,
    and `label` gives each point the least element of its H-orbit, so y
    lies in the orbit H·g_i exactly when label[y] == label[g_i].  The
    candidates of `_Engine.expand` for g_i, rows on S_i that keep their
    fingerprints (certified when i = k), are walked in ascending y:

    - y in the orbit is skipped: an element of H sends g_i there;
    - y marked unreachable is skipped;
    - otherwise `_Engine.first` completes the candidate row to a certified
      map or proves that nothing does.  An element of G_{i-1} sending g_i
      to y equals the row on S_i, where the recipe fixes it, so it would
      be found.  A map found joins the strong generators and the labels
      are recomputed.  If none exists, no element of G_{i-1} sends g_i to
      y, and the whole H-orbit of y is marked unreachable: if sigma in
      G_{i-1} sent g_i to h(y), h in H, then h^-1 sigma would lie in
      G_{i-1} (H does) and send g_i to y.

    Soundness: every element of G_{i-1}·g_i is the generator image of a row
    that `expand` returns, so it is walked, and it is never marked
    unreachable; hence at the end the orbit H·g_i is exactly G_{i-1}·g_i.
    The stabilizer of g_i in G_{i-1} fixes S_{i-1} and g_i, which generate
    S_i, so it is G_i; H contains G_i, so the stabilizer of g_i in H is G_i
    too.  By orbit-stabilizer, |H| = |G_i|·|orbit| = |G_{i-1}|, and since
    H lies in G_{i-1}, H = G_{i-1}, which carries the invariant to level
    i-1.  So the strong generators that fix S_{i-1} generate G_{i-1}: those
    found at levels k..i do, and any other that fixes S_{i-1} lies in it.
    Every strong generator is a complete map that `expand` certified.

    The closure plan is the ring's cached one if it has one, or else is
    built for this search and dropped with it: the ring keeps only the
    chain, the strong generators, the labels and the node count.

    One engine serves every level and candidate; the budget applies to each
    level's batch and to each `first` call separately.  The chain is cached
    with the largest count any of these scopes reached, and a cached chain
    raises for a budget below it.  That is what a fresh run does: the
    search does not depend on the budget, so every run builds the same
    scopes, and a scope's count only grows, so a run raises exactly when
    some scope's final count exceeds its budget.
    """
    cached = ring._aut_cache.get("chain")
    if cached is not None:
        _check_budget(ring._aut_cache["nodes"], budget)
        return cached
    plan, cert = _uncached_plan(ring)
    # a ring that is its prime subring has no levels, and needs no fingerprints
    engine = _Engine(ring, ring, budget, (plan, cert)) if len(plan) > 1 else None
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
    label.setflags(write=False)
    ring._aut_cache["chain"] = chain
    ring._aut_cache["strong"] = strong
    ring._aut_cache["labels"] = label
    ring._aut_cache["nodes"] = engine.peak if engine else 0
    return chain


def _strong_generators(ring: FiniteRing, budget=None) -> list[np.ndarray]:
    """The maps the stabilizer chain search found; they generate Aut R."""
    _stabilizer_chain(ring, budget)
    return ring._aut_cache["strong"]


def _aut_labels(ring: FiniteRing, budget=None) -> np.ndarray:
    """Each element labelled by the least element of its Aut R orbit."""
    _stabilizer_chain(ring, budget)
    return ring._aut_cache["labels"]


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
    return math.prod(len(orbit) for orbit in _stabilizer_chain(ring, budget))


def automorphisms(ring: FiniteRing, budget=None) -> AutGroup:
    """The full automorphism group as an explicit, verified element list.

    Each element is r_1 .. r_k, r_i from a transversal of G_i in G_{i-1}.
    """
    chain = _stabilizer_chain(ring, budget)
    # the listing writes |R| element images per automorphism
    _check_budget(math.prod(len(orbit) for orbit in chain) * ring.order, budget)
    strong = _strong_generators(ring, budget)
    # the cache holds arrays only: an AutGroup refers to the ring, and a
    # cached one would keep every ring that was enumerated alive until the
    # cyclic collector runs
    cached = ring._aut_cache.get("group")
    if cached is not None:
        return AutGroup(ring, cached, strong)
    plan = _closure_plan(ring)
    images = [np.arange(ring.order, dtype=np.int64)]
    for i, orbit in enumerate(chain, start=1):
        fixed = plan[i - 1].elements
        gens = [g for g in strong if np.array_equal(g[fixed], fixed)]
        level = _transversal(ring.order, plan[i].gen, gens)
        if sorted(level) != orbit.tolist():  # pragma: no cover - the chain's invariant
            raise RuntimeError("internal error: transversal does not cover the chain orbit")
        images = [acc[rep] for acc in images for rep in level.values()]
    stack = np.stack(images)
    if not _certify(ring, ring, stack).all():  # pragma: no cover - closure of verified maps
        raise RuntimeError("internal error: transversal product is not an automorphism")
    group = AutGroup(ring, stack, strong)
    ring._aut_cache["group"] = group._images
    return group


def aut_orbits(ring: FiniteRing, budget=None) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the carrier under the full automorphism group.

    The blocks of the label array the stabilizer chain leaves behind, so
    this stays cheap even when the group is too large to enumerate.
    """
    return _blocks(_aut_labels(ring, budget))


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
    and the complete identity passes the certificate.
    """
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
    """Smallest automorphism group of `ring` containing the given maps."""
    gen_arrays = []
    for g in gens:
        if not (g.source is ring and g.target is ring and g.is_bijective and g.is_homomorphism):
            raise NotAutomorphism("subgroup_closure generators must be automorphisms of the ring")
        gen_arrays.append(np.asarray(g.image, dtype=np.int64))
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
    return AutGroup(ring, np.stack(list(seen.values())), gen_arrays)
