"""Automorphism enumeration and ring isomorphism testing.

A map is fixed by the images of the prime subring and of a greedy
generating set.  The source ring's closure plan derives every element of
S_i = <prime subring, g_1..g_i> from earlier ones, so the images on S_i are
computed by replaying that recipe, for all candidate images of g_i at once:
each recipe round is one gather on a matrix holding one candidate per row.
Rows whose new images change an element's fingerprint are dropped after
every round, and the survivors must pass `_certify`, a check against an
additive generating set of S_i, before the search goes one level deeper.
Whole groups are assembled from a stabilizer chain of coset
representatives, which keeps huge symmetric-type groups countable without
enumerating them.  The chain is built deepest level first: the maps found
so far form a strong generating set, and a Schreier transversal of the
orbit of g_i under them gives most representatives by composition, so a
depth-first search runs only for images the known maps do not reach yet
(Sims 1970; Holt, Eick & O'Brien 2005, ch. 4).  Orbits and generator-based
group queries read the strong generators, not every representative.
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
from .rings import FiniteRing, _closure_plan

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


def _certify(source: FiniteRing, target: FiniteRing, rows, level=-1, injective=True) -> np.ndarray:
    """Which image rows are injective ring homomorphisms on S = S_level.

    A row f passes when f(0) = 0, f(1) = 1, exactly one x in S has f(x) = 0,
    and f(x+s) = f(x)+f(s) and f(x*s) = f(x)*f(s) for every x in S and every
    s in the level's additive generating set A.  Entries outside S are not
    read.  With injective=False the zero count is skipped.

    Soundness: every y in S is a sum s_1 + ... + s_m of elements of A,
    since A generates the finite additive group S.  By induction on m,
    f(x+y) = f((x + s_1+..+s_{m-1}) + s_m) = f(x + s_1+..+s_{m-1}) + f(s_m)
    = f(x) + f(y), using that S is closed under + and f(0) = 0 for m = 0.
    Then f(x*y) = f(sum x*s_j) = sum f(x*s_j) = f(x) * sum f(s_j)
    = f(x)*f(y) by additivity and distributivity.  So f is a unital ring
    homomorphism on S, and one zero means its kernel is trivial, so it is
    injective.  The check costs O(|S| log |S|) per row, not O(|S|^2).
    """
    level = _closure_plan(source)[level]
    dom, gens = level.elements, level.additive_gens
    rows = np.atleast_2d(rows)
    ok = (rows[:, source.zero] == target.zero) & (rows[:, source.one] == target.one)
    if injective:
        ok &= (rows[:, dom] == target.zero).sum(axis=1) == 1
    pairs = tuple(zip(level.grids, (target.add_table, target.mul_table)))
    step = max(1, 2_000_000 // max(dom.size * gens.size, 1))
    for lo in range(0, len(rows), step):
        chunk = rows[lo : lo + step]
        x = chunk[:, dom][:, :, None]
        s = chunk[:, gens][:, None, :]
        for s_idx, t_tab in pairs:
            ok[lo : lo + step] &= (chunk[:, s_idx] == t_tab[x, s]).all(axis=(1, 2))
    return ok


# ---------------------------------------------------------------------------
# the search engine


class _Engine:
    """Extension of partial maps from one source ring into one target ring.

    `nodes` counts element images fixed: each candidate image of a
    generator, and each image a recipe round derives on a row that keeps
    its fingerprints.  A level that takes it past the budget raises, so a
    too-large instance never yields a partial answer.  Callers reset
    `nodes` to scope the budget.
    """

    def __init__(self, source: FiniteRing, target: FiniteRing, budget=None):
        self.source = source
        self.target = target
        self.plan = _closure_plan(source)
        self.budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
        self.nodes = 0
        ids: dict = {}
        self.sfp = np.array([ids.setdefault(fp, len(ids)) for fp in source.fingerprints])
        self.tfp = np.array([ids.setdefault(fp, len(ids)) for fp in target.fingerprints])

    def expand(self, row: np.ndarray, i: int) -> np.ndarray:
        """Every certified extension to S_i of a row certified on S_{i-1}.

        Rows come out in ascending order of the image of g_i.
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
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(
                f"search exceeded {self.budget} nodes; raise the budget to continue"
            )
        return rows[_certify(self.source, self.target, rows, i)]

    def first(self, row: np.ndarray, i: int) -> np.ndarray | None:
        """The first full map, depth first, extending a row certified on S_i."""
        if i + 1 == len(self.plan):
            return row
        for nxt in self.expand(row, i + 1):
            found = self.first(nxt, i + 1)
            if found is not None:
                return found
        return None


# ---------------------------------------------------------------------------
# groups


class AutGroup:
    """Composition-closed set of automorphisms of one ring.

    Element 0 is the identity; elements are sorted lexicographically by
    image tuple, so group listings are reproducible.
    """

    def __init__(self, ring: FiniteRing, images: np.ndarray, generator_rows=None):
        order = np.lexsort(images.T[::-1])
        images = np.ascontiguousarray(images[order])
        images.setflags(write=False)
        self.ring = ring
        self._images = images
        self.elements = tuple(RingMorphism(ring, ring, images[i]) for i in range(len(images)))
        self._index = {images[i].tobytes(): i for i in range(len(images))}
        self._gen_rows = generator_rows
        assert len(self._index) == len(self.elements), "duplicate group elements"
        assert np.array_equal(images[0], np.arange(ring.order))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, morphism: RingMorphism) -> int:
        key = np.asarray(morphism.image, dtype=np.int64).tobytes()
        if key not in self._index:
            raise NotAutomorphism("morphism is not an element of this group")
        return self._index[key]

    def compose_indices(self, i: int, j: int) -> int:
        """Index of elements[i] after elements[j] (j applied first)."""
        composed = self._images[i][self._images[j]]
        return self._index[composed.tobytes()]

    def inverse_index(self, i: int) -> int:
        inv = np.empty_like(self._images[i])
        inv[self._images[i]] = np.arange(self.ring.order)
        return self._index[inv.tobytes()]

    def _generator_rows(self):
        if self._gen_rows is not None:
            return self._gen_rows
        return range(len(self.elements))

    def is_abelian(self) -> bool:
        rows = list(self._generator_rows())
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

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        gens = [self._images[i] for i in self._generator_rows()]
        return _orbits_from_images(self.ring.order, gens)


def _orbits_from_images(n: int, images) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for img in images:
        for x in range(n):
            ra, rb = find(x), find(int(img[x]))
            if ra != rb:
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return tuple(tuple(blocks[r]) for r in sorted(blocks))


def _stabilizer_chain(ring: FiniteRing, budget=None):
    """Coset representatives for the chain of generator stabilizers.

    Level i holds, for each image y of generator g_i under G_{i-1} (the
    automorphisms fixing S_{i-1} pointwise, so G_0 = Aut R), one element of
    G_{i-1} sending g_i to y, in ascending y.  The level sizes multiply to
    |Aut R| and the representatives generate it.  The maps that the search
    found, a strong generating set, are cached beside the chain and read
    by `_strong_generators`.

    Levels are built deepest first, i = k .. 1, where S_k = R and G_k = 1.
    On entry to level i the strong generators found so far generate G_i.
    H is the group they generate together with the maps found at level i,
    and `orbit` is a Schreier transversal of H·g_i: point y -> a product of
    generators sending g_i to y.  The certified candidates of
    `_Engine.expand` for g_i are walked in ascending y:

    - y in the orbit already has a representative, with no search;
    - y marked unreachable is skipped;
    - otherwise `_Engine.first` completes the candidate row or proves that
      nothing does.  A map found joins the strong generators and the orbit
      is regrown.  If none exists, no element of G_{i-1} sends g_i to y, and
      the whole H-orbit of y is marked unreachable: if sigma in G_{i-1} sent
      g_i to h(y), h in H, then h^-1 sigma would lie in G_{i-1} (H does) and
      send g_i to y.

    Soundness: every element of G_{i-1}·g_i is the generator image of a row
    that `expand` certifies, so it is walked, and it is never marked
    unreachable; hence at the end the orbit is exactly G_{i-1}·g_i.  The
    stabilizer of g_i in G_{i-1} fixes S_{i-1} and g_i, which generate S_i,
    so it is G_i; H contains G_i, so the stabilizer of g_i in H is G_i too.
    By orbit-stabilizer, |H| = |G_i|·|orbit| = |G_{i-1}|, and since H lies
    in G_{i-1}, H = G_{i-1}, which carries the invariant to level i-1.
    Each level's representatives are certified again, in one batch, before
    they are returned.

    One engine serves every level and candidate; the budget applies to each
    level's batch and to each `first` call separately.
    """
    cached = ring._aut_cache.get("chain")
    if cached is not None:
        return cached
    engine = _Engine(ring, ring, budget)
    plan = engine.plan
    strong: list[np.ndarray] = []
    chain = []
    for i in range(len(plan) - 1, 0, -1):
        fixed, gen = plan[i - 1].elements, plan[i].gen
        row = np.full(ring.order, -1, dtype=np.int64)
        row[fixed] = fixed
        orbit = {gen: np.arange(ring.order, dtype=np.int64)}
        dead: set[int] = set()
        engine.nodes = 0
        for cand in engine.expand(row, i):
            y = int(cand[gen])
            if y in orbit or y in dead:
                continue
            engine.nodes = 0
            found = engine.first(cand, i)
            if found is None:
                dead |= _orbit(y, strong)
            else:
                strong.append(found.copy())
                _extend_transversal(orbit, strong, list(orbit), strong[-1:])
        ys = sorted(orbit)
        reps = np.stack([orbit[y] for y in ys])
        ok = _certify(ring, ring, reps) & (reps[:, fixed] == fixed).all(axis=1)
        if not (ok & (reps[:, gen] == ys)).all():  # pragma: no cover - products of verified maps
            raise RuntimeError("internal error: stabilizer chain representative is not valid")
        chain.append(list(zip(ys, reps)))
    chain.reverse()
    ring._aut_cache["chain"] = chain
    ring._aut_cache["strong"] = strong
    return chain


def _strong_generators(ring: FiniteRing, budget=None) -> list[np.ndarray]:
    """The maps the stabilizer chain search found; they generate Aut R."""
    _stabilizer_chain(ring, budget)
    return ring._aut_cache["strong"]


def _extend_transversal(orbit: dict, gens, frontier, use) -> None:
    """Close the transversal `orbit` (point -> map sending the base point there) under `gens`.

    The points in `frontier` still lack their images under the maps in
    `use`; every point added needs its images under all of `gens`.
    """
    while frontier:
        nxt = []
        for s in use:
            for y in frontier:
                z = int(s[y])
                if z not in orbit:
                    orbit[z] = s[orbit[y]]
                    nxt.append(z)
        frontier, use = nxt, gens


def _orbit(point: int, gens) -> set[int]:
    """The orbit of one point under the group the maps `gens` generate."""
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for s in gens:
            for y in frontier:
                z = int(s[y])
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return seen


def aut_group_order(ring: FiniteRing, budget=None) -> int:
    """|Aut R| from the stabilizer chain, without enumerating the group."""
    return math.prod(len(level) for level in _stabilizer_chain(ring, budget))


def automorphisms(ring: FiniteRing, budget=None) -> AutGroup:
    """The full automorphism group as an explicit, verified element list."""
    # the cache holds arrays only: an AutGroup refers to the ring, and a
    # cached one would keep every ring that was enumerated alive until the
    # cyclic collector runs
    cached = ring._aut_cache.get("group")
    if cached is not None:
        return AutGroup(ring, *cached)
    eff_budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
    chain = _stabilizer_chain(ring, budget)
    total = math.prod(len(level) for level in chain)
    if total * ring.order > eff_budget:
        raise SearchBudgetExceeded(
            f"|Aut R| = {total} is too large to enumerate within budget {eff_budget}"
        )
    images = [np.arange(ring.order, dtype=np.int64)]
    for level in chain:
        images = [acc[rep] for acc in images for _, rep in level]
    stack = np.stack(images)
    if not _certify(ring, ring, stack).all():  # pragma: no cover - closure of verified maps
        raise RuntimeError("internal error: transversal product is not an automorphism")
    group = AutGroup(ring, stack)
    group._gen_rows = sorted({group._index[g.tobytes()] for g in _strong_generators(ring)})
    ring._aut_cache["group"] = (group._images, group._gen_rows)
    return group


def aut_orbits(ring: FiniteRing, budget=None) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the carrier under the full automorphism group.

    Works from the strong generators of the stabilizer chain, so it stays
    cheap even when the group itself is too large to enumerate.
    """
    cached = ring._aut_cache.get("orbits")
    if cached is not None:
        return cached
    orbits = _orbits_from_images(ring.order, _strong_generators(ring, budget))
    ring._aut_cache["orbits"] = orbits
    return orbits


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
    """
    if source.order != target.order or source.characteristic != target.characteristic:
        return None
    # k*1 -> k*1 embeds the prime subring, S_0, when the characteristics agree
    row = np.full(source.order, -1, dtype=np.int64)
    row[list(source.prime_subring)] = target.prime_subring
    if source.characteristic == source.order:
        return RingMorphism(source, target, row)
    if sorted(source.fingerprints) != sorted(target.fingerprints):
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
    return AutGroup(ring, np.stack(list(seen.values())))
