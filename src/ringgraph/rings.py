"""Finite commutative rings with identity, stored as dense operation tables.

A ring of order n lives on the carrier 0..n-1 with two n-by-n lookup
tables.  Tables are built once from a RingExpr and are immutable; every
structural question (units, nilpotents, local structure, idempotents,
annihilators, ...) reduces to an exhaustive finite scan of the tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, InvalidModulus, NotLocal, OrderLimitExceeded
from .expr import (
    GF,
    Prod,
    PolyQuot,
    RingExpr,
    SquareZero,
    Zn,
    _poly_mod,
    _poly_mul,
    expr_order,
    factorize,
    format_poly,
    poly_is_irreducible,
    prime_power,
)

__all__ = [
    "DEFAULT_MAX_ORDER",
    "FiniteRing",
    "LocalStructure",
    "make_ring",
    "local_structure",
    "decompose_local",
    "idempotents",
    "annihilator",
    "socle",
    "euler_phi",
    "element_fingerprint",
    "generating_set",
    "product_ring",
]

DEFAULT_MAX_ORDER = 4096


def _table_dtype(n: int):
    return np.int16 if n < 2**15 else np.int32


class FiniteRing:
    """Table-backed finite commutative ring with identity.

    Instances are immutable after construction and safe to share; derived
    data (units, fingerprints, automorphism search state, ...) is cached
    on first use.
    """

    def __init__(self, add_table, mul_table, zero, one, presentation, element_names):
        add_table = np.ascontiguousarray(add_table)
        mul_table = np.ascontiguousarray(mul_table)
        n = add_table.shape[0]
        if add_table.shape != (n, n) or mul_table.shape != (n, n):
            raise ValueError("operation tables must be square and equally sized")
        add_table.setflags(write=False)
        mul_table.setflags(write=False)
        self.order = n
        self.add_table = add_table
        self.mul_table = mul_table
        self.zero = int(zero)
        self.one = int(one)
        self.presentation = presentation
        self.element_names = tuple(element_names)
        self._aut_cache: dict = {}
        self._derived: dict = {}

    # -- basic arithmetic ---------------------------------------------------

    def _check(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self.order:
            raise IndexOutOfRange(f"element index {x} outside 0..{self.order - 1}")
        return x

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[self._check(x), self._check(y)])

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[self._check(x), self._check(y)])

    def neg(self, x: int) -> int:
        return int(self._neg[self._check(x)])

    def pow(self, x: int, k: int) -> int:
        x = self._check(x)
        if k < 0:
            raise ValueError("exponent must be >= 0")
        out = self.one
        base = x
        while k:
            if k & 1:
                out = int(self.mul_table[out, base])
            base = int(self.mul_table[base, base])
            k >>= 1
        return out

    def name(self, x: int) -> str:
        return self.element_names[self._check(x)]

    # -- cached structure ---------------------------------------------------

    def _get(self, key, builder):
        if key not in self._derived:
            self._derived[key] = builder()
        return self._derived[key]

    @property
    def _neg(self):
        return self._get("neg", lambda: np.argmax(self.add_table == self.zero, axis=1))

    @property
    def characteristic(self) -> int:
        return len(self.prime_subring)

    @property
    def prime_subring(self) -> tuple[int, ...]:
        """0, 1, 1+1, ... in carrier order of first appearance."""

        def build():
            out = [self.zero]
            x = self.one
            while x != self.zero:
                out.append(x)
                x = int(self.add_table[x, self.one])
            return tuple(out)

        return self._get("prime_subring", build)

    @property
    def units(self) -> frozenset[int]:
        return self._get(
            "units",
            lambda: frozenset(np.flatnonzero((self.mul_table == self.one).any(axis=1)).tolist()),
        )

    @property
    def nilpotents(self) -> frozenset[int]:
        def build():
            # x is nilpotent iff x**(2**k) hits zero for 2**k >= order
            p = np.arange(self.order)
            steps = max(1, int(self.order - 1).bit_length())
            for _ in range(steps):
                p = self.mul_table[p, p]
            return frozenset(np.flatnonzero(p == self.zero).tolist())

        return self._get("nilpotents", build)

    @property
    def is_field(self) -> bool:
        return len(self.units) == self.order - 1

    @property
    def fingerprints(self) -> tuple[tuple[int, ...], ...]:
        return self._get("fingerprints", lambda: _fingerprints(self))

    def table_digest(self) -> str:
        """Stable hash of the operation tables, used for deterministic tie-breaks."""
        h = hashlib.sha256()
        h.update(np.asarray(self.add_table, dtype=np.int32).tobytes())
        h.update(np.asarray(self.mul_table, dtype=np.int32).tobytes())
        h.update(bytes([self.zero & 0xFF, self.one & 0xFF]))
        return h.hexdigest()

    def __repr__(self):
        label = str(self.presentation) if self.presentation is not None else f"order={self.order}"
        return f"FiniteRing({label})"


@dataclass(frozen=True)
class LocalStructure:
    """Result of the local-ring test: maximal ideal and residue field size."""

    is_local: bool
    maximal_ideal: frozenset[int] | None = None
    residue_field_order: int | None = None


# ---------------------------------------------------------------------------
# construction


def make_ring(expr: RingExpr, max_order: int | None = None) -> FiniteRing:
    """Realize a RingExpr as tables, refusing orders above the cap."""
    cap = DEFAULT_MAX_ORDER if max_order is None else max_order
    n = expr_order(expr)
    if n > cap:
        raise OrderLimitExceeded(f"ring order {n} exceeds cap {cap}")
    return _build_ring(expr)


@lru_cache(maxsize=512)
def _build_ring(expr: RingExpr) -> FiniteRing:
    if isinstance(expr, Zn):
        return _make_zn(expr)
    if isinstance(expr, GF):
        return _make_gf(expr)
    if isinstance(expr, PolyQuot):
        return _make_polyquot(expr)
    if isinstance(expr, SquareZero):
        return _make_squarezero(expr)
    if isinstance(expr, Prod):
        factors = [_build_ring(f) for f in expr.factors]
        return product_ring(factors, presentation=expr)
    raise TypeError(f"not a RingExpr: {expr!r}")


def _make_zn(expr: Zn) -> FiniteRing:
    n = expr.n
    idx = np.arange(n, dtype=np.int64)
    dt = _table_dtype(n)
    add = ((idx[:, None] + idx[None, :]) % n).astype(dt)
    mul = ((idx[:, None] * idx[None, :]) % n).astype(dt)
    one = 1 % n
    return FiniteRing(add, mul, 0, one, expr, [str(i) for i in range(n)])


def _digits_matrix(q: int, base: int, width: int) -> np.ndarray:
    powers = base ** np.arange(width, dtype=np.int64)
    return (np.arange(q, dtype=np.int64)[:, None] // powers[None, :]) % base


def _digitwise_add_table(digits: np.ndarray, base: int, dt) -> np.ndarray:
    q, width = digits.shape
    place = base ** np.arange(width, dtype=np.int64)
    out = np.empty((q, q), dtype=dt)
    step = max(1, 2_000_000 // max(q, 1))
    for lo in range(0, q, step):
        hi = min(q, lo + step)
        s = (digits[lo:hi, None, :] + digits[None, :, :]) % base
        out[lo:hi] = s @ place
    return out


def _make_gf(expr: GF) -> FiniteRing:
    p, e, f = expr.p, expr.e, list(expr.modulus)
    if not poly_is_irreducible(f, p):
        raise InvalidModulus(f"modulus {format_poly(expr.modulus)} is reducible over Z_{p}")
    q = p**e
    dt = _table_dtype(q)
    digits = _digits_matrix(q, p, e)
    add = _digitwise_add_table(digits, p, dt)

    def decode(i):
        return [(i // p**k) % p for k in range(e)]

    def encode(poly):
        return sum(c * p**k for k, c in enumerate(poly))

    def fmul(a, b):
        return encode(_poly_mod(_poly_mul(decode(a), decode(b), p), f, p))

    mul = np.zeros((q, q), dtype=dt)
    if q == 2:
        mul[1, 1] = 1
    else:
        g = _find_generator(q, fmul)
        exp = np.empty(q - 1, dtype=np.int64)
        cur = 1
        for k in range(q - 1):
            exp[k] = cur
            cur = fmul(cur, g)
        log = np.empty(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        nz = np.arange(1, q, dtype=np.int64)
        lg = log[nz]
        step = max(1, 2_000_000 // q)
        for lo in range(0, q - 1, step):
            hi = min(q - 1, lo + step)
            mul[1 + lo : 1 + hi, 1:] = exp[(lg[lo:hi, None] + lg[None, :]) % (q - 1)]
    names = [format_poly(tuple(decode(i)), star=False) for i in range(q)]
    return FiniteRing(add, mul, 0, 1, expr, names)


def _find_generator(q: int, fmul) -> int:
    def fpow(a, k):
        out = 1
        while k:
            if k & 1:
                out = fmul(out, a)
            a = fmul(a, a)
            k >>= 1
        return out

    prime_divisors = list(factorize(q - 1))
    for g in range(2, q):
        if all(fpow(g, (q - 1) // r) != 1 for r in prime_divisors):
            return g
    raise RuntimeError("no multiplicative generator found")  # pragma: no cover


def _make_polyquot(expr: PolyQuot) -> FiniteRing:
    n, f = expr.n, list(expr.modulus)
    d = expr.degree
    q = n**d
    dt = _table_dtype(q)
    digits = _digits_matrix(q, n, d)
    add = _digitwise_add_table(digits, n, dt)
    place = n ** np.arange(d, dtype=np.int64)
    mul = np.empty((q, q), dtype=dt)
    for x in range(q):
        # rows of vx: coefficients of x * X**j reduced mod (f, n)
        vx = np.zeros((d, d), dtype=np.int64)
        cur = [(x // n**k) % n for k in range(d)]
        for j in range(d):
            vx[j, : len(cur)] = cur
            cur = _poly_mod([0] + cur, f, n)
        mul[x] = ((digits @ vx) % n) @ place
    names = [
        format_poly(tuple((i // n**k) % n for k in range(d)), star=False) for i in range(q)
    ]
    return FiniteRing(add, mul, 0, 1 % q, expr, names)


def _make_squarezero(expr: SquareZero) -> FiniteRing:
    base = _build_ring(expr.base)
    b, m = base.order, expr.m
    q = b ** (m + 1)
    dt = _table_dtype(q)
    digits = _digits_matrix(q, b, m + 1)  # column 0 is the base component
    place = b ** np.arange(m + 1, dtype=np.int64)
    ba = base.add_table.astype(np.int64)
    bm = base.mul_table.astype(np.int64)
    add = np.empty((q, q), dtype=dt)
    mul = np.empty((q, q), dtype=dt)
    step = max(1, 500_000 // max(q, 1))
    col = [digits[:, c] for c in range(m + 1)]
    for lo in range(0, q, step):
        hi = min(q, lo + step)
        acc_add = np.zeros((hi - lo, q), dtype=np.int64)
        for c in range(m + 1):
            acc_add += ba[col[c][lo:hi, None], col[c][None, :]] * place[c]
        add[lo:hi] = acc_add
        a_rows = col[0][lo:hi, None]
        acc_mul = bm[a_rows, col[0][None, :]].copy()
        for c in range(1, m + 1):
            # (a, v)(b, w) component c: a*w_c + v_c*b
            acc_mul += ba[bm[a_rows, col[c][None, :]], bm[col[c][lo:hi, None], col[0][None, :]]] * place[c]
        mul[lo:hi] = acc_mul
    names = [_squarezero_name(digits[i], base) for i in range(q)]
    return FiniteRing(add, mul, 0, base.one, expr, names)


def _squarezero_name(dig, base: FiniteRing) -> str:
    parts = []
    a = int(dig[0])
    if a != base.zero:
        nm = base.element_names[a]
        parts.append(f"({nm})" if "+" in nm else nm)
    for i in range(1, len(dig)):
        v = int(dig[i])
        if v == base.zero:
            continue
        if v == base.one:
            parts.append(f"x{i}")
        else:
            nm = base.element_names[v]
            parts.append(f"({nm})x{i}" if "+" in nm else f"{nm}x{i}")
    return "+".join(parts) if parts else base.element_names[base.zero]


def product_ring(factors, presentation=None) -> FiniteRing:
    """Direct product with big-endian mixed-radix element encoding."""
    factors = list(factors)
    orders = [f.order for f in factors]
    q = 1
    for o in orders:
        q *= o
    place = np.empty(len(factors), dtype=np.int64)
    acc = 1
    for i in range(len(factors) - 1, -1, -1):
        place[i] = acc
        acc *= orders[i]
    idx = np.arange(q, dtype=np.int64)
    cols = [(idx // place[i]) % orders[i] for i in range(len(factors))]
    dt = _table_dtype(q)
    add = np.empty((q, q), dtype=dt)
    mul = np.empty((q, q), dtype=dt)
    step = max(1, 500_000 // max(q, 1))
    for lo in range(0, q, step):
        hi = min(q, lo + step)
        acc_add = np.zeros((hi - lo, q), dtype=np.int64)
        acc_mul = np.zeros((hi - lo, q), dtype=np.int64)
        for i, f in enumerate(factors):
            fa = f.add_table.astype(np.int64)
            fm = f.mul_table.astype(np.int64)
            r = cols[i][lo:hi, None]
            c = cols[i][None, :]
            acc_add += fa[r, c] * place[i]
            acc_mul += fm[r, c] * place[i]
        add[lo:hi] = acc_add
        mul[lo:hi] = acc_mul
    zero = int(sum(f.zero * place[i] for i, f in enumerate(factors)))
    one = int(sum(f.one * place[i] for i, f in enumerate(factors)))
    names = [
        "(" + ",".join(f.element_names[int(cols[i][x])] for i, f in enumerate(factors)) + ")"
        for x in range(q)
    ]
    return FiniteRing(add, mul, zero, one, presentation, names)


# ---------------------------------------------------------------------------
# structural queries


def local_structure(ring: FiniteRing) -> LocalStructure:
    """Decide whether the non-units form an ideal; if so report (M, |R/M|)."""

    def build():
        n = ring.order
        if n == 1:
            return LocalStructure(False)
        nonunits = sorted(set(range(n)) - ring.units)
        mask = np.zeros(n, dtype=bool)
        mask[nonunits] = True
        nu = np.array(nonunits, dtype=np.int64)
        closed = bool(mask[ring.add_table[np.ix_(nu, nu)]].all())
        if not closed:
            return LocalStructure(False)
        m = len(nonunits)
        assert n % m == 0
        return LocalStructure(True, frozenset(nonunits), n // m)

    return ring._get("local_structure", build)


def idempotents(ring: FiniteRing) -> frozenset[int]:
    def build():
        diag = ring.mul_table[np.arange(ring.order), np.arange(ring.order)]
        return frozenset(np.flatnonzero(diag == np.arange(ring.order)).tolist())

    return ring._get("idempotents", build)


def annihilator(ring: FiniteRing, x: int) -> frozenset[int]:
    x = ring._check(x)
    return frozenset(np.flatnonzero(ring.mul_table[:, x] == ring.zero).tolist())


def socle(ring: FiniteRing) -> frozenset[int]:
    """Annihilator of the maximal ideal of a local ring.

    On a field the maximal ideal is zero, so the socle is the whole field;
    that degenerate answer is returned rather than raising.
    """
    ls = local_structure(ring)
    if not ls.is_local:
        raise NotLocal("socle requires a local ring")
    m = np.array(sorted(ls.maximal_ideal), dtype=np.int64)
    hits = ring.mul_table[:, m] == ring.zero
    return frozenset(np.flatnonzero(hits.all(axis=1)).tolist())


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    out = 1
    for p, e in factorize(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def _fingerprints(ring: FiniteRing) -> tuple[tuple[int, ...], ...]:
    n = ring.order
    idx = np.arange(n)
    add, mul = ring.add_table, ring.mul_table

    add_order = np.zeros(n, dtype=np.int64)
    cur = idx.copy()
    k = 1
    while (add_order == 0).any():
        hit = (cur == ring.zero) & (add_order == 0)
        add_order[hit] = k
        cur = add[cur, idx]
        k += 1

    nilp = np.zeros(n, dtype=np.int64)
    cur = idx.copy()
    k = 1
    max_k = max(1, (n - 1).bit_length()) + 1
    while k <= max_k:
        hit = (cur == ring.zero) & (nilp == 0)
        nilp[hit] = k
        cur = mul[cur, idx]
        k += 1

    unit_mask = np.zeros(n, dtype=bool)
    unit_mask[list(ring.units)] = True
    mul_order = np.zeros(n, dtype=np.int64)
    cur = idx.copy()
    k = 1
    pending = unit_mask.copy()
    while pending.any():
        hit = (cur == ring.one) & pending
        mul_order[hit] = k
        pending &= ~hit
        cur = mul[cur, idx]
        k += 1

    ann_size = (mul == ring.zero).sum(axis=0)
    fix_size = (mul == idx[:, None]).sum(axis=1)

    return tuple(
        (
            int(add_order[x]),
            int(nilp[x]),
            int(unit_mask[x]),
            int(mul_order[x]),
            int(ann_size[x]),
            int(fix_size[x]),
        )
        for x in range(n)
    )


def element_fingerprint(ring: FiniteRing, x: int) -> tuple[int, ...]:
    """Automorphism-invariant statistics of one element.

    Components: additive order, nilpotency index (0 if not nilpotent),
    unit flag, multiplicative order (0 for non-units), annihilator size,
    and the size of {y : x*y == x}.
    """
    return ring.fingerprints[ring._check(x)]


@dataclass(frozen=True)
class _ClosureLevel:
    """One step S_i = <S_{i-1}, gen> of the greedy closure over the prime subring.

    Each of the `rounds` derives elements new at this level from known ones:
    a pair of (c, a, b) index triples, c = a + b then c = a * b.  `elements`
    is S_i; `additive_gens`, a set A_i of at most log2 |S_i| elements that
    generates S_i additively, extends A_{i-1}; `grids` holds the sum and
    product tables on S_i x A_i.
    """

    gen: int | None
    rounds: tuple
    elements: np.ndarray
    additive_gens: np.ndarray
    grids: tuple


def _close(ring: FiniteRing, known: np.ndarray, frontier: np.ndarray) -> tuple:
    """Close `known` (updated in place) under + and *, starting from `frontier`.

    Each round pairs only the last round's new elements with all known ones;
    the tables are commutative, so every other pair was formed before.
    """
    rounds = []
    while frontier.size:
        have = np.flatnonzero(known)
        rnd = []
        for table in (ring.add_table, ring.mul_table):
            c = table[np.ix_(frontier, have)].ravel()
            pos = np.flatnonzero(~known[c])
            c, first = np.unique(c[pos], return_index=True)
            known[c] = True
            pos = pos[first]
            rnd.append((c.astype(np.int64), frontier[pos // have.size], have[pos % have.size]))
        frontier = np.concatenate([rnd[0][0], rnd[1][0]])
        if frontier.size:
            rounds.append(tuple(rnd))
    return tuple(rounds)


def _closure_plan(ring: FiniteRing) -> tuple[_ClosureLevel, ...]:
    """The greedy generator chain of the ring with a recipe for each level.

    Level 0 is the prime subring, which is closed; level i adds the
    lowest-index element outside S_{i-1} and closes.  Replaying the rounds
    of levels 1..i on images of the prime subring and the generators gives
    the image of every element of S_i.
    """

    def build():
        known = np.zeros(ring.order, dtype=bool)
        span = known.copy()  # additive span of add_gens
        span[ring.zero] = True
        add_gens: list[int] = []
        levels = []
        gen, rounds = None, ()
        new = np.array(ring.prime_subring, dtype=np.int64)
        known[new] = True
        while True:
            # each element taken at least doubles the span, a subgroup, so
            # at most log2 |S_i| are taken
            for x in new:
                if span[x]:
                    continue
                base = np.flatnonzero(span)
                cosets = []
                k = int(x)
                while not span[k]:
                    cosets.append(ring.add_table[base, k])
                    k = int(ring.add_table[k, x])
                span[np.concatenate(cosets)] = True
                add_gens.append(int(x))
            elements = np.flatnonzero(known)
            grid = np.ix_(elements, add_gens)
            grids = (ring.add_table[grid], ring.mul_table[grid])
            levels.append(
                _ClosureLevel(gen, rounds, elements, np.array(add_gens, dtype=np.int64), grids)
            )
            if len(elements) == ring.order:
                return tuple(levels)
            gen = int(np.argmin(known))
            known[gen] = True
            rounds = _close(ring, known, np.array([gen]))
            new = np.concatenate([[gen]] + [c for rnd in rounds for c, _, _ in rnd])

    return ring._get("closure_plan", build)


def generating_set(ring: FiniteRing) -> tuple[int, ...]:
    """Greedy-minimal ring generators over the prime subring.

    Each generator is the lowest-index element outside the closure so far;
    the empty tuple means the ring equals its prime subring.
    """
    return tuple(level.gen for level in _closure_plan(ring)[1:])


def decompose_local(ring: FiniteRing):
    """Split a ring along its primitive idempotents.

    Returns (factors, iso) where the factors are local rings sorted by
    order then table digest, and iso maps the ring onto their product.
    The order-1 ring is returned unchanged as its own single factor.
    """
    from .autsearch import RingMorphism, identity_automorphism

    # the cache must not refer back to the ring, or every ring that was
    # decomposed lives until the cyclic collector runs
    def build():
        idem = sorted(idempotents(ring))
        nontrivial = [e for e in idem if e != ring.zero]
        prims = [
            e
            for e in nontrivial
            if not any(f != e and ring.mul(e, f) == f for f in nontrivial)
        ]
        if len(prims) <= 1:
            return None
        pieces = []
        for e in prims:
            carrier = np.unique(ring.mul_table[:, e])
            inv = np.full(ring.order, -1, dtype=np.int64)
            inv[carrier] = np.arange(len(carrier))
            sub_add = inv[ring.add_table[np.ix_(carrier, carrier)]]
            sub_mul = inv[ring.mul_table[np.ix_(carrier, carrier)]]
            names = [ring.element_names[int(c)] for c in carrier]
            piece = FiniteRing(
                sub_add.astype(_table_dtype(len(carrier))),
                sub_mul.astype(_table_dtype(len(carrier))),
                int(inv[ring.zero]),
                int(inv[e]),
                None,
                names,
            )
            pieces.append((piece, e, inv))
        pieces.sort(key=lambda t: (t[0].order, t[0].table_digest()))
        factors = [p[0] for p in pieces]
        # product_ring's big-endian mixed radix is C order
        image = np.ravel_multi_index(
            tuple(inv[ring.mul_table[:, e]] for _, e, inv in pieces), [f.order for f in factors]
        )
        return factors, product_ring(factors), image

    split = ring._get("decompose_local", build)
    if split is None:
        return [ring], identity_automorphism(ring)
    factors, target, image = split
    return factors, RingMorphism(ring, target, image)


def residue_degree(ring: FiniteRing) -> int | None:
    """[R/M : F_p] for a local ring, None otherwise."""
    ls = local_structure(ring)
    if not ls.is_local:
        return None
    pp = prime_power(ring.characteristic)
    assert pp is not None
    p = pp[0]
    qq = prime_power(ls.residue_field_order)
    assert qq is not None and qq[0] == p
    return qq[1]
