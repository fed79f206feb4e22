"""Finite commutative rings with identity, stored as dense operation tables.

A ring of order n lives on the carrier 0..n-1 with two n-by-n lookup
tables.  Tables are built at most once from a RingExpr and are immutable;
every structural question (units, nilpotents, local structure,
idempotents, annihilators, ...) reduces to an exhaustive finite scan of
the tables.  A ring that `product_ring` built keeps its factors, and
answers its local factors, fingerprints and whether it is local from
theirs.  Products and Z_n know their order, zero and one without tables,
and Z_n its prime subring too, so they build their tables on the first
read of `add_table` or `mul_table`; a catalog product or Z_{p^a} whose
tables nothing reads never builds them.

Construction works on whole tables.  An additive group B^d, and any
direct product, is a mixed-radix fold of the factors' tables.  Z_n[x]/(f),
GF(p^e) = Z_p[x]/(f) and square-zero extensions encode an element by its
little-endian digit vector over the base, and their multiplication table
is filled one digit position at a time: multiplying by x is additive in
x, so a row is the sum of a known row and the row of a single digit.
Element names are only for display and are built on first use.

Tables take the narrowest dtype of `_table_dtype`: int8 below order 128,
int16 below 2^15, int32 above.  Every builder computes in that dtype, so
each intermediate value and each constant it adds must fit in it.  Folds
and digit rows stay in [0, n).  Z_n's tables are built in [-n, n) and add
or subtract n itself, so Z_128 needs int16 although its entries fit int8.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidModulus, NotLocal, OrderLimitExceeded
from .expr import (
    GF,
    Prod,
    PolyQuot,
    RingExpr,
    SquareZero,
    Zn,
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
    """The dtype of the tables of a ring of order n.

    int8 for n < 128, int16 for n < 2^15, int32 above.  The bound is the
    one of Z_n, the widest builder: `_cyclic_tables` keeps its entries in
    [-n, n) and adds and subtracts n, so it needs n <= 127 in int8.  Every
    other builder keeps its entries in [0, n).
    """
    if n < 2**7:
        return np.int8
    return np.int16 if n < 2**15 else np.int32


def _materialise(names) -> tuple[str, ...]:
    """The names a name source stands for: a tuple, or a callable returning them."""
    return tuple(names()) if callable(names) else names


class _DeferredTable:
    """`add_table` or `mul_table` of a ring whose tables are not built yet.

    A non-data descriptor: the first read builds both tables and stores them
    on the instance, whose attributes then shadow it, so it runs once per
    ring.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, ring, owner=None):
        if ring is None:
            return self
        add, mul = ring._build_tables()
        # `product_ring` relies on this dtype without building the tables
        dt = np.dtype(_table_dtype(ring.order))
        if not add.dtype == mul.dtype == dt:
            raise ValueError(f"deferred operation tables must be {dt}")
        ring._set_tables(add, mul)
        return getattr(ring, self.name)


class FiniteRing:
    """Table-backed finite commutative ring with identity.

    Instances are immutable after construction and safe to share; derived
    data (units, fingerprints, automorphism search state, ...) is cached
    on first use.  Rings that `product_ring` and Z_n's constructor build
    know their order, zero and one up front and build their tables on the
    first read of `add_table` or `mul_table`; their builder holds the
    factors or n, never the ring, and is dropped once it has run.
    """

    add_table = _DeferredTable()
    mul_table = _DeferredTable()

    def __init__(self, add_table, mul_table, zero, one, presentation, element_names):
        """`element_names` is a sequence, or a zero-argument callable that
        returns one; a callable runs on the first read of `element_names`."""
        add_table = np.ascontiguousarray(add_table)
        self._setup(add_table.shape[0], zero, one, presentation, element_names, None)
        self._set_tables(add_table, mul_table)

    @classmethod
    def _deferred(cls, order, build_tables, zero, one, presentation, element_names):
        """A ring of `order` whose tables are `build_tables()`, run on the
        first read of either; they must be in `_table_dtype(order)`."""
        ring = cls.__new__(cls)
        ring._setup(order, zero, one, presentation, element_names, build_tables)
        return ring

    def _setup(self, order, zero, one, presentation, element_names, build_tables):
        # both paths set the attributes in one order, the tables last, so
        # instances keep CPython's shared attribute layout
        self.order = order
        self.zero = int(zero)
        self.one = int(one)
        self.presentation = presentation
        self._names = element_names if callable(element_names) else tuple(element_names)
        self._aut_cache: dict = {}
        self._derived: dict = {}
        self._build_tables = build_tables

    def _set_tables(self, add_table, mul_table):
        add_table = np.ascontiguousarray(add_table)
        mul_table = np.ascontiguousarray(mul_table)
        n = self.order
        if add_table.shape != (n, n) or mul_table.shape != (n, n):
            raise ValueError("operation tables must be square and equally sized")
        add_table.setflags(write=False)
        mul_table.setflags(write=False)
        self.add_table = add_table
        self.mul_table = mul_table
        self._build_tables = None

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

    @property
    def element_names(self) -> tuple[str, ...]:
        self._names = _materialise(self._names)
        return self._names

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
        """`element_fingerprint` of every element, decoded on each read."""
        return tuple(_fingerprint_tuples(self.order, _fingerprint_keys(self)))

    def table_digest(self) -> str:
        """Stable hash of the operation tables, used for deterministic tie-breaks."""

        def build():
            h = hashlib.sha256()
            h.update(np.asarray(self.add_table, dtype=np.int32).tobytes())
            h.update(np.asarray(self.mul_table, dtype=np.int32).tobytes())
            h.update(bytes([self.zero & 0xFF, self.one & 0xFF]))
            return h.hexdigest()

        return self._get("table_digest", build)

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
    """Realize a RingExpr as tables, refusing orders above the cap.

    While anything holds the ring that `make_ring(expr)` returned, every
    call with an equal expression returns that same object, with whatever
    it has cached (fingerprints, closure plan, stabilizer chain).  Once
    nothing holds it, it is freed, and the next call builds it afresh.
    """
    cap = DEFAULT_MAX_ORDER if max_order is None else max_order
    n = expr_order(expr)
    if n > cap:
        # str() of an int above 4300 digits raises ValueError
        shown = n if n.bit_length() <= 64 else f"of {n.bit_length()} bits"
        raise OrderLimitExceeded(f"ring order {shown} exceeds cap {cap}")
    return _build_ring(expr)


# expression -> the live ring built from it; a ring leaves when it is freed
_RINGS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _build_ring(expr: RingExpr) -> FiniteRing:
    """The live ring of `expr`, built by `_construct_ring` when there is none.

    A product or square-zero ring gets its factors or base through here
    too, so it reuses live ones.  A product holds its factors; a base
    built just for a square-zero ring is freed once that is built.
    """
    ring = _RINGS.get(expr)
    if ring is None:
        ring = _RINGS[expr] = _construct_ring(expr)
    return ring


def _construct_ring(expr: RingExpr) -> FiniteRing:
    if isinstance(expr, Zn):
        return _make_zn(expr)
    if isinstance(expr, GF):
        if not poly_is_irreducible(list(expr.modulus), expr.p):
            raise InvalidModulus(
                f"modulus {format_poly(expr.modulus)} is reducible over Z_{expr.p}"
            )
        return _make_polyquot(expr.p, expr.modulus, expr)
    if isinstance(expr, PolyQuot):
        return _make_polyquot(expr.n, expr.modulus, expr)
    if isinstance(expr, SquareZero):
        return _make_squarezero(expr)
    if isinstance(expr, Prod):
        factors = [_build_ring(f) for f in expr.factors]
        return product_ring(factors, presentation=expr)
    raise TypeError(f"not a RingExpr: {expr!r}")


def _make_zn(expr: Zn) -> FiniteRing:
    n = expr.n
    return _cyclic_ring(n, expr, lambda: [str(i) for i in range(n)])


def _cyclic_ring(n: int, presentation, names) -> FiniteRing:
    """Z_n on `_cyclic_tables`, built on first read.

    Element k is k*1 by construction, so the prime subring 0, 1, 1+1, ..
    is 0..n-1 and is recorded here: the characteristic, which is all the
    catalog reads of a Z_{p^a}, needs no table.
    """
    ring = FiniteRing._deferred(n, lambda: _cyclic_tables(n), 0, 1 % n, presentation, names)
    ring._derived["prime_subring"] = tuple(range(n))
    return ring


def _cyclic_add_table(n: int) -> np.ndarray:
    """Add table of Z_n in the table dtype: a + b as a + (b - n), plus n
    where negative, so no entry leaves [-n, n) on the way."""
    idx = np.arange(n, dtype=_table_dtype(n))
    add = np.add.outer(idx, idx - n)
    np.add(add, n, out=add, where=add < 0)
    return add


def _cyclic_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Add and mul tables of Z_n, computed in the table dtype.

    Multiplying by a is additive in a, so mul rows [lo, 2lo) are rows
    [0, lo) plus the row of lo, for lo = 1, 2, 4, ...
    """
    dt = _table_dtype(n)
    add = _cyclic_add_table(n)
    mul = np.empty_like(add)
    mul[0] = 0
    lo = 1
    while lo < n:
        block = mul[lo : 2 * lo]
        # x + y mod n as x - (n - y), then + n where negative: within the dtype
        gap = (n - lo * np.arange(n, dtype=np.int64) % n).astype(dt)
        np.subtract(mul[: len(block)], gap, out=block)
        np.add(block, n, out=block, where=block < 0)
        lo *= 2
    return add, mul


def _digits_matrix(q: int, base: int, width: int) -> np.ndarray:
    powers = base ** np.arange(width, dtype=np.int64)
    return (np.arange(q, dtype=np.int64)[:, None] // powers[None, :]) % base


def _fold(tables, dt) -> np.ndarray:
    """Componentwise table on tuples, encoded big-endian (mixed radix).

    Each step pairs (i, j) as i*b + j.  Every entry is below the product
    order, so the table dtype holds the whole computation.
    """
    out = tables[0].astype(dt)
    for inner in tables[1:]:
        a, b = len(out), len(inner)
        f = inner.astype(dt, copy=False)
        out = (out[:, None, :, None] * b + f[None, :, None, :]).reshape(a * b, a * b)
    return out


def _rows_by_additivity(add: np.ndarray, base: int, width: int, digit_rows) -> np.ndarray:
    """Multiplication table of a ring of base-`base` digit vectors, little-endian.

    Multiplying by x is additive in x, and x = t*b^k + r with r < b^k is
    the sum of r and the element with digit t at position k, so
    mul[t*b^k + r] = add[mul[r], R_k(t)].  `digit_rows(k)` returns the rows
    R_k(1..b-1) as a (b-1, q) array.  Element 0 must be the zero.
    """
    mul = np.empty_like(add)
    mul[0] = 0
    for k in range(width):
        lo = base**k
        for t, row in enumerate(digit_rows(k), start=1):
            mul[t * lo : (t + 1) * lo] = add[mul[:lo], row]
    return mul


def _make_polyquot(n: int, modulus, presentation) -> FiniteRing:
    """Z_n[x]/(modulus), modulus monic; GF(p^e) is the case n = p prime."""
    f, d = np.array(modulus, dtype=np.int64), len(modulus) - 1
    q = n**d

    def names():
        return [format_poly(tuple(row), star=False) for row in _digits_matrix(q, n, d).tolist()]

    if d == 1:  # only constants, multiplied as in Z_n
        return _cyclic_ring(n, presentation, names)
    dt = _table_dtype(q)
    add = _fold([_cyclic_add_table(n)] * d, dt)  # equal factors: digit order is immaterial
    digits = _digits_matrix(q, n, d)
    place = n ** np.arange(d, dtype=np.int64)
    # X*y: shift the digits up and fold the top one back by X^d = -(f_0 + ... + f_{d-1} X^{d-1})
    shifted = np.concatenate([np.zeros((q, 1), dtype=np.int64), digits[:, :-1]], axis=1)
    times_x = (((shifted - digits[:, -1:] * f[None, :d]) % n) @ place).astype(dt)
    x_power = [np.arange(q, dtype=dt)]  # y -> X^k * y
    for _ in range(1, d):
        x_power.append(times_x[x_power[-1]])

    def digit_rows(k):
        rows = [x_power[k]]
        for _ in range(2, n):
            rows.append(add[rows[-1], x_power[k]])
        return np.stack(rows)

    mul = _rows_by_additivity(add, n, d, digit_rows)
    return FiniteRing(add, mul, 0, 1 % q, presentation, names)


def _make_squarezero(expr: SquareZero) -> FiniteRing:
    base = _build_ring(expr.base)
    b, m = base.order, expr.m
    q = b ** (m + 1)
    dt = _table_dtype(q)
    add = _fold([base.add_table] * (m + 1), dt)
    digits = _digits_matrix(q, b, m + 1)  # column 0 is the base component
    place = b ** np.arange(m + 1, dtype=np.int64)
    bm = base.mul_table.astype(np.int64)[1:]

    def digit_rows(k):
        # (t, 0)(a, v) = (t*a, t*v); t*x_k times (a, v) is t*a in slot k
        if k == 0:
            return (bm[:, digits] @ place).astype(dt)
        return (bm[:, digits[:, 0]] * place[k]).astype(dt)

    mul = _rows_by_additivity(add, b, m + 1, digit_rows)
    src, bzero, bone = base._names, base.zero, base.one

    def names():
        base_names = _materialise(src)
        return [
            _squarezero_name(dig, base_names, bzero, bone)
            for dig in _digits_matrix(q, b, m + 1).tolist()
        ]

    return FiniteRing(add, mul, 0, base.one, expr, names)


def _squarezero_name(dig, base_names, zero: int, one: int) -> str:
    parts = []
    a = dig[0]
    if a != zero:
        nm = base_names[a]
        parts.append(f"({nm})" if "+" in nm else nm)
    for i in range(1, len(dig)):
        v = dig[i]
        if v == zero:
            continue
        if v == one:
            parts.append(f"x{i}")
        else:
            nm = base_names[v]
            parts.append(f"({nm})x{i}" if "+" in nm else f"{nm}x{i}")
    return "+".join(parts) if parts else base_names[zero]


def product_ring(factors, presentation=None) -> FiniteRing:
    """Direct product with big-endian mixed-radix element encoding.

    The tables are folded from the factors' tables on the first read of
    either, which builds the factors' tables too if they are deferred.
    The builder holds the factors and not the product, so no reference
    cycle forms.

    The ring records its factors when their tables are in the table dtype,
    as every built ring's are; a factor whose tables are deferred will be,
    so it is not built to check.  The product's local factors and
    fingerprints then come from theirs, with no scan of its tables:

    - A finite commutative ring is a product of local rings in one way up
      to isomorphism and order (Atiyah & Macdonald, Thm 8.7), and its local
      factors are the rings eR for its primitive idempotents e.  An
      idempotent's coordinates are idempotents, and one with two nonzero
      coordinates is the sum of two orthogonal nonzero idempotents, so the
      primitive idempotents of F_1 x .. x F_k have one primitive
      coordinate e_j and zeros elsewhere, and eR is e_j F_j in coordinate
      j.  So the local factors of the product are those of the F_j; an
      order-1 F_j has none, its only idempotent being zero.
      `decompose_local` gives the order and labelling that make them the
      very rings a scan builds.
    - Each fingerprint component is an exact function of the coordinates'
      components (see `_fingerprint_columns`).
    """
    factors = list(factors)
    if not factors:
        raise ValueError("a product needs at least one factor")
    orders = [f.order for f in factors]
    q = math.prod(orders)
    zero = one = 0
    for f in factors:  # big-endian mixed radix
        zero, one = zero * f.order + f.zero, one * f.order + f.one
    sources = [f._names for f in factors]

    def names():
        cols = np.unravel_index(np.arange(q), orders)
        fn = [_materialise(s) for s in sources]
        return [
            "(" + ",".join(fn[i][c] for i, c in enumerate(cs)) + ")"
            for cs in zip(*(c.tolist() for c in cols))
        ]

    def tables():
        dt = _table_dtype(q)
        return _fold([f.add_table for f in factors], dt), _fold([f.mul_table for f in factors], dt)

    ring = FiniteRing._deferred(q, tables, zero, one, presentation, names)
    if all(
        f._build_tables is not None
        or f.add_table.dtype == f.mul_table.dtype == _table_dtype(f.order)
        for f in factors
    ):
        ring._derived["factors"] = tuple(factors)
    return ring


# ---------------------------------------------------------------------------
# structural queries


def local_structure(ring: FiniteRing) -> LocalStructure:
    """Decide whether the non-units form an ideal; if so report (M, |R/M|).

    A product with two or more recorded factors of order above 1 is not
    local, with no scan: the one of such a factor in its coordinate and
    zeros elsewhere is an idempotent other than 0 and 1, which a local
    ring does not have.
    """

    def build():
        n = ring.order
        factors = ring._derived.get("factors", ())
        if n == 1 or sum(f.order > 1 for f in factors) >= 2:
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


def _divisors_descending(n: int) -> list[int]:
    return [d for d in range(n, 0, -1) if n % d == 0]


def _key_radices(n: int) -> tuple[int, int, int]:
    """Radices of the nilpotency index, multiplicative order and annihilator
    size in the fingerprint keys of a ring of order n.

    The annihilator size is at most n, and the multiplicative order at
    most max(1, n - 1).  A nilpotent x of index k has k <= max(1, log2 n),
    so k < n.bit_length() + 1: if x^i R = x^(i+1) R then x^i = x^(i+1) r,
    so x^i = x^(i+m) r^m for every m, which is 0, so the ideals
    R, xR, .., x^k R = 0 are distinct subgroups, each at most half the one
    before it.  The additive order, at most n, leads with radix n + 1.
    """
    return n.bit_length() + 1, n + 1, n + 1


def _fingerprint_keys(ring: FiniteRing) -> np.ndarray:
    """One int64 key per element, the only stored form of its fingerprint.

    The key is the mixed-radix number (additive order, nilpotency index,
    multiplicative order, annihilator size) in `_key_radices(order)`, so
    two elements of rings of one order have equal keys exactly when their
    `element_fingerprint`s are equal: the other two components follow from
    these.  x is a unit exactly when its multiplicative order is above 0,
    and {y : xy = x} = 1 + ann(x), since xy = x iff x(y - 1) = 0, so the
    fix size is the annihilator size.  Keys fit int64 up to order about
    7.6 * 10^5; above that OrderLimitExceeded is raised before any scan.
    """

    def build():
        n = ring.order
        radices = _key_radices(n)
        if (n + 1) * math.prod(radices) > 2**63:
            raise OrderLimitExceeded(f"fingerprint keys of a ring of order {n} exceed int64")
        cols = _fingerprint_columns(ring)
        keys = cols[:, 0]
        for col, radix in zip(cols.T[1:], radices):
            keys = keys * radix + col
        keys.setflags(write=False)
        return keys

    return ring._get("fingerprint_keys", build)


def _decode_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """The (len(keys), 4) key components of fingerprint keys of a ring of order n."""
    cols = np.empty((len(keys), 4), dtype=np.int64)
    for j, radix in zip((3, 2, 1), reversed(_key_radices(n))):
        keys, cols[:, j] = np.divmod(keys, radix)
    cols[:, 0] = keys
    return cols


def _fingerprint_tuples(n: int, keys: np.ndarray) -> list[tuple[int, ...]]:
    """The `element_fingerprint` 6-tuples that fingerprint keys stand for."""
    add_order, nilp, mul_order, ann = _decode_keys(n, keys).T
    table = np.column_stack([add_order, nilp, mul_order > 0, mul_order, ann, ann])
    return list(map(tuple, table.tolist()))


def _fingerprint_columns(ring: FiniteRing) -> np.ndarray:
    """The four key components of every element, as an (n, 4) int64 array.

    A ring with recorded factors combines its factors' components, decoded
    from their keys, one factor at a time in the big-endian order of
    `product_ring`.  Each rule is an identity for x = (x_1..x_k), since
    the operations act coordinatewise:

    - additive order: d*x = 0 iff d*x_j = 0 for all j, so it is the lcm;
    - nilpotency index: x^m = 0 iff x_j^m = 0 for all j, and x_j^m = 0
      stays 0 for larger m, so it is the max if every x_j is nilpotent,
      else 0 (x is not nilpotent);
    - multiplicative order: x^m = 1 iff x_j^m = 1 for all j, and x is a
      unit iff every x_j is, so it is the lcm when x is a unit; a non-unit
      coordinate has 0, and lcm(0, .) = 0;
    - annihilator size: {y : xy = 0} is the product of the coordinates'
      sets, so the sizes multiply.
    """
    factors = ring._derived.get("factors")
    if factors is None:
        return _scan_fingerprints(ring)
    out, *rest = [_decode_keys(f.order, _fingerprint_keys(f)) for f in factors]
    for cols in rest:
        a, b = out[:, None, :], cols[None, :, :]
        out = a * b  # the annihilator sizes; a nilpotency product is > 0 iff both are
        out[..., [0, 2]] = np.lcm(a[..., [0, 2]], b[..., [0, 2]])
        out[..., 1] = np.where(out[..., 1] > 0, np.maximum(a[..., 1], b[..., 1]), 0)
        out = out.reshape(-1, 4)
    return out


def _scan_fingerprints(ring: FiniteRing) -> np.ndarray:
    """The key components computed from the ring's own tables.

    The annihilator count is the one pass over the whole table.  x is a
    unit exactly when ann(x) = {0}: then y -> xy is injective on the
    finite ring, so onto, and xy = 1 for some y.
    """
    n = ring.order
    idx = np.arange(n)
    mul = ring.mul_table

    # the additive order is the least divisor d of char R with d*x = 0: the
    # additive group has exponent char R and d*x = x*(d*1)
    prime = ring.prime_subring
    char = len(prime)
    add_order = np.zeros(n, dtype=np.int64)
    for d in _divisors_descending(char):
        add_order[mul[:, prime[d % char]] == ring.zero] = d

    nilp = np.zeros(n, dtype=np.int64)
    cur = idx.copy()
    k = 1
    max_k = max(1, (n - 1).bit_length()) + 1
    while k <= max_k:
        hit = (cur == ring.zero) & (nilp == 0)
        nilp[hit] = k
        cur = mul[cur, idx]
        k += 1

    ann_size = (mul == ring.zero).sum(axis=0)
    units = np.flatnonzero(ann_size == 1)
    # the order of x in U is the product over p^a || |U| of the least p^e
    # with (x^(|U|/p^a))^(p^e) = 1
    mul_order = np.zeros(n, dtype=np.int64)
    mul_order[units] = 1
    for p, a in factorize(len(units)).items():
        y = _powers(mul, ring.one, units, len(units) // p**a)
        for _ in range(a):
            mul_order[units[y != ring.one]] *= p
            y = _powers(mul, ring.one, y, p)
    return np.column_stack([add_order, nilp, mul_order, ann_size])


def _powers(mul: np.ndarray, one: int, base: np.ndarray, e: int) -> np.ndarray:
    """x^e for every x in `base`, by square-and-multiply."""
    out = np.full(len(base), one, dtype=np.int64)
    while e:
        if e & 1:
            out = mul[out, base]
        base = mul[base, base]
        e >>= 1
    return out


def element_fingerprint(ring: FiniteRing, x: int) -> tuple[int, ...]:
    """Automorphism-invariant statistics of one element.

    Components: additive order, nilpotency index (0 if not nilpotent),
    unit flag, multiplicative order (0 for non-units), annihilator size,
    and the size of {y : x*y == x}.  They are decoded on each read from
    the element's key in `_fingerprint_keys`, which the ring caches.
    """
    x = ring._check(x)
    return _fingerprint_tuples(ring.order, _fingerprint_keys(ring)[x : x + 1])[0]


@dataclass(frozen=True)
class _ClosureLevel:
    """One step S_i = <S_{i-1}, gen> of the greedy closure over the prime subring.

    Each of the `rounds` derives elements new at this level from known ones:
    a pair of (c, a, b) index triples, c = a + b then c = a * b.  `elements`
    is S_i.
    """

    gen: int | None
    rounds: tuple
    elements: np.ndarray


@dataclass(frozen=True)
class _Certificate:
    """The checks of `autsearch._certify`, as (3, m) index arrays of (c, a, b).

    `sums` holds c = a + b for the additive coset tree of an additive
    generating set A = (a_1..a_K) of the ring, built as span_k = span_{k-1}
    + {0, a_k, .., (m_k - 1) a_k}: a tree edge joins each element of span_k
    outside span_{k-1} to its parent, one a_k lower, and one wrap edge per
    a_k joins m_k a_k, the first multiple back in span_{k-1}, to
    (m_k - 1) a_k.  So there are |R| - 1 + K sum triples, kept in the
    order of k.  `products` holds c = a * b for every pair a <= b of A.
    """

    sums: np.ndarray
    products: np.ndarray


def _close(ring: FiniteRing, known: np.ndarray, frontier: np.ndarray) -> tuple:
    """Close `known` (updated in place) under + and *, starting from `frontier`.

    Each round pairs only the last round's new elements with all known ones;
    the tables are commutative, so every other pair was formed before.  It
    stops when nothing new appears or every element is known.
    """
    rounds = []
    while frontier.size:
        have = known.nonzero()[0]
        rnd = []
        for table in (ring.add_table, ring.mul_table):
            c = table[frontier[:, None], have].ravel()
            pos = (~known[c]).nonzero()[0]
            if pos.size > 1:
                # the first pair giving each new element, elements ascending
                pos = pos[np.argsort(c[pos], kind="stable")]
                first = np.ones(len(pos), dtype=bool)
                np.not_equal(c[pos[1:]], c[pos[:-1]], out=first[1:])
                pos = pos[first]
            c = c[pos].astype(np.int64)
            known[c] = True
            i, j = np.divmod(pos, have.size)
            rnd.append((c, frontier[i], have[j]))
        frontier = np.concatenate([rnd[0][0], rnd[1][0]])
        if frontier.size:
            rounds.append(tuple(rnd))
        if have.size + frontier.size == ring.order:
            break
    return tuple(rounds)


def _closure_plan(ring: FiniteRing) -> tuple[_ClosureLevel, ...]:
    """The greedy generator chain of the ring with a recipe for each level.

    Level 0 is the prime subring, which is closed; level i adds the
    lowest-index element outside S_{i-1} and closes.  Replaying the rounds
    of levels 1..i on images of the prime subring and the generators gives
    the image of every element of S_i.
    """
    return ring._get("closure_plan", lambda: _build_plan(ring))[0]


def _certificate(ring: FiniteRing) -> _Certificate:
    """The homomorphism certificate of the whole ring, built with its closure plan."""
    return ring._get("closure_plan", lambda: _build_plan(ring))[1]


def _uncached_plan(ring: FiniteRing) -> tuple[tuple[_ClosureLevel, ...], _Certificate]:
    """The ring's cached `_build_plan` pair if it has one, else one built
    and not cached, which is freed with the caller's last reference."""
    return ring._derived.get("closure_plan") or _build_plan(ring)


def _build_plan(ring: FiniteRing) -> tuple[tuple[_ClosureLevel, ...], _Certificate]:
    """The levels of `_closure_plan` and the `_Certificate`, in one pass."""
    add, mul = ring.add_table, ring.mul_table
    known = np.zeros(ring.order, dtype=bool)
    span = known.copy()  # additive span of the generators taken so far
    span[ring.zero] = True
    tree = []
    levels = []
    gen, rounds = None, ()
    prime = np.array(ring.prime_subring, dtype=np.int64)
    new = prime
    known[new] = True
    while True:
        # each element taken at least doubles the span, a subgroup, so at
        # most log2 |R| are taken
        for x in new.tolist():
            if span[x]:
                continue
            mults = mul[x, prime]  # c*x = x*(c*1) for c < char R
            hit = span[mults]
            hit[0] = False
            # the least m > 0 with m*x in the span, at most char R
            m = int(hit.argmax()) or len(prime)
            cosets = add[mults[:m, None], span.nonzero()[0]]  # row c: c*x + span
            span[cosets] = True
            tree.append((cosets, int(mults[m % len(prime)]), int(mults[m - 1]), x))
        elements = known.nonzero()[0]
        levels.append(_ClosureLevel(gen, rounds, elements))
        if len(elements) == ring.order:
            break
        gen = int(known.argmin())
        known[gen] = True
        rounds = _close(ring, known, np.array([gen]))
        new = np.concatenate([[gen]] + [c for rnd in rounds for c, _, _ in rnd])
    # the sum triples: coset c*x is coset (c-1)*x plus x, and the wrap edge
    # m*x = (m-1)*x + x
    sums = np.zeros((3, sum(cosets[1:].size + 1 for cosets, *_ in tree)), dtype=np.int64)
    lo = 0
    for cosets, wrap, prev, x in tree:
        hi = lo + cosets[1:].size
        sums[0, lo:hi] = cosets[1:].ravel()
        sums[1, lo:hi] = cosets[:-1].ravel()
        sums[2, lo:hi] = x
        sums[:, hi] = wrap, prev, x
        lo = hi + 1
    gens = [x for *_, x in tree]
    pairs = [(a, b) for i, a in enumerate(gens) for b in gens[i:]]
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    products = np.stack([mul[a, b], a, b]).astype(np.int64)
    return tuple(levels), _Certificate(sums, products)


def generating_set(ring: FiniteRing) -> tuple[int, ...]:
    """Greedy-minimal ring generators over the prime subring.

    Each generator is the lowest-index element outside the closure so far;
    the empty tuple means the ring equals its prime subring.
    """
    return tuple(level.gen for level in _closure_plan(ring)[1:])


def decompose_local(ring: FiniteRing):
    """Split a ring along its primitive idempotents.

    Returns (factors, iso) where the factors are the local rings eR, one for
    each primitive idempotent e, sorted by order, then table digest, then
    the index of e; eR is labelled by the rank of each element in eR, so x
    maps to the rank of xe in eR.  iso maps the ring onto the product of the
    factors, which is built on each call.  A ring with at most one
    primitive idempotent, the order-1 ring included, is returned unchanged
    as its own single factor.

    For a ring that `product_ring` built, the factors are its factors'
    local factors, the same objects, in this order; no table is scanned for
    them.  They equal the rings a scan builds: the nonzero coordinate of
    eR = (0, .., e_j F_j, .., 0) runs through e_j F_j in ascending index,
    since the encoding is monotone in each coordinate, so the ranks in eR
    are the ranks in e_j F_j, the labels of F_j's own factor.  Any other
    ring, Z_n included, is scanned.
    """
    from .autsearch import RingMorphism, identity_automorphism

    split = _local_split(ring)
    if split is None:
        return [ring], identity_automorphism(ring)
    factors = [piece for piece, _ in split]
    # product_ring's big-endian mixed radix is C order
    image = np.ravel_multi_index(
        tuple(np.unique(ring.mul_table[:, e], return_inverse=True)[1] for _, e in split),
        [f.order for f in factors],
    )
    return factors, RingMorphism(ring, product_ring(factors), image)


def _local_factors(ring: FiniteRing) -> list[FiniteRing]:
    """The factors of `decompose_local`, without the map onto their product."""
    split = _local_split(ring)
    return [ring] if split is None else [piece for piece, _ in split]


def _local_split(ring: FiniteRing) -> tuple | None:
    """(factor, primitive idempotent) pairs in `decompose_local` order, or
    None when the ring is its own factor.

    The cache must not refer back to the ring, or every ring that was
    decomposed lives until the cyclic collector runs.  A product splits by
    its recorded factors, and any other ring by `_split_by_idempotents`.
    """

    def build():
        factors = ring._derived.get("factors")
        if factors is None:
            return _split_by_idempotents(ring)
        orders = [f.order for f in factors]
        pieces = []
        for j, factor in enumerate(factors):
            for piece, e in _local_split(factor) or [(factor, factor.one)]:
                if piece.order > 1:
                    coords = [f.zero for f in factors]
                    coords[j] = e
                    pieces.append((piece, int(np.ravel_multi_index(coords, orders))))
        return _sorted_split(pieces)

    return ring._get("local_split", build)


def _split_by_idempotents(ring: FiniteRing) -> tuple | None:
    """`_local_split` from the ring's own tables: one piece eR per primitive e."""
    idem = np.array(sorted(idempotents(ring) - {ring.zero}), dtype=np.int64)
    # e is primitive when no other nonzero idempotent f has e*f = f
    below = (ring.mul_table[idem[:, None], idem] == idem) & (idem[:, None] != idem)
    prims = idem[~below.any(axis=1)].tolist()
    if len(prims) <= 1:
        return None
    pieces = []
    for e in prims:
        carrier = np.unique(ring.mul_table[:, e])
        inv = np.full(ring.order, -1, dtype=np.int64)
        inv[carrier] = np.arange(len(carrier))
        dt = _table_dtype(len(carrier))
        piece = FiniteRing(
            inv[ring.add_table[np.ix_(carrier, carrier)]].astype(dt),
            inv[ring.mul_table[np.ix_(carrier, carrier)]].astype(dt),
            int(inv[ring.zero]),
            int(inv[e]),
            None,
            _names_at(ring._names, carrier),
        )
        pieces.append((piece, e))
    return _sorted_split(pieces)


def _sorted_split(pieces: list) -> tuple | None:
    """(piece, idempotent) pairs in decomposition order, or None for fewer than two."""
    if len(pieces) <= 1:
        return None
    return tuple(sorted(pieces, key=lambda t: (t[0].order, t[0].table_digest(), t[1])))


def _names_at(source, carrier: np.ndarray):
    """Lazy names of the elements `carrier` of a ring whose name source is `source`.

    The closure holds the source, not the ring, so a piece cached on its
    parent does not refer back to it.
    """
    return lambda: [_materialise(source)[c] for c in carrier.tolist()]


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
