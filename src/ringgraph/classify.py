"""Catalog of small rings and exhaustive verification of the classification results.

The catalog is the union of the constructor families (Z_n, finite fields,
monic quotients of degree 2..3, square-zero extensions, and products of
local entries) of orders 2..max_order, deduplicated up to isomorphism.
Each verification sweeps the relevant slice of the catalog, or fixed
samples (module constants) when it reads none, and reports any
counterexample; the universe is always the constructor families, which
is provably complete only at orders p and p**2.

`build_catalog` follows one rule: the first candidate offered for a class
key keeps it.  Candidates come family by family, Z_n, fields, quotients,
square-zero rings, and the products of local classes after all of them.
A class key is the sorted tuple of the class ids of a candidate's local
factors; a finite commutative ring is the product of its local factors
in one way (Atiyah & Macdonald, Thm 8.7), so two candidates are
isomorphic exactly when their keys are equal.  `_LocalRegistry` hands
out the ids.

Classes that the expression fixes are filed from the expression, and no
ring of them is built.  A ring whose characteristic is its order is Z_n,
finite fields of one order are isomorphic (Lidl & Niederreiter, *Finite
Fields*, Thm 2.5), and a field is never isomorphic to a non-field, so the
class of a Z_n or a field is fixed by its order and characteristic
(`_LocalRegistry.fixed_class`).  GF(q), q = p^e, is filed under (q, p).
Z_n with n = q_1 .. q_k, the q_j = p_j^a_j pairwise coprime prime powers,
is Z_{q_1} x .. x Z_{q_k} (CRT; the proof is at `build_catalog`), so its
key is the sorted ids of the (q_j, q_j), one id when n is a prime power.

Candidates that cannot change the catalog are never generated
(`_family_candidates`), so none of them is built.  A quotient
Z_n[x]/(f) of degree d is left out when its affine orbit, the moduli
u^-d * f(ux + a) for units u and all a in Z_n, holds a smaller code
sum(c_i * n**i).  Proof that this changes nothing: x -> ux + a is an
automorphism of Z_n[x] (its inverse is x -> u^-1 (x - a)), so it maps the
ideal (f) onto (f(ux + a)), which u^-d, a unit, leaves unchanged; hence
Z_n[x]/(f) is isomorphic to the quotient by the orbit minimum.  That
quotient is never left out by this rule and comes earlier in the candidate
order, so by the time f would be reached its isomorphism class, its local
factors and its first hit are all registered, and building f would only
repeat them.

Two more kinds of candidate are left out because an earlier candidate
holds their class.
Z_p[x]/(f) with p prime and f irreducible mod p (its least monic
divisor, found by trial division as in `expr.poly_is_primary`, is f
itself) is a field of order p^d, whose class the `gf` family offers
earlier as GF(p^d).  SZ(Z_n, 1) is isomorphic to Z_n[x]/(x^2) by
a + b*x1 -> a + b*x: both are free Z_n-modules on 1 and the variable,
whose square is 0 on both sides.  That quotient has code 0, so the affine
rule never drops it; over a prime power it is primary and not a field,
so it is classified (over any other n both rings are left out by the
case below), and the quotient family comes first.

Non-local candidates are not generated either.  A non-local candidate
whose local factors are isomorphic to local factors of earlier
candidates would register no class, and its own class, a product of two
or more of them with order |R| <= max_order, is one that the product loop
of `build_catalog` reaches; left out, it leaves that class to the
product.  This holds for two kinds of candidate:

- Z_n[x]/(f) with n not a prime power is the product over p^a || n of
  Z_{p^a}[x]/(f mod p^a), and SZ(Z_b, m) with b not a prime power that
  of the SZ(Z_{p^a}, m) over p^a || b.  Each factor is a candidate of the
  same family over a smaller base, so it came earlier; it is local, or
  its own local factors are those of earlier candidates by the other
  case here and the affine rule.
- Z_{p^a}[x]/(f) is local exactly when f mod p is g^k for one monic
  irreducible g over F_p.  The ideal (p) is nilpotent, so it lies in every
  prime ideal, and the maximal ideals of the ring are those of its
  quotient F_p[x]/(f mod p): one, (g), for each monic irreducible g that
  divides f mod p.  When there are two or more, f mod p is the product of
  two coprime monic factors of positive degree, which lift to f = g h
  with g, h monic and comaximal over Z_{p^a} (Hensel; McDonald, *Finite
  Rings with Identity*, ch. XIII), and the ring is Z_{p^a}[x]/(g) x
  Z_{p^a}[x]/(h).  These have lower degree: degree 1 gives Z_{p^a}, and
  degree 2 a quotient candidate, or one isomorphic to its orbit minimum,
  met before every cubic one.  By induction on the degree their local
  factors are those of earlier candidates.  The test reads only f
  (`expr.poly_is_primary`: the least monic divisor of f mod p, found by
  trial division, is irreducible, and f mod p must be its power), so a
  non-local quotient is never generated.

The factors named in each case have order at most the candidate's, so
they are all candidates at this max_order.

So the quotient and square-zero candidates generated are local, and each
is classified as its own single factor, with a one-id key.  None is a
Z_n or a field: its characteristic, that of its base, is below its
order, and it has a nonzero nilpotent (p when a >= 2, g(x) when
f = g^k with k >= 2 over Z_p, x1 in a square-zero ring).  So the
registry compares no Z_n and no field.  A product's key has two or more
ids, so the only earlier key it can meet is that of a composite Z_n,
which came first and keeps its class, or that of another product.
Within a family the first hit wins.  This first-offer rule therefore
picks the representatives that ranking the families Z_n, fields,
products, quotients, square-zero rings would.

The sweeps decide which side of a classification a ring belongs on from
exact invariants the ring caches, its order, characteristic, units and
maximal ideal, and search for no isomorphism with the rings the paper
names.  Five rules, each proved in a docstring, recognise them: Z_n and
Z_2[x]/(x^2) at `_is_rigid_local`, a product of pairwise distinct rigid
local rings at `_is_product_of_distinct_rigid_locals`, and F_q and
SZ(F_q, m) at `_is_square_zero_over_residue_field`.  The only
isomorphism searches of the sweeps are those of `verify_type_formulas`,
which checks that its sampled pairs are not isomorphic.

`make_ring` returns the one ring of an expression only while something
holds it.  The catalog holds the rings it built in one place,
`Catalog._rings`: the classified rings that won their class, and the
base of every square-zero candidate, built once.  Every entry's `ring`
is `make_ring(expr)`, built on the first read and kept on the entry, so
a classified entry reads the ring the catalog holds, and a Z_n, field or
product entry is built when first read.  The factors of a product's ring
are looked up by expression while the catalog holds them, so a product
shares the ring of each local entry it names, with its fingerprints, and
no expression is built twice.  Any other candidate ring is freed once it
is classified, and a ring a sweep builds for one check is freed after
it, unless the catalog holds it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autsearch import (
    AutGroup,
    _stabilizer_chain,
    _stabilizer_chains,
    aut_group_order,
    automorphisms,
    isomorphism,
)
from .errors import OrderLimitExceeded
from .expr import (
    Prod,
    PolyQuot,
    RingExpr,
    SquareZero,
    Zn,
    expr_order,
    factorize,
    gf,
    is_prime,
    poly_is_irreducible,
    poly_is_primary,
    prime_power,
)
from .orbitgraph import _aut_subset_connected, aut_orbit_graph, build_graph
from .rings import (
    FiniteRing,
    _fingerprint_keys,
    _local_factors,
    _unit_indices,
    euler_phi,
    generating_set,
    local_structure,
    make_ring,
    residue_degree,
)

__all__ = [
    "CatalogEntry",
    "Catalog",
    "VerificationReport",
    "build_catalog",
    "verify_trivial_aut_classification",
    "verify_units_connected_classification",
    "verify_m_connected_classification",
    "verify_type_formulas",
    "verify_involution_and_order_bounds",
    "verify_field_extension_connectivity",
    "verify_residue_field_remark",
    "verify_all",
    "SWEEPS",
    "THEOREM_IDS",
]

MAX_CATALOG_ORDER = 256

# theorem id -> (name of its sweep in this module, whether it reads the
# catalog), in report order.  Names and not functions: `_run_sweeps` looks
# each one up when it runs, so a wrapper set on the module is the one called.
SWEEPS = {
    "trivial-aut": ("verify_trivial_aut_classification", True),
    "units-connected": ("verify_units_connected_classification", True),
    "m-connected": ("verify_m_connected_classification", True),
    "type-formulas": ("verify_type_formulas", False),
    "involution": ("verify_involution_and_order_bounds", True),
    "field-ext": ("verify_field_extension_connectivity", False),
    "residue-remark": ("verify_residue_field_remark", True),
}
THEOREM_IDS = tuple(SWEEPS)


@dataclass(frozen=True)
class CatalogEntry:
    """One isomorphism class of the catalog: its representative expression
    and the family that supplied it.

    `ring` is `make_ring(expr)`, built on the first read and kept on the
    entry.  The ring of an entry the catalog classified is the one the
    catalog holds, so that read builds nothing.
    """

    expr: RingExpr
    provenance: str

    @cached_property
    def ring(self) -> FiniteRing:
        return make_ring(self.expr)


@dataclass(frozen=True)
class Catalog:
    """The entries of `build_catalog(max_order)`, sorted by order and then
    by expression string.

    `_rings` holds the rings the catalog built and keeps: each classified
    ring that won its class and the base of every square-zero candidate,
    so `make_ring` returns them while the catalog is alive.
    """

    max_order: int
    entries: tuple[CatalogEntry, ...]
    _rings: tuple[FiniteRing, ...] = field(default=(), repr=False, compare=False)

    def local_entries(self):
        """The entries whose ring is local.  A product of two or more local
        factors of order above 1 is not local (`local_structure`), so a
        product entry is skipped before its ring is read or built; every
        other entry's ring is read, and a Z_n or field entry's is built on
        that first read."""
        return tuple(
            e
            for e in self.entries
            if e.provenance != "product" and local_structure(e.ring).is_local
        )


@dataclass(frozen=True)
class VerificationReport:
    """One verification's outcome: it passes when it checked at least one
    ring and found no counterexample."""

    theorem_id: str
    universe: str
    checked: int
    passed: bool
    counterexamples: tuple[tuple[RingExpr, str], ...] = field(default_factory=tuple)
    notes: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self):
        return {
            "theorem": self.theorem_id,
            "universe": self.universe,
            "checked": self.checked,
            "passed": self.passed,
            "counterexamples": [
                {"expr": str(e), "detail": d} for e, d in self.counterexamples
            ],
            "notes": list(self.notes),
        }


def _report(theorem_id, universe, checked, counterexamples, notes=()) -> VerificationReport:
    # a verification that checked nothing has shown nothing, so it does not pass
    passed = checked > 0 and not counterexamples
    return VerificationReport(
        theorem_id, universe, checked, passed, tuple(counterexamples), tuple(notes)
    )


# ---------------------------------------------------------------------------
# catalog construction


def _family_candidates(max_order: int):
    """The candidates `build_catalog` files, in the order it offers them
    (Z_n, fields, quotients, square-zero rings): all but those that cannot
    change the catalog (listed in `build_catalog`, proofs in the module
    docstring).  The quotient codes of one (n, d) ascend, as in the full
    enumeration, so every first hit is the same."""
    for n in range(2, max_order + 1):
        yield "zn", Zn(n)
    for q in range(4, max_order + 1):
        pp = prime_power(q)
        if pp and pp[1] >= 2:
            yield "gf", gf(q)
    for deg in (2, 3):
        for n in range(2, max_order + 1):
            if n**deg > max_order:
                break
            pp = prime_power(n)
            if not pp:
                continue
            p, a = pp
            least = _affine_orbit_minima(n, deg)
            for code in np.flatnonzero(least == np.arange(n**deg)).tolist():
                coeffs = tuple((code // n**i) % n for i in range(deg)) + (1,)
                if poly_is_primary(coeffs, p) and not (a == 1 and poly_is_irreducible(coeffs, p)):
                    yield "polyquot", PolyQuot(n, coeffs)
    for b in range(2, max_order + 1):
        if b * b > max_order:
            break
        pp = prime_power(b)
        if not pp:
            continue
        # SZ(Z_b, 1) is Z_b[x]/(x^2); SZ(GF(b), 1) has no earlier twin
        bases = [(Zn(b), 2)]
        if pp[1] >= 2:
            bases.append((gf(b), 1))
        for base, m in bases:
            while b ** (m + 1) <= max_order:
                yield "squarezero", SquareZero(base, m)
                m += 1


class _LocalRegistry:
    """Isomorphism classes of the local rings met during catalog construction.

    Class ids count up from 0 in the order the classes are registered.  A
    Z_n or a field has its class fixed by its order and characteristic,
    and `build_catalog` files it with `fixed_class` from its expression;
    such a class keeps no representative ring.  `classify` compares every
    other ring by fingerprints and `isomorphism`, so it must be given no
    Z_n and no field: the quotient and square-zero candidates it is given
    have characteristic below their order and a nonzero nilpotent.
    """

    def __init__(self, budget):
        self.budget = budget
        self._ids = itertools.count()
        self._fixed: dict[tuple[int, int], int] = {}
        self._probes: dict[tuple, list[tuple[int, FiniteRing]]] = {}

    def fixed_class(self, order: int, characteristic: int) -> int:
        """The class of the Z_n (characteristic equal to the order) or field
        of this order and characteristic, read from no ring."""
        key = (order, characteristic)
        if key not in self._fixed:
            self._fixed[key] = next(self._ids)
        return self._fixed[key]

    def classify(self, ring: FiniteRing) -> int:
        # rings of one order compare fingerprints by their keys
        probe = (ring.order, ring.characteristic, np.sort(_fingerprint_keys(ring)).tobytes())
        bucket = self._probes.setdefault(probe, [])
        for idx, rep in bucket:
            if isomorphism(rep, ring, budget=self.budget) is not None:
                return idx
        idx = next(self._ids)
        bucket.append((idx, ring))
        return idx


def _affine_orbit_minima(n: int, d: int) -> np.ndarray:
    """Least code in the orbit of every monic modulus of degree d over Z_n.

    Index and value are codes sum(c_i * n**i) over the coefficients below
    the leading one; the orbit of f is {u^-d * f(ux + a) : u a unit, a in
    Z_n}.  One (pairs, codes, d+1) product of coefficient rows with the
    substitution matrices M[i, j] = binom(i, j) u^j a^(i-j) u^-d mod n.
    """
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    steps = np.arange(d + 1, dtype=np.int64)
    # powers below n**d, the number of codes, so they fit in int64
    u_pow = np.array(units, dtype=np.int64)[:, None] ** steps % n
    a_pow = np.arange(n, dtype=np.int64)[:, None] ** steps % n
    u_inv = np.array([pow(u, -d, n) for u in units], dtype=np.int64)
    # binom(i, j) is 0 for j > i, which also zeroes the clipped a^(i-j)
    binom = np.array([[math.comb(i, j) for j in steps] for i in steps], dtype=np.int64)
    i_minus_j = np.clip(steps[:, None] - steps[None, :], 0, d)
    # axes (u, a, i, j), flattened to pairs in (u, a) order
    subst = (
        (binom * u_pow[:, None, None, :] % n)
        * a_pow[None, :, i_minus_j] % n
        * u_inv[:, None, None, None] % n
    ).reshape(-1, d + 1, d + 1)
    codes = np.arange(n**d, dtype=np.int64)
    radix = n ** np.arange(d, dtype=np.int64)
    coeffs = np.concatenate(
        [codes[:, None] // radix % n, np.ones((len(codes), 1), dtype=np.int64)], axis=1
    )
    images = (coeffs @ subst) % n
    return (images[..., :d] @ radix).min(axis=0)


def build_catalog(max_order: int = 64, budget=None) -> Catalog:
    """Deduplicated catalog of all constructor-family rings of orders 2..max_order.

    Entries are isomorphism classes.  Candidates are offered in the order
    Z_n, fields, quotients, square-zero rings, then products, and the
    first candidate offered for a class key is its representative; the
    final listing is sorted by order then by the canonical expression
    string.  A Z_n or field is filed from its expression, by its order
    and characteristic and, for Z_n, the CRT split of n; a product from
    its factors' class ids.  Only quotient and square-zero candidates are
    built and classified, and the catalog holds those that win their
    class and the bases of the square-zero candidates.  Every other entry
    builds its ring on the first read of `entry.ring`.

    `_family_candidates` generates no candidate that cannot change the
    result, with the same result as classifying it (proofs in the module
    docstring):

    - a quotient Z_n[x]/(f) whose orbit under f -> u^-d * f(ux + a) holds
      a smaller code, since it is isomorphic to that earlier quotient;
    - a quotient Z_p[x]/(f), p prime, with f irreducible mod p, a field of
      order p^d, held by the earlier GF(p^d);
    - SZ(Z_n, 1), isomorphic to the earlier quotient Z_n[x]/(x^2);
    - a quotient or square-zero ring over Z_n with n not a prime power,
      the product of the same construction over the prime-power parts of
      n;
    - a quotient Z_{p^a}[x]/(f) whose f mod p is not a power of one monic
      irreducible, which is not local and is a product of lower-degree
      quotients.

    In the last two cases the candidate's class is a product of local
    classes registered before it, of order at most max_order, so the
    product loop offers it as a product.  Every candidate classified is
    local and neither a Z_n nor a field, so its key is one id, which no
    product key (two or more ids) meets; a product meets only the key of
    a composite Z_n, which came first, or of another product.

    Z_n, n = q_1 .. q_k with the q_j = p_j^a_j pairwise coprime prime
    powers, is filed as Z_{q_1} x .. x Z_{q_k}: x -> (x mod q_j)_j is a
    unital homomorphism into their product, injective since its kernel is
    (lcm q_j) = (n), and onto by counting (Chinese remainder theorem).
    Z_{q_j} is local, its non-units being the ideal (p_j), and local
    factors are unique up to isomorphism (Atiyah & Macdonald, Thm 8.7), so
    these are the local factors of Z_n.
    """
    if max_order > MAX_CATALOG_ORDER:
        raise OrderLimitExceeded(f"catalog max_order capped at {MAX_CATALOG_ORDER}")
    registry = _LocalRegistry(budget)
    # class key -> ((order, str), expr, family) of the first candidate offered
    best: dict[tuple, tuple] = {}
    # the rings the catalog holds: each classified ring that won its class,
    # and the base of every square-zero candidate, built once
    held: dict[RingExpr, FiniteRing] = {}
    for family, expr in _family_candidates(max_order):
        if family == "zn":
            parts = (p**a for p, a in factorize(expr.n).items())
            key = tuple(sorted(registry.fixed_class(q, q) for q in parts))
        elif family == "gf":
            key = (registry.fixed_class(expr_order(expr), expr.p),)
        else:
            if family == "squarezero":
                held.setdefault(expr.base, make_ring(expr.base))
            ring = make_ring(expr)
            key = (registry.classify(ring),)
            if key not in best:
                held[expr] = ring
        best.setdefault(key, ((expr_order(expr), str(expr)), expr, family))

    # products of local classes, as multisets with total order <= max_order
    locals_sorted = sorted(
        ((key[0], *sort_key, expr) for key, (sort_key, expr, _) in best.items() if len(key) == 1),
        key=lambda t: t[1:3],
    )

    # each item is a product's classes, factors and factor strings, in
    # `locals_sorted` order, which is the (order, str) order of its factors,
    # then the index its next factor starts from and its order; no factor is
    # a product, so their strings joined by " x " are the product's string.
    # A loop, not a recursive closure: a closure that refers to itself is a
    # reference cycle, which only the cycle collector frees.
    stack = [((), (), (), 0, 1)]
    while stack:
        cids, exprs, names, start, order = stack.pop()
        for i in range(start, len(locals_sorted)):
            cid, f_order, name, expr = locals_sorted[i]
            total = order * f_order
            if total > max_order:
                break  # orders ascend
            more_cids, more_exprs, more_names = cids + (cid,), exprs + (expr,), names + (name,)
            if cids:  # two or more factors
                key = tuple(sorted(more_cids))
                if key not in best:
                    best[key] = ((total, " x ".join(more_names)), Prod(more_exprs), "product")
            stack.append((more_cids, more_exprs, more_names, i, total))

    ranked = sorted(best.values(), key=lambda b: b[0])
    entries = tuple(CatalogEntry(expr, family) for _, expr, family in ranked)
    return Catalog(max_order, entries, tuple(held.values()))


# ---------------------------------------------------------------------------
# verification sweeps


def _is_rigid_local(ring: FiniteRing) -> bool:
    """Whether the local ring is isomorphic to a Z_{p^a} or to Z_2[x]/(x^2).

    Rule 1: R is isomorphic to Z_n, n = |R|, exactly when char R = |R|.
    The multiples of 1 form a subring isomorphic to Z_c, c = char R,
    since k*1 = 0 exactly when c divides k; when c = |R| that subring is
    R.  Conversely char Z_n = n.  A local ring has prime-power order, so
    here Z_n is a Z_{p^a}.

    Rule 2: a local R of order 4 is Z_2[x]/(x^2) exactly when char R = 2
    and R is not a field.  That ring has characteristic 2, and x is a
    nonzero nilpotent.  Conversely, R not a field means M != 0, and
    |R/M| >= 2 divides 4, so M = {0, a} with a != 0.  a is nilpotent
    (a power of a non-unit of a finite local ring reaches 0), and a^2 lies
    in M, so a^2 = 0: a^2 = a would give a = a^k = 0 for large k.  So
    x -> a is a homomorphism from Z_2[x]/(x^2), since char R = 2, and it
    is onto R = {0, 1, a, 1 + a}, so bijective by counting.
    """
    return ring.characteristic == ring.order or (
        ring.order == 4 and ring.characteristic == 2 and not ring.is_field
    )


def _is_product_of_distinct_rigid_locals(entry: CatalogEntry) -> bool:
    """The entry's ring isomorphic to a product of pairwise non-isomorphic factors
    drawn from the cyclic prime-power rings and the 4-element square-zero ring.

    A ring is the product of its local factors in one way (Atiyah &
    Macdonald, Thm 8.7), so this asks whether each local factor is rigid
    (`_is_rigid_local`) and no two are isomorphic.  Rule 3: two rigid
    local rings are isomorphic exactly when their (order, characteristic)
    pairs are equal.  Isomorphic rings share both.  Conversely, Z_{p^a}
    has the pair (p^a, p^a) and Z_2[x]/(x^2) the pair (4, 2), so the pair
    names the ring.

    A ring with char R = |R| is such a product, and its local factors are
    not read.  Rule 1 makes it Z_n, which is Z_{q_1} x .. x Z_{q_k} for
    the prime powers q_j of n (CRT, at `build_catalog`); each Z_{q_j} is
    rigid, and their orders are pairwise distinct, so no two are
    isomorphic (rule 3).  Any other ring's factors are those of
    `rings._local_factors`, which the ring caches.
    """
    ring = entry.ring
    if ring.characteristic == ring.order:
        return True
    factors = _local_factors(ring)
    pairs = {(f.order, f.characteristic) for f in factors}
    return all(map(_is_rigid_local, factors)) and len(pairs) == len(factors)


def _is_square_zero_over_residue_field(ring: FiniteRing) -> bool:
    """Whether the local ring is SZ(F_q, m) for some m, fields included as
    m = 0.

    Rule 5: a local R is SZ(F_q, m) for some m exactly when char R is
    prime and M^2 = 0; then q = |R/M|.  SZ(F_q, m) has the prime
    characteristic of F_q, and its maximal ideal (x_1, .., x_m) squares to
    0.  Conversely, let char R = p and q = |R/M| = p^e.  The Frobenius map
    x -> x^q is a ring endomorphism, since p divides every binomial
    coefficient C(p, i) with 0 < i < p, so its fixed ring K = {x : x^q = x}
    is a subring.  K meets M only in 0: x in M is nilpotent, and x = x^q
    gives x = x^(q^k) = 0 for large k.  For y in M, (x + y)^q = x^q + y^q
    = x^q, as M^2 = 0, so x -> x^q is constant on each coset of M; and x^q
    lies in x + M, since t^q = t on the field R/M of q elements.  So x^q
    lies in K and in x + M.  Hence K -> R/M is onto, and one-to-one as K
    meets M only in 0: K is a field isomorphic to F_q, and R = K + M with
    K and M meeting in 0.  M is a K-vector space, of dimension m say, and
    for a K-basis y_1, .., y_m of M, M^2 = 0 makes a + sum b_i x_i ->
    a + sum b_i y_i, with F_q read as K, an isomorphism from SZ(F_q, m).

    Rule 4, R is isomorphic to F_q exactly when R is a field of order q,
    is the case M = 0, since a finite field has prime characteristic
    (Lidl & Niederreiter, *Finite Fields*, Thm 2.5).
    """
    if not is_prime(ring.characteristic):
        return False
    m = sorted(local_structure(ring).maximal_ideal)
    return bool((ring.mul_table[np.ix_(m, m)] == ring.zero).all())


def _classified_entries(catalog: Catalog) -> tuple[CatalogEntry, ...]:
    # the zero ring sits outside the classified universe
    return tuple(e for e in catalog.entries if e.ring.order > 1)


def verify_trivial_aut_classification(catalog: Catalog, budget=None) -> VerificationReport:
    """|Aut R| = 1 exactly for products of pairwise distinct Z_{p^a} and Z_2[x]/(x^2).

    Every entry's stabilizer chain is searched first, in one
    `_stabilizer_chains` call, which may share the products with a forked
    child; the loop then reads the cached chains, and decides each
    entry's expected side from its factors' orders and characteristics
    (`_is_product_of_distinct_rigid_locals`), with no search.
    """
    cex = []
    entries = _classified_entries(catalog)
    _stabilizer_chains([e.ring for e in entries], budget)
    for entry in entries:
        rigid = aut_group_order(entry.ring, budget=budget) == 1
        if rigid != _is_product_of_distinct_rigid_locals(entry):
            detail = (
                "trivial automorphism group but not of the classified shape"
                if rigid
                else "classified shape but a nontrivial automorphism exists"
            )
            cex.append((entry.expr, detail))
    return _report(
        "trivial-aut",
        f"constructor-family catalog, max order {catalog.max_order}",
        len(entries),
        cex,
    )


def _non_local_entries(catalog: Catalog) -> tuple[CatalogEntry, ...]:
    return tuple(
        e for e in catalog.entries if e.ring.order > 1 and not local_structure(e.ring).is_local
    )


def _units_minus_one_connected(ring: FiniteRing, budget) -> bool:
    """Whether U(R)-{1} lies in one block of the ring's Aut R orbit graph,
    read from its chain's labels (`_aut_subset_connected`)."""
    units = _unit_indices(ring)
    return _aut_subset_connected(ring, units[units != ring.one], budget)


def _units_connected_detail(entry: CatalogEntry, budget) -> str | None:
    """The counterexample detail of one local entry, or None when its units
    other than one are connected exactly when it is in the classified list.

    The list is decided with no search: Z2 and Z3 are the local rings of
    those orders, Z4 has characteristic 4 (rule 1, at `_is_rigid_local`),
    F4 is the field of order 4 (rule 4), and SZ(Z2, m) is the square-zero
    ring over a residue field of order 2 (rule 5, at
    `_is_square_zero_over_residue_field`).
    """
    ring = entry.ring
    connected = _units_minus_one_connected(ring, budget)
    n, q = ring.order, local_structure(ring).residue_field_order
    expected = (
        n in (2, 3)
        or (n == 4 and (ring.characteristic == 4 or ring.is_field))
        or (q == 2 and _is_square_zero_over_residue_field(ring))
    )
    if connected == expected:
        return None
    if connected:
        return "units minus one connected but ring not in the classified list"
    return "ring in the classified list but units minus one disconnected"


def verify_units_connected_classification(catalog: Catalog, budget=None) -> VerificationReport:
    """U(R)-{1} connected exactly for Z2, Z3, Z4, F4 and SquareZero(Z2, m).

    The classified statement covers local rings only; non-local rings with
    the subset connected are recorded as notes, with nothing asserted.
    The non-local entries' chains are searched first, in one
    `_stabilizer_chains` call; after the trivial-aut sweep on the same
    catalog they are all cached, and that call searches and forks nothing.
    A note then reads the labels of the entry's chain at its units other
    than one, one gather, with no `OrbitGraph` built
    (`_units_minus_one_connected`), as each local entry's check does
    (`_units_connected_detail`).
    """
    cex = []
    notes = []
    non_local = _non_local_entries(catalog)
    _stabilizer_chains([e.ring for e in non_local], budget)
    for entry in non_local:
        if _units_minus_one_connected(entry.ring, budget):
            notes.append(f"non-local {entry.expr}: units minus one connected")
    entries = catalog.local_entries()
    for entry in entries:
        detail = _units_connected_detail(entry, budget)
        if detail is not None:
            cex.append((entry.expr, detail))
    return _report(
        "units-connected",
        f"local entries of the constructor-family catalog, max order {catalog.max_order}",
        len(entries),
        cex,
        notes,
    )


def verify_m_connected_classification(catalog: Catalog, budget=None) -> VerificationReport:
    """M-{0} connected exactly for Z4 and SquareZero(F_q, m), fields included as m=0.

    The expected side reads no search: Z4 is the local ring of order and
    characteristic 4 (rule 1, at `_is_rigid_local`), and SZ(F_q, m) the
    local ring of prime characteristic with M^2 = 0 (rule 5, at
    `_is_square_zero_over_residue_field`).
    """
    cex = []
    entries = catalog.local_entries()
    for entry in entries:
        ring = entry.ring
        graph = aut_orbit_graph(ring, budget=budget)
        connected = graph.subset_connected(local_structure(ring).maximal_ideal - {ring.zero})
        expected = ring.order == ring.characteristic == 4 or _is_square_zero_over_residue_field(ring)
        if connected != expected:
            detail = (
                "maximal ideal minus zero connected but ring not classified"
                if connected
                else "classified ring but maximal ideal minus zero disconnected"
            )
            cex.append((entry.expr, detail))
    return _report(
        "m-connected",
        f"local entries of the constructor-family catalog, max order {catalog.max_order}",
        len(entries),
        cex,
    )


# the samples of `verify_type_formulas`, in the order of its docstring
_DUAL_PRIMES = (3, 5, 7, 11, 13)
_DUAL_ODD_MODULI = (3, 5, 7, 9, 15, 21)
_SYMMETRIC_POWERS = ((2, 2, 2), (2, 2, 3), (3, 1, 2), (5, 1, 2), (5, 1, 3), (5, 1, 4))
_TYPE_FIELDS = (4, 8, 9, 16, 25, 27, 64)
_LOCAL_PAIRS = (
    (Zn(4), Zn(9)),
    (Zn(4), PolyQuot(3, (0, 0, 1))),
    (gf(4), Zn(5)),
    (gf(4), PolyQuot(5, (0, 0, 1))),
    (Zn(8), Zn(9)),
    (PolyQuot(2, (0, 0, 0, 1)), Zn(3)),
    (SquareZero(Zn(2), 2), Zn(3)),
    (gf(9), gf(4)),
    (Zn(25), gf(4)),
    (PolyQuot(5, (0, 0, 1)), gf(25)),
    (Zn(9), SquareZero(Zn(2), 2)),
    (gf(8), Zn(9)),
)


def verify_type_formulas(budget=None) -> VerificationReport:
    """Closed-form graph types and product degree/type formulas.

    Covers: type(Z_p[x]/(x^2)) = p-2; type(Z_n[x]/(x^2)) = phi(n)-1 for odd
    n; |Aut(Z_{p^k}^m)| = m! for m < p^k; type(F_{p^m}) = m-1; and for
    sampled non-isomorphic local pairs the degree product rule on every
    element pair plus the type product rule when the types differ.
    """
    cex = []

    def check_type(expr, want, graph=None):
        if graph is None:
            graph = aut_orbit_graph(make_ring(expr), budget=budget)
        t = graph.graph_type()
        if t != want:
            cex.append((expr, f"type {t}, expected {want}"))

    for p in _DUAL_PRIMES:
        check_type(PolyQuot(p, (0, 0, 1)), p - 2)
    for n in _DUAL_ODD_MODULI:
        check_type(PolyQuot(n, (0, 0, 1)), euler_phi(n) - 1)
    for p, k, m in _SYMMETRIC_POWERS:
        expr = Prod(tuple(Zn(p**k) for _ in range(m)))
        got = aut_group_order(make_ring(expr), budget=budget)
        if got != math.factorial(m):
            cex.append((expr, f"|Aut| {got}, expected {math.factorial(m)}"))
    for q in _TYPE_FIELDS:
        check_type(gf(q), prime_power(q)[1] - 1)
    for ea, eb in _LOCAL_PAIRS:
        ra, rb = make_ring(ea), make_ring(eb)
        if isomorphism(ra, rb, budget=budget) is not None:
            cex.append((Prod((ea, eb)), "sampled pair unexpectedly isomorphic"))
            continue
        prod_expr = Prod((ea, eb))
        rp = make_ring(prod_expr)
        ga = aut_orbit_graph(ra, budget=budget)
        gb = aut_orbit_graph(rb, budget=budget)
        gp = aut_orbit_graph(rp, budget=budget)
        # orbit sizes multiply; the product's element a * |B| + b is the pair (a, b)
        sizes = gp.sizes[gp.block_of].reshape(ra.order, rb.order)
        bad = np.argwhere(sizes != np.outer(ga.sizes[ga.block_of], gb.sizes[gb.block_of]))
        if len(bad):
            pair = tuple(bad[0].tolist())
            cex.append((prod_expr, f"degree product rule fails at element pair {pair}"))
            continue
        ta, tb = ga.graph_type(), gb.graph_type()
        if ta != tb:
            check_type(prod_expr, (ta + 1) * (tb + 1) - 1, gp)
    samples = (_DUAL_PRIMES, _DUAL_ODD_MODULI, _SYMMETRIC_POWERS, _TYPE_FIELDS, _LOCAL_PAIRS)
    checked = sum(map(len, samples))
    return _report("type-formulas", "closed-form samples over constructor families", checked, cex)


def _lcm_up_to(k: int) -> int:
    return math.lcm(*range(1, k + 1)) if k >= 1 else 1


def _order_exponent(ring: FiniteRing, graph) -> int:
    """lcm(1..L), L the largest Aut R orbit of a generator in
    `generating_set(ring)`, 1 when there is none; `graph` is the ring's
    orbit graph.  The order of every automorphism divides it.

    Proof.  An automorphism sigma fixes the prime subring, which with the
    generators generates the ring, so sigma^m = id exactly when sigma^m
    fixes every generator g.  That holds exactly when the length of the
    cycle of sigma through g divides m, for every g; the cycle lies in the
    orbit O(g) of g under Aut R, so its length is at most |O(g)| <= L.  So
    the order of sigma is the lcm of these lengths, which divides
    lcm(1..L).
    """
    gens = list(generating_set(ring))
    longest = int(graph.sizes[graph.block_of[gens]].max()) if gens else 1
    return _lcm_up_to(longest)


def _strong_generators_commute(ring: FiniteRing, budget) -> bool:
    """Whether Aut R is abelian: a group is abelian exactly when a set that
    generates it commutes pairwise, and the strong generators of the
    ring's stabilizer chain generate Aut R."""
    strong = _stabilizer_chain(ring, budget).strong
    return all(np.array_equal(g[h], h[g]) for i, g in enumerate(strong) for h in strong[i + 1 :])


def verify_involution_and_order_bounds(catalog: Catalog, budget=None) -> VerificationReport:
    """Abelian 2-group when ideal degrees stay <= 1; factorial bound on element orders.

    Neither check lists the group where a closed form decides it.  With
    ideal degrees <= 1, Aut R is abelian when its strong generators
    commute pairwise (`_strong_generators_commute`), and |Aut R| comes
    from the stabilizer chain.  The factorial bound (n+1)! on element
    orders is certified arithmetically whenever `_order_exponent`, a
    multiple of every automorphism's order, divides (n+1)!; otherwise the
    group is listed and checked element by element.
    """
    cex = []
    entries = tuple(
        e for e in catalog.local_entries() if not e.ring.is_field and e.ring.order > 1
    )
    for entry in entries:
        ring = entry.ring
        ls = local_structure(ring)
        graph = aut_orbit_graph(ring, budget=budget)
        maxdeg = int(graph.sizes[graph.block_of[list(ls.maximal_ideal)]].max()) - 1
        bound = math.factorial(maxdeg + 1)
        if maxdeg <= 1:
            if not _strong_generators_commute(ring, budget):
                cex.append((entry.expr, "ideal degrees <= 1 but group not abelian"))
                continue
            order = aut_group_order(ring, budget=budget)
            if order & (order - 1):
                cex.append((entry.expr, f"ideal degrees <= 1 but |Aut| = {order} not a 2-power"))
                continue
        if bound % _order_exponent(ring, graph):
            group = automorphisms(ring, budget=budget)
            worst = max(group.element_order(s) for s in group)
            if worst > bound:
                cex.append(
                    (entry.expr, f"element order {worst} exceeds bound {bound}")
                )
    return _report(
        "involution",
        f"local non-field entries of the constructor-family catalog, max order {catalog.max_order}",
        len(entries),
        cex,
    )


# the fields F_(q^t) of `verify_field_extension_connectivity`: bounds on q, t, q^t
_EXT_Q, _EXT_T, _EXT_ORDER = 5, 3, 256


def verify_field_extension_connectivity(budget=None) -> VerificationReport:
    """K - E connected under the E-fixing subgroup only for (q, t) = (2, 2).

    Also checks that the fixed field of that subgroup is exactly E.
    """
    cex = []
    checked = 0
    for q in range(2, _EXT_Q + 1):
        if prime_power(q) is None:
            continue
        for t in range(2, _EXT_T + 1):
            if q**t > _EXT_ORDER:
                continue
            checked += 1
            expr = gf(q**t)
            k_field = make_ring(expr)
            subfield = frozenset(
                x for x in range(k_field.order) if k_field.pow(x, q) == x
            )
            group = automorphisms(k_field, budget=budget)
            fixing = [s for s in group if all(s(e) == e for e in subfield)]
            subgroup = AutGroup(k_field, np.stack([s.image for s in fixing]))
            graph = build_graph(k_field, subgroup)
            outside = set(range(k_field.order)) - subfield
            connected = graph.subset_connected(outside)
            if connected != ((q, t) == (2, 2)):
                cex.append(
                    (expr, f"K-E connected={connected} for (q,t)=({q},{t})")
                )
            fixed = {
                x
                for x in range(k_field.order)
                if all(s(x) == x for s in subgroup)
            }
            if fixed != set(subfield):
                cex.append((expr, "fixed field of the E-fixing subgroup is not E"))
    return _report(
        "field-ext",
        f"finite fields F_(q^t), q <= {_EXT_Q}, 2 <= t <= {_EXT_T}, order <= {_EXT_ORDER}",
        checked,
        cex,
    )


def verify_residue_field_remark(catalog: Catalog, budget=None) -> VerificationReport:
    """Local rings with residue degree above 2 have graph type at least 2."""
    cex = []
    checked = 0
    for entry in catalog.local_entries():
        d = residue_degree(entry.ring)
        if d is None or d <= 2:
            continue
        checked += 1
        t = aut_orbit_graph(entry.ring, budget=budget).graph_type()
        if t < 2:
            cex.append((entry.expr, f"residue degree {d} but type {t}"))
    return _report(
        "residue-remark",
        f"local entries with residue degree > 2, constructor-family catalog, max order {catalog.max_order}",
        checked,
        cex,
    )


# the sweeps that read the stabilizer chains of the catalog's products
_READ_PRODUCT_CHAINS = ("trivial-aut", "units-connected")


def _run_sweeps(theorem_ids, max_order: int, budget=None) -> list[VerificationReport]:
    """The reports of the given sweeps, in order; the catalog up to
    `max_order` is built once, and only when one of them reads it.

    Only the trivial-aut and units-connected sweeps read the chains of
    product entries, and between them they read the chain of every entry
    of order above 1.  When one of them runs with other sweeps, those
    chains are searched first, in one `_stabilizer_chains` call, whose
    `meanwhile` computes the other sweeps' reports, in the order given,
    and then reads on every entry of order above 1 what the two chain
    sweeps read besides its chain, each cached on its ring: its trivial-aut
    shape (the local factors it reads), its `local_structure` and its
    units.  So after the call the two sweeps read little more than the
    products' |Aut R| and orbit labels.  `_stabilizer_chains` runs
    `meanwhile` at one point of one schedule on every host, after the
    rings that are not products and before the products, so an error in
    it is raised there, once, with the same message on every host.
    """
    catalog = None
    if any(SWEEPS[t][1] for t in theorem_ids):
        catalog = build_catalog(max_order, budget=budget)

    def run(t):
        name, reads_catalog = SWEEPS[t]
        sweep = globals()[name]
        return sweep(catalog, budget=budget) if reads_catalog else sweep(budget=budget)

    done = {}
    rest = [t for t in theorem_ids if t not in _READ_PRODUCT_CHAINS]
    if rest and len(rest) < len(theorem_ids):
        classified = _classified_entries(catalog)

        def meanwhile():
            for t in rest:
                done[t] = run(t)
            for e in classified:
                _is_product_of_distinct_rigid_locals(e)
                local_structure(e.ring)
                _unit_indices(e.ring)

        _stabilizer_chains([e.ring for e in classified], budget, meanwhile)
    return [done[t] if t in done else run(t) for t in theorem_ids]


def verify_all(max_order: int = 64, budget=None) -> list[VerificationReport]:
    """Run every verification over one catalog; returns the report list."""
    return _run_sweeps(THEOREM_IDS, max_order, budget)
