"""Unpruned generator-image oracle, independent of the search engine.

Everything here is recomputed from the operation tables with plain Python
loops: element statistics, the greedy generating set, and a construction
recipe that derives each carrier element once from the prime subring and
the generators.  Candidate maps are produced for EVERY assignment of
generator images into matching statistic classes (no conflict pruning,
no backtracking), extended by replaying the recipe, and filtered by a
full homomorphism-plus-bijectivity check at the end.  That table check,
`table_homomorphism`, is also the reference the engine's certificate is
tested against.  `all_family_candidates` is the unpruned universe of
constructor-family candidates, with none of the catalog's skip rules.
The `reference_*` predicates decide the expected side of the
classification sweeps by isomorphism searches with the rings the paper
names, the way the sweeps did before they read invariants; they are the
reference the invariant rules are tested against.
"""

from itertools import product

import numpy as np


def naive_fingerprint(ring, x):
    add, mul = ring.add_table, ring.mul_table
    n = ring.order
    k, y = 1, x
    while y != ring.zero:
        y = int(add[y, x])
        k += 1
    add_order = k
    nilp = 0
    seen = set()
    y, k = x, 1
    while y not in seen:
        if y == ring.zero:
            nilp = k
            break
        seen.add(y)
        y = int(mul[y, x])
        k += 1
    is_unit = any(int(mul[x, y]) == ring.one for y in range(n))
    mul_order = 0
    if is_unit:
        y, k = x, 1
        while y != ring.one:
            y = int(mul[y, x])
            k += 1
        mul_order = k
    ann = sum(1 for a in range(n) if int(mul[a, x]) == ring.zero)
    fix = sum(1 for y in range(n) if int(mul[x, y]) == x)
    return (add_order, nilp, int(is_unit), mul_order, ann, fix)


def naive_closure(ring, seed):
    add, mul = ring.add_table, ring.mul_table
    cur = set(seed)
    changed = True
    while changed:
        changed = False
        items = list(cur)
        for a in items:
            for b in items:
                for c in (int(add[a, b]), int(mul[a, b])):
                    if c not in cur:
                        cur.add(c)
                        changed = True
    return cur


def naive_generating_set(ring):
    prime = set()
    x = ring.zero
    prime.add(x)
    x = ring.one
    while x != ring.zero:
        prime.add(x)
        x = int(ring.add_table[x, ring.one])
    closed = naive_closure(ring, prime)
    gens = []
    while len(closed) < ring.order:
        g = min(set(range(ring.order)) - closed)
        gens.append(g)
        closed = naive_closure(ring, closed | {g})
    return gens


def _build_recipe(ring, gens):
    """Steps deriving every element: prime-chain, generator, or a+b / a*b."""
    add, mul = ring.add_table, ring.mul_table
    n = ring.order
    known = [False] * n
    steps = []

    k, x = 0, ring.zero
    steps.append(("prime", x, k))
    known[x] = True
    x = ring.one
    k = 1
    while x != ring.zero:
        if not known[x]:
            steps.append(("prime", x, k))
            known[x] = True
        x = int(add[x, ring.one])
        k += 1

    def close():
        changed = True
        while changed:
            changed = False
            ks = [i for i in range(n) if known[i]]
            for a in ks:
                for b in ks:
                    for op, tab in (("add", add), ("mul", mul)):
                        c = int(tab[a, b])
                        if not known[c]:
                            steps.append((op, c, a, b))
                            known[c] = True
                            changed = True

    close()
    for i, g in enumerate(gens):
        if not known[g]:
            steps.append(("gen", g, i))
            known[g] = True
        close()
    assert all(known)
    return steps


def oracle_automorphism_images(ring):
    """Set of image tuples of all automorphisms, by exhaustive assignment."""
    n = ring.order
    add, mul = ring.add_table, ring.mul_table
    gens = naive_generating_set(ring)
    fps = [naive_fingerprint(ring, x) for x in range(n)]
    classes = {}
    for x, fp in enumerate(fps):
        classes.setdefault(fp, []).append(x)
    recipe = _build_recipe(ring, gens)
    prime_chain = []
    x = ring.zero
    prime_chain.append(x)
    x = ring.one
    while x != ring.zero:
        prime_chain.append(x)
        x = int(add[x, ring.one])

    candidates = []
    for assignment in product(*(classes[fps[g]] for g in gens)):
        img = [-1] * n
        for step in recipe:
            if step[0] == "prime":
                img[step[1]] = prime_chain[step[2]]
            elif step[0] == "gen":
                img[step[1]] = assignment[step[2]]
            else:
                tab = add if step[0] == "add" else mul
                img[step[1]] = int(tab[img[step[2]], img[step[3]]])
        candidates.append(img)

    if not candidates:
        return set()
    imgs = np.array(candidates, dtype=np.int64)
    ok = table_homomorphism(ring, ring, imgs)
    ok &= (np.sort(imgs, axis=1) == np.arange(n)).all(axis=1)
    return {tuple(map(int, row)) for row in imgs[ok]}


def reference_orbits(n, images):
    """Orbits of 0..n-1 under the maps `images`, by a plain union-find:
    blocks ascending, listed by their least element."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for img in images:
        for x in range(n):
            ra, rb = find(x), find(int(img[x]))
            parent[max(ra, rb)] = min(ra, rb)
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return tuple(tuple(blocks[r]) for r in sorted(blocks))


def table_homomorphism(source, target, images, elements=None):
    """Full O(n^2) check of each image row: f(1) = 1 and f(a op b) = f(a) op f(b)
    for every pair (a, b) and both operations.  Returns one bool per row.

    `elements`, the indices of a subring of the source, restricts the pairs
    to it, so only the images of its elements are read."""
    imgs = np.atleast_2d(np.asarray(images, dtype=np.int64))
    sub = np.arange(source.order) if elements is None else np.asarray(elements)
    n = len(sub)
    ok = imgs[:, source.one] == target.one
    step = max(1, 2_000_000 // max(n * n, 1))
    for lo in range(0, len(imgs), step):
        hi = min(len(imgs), lo + step)
        chunk = imgs[lo:hi]
        for s_tab, t_tab in ((source.add_table, target.add_table), (source.mul_table, target.mul_table)):
            lhs = chunk[:, np.asarray(s_tab)[np.ix_(sub, sub)]]
            part = chunk[:, sub]
            rhs = np.asarray(t_tab, dtype=np.int64)[part[:, :, None], part[:, None, :]]
            ok[lo:hi] &= (lhs == rhs).all(axis=(1, 2))
    return ok


# ---------------------------------------------------------------------------
# reference construction: each ring built from its definition with Python
# integers, in the same carrier encoding as `make_ring`


class ReferenceRing:
    def __init__(self, elements, add, mul, zero, one, name):
        index = {e: i for i, e in enumerate(elements)}
        self.order = len(elements)
        self.add = [[index[add(a, b)] for b in elements] for a in elements]
        self.mul = [[index[mul(a, b)] for b in elements] for a in elements]
        self.zero, self.one = index[zero], index[one]
        self.names = [name(e) for e in elements]


def all_family_candidates(max_order):
    """Every constructor-family candidate of order 2..max_order, in the
    catalog's candidate order, with none left out: Z_n, GF(q) for q a
    prime power that is not prime, every monic quotient Z_n[x]/(f) of
    degree 2 and 3 by ascending code sum(c_i * n**i), and SZ(B, m) over
    B = Z_b and, for b a prime power that is not prime, GF(b)."""
    from ringgraph import PolyQuot, SquareZero, Zn, gf
    from ringgraph.expr import prime_power

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
            for code in range(n**deg):
                coeffs = tuple((code // n**i) % n for i in range(deg)) + (1,)
                yield "polyquot", PolyQuot(n, coeffs)
    for b in range(2, max_order + 1):
        if b * b > max_order:
            break
        bases = [Zn(b)]
        pp = prime_power(b)
        if pp and pp[1] >= 2:
            bases.append(gf(b))
        for base in bases:
            m = 1
            while b ** (m + 1) <= max_order:
                yield "squarezero", SquareZero(base, m)
                m += 1


def _poly_name(coeffs):
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        power = "" if k == 0 else "x" if k == 1 else f"x^{k}"
        terms.append(str(c) if k == 0 else power if c == 1 else f"{c}{power}")
    return "+".join(terms) if terms else "0"


def _digit_vectors(base, width):
    """Carrier order of a little-endian base-`base` digit encoding."""
    return [tuple((i // base**k) % base for k in range(width)) for i in range(base**width)]


def reference_ring(expr):
    """Tables, zero, one and element names of `expr`, without the library's builders.

    Zn: residues.  GF and PolyQuot: coefficient vectors in ascending degree,
    little-endian; the product is the polynomial product reduced mod
    (modulus, n).  SquareZero: (a, v_1..v_m), little-endian over the base,
    with (a, v)(b, w) = (ab, aw + bv).  Prod: tuples, big-endian.
    """
    from ringgraph import GF, PolyQuot, Prod, SquareZero, Zn

    if isinstance(expr, Zn):
        n = expr.n
        return ReferenceRing(
            list(range(n)), lambda a, b: (a + b) % n, lambda a, b: a * b % n, 0, 1 % n, str
        )
    if isinstance(expr, (GF, PolyQuot)):
        n = expr.p if isinstance(expr, GF) else expr.n
        f = expr.modulus
        d = len(f) - 1

        def mul(a, b):
            prod = [0] * (2 * d - 1)
            for i in range(d):
                for j in range(d):
                    prod[i + j] += a[i] * b[j]
            for k in range(2 * d - 2, d - 1, -1):
                c = prod[k]
                for i in range(d + 1):
                    prod[k - d + i] -= c * f[i]
            return tuple(c % n for c in prod[:d])

        def add(a, b):
            return tuple((x + y) % n for x, y in zip(a, b))

        one = (1 % n,) + (0,) * (d - 1)
        return ReferenceRing(_digit_vectors(n, d), add, mul, (0,) * d, one, _poly_name)
    if isinstance(expr, SquareZero):
        base, m = reference_ring(expr.base), expr.m
        ba, bm = base.add, base.mul

        def add(x, y):
            return tuple(ba[a][b] for a, b in zip(x, y))

        def mul(x, y):
            a, b = x[0], y[0]
            return (bm[a][b],) + tuple(ba[bm[a][y[c]]][bm[x[c]][b]] for c in range(1, m + 1))

        def name(x):
            parts = []
            if x[0] != base.zero:
                nm = base.names[x[0]]
                parts.append(f"({nm})" if "+" in nm else nm)
            for i in range(1, m + 1):
                if x[i] == base.zero:
                    continue
                nm = base.names[x[i]]
                coeff = "" if x[i] == base.one else f"({nm})" if "+" in nm else nm
                parts.append(f"{coeff}x{i}")
            return "+".join(parts) if parts else base.names[base.zero]

        zero = (base.zero,) * (m + 1)
        one = (base.one,) + (base.zero,) * m
        return ReferenceRing(_digit_vectors(base.order, m + 1), add, mul, zero, one, name)
    if isinstance(expr, Prod):
        fs = [reference_ring(f) for f in expr.factors]
        return ReferenceRing(
            list(product(*(range(f.order) for f in fs))),
            lambda x, y: tuple(f.add[a][b] for f, a, b in zip(fs, x, y)),
            lambda x, y: tuple(f.mul[a][b] for f, a, b in zip(fs, x, y)),
            tuple(f.zero for f in fs),
            tuple(f.one for f in fs),
            lambda x: "(" + ",".join(f.names[a] for f, a in zip(fs, x)) + ")",
        )
    raise TypeError(f"no reference construction for {expr!r}")


def shuffled_copy(ring, rng):
    """Relabel the carrier by a random permutation; an isomorphic ring."""
    import ringgraph as rg

    n = ring.order
    perm = rng.permutation(n)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    add = perm[np.asarray(ring.add_table, dtype=np.int64)[np.ix_(inv, inv)]]
    mul = perm[np.asarray(ring.mul_table, dtype=np.int64)[np.ix_(inv, inv)]]
    names = [ring.element_names[int(inv[i])] for i in range(n)]
    return rg.FiniteRing(
        add.astype(ring.add_table.dtype),
        mul.astype(ring.mul_table.dtype),
        int(perm[ring.zero]),
        int(perm[ring.one]),
        None,
        names,
    ), perm


def is_isomorphic_to(ring, expr):
    """Whether `ring` is isomorphic to the ring `expr` names, by search."""
    import ringgraph as rg

    return rg.isomorphism(ring, rg.make_ring(expr)) is not None


def reference_rigid_local(ring):
    """Whether the local ring is isomorphic to a Z_{p^a} or to Z_2[x]/(x^2)."""
    from ringgraph import PolyQuot, Zn
    from ringgraph.expr import prime_power

    if not prime_power(ring.order):
        return False
    if is_isomorphic_to(ring, Zn(ring.order)):
        return True
    return ring.order == 4 and ring.characteristic == 2 and is_isomorphic_to(
        ring, PolyQuot(2, (0, 0, 1))
    )


def reference_trivial_aut_shape(entry):
    """Whether the entry's ring is a product of pairwise non-isomorphic
    rigid local factors, each question asked by isomorphism search."""
    import ringgraph as rg

    factors = rg.decompose_local(entry.ring)[0]
    if not all(reference_rigid_local(f) for f in factors):
        return False
    return all(
        rg.isomorphism(f, g) is None
        for i, f in enumerate(factors)
        for g in factors[i + 1 :]
    )


def reference_square_zero(ring):
    """Whether the local ring is isomorphic to SZ(F_q, m), q its residue
    field order, for the m with q^(m+1) = |R|, if there is one."""
    import ringgraph as rg
    from ringgraph.expr import prime_power

    q = rg.local_structure(ring).residue_field_order
    m, size = 0, q
    while size < ring.order:
        size, m = size * q, m + 1
    if size != ring.order:
        return False
    base = rg.Zn(q) if prime_power(q)[1] == 1 else rg.gf(q)
    return is_isomorphic_to(ring, rg.SquareZero(base, m))
