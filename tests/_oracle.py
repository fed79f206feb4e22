"""Unpruned generator-image oracle, independent of the search engine.

Everything here is recomputed from the operation tables with plain Python
loops: element statistics, the greedy generating set, and a construction
recipe that derives each carrier element once from the prime subring and
the generators.  Candidate maps are produced for EVERY assignment of
generator images into matching statistic classes (no conflict pruning,
no backtracking), extended by replaying the recipe, and filtered by a
full homomorphism-plus-bijectivity check at the end.  That table check,
`table_homomorphism`, is also the reference the engine's certificate is
tested against.
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


def table_homomorphism(source, target, images):
    """Full O(n^2) check of each image row: f(1) = 1 and f(a op b) = f(a) op f(b)
    for every pair (a, b) and both operations.  Returns one bool per row."""
    imgs = np.atleast_2d(np.asarray(images, dtype=np.int64))
    n = source.order
    ok = imgs[:, source.one] == target.one
    step = max(1, 2_000_000 // max(n * n, 1))
    for lo in range(0, len(imgs), step):
        hi = min(len(imgs), lo + step)
        chunk = imgs[lo:hi]
        for s_tab, t_tab in ((source.add_table, target.add_table), (source.mul_table, target.mul_table)):
            lhs = chunk[:, s_tab]
            rhs = np.asarray(t_tab, dtype=np.int64)[chunk[:, :, None], chunk[:, None, :]]
            ok[lo:hi] &= (lhs == rhs).all(axis=(1, 2))
    return ok
