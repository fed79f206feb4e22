"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark shares a few cores of a busy host, and the same pass runs up
to 1.5x slower in spells that last minutes: the work itself slows, so CPU
time rises with wall time.  Each set-up probe of a run (see run.py) also
times `kernel`, and the harness multiplies the run's median times by REF_S
over the run's mean kernel time.  A time so adjusted reads as seconds at
the host speed at which the kernel takes REF_S.

The kernel never touches ringgraph, so a change to the program moves the
adjusted times exactly as it moves the raw ones.  It copies the program's
mix of work: a propagation loop of small numpy gathers and mask tests
feeding a deque (as in the isomorphism search), table builds with
`np.ix_` and outer products (as in ring construction), and tuple, dict and
string work in pure Python (as in expression handling and dedup).
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

# kernel seconds at the reference host speed: about its usual time on a
# 2-core host with Python 3.11.7 and numpy 2.4.6
REF_S = 0.30
SIZES = (16, 27, 32, 49, 64)


def _propagate(add, mul, rounds):
    n = add.shape[0]
    img = np.full(n, -1, dtype=np.int64)
    det = np.zeros(n, dtype=np.int64)
    assigned = 0
    for r in range(rounds):
        img[:] = -1
        k = 0
        queue = deque([(0, 0), (1, 1 + r % (n - 1))])
        while queue:
            x, y = queue.popleft()
            if img[x] >= 0:
                continue
            img[x] = y
            det[k] = x
            k += 1
            d = det[:k]
            imd = img[d]
            for tab in (add, mul):
                s = tab[x, d]
                si = img[s]
                unknown = si < 0
                if unknown.any():
                    queue.extend(zip(s[unknown].tolist(), tab[y, imd][unknown].tolist()))
        assigned += k
    return assigned


def _tables(n, rng):
    e = np.arange(n, dtype=np.int64)
    add = np.add.outer(e, e) % n
    mul = np.multiply.outer(e, e) % n
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    grid = np.ix_(inv, inv)
    return perm[add[grid]], perm[mul[grid]]


def _poly_work(n):
    seen: dict[tuple, str] = {}
    for a in range(n):
        coeffs = [(a * i + 1) % 7 for i in range(8)]
        for b in range(1, 6):
            prod = [0] * 15
            for i, c in enumerate(coeffs):
                for j in range(8):
                    prod[i + j] = (prod[i + j] + c * ((b + j) % 7)) % 7
            key = tuple(prod)
            if key not in seen:
                seen[key] = " + ".join(f"{c}x^{i}" for i, c in enumerate(prod) if c)
    return len(seen)


def _work(reps):
    rng = np.random.default_rng(12345)
    total = 0
    for _ in range(reps):
        for n in SIZES:
            add, mul = _tables(n, rng)
            total += _propagate(add, mul, 3)
            total += _poly_work(n)
    return total


def kernel(reps: int = 12) -> float:
    """Seconds that a fixed amount of reference work takes now."""
    _work(1)  # warm numpy's dispatch caches outside the clock
    t0 = time.perf_counter()
    _work(reps)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(f"{kernel():.4f}")
