"""Ring construction expressions.

Every ring in the package is described by a small immutable AST before it
is realized as operation tables: integers mod n, finite fields, univariate
quotients Z_n[x]/(f), square-zero extensions B[x1..xm]/(xi*xj), and direct
products.  The canonical string form of each node round-trips through the
CLI grammar (`cli.parse_ring_expr`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidModulus, OrderLimitExceeded

__all__ = [
    "DEFAULT_MAX_ORDER",
    "RingExpr",
    "Zn",
    "GF",
    "PolyQuot",
    "SquareZero",
    "Prod",
    "gf",
    "expr_order",
    "format_poly",
    "default_modulus",
    "factorize",
    "is_prime",
    "prime_power",
    "poly_is_irreducible",
    "poly_is_primary",
]


# the order cap of `make_ring`, `gf` and the CLI grammar, unless a caller
# passes another
DEFAULT_MAX_ORDER = 4096


def _check_order(n: int, cap: int | None, what: str = "ring order") -> None:
    """Raise OrderLimitExceeded when n is above the cap (None: the default)."""
    cap = DEFAULT_MAX_ORDER if cap is None else cap
    if n > cap:
        # str() of an int above 4300 digits raises ValueError
        shown = n if n.bit_length() <= 64 else f"of {n.bit_length()} bits"
        raise OrderLimitExceeded(f"{what} {shown} exceeds cap {cap}")


# ---------------------------------------------------------------------------
# small number-theory helpers

# the largest trial divisor of `factorize`; every n below its square factors
_TRIAL_DIVISION_BOUND = 2**20


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division by 2, 3, 5, 7, .. up to `_TRIAL_DIVISION_BOUND`, so at
    most about 5 * 10^5 divisions.  What is left then has no factor up to
    the bound: it is 1, a prime when it is below the bound's square, or
    else a prime by `is_prime`.  A cofactor that is composite there, or too
    large for `is_prime`, raises ValueError.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= _TRIAL_DIVISION_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if d * d <= n and not is_prime(n):
        raise ValueError(
            f"cannot factorize: a cofactor of {n.bit_length()} bits has no prime factor "
            f"up to {_TRIAL_DIVISION_BOUND} and is not prime"
        )
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# the first 13 primes, as Miller-Rabin bases, and the least odd composite
# that passes all of them (Sorenson & Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by the deterministic Miller-Rabin test on
    `_MR_BASES`, which is exact below `_MR_EXACT_BELOW` (about 3.3 * 10^24);
    above it, ValueError."""
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}: n has {n.bit_length()} bits")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < _MR_BASES[-1] ** 2:  # a composite n has a prime factor below sqrt(n)
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, e: int) -> int:
    """The largest r with r**e <= n, for n >= 1 and e >= 1, by Newton's
    method on integers from 2**ceil(bits / e), which is above the root:
    the steps fall while above it and never below its floor."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def prime_power(n: int):
    """Return (p, e) with n = p**e, or None if n is not a prime power.

    Take the largest e for which n has an exact integer e-th root r.  If
    n = p**k with p prime, every r with r**e = n is a power of p, so the
    largest e is k and r = p; conversely n = r**e is a prime power when r
    is prime.  So n is a prime power exactly when that r is prime.  That
    is one integer root for each e below the bit length of n, and one
    `is_prime` call, which raises ValueError where `is_prime` does.
    """
    if n < 2:
        return None
    for e in range(n.bit_length() - 1, 0, -1):
        r = _integer_root(n, e)
        if r**e == n:
            return (r, e) if is_prime(r) else None


# ---------------------------------------------------------------------------
# polynomials over Z_p, coefficient lists in ascending degree

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, f, p):
    # f monic; returns a mod f
    a = list(a)
    d = len(f) - 1
    while len(a) > d:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            for i in range(d):
                a[shift + i] = (a[shift + i] - lead * f[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _least_monic_divisor(f, p: int):
    """The monic divisor of least positive degree of a monic f over Z_p, p
    prime, by trial division; it is irreducible, as any proper factor would
    divide f too."""
    d = len(f) - 1
    # a reducible f has a divisor of degree at most d/2
    for k in range(1, d // 2 + 1):
        for code in range(p**k):
            g = [(code // p**i) % p for i in range(k)] + [1]
            if not _poly_mod(f, g, p):
                return g
    return list(f)


def poly_is_irreducible(f, p: int) -> bool:
    """Exhaustive trial division of a monic polynomial over Z_p, p prime."""
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    return len(_least_monic_divisor(f, p)) == len(f)


def poly_is_primary(f, p: int) -> bool:
    """Whether a monic f of positive degree, read mod p (p prime), is g^k for
    one monic irreducible g over Z_p; g is then its least monic divisor."""
    f = [c % p for c in f]
    g = _least_monic_divisor(f, p)
    power = g
    while len(power) < len(f):
        power = _poly_mul(power, g, p)
    return power == f


@lru_cache(maxsize=256)
def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Deterministic monic irreducible of degree e over Z_p.

    Picks the polynomial whose non-leading coefficient vector has the
    smallest base-p encoding.  Cached, since `GF.__str__` asks for it on
    every call.  The search grows with p**e and has no bound of its own:
    `gf` and `GF.__str__` ask only up to the order cap.
    """
    if e == 1:
        return (0, 1)
    for code in range(p**e):
        f = tuple((code // p**i) % p for i in range(e)) + (1,)
        if poly_is_irreducible(f, p):
            return f
    raise InvalidModulus(f"no irreducible polynomial of degree {e} over Z_{p}")  # pragma: no cover


def format_poly(coeffs, star: bool = True) -> str:
    """Render an ascending coefficient tuple as a polynomial in x.

    With star=True the output matches the CLI grammar ("x^2+2*x+1");
    without it the compact display form used for element names ("2x+1").
    """
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            if c == 1:
                terms.append(xpow)
            else:
                terms.append(f"{c}*{xpow}" if star else f"{c}{xpow}")
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# the AST


class RingExpr:
    """Base class for ring construction expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Zn(RingExpr):
    """Integers modulo n."""

    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"Zn needs an integer n >= 1, got {self.n!r}")

    def __str__(self):
        return f"Z{self.n}"


@dataclass(frozen=True)
class GF(RingExpr):
    """Field with p**e elements, as Z_p[x]/(modulus)."""

    p: int
    e: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        # no table of an order above 2^64 can exist, so no such GF is ever built
        if self.p > 2**64:
            raise ValueError(f"GF characteristic of {self.p.bit_length()} bits exceeds 2^64")
        if not is_prime(self.p):
            raise ValueError(f"GF characteristic {self.p} is not prime")
        if self.e < 1:
            raise ValueError(f"GF extension degree must be >= 1, got {self.e}")
        m = tuple(self.modulus)
        object.__setattr__(self, "modulus", m)
        if len(m) != self.e + 1 or m[-1] != 1:
            raise InvalidModulus(f"GF modulus must be monic of degree {self.e}: {list(m)}")
        if any(not 0 <= c < self.p for c in m):
            raise InvalidModulus(f"GF modulus coefficients must lie in 0..{self.p - 1}: {list(m)}")

    def __str__(self):
        """GF(q) when the modulus is the default one, else GF(q,[...]).
        Above `DEFAULT_MAX_ORDER` no default modulus is searched for, and
        the modulus is always shown."""
        q = self.p**self.e
        if q <= DEFAULT_MAX_ORDER and self.modulus == default_modulus(self.p, self.e):
            return f"GF({q})"
        return f"GF({q},[{','.join(map(str, self.modulus))}])"


@dataclass(frozen=True)
class PolyQuot(RingExpr):
    """Z_n[x] modulo a monic polynomial (ascending coefficient tuple)."""

    n: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"PolyQuot base must have n >= 2, got {self.n}")
        m = tuple(c % self.n for c in self.modulus)
        object.__setattr__(self, "modulus", m)
        if len(m) < 2 or m[-1] != 1:
            raise InvalidModulus(f"quotient modulus must be monic of degree >= 1: {list(m)}")

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def __str__(self):
        return f"Z{self.n}[x]/({format_poly(self.modulus)})"


@dataclass(frozen=True)
class SquareZero(RingExpr):
    """base[x1..xm] with all products xi*xj equal to zero."""

    base: RingExpr
    m: int

    def __post_init__(self):
        if not isinstance(self.base, (Zn, GF)):
            raise ValueError("SquareZero base must be a Zn or GF expression")
        if self.m < 0:
            raise ValueError(f"SquareZero needs m >= 0, got {self.m}")

    def __str__(self):
        return f"SZ({self.base},{self.m})"


@dataclass(frozen=True)
class Prod(RingExpr):
    """Direct product of finitely many rings."""

    factors: tuple[RingExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("Prod needs at least one factor")

    def __str__(self):
        parts = []
        for f in self.factors:
            s = str(f)
            parts.append(f"({s})" if isinstance(f, Prod) else s)
        return " x ".join(parts)


def gf(q: int, modulus=None, max_order: int | None = None) -> GF:
    """GF expression for a prime-power order, with the default modulus unless given.

    `max_order` is the order cap, `DEFAULT_MAX_ORDER` when None, as in
    `make_ring`: a q above it raises OrderLimitExceeded before q is
    tested as a prime power or a modulus searched for, which grows with q.
    """
    _check_order(q, max_order, "field order")
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pp
    if modulus is None:
        modulus = default_modulus(p, e)
    return GF(p, e, tuple(modulus))


def expr_order(expr: RingExpr) -> int:
    """Carrier size of the ring an expression describes."""
    if isinstance(expr, Zn):
        return expr.n
    if isinstance(expr, GF):
        return expr.p**expr.e
    if isinstance(expr, PolyQuot):
        return expr.n**expr.degree
    if isinstance(expr, SquareZero):
        return expr_order(expr.base) ** (expr.m + 1)
    if isinstance(expr, Prod):
        out = 1
        for f in expr.factors:
            out *= expr_order(f)
        return out
    raise TypeError(f"not a RingExpr: {expr!r}")
