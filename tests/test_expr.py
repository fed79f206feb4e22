import math
import os
import subprocess
import sys
import time

import pytest

import ringgraph as rg
from ringgraph.expr import (
    default_modulus,
    factorize,
    is_prime,
    poly_is_irreducible,
    prime_power,
)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def _timed(call, *args):
    """The value of call(*args), or the ValueError it raises, and its wall time."""
    start = time.perf_counter()
    try:
        value = call(*args)
    except ValueError as exc:
        value = exc
    return value, time.perf_counter() - start


def test_factorize_and_euler_phi_of_a_large_n_end_at_once():
    # both ran past 5 s on 2**61 - 1, factorizing it by trial division alone
    p = 2**61 - 1
    value, seconds = _timed(factorize, 12 * p)
    assert value == {2: 2, 3: 1, p: 1} and seconds < 1
    value, seconds = _timed(rg.euler_phi, p)
    assert value == p - 1 and seconds < 1
    # two prime factors beyond the trial divisors: an answer or a refusal
    value, seconds = _timed(factorize, (2**31 - 1) * p)
    assert value == {2**31 - 1: 1, p: 1} or isinstance(value, ValueError)
    assert seconds < 1
    # below the square of the last trial divisor every n factors exactly
    for n in (1048573 * 1048583, 2**40 - 87, 2**20 * 3**12):
        assert math.prod(q**e for q, e in factorize(n).items()) == n
        assert all(is_prime(q) for q in factorize(n))


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(49) == (7, 2)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert is_prime(2) and is_prime(61) and not is_prime(57)


def test_prime_power_of_a_large_n_returns_at_once():
    # `prime_power(2**61 - 1)` ran past 5 s when it factorized n by trial
    # division; in a subprocess, so a hang fails on the timeout
    code = """
from ringgraph.expr import factorize, prime_power
for n in (2**61 - 1, 3**40, (2**31 - 1)**2, 2**61 + 1):
    print(prime_power(n))
for n in range(2, 5001):
    f = factorize(n)
    assert prime_power(n) == (next(iter(f.items())) if len(f) == 1 else None), n
"""
    src = os.path.dirname(os.path.dirname(rg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    want = ["(2305843009213693951, 1)", "(3, 40)", "(2147483647, 2)", "None"]
    assert proc.stdout.splitlines() == want
    # above the exact range of `is_prime` the root is refused as it is there
    with pytest.raises(ValueError, match="exact only below"):
        prime_power(2**89 - 1)


def test_bundled_moduli_match_search_rule():
    # the moduli that named fields of these orders have always had: the
    # smallest-encoding search must keep returning them
    moduli = {
        4: (1, 1, 1),
        8: (1, 1, 0, 1),
        9: (1, 0, 1),
        16: (1, 1, 0, 0, 1),
        25: (2, 0, 1),
        27: (1, 2, 0, 1),
        32: (1, 0, 1, 0, 0, 1),
        49: (1, 0, 1),
        64: (1, 1, 0, 0, 0, 0, 1),
    }
    for q, mod in moduli.items():
        p, e = prime_power(q)
        assert default_modulus(p, e) == mod
        assert poly_is_irreducible(list(mod), p)
        enc = sum(c * p**i for i, c in enumerate(mod[:-1]))
        for code in range(enc):
            f = [(code // p**i) % p for i in range(e)] + [1]
            assert not poly_is_irreducible(f, p)


def test_default_modulus_beyond_bundle():
    mod = default_modulus(3, 5)  # F_243, outside the bundled table
    assert len(mod) == 6 and mod[-1] == 1
    assert poly_is_irreducible(list(mod), 3)


@pytest.mark.parametrize("n", [True, False, 2.0, "4", None])
def test_zn_refuses_an_n_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="integer"):
        rg.Zn(n)


def test_expr_validation():
    with pytest.raises(ValueError):
        rg.Zn(0)
    with pytest.raises(ValueError):
        rg.GF(4, 1, (0, 1))  # 4 not prime
    with pytest.raises(rg.InvalidModulus):
        rg.GF(2, 2, (1, 1))  # not degree 2
    with pytest.raises(rg.InvalidModulus):
        rg.PolyQuot(4, (1, 2))  # leading coefficient 2, not monic
    with pytest.raises(ValueError):
        rg.SquareZero(rg.Prod((rg.Zn(2), rg.Zn(3))), 1)
    with pytest.raises(ValueError):
        rg.Prod(())
    with pytest.raises(ValueError):
        rg.gf(12)


def test_expr_order():
    assert rg.expr_order(rg.Zn(12)) == 12
    assert rg.expr_order(rg.gf(27)) == 27
    assert rg.expr_order(rg.PolyQuot(5, (0, 0, 1))) == 25
    assert rg.expr_order(rg.SquareZero(rg.Zn(3), 2)) == 27
    assert rg.expr_order(rg.Prod((rg.Zn(4), rg.gf(9)))) == 36


def test_canonical_strings():
    assert str(rg.Zn(12)) == "Z12"
    assert str(rg.gf(4)) == "GF(4)"
    assert str(rg.GF(3, 2, (2, 1, 1))) == "GF(9,[2,1,1])"
    assert str(rg.PolyQuot(5, (0, 0, 1))) == "Z5[x]/(x^2)"
    assert str(rg.PolyQuot(7, (3, 2, 0, 1))) == "Z7[x]/(x^3+2*x+3)"
    assert str(rg.SquareZero(rg.Zn(2), 3)) == "SZ(Z2,3)"
    assert str(rg.Prod((rg.Zn(4), rg.Zn(3)))) == "Z4 x Z3"
    nested = rg.Prod((rg.Prod((rg.Zn(2), rg.Zn(3))), rg.Zn(5)))
    assert str(nested) == "(Z2 x Z3) x Z5"


def test_huge_fields_are_refused_or_printed_at_once():
    # each call ran past 5 s when `gf` factorized q (trial division) or
    # searched for a modulus with no bound, and when str() searched for the
    # default modulus; above the cap they read neither
    code = """
import ringgraph as rg
for q in (2**40, 2**61 - 1):
    try:
        rg.gf(q)
    except rg.OrderLimitExceeded as exc:
        print(exc)
print(rg.GF(2, 40, (1, 0, 0, 1, 1, 1) + (0,) * 34 + (1,)))
"""
    src = os.path.dirname(os.path.dirname(rg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "field order 1099511627776 exceeds cap 4096",
        "field order 2305843009213693951 exceeds cap 4096",
        "GF(1099511627776,[1,0,0,1,1,1" + ",0" * 34 + ",1])",
    ]


def test_is_prime_is_trial_division_and_rejects_strong_pseudoprimes():
    trial = [n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)) for n in range(10**5)]
    assert [is_prime(n) for n in range(10**5)] == trial
    # strong pseudoprimes to the bases 2, 3, 5, 7; to 2 .. 23; and to
    # 2 .. 37, the least one (Sorenson & Webster 2017)
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59) and not is_prime(2**64 + 1)
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(2**89 - 1)


def test_gf_checks_a_huge_characteristic_at_once():
    # the constructor tested primality by trial division up to sqrt(p), so
    # this call ran past 5 s; no table of an order above 2^64 can exist
    code = """
import time, ringgraph as rg
t = time.perf_counter()
rg.GF(2**61 - 1, 1, (0, 1))
print(time.perf_counter() - t < 1)
try:
    rg.GF(2**64 + 13, 1, (0, 1))
except ValueError as exc:
    print(exc)
"""
    src = os.path.dirname(os.path.dirname(rg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "GF characteristic of 65 bits exceeds 2^64"]


def test_gf_takes_a_larger_cap():
    with pytest.raises(rg.OrderLimitExceeded, match="field order 8192 exceeds cap 4096"):
        rg.gf(8192)
    field = rg.gf(8192, max_order=8192)
    assert field.modulus == default_modulus(2, 13)
    # above the default cap the modulus is always shown, so str() searches nothing
    assert str(field) == "GF(8192,[" + ",".join(map(str, field.modulus)) + "])"
    assert str(rg.gf(4096)) == "GF(4096)"
    with pytest.raises(rg.OrderLimitExceeded, match="field order 9 exceeds cap 8"):
        rg.gf(9, max_order=8)
