"""Trial division by Phi_n(q^a t^b) in Z[q,t] and qt_ring's memo tables."""

import math
import random

import pytest

from msym import (combinatorics, hecke_ops, kernels, macdonald, polyring,
                  qt_field, qt_ring, structure)
from msym.qt_ring import _G, _P, _POINTS, _fdiv, _lcm_plan, _phi, _pmul

from oracles import fdiv_by_classes, lcm_plan_by_rescanning


def phi_in(key):
    """Phi_n(q^a t^b) for key = (n, a, b) as a Z[q,t] dict."""
    n, a, b = key
    return {(s * a, s * b): c for s, c in enumerate(_phi(n)) if c}


def random_poly(rng, terms, deg, coeff):
    p = {}
    for _ in range(terms):
        c = rng.randint(-coeff, coeff)
        if c:
            p[(rng.randint(0, deg), rng.randint(0, deg))] = c
    return p or {(0, 0): 1}


def random_key(rng, nmax):
    while True:
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if math.gcd(a, b) == 1:
            return rng.randint(1, nmax), a, b


@pytest.fixture
def cold_points():
    """qt_ring._POINTS emptied for the test and refilled afterwards, so
    every table the test reads starts at its first size."""
    saved = dict(_POINTS)
    _POINTS.clear()
    yield
    _POINTS.clear()
    _POINTS.update(saved)


def test_modulus_has_the_roots_of_unity():
    # _P is prime and every n <= 12 divides _P - 1; 13 and 17 do not, so
    # their factors are divided with no modular test.  _G is a primitive
    # root: no _G^((_P - 1)/r) is 1 for a prime r dividing _P - 1
    assert all(_P % d for d in range(2, math.isqrt(_P) + 1))
    assert all((_P - 1) % n == 0 for n in range(1, 13))
    assert (_P - 1) % 13 and (_P - 1) % 17
    rest, primes = _P - 1, []
    for r in range(2, _P):
        if r * r > rest:
            break
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
    primes += [rest] if rest > 1 else []
    assert primes == [2, 3, 5, 7, 11, 107, 181]
    assert all(pow(_G, (_P - 1) // r, _P) != 1 for r in primes)


def assert_points_are_roots():
    # each stored table starts 1, q0 (or 1, t0), holds the powers, and
    # q0^a t0^b is a root of Phi_n mod _P
    assert _POINTS
    for (n, a, b), pt in _POINTS.items():
        if pt is None:
            assert (_P - 1) % n
            continue
        qs, ts = pt
        for tab in qs, ts:
            assert tab[0] == 1
            assert all(x == pow(tab[1], k, _P) for k, x in enumerate(tab))
        w = pow(qs[1], a, _P) * pow(ts[1], b, _P) % _P
        assert sum(c * pow(w, k, _P) for k, c in enumerate(_phi(n))) % _P == 0


def test_multiples_match_the_oracle(cold_points):
    # f Phi_n(q^a t^b)^k divided until the division fails: every quotient,
    # and the final None, agree with division by classes
    rng = random.Random(14)
    keys = set()
    for _ in range(300):
        key = random_key(rng, 14)
        keys.add(key[0])
        p = random_poly(rng, rng.randint(1, 6), 4, 9)
        for _ in range(rng.randint(1, 3)):
            p = _pmul(p, phi_in(key))
        while True:
            quot = _fdiv(p, key)
            assert quot == fdiv_by_classes(p, key)
            if quot is None:
                break
            p = quot
    assert keys == set(range(1, 15))
    assert any(pt is None for pt in _POINTS.values())
    assert_points_are_roots()


def test_non_multiples_match_the_oracle(cold_points, monkeypatch):
    # where a key has a point, a non-multiple is rejected there, before
    # its terms are split into classes
    rng = random.Random(15)
    split = []
    classes = qt_ring._classes
    monkeypatch.setattr(qt_ring, "_classes",
                        lambda p, a, b: split.append(p) or classes(p, a, b))
    rejected = 0
    for _ in range(500):
        key = random_key(rng, 17)
        p = random_poly(rng, rng.randint(2, 8), 6, 5)
        del split[:]
        quot = _fdiv(p, key)
        assert quot == fdiv_by_classes(p, key)
        if quot is None:
            rejected += 1
            assert bool(split) == (_POINTS[key] is None)
    assert rejected > 400
    assert_points_are_roots()


def test_coefficients_divisible_by_the_modulus(cold_points):
    # _P g vanishes mod _P at every point, so only the exact division can
    # reject it: g is a multiple of Phi_n(q^a t^b) with one coefficient
    # moved, so its classes keep two terms or more and a remainder decides
    rng = random.Random(16)
    for _ in range(200):
        key = random_key(rng, 12)
        f = random_poly(rng, rng.randint(1, 5), 4, 7)
        g = _pmul(f, phi_in(key))
        e = rng.choice(sorted(g))
        g[e] += 1 if g[e] != -1 else 2
        assert fdiv_by_classes(g, key) is None
        assert _fdiv({e: _P * c for e, c in g.items()}, key) is None
        p = {e: _P * c for e, c in f.items()}
        assert _fdiv(_pmul(p, phi_in(key)), key) == p


def test_exponents_past_the_tables(cold_points):
    # a first division stores tables of 8 powers; exponents far beyond
    # them grow the tables, and the grown ones still hold the powers
    for key in ((1, 1, 1), (2, 1, 0), (3, 2, 1), (5, 0, 1), (13, 1, 2)):
        small = _pmul({(0, 0): 1, (1, 2): -3}, phi_in(key))
        assert _fdiv(small, key) == {(0, 0): 1, (1, 2): -3}
        f = {(40, 90): 2, (0, 3): -1, (7, 0): 5}
        p = _pmul(_pmul(f, phi_in(key)), phi_in(key))
        assert _fdiv(p, key) == _pmul(f, phi_in(key))
        assert _fdiv(f, key) is None
        assert _fdiv(_pmul({(200, 150): 1}, p), key) == _pmul(
            {(200, 150): 1}, _pmul(f, phi_in(key)))
        if _POINTS[key] is not None:
            assert len(_POINTS[key][0]) > 200
            assert len(_POINTS[key][1]) > 150
    assert_points_are_roots()


def test_concurrent_growth(cold_points):
    # four threads divide on shared keys with exponents that keep growing
    # the tables, switching often: every result matches the oracle and
    # every stored table still holds the powers
    import sys
    from concurrent.futures import ThreadPoolExecutor
    keys = [(1, 1, 1), (2, 1, 2), (3, 0, 1), (4, 3, 1)]

    def divide_all(seed):
        rng = random.Random(seed)
        bad = []
        for step in range(60):
            key = rng.choice(keys)
            f = _pmul({(3 * step, 2 * step): 1},
                      random_poly(rng, rng.randint(1, 4), 4, 9))
            for p in (f, _pmul(f, phi_in(key))):
                if _fdiv(p, key) != fdiv_by_classes(p, key):
                    bad.append((key, p))
        return bad

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(divide_all, seed) for seed in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[]] * 4
    assert_points_are_roots()


def test_every_memo_table_is_cleared():
    # every module-level dict of the library but the constant polynomial 1
    # is a memo table: clear_caches() must know it and empty it, and it
    # knows no other table
    tables = {id(v): (mod.__name__, name)
              for mod in (qt_field, qt_ring, polyring, combinatorics,
                          hecke_ops, macdonald, structure, kernels)
              for name, v in vars(mod).items()
              if isinstance(v, dict) and not name.startswith("__")
              and v is not qt_ring._ONE_TERMS}
    assert len(tables) == 11  # the eleven the README lists
    assert sorted(tables) == sorted(id(c) for c in macdonald._CACHES)
    saved = [dict(c) for c in macdonald._CACHES]
    try:
        macdonald.clear_caches()
        P = macdonald.msym_P(macdonald.MPartition((1,), (1,)), 3).poly
        structure.scalar_product_m(P, P, 1)
        assert all(macdonald._CACHES), [
            tables[id(c)] for c in macdonald._CACHES if not c]
        macdonald.clear_caches()
        assert not any(macdonald._CACHES)
    finally:
        for cache, entries in zip(macdonald._CACHES, saved):
            cache.update(entries)


def test_lcm_plan_matches_rescanning():
    # _lcm_plan reads the lcm, the cofactors and the candidates off one
    # pass over the parts' keys; the oracle rescans every key for each
    # factor.  A small pool of factors and powers makes parts share a
    # factor at the lcm's power often, with mixed reduced flags
    rng = random.Random(30)
    pool = [(1, 1, 0), (2, 1, 0), (1, 0, 1), (3, 0, 1), (1, 1, 1),
            (2, 1, 2), (4, 2, 1), (6, 1, 1)]
    for _ in range(500):
        sig = tuple(
            ((rng.randint(1, 6), rng.randint(0, 2), rng.randint(0, 2),
              tuple(sorted((f, rng.randint(1, 2))
                           for f in rng.sample(pool, rng.randint(0, 4))))),
             rng.random() < 0.5)
            for _ in range(rng.randint(2, 5)))
        assert _lcm_plan(sig) == lcm_plan_by_rescanning(sig), sig
