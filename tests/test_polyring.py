"""Sparse polynomial ring and variable operators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from msym.hecke_ops import apply_omega
from msym.polyring import MultiPoly, DegreeGuardError, _relabel
from msym.qt_field import QtRational, ONE, Q, T
from oracles import apply_omega_inv


def x(n, i):
    return MultiPoly.variable(n, i)


def _exchange(f, i, j):
    """f with x_i and x_j swapped."""
    src = list(range(f.nvars))
    src[i - 1], src[j - 1] = j - 1, i - 1
    return _relabel(f, src, ())


def _qshift(f, i, power=1):
    """f with x_i -> q**power * x_i."""
    return _relabel(f, range(f.nvars), ((i - 1, power),))


def _permuted(f, perm):
    """f with variable k+1 sent to perm[k] (1-based)."""
    src = [0] * f.nvars
    for k, p in enumerate(perm):
        src[p - 1] = k
    return _relabel(f, src, ())


def _random_poly(rng, n, deg, nterms=5):
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(deg):
            e[rng.randrange(n)] += rng.randrange(2)
        c = rng.randrange(-4, 5)
        if c:
            terms[tuple(e)] = QtRational.from_int(c)
    return MultiPoly(n, terms)


class TestArithmetic:
    def test_product_example(self):
        f = (x(2, 1) + x(2, 2)) * (x(2, 1) - x(2, 2))
        assert f == x(2, 1) * x(2, 1) - x(2, 2) * x(2, 2)

    def test_additive_identity(self):
        f = x(3, 1) * x(3, 2)
        assert f + MultiPoly.zero(3) == f

    def test_scalar_mul_distributes(self):
        c = (ONE - Q) / (ONE - T)
        f = x(2, 1) + x(2, 2)
        g = f.scale(c)
        assert g.coefficient_of((1, 0)) == c
        assert g.coefficient_of((0, 1)) == c

    def test_scale_by_an_int(self):
        # an int scales as QtRational * int does; anything else is refused
        f = x(2, 1) + MultiPoly.one(2)
        assert MultiPoly.one(2).scale(2) == MultiPoly.one(2).scale(
            QtRational.from_int(2))
        assert f.scale(-3) == f.scale(QtRational.from_int(-3))
        assert f.scale(0) == MultiPoly.zero(2)
        assert f.scale(1) is f
        with pytest.raises(TypeError):
            f.scale(0.5)
        with pytest.raises(TypeError):
            f.scale(Fraction(1, 2))

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError):
            x(2, 1) + x(3, 1)

    def test_degree_guard(self, monkeypatch):
        f = MultiPoly.from_exponents(2, (6, 0))
        monkeypatch.setattr("msym.polyring._DEGREE_GUARD", 10)
        with pytest.raises(DegreeGuardError):
            f * f

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
           st.integers(0, 10 ** 6))
    def test_ring_axioms(self, s1, s2, s3):
        rng = random.Random(s1 ^ (s2 << 8))
        n = rng.randrange(1, 5)
        f = _random_poly(random.Random(s1), n, 3)
        g = _random_poly(random.Random(s2), n, 3)
        h = _random_poly(random.Random(s3), n, 3)
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def _random_qt_poly(rng, n, deg, nterms=6):
    """Like _random_poly, with rational coefficients over a few shared
    denominators."""
    dens = [{(0, 0): 1}, {(0, 0): 1, (0, 1): -1}, {(1, 0): 1},
            {(0, 0): 1, (1, 1): -1}]
    f = _random_poly(rng, n, deg, nterms)
    return MultiPoly(n, {e: c * QtRational({(rng.randrange(3), 0): 1},
                                           rng.choice(dens))
                         for e, c in f.terms.items()})


def _reference_mul(f, g):
    """Product by the left fold of + per monomial, zeros dropped last."""
    acc = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc[e] + ca * cb if e in acc else ca * cb
    return {e: c for e, c in acc.items() if c}


class TestCancellation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_no_zero_coefficient_is_stored(self, s1, s2):
        rng = random.Random(s1)
        n = rng.randrange(1, 4)
        f = _random_qt_poly(rng, n, 2)
        g = _random_qt_poly(random.Random(s2), n, 2)
        for h in (f - f, f + (-f), (f + g) - g - f, (f + g) + (-g - f)):
            assert h.terms == {}
        for h in (f + g, f - g, f * g):
            assert all(h.terms.values())
        assert (f * g).terms == _reference_mul(f, g)
        # (a x1 + b x2)(c x1 + d x2) with a d + b c = 0: the x1 x2
        # contributions cancel inside one product
        a, b, c = (QtRational({(0, 0): k}, den) for k, den in
                   ((rng.randrange(1, 5), {(0, 1): 1}),
                    (rng.randrange(1, 5), {(0, 0): 1, (1, 0): -1}),
                    (rng.randrange(1, 5), {(0, 0): 1, (1, 1): -1})))
        d = -(b * c) / a
        u = MultiPoly(2, {(1, 0): a, (0, 1): b})
        v = MultiPoly(2, {(1, 0): c, (0, 1): d})
        assert set((u * v).terms) == {(2, 0), (0, 2)}


class TestVariableOps:
    def test_exchange_example(self):
        f = x(2, 1) * x(2, 1) * x(2, 2)  # x1^2 x2
        assert _exchange(f, 1, 2) == x(2, 1) * x(2, 2) * x(2, 2)

    def test_exchange_involution(self):
        rng = random.Random(0)
        for _ in range(10):
            f = _random_poly(rng, 3, 3)
            assert _exchange(_exchange(f, 1, 3), 1, 3) == f

    def test_exchange_symmetric_fixed(self):
        f = x(2, 1) + x(2, 2)
        assert _exchange(f, 1, 2) == f

    def test_qshift_examples(self):
        f = x(2, 1) * x(2, 2)
        assert _qshift(f, 1) == f.scale(Q)
        assert _qshift(x(2, 2), 1) == x(2, 2)
        f2 = x(2, 1) * x(2, 1)
        assert _qshift(f2, 1) == f2.scale(Q * Q)

    def test_qshift_inverse_power(self):
        f = x(2, 1) * x(2, 1)
        assert _qshift(_qshift(f, 1, power=-1), 1) == f

    def test_drop_var(self):
        f = x(2, 1) + x(2, 2)
        g = f.drop_var(2)
        assert g.nvars == 1 and g == MultiPoly.variable(1, 1)
        assert MultiPoly.one(2).drop_var(2) == MultiPoly.one(1)

    def test_drop_var_order_independent(self):
        rng = random.Random(4)
        for _ in range(10):
            f = _random_poly(rng, 3, 3)
            a = f.drop_var(1).drop_var(1)
            b = f.drop_var(2).drop_var(1)
            assert a == b

    def test_exchange_qshift_disjoint_commute(self):
        rng = random.Random(8)
        for _ in range(10):
            f = _random_poly(rng, 4, 3)
            assert _qshift(_exchange(f, 2, 3), 1) == \
                _exchange(_qshift(f, 1), 2, 3)

    def test_coefficient_of(self):
        s = x(2, 1) + x(2, 2)
        f = s * s
        assert f.coefficient_of((1, 1)) == QtRational.from_int(2)
        assert f.coefficient_of((2, 0)).is_one()
        assert f.coefficient_of((3, 0)).is_zero()

    def test_permute_vars(self):
        f = x(3, 1) * x(3, 2) * x(3, 2)
        g = _permuted(f, (3, 2, 1))
        assert g == x(3, 3) * x(3, 2) * x(3, 2)

    def test_substitute(self):
        f = x(2, 1) * x(2, 2) + x(2, 2)
        v = f.substitute([Q, T])
        assert v == Q * T + T


def _qpow(k):
    """q**k by repeated multiplication."""
    out = ONE
    for _ in range(abs(k)):
        out = out * (Q if k > 0 else Q.inverse())
    return out


def _termwise(f, nvars, move):
    """The polynomial in nvars variables with one term move(e) = (e', k),
    coefficient c q^k, for each term c x^e of f."""
    out = {}
    for e, c in f.terms.items():
        ne, k = move(list(e))
        assert tuple(ne) not in out
        out[tuple(ne)] = c * _qpow(k)
    return MultiPoly(nvars, out)


def _swapped(e, i, j):
    e[i], e[j] = e[j], e[i]
    return e


class TestRelabel:
    """Each monomial substitution against its definition, term by term."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    def test_multipoly_transforms(self, seed, n):
        rng = random.Random(seed)
        f = _random_qt_poly(rng, n, 4)
        i, j = rng.randrange(n), rng.randrange(n)
        assert _exchange(f, i + 1, j + 1) == _termwise(
            f, n, lambda e: (_swapped(e, i, j), 0))
        for power in (1, -1, 2, -2):
            assert _qshift(f, i + 1, power) == _termwise(
                f, n, lambda e: (e, power * e[i]))
        perm = rng.sample(range(1, n + 1), n)

        def permuted(e):
            ne = [0] * n
            for k, p in enumerate(perm):
                ne[p - 1] = e[k]
            return ne, 0
        assert _permuted(f, perm) == _termwise(f, n, permuted)
        extra = rng.randrange(3)
        assert f.extend(n + extra) == _termwise(
            f, n + extra, lambda e: (e + [0] * extra, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    def test_omega_on_windows(self, seed, n):
        # omega = K_{hi-1,hi} ... K_{lo,lo+1} tau_lo, the rightmost first
        rng = random.Random(seed)
        f = _random_qt_poly(rng, n, 4)
        lo = rng.randrange(1, n + 1)
        hi = rng.randrange(lo, n + 1)

        def omega(e):
            k = e[lo - 1]
            for a in range(lo, hi):
                _swapped(e, a - 1, a)
            return e, k

        def omega_inv(e):
            for a in range(hi - 1, lo - 1, -1):
                _swapped(e, a - 1, a)
            return e, -e[lo - 1]
        assert apply_omega(f, lo, hi) == _termwise(f, n, omega)
        assert apply_omega_inv(f, lo, hi) == _termwise(f, n, omega_inv)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4))
    def test_bipoly_transforms(self, seed, ny):
        rng = random.Random(seed)
        g = _random_qt_poly(rng, ny, 4)
        nx = rng.randrange(3)
        assert _relabel(g, [-1] * nx + [*range(ny)], ()) == _termwise(
            g, nx + ny, lambda e: ([0] * nx + e, 0))


class TestPrinting:
    def test_term_order_leading_first(self):
        f = x(2, 2) + x(2, 1)
        assert str(f) == "x1 + x2"

    def test_coefficient_wrapping(self):
        c = Q * (ONE - T) / (ONE - Q * T)
        f = x(2, 1) + x(2, 2).scale(c)
        assert str(f) == "x1 + ((q - q*t)/(1 - q*t))*x2"

    def test_zero_and_one(self):
        assert str(MultiPoly.zero(2)) == "0"
        assert str(MultiPoly.one(2)) == "1"

    def test_negative_term(self):
        f = x(2, 1) - x(2, 2)
        assert str(f) == "x1 - x2"

    def test_json_roundtrip_data(self):
        f = x(2, 1) + x(2, 2).scale(Q)
        data = f.to_json()
        assert data == [{"exponents": [1, 0], "coeff": "1"},
                        {"exponents": [0, 1], "coeff": "q"}]
