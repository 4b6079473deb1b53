"""Operator calculus: generators, Cherednik operators, symmetrizers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from msym.polyring import MultiPoly
from msym.qt_field import QtRational, ONE, ZERO, Q, T, qt_product
from msym.combinatorics import bruhat_less, circle_rows
from msym.hecke_ops import (_T_with, apply_T, apply_Tbar, apply_omega,
                            apply_Y, apply_Phi, apply_D, apply_R, apply_L,
                            apply_Lprime, apply_T_word, apply_Tbar_word,
                            symmetrize_t, reduced_word, longest_word)
from oracles import apply_omega_inv, apply_T_by_definition, apply_Y_inv


def x(n, i):
    return MultiPoly.variable(n, i)


def rand_poly(rng, n, deg, nterms=6):
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(deg):
            e[rng.randrange(n)] += rng.randrange(2)
        c = rng.randrange(-4, 5)
        if c:
            terms[tuple(e)] = QtRational.from_int(c)
    return MultiPoly(n, terms)


def _binomial_fraction(a, b):
    """(t - 1)/(1 - q^a t^b), the form of the coefficient c of E_eta's Hecke
    steps."""
    return (T - ONE) / (ONE - QtRational.monomial(1, a, b))


scalar_strategy = st.one_of(
    st.just(ZERO), st.just(ONE),
    # units: a diagonal multiplier that shifts numerators, and signed ones
    # and negative powers, which are products
    st.builds(QtRational.monomial, st.sampled_from((1, -1)),
              st.integers(-2, 2), st.integers(-2, 2)),
    st.builds(_binomial_fraction, st.integers(1, 3), st.integers(0, 2)),
    # (2 + qt)/((1 - q)(1 + t^2))
    st.just(QtRational({(0, 0): 2, (1, 1): 1},
                       {(0, 0): 1, (1, 0): -1, (0, 2): 1, (1, 2): -1})),
    # (1 - t)/(2 (1 - q)): content 2 in the key
    st.just(QtRational({(0, 0): 1, (0, 1): -1}, {(0, 0): 2, (1, 0): -2})))


def poly_strategy(n):
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.one_of(st.integers(-3, 3).map(QtRational.from_int),
                       scalar_strategy)
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda terms: MultiPoly(n, terms))


class TestGenerators:
    def test_T1_on_x1(self):
        assert apply_T(x(2, 1), 1) == x(2, 2)

    def test_symmetric_eigenvector(self):
        f = x(2, 1) + x(2, 2)
        assert apply_T(f, 1) == f.scale(T)
        g = x(3, 2) * x(3, 3) + x(3, 1)
        assert apply_T(g, 2) == g.scale(T)

    def test_quadratic_relation(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randrange(2, 5)
            f = rand_poly(rng, n, 3)
            i = rng.randrange(1, n)
            Tf = apply_T(f, i)
            assert (apply_T(Tf, i) + Tf - Tf.scale(T) - f.scale(T)).is_zero()

    def test_inverse(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randrange(2, 5)
            f = rand_poly(rng, n, 3)
            i = rng.randrange(1, n)
            assert apply_Tbar(apply_T(f, i), i) == f
            assert apply_T(apply_Tbar(f, i), i) == f

    def test_Tbar_on_x2(self):
        assert apply_Tbar(x(2, 2), 1) == x(2, 1)

    def test_Tbar_symmetric(self):
        f = x(2, 1) * x(2, 2)
        assert apply_Tbar(f, 1) == f.scale(T.inverse())

    def test_braid_and_commutation(self):
        rng = random.Random(3)
        for _ in range(12):
            n = rng.randrange(3, 6)
            f = rand_poly(rng, n, 3)
            i = rng.randrange(1, n - 1)
            lhs = apply_T(apply_T(apply_T(f, i), i + 1), i)
            rhs = apply_T(apply_T(apply_T(f, i + 1), i), i + 1)
            assert lhs == rhs
            if n >= 4:
                assert apply_T(apply_T(f, 1), 3) == apply_T(apply_T(f, 3), 1)

    def test_index_range(self):
        with pytest.raises(IndexError):
            apply_T(x(2, 1), 2)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_T_matches_its_definition(self, data):
        # the exchange loop against T_i's defining quotient, on an f that
        # holds exponents with e_i <, = and > e_{i+1}, alone and as
        # T_i f + (g0 - t) f
        n = data.draw(st.integers(2, 4))
        i = data.draw(st.integers(1, n - 1))
        terms = dict(data.draw(poly_strategy(n)).terms)
        e = list(data.draw(st.tuples(*[st.integers(0, 3)] * n)))
        lo, hi = sorted(data.draw(st.lists(st.integers(0, 3), min_size=2,
                                           max_size=2, unique=True)))
        for pair in ((lo, hi), (hi, lo), (lo, lo)):
            e[i - 1:i + 1] = pair
            terms[tuple(e)] = ONE
        f = MultiPoly(n, terms)
        Tf = apply_T_by_definition(f, i)
        assert apply_T(f, i) == Tf
        g0 = data.draw(scalar_strategy)
        assert _T_with(f, i, g0) == Tf + f.scale(g0 - T)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_linear_combination_matches_scale_and_add(self, data):
        # the one-pass T_i f + (g0 - t) f against its definition, with g0
        # zero, one, monomials, binomial fractions and a fraction whose
        # denominator does not factor (the gcd path)
        n = data.draw(st.integers(2, 4))
        i = data.draw(st.integers(1, n - 1))
        f = data.draw(poly_strategy(n))
        g0 = data.draw(scalar_strategy)
        Tf = apply_T_by_definition(f, i)
        assert _T_with(f, i, g0) == Tf + f.scale(g0 - T)
        # g0 = 0 cancels the diagonal, (T_i - t) f
        assert _T_with(f, i, ZERO) == Tf - f.scale(T)

    def test_inverse_generator_family(self):
        # the family T_i + (g0 - t): g0 = t is T_i, g0 = 1 is t T_i^{-1},
        # and g0 = t - c the E_eta step's T_i - c; zero, units and general
        # values as they come
        tinv = T.inverse()
        f = MultiPoly(3, {(2, 0, 1): QtRational.from_int(3),
                          (0, 1, 1): _binomial_fraction(1, 1),
                          (1, 3, 0): QtRational.monomial(-1, 0, -2)})
        for i in (1, 2):
            Tf = apply_T_by_definition(f, i)
            assert _T_with(f, i, ONE).scale(tinv) == apply_Tbar(f, i)
            for g0 in (ZERO, ONE, -ONE, T, -T, tinv, T - ONE, tinv * tinv,
                       _binomial_fraction(2, 1),
                       qt_product(1, 0, 0, [(2, 2)], [(2, 1)])):
                assert _T_with(f, i, g0) == Tf + f.scale(g0 - T)

    def test_E_step_g0_closed_form(self):
        # t - c for the E_eta step's c = (t - 1)/(1 - q^a t^b) is one
        # qt_product, (1 - q^a t^{b+1})/(1 - q^a t^b)
        for a in range(1, 4):
            for b in range(4):
                assert qt_product(1, 0, 0, [(a, b + 1)], [(a, b)]) == \
                    T - _binomial_fraction(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_inverse_on_keyed_coefficients(self, data):
        # T_i^{-1} is T_i's two-sided inverse on coefficients with keys,
        # and a word of inverses is its letters applied one by one
        n = data.draw(st.integers(2, 4))
        f = data.draw(poly_strategy(n))
        i = data.draw(st.integers(1, n - 1))
        assert apply_Tbar(apply_T(f, i), i) == f
        assert apply_T(apply_Tbar(f, i), i) == f
        word = data.draw(st.lists(st.integers(1, n - 1), max_size=4))
        g = f
        for j in reversed(word):
            g = apply_Tbar(g, j)
        assert apply_Tbar_word(f, word) == g

    def test_unit_multipliers_make_no_product(self, monkeypatch):
        # T_i's and T_i^{-1}'s multipliers, omega's q-powers and a unit
        # scale shift numerators and keys: with every product and qt_sum
        # raising, they still give the results computed before
        import msym.hecke_ops
        import msym.polyring
        import msym.qt_field
        c = (ONE - T) / (ONE - Q * T * T) * QtRational.monomial(1, 0, -1)
        f = MultiPoly(3, {(2, 0, 1): QtRational.from_int(3),
                          (0, 1, 1): c, (1, 1, 0): -c,
                          (0, 3, 0): QtRational.monomial(-2, 1, 0)})
        unit = QtRational.monomial(1, 0, -2)
        calls = [lambda: apply_T(f, 1), lambda: apply_T(f, 2),
                 lambda: apply_Tbar(f, 1), lambda: apply_Tbar(f, 2),
                 lambda: apply_omega(f), lambda: f.scale(unit)]
        expected = [call() for call in calls]

        def raising(*args):
            raise AssertionError("product or qt_sum made")

        monkeypatch.setattr(QtRational, "__mul__", raising)
        monkeypatch.setattr(QtRational, "__rmul__", raising)
        for module in (msym.qt_field, msym.polyring, msym.hecke_ops):
            monkeypatch.setattr(module, "qt_sum", raising)
        assert [call() for call in calls] == expected


class TestOmega:
    def test_examples(self):
        assert apply_omega(x(3, 1)) == x(3, 3).scale(Q)
        assert apply_omega(x(3, 2)) == x(3, 1)

    def test_intertwining(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randrange(3, 6)
            f = rand_poly(rng, n, 3)
            i = rng.randrange(2, n)
            assert apply_omega(apply_T(f, i)) == apply_T(apply_omega(f), i - 1)

    def test_inverse(self):
        rng = random.Random(5)
        for _ in range(10):
            f = rand_poly(rng, 4, 3)
            assert apply_omega_inv(apply_omega(f)) == f
            assert apply_omega(apply_omega_inv(f)) == f


class TestCherednik:
    def test_commutation(self):
        rng = random.Random(6)
        for _ in range(6):
            n = rng.randrange(2, 4)
            f = rand_poly(rng, n, 2)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert apply_Y(apply_Y(f, i), j) == \
                        apply_Y(apply_Y(f, j), i)

    def test_inverse(self):
        rng = random.Random(7)
        for _ in range(6):
            n = rng.randrange(2, 4)
            f = rand_poly(rng, n, 2)
            for i in range(1, n + 1):
                assert apply_Y_inv(apply_Y(f, i), i) == f

    def test_degree_preserved(self):
        rng = random.Random(8)
        f = rand_poly(rng, 3, 3)
        for i in range(1, 4):
            assert apply_Y(f, i).total_degree() <= f.total_degree()

    def test_triangular_on_monomials(self):
        # Y_i x^eta = etabar_i x^eta + Bruhat-smaller terms
        import itertools
        for n in (2, 3):
            for d in range(3):
                for eta in itertools.product(range(d + 1), repeat=n):
                    if sum(eta) != d:
                        continue
                    rows = circle_rows(eta)
                    for i in range(1, n + 1):
                        g = apply_Y(MultiPoly.from_exponents(n, eta), i)
                        lead = g.coefficient_of(eta)
                        assert lead == QtRational.monomial(
                            1, eta[i - 1], 1 - rows[i - 1])
                        for nu in g.terms:
                            assert nu == eta or bruhat_less(nu, eta)

    def test_exchange_relations(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randrange(2, 5)
            f = rand_poly(rng, n, 2)
            i = rng.randrange(1, n)
            yi, yi1 = apply_Y(f, i), apply_Y(f, i + 1)
            tf = apply_T(f, i)
            assert apply_T(yi, i) == apply_Y(tf, i + 1) + yi.scale(T - ONE)
            assert apply_T(yi1, i) == apply_Y(tf, i) - yi.scale(T - ONE)
            # sums and products commute with T_i
            assert apply_T(yi + yi1, i) == \
                apply_Y(tf, i) + apply_Y(tf, i + 1)
            assert apply_T(apply_Y(yi1, i), i) == \
                apply_Y(apply_Y(tf, i + 1), i)

    def test_Y_j_commutes_with_far_T(self):
        rng = random.Random(10)
        for _ in range(8):
            n = 4
            f = rand_poly(rng, n, 2)
            # T_i Y_j = Y_j T_i for j != i, i+1
            assert apply_T(apply_Y(f, 4), 1) == apply_Y(apply_T(f, 1), 4)
            assert apply_T(apply_Y(f, 1), 3) == apply_Y(apply_T(f, 3), 1)


class TestPhiAndD:
    def test_phi_base(self):
        assert apply_Phi(MultiPoly.one(2)) == x(2, 2).scale(T.inverse())

    def test_phi_raises_degree(self):
        rng = random.Random(11)
        f = rand_poly(rng, 3, 2)
        if not f.is_zero():
            assert apply_Phi(f).total_degree() == f.total_degree() + 1

    def test_D_zero_and_single_range(self):
        assert apply_D(MultiPoly.zero(3), 0).is_zero()
        rng = random.Random(12)
        f = rand_poly(rng, 3, 2)
        expect = apply_Y(f, 3) - f.scale(QtRational.monomial(1, 0, -2))
        assert apply_D(f, 2) == expect


class TestSymmetrizer:
    def test_example(self):
        assert symmetrize_t(x(2, 2), 0) == (x(2, 1) + x(2, 2)).scale(T)

    def test_constant(self):
        for n in (2, 3, 4):
            for m in range(n):
                # [n-m]_t! = prod_{j<=n-m} (1-t^j)/(1-t)
                k = n - m
                fact = qt_product(1, 0, 0, [(0, j) for j in range(1, k + 1)],
                                  [(0, 1)] * k)
                got = symmetrize_t(MultiPoly.one(n), m)
                assert got == MultiPoly.one(n).scale(fact)

    def test_result_t_symmetric(self):
        rng = random.Random(13)
        for _ in range(8):
            n = rng.randrange(2, 5)
            m = rng.randrange(0, n - 1)
            g = symmetrize_t(rand_poly(rng, n, 3), m)
            for i in range(m + 1, n):
                assert apply_T(g, i) == g.scale(T)

    def test_naive_oracle(self):
        rng = random.Random(14)
        for _ in range(8):
            n = rng.randrange(2, 5)
            m = rng.randrange(0, n)
            f = rand_poly(rng, n, 2)
            assert symmetrize_t(f, m) == symmetrize_t(f, m, naive=True)

    def test_factorizations(self):
        rng = random.Random(15)
        for _ in range(8):
            n = rng.randrange(2, 6)
            m = rng.randrange(0, n)
            f = rand_poly(rng, n, 2)
            full = symmetrize_t(f, m)
            if m + 1 <= n:
                assert full == symmetrize_t(apply_R(f, m, n), m + 1)
                assert full == apply_L(symmetrize_t(f, m + 1), m, n)
            # L' factorization against the one-variable-shorter symmetrizer
            partial = f
            for top in range(m + 2, n):
                acc, h = partial, partial
                for j in range(top - 1, m, -1):
                    h = apply_T(h, j)
                    acc = acc + h
                partial = acc
            if n - m >= 1:
                assert full == apply_Lprime(partial, m, n)


    def test_R_is_one_chain(self, monkeypatch):
        # R_{m+1,n} f sums the prefixes T_{m+1}..T_{j-1} f, j = m+1..n, with
        # one generator application per index m+1..n-1
        from msym import hecke_ops
        f = rand_poly(random.Random(16), 5, 3)
        for m in range(5):
            want = MultiPoly.zero(5)
            for j in range(m + 1, 6):
                want = want + apply_T_word(f, range(m + 1, j))
            calls = []

            def counted(g, i, *args):
                calls.append(i)
                return apply_T(g, i, *args)

            monkeypatch.setattr(hecke_ops, "apply_T", counted)
            got = apply_R(f, m, 5)
            monkeypatch.undo()
            assert got == want
            assert calls == list(range(4, m, -1))


class TestWords:
    def test_reduced_word_roundtrip(self):
        import itertools
        for n in (2, 3, 4):
            for sigma in itertools.permutations(range(1, n + 1)):
                word = reduced_word(sigma)
                # sigma = s_{word[0]} s_{word[1]} ... as right position swaps
                arr = list(range(1, n + 1))
                for i in word:
                    arr[i - 1], arr[i] = arr[i], arr[i - 1]
                assert tuple(arr) == sigma
                inv = sum(1 for a in range(n) for b in range(a + 1, n)
                          if sigma[a] > sigma[b])
                assert len(word) == inv

    def test_longest_word(self):
        assert longest_word(1) == []
        word = longest_word(4)
        arr = [1, 2, 3, 4]
        for i in word:
            arr[i - 1], arr[i] = arr[i], arr[i - 1]
        assert arr == [4, 3, 2, 1]

