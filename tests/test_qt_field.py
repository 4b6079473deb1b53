"""Exact rational-function arithmetic in q and t."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from msym.qt_field import (QtRational, ONE, ZERO, Q, T, parse_qt, qt_product,
                           qt_sum, _pmul)
from msym.macdonald import clear_caches
from msym.qt_ring import _ONE_TERMS, _factor


def frac(num, den):
    return QtRational(num, den)


class TestArithmetic:
    def test_add_example(self):
        # (1-q)/(1-t) + q = (1-qt)/(1-t)
        x = (ONE - Q) / (ONE - T) + Q
        assert x == (ONE - Q * T) / (ONE - T)
        assert str(x) == "(1 - q*t)/(1 - t)"

    def test_inverse_example(self):
        x = (ONE - Q * T * T) / (ONE - Q * T)
        assert (x * x.inverse()).is_one()
        assert (x / x).is_one()

    def test_gcd_reduction_example(self):
        # (q^2 - q)/(q - 1) -> q
        x = frac({(2, 0): 1, (1, 0): -1}, {(1, 0): 1, (0, 0): -1})
        assert x == Q
        assert str(x) == "q"

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            QtRational({(0, 0): 1}, {})

    def test_constructor_drops_zero_terms(self):
        zero = QtRational({(0, 0): 0})
        assert zero == ZERO and not zero and str(zero) == "0"
        one = QtRational({(0, 0): 1, (1, 0): 0})
        assert one == ONE and one.is_one() and str(one) == "1"
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            QtRational({(0, 0): 1}, {(1, 1): 0})

    def test_constructor_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            QtRational({(-1, 0): 1})
        with pytest.raises(ValueError):
            QtRational({(0, 0): 1}, {(0, -2): 3, (0, 0): 1})

    def test_sub(self):
        assert (Q - Q).is_zero()

    def test_int_scaling(self):
        assert Q * 3 == QtRational({(1, 0): 3})
        assert (Q * 0).is_zero()


class TestCanonicalForm:
    def test_den_sign_normalization(self):
        # q/(t-1) must flip sign so the smallest exponent of den is positive
        x = frac({(1, 0): 1}, {(0, 1): 1, (0, 0): -1})
        assert str(x) == "(-q)/(1 - t)"

    def test_content_reduction(self):
        x = frac({(1, 0): 6}, {(0, 0): 4})
        assert str(x) == "(3*q)/(2)"

    def test_reduction_idempotence(self):
        x = (ONE - Q) / (ONE - T) + Q * T
        assert QtRational(x.num, x.den) == x

    def test_negative_exponent_monomial(self):
        x = QtRational.monomial(1, -1, 2)
        assert str(x) == "(t^2)/(q)"
        assert (x * Q) == T * T

    def test_zero_has_unit_denominator(self):
        x = (Q - Q)
        assert x.den == {(0, 0): 1}

    def test_hash_consistency(self):
        a = (ONE - Q) / (ONE - T)
        b = (ONE - Q) / (ONE - T)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("x, n", [
        (ZERO, 0), (ONE, 1), (QtRational.from_int(-3), -3),
        (QtRational.from_int(7), 7)], ids=["0", "1", "-3", "7"])
    def test_integer_value_hashes_as_its_int(self, x, n):
        assert x == n and n == x
        assert hash(x) == hash(n)
        assert {n: "a"}.get(x) == "a" and {x: "a"}.get(n) == "a"
        assert len({x, n}) == 1
        assert x != n + 1 and x + Q != n


class TestEval:
    def test_examples(self):
        assert ((ONE - Q) / (ONE - T)).eval(2, 3) == Fraction(1, 2)
        assert (Q * T).eval(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            (ONE / (ONE - T)).eval(1, 1)

    def test_ring_homomorphism(self):
        rng = random.Random(5)
        pt = (Fraction(3, 2), Fraction(-5, 7))
        for _ in range(50):
            a = _random_rational(rng)
            b = _random_rational(rng)
            assert (a * b).eval(*pt) == a.eval(*pt) * b.eval(*pt)
            assert (a + b).eval(*pt) == a.eval(*pt) + b.eval(*pt)


class TestParamInversion:
    def test_invert_params_matches_pointwise(self):
        rng = random.Random(9)
        for _ in range(30):
            x = _random_rational(rng)
            y = x.invert_params()
            assert y.eval(3, 5) == x.eval(Fraction(1, 3), Fraction(1, 5))

    def test_involution(self):
        x = (ONE - Q * T * T) / (ONE - Q * T)
        assert x.invert_params().invert_params() == x


def t_factorial(k, inverse=False):
    """[k]_t! = prod_{j<=k} (1-t^j)/(1-t), or [k]_{1/t}!, which is that
    over t^binom(k,2)."""
    return qt_product(1, 0, -k * (k - 1) // 2 if inverse else 0,
                      [(0, j) for j in range(1, k + 1)], [(0, 1)] * k)


class TestFactorials:
    def test_small_values(self):
        assert t_factorial(0).is_one()
        assert t_factorial(1).is_one()
        assert t_factorial(2) == ONE + T
        assert t_factorial(3) == (ONE + T) * (ONE + T + T * T)

    def test_inverse_variant(self):
        # [k]_{1/t}! = t^{-k(k-1)/2} [k]_t!
        for k in range(5):
            shift = QtRational.monomial(1, 0, -k * (k - 1) // 2)
            assert t_factorial(k, inverse=True) == shift * t_factorial(k)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_closed_form_matches_division_chain(self, inverse):
        # the closed product against [k]_v! built as k field divisions
        # prod (1 - v^j)/(1 - v), v = t or 1/t: the same canonical form,
        # the denominator's key included
        v = T.inverse() if inverse else T
        chain = vp = ONE
        for k in range(13):
            got = t_factorial(k, inverse)
            assert (got.num, got.key, got.den) == \
                (chain.num, chain.key, chain.den), k
            vp = vp * v
            chain = chain * (ONE - vp) / (ONE - v)


_PAIRS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                  max_size=4)


class TestQtProduct:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-5, 5).filter(bool), st.integers(-3, 3),
           st.integers(-3, 3), _PAIRS, _PAIRS, st.integers(0, 4))
    @example(-6, -3, 3, [(2, 4), (1, 2), (0, 6)], [(0, 3)], 1)
    @example(1, 0, -1, [(0, 1)], [(3, 2)], 0)
    def test_matches_field_chain(self, c, i, j, ups, downs, shared):
        # the first `shared` ups are also downs, so their factors cancel;
        # a pair with gcd(a, b) > 1, such as (2, 4), splits into factors
        # that other pairs share, such as (1, 2)'s
        downs = (ups[:shared] + downs)[:4]
        assume((0, 0) not in ups + downs)
        chain = QtRational.monomial(c, i, j)
        for a, b in ups:
            chain = chain * (ONE - QtRational.monomial(1, a, b))
        for a, b in downs:
            chain = chain / (ONE - QtRational.monomial(1, a, b))
        got = qt_product(c, i, j, ups, downs)
        assert (got.num, got.key, got.den) == \
            (chain.num, chain.key, chain.den)

    def test_zero_pair(self):
        assert qt_product(3, 1, -2, [(1, 1), (0, 0)], [(0, 1)]).is_zero()
        with pytest.raises(ZeroDivisionError):
            qt_product(3, 1, -2, [(1, 1)], [(0, 1), (0, 0)])
        with pytest.raises(ZeroDivisionError):
            qt_product(1, 0, 0, [(0, 0)], [(0, 0)])


_UNIT = {(0, 0): 1}


def _random_poly(rng, nterms=4, dmax=4):
    d = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        e = (rng.randrange(dmax), rng.randrange(dmax))
        d[e] = d.get(e, 0) + rng.randrange(-5, 6)
    return {e: c for e, c in d.items() if c}


def _random_den(rng, kind):
    """A denominator that factors: a monomial, or ("factored") a signed
    integer times a monomial times one or two binomials 1 +- q^a t^b."""
    if kind == "monomial":
        return {(rng.randrange(3), rng.randrange(3)): rng.choice((1, 2, 3))}
    den = {(rng.randrange(2), rng.randrange(2)): rng.choice((1, 2, -1, -3))}
    for _ in range(rng.randrange(1, 3)):
        a, b = rng.choice(((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)))
        den = _pmul(den, {(0, 0): 1, (a, b): rng.choice((1, -1))})
    return den


def _random_rational(rng):
    """A random polynomial over 1, a monomial or a factored denominator."""
    kind = rng.choice(("one", "monomial", "factored", "factored"))
    den = _UNIT if kind == "one" else _random_den(rng, kind)
    return QtRational(_random_poly(rng), den)


def _random_invertible(rng):
    """A random value whose numerator factors too, so that its inverse is
    in the domain."""
    return QtRational(_random_den(rng, "factored"),
                      _random_den(rng, rng.choice(("monomial", "factored"))))


@st.composite
def common_factor_inputs(draw):
    """(a, d, g): a polynomial in q and t, in q only or in t only, with
    coefficients up to 5 or up to 10**30, and d and g denominators that
    factor, with contents up to 10**30 as well."""
    shape = draw(st.sampled_from(("qt", "q", "t")))
    cmax = draw(st.sampled_from((5, 10 ** 30)))
    dq, dt = (3 if shape != "t" else 0), (3 if shape != "q" else 0)
    a = draw(st.dictionaries(
        st.tuples(st.integers(0, dq), st.integers(0, dt)),
        st.integers(-cmax, cmax).filter(bool), min_size=1, max_size=4))
    exps = [(i, j) for i in range(dq + 1) for j in range(dt + 1)][1:]

    def den():
        out = {(draw(st.integers(0, min(dq, 2))),
                draw(st.integers(0, min(dt, 2)))):
               draw(st.integers(-cmax, cmax).filter(bool))}
        for _ in range(draw(st.integers(0, 2))):
            e = draw(st.sampled_from(exps))
            out = _pmul(out, {(0, 0): 1, e: draw(st.sampled_from((1, -1)))})
        return out

    return a, den(), den()


class TestGcd:
    # a canonical num and den share no factor: the gcd, by sympy, is a unit

    @settings(max_examples=300, deadline=None)
    @given(common_factor_inputs())
    def test_common_factor_against_sympy(self, adg):
        # a g / d g, with g's factors and content cancelling
        a, d, g = adg
        x = QtRational(_pmul(a, g), _pmul(d, g))
        assert (x.num, x.den) == _gcd_reduced(a, d)

    def test_canonical_form_against_sympy(self):
        # after random field operations, num/den is coprime in Z[q,t]
        # (integer content included) and den's lexicographically smallest
        # term is positive
        rng = random.Random(7)
        ops = (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a / b)
        x = _random_rational(rng)
        checked = 0
        for _ in range(80):
            op = rng.randrange(5)
            y = _random_invertible(rng) if op == 3 else _random_rational(rng)
            if op == 4:
                # x + (w - x) = w: the sum's numerator shares a factor with
                # the denominator (all of it when w is a polynomial), which
                # the reduction must cancel
                w = QtRational(_random_poly(rng)) if rng.randrange(2) else y
                x = x + (w - x)
            else:
                x = ops[op](x, y)
            if x.is_zero() or len(x.num) > 40:
                x = _random_rational(rng)
                continue
            g = sympy.gcd(_sympy_poly(x.num), _sympy_poly(x.den))
            assert g.total_degree() == 0 and abs(int(g.LC())) == 1
            assert x.den[min(x.den)] > 0
            checked += 1
        assert checked > 40


_seeds = st.integers(min_value=0, max_value=10 ** 6).map(random.Random)
scalar_strategy = st.builds(_random_rational, _seeds)
invertible_strategy = st.builds(_random_invertible, _seeds)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(scalar_strategy, scalar_strategy, scalar_strategy)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(scalar_strategy, scalar_strategy)
    def test_canonical_uniqueness(self, a, b):
        # equality of canonical forms iff cross-multiplication identity
        cross = _pmul(a.num, b.den) == _pmul(b.num, a.den)
        assert (a == b) == cross

    @settings(max_examples=40, deadline=None)
    @given(invertible_strategy)
    def test_inverse_roundtrip(self, a):
        assert (a * a.inverse()).is_one()
        assert (ONE / a) * a == ONE


def _random_terms(rng, kind, close):
    """Nonzero values over one shared denominator, over monomial ones, over
    binomial products that factor, or over a mix of those two.
    close="zero" appends the negations of a shuffled copy, so the list sums
    to zero; close="factor" appends values n_i/(A B) whose numerators add up
    to A r, so their group sum reduces to r/B only after the numerators are
    added."""
    if kind == "shared":
        dens = [_random_den(rng, "factored")]
    elif kind == "mixed":
        dens = [_random_den(rng, rng.choice(("factored", "monomial")))
                for _ in range(3)]
    else:
        dens = [_random_den(rng, kind) for _ in range(8)]
    values = []
    while len(values) < rng.randrange(1, 9):
        v = QtRational(_random_poly(rng), rng.choice(dens))
        if v:
            values.append(v)
    if close == "zero":
        rest = [-v for v in values]
        rng.shuffle(rest)
        values += rest
    elif close == "factor":
        # A along a direction no other denominator has, so only the group's
        # own sum can cancel it
        a = {(0, 0): 1, rng.choice(((3, 1), (1, 3), (2, 3))):
             rng.choice((1, -1))}
        den = _pmul(a, _random_den(rng, "factored"))
        nums = [_random_poly(rng) for _ in range(3)]
        last = _pmul(a, _random_poly(rng) or {(0, 0): 1})
        for n in nums:
            last = {e: last.get(e, 0) - n.get(e, 0)
                    for e in set(last) | set(n)}
        for n in nums + [last]:
            v = QtRational({e: c for e, c in n.items() if c}, den)
            if v:
                values.append(v)
    return values


class TestGroupedSum:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from(("shared", "monomial", "mixed", "factored")),
           st.sampled_from(("none", "zero", "factor")))
    def test_equals_left_fold_and_is_canonical(self, seed, kind, close):
        rng = random.Random(seed)
        values = _random_terms(rng, kind, close)
        fold = values[0]
        for v in values[1:]:
            fold = fold + v
        s = qt_sum(values)
        assert s == fold
        r = QtRational(s.num, s.den)
        assert (s.num, s.den) == (r.num, r.den)
        if close == "zero":
            assert s.is_zero() and s.den == {(0, 0): 1}
        # + is itself a qt_sum, so the fold above is no independent check:
        # cross-multiply over the product of the distinct denominators and
        # reduce by sympy's gcd
        num, den, dens = {}, _UNIT, []
        for v in values:
            if v.den not in dens:
                dens.append(v.den)
                den = _pmul(den, v.den)
        for v in values:
            cof = _UNIT
            for d in dens:
                if d != v.den:
                    cof = _pmul(cof, d)
            num = _padd_dicts(num, _pmul(v.num, cof))
        assert (s.num, s.den) == _gcd_reduced(num, den)
        # zeros are skipped; the empty sum, a lone value, x - x
        with_zeros = list(values)
        for _ in range(rng.randrange(1, 4)):
            with_zeros.insert(rng.randrange(len(with_zeros) + 1), ZERO)
        assert qt_sum(with_zeros) == s
        assert qt_sum([]) is ZERO and qt_sum([ZERO, ZERO]) is ZERO
        x = values[rng.randrange(len(values))]
        assert qt_sum([x]) is x and qt_sum([ZERO, x, ZERO]) is x
        assert (x - x) is ZERO and qt_sum([x, -x]) is ZERO


class TestTextForm:
    def test_golden_strings(self):
        assert str((ONE - Q * T * T) / (ONE - Q * T)) == "(1 - q*t^2)/(1 - q*t)"
        assert str(Q * Q * Q * Q * T * T) == "q^4*t^2"
        assert str(ZERO) == "0"
        assert str(QtRational.from_int(-7)) == "-7"

    def test_qtpoly_term_order(self):
        assert str(-(Q * T) + ONE + 2 * Q) == "1 + 2*q - q*t"

    @pytest.mark.parametrize("text", [
        "2*q*q", "q t", "qq", "-", "", "q^-1", "t*q*t", "q*2", "2*3", "x",
        "1 + + q", "(1 + q", "(q)/()", "(q)/(t^)"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_qt(text)

    def test_parse_accepts_sums_of_terms(self):
        assert parse_qt("0") == ZERO
        assert parse_qt("q - q") == ZERO
        assert parse_qt("-q") == -Q
        assert parse_qt("t*q^2 + 3") == Q * Q * T + 3 * ONE
        assert parse_qt("(1 - q*t)/(2)") == (ONE - Q * T) / (2 * ONE)
        with pytest.raises(ZeroDivisionError):
            parse_qt("(q)/(0)")

    def test_parse_roundtrip(self):
        rng = random.Random(17)
        for _ in range(50):
            x = _random_rational(rng)
            assert parse_qt(str(x)) == x


def _cyclotomic(n):
    """Phi_n(u) as integer coefficients, constant term first, by dividing
    u^n - 1 by Phi_d for every proper divisor d of n."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            g = _cyclotomic(d)
            quot = [0] * (len(f) - len(g) + 1)
            for k in range(len(quot) - 1, -1, -1):
                quot[k] = f[k + len(g) - 1]
                for j, c in enumerate(g):
                    f[k + j] -= quot[k] * c
            assert not any(f)
            f = quot
    return f


def _in_qt(coeffs, a, b):
    """sum_k coeffs[k] (q^a t^b)^k as a polynomial dict."""
    return {(k * a, k * b): c for k, c in enumerate(coeffs) if c}


# factors drawn half the time, so that operands share them; (1, 2, 2) is
# 1 - q^2 t^2 = (1 - qt)(1 + qt)
_PALETTE = ((1, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 2))


@st.composite
def factored_leaf(draw):
    """(value, num, den): an integer, a monomial, or f^k / f^j with f one
    Phi_n(q^a t^b) (n <= 6, a, b <= 3; gcd(a, b) may exceed 1, so that f
    splits) or one binomial 1 +- q^a t^b."""
    kind = draw(st.sampled_from(("int", "monomial", "phi", "phi",
                                 "binomial", "binomial")))
    if kind == "int":
        k = draw(st.integers(-3, 3).filter(bool))
        return QtRational.from_int(k), {(0, 0): k}, _UNIT
    if kind == "monomial":
        c = draw(st.sampled_from((1, -1, 2, 3)))
        i, j = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        return (QtRational.monomial(c, i, j), {(max(i, 0), max(j, 0)): c},
                {(max(-i, 0), max(-j, 0)): 1})
    n, a, b = draw(st.one_of(
        st.sampled_from(_PALETTE),
        st.tuples(st.integers(1, 6), st.integers(0, 3), st.integers(0, 3))))
    assume(a or b)
    if kind == "phi":
        f = _in_qt(_cyclotomic(n), a, b)
    else:
        f = {(0, 0): 1, (a, b): draw(st.sampled_from((1, -1)))}
    num, den = _UNIT, _UNIT
    for _ in range(draw(st.integers(0, 3))):
        num = _pmul(num, f)
    for _ in range(draw(st.integers(0, 3))):
        den = _pmul(den, f)
    if draw(st.booleans()):
        return QtRational(num, den), num, den
    return QtRational(num) / QtRational(den), num, den


def _factored_expr(leaves):
    """Trees of +, -, *, /, q,t-inversion and qt_sum over the leaves; each
    node evaluates to (value, unreduced num, unreduced den)."""
    binary = st.tuples(st.sampled_from(("+", "-", "*", "/")), leaves, leaves)
    return st.one_of(
        binary,
        st.tuples(st.just("invert"), leaves),
        st.tuples(st.just("sum"), st.lists(leaves, min_size=3, max_size=4)))


def _evaluate(node):
    if isinstance(node[0], QtRational):
        return node
    op, *args = node
    if op == "invert":
        x, n, d = _evaluate(args[0])
        mq = max(e[0] for e in (*n, *d))
        mt = max(e[1] for e in (*n, *d))
        return (x.invert_params(),
                {(mq - e0, mt - e1): c for (e0, e1), c in n.items()},
                {(mq - e0, mt - e1): c for (e0, e1), c in d.items()})
    if op == "sum":
        parts = [_evaluate(a) for a in args[0]]
        num, den = {}, _UNIT
        for _, n, d in parts:
            num = _padd_dicts(_pmul(num, d), _pmul(n, den))
            den = _pmul(den, d)
        return qt_sum([x for x, _, _ in parts]), num, den
    (x, n1, d1), (y, n2, d2) = _evaluate(args[0]), _evaluate(args[1])
    if op == "/":
        # a divisor whose numerator does not factor is outside the domain
        assume(y and _factor(y.num) is not None)
        return x / y, _pmul(n1, d2), _pmul(d1, n2)
    if op == "*":
        return x * y, _pmul(n1, n2), _pmul(d1, d2)
    sign = 1 if op == "+" else -1
    num = _padd_dicts(_pmul(n1, d2), {e: sign * c
                                      for e, c in _pmul(n2, d1).items()})
    return (x + y if op == "+" else x - y), num, _pmul(d1, d2)


def _padd_dicts(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


_QS, _TS = sympy.symbols("q t")
_SYMPY_FIELD = sympy.field("q,t", sympy.ZZ)[0]


def _sympy_poly(p):
    return sympy.Poly(dict(p), _QS, _TS, domain=sympy.ZZ)


def _gcd_reduced(num, den):
    """num/den in canonical form, reduced by sympy's gcd."""
    if not num:
        return {}, _UNIT
    _, num, den = _sympy_poly(num).cofactors(_sympy_poly(den))
    num = {e: int(c) for e, c in num.terms()}
    den = {e: int(c) for e, c in den.terms()}
    if den[min(den)] < 0:
        num = {e: -c for e, c in num.items()}
        den = {e: -c for e, c in den.items()}
    return num, den


def _sympy_value(node):
    """The value of an expression tree (_factored_expr) computed by sympy
    alone, from the leaves' num and den."""
    if isinstance(node[0], QtRational):
        _, num, den = node
        return (_sympy_poly(num).as_expr() / _sympy_poly(den).as_expr())
    op, *args = node
    if op == "invert":
        return _sympy_value(args[0]).subs({_QS: 1 / _QS, _TS: 1 / _TS},
                                          simultaneous=True)
    if op == "sum":
        return sympy.Add(*map(_sympy_value, args[0]))
    x, y = _sympy_value(args[0]), _sympy_value(args[1])
    return {"+": x + y, "-": x - y, "*": x * y, "/": x / y}[op]


class TestFactoredDenominators:
    @settings(max_examples=300, deadline=None)
    @given(st.recursive(factored_leaf(), _factored_expr, max_leaves=6))
    def test_equals_gcd_reduction(self, expr):
        # a leaf alone checks the constructor and inverse
        x, num, den = _evaluate(expr)
        assert (x.num, x.den) == _gcd_reduced(num, den)
        # the key describes den exactly: c q^i t^j prod Phi_n(q^a t^b)^k
        c, i, j, fac = x.key
        expanded = {(i, j): c}
        for (n, a, b), k in fac:
            phi = _cyclotomic(n)
            if n == 1:
                phi = [-v for v in phi]
            for _ in range(k):
                expanded = _pmul(expanded, _in_qt(phi, a, b))
        assert expanded == x.den

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(factored_leaf(), _factored_expr, max_leaves=6))
    def test_key_is_the_factorization_of_den(self, expr):
        # values compare and hash by key, so every operation, inversion and
        # qt_sum included, must leave it canonical: den factored afresh
        # gives the key back
        x = _evaluate(expr)[0]
        assert _factor(x.den) == x.key

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(factored_leaf(), _factored_expr, max_leaves=6))
    def test_field_ops_against_sympy(self, expr):
        # the whole tree evaluated in sympy, with no msym arithmetic: the
        # unreduced num and den above come from msym's own products
        x = _evaluate(expr)[0]
        f = _SYMPY_FIELD.from_expr(_sympy_value(expr))
        assert (x.num, x.den) == _gcd_reduced(dict(f.numer), dict(f.denom))

    def test_den_one_is_shared(self):
        # a quotient that cancels to a polynomial holds the key of 1, so
        # qt_sum puts it in one group with the integers, and its den is the
        # one shared polynomial 1
        clear_caches()
        x = (ONE - Q) * (ONE - Q).inverse()
        assert x.key == ONE.key == (1, 0, 0, ())
        assert x.den is _ONE_TERMS

    def test_equal_keys_are_shared(self):
        # products, sums and cancellations make their keys through
        # qt_ring._key, so values over one denominator hold one copy of it
        a = (ONE - Q).inverse() * (ONE - T).inverse()
        b = (ONE - T).inverse() * (ONE + Q).inverse()
        b = b * (ONE + Q) * (Q - Q * Q).inverse() * Q
        c = qt_sum([(ONE - T).inverse(), Q * (ONE - Q).inverse(), a])
        assert a == b and a.key is b.key is c.key

    def test_factor_examples(self):
        # 1 - q^2 t^2 = (1 - qt)(1 + qt); -2 - 2q^3 = -2 (1 + q)(1 - q + q^2);
        # q (1 - t)^3 (1 + t + t^2) by trial division; 1 - 2q and
        # (1 + q + t)(1 - qt) do not factor
        assert _factor({(0, 0): 1, (2, 2): -1}) == (
            1, 0, 0, (((1, 1, 1), 1), ((2, 1, 1), 1)))
        assert _factor({(0, 0): -2, (3, 0): -2}) == (
            -2, 0, 0, (((2, 1, 0), 1), ((6, 1, 0), 1)))
        p = _pmul(_pmul({(1, 0): 1}, _in_qt([1, -3, 3, -1], 0, 1)),
                  _in_qt([1, 1, 1], 0, 1))
        assert _factor(p) == (1, 1, 0, (((1, 0, 1), 3), ((3, 0, 1), 1)))
        assert _factor({(0, 0): 1, (1, 0): -2}) is None
        assert _factor(_pmul({(0, 0): 1, (1, 0): 1, (0, 1): 1},
                             {(0, 0): 1, (1, 1): -1})) is None


def _counter(monkeypatch, module, name):
    """Count the calls to module.name for the rest of the test."""
    calls = []
    f = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


_NUM = {(0, 0): 3, (1, 0): -1, (1, 2): 1}                 # 3 - q + q t^2
_COMMON = {(1, 0): -2, (1, 1): 2, (2, 1): -2, (2, 2): 2}  # -2q(1 - t)(1 + qt)
_SQUARE = {(0, 0): 1, (2, 1): -2, (4, 2): 1}              # (1 - q^2 t)^2
_CYCLO = {(0, 0): 1, (1, 1): 1, (2, 2): 1}                # Phi_3(qt)
_BINOMIAL = {(0, 0): 1, (1, 1): -1}                       # 1 - qt
_GENERAL = {(0, 0): 1, (1, 0): 1, (0, 1): 1}              # 1 + q + t


class TestOneReduction:
    # _fraction is the one reduction of a fraction whose denominator's
    # factorization is not known, and the one place that rejects a
    # denominator that does not factor

    @pytest.mark.parametrize("d", [_CYCLO, _BINOMIAL])
    @pytest.mark.parametrize("g", [_COMMON, _SQUARE])
    def test_common_factor_cancels(self, d, g):
        x = QtRational(_pmul(_NUM, g), _pmul(d, g))
        y = QtRational(_NUM, d)
        assert (x.num, x.den) == (y.num, y.den) == (_NUM, d)
        assert x == y and hash(x) == hash(y)

    @pytest.mark.parametrize("x", [
        (ONE - Q * T) / (ONE - T),
        qt_product(-3, 2, -1, [(1, 2)], [(1, 0), (0, 1), (0, 1)]),
        (ONE - Q) * (ONE - T) / (ONE - Q * T * T),
    ])
    def test_inverse_makes_no_trial_division(self, monkeypatch, x):
        # a canonical num and den are coprime, so an inverse only factors
        # its new denominator and is (den, num) with the sign fixed
        from msym import qt_ring
        calls = _counter(monkeypatch, qt_ring, "_fdiv")
        _factor(x.num)
        factoring = len(calls)
        del calls[:]
        y = x.inverse()
        assert len(calls) == factoring
        num, den = x.den, x.num
        if den[min(den)] < 0:
            num = {e: -c for e, c in num.items()}
            den = {e: -c for e, c in den.items()}
        assert (y.num, y.den) == (num, den)
        assert (x * y).is_one()

    def test_denominator_that_does_not_factor_raises(self):
        general = ONE + Q + T
        assert _factor(_GENERAL) is None
        # a given denominator, or a divisor's numerator, must factor itself:
        # the last two values, 1 and (1 - t)/(1 - q), lie in the domain but
        # raise all the same
        for make in (lambda: QtRational(_NUM, _GENERAL), general.inverse,
                     lambda: ONE / general,
                     lambda: parse_qt("(1)/(1 + q + t)"),
                     lambda: QtRational(_GENERAL, _GENERAL),
                     lambda: QtRational(_GENERAL, {(0, 0): 1, (1, 0): -1})
                     / QtRational(_GENERAL, {(0, 0): 1, (0, 1): -1})):
            with pytest.raises(ValueError, match="does not factor"):
                make()

    @pytest.mark.parametrize("remake", ["clear_caches", "invert_params"])
    def test_equal_denominators_are_one_group(self, monkeypatch, remake):
        # x and y have the denominator 1 - qt, y's built on another path:
        # after clear_caches(), or as -qt/(1 - qt), the q,t-inversion of
        # 1/(1 - qt); z's denominator differs, so qt_sum takes the lcm of
        # two groups, not three
        from msym import qt_field
        x = QtRational(_NUM, _BINOMIAL)
        if remake == "clear_caches":
            clear_caches()
            y = QtRational(_COMMON, _BINOMIAL)
        else:
            y = QtRational(_UNIT, _BINOMIAL).invert_params()
        z = QtRational(_NUM, _CYCLO)
        assert x.key == y.key != z.key
        total = (x + y) + z
        calls = _counter(monkeypatch, qt_field, "_lcm_sum")
        assert qt_sum([x, y, z]) == total
        assert [len(parts) for parts, in calls] == [2]
