"""Exact rational-function arithmetic in q and t."""

import random
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from msym.qt_field import (QtRational, ONE, ZERO, Q, T, parse_qt, qt_product,
                           qt_sum, _pmul, _pdivexact, _hgcd, _peval,
                           _genpoly)
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
        # factorization included
        v = T.inverse() if inverse else T
        chain = vp = ONE
        for k in range(13):
            got = t_factorial(k, inverse)
            assert (got.num, got.den, got.fac) == \
                (chain.num, chain.den, chain.fac), k
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
        assert (got.num, got.den, got.fac) == \
            (chain.num, chain.den, chain.fac)

    def test_zero_pair(self):
        assert qt_product(3, 1, -2, [(1, 1), (0, 0)], [(0, 1)]).is_zero()
        with pytest.raises(ZeroDivisionError):
            qt_product(3, 1, -2, [(1, 1)], [(0, 1), (0, 0)])
        with pytest.raises(ZeroDivisionError):
            qt_product(1, 0, 0, [(0, 0)], [(0, 0)])


def _random_poly(rng, nterms=4, dmax=4):
    d = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        e = (rng.randrange(dmax), rng.randrange(dmax))
        d[e] = d.get(e, 0) + rng.randrange(-5, 6)
    return {e: c for e, c in d.items() if c}


def _random_rational(rng):
    num = _random_poly(rng)
    den = _random_poly(rng) or {(0, 0): 1}
    return QtRational(num, den)


@st.composite
def gcd_inputs(draw):
    """(a, b, g): polynomials in q and t, in q only or in t only, with
    coefficients up to 5 or up to 10**30, each times a monomial."""
    shape = draw(st.sampled_from(("qt", "q", "t")))
    cmax = draw(st.sampled_from((5, 10 ** 30)))
    dq, dt = (3 if shape != "t" else 0), (3 if shape != "q" else 0)

    def poly(nterms):
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, dq), st.integers(0, dt)),
            st.integers(-cmax, cmax).filter(bool),
            min_size=1, max_size=nterms))
        mono = (draw(st.integers(0, min(dq, 2))),
                draw(st.integers(0, min(dt, 2))))
        return _pmul(terms, {mono: 1})

    return poly(4), poly(4), poly(3)


def _gcd_within(a, b, seconds=10):
    """The gcd of a and b with its smallest (lex, q-major) term positive,
    failing instead of hanging if its loop does not end."""
    def expire(signum, frame):
        raise TimeoutError("gcd loop still running after %d s" % seconds)
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        g = _hgcd(a, b, 1)[0]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    if g and g[min(g)] < 0:
        g = {e: -c for e, c in g.items()}
    return g


class TestGcd:
    def test_divides_both(self):
        rng = random.Random(21)
        for _ in range(200):
            a, b, g = _random_poly(rng), _random_poly(rng), _random_poly(rng)
            if not a or not b:
                continue
            if g:
                a, b = _pmul(a, g), _pmul(b, g)
            d = _hgcd(a, b, 1)[0]
            _pdivexact(a, d)
            _pdivexact(b, d)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        qs, ts = sympy.symbols("q t")
        rng = random.Random(42)
        for _ in range(120):
            a, b, g = _random_poly(rng), _random_poly(rng), _random_poly(rng)
            if not a or not b:
                continue
            if g:
                a, b = _pmul(a, g), _pmul(b, g)
            mine = _hgcd(a, b, 1)[0]
            pa = sympy.Poly(dict(a), qs, ts, domain=sympy.ZZ)
            pb = sympy.Poly(dict(b), qs, ts, domain=sympy.ZZ)
            theirs = {tuple(mon): int(c)
                      for mon, c in sympy.gcd(pa, pb).terms()}
            neg = {e: -c for e, c in theirs.items()}
            assert mine == theirs or mine == neg

    @settings(max_examples=300, deadline=None)
    @given(gcd_inputs())
    def test_common_factor_against_sympy(self, abg):
        sympy = pytest.importorskip("sympy")
        qs, ts = sympy.symbols("q t")
        a, b, g = abg
        a, b = _pmul(a, g), _pmul(b, g)
        mine = _gcd_within(a, b)
        theirs = sympy.gcd(sympy.Poly(a, qs, ts, domain=sympy.ZZ),
                           sympy.Poly(b, qs, ts, domain=sympy.ZZ))
        theirs = {tuple(mon): int(c) for mon, c in theirs.terms()}
        assert mine == theirs or mine == {e: -c for e, c in theirs.items()}

    def test_fixed_divisor(self):
        # every value of q(q+1)(q+2) and of (q+3)(q+4)(q+5) is a multiple of
        # 6 (of 2 for (q+1)(q+2), left once q is stripped), so the images
        # always share an integer the gcd must drop
        a = _pmul(_pmul({(1, 0): 1}, {(1, 0): 1, (0, 0): 1}),
                  {(1, 0): 1, (0, 0): 2})
        b = _pmul(_pmul({(1, 0): 1, (0, 0): 3}, {(1, 0): 1, (0, 0): 4}),
                  {(1, 0): 1, (0, 0): 5})
        assert _gcd_within(a, b) == {(0, 0): 1}
        qt = {(1, 0): 1, (0, 1): 1}
        assert _gcd_within(_pmul(a, qt), _pmul(b, qt)) == qt

    def test_first_lift_rejected(self):
        # a = (t+1)(q+t), b = (t+33)(q+t) start at x = 2*1 + 29 = 31, where
        # the images 32(q+31) and 64(q+31) share the spurious factor 32; the
        # lift of 32(q+31) is (t+1)(q+t), which divides a but not b, so x
        # must grow (to 84: 85(q+84) and 117(q+84) lift to q+t)
        qt = {(1, 0): 1, (0, 1): 1}
        a = _pmul(qt, {(0, 1): 1, (0, 0): 1})
        b = _pmul(qt, {(0, 1): 1, (0, 0): 33})
        g = _hgcd(_peval(a, 1, 31), _peval(b, 1, 31), 0)[0]
        lift = _genpoly(g, 31, 1)
        assert lift == a
        with pytest.raises(ArithmeticError):
            _pdivexact(b, lift)
        assert _gcd_within(a, b) == qt

    def test_canonical_form_against_sympy(self):
        # after random field operations, num/den is coprime in Z[q,t]
        # (integer content included) and den's lexicographically smallest
        # term is positive
        sympy = pytest.importorskip("sympy")
        qs, ts = sympy.symbols("q t")
        rng = random.Random(7)
        ops = (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a / b)
        x = _random_rational(rng)
        checked = 0
        for _ in range(80):
            y = _random_rational(rng)
            op = rng.randrange(5)
            if op == 4:
                # x + (w - x) = w: the sum's numerator shares a factor with
                # the denominator (all of it when w is a polynomial), which
                # the reduction must cancel
                w = QtRational(_random_poly(rng)) if rng.randrange(2) else y
                x = x + (w - x)
            elif op == 3 and y.is_zero():
                continue
            else:
                x = ops[op](x, y)
            if x.is_zero() or len(x.num) > 40:
                x = _random_rational(rng)
                continue
            pn = sympy.Poly(dict(x.num), qs, ts, domain=sympy.ZZ)
            pd = sympy.Poly(dict(x.den), qs, ts, domain=sympy.ZZ)
            g = sympy.gcd(pn, pd)
            assert g.total_degree() == 0 and abs(int(g.LC())) == 1
            assert x.den[min(x.den)] > 0
            checked += 1
        assert checked > 40


scalar_strategy = st.builds(
    _random_rational,
    st.integers(min_value=0, max_value=10 ** 6).map(random.Random))


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
    @given(scalar_strategy)
    def test_inverse_roundtrip(self, a):
        if not a.is_zero():
            assert (a * a.inverse()).is_one()
            assert (ONE / a) * a == ONE


def _random_den(rng, kind):
    if kind == "monomial":
        return {(rng.randrange(3), rng.randrange(3)): rng.choice((1, 2, 3))}
    if kind == "factored":
        # a monomial times one or two binomials 1 +- q^a t^b
        den = {(rng.randrange(2), rng.randrange(2)): rng.choice((1, 2))}
        for _ in range(rng.randrange(1, 3)):
            a, b = rng.choice(((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)))
            den = _pmul(den, {(0, 0): 1, (a, b): rng.choice((1, -1))})
        return den
    if kind == "general":
        # (1 + q + t) does not factor over Phi_n(q^a t^b)
        return _pmul({(0, 0): 1, (1, 0): 1, (0, 1): 1},
                     _random_den(rng, "factored"))
    return _random_poly(rng, nterms=3, dmax=3) or {(0, 0): 1}


def _random_terms(rng, kind, close):
    """Nonzero values over one shared denominator, over distinct ones, over
    monomial ones, over a mix, over binomial products that factor, or over
    both those and denominators that do not factor ("both", where a value
    over each comes first).  close="zero" appends the negations of a
    shuffled copy, so the list sums to zero; close="factor" appends values
    n_i/(A B) whose numerators add up to A r, so their group sum reduces to
    r/B only after the numerators are added (A and B factor when the other
    denominators do)."""
    if kind == "shared":
        dens = [_random_den(rng, "poly")]
    elif kind == "mixed":
        dens = [_random_den(rng, rng.choice(("poly", "monomial")))
                for _ in range(3)]
    elif kind == "both":
        dens = [_random_den(rng, k) for k in ("general", "factored",
                                              "factored")]
    else:
        dens = [_random_den(rng, kind) for _ in range(8)]
    values = []
    if kind == "both":
        values = [v for v in (QtRational(_random_poly(rng), d)
                              for d in dens[:2]) if v]
    while len(values) < rng.randrange(1, 9):
        v = QtRational(_random_poly(rng), rng.choice(dens))
        if v:
            values.append(v)
    if close == "zero":
        rest = [-v for v in values]
        rng.shuffle(rest)
        values += rest
    elif close == "factor":
        if kind in ("factored", "both"):
            # A along a direction no other denominator has, so only the
            # group's own sum can cancel it
            a = {(0, 0): 1, rng.choice(((3, 1), (1, 3), (2, 3))):
                 rng.choice((1, -1))}
            den = _pmul(a, _random_den(rng, "factored"))
        else:
            a = _random_poly(rng, nterms=2, dmax=3) or {(1, 0): 1, (0, 0): 2}
            den = _pmul(a, _random_poly(rng, nterms=3, dmax=3)
                        or {(0, 1): 1})
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
           st.sampled_from(("shared", "distinct", "monomial", "mixed",
                            "factored", "both")),
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
        # reduce by the gcd
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


_UNIT = {(0, 0): 1}


# factors drawn half the time, so that operands share them; (1, 2, 2) is
# 1 - q^2 t^2 = (1 - qt)(1 + qt)
_PALETTE = ((1, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 2))


@st.composite
def factored_leaf(draw):
    """(value, num, den): an integer, a monomial, f^k / f^j with f one
    Phi_n(q^a t^b) (n <= 6, a, b <= 3; gcd(a, b) may exceed 1, so that f
    splits) or one binomial 1 +- q^a t^b, or a fraction over a general
    denominator."""
    kind = draw(st.sampled_from(("int", "monomial", "phi", "phi",
                                 "binomial", "binomial", "general")))
    if kind == "int":
        k = draw(st.integers(-3, 3).filter(bool))
        return QtRational.from_int(k), {(0, 0): k}, _UNIT
    if kind == "monomial":
        c = draw(st.sampled_from((1, -1, 2, 3)))
        i, j = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        return (QtRational.monomial(c, i, j), {(max(i, 0), max(j, 0)): c},
                {(max(-i, 0), max(-j, 0)): 1})
    if kind == "general":
        num = draw(st.dictionaries(st.tuples(st.integers(0, 2),
                                             st.integers(0, 2)),
                                   st.integers(-3, 3).filter(bool),
                                   min_size=1, max_size=3))
        den = draw(st.sampled_from(({(0, 0): 1, (1, 0): 2, (0, 1): 1},
                                    {(0, 0): 3, (1, 1): -1},
                                    {(1, 0): 1, (0, 1): 1})))
        return QtRational(num, den), num, den
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
        assume(y)
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


def _gcd_reduced(num, den):
    """num/den in canonical form, reduced by the gcd."""
    if not num:
        return {}, _UNIT
    g = _hgcd(num, den, 1)[0]
    num, den = _pdivexact(num, g), _pdivexact(den, g)
    if den[min(den)] < 0:
        num = {e: -c for e, c in num.items()}
        den = {e: -c for e, c in den.items()}
    return num, den


class TestFactoredDenominators:
    @settings(max_examples=300, deadline=None)
    @given(st.recursive(factored_leaf(), _factored_expr, max_leaves=6))
    def test_equals_gcd_reduction(self, expr):
        # a leaf alone checks the constructor and inverse; every tree
        # combines factored and general operands
        x, num, den = _evaluate(expr)
        assert (x.num, x.den) == _gcd_reduced(num, den)
        if x.fac is not None:
            # the factorization describes den exactly
            lowest = min(x.den)
            expanded = {lowest: x.den[lowest]}
            for (n, a, b), k in x.fac:
                phi = _cyclotomic(n)
                if n == 1:
                    phi = [-v for v in phi]
                for _ in range(k):
                    expanded = _pmul(expanded, _in_qt(phi, a, b))
            assert expanded == x.den

    def test_den_one_is_shared(self):
        # a quotient that cancels to a polynomial holds the one shared
        # denominator 1, so qt_sum puts it in one group with the integers
        clear_caches()
        x = (ONE - Q) * (ONE - Q).inverse()
        assert x.den is _ONE_TERMS

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
_GENERAL = {(0, 0): 1, (1, 0): 1, (0, 1): 1}              # 1 + q + t
_BINOMIAL = {(0, 0): 1, (1, 1): -1}                       # 1 - qt


class TestOneReduction:
    # _fraction is the one reduction of a fraction whose denominator's
    # factorization is not known, and the one caller of _hgcd

    @pytest.mark.parametrize("d", [_GENERAL, _BINOMIAL])
    @pytest.mark.parametrize("g", [_COMMON, _GENERAL])
    def test_common_factor_cancels(self, monkeypatch, d, g):
        from msym import qt_field
        gcd_calls = _counter(monkeypatch, qt_field, "_hgcd")
        x = QtRational(_pmul(_NUM, g), _pmul(d, g))
        # the gcd runs only when the denominator does not factor
        assert bool(gcd_calls) == (_factor(_pmul(d, g)) is None)
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
        # its new denominator
        from msym import qt_ring
        calls = _counter(monkeypatch, qt_ring, "_fdiv")
        _factor(x.num)
        factoring = len(calls)
        del calls[:]
        y = x.inverse()
        assert len(calls) == factoring
        assert (y.num, y.den) == _gcd_reduced(x.den, x.num)
        assert (x * y).is_one()

    def test_inverse_makes_no_gcd(self, monkeypatch):
        from msym import qt_field
        calls = _counter(monkeypatch, qt_field, "_hgcd")
        y = (ONE + Q + T).inverse()
        assert calls == []
        assert (y.num, y.den, y.fac) == (_ONE_TERMS, _GENERAL, None)

    def test_operations_factor_before_any_gcd(self, monkeypatch):
        # c = 1/(1 - q) comes out of the gcd with its factorization not
        # known; a product, sum or inverse over it factors 1 - q again
        from msym import qt_field
        c = frac(_ONE_TERMS, _GENERAL) * frac(_GENERAL, {(0, 0): 1,
                                                       (1, 0): -1})
        assert c.fac is None and c == (ONE - Q).inverse()
        calls = _counter(monkeypatch, qt_field, "_hgcd")
        for y in (c * c, c + c, c + ONE, c.inverse() * Q):
            assert y.fac is not None
        assert calls == []
