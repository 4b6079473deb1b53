"""Exact arithmetic in Q(q,t), on the values msym makes: fractions whose
denominator factors as c q^i t^j prod Phi_n(q^a t^b)^k.

Scalars are reduced fractions of bivariate integer polynomials, stored as
qt_ring's dicts {(q_exponent, t_exponent): int} with no negative exponents.
Negative powers of q or t (needed for q**-1, t**-1 substitutions) are
expressed by clearing the monomial into the denominator.

Canonical form of a fraction num/den:
  * gcd(num, den) = 1 in Z[q,t] (including integer content),
  * the coefficient of the lexicographically smallest exponent pair of den
    (q-major, then t) is positive.
Equality and hashing rely on this canonical form being unique.

Denominators are kept factored.  Every denominator msym builds divides a
product of binomials 1 - q^a t^b (Knop, J. reine angew. Math. 482, 1997;
Sahi, IMRN 1996), and 1 - u^g is the product of the cyclotomic polynomials
Phi_d(u), d | g.  So next to the expanded den a value keeps its
factorization c q^i t^j prod Phi_n(q^a t^b)^k with gcd(a, b) = 1, where
c q^i t^j is den's lowest term and Phi_1(u) is taken as 1 - u.  Each such
factor is irreducible, so a numerator can share with den only factors den
already lists, and reduction is trial division by them:
  * a product merges the exponents and divides each numerator by the other
    operand's factors;
  * a sum takes the lcm, the largest exponent of each factor, and divides
    the new numerator only by factors both operands have to the lcm's
    power (qt_sum takes one lcm over all its denominator groups);
  * an inverse factors its new denominator: a binomial in closed form,
    anything else by trial division over the factors that fit in its
    bidegree;
  * q -> 1/q, t -> 1/t maps each factor to itself up to a monomial.
Phi_n(q^a t^b) divides a polynomial exactly when it divides each class of
terms along the direction (a, b), a polynomial in u = q^a t^b
(qt_ring._fdiv).  Most trial divisions fail, and a failure is mostly seen
in one evaluation of the polynomial mod a prime at a point where q^a t^b
is a root of Phi_n; it raises no exception.

Every closed form msym states (norms, evaluations, inclusion and
restriction factors, z_lambda(q,t), c_Lambda, the E_eta step) is a monomial
times a ratio of binomials 1 - q^a t^b: one qt_product call, whose factors
cancel by counting, with no trial division.

A fraction whose denominator's factorization is not known (QtRational(num,
den), parse_qt, an inverse and so a quotient) is made canonical by one
function, _fraction.  It factors the denominator and reduces by trial
division; an inverse needs no division, since its parts are coprime
already.  A denominator that does not factor so, such as 1 + q + t, is
outside the domain: _fraction raises ValueError for it, and no other
operation can make one.

Every operation returns its result in this form.  qt_sum is the one
addition: a + b is the two-term qt_sum((a, b)), and a sum of many
coefficients is one qt_sum, which reduces once per sum instead of once per
added term; since the form is unique, the result is the one term-by-term
addition gives.
"""

from __future__ import annotations

from fractions import Fraction

from .qt_ring import (_ONE_TERMS, _binomial, _cancel, _den, _fac_of,
                      _factor, _lcm_sum, _lowest, _p_eval, _p_str,
                      _parse_poly, _pmul, _pneg)

# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

def _reduced(t, c, i, j, fac, cands):
    """The canonical t / (c q^i t^j prod(fac)), cands the factors that may
    divide t."""
    t, c, i, j, fac = _cancel(t, c, i, j, fac, cands)
    den, fac = _den(c, i, j, fac)
    return QtRational._raw(t, den, fac)


def _fraction(n, d, coprime=False):
    """The canonical n/d for nonzero n and d, d's factorization not known:
    d is factored over Phi_n(q^a t^b) and n divided by its factors.  coprime
    (n and d share no factor, as in an inverse) skips the division.  A d
    that does not factor so raises ValueError."""
    parts = _factor(d)
    if parts is None:
        raise ValueError("denominator %s does not factor over 1 - q^a t^b"
                         % _p_str(d))
    c, i, j, fac = parts
    if c < 0:
        n, c = _pneg(n), -c
    return _reduced(n, c, i, j, fac, () if coprime else fac)


def _terms(p):
    """p's nonzero terms as a new dict; a negative exponent raises."""
    p = {e: c for e, c in dict(p).items() if c}
    if any(min(e) < 0 for e in p):
        raise ValueError("negative exponent in %s" % p)
    return p


class QtRational:
    """Canonical reduced element of Q(q,t), in three slots:
      * num, the numerator;
      * den, the denominator;
      * fac, den's factorization, always a sorted tuple of ((n, a, b), k)
        with den = c q^i t^j prod Phi_n(q^a t^b)^k and c q^i t^j den's
        lowest term.
    num and den are never mutated, so values share them.
    QtRational(num, den) reduces two polynomials by _fraction, and raises
    ValueError when den does not factor so."""

    __slots__ = ("num", "den", "fac")

    def __new__(cls, num, den=None):
        n = _terms(num)
        d = _ONE_TERMS if den is None else _terms(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        return _fraction(n, d) if n else ZERO

    # -- constructors --------------------------------------------------

    @classmethod
    def _raw(cls, num, den, fac):
        x = object.__new__(cls)
        x.num = num
        x.den = den
        x.fac = fac
        return x

    @classmethod
    def from_int(cls, n):
        if n == 0:
            return ZERO
        return cls._raw({(0, 0): n}, _ONE_TERMS, ())

    @classmethod
    def monomial(cls, coeff=1, qexp=0, texp=0):
        """coeff * q**qexp * t**texp; negative exponents go to the denominator."""
        if coeff == 0:
            return ZERO
        nq, nt = max(qexp, 0), max(texp, 0)
        dq, dt = max(-qexp, 0), max(-texp, 0)
        return cls._raw({(nq, nt): coeff},
                        {(dq, dt): 1} if dq or dt else _ONE_TERMS, ())

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == _ONE_TERMS and self.den == _ONE_TERMS

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QtRational):
            return NotImplemented
        return qt_sum((self, other))

    def __neg__(self):
        return QtRational._raw(_pneg(self.num), self.den, self.fac)

    def __sub__(self, other):
        if not isinstance(other, QtRational):
            return NotImplemented
        return qt_sum((self, -other))

    def __mul__(self, other):
        if not isinstance(other, QtRational):
            if not isinstance(other, int):
                return NotImplemented
            other = QtRational.from_int(other)
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not n1 or not n2:
            return ZERO
        if d1 == _ONE_TERMS and d2 == _ONE_TERMS:
            return QtRational._raw(_pmul(n1, n2), _ONE_TERMS, ())
        f1, f2 = self.fac, other.fac
        # each numerator is coprime to its own denominator, so only the
        # other operand's factors can cancel from it
        c1 = c2 = 1
        i1 = j1 = i2 = j2 = 0
        if d2 != _ONE_TERMS:
            c2, i2, j2 = _lowest(d2)
            n1, c2, i2, j2, f2 = _cancel(n1, c2, i2, j2, f2, f2)
        if d1 != _ONE_TERMS:
            c1, i1, j1 = _lowest(d1)
            n2, c1, i1, j1, f1 = _cancel(n2, c1, i1, j1, f1, f1)
        if f1 and f2:
            exps = dict(f1)
            for key, k in f2:
                exps[key] = exps.get(key, 0) + k
            f1 = _fac_of(exps)
        den, fac = _den(c1 * c2, i1 + i2, j1 + j2, f1 or f2)
        return QtRational._raw(_pmul(n1, n2), den, fac)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, QtRational):
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q,t)")
        if not self.num:
            return ZERO
        return self * other.inverse()

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(q,t)")
        return _fraction(self.den, self.num, coprime=True)

    def invert_params(self):
        """Substitute q -> 1/q and t -> 1/t.

        Both polynomials are reflected in their bidegree and the common
        monomial is dropped.  The substitution is an automorphism of
        Z[q^+-1, t^+-1], so the reflections stay coprime and keep their
        content, and it maps each Phi_n(q^a t^b) to itself times a monomial
        (and -1 for n = 1): the result needs its sign fixed, no reduction,
        and keeps fac."""
        if not self.num:
            return ZERO
        nq = max(e[0] for e in self.num)
        nt = max(e[1] for e in self.num)
        dq = max(e[0] for e in self.den)
        dt = max(e[1] for e in self.den)
        sq, st = max(dq, nq), max(dt, nt)
        num = {(sq - e0, st - e1): c for (e0, e1), c in self.num.items()}
        den = {(sq - e0, st - e1): c for (e0, e1), c in self.den.items()}
        if den[min(den)] < 0:
            num, den = _pneg(num), _pneg(den)
        return QtRational._raw(num, den, self.fac)

    # -- comparisons, hashing, printing -----------------------------------

    def __eq__(self, other):
        if isinstance(other, QtRational):
            return self.num == other.num and self.den == other.den
        if not isinstance(other, int):
            return NotImplemented
        if other == 0:
            return not self.num
        return self.den == _ONE_TERMS and self.num == {(0, 0): other}

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __str__(self):
        if self.den == _ONE_TERMS:
            return _p_str(self.num)
        return "(%s)/(%s)" % (_p_str(self.num), _p_str(self.den))

    def __repr__(self):
        return "QtRational(%s)" % self

    def eval(self, q0, t0):
        """Exact value at a rational point; raises on a pole."""
        q0, t0 = Fraction(q0), Fraction(t0)
        d = _p_eval(self.den, q0, t0)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at (%s, %s)" % (q0, t0))
        return _p_eval(self.num, q0, t0) / d


ZERO = QtRational._raw({}, _ONE_TERMS, ())
ONE = QtRational._raw({(0, 0): 1}, _ONE_TERMS, ())
Q = QtRational._raw({(1, 0): 1}, _ONE_TERMS, ())
T = QtRational._raw({(0, 1): 1}, _ONE_TERMS, ())


def _num_sum(values):
    """The sum of the values' numerators, with no reduction; a lone
    numerator comes back as it is, not copied."""
    if len(values) == 1:
        return values[0].num
    num = dict(values[0].num)
    for v in values[1:]:
        for e, c in v.num.items():
            s = num.get(e, 0) + c
            if s:
                num[e] = s
            else:
                del num[e]
    return num


def qt_sum(values):
    """The sum of QtRationals, reduced once: the one addition in Q(q,t).
    The empty sum is ZERO, a lone nonzero value comes back unchanged, and
    zeros are skipped.

    The values are grouped by denominator and each group's numerators are
    added with no reduction.  One group (as in every sum of polynomial
    coefficients over one denominator) is reduced once over it.  Several
    groups are brought to one lcm and the total is reduced once, by trial
    division over the lcm's factors that can cancel.  Between several
    denominators, values over one share its dict (qt_ring._EXPANDED), so
    groups are keyed by its identity, with no hashing; equal denominators
    in separate dicts form separate groups, which costs trial divisions
    that fail but gives the same canonical value: the form is unique, so
    the result is the one term-by-term addition gives."""
    for v in values:
        # zeros are rare, so the list is copied only when one is there
        if not v.num:
            values = [v for v in values if v.num]
            break
    if len(values) < 2:
        return values[0] if values else ZERO
    d0 = values[0].den
    for v in values:
        if v.den is not d0 and v.den != d0:
            break
    else:
        num = _num_sum(values)
        if not num:
            return ZERO
        if d0 == _ONE_TERMS:
            return QtRational._raw(num, _ONE_TERMS, ())
        fac = values[0].fac
        return _reduced(num, *_lowest(d0), fac, fac)
    groups = {}
    for v in values:
        groups.setdefault(id(v.den), []).append(v)
    parts = []
    for g in groups.values():
        num = _num_sum(g)
        if num:
            parts.append((num, g[0].den, g[0].fac, len(g) == 1))
    if not parts:
        return ZERO
    t, c, i, j, fac, cands = _lcm_sum(parts)
    if not t:
        return ZERO
    return _reduced(t, c, i, j, fac, cands)


def qt_product(c, i, j, ups, downs):
    """c q^i t^j prod_ups (1 - q^a t^b) / prod_downs (1 - q^a t^b) for an
    int c != 0, ints i, j and a, b >= 0: the one constructor of closed forms.
    A (0, 0) pair gives ZERO in ups and raises ZeroDivisionError in downs.
    The binomials' factors (qt_ring._binomial) are irreducible, so they
    cancel by counting, and the factors left over with positive exponents
    make the numerator, those with negative ones the denominator."""
    exps = {}
    for pairs, s in ((downs, -1), (ups, 1)):
        for a, b in pairs:
            if not (a or b):
                if s < 0:
                    raise ZeroDivisionError("1 - q^0 t^0 in a denominator")
                return ZERO
            for key in _binomial(a, b):
                exps[key] = exps.get(key, 0) + s
    num, _ = _den(c, max(i, 0), max(j, 0),
                  _fac_of({key: max(k, 0) for key, k in exps.items()}))
    den, fac = _den(1, max(-i, 0), max(-j, 0),
                    _fac_of({key: max(-k, 0) for key, k in exps.items()}))
    return QtRational._raw(num, den, fac)


def parse_qt(s):
    """Parse the canonical text form, a polynomial or (polynomial)/(polynomial)
    in _parse_poly's terms, back into a QtRational.  Anything else raises
    ValueError, and so does a denominator that does not factor as
    c q^i t^j prod Phi_n(q^a t^b)^k (_fraction)."""
    s = s.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        i = s.index(")/(")
        return QtRational(_parse_poly(s[1:i]), _parse_poly(s[i + 3:-1]))
    return QtRational(_parse_poly(s))
