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

A denominator is its factorization.  Every denominator msym builds divides
a product of binomials 1 - q^a t^b (Knop, J. reine angew. Math. 482, 1997;
Sahi, IMRN 1996), and 1 - u^g is the product of the cyclotomic polynomials
Phi_d(u), d | g.  So a value keeps in place of den its key (c, i, j, fac):
den = c q^i t^j prod Phi_n(q^a t^b)^k with gcd(a, b) = 1, c q^i t^j den's
lowest term, Phi_1(u) taken as 1 - u and fac the sorted tuple of
((n, a, b), k).  The canonical form makes num and key unique, so equality
and hashing read them, and den is expanded only on demand (qt_ring._den).
Each factor is irreducible, so a numerator can share with den only factors
den already lists, and reduction is trial division by them:
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
outside the domain, and _fraction raises ValueError for it.  It factors
the denominator as given, before any cancellation, so a given den, or a
divisor's numerator, must factor itself, even where the value is in the
domain: QtRational(1 + q + t, 1 + q + t) raises.

Every operation returns its result in this form.  qt_sum is the one
addition: a + b is the two-term qt_sum((a, b)), and a sum of many
coefficients is one qt_sum, which reduces once per sum instead of once per
added term; since the form is unique, the result is the one term-by-term
addition gives.
"""

from __future__ import annotations

from fractions import Fraction

from .qt_ring import (_ONE_TERMS, _binomial, _cancel, _den, _fac_of,
                      _factor, _key, _lcm_sum, _p_eval, _p_str,
                      _parse_poly, _pmul, _pneg)

_ONE_KEY = (1, 0, 0, ())  # the key of the denominator 1

# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

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
    return QtRational._raw(*_cancel(n, (c, i, j, fac),
                                    () if coprime else fac))


def _terms(p):
    """p's nonzero terms as a new dict; a negative exponent raises."""
    p = {e: c for e, c in dict(p).items() if c}
    if any(min(e) < 0 for e in p):
        raise ValueError("negative exponent in %s" % p)
    return p


class QtRational:
    """Canonical reduced element of Q(q,t), in two slots: num, the
    numerator, and key, the denominator's (c, i, j, fac) (module docstring).
    den is a read-only property, key expanded.  num and den are never
    mutated, so values share them.  QtRational(num, den) reduces two
    polynomials by _fraction, and raises ValueError when den itself does
    not factor, as in QtRational(1 + q + t, 1 + q + t)."""

    __slots__ = ("num", "key")

    def __new__(cls, num, den=None):
        n = _terms(num)
        d = _ONE_TERMS if den is None else _terms(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        return _fraction(n, d) if n else ZERO

    # -- constructors --------------------------------------------------

    @classmethod
    def _raw(cls, num, key):
        x = object.__new__(cls)
        x.num = num
        x.key = key
        return x

    @classmethod
    def from_int(cls, n):
        if n == 0:
            return ZERO
        return cls._raw({(0, 0): n}, _ONE_KEY)

    @classmethod
    def monomial(cls, coeff=1, qexp=0, texp=0):
        """coeff * q**qexp * t**texp; negative exponents go to the denominator."""
        if coeff == 0:
            return ZERO
        return cls._raw({(max(qexp, 0), max(texp, 0)): coeff},
                        (1, max(-qexp, 0), max(-texp, 0), ()))

    @property
    def den(self):
        return _den(*self.key)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.key == _ONE_KEY and self.num == _ONE_TERMS

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QtRational):
            return NotImplemented
        return qt_sum((self, other))

    def __neg__(self):
        return QtRational._raw(_pneg(self.num), self.key)

    def __sub__(self, other):
        if not isinstance(other, QtRational):
            return NotImplemented
        return qt_sum((self, -other))

    def __mul__(self, other):
        if not isinstance(other, QtRational):
            if not isinstance(other, int):
                return NotImplemented
            other = QtRational.from_int(other)
        n1, k1 = self.num, self.key
        n2, k2 = other.num, other.key
        if not n1 or not n2:
            return ZERO
        # each numerator is coprime to its own denominator, so only the
        # other operand's factors can cancel from it; over 1, the other
        # key is the product's
        if k1 == _ONE_KEY:
            if k2 != _ONE_KEY:
                n1, k1 = _cancel(n1, k2, k2[3])
        elif k2 == _ONE_KEY:
            n2, k1 = _cancel(n2, k1, k1[3])
        else:
            n1, (c2, i2, j2, f2) = _cancel(n1, k2, k2[3])
            n2, (c1, i1, j1, f1) = _cancel(n2, k1, k1[3])
            exps = dict(f1)
            for key, k in f2:
                exps[key] = exps.get(key, 0) + k
            k1 = _key(c1 * c2, i1 + i2, j1 + j2, _fac_of(exps))
        return QtRational._raw(_pmul(n1, n2), k1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self times other's inverse, so other.num must factor as a den
        does: QtRational(1 + q + t, 1 - q) / QtRational(1 + q + t, 1 - t)
        raises ValueError, though the quotient is (1 - t)/(1 - q)."""
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
        and keeps c and fac.  den's highest term becomes the lowest."""
        if not self.num:
            return ZERO
        c, _, _, fac = self.key
        den = self.den
        dq, dt = max(den)
        sq = max(dq, max(e[0] for e in self.num))
        st = max(dt, max(e[1] for e in self.num))
        num = {(sq - e0, st - e1): v for (e0, e1), v in self.num.items()}
        if den[dq, dt] < 0:
            num = _pneg(num)
        return QtRational._raw(num, (c, sq - dq, st - dt, fac))

    # -- comparisons, hashing, printing -----------------------------------

    def __eq__(self, other):
        if isinstance(other, QtRational):
            return self.num == other.num and self.key == other.key
        if not isinstance(other, int):
            return NotImplemented
        if other == 0:
            return not self.num
        return self.key == _ONE_KEY and self.num == {(0, 0): other}

    def __hash__(self):
        # an integer value hashes as the int it equals
        if self.key == _ONE_KEY and self.num.keys() <= {(0, 0)}:
            return hash(self.num.get((0, 0), 0))
        return hash((frozenset(self.num.items()), self.key))

    def __str__(self):
        if self.key == _ONE_KEY:
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


ZERO = QtRational._raw({}, _ONE_KEY)
ONE = QtRational._raw({(0, 0): 1}, _ONE_KEY)
Q = QtRational._raw({(1, 0): 1}, _ONE_KEY)
T = QtRational._raw({(0, 1): 1}, _ONE_KEY)


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

    The values are grouped by their denominator's key and each group's
    numerators are added with no reduction.  One group (as in every sum of
    polynomial coefficients over one denominator) is reduced once over it.
    Several groups are brought to one lcm and the total is reduced once, by
    trial division over the lcm's factors that can cancel.  The form is
    unique, so the result is the one term-by-term addition gives."""
    for v in values:
        # zeros are rare, so the list is copied only when one is there
        if not v.num:
            values = [v for v in values if v.num]
            break
    if len(values) < 2:
        return values[0] if values else ZERO
    k0 = values[0].key
    for v in values:
        if v.key != k0:
            break
    else:
        num = _num_sum(values)
        if not num:
            return ZERO
        if k0 == _ONE_KEY:
            return QtRational._raw(num, _ONE_KEY)
        return QtRational._raw(*_cancel(num, k0, k0[3]))
    groups = {}
    for v in values:
        groups.setdefault(v.key, []).append(v)
    parts = []
    for key, g in groups.items():
        num = _num_sum(g)
        if num:
            parts.append((num, key, len(g) == 1))
    if not parts:
        return ZERO
    t, key, cands = _lcm_sum(parts)
    return QtRational._raw(*_cancel(t, key, cands)) if t else ZERO


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
    num = _den(c, max(i, 0), max(j, 0),
               _fac_of({key: max(k, 0) for key, k in exps.items()}))
    return QtRational._raw(num, (1, max(-i, 0), max(-j, 0),
                                 _fac_of({key: max(-k, 0)
                                          for key, k in exps.items()})))


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
