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
  * an inverse factors its new denominator by trial division over the
    factors that fit in its bidegree;
  * q -> 1/q, t -> 1/t maps each factor to itself up to a monomial.
Phi_n(q^a t^b) divides a polynomial exactly when it divides each class of
terms along the direction (a, b), a polynomial in u = q^a t^b
(qt_ring._fdiv).  Most trial divisions fail, and a failure is mostly seen
in one evaluation of the polynomial mod a prime at a point where q^a t^b
is a root of Phi_n; it raises no exception.

Every closed form msym states (norms and their inverses b_Lambda,
evaluations, inclusion and restriction factors, z_lambda(q,t) and its
inverse, c_Lambda, the E_eta step, the scale of P_Lambda) is a rational
times a monomial times a ratio of binomials 1 - q^a t^b: one qt_product
call, whose factors cancel by counting, with no trial division.

A fraction whose denominator's factorization is not known (QtRational(num,
den), parse_qt, an inverse) is made canonical by one function, _fraction.
It factors the denominator, divides the numerator exactly by the leftover
that has no factor Phi_n(q^a t^b), if any, and reduces by trial division;
an inverse needs no division, since its parts are coprime already.  A
quotient divides the leftover of the divisor's numerator out of the
dividend's numerator.  Only a value that is outside the domain, such as
1/(1 + q + t), raises ValueError: QtRational(1 + q + t, 1 + q + t) is 1.

Every operation returns its result in this form.  qt_sum is the one
addition: a + b is the two-term qt_sum((a, b)), and a sum of many
coefficients is one qt_sum, which reduces once per sum instead of once per
added term; since the form is unique, the result is the one term-by-term
addition gives.  qt_dot is the one sum of products, as in a scalar product
sum_L f_L g_L <p_L, p_L>: each product is its numerators' product over the
merged key, with no trial division, and the sum is reduced once, by the
same tail as qt_sum's, so a sum that is 0 makes no trial division at all.
_unit_times is the one product by a unit s q^a t^b: only monomials move.
A Hecke pass (hecke_ops._T_with) multiplies each term by _times, as a
(key, numerator) pair, and settles its output once, by _settle_pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .qt_ring import (_ONE_TERMS, _binomial, _cancel, _den, _fac_of,
                      _factor, _key, _key_product, _lcm_sum, _p_eval, _p_str,
                      _parse_poly, _pdivexact, _pmul, _pmul_into, _pneg)

_ONE_KEY = (1, 0, 0, ())  # the key of the denominator 1

# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

def _fraction(n, d, coprime=False):
    """The canonical n/d for nonzero n and d, d's factorization not known:
    d is factored over Phi_n(q^a t^b), n is divided exactly by the leftover
    r, then by d's factors.  coprime (n and d share no factor, as in an
    inverse) skips the trial division.  When r does not divide n, the value
    is outside the domain: ValueError."""
    key, r = _factor(d)
    if len(r) > 1:
        n = _divide_out(n, r, d)
    return _reduced(n, key, () if coprime else key[3])


def _divide_out(n, r, d):
    """n / r for a leftover r of the denominator d; ValueError when r does
    not divide n."""
    quot = _pdivexact(n, r)
    if quot is None:
        raise ValueError("denominator %s does not factor over 1 - q^a t^b"
                         % _p_str(d))
    return quot


def _reduced(n, key, cands):
    """The value n over key, its sign fixed and its common factors among
    cands cancelled."""
    c, i, j, fac = key
    if c < 0:
        n, key = _pneg(n), (-c, i, j, fac)
    return QtRational._raw(*_cancel(n, key, cands))


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
    polynomials by _fraction, and raises ValueError when num/den lies
    outside the domain."""

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
            n1, k2 = _cancel(n1, k2, k2[3])
            n2, k1 = _cancel(n2, k1, k1[3])
            k1 = _key_product(k1, k2)
        return QtRational._raw(_pmul(n1, n2), k1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self times other's inverse.  other.num may have a factor r
        outside the domain (qt_ring._factor's leftover): other.den is
        coprime to it, so the quotient lies in the domain only when r
        divides self.num, and it is divided out of both numerators first."""
        if not isinstance(other, QtRational):
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q,t)")
        if not self.num:
            return ZERO
        key, r = _factor(other.num)
        x = self if len(r) == 1 else QtRational._raw(
            _divide_out(self.num, r, other.num), self.key)
        return x * _reduced(other.den, key, ())

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


def _unit(x):
    """(s, a, b) when x is the unit s q^a t^b, s = +-1 and a, b any ints;
    None otherwise."""
    c, i, j, fac = x.key
    if len(x.num) != 1 or c != 1 or fac:
        return None
    ((e0, e1), s), = x.num.items()
    return (s, e0 - i, e1 - j) if s in (1, -1) else None


def _unit_times(x, s, a, b):
    """x * s q^a t^b for s = +-1 and any ints a, b: only monomials move.
    The power of q net of the key's multiplies the numerator or, if
    negative, cancels against the numerator's lowest power of q (0 when the
    key has q) and leaves the rest in the key.  Likewise for t."""
    num = x.num
    if not num:
        return ZERO
    c, i, j, fac = x.key
    a, b = a - i, b - j
    dq = a if a >= 0 else 0 if i else max(a, -min(e[0] for e in num))
    dt = b if b >= 0 else 0 if j else max(b, -min(e[1] for e in num))
    if dq or dt or s < 0:
        num = {(e0 + dq, e1 + dt): s * v for (e0, e1), v in num.items()}
    return QtRational._raw(num, _key(c, dq - a, dt - b, fac))


def _multiplier(g):
    """g as a multiplier of _times: (s, a, b) when g is the unit s q^a t^b
    with a, b >= 0, which shifts numerators; g itself otherwise."""
    u = _unit(g)
    return u if u and u[1] >= 0 and u[2] >= 0 else g


def _times(c, m):
    """The pair (key, num) of the nonzero c times the multiplier m
    (_multiplier): a unit shifts c's numerator over c's key, and the
    monomial it may then share with the key is cancelled by _settle_pairs;
    any other m is a product."""
    if m.__class__ is not tuple:
        p = c * m
        return p.key, p.num
    s, a, b = m
    num = c.num
    if a or b or s < 0:
        num = {(e0 + a, e1 + b): s * v for (e0, e1), v in num.items()}
    return c.key, num


def _settle_pairs(acc):
    """The values of an accumulation of _times pairs made by
    polyring._bump, as a new dict without the sums that cancel.  A lone
    pair is a reduced value times a unit, or a reduced product, so only its
    content and monomial can cancel; pairs over one key add their
    numerators and cancel over the key's factors; mixed keys go to
    _keyed_sum."""
    res = {}
    for e, v in acc.items():
        if v.__class__ is tuple:
            (key, num), cands = v, ()
        else:
            key = v[0][0]
            for k, _ in v:
                if k != key:
                    x = _keyed_sum(v)
                    key, num, cands = x.key, x.num, None
                    break
            else:
                num, cands = _num_sum([p[1] for p in v]), key[3]
        if num:
            if cands is not None and key != _ONE_KEY:
                num, key = _cancel(num, key, cands)
            res[e] = QtRational._raw(num, key)
    return res


def _num_sum(nums):
    """The sum of the numerators, with no reduction; a lone numerator
    comes back as it is, not copied."""
    if len(nums) == 1:
        return nums[0]
    num = dict(nums[0])
    for n in nums[1:]:
        for e, c in n.items():
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

    Values over one key (as in every sum of polynomial coefficients over
    one denominator) add their numerators and are reduced once over it;
    several keys go to _keyed_sum.  The form is unique, so the result is
    the one term-by-term addition gives."""
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
            return _keyed_sum([(v.key, v.num) for v in values])
    num = _num_sum([v.num for v in values])
    if not num:
        return ZERO
    if k0 == _ONE_KEY:
        return QtRational._raw(num, _ONE_KEY)
    return QtRational._raw(*_cancel(num, k0, k0[3]))


def _keyed_sum(pairs):
    """The reduced sum of the pairs (key, num), each num coprime to key's
    factors: each key's numerators are added, and the groups reduced once
    over their lcm (_parts_sum); a lone pair's group counts as reduced."""
    groups = {}
    for key, num in pairs:
        groups.setdefault(key, []).append(num)
    parts = []
    for key, nums in groups.items():
        num = _num_sum(nums)
        if num:
            parts.append((num, key, len(nums) == 1))
    return _parts_sum(parts)


def qt_dot(pairs):
    """The sum of a * b over the pairs (a, b) of QtRationals, reduced once:
    the one sum of products in Q(q,t).  Zero products are skipped, and a
    lone pair gives a * b, whose two-sided cancel is cheaper.

    Each product is its numerators' product over the merged key, with no
    trial division, and the products over one key add their numerators.
    A group is known to be coprime to its key only when it is one product
    with a monomial over 1; any other group keeps every factor of its key
    a candidate.  The groups are reduced once, as qt_sum's are, so a sum
    that is 0 makes no trial division at all."""
    pairs = [(a, b) for a, b in pairs if a.num and b.num]
    if len(pairs) < 2:
        return pairs[0][0] * pairs[0][1] if pairs else ZERO
    groups = {}
    for a, b in pairs:
        ka, kb = a.key, b.key
        key = (kb if ka == _ONE_KEY else ka if kb == _ONE_KEY
               else _key_product(ka, kb))
        g = groups.get(key)
        if g is None:
            # times a monomial over 1, a value stays coprime to its key
            reduced = (ka == _ONE_KEY and len(a.num) == 1
                       or kb == _ONE_KEY and len(b.num) == 1)
            groups[key] = [_pmul(a.num, b.num), reduced]
        else:
            _pmul_into(g[0], a.num, b.num)
            g[1] = None  # two products or more: zero terms may be left
    parts = []
    for key, (num, reduced) in groups.items():
        if reduced is None:
            num = {e: c for e, c in num.items() if c}
        if num:
            parts.append((num, key, bool(reduced)))
    return _parts_sum(parts)


def _parts_sum(parts):
    """The reduced sum of the parts (num, key, reduced) of a qt_sum or a
    qt_dot, each num nonzero and the keys distinct: one part is cancelled
    over its key, several are brought to their lcm (qt_ring._lcm_sum) and
    cancelled there."""
    if len(parts) == 1:
        (t, key, reduced), = parts
        cands = () if reduced else key[3]
    elif parts:
        t, key, cands = _lcm_sum(parts)
    else:
        return ZERO
    return QtRational._raw(*_cancel(t, key, cands)) if t else ZERO


def qt_product(c, i, j, ups, downs):
    """c q^i t^j prod_ups (1 - q^a t^b) / prod_downs (1 - q^a t^b) for a
    nonzero int or Fraction c, ints i, j and a, b >= 0: the one constructor
    of closed forms.  c's numerator joins the numerator, its denominator the
    denominator's key (the binomials' product has content 1).
    A (0, 0) pair gives ZERO in ups and raises ZeroDivisionError in downs.
    The binomials' factors (qt_ring._binomial) are irreducible, so they
    cancel by counting, and the factors left over with positive exponents
    make the numerator, those with negative ones the denominator.  When
    none cancels, the numerator is the product of the ups, one two-term
    product per binomial, with no Phi_n expanded."""
    exps = {}
    cancels = False
    for pairs, s in ((downs, -1), (ups, 1)):
        for a, b in pairs:
            if not (a or b):
                if s < 0:
                    raise ZeroDivisionError("1 - q^0 t^0 in a denominator")
                return ZERO
            for key in _binomial(a, b):
                k = exps.get(key, 0)
                cancels = cancels or k < 0 < s
                exps[key] = k + s
    if cancels:
        num = _den(c.numerator, max(i, 0), max(j, 0),
                   _fac_of({key: max(k, 0) for key, k in exps.items()}))
    else:
        num = {(max(i, 0), max(j, 0)): c.numerator}
        for a, b in ups:
            num = _pmul(num, {(0, 0): 1, (a, b): -1})
    return QtRational._raw(num, (c.denominator, max(-i, 0), max(-j, 0),
                                 _fac_of({key: max(-k, 0)
                                          for key, k in exps.items()})))


def parse_qt(s):
    """Parse the canonical text form, a polynomial or (polynomial)/(polynomial)
    in _parse_poly's terms, back into a QtRational.  Anything else raises
    ValueError, and so does a value outside the domain (_fraction)."""
    s = s.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        i = s.index(")/(")
        return QtRational(_parse_poly(s[1:i]), _parse_poly(s[i + 3:-1]))
    return QtRational(_parse_poly(s))
