"""Sparse polynomials in x_1..x_N over Q(q,t), and the elementary variable
operators (specialization, embedding) the Hecke calculus builds on.

Exponent vectors are tuples of length nvars; no zero coefficients are stored.
Term order for printing/iteration is lexicographic on exponent vectors,
x_1-major, leading monomial first.

Every monomial substitution x_j -> q^w x_k (embedding in more variables,
hecke_ops' omega and tau K_{w_m}, and the Cauchy left side's
y_j -> q y_{m+1-j}) is one call to _relabel, the single loop that moves
exponents between positions or scales by a q-power of them, a unit product
(qt_field._unit_times); the one exception is the E_eta raising step, one
comprehension in macdonald._E_step.
"""

from __future__ import annotations

import os
from operator import itemgetter

from .qt_field import QtRational, ZERO, ONE, _unit, _unit_times, qt_sum
from .qt_ring import _signed_join, _term_str

# Products, macdonald._build_E and kernels' K_0 table check this degree guard
# (_check_degree) before any work, so runaway computations fail fast.
# MSYM_MAXDEG overrides it.
_DEGREE_GUARD = int(os.environ.get("MSYM_MAXDEG", "12"))


class DegreeGuardError(RuntimeError):
    pass


def _check_degree(d, what="degree"):
    """Raise DegreeGuardError when the degree d exceeds the guard."""
    if d > _DEGREE_GUARD:
        raise DegreeGuardError("%s %d exceeds guard %d"
                               % (what, d, _DEGREE_GUARD))


def _bump(acc, e, v):
    """Collect the nonzero contribution v to acc[e] in a sparse {key:
    coefficient} dict: a key with one contribution holds it and a key with
    more holds their list.  Nothing is added here.  An accumulation of
    values ends with _settle(acc), which reduces once per denominator
    group of each output coefficient, to the canonical form that adding
    term by term gives; a Hecke pass collects (key, numerator) pairs and
    ends with qt_field._settle_pairs."""
    prev = acc.get(e)
    if prev is None:
        acc[e] = v
    elif prev.__class__ is list:
        prev.append(v)
    else:
        acc[e] = [prev, v]


def _settle(acc):
    """Finish an accumulation made by _bump, in place, and return acc: each
    collected list becomes its qt_sum, and sums that cancel are dropped."""
    zeros = []
    for e, v in acc.items():
        if v.__class__ is list:
            s = qt_sum(v)
            if s:
                acc[e] = s
            else:
                zeros.append(e)
    for e in zeros:
        del acc[e]
    return acc


def _relabel(f, src, qexp):
    """f with position k of each exponent taken from f's position src[k]
    (-1: a new variable, exponent 0), each term c x^e also gaining
    q^(w e_j) for every (j, w) in qexp.  src names each position of f at
    most once, so terms stay distinct and none is collected.  Exponents are
    read from e + (0,), where index -1 is the new variable's 0."""
    pick = itemgetter(*src) if len(src) > 1 else (
        lambda e: tuple(e[s] for s in src))
    out = {}
    for e, c in f.terms.items():
        k = 0
        for j, w in qexp:
            k += w * e[j]
        out[pick(e + (0,))] = _unit_times(c, 1, k, 0) if k else c
    return MultiPoly._raw(len(src), out)


def _sum_polys(nvars, polys):
    """The sum of MultiPolys in nvars variables, one accumulation for all of
    them."""
    out = {}
    for p in polys:
        for e, c in p.terms.items():
            _bump(out, e, c)
    return MultiPoly._raw(nvars, _settle(out))


class MultiPoly:
    """Immutable sparse polynomial over QtRational."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        t = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent vector length != nvars")
                if c:
                    t[tuple(e)] = c
        self.terms = t

    @classmethod
    def _raw(cls, nvars, terms):
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls._raw(nvars, {(0,) * nvars: ONE})

    @classmethod
    def variable(cls, nvars, i):
        """x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise IndexError("variable index out of range")
        e = [0] * nvars
        e[i - 1] = 1
        return cls._raw(nvars, {tuple(e): ONE})

    @classmethod
    def from_exponents(cls, nvars, expvec):
        if len(expvec) != nvars:
            raise ValueError("exponent vector length != nvars")
        return cls._raw(nvars, {tuple(expvec): ONE})

    # -- basic structure --------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_components(self):
        """dict degree -> MultiPoly."""
        out = {}
        for e, c in self.terms.items():
            out.setdefault(sum(e), {})[e] = c
        return {d: MultiPoly._raw(self.nvars, t) for d, t in sorted(out.items())}

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other):
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch: %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same(other)
        return _sum_polys(self.nvars, (self, other))

    def __neg__(self):
        return MultiPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same(other)
        return _sum_polys(self.nvars, (self, -other))

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.nvars)
        _check_degree(self.total_degree() + other.total_degree(),
                      "product degree")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                _bump(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        return MultiPoly._raw(self.nvars, _settle(out))

    def scale(self, c):
        """self times c, a QtRational or an int; a unit s q^a t^b makes no
        product (qt_field._unit_times)."""
        if isinstance(c, int):
            c = QtRational.from_int(c)
        elif not isinstance(c, QtRational):
            raise TypeError("cannot scale by %r" % (c,))
        if not c or not self.terms:
            return MultiPoly.zero(self.nvars)
        if c.is_one():
            return self
        u = _unit(c)
        return MultiPoly._raw(self.nvars, {
            e: v * c if u is None else _unit_times(v, *u)
            for e, v in self.terms.items()})

    # -- variable operators -------------------------------------------------

    def _check_index(self, i):
        if not 1 <= i <= self.nvars:
            raise IndexError("variable index %d out of range 1..%d" % (i, self.nvars))

    def drop_var(self, i):
        """Set x_i = 0 and renumber the later variables down by one."""
        self._check_index(i)
        i -= 1
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                continue
            out[e[:i] + e[i + 1:]] = c
        return MultiPoly._raw(self.nvars - 1, out)

    def extend(self, nvars):
        """View in a larger variable set (new trailing variables unused)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink; use drop_var")
        if nvars == self.nvars:
            return self
        pad = [-1] * (nvars - self.nvars)
        return _relabel(self, [*range(self.nvars), *pad], ())

    def coefficient_of(self, expvec):
        if len(expvec) != self.nvars:
            raise ValueError("exponent vector length != nvars")
        return self.terms.get(tuple(expvec), ZERO)

    def invert_params(self):
        """Substitute (q,t) -> (1/q, 1/t) in every coefficient."""
        return MultiPoly._raw(self.nvars, {e: c.invert_params()
                                           for e, c in self.terms.items()})

    def substitute(self, values):
        """Full evaluation: values[i] is a QtRational for x_{i+1}."""
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
        vals = []
        powcache = [{0: ONE} for _ in range(self.nvars)]
        for e, c in self.terms.items():
            v = c
            for k, ek in enumerate(e):
                if ek:
                    pc = powcache[k]
                    if ek not in pc:
                        p = pc[max(pc)]
                        for j in range(max(pc) + 1, ek + 1):
                            p = p * values[k]
                            pc[j] = p
                    v = v * pc[ek]
            vals.append(v)
        return qt_sum(vals)

    # -- printing -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self):
        # a sum or fraction is bracketed before a monomial or among terms
        many = len(self.terms) > 1
        names = ["x%d" % k for k in range(1, self.nvars + 1)]
        parts = []
        for e, c in self.sorted_terms():
            cs = str(c)
            if (many or any(e)) and (" " in cs or "/" in cs):
                cs = "(%s)" % cs
            parts.append(_term_str(cs, names, e))
        return _signed_join(parts)

    def __repr__(self):
        return "MultiPoly(%d: %s)" % (self.nvars, self)

    def to_json(self):
        return [{"exponents": list(e), "coeff": str(c)}
                for e, c in self.sorted_terms()]
