"""Sparse polynomials in x_1..x_N over Q(q,t), and the elementary variable
operators (specialization, embedding) the Hecke calculus builds on.

Exponent vectors are tuples of length nvars; no zero coefficients are stored.
Term order for printing/iteration is lexicographic on exponent vectors,
x_1-major, leading monomial first.

Every monomial substitution x_j -> q^w x_k (embedding in more variables, and
in hecke_ops and kernels the rotation omega, tau K_{w_m} and the y-alphabet
maps) is one call to _relabel, the single loop that moves exponents between
positions or scales by a q-power of them; the one exception is the E_eta
raising step, one comprehension in macdonald._E_rule.
"""

from __future__ import annotations

import os
from operator import itemgetter

from .qt_field import QtRational, ZERO, ONE, qt_sum
from .qt_ring import _signed_join

# Products, and macdonald._build_E before its first Hecke step, enforce this
# degree guard so runaway computations fail fast.  MSYM_MAXDEG overrides it.
_DEGREE_GUARD = int(os.environ.get("MSYM_MAXDEG", "12"))


class DegreeGuardError(RuntimeError):
    pass


def _bump(acc, e, v):
    """Collect the nonzero contribution v to acc[e] in a sparse {key:
    coefficient} dict; every accumulation ends with _settle(acc).  Nothing
    is added here: a key with one contribution holds it and a key with more
    holds their list.  Reduction happens in _settle, once per denominator
    group of each output coefficient, and gives the same canonical
    coefficients as adding term by term."""
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
        out[pick(e + (0,))] = c * QtRational.monomial(1, k, 0) if k else c
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
        da = self.total_degree()
        db = other.total_degree()
        if da + db > _DEGREE_GUARD:
            raise DegreeGuardError(
                "product degree %d exceeds guard %d" % (da + db, _DEGREE_GUARD))
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                _bump(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        return MultiPoly._raw(self.nvars, _settle(out))

    def scale(self, c):
        if not c or not self.terms:
            return MultiPoly.zero(self.nvars)
        if c.is_one():
            return self
        return MultiPoly._raw(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

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

    def map_coeff(self, fn):
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return MultiPoly._raw(self.nvars, out)

    def invert_params(self):
        """Substitute (q,t) -> (1/q, 1/t) in every coefficient."""
        return self.map_coeff(lambda c: c.invert_params())

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
        many = len(self.terms) > 1
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                ("x%d" % (k + 1)) if ek == 1 else ("x%d^%d" % (k + 1, ek))
                for k, ek in enumerate(e) if ek)
            cs = str(c)
            if not mono:
                s = "(%s)" % cs if many and (" " in cs or "/" in cs) else cs
            elif c.is_one():
                s = mono
            elif cs == "-1":
                s = "-" + mono
            else:
                if " " in cs or "/" in cs:
                    cs = "(%s)" % cs
                s = cs + "*" + mono
            parts.append(s)
        return _signed_join(parts)

    def __repr__(self):
        return "MultiPoly(%d: %s)" % (self.nvars, self)

    def to_json(self):
        return [{"exponents": list(e), "coeff": str(c)}
                for e, c in self.sorted_terms()]
