"""Bases of the ring of m-symmetric functions realized in finitely many
variables, the scalar product that makes the deformed power sums orthogonal,
closed norm/inclusion/restriction/evaluation formulas, and the sesquilinear
variant of the product.

Degree-d statements about m-symmetric functions are realized at the faithful
variable count N >= m + d, where the monomial basis m_Lambda with
length(lambda) <= N - m stays linearly independent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import math

from .qt_field import QtRational, ONE, ZERO, qt_product, qt_sum
from .polyring import MultiPoly, _bump, _settle, _sum_polys
from .combinatorics import (Cell, MPartition, enumerate_mpartitions,
                            inversions, coinversions, n_stat, circle_rows,
                            sort_desc, unique_permutations, dominance_key)
from .macdonald import msym_P, hall_littlewood_H, _CACHES, _c_pairs
from .hecke_ops import apply_tau_K_Tbar


@dataclass
class Expansion:
    """A finite expansion over m-partition labels in a named basis."""
    basis_kind: str
    m: int
    degree: int
    coeffs: dict

    def __getitem__(self, label):
        return self.coeffs.get(label, ZERO)

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: dominance_key(kv[0]))

    def to_json(self):
        return {
            "basis": self.basis_kind,
            "m": self.m,
            "degree": self.degree,
            "terms": [{"label": lab.to_json(), "coeff": str(c)}
                      for lab, c in self.items_sorted()],
        }


# ---------------------------------------------------------------------------
# basis realizations
# ---------------------------------------------------------------------------

def monomial_m(mpart, N):
    """m_Lambda = x^a m_lambda(x_{m+1}..x_N)."""
    m = mpart.m
    if N < m + len(mpart.lam):
        raise ValueError("N too small to realize m_%s" % mpart)
    shape = mpart.lam + (0,) * (N - m - len(mpart.lam))
    terms = {}
    for alpha in unique_permutations(shape):
        terms[mpart.a + alpha] = ONE
    return MultiPoly(N, terms)


def powersum(k, N):
    """p_k(x_1..x_N)."""
    terms = {}
    for i in range(N):
        e = [0] * N
        e[i] = k
        terms[tuple(e)] = ONE
    return MultiPoly(N, terms)


def powersum_t(mpart, N):
    """p_Lambda(x;t) = H_a(x;t) p_lambda(x_1..x_N)."""
    m = mpart.m
    if N < m:
        raise ValueError("need N >= m")
    f = hall_littlewood_H(mpart.a).poly.extend(N) if m else MultiPoly.one(N)
    for part in mpart.lam:
        f = f * powersum(part, N)
    return f


def m_coords(f, m, verify=True):
    """Coefficients of f on the m_Lambda basis, read off representative
    exponents; verify=True rejects polynomials outside R_m."""
    N = f.nvars
    coords = {}
    for e, c in f.terms.items():
        suff = tuple(sorted(e[m:], reverse=True))
        if e[m:] == suff:
            coords[MPartition(e[:m], suff)] = c
    if verify:
        recon = _sum_polys(N, [monomial_m(lab, N).scale(c)
                               for lab, c in coords.items()])
        if recon != f:
            raise ValueError("polynomial is not symmetric in x_%d..x_%d"
                             % (m + 1, N))
    return coords


_BASIS_INVERSE_CACHE = {}
_CACHES.append(_BASIS_INVERSE_CACHE)


def _basis_poly(basis_kind, label, N):
    if basis_kind == "p_Lambda_t":
        return powersum_t(label, N)
    if basis_kind == "P_Lambda":
        return msym_P(label, N).poly
    if basis_kind == "m_Lambda":
        return monomial_m(label, N)
    raise ValueError("unknown basis %r" % basis_kind)


def _basis_inverse(basis_kind, m, degree, N):
    """For each m-partition label Omega, the expansion of m_Omega in the
    requested basis (columns of the inverse transition matrix)."""
    key = (basis_kind, m, degree, N)
    cached = _BASIS_INVERSE_CACHE.get(key)
    if cached is not None:
        return cached
    labels = enumerate_mpartitions(m, degree, max_sym_length=N - m)
    cols = {lab: m_coords(_basis_poly(basis_kind, lab, N), m, verify=False)
            for lab in labels}
    # Gauss-Jordan on the augmented rows [A | I] -> [I | A^-1], where column
    # L of A holds basis_L over the m-basis
    n = len(labels)
    rows = [[cols[lab].get(row, ZERO) for lab in labels]
            + [ONE if i == j else ZERO for j in range(n)]
            for i, row in enumerate(labels)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        d = rows[col][col].inverse()
        rows[col] = [v * d for v in rows[col]]
        for r, row in enumerate(rows):
            if r != col and (c := row[col]):
                rows[r] = [a - c * b for a, b in zip(row, rows[col])]
    # column Omega of the inverse: m_Omega = sum_L A^-1[L][Omega] basis_L
    out = {om: {lab: v for lab, row in zip(labels, rows) if (v := row[n + j])}
           for j, om in enumerate(labels)}
    _BASIS_INVERSE_CACHE[key] = out
    return out


def expand_in_basis(f, m, basis_kind, verify=True):
    """Exact expansion of a homogeneous f (realized at faithful N) over the
    named basis."""
    if f.is_zero():
        return Expansion(basis_kind, m, 0, {})
    if not f.is_homogeneous():
        raise ValueError("expansion needs a homogeneous polynomial")
    degree = f.total_degree()
    N = f.nvars
    if N < m + degree:
        raise ValueError("need N >= m + degree for a faithful expansion")
    coords = m_coords(f, m, verify=verify)
    if basis_kind == "m_Lambda":
        return Expansion(basis_kind, m, degree,
                         {lab: c for lab, c in coords.items() if c})
    inverse = _basis_inverse(basis_kind, m, degree, N)
    out = {}
    for om, c in coords.items():
        for lab, v in inverse[om].items():
            _bump(out, lab, c * v)
    return Expansion(basis_kind, m, degree, _settle(out))


# ---------------------------------------------------------------------------
# scalar products and norms
# ---------------------------------------------------------------------------

def z_lambda_qt(lam):
    """z_lambda(q,t) = z_lambda prod (1-q^{lam_i})/(1-t^{lam_i})."""
    z = 1
    for i, mult in Counter(lam).items():
        z *= i ** mult * math.factorial(mult)
    return qt_product(z, 0, 0, [(part, 0) for part in lam],
                      [(0, part) for part in lam])


_P_WEIGHT_CACHE = {}
_CACHES.append(_P_WEIGHT_CACHE)


def p_weight(mpart):
    """<p_Lambda, p_Lambda>_m = q^{|a|} t^{Inv(a)} z_lambda(q,t), memoized
    per label."""
    w = _P_WEIGHT_CACHE.get(mpart)
    if w is None:
        w = QtRational.monomial(1, sum(mpart.a), inversions(mpart.a)) \
            * z_lambda_qt(mpart.lam)
        _P_WEIGHT_CACHE[mpart] = w
    return w


def pair_p_coeffs(ef, eg):
    """<f, g>_m from the p_Lambda_t coefficients {label: coeff} of f and g:
    the sum over common labels of f_L g_L <p_L, p_L>_m."""
    small, big = (ef, eg) if len(ef) <= len(eg) else (eg, ef)
    return qt_sum([c * caff * p_weight(lab) for lab, c in small.items()
                   if (caff := big.get(lab))])


def scalar_product_m(f, g, m, verify=True):
    """The R_m scalar product, computed through the deformed power sums."""
    if f.nvars != g.nvars:
        raise ValueError("operands realized in different variable counts")
    gc = g.homogeneous_components()
    return qt_sum([
        pair_p_coeffs(expand_in_basis(fd, m, "p_Lambda_t", verify).coeffs,
                      expand_in_basis(gc[d], m, "p_Lambda_t", verify).coeffs)
        for d, fd in f.homogeneous_components().items() if d in gc])


def norm_formula(mpart):
    """Closed form of <P_Lambda, P_Lambda>_m:
    q^{|a|} t^{Inv(a)} prod (1-q^{a~(s)+1} t^{l~(s)}) / (1-q^{a(s)} t^{l(s)+1})."""
    return qt_product(1, sum(mpart.a), inversions(mpart.a),
                      _norm_pairs(mpart), _c_pairs(mpart))


def _norm_pairs(mpart):
    """(a~(s) + 1, l~(s)) for each square s: the norm's numerator."""
    return [(mpart.arm_tilde(s) + 1, mpart.leg_tilde(s))
            for s in mpart.cells()]


def sesquilinear_product(f, g, m, verify=True):
    """<f,g>' = t^{-binom(m,2)} <f, conj(tau_1..tau_m K_w Tbar_w g)>_m with
    conj inverting q and t; diagonal on P_Lambda with value 1/c-type product."""
    h = apply_tau_K_Tbar(g, m).invert_params()
    val = scalar_product_m(f, h, m, verify=verify)
    return val * QtRational.monomial(1, 0, -(m * (m - 1) // 2))


# ---------------------------------------------------------------------------
# inclusion and restriction
# ---------------------------------------------------------------------------

def inclusion_coeffs(mpart):
    """i(P_Lambda) = sum psi_{Omega/Lambda} P_Omega over (m+1)-partitions
    Omega obtained by circling a symmetric row."""
    m = mpart.m
    out = {}
    for b in sorted(set(mpart.lam) | {0}, reverse=True):
        lam_rest = list(mpart.lam)
        if b:
            lam_rest.remove(b)
        omega = MPartition(mpart.a + (b,), tuple(lam_rest))
        col = b + 1
        cells = [Cell(r, col) for r in range(1, omega.nrows() + 1)
                 if omega.row_sizes()[r - 1] >= col
                 and omega.row_label(r) is None]
        out[omega] = qt_product(
            1, 0, 0, [(mpart.arm(s) + 1, mpart.leg_tilde(s)) for s in cells],
            [(omega.arm(s) + 1, omega.leg_tilde(s)) for s in cells])
    return Expansion("P_Lambda", m + 1, mpart.degree(), out)


def restriction(mpart):
    """r(P_Lambda) for an (m+1)-partition Lambda: the m-partition obtained by
    discarding the last circle together with the closed-form factor."""
    if mpart.m < 1:
        raise ValueError("restriction needs at least one circle")
    a = mpart.a
    last = a[-1]
    hat = MPartition(a[:-1], tuple(sorted(mpart.lam + (last,), reverse=True)))
    return hat, qt_product(1, last, sum(1 for v in a[:-1] if v < last),
                           _c_pairs(hat), _c_pairs(mpart))


def restrict_poly(f, m):
    """Operational restriction R_{m+1} -> R_m: set x_{m+1} = 0 and renumber
    the subsequent variables down."""
    return f.drop_var(m + 1)


# ---------------------------------------------------------------------------
# evaluations
# ---------------------------------------------------------------------------

def principal_point(N):
    """The principal specialization point (1, t, ..., t^{N-1})."""
    return [QtRational.monomial(1, 0, i) for i in range(N)]


def principal_specialization(mpart, N):
    """Closed form of P_Lambda(1, t, ..., t^{N-1})."""
    m = mpart.m
    if N < m + len(mpart.lam):
        raise ValueError("need N >= m + length(lambda)")
    # the (1-t)^m of [N-m]_t!/[N]_t! = prod_{j=N-m+1..N} (1-t)/(1-t^j)
    # cancels the 1/(1-t) of each circle, whose arm and leg are 0
    return qt_product(1, 0, mpart.n_stat() - coinversions(mpart.a),
                      [(s.col - 1, N - s.row + 1)
                       for s in mpart.cells_with_circles()],
                      [(0, j) for j in range(N - m + 1, N + 1)]
                      + _c_pairs(mpart))


def principal_specialization_e(eta, N):
    """Closed form of E_eta(1, t, ..., t^{N-1}):
    t^{n(eta+) + Inv(eta)} prod over squares of
    (1-q^{a(s)} t^{N-l'(s)}) / (1-q^{a(s)} t^{l(s)+1})."""
    if len(eta) != N:
        raise ValueError("eta must have N parts")
    diag = MPartition(tuple(eta), ())
    return qt_product(1, 0, n_stat(sort_desc(eta)) + inversions(eta),
                      [(diag.arm(s), N - s.row + 1) for s in diag.cells()],
                      _c_pairs(diag))


def evaluation_point(mpart, N):
    """The u_Lambda substitution: x_i = q^{-gamma_i} t^{r(i)-1} for
    gamma = (a, lambda, 0...)."""
    m = mpart.m
    if N < m + len(mpart.lam):
        raise ValueError("need N >= m + length(lambda)")
    gamma = mpart.a + mpart.lam + (0,) * (N - m - len(mpart.lam))
    rows = circle_rows(gamma)
    return [QtRational.monomial(1, -gamma[i], rows[i] - 1) for i in range(N)]


def evaluation_u(mpart, f):
    """u_Lambda(f): evaluate f at the m-partition's spectral point."""
    return f.substitute(evaluation_point(mpart, f.nvars))


# ---------------------------------------------------------------------------
# Gram-Schmidt characterization
# ---------------------------------------------------------------------------

def gram_schmidt_basis(m, degree, N):
    """Orthogonalize the monomial basis in a dominance-compatible order with
    respect to <.,.>_m; returns {label: polynomial}."""
    labels = enumerate_mpartitions(m, degree, max_sym_length=N - m)
    done = []
    out = {}
    norms = {}
    for lab in labels:
        g = monomial_m(lab, N)
        for prev in done:
            c = scalar_product_m(g, out[prev], m, verify=False) / norms[prev]
            if c:
                g = g - out[prev].scale(c)
        out[lab] = g
        norms[lab] = scalar_product_m(g, g, m, verify=False)
        done.append(lab)
    return out
