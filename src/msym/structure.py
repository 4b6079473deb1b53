"""Bases of the ring of m-symmetric functions realized in finitely many
variables, the scalar product that makes the deformed power sums orthogonal,
closed norm/inclusion/restriction/evaluation formulas, and the sesquilinear
variant of the product.

Degree-d statements about m-symmetric functions are realized at the faithful
variable count N >= m + d, where the monomial basis m_Lambda with
length(lambda) <= N - m stays linearly independent.  msym_P builds each
P_Lambda at N = m + |Lambda| and lifts it to any larger N by orbits
(macdonald._lift).

m-coordinates are keyed by a + lambda (m_coords) at every such N, so A^-1
(A: a basis over m_Lambda) and the m-basis Gram matrix A^-T diag(<p_L, p_L>_m)
A^-1 are built once at m + d and kept in _BASIS_INVERSE_CACHE by (kind, m, d).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import math

from .qt_field import QtRational, ONE, ZERO, qt_dot, qt_product, qt_sum
from .polyring import MultiPoly, _bump, _settle, _sum_polys
from .combinatorics import (Cell, MPartition, enumerate_mpartitions,
                            inversions, coinversions, n_stat, circle_rows,
                            sort_desc, dominance_key, is_orbit_rep)
from .macdonald import msym_P, hall_littlewood_H, _CACHES, _c_pairs, _lift
from .hecke_ops import apply_tau_K_Tbar


@dataclass
class Expansion:
    """A finite expansion over m-partition labels in a named basis."""
    basis_kind: str
    m: int
    degree: int
    coeffs: dict

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
    """m_Lambda = x^a m_lambda(x_{m+1}..x_N): its one representative term
    x^a x^lambda, lifted to its orbit."""
    n = mpart.m + len(mpart.lam)
    if N < n:
        raise ValueError("N too small to realize m_%s" % mpart)
    return _lift(MultiPoly(n, {mpart.a + mpart.lam: ONE}), mpart.m, N)


def _powersum_counts(lam, N):
    """The integer counts [x^mu] p_lambda(x_1..x_N), one part at a time: the
    one expansion of p_lambda, for powersum_t and kernels' K_0 table
    (_k0_reps)."""
    counts = {(0,) * N: 1}
    for part in lam:
        nxt = {}
        for e, c in counts.items():
            for i in range(N):
                f = e[:i] + (e[i] + part,) + e[i + 1:]
                nxt[f] = nxt.get(f, 0) + c
        counts = nxt
    return counts


def powersum_t(mpart, N):
    """p_Lambda(x;t) = H_a(x;t) p_lambda(x_1..x_N): one product, which
    checks the degree guard, with p_lambda from its integer counts."""
    m = mpart.m
    if N < m:
        raise ValueError("need N >= m")
    f = hall_littlewood_H(mpart.a).poly.extend(N) if m else MultiPoly.one(N)
    if mpart.lam:
        f = f * MultiPoly(N, {e: QtRational.from_int(c) for e, c
                              in _powersum_counts(mpart.lam, N).items()})
    return f


def m_coords(f, m, verify=True):
    """Coefficients of f on the m_Lambda basis, keyed by a + lambda and read
    off representative exponents; verify=True rejects f outside R_m."""
    if verify and _lift(f, m, f.nvars) != f:
        raise ValueError("polynomial is not symmetric in x_%d..x_%d"
                         % (m + 1, f.nvars))
    return {e[:m] + tuple(filter(None, e[m:])): c
            for e, c in f.terms.items() if is_orbit_rep(e, m)}


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


def _basis_inverse(basis_kind, m, degree):
    """For each key a + lambda of Omega, the expansion of m_Omega in the
    requested basis: the columns of A^-1, built at N = m + degree."""
    key = (basis_kind, m, degree)
    cached = _BASIS_INVERSE_CACHE.get(key)
    if cached is not None:
        return cached
    labels = enumerate_mpartitions(m, degree)
    cols = {lab: m_coords(_basis_poly(basis_kind, lab, m + degree), m,
                          verify=False) for lab in labels}
    # Gauss-Jordan on the augmented rows [A | I] -> [I | A^-1], where column
    # L of A holds basis_L over the m-basis
    n = len(labels)
    keys = [lab.a + lab.lam for lab in labels]
    rows = [[cols[lab].get(row, ZERO) for lab in labels]
            + [ONE if i == j else ZERO for j in range(n)]
            for i, row in enumerate(keys)]
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
           for j, om in enumerate(keys)}
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
    if f.nvars < m + degree:
        raise ValueError("need N >= m + degree for a faithful expansion")
    coords = m_coords(f, m, verify=verify)
    if basis_kind == "m_Lambda":
        return Expansion(basis_kind, m, degree,
                         {MPartition(e[:m], e[m:]): c
                          for e, c in coords.items() if c})
    return Expansion(basis_kind, m, degree, _change_basis(
        coords, _basis_inverse(basis_kind, m, degree)))


def _change_basis(coords, inverse):
    """{label: coeff} over a basis from the m-coordinates and the columns
    of the inverse transition matrix."""
    out = {}
    for om, c in coords.items():
        for lab, v in inverse[om].items():
            _bump(out, lab, c * v)
    return _settle(out)


# ---------------------------------------------------------------------------
# scalar products and norms
# ---------------------------------------------------------------------------

def _z_lambda(lam):
    """The integer z_lambda = prod_i i^{m_i} m_i!, m_i the multiplicity of
    i in lam."""
    z = 1
    for i, mult in Counter(lam).items():
        z *= i ** mult * math.factorial(mult)
    return z


def z_lambda_qt(lam):
    """z_lambda(q,t) = z_lambda prod (1-q^{lam_i})/(1-t^{lam_i})."""
    return qt_product(_z_lambda(lam), 0, 0, [(part, 0) for part in lam],
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
    return qt_dot([(c, caff * p_weight(lab)) for lab, c in small.items()
                   if (caff := big.get(lab))])


def _gram(m, degree):
    """The m-basis Gram matrix {Omega: {Omega': <m_Omega, m_Omega'>_m}} on
    the keys a + lambda, nonzero entries only: G = A^-T diag(<p_L, p_L>_m)
    A^-1 from the columns of A^-1, one qt_dot per symmetric pair.  It is
    kept in _BASIS_INVERSE_CACHE, so clearing that table drops both."""
    key = ("gram", m, degree)
    G = _BASIS_INVERSE_CACHE.get(key)
    if G is not None:
        return G
    inv = _basis_inverse("p_Lambda_t", m, degree)
    G = {om: {} for om in inv}
    keys = list(inv)
    for i, a in enumerate(keys):
        wa = {lab: v * p_weight(lab) for lab, v in inv[a].items()}
        for b in keys[i:]:
            col = inv[b]
            if v := qt_dot([(w, col[lab]) for lab, w in wa.items()
                            if lab in col]):
                G[a][b] = G[b][a] = v
    _BASIS_INVERSE_CACHE[key] = G
    return G


def scalar_product_m(f, g, m, verify=True):
    """The R_m scalar product from the m-coordinates f_m, g_m of each common
    degree.  The Gram form f_m^T G g_m (_gram: one qt_dot per row, over the
    smaller operand's coordinates, and one for the total) is taken when its
    |f_m| |g_m| products are at most the A^-1 entries that expanding both
    sides over p_Lambda(x;t) reads; two dense operands keep that expansion
    (pair_p_coeffs), which needs fewer products there."""
    if f.nvars != g.nvars:
        raise ValueError("operands realized in different variable counts")
    N = f.nvars
    gc = g.homogeneous_components()
    values = []
    for d, fd in f.homogeneous_components().items():
        if d not in gc:
            continue
        if N < m + d:
            raise ValueError("need N >= m + degree for a faithful expansion")
        cf, cg = m_coords(fd, m, verify), m_coords(gc[d], m, verify)
        inv = _basis_inverse("p_Lambda_t", m, d)
        if len(cf) * len(cg) <= (sum(len(inv[om]) for om in cf)
                                 + sum(len(inv[om]) for om in cg)):
            G = _gram(m, d)
            if len(cf) < len(cg):
                cf, cg = cg, cf
            values.append(qt_dot([
                (c, qt_dot([(row[b], v) for b, v in cg.items() if b in row]))
                for a, c in cf.items() if (row := G[a])]))
        else:
            values.append(pair_p_coeffs(_change_basis(cf, inv),
                                        _change_basis(cg, inv)))
    return qt_sum(values)


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
    respect to <.,.>_m; returns {label: polynomial}.  The earlier outputs
    are orthogonal, so each projection coefficient is read from m_Lambda
    itself, and each output is one accumulation."""
    labels = enumerate_mpartitions(m, degree, max_sym_length=N - m)
    out = {}
    norms = {}
    for lab in labels:
        mono = monomial_m(lab, N)
        proj = [p.scale(-c) for prev, p in out.items()
                if (c := scalar_product_m(mono, p, m, verify=False)
                    / norms[prev])]
        g = _sum_polys(N, [mono, *proj])
        out[lab] = g
        norms[lab] = scalar_product_m(g, g, m, verify=False)
    return out
