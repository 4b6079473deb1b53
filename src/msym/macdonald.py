"""Construction of the non-symmetric Macdonald polynomials E_eta, the
non-symmetric Hall-Littlewood polynomials H_a, the m-symmetric Macdonald
polynomials P_Lambda with their integral form J_Lambda, eigenvalues, the
circle-to-square raising relation, and the q,t-inversion identity.

E_eta and H_a come from one memoized walk (_walk) and a rule each.  E_eta's
rule (Knop-Sahi) swaps a descent through T_i, or else raises E_theta by a
change of variables, E_eta = q^-s x_N E_theta(q x_N, x_1, .., x_{N-1})
with s = theta_1, which on the eigenfunction E_theta equals the cyclic
raising operator t^(N-r) Phi_q, r = r_theta(1); H_a's swaps an ascent
through T_i, or else is x^a.
Every constructed E_eta is monic at x^eta; eigen_cases states its
certificate (monic, Bruhat-triangular, Cherednik eigenfunction) as cases for
the verification runner.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import combinatorics, polyring, qt_ring
from .qt_field import QtRational, qt_product, qt_sum
from .polyring import DegreeGuardError, MultiPoly
from .combinatorics import MPartition, circle_rows, inversions, bruhat_less
from .hecke_ops import (_TINV, apply_T, apply_Y, apply_tau_K_Tbar,
                        symmetrize_t)


@dataclass(frozen=True)
class LabeledPoly:
    """A basis element: its label, realization, and basis kind (E/H/P/J)."""
    label: object
    poly: MultiPoly
    basis_kind: str


@dataclass(frozen=True)
class EigenvalueVector:
    """Joint eigenvalues (Y_1..Y_m, D) attached to an m-partition."""
    y_eigs: tuple
    d_eig: QtRational


def eta_bar(eta, i):
    """Eigenvalue of Y_i on E_eta: q^{eta_i} t^{1-r_eta(i)}."""
    r = circle_rows(eta)
    return QtRational.monomial(1, eta[i - 1], 1 - r[i - 1])


_E_CACHE = {}
_H_CACHE = {}
_P_CACHE = {}
# Every memo table clear_caches() empties: these, qt_ring's tables of
# cyclotomic polynomials, expanded denominators, roots of unity mod a prime
# and evaluation points, combinatorics' table of partitions, and the two
# structure appends here, because this module cannot import structure.
_CACHES = [_E_CACHE, _H_CACHE, _P_CACHE, qt_ring._PHI, qt_ring._EXPANDED,
           qt_ring._KEYS, qt_ring._ROOTS, qt_ring._POINTS,
           combinatorics._PARTITIONS]


def _walk(cache, key, rule):
    """cache[key], built after every missing key it depends on.  rule(k) is
    (dep, make): k's value is make(cache[dep]), or make(None) for dep None.
    The missing keys are gathered on an explicit stack, since MSYM_MAXDEG
    leaves the chain's length unbounded."""
    stack = []
    while key is not None and key not in cache:
        dep, make = rule(key)
        stack.append((key, make))
        key = dep
    value = cache.get(key)
    for k, make in reversed(stack):
        value = cache[k] = make(value)
    return value


def _E_rule(eta):
    """E_eta from E_nu across eta's first descent, else from E_theta by the
    raising step, else E_0 = 1."""
    n = len(eta)
    desc = next((i for i in range(n - 1) if eta[i] > eta[i + 1]), None)
    if desc is not None:
        nu = eta[:desc] + (eta[desc + 1], eta[desc]) + eta[desc + 2:]
        r = circle_rows(nu)
        # E_eta = t^{-1} (T_i - c) E_nu, i = desc + 1, c = (t-1)/(1-q^a t^b),
        # q^a t^b = eta_bar(nu, i+1)/eta_bar(nu, i), a, b > 0; beta = -c/t
        beta = qt_product(1, 0, -1, [(0, 1)],
                          [(nu[desc + 1] - nu[desc], r[desc] - r[desc + 1])])
        return nu, lambda ev: apply_T(ev, desc + 1, _TINV, beta)
    if any(eta):
        # the raising step as a substitution (Knop-Sahi):
        # E_eta = q^-s x_N E_theta(q x_N, x_1, .., x_{N-1}), s = theta_1
        theta = (eta[-1] - 1,) + eta[:-1]
        s = theta[0]
        return theta, lambda ev: MultiPoly._raw(n, {
            e[1:] + (e[0] + 1,):
                c * QtRational.monomial(1, e[0] - s, 0) if e[0] != s else c
            for e, c in ev.terms.items()})
    return None, lambda _: MultiPoly.one(n)


def _H_rule(a):
    """H_a = T_i H_{s_i a} across a's first ascent a_i < a_{i+1}, else x^a."""
    asc = next((i for i in range(len(a) - 1) if a[i] < a[i + 1]), None)
    if asc is None:
        return None, lambda _: MultiPoly.from_exponents(len(a), a)
    b = a[:asc] + (a[asc + 1], a[asc]) + a[asc + 2:]
    return b, lambda hb: apply_T(hb, asc + 1)


def _build_E(eta):
    # the raising steps multiply by x_1 without a product, so the degree
    # guard is checked here, before any Hecke step
    if sum(eta) > polyring._DEGREE_GUARD:
        raise DegreeGuardError("degree %d exceeds guard %d"
                               % (sum(eta), polyring._DEGREE_GUARD))
    return _walk(_E_CACHE, eta, _E_rule)


def clear_caches():
    for cache in _CACHES:
        cache.clear()


def eigen_cases(eta, poly):
    """The certificate that poly is E_eta, as (witness, lhs, rhs) cases:
    monic at x^eta, then (only for a monic poly) Bruhat-triangular and a
    Cherednik eigenfunction for every Y_i."""
    monic = poly.coefficient_of(eta).is_one()
    yield ("monic", eta), monic, True
    if not monic:
        return
    for nu in poly.terms:
        if nu != eta:
            yield ("triangular", eta, nu), bruhat_less(nu, eta), True
    for i in range(1, len(eta) + 1):
        yield ("eigen", eta, i), apply_Y(poly, i), poly.scale(eta_bar(eta, i))


def nonsym_E(eta):
    """The monic non-symmetric Macdonald polynomial E_eta in len(eta)
    variables."""
    eta = tuple(int(v) for v in eta)
    if any(v < 0 for v in eta):
        raise ValueError("composition entries must be nonnegative")
    return LabeledPoly(eta, _build_E(eta), "E")


def hall_littlewood_H(a):
    """Non-symmetric Hall-Littlewood polynomial H_a(x_1..x_m; t): x^a for
    dominant a, transported by T_i across descents otherwise."""
    a = tuple(int(v) for v in a)
    if any(v < 0 for v in a):
        raise ValueError("composition entries must be nonnegative")
    return LabeledPoly(a, _walk(_H_CACHE, a, _H_rule), "H")


def eta_for(mpart, N):
    """The composition (a_1..a_m, lam_{N-m}, ..., lam_1) fed to the
    symmetrizer (weakly increasing tail, zero-padded)."""
    m = mpart.m
    tail = [0] * (N - m - len(mpart.lam)) + list(reversed(mpart.lam))
    return mpart.a + tuple(tail)


def u_normalization(mpart, N):
    """u_{Lambda,N}(t) = t^binom(k,2) prod [n]_{1/t}! over the multiplicities
    n of the k = N - m parts of (lambda, 0, ..): the factor making P_Lambda
    monic, with [n]_{1/t}! = t^-binom(n,2) prod_{j<=n} (1-t^j)/(1-t)."""
    k = N - mpart.m
    counts = Counter(mpart.lam + (0,) * (k - len(mpart.lam))).values()
    return qt_product(1, 0, (k * (k - 1) - sum(n * (n - 1) for n in counts))
                      // 2, [(0, j) for n in counts for j in range(1, n + 1)],
                      [(0, 1)] * k)


def msym_P(mpart, N):
    """m-symmetric Macdonald polynomial P_Lambda in N variables (zero when
    N < m + length(lambda)); the coefficient of m_Lambda is checked to be 1
    on construction."""
    m = mpart.m
    if N < m:
        raise ValueError("need N >= m")
    if N < m + len(mpart.lam):
        return LabeledPoly(mpart, MultiPoly.zero(N), "P")
    key = (mpart, N)
    poly = _P_CACHE.get(key)
    if poly is None:
        eta = eta_for(mpart, N)
        sym = symmetrize_t(_build_E(eta), m)
        poly = sym.scale(u_normalization(mpart, N).inverse())
        lead = mpart.a + mpart.lam + (0,) * (N - m - len(mpart.lam))
        if not poly.coefficient_of(lead).is_one():
            raise AssertionError(
                "normalization failed: coefficient of m_%s is %s"
                % (mpart, poly.coefficient_of(lead)))
        _P_CACHE[key] = poly
    return LabeledPoly(mpart, poly, "P")


def _c_pairs(mpart):
    """(a(s), l(s) + 1) for each square s: c_Lambda's binomials."""
    return [(mpart.arm(s), mpart.leg(s) + 1) for s in mpart.cells()]


def integral_c(mpart):
    """c_Lambda(q,t) = prod over squares of (1 - q^{a(s)} t^{l(s)+1})."""
    return qt_product(1, 0, 0, _c_pairs(mpart), [])


def integral_J(mpart, N):
    """Integral form J_Lambda = c_Lambda P_Lambda."""
    p = msym_P(mpart, N)
    return LabeledPoly(mpart, p.poly.scale(integral_c(mpart)), "J")


def eigenvalues(mpart):
    """Joint eigenvalues: Y_i for i=1..m and the operator D."""
    y = tuple(eta_bar(mpart.a + mpart.lam, i) for i in range(1, mpart.m + 1))
    sizes = mpart.row_sizes()
    d = qt_sum([QtRational.monomial(1, sizes[r - 1], 1 - r)
                for r in range(1, mpart.nrows() + 1)
                if mpart.row_label(r) is None]
               + [QtRational.monomial(-1, 0, 1 - i)
                  for i in range(mpart.m + 1, mpart.m + len(mpart.lam) + 1)])
    return EigenvalueVector(y, d)


def psi_box_raise(mpart, N):
    """The raised (m-1)-partition Lambda-box and the power of t with
    Psi_N J_Lambda = t^{-#(j>=2: a_j <= a_1)} J_{Lambda-box}."""
    if mpart.m < 1:
        raise ValueError("needs at least one circle")
    a = mpart.a
    boxed = MPartition(a[1:], tuple(sorted(mpart.lam + (a[0] + 1,),
                                           reverse=True)))
    count = sum(1 for j in range(1, mpart.m) if a[j] <= a[0])
    return boxed, QtRational.monomial(1, 0, -count)


def invert_qt(mpart, N):
    """The q,t -> 1/q,1/t transform identity:
    q^{|a|} t^{Inv(a)} P_Lambda(x; 1/q, 1/t)
      = t^{binom(m,2)} tau_1..tau_m K_{w_m} Tbar_{w_m} P_Lambda(x; q, t).
    Returns both sides (lhs, rhs), each computed exactly."""
    m = mpart.m
    p = msym_P(mpart, N).poly
    lhs = p.invert_params().scale(
        QtRational.monomial(1, sum(mpart.a), inversions(mpart.a)))
    rhs = apply_tau_K_Tbar(p, m).scale(
        QtRational.monomial(1, 0, m * (m - 1) // 2))
    return lhs, rhs
