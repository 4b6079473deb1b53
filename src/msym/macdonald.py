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
P_Lambda past N = m + |Lambda| variables, and E_eta past a trailing zero
block longer than max(|eta|, 1), are built in fewer variables and lifted
by orbits (_lift), by two theorems: both are symmetric in their tail
(T_i E_eta = t E_eta where eta_i = eta_{i+1}), and stable, E_(eta,0)(x, 0)
= E_eta(x) (Knop 1997, Sahi 1996) and likewise P_Lambda.  A degree-d
monomial has at most d nonzero tail entries, so its orbit has a
representative in the smaller count.
Every constructed E_eta is monic at x^eta; eigen_cases states its
certificate (monic, Bruhat-triangular, Cherednik eigenfunction) as cases for
the verification runner.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import combinatorics, qt_ring
from .qt_field import QtRational, _unit_times, qt_product, qt_sum
from .polyring import MultiPoly, _check_degree
from .combinatorics import MPartition, circle_rows, inversions, bruhat_less
from .hecke_ops import (_TINV, _T_with, apply_Lprime, apply_T, apply_Y,
                        apply_tau_K_Tbar)


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
# Every memo table clear_caches() empties, eleven in all: these, qt_ring's
# tables of cyclotomic polynomials, expanded denominators, shared keys,
# points mod a prime and lcm plans, combinatorics' table of partitions, and
# the two that structure appends here, since this module cannot import
# structure.
_CACHES = [_E_CACHE, _H_CACHE, _P_CACHE, qt_ring._PHI, qt_ring._EXPANDED,
           qt_ring._KEYS, qt_ring._POINTS, qt_ring._PLANS,
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


def _lift(f, k, N):
    """f in N variables, symmetric after x_k: each term of f at a
    k-representative (combinatorics.is_orbit_rep), zero-padded to N, is
    written out to its orbit."""
    pad = (0,) * (N - f.nvars)
    return MultiPoly._raw(N, {g: c for e, c in f.terms.items()
                              if combinatorics.is_orbit_rep(e, k)
                              for g in combinatorics.orbit(e + pad, k)})


def _E_rule(eta):
    """E_eta for eta = (eta_1..eta_k, 0^r), eta_k > 0, with r > d =
    max(|eta|, 1): E_{eta[:k+d]} lifted to len(eta) variables, as E_eta is
    symmetric in the zero block and stable, and each orbit of its monomials
    has a representative in k + d variables.  Otherwise _E_step."""
    n, d = len(eta), max(sum(eta), 1)
    k = max((i + 1 for i, v in enumerate(eta) if v), default=0)
    if n - k > d:
        return eta[:k + d], lambda ev: _lift(ev, k, n)
    return _E_step(eta)


def _E_step(eta):
    """E_eta from E_nu across eta's first descent, else from E_theta by the
    raising step, else E_0 = 1."""
    n = len(eta)
    desc = next((i for i in range(n - 1) if eta[i] > eta[i + 1]), None)
    if desc is not None:
        nu = eta[:desc] + (eta[desc + 1], eta[desc]) + eta[desc + 2:]
        r = circle_rows(nu)
        # E_eta = t^{-1} (T_i - c) E_nu, i = desc + 1, c = (t-1)/(1-q^a t^b),
        # q^a t^b = eta_bar(nu, i+1)/eta_bar(nu, i), a, b > 0: one _T_with
        # pass with g0 = t - c = (1 - q^a t^{b+1})/(1 - q^a t^b)
        a, b = nu[desc + 1] - nu[desc], r[desc] - r[desc + 1]
        g0 = qt_product(1, 0, 0, [(a, b + 1)], [(a, b)])
        return nu, lambda ev: _T_with(ev, desc + 1, g0).scale(_TINV)
    if any(eta):
        # the raising step as a substitution (Knop-Sahi):
        # E_eta = q^-s x_N E_theta(q x_N, x_1, .., x_{N-1}), s = theta_1
        theta = (eta[-1] - 1,) + eta[:-1]
        s = theta[0]
        return theta, lambda ev: MultiPoly._raw(n, {
            e[1:] + (e[0] + 1,):
                _unit_times(c, 1, e[0] - s, 0) if e[0] != s else c
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
    _check_degree(sum(eta))
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


def _composition(v):
    """v as a tuple of ints, checked to be a composition."""
    v = tuple(int(x) for x in v)
    if any(x < 0 for x in v):
        raise ValueError("composition entries must be nonnegative")
    return v


def nonsym_E(eta):
    """The monic non-symmetric Macdonald polynomial E_eta in len(eta)
    variables."""
    eta = _composition(eta)
    return LabeledPoly(eta, _build_E(eta), "E")


def hall_littlewood_H(a):
    """Non-symmetric Hall-Littlewood polynomial H_a(x_1..x_m; t): x^a for
    dominant a, transported by T_i across descents otherwise."""
    a = _composition(a)
    return LabeledPoly(a, _walk(_H_CACHE, a, _H_rule), "H")


def eta_for(mpart, N):
    """The composition (a_1..a_m, lam_{N-m}, ..., lam_1) fed to the
    symmetrizer (weakly increasing tail, zero-padded)."""
    m = mpart.m
    tail = [0] * (N - m - len(mpart.lam)) + list(reversed(mpart.lam))
    return mpart.a + tuple(tail)


def _chain_scale(mpart, N):
    """[n0]_t! / u_{Lambda,N}, with k = N - m and n0 = k - len(lambda): the
    scale from msym_P's chain to P_Lambda, t^{C(n0,2) - C(k,2)} over
    [n]_{1/t}! = t^{-C(n,2)} prod_{j<=n} (1 - t^j)/(1 - t) for each
    multiplicity n of lambda's nonzero parts, as one qt_product."""
    k = N - mpart.m
    n0 = k - len(mpart.lam)
    counts = Counter(mpart.lam).values()
    return qt_product(1, 0, (n0 * (n0 - 1) - k * (k - 1)
                             + sum(n * (n - 1) for n in counts)) // 2,
                      [(0, 1)] * len(mpart.lam),
                      [(0, j) for n in counts for j in range(1, n + 1)])


def msym_P(mpart, N):
    """m-symmetric Macdonald polynomial P_Lambda in N variables (zero when
    N < m + length(lambda)); the coefficient of m_Lambda is checked to be 1
    on construction.

    Past N_f = m + |Lambda| it is P_Lambda in N_f variables lifted by
    orbits of x_{m+1}..x_N, as P_Lambda is symmetric there and stable.

    The paper's P_Lambda is S^t_{m+1,N} E_eta / u_{Lambda,N}.  eta's tail
    starts with n0 = N - m - len(lambda) zeros, and T_i E_eta = t E_eta
    wherever eta_i = eta_{i+1} (the stabilizer property), so the first
    n0 - 1 chains of symmetrize_t multiply by [n0]_t! and no more.  So
    P_Lambda is L'_{m+1,N} .. L'_{m+1,m+n0+1} E_eta times _chain_scale's
    closed form, with no inverse and no trial division."""
    m = mpart.m
    if N < m:
        raise ValueError("need N >= m")
    if N < m + len(mpart.lam):
        return LabeledPoly(mpart, MultiPoly.zero(N), "P")
    key = (mpart, N)
    poly = _P_CACHE.get(key)
    if poly is None:
        nf = min(N, m + mpart.degree())
        poly = _P_CACHE.get((mpart, nf))
        if poly is None:
            n0 = nf - m - len(mpart.lam)
            poly = _build_E(eta_for(mpart, nf))
            for top in range(m + max(n0, 1) + 1, nf + 1):
                poly = apply_Lprime(poly, m, top)
            poly = poly.scale(_chain_scale(mpart, nf))
            lead = mpart.a + mpart.lam + (0,) * n0
            if not poly.coefficient_of(lead).is_one():
                raise AssertionError(
                    "normalization failed: coefficient of m_%s is %s"
                    % (mpart, poly.coefficient_of(lead)))
            _P_CACHE[mpart, nf] = poly
        if nf < N:
            poly = _P_CACHE[key] = _lift(poly, m, N)
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
