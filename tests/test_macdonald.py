"""Non-symmetric and m-symmetric Macdonald polynomials."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from msym.polyring import MultiPoly, _relabel
from msym.qt_field import QtRational, ONE, Q, T
from msym.combinatorics import (MPartition, bruhat_less, compositions_of,
                                enumerate_mpartitions)
from msym.hecke_ops import apply_T, apply_Y, apply_D
from msym.macdonald import (eigen_cases, eigenvalues, eta_bar,
                            hall_littlewood_H, integral_J, integral_c,
                            invert_qt, msym_P, nonsym_E, psi_box_raise,
                            _build_E, _walk)

from oracles import (apply_Psi, raise_by_Phi, symmetrized_P, u_normalization,
                     unlifted_E, unlifted_P)


def x(n, i):
    return MultiPoly.variable(n, i)


def failed_cases(eta, poly):
    """Witnesses of the eigen_cases of (eta, poly) whose sides differ."""
    return [w for w, lhs, rhs in eigen_cases(eta, poly) if lhs != rhs]


def all_compositions(nmax, dmax):
    for n in range(1, nmax + 1):
        for d in range(dmax + 1):
            yield from compositions_of(d, n)


class TestNonsymE:
    def test_base_cases(self):
        assert nonsym_E((0, 0, 0)).poly == MultiPoly.one(3)
        assert nonsym_E((0, 1)).poly == x(2, 2)

    def test_E_10(self):
        expect = x(2, 1) + x(2, 2).scale(Q * (ONE - T) / (ONE - Q * T))
        assert nonsym_E((1, 0)).poly == expect
        assert failed_cases((1, 0), expect) == []

    def test_monic_and_triangular(self):
        for eta in all_compositions(3, 3):
            poly = nonsym_E(eta).poly
            assert poly.coefficient_of(eta).is_one()
            for nu in poly.terms:
                assert nu == eta or bruhat_less(nu, eta)

    def test_eigen_certificate(self):
        for eta in all_compositions(3, 3):
            cases = list(eigen_cases(eta, nonsym_E(eta).poly))
            assert sum(w[0] == "eigen" for w, _, _ in cases) == len(eta)
            assert all(lhs == rhs for _, lhs, rhs in cases), eta

    def test_check_rejects_wrong_poly(self):
        # monic and triangular, but no Y_i eigenfunction
        assert failed_cases((1, 0), x(2, 1) + x(2, 2)) == [
            ("eigen", (1, 0), 1), ("eigen", (1, 0), 2)]
        # not monic: the certificate stops at its first case
        assert failed_cases((1, 0), x(2, 1).scale(T)) == [("monic", (1, 0))]
        # x^(1,0) lies outside the Bruhat ideal below (0,1)
        assert ("triangular", (0, 1), (1, 0)) in failed_cases(
            (0, 1), x(2, 2) + x(2, 1))

    def test_stability(self):
        for eta in all_compositions(3, 3):
            n = len(eta)
            if n == 1:
                continue
            res = nonsym_E(eta).poly.drop_var(n)
            if eta[-1] == 0:
                assert res == nonsym_E(eta[:-1]).poly
            else:
                assert res.is_zero()

    def test_symmetry_in_equal_entries(self):
        for eta in [(1, 1, 0), (0, 2, 2), (1, 1)]:
            poly = nonsym_E(eta).poly
            i = next(k for k in range(len(eta) - 1) if eta[k] == eta[k + 1])
            src = list(range(len(eta)))
            src[i], src[i + 1] = i + 1, i
            assert _relabel(poly, src, ()) == poly

    def test_t_action(self):
        # T_i E_eta for eta_i < eta_{i+1} produces t E_{s_i eta} plus the
        # known multiple of E_eta
        eta = (0, 1)
        e = nonsym_E(eta).poly
        delta = eta_bar(eta, 1) / eta_bar(eta, 2)
        coeff = (T - ONE) / (ONE - delta.inverse())
        assert apply_T(e, 1) == e.scale(coeff) + nonsym_E((1, 0)).poly.scale(T)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            nonsym_E((1, -1))


class TestWalk:
    def test_chain_deeper_than_the_recursion_limit(self):
        # key k is built from k - 1 and key 0 from nothing, so key depth
        # ends a chain of depth + 1 missing keys
        depth = sys.getrecursionlimit() + 100

        def rule(k):
            return (k - 1, lambda v: v + 1) if k else (None, lambda _: 0)

        cache = {}
        assert _walk(cache, depth, rule) == depth
        assert cache == {k: k for k in range(depth + 1)}
        assert _walk(cache, 5, rule) == 5


class TestHallLittlewood:
    def test_dominant_is_monomial(self):
        assert hall_littlewood_H((1, 0)).poly == x(2, 1)
        assert hall_littlewood_H((2, 2, 1)).poly == \
            MultiPoly.from_exponents(3, (2, 2, 1))

    def test_transport(self):
        assert hall_littlewood_H((0, 1)).poly == x(2, 2)

    def test_t_one_specialization(self):
        for a in [(0, 1), (1, 2), (2, 0, 1), (0, 0, 3)]:
            h = hall_littlewood_H(a).poly
            for e, c in h.terms.items():
                v = c.eval(Fraction(7), 1)
                assert v == (1 if e == a else 0)

    def test_q_zero_of_E(self):
        for a in [(1, 0), (0, 1), (2, 1), (1, 2), (0, 2)]:
            m = len(a)
            big = nonsym_E(a + (0,) * 2).poly
            h = hall_littlewood_H(a).poly.extend(m + 2)
            for e in set(big.terms) | set(h.terms):
                ve = big.coefficient_of(e).eval(0, Fraction(3, 5))
                vh = h.coefficient_of(e).eval(0, Fraction(3, 5))
                assert ve == vh


class TestMsymP:
    def test_single_row(self):
        assert msym_P(MPartition((), (1,)), 2).poly == x(2, 1) + x(2, 2)

    def test_pure_nonsymmetric(self):
        lab = MPartition((1,), ())
        assert msym_P(lab, 3).poly == nonsym_E((1, 0, 0)).poly
        lab2 = MPartition((2, 1), ())
        assert msym_P(lab2, 4).poly == nonsym_E((2, 1, 0, 0)).poly

    def test_too_few_variables_vanishes(self):
        assert msym_P(MPartition((0,), (1, 1)), 2).poly.is_zero()

    def test_stability(self):
        for m in (0, 1):
            for d in (1, 2, 3):
                for lab in enumerate_mpartitions(m, d):
                    N = m + d + 1
                    big = msym_P(lab, N).poly
                    assert big.drop_var(N) == msym_P(lab, N - 1).poly

    def test_monic_in_monomial_basis(self):
        for m in (0, 1, 2):
            for d in (0, 1, 2, 3):
                for lab in enumerate_mpartitions(m, d):
                    N = m + d
                    if N < m + len(lab.lam):
                        continue
                    rep = lab.a + lab.lam + (0,) * (N - m - len(lab.lam))
                    assert msym_P(lab, N).poly.coefficient_of(rep).is_one()

    def test_needs_enough_variables(self):
        with pytest.raises(ValueError):
            msym_P(MPartition((0, 0), ()), 1)

    def test_u_normalization_example(self):
        # one symmetric row of size 1 at N=2: u = t
        assert u_normalization(MPartition((), (1,)), 2) == T

    def test_equals_full_symmetrizer_over_u(self):
        # the shortened chain times its closed-form scale against the
        # paper's S^t E_eta / u, at every N from m + len(lambda) (n0 = 0)
        # to m + degree + 2, so n0 = 0 and 1, k = N - m <= 1 and zero
        # blocks of up to 4 all occur
        for m in range(3):
            for d in range(4):
                for lab in enumerate_mpartitions(m, d):
                    for N in range(m + len(lab.lam), m + d + 3):
                        assert msym_P(lab, N).poly == symmetrized_P(lab, N)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stabilizer_property(self, data):
        # T_i E_eta = t E_eta wherever eta_i = eta_{i+1}: the identity that
        # lets msym_P skip the chains acting on eta's zero block
        n = data.draw(st.integers(2, 4))
        eta = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        i = data.draw(st.integers(1, n - 1))
        eta[i] = eta[i - 1]
        e = nonsym_E(eta).poly
        assert apply_T(e, i) == e.scale(T)


class TestEigenvalues:
    def test_y_eigenvalue_example(self):
        ev = eigenvalues(MPartition((1,), ()))
        assert ev.y_eigs == (Q,)

    def test_joint_eigensystem(self):
        for m in (0, 1, 2):
            for d in (0, 1, 2):
                N = m + d + 1
                for lab in enumerate_mpartitions(m, d):
                    P = msym_P(lab, N).poly
                    if P.is_zero():
                        continue
                    ev = eigenvalues(lab)
                    for i in range(1, m + 1):
                        assert apply_Y(P, i) == P.scale(ev.y_eigs[i - 1])
                    assert apply_D(P, m) == P.scale(ev.d_eig)

    def test_distinctness(self):
        for m in (0, 1, 2):
            seen = {}
            for d in range(5):
                for lab in enumerate_mpartitions(m, d):
                    key = eigenvalues(lab)
                    assert key not in seen, (lab, seen[key])
                    seen[key] = lab


class TestIntegralForm:
    def test_c_examples(self):
        assert integral_c(MPartition((), (1,))) == ONE - T
        assert integral_c(MPartition((1,), ())) == ONE - Q * T

    def test_J_is_c_times_P(self):
        lab = MPartition((), (1,))
        assert integral_J(lab, 2).poly == \
            msym_P(lab, 2).poly.scale(ONE - T)

    def test_c_for_norm_example_denominator(self):
        lab = MPartition((2, 0, 0, 2), (4, 1, 1))
        expect = ONE
        for (a, l) in [(3, 4), (2, 2), (1, 0), (0, 0), (2, 3), (1, 1),
                       (2, 4), (1, 0), (0, 1), (0, 0)]:
            expect = expect * (ONE - QtRational.monomial(1, a, l + 1))
        assert integral_c(lab) == expect


class TestPsiRaising:
    def test_examples(self):
        boxed, fac = psi_box_raise(MPartition((0,), ()), 2)
        assert boxed == MPartition((), (1,)) and fac.is_one()
        boxed, fac = psi_box_raise(MPartition((1, 0), ()), 3)
        assert boxed == MPartition((0,), (2,)) and fac == T.inverse()

    def test_operator_identity(self):
        for m in (1, 2):
            for d in (0, 1, 2, 3):
                for lab in enumerate_mpartitions(m, d):
                    N = m + d + 1
                    J = integral_J(lab, N).poly
                    if J.is_zero():
                        continue
                    boxed, fac = psi_box_raise(lab, N)
                    assert apply_Psi(J, m) == \
                        integral_J(boxed, N).poly.scale(fac), str(lab)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            psi_box_raise(MPartition((), (1,)), 2)


class TestInversion:
    def test_m0_reduces_to_qt_symmetry(self):
        # P_lambda(x; 1/q, 1/t) = P_lambda(x; q, t)
        for lab in enumerate_mpartitions(0, 3):
            P = msym_P(lab, 3).poly
            assert P.invert_params() == P

    def test_identity_sweep(self):
        for m in (0, 1, 2):
            for d in (0, 1, 2, 3):
                for lab in enumerate_mpartitions(m, d):
                    lhs, rhs = invert_qt(lab, m + 2)
                    assert lhs == rhs, str(lab)

    def test_explicit_m1(self):
        # q P((1);)(x/q, y; 1/q, 1/t) = P((1);)(x, y; q, t)
        lab = MPartition((1,), ())
        P = msym_P(lab, 2).poly
        lhs = _relabel(P.invert_params(), range(2), ((0, -1),)).scale(Q)
        assert lhs == P


@pytest.fixture
def cold_caches():
    """Every memo table emptied for the test and refilled afterwards."""
    from msym import macdonald
    saved = [dict(c) for c in macdonald._CACHES]
    macdonald.clear_caches()
    yield
    macdonald.clear_caches()
    for cache, entries in zip(macdonald._CACHES, saved):
        cache.update(entries)


# the benchmark's construct pool: (m, max degree, N)
_POOL = ((0, 4, 4), (1, 3, 5), (2, 3, 5))


class TestColdConstruction:
    def test_construct_pool_canonical_forms_unchanged(self, cold_caches):
        # a golden hash of every coefficient's canonical num and den over
        # the pool, each label built from cold caches: a change to any
        # reduction or accumulation path must leave it as it is
        import hashlib
        from msym import macdonald
        h = hashlib.sha256()
        for m, dmax, N in _POOL:
            for d in range(dmax + 1):
                for lab in enumerate_mpartitions(m, d,
                                                 max_sym_length=N - m):
                    macdonald.clear_caches()
                    for e, c in sorted(msym_P(lab, N).poly.terms.items()):
                        h.update(repr((e, sorted(c.num.items()),
                                       sorted(c.den.items()))).encode())
        assert h.hexdigest() == ("e31cf6f80a20e80d2322fb108189f63d"
                                 "fc01062b594786a1c35ba1c1107ee7d0")

    def test_zero_block_chains_are_skipped(self, cold_caches,
                                           monkeypatch):
        # eta = (0,0,3) at the faithful count N = 3: the zero block's chain
        # acts by [2]_t!, so only L'_{1,3} is applied, 2 generators against
        # the full symmetrizer's 1 + 2 = 3
        from msym import hecke_ops
        nonsym_E((0, 0, 3))
        calls = []
        apply_T = hecke_ops.apply_T

        def counted(*args):
            calls.append(args[1])
            return apply_T(*args)

        monkeypatch.setattr(hecke_ops, "apply_T", counted)
        lab = MPartition((), (3,))
        P = msym_P(lab, 3).poly
        assert calls == [2, 1]
        monkeypatch.undo()
        assert P == symmetrized_P(lab, 3)

    def test_lifted_P_matches_unlifted_build(self, cold_caches):
        # past the faithful count m + |Lambda| msym_P lifts by orbits; the
        # oracle runs the walk and the chains in all N variables.  Equal
        # MultiPolys have the same exponents and the same canonical num and
        # key at each
        from msym import macdonald
        for m in range(3):
            for d in range(4):
                for lab in enumerate_mpartitions(m, d):
                    for N in (m + d + 1, m + d + 2):
                        macdonald.clear_caches()
                        assert msym_P(lab, N).poly == unlifted_P(lab, N)

    def test_lifted_E_matches_unlifted_build(self, cold_caches):
        # E_(eta, 0^j) is lifted from fewer variables once its zero block
        # is longer than max(|eta|, 1)
        from msym import macdonald
        for eta in all_compositions(3, 3):
            for j in (1, 2, 3):
                macdonald.clear_caches()
                assert nonsym_E(eta + (0,) * j).poly == unlifted_E(
                    eta + (0,) * j)

    def test_walks_cache_the_same_keys(self, cold_caches):
        # the E and H walks store every composition on each build's chain
        # of rules and no other, so the key sets of the caches are fixed;
        # the zero compositions (0,0,0) and (0,0,0,0) are lifted from (0,)
        from msym import macdonald
        for eta in [(2, 0, 1), (0, 1, 2), (1, 0, 2, 0)]:
            nonsym_E(eta)
        for a in [(0, 1, 2), (1, 0, 2), (0, 2, 1)]:
            hall_littlewood_H(a)
        assert set(macdonald._E_CACHE) == {
            (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 0, 1),
            (2, 0, 1), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1),
            (0, 0, 1, 2), (0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 2, 0),
            (1, 0, 0, 1), (1, 0, 2, 0), (0,)}
        assert set(macdonald._H_CACHE) == {
            (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}

    def test_concurrent_builds_match_serial(self, cold_caches):
        # four threads build the same P_Lambda set on shared cold caches,
        # switching often; each must get what a serial build gives
        import sys
        from concurrent.futures import ThreadPoolExecutor
        from msym import macdonald
        labels = [lab for d in range(4)
                  for lab in enumerate_mpartitions(1, d, max_sym_length=3)]

        def build_all():
            return [msym_P(lab, 4).poly for lab in labels]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(build_all) for _ in range(4)]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        macdonald.clear_caches()
        serial = build_all()
        for result in threaded:
            assert result == serial


class TestRaisingStep:
    def test_relabel_equals_the_raising_operator(self):
        # every raising step (eta weakly increasing, so no descent) with
        # N <= 6 and degree <= 5: x_N E_theta(q x_N, x_1, ..) q^-theta_1
        # is t^{N-r} Phi_q E_theta
        steps = 0
        for eta in all_compositions(6, 5):
            if not any(eta) or any(u > v for u, v in zip(eta, eta[1:])):
                continue
            theta = (eta[-1] - 1,) + eta[:-1]
            assert _build_E(eta) == raise_by_Phi(theta, _build_E(theta)), eta
            steps += 1
        assert steps == 84

    def test_raising_makes_no_hecke_step(self, cold_caches, monkeypatch):
        # E_(0,0,1,1) is reached from E_0 by raising steps alone
        from msym import hecke_ops, macdonald
        calls = []
        apply_T = hecke_ops.apply_T
        for module in (hecke_ops, macdonald):
            monkeypatch.setattr(module, "apply_T",
                                lambda *args: calls.append(args)
                                or apply_T(*args))
        poly = nonsym_E((0, 0, 1, 1)).poly
        assert calls == []
        assert failed_cases((0, 0, 1, 1), poly) == []
