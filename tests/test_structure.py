"""Bases, scalar product, norms, inclusion/restriction, evaluations."""

import random

import pytest

from msym import qt_field, qt_ring
from msym.polyring import MultiPoly, _sum_polys
from msym.qt_field import QtRational, ONE, ZERO, Q, T
from msym.combinatorics import (MPartition, enumerate_mpartitions, inversions,
                                compositions_of)
from msym.hecke_ops import apply_Y, apply_D
from msym.macdonald import (eta_for, integral_c, msym_P, nonsym_E,
                            u_normalization)
from msym.structure import (evaluation_point, evaluation_u,
                            expand_in_basis, gram_schmidt_basis,
                            inclusion_coeffs, monomial_m, norm_formula,
                            p_weight, powersum, powersum_t,
                            principal_point, principal_specialization,
                            principal_specialization_e, _basis_poly,
                            restrict_poly, restriction, scalar_product_m,
                            sesquilinear_product, z_lambda_qt)
from oracles import apply_Y_inv


def x(n, i):
    return MultiPoly.variable(n, i)


def random_element(rng, m, d, N, shift=0):
    f = MultiPoly.zero(N)
    for lab in enumerate_mpartitions(m, d, max_sym_length=N - m):
        c = rng.randrange(-3, 4)
        if c:
            f = f + monomial_m(lab, N).scale(QtRational.from_int(c))
    return f


class TestBases:
    def test_monomial_examples(self):
        assert monomial_m(MPartition((1,), (1,)), 3) == \
            x(3, 1) * (x(3, 2) + x(3, 3))
        assert monomial_m(MPartition((0,), ()), 2) == MultiPoly.one(2)
        assert monomial_m(MPartition((), (1, 1)), 3) == \
            x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3) + x(3, 2) * x(3, 3)

    def test_monomial_needs_room(self):
        with pytest.raises(ValueError):
            monomial_m(MPartition((), (1, 1)), 1)

    def test_powersum_examples(self):
        assert powersum_t(MPartition((0, 1), ()), 2) == x(2, 2)
        assert powersum_t(MPartition((0,), (1,)), 2) == x(2, 1) + x(2, 2)

    def test_powersum_t_one(self):
        # at t=1 the deformed power sum becomes x^a p_lambda
        from fractions import Fraction
        lab = MPartition((0, 1), (2,))
        f = powersum_t(lab, 3)
        plain = MultiPoly.from_exponents(3, (0, 1, 0)) * powersum(2, 3)
        for e in set(f.terms) | set(plain.terms):
            assert f.coefficient_of(e).eval(Fraction(5), 1) == \
                plain.coefficient_of(e).eval(Fraction(5), 1)


class TestExpansion:
    def test_m_basis_example(self):
        f = x(2, 1) + x(2, 2)
        e = expand_in_basis(f, 0, "m_Lambda")
        assert e.coeffs == {MPartition((), (1,)): ONE}

    def test_not_in_ring_rejected(self):
        with pytest.raises(ValueError):
            expand_in_basis(x(2, 1), 0, "m_Lambda")

    def test_faithful_N_required(self):
        f = monomial_m(MPartition((), (2, 1)), 2)
        with pytest.raises(ValueError):
            expand_in_basis(f, 0, "m_Lambda")

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for m in (0, 1, 2):
            for d in (1, 2, 3):
                N = m + d
                f = random_element(rng, m, d, N)
                for basis in ("m_Lambda", "p_Lambda_t", "P_Lambda"):
                    e = expand_in_basis(f, m, basis)
                    assert _sum_polys(N, [
                        _basis_poly(basis, lab, N).scale(c)
                        for lab, c in e.coeffs.items()]) == f

    def test_unitriangular_P_in_m(self):
        from msym.combinatorics import dominance_leq
        for m in (0, 1, 2):
            for d in (1, 2, 3):
                N = m + d
                for lab in enumerate_mpartitions(m, d, max_sym_length=N - m):
                    e = expand_in_basis(msym_P(lab, N).poly, m, "m_Lambda")
                    assert e.coeffs[lab].is_one()
                    for om in e.coeffs:
                        assert dominance_leq(om, lab), (str(om), str(lab))

    def test_pivot_below_the_diagonal_is_swapped_up(self, monkeypatch):
        # basis_L = (k + 2) m_{L'} with L' the label after L, cyclically:
        # every diagonal entry of the transition matrix is zero, so each
        # Gauss-Jordan column takes its pivot from a lower row
        from msym import structure
        labels = enumerate_mpartitions(0, 3, max_sym_length=3)
        shift = {lab: (k, labels[(k + 1) % len(labels)])
                 for k, lab in enumerate(labels)}

        def cyclic(kind, lab, N):
            k, nxt = shift[lab]
            return monomial_m(nxt, N).scale(QtRational.from_int(k + 2))

        monkeypatch.setattr(structure, "_basis_poly", cyclic)
        structure._BASIS_INVERSE_CACHE.clear()
        try:
            f = random_element(random.Random(5), 0, 3, 3)
            f = f + monomial_m(labels[0], 3).scale(ONE - Q)
            e = expand_in_basis(f, 0, "p_Lambda_t", verify=False)
            assert _sum_polys(3, [cyclic(None, lab, 3).scale(c)
                                  for lab, c in e.coeffs.items()]) == f
        finally:
            structure._BASIS_INVERSE_CACHE.clear()

    def test_json_shape(self):
        f = x(2, 1) + x(2, 2)
        data = expand_in_basis(f, 0, "m_Lambda").to_json()
        assert data["basis"] == "m_Lambda"
        assert data["terms"] == [{"label": {"a": [], "lambda": [1]},
                                  "coeff": "1"}]


class TestScalarProduct:
    def test_z_values(self):
        assert z_lambda_qt((1,)) == (ONE - Q) / (ONE - T)
        assert z_lambda_qt(()) == ONE

    def test_examples(self):
        p1 = powersum_t(MPartition((), (1,)), 2)
        assert scalar_product_m(p1, p1, 0) == (ONE - Q) / (ONE - T)
        pa = powersum_t(MPartition((0, 1), ()), 3)
        assert scalar_product_m(pa, pa, 2) == Q * T

    def test_p_orthogonality(self):
        for m in (0, 1, 2):
            for d in (1, 2):
                N = m + d
                labs = enumerate_mpartitions(m, d, max_sym_length=N - m)
                for i, A in enumerate(labs):
                    pa = powersum_t(A, N)
                    for B in labs[i:]:
                        v = scalar_product_m(pa, powersum_t(B, N), m)
                        if A == B:
                            assert v == p_weight(A)
                        else:
                            assert v.is_zero()

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            scalar_product_m(x(2, 1), x(2, 1), 0)

    def test_mixed_degrees_split(self):
        f = MultiPoly.one(2) + x(2, 1) + x(2, 2)
        v = scalar_product_m(f, f, 0)
        p1 = x(2, 1) + x(2, 2)
        assert v == ONE + scalar_product_m(p1, p1, 0)


class TestNorm:
    def test_single_cell(self):
        assert norm_formula(MPartition((), (1,))) == (ONE - Q) / (ONE - T)

    def test_matches_scalar_product(self):
        for m in (0, 1):
            for d in (1, 2, 3):
                N = m + d
                for lab in enumerate_mpartitions(m, d, max_sym_length=N - m):
                    P = msym_P(lab, N).poly
                    assert scalar_product_m(P, P, m, verify=False) == \
                        norm_formula(lab)

    def test_orthogonality_small(self):
        for m in (0, 1):
            d = 2
            N = m + d
            labs = enumerate_mpartitions(m, d, max_sym_length=N - m)
            for i, A in enumerate(labs):
                PA = msym_P(A, N).poly
                for B in labs[i + 1:]:
                    assert scalar_product_m(
                        PA, msym_P(B, N).poly, m, verify=False).is_zero()


class TestInclusion:
    def test_single_box(self):
        exp = inclusion_coeffs(MPartition((), (1,)))
        assert exp.coeffs[MPartition((1,), ())] == ONE
        assert exp.coeffs[MPartition((0,), (1,))] == (ONE - Q) / (ONE - Q * T)

    def test_empty_row_only(self):
        exp = inclusion_coeffs(MPartition((0,), ()))
        assert exp.coeffs == {MPartition((0, 0), ()): ONE}

    def test_sum_identity(self):
        for m in (0, 1):
            for d in (0, 1, 2, 3):
                for lab in enumerate_mpartitions(m, d):
                    N = m + 1 + max(d, 1)
                    P = msym_P(lab, N).poly
                    rhs = MultiPoly.zero(N)
                    for om, psi in inclusion_coeffs(lab).coeffs.items():
                        rhs = rhs + msym_P(om, N).poly.scale(psi)
                    assert rhs == P, str(lab)


class TestRestriction:
    def test_trivial(self):
        hat, fac = restriction(MPartition((0,), ()))
        assert hat == MPartition((), ()) and fac.is_one()

    def test_formula_vs_operational(self):
        for m1 in (1, 2):
            for d in (0, 1, 2):
                for lab in enumerate_mpartitions(m1, d):
                    N = m1 + d + 1
                    P = msym_P(lab, N).poly
                    hat, fac = restriction(lab)
                    assert restrict_poly(P, m1 - 1) == \
                        msym_P(hat, N - 1).poly.scale(fac)

    def test_restriction_of_powersum(self):
        # r(p_Omega) = p_{Omega-} when the last entry is 0, else 0
        for b in (0, 1, 2):
            lab = MPartition((1, b), (1,))
            f = powersum_t(lab, 4)
            r = restrict_poly(f, 1)
            if b == 0:
                assert r == powersum_t(MPartition((1,), (1,)), 3)
            else:
                assert r.is_zero()

    def test_adjointness_random(self):
        rng = random.Random(23)
        for _ in range(25):
            m = rng.randrange(0, 2)
            d = rng.randrange(1, 4)
            N = m + 1 + d
            f = random_element(rng, m, d, N)
            g = random_element(rng, m + 1, d, N)
            lhs = scalar_product_m(f, g, m + 1, verify=False)
            rhs = scalar_product_m(f.drop_var(N), restrict_poly(g, m), m,
                                   verify=False)
            assert lhs == rhs

    def test_restriction_of_inclusion(self):
        # r(i(P_Lambda)) = P_Lambda, so the inclusion and restriction
        # coefficients must telescope to 1
        for m in (0, 1):
            for d in (0, 1, 2, 3):
                for lab in enumerate_mpartitions(m, d):
                    N = m + 1 + max(d, 1)
                    P = msym_P(lab, N).poly
                    back = restrict_poly(P, m)
                    assert back == msym_P(lab, N - 1).poly
                    total = ZERO
                    for om, psi in inclusion_coeffs(lab).coeffs.items():
                        hat, fac = restriction(om)
                        assert hat == lab
                        total = total + psi * fac
                    assert total.is_one()


class TestEvaluations:
    def test_principal_examples(self):
        assert principal_specialization(MPartition((), (1,)), 2) == ONE + T
        assert principal_specialization(MPartition((1,), ()), 2) == \
            (ONE - Q * T * T) / (ONE - Q * T)

    def test_principal_matches_substitution(self):
        for m in (0, 1, 2):
            for d in (0, 1, 2):
                N = m + max(d, 1)
                for lab in enumerate_mpartitions(m, d, max_sym_length=N - m):
                    direct = msym_P(lab, N).poly.substitute(principal_point(N))
                    assert direct == principal_specialization(lab, N)

    def test_nonsym_corollary(self):
        for n in (1, 2, 3):
            for d in range(0, 4):
                for eta in compositions_of(d, n):
                    direct = nonsym_E(eta).poly.substitute(principal_point(n))
                    assert direct == principal_specialization_e(eta, n)

    def test_u_empty_is_principal(self):
        for m in (0, 1, 2):
            N = m + 2
            lab = MPartition((0,) * m, ())
            assert evaluation_point(lab, N) == principal_point(N)

    def test_u_eigen_evaluation(self):
        # f(Y^{-1}) P_Lambda = u_Lambda(f) P_Lambda for m-symmetric f
        rng = random.Random(31)
        for m in (0, 1):
            d = 2
            N = m + d
            for lab in enumerate_mpartitions(m, d, max_sym_length=N - m):
                P = msym_P(lab, N).poly
                f = random_element(rng, m, d, N)
                g = MultiPoly.zero(N)
                for e, c in f.terms.items():
                    h = P
                    for i, k in enumerate(e, start=1):
                        for _ in range(k):
                            h = apply_Y_inv(h, i)
                    g = g + h.scale(c)
                assert g == P.scale(evaluation_u(lab, f))

    def test_symmetry(self):
        for m in (0, 1):
            dmax = 2
            N = m + dmax
            labs = [lab for d in range(dmax + 1)
                    for lab in enumerate_mpartitions(m, d,
                                                     max_sym_length=N - m)]
            for A in labs:
                for B in labs:
                    PA, PB = msym_P(A, N).poly, msym_P(B, N).poly
                    uA = principal_specialization(A, N)
                    uB = principal_specialization(B, N)
                    assert evaluation_u(B, PA) / uA == \
                        evaluation_u(A, PB) / uB


class TestSesquilinear:
    def test_m0_coincides(self):
        P = msym_P(MPartition((), (1,)), 2).poly
        assert sesquilinear_product(P, P, 0) == (ONE - Q) / (ONE - T)

    def test_diagonal_and_off_diagonal(self):
        for m in (0, 1, 2):
            for d in (0, 1, 2):
                N = m + d + 1
                labs = enumerate_mpartitions(m, d, max_sym_length=N - m)
                for i, A in enumerate(labs):
                    PA = msym_P(A, N).poly
                    for B in labs[i:]:
                        PB = msym_P(B, N).poly
                        v = sesquilinear_product(PA, PB, m, verify=False)
                        if A == B:
                            expect = norm_formula(A) * QtRational.monomial(
                                1, -sum(A.a), -inversions(A.a))
                            assert v == expect
                        else:
                            assert v.is_zero()


class TestSelfAdjointness:
    def test_eigenoperators_self_adjoint(self):
        rng = random.Random(41)
        for m in (1, 2):
            d = 2
            N = m + d
            for _ in range(4):
                f = random_element(rng, m, d, N)
                g = random_element(rng, m, d, N)
                for i in range(1, m + 1):
                    lhs = scalar_product_m(apply_Y(f, i), g, m, verify=False)
                    rhs = scalar_product_m(f, apply_Y(g, i), m, verify=False)
                    assert lhs == rhs
                lhs = scalar_product_m(apply_D(f, m), g, m, verify=False)
                rhs = scalar_product_m(f, apply_D(g, m), m, verify=False)
                assert lhs == rhs


class TestGramSchmidt:
    def test_characterization(self):
        for m in (0, 1):
            for d in (0, 1, 2):
                N = m + max(d, 1)
                gs = gram_schmidt_basis(m, d, N)
                for lab, g in gs.items():
                    assert g == msym_P(lab, N).poly, str(lab)


class TestCaches:
    def test_clear_caches_empties_all_four(self):
        from msym import combinatorics, macdonald, qt_ring, structure
        caches = (macdonald._E_CACHE, macdonald._H_CACHE, macdonald._P_CACHE,
                  structure._BASIS_INVERSE_CACHE, structure._P_WEIGHT_CACHE,
                  qt_ring._PHI, qt_ring._EXPANDED, combinatorics._PARTITIONS)
        saved = [dict(c) for c in caches]
        try:
            P = msym_P(MPartition((1,), (1,)), 3).poly
            scalar_product_m(P, P, 1)
            assert all(caches)
            macdonald.clear_caches()
            assert not any(caches)
        finally:
            for cache, entries in zip(caches, saved):
                cache.update(entries)


def test_closed_forms_make_no_trial_division(monkeypatch):
    # each closed form is one qt_product, whose factors cancel by counting:
    # no trial division and no factoring of an expanded polynomial
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    for module, name in ((qt_ring, "_fdiv"), (qt_ring, "_factor"),
                         (qt_field, "_factor")):
        monkeypatch.setattr(module, name,
                            counted(name, getattr(module, name)))
    for m in range(3):
        for d in range(5):
            N = m + d
            for lab in enumerate_mpartitions(m, d):
                norm_formula(lab)
                principal_specialization(lab, N)
                principal_specialization_e(eta_for(lab, N), N)
                inclusion_coeffs(lab)
                if m:
                    restriction(lab)
                z_lambda_qt(lab.lam)
                integral_c(lab)
                u_normalization(lab, N)
    assert not calls, sorted(set(calls))
