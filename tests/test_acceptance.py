"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line with its runtime; run with
`pytest tests/test_acceptance.py -v -s` to see them as they complete.
"""

import random
import time

from msym.qt_field import QtRational, ONE, ZERO, T
from msym.polyring import MultiPoly
from msym.combinatorics import (Cell, MPartition, bruhat_less,
                                compositions_of, enumerate_mpartitions)
from msym.hecke_ops import (apply_T, apply_Tbar, apply_Y, apply_R, apply_L,
                            apply_Lprime, symmetrize_t)
from msym.macdonald import eta_bar, msym_P, nonsym_E
from msym.structure import (expand_in_basis, gram_schmidt_basis,
                            inclusion_coeffs, monomial_m, norm_formula,
                            p_weight, principal_point,
                            principal_specialization,
                            principal_specialization_e, restrict_poly,
                            scalar_product_m)
from msym import kernels
from oracles import holds


def _report(num, name, t0, budget):
    elapsed = time.time() - t0
    print("ACCEPTANCE %2d %-28s PASS (%.1fs)" % (num, name, elapsed))
    assert elapsed < budget, "criterion %d exceeded %ds budget" % (num, budget)


ARM_LEG = {(1, 1): (3, 4), (1, 2): (2, 2), (1, 3): (1, 0), (1, 4): (0, 0),
           (2, 1): (2, 3), (2, 2): (1, 1), (3, 1): (2, 4), (3, 2): (1, 0),
           (4, 1): (0, 1), (5, 1): (0, 0)}
ARM_LEG_TILDE = {(1, 1): (3, 6), (1, 2): (2, 2), (1, 3): (1, 2),
                 (1, 4): (0, 0), (2, 1): (1, 3), (2, 2): (0, 1),
                 (3, 1): (1, 4), (3, 2): (0, 0), (4, 1): (0, 3),
                 (5, 1): (0, 2)}


def test_c01_arm_leg_tables():
    t0 = time.time()
    lab = MPartition((2, 0, 0, 2), (4, 1, 1))
    squares = {(c.row, c.col) for c in lab.cells()}
    assert squares == set(ARM_LEG)
    for (r, c), (a, l) in ARM_LEG.items():
        cell = Cell(r, c)
        assert lab.arm(cell) == a and lab.leg(cell) == l
    for (r, c), (a, l) in ARM_LEG_TILDE.items():
        cell = Cell(r, c)
        assert lab.arm_tilde(cell) == a and lab.leg_tilde(cell) == l
    _report(1, "arm-leg tables", t0, 1)


def test_c02_norm_ten_factor_example():
    t0 = time.time()
    lab = MPartition((2, 0, 0, 2), (4, 1, 1))
    num_factors = [(1, 0), (2, 2), (3, 2), (4, 6), (1, 1), (2, 3),
                   (1, 0), (2, 4), (1, 3), (1, 2)]
    den_factors = [(0, 1), (1, 1), (2, 3), (3, 5), (1, 2), (2, 4),
                   (1, 1), (2, 5), (0, 2), (0, 1)]
    expect = QtRational.monomial(1, 4, 2)  # q^{|a|} t^{Inv(a)}
    for a, l in num_factors:
        expect = expect * (ONE - QtRational.monomial(1, a, l))
    for a, l in den_factors:
        expect = expect / (ONE - QtRational.monomial(1, a, l))
    assert norm_formula(lab) == expect
    _report(2, "norm ten-factor example", t0, 1)


def test_c03_eigen_construction():
    t0 = time.time()
    checked = 0
    for n in range(1, 5):
        for d in range(5):
            for eta in compositions_of(d, n):
                poly = nonsym_E(eta).poly
                assert poly.coefficient_of(eta).is_one(), eta
                for nu in poly.terms:
                    assert nu == eta or bruhat_less(nu, eta), (eta, nu)
                for i in range(1, n + 1):
                    assert apply_Y(poly, i) == poly.scale(eta_bar(eta, i)), \
                        (eta, i)
                checked += 1
    assert checked == sum(len(compositions_of(d, n))
                          for n in range(1, 5) for d in range(5))
    _report(3, "eigen construction sweep", t0, 120)


def test_c04_orthogonality_and_norms():
    t0 = time.time()
    for m in (0, 1, 2):
        dmax = 4
        N = m + dmax
        labels = [lab for d in range(dmax + 1)
                  for lab in enumerate_mpartitions(m, d, max_sym_length=N - m)]
        exps = {lab: expand_in_basis(msym_P(lab, N).poly, m, "p_Lambda_t",
                                     verify=False).coeffs
                for lab in labels}
        bydeg = {}
        for lab in labels:
            bydeg.setdefault(lab.degree(), []).append(lab)
        for labs in bydeg.values():
            for i, A in enumerate(labs):
                for B in labs[i:]:
                    tot = ZERO
                    ea, eb = exps[A], exps[B]
                    small, big = (ea, eb) if len(ea) <= len(eb) else (eb, ea)
                    for lab, c in small.items():
                        cb = big.get(lab)
                        if cb:
                            tot = tot + c * cb * p_weight(lab)
                    want = norm_formula(A) if A == B else ZERO
                    assert tot == want, (str(A), str(B))
    _report(4, "orthogonality and norms", t0, 600)


def test_c05_inclusion_and_adjointness():
    t0 = time.time()
    for m in (0, 1, 2):
        for d in range(5):
            for lab in enumerate_mpartitions(m, d):
                N = m + 1 + max(d, 1)
                P = msym_P(lab, N).poly
                rhs = MultiPoly.zero(N)
                for om, psi in inclusion_coeffs(lab).coeffs.items():
                    rhs = rhs + msym_P(om, N).poly.scale(psi)
                assert rhs == P, str(lab)
    rng = random.Random(2024)
    for _ in range(100):
        m = rng.randrange(0, 3)
        d = rng.randrange(1, 4)
        N = m + 1 + d
        f = MultiPoly.zero(N)
        for lab in enumerate_mpartitions(m, d, max_sym_length=N - m):
            c = rng.randrange(-2, 3)
            if c:
                f = f + monomial_m(lab, N).scale(QtRational.from_int(c))
        g = MultiPoly.zero(N)
        for lab in enumerate_mpartitions(m + 1, d, max_sym_length=N - m - 1):
            c = rng.randrange(-2, 3)
            if c:
                g = g + monomial_m(lab, N).scale(QtRational.from_int(c))
        lhs = scalar_product_m(f, g, m + 1, verify=False)
        rhs = scalar_product_m(f.drop_var(N), restrict_poly(g, m), m,
                               verify=False)
        assert lhs == rhs
    _report(5, "inclusion and adjointness", t0, 600)


def test_c06_specializations():
    t0 = time.time()
    for m in (0, 1, 2):
        N = m + 4
        for d in range(5):
            for lab in enumerate_mpartitions(m, d, max_sym_length=N - m):
                direct = msym_P(lab, N).poly.substitute(principal_point(N))
                assert direct == principal_specialization(lab, N), str(lab)
    for n in (1, 2, 3):
        for d in range(4):
            for eta in compositions_of(d, n):
                direct = nonsym_E(eta).poly.substitute(principal_point(n))
                assert direct == principal_specialization_e(eta, n), eta
    _report(6, "principal specializations", t0, 300)


def test_c07_evaluation_symmetry():
    t0 = time.time()
    from msym.structure import evaluation_u
    for m in (0, 1):
        dmax = 3
        N = m + dmax
        labels = [lab for d in range(dmax + 1)
                  for lab in enumerate_mpartitions(m, d, max_sym_length=N - m)]
        polys = {lab: msym_P(lab, N).poly for lab in labels}
        norms = {lab: principal_specialization(lab, N) for lab in labels}
        for A in labels:
            for B in labels:
                lhs = evaluation_u(B, polys[A]) / norms[A]
                rhs = evaluation_u(A, polys[B]) / norms[B]
                assert lhs == rhs, (str(A), str(B))
    _report(7, "evaluation symmetry", t0, 300)


def test_c08_qt_inversion():
    t0 = time.time()
    from msym.macdonald import invert_qt
    for m in (0, 1, 2):
        N = m + 2
        for d in range(4):
            for lab in enumerate_mpartitions(m, d):
                lhs, rhs = invert_qt(lab, N)
                assert lhs == rhs, str(lab)
    _report(8, "q,t-inversion", t0, 300)


def test_c09_kernels():
    t0 = time.time()
    assert holds(kernels.km_expansion_cases(0, 3))
    assert holds(kernels.km_expansion_cases(1, 3))
    assert holds(kernels.hl_kernel_cases(2, 3))
    for m in (0, 1, 2):
        assert holds(kernels.cauchy_cases(m, 2)), m
    for m in (1, 2):
        assert holds(kernels.nonsym_cauchy_cases(m, 2)), m
    _report(9, "kernel identities", t0, 900)


def test_c10_gram_schmidt_characterization():
    t0 = time.time()
    for m in (0, 1):
        for d in range(4):
            N = m + max(d, 1)
            for lab, g in gram_schmidt_basis(m, d, N).items():
                assert g == msym_P(lab, N).poly, str(lab)
    _report(10, "gram-schmidt characterization", t0, 300)


def test_c11_operator_algebra():
    t0 = time.time()
    rng = random.Random(117)
    tscal = T

    def rand_poly(n):
        terms = {}
        for _ in range(6):
            e = [0] * n
            for _ in range(3):
                e[rng.randrange(n)] += rng.randrange(2)
            c = rng.randrange(-4, 5)
            if c:
                terms[tuple(e)] = QtRational.from_int(c)
        return MultiPoly(n, terms)

    for k in range(100):
        n = rng.randrange(2, 6)
        f = rand_poly(n)
        i = rng.randrange(1, n)
        # quadratic relation and inverse
        Tf = apply_T(f, i)
        assert (apply_T(Tf, i) + Tf - Tf.scale(tscal) - f.scale(tscal)).is_zero()
        assert apply_Tbar(Tf, i) == f
        # braid / commutation
        if n >= 3:
            j = rng.randrange(1, n - 1)
            assert apply_T(apply_T(apply_T(f, j), j + 1), j) == \
                apply_T(apply_T(apply_T(f, j + 1), j), j + 1)
        if n >= 4:
            assert apply_T(apply_T(f, 1), 3) == apply_T(apply_T(f, 3), 1)
        # Cherednik exchange relations
        yi, yi1 = apply_Y(f, i), apply_Y(f, i + 1)
        tf = apply_T(f, i)
        assert apply_T(yi, i) == apply_Y(tf, i + 1) + yi.scale(tscal - ONE)
        assert apply_T(yi1, i) == apply_Y(tf, i) - yi.scale(tscal - ONE)
        assert apply_T(yi + yi1, i) == apply_Y(tf, i) + apply_Y(tf, i + 1)
        assert apply_T(apply_Y(yi1, i), i) == apply_Y(apply_Y(tf, i + 1), i)
        # symmetrizer factorizations
        m = rng.randrange(0, n)
        s_full = symmetrize_t(f, m)
        if m + 1 <= n:
            assert s_full == symmetrize_t(apply_R(f, m, n), m + 1)
            assert s_full == apply_L(symmetrize_t(f, m + 1), m, n)
        partial = f
        for top in range(m + 2, n):
            acc, h = partial, partial
            for j in range(top - 1, m, -1):
                h = apply_T(h, j)
                acc = acc + h
            partial = acc
        assert s_full == apply_Lprime(partial, m, n)
    _report(11, "operator algebra", t0, 120)
