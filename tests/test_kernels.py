"""Truncated reproducing kernels and Cauchy-type identities."""

import hashlib

import pytest

from msym.qt_field import ONE, Q, T
from msym.polyring import DegreeGuardError, MultiPoly, _relabel
from msym.combinatorics import (MPartition, enumerate_mpartitions,
                                 is_orbit_rep, partitions_of)
from msym.macdonald import msym_P
from msym.structure import norm_formula, scalar_product_m, z_lambda_qt
from msym import kernels, polyring
from msym.kernels import (BiPoly, b_coefficient, cauchy_cases,
                          cauchy_identity_check, hl_kernel_cases,
                          kernel_eigen_symmetry_cases,
                          kernel_hecke_symmetry_cases,
                          kernel_xy_symmetry_cases, km_expansion_cases,
                          km_sum_truncated, km_truncated, nonsym_cauchy_cases)
from oracles import (cauchy_lhs_by_full_product, holds, k0_by_pair_sums,
                     k0_product_truncated, km_by_full_product)


def _in_x(f, ny):
    """f as a function of the x alphabet, next to ny y letters."""
    return BiPoly(f.nvars, ny, f.extend(f.nvars + ny))


def _in_y(g, nx):
    """g as a function of the y alphabet, after nx x letters."""
    return BiPoly(nx, g.nvars,
                  _relabel(g, [-1] * nx + [*range(g.nvars)], ()))


class TestBiPoly:
    def test_embeddings(self):
        f = MultiPoly.variable(2, 1)
        bx = _in_x(f, 2)
        by = _in_y(f, 2)
        assert bx.poly.coefficient_of((1, 0, 0, 0)).is_one()
        assert by.poly.coefficient_of((0, 0, 1, 0)).is_one()

    def test_truncated_mul(self):
        f = _in_x(MultiPoly.variable(1, 1), 1)
        g = _in_y(MultiPoly.variable(1, 1), 1)
        prod = f.mul(g, 1)
        assert prod.poly.coefficient_of((1, 1)).is_one()
        assert f.mul(f, 1).poly.is_zero()  # x-degree 2 truncated away


class TestK0:
    def test_degree_zero_and_one(self):
        k = km_truncated(0, 1, 1, 1)
        assert k.poly.coefficient_of((0, 0)).is_one()
        assert k.poly.coefficient_of((1, 1)) == (ONE - T) / (ONE - Q)

    def test_product_form_oracle(self):
        # square, unequal and empty alphabets, and degree 0
        for (nx, ny, d) in [(1, 1, 3), (2, 2, 3), (2, 3, 2), (4, 4, 3),
                            (3, 2, 4), (1, 4, 4), (5, 5, 2), (0, 2, 3),
                            (2, 0, 3), (3, 3, 0)]:
            assert (km_truncated(0, nx, ny, d)
                    == k0_product_truncated(nx, ny, d))

    def test_closed_form_inverse_of_z_lambda(self):
        # the closed form's canonical num and key are the inverse's
        for d in range(7):
            for lam in partitions_of(d):
                z_inv = z_lambda_qt(lam).inverse()
                c = kernels._z_qt_inverse(lam)
                assert (c.num, c.key) == (z_inv.num, z_inv.key)

    def test_bihomogeneous(self):
        k = km_truncated(0, 2, 2, 3)
        assert all(sum(e[:2]) == sum(e[2:]) for e in k.poly.terms)

    def test_orbit_shares_one_coefficient(self):
        # K_0 is symmetric in each alphabet: every monomial of an orbit pair
        # holds the one coefficient object of its representatives
        k = km_truncated(0, 3, 3, 3)
        first = {}
        for e, c in k.poly.terms.items():
            orbit = (tuple(sorted(e[:3])), tuple(sorted(e[3:])))
            assert first.setdefault(orbit, c) is c
        assert len(first) < len(k.poly.terms)


def _pair_sum_by_products(Nx, Ny, maxdeg, m, terms):
    """The pair sum as truncated BiPoly products of the full polynomials,
    scaled and added one term at a time, over every term (m is unused)."""
    acc = MultiPoly.zero(Nx + Ny)
    for c, f, g in terms:
        term = _in_x(MultiPoly(Nx, f), Ny).mul(_in_y(MultiPoly(Ny, g), Nx),
                                               maxdeg)
        acc = acc + term.poly.scale(c)
    return BiPoly(Nx, Ny, acc)


def _at_rep_pairs(f, nx, m):
    """The terms of f, a polynomial in nx + ny variables, at pairs of
    m-representatives."""
    return {e: c for e, c in f.terms.items()
            if is_orbit_rep(e[:nx], m) and is_orbit_rep(e[nx:], m)}


def _pair_reps_by_products(maxdeg, m, terms):
    """The oracle for _pair_reps: _pair_sum_by_products at its pairs of
    m-representatives, with the alphabet sizes read off the first term."""
    terms = [(c, f, g) for c, f, g in terms if f and g]
    nx, ny = len(next(iter(terms[0][1]))), len(next(iter(terms[0][2])))
    full = _pair_sum_by_products(nx, ny, maxdeg, m, terms).poly
    return {(e[:nx], e[nx:]): c for e, c in _at_rep_pairs(full, nx, m).items()}


def k0_truncated(Nx, Ny, maxdeg):
    """K_0, truncated: K_m at m = 0, named for the parametrized cases."""
    return km_truncated(0, Nx, Ny, maxdeg)


def _cauchy_rhs(m, maxdeg):
    """The P-basis side of cauchy_cases(m, maxdeg)."""
    return next(cauchy_cases(m, maxdeg))[2]


@pytest.mark.parametrize("build,args", [
    (k0_truncated, (1, 1, 3)), (k0_truncated, (2, 3, 3)),
    (km_sum_truncated, (0, 2, 2)), (km_sum_truncated, (1, 3, 2)),
    (km_sum_truncated, (2, 3, 2)),
    # nontrivial orbits, unequal alphabets, m > 0 tails
    (k0_truncated, (4, 2, 3)), (km_sum_truncated, (1, 4, 3)),
    (_cauchy_rhs, (1, 2)),
    # K_0 on unequal and empty alphabets
    (k0_truncated, (2, 4, 4)), (k0_truncated, (0, 3, 2)),
    (k0_truncated, (3, 0, 2))])
def test_pair_sum_matches_product_oracle(monkeypatch, build, args):
    # the K_0 cases check its table, one sum per unordered pair of
    # partitions, against one pair sum per ordered pair over every term of
    # p_lambda
    by_orbits = build(*args)
    monkeypatch.setattr(kernels, "_pair_reps", _pair_reps_by_products)
    monkeypatch.setattr(kernels, "_k0_reps", k0_by_pair_sums)
    assert by_orbits == build(*args)


def _no_bracket(*args):
    raise AssertionError("bracket built before the degree guard check")


@pytest.mark.parametrize("build,args", [
    (k0_truncated, (3, 2, 4)), (km_truncated, (0, 2, 2, 4)),
    (km_truncated, (2, 3, 3, 4)), (kernels._kbar, (2, 3, 4))])
def test_kernels_obey_the_degree_guard(monkeypatch, build, args):
    # K_0's table checks maxdeg against the guard before any sum, and is
    # built before the bracket, so every kernel fails fast past it
    monkeypatch.setattr(polyring, "_DEGREE_GUARD", 3)
    monkeypatch.setattr(kernels, "_km_bracket", _no_bracket)
    monkeypatch.setattr(kernels, "_sym_bracket", _no_bracket)
    with pytest.raises(DegreeGuardError, match="degree 4 exceeds guard 3"):
        build(*args)


def test_bench_kernel_outputs_unchanged():
    # a golden hash of the text of every kernel the benchmark's kernels
    # workload builds, then of K_0(5, 5, 4): any change to the pair sums,
    # the bracket or the truncated product must leave it as it is
    h = hashlib.sha256()
    specs = [(m, nx, ny, d) for m in (0, 1, 2) for d in (2, 3, 4)
             for nx in range(max(m, 1), 5) for ny in range(max(m, 1), 5)
             if nx + ny + d <= 9]
    assert len(specs) == 93
    for m, nx, ny, d in specs:
        h.update(("%d %d %d %d\n%s\n"
                  % (m, nx, ny, d, km_truncated(m, nx, ny, d))).encode())
    h.update(str(km_truncated(0, 5, 5, 4)).encode())
    assert h.hexdigest() == ("0690a48cfad3de0cf9586b15491d5781"
                             "72f9b46bedf465b82a0795ae35aca221")


def _km_specs(m):
    """(Nx, Ny, maxdeg) for m <= Nx, Ny <= m + 3 and maxdeg <= 4; at m = 3
    and degree 4 only Nx + Ny <= 8, since the full products of the rest
    take about 4 s."""
    return [(nx, ny, d) for nx in range(m, m + 4) for ny in range(m, m + 4)
            for d in range(5) if m < 3 or d < 4 or nx + ny <= 8]


@pytest.mark.parametrize("m", range(4))
def test_km_matches_full_product_oracle(m):
    # K_m at orbit representatives against every monomial of K_0 times
    # every bracket term
    for nx, ny, d in _km_specs(m):
        assert (km_truncated(m, nx, ny, d)
                == km_by_full_product(m, nx, ny, d)), (nx, ny, d)


@pytest.mark.parametrize("m", range(4))
def test_bracket_is_in_its_2m_variables(m):
    for d in range(5):
        assert kernels._sym_bracket(m, d, qinv=True).nvars == 2 * m
        bracket = kernels._km_bracket(m, d, qinv=False)
        assert (bracket.nx, bracket.ny) == (m, m)


def test_km_matches_full_product_oracle_at_k2_664():
    assert km_truncated(2, 6, 6, 4) == km_by_full_product(2, 6, 6, 4)


class TestKm:
    def test_m0_is_k0(self, monkeypatch):
        # at m = 0 K_m is K_0's table, with no bracket built
        monkeypatch.setattr(kernels, "_sym_bracket", _no_bracket)
        assert km_truncated(0, 2, 2, 2) == k0_product_truncated(2, 2, 2)

    def test_b_coefficient_degree_one(self):
        # coefficient of p_1(x)p_1(y)-type term: b = (1-t)/(1-q) at m=0
        assert norm_formula(MPartition((), (1,))).inverse() == \
            (ONE - T) / (ONE - Q)

    def test_b_coefficient_inverts_the_norm(self):
        # the closed form is the canonical inverse of the norm formula
        for m in range(3):
            for d in range(5):
                for lab in enumerate_mpartitions(m, d):
                    b, norm = b_coefficient(lab), norm_formula(lab)
                    assert b * norm == ONE, str(lab)
                    inv = norm.inverse()
                    assert (b.num, b.key) == (inv.num, inv.key), str(lab)

    def test_expansion_small(self):
        assert holds(km_expansion_cases(0, 2))
        assert holds(km_expansion_cases(1, 2))

    def test_sum_matches_scalar_duality(self):
        # the kernel expansion and <P, bP> = delta are two faces of the same
        # statement; verify the pairing side at m=1, deg<=2
        m, dmax = 1, 2
        N = m + dmax
        labs = [lab for d in range(dmax + 1)
                for lab in enumerate_mpartitions(m, d, max_sym_length=N - m)]
        for i, A in enumerate(labs):
            PA = msym_P(A, N).poly
            for B in labs:
                if A.degree() != B.degree():
                    continue
                v = scalar_product_m(
                    PA, msym_P(B, N).poly.scale(norm_formula(B).inverse()),
                    m, verify=False)
                assert v.is_one() if A == B else v.is_zero()

    def test_xy_symmetry(self):
        assert holds(kernel_xy_symmetry_cases(1, 2))

    def test_xy_symmetry_sees_one_wrong_pair(self, monkeypatch):
        # doubling K_m's coefficient at one pair (a, b) with a != b breaks
        # the comparison of its table with the mirror
        km_reps = kernels._km_reps

        def one_wrong(*args):
            reps = dict(km_reps(*args))
            ab = min(pair for pair in reps if pair[0] != pair[1])
            reps[ab] = reps[ab] * 2
            return reps
        monkeypatch.setattr(kernels, "_km_reps", one_wrong)
        for m in range(3):
            assert not holds(kernel_xy_symmetry_cases(m, 2)), m

    def test_alphabet_guard(self):
        with pytest.raises(ValueError):
            km_truncated(2, 1, 1, 2)


def test_kernel_identities_never_write_out(monkeypatch):
    # K_m, its P-basis expansion and the Hall-Littlewood sum are compared
    # on their tables at pairs of m-representatives, never at full orbits
    def no_write_out(*args):
        raise AssertionError("a kernel identity wrote out a full orbit")
    for name in ("_orbit_pairs", "km_truncated", "km_sum_truncated"):
        monkeypatch.setattr(kernels, name, no_write_out)
    for m in range(3):
        for d in range(4):
            assert holds(km_expansion_cases(m, d)), (m, d)
            assert holds(kernel_xy_symmetry_cases(m, d)), (m, d)
            if m:
                assert holds(hl_kernel_cases(m, d)), (m, d)


class TestHLKernel:
    def test_m1_geometric(self):
        assert holds(hl_kernel_cases(1, 3))

    def test_m2(self):
        assert holds(hl_kernel_cases(2, 2))

    def test_t_one_collapse(self):
        # at t=1 both sides reduce to monomial sums: check numerically via
        # the m=2, deg 2 identity which already holds exactly
        assert holds(hl_kernel_cases(2, 1))


class TestCauchy:
    def test_m0(self):
        assert holds(cauchy_cases(0, 2))
        assert cauchy_identity_check(0, 2) is True

    def test_m1_coefficient(self):
        # coefficient of x1 y1 on both sides is (1-qt)/(1-q)
        from msym.kernels import _cauchy_lhs
        lhs = _cauchy_lhs(1, 1, 1)
        assert lhs.coefficient_of((1, 1)) == (ONE - Q * T) / (ONE - Q)

    def test_lhs_is_the_full_product_at_representatives(self):
        # K-bar_m relabelled holds exactly the full product's terms at
        # pairs of m-representatives
        for m in range(4):
            for N in range(max(m, 1), m + 4):
                for d in range(9 - N):
                    full = cauchy_lhs_by_full_product(m, N, d).poly
                    assert (kernels._cauchy_lhs(m, N, d).terms
                            == _at_rep_pairs(full, N, m)), (m, N, d)

    def test_lhs_never_expands_k0(self, monkeypatch):
        def no_write_out(*args):
            raise AssertionError("a kernel written out to every monomial")
        monkeypatch.setattr(kernels, "_orbit_pairs", no_write_out)
        (_, lhs, rhs), = cauchy_cases(2, 3)
        assert len(lhs.terms) == 255  # 1,476 in the full product
        assert lhs == rhs

    def test_one_wrong_coefficient_fails(self, monkeypatch):
        # the comparison at representatives sees a change in one label
        assert holds(cauchy_cases(1, 2))
        coeff = kernels._cauchy_coeff
        wrong = MPartition((1,), (1,))
        monkeypatch.setattr(kernels, "_cauchy_coeff", lambda lab: (
            coeff(lab) * 2 if lab == wrong else coeff(lab)))
        assert not holds(cauchy_cases(1, 2))

    def test_m1(self):
        assert holds(cauchy_cases(1, 2))

    def test_nonsym(self):
        assert holds(nonsym_cauchy_cases(1, 2))
        assert holds(nonsym_cauchy_cases(2, 2))

    def test_degree_3(self):
        # the rhs builds the lower-degree P_Lambda at N = m + 3, past their
        # faithful count, so they are lifted from fewer variables
        for m in range(3):
            assert holds(cauchy_cases(m, 3)), m
        for m in (1, 2):
            assert holds(nonsym_cauchy_cases(m, 3)), m
            assert holds(nonsym_cauchy_cases(m, 4)), m


class TestOperatorSymmetry:
    def test_hecke_symmetry_kernel_is_the_full_product(self):
        # K-bar_m on alphabets of size m comes from the K_m routine, where
        # every exponent is its own m-representative
        for m in range(1, 4):
            for d in range(4):
                bracket = kernels._km_bracket(m, d, qinv=True)
                reps = kernels._k0_times(kernels._k0_reps(m, m, d), d, m,
                                         bracket.poly)
                assert kernels._at_reps(2 * m, reps) == \
                    km_truncated(0, m, m, d).mul(bracket, d).poly, (m, d)

    def test_hecke_symmetry(self):
        assert holds(kernel_hecke_symmetry_cases(2, 2))
        # m=1 is vacuous (no admissible generator index)
        assert holds(kernel_hecke_symmetry_cases(1, 2))

    def test_eigen_symmetry(self):
        assert holds(kernel_eigen_symmetry_cases(1, 2))
