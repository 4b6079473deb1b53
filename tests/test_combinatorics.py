"""Circled diagrams, statistics, and orders."""

import hashlib
import itertools

import pytest

from msym.combinatorics import (Cell, MPartition, bruhat_less, circle_rows,
                                compositions_of, dominance_leq,
                                enumerate_mpartitions, inversions,
                                coinversions, is_orbit_rep, n_stat, orbit,
                                orbit_reps, partitions_of, sort_desc,
                                unique_permutations)

from oracles import circle_rows_by_count


def _contains(lam, cell):
    """Whether cell is a square or circle of lam's diagram."""
    if not 1 <= cell.row <= lam.nrows():
        return False
    size = lam.row_sizes()[cell.row - 1]
    if cell.is_circle:
        return (lam.row_label(cell.row) == cell.label
                and cell.col == size + 1)
    return 1 <= cell.col <= size


def _coarm(cell):
    """a'(s): the squares left of cell in its row."""
    return cell.col - 1


def _coleg(cell):
    """l'(s): the squares above cell in its column."""
    return cell.row - 1


class TestRearrange:
    def test_paper_composition_rows(self):
        eta = (0, 2, 1, 3, 2, 0, 2, 0, 0)
        plus, r = sort_desc(eta), circle_rows(eta)
        assert plus == (3, 2, 2, 2, 1, 0, 0, 0, 0)
        assert r[4 - 1] == 1 and r[2 - 1] == 2 and r[1 - 1] == 6

    def test_equal_rows_increase(self):
        assert circle_rows((0, 0)) == (1, 2)

    def test_zero_one(self):
        assert circle_rows((0, 1)) == (2, 1)

    def test_matches_count_oracle(self):
        # every composition with at most 6 parts and degree at most 6
        comps = [eta for n in range(7) for d in range(7)
                 for eta in compositions_of(d, n)]
        assert len(comps) == 1716
        for eta in comps:
            assert circle_rows(eta) == circle_rows_by_count(eta), eta

    def test_sorting_property(self):
        for eta in itertools.product(range(3), repeat=4):
            plus, w = sort_desc(eta), circle_rows(eta)
            assert sorted(eta, reverse=True) == list(plus)
            for i, v in enumerate(eta):
                assert plus[w[i] - 1] == v


class TestBruhat:
    def test_examples(self):
        assert bruhat_less((0, 1), (1, 0)) is True
        assert bruhat_less((1, 0), (0, 1)) is False
        assert bruhat_less((1, 0), (1, 0)) is False

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            bruhat_less((1,), (1, 0))
        with pytest.raises(ValueError):
            bruhat_less((1, 1), (1, 0))

    def test_strict_partial_order(self):
        for n, d in ((3, 3), (4, 4)):
            comps = compositions_of(d, n)
            for a in comps:
                assert not bruhat_less(a, a)
            for a in comps:
                for b in comps:
                    if bruhat_less(a, b):
                        assert not bruhat_less(b, a)
                        for c in comps:
                            if bruhat_less(b, c):
                                assert bruhat_less(a, c)


class TestDiagrams:
    def test_row_layout(self):
        lam = MPartition((2, 0, 2, 1), (3, 2))
        assert lam.row_sizes() == (3, 2, 2, 2, 1, 0)
        # circle i ends row r(i) of a + lam, as in the Y_i eigenvalue
        assert circle_rows(lam.a + lam.lam)[:lam.m] == (2, 6, 3, 5)
        assert [lam.row_label(r) for r in (2, 6, 3, 5)] == [1, 2, 3, 4]
        assert lam.row_label(4) is None
        assert lam.row_label(0) is None and lam.row_label(7) is None

    def test_partition_i(self):
        lam = MPartition((2, 0, 2, 1), (3, 2))
        assert lam.partition_i(0) == (3, 2, 2, 2, 1)
        assert lam.partition_i(2) == (3, 3, 2, 2, 1, 1)
        assert lam.partition_i(4) == (3, 3, 3, 2, 2, 1)

    def test_lambda_i_definition_sweep(self):
        for m in range(3):
            for d in range(4):
                for lab in enumerate_mpartitions(m, d):
                    nz = tuple(sorted((v for v in lab.a + lab.lam if v),
                                      reverse=True))
                    assert lab.partition_i(0) == nz
                    boosted = tuple(sorted(
                        [v + 1 for v in lab.a] + list(lab.lam), reverse=True))
                    assert lab.partition_i(m) == boosted

    def test_validation(self):
        with pytest.raises(ValueError):
            MPartition((1,), (1, 2))
        with pytest.raises(ValueError):
            MPartition((-1,), ())


ARM_LEG = {(1, 1): (3, 4), (1, 2): (2, 2), (1, 3): (1, 0), (1, 4): (0, 0),
           (2, 1): (2, 3), (2, 2): (1, 1), (3, 1): (2, 4), (3, 2): (1, 0),
           (4, 1): (0, 1), (5, 1): (0, 0)}
ARM_LEG_TILDE = {(1, 1): (3, 6), (1, 2): (2, 2), (1, 3): (1, 2),
                 (1, 4): (0, 0), (2, 1): (1, 3), (2, 2): (0, 1),
                 (3, 1): (1, 4), (3, 2): (0, 0), (4, 1): (0, 3),
                 (5, 1): (0, 2)}


class TestStatistics:
    def test_worked_example_plain(self):
        lam = MPartition((2, 0, 0, 2), (4, 1, 1))
        for (r, c), (a, l) in ARM_LEG.items():
            cell = Cell(r, c)
            assert lam.arm(cell) == a
            assert lam.leg(cell) == l

    def test_worked_example_tilde(self):
        lam = MPartition((2, 0, 0, 2), (4, 1, 1))
        for (r, c), (a, l) in ARM_LEG_TILDE.items():
            cell = Cell(r, c)
            assert lam.arm_tilde(cell) == a
            assert lam.leg_tilde(cell) == l

    def test_circle_label_rule(self):
        lam = MPartition((0, 1), ())
        cell = Cell(1, 1)
        assert lam.arm(cell) == 1
        assert lam.leg(cell) == 1

    def test_coarm_coleg(self):
        lam = MPartition((2, 0, 0, 2), (4, 1, 1))
        cell = Cell(1, 3)
        assert _contains(lam, cell) and _coarm(cell) == 2
        cell = Cell(3, 1)
        assert _contains(lam, cell) and _coleg(cell) == 2

    def test_outside_cell_rejected(self):
        lam = MPartition((), (1,))
        assert _contains(lam, Cell(1, 1))
        assert not _contains(lam, Cell(1, 2))

    def test_consistency_of_families(self):
        # a~ <= a <= a~+1 always; l <= l~ when the row is symmetric
        for m in range(3):
            for d in range(5):
                for lab in enumerate_mpartitions(m, d):
                    for cell in lab.cells():
                        a, at = lab.arm(cell), lab.arm_tilde(cell)
                        assert at <= a <= at + 1
                        if lab.row_label(cell.row) is None:
                            assert lab.leg(cell) <= lab.leg_tilde(cell)

    def test_diagrams_and_statistics_unchanged(self):
        # a golden hash of the rows, circle labels and all four statistics
        # of every cell and circle over the 635 m-partitions with m <= 3 and
        # degree <= 6: two circles in one column (m = 3) tell l from a leg
        # that counts the circles with larger labels
        h = hashlib.sha256()
        labels = [lab for m in range(4) for d in range(7)
                  for lab in enumerate_mpartitions(m, d)]
        assert len(labels) == 635
        for lab in labels:
            h.update(repr((
                lab.a, lab.lam, lab.row_sizes(),
                tuple(lab.row_label(r) for r in range(1, lab.nrows() + 1)),
                tuple((c.row, c.col, c.label, lab.arm(c), lab.arm_tilde(c),
                       lab.leg(c), lab.leg_tilde(c))
                      for c in lab.cells_with_circles()))).encode())
        assert h.hexdigest() == ("f7db1dc609fc4421bca60f5808fd28b7"
                                 "f940e591b57b1f37812cc2c75d848a59")

    def test_circle_cells_have_zero_stats(self):
        for m in range(1, 3):
            for d in range(4):
                for lab in enumerate_mpartitions(m, d):
                    for cell in lab.cells_with_circles():
                        if cell.is_circle:
                            assert lab.arm(cell) == 0
                            assert lab.leg(cell) == 0


class TestDominance:
    def test_examples(self):
        assert dominance_leq(MPartition((1,), (1,)), MPartition((0,), (2,)))
        lam = MPartition((2, 0, 2, 1), (3, 2))
        assert dominance_leq(lam, lam)

    def test_m_zero_reduces_to_partition_dominance(self):
        for d in range(1, 6):
            parts = partitions_of(d)
            for mu in parts:
                for lam in parts:
                    expected = all(
                        sum(mu[:i + 1]) <= sum(lam[:i + 1])
                        for i in range(len(mu)))
                    got = dominance_leq(MPartition((), mu),
                                        MPartition((), lam))
                    assert got == expected

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            dominance_leq(MPartition((), (1,)), MPartition((0,), (1,)))
        with pytest.raises(ValueError):
            dominance_leq(MPartition((), (1,)), MPartition((), (2,)))

    def test_key_is_linear_extension(self):
        for m in range(3):
            for d in range(5):
                labs = enumerate_mpartitions(m, d)
                pos = {lab: i for i, lab in enumerate(labs)}
                for a in labs:
                    for b in labs:
                        if a != b and dominance_leq(a, b):
                            assert pos[a] < pos[b]


class TestScalarStats:
    def test_inversions(self):
        assert inversions((2, 0, 0, 2)) == 2
        assert coinversions((2, 0, 0, 2)) == 4

    def test_n_stat(self):
        assert n_stat((1,)) == 0
        assert n_stat((3, 2, 1)) == 2 + 2
        assert MPartition((1,), ()).n_stat() == 0

    def test_degree_length(self):
        lam = MPartition((2, 0, 0, 2), (4, 1, 1))
        assert lam.degree() == 10
        assert lam.nrows() == 7  # one row per entry of a and of lam


class TestEnumeration:
    def test_m0_degree2(self):
        labs = enumerate_mpartitions(0, 2)
        assert [(l.a, l.lam) for l in labs] == [((), (1, 1)), ((), (2,))]

    def test_m1_degree1(self):
        labs = enumerate_mpartitions(1, 1)
        assert {(l.a, l.lam) for l in labs} == {((1,), ()), ((0,), (1,))}

    def test_m1_degree0(self):
        labs = enumerate_mpartitions(1, 0)
        assert [(l.a, l.lam) for l in labs] == [((0,), ())]

    def test_max_sym_length(self):
        labs = enumerate_mpartitions(0, 3, max_sym_length=1)
        assert [(l.a, l.lam) for l in labs] == [((), (3,))]

    def test_deterministic(self):
        assert enumerate_mpartitions(2, 3) == enumerate_mpartitions(2, 3)


class TestUniquePermutations:
    def test_multiset(self):
        perms = list(unique_permutations([1, 1, 0]))
        assert sorted(perms) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert len(perms) == len(set(perms))

    def test_orbits_and_representatives(self):
        # the entries after position m are permuted; each orbit has exactly
        # one representative, its tail weakly decreasing
        for m in range(4):
            for e in itertools.product(range(3), repeat=4):
                orb = orbit(e, m)
                assert e in orb and len(orb) == len(set(orb))
                assert all(f[:m] == e[:m] and sorted(f) == sorted(e)
                           for f in orb)
                assert [f for f in orb if is_orbit_rep(f, m)] == [
                    e[:m] + tuple(sorted(e[m:], reverse=True))]

    def test_representatives_of_a_full_orbit(self):
        # orbit_reps lists each m-representative of the full orbit once
        for d in range(7):
            for lam in partitions_of(d):
                for N in range(len(lam), 8):
                    mu = lam + (0,) * (N - len(lam))
                    perms = set(itertools.permutations(mu))
                    for m in range(min(3, N) + 1):
                        reps = orbit_reps(mu, m)
                        assert len(reps) == len(set(reps))
                        assert set(reps) == {e for e in orbit(mu, 0)
                                             if is_orbit_rep(e, m)}
                        # one representative per distinct head of m entries
                        assert len(reps) == len({p[:m] for p in perms})
