"""Compositions, partitions, m-partitions with circled diagrams, the four
arm/leg statistics, Bruhat and dominance orders, and enumeration.

Conventions (everything 1-based):
  * the diagram of an m-partition (a; lam) is the Young diagram of the
    multiset a U lam, rows weakly decreasing; the i-circle sits at the right
    of a row of size a_i; among rows of equal size circled rows come first,
    circles ordered top to bottom by increasing label;
  * r(i) is the row carrying the i-circle;
  * a composition of length N is drawn the same way with circles 1..N.
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# compositions and partitions as plain tuples
# ---------------------------------------------------------------------------

def inversions(comp):
    """Inv: number of pairs i<j with comp_i < comp_j."""
    return sum(1 for i in range(len(comp)) for j in range(i + 1, len(comp))
               if comp[i] < comp[j])


def coinversions(comp):
    """coInv: pairs i<j with comp_i >= comp_j."""
    n = len(comp)
    return n * (n - 1) // 2 - inversions(comp)


def n_stat(partition):
    """n(lam) = sum (i-1) lam_i."""
    return sum(i * part for i, part in enumerate(partition))


def sort_desc(comp):
    return tuple(sorted(comp, reverse=True))


def circle_rows(comp):
    """Row of the i-circle in the composition's diagram, as a tuple r with
    r[i-1] = row of circle i.  Equal entries get rows in index order."""
    n = len(comp)
    return tuple(
        1 + sum(1 for j in range(n) if comp[j] > comp[i])
        + sum(1 for j in range(i) if comp[j] == comp[i])
        for i in range(n))


def dominance_leq_partition(mu, lam):
    """mu <= lam in dominance; requires equal weight."""
    if sum(mu) != sum(lam):
        raise ValueError("dominance compares equal degrees only")
    sm = sl = 0
    for i in range(max(len(mu), len(lam))):
        sm += mu[i] if i < len(mu) else 0
        sl += lam[i] if i < len(lam) else 0
        if sm > sl:
            return False
    return True


def perm_bruhat_leq(u, v):
    """u <= v in Bruhat order on S_n, one-line notation (Ehresmann)."""
    n = len(u)
    if len(v) != n:
        raise ValueError("permutations of different sizes")
    pu, pv = [], []
    for k in range(n - 1):
        pu.append(u[k])
        pu.sort()
        pv.append(v[k])
        pv.sort()
        for a, b in zip(pu, pv):
            if a > b:
                return False
    return True


def bruhat_less(nu, eta):
    """nu < eta in the Bruhat order on compositions: nu+ < eta+ in dominance,
    or nu+ = eta+ and the sorting permutation of eta is a proper Bruhat
    subword of that of nu."""
    if len(nu) != len(eta):
        raise ValueError("compositions of different lengths")
    if sum(nu) != sum(eta):
        raise ValueError("compositions of different degrees")
    nup, etap = sort_desc(nu), sort_desc(eta)
    if nup != etap:
        return dominance_leq_partition(nup, etap)
    if nu == eta:
        return False
    wn = circle_rows(nu)
    we = circle_rows(eta)
    return we != wn and perm_bruhat_leq(we, wn)


# ---------------------------------------------------------------------------
# cells and m-partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """A square of a circled diagram, or a circle when label is not None."""
    row: int
    col: int
    label: int | None = None

    @property
    def is_circle(self):
        return self.label is not None


class MPartition:
    """Pair (a; lam): a composition a with m parts and a partition lam."""

    __slots__ = ("a", "lam", "_rows", "_circle_of_row", "_row_of_circle",
                 "_hash")

    def __init__(self, a, lam=()):
        self.a = tuple(int(x) for x in a)
        if any(x < 0 for x in self.a):
            raise ValueError("negative entry in a")
        lam = tuple(int(x) for x in lam if int(x) != 0)
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise ValueError("lambda must be weakly decreasing")
        if any(x < 0 for x in lam):
            raise ValueError("negative entry in lambda")
        self.lam = lam
        self._build_diagram()
        self._hash = None

    def _build_diagram(self):
        entries = [(size, label) for label, size in enumerate(self.a, start=1)]
        entries += [(size, None) for size in self.lam]
        # weakly decreasing sizes; circled rows first within a size block,
        # circles by increasing label
        entries.sort(key=lambda sl: (-sl[0], 0 if sl[1] else 1, sl[1] or 0))
        self._rows = tuple(entries)
        self._row_of_circle = {}
        self._circle_of_row = {}
        for r, (size, label) in enumerate(entries, start=1):
            if label is not None:
                self._row_of_circle[label] = r
                self._circle_of_row[r] = label

    # -- basics -----------------------------------------------------------

    @property
    def m(self):
        return len(self.a)

    def degree(self):
        return sum(self.a) + sum(self.lam)

    def length(self):
        return self.m + len(self.lam)

    def __eq__(self, other):
        return (isinstance(other, MPartition) and self.a == other.a
                and self.lam == other.lam)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.a, self.lam))
        return self._hash

    def __str__(self):
        return "(%s; %s)" % (",".join(map(str, self.a)),
                             ",".join(map(str, self.lam)))

    def __repr__(self):
        return "MPartition(%r, %r)" % (self.a, self.lam)

    def to_json(self):
        return {"a": list(self.a), "lambda": list(self.lam)}

    # -- diagram ------------------------------------------------------------

    def row_sizes(self):
        """Weakly decreasing row sizes (the partition a U lam)."""
        return tuple(size for size, _ in self._rows)

    def nrows(self):
        return len(self._rows)

    def row_label(self, r):
        """Label of the circle ending row r, or None for a symmetric row."""
        return self._circle_of_row.get(r)

    def cells(self):
        """Squares of the diagram, row by row."""
        for r, (size, _) in enumerate(self._rows, start=1):
            for c in range(1, size + 1):
                yield Cell(r, c)

    def cells_with_circles(self):
        """Squares and circles (the set used by the evaluation product)."""
        for r, (size, label) in enumerate(self._rows, start=1):
            for c in range(1, size + 1):
                yield Cell(r, c)
            if label is not None:
                yield Cell(r, size + 1, label)

    def partition_i(self, i):
        """Lambda^(i): circles 1..i turned into squares, others discarded."""
        boosted = tuple(x + 1 for x in self.a[:i]) + self.a[i:]
        return tuple(sorted((x for x in boosted + self.lam if x), reverse=True))

    def n_stat(self):
        """n(Lambda) = n(Lambda^(m))."""
        return n_stat(self.partition_i(self.m))

    # -- arm/leg statistics --------------------------------------------------

    def _circles_in_col(self, col, below_row):
        """Labels of circles sitting in the given column, below the row."""
        out = []
        for label, r in self._row_of_circle.items():
            if r > below_row and self._rows[r - 1][0] + 1 == col:
                out.append(label)
        return out

    def arm(self, cell):
        """a(s): squares to the right, plus one if the row ends in a circle."""
        size, label = self._rows[cell.row - 1]
        if cell.is_circle:
            return 0
        return size - cell.col + (1 if label is not None else 0)

    def arm_tilde(self, cell):
        size, _ = self._rows[cell.row - 1]
        if cell.is_circle:
            return 0
        return size - cell.col

    def _squares_below(self, cell):
        return sum(1 for r in range(cell.row + 1, len(self._rows) + 1)
                   if self._rows[r - 1][0] >= cell.col)

    def leg(self, cell):
        """l(s): squares below, plus the circles below in the column whose
        label is smaller than the label ending the row (if any)."""
        if cell.is_circle:
            return 0
        base = self._squares_below(cell)
        label = self._rows[cell.row - 1][1]
        if label is None:
            return base
        smaller = sum(1 for lab in self._circles_in_col(cell.col, cell.row)
                      if lab < label)
        return base + smaller

    def leg_tilde(self, cell):
        """l~(s): as l(s), except all column circles count when the row does
        not end in a circle."""
        if cell.is_circle:
            return 0
        base = self._squares_below(cell)
        label = self._rows[cell.row - 1][1]
        circles = self._circles_in_col(cell.col, cell.row)
        if label is None:
            return base + len(circles)
        return base + sum(1 for lab in circles if lab < label)


def dominance_leq(omega, lam):
    """Omega <= Lambda in m-partition dominance: Omega^(i) <= Lambda^(i)
    for every i = 0..m."""
    if omega.m != lam.m:
        raise ValueError("different m")
    if omega.degree() != lam.degree():
        raise ValueError("different degrees")
    return all(
        dominance_leq_partition(omega.partition_i(i), lam.partition_i(i))
        for i in range(lam.m + 1))


def dominance_key(mpart):
    """Sort key giving a linear extension of m-partition dominance
    (smaller first); ties broken lexicographically on (a, lam).  Padding
    depends only on (m, degree) so keys of comparable labels align."""
    n = mpart.m + mpart.degree() + 1
    key = tuple(mpart.partition_i(i) + (0,) * (n - len(mpart.partition_i(i)))
                for i in range(mpart.m + 1))
    return key + (mpart.a, mpart.lam)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

# Memo table; macdonald.clear_caches() empties it with the others.
_PARTITIONS = {}  # (n, max_part, max_length) -> partitions_of's result


def partitions_of(n, max_part=None, max_length=None):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        return ((),)
    if max_length == 0:
        return ()
    key = (n, max_part, max_length)
    hit = _PARTITIONS.get(key)
    if hit is None:
        top = n if max_part is None else min(n, max_part)
        hit = _PARTITIONS[key] = tuple(
            (first,) + rest for first in range(top, 0, -1)
            for rest in partitions_of(
                n - first, first,
                None if max_length is None else max_length - 1))
    return hit


def compositions_of(n, length):
    """All weak compositions of n with the given number of parts."""
    if length == 0:
        return [()] if n == 0 else []
    out = []
    for first in range(n + 1):
        for rest in compositions_of(n - first, length - 1):
            out.append((first,) + rest)
    return out


def enumerate_mpartitions(m, degree, max_sym_length=None):
    """All m-partitions of the given degree, in a dominance-compatible order
    (dominance-smaller first)."""
    out = []
    for k in range(degree + 1):
        for a in compositions_of(k, m):
            for lam in partitions_of(degree - k, None, max_sym_length):
                out.append(MPartition(a, lam))
    out.sort(key=dominance_key)
    return out


def unique_permutations(seq):
    """Distinct permutations of seq in lexicographic order."""
    seq = sorted(seq)
    n = len(seq)
    while True:
        yield tuple(seq)
        for k in range(n - 2, -1, -1):
            if seq[k] < seq[k + 1]:
                break
        else:
            return
        for i in range(n - 1, k, -1):
            if seq[k] < seq[i]:
                break
        seq[k], seq[i] = seq[i], seq[k]
        seq[k + 1:] = reversed(seq[k + 1:])
