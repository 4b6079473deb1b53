"""Independent oracles the tests compare the library against, and the check
that every case of an identity holds."""

from msym.hecke_ops import apply_T, apply_Tbar
from msym.kernels import BiPoly, _xy_series
from msym.polyring import _relabel
from msym.qt_field import QtRational, ONE, T


def holds(cases):
    """Whether both sides of every (witness, lhs, rhs) case are equal."""
    return all(lhs == rhs for _, lhs, rhs in cases)


def k0_product_truncated(Nx, Ny, maxdeg):
    """Independent product form of K_0: for each pair (i,j) the factor
    prod_k (1 - t x_i y_j q^k)/(1 - x_i y_j q^k) expands by the q-binomial
    theorem as sum_n z^n prod_{l=1..n} (1 - t q^{l-1})/(1 - q^l)."""
    coeffs = [ONE]
    for n in range(1, maxdeg + 1):
        coeffs.append(coeffs[-1]
                      * (ONE - T * QtRational.monomial(1, n - 1, 0))
                      / (ONE - QtRational.monomial(1, n, 0)))
    acc = BiPoly.one(Nx, Ny)
    for i in range(1, Nx + 1):
        for j in range(1, Ny + 1):
            acc = acc.mul(_xy_series(Nx, Ny, i, j, coeffs), maxdeg)
    return acc


def apply_omega_inv(f, lo=1, hi=None):
    """Inverse of hecke_ops.apply_omega: x_hi moves to position lo and
    gains a factor 1/q."""
    hi = f.nvars if hi is None else hi
    src = list(range(f.nvars))
    src.insert(lo - 1, src.pop(hi - 1))
    return _relabel(f, src, ((hi - 1, -1),))


def apply_Y_inv(f, i, lo=1, hi=None):
    """Inverse Cherednik operator
    Y_i^{-1} = t^{n-i} T_{i-1}..T_1 omega^{-1} Tbar_{n-1}..Tbar_i on the
    window (indices relative to the window)."""
    hi = f.nvars if hi is None else hi
    n = hi - lo + 1
    if not 1 <= i <= n:
        raise IndexError("Y_%d undefined on window of size %d" % (i, n))
    off = lo - 1
    for j in range(i, n):
        f = apply_Tbar(f, j + off)
    f = apply_omega_inv(f, lo, hi)
    for j in range(1, i):
        f = apply_T(f, j + off)
    return f.scale(QtRational.monomial(1, 0, n - i))
