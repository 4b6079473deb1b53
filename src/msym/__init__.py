"""Exact engine for non-symmetric and m-symmetric Macdonald polynomials."""

from .qt_field import QtRational, parse_qt
from .polyring import MultiPoly
from .combinatorics import (Cell, MPartition, bruhat_less, dominance_leq,
                            enumerate_mpartitions)
from .hecke_ops import (apply_T, apply_Tbar, apply_omega, apply_Y, apply_Phi,
                        apply_D, symmetrize_t)
from .macdonald import (LabeledPoly, EigenvalueVector, nonsym_E,
                        hall_littlewood_H, msym_P, integral_J, eigenvalues,
                        psi_box_raise, invert_qt)
from .structure import (Expansion, monomial_m, powersum_t, expand_in_basis,
                        scalar_product_m, norm_formula, inclusion_coeffs,
                        restriction, principal_specialization, evaluation_u,
                        sesquilinear_product)
from .kernels import (BiPoly, km_truncated, hl_kernel_cases, cauchy_cases,
                      cauchy_identity_check, nonsym_cauchy_cases,
                      kernel_hecke_symmetry_cases)

__version__ = "0.1.0"
