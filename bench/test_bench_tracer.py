"""Coverage of the benchmark's tracer: exact call counts on tiny inputs, for
calls that reach a function through any module's by-name import of it."""

import importlib
import os
import sys
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import cache_sizes, clear_caches  # noqa: E402


@pytest.fixture
def ms():
    ns = types.SimpleNamespace(**{name: importlib.import_module("msym." + name)
                                  for name in LAYERS})
    clear_caches(ns)
    yield ns
    clear_caches(ns)


def _poly(ms, n):
    terms = {tuple((i + j) % 2 for j in range(n)):
             ms.qt_field.QtRational.from_int(i + 1) for i in range(2)}
    return ms.polyring.MultiPoly(n, terms)


@pytest.mark.parametrize("n,m", [(4, 0), (5, 1), (6, 2), (3, 2)])
def test_symmetrize_makes_k_choose_2_generator_calls(ms, n, m):
    f = _poly(ms, n)
    with Tracer(vars(ms)) as tr:
        ms.hecke_ops.symmetrize_t(f, m)
    k = n - m
    assert tr.count("hecke_ops.apply_T") == k * (k - 1) // 2
    assert tr.count("hecke_ops.symmetrize_t") == 1


def test_second_build_adds_no_cache_entries(ms):
    lab = ms.combinatorics.MPartition((1,), (1,))
    with Tracer(vars(ms)) as tr:
        before = cache_sizes(ms)
        first = ms.macdonald.msym_P(lab, 3).poly
        middle = cache_sizes(ms)
        second = ms.macdonald.msym_P(lab, 3).poly
        after = cache_sizes(ms)
    assert second is first
    assert middle["P"] - before["P"] == 1
    assert after == middle
    assert tr.count("macdonald.msym_P") == 2


def test_calls_through_by_name_imports_are_counted(ms):
    x1 = ms.polyring.MultiPoly.variable(1, 1)
    with Tracer(vars(ms)) as tr:
        # structure: expand_in_basis -> _basis_poly -> its own msym_P name
        ms.structure.expand_in_basis(x1, 0, "P_Lambda")
        via_structure = tr.count("macdonald.msym_P")
        # kernels: km_sum_truncated -> its own msym_P name, degrees 0 and 1
        ms.kernels.km_sum_truncated(0, 1, 1)
        via_kernels = tr.count("macdonald.msym_P") - via_structure
        # macdonald: H_(0,1) = T_1 x^(1,0) through its own apply_T name
        ms.macdonald.hall_littlewood_H((0, 1))
        t_via_macdonald = tr.count("hecke_ops.apply_T")
        # kernels: BiPoly.map_T_x through its own apply_T name
        ms.kernels.BiPoly.one(2, 1).map_T_x(1)
        t_via_kernels = tr.count("hecke_ops.apply_T") - t_via_macdonald
    assert via_structure == 1
    assert via_kernels == 2
    assert t_via_macdonald == 1
    assert t_via_kernels == 1


def test_removal_restores_every_binding(ms):
    modules = [sys.modules["msym"]] + list(vars(ms).values())
    bindings = [(mod, dict(vars(mod))) for mod in modules]
    methods = dict(vars(ms.qt_field.QtRational))
    apply_t = ms.hecke_ops.apply_T
    f = _poly(ms, 3)
    plain = ms.hecke_ops.symmetrize_t(f, 0)
    with Tracer(vars(ms)) as tr:
        traced = ms.hecke_ops.symmetrize_t(f, 0)
        assert ms.macdonald.apply_T is ms.hecke_ops.apply_T is not apply_t
    assert traced == plain
    assert tr.layers["hecke_ops"].self_s > 0
    for mod, space in bindings:
        assert all(vars(mod)[name] is val for name, val in space.items())
    assert dict(vars(ms.qt_field.QtRational)) == methods
