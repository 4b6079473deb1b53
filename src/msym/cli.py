"""Batch command-line front-end: expansions, coefficient tables, and the
verification suites, with text or JSON output.

Exit codes: 0 success, 1 verification/check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .qt_field import QtRational, ONE, ZERO
from .polyring import MultiPoly, DegreeGuardError
from .combinatorics import (MPartition, enumerate_mpartitions, bruhat_less,
                            compositions_of)
from .hecke_ops import (apply_T, apply_Tbar, apply_Y, apply_R, apply_L,
                        symmetrize_t)
from .macdonald import nonsym_E, msym_P, eta_bar, invert_qt
from .structure import (monomial_m, expand_in_basis, pair_p_coeffs,
                        scalar_product_m, norm_formula, inclusion_coeffs,
                        restriction, restrict_poly, principal_specialization,
                        principal_specialization_e, principal_point,
                        evaluation_u, gram_schmidt_basis)
from . import kernels


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _usage_error(msg):
    print("error: %s" % msg, file=sys.stderr)
    raise SystemExit(2)


def _parse_csv(s, what):
    if s is None or s == "":
        return ()
    try:
        vals = tuple(int(v) for v in s.split(","))
    except ValueError:
        _usage_error("malformed %s %r (expect comma-separated integers)" % (what, s))
    if any(v < 0 for v in vals):
        _usage_error("%s entries must be nonnegative" % what)
    return vals


def _parse_label(args):
    a = _parse_csv(getattr(args, "a", None), "--a")
    lam = _parse_csv(getattr(args, "lam", None), "--lambda")
    m = getattr(args, "m", None)
    if m is None:
        m = len(a)
    if m != len(a):
        _usage_error("--m %d does not match %d entries in --a" % (m, len(a)))
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        _usage_error("--lambda must be weakly decreasing")
    return MPartition(a, lam)


class Comparator:
    """Coefficient comparison strategy: exact, or evaluation at a fixed
    rational (q0, t0) point (probabilistic-complete fast mode)."""

    def __init__(self, point=None):
        self.point = point

    @property
    def mode(self):
        if self.point is None:
            return "exact"
        return "point(q=%s, t=%s)" % self.point

    def scalars(self, x, y):
        if self.point is None:
            return x == y
        return x.eval(*self.point) == y.eval(*self.point)

    def polys(self, f, g):
        if self.point is None:
            return f == g
        if f.nvars != g.nvars:
            return False
        for e in set(f.terms) | set(g.terms):
            if f.coefficient_of(e).eval(*self.point) != \
                    g.coefficient_of(e).eval(*self.point):
                return False
        return True


def _entry(identity, bounds, ok, t0, witnesses=None):
    e = {"identity": identity, "bounds": bounds,
         "status": "pass" if ok else "fail",
         "time_s": round(time.time() - t0, 3)}
    if witnesses:
        e["witnesses"] = sorted(str(w) for w in witnesses)
    return e


def _rand_poly(rng, n, deg, nterms=6):
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(deg):
            e[rng.randrange(n)] += rng.randrange(2)
        c = rng.randrange(-4, 5)
        if c:
            terms[tuple(e)] = QtRational.from_int(c)
    return MultiPoly(n, terms)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def suite_braid(b, cmp):
    rng = random.Random(b["seed"])
    N = b["N"] or 4
    count = b["count"]
    entries = []

    t0 = time.time()
    ok, wit = True, []
    for k in range(count):
        n = rng.randrange(2, N + 1)
        f = _rand_poly(rng, n, 3)
        i = rng.randrange(1, n)
        Tf = apply_T(f, i)
        if not cmp.polys(apply_T(Tf, i) + Tf,
                         Tf.scale(QtRational.monomial(1, 0, 1))
                         + f.scale(QtRational.monomial(1, 0, 1))):
            ok = False
            wit.append((n, i, k))
        if not cmp.polys(apply_Tbar(Tf, i), f):
            ok = False
            wit.append(("inverse", n, i, k))
    entries.append(_entry("quadratic-and-inverse", "N<=%d x%d" % (N, count),
                          ok, t0, wit))

    t0 = time.time()
    ok, wit = True, []
    for k in range(count):
        n = rng.randrange(3, max(4, N + 1))
        f = _rand_poly(rng, n, 3)
        i = rng.randrange(1, n - 1)
        a = apply_T(apply_T(apply_T(f, i), i + 1), i)
        bb = apply_T(apply_T(apply_T(f, i + 1), i), i + 1)
        if not cmp.polys(a, bb):
            ok = False
            wit.append((n, i, k))
        if n >= 4:
            j = i + 2 if i + 2 < n else i - 2
            if 1 <= j <= n - 1:
                if not cmp.polys(apply_T(apply_T(f, i), j),
                                 apply_T(apply_T(f, j), i)):
                    ok = False
                    wit.append(("commute", n, i, j, k))
    entries.append(_entry("braid-and-commutation", "N<=%d x%d" % (N, count),
                          ok, t0, wit))

    t0 = time.time()
    ok, wit = True, []
    tq = QtRational.monomial(1, 0, 1)
    for k in range(count):
        n = rng.randrange(2, N + 1)
        f = _rand_poly(rng, n, 2)
        i = rng.randrange(1, n)
        lhs = apply_T(apply_Y(f, i), i)
        rhs = apply_Y(apply_T(f, i), i + 1) + apply_Y(f, i).scale(tq - ONE)
        if not cmp.polys(lhs, rhs):
            ok = False
            wit.append(("TYi", n, i, k))
        lhs2 = apply_T(apply_Y(f, i + 1), i)
        rhs2 = apply_Y(apply_T(f, i), i) - apply_Y(f, i).scale(tq - ONE)
        if not cmp.polys(lhs2, rhs2):
            ok = False
            wit.append(("TYi1", n, i, k))
        s = apply_T(apply_Y(f, i) + apply_Y(f, i + 1), i)
        s2 = apply_Y(apply_T(f, i), i) + apply_Y(apply_T(f, i), i + 1)
        if not cmp.polys(s, s2):
            ok = False
            wit.append(("sumYT", n, i, k))
    entries.append(_entry("cherednik-exchange", "N<=%d x%d" % (N, count),
                          ok, t0, wit))

    t0 = time.time()
    ok, wit = True, []
    for k in range(count):
        n = rng.randrange(2, N + 1)
        m = rng.randrange(0, n)
        f = _rand_poly(rng, n, 2)
        s1 = symmetrize_t(f, m)
        if m + 1 <= n and not cmp.polys(s1, symmetrize_t(apply_R(f, m, n), m + 1)):
            ok = False
            wit.append(("R", n, m, k))
        if m + 1 <= n and not cmp.polys(s1, apply_L(symmetrize_t(f, m + 1), m, n)):
            ok = False
            wit.append(("L", n, m, k))
        if not cmp.polys(s1, symmetrize_t(f, m, naive=True)):
            ok = False
            wit.append(("naive", n, m, k))
    entries.append(_entry("symmetrizer-factorizations", "N<=%d x%d" % (N, count),
                          ok, t0, wit))
    return entries


def suite_eigen(b, cmp):
    N = b["N"] or 3
    dmax = b["deg_max"]
    entries = []
    t0 = time.time()
    ok, wit = True, []
    ncomp = 0
    for n in range(1, N + 1):
        for d in range(dmax + 1):
            for eta in compositions_of(d, n):
                ncomp += 1
                poly = nonsym_E(eta).poly
                if not poly.coefficient_of(eta).is_one():
                    ok = False
                    wit.append(("monic", eta))
                    continue
                for nu in poly.terms:
                    if nu != eta and not bruhat_less(nu, eta):
                        ok = False
                        wit.append(("triangular", eta, nu))
                for i in range(1, n + 1):
                    if not cmp.polys(apply_Y(poly, i),
                                     poly.scale(eta_bar(eta, i))):
                        ok = False
                        wit.append(("eigen", eta, i))
    entries.append(_entry("nonsym-eigen-triangular",
                          "N<=%d deg<=%d (%d labels)" % (N, dmax, ncomp),
                          ok, t0, wit))
    return entries


def suite_orthogonality(b, cmp):
    entries = []
    for m in range(b["m_max"] + 1):
        t0 = time.time()
        ok, wit = True, []
        dmax = b["deg_max"]
        N = m + dmax
        labels = [lab for d in range(dmax + 1)
                  for lab in enumerate_mpartitions(m, d, max_sym_length=N - m)]
        exps = {}
        for lab in labels:
            exps[lab] = expand_in_basis(msym_P(lab, N).poly, m,
                                        "p_Lambda_t", verify=False).coeffs
        bydeg = {}
        for lab in labels:
            bydeg.setdefault(lab.degree(), []).append(lab)
        for d, labs in bydeg.items():
            for i, A in enumerate(labs):
                for B in labs[i:]:
                    tot = pair_p_coeffs(exps[A], exps[B])
                    want = norm_formula(A) if A == B else ZERO
                    if not cmp.scalars(tot, want):
                        ok = False
                        wit.append((A, B))
        entries.append(_entry("orthogonality-and-norms",
                              "m=%d deg<=%d" % (m, dmax), ok, t0, wit))
    return entries


def suite_inclusion(b, cmp):
    entries = []
    for m in range(b["m_max"] + 1):
        t0 = time.time()
        ok, wit = True, []
        for d in range(b["deg_max"] + 1):
            for lab in enumerate_mpartitions(m, d):
                N = m + 1 + max(d, 1)
                P = msym_P(lab, N).poly
                rhs = MultiPoly.zero(N)
                for om, psi in inclusion_coeffs(lab).coeffs.items():
                    rhs = rhs + msym_P(om, N).poly.scale(psi)
                if not cmp.polys(rhs, P):
                    ok = False
                    wit.append(lab)
        entries.append(_entry("inclusion-expansion",
                              "m=%d deg<=%d" % (m, b["deg_max"]), ok, t0, wit))

    t0 = time.time()
    rng = random.Random(b["seed"])
    ok, wit = True, []
    for k in range(b["count"]):
        m = rng.randrange(0, max(1, b["m_max"]))
        d = rng.randrange(1, b["deg_max"] + 1)
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
        va = scalar_product_m(f, g, m + 1, verify=False)
        vb = scalar_product_m(f.set_var_zero(N), restrict_poly(g, m), m,
                              verify=False)
        if not cmp.scalars(va, vb):
            ok = False
            wit.append(k)
    entries.append(_entry("inclusion-restriction-adjointness",
                          "%d random pairs, seed=%d" % (b["count"], b["seed"]),
                          ok, t0, wit))
    return entries


def suite_specialization(b, cmp):
    entries = []
    for m in range(b["m_max"] + 1):
        t0 = time.time()
        ok, wit = True, []
        dmax = b["deg_max"]
        N = m + dmax
        for d in range(dmax + 1):
            for lab in enumerate_mpartitions(m, d, max_sym_length=N - m):
                P = msym_P(lab, N).poly
                direct = P.substitute(principal_point(N))
                if not cmp.scalars(direct, principal_specialization(lab, N)):
                    ok = False
                    wit.append(lab)
        entries.append(_entry("principal-specialization",
                              "m=%d deg<=%d N=%d" % (m, dmax, N), ok, t0, wit))

    t0 = time.time()
    ok, wit = True, []
    nmax = min(b["N"] or 3, 3)
    for n in range(1, nmax + 1):
        for d in range(min(b["deg_max"], 3) + 1):
            for eta in compositions_of(d, n):
                direct = nonsym_E(eta).poly.substitute(principal_point(n))
                if not cmp.scalars(direct, principal_specialization_e(eta, n)):
                    ok = False
                    wit.append(eta)
    entries.append(_entry("nonsym-principal-specialization",
                          "N<=%d deg<=%d" % (nmax, min(b["deg_max"], 3)),
                          ok, t0, wit))
    return entries


def suite_symmetry(b, cmp):
    entries = []
    for m in range(b["m_max"] + 1):
        t0 = time.time()
        ok, wit = True, []
        dmax = b["deg_max"]
        N = m + dmax
        labels = [lab for d in range(dmax + 1)
                  for lab in enumerate_mpartitions(m, d, max_sym_length=N - m)]
        points = {lab: principal_specialization(lab, N) for lab in labels}
        polys = {lab: msym_P(lab, N).poly for lab in labels}
        for A in labels:
            for B in labels:
                lhs = evaluation_u(B, polys[A]) / points[A]
                rhs = evaluation_u(A, polys[B]) / points[B]
                if not cmp.scalars(lhs, rhs):
                    ok = False
                    wit.append((A, B))
        entries.append(_entry("evaluation-symmetry",
                              "m=%d deg<=%d" % (m, dmax), ok, t0, wit))
    return entries


def suite_inversion(b, cmp):
    entries = []
    for m in range(b["m_max"] + 1):
        t0 = time.time()
        ok, wit = True, []
        N = b["N"] or (m + 2)
        for d in range(b["deg_max"] + 1):
            for lab in enumerate_mpartitions(m, d):
                try:
                    lhs, rhs = invert_qt(lab, N, return_sides=True)
                except ValueError:
                    continue
                if not cmp.polys(lhs, rhs):
                    ok = False
                    wit.append(lab)
        entries.append(_entry("qt-inversion", "m=%d deg<=%d N=%d"
                              % (m, b["deg_max"], N), ok, t0, wit))
    return entries


def suite_cauchy(b, cmp):
    entries = []
    maxdeg = b["maxdeg"]
    for m in range(min(b["m_max"], 1) + 1):
        t0 = time.time()
        ok = kernels.km_expansion_check(m, maxdeg)
        entries.append(_entry("kernel-P-expansion", "m=%d maxdeg=%d"
                              % (m, maxdeg), ok, t0))
    t0 = time.time()
    entries.append(_entry("hall-littlewood-kernel", "m=2 maxdeg=%d" % maxdeg,
                          kernels.hl_kernel_check(2, maxdeg), t0))
    for m in range(b["m_max"] + 1):
        t0 = time.time()
        ok = kernels.cauchy_identity_check(m, min(maxdeg, 2))
        entries.append(_entry("cauchy-identity", "m=%d maxdeg=%d"
                              % (m, min(maxdeg, 2)), ok, t0))
    for m in range(1, b["m_max"] + 1):
        t0 = time.time()
        ok = kernels.nonsym_cauchy_check(m, min(maxdeg, 2))
        entries.append(_entry("nonsym-cauchy-identity", "m=%d maxdeg=%d"
                              % (m, min(maxdeg, 2)), ok, t0))
    t0 = time.time()
    entries.append(_entry("kernel-hecke-symmetry", "m=2 maxdeg=%d" % maxdeg,
                          kernels.kernel_hecke_symmetry_check(2, maxdeg), t0))
    t0 = time.time()
    entries.append(_entry("kernel-xy-symmetry", "m=1 maxdeg=%d" % min(maxdeg, 2),
                          kernels.kernel_xy_symmetry_check(1, min(maxdeg, 2)),
                          t0))
    t0 = time.time()
    entries.append(_entry("kernel-eigenoperator-symmetry",
                          "m=1 maxdeg=%d" % min(maxdeg, 2),
                          kernels.kernel_eigen_symmetry_check(1, min(maxdeg, 2)),
                          t0))
    return entries


def suite_gram_schmidt(b, cmp):
    entries = []
    for m in range(b["m_max"] + 1):
        t0 = time.time()
        ok, wit = True, []
        for d in range(b["deg_max"] + 1):
            N = m + max(d, 1)
            gs = gram_schmidt_basis(m, d, N)
            for lab, g in gs.items():
                if not cmp.polys(g, msym_P(lab, N).poly):
                    ok = False
                    wit.append(lab)
        entries.append(_entry("gram-schmidt-characterization",
                              "m=%d deg<=%d" % (m, b["deg_max"]), ok, t0, wit))
    return entries


SUITES = {
    "braid": suite_braid,
    "eigen": suite_eigen,
    "orthogonality": suite_orthogonality,
    "inclusion": suite_inclusion,
    "specialization": suite_specialization,
    "symmetry": suite_symmetry,
    "inversion": suite_inversion,
    "cauchy": suite_cauchy,
    "gram-schmidt": suite_gram_schmidt,
}


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_expand_e(args):
    eta = _parse_csv(args.eta, "--eta")
    if args.N is not None and args.N != len(eta):
        _usage_error("--N must equal the number of parts of --eta")
    lab = nonsym_E(eta, check=args.check)
    payload = {"command": "expand-e", "params": {"eta": list(eta)},
               "result": lab.poly.to_json()}
    _emit(args, payload, [str(lab.poly)])
    return 0


def cmd_expand_p(args):
    lab = _parse_label(args)
    faithful = lab.m + lab.degree()
    N = args.N if args.N is not None else lab.m + max(lab.degree(), 1)
    if N < faithful:
        # below it P_Lambda may vanish or the m-expansion is not faithful
        _usage_error("expand-p needs --N >= m + |Lambda| = %d" % faithful)
    p = msym_P(lab, N)
    exp = expand_in_basis(p.poly, lab.m, "m_Lambda") if p.poly else None
    lines = [str(p.poly)]
    if exp is not None:
        lines.append("m-expansion:")
        lines.extend("  %s: %s" % (l, c) for l, c in exp.items_sorted())
    payload = {"command": "expand-p",
               "params": {"label": lab.to_json(), "N": N},
               "result": {"poly": p.poly.to_json(),
                          "m_expansion": exp.to_json() if exp else None}}
    _emit(args, payload, lines)
    return 0


def cmd_norm(args):
    lab = _parse_label(args)
    val = norm_formula(lab)
    status = 0
    if args.check:
        faithful = lab.m + lab.degree()
        N = args.N if args.N is not None else faithful
        if N < faithful:
            # below it P_Lambda may vanish or the expansion is not faithful
            _usage_error("--check needs --N >= m + |Lambda| = %d" % faithful)
        P = msym_P(lab, N).poly
        direct = scalar_product_m(P, P, lab.m, verify=False)
        if direct != val:
            print("check failed: direct product %s != formula %s"
                  % (direct, val), file=sys.stderr)
            status = 1
    payload = {"command": "norm", "params": {"label": lab.to_json()},
               "result": str(val)}
    _emit(args, payload, [str(val)])
    return status


def cmd_inclusion(args):
    lab = _parse_label(args)
    exp = inclusion_coeffs(lab)
    status = 0
    if args.check:
        N = lab.m + 1 + max(lab.degree(), 1)
        P = msym_P(lab, N).poly
        rhs = MultiPoly.zero(N)
        for om, psi in exp.coeffs.items():
            rhs = rhs + msym_P(om, N).poly.scale(psi)
        if rhs != P:
            print("check failed: inclusion expansion does not reproduce P_%s"
                  % lab, file=sys.stderr)
            status = 1
    payload = {"command": "inclusion", "params": {"label": lab.to_json()},
               "result": exp.to_json()}
    _emit(args, payload, ["%s: %s" % (l, c) for l, c in exp.items_sorted()])
    return status


def cmd_restrict(args):
    lab = _parse_label(args)
    if lab.m < 1:
        _usage_error("restriction needs at least one circle (m >= 1)")
    hat, fac = restriction(lab)
    status = 0
    if args.check:
        N = lab.m + lab.degree() + 1
        P = msym_P(lab, N).poly
        lhs = restrict_poly(P, lab.m - 1)
        rhs = msym_P(hat, N - 1).poly.scale(fac)
        if lhs != rhs:
            print("check failed: operational restriction disagrees with the "
                  "closed form for %s" % lab, file=sys.stderr)
            status = 1
    payload = {"command": "restrict", "params": {"label": lab.to_json()},
               "result": {"label": hat.to_json(), "factor": str(fac)}}
    _emit(args, payload, ["%s: %s" % (hat, fac)])
    return status


def cmd_eval(args):
    lab = _parse_label(args)
    N = args.N if args.N is not None else lab.m + max(lab.degree(), 1)
    val = principal_specialization(lab, N)
    status = 0
    if args.check:
        direct = msym_P(lab, N).poly.substitute(principal_point(N))
        if direct != val:
            print("check failed: direct evaluation %s != formula %s"
                  % (direct, val), file=sys.stderr)
            status = 1
    payload = {"command": "eval",
               "params": {"label": lab.to_json(), "N": N},
               "result": str(val)}
    _emit(args, payload, [str(val)])
    return status


def cmd_kernel(args):
    m = args.m or 0
    maxdeg = args.maxdeg
    N = m + maxdeg
    table = []
    for d in range(maxdeg + 1):
        for lab in enumerate_mpartitions(m, d, max_sym_length=N - m):
            table.append((lab, norm_formula(lab).inverse()))
    lines = ["b-coefficients of K_%d up to degree %d:" % (m, maxdeg)]
    lines.extend("  %s: %s" % (lab, c) for lab, c in table)
    payload = {"command": "kernel",
               "params": {"m": m, "maxdeg": maxdeg},
               "result": {"b_table": [{"label": lab.to_json(),
                                       "coeff": str(c)} for lab, c in table]}}
    if args.full:
        km = kernels.km_truncated(m, N, N, maxdeg)
        lines.append("K_%d truncated (x_1..x_%d, y_1..y_%d):" % (m, N, N))
        lines.append(str(km.poly))
        payload["result"]["kernel"] = km.poly.to_json()
    _emit(args, payload, lines)
    return 0


def cmd_verify(args):
    if args.suite not in SUITES:
        _usage_error("unknown suite %r (choose from %s)"
                     % (args.suite, ", ".join(sorted(SUITES))))
    point = None
    if args.qt_point:
        q0, t0 = (Fraction(v) for v in args.qt_point)
        point = (q0, t0)
    cmp = Comparator(point)
    deg_max = args.deg_max if args.deg_max is not None else 3
    bounds = {
        "m_max": args.m_max if args.m_max is not None else (args.m or 1),
        "deg_max": deg_max,
        "N": args.N,
        "maxdeg": args.maxdeg if args.maxdeg is not None
        else min(deg_max, 3),
        "seed": args.seed,
        "count": args.count,
    }
    entries = SUITES[args.suite](bounds, cmp)
    failed = [e for e in entries if e["status"] != "pass"]
    lines = ["suite %s (mode: %s)" % (args.suite, cmp.mode)]
    for e in entries:
        lines.append("  [%s] %-36s %s  (%.3fs)"
                     % ("PASS" if e["status"] == "pass" else "FAIL",
                        e["identity"], e["bounds"], e["time_s"]))
        for w in e.get("witnesses", [])[:5]:
            lines.append("         witness: %s" % (w,))
    lines.append("%d/%d identities passed" % (len(entries) - len(failed),
                                              len(entries)))
    payload = {"command": "verify",
               "params": {"suite": args.suite, "mode": cmp.mode, **bounds},
               "report": entries}
    _emit(args, payload, lines)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

def _add_label_args(p, with_n=True):
    p.add_argument("--m", type=int, default=None,
                   help="number of non-symmetric entries")
    p.add_argument("--a", default="", help="comma-separated a entries")
    p.add_argument("--lambda", dest="lam", default="",
                   help="comma-separated partition entries (empty allowed)")
    if with_n:
        p.add_argument("--N", type=int, default=None, help="variable count")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="msym",
        description="Exact computations with non-symmetric and m-symmetric "
                    "Macdonald polynomials.")
    ap.add_argument("--json", action="store_true", help="emit JSON")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("expand-e", help="non-symmetric Macdonald polynomial")
    p.add_argument("--eta", required=True, help="comma-separated composition")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--check", action="store_true",
                   help="run the full eigenvalue certificate")
    p.set_defaults(fn=cmd_expand_e)

    p = sub.add_parser("expand-p", help="m-symmetric Macdonald polynomial")
    _add_label_args(p)
    p.set_defaults(fn=cmd_expand_p)

    p = sub.add_parser("norm", help="squared norm of P_Lambda")
    _add_label_args(p)
    p.add_argument("--check", action="store_true",
                   help="recompute through the scalar product")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("inclusion", help="inclusion coefficients psi")
    _add_label_args(p, with_n=False)
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_inclusion)

    p = sub.add_parser("restrict", help="restriction of P_Lambda")
    _add_label_args(p, with_n=False)
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_restrict)

    p = sub.add_parser("eval", help="principal specialization")
    _add_label_args(p)
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("kernel", help="reproducing-kernel data")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--maxdeg", type=int, default=2)
    p.add_argument("--full", action="store_true",
                   help="also print the truncated kernel")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--deg-max", dest="deg_max", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--maxdeg", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--qt-point", nargs=2, metavar=("Q0", "T0"), default=None)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except (ValueError, ZeroDivisionError, DegreeGuardError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
