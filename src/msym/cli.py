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

from .qt_field import QtRational, ONE, ZERO, T
from .polyring import MultiPoly, DegreeGuardError, _sum_polys
from .combinatorics import (MPartition, enumerate_mpartitions, compositions_of,
                            mpartitions_upto)
from .hecke_ops import (apply_T, apply_Tbar, apply_Y, apply_R, apply_L,
                        symmetrize_t)
from .macdonald import eigen_cases, nonsym_E, msym_P, invert_qt
from .structure import (monomial_m, expand_in_basis, pair_p_coeffs,
                        scalar_product_m, norm_formula, inclusion_coeffs,
                        restriction, restrict_poly, principal_specialization,
                        principal_specialization_e, principal_point,
                        evaluation_u, gram_schmidt_basis)
from . import kernels


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _parse_csv(s, what):
    if s is None or s == "":
        return ()
    try:
        vals = tuple(int(v) for v in s.split(","))
    except ValueError:
        raise ValueError("malformed %s %r (expect comma-separated integers)"
                         % (what, s))
    if any(v < 0 for v in vals):
        raise ValueError("%s entries must be nonnegative" % what)
    return vals


def _parse_label(args):
    a = _parse_csv(getattr(args, "a", None), "--a")
    lam = _parse_csv(getattr(args, "lam", None), "--lambda")
    m = getattr(args, "m", None)
    if m is None:
        m = len(a)
    if m != len(a):
        raise ValueError("--m %d does not match %d entries in --a"
                         % (m, len(a)))
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("--lambda must be weakly decreasing")
    return MPartition(a, lam)


def _int_at_least(lo):
    """argparse type: an integer bound, at least lo."""
    def parse(s):
        v = int(s)
        if v < lo:
            raise argparse.ArgumentTypeError("must be >= %d, got %s" % (lo, s))
        return v
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _same(lhs, rhs, point):
    """Whether the two sides of a case agree.  With point None canonical
    forms are compared exactly; given a point (q0, t0), a QtRational is
    compared by its value there and a MultiPoly coefficient by coefficient
    (Schwartz-Zippel testing of sides that were built exactly).  This is the
    only code that knows the comparison mode."""
    if point is None:
        return lhs == rhs
    if isinstance(lhs, MultiPoly):
        return lhs.nvars == rhs.nvars and all(
            _same(lhs.coefficient_of(e), rhs.coefficient_of(e), point)
            for e in set(lhs.terms) | set(rhs.terms))
    if isinstance(lhs, QtRational):
        return lhs.eval(*point) == rhs.eval(*point)
    return lhs == rhs


def _run(identity, bounds, cases, point):
    """Report entry of one identity.  cases lazily yields (witness, lhs, rhs)
    with QtRational or MultiPoly sides, a structural check (witness, bool,
    True); the clock starts before the first case is built.  The witness of
    every case whose sides differ is listed (None fails the identity but is
    not listed)."""
    t0 = time.perf_counter()
    failed = [w for w, lhs, rhs in cases if not _same(lhs, rhs, point)]
    e = {"identity": identity, "bounds": bounds,
         "status": "fail" if failed else "pass",
         "time_s": round(time.perf_counter() - t0, 3)}
    witnesses = sorted(str(w) for w in failed if w is not None)
    if witnesses:
        e["witnesses"] = witnesses
    return e


def _rand_poly(rng, n, deg):
    terms = {}
    for _ in range(6):
        e = [0] * n
        for _ in range(deg):
            e[rng.randrange(n)] += rng.randrange(2)
        c = rng.randrange(-4, 5)
        if c:
            terms[tuple(e)] = QtRational.from_int(c)
    return MultiPoly(n, terms)


def _rand_msym(rng, m, d, N):
    """Random integer combination of the degree-d m_Lambda in N variables."""
    return _sum_polys(N, [
        monomial_m(lab, N).scale(QtRational.from_int(rng.randrange(-2, 3)))
        for lab in enumerate_mpartitions(m, d, max_sym_length=N - m)])


def _compositions(N, dmax):
    """The compositions of degree <= dmax with at most N parts."""
    return [eta for n in range(1, N + 1) for d in range(dmax + 1)
            for eta in compositions_of(d, n)]


def _inclusion_cases(labels):
    """sum psi_{Omega/Lambda} P_Omega = P_Lambda in m + 1 + max(|Lambda|, 1)
    variables, one case per label."""
    for lab in labels:
        N = lab.m + 1 + max(lab.degree(), 1)
        yield (lab, _sum_polys(N, [msym_P(om, N).poly.scale(psi) for om, psi
                                   in inclusion_coeffs(lab).coeffs.items()]),
               msym_P(lab, N).poly)


def _specialization_cases(labels, N):
    """P_Lambda(1, t, ..., t^{N-1}) against its closed form, one case per
    label."""
    for lab in labels:
        yield (lab, msym_P(lab, N).poly.substitute(principal_point(N)),
               principal_specialization(lab, N))


# ---------------------------------------------------------------------------
# verification suites: each yields (identity, bounds, cases) for _run
# ---------------------------------------------------------------------------

def suite_braid(b):
    rng = random.Random(b["seed"])
    N = b["N"] or 4
    count = b["count"]
    if N < 2:
        raise ValueError("verify braid needs --N >= 2")

    def quadratic():
        for k in range(count):
            n = rng.randrange(2, N + 1)
            f = _rand_poly(rng, n, 3)
            i = rng.randrange(1, n)
            Tf = apply_T(f, i)
            yield (n, i, k), apply_T(Tf, i) + Tf, Tf.scale(T) + f.scale(T)
            yield ("inverse", n, i, k), apply_Tbar(Tf, i), f

    def braid():
        for k in range(count):
            n = rng.randrange(3, max(4, N + 1))
            f = _rand_poly(rng, n, 3)
            i = rng.randrange(1, n - 1)
            yield ((n, i, k), apply_T(apply_T(apply_T(f, i), i + 1), i),
                   apply_T(apply_T(apply_T(f, i + 1), i), i + 1))
            j = i + 2 if i + 2 < n else i - 2
            if n >= 4 and j >= 1:
                yield (("commute", n, i, j, k), apply_T(apply_T(f, i), j),
                       apply_T(apply_T(f, j), i))

    def exchange():
        for k in range(count):
            n = rng.randrange(2, N + 1)
            f = _rand_poly(rng, n, 2)
            i = rng.randrange(1, n)
            Yf, Tf = apply_Y(f, i), apply_T(f, i)
            dY = Yf.scale(T - ONE)
            yield ("TYi", n, i, k), apply_T(Yf, i), apply_Y(Tf, i + 1) + dY
            yield (("TYi1", n, i, k), apply_T(apply_Y(f, i + 1), i),
                   apply_Y(Tf, i) - dY)
            yield (("sumYT", n, i, k), apply_T(Yf + apply_Y(f, i + 1), i),
                   apply_Y(Tf, i) + apply_Y(Tf, i + 1))

    def symmetrizer():
        for k in range(count):
            n = rng.randrange(2, N + 1)
            m = rng.randrange(0, n)
            f = _rand_poly(rng, n, 2)
            s1 = symmetrize_t(f, m)
            yield ("R", n, m, k), s1, symmetrize_t(apply_R(f, m, n), m + 1)
            yield ("L", n, m, k), s1, apply_L(symmetrize_t(f, m + 1), m, n)
            yield ("naive", n, m, k), s1, symmetrize_t(f, m, naive=True)

    bounds = "N<=%d x%d" % (N, count)
    yield "quadratic-and-inverse", bounds, quadratic()
    yield "braid-and-commutation", bounds, braid()
    yield "cherednik-exchange", bounds, exchange()
    yield "symmetrizer-factorizations", bounds, symmetrizer()


def suite_eigen(b):
    N = b["N"] or 3
    dmax = b["deg_max"]
    etas = _compositions(N, dmax)

    def cases():
        for eta in etas:
            yield from eigen_cases(eta, nonsym_E(eta).poly)

    yield ("nonsym-eigen-triangular",
           "N<=%d deg<=%d (%d labels)" % (N, dmax, len(etas)), cases())


def suite_orthogonality(b):
    dmax = b["deg_max"]

    def cases(m):
        for d in range(dmax + 1):
            labs = enumerate_mpartitions(m, d)
            exps = [expand_in_basis(msym_P(lab, m + d).poly, m, "p_Lambda_t",
                                    verify=False).coeffs for lab in labs]
            for i, A in enumerate(labs):
                for j in range(i, len(labs)):
                    yield ((A, labs[j]), pair_p_coeffs(exps[i], exps[j]),
                           norm_formula(A) if i == j else ZERO)

    for m in range(b["m_max"] + 1):
        yield "orthogonality-and-norms", "m=%d deg<=%d" % (m, dmax), cases(m)


def suite_inclusion(b):
    dmax = b["deg_max"]
    if dmax < 1 and b["count"] > 0:
        raise ValueError("verify inclusion needs --deg-max >= 1 when "
                         "--count > 0")

    def adjointness():
        rng = random.Random(b["seed"])
        for k in range(b["count"]):
            m = rng.randrange(0, max(1, b["m_max"]))
            d = rng.randrange(1, dmax + 1)
            N = m + 1 + d
            f, g = _rand_msym(rng, m, d, N), _rand_msym(rng, m + 1, d, N)
            yield (k, scalar_product_m(f, g, m + 1, verify=False),
                   scalar_product_m(f.drop_var(N), restrict_poly(g, m), m,
                                    verify=False))

    for m in range(b["m_max"] + 1):
        labels = (lab for d in range(dmax + 1)
                  for lab in enumerate_mpartitions(m, d))
        yield ("inclusion-expansion", "m=%d deg<=%d" % (m, dmax),
               _inclusion_cases(labels))
    yield ("inclusion-restriction-adjointness",
           "%d random pairs, seed=%d" % (b["count"], b["seed"]), adjointness())


def suite_specialization(b):
    dmax = b["deg_max"]
    nmax, d3 = min(b["N"] or 3, 3), min(dmax, 3)

    def nonsym():
        for eta in _compositions(nmax, d3):
            n = len(eta)
            yield (eta, nonsym_E(eta).poly.substitute(principal_point(n)),
                   principal_specialization_e(eta, n))

    for m in range(b["m_max"] + 1):
        N = m + dmax
        yield ("principal-specialization", "m=%d deg<=%d N=%d" % (m, dmax, N),
               _specialization_cases(mpartitions_upto(m, dmax, N), N))
    yield ("nonsym-principal-specialization", "N<=%d deg<=%d" % (nmax, d3),
           nonsym())


def suite_symmetry(b):
    dmax = b["deg_max"]

    def cases(m):
        N = m + dmax
        labels = mpartitions_upto(m, dmax, N)
        points = {lab: principal_specialization(lab, N) for lab in labels}
        polys = {lab: msym_P(lab, N).poly for lab in labels}
        for A in labels:
            for B in labels:
                yield ((A, B), evaluation_u(B, polys[A]) / points[A],
                       evaluation_u(A, polys[B]) / points[B])

    for m in range(b["m_max"] + 1):
        yield "evaluation-symmetry", "m=%d deg<=%d" % (m, dmax), cases(m)


def suite_inversion(b):
    dmax = b["deg_max"]
    if b["N"] is not None and b["N"] < b["m_max"]:
        raise ValueError("verify inversion needs --N >= --m-max = %d"
                         % b["m_max"])

    def cases(m, N):
        for lab in mpartitions_upto(m, dmax, N):
            yield (lab, *invert_qt(lab, N))

    for m in range(b["m_max"] + 1):
        N = b["N"] or (m + 2)
        yield "qt-inversion", "m=%d deg<=%d N=%d" % (m, dmax, N), cases(m, N)


def suite_cauchy(b):
    d, M = b["maxdeg"], b["m_max"]
    d2, d3 = min(d, 2), min(d, 3)
    k = kernels
    table = ([("kernel-P-expansion", m, d, k.km_expansion_cases)
              for m in range(min(M, 1) + 1)]
             + [("hall-littlewood-kernel", 2, d, k.hl_kernel_cases)]
             + [("cauchy-identity", m, d3, k.cauchy_cases)
                for m in range(M + 1)]
             + [("nonsym-cauchy-identity", m, d, k.nonsym_cauchy_cases)
                for m in range(1, M + 1)]
             + [("kernel-hecke-symmetry", 2, d, k.kernel_hecke_symmetry_cases),
                ("kernel-xy-symmetry", 1, d2, k.kernel_xy_symmetry_cases),
                ("kernel-eigenoperator-symmetry", 1, d2,
                 k.kernel_eigen_symmetry_cases)])
    for identity, m, maxdeg, cases in table:
        yield identity, "m=%d maxdeg=%d" % (m, maxdeg), cases(m, maxdeg)


def suite_gram_schmidt(b):
    def cases(m):
        for d in range(b["deg_max"] + 1):
            N = m + max(d, 1)
            for lab, g in gram_schmidt_basis(m, d, N).items():
                yield lab, g, msym_P(lab, N).poly

    for m in range(b["m_max"] + 1):
        yield ("gram-schmidt-characterization",
               "m=%d deg<=%d" % (m, b["deg_max"]), cases(m))


SUITES = {"braid": suite_braid, "eigen": suite_eigen,
          "orthogonality": suite_orthogonality, "inclusion": suite_inclusion,
          "specialization": suite_specialization, "symmetry": suite_symmetry,
          "inversion": suite_inversion, "cauchy": suite_cauchy,
          "gram-schmidt": suite_gram_schmidt}


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _emit_checked(args, payload, text_lines, identity, cases):
    """_emit for a table command, returning its exit status.  With --check
    its (witness, lhs, rhs) cases are compared exactly before anything is
    printed; if one fails, the result is followed by the one stderr line
    `check failed: <identity> <witnesses>` and the status is 1."""
    e = _run(identity, None, cases if args.check else (), None)
    _emit(args, payload, text_lines)
    if e["status"] == "pass":
        return 0
    print("check failed: %s %s" % (identity, ", ".join(e["witnesses"])),
          file=sys.stderr)
    return 1


def cmd_expand_e(args):
    eta = _parse_csv(args.eta, "--eta")
    if args.N is not None and args.N != len(eta):
        raise ValueError("--N must equal the number of parts of --eta")
    poly = nonsym_E(eta).poly
    payload = {"command": "expand-e", "params": {"eta": list(eta)},
               "result": poly.to_json()}
    return _emit_checked(args, payload, [str(poly)],
                         "nonsym-eigen-triangular", eigen_cases(eta, poly))


def cmd_expand_p(args):
    lab = _parse_label(args)
    faithful = lab.m + lab.degree()
    N = args.N if args.N is not None else lab.m + max(lab.degree(), 1)
    if N < faithful:
        # below it P_Lambda may vanish or the m-expansion is not faithful
        raise ValueError("expand-p needs --N >= m + |Lambda| = %d"
                         % faithful)
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
    faithful = lab.m + lab.degree()
    N = args.N if args.N is not None else faithful
    if args.check and N < faithful:
        # below it P_Lambda may vanish or the expansion is not faithful
        raise ValueError("--check needs --N >= m + |Lambda| = %d" % faithful)

    def cases():
        P = msym_P(lab, N).poly
        yield lab, scalar_product_m(P, P, lab.m, verify=False), val

    payload = {"command": "norm", "params": {"label": lab.to_json()},
               "result": str(val)}
    return _emit_checked(args, payload, [str(val)], "norm-formula", cases())


def cmd_inclusion(args):
    lab = _parse_label(args)
    exp = inclusion_coeffs(lab)
    payload = {"command": "inclusion", "params": {"label": lab.to_json()},
               "result": exp.to_json()}
    return _emit_checked(args, payload,
                         ["%s: %s" % (l, c) for l, c in exp.items_sorted()],
                         "inclusion-expansion", _inclusion_cases([lab]))


def cmd_restrict(args):
    lab = _parse_label(args)
    if lab.m < 1:
        raise ValueError("restriction needs at least one circle (m >= 1)")
    hat, fac = restriction(lab)

    def cases():
        N = lab.m + lab.degree() + 1
        yield (lab, restrict_poly(msym_P(lab, N).poly, lab.m - 1),
               msym_P(hat, N - 1).poly.scale(fac))

    payload = {"command": "restrict", "params": {"label": lab.to_json()},
               "result": {"label": hat.to_json(), "factor": str(fac)}}
    return _emit_checked(args, payload, ["%s: %s" % (hat, fac)],
                         "restriction", cases())


def cmd_eval(args):
    lab = _parse_label(args)
    N = args.N if args.N is not None else lab.m + max(lab.degree(), 1)
    val = principal_specialization(lab, N)
    payload = {"command": "eval",
               "params": {"label": lab.to_json(), "N": N},
               "result": str(val)}
    return _emit_checked(args, payload, [str(val)],
                         "principal-specialization",
                         _specialization_cases([lab], N))


def cmd_kernel(args):
    m, maxdeg = args.m, args.maxdeg
    N = m + maxdeg
    # the kernel first: past the degree guard it fails before the table
    km = kernels.km_truncated(m, N, N, maxdeg) if args.full else None
    table = [(lab, kernels.b_coefficient(lab))
             for lab in mpartitions_upto(m, maxdeg, N)]
    lines = ["b-coefficients of K_%d up to degree %d:" % (m, maxdeg)]
    lines.extend("  %s: %s" % (lab, c) for lab, c in table)
    payload = {"command": "kernel",
               "params": {"m": m, "maxdeg": maxdeg},
               "result": {"b_table": [{"label": lab.to_json(),
                                       "coeff": str(c)} for lab, c in table]}}
    if km is not None:
        lines.append("K_%d truncated (x_1..x_%d, y_1..y_%d):" % (m, N, N))
        lines.append(str(km.poly))
        payload["result"]["kernel"] = km.poly.to_json()
    _emit(args, payload, lines)
    return 0


def cmd_verify(args):
    if args.suite not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (args.suite, ", ".join(sorted(SUITES))))
    point = args.qt_point and tuple(Fraction(v) for v in args.qt_point)
    mode = "point(q=%s, t=%s)" % point if point else "exact"
    deg_max = 3 if args.deg_max is None else args.deg_max
    m_max = args.m if args.m_max is None else args.m_max
    bounds = {"m_max": 1 if m_max is None else m_max,
              "maxdeg": min(deg_max, 3) if args.maxdeg is None
              else args.maxdeg,
              "deg_max": deg_max, "N": args.N, "seed": args.seed,
              "count": args.count}
    entries = [_run(*item, point) for item in SUITES[args.suite](bounds)]
    failed = [e for e in entries if e["status"] != "pass"]
    lines = ["suite %s (mode: %s)" % (args.suite, mode)]
    for e in entries:
        lines.append("  [%s] %-36s %s  (%.3fs)"
                     % ("PASS" if e["status"] == "pass" else "FAIL",
                        e["identity"], e["bounds"], e["time_s"]))
        for w in e.get("witnesses", [])[:5]:
            lines.append("         witness: %s" % (w,))
    lines.append("%d/%d identities passed" % (len(entries) - len(failed),
                                              len(entries)))
    payload = {"command": "verify",
               "params": {"suite": args.suite, "mode": mode, **bounds},
               "report": entries}
    _emit(args, payload, lines)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

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

    # the label commands: name, help, function, takes --N, and the --check
    # help ("" for none), or None for no --check
    for name, text, fn, with_n, check in (
            ("expand-p", "m-symmetric Macdonald polynomial", cmd_expand_p,
             True, None),
            ("norm", "squared norm of P_Lambda", cmd_norm, True,
             "recompute through the scalar product"),
            ("inclusion", "inclusion coefficients psi", cmd_inclusion, False,
             ""),
            ("restrict", "restriction of P_Lambda", cmd_restrict, False, ""),
            ("eval", "principal specialization", cmd_eval, True, "")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--m", type=int, default=None,
                       help="number of non-symmetric entries")
        p.add_argument("--a", default="", help="comma-separated a entries")
        p.add_argument("--lambda", dest="lam", default="",
                       help="comma-separated partition entries (empty "
                            "allowed)")
        if with_n:
            p.add_argument("--N", type=int, default=None,
                           help="variable count")
        if check is not None:
            p.add_argument("--check", action="store_true", help=check)
        p.set_defaults(fn=fn)

    p = sub.add_parser("kernel", help="reproducing-kernel data")
    p.add_argument("--m", type=_int_at_least(0), default=0)
    p.add_argument("--maxdeg", type=_int_at_least(0), default=2)
    p.add_argument("--full", action="store_true",
                   help="also print the truncated kernel")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    for flag in ("--m", "--m-max", "--deg-max", "--maxdeg"):
        p.add_argument(flag, type=_int_at_least(0))
    p.add_argument("--N", type=_int_at_least(1))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_int_at_least(0), default=25)
    p.add_argument("--qt-point", nargs=2, metavar=("Q0", "T0"), default=None)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except (ValueError, ArithmeticError, DegreeGuardError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
