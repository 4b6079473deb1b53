"""Command-line interface: golden outputs, JSON schema, exit codes."""

import dataclasses
import json

import pytest

from msym import cli, kernels, macdonald
from msym.polyring import MultiPoly
from msym.qt_field import ONE, ZERO, Q, QtRational, parse_qt

TWO = QtRational.from_int(2)
THREE = QtRational.from_int(3)


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestExpand:
    def test_expand_e_golden(self, capsys):
        rc, out, _ = run(capsys, ["expand-e", "--eta", "1,0", "--N", "2"])
        assert rc == 0
        assert out.strip() == "x1 + ((q - q*t)/(1 - q*t))*x2"

    def test_expand_e_trivial(self, capsys):
        rc, out, _ = run(capsys, ["expand-e", "--eta", "0,0", "--N", "2"])
        assert rc == 0 and out.strip() == "1"

    def test_expand_p_golden(self, capsys):
        rc, out, _ = run(capsys, ["expand-p", "--m", "0", "--lambda", "1",
                                  "--N", "2"])
        assert rc == 0
        assert out.splitlines()[0] == "x1 + x2"
        assert "m-expansion:" in out

    def test_expand_e_check(self, capsys):
        rc, out, _ = run(capsys, ["expand-e", "--eta", "2,0,1", "--check"])
        assert rc == 0


class TestTables:
    def test_eval_golden(self, capsys):
        rc, out, _ = run(capsys, ["eval", "--m", "0", "--lambda", "1",
                                  "--N", "2"])
        assert rc == 0 and out.strip() == "1 + t"

    def test_inclusion_golden(self, capsys):
        rc, out, _ = run(capsys, ["inclusion", "--m", "0", "--lambda", "1"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines == ["(0; 1): (1 - q)/(1 - q*t)", "(1; ): 1"]

    def test_norm_paper_label(self, capsys):
        rc, out, _ = run(capsys, ["norm", "--m", "4", "--a", "2,0,0,2",
                                  "--lambda", "4,1,1"])
        assert rc == 0
        val = parse_qt(out.strip())
        # spot-check at a rational point against the factored form
        from fractions import Fraction
        q0, t0 = Fraction(2, 3), Fraction(3, 5)
        num_factors = [(1, 0), (2, 2), (3, 2), (4, 6), (1, 1), (2, 3),
                       (1, 0), (2, 4), (1, 3), (1, 2)]
        den_factors = [(0, 1), (1, 1), (2, 3), (3, 5), (1, 2), (2, 4),
                       (1, 1), (2, 5), (0, 2), (0, 1)]
        expect = q0 ** 4 * t0 ** 2
        for a, l in num_factors:
            expect *= 1 - q0 ** a * t0 ** l
        for a, l in den_factors:
            expect /= 1 - q0 ** a * t0 ** l
        assert val.eval(q0, t0) == expect

    def test_checks_pass(self, capsys):
        assert run(capsys, ["norm", "--m", "1", "--a", "1", "--check"])[0] == 0
        assert run(capsys, ["inclusion", "--m", "0", "--lambda", "1",
                            "--check"])[0] == 0
        assert run(capsys, ["restrict", "--m", "1", "--a", "2",
                            "--check"])[0] == 0
        assert run(capsys, ["eval", "--m", "1", "--a", "1", "--N", "3",
                            "--check"])[0] == 0

    def test_kernel_table(self, capsys):
        rc, out, _ = run(capsys, ["kernel", "--m", "1", "--maxdeg", "1"])
        assert rc == 0
        assert "(0; ): 1" in out


class TestJson:
    def test_expand_e_json_roundtrip(self, capsys):
        rc, out, _ = run(capsys, ["--json", "expand-e", "--eta", "1,0"])
        assert rc == 0
        data = json.loads(out)
        assert data["command"] == "expand-e"
        assert data["params"] == {"eta": [1, 0]}
        coeffs = {tuple(t["exponents"]): parse_qt(t["coeff"])
                  for t in data["result"]}
        from msym.macdonald import nonsym_E
        poly = nonsym_E((1, 0)).poly
        assert coeffs == dict(poly.terms)

    def test_verify_json_schema(self, capsys):
        rc, out, _ = run(capsys, ["--json", "verify", "braid", "--N", "3",
                                  "--count", "3", "--seed", "1"])
        assert rc == 0
        data = json.loads(out)
        assert data["command"] == "verify"
        assert data["params"]["suite"] == "braid"
        for entry in data["report"]:
            assert set(entry) >= {"identity", "bounds", "status", "time_s"}
            assert entry["status"] == "pass"

    def test_time_s_survives_a_wall_clock_step_back(self, capsys,
                                                     monkeypatch):
        import itertools
        import time
        clock = itertools.count(1e9, -1000.0)
        monkeypatch.setattr(time, "time", lambda: next(clock))
        rc, out, _ = run(capsys, ["--json", "verify", "symmetry",
                                  "--m-max", "1", "--deg-max", "2"])
        assert rc == 0
        report = json.loads(out)["report"]
        assert report and all(e["time_s"] >= 0 for e in report)

    def test_byte_stability(self, capsys):
        argv = ["--json", "inclusion", "--m", "1", "--a", "1"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestExitCodes:
    def test_usage_error_bad_label(self, capsys):
        rc, _, err = run(capsys, ["expand-e", "--eta", "1,x"])
        assert rc == 2 and "malformed" in err

    def test_usage_error_bad_lambda(self, capsys):
        rc, _, err = run(capsys, ["expand-p", "--m", "0", "--lambda", "1,2"])
        assert rc == 2

    def test_usage_error_unknown_suite(self, capsys):
        rc, _, err = run(capsys, ["verify", "nope"])
        assert rc == 2 and "unknown suite" in err

    def test_mismatched_m(self, capsys):
        rc, _, err = run(capsys, ["expand-p", "--m", "2", "--a", "1"])
        assert rc == 2

    @pytest.mark.parametrize("argv, message", [
        (["expand-p", "--a", "-1"], "--a entries must be nonnegative"),
        (["expand-e", "--eta", "1,0", "--N", "3"],
         "--N must equal the number of parts of --eta"),
        (["restrict", "--m", "0"],
         "restriction needs at least one circle (m >= 1)"),
    ], ids=["expand-p", "expand-e", "restrict"])
    def test_label_usage_errors(self, capsys, argv, message):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err == "error: %s\n" % message

    def test_m_defaults_to_the_length_of_a(self, capsys):
        argv = ["eval", "--a", "1", "--lambda", "1", "--N", "3"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0 and (rc, out, "") == run(capsys, argv + ["--m", "1"])

    def test_assertion_in_a_command_is_a_verification_failure(
            self, capsys, monkeypatch):
        def failing(mpart, N):
            raise AssertionError("u_Lambda is wrong")
        monkeypatch.setattr(macdonald, "u_normalization", failing)
        saved = [dict(c) for c in macdonald._CACHES]
        macdonald.clear_caches()
        try:
            rc, out, err = run(capsys, ["expand-p", "--m", "0", "--lambda",
                                        "2", "--N", "2"])
        finally:
            macdonald.clear_caches()
            for cache, entries in zip(macdonald._CACHES, saved):
                cache.update(entries)
        assert rc == 1 and out == ""
        assert err == "verification failure: u_Lambda is wrong\n"

    def test_degree_guard_is_a_usage_error(self, capsys, monkeypatch):
        # E_(13) needs a degree-13 product, past a guard of 12: one error
        # line and exit 2, not a traceback and not the check-failure code
        monkeypatch.setattr("msym.polyring._DEGREE_GUARD", 12)
        rc, out, err = run(capsys, ["expand-e", "--eta", "13"])
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "exceeds guard 12" in err
        assert len(err.splitlines()) == 1

    def test_degree_guard_fails_before_any_hecke_step(self, capsys,
                                                      monkeypatch):
        # E_(0,0,0,0,5) is refused from its degree alone: no lower E is
        # built first, and no generator is applied
        from msym import hecke_ops, macdonald
        calls = []
        apply_T = hecke_ops.apply_T

        def counted(*args):
            calls.append(args[1])
            return apply_T(*args)

        monkeypatch.setattr(hecke_ops, "apply_T", counted)
        monkeypatch.setattr(macdonald, "apply_T", counted)
        monkeypatch.setattr("msym.polyring._DEGREE_GUARD", 4)
        saved = [dict(c) for c in macdonald._CACHES]
        macdonald.clear_caches()
        try:
            rc, out, err = run(capsys, ["expand-p", "--m", "0", "--lambda",
                                        "5", "--N", "5"])
        finally:
            for cache, entries in zip(macdonald._CACHES, saved):
                cache.update(entries)
        assert rc == 2 and out == ""
        assert err == "error: degree 5 exceeds guard 4\n"
        assert calls == []

    def test_norm_check_needs_enough_variables(self, capsys):
        # P_Lambda vanishes for N < m + length(lambda), so comparing it with
        # the norm formula would report a false failure
        argv = ["norm", "--m", "1", "--a", "1", "--lambda", "1", "--check"]
        for n in ("1", "2"):
            rc, _, err = run(capsys, argv + ["--N", n])
            assert rc == 2 and err.startswith("error: ")
            assert "check failed" not in err
        assert run(capsys, argv + ["--N", "3"])[0] == 0

    def test_expand_p_needs_enough_variables(self, capsys):
        # P_Lambda vanishes for N < m + length(lambda); printing it as 0
        # would pass a wrong answer off as a result
        argv = ["expand-p", "--m", "1", "--a", "1", "--lambda", "1"]
        for n in ("1", "2"):
            rc, out, err = run(capsys, argv + ["--N", n])
            assert rc == 2 and out == "" and err.startswith("error: ")
        rc, out, _ = run(capsys, argv + ["--N", "3"])
        assert rc == 0 and out.splitlines()[0] != "0"

    def test_arithmetic_error_is_a_usage_error(self, capsys, monkeypatch):
        def inexact(args):
            raise ArithmeticError("inexact polynomial division")
        monkeypatch.setattr(cli, "cmd_kernel", inexact)
        rc, out, err = run(capsys, ["kernel"])
        assert rc == 2 and out == ""
        assert err == "error: inexact polynomial division\n"

    def test_inclusion_needs_positive_degree(self, capsys):
        # the random adjointness pairs draw a degree from 1..--deg-max
        argv = ["verify", "inclusion", "--m-max", "1", "--deg-max", "0"]
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err == ("error: verify inclusion needs --deg-max >= 1 "
                       "when --count > 0\n")
        rc, out, _ = run(capsys, argv + ["--count", "0"])
        assert rc == 0 and "3/3 identities passed" in out

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        def broken(bounds):
            yield "made-to-fail", "", iter([(None, False, True)])
        monkeypatch.setitem(cli.SUITES, "braid", broken)
        rc, out, _ = run(capsys, ["verify", "braid"])
        assert rc == 1 and "FAIL" in out

    @pytest.mark.parametrize("argv", [
        ["verify", "orthogonality", "--m-max", "-1"],
        ["verify", "inclusion", "--count", "-3"],
        ["verify", "eigen", "--deg-max", "-1"],
        ["verify", "cauchy", "--maxdeg", "-1"],
        ["verify", "orthogonality", "--m", "-1"],
        ["verify", "eigen", "--N", "0"],
        ["verify", "braid", "--N", "0"],
        ["verify", "braid", "--N", "-2"],
        ["kernel", "--maxdeg", "-1"],
        ["kernel", "--m", "-1"],
    ])
    def test_out_of_range_bounds_are_usage_errors(self, capsys, argv):
        # each of these used to pass vacuously, run at a default or crash
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "must be >= " in err

    def test_braid_needs_two_variables(self, capsys):
        rc, out, err = run(capsys, ["verify", "braid", "--N", "1"])
        assert rc == 2 and out == ""
        assert err == "error: verify braid needs --N >= 2\n"

    def test_inversion_needs_n_at_least_m_max(self, capsys):
        # N < m has no P_Lambda; skipping those labels reported a pass on
        # nothing
        argv = ["verify", "inversion", "--m-max", "2", "--deg-max", "1"]
        rc, out, err = run(capsys, argv + ["--N", "1"])
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "--m-max = 2" in err
        rc, out, _ = run(capsys, argv + ["--N", "2"])
        assert rc == 0 and "3/3 identities passed" in out


class TestVerifySuites:
    def test_braid_seeded_deterministic(self, capsys):
        rc1, out1, _ = run(capsys, ["verify", "braid", "--N", "4", "--seed",
                                    "7", "--count", "5"])
        rc2, out2, _ = run(capsys, ["verify", "braid", "--N", "4", "--seed",
                                    "7", "--count", "5"])
        assert rc1 == rc2 == 0
        strip = lambda s: [l.split("(")[0] for l in s.splitlines()]
        assert strip(out1) == strip(out2)

    def test_orthogonality_suite(self, capsys):
        rc, out, _ = run(capsys, ["verify", "orthogonality", "--m-max", "1",
                                  "--deg-max", "2"])
        assert rc == 0 and "2/2 identities passed" in out

    def test_cauchy_suite(self, capsys):
        rc, out, _ = run(capsys, ["verify", "cauchy", "--m-max", "1",
                                  "--maxdeg", "2"])
        assert rc == 0

    def test_m_zero_runs_only_m_zero(self, capsys):
        rc, out, _ = run(capsys, ["--json", "verify", "orthogonality",
                                  "--m", "0", "--deg-max", "1"])
        assert rc == 0
        bounds = [e["bounds"] for e in json.loads(out)["report"]]
        assert bounds and all(b.startswith("m=0 ") for b in bounds)

    def test_inversion_checks_no_vanishing_label(self, capsys, monkeypatch):
        # lambda = (1,1,1) has P_Lambda = 0 in N = m + 2 variables, where
        # its inversion check would compare 0 with 0
        checked = []

        def record(lab, N):
            checked.append((lab, N))
            return ONE, ONE
        monkeypatch.setattr(cli, "invert_qt", record)
        rc, out, _ = run(capsys, ["verify", "inversion", "--m-max", "2",
                                  "--deg-max", "3"])
        assert rc == 0 and "3/3 identities passed" in out
        assert len(checked) == 6 + 13 + 24
        assert all(cli.msym_P(lab, N).poly for lab, N in checked)

    def test_qt_point_mode(self, capsys):
        rc, out, _ = run(capsys, ["verify", "eigen", "--N", "3",
                                  "--deg-max", "2", "--qt-point", "3", "5"])
        assert rc == 0 and "point(q=3, t=5)" in out

    @pytest.mark.parametrize("suite, argv, k", [
        ("braid", ["--N", "3", "--count", "3"], 4),
        ("eigen", ["--N", "2", "--deg-max", "2"], 1),
        ("orthogonality", ["--m-max", "1", "--deg-max", "2"], 2),
        ("inclusion", ["--m-max", "1", "--deg-max", "2", "--count", "3"], 3),
        ("specialization", ["--m-max", "1", "--deg-max", "2"], 3),
        ("symmetry", ["--m-max", "1", "--deg-max", "2"], 2),
        ("inversion", ["--m-max", "1", "--deg-max", "2"], 2),
        ("cauchy", ["--m-max", "1", "--maxdeg", "2"], 9),
        ("gram-schmidt", ["--m-max", "1", "--deg-max", "2"], 2),
    ])
    def test_every_suite_passes(self, capsys, suite, argv, k):
        rc, out, _ = run(capsys, ["verify", suite] + argv)
        assert rc == 0
        assert out.splitlines()[-1] == "%d/%d identities passed" % (k, k)

    def test_failing_identity_lists_its_witnesses(self, capsys, monkeypatch):
        # with Tbar_i the identity, Tbar_i T_i f = f fails for every sample
        monkeypatch.setattr(cli, "apply_Tbar", lambda f, i: f)
        rc, out, _ = run(capsys, ["--json", "verify", "braid", "--N", "3",
                                  "--count", "3", "--seed", "1"])
        assert rc == 1
        report = {e["identity"]: e for e in json.loads(out)["report"]}
        failed = report.pop("quadratic-and-inverse")
        assert failed["status"] == "fail"
        assert len(failed["witnesses"]) == 3
        assert all(w.startswith("('inverse', ") for w in failed["witnesses"])
        assert all(e["status"] == "pass" and "witnesses" not in e
                   for e in report.values())

    def test_cauchy_at_degree_zero(self, capsys):
        # D on the kernel's alphabets needs more than m letters
        rc, out, _ = run(capsys, ["verify", "cauchy", "--m-max", "1",
                                  "--maxdeg", "0"])
        assert rc == 0
        assert out.splitlines()[-1] == "9/9 identities passed"

    def test_kernel_symmetry_failure_names_its_operator(self, capsys,
                                                       monkeypatch):
        # Y_i acting on the x alphabet (the window starting at 1) doubled
        apply_Y = kernels.apply_Y

        def doubled_on_x(f, i, lo, hi):
            g = apply_Y(f, i, lo, hi)
            return g.scale(TWO) if lo == 1 else g
        monkeypatch.setattr(kernels, "apply_Y", doubled_on_x)
        rc, out, _ = run(capsys, ["--json", "verify", "cauchy", "--m-max",
                                  "1", "--maxdeg", "2"])
        assert rc == 1
        report = json.loads(out)["report"]
        failed = [e for e in report if e["status"] == "fail"]
        assert [e["identity"] for e in failed] == [
            "kernel-eigenoperator-symmetry"]
        assert failed[0]["witnesses"] == ["('Y', 1)"]

    def test_cauchy_compares_at_the_point(self, capsys, monkeypatch):
        # a coefficient off by q - 3 fails exactly but agrees at q = 3
        coeff = kernels._cauchy_coeff
        monkeypatch.setattr(kernels, "_cauchy_coeff",
                            lambda diagram: coeff(diagram) + Q - THREE)
        argv = ["--json", "verify", "cauchy", "--m-max", "1", "--maxdeg", "2"]
        rc, out, _ = run(capsys, argv)
        assert rc == 1
        assert {e["identity"] for e in json.loads(out)["report"]
                if e["status"] == "fail"} == {"cauchy-identity",
                                              "nonsym-cauchy-identity"}
        rc, out, _ = run(capsys, argv + ["--qt-point", "3", "5"])
        assert rc == 0
        assert all(e["status"] == "pass" for e in json.loads(out)["report"])


class TestCheckFailures:
    # each case breaks one side of the command's --check identity by
    # wrapping the function that builds it
    @pytest.mark.parametrize("argv, owner, name, corrupt", [
        (["expand-e", "--eta", "2,0,1"], macdonald, "_build_E",
         lambda build: lambda eta: build(eta).scale(TWO)),
        (["norm", "--m", "1", "--a", "1", "--lambda", "2"], cli,
         "norm_formula", lambda formula: lambda lab: ZERO),
        (["inclusion", "--m", "1", "--a", "1", "--lambda", "1"], cli,
         "inclusion_coeffs",
         lambda psi: lambda lab: dataclasses.replace(
             psi(lab), coeffs={om: c + c
                               for om, c in psi(lab).coeffs.items()})),
        (["restrict", "--m", "2", "--a", "1,0", "--lambda", "1"], cli,
         "restrict_poly", lambda r: lambda f, m: r(f, m).scale(TWO)),
        (["eval", "--m", "1", "--a", "1", "--lambda", "1", "--N", "3"], cli,
         "principal_specialization", lambda spec: lambda lab, N: ZERO),
    ], ids=["expand-e", "norm", "inclusion", "restrict", "eval"])
    def test_result_then_one_failure_line(self, capsys, monkeypatch, argv,
                                          owner, name, corrupt):
        monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
        rc, expected, err = run(capsys, argv)
        assert rc == 0 and expected and err == ""
        rc, out, err = run(capsys, argv + ["--check"])
        assert rc == 1 and out == expected
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("check failed: ")
        assert len(lines[0].split()) > 3  # identity and witnesses


class TestComparison:
    def test_point_mode_compares_values(self):
        q, three = QtRational.monomial(1, 1, 0), QtRational.from_int(3)
        point = (3, 5)
        assert not cli._same(q, three, None)
        assert cli._same(q, three, point)
        assert not cli._same(q, three, (2, 5))
        f, g = MultiPoly(1, {(1,): q}), MultiPoly(1, {(1,): three})
        assert not cli._same(f, g, None) and cli._same(f, g, point)
        assert not cli._same(f, MultiPoly(2, {(1, 0): three}), point)
        assert cli._same(True, True, point)
        assert not cli._same(False, True, point)

    def test_runner_compares_at_the_point(self, capsys, monkeypatch):
        def suite(bounds):
            yield "q-is-3", "", iter([("w", QtRational.monomial(1, 1, 0),
                                       QtRational.from_int(3))])
        monkeypatch.setitem(cli.SUITES, "braid", suite)
        rc, out, _ = run(capsys, ["verify", "braid"])
        assert rc == 1 and "witness: w" in out
        rc, out, _ = run(capsys, ["verify", "braid", "--qt-point", "3", "5"])
        assert rc == 0 and "1/1 identities passed" in out


# Commands whose --json output, with time_s dropped, is pinned by sha256.
_GOLDEN = (
    ["expand-e", "--eta", "2,0,1", "--check"],
    ["expand-p", "--m", "1", "--a", "1", "--lambda", "2,1", "--N", "5"],
    ["norm", "--m", "1", "--a", "1", "--lambda", "2", "--check"],
    ["inclusion", "--m", "1", "--a", "1", "--lambda", "1", "--check"],
    ["restrict", "--m", "2", "--a", "1,0", "--lambda", "1", "--check"],
    ["eval", "--m", "1", "--a", "1", "--lambda", "1", "--N", "3", "--check"],
    ["kernel", "--m", "1", "--maxdeg", "2", "--full"],
    ["verify", "orthogonality", "--m-max", "1", "--deg-max", "3"],
    ["verify", "inclusion", "--m-max", "1", "--deg-max", "2", "--count", "3"],
    ["verify", "specialization", "--m-max", "1", "--deg-max", "2"],
    ["verify", "symmetry", "--m-max", "1", "--deg-max", "2"],
    ["verify", "cauchy", "--m-max", "1", "--maxdeg", "2"],
    ["verify", "gram-schmidt", "--m-max", "1", "--deg-max", "2"],
)


def _drop_time(doc):
    if isinstance(doc, dict):
        return {k: _drop_time(v) for k, v in doc.items() if k != "time_s"}
    if isinstance(doc, list):
        return [_drop_time(v) for v in doc]
    return doc


class TestGoldenJson:
    def test_json_outputs_unchanged(self, capsys):
        # every command from cold caches: a change to any arithmetic,
        # accumulation or formatting path must leave the bytes as they are
        import hashlib
        from msym import macdonald
        h = hashlib.sha256()
        for argv in _GOLDEN:
            macdonald.clear_caches()
            rc, out, _ = run(capsys, ["--json", *argv])
            doc = _drop_time(json.loads(out))
            h.update((json.dumps([argv, rc, doc], sort_keys=True)
                      + "\n").encode())
        assert h.hexdigest() == ("8ec2ea860c073f7954ccd756a47313b2"
                                 "494f8ec704341fd40ee8e791dddb4c3c")
