"""End-to-end command-line runs: report content, exit codes, determinism."""

import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walkerspin
from walkerspin import cli
from walkerspin.cli import SUITES, main
from walkerspin.congruence import MAX_STEPS
from walkerspin.poly import ONE, ZERO, Poly
from walkerspin.spincoeff import COEFF_NAMES, Frame

from support import assert_names_a_witness, corpus_metrics, count_packed, value_parts

FLAT = {"a": "0", "b": "0", "c": "0", "label": "flat"}
CUBIC = {"a": "0", "b": "u^3", "c": "0"}
MIXED = {"a": "u*v", "b": "x^3", "c": "u*y", "label": "mixed"}
# a label that would print a FAIL line of its own
FORGED = {"a": "u", "b": "v", "c": "x", "label": "x\nFAIL 3.4 a = 1"}
UVX_POT = {"theta": "u*v*x", "f": "0", "g": "0", "F": "0", "G": "0", "h": "0"}
QUARTIC_POT = {"theta": "1/4*u^2*v^2", "f": "0", "g": "0", "F": "0", "G": "0", "h": "0"}
# a valid chain, but not scalar-flat: h = 1
CURVED_POT = {"theta": "u*v*x", "f": "u", "g": "v", "F": "1/2*u^2", "G": "1/2*v^2", "h": "1"}


@pytest.fixture
def spec(tmp_path):
    def write(data, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_flat_all_zero(self, spec, capsys):
        code, out, _ = run(capsys, "analyze", spec(FLAT))
        assert code == 0
        assert "metric flat" in out
        assert out.count("= 0\n") >= 32 + 21
        assert "label = SD-flat" in out
        assert "recurrent: yes" in out

    def test_cubic_landmarks(self, spec, capsys):
        code, out, _ = run(capsys, "analyze", spec(CUBIC))
        assert code == 0
        assert "  sigma = -3/2*u^2\n" in out
        assert "  Psi0 = 3*u\n" in out
        assert "auto-parallel: yes" in out
        assert "parallel: no" in out

    def test_malformed_expression(self, spec, capsys):
        code, _, err = run(capsys, "analyze", spec({"a": "u +* v", "b": "0", "c": "0"}))
        assert code == 2
        assert "position 3" in err
        deep = "(" * 3000 + "u" + ")" * 3000
        code, _, err = run(capsys, "analyze", spec({"a": deep, "b": "0", "c": "0"}))
        assert code == 2
        assert err.startswith("error:") and "nested deeper" in err
        code, _, err = run(capsys, "analyze", spec({"a": "u^1000000000", "b": "0", "c": "0"}))
        assert code == 2
        assert err.startswith("error:") and "exponent exceeds" in err and "position 2" in err
        code, _, err = run(capsys, "analyze", spec({"a": "(u+v+x+y+1)^1000", "b": "0", "c": "0"}))
        assert code == 2
        assert err.startswith("error:") and "terms" in err

    def test_composed_exponent_refused(self, spec, capsys):
        tower = {"a": "((u^1000)^1000)^1000*v", "b": "(x^1000)^1000", "c": "y"}
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", spec(tower))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and "exponent of u exceeds 1000" in err
        assert len(err.splitlines()) == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read" in err
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert err.startswith("error:") and "not valid UTF-8" in err
        assert "Traceback" not in err

    def test_frobenius_disagreement_is_internal(self, spec, capsys, monkeypatch):
        # l wedge dl vanishes exactly when the screen-integrable relations hold
        def bumped(cov):
            return {(0, 1, 2): Poly.const(1), (0, 1, 3): ZERO, (0, 2, 3): ZERO, (1, 2, 3): ZERO}

        monkeypatch.setattr("walkerspin.nullgeom.frobenius_residual", bumped)
        code, out, err = run(capsys, "analyze", spec(MIXED))
        assert code == 3 and out == ""
        assert err.startswith("internal inconsistency: Frobenius residual")
        assert len(err.splitlines()) == 1

    def test_unknown_key(self, spec, capsys):
        code, out, err = run(capsys, "analyze", spec({**CUBIC, "d": "y"}))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "unknown keys: ['d']" in err

    def test_byte_identical(self, spec, capsys):
        path = spec(MIXED)
        _, first, _ = run(capsys, "analyze", path)
        _, second, _ = run(capsys, "analyze", path)
        assert first == second


class TestVerify:
    def test_all_suites_pass(self, spec, capsys):
        code, out, _ = run(capsys, "verify", spec(MIXED))
        assert code == 0
        assert "suite 3.4: 48 residuals, all zero" in out
        assert "suite 3.1: 210 residuals, all zero" in out
        assert "suite bianchi: 4 residuals, all zero" in out
        assert "suite relations: 10 residuals, all zero" in out
        assert out.rstrip().endswith("verdict: pass")

    def test_cancelled_terms_leave_a_small_power(self, spec, capsys):
        # a = u^65: the parser bounds it by 65, so the suites' products of
        # its derivatives stay far below the exponent limit
        data = {"a": "(u^1000+u-u^1000)^65", "b": "x", "c": "0"}
        code, out, err = run(capsys, "verify", spec(data))
        assert code == 0 and err == ""
        assert out.rstrip().endswith("verdict: pass")

    def test_single_suite(self, spec, capsys):
        code, out, _ = run(capsys, "verify", spec(FLAT), "--suite", "bianchi")
        assert code == 0
        assert "suite 3.4" not in out

    def test_perturbation_detected(self, spec, capsys):
        code, out, _ = run(
            capsys, "verify", spec(MIXED), "--suite", "3.4", "--perturb", "sigma"
        )
        assert code == 1
        assert "perturbation: sigma + 1" in out
        assert "FAIL 3.4 " in out
        assert "verdict: fail" in out

    def test_corrupted_ricci_fails_bianchi(self, spec, capsys, monkeypatch):
        ricci_tensor = walkerspin.curvature.ricci_tensor
        bump = walkerspin.Poly.parse("u*x")

        def corrupted(ch):
            rows = [list(row) for row in ricci_tensor(ch)]
            rows[2][3] = rows[2][3] + bump
            rows[3][2] = rows[3][2] + bump
            return rows

        monkeypatch.setattr(walkerspin.curvature, "ricci_tensor", corrupted)
        code, out, _ = run(capsys, "verify", spec(MIXED), "--suite", "bianchi")
        assert code == 1
        assert "FAIL bianchi component " in out
        assert out.rstrip().endswith("verdict: fail")

    def test_route_disagreement_names_a_witness(self, spec, capsys, monkeypatch):
        # a closed form whose gamma_t is off by u*x makes the two PsiT2
        # routes disagree; the one error line names the quantity, the size
        # of the difference and a point where the difference is nonzero
        closed_form = walkerspin.spincoeff.walker_closed_form
        bump = walkerspin.Poly.parse("u*x")

        def broken(w):
            s = closed_form(w)
            return s.with_values(gamma_t=s.gamma_t + bump)

        checks = []
        check = walkerspin.curvature._check

        def recorded(label, value, *alternates):
            checks.append((label, value, alternates))
            return check(label, value, *alternates)

        monkeypatch.setattr(walkerspin.spincoeff, "walker_closed_form", broken)
        monkeypatch.setattr(walkerspin.curvature, "_check", recorded)
        code, out, err = run(capsys, "verify", spec(MIXED))
        assert code == 3
        assert out == ""
        [line] = err.splitlines()
        match = re.fullmatch(
            r"internal inconsistency: redundant routes for (\S+) disagree: the difference "
            r"has (\d+) numerator terms and is nonzero at \(u, v, x, y\) = \(([-\d, ]+)\)",
            line,
        )
        assert match, line
        label, value, alternates = checks[-1]
        assert match.group(1) == label == "PsiT2"
        diff = next(value - alt for alt in alternates if value != alt)
        assert int(match.group(2)) == len(value_parts(diff)[0].terms)
        point = tuple(int(c) for c in match.group(3).split(","))
        assert diff.eval_at(point) != 0

    def test_unknown_coefficient(self, spec, capsys, monkeypatch):
        # refused before the curvature is built
        def unbuilt(w, frame):
            raise AssertionError("curvature built before the refusal")

        monkeypatch.setattr(walkerspin.curvature, "walker_curvature_components", unbuilt)
        code, out, err = run(capsys, "verify", spec(FLAT), "--perturb", "bogus")
        assert (code, out) == (2, "")
        assert err == f"error: unknown coefficient 'bogus'; use one of {', '.join(COEFF_NAMES)}\n"

    # the metric of the fault injection in ROADMAP Baseline
    FAULTED = {"a": "u*v*x+x^2*y-3*u^2", "b": "y^3-u*v+x", "c": "u*y^2-v*x"}

    @pytest.mark.parametrize("component, entry", [("Lambda", "M[0][3]"), ("Psi0", "M[1][2]")])
    def test_curvature_fault_breaks_the_riccati_closure(self, spec, capsys, monkeypatch,
                                                         component, entry):
        """A curvature component off by one where it is assembled is an
        engine fault for every suite: the transport closure dM/du + M^2 + N
        ties N to the coefficients, and the entry it breaks is nonzero."""
        components = walkerspin.curvature.walker_curvature_components

        def bumped(w, frame):
            c = components(w, frame)
            return c._replace(**{component: getattr(c, component) + 1})

        monkeypatch.setattr(walkerspin.curvature, "walker_curvature_components", bumped)
        path = spec(self.FAULTED)
        for suite in ("all",) + SUITES:
            code, out, err = run(capsys, "verify", path, "--suite", suite)
            assert (code, out) == (3, "")
            # the entry is a nonzero constant, so the first point tried
            assert err == (
                f"internal inconsistency: redundant routes for Riccati closure {entry} "
                "disagree: the difference has 1 numerator terms and is nonzero at "
                "(u, v, x, y) = (0, 0, 0, 0)\n"
            )

    def test_scalar_fault_disagrees_with_the_tensor_scalar(self, spec, capsys, monkeypatch):
        """S off by one where it is assembled disagrees with the scalar of
        the tensor-route Ricci tensor, which suite bianchi forms; the other
        suites do not read S."""
        components = walkerspin.curvature.walker_curvature_components

        def bumped(w, frame):
            c = components(w, frame)
            return c._replace(S=c.S + 1)

        monkeypatch.setattr(walkerspin.curvature, "walker_curvature_components", bumped)
        path = spec(self.FAULTED)
        for suite in ("all", "bianchi"):
            code, out, err = run(capsys, "verify", path, "--suite", suite)
            assert (code, out) == (3, "")
            assert err == (
                "internal inconsistency: redundant routes for S disagree: the difference "
                "has 1 numerator terms and is nonzero at (u, v, x, y) = (0, 0, 0, 0)\n"
            )
        for suite in ("3.4", "3.1", "relations"):
            code, _, err = run(capsys, "verify", path, "--suite", suite)
            assert (code, err) == (0, "")

    def test_perturbed_coefficient_keeps_the_closure(self, spec, capsys):
        """The closure reads the untouched frame, so a perturbed coefficient
        is still a failed identity, exit 1, and not an engine fault."""
        code, out, err = run(capsys, "verify", spec(self.FAULTED), "--perturb", "rho")
        assert code == 1 and err == ""
        assert "FAIL " in out and out.rstrip().endswith("verdict: fail")

    # SHA-256 of the full report and the exit code; alpha_tp and the others
    # make FAIL lines in suite 3.1, so their content is pinned too
    GOLDEN = {
        None: (0, "9c9b3d08dd27047f9345acfeca4739f61e87072ff5970fd3f60e8dd90fc29824"),
        "gamma": (1, "f8ebfd926c9337194efc73c1cf553ee9ba339841b047c79779b5df8c74db867d"),
        "tau_p": (1, "fc3cde7d51e89446102f1aa2ff73ea856d9506635d32b7b88bd610bc1827e0f8"),
        "kappa_t": (1, "bc8c3c86e5391433f0f06679a1374f5a8fcb42800e5845defb99f49e1bfc9155"),
        "alpha_tp": (1, "a34f72ddf06283a10868b608d3e198d03d602795b7b60af7976c4608883e2b42"),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_report(self, spec, capsys, name):
        extra = [] if name is None else ["--perturb", name]
        code, out, _ = run(capsys, "verify", spec(MIXED), *extra)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.GOLDEN[name]
        assert ("FAIL 3.1 " in out) == (name is not None)

    def test_golden_field_equations(self, spec, capsys):
        # SHA-256 of suite 3.4's reports and exit codes, unperturbed and
        # with each coefficient bumped in turn; pins the FAIL lines of all
        # 48 equations and their order
        path = spec(MIXED)
        digest = hashlib.sha256()
        for name in (None,) + COEFF_NAMES:
            extra = [] if name is None else ["--perturb", name]
            code, out, _ = run(capsys, "verify", path, "--suite", "3.4", *extra)
            digest.update(out.encode() + f"exit {code}\n".encode())
        assert digest.hexdigest() == "77aa8f2ed3adaa10ba8685d3edc26b387d0fdad6586c61accccc7fd90fad3832"


def oracle_error(out: str) -> float:
    for line in out.splitlines():
        if line.startswith("max oracle error = "):
            return float(line.split("=")[1])
    raise AssertionError(f"no summary line in {out!r}")


class TestCongruence:
    def test_oracle_bound(self, spec, capsys, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "congruence", spec({"a": "0", "b": "u^2", "c": "0"}),
            "--v0", "0,0,1,0", "--end", "1", "--step", "0.001",
            "--out", str(csv_path),
        )
        assert code == 0
        assert oracle_error(out) <= 1e-8
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "v,eta,zeta,zetatilde,nu,rho,rhotilde,sigma,sigmatilde"
        assert len(lines) == 1002

    def test_one_oracle_call(self, spec, capsys, monkeypatch):
        calls = []
        oracle = cli.connecting_oracle

        def counted(*args, **kwargs):
            calls.append(args)
            return oracle(*args, **kwargs)

        monkeypatch.setattr(cli, "connecting_oracle", counted)
        code, _, _ = run(
            capsys, "congruence", spec(MIXED),
            "--v0", "1,2,3,4", "--end", "0.2", "--step", "0.1", "--out", "-",
        )
        assert code == 0
        assert len(calls) == 1

    def test_flat_constant_columns(self, spec, capsys):
        code, out, _ = run(
            capsys, "congruence", spec(FLAT),
            "--v0", "1,2,3,4", "--end", "0.2", "--step", "0.1", "--out", "-",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert all(row.split(",")[1:5] == ["1.0", "2.0", "3.0", "4.0"] for row in rows)

    def test_step_halving_fourth_order(self, spec, capsys):
        path = spec({"a": "0", "b": "u^6", "c": "0"})
        args = ["congruence", path, "--v0", "0,0,1,0", "--end", "1", "--out", "-"]
        _, coarse, _ = run(capsys, *args, "--step", "0.1")
        _, fine, _ = run(capsys, *args, "--step", "0.05")
        ratio = oracle_error(coarse) / oracle_error(fine)
        assert 12 <= ratio <= 20

    def test_golden_trace(self, spec, capsys, tmp_path):
        # digests recorded with per-point Fraction evaluation of every sample
        # and of the oracle, before curve restriction replaced it
        metric = {"a": "u^3*v - 2/3*x*y + u*y^2", "b": "u^4 - x*v + 1/2",
                  "c": "u^2*x - 3*v*y^2 + u", "label": "golden"}
        csv_path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "congruence", spec(metric), "--v0", "1,-2,1/2,3",
            "--base", "1/3,-1/2,2,-3/4", "--end", "1", "--step", "1e-3",
            "--out", str(csv_path),
        )
        assert code == 0
        out = out.replace(str(csv_path), "trace.csv")
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "db2bb30fb44536fe008404066ce402cf60ec271c6dccf32b3628d796bbcadbb9"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e65583a3dec77a19839b46c431b5c9ceb290894332dd935325a65e2efe4dff64"
        )

    def test_golden_trace_on_stdout(self, spec, capsys):
        # digest recorded with csv.writer rows and a per-state oracle loop
        metric = {"a": "u^3*v - 2/3*x*y + u*y^2", "b": "u^4 - x*v + 1/2",
                  "c": "u^2*x - 3*v*y^2 + u", "label": "golden"}
        code, out, _ = run(
            capsys, "congruence", spec(metric), "--v0=0,-2,1/2,-3",
            "--base=-1/3,1/2,-2,3/4", "--end", "1/2", "--step", "1e-2", "--out", "-",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 53
        assert lines[0] == "v,eta,zeta,zetatilde,nu,rho,rhotilde,sigma,sigmatilde"
        assert lines[-1].startswith("max oracle error = ")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6453e947cab13e59a580e9b6d8ce54155cc67f45abcc02252605c42fad260183"
        )

    def test_spans_near_the_float_maximum(self, spec, capsys, tmp_path):
        # each step's midpoint is checked without forming t0 + t1, which
        # overflows here
        csv_path = tmp_path / "trace.csv"
        for end, step, steps in (("1e308", "1e303", 100_000), ("1.7e308", "1e308", 2)):
            code, out, err = run(capsys, "congruence", spec(FLAT), "--v0", "1,1,1,1",
                                 "--end", end, "--step", step, "--out", str(csv_path))
            assert code == 0, err
            assert f"steps: {steps}\n" in out
            assert oracle_error(out) == 0.0
            lines = csv_path.read_text().splitlines()
            assert len(lines) == steps + 2
            assert lines[-1] == f"{float(end)!r},1.0,1.0,1.0,1.0,0.0,0.0,0.0,0.0"

    def test_flag_validation(self, spec, capsys):
        path = spec(FLAT)
        code, _, err = run(capsys, "congruence", path, "--v0", "1,2",
                           "--end", "1", "--step", "0.1", "--out", "-")
        assert code == 2 and "--v0" in err
        code, _, err = run(capsys, "congruence", path, "--v0", "0,0,0,1",
                           "--end", "1", "--step", "0", "--out", "-")
        assert code == 2
        code, _, err = run(capsys, "congruence", path, "--v0=0,0,1e400,0",
                           "--end", "1", "--step", "0.1", "--out", "-")
        assert code == 2 and err.startswith("error:") and "--v0" in err
        for end, step in (("1e300", "1e-300"), ("1", "1e-9")):
            code, out, err = run(capsys, "congruence", path, "--v0", "0,0,1,0",
                                 "--end", end, "--step", step, "--out", "-")
            assert code == 2 and not out
            assert err.startswith("error:") and "steps" in err

    def test_base_past_the_digit_bound_refused_before_evaluation(self, spec, capsys):
        # a at the base has about 10^6 digits; its restriction along u took
        # minutes and hundreds of MB
        path = spec({"a": "u^1000", "b": "0", "c": "0"})
        start = time.perf_counter()
        code, out, err = run(capsys, "congruence", path, "--v0", "0,0,1,0", "--end", "1",
                             "--step", "0.5", "--base", "1e999,0,0,0", "--out", "-")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        limit = sys.get_int_max_str_digits()
        assert err == f"error: a value at --base has more than {limit} digits\n"


    @pytest.mark.parametrize("end, step", [("1e-300", "1e-301"), ("1e300", "1e299")])
    def test_samples_past_the_digit_bound_refused_before_evaluation(
        self, spec, capsys, end, step
    ):
        # the grid floats have numerators or denominators near 2^1000, so
        # one sample of a degree-999 column would have about 300 000 digits
        path = spec({"a": "u^1000", "b": "0", "c": "0"})
        start = time.perf_counter()
        code, out, err = run(capsys, "congruence", path, "--v0", "0,0,1,0", "--end", end,
                             "--step", step, "--out", "-")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        limit = sys.get_int_max_str_digits()
        assert re.fullmatch(rf"error: \w+ has more than {limit} digits along the curve\n", err)

    def test_unwritable_out_path(self, spec, capsys, tmp_path):
        target = tmp_path / "missing" / "trace.csv"
        code, out, err = run(capsys, "congruence", spec(FLAT), "--v0", "1,1,1,1",
                             "--end", "1", "--step", "0.5", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ") and len(err.splitlines()) == 1
        assert not target.parent.exists()


class TestHeavenly:
    def test_einstein_true(self, spec, capsys):
        code, out, _ = run(capsys, "heavenly", spec(UVX_POT))
        assert code == 0
        assert 'metric = {"a": "0", "b": "0", "c": "2*x"}' in out
        assert "aligned Ricci conditions: pass" in out
        assert "master identity residual = 0" in out
        assert "Einstein: true" in out

    def test_einstein_false_with_witness(self, spec, capsys):
        code, out, _ = run(capsys, "heavenly", spec(QUARTIC_POT), "--check", "einstein")
        assert code == 0
        assert "Einstein: false" in out
        assert "witness R_uu = -3/2*v^2" in out

    def test_invalid_chain(self, spec, capsys):
        pot = {"theta": "0", "f": "u", "g": "0", "F": "1/2*u^2", "G": "0", "h": "0"}
        code, _, err = run(capsys, "heavenly", spec(pot))
        assert code == 2
        assert "f_u - h = 1" in err

    def test_unknown_key(self, spec, capsys):
        code, out, err = run(capsys, "heavenly", spec({**UVX_POT, "H": "0", "label": "uvx"}))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "unknown keys: ['H']" in err

    def test_scalar_fault_disagrees_with_2h(self, spec, capsys, monkeypatch):
        """S off by one where it is assembled disagrees with 2h, the scalar
        the potential prescribes."""
        components = walkerspin.curvature.walker_curvature_components

        def bumped(w, frame):
            c = components(w, frame)
            return c._replace(S=c.S + 1)

        monkeypatch.setattr(walkerspin.curvature, "walker_curvature_components", bumped)
        code, out, err = run(capsys, "heavenly", spec({**UVX_POT, "theta": "u^2*v*x + v^3*y"}))
        assert (code, out) == (3, "")
        prefix = "internal inconsistency: "
        assert err.startswith(prefix) and err.endswith("\n")
        assert_names_a_witness(err[len(prefix):-1], "scalar curvature S against 2h", -ONE)

    def test_identity_only(self, spec, capsys):
        code, out, _ = run(capsys, "heavenly", spec(UVX_POT), "--check", "identity")
        assert code == 0
        assert "Einstein" not in out

    def test_not_scalar_flat_prints_nothing(self, spec, capsys):
        path = spec(CURVED_POT)
        for check in ("all", "einstein"):
            code, out, err = run(capsys, "heavenly", path, "--check", check)
            assert code == 2 and out == "", check
            assert err == "error: scalar-flat analysis requires h = 0\n"
        code, out, _ = run(capsys, "heavenly", path, "--check", "identity")
        assert code == 0 and "master identity residual = 0" in out

    def test_nonzero_identity_residual_prints_a_fail_line(self, spec, capsys, monkeypatch):
        monkeypatch.setattr("walkerspin.cli.master_identity_residual",
                            lambda p: Poly.parse("u"))
        code, out, _ = run(capsys, "heavenly", spec(UVX_POT), "--check", "identity")
        assert code == 1
        assert "FAIL master identity residual = u\n" in out.splitlines(keepends=True)

    # SHA-256 of `heavenly --check=all` reports: Einstein, and not Einstein
    # with an R_uu and with an R_uv witness line
    GOLDEN = {
        "uvx": (UVX_POT, "a2ca437e02ee7fce74c6db727167154cb72b54edf2b88c04828551f5fb256f6f"),
        "quartic": (QUARTIC_POT, "259df79f5404f29209d15445e9c0bbb6f330f768bc4298dbdde7323b795d22d1"),
        "profile": ({**UVX_POT, "theta": "0", "f": "y^2", "F": "u*y^2"},
                    "3ff4abb40668dc19b97e9708cede3715877d10aa971840b1054cdf6d5a45751d"),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_report(self, spec, capsys, name):
        pot, digest = self.GOLDEN[name]
        code, out, _ = run(capsys, "heavenly", spec(pot), "--check=all")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)

    @pytest.mark.parametrize("pot, flatten, message", [
        (UVX_POT, False,
         "Phi01 is nonzero, but every R residual vanishes: the difference has 1 "
         "numerator terms and is nonzero at (u, v, x, y) = (1, 0, 1, 0)"),
        (QUARTIC_POT, True,
         "R_uu is nonzero, but every Phi and Lambda entry vanishes: the difference "
         "has 1 numerator terms and is nonzero at (u, v, x, y) = (0, 1, 0, 0)"),
    ], ids=["bumped Phi01", "flattened Ricci"])
    def test_affine_test_disagreement_names_a_witness(self, spec, capsys, monkeypatch,
                                                      pot, flatten, message):
        components = walkerspin.curvature.walker_curvature_components
        bump = Poly.parse("u*x")

        def broken(w, frame):
            c = components(w, frame)
            if flatten:
                return c._replace(Phi=((Poly.zero(),) * 3,) * 3, Lambda=Poly.zero())
            rows = [list(row) for row in c.Phi]
            rows[0][1] = rows[0][1] + bump
            return c._replace(Phi=tuple(map(tuple, rows)))

        monkeypatch.setattr(walkerspin.curvature, "walker_curvature_components", broken)
        code, out, err = run(capsys, "heavenly", spec(pot), "--check=all")
        assert code == 3 and out == ""
        assert err == (
            f"internal inconsistency: affine test disagrees with curvature: {message}\n"
        )


class TestClassify:
    def test_cubic_is_self_dual_flat(self, spec, capsys):
        code, out, _ = run(capsys, "classify", spec(CUBIC), "--point", "2,0,0,0")
        assert code == 0
        assert "label = SD-flat" in out

    def test_scalar_flat_point(self, spec, capsys):
        # the metric a potential chain with f = y^2 builds
        path = spec({"a": "u*y^2", "b": "0", "c": "0"})
        code, out, _ = run(capsys, "classify", path, "--point", "0,0,0,1")
        assert code == 0
        assert "label = {31}III" in out
        assert "B = 4" in out

    def test_rational_point(self, spec, capsys):
        code, out, _ = run(capsys, "classify", spec(CUBIC), "--point", "1/3,0,0,1/2")
        assert code == 0
        assert "point = (1/3, 0, 0, 1/2)" in out


    @pytest.mark.parametrize("command", ["classify", "analyze"])
    def test_point_literal_bounds(self, spec, capsys, command):
        # MAX_EXPONENT digits and an exponent of magnitude MAX_EXPONENT are
        # accepted; one more of either is refused before any work
        path = spec(CUBIC)
        for value in ("1e1000", "1e-1000", "-1E+1000", "1" * 1000, "1/" + "7" * 999):
            code, _, err = run(capsys, command, path, f"--point={value},0,0,0")
            assert code == 0, (value, err)
        for value in ("1e1001", "1e-1001", "1e100000", "1e10000000", "1e1_0000",
                      "1" * 1001, "1/" + "7" * 1000, "1.5" + "0" * 999):
            code, out, err = run(capsys, command, path, "--point", f"0,{value},0,0")
            assert code == 2 and out == "", value
            assert err.startswith("error: bad value in --point") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--point", "--base", "--v0", "--end", "--step"])
    def test_non_decimal_exponent_digit_is_bad_input(self, spec, capsys, flag):
        # '²' is a digit to str.isdigit, but not to int() or Fraction()
        flags = {"--v0": "0,0,1,0", "--end": "1", "--step": "0.5", "--base": "0,0,0,0"}
        if flag == "--point":
            argv = ["classify", spec(CUBIC), "--point", "1e²,0,0,0"]
        else:
            flags[flag] = "1e²" if flag in ("--end", "--step") else "1e²,0,0,0"
            argv = ["congruence", spec(CUBIC), *(x for pair in flags.items() for x in pair),
                    "--out", "-"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad value in {flag}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag, value, literal", [
        ("--point", "1,2,3,1/0", "1/0"), ("--base", "0, -7/00 ,0,0", "-7/00"),
        ("--v0", "0,0,1/0,0", "1/0"), ("--end", "1/0", "1/0"), ("--step", " 3/0_0", "3/0_0"),
    ])
    def test_zero_denominator_is_named(self, spec, capsys, flag, value, literal):
        flags = {"--v0": "0,0,1,0", "--end": "1", "--step": "0.5", "--base": "0,0,0,0"}
        if flag == "--point":
            argv = ["classify", spec(CUBIC), "--point", value]
        else:
            flags[flag] = value
            argv = ["congruence", spec(CUBIC), *(x for pair in flags.items() for x in pair),
                    "--out", "-"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: bad value in {flag}: {literal} has a zero denominator\n"

    def test_exponent_read_without_leading_zeros_of_any_script(self, spec, capsys):
        # Fraction("1e٠٠٠٠٠1") == 10: Arabic-Indic zeros are zeros to int()
        code, out, err = run(capsys, "classify", spec(CUBIC), "--point", "1e٠٠٠٠٠1,0,0,0")
        assert code == 0, err
        assert "point = (10, 0, 0, 0)" in out

    @pytest.mark.parametrize("command", ["classify", "analyze"])
    def test_value_too_large_to_print(self, spec, capsys, command):
        path = spec({"a": "u^6*v", "b": "u^4*x^3", "c": "u*y"})
        code, out, err = run(capsys, command, path, "--point", "1e1000,1e1000,0,0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "digits" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["classify", "analyze"])
    @pytest.mark.parametrize("a, point", [
        ("u^1000", "1e999,0,0,0"),
        ("u^1000*v^1000*x^1000*y^1000", "1e999,1e999,1e999,1e999"),
    ], ids=["u", "uvxy"])
    def test_point_past_the_digit_bound_refused_before_evaluation(
        self, spec, capsys, command, a, point
    ):
        # each value has about 10^6 digits at the point; forming one took
        # minutes and hundreds of MB
        path = spec({"a": a, "b": "0", "c": "0"})
        start = time.perf_counter()
        code, out, err = run(capsys, command, path, "--point", point)
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        limit = sys.get_int_max_str_digits()
        assert err == f"error: a value at --point has more than {limit} digits\n"

    def test_digit_bound_holds_with_the_limit_off(self, spec, capsys):
        # with no interpreter limit the bound takes its default, so the
        # point is still refused before evaluation
        path = spec({"a": "u^1000", "b": "0", "c": "0"})
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, "classify", path, "--point", "1e999,0,0,0")
            assert time.perf_counter() - start < 2
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        default = sys.int_info.default_max_str_digits
        assert err == f"error: a value at --point has more than {default} digits\n"


class TestParser:
    def test_internal_error_exit_3(self, spec, capsys, monkeypatch):
        def boom(args, out):
            raise RuntimeError("boom")

        monkeypatch.setattr("walkerspin.cli.cmd_classify", boom)
        code, out, err = run(capsys, "classify", spec(CUBIC))
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: RuntimeError: boom")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_value_error_is_internal(self, spec, capsys, monkeypatch):
        # only the interpreter's digit-limit ValueError is bad input
        def boom(args, out):
            raise ValueError("boom")

        monkeypatch.setattr("walkerspin.cli.cmd_classify", boom)
        code, out, err = run(capsys, "classify", spec(CUBIC))
        assert code == 3 and out == ""
        assert err.startswith("internal error: ValueError: boom")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, data", [
        ("verify", {"a": f"({'9' * 4000}*u+1)^2", "b": "0", "c": "0"}),
        ("analyze", {"a": f"{'9' * 2500}*u^3*v^3", "b": f"{'9' * 2500}*u^2", "c": "0"}),
        ("heavenly", {"theta": f"{'9' * 4000}*u^2*v^2",
                      "f": "0", "g": "0", "F": "0", "G": "0", "h": "0"}),
    ], ids=["verify", "analyze", "heavenly"])
    def test_report_past_the_digit_limit(self, spec, capsys, command, data):
        # a value too long for str() is refused with nothing printed, not
        # a crash after part of the report
        code, out, err = run(capsys, command, spec(data))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "digits" in err and len(err.splitlines()) == 1

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, data", [
        (["analyze"], FORGED),
        (["verify", "--suite", "relations"], FORGED),
        (["classify"], FORGED),
        (["heavenly"], {**UVX_POT, "label": "uvx\x1b[2J"}),
    ], ids=["analyze", "verify", "classify", "heavenly"])
    def test_label_must_be_printable(self, spec, capsys, argv, data):
        """A label is printed as is, so one with a line break could print
        a FAIL line under exit 0."""
        code, out, err = run(capsys, argv[0], spec(data), *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: label must be printable") and len(err.splitlines()) == 1

    def test_label_must_be_a_string(self, spec, capsys):
        code, out, err = run(capsys, "analyze", spec({**FLAT, "label": 7}))
        assert code == 2 and out == ""
        assert err == "error: label must be a string\n"

    def test_unknown_suite_value(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", spec(FLAT), "--suite", "9.9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        ('{"a": "0", "b": "0", "c": "0", "label": ' + "9" * 5000 + "}", "digits"),
        # whole lines: the object hook's refusal, not re-wrapped as invalid JSON
        ('{"a": "0", "b": "0", "c": "0", "label": "\\ud800"}',
         "error: key 'label' holds a lone surrogate\n"),
        ('{"a": "0", "b": "0", "c": "0", "a": "u"}', "error: duplicate key 'a' in JSON object\n"),
    ], ids=["deep", "long-int", "surrogate", "duplicate"])
    def test_bad_json(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        if message.startswith("error: "):
            assert err == message
        else:
            assert err.startswith("error:") and message in err and len(err.splitlines()) == 1



# Which commands multiply through the packed product kernel, counted at its
# entry: products too small or too sparse to gain keep the per-pair loop.

def test_corpus_and_frames_keep_the_loop(spec, capsys, monkeypatch):
    from walkerspin.spincoeff import transform_coefficients
    from walkerspin.walker import WalkerMetric

    calls = count_packed(monkeypatch)
    for w in corpus_metrics():
        path = spec({name: str(getattr(w, name)) for name in "abc"})
        for command in ("analyze", "verify"):
            assert run(capsys, command, path)[0] == 0
    # the frames of the benchmark's frames workload
    w = WalkerMetric(*map(Poly.parse, ("u*v+x^2", "y^3-u", "u*y")))
    for params in (("1+u", "1", "x", "0"), ("1", "1", "x", "y"),
                   ("1+x", "1", "0", "y"), ("1+u", "1+v", "0", "0")):
        transform_coefficients(Frame.walker(w), *map(Poly.parse, params))
    assert calls[0] == 0


def test_dense_verify_packs(spec, capsys, monkeypatch):
    calls = count_packed(monkeypatch)
    dense = {"a": "(u+v+x+y+1)^5", "b": "(u-2*v+x+1/2)^5", "c": "(u*v+x-y)^2"}
    code, out, _ = run(capsys, "verify", spec(dense))
    assert code == 0 and out.rstrip().endswith("verdict: pass")
    assert calls[0] > 0

# Every layer a command may build, by module; "Frame.walker" is a classmethod.
LAYERS = {
    "walker": ("christoffel",),
    "curvature": ("walker_curvature_components", "ricci_tensor", "scalar_curvature"),
    "heavenly": ("build_metric", "validate_potential", "invariants"),
}
# The frame, its curvature and the tensor route that suite bianchi reads.
TENSOR_ROUTE = ("Frame.walker", "walker_curvature_components", "christoffel", "ricci_tensor",
                "scalar_curvature")
# What one derivative of a direction field builds, counted beside LAYERS.
FIELD_LAYERS = {
    "spincoeff": ("dyad_covariant_derivative", "connection_matrices"),
    "walker": ("tetrad_covectors",),
}
# The relabellings each frame's companions are built from.
COMPANION_LAYERS = {"spincoeff": ("prime", "tilde_relabel")}


@pytest.fixture
def layer_counts(monkeypatch):
    """Calls of each layer builder, counted through every module's binding."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("walkerspin")]
    for mod, names in [*LAYERS.items(), *FIELD_LAYERS.items(), *COMPANION_LAYERS.items()]:
        for name in names:
            original = getattr(importlib.import_module(f"walkerspin.{mod}"), name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        monkeypatch.setattr(m, attr, counted(name, original))
    walker = Frame.__dict__["walker"].__func__
    monkeypatch.setattr(Frame, "walker", classmethod(counted("Frame.walker", walker)))
    return counts


@pytest.mark.parametrize("argv, built", [
    (["analyze", "metric"], {"Frame.walker": 1, "walker_curvature_components": 1}),
    (["classify", "metric"], {"Frame.walker": 1, "walker_curvature_components": 1}),
    (["verify", "metric"], dict.fromkeys(TENSOR_ROUTE, 1)),
    (["verify", "metric", "--perturb", "sigma"], dict.fromkeys(TENSOR_ROUTE, 1)),
    (["verify", "metric", "--suite", "3.4"],
     {"Frame.walker": 1, "walker_curvature_components": 1}),
    (["congruence", "metric", "--v0", "0,0,1,0", "--end", "0.2", "--step", "0.1",
      "--out", "-"], {"Frame.walker": 1}),
    (["heavenly", "potential", "--check", "all"],
     {"build_metric": 1, "validate_potential": 1, "invariants": 1,
      "Frame.walker": 1, "walker_curvature_components": 1}),
], ids=["analyze", "classify", "verify", "verify-perturb", "verify-3.4", "congruence",
        "heavenly"])
def test_each_layer_built_once(spec, capsys, layer_counts, argv, built):
    paths = {"metric": spec(MIXED), "potential": spec(UVX_POT, "potential.json")}
    code, _, _ = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == (1 if "--perturb" in argv else 0)
    names = ["Frame.walker"] + [name for names in LAYERS.values() for name in names]
    assert {name: layer_counts[name] for name in names} == {
        name: built.get(name, 0) for name in names
    }


def test_analysis_builds_the_tensor_route_once(layer_counts):
    an = walkerspin.Analysis(walkerspin.WalkerMetric.from_dict(MIXED))
    an.phi_lambda
    an.scalar
    an.scalar
    assert {name: layer_counts[name] for name in TENSOR_ROUTE} == dict.fromkeys(TENSOR_ROUTE, 1)


def test_distribution_report_derives_the_field_once(spec, capsys, layer_counts):
    """The integrability residual and the recurrence forms share one
    derivative of the field; the other derivative is of the lowered field.
    The two one-forms and the Frobenius test share one set of covectors,
    and both derivatives the frame's one set of connection matrices."""
    code, _, _ = run(capsys, "analyze", spec(MIXED))
    assert code == 0
    names = [name for names in FIELD_LAYERS.values() for name in names]
    assert {name: layer_counts[name] for name in names} == {
        **dict.fromkeys(names, 1), "dyad_covariant_derivative": 2
    }


@pytest.mark.parametrize("argv, built", [
    (["verify"], {"prime": 2, "tilde_relabel": 1}),
    (["verify", "--perturb", "tau_tp"], {"prime": 2, "tilde_relabel": 1}),
    (["verify", "--suite", "3.1"], {"prime": 2, "tilde_relabel": 1}),
    (["analyze"], {"prime": 0, "tilde_relabel": 1}),
], ids=["verify", "verify-perturb", "verify-3.1", "analyze"])
def test_companions_built_once_per_frame(spec, capsys, layer_counts, argv, built):
    """Suites 3.4 and 3.1 read the companions of the one frame, and the
    connection matrices relabel its coefficients once."""
    code, _, _ = run(capsys, argv[0], spec(MIXED), *argv[1:])
    assert code in (0, 1)
    names = [name for names in COMPANION_LAYERS.values() for name in names]
    assert {name: layer_counts[name] for name in names} == built


_monomial = st.builds(
    "*".join,
    st.lists(st.sampled_from(["u", "v", "x", "y", "2", "1/3", "u^2", "y^3"]),
             min_size=1, max_size=3),
)
_poly = st.builds(" + ".join, st.lists(_monomial, min_size=1, max_size=3))
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | _poly,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
_metric = st.fixed_dictionaries(
    {"a": _poly, "b": _poly, "c": _poly},
    optional={"label": st.text(max_size=6), "d": _json_value},
)
_document = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40).map(str.encode),
    st.one_of(_metric, _json_value).map(lambda doc: json.dumps(doc).encode()),
)
_literal = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.fractions(max_denominator=100).map(str),
    st.sampled_from(["1e1000", "1e-1001", "1/0", "nan", "", "0x10", "1_0"]),
    st.text(max_size=6),
)
_point = st.one_of(st.lists(_literal, min_size=3, max_size=5).map(",".join), st.text(max_size=20))


@settings(max_examples=80, deadline=None)
@given(document=_document, point=_point)
@example(document=b"[" * 100_000 + b"]" * 100_000, point="0,0,0,0")
@example(document=b'{"a": "0", "b": "0", "c": "0", "label": ' + b"9" * 5000 + b"}",
         point="0,0,0,0")
@example(document=b'{"a": "0", "b": "0", "c": "0", "label": "\\ud800"}', point="0,0,0,0")
@example(document=b'{"a": "u", "b": "v", "c": "x", "a": "y"}', point="1,2,3,4")
@example(document=b'{"a": "u", "b": "v", "c": "x", "label": "x\\nFAIL 3.4 a = 1"}',
         point="1,2,3,4")
def test_metric_input_is_accepted_or_refused(tmp_path_factory, document, point):
    """Any metric file and --point is a report (exit 0) or one error line
    (exit 2): never an internal error.  ``verify`` may also exit 1, exactly
    when its report has a FAIL line."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(document)
    for argv in (["classify", f"--point={point}"], ["analyze", f"--point={point}"],
                 ["verify", "--suite", "relations"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), err.getvalue()
        assert not any(line.startswith("internal error:") for line in err.getvalue().splitlines())
        failed = any(line.startswith("FAIL ") for line in out.getvalue().splitlines())
        assert (code == 1) == failed, out.getvalue()
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:")
            assert len(err.getvalue().splitlines()) == 1


def _mostly(valid, refused):
    """A `valid` draw three times in four, else a `refused` one."""
    return st.tuples(st.sampled_from([0, 0, 0, 1]), valid, refused).map(lambda t: t[1 + t[0]])


_refused_span = st.sampled_from(["nan", "inf", "-inf", "1e1000", "-1", "0", "", "1/0", "x"])


@st.composite
def _span(draw):
    """--end and --step for at most 10^3 steps, or for more than MAX_STEPS;
    either may be a refused value instead."""
    end = draw(st.floats(1e-3, 10))
    count = draw(_mostly(st.integers(1, 1000), st.floats(MAX_STEPS + 1, 1e12)))
    return tuple(draw(_mostly(st.just(repr(x)), _refused_span)) for x in (end, end / count))


_tuple = _mostly(
    st.lists(st.fractions(max_denominator=10).map(str), min_size=4, max_size=4).map(",".join),
    st.one_of(
        st.lists(_literal | st.sampled_from(["inf", "-0", "1e-1000", "-1e1000"]),
                 min_size=3, max_size=5).map(",".join),
        st.text(max_size=20),
    ),
)


@settings(max_examples=60, deadline=None)
@given(metric=st.sampled_from([FLAT, CUBIC, MIXED]), v0=_tuple, base=_tuple, span=_span())
@example(metric=MIXED, v0="nan,0,0,0", base="0,0,0,0", span=("1", "0.1"))
@example(metric=MIXED, v0="1,0,0,0", base="1e1000,0,0,0", span=("1", "0.1"))
@example(metric=MIXED, v0="1,2,3,4", base="1/3,0,-2,1", span=("1", "1e-9"))
def test_congruence_flags_are_accepted_or_refused(tmp_path_factory, metric, v0, base, span):
    """Any --v0, --base, --end and --step is a trace (exit 0) or one error
    (exit 2): never an internal error."""
    path = tmp_path_factory.getbasetemp() / "congruence.json"
    path.write_text(json.dumps(metric))
    argv = ["congruence", str(path), f"--v0={v0}", f"--base={base}",
            f"--end={span[0]}", f"--step={span[1]}", "--out=-"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert "internal error:" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().splitlines()) == 1


_xy_poly = st.builds(" + ".join, st.lists(
    st.builds("*".join, st.lists(st.sampled_from(["x", "y", "2", "-1/2", "x^2"]),
                                 min_size=1, max_size=2)),
    min_size=1, max_size=2,
))


@st.composite
def _potential(draw):
    """A potential file: three times in four a chain that holds by
    construction (scalar-flat half of those times), else any strings."""
    P = walkerspin.Poly.parse
    u, v = P("u"), P("v")
    h, f0, g0, F0, G0 = (P(draw(_xy_poly)) for _ in range(5))
    if draw(st.booleans()):
        h = F0 = G0 = P("0")
    chain = {
        "theta": draw(_poly), "f": u * h + f0, "g": v * h + g0, "h": h,
        "F": Fraction(1, 2) * u * u * h + u * f0 + F0,
        "G": Fraction(1, 2) * v * v * h + v * g0 + G0,
    }
    return draw(_mostly(
        st.just({key: str(value) for key, value in chain.items()}),
        st.fixed_dictionaries(dict.fromkeys(chain, _poly)) | _json_value,
    ))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_subcommand_keeps_the_exit_contract(tmp_path_factory, data):
    """Any argument list over the five subcommands, their input files and
    their flags exits 0, 1 or 2 within a bound, exits 1 exactly when the
    report has a FAIL line, and never reports an internal error or an
    inconsistency between two routes."""
    tmp = tmp_path_factory.getbasetemp()
    draw = data.draw
    command = draw(st.sampled_from(["analyze", "verify", "congruence", "heavenly", "classify"]))
    path = tmp / "whole.json"
    document = draw(_potential() if command == "heavenly" else _mostly(
        st.fixed_dictionaries(dict.fromkeys("abc", _poly)), _metric | _json_value))
    path.write_text(json.dumps(document))
    argv = [command, str(path)]
    if command in ("analyze", "classify"):
        argv.append(f"--point={draw(_tuple)}")
    elif command == "verify":
        suite = draw(_mostly(st.sampled_from(("all",) + SUITES), st.text(max_size=4)))
        argv.append(f"--suite={suite}")
        perturb = draw(_mostly(st.sampled_from((None,) + COEFF_NAMES), st.text(max_size=4)))
        if perturb is not None:
            argv.append(f"--perturb={perturb}")
    elif command == "congruence":
        end, step = draw(_span())
        out_path = draw(st.sampled_from(["-", str(tmp / "trace.csv"), str(tmp)]))
        argv += [f"--v0={draw(_tuple)}", f"--base={draw(_tuple)}", f"--end={end}",
                 f"--step={step}", f"--out={out_path}"]
    else:
        check = draw(_mostly(st.sampled_from(["all", "einstein", "identity"]),
                             st.text(max_size=4)))
        argv.append(f"--check={check}")
    if draw(st.booleans()):
        argv.insert(0, "--timing")

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as refused:
            # argparse refuses the argument list with exit code 2
            code = refused.code
    assert time.perf_counter() - start < 20, argv
    assert code in (0, 1, 2), err.getvalue()
    assert not any(line.startswith(("internal error:", "internal inconsistency:"))
                   for line in err.getvalue().splitlines()), err.getvalue()
    failed = any(line.startswith("FAIL ") for line in out.getvalue().splitlines())
    assert (code == 1) == failed, out.getvalue()


def test_congruence_span_takes_rational_literals(tmp_path):
    """--end and --step are rational literals like every numeric flag; each
    is used as the float nearest to it."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MIXED))
    outputs = []
    for end, step in (("1/3", "1/30"), (repr(1 / 3), repr(1 / 30))):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["congruence", str(path), "--v0=1,2,3,4", f"--end={end}",
                         f"--step={step}", "--out=-"])
        assert code == 0, err.getvalue()
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]


def test_congruence_refuses_a_span_whose_half_step_rounds_to_zero(spec, capsys):
    """The half step of a one-step span at the smallest subnormal is 0.0,
    so the grid would repeat a parameter; it is refused before sampling."""
    argv = ["congruence", spec(MIXED), "--v0=0,1,0,0", "--out=-"]
    code, out, err = run(capsys, *argv, "--end=5e-324", "--step=5e-324")
    assert (code, out, err) == (2, "", "error: trace grid must be strictly increasing\n")
    code, out, err = run(capsys, *argv, "--end=1e-320", "--step=1e-321")
    assert code == 0, err
    assert len(out.splitlines()) == 13  # the header, 11 states, the oracle error


def run_module(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m walkerspin`` in a child process, with stderr as text."""
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(walkerspin.__file__))
    pythonpath = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return subprocess.run(
        [sys.executable, "-m", "walkerspin", *argv],
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
        **kwargs,
    )


def test_module_entry_point(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(CUBIC))
    proc = run_module("classify", str(path), stdout=subprocess.PIPE)
    assert proc.returncode == 0
    assert "SD-flat" in proc.stdout


UNWRITABLE_ARGV = {
    "analyze": ["analyze"],
    "congruence": ["congruence", "--v0", "0,0,1,0", "--end", "1", "--step", "1e-2",
                   "--out", "-"],
}


def assert_stdout_refused(proc: subprocess.CompletedProcess) -> None:
    """Exit 2 with one stderr line: no traceback, and nothing printed when
    the interpreter flushes stdout on exit."""
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: "), proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", UNWRITABLE_ARGV)
def test_full_stdout_refused(spec, command):
    argv = UNWRITABLE_ARGV[command]
    with open("/dev/full", "w") as full:
        proc = run_module(argv[0], spec(MIXED), *argv[1:], stdout=full)
    assert_stdout_refused(proc)
    assert "No space left" in proc.stderr


@pytest.mark.parametrize("command", UNWRITABLE_ARGV)
def test_closed_pipe_refused(spec, command):
    argv = UNWRITABLE_ARGV[command]
    read_end, write_end = os.pipe()
    # closed before the child starts, so its first write meets no reader
    os.close(read_end)
    try:
        proc = run_module(argv[0], spec(MIXED), *argv[1:], stdout=write_end)
    finally:
        os.close(write_end)
    assert_stdout_refused(proc)
    assert "Broken pipe" in proc.stderr
