"""End-to-end command-line runs: report content, exit codes, determinism."""

import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walkerspin
from walkerspin.cli import main
from walkerspin.spincoeff import COEFF_NAMES, Frame

FLAT = {"a": "0", "b": "0", "c": "0", "label": "flat"}
CUBIC = {"a": "0", "b": "u^3", "c": "0"}
MIXED = {"a": "u*v", "b": "x^3", "c": "u*y", "label": "mixed"}
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

    def test_unknown_coefficient(self, spec, capsys):
        code, _, err = run(capsys, "verify", spec(FLAT), "--perturb", "bogus")
        assert code == 2
        assert "unknown coefficient" in err

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

    @pytest.mark.parametrize("command", ["classify", "analyze"])
    def test_value_too_large_to_print(self, spec, capsys, command):
        path = spec({"a": "u^6*v", "b": "u^4*x^3", "c": "u*y"})
        code, out, err = run(capsys, command, path, "--point", "1e1000,1e1000,0,0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "digits" in err and len(err.splitlines()) == 1


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

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_suite_value(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", spec(FLAT), "--suite", "9.9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        ('{"a": "0", "b": "0", "c": "0", "label": ' + "9" * 5000 + "}", "digits"),
        ('{"a": "0", "b": "0", "c": "0", "label": "\\ud800"}', "lone surrogate"),
        ('{"a": "0", "b": "0", "c": "0", "a": "u"}', "duplicate key 'a'"),
    ], ids=["deep", "long-int", "surrogate", "duplicate"])
    def test_bad_json(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err and len(err.splitlines()) == 1


# Every layer a command may build, by module; "Frame.walker" is a classmethod.
LAYERS = {
    "walker": ("christoffel",),
    "curvature": ("walker_curvature_components",),
    "heavenly": ("build_metric", "validate_potential", "invariants"),
}


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
    for mod, names in LAYERS.items():
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
    (["verify", "metric"],
     {"Frame.walker": 1, "walker_curvature_components": 1, "christoffel": 1}),
    (["congruence", "metric", "--v0", "0,0,1,0", "--end", "0.2", "--step", "0.1",
      "--out", "-"], {"Frame.walker": 1}),
    (["heavenly", "potential", "--check", "all"],
     {"build_metric": 1, "validate_potential": 1, "invariants": 1,
      "Frame.walker": 1, "walker_curvature_components": 1}),
], ids=["analyze", "classify", "verify", "congruence", "heavenly"])
def test_each_layer_built_once(spec, capsys, layer_counts, argv, built):
    paths = {"metric": spec(MIXED), "potential": spec(UVX_POT, "potential.json")}
    code, _, _ = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 0
    names = ["Frame.walker"] + [name for names in LAYERS.values() for name in names]
    assert {name: layer_counts[name] for name in names} == {
        name: built.get(name, 0) for name in names
    }


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
def test_metric_input_is_accepted_or_refused(tmp_path_factory, document, point):
    """Any metric file and --point is a report (exit 0) or one error line
    (exit 2): never an internal error."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(document)
    for command in ("classify", "analyze"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), f"--point={point}"])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:")
            assert len(err.getvalue().splitlines()) == 1


def test_module_entry_point(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(CUBIC))
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(walkerspin.__file__))
    pythonpath = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-m", "walkerspin", "classify", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
    )
    assert proc.returncode == 0
    assert "SD-flat" in proc.stdout
