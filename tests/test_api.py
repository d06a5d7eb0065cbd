"""The names the package exports and the hooks the traced benchmark uses.

``perfbench/spans.py`` wraps the functions it lists in ``SPANS`` and
``cli._suite_items``; a rename there fails only the traced benchmark run,
so these tests pin the targets.
"""

import ast
import builtins
import importlib
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walkerspin
from walkerspin import cli
from walkerspin.curvature import Analysis
from walkerspin.errors import EngineError, InputError
from walkerspin.poly import ONE, ZERO, Poly, RationalFunction
from walkerspin.spincoeff import (
    DN,
    DN_P,
    UP,
    UP_P,
    DyadSpinorField,
    contract,
    lower_index,
    raise_index,
)
from walkerspin.walker import WalkerMetric, scale_normalization, tetrad_transform

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_names_resolve():
    missing = [name for name in walkerspin.__all__ if not hasattr(walkerspin, name)]
    assert not missing
    assert len(set(walkerspin.__all__)) == len(walkerspin.__all__)


def test_all_lists_every_public_name():
    bound = {
        name for name, value in vars(walkerspin).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(walkerspin.__all__) == bound


@pytest.mark.skipif(not SPANS_PATH.exists(), reason="benchmark harness not present")
def test_span_targets_exist():
    spans = load_spans()
    checked = 0
    for mod, fns in spans.SPANS.items():
        module = importlib.import_module(f"walkerspin.{mod}")
        for fn in fns:
            if "." in fn:
                cls_name, attr = fn.split(".")
                owner = getattr(module, cls_name)
                assert isinstance(inspect.getattr_static(owner, attr), classmethod), fn
            else:
                assert inspect.isfunction(getattr(module, fn)), f"{mod}.{fn}"
            checked += 1
    assert checked == len(spans.SPAN_NAMES)


def test_suite_items_contract():
    # the harness passes the three arguments through: the frame under test
    # and the analysis whose curvature and tensor route the suites read
    an = Analysis(WalkerMetric(a=Poly.parse("u*v"), b=Poly.parse("x^3"), c=Poly.parse("u*y")))
    for name in cli.SUITES:
        items = cli._suite_items(name, an.frame, an)
        assert items
        for key, thunk in items:
            assert isinstance(key, str) and callable(thunk)
            residuals = thunk()
            assert residuals and all(isinstance(k, str) for k in residuals), (name, key)
            assert all(value.is_zero for value in residuals.values()), (name, key)


# The records are named tuples and plain classes: ``dataclasses`` and the
# ``inspect`` it imports cost every cold call tens of milliseconds.
def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "walkerspin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


def test_cold_import_loads_no_dataclasses_or_inspect():
    code = (
        "import sys; before = set(sys.modules); import walkerspin.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-B", "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []


# One owner for the input rules: a copy elsewhere could drift from poly.py's.
def test_input_rules_have_one_owner():
    rules = {"_fraction", "_sequence", "_point"}
    for path in sorted((SRC / "walkerspin").glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in rules, (path.name, node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                assert all(a.name.split(".")[-1] != "Sequence" for a in node.names), path.name


def _unused_imports(path):
    """The names a module imports and never reads.  A string annotation is
    read as the expression it holds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return imported - read


def _loaded_names(path):
    """The names the module at path reads, as a variable or an attribute,
    outside the definition of a function or class of that name."""
    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return read


# parse_poly is Poly.parse under a shorter name, kept for the tests that call it
_UNREAD_EXPORTS = {"parse_poly"}


# An exported name has a reader: another part of the engine, a release
# criterion or the benchmark.  Tests of the name alone do not count.
def test_every_public_name_has_a_reader():
    readers = [path for path in sorted((SRC / "walkerspin").glob("*.py"))
               if path.name != "__init__.py"]
    readers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    read = set().union(*map(_loaded_names, readers))
    assert sorted(set(walkerspin.__all__) - read) == sorted(_UNREAD_EXPORTS)


# A deleted routine or a migrated test can leave its imports behind; only
# the package's __init__.py imports names to re-export them.
def test_no_module_imports_an_unused_name():
    paths = [path for path in sorted((SRC / "walkerspin").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = {f"{path.parent.name}/{path.name}": sorted(_unused_imports(path)) for path in paths}
    assert {name: names for name, names in unused.items() if names} == {}


# One refusal type: a builtin exception raised in the engine is one of
# these, kept on purpose (a zero divisor is an engine fault; the hash and
# mapping protocols ask for the other two).  Every other refusal is an
# EngineError subclass.
_BUILTIN_RAISES = {
    ("poly.py", "_quotient", "ZeroDivisionError"),
    ("poly.py", "RationalFunction.__truediv__", "ZeroDivisionError"),
    ("poly.py", "RationalFunction.__hash__", "TypeError"),
    ("spincoeff.py", "SpinCoefficientSet.get", "KeyError"),
}


def _builtin_raises(path):
    """(file, qualified function name, class) of each raise of a builtin
    exception class in the module at path."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if isinstance(cls, type) and issubclass(cls, BaseException):
                found.add((path.name, ".".join(scope), exc.id))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_the_kept_builtin_raises_remain():
    found = set().union(*map(_builtin_raises, sorted((SRC / "walkerspin").glob("*.py"))))
    assert found == _BUILTIN_RAISES


def test_every_input_error_is_a_value_error():
    assert issubclass(InputError, ValueError)
    # so no other class needs ValueError as a second base
    assert {
        (path.name, node.name)
        for path in sorted((SRC / "walkerspin").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "ValueError" for b in node.bases)
    } == {("errors.py", "InputError")}
    # a rational argument is divided, not refused
    r = RationalFunction(1, 1 + Poly.variable("u"))
    assert RationalFunction(r, 1) == r
    assert RationalFunction(1, r) == 1 + Poly.variable("u")


# The library's input contract: an argument that carries user data is read
# or refused with an EngineError.  Each entry point below has a valid call,
# and each of its data arguments a kind.  A kind names the hostile values
# it may still accept (a huge int is a number, "1234" is text, None is the
# origin as a base, three parameters make a grid) and, for a container,
# the kind of its items.
_HOSTILE = {
    "none": None,
    "text": "1234",
    "inf": math.inf,
    "nan": math.nan,
    "huge": 10**400,
    "negative": -1,
    "short": (0.0, 0.5, 1.0),
    "nested": ((0, 1), (2, 3)),
}
_ACCEPTS = {
    "number": {"huge", "negative"}, "text": {"text"}, "base": {"none"}, "grid": {"short"},
    "terms": {"none"},
}
_ITEMS = {
    "point": "number", "base": "number", "grid": "number", "sequence": "number",
    "spec": "text",
    "terms": "number",
}


def _entry_points():
    w = WalkerMetric(a=Poly.parse("u*v"), b=Poly.parse("x^3"), c=Poly.parse("u*y"))
    an = walkerspin.Analysis(w)
    tetrad = walkerspin.walker_tetrad(w)
    p = Poly.parse("u^2*v - x*y + 1/2")
    rf = walkerspin.RationalFunction(p, Poly.parse("1 + u^2"))
    # its denominator vanishes at the point below, and on u = v
    pole = walkerspin.RationalFunction(p, Poly.parse("u - v"))
    point = ("point", (1, Fraction(1, 2), -1, 2))
    base = ("base", (0, 0, 1, Fraction(1, 3)))
    state = ("sequence", (0.0, 1.0, 0.0, 0.5))
    grid = ("grid", (0.0, 0.25, 0.5, 0.75, 1.0))
    span = (("number", 1.0), ("number", 0.5))
    # a keyword is text: each hostile name is given as its str()
    with_values = an.frame.coeffs.with_values
    u, v, x, y = map(Poly.variable, "uvxy")
    lower = DyadSpinorField((DN, DN_P), {(0, 0): u, (0, 1): v, (1, 0): x, (1, 1): y})
    upper = DyadSpinorField((UP, UP_P), lower.comps)
    mixed = DyadSpinorField((UP_P, DN_P), {(0, 0): u, (1, 1): y})
    return {
        "Poly.eval_at": (p.eval_at, [point]),
        "Poly.along_u": (p.along_u, [point]),
        "RationalFunction.eval_at": (rf.eval_at, [point]),
        "RationalFunction.eval_at pole": (pole.eval_at, [("point", (1, 1, Fraction(1, 2), -1))]),
        "Poly": (Poly, [("terms", {(1, 0, 2, 0): -3, (0, 0, 0, 0): Fraction(1, 2)})]),
        "Poly.variable": (Poly.variable, [("name", "u")]),
        "Poly.diff": (p.diff, [("name", "x")]),
        "RationalFunction.diff": (rf.diff, [("name", "u")]),
        "Poly **": (lambda e: p**e, [("exponent", 3)]),
        "RationalFunction **": (lambda e: rf**e, [("exponent", 2)]),
        "RationalFunction": (RationalFunction, [("number", rf), ("number", pole)]),
        "SpinCoefficientSet.with_values": (
            lambda name, value: with_values(**{str(name): value}),
            [("name", "rho_t"), ("number", Fraction(1, 2))]),
        "raise_index": (lambda pos: raise_index(lower, pos), [("position", 1)]),
        "lower_index": (lambda pos: lower_index(upper, pos), [("position", 1)]),
        "contract": (lambda *pos: contract(mixed, *pos), [("position", 0), ("position", 1)]),
        "parse_poly": (walkerspin.parse_poly, [("text", "u*v - 1/2")]),
        "integrate_connecting": (
            lambda V0, v_end, step, base: walkerspin.integrate_connecting(
                w, V0, v_end=v_end, step=step, base=base),
            [state, *span, base]),
        "integrate_jacobi": (
            lambda *args: walkerspin.integrate_jacobi(w, *args), [state, state, *span, base]),
        "connecting_oracle": (
            lambda *args: walkerspin.connecting_oracle(w, *args), [base, state, grid]),
        "CoefficientTrace.from_metric": (
            lambda *args: walkerspin.CoefficientTrace.from_metric(w, *args), [base, grid]),
        "classify_sd_weyl": (lambda pt: walkerspin.classify_sd_weyl(an, pt), [point]),
        "frobenius_residual": (walkerspin.frobenius_residual, [
            ("sequence", (p, ONE, ZERO, Poly.parse("x")))]),
        "tetrad_transform": (lambda *args: tetrad_transform(tetrad, *args), [
            ("number", Poly.parse("1 + x")), ("number", 2), ("number", Poly.parse("y")),
            ("number", 0)]),
        "scale_normalization": (lambda *args: scale_normalization(tetrad, *args), [
            ("number", Poly.parse("1 + x")), ("number", 3)]),
        "transform_coefficients": (
            lambda *args: walkerspin.transform_coefficients(an.frame, *args), [
                ("number", 2), ("number", Fraction(1, 2)), ("number", Poly.parse("x")),
                ("number", 1)]),
        "primed_spinor": (walkerspin.primed_spinor, [
            ("number", Poly.parse("u")), ("number", 1)]),
        "multiple_spinor_differential_test": (
            lambda q: walkerspin.multiple_spinor_differential_test(
                walkerspin.primed_spinor(1, 0), q, an.curvature, an.frame),
            [("multiplicity", 2)]),
        "WalkerMetric.from_dict": (WalkerMetric.from_dict, [
            ("spec", {"a": "u*v", "b": "x^3", "c": "u*y", "label": "m"})]),
        "HeavenlyPotential.from_dict": (walkerspin.HeavenlyPotential.from_dict, [
            ("spec", {"theta": "u*x", "f": "x", "g": "0", "F": "0", "G": "0", "h": "y"})]),
    }


_ENTRY_POINTS = _entry_points()


def _hostile(name, valid):
    """The hostile value called name; a set holds a valid sequence's own
    items, unordered."""
    if name == "set":
        return set(valid) if isinstance(valid, (tuple, dict)) else {0.0, 0.5, 1.0, 1.5}
    return _HOSTILE[name]


@settings(max_examples=400, deadline=None)
@given(entry=st.sampled_from(sorted(_ENTRY_POINTS)), slot=st.integers(0, 4),
       hostile=st.sampled_from(sorted(_HOSTILE) + ["set"]), nested=st.booleans(),
       item=st.integers(0, 7))
@example(entry="Poly.eval_at", slot=0, hostile="set", nested=False, item=0)
@example(entry="Poly.eval_at", slot=0, hostile="text", nested=False, item=0)
@example(entry="integrate_connecting", slot=0, hostile="text", nested=False, item=0)
@example(entry="integrate_connecting", slot=0, hostile="set", nested=False, item=0)
@example(entry="CoefficientTrace.from_metric", slot=1, hostile="text", nested=False, item=0)
@example(entry="connecting_oracle", slot=2, hostile="text", nested=False, item=0)
@example(entry="frobenius_residual", slot=0, hostile="none", nested=False, item=0)
@example(entry="RationalFunction.eval_at pole", slot=0, hostile="huge", nested=True, item=3)
@example(entry="Poly", slot=0, hostile="huge", nested=False, item=0)
@example(entry="Poly", slot=0, hostile="short", nested=False, item=0)
@example(entry="Poly.variable", slot=0, hostile="text", nested=False, item=0)
@example(entry="Poly.diff", slot=0, hostile="huge", nested=False, item=0)
@example(entry="Poly.diff", slot=0, hostile="set", nested=False, item=0)
@example(entry="RationalFunction.diff", slot=0, hostile="text", nested=False, item=0)
@example(entry="Poly **", slot=0, hostile="negative", nested=False, item=0)
@example(entry="Poly **", slot=0, hostile="inf", nested=False, item=0)
@example(entry="RationalFunction **", slot=0, hostile="negative", nested=False, item=0)
@example(entry="RationalFunction", slot=1, hostile="huge", nested=False, item=0)
@example(entry="SpinCoefficientSet.with_values", slot=0, hostile="text", nested=False, item=0)
@example(entry="raise_index", slot=0, hostile="negative", nested=False, item=0)
@example(entry="raise_index", slot=0, hostile="huge", nested=False, item=0)
@example(entry="lower_index", slot=0, hostile="negative", nested=False, item=0)
@example(entry="contract", slot=1, hostile="negative", nested=False, item=0)
@example(entry="multiple_spinor_differential_test", slot=0, hostile="inf", nested=False, item=0)
def test_every_entry_point_reads_or_refuses_user_data(entry, slot, hostile, nested, item):
    """One data argument of a valid call, or one item of it, replaced by a
    hostile value: the call returns, or raises an EngineError.  Where the
    argument's kind cannot hold that value, it must raise."""
    fn, args = _ENTRY_POINTS[entry]
    args = list(args)
    slot %= len(args)
    kind, value = args[slot]
    if nested and kind in _ITEMS:
        items = dict(value) if isinstance(value, dict) else list(value)
        keys = sorted(items) if isinstance(items, dict) else range(len(items))
        key = keys[item % len(keys)]
        items[key] = _hostile(hostile, items[key])
        kind, value = _ITEMS[kind], type(value)(items)
    else:
        value = _hostile(hostile, value)
    args[slot] = (kind, value)
    try:
        fn(*(v for _, v in args))
    except EngineError:
        return
    assert hostile in _ACCEPTS.get(kind, ()), f"{entry} read {value!r} as a {kind}"
