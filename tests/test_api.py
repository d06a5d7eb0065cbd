"""The names the package exports and the hooks the traced benchmark uses.

``perfbench/spans.py`` wraps the functions it lists in ``SPANS`` and
``cli._suite_items``; a rename there fails only the traced benchmark run,
so these tests pin the targets.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import walkerspin
from walkerspin import cli
from walkerspin.curvature import walker_curvature_components
from walkerspin.poly import Poly
from walkerspin.spincoeff import Frame
from walkerspin.walker import WalkerMetric

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
    w = WalkerMetric(a=Poly.parse("u*v"), b=Poly.parse("x^3"), c=Poly.parse("u*y"))
    frame = Frame.walker(w)
    curv = walker_curvature_components(w, frame)
    for name in cli.SUITES:
        items = cli._suite_items(name, frame, curv)
        assert items
        for key, thunk in items:
            assert isinstance(key, str) and callable(thunk)


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
