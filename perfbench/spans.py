"""Traced run: span wrappers around each layer's public functions.

The wrappers live here, not in the package.  ``install`` replaces every
binding of each wrapped function inside the ``walkerspin`` modules (the
defining module and every module that imported the name), and
``uninstall`` puts the originals back.  Spans are kept in memory as
(name, start, end, CPU seconds, parent, span id, call id, thread) and
written to a JSON file when the run ends.

A span's self time is its thread's CPU time minus that of its children on
the same thread.  Verify suites run on a thread pool under the
interpreter lock, so a suite's wall time also holds waits for the lock;
those are reported apart, as ``cli.verify.gil_wait_s``.

Counts are taken at the ``Poly`` boundary: ``__mul__`` calls and term
pairs (|p|*|q|, with |q| = 1 for a scalar), ``eval_at`` calls, and, on the
values each span returns, the largest denominator term count of a
``RationalFunction`` and the largest coefficient bit length.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import threading
import time
from fractions import Fraction

from walkerspin.poly import Poly, RationalFunction

# module -> wrapped functions; a dotted name is a classmethod.
SPANS = {
    "walker": ("WalkerMetric.from_dict", "assemble_metric", "christoffel",
               "walker_tetrad", "tetrad_transform"),
    "spincoeff": ("Frame.walker", "walker_closed_form",
                  "spin_coefficients_from_tetrad", "transform_coefficients"),
    "curvature": ("walker_curvature_components", "field_equation_residuals",
                  "commutator_residuals", "ricci_tensor",
                  "bianchi_contracted_residual", "classify_sd_weyl"),
    "nullgeom": ("distribution_report", "relation_suite"),
    "congruence": ("CoefficientTrace.from_metric", "integrate_connecting",
                   "connecting_oracle", "write_trace_csv"),
    "heavenly": ("HeavenlyPotential.from_dict", "validate_potential", "build_metric",
                 "master_identity_residual", "einstein_check"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)
COUNTS = ("poly.mul.calls", "poly.mul.term_pairs", "poly.eval_at.calls")
MEASURE = "_measure"      # scanning a returned value; excluded from self time
THUNK = "cli.verify.thunk"


class Tracer:
    """Spans and Poly counts of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.call = 0
        self.ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[list] = []
        self.den_terms_max = 0
        self.coeff_bits_max = 0
        self.counting = False
        self._scanned: dict[int, object] = {}

    def begin_call(self) -> None:
        self.call += 1
        self._scanned.clear()
        self.counting = True

    def end_call(self) -> None:
        """Outcome checks follow; their Poly operations are not counted."""
        self.counting = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tally(self) -> list:
        """This thread's [mul calls, term pairs, eval_at calls]."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = [0, 0, 0]
            with self._lock:
                self._tallies.append(counts)
        return counts

    def totals(self) -> list:
        return [sum(t[i] for t in self._tallies) for i in range(3)]

    def _run(self, name, parent, fn, *args, **kwargs):
        """Call fn inside a span and return its result."""
        stack = self._stack()
        sid = next(self.ids)
        stack.append(sid)
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end, cpu = time.perf_counter(), time.thread_time() - cpu
            stack.pop()
            self.spans.append((name, start, end, cpu, parent, sid, self.call,
                               threading.get_ident()))

    def _parent(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._parent()
            result = self._run(name, parent, fn, *args, **kwargs)
            self._run(MEASURE, parent, self._scan, result)
            return result

        return traced

    def thunk(self, fn, parent):
        """A verify suite thunk, run on a pool thread under ``parent``."""
        return lambda: self._run(THUNK, parent, fn)

    def _scan(self, value) -> None:
        todo = [value]
        while todo:
            obj = todo.pop()
            if isinstance(obj, (int, float, str, bool, type(None))):
                continue
            if id(obj) in self._scanned:
                continue
            self._scanned[id(obj)] = obj
            if isinstance(obj, Fraction):
                self._bits(obj)
            elif isinstance(obj, Poly):
                for c in obj.terms.values():
                    self._bits(c)
            elif isinstance(obj, RationalFunction):
                self.den_terms_max = max(self.den_terms_max, len(obj.den.terms))
                todo += (obj.num, obj.den)
            elif isinstance(obj, (tuple, list, set, frozenset)):
                todo.extend(obj)
            elif isinstance(obj, dict):
                todo.extend(obj.values())
            elif dataclasses.is_dataclass(obj):
                todo.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))

    def _bits(self, c: Fraction) -> None:
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > self.coeff_bits_max:
            self.coeff_bits_max = bits


def install(tracer: Tracer) -> list:
    """Wrap every span target and the Poly counters; returns the undo list."""
    modules = [m for name, m in sys.modules.items()
               if name == "walkerspin" or name.startswith("walkerspin.")]
    undo = []

    def put(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, value)

    for mod, fns in SPANS.items():
        module = sys.modules[f"walkerspin.{mod}"]
        for fn in fns:
            name = f"{mod}.{fn}"
            if "." in fn:
                cls_name, attr = fn.split(".")
                cls = getattr(module, cls_name)
                put(cls, attr, classmethod(tracer.wrap(name, cls.__dict__[attr].__func__)))
                continue
            original = getattr(module, fn)
            wrapped = tracer.wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        put(m, attr, wrapped)

    cli = sys.modules["walkerspin.cli"]
    suite_items = cli._suite_items

    def traced_suite_items(name, frame, curv):
        parent = tracer._parent()
        return [(key, tracer.thunk(fn, parent))
                for key, fn in suite_items(name, frame, curv)]

    put(cli, "_suite_items", traced_suite_items)

    mul, eval_at = Poly.__mul__, Poly.eval_at

    def counted_mul(self, other):
        if not tracer.counting:
            return mul(self, other)
        counts = tracer.tally()
        counts[0] += 1
        counts[1] += len(self.terms) * (len(other.terms) if isinstance(other, Poly) else 1)
        return mul(self, other)

    def counted_eval_at(self, point):
        if tracer.counting:
            tracer.tally()[2] += 1
        return eval_at(self, point)

    put(Poly, "__mul__", counted_mul)
    put(Poly, "__rmul__", counted_mul)
    put(Poly, "eval_at", counted_eval_at)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def self_times(spans) -> dict[str, list]:
    """span name -> [calls, self seconds].

    Self time is CPU time of the span's own thread minus that of its
    children on the same thread.  It leaves out time spent waiting for the
    interpreter lock while a pool thread runs; THUNK spans measure that.
    """
    child_cpu: dict[int, float] = {}
    thread_of = {span[5]: span[7] for span in spans}
    for name, start, end, cpu, parent, sid, call, thread in spans:
        if parent is not None and thread_of.get(parent) == thread:
            child_cpu[parent] = child_cpu.get(parent, 0.0) + cpu
    out = {name: [0, 0.0] for name in SPAN_NAMES}
    for name, start, end, cpu, parent, sid, call, thread in spans:
        if name in out:
            out[name][0] += 1
            out[name][1] += cpu - child_cpu.get(sid, 0.0)
    return out


def gil_wait(spans) -> float:
    """Wall minus CPU time, summed over verify thunks."""
    return sum(end - start - cpu for name, start, end, cpu, *_ in spans if name == THUNK)


def traced_run(runner, items, rng, run_pass, span_path):
    """One untraced pass, then one traced pass of the same items.

    Returns the per-layer metrics and lines of notes for stdout.
    """
    untraced = run_pass(runner, items, rng)
    tracer = Tracer()
    undo = install(tracer)
    runner.tracer = tracer
    try:
        traced = run_pass(runner, items, rng)
    finally:
        runner.tracer = None
        uninstall(undo)

    span_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "cpu", "parent", "id", "call", "thread"],
         "spans": tracer.spans}))
    metrics = {}
    for name, (calls, self_s) in self_times(tracer.spans).items():
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name, value in zip(COUNTS, tracer.totals()):
        metrics[name] = {"value": value, "unit": "count"}
    metrics["poly.rf_den_terms_max"] = {"value": tracer.den_terms_max, "unit": "count"}
    metrics["poly.coeff_bits_max"] = {"value": tracer.coeff_bits_max, "unit": "bits"}
    metrics["cli.verify.gil_wait_s"] = {"value": gil_wait(tracer.spans), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    notes = [f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s, "
             f"{len(tracer.spans)} spans written to {span_path}"]
    notes += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, notes
