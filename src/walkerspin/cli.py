"""Command-line front end.

Subcommands: analyze, verify, congruence, heavenly, classify.  Input
files are JSON with polynomial expression strings; reports are plain
text, assembled in a fixed order so identical inputs give identical
bytes.  Timing goes to stderr and only when asked for.

Exit codes: 0 success, 1 a verified quantity is nonzero, 2 bad input or an
unwritable stdout, 3 two internal routes disagree or another internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import operator
import os
import sys
import time
from fractions import Fraction
from itertools import product

from .congruence import _closures, connecting_oracle, integrate_connecting, write_trace_csv
from .curvature import (
    Analysis,
    WeylTypeReport,
    _field_sums,
    bianchi_contracted_residual,
    classify_sd_weyl,
    commutator_vector_fields,
    field_equation_residuals,
)
from .errors import InputError, InternalInconsistencyError
from .heavenly import HeavenlyPotential, einstein_check, master_identity_residual
from .nullgeom import distribution_report, relation_suite
from .poly import (
    MAX_EXPONENT,
    ZERO,
    Poly,
    _bounded_int,
    _digit_bound,
    _float,
    _refused_digits,
)
from .spincoeff import COEFF_NAMES, Frame, _check
from .walker import COORDS, WalkerMetric

SUITES = ("3.4", "3.1", "bianchi", "relations")
RELATION_FAMILIES = ("canonical", "surface-orthogonal", "distribution-parallel")

def _json_object(pairs) -> dict:
    """A JSON object with distinct keys and printable (UTF-8) strings."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"duplicate key {key!r} in JSON object")
        try:
            (key + value if isinstance(value, str) else key).encode("utf-8")
        except UnicodeEncodeError:
            raise InputError(f"key {key!r} holds a lone surrogate") from None
        out[key] = value
    return out


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_json_object)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise InputError(f"{path} is not valid UTF-8: {err}") from err
    except RecursionError as err:
        raise InputError(f"{path} is nested too deeply") from err
    except InputError:  # from _json_object, and also a ValueError
        raise
    except ValueError as err:
        # malformed JSON, or an integer literal past the digit limit
        raise InputError(f"{path} is not valid JSON: {err}") from err


def _load_metric(path: str) -> WalkerMetric:
    return WalkerMetric.from_dict(_load_json(path))


def _parse_value(text: str, flag: str) -> Fraction:
    """One rational literal, with at most ``MAX_EXPONENT`` digits and a
    decimal exponent of at most ``MAX_EXPONENT`` in magnitude; both are
    checked before the value is formed."""
    mantissa, _, exponent = text.lower().partition("e")
    if sum(ch.isdecimal() for ch in mantissa) > MAX_EXPONENT:
        raise InputError(f"bad value in {flag}: more than {MAX_EXPONENT} digits")
    # Fraction() reads an exponent of decimal digits, signed, with
    # underscores between them and whitespace after them
    magnitude = exponent.lstrip("+-").replace("_", "").rstrip()
    if magnitude.isdecimal() and _bounded_int(magnitude, MAX_EXPONENT) is None:
        raise InputError(f"bad value in {flag}: exponent exceeds {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ValueError as err:
        raise InputError(f"bad value in {flag}: {err}") from err
    except ZeroDivisionError as err:
        raise InputError(f"bad value in {flag}: {text.strip()} has a zero denominator") from err


def _parse_tuple(text: str, flag: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(f"{flag} needs four comma-separated values")
    return tuple(_parse_value(p.strip(), flag) for p in parts)


def _bound_digits(values, point, flag: str) -> None:
    """Refuse ``point`` before any of ``values`` is evaluated there where a
    bound on the digits of one passes the rule of ``_refused_digits``."""
    limit = _refused_digits(max(_digit_bound(v, point) for v in values))
    if limit:
        raise InputError(f"a value at {flag} has more than {limit} digits")


def _classify_at(an: Analysis, point) -> WeylTypeReport:
    """The classification at --point, after ``_bound_digits``."""
    curv = an.curvature
    _bound_digits((curv.S, curv.PsiT3, curv.PsiT4, an.w.c), point, "--point")
    return classify_sd_weyl(an, point)


@contextlib.contextmanager
def _writing_stdout():
    """sys.stdout, flushed on leaving.  An OSError from a write or the flush
    is refused as InputError, once fd 1 (if stdout has one) points at
    os.devnull, so the flush at interpreter exit cannot fail again."""
    try:
        yield sys.stdout
        sys.stdout.flush()
    except OSError as err:
        with contextlib.suppress(AttributeError, ValueError, OSError):
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise InputError(f"cannot write stdout: {err}") from err


def _metric_header(w: WalkerMetric, out) -> None:
    title = f"metric {w.label}" if w.label else "metric"
    print(title, file=out)
    print(f"  a = {w.a}", file=out)
    print(f"  b = {w.b}", file=out)
    print(f"  c = {w.c}", file=out)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args, out) -> int:
    an = Analysis(_load_metric(args.spec))
    point = _parse_tuple(args.point, "--point")
    w, frame, curv = an.w, an.frame, an.curvature
    rep = _classify_at(an, point)
    dist = distribution_report(an)

    _metric_header(w, out)
    print("", file=out)
    print("spin coefficients", file=out)
    for name in COEFF_NAMES:
        print(f"  {name} = {frame.coeffs.get(name)}", file=out)
    print("", file=out)
    print("curvature components", file=out)
    for k in range(5):
        print(f"  Psi{k} = {curv.psi(k)}", file=out)
    for k in range(5):
        print(f"  PsiT{k} = {curv.psi_t(k)}", file=out)
    for i in range(3):
        for j in range(3):
            print(f"  Phi{i}{j} = {curv.Phi[i][j]}", file=out)
    print(f"  Lambda = {curv.Lambda}", file=out)
    print(f"  Pi = {curv.Pi}", file=out)
    print(f"  S = {curv.S}", file=out)

    print("", file=out)
    print(f"type at ({', '.join(map(str, rep.point))})", file=out)
    print(f"  label = {rep.label}", file=out)
    for key, value in (("S", rep.scalar), ("A", rep.invariant_a), ("B", rep.invariant_b)):
        print(f"  {key} = {value}", file=out)

    flags = (
        ("surface-forming", dist.alpha_integrable),
        ("recurrent", dist.walker),
        ("auto-parallel", dist.auto_parallel),
        ("parallel", dist.parallel),
        ("screen-integrable", dist.type_iii_integrable),
        ("ricci-null", dist.ricci_null),
        ("ricci-aligned", dist.ricci_aligned),
    )
    print("", file=out)
    print("distribution", file=out)
    for name, value in flags:
        print(f"  {name}: {'yes' if value else 'no'}", file=out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@functools.cache
def _commutator_probes():
    """Report labels and gradients (d/du, d/dv, d/dx, d/dy) of the 35
    monomials of degree at most 3, the test functions of suite 3.1, by
    degree and then exponents; built once per process, as the parser is."""
    exponents = sorted((e for e in product(range(4), repeat=4) if sum(e) <= 3),
                       key=lambda e: (sum(e), e))
    monomials = [Poly({e: 1}) for e in exponents]
    return (tuple(map(str, monomials)),
            tuple(tuple(mono.diff(name) for name in COORDS) for mono in monomials))


def _suite_items(name: str, frame: Frame, an: Analysis):
    """Ordered (key, thunk) pairs; each thunk returns a zero-testable value.
    ``frame`` is the frame under test; the curvature and the tensor route
    are ``an``'s, of the unperturbed frame."""
    if name == "3.4":
        return [("3.4", lambda: field_equation_residuals(frame, an.curvature))]
    if name == "3.1":
        def run_commutators():
            labels, grads = _commutator_probes()
            sums = _field_sums(commutator_vector_fields(frame), grads)
            return {
                f"{key} @ {label}": value
                for label, residuals in zip(labels, sums)
                for key, value in residuals.items()
            }

        return [("3.1", run_commutators)]
    if name == "bianchi":
        def run_bianchi():
            resid = bianchi_contracted_residual(an.frame.metric, an.ricci, an.scalar)
            return {f"component {i}": value for i, value in enumerate(resid)}

        return [("bianchi", run_bianchi)]
    if name == "relations":
        items = []
        for family in RELATION_FAMILIES:
            def run(fam=family):
                return {
                    f"{fam}: {key}": value
                    for key, value in relation_suite(frame.coeffs, fam).items()
                }

            items.append((f"relations/{family}", run))
        return items
    raise InputError(f"unknown suite {name!r}; available: all, {', '.join(SUITES)}")


def cmd_verify(args, out) -> int:
    an = Analysis(_load_metric(args.spec))
    # refused before the frame and curvature are built
    if args.perturb is not None and args.perturb not in COEFF_NAMES:
        raise InputError(
            f"unknown coefficient {args.perturb!r}; use one of {', '.join(COEFF_NAMES)}"
        )
    # the suites read the curvature and tensor route of the untouched
    # frame, so an injected error shows up as failed identities, not as an
    # engine fault
    w, frame = an.w, an.frame
    if args.perturb is not None:
        bumped = frame.coeffs.with_values(
            **{args.perturb: frame.coeffs.get(args.perturb) + 1}
        )
        frame = frame._replace(coeffs=bumped)
    # the transport closures tie the coefficients to the curvature; on the
    # untouched frame a nonzero entry is an engine fault, whatever the suite
    for name, closure in zip("MP", _closures(an)):
        for i, row in enumerate(closure):
            for j, value in enumerate(row):
                _check(f"Riccati closure {name}[{i}][{j}]", value, ZERO)

    suites = list(SUITES) if args.suite == "all" else [args.suite]
    results = [
        (suite, [run() for _, run in _suite_items(suite, frame, an)])
        for suite in suites
    ]

    _metric_header(w, out)
    if args.perturb is not None:
        print(f"perturbation: {args.perturb} + 1", file=out)
    failed_total = 0
    for suite, residual_maps in results:
        checked = 0
        failed = 0
        for residuals in residual_maps:
            for key, value in residuals.items():
                checked += 1
                if not value.is_zero:
                    failed += 1
                    print(f"FAIL {suite} {key} = {value}", file=out)
        verdict = "all zero" if failed == 0 else f"{failed} nonzero"
        print(f"suite {suite}: {checked} residuals, {verdict}", file=out)
        failed_total += failed
    print(f"verdict: {'pass' if failed_total == 0 else 'fail'}", file=out)
    return 0 if failed_total == 0 else 1


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------


def cmd_congruence(args, out) -> int:
    w = _load_metric(args.spec)
    v0 = tuple(_float(c, "--v0") for c in _parse_tuple(args.v0, "--v0"))
    end = _float(_parse_value(args.end, "--end"), "--end")
    step = _float(_parse_value(args.step, "--step"), "--step")
    base = _parse_tuple(args.base, "--base")
    _bound_digits((w.a, w.b, w.c), base, "--base")
    path = integrate_connecting(w, v0, v_end=end, step=step, base=base)

    exact = connecting_oracle(w, base, path.states[0], path.grid)
    # max is exact: it picks the largest error over every state and
    # component, whatever order they are visited in, so column by column
    worst = max(
        max(map(abs, map(operator.sub, got, want)))
        for got, want in zip(path.states.columns, exact.columns)
    )

    if args.out == "-":
        # streamed, not buffered: the CSV text is never held in memory,
        # and the trace only as the path's float columns
        with _writing_stdout() as stdout:
            write_trace_csv(path, stdout)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write_trace_csv(path, fh)
        except OSError as err:
            raise InputError(f"cannot write {args.out}: {err}") from err
        _metric_header(w, out)
        print(f"steps: {len(path.grid) - 1}", file=out)
        print(f"trace written to {args.out}", file=out)
    print(f"max oracle error = {worst!r}", file=out)
    return 0


# ---------------------------------------------------------------------------
# heavenly
# ---------------------------------------------------------------------------


def cmd_heavenly(args, out) -> int:
    p = HeavenlyPotential.from_dict(_load_json(args.potential))
    w = p.metric
    # every check runs before anything is printed
    residual = master_identity_residual(p) if args.check in ("identity", "all") else None
    rep = einstein_check(p) if args.check in ("einstein", "all") else None

    print("metric = " + json.dumps(w.to_dict(), sort_keys=True), file=out)
    failures = 0
    if args.check in ("all",):
        print("aligned Ricci conditions: pass", file=out)
    if residual is not None:
        failed = not residual.is_zero
        print(f"{'FAIL ' if failed else ''}master identity residual = {residual}", file=out)
        failures += failed
    if rep is not None:
        print(f"Einstein: {'true' if rep.einstein else 'false'}", file=out)
        if not rep.einstein:
            for key in ("R_uu", "R_uv", "R_vv"):
                value = rep.residuals[key]
                if not value.is_zero:
                    print(f"  witness {key} = {value}", file=out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def cmd_classify(args, out) -> int:
    w = _load_metric(args.spec)
    rep = _classify_at(Analysis(w), _parse_tuple(args.point, "--point"))
    _metric_header(w, out)
    print(f"point = ({', '.join(map(str, rep.point))})", file=out)
    print(f"label = {rep.label}", file=out)
    print(f"S = {rep.scalar}", file=out)
    print(f"A = {rep.invariant_a}", file=out)
    print(f"B = {rep.invariant_b}", file=out)
    print(f"PsiT3 = {rep.psi_t3}", file=out)
    print(f"PsiT4 = {rep.psi_t4}", file=out)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, reused by ``main``."""
    parser = argparse.ArgumentParser(
        prog="walkerspin",
        description="Exact spin-coefficient engine for Walker metrics in canonical form.",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="print elapsed wall time to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="coefficients, curvature, classification")
    p.add_argument("spec", help="metric JSON file with fields a, b, c")
    p.add_argument("--point", default="0,0,0,0", help="evaluation point u,v,x,y")

    p = sub.add_parser("verify", help="identity suites as polynomial residuals")
    p.add_argument("spec", help="metric JSON file")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("--perturb", metavar="NAME", default=None,
                   help="add 1 to the named coefficient before checking")

    p = sub.add_parser("congruence", help="propagate a connecting state, write CSV")
    p.add_argument("spec", help="metric JSON file")
    p.add_argument("--v0", required=True, help="initial state eta,zeta,zetatilde,nu")
    p.add_argument("--end", required=True, help="parameter span")
    p.add_argument("--step", required=True, help="step size")
    p.add_argument("--base", default="0,0,0,0", help="base point u,v,x,y")
    p.add_argument("--out", required=True, help="CSV path, or - for stdout")

    p = sub.add_parser("heavenly", help="build a metric from a potential and test it")
    p.add_argument("potential", help="potential JSON file: theta, f, g, F, G, h")
    p.add_argument("--check", default="all", choices=("einstein", "identity", "all"))

    p = sub.add_parser("classify", help="pointwise type of the second quartic family")
    p.add_argument("spec", help="metric JSON file")
    p.add_argument("--point", default="0,0,0,0", help="evaluation point u,v,x,y")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    # the report reaches stdout only once its command has returned, so a
    # refused or failed command prints nothing
    out = io.StringIO()
    try:
        # looked up by name on each call, as the parser is built only once
        code = globals()[f"cmd_{args.command}"](args, out)
        with _writing_stdout() as stdout:
            stdout.write(out.getvalue())
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        if isinstance(err, ValueError) and "integer string conversion" in str(err):
            # str() refuses integers past the interpreter's digit limit
            limit = sys.get_int_max_str_digits()
            print(f"error: a value in the report has more than {limit} digits", file=sys.stderr)
            return 2
        # an engine fault, not a failed identity: report where it was
        # raised on one line, never a traceback or exit 1; traceback is
        # imported only here, as it costs start-up time on every run
        import traceback

        where = traceback.extract_tb(err.__traceback__)[-1]
        print(
            f"internal error: {type(err).__name__}: {err} "
            f"(at {os.path.basename(where.filename)}:{where.lineno} in {where.name})",
            file=sys.stderr,
        )
        return 3
    if args.timing:
        print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
