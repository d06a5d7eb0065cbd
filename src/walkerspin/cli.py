"""Command-line front end.

Subcommands: analyze, verify, congruence, heavenly, classify.  Input
files are JSON with polynomial expression strings; reports are plain
text, assembled in a fixed order so identical inputs give identical
bytes.  Timing goes to stderr and only when asked for.

Exit codes: 0 success, 1 a verified quantity is nonzero, 2 bad input,
3 two internal routes disagree or another internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction

from .congruence import connecting_oracle, integrate_connecting, write_trace_csv
from .curvature import (
    Analysis,
    bianchi_contracted_residual,
    classify_sd_weyl,
    commutator_residuals_from_fields,
    commutator_vector_fields,
    field_equation_residuals,
    ricci_tensor,
    scalar_curvature,
)
from .errors import InputError, InternalInconsistencyError
from .heavenly import HeavenlyPotential, einstein_check, master_identity_residual
from .nullgeom import distribution_report, relation_suite
from .poly import MAX_EXPONENT, Poly
from .spincoeff import COEFF_NAMES, Frame
from .walker import WalkerMetric, christoffel

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
    if sum(ch.isdigit() for ch in mantissa) > MAX_EXPONENT:
        raise InputError(f"bad value in {flag}: more than {MAX_EXPONENT} digits")
    magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0")
    # digit count first: int() refuses literals over 4300 digits
    if len(magnitude) > len(str(MAX_EXPONENT)) or (
        magnitude.isdigit() and int(magnitude) > MAX_EXPONENT
    ):
        raise InputError(f"bad value in {flag}: exponent exceeds {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad value in {flag}: {err}") from err


def _parse_tuple(text: str, flag: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(f"{flag} needs four comma-separated values")
    return tuple(_parse_value(p.strip(), flag) for p in parts)


def _classify_at(an: Analysis, point) -> tuple[str, dict[str, str]]:
    """Label and printed values of the classification at --point.

    The values are rendered before any output is written, so a point
    whose values are too large to print is refused with nothing printed.
    """
    try:
        rep = classify_sd_weyl(an, point)
    except ZeroDivisionError as err:
        raise InputError(str(err)) from err
    try:
        text = {
            "point": ", ".join(str(c) for c in rep.point),
            "S": str(rep.scalar),
            "A": str(rep.invariant_a),
            "B": str(rep.invariant_b),
            "PsiT3": str(rep.psi_t3),
            "PsiT4": str(rep.psi_t4),
        }
    except ValueError as err:
        # str() refuses integers past the interpreter's digit limit
        raise InputError(
            f"a value at --point has more than {sys.get_int_max_str_digits()} digits"
        ) from err
    return rep.label, text


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
    label, typed = _classify_at(an, point)
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
    print(f"type at ({typed['point']})", file=out)
    print(f"  label = {label}", file=out)
    for key in ("S", "A", "B"):
        print(f"  {key} = {typed[key]}", file=out)

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


def _monomials_to_degree(limit: int):
    out = []
    for total in range(limit + 1):
        for eu in range(total + 1):
            for ev in range(total - eu + 1):
                for ex in range(total - eu - ev + 1):
                    ey = total - eu - ev - ex
                    out.append(Poly({(eu, ev, ex, ey): Fraction(1)}))
    return out


def _suite_items(name: str, frame: Frame, curv):
    """Ordered (key, thunk) pairs; each thunk returns a zero-testable value."""
    if name == "3.4":
        return [("3.4", lambda: field_equation_residuals(frame, curv))]
    if name == "3.1":
        def run_commutators():
            fields = commutator_vector_fields(frame)
            out = {}
            for mono in _monomials_to_degree(3):
                label = str(mono)
                for key, value in commutator_residuals_from_fields(fields, mono).items():
                    out[f"{key} @ {label}"] = value
            return out

        return [("3.1", run_commutators)]
    if name == "bianchi":
        def run_bianchi():
            ch = christoffel(frame.metric)
            ricci = ricci_tensor(ch)
            scalar = scalar_curvature(frame.metric, ricci)
            resid = bianchi_contracted_residual(frame.metric, ch, ricci, scalar)
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
    # curvature of the untouched frame, so an injected error shows up as
    # failed identities, not as an engine fault
    w, frame, curv = an.w, an.frame, an.curvature
    if args.perturb is not None:
        if args.perturb not in COEFF_NAMES:
            raise InputError(
                f"unknown coefficient {args.perturb!r}; use one of {', '.join(COEFF_NAMES)}"
            )
        bumped = frame.coeffs.with_values(
            **{args.perturb: frame.coeffs.get(args.perturb) + 1}
        )
        frame = dataclasses.replace(frame, coeffs=bumped)

    suites = list(SUITES) if args.suite == "all" else [args.suite]
    results = [
        (suite, [run() for _, run in _suite_items(suite, frame, curv)])
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
    exact_v0 = _parse_tuple(args.v0, "--v0")
    try:
        v0 = tuple(float(c) for c in exact_v0)
    except OverflowError as err:
        raise InputError(f"bad value in --v0: {err}") from err
    base = _parse_tuple(args.base, "--base")
    path = integrate_connecting(w, v0, v_end=args.end, step=args.step, base=base)

    worst = 0.0
    for state, exact in zip(path.states, connecting_oracle(w, base, v0, path.grid)):
        got = state.astuple()
        want = exact.astuple()
        worst = max(worst, max(abs(g - e) for g, e in zip(got, want)))

    if args.out == "-":
        write_trace_csv(path, out)
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
        print(f"master identity residual = {residual}", file=out)
        if not residual.is_zero:
            failures += 1
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
    label, typed = _classify_at(Analysis(w), _parse_tuple(args.point, "--point"))
    _metric_header(w, out)
    print(f"point = ({typed['point']})", file=out)
    print(f"label = {label}", file=out)
    for key in ("S", "A", "B", "PsiT3", "PsiT4"):
        print(f"{key} = {typed[key]}", file=out)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="identity suites as polynomial residuals")
    p.add_argument("spec", help="metric JSON file")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("--perturb", metavar="NAME", default=None,
                   help="add 1 to the named coefficient before checking")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("congruence", help="propagate a connecting state, write CSV")
    p.add_argument("spec", help="metric JSON file")
    p.add_argument("--v0", required=True, help="initial state eta,zeta,zetatilde,nu")
    p.add_argument("--end", required=True, type=float, help="parameter span")
    p.add_argument("--step", required=True, type=float, help="step size")
    p.add_argument("--base", default="0,0,0,0", help="base point u,v,x,y")
    p.add_argument("--out", required=True, help="CSV path, or - for stdout")
    p.set_defaults(func=cmd_congruence)

    p = sub.add_parser("heavenly", help="build a metric from a potential and test it")
    p.add_argument("potential", help="potential JSON file: theta, f, g, F, G, h")
    p.add_argument("--check", default="all", choices=("einstein", "identity", "all"))
    p.set_defaults(func=cmd_heavenly)

    p = sub.add_parser("classify", help="pointwise type of the second quartic family")
    p.add_argument("spec", help="metric JSON file")
    p.add_argument("--point", default="0,0,0,0", help="evaluation point u,v,x,y")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args, sys.stdout)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 3
    except Exception as err:
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
