"""Seeded inputs for the four workloads, and the check on each call's outcome.

The generator is independent of the program: it draws polynomials as
exponent/coefficient maps and writes them as expression text, so the
program sees only JSON files and command-line arguments.  With the
default seed the corpus is the acceptance corpus of the test suite (the
same draws as ``random_metric_functions`` in ``tests/support.py``); other
seeds keep its monomials and draw new coefficients (see ``reseeded``).

A workload is a list of items; an item is a list of calls.  Every call
carries a key, the digest of its inputs, so an outcome can be compared
with ``expected.json`` whatever the seed that produced the call.  The
file holds the outcomes recorded at the default seed and at seeds
``RECORDED_SEEDS``; at other seeds an outcome the file lacks is compared
with the same call's outcome in the run's first pass, and only the checks
that need no record (exit codes, verdicts, heavenly metrics, flow oracle
error, tetrad validity) catch a consistently wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 20260823
RECORDED_SEEDS = range(1, 21)
WORKLOADS = ("corpus", "dense", "frames", "flow")
VARS = ("u", "v", "x", "y")
COEFF_NAMES = tuple(
    f"{fam}{fl}"
    for fam in ("kappa", "sigma", "rho", "tau", "epsilon", "alpha", "beta", "gamma")
    for fl in ("", "_p", "_t", "_tp")
)

# Largest accepted `max oracle error` of a congruence call.  On seeds 1-10
# and the default seed the error stays below 1e-12 at both steps; an
# integrator of second order would be near 1e-6 at step 1e-3.
FLOW_TOLERANCE = 1e-9
FLOW_END = "1"
# (acceptance-corpus metric, step) of each congruence call; the metrics are
# reseeded, and the 1e-4 call alone takes 3-5 s.
FLOW_RUNS = ((0, "1e-3"), (3, "1e-3"), (16, "1e-3"), (2, "1e-4"))

# Non-canonical frames: (lam, lam_t, mu, mu_t).  Left out for run length:
# (1+u, 1+v, x, 0), about 30 s, and the four-parameter (1+u, 1+v, x, y),
# about 70 s.
FRAME_PARAMS = (
    ("1+u", "1", "x", "0"),
    ("1", "1", "x", "y"),
    ("1+x", "1", "0", "y"),
    ("1+u", "1+v", "0", "0"),
)
FRAME_METRIC = {"a": "u*v+x^2", "b": "y^3-u", "c": "u*y"}
# Acceptance-corpus metrics transformed beside FRAME_METRIC, reseeded (see
# `reseeded`): at (1+u, 1+v, 0, 0) they reach 459 and 696 denominator terms
# in about 1 s.  Corpus metrics whose transform takes 3-6 s are left out for
# run length; a random pick would make a pass last 4-10 s by seed alone.
FRAME_SHAPES = (1, 14)
# Every frame is checked at this point and at one seeded point; all
# coordinates are positive, so no lam or lam_t above vanishes there.
FRAME_POINT = (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3, 2))


# ---------------------------------------------------------------------------
# polynomial draws
# ---------------------------------------------------------------------------


def random_terms(rng: random.Random, max_degree: int = 4, max_terms: int = 5) -> dict:
    """Same draws, in the same order, as tests/support.py random_poly."""
    terms: dict[tuple, Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(4)] += 1
        num = rng.choice([-3, -2, -1, 1, 2, 3, 4])
        den = rng.choice([1, 1, 2, 3])
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(num, den)
    return terms


def _xy_terms(rng: random.Random, max_degree: int) -> dict:
    """A polynomial in x and y only, as a potential's f and g must be."""
    terms: dict[tuple, Fraction] = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.choice([2, 3])] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(
            rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2])
        )
    return terms


def expr(terms: dict) -> str:
    """Expression text for an exponent -> coefficient map."""
    pieces = []
    for exps, coeff in sorted(terms.items()):
        if not coeff:
            continue
        factors = [str(abs(coeff))]
        factors += [f"{name}^{e}" for name, e in zip(VARS, exps) if e]
        pieces.append(("-" if coeff < 0 else "+", "*".join(factors)))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = body if sign == "+" else f"-{body}"
    return text + "".join(f" {s} {b}" for s, b in pieces[1:])


def corpus_terms(seed: int, count: int = 25) -> list[dict]:
    rng = random.Random(seed)
    return [{key: random_terms(rng) for key in ("a", "b", "c")} for _ in range(count)]


def corpus_metrics(seed: int, count: int = 25) -> list[dict]:
    return [{k: expr(t) for k, t in m.items()} for m in corpus_terms(seed, count)]


def reseeded(index: int, rng: random.Random) -> dict:
    """Acceptance-corpus metric `index` with its coefficients drawn anew.

    The monomials, and so the term counts and degrees that set the cost
    of each call, stay those of the acceptance corpus.  Drawing whole
    metrics from the seed instead made the slowest corpus calls, and so
    call_tail_s, differ by a quarter from seed to seed.
    """
    shape = corpus_terms(DEFAULT_SEED, index + 1)[index]
    return {
        key: expr({e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 2, 3]))
                   for e in sorted(terms)})
        for key, terms in shape.items()
    }


def _diff(terms: dict, var: int) -> dict:
    out: dict[tuple, Fraction] = {}
    for exps, coeff in terms.items():
        if exps[var] and coeff:
            key = exps[:var] + (exps[var] - 1,) + exps[var + 1:]
            out[key] = out.get(key, Fraction(0)) + coeff * exps[var]
    return out


def _combine(*parts) -> dict:
    """Sum of (factor, exponent shift, terms) parts, zero terms dropped."""
    out: dict[tuple, Fraction] = {}
    for factor, shift, terms in parts:
        for exps, coeff in terms.items():
            key = tuple(e + s for e, s in zip(exps, shift))
            out[key] = out.get(key, Fraction(0)) + factor * coeff
    return {k: c for k, c in out.items() if c}


def scalar_flat_potential(rng: random.Random) -> tuple[dict, dict]:
    """A valid chain with h = 0, F = u*f and G = v*g, and the metric it
    builds, as term maps: a = -2 theta_vv + F, b = -2 theta_uu + G,
    c = 2 theta_uv."""
    f, g = _xy_terms(rng, 3), _xy_terms(rng, 3)
    theta = random_terms(rng)
    potential = {
        "theta": expr(theta),
        "f": expr(f),
        "g": expr(g),
        "F": f"u*({expr(f)})",
        "G": f"v*({expr(g)})",
        "h": "0",
    }
    none, u, v = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)
    metric = {
        "a": _combine((-2, none, _diff(_diff(theta, 1), 1)), (1, u, f)),
        "b": _combine((-2, none, _diff(_diff(theta, 0), 0)), (1, v, g)),
        "c": _combine((2, none, _diff(_diff(theta, 0), 1))),
    }
    return potential, metric


def _coord(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice([1, 2, 3]))


def point_text(point) -> str:
    return ",".join(str(c) for c in point)


# ---------------------------------------------------------------------------
# calls and items
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Call:
    """One entry-point call.

    kind "cli" runs ``walkerspin.cli.main(argv)``; kind "transform" runs
    ``transform_coefficients`` on ``metric`` with ``params`` and checks the
    result at ``points``.  A heavenly call's ``metric`` is the metric the
    potential must build, as term maps.
    """

    kind: str
    label: str
    key: str
    argv: tuple = ()
    expect_exit: int = 0
    metric: dict = field(default_factory=dict)
    params: tuple = ()
    points: tuple = ()
    csv: str = ""
    steps: int = 0


def _sha(text: str) -> str:
    """128 bits of SHA-256: keys and fingerprints in expected.json."""
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _digest(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True))


class Inputs:
    """Writes input files into a work directory and builds the calls."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def _write(self, data: dict) -> str:
        path = self.workdir / f"{_digest(data)[:16]}.json"
        path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        return str(path)

    def cli(self, label, data, args, expect_exit=0, csv="", steps=0, metric=None) -> Call:
        path = self._write(data)
        argv = (args[0], path) + tuple(args[1:])
        key = _digest(["cli", args[0], data, ["<csv>" if a == csv else a for a in args[1:]]])
        return Call("cli", label, key, argv=argv, expect_exit=expect_exit,
                    csv=csv, steps=steps, metric=metric or {})

    def transform(self, metric, params, points) -> Call:
        key = _digest(["transform", metric, list(params)])
        return Call("transform", "transform", key, metric=metric,
                    params=params, points=tuple(points))


def corpus_items(inputs: Inputs, seed: int, count: int = 25) -> list[list[Call]]:
    rng = random.Random(f"corpus:{seed}")
    if seed == DEFAULT_SEED:
        metrics = corpus_metrics(seed, count)
    else:
        metrics = [reseeded(i, rng) for i in range(count)]
    items = []
    for metric in metrics:
        point = point_text(_coord(rng, -3, 3) for _ in range(4))
        perturb = rng.choice(COEFF_NAMES)
        potential, built = scalar_flat_potential(rng)
        items.append([
            inputs.cli("analyze", metric, ("analyze", f"--point={point}")),
            inputs.cli("verify", metric, ("verify",)),
            inputs.cli("verify --perturb", metric, ("verify", f"--perturb={perturb}"),
                       expect_exit=1),
            inputs.cli("classify", metric, ("classify", f"--point={point}")),
            inputs.cli("heavenly", potential, ("heavenly", "--check=all"), metric=built),
        ])
    return items


def dense_metric(d: int) -> dict:
    return {"a": f"(u+v+x+y+1)^{d}", "b": f"(u-2*v+x+1/2)^{d}", "c": "(u*v+x-y)^2"}


def dense_items(inputs: Inputs, degrees=(4, 5)) -> list[list[Call]]:
    """Fixed inputs; the seed only sets the order of the calls."""
    return [
        [inputs.cli("analyze", dense_metric(d), ("analyze",)),
         inputs.cli("verify", dense_metric(d), ("verify",))]
        for d in degrees
    ]


def frames_items(inputs: Inputs, seed: int, shapes=FRAME_SHAPES,
                 params=FRAME_PARAMS) -> list[list[Call]]:
    rng = random.Random(f"frames:{seed}")
    metrics = [FRAME_METRIC] + [reseeded(i, rng) for i in shapes]
    items = []
    for metric in metrics:
        for p in params:
            seeded = tuple(_coord(rng, 1, 4) for _ in range(4))
            items.append([inputs.transform(metric, p, (FRAME_POINT, seeded))])
    return items


def flow_items(inputs: Inputs, seed: int, runs=FLOW_RUNS) -> list[list[Call]]:
    rng = random.Random(f"flow:{seed}")
    items = []
    for n, (shape, step) in enumerate(runs):
        metric = reseeded(shape, rng)
        base = point_text(_coord(rng, -1, 1) for _ in range(4))
        v0 = point_text(rng.randint(-2, 2) for _ in range(4))
        csv = str(inputs.workdir / f"flow{n}.csv")
        args = ("congruence", f"--v0={v0}", f"--base={base}", f"--end={FLOW_END}",
                f"--step={step}", "--out", csv)
        n_steps = round(float(FLOW_END) / float(step))
        items.append([inputs.cli("congruence", metric, args, csv=csv, steps=n_steps)])
    return items


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[list[Call]]:
    """The items of one pass, in their unshuffled order."""
    inputs = Inputs(workdir)
    if workload == "corpus":
        return corpus_items(inputs, seed, 2 if tiny else 25)
    if workload == "dense":
        return dense_items(inputs, (2,) if tiny else (4, 5))
    if workload == "frames":
        return frames_items(inputs, seed, () if tiny else FRAME_SHAPES,
                            FRAME_PARAMS[:2] if tiny else FRAME_PARAMS)
    if workload == "flow":
        return flow_items(inputs, seed, ((0, "1e-2"),) if tiny else FLOW_RUNS)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# outcome checks
# ---------------------------------------------------------------------------


def check_cli(call: Call, code: int, out: str, parse) -> tuple[list[str], list[tuple]]:
    """Problems with one CLI outcome, and its (key, fingerprint) pairs.
    ``parse`` turns expression text into an object with exponent ->
    coefficient ``terms``."""
    problems = []
    if code != call.expect_exit:
        problems.append(f"exit {code}, expected {call.expect_exit}")
    lines = out.splitlines()
    fails = [ln for ln in lines if ln.startswith("FAIL ")]
    command = call.argv[0]
    if command == "verify":
        want = "verdict: fail" if call.expect_exit else "verdict: pass"
        if not lines or lines[-1] != want:
            problems.append(f"last line is not {want!r}")
        if call.expect_exit and not fails:
            problems.append("perturbation produced no FAIL line")
        if not call.expect_exit and fails:
            problems.append(f"{len(fails)} FAIL lines")
    elif command == "classify":
        if not any(ln.startswith("label = ") for ln in lines):
            problems.append("no label line")
    elif command == "heavenly":
        # A nonzero master identity residual already exits 1.
        built = [ln[len("metric = "):] for ln in lines if ln.startswith("metric = ")]
        got = json.loads(built[0]) if built else {}
        for name, terms in call.metric.items():
            if name not in got or parse(got[name]).terms != terms:
                problems.append(f"built metric {name} = {got.get(name)}, expected {expr(terms)}")
        verdicts = [ln for ln in lines if ln.startswith("Einstein: ")]
        witnesses = any(ln.startswith("  witness ") for ln in lines)
        if verdicts not in (["Einstein: true"], ["Einstein: false"]):
            problems.append(f"Einstein lines {verdicts}")
        elif witnesses != (verdicts[0] == "Einstein: false"):
            problems.append("witness lines do not match the Einstein verdict")
    elif command == "congruence":
        fingerprint_text = out.replace(call.csv, "<csv>")
        match = re.search(r"^max oracle error = (\S+)$", out, re.M)
        if not match or not float(match.group(1)) < FLOW_TOLERANCE:
            problems.append(f"oracle error {match.group(1) if match else None} "
                            f"not below {FLOW_TOLERANCE}")
        if f"steps: {call.steps}" not in lines:
            problems.append(f"step count is not {call.steps}")
        try:
            rows = Path(call.csv).read_text(encoding="utf-8")
        except OSError as err:
            problems.append(f"no CSV trace: {err}")
            rows = ""
        if rows.count("\n") != call.steps + 2:
            problems.append("CSV trace has the wrong number of rows")
        return problems, [(call.key, _sha(fingerprint_text + rows))]
    return problems, [(call.key, _sha(out))]


def point_key(call: Call, point) -> str:
    return _digest([call.key, point_text(point)])


def transform_fingerprints(call: Call, coeffs) -> list[tuple]:
    """One (key, fingerprint) pair per check point: the digest of the exact
    values of all 32 coefficients there, in COEFF_NAMES order.  Values, not
    expressions, are compared, so a shorter representative of the same
    rational function still matches."""
    return [
        (point_key(call, point),
         _digest([str(coeffs.get(name).eval_at(point)) for name in COEFF_NAMES]))
        for point in call.points
    ]


class Record:
    """Expected outcomes by input key: the digest of a report, or of the
    coefficient values at a point.

    Keys in the recorded file must match it.  Keys it lacks (inputs only
    an unrecorded seed produces) must repeat the first outcome seen in
    this run, so every pass is compared with the first.
    """

    def __init__(self, expected: dict):
        self.expected = expected
        self.seen: dict = {}

    def problems(self, pairs) -> list[str]:
        out = []
        for key, got in pairs:
            source = "recorded" if key in self.expected else "first-pass"
            want = self.expected[key] if key in self.expected else self.seen.setdefault(key, got)
            if got != want:
                out.append(f"outcome digest {got[:12]} differs from the {source} {want[:12]}")
        return out
