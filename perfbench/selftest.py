"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, each workload at --tiny size:
- the untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, and the traced run every per-layer metric, all outcomes
  correct;
- the traced run's Poly counts repeat exactly;
- a corrupted recorded report digest (corpus) and a corrupted recorded
  coefficient-value digest (frames) each make the run fail calls;
- expected.json holds an outcome for every call at the default seed and
  at each of workloads.RECORDED_SEEDS;
- the corpus generator draws the acceptance corpus of tests/support.py;
- speed.Probe.rescale takes the probes' own time out of a call and
  divides by the host speed they measured.

Exits 0 when every check holds; prints one line per failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("poly.mul.calls", "poly.mul.term_pairs", "poly.eval_at.calls",
          "poly.rf_den_terms_max", "poly.coeff_bits_max")


def args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
            "--seconds", "1", "--trace", str(trace), "--tiny"]


def bench(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), *args(workload, trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def expect_metrics(result: dict, specs: list) -> list[str]:
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = [f"{n}: unit {got.get(n)!r}, expected {u!r}"
                for n, u in want.items() if got.get(n) != u]
    problems += [f"{n}: not in BENCHMARK.json" for n in got if n not in want]
    return problems


def check_workloads() -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result, out = bench(workload, trace)
            where = f"{workload} --trace {trace}"
            problems += [f"{where}: {p}" for p in expect_metrics(result, specs)]
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed calls\n{out}")
            if trace == 0 and "fail_ratio 0 ratio (" not in out:
                problems.append(f"{where}: fail_ratio 0 not printed")
            if trace == 1:
                again, _ = bench(workload, 1)
                for name in COUNTS:
                    a, b = result["metrics"][name]["value"], again["metrics"][name]["value"]
                    if a != b:
                        problems.append(f"{where}: {name} {a} then {b}")
    return problems


def check_corruption() -> list[str]:
    """Corrupt the recorded digest of one report and of one set of
    coefficient values; both must fail."""
    expected = json.loads((HERE / "expected.json").read_text())
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        tmp = Path(tmp)
        analyze = workloads.build("corpus", workloads.DEFAULT_SEED, tmp, tiny=True)[0][0]
        transform = workloads.build("frames", workloads.DEFAULT_SEED, tmp, tiny=True)[0][0]
        value_key = workloads.point_key(transform, workloads.FRAME_POINT)
        problems = []
        for workload, key in (("corpus", analyze.key), ("frames", value_key)):
            if key not in expected:
                problems.append(f"{workload}: key {key[:12]} not recorded")
                continue
            corrupted = dict(expected, **{key: "0" * len(expected[key])})
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(args(workload, 0), expected=corrupted)
            out = stdout.getvalue()
            result = json.loads(out.splitlines()[-1])
            if code != 0:
                problems.append(f"{workload}: exit {code} with a corrupted record")
            elif result["correct"] or not result["failed"] or "fail_ratio 0 ratio (" in out:
                problems.append(f"{workload}: a corrupted record still passed\n{out}")
    return problems


def check_recorded_seeds() -> list[str]:
    expected = json.loads((HERE / "expected.json").read_text())
    problems = []
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        for workload in workloads.WORKLOADS:
            for seed in (workloads.DEFAULT_SEED, *workloads.RECORDED_SEEDS):
                calls = [c for item in workloads.build(workload, seed, Path(tmp)) for c in item]
                keys = [workloads.point_key(c, p) for c in calls for p in c.points]
                keys += [c.key for c in calls if c.kind == "cli"]
                missing = sum(k not in expected for k in keys)
                if missing:
                    problems.append(f"{workload} seed {seed}: {missing} outcomes not recorded")
    return problems


def check_generator() -> list[str]:
    support = ROOT / "tests" / "support.py"
    if not support.is_file():
        return []
    import random

    sys.path.insert(0, str(support.parent))
    from support import random_metric_functions
    from walkerspin.poly import Poly

    rng = random.Random(workloads.DEFAULT_SEED)
    theirs = [random_metric_functions(rng, 4) for _ in range(25)]
    ours = [tuple(Poly.parse(m[k]) for k in "abc")
            for m in workloads.corpus_metrics(workloads.DEFAULT_SEED)]
    return [] if ours == theirs else ["corpus generator differs from tests/support.py"]


def check_rescale() -> list[str]:
    """A host at half the reference speed: every probe takes twice
    REFERENCE.  A call's time less the probes started inside it is halved:
    0.2 s holding 2 probes, and 1 s holding 10."""
    probe = speed.Probe()
    slow = 2 * speed.REFERENCE
    probe.starts = [0.1 * k for k in range(-10, 20)]
    probe.durations = [slow] * len(probe.starts)
    got = probe.rescale(0.05, 0.25), probe.rescale(0.0, 1.0)
    want = ((0.2 - 2 * slow) / 2, (1.0 - 10 * slow) / 2)
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        return [f"rescale gave {got}, expected {want}"]
    return []


def main() -> int:
    BUILD.mkdir(exist_ok=True)
    problems = (check_rescale() + check_generator() + check_recorded_seeds()
                + check_workloads() + check_corruption())
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
