"""walkerspin benchmark: seeded workloads through the public entry points.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client in this process issues calls back to back (a closed
loop) in a seeded order.  Calls go through ``walkerspin.cli.main(argv)``
with stdout captured, and, for the frames workload, through
``transform_coefficients``, which has no subcommand.  Every outcome is
checked (see workloads.py).

With ``--trace 0`` the run repeats whole passes over the workload until
``--seconds`` have elapsed and prints the end-to-end metrics, their times
rescaled to a fixed host speed that a probe measures during the run (see
speed.py; the unscaled figures are printed beside them).  With
``--trace 1`` it makes one untraced and one traced pass and prints the
per-layer metrics (see spans.py).  Either way the last line of stdout is
one JSON object: correct, attempted, failed, metrics.

Work files go to ``.bench_build/`` in the checkout; the span log of a
traced run stays there, the rest is removed at exit.

``expected.json`` holds the outcomes recorded at the default seed and at
seeds 1-20 (``workloads.RECORDED_SEEDS``).  After a change that is meant
to alter reports, record it again with

    rm perfbench/expected.json
    for w in corpus dense frames flow; do
        for s in 20260823 $(seq 1 20); do
            python3 perfbench/run.py --workload $w --seed $s --record perfbench/expected.json
        done
    done

and check the benchmark itself with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_PER_ROUND = 3
# A dense pass takes 13-17 s, so on a slow host only one would fit in 25 s.
MIN_PASSES = 2

sys.dont_write_bytecode = True   # keep the checkout free of __pycache__
sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few small items and a single pass (self-test size)")
    p.add_argument("--record", type=Path, default=None,
                   help="add the fingerprints of one pass to this file")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


class SetupTimer:
    """Time from starting a fresh interpreter to walkerspin.cli imported,
    rescaled by probes the interpreter runs just before and after the
    import (see speed.py; the probes themselves are not counted).

    The package is copied without any __pycache__ and imported with -B,
    so every import compiles the package from source, as a first run does,
    while the standard library loads from its bytecode cache.  (Pointing
    PYTHONPYCACHEPREFIX at an empty directory instead would also compile
    the standard library: about 0.6 s an import against 0.2 s, most of it
    not walkerspin's.)  Samples are taken in rounds between passes, so that
    they spread over the run like the passes do.
    """

    def __init__(self, workdir: Path):
        pkg = workdir / "setup"
        shutil.copytree(SRC / "walkerspin", pkg / "walkerspin",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.cmd = [sys.executable, "-B", "-c", speed.setup_code()]
        self.env = dict(os.environ, PYTHONPATH=str(pkg), PYTHONDONTWRITEBYTECODE="1")
        self.cwd = workdir
        self.times: list[float] = []   # rescaled, see speed.py
        self.raw: list[float] = []     # wall time of the whole subprocess

    def sample(self, count: int = SETUP_PER_ROUND) -> None:
        for _ in range(count):
            start = time.perf_counter()
            proc = subprocess.run(self.cmd, env=self.env, cwd=self.cwd, check=True,
                                  capture_output=True, text=True)
            self.raw.append(time.perf_counter() - start)
            self.times.append(speed.rescale_setup(start, proc.stdout))


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------


def describe(call) -> str:
    return f"{call.label} {' '.join(call.argv[2:]) or ','.join(call.params)}"


class Runner:
    """Executes and checks calls; keeps the per-call timings."""

    def __init__(self, record: workloads.Record):
        from walkerspin import cli, spincoeff, walker
        from walkerspin.poly import Poly

        # modules, not functions: a traced run rebinds the functions
        self.cli, self.spincoeff, self.walker = cli, spincoeff, walker
        self.parse = Poly.parse
        self.record = record
        self.tracer = None    # set for the traced pass; see spans.Tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.pairs: dict[str, str] = {}

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            end = time.perf_counter()
        return (start, end), code, out.getvalue(), err.getvalue()

    def _transform(self, call):
        start = time.perf_counter()
        w = self.walker.WalkerMetric.from_dict(call.metric)
        frame = self.spincoeff.Frame.walker(w)
        coeffs, tetrad = self.spincoeff.transform_coefficients(
            frame, *(self.parse(p) for p in call.params))
        end = time.perf_counter()
        return (start, end), frame, coeffs, tetrad

    def run(self, call) -> tuple[float, float] | None:
        """Run one call, check its outcome, and return when it started and
        ended, by time.perf_counter (None for a call that raised)."""
        self.attempted += 1
        detail = describe(call)
        if self.tracer:
            self.tracer.begin_call()
        try:
            if call.kind == "cli":
                window, code, out, err = self._cli(call.argv)
            else:
                window, frame, coeffs, tetrad = self._transform(call)
            if self.tracer:
                self.tracer.end_call()
            if call.kind == "cli":
                problems, pairs = workloads.check_cli(call, code, out, self.parse)
                if problems and err.strip():
                    problems.append(f"stderr: {err.strip().splitlines()[-1]}")
            else:
                self.walker.validate_tetrad(frame.metric, tetrad)
                problems = []
                pairs = workloads.transform_fingerprints(call, coeffs)
        except Exception as exc:  # a crashing call is a failed call; keep going
            tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.failures.append(f"{detail}: {tb}")
            return None
        problems += self.record.problems(pairs)
        self.pairs.update(pairs)
        if problems:
            self.failures.append(f"{detail}: " + "; ".join(problems))
        return window


def warm_up(workload: str, workdir: Path) -> None:
    """The first item of the workload at self-test size, on a throwaway
    runner, so one-time costs stay out of the measured passes."""
    warm = workdir / "warm"
    warm.mkdir()
    runner = Runner(workloads.Record({}))
    for call in workloads.build(workload, workloads.DEFAULT_SEED, warm, tiny=True)[0]:
        runner.run(call)


def run_pass(runner: Runner, items, rng: random.Random, windows=None) -> float:
    """All items once, in a seeded order; returns the pass's wall time.

    With ``windows``, appends (i, j, start, end) for call j of item i,
    for each call that completed.
    """
    order = list(range(len(items)))
    rng.shuffle(order)
    start = time.perf_counter()
    for i in order:
        for j, call in enumerate(items[i]):
            window = runner.run(call)
            if windows is not None and window is not None:
                windows.append((i, j, *window))
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "walkerspin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        # the ceiling stops git from searching above the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def context() -> dict:
    try:
        nproc = subprocess.run(["nproc"], capture_output=True, text=True,
                               timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        nproc = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "NP_THREADS": os.environ.get("NP_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def typical_times(items, times) -> dict:
    """Each call that completed at least once, at its median time over the
    passes (``times[i][j]`` lists the times of call j of item i)."""
    return {call: statistics.median(t)
            for item, per_call in zip(items, times)
            for call, t in zip(item, per_call) if t}


def call_metrics(items, typical: dict) -> dict:
    return {
        "items_per_s": metric(len(items) / sum(typical.values()), "1/s"),
        "call_p50_s": metric(statistics.median(typical.values()), "s"),
        "call_tail_s": metric(max(typical.values()), "s"),
    }


def main(argv=None, expected=None) -> int:
    """``expected`` replaces the recorded outcomes of expected.json."""
    args = parse_args(argv)
    if not (SRC / "walkerspin" / "cli.py").is_file():
        print(f"error: no walkerspin sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    recorded = HERE / "expected.json"
    if args.record:
        expected = {}
    elif expected is None:
        expected = json.loads(recorded.read_text()) if recorded.is_file() else {}
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=BUILD))
    try:
        return measure(args, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, expected: dict, workdir: Path) -> int:
    runner = Runner(workloads.Record(expected))
    items = workloads.build(args.workload, args.seed, workdir, tiny=args.tiny)
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    warm_up(args.workload, workdir)
    print(json.dumps({"context": context(), "workload": args.workload,
                      "seed": args.seed}, sort_keys=True))

    if args.trace:
        import spans
        metrics, notes = spans.traced_run(runner, items, rng, run_pass,
                                          BUILD / f"spans-{args.workload}-{args.seed}.json")
        for line in notes:
            print(line)
    else:
        # Whole passes keep the mix of items the same in every run.  After
        # MIN_PASSES, another pass starts while it is expected to end no
        # later than half a pass after the deadline.  Every metric is taken over the fixed calls of
        # one pass, each call at its median time over the passes, so the
        # number of passes that fit changes none of the metrics' definitions.
        deadline = time.perf_counter() + args.seconds
        setup = SetupTimer(workdir)
        setup.sample()
        walls = []
        call_times = [[[] for _ in item] for item in items]
        raw_times = [[[] for _ in item] for item in items]
        probe = speed.Probe()
        while True:
            windows = []
            with probe:
                start = time.perf_counter()
                run_pass(runner, items, rng, windows)
                end = time.perf_counter()
            walls.append(end - start)
            for i, j, call_start, call_end in windows:
                call_times[i][j].append(probe.rescale(call_start, call_end))
                raw_times[i][j].append(call_end - call_start)
            setup.sample()
            if args.tiny or args.record:
                break
            if len(walls) >= MIN_PASSES and time.perf_counter() + walls[-1] / 2 >= deadline:
                break
        typical = typical_times(items, call_times)
        if not typical:
            raise RuntimeError("no call completed: " + "; ".join(runner.failures[:3]))
        slowest = max(typical, key=typical.get)
        metrics = {
            "setup_s": metric(statistics.median(setup.times), "s"),
            **call_metrics(items, typical),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        fail_ratio = len(runner.failures) / runner.attempted
        print(f"passes {len(walls)}, items per pass {len(items)}, "
              f"calls {runner.attempted}")
        print("pass seconds " + " ".join(f"{w:.3f}" for w in walls))
        print(f"setup_s is the median of {len(setup.times)} imports")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        unscaled = call_metrics(items, typical_times(items, raw_times))
        print(f"times above are rescaled to a probe time of {speed.REFERENCE} s; "
              f"probe median {statistics.median(probe.durations):.6g} s over "
              f"{len(probe.durations)} samples; unscaled: setup_s "
              f"{statistics.median(setup.raw):.6g} s (whole subprocess), "
              + ", ".join(f"{n} {m['value']:.6g} {m['unit']}" for n, m in unscaled.items()))
        print(f"call_tail_s is the slowest of {sum(map(len, items))} calls: "
              f"{describe(slowest)}")
        # Not among the result's metrics, whose values must never be 0; the
        # result carries it as failed / attempted.
        print(f"fail_ratio {fail_ratio:.6g} ratio ({len(runner.failures)} of "
              f"{runner.attempted} calls failed their check)")

    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    if args.record and not runner.failures:
        recorded = json.loads(args.record.read_text()) if args.record.is_file() else {}
        recorded.update(runner.pairs)
        args.record.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
