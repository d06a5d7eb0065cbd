"""Connecting-field and deviation-field propagation: oracle accuracy,
integrator order, matrix closures, closed-form flows, and shape data."""

import gc
import hashlib
import io
import json
import math
import os
import random
import sys
import time
import tracemalloc
from array import array
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkerspin.congruence import (
    CSV_HEADER,
    MAX_STEPS,
    TRACE_KEYS,
    CoefficientTrace,
    ConnectingPath,
    ConnectingState,
    StateColumns,
    connecting_oracle,
    integrate_connecting,
    integrate_jacobi,
    riccati_residual,
    sigma_omega_forms,
    write_trace_csv,
    _M_ENTRIES,
    _N_ENTRIES,
    _check_span,
    _constant,
    _half_grid,
    _matrices,
    _rk4_connecting,
    _rk4_jacobi,
    _row_stream,
    _sample_columns,
    _screen,
    _transport_columns,
)
from walkerspin import congruence
from walkerspin.cli import main
from walkerspin.curvature import Analysis, classify_sd_weyl, walker_curvature_components
from walkerspin.errors import InputError, InternalInconsistencyError
from walkerspin.poly import ZERO, Poly, RationalFunction, _float, parse_poly
from walkerspin.spincoeff import Frame
from walkerspin.walker import WalkerMetric

from support import (
    assert_names_a_witness,
    corpus_metrics,
    csv_writer_trace,
    float_rows,
    oracle_error,
    random_metric_functions,
    reference_rk4,
    reference_row_function,
    row_sums,
)

P = parse_poly

FLAT = WalkerMetric(a=ZERO, b=ZERO, c=ZERO)
QUADRATIC = WalkerMetric(a=ZERO, b=P("u^2"), c=ZERO)
# sigma, tau, gamma + gamma~ and alpha~ + beta are nonzero, and constant
# along every curve
CONSTANT_ALONG_U = WalkerMetric(a=P("u*x"), b=P("u*y"), c=P("u*v"))
ORIGIN = (0, 0, 0, 0)


def state_columns(rows) -> StateColumns:
    """The view over the float columns of rows of four components."""
    return StateColumns(array("d", col) for col in zip(*rows))


def constant_path(values, V0, v_end, step) -> ConnectingPath:
    """The connecting path over constant coefficients (values[key], or 0.0)
    on the half-step grid, by the fused stepper, with every TRACE_KEYS
    column at each step.  A metric's canonical frame cannot reach some of
    these: rho, rho~, sigma~, tau~, kappa, kappa~ and alpha + beta~ vanish
    there."""
    grid = _half_grid(v_end, step)
    samples = {k: (float(values.get(k, 0.0)),) * len(grid) for k in TRACE_KEYS}
    states = _rk4_connecting(_row_stream(_M_ENTRIES, samples), V0, grid)
    steps = array("d", grid[::2])
    trace = CoefficientTrace(steps, {k: array("d", col[::2]) for k, col in samples.items()})
    return ConnectingPath(steps, state_columns(states), trace)


def reference_oracle(w, base, V0, t) -> ConnectingState:
    """The closed-form state at one parameter, by per-point Fraction
    arithmetic on the metric functions at the base and at the curve point."""
    s0 = ConnectingState(*(float(c) for c in V0))
    pt0 = tuple(Fraction(c) for c in base)
    ptt = (pt0[0] + Fraction(t),) + pt0[1:]
    a0, at = w.a.eval_at(pt0), w.a.eval_at(ptt)
    b0, bt = w.b.eval_at(pt0), w.b.eval_at(ptt)
    c0, ct = w.c.eval_at(pt0), w.c.eval_at(ptt)
    zt0 = Fraction(s0.zeta_t)
    nu0 = Fraction(s0.nu)
    zeta = Fraction(s0.zeta) + (b0 - bt) / 2 * zt0 + (ct - c0) / 2 * nu0
    eta = Fraction(s0.eta) + (c0 - ct) / 2 * zt0 + (at - a0) / 2 * nu0
    return ConnectingState(float(eta), float(zeta), s0.zeta_t, s0.nu)


def random_curves(seed, count):
    """(metric, base, V0) triples with rational and negative base points."""
    rng = random.Random(seed)
    for _ in range(count):
        w = WalkerMetric(*random_metric_functions(rng))
        base = tuple(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(4))
        V0 = tuple(rng.choice([-2, -0.5, 0, 1, 1.25]) for _ in range(4))
        yield w, base, V0


def test_connecting_state_is_its_tuple():
    s = ConnectingState(1.0, -2.0, 0.5, 3.0)
    assert isinstance(s, tuple) and len(s) == 4
    assert s == (1.0, -2.0, 0.5, 3.0)
    assert (s.eta, s.zeta, s.zeta_t, s.nu) == tuple(s)
    assert ConnectingState._fields == ("eta", "zeta", "zeta_t", "nu")


def test_cli_oracle_error_is_the_per_state_maximum(tmp_path, capsys):
    """The congruence command prints the error of the per-state reference
    loop, bit for bit."""
    spec = tmp_path / "metric.json"
    for w, base, V0 in random_curves(14, 3):
        spec.write_text(json.dumps(w.to_dict()))
        code = main(["congruence", str(spec), "--v0=" + ",".join(map(str, V0)),
                     "--base=" + ",".join(map(str, base)), "--end=1", "--step=0.05",
                     "--out", str(tmp_path / "trace.csv")])
        assert code == 0
        want = f"max oracle error = {oracle_error(w, V0, 0.05, base=base)!r}"
        assert capsys.readouterr().out.splitlines()[-1] == want


def test_cli_oracle_error_of_constant_columns(tmp_path, capsys):
    """A pair of state columns that are each constant is compared by one
    subtraction; the printed error is still the per-state reference's, bit
    for bit, and so it is where only one column of a pair is constant."""
    spec = tmp_path / "metric.json"
    cases = (
        (FLAT, "1,-2,1/2,3", ORIGIN),
        # no u, so the metric functions are constant along every curve
        (WalkerMetric(a=P("x^2 + v"), b=P("x*y"), c=P("v*y - x")), "1,-2,1/2,3",
         (Fraction(1, 3), -1, 2, Fraction(1, 2))),
        # the oracle's eta reaches 1 + 2^-52 at t = 1, while no RK4 step
        # moves the path's eta off 1.0
        (WalkerMetric(a=P("u"), b=ZERO, c=ZERO), "1,0,0,1/4000000000000000", ORIGIN),
    )
    pairs, errors = [], []
    for w, v0, base in cases:
        spec.write_text(json.dumps(w.to_dict()))
        code = main(["congruence", str(spec), "--v0=" + v0, "--base=" + ",".join(map(str, base)),
                     "--end=1", "--step=0.05", "--out", str(tmp_path / "trace.csv")])
        assert code == 0
        V0 = tuple(float(Fraction(c)) for c in v0.split(","))
        errors.append(oracle_error(w, V0, 0.05, base=base))
        assert capsys.readouterr().out.splitlines()[-1] == f"max oracle error = {errors[-1]!r}"
        path = integrate_connecting(w, V0, v_end=1, step=0.05, base=base)
        exact = connecting_oracle(w, base, V0, path.grid)
        pairs.append([(_constant(got), _constant(want))
                      for got, want in zip(path.states.columns, exact.columns)])
    assert pairs[0] == pairs[1] == [(True, True)] * 4
    assert pairs[2] == [(True, False)] + [(True, True)] * 3
    assert errors == [0.0, 0.0, 2.0 ** -52]


class TestExactSampling:
    def test_grid_oracle_matches_per_point_reference(self):
        grid = _half_grid(1.0, 0.05)
        for w, base, V0 in random_curves(11, 12):
            got = connecting_oracle(w, base, V0, grid)
            assert got == tuple(reference_oracle(w, base, V0, t) for t in grid)

    def test_samples_match_pointwise_eval(self):
        grid = _half_grid(0.5, 0.1)
        for w, base, _ in random_curves(12, 8):
            s = Frame.walker(w).coeffs
            columns = {"rho": s.rho, "sigma": s.sigma, "aplus": s.alpha + s.beta_t}
            samples = _sample_columns(columns, base, grid)
            pt0 = tuple(Fraction(c) for c in base)
            for key, rf in columns.items():
                want = [float(rf.eval_at((pt0[0] + Fraction(t),) + pt0[1:])) for t in grid]
                assert [x.hex() for x in samples[key]] == [x.hex() for x in want]

    def test_constant_columns_sample_as_beside_a_varying_one(self):
        """Columns constant along the curve, on a finite float grid, are
        sampled without grid ratios; beside a varying column the same
        columns are sampled over the ratios.  Both give the pointwise
        values, bit for bit."""
        columns = _transport_columns(Frame.walker(CONSTANT_ALONG_U).coeffs)
        base = (Fraction(1, 3), Fraction(-2, 3), Fraction(5, 7), Fraction(3, 11))
        assert all(len(col.along_u(base).coeffs) <= 1 for col in columns.values())
        assert sum(not col.is_zero for col in columns.values()) == 4
        grid = _half_grid(1.0, 0.1)
        alone = _sample_columns(columns, base, grid)
        beside = _sample_columns({**columns, "u": P("u")}, base, grid)
        assert len(set(beside["u"])) == len(grid)
        for key, col in columns.items():
            want = [float(col.eval_at((base[0] + Fraction(t),) + base[1:])).hex() for t in grid]
            assert [x.hex() for x in alone[key]] == want
            assert [x.hex() for x in beside[key]] == want

    def test_python_calls_do_not_grow_with_the_grid(self):
        """Columns are sampled as batches, and states and CSV rows built in
        C: no Python function runs once per grid point.  A call grows only
        by a fixed number of calls per chunk of `_CHUNK` steps (and per
        oracle slice of 2 `_CHUNK` points)."""
        w = WalkerMetric(a=P("u^2*v + x"), b=P("y^3 - u^3*x"), c=P("u*y^2 + u^2"))
        base = (Fraction(1, 2), Fraction(1, 3), 1, 2)

        def python_calls(steps):
            calls = [0]

            def count(frame, event, arg):
                if event == "call":
                    calls[0] += 1

            # a collection may run Python-level gc callbacks mid-call
            gc.disable()
            sys.setprofile(count)
            try:
                path = integrate_connecting(w, (1.0, 1.0, 1.0, 1.0), 1.0, 1.0 / steps, base=base)
                connecting_oracle(w, base, path.states[0], path.grid)
                write_trace_csv(path, io.StringIO())
            finally:
                sys.setprofile(None)
                gc.enable()
            return calls[0]

        k = congruence._CHUNK
        python_calls(10)  # the first call fills caches that later calls reuse
        # up to 2 k points, a grid is one slice for each pass
        assert python_calls(10) == python_calls(k - 1)
        # m k steps are m chunks of integration and m + 1 slices of the
        # digit bound's pass over the 2 m k + 1 grid points; the oracle
        # samples the m k + 1 steps in slices of 2 k points, so 2 at m = 2
        # and 3, and 3 at m = 4 and 5
        calls = {m: python_calls(m * k) for m in (2, 3, 4, 5)}
        per_chunk = calls[3] - calls[2]
        assert calls[5] - calls[4] == per_chunk <= 20
        assert 0 < calls[4] - calls[3] - per_chunk <= 10

    def test_rational_parameters_match_per_point_references(self):
        """Parameters that are not all floats take the exact Fraction route."""
        grid = (0, Fraction(1, 2), 1)
        for w, base, V0 in random_curves(13, 4):
            trace = CoefficientTrace.from_metric(w, base, grid)
            pt0 = tuple(Fraction(c) for c in base)
            for key, col in _transport_columns(Frame.walker(w).coeffs).items():
                want = tuple(float(col.eval_at((pt0[0] + t,) + pt0[1:])) for t in grid)
                assert tuple(trace.values[key]) == want
            assert connecting_oracle(w, base, V0, grid) == tuple(
                reference_oracle(w, base, V0, t) for t in grid
            )

    def test_oracle_and_trace_read_base_none_as_the_origin(self):
        grid = tuple(_half_grid(1.0, 0.25))
        for w, _, V0 in random_curves(15, 3):
            assert connecting_oracle(w, None, V0, grid) == connecting_oracle(w, ORIGIN, V0, grid)
            assert (CoefficientTrace.from_metric(w, None, grid)
                    == CoefficientTrace.from_metric(w, ORIGIN, grid))

    def test_unordered_or_missing_curve_parameters_refused(self):
        V0 = (0, 0, 1, 0)
        for grid in (None, {0.0, 0.5, 1.0}, dict.fromkeys((0.0, 0.5, 1.0))):
            with pytest.raises(InputError, match="curve parameters: not a sequence"):
                connecting_oracle(QUADRATIC, None, V0, grid)
            with pytest.raises(InputError, match="curve parameters: not a sequence"):
                CoefficientTrace.from_metric(QUADRATIC, None, grid)

    def test_trace_and_jacobi_sampling_agree(self):
        """Both integrators keep the same trace columns at each step: the
        samples of the whole half-step grid at its even points."""
        w = WalkerMetric(a=P("u*y^2 - 1/3*v"), b=P("u^3 - x"), c=P("u^2*v"))
        base = (Fraction(-1, 2), Fraction(2, 3), -1, Fraction(5, 4))
        trace = CoefficientTrace.from_metric(w, base, tuple(_half_grid(1.0, 0.1)))
        jac = integrate_jacobi(w, (0, 1, 0, 0), (0, 0, 0, 0), 1.0, 0.1, base=base)
        con = integrate_connecting(w, (0, 1, 0, 0), 1.0, 0.1, base=base)
        assert jac.trace == con.trace
        assert jac.grid == con.grid == trace.grid[::2]
        assert set(jac.trace.values) < set(TRACE_KEYS)
        assert jac.trace.values == {key: trace.values[key][::2] for key in jac.trace.values}

    def test_non_polynomial_column_is_an_inconsistency(self):
        rf = RationalFunction(P("u"), P("1 + v"))
        with pytest.raises(InternalInconsistencyError):
            _sample_columns({"rho": rf}, ORIGIN, (0.0, 0.5, 1.0))

    def test_overflowing_sample_is_input_error(self):
        # sigma = -3/2 u^2 reaches 10^400 here
        w = WalkerMetric(a=ZERO, b=P("u^3"), c=ZERO)
        with pytest.raises(InputError):
            CoefficientTrace.from_metric(w, (10**200, 0, 0, 0), (0.0, 0.5, 1.0))
        # sigma = -y/2 is constant along the curve: no grid ratio is formed
        with pytest.raises(InputError, match="sigma overflows a float along the curve"):
            CoefficientTrace.from_metric(CONSTANT_ALONG_U, (0, 0, 0, 10**400), (0.0, 0.5, 1.0))

    def test_samples_past_the_digit_bound_refused_before_evaluation(self):
        # a grid float here has a denominator near 2^1000, so one sample of
        # a degree-999 column would have about 300 000 digits
        w = WalkerMetric(a=P("u^1000"), b=ZERO, c=ZERO)
        start = time.perf_counter()
        with pytest.raises(InputError, match="digits along the curve"):
            CoefficientTrace.from_metric(w, ORIGIN, _half_grid(1e-300, 1e-301))
        assert time.perf_counter() - start < 2
        # a column constant along the curve keeps the bound on a float grid
        with pytest.raises(InputError, match="sigma has more than \\d+ digits along the curve"):
            CoefficientTrace.from_metric(CONSTANT_ALONG_U, (0, 0, 0, 10**20000), (0.0, 0.5, 1.0))

    def test_digit_bound_reads_the_whole_grid(self):
        """Two columns past the digit bound, on a grid of several slices:
        sigma (degree 299 along the curve) passes it only with the last
        parameter's denominator, 2^1000, and gplus (a constant of 20 001
        digits) at any parameter.  The bound over the whole grid names
        sigma, first in column order, as sampling every column at once
        did; a bound over the first slice alone would name gplus.  A
        refusal names the first column that sampling column by column
        refuses, also where an earlier one overflows instead."""
        w = WalkerMetric(a=Poly({(2, 0, 0, 0): 10**20000}), b=P("u^300"), c=ZERO)
        head = (0.5,) * (4 * congruence._CHUNK)
        with pytest.raises(InputError, match=r"^gplus has more than \d+ digits along the curve$"):
            CoefficientTrace.from_metric(w, ORIGIN, head)
        with pytest.raises(InputError, match=r"^sigma has more than \d+ digits along the curve$"):
            CoefficientTrace.from_metric(w, ORIGIN, head + (2.0 ** -1000,))
        # a column before gplus that overflows a float is still named first
        w = w._replace(b=Poly({(2, 0, 0, 0): 2**1024}))
        with pytest.raises(InputError, match="^sigma overflows a float along the curve$"):
            CoefficientTrace.from_metric(w, ORIGIN, (0.0, 0.5, 1.0))

    def test_step_count_bound(self):
        # checked on the span alone: a broken bound would build the grid
        _check_span(float(MAX_STEPS), 1.0)
        for v_end, step in ((MAX_STEPS + 1.0, 1.0), (1.0, 1e-9), (1e300, 1e-300)):
            with pytest.raises(InputError):
                _check_span(v_end, step)


class TestTraces:
    def test_metric_sampling_is_exact(self):
        trace = CoefficientTrace.from_metric(QUADRATIC, ORIGIN, (0.0, 0.25, 0.5))
        # sigma = -u along this curve
        assert tuple(trace.values["sigma"]) == (0.0, -0.25, -0.5)
        assert tuple(trace.values["rho"]) == (0.0, 0.0, 0.0)

    def test_grid_validation(self):
        """The half-step grid is the one a trace is sampled on; a subnormal
        span whose half step rounds to zero is refused there."""
        with pytest.raises(InputError, match="^trace grid must be strictly increasing$"):
            _half_grid(5e-324, 5e-324)
        grid = _half_grid(1e-320, 1e-321)
        assert len(grid) == 21 and grid[-1] == 1e-320
        assert all(t0 < t1 for t0, t1 in zip(grid, grid[1:]))

    @pytest.mark.parametrize("grid, flat_message, varying_message", [
        (("a", "b", "c"), "not a finite rational: str", None),
        ((0.0, 1.0, math.inf), "nonfinite curve parameter", None),
        ((0, 10**400, 10**401), "curve parameters: not a float",
         "sigma overflows a float along the curve"),
        (None, "curve parameters: not a sequence", None),
    ], ids=["strings", "infinite", "huge-ints", "none"])
    def test_grid_of_non_floats_refused(self, grid, flat_message, varying_message):
        # every column of the flat metric is zero, so no sample overflows;
        # sigma = -u varies along the quadratic metric's curve, so its
        # samples at the huge ints overflow first
        for w, message in ((FLAT, flat_message), (QUADRATIC, varying_message or flat_message)):
            with pytest.raises(InputError, match=message):
                CoefficientTrace.from_metric(w, ORIGIN, grid)

    def test_a_mixed_grid_is_read_exactly_to_its_end(self):
        """An int in the first slice sends every later slice down the exact
        route, as one pass over the whole grid did, so an infinite float
        in a later slice is refused as not a finite rational."""
        grid = (0,) + (0.5,) * (4 * congruence._CHUNK) + (math.inf,)
        for w in (FLAT, QUADRATIC):
            with pytest.raises(InputError, match="^not a finite rational: inf$"):
                CoefficientTrace.from_metric(w, ORIGIN, grid)

    def test_grid_and_columns_stored_as_given(self):
        grid, column = (0, Fraction(1, 2), 1), [0, 1, 2]
        trace = CoefficientTrace(grid=grid, values={k: column for k in TRACE_KEYS})
        assert trace.grid is grid
        assert all(col is column for col in trace.values.values())


class TestConnectingIntegration:
    def test_matches_oracle_at_fine_step(self):
        assert oracle_error(QUADRATIC, (0.0, 0.0, 1.0, 0.0), 1e-3) <= 1e-8

    def test_endpoint_value(self):
        path = integrate_connecting(QUADRATIC, (0.0, 0.0, 1.0, 0.0), v_end=1.0, step=1e-3)
        assert abs(path.states[-1].zeta + 0.5) <= 1e-8

    def test_nu_bitwise_constant(self):
        path = integrate_connecting(
            WalkerMetric(a=P("u*y^2"), b=P("u^3"), c=P("u*v")),
            (1.0, 2.0, 3.0, 0.25),
            v_end=1.0,
            step=0.05,
        )
        assert all(s.nu == 0.25 for s in path.states)

    def test_fourth_order_convergence(self):
        # degree-six solution: truncation error dominates roundoff
        w = WalkerMetric(a=ZERO, b=P("u^6"), c=ZERO)
        coarse = oracle_error(w, (0.0, 0.0, 1.0, 0.0), 0.1)
        fine = oracle_error(w, (0.0, 0.0, 1.0, 0.0), 0.05)
        assert 12.0 <= coarse / fine <= 20.0

    def test_flat_state_is_frozen(self):
        path = integrate_connecting(FLAT, (1.0, -2.0, 3.0, 4.0), v_end=1.0, step=0.1)
        assert all(s == ConnectingState(1.0, -2.0, 3.0, 4.0) for s in path.states)

    def test_offset_base_point(self):
        assert oracle_error(QUADRATIC, (0.0, 1.0, 1.0, 1.0), 1e-3, base=(1, 0, 0, 0)) <= 1e-8

    def test_constant_dilation_trace(self):
        path = constant_path({"rho": 0.3, "rho_t": 0.3}, (0.0, 1.0, 0.0, 0.0), 1.0, 1e-3)
        assert abs(path.states[-1].zeta - math.exp(0.3)) <= 1e-8

    def test_nu_unpinned_when_kappa_present(self):
        path = constant_path({"kappa_t": 1.0}, (0.0, 1.0, 0.0, 0.0), 1.0, 1e-3)
        assert abs(path.states[-1].nu + 1.0) <= 1e-8

    def test_input_validation(self):
        with pytest.raises(InputError):
            integrate_connecting(QUADRATIC, (0, 0, 1, 0), v_end=1.0, step=0.0)
        with pytest.raises(InputError):
            integrate_connecting(QUADRATIC, (0, 0, 1, 0), v_end=-1.0, step=0.1)
        with pytest.raises(InputError):
            integrate_connecting(QUADRATIC, (0, math.nan, 1, 0), v_end=1.0, step=0.1)
        with pytest.raises(InputError):
            integrate_connecting(QUADRATIC, (0, 0, 1), v_end=1.0, step=0.1)


class TestJacobiIntegration:
    def test_flat_lines(self):
        path = integrate_jacobi(FLAT, (1.0, 2.0, 3.0, 0.0), (0.5, 0.0, 0.0, 0.25), 1.0, 0.1)
        for t, s in zip(path.grid, path.states):
            assert abs(s.eta - (1.0 + 0.5 * t)) <= 1e-12
            assert abs(s.nu - 0.25 * t) <= 1e-12
        assert all(d.nu == 0.25 for d in path.derivatives)

    def test_agrees_with_connecting_transport(self):
        V0 = (0.0, 0.0, 1.0, 0.0)
        m0 = matrices_at(QUADRATIC, ORIGIN)[0]
        v0p = [sum(m0[i][k] * V0[k] for k in range(4)) for i in range(4)]
        jac = integrate_jacobi(QUADRATIC, V0, v0p, 1.0, 1e-2)
        con = integrate_connecting(QUADRATIC, V0, v_end=1.0, step=1e-2)
        worst = max(
            max(abs(x - y) for x, y in zip(a, b))
            for a, b in zip(jac.states, con.states)
        )
        assert worst <= 1e-8

    def test_base_none_is_the_origin(self):
        args = (QUADRATIC, (0.0, 0.0, 1.0, 0.0), (0.0, 0.5, 0.0, 0.0), 1.0, 0.5)
        assert integrate_jacobi(*args, base=None) == integrate_jacobi(*args, base=ORIGIN)
        assert integrate_jacobi(*args) == integrate_jacobi(*args, base=ORIGIN)

    def test_second_derivative_of_nu_vanishes(self):
        path = integrate_jacobi(QUADRATIC, (0.0, 0.0, 1.0, 1.0), (0.0, 0.5, 0.0, 0.0), 1.0, 0.05)
        assert all(d.nu == 0.0 for d in path.derivatives)
        assert all(s.nu == 1.0 for s in path.states)

    def test_golden_states(self):
        # float.hex of every state and derivative, recorded with the
        # deviation system's own hand-written RK4 loop
        w = WalkerMetric(
            a=P("u^3*v - 2/3*x*y + u*y^2"), b=P("u^4 - x*v + 1/2"), c=P("u^2*x - 3*v*y^2 + u")
        )
        base = (Fraction(1, 3), Fraction(-1, 2), 2, Fraction(-3, 4))
        path = integrate_jacobi(
            w, (1.0, -2.0, 0.5, 3.0), (0.25, 0.0, -1.0, 0.5), 1.0, 1e-2, base=base
        )
        assert len(path.states) == 101
        text = "\n".join(
            " ".join(float.hex(x) for x in s + d)
            for s, d in zip(path.states, path.derivatives)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e4bf4d96f8fd79bc61c318eea00814d973b384db5495ccd72697c4001d375b65"
        )


def matrices_at(w, point):
    """M and N on w's canonical frame at point, as floats."""
    return tuple(
        tuple(tuple(_float(e.eval_at(point), f"{name}[{i}][{k}]") for k, e in enumerate(row))
              for i, row in enumerate(a))
        for a, name in zip(_matrices(Analysis(w)), "MN")
    )


class TestPropagationMatrices:
    def test_cubic_profile_entries(self):
        m, n = matrices_at(WalkerMetric(a=ZERO, b=P("u^3"), c=ZERO), (1, 0, 0, 0))
        assert _screen(m) == ((0.0, -1.5), (0.0, 0.0))
        assert m[1][2] == -1.5
        assert all(m[i][0] == 0.0 for i in range(4))
        assert n[3] == (0.0, 0.0, 0.0, 0.0)

    def test_curvature_blocks(self):
        m, n = matrices_at(QUADRATIC, ORIGIN)
        # the screen curvature block carries the leading quartic component
        assert _screen(n) == ((0.0, 1.0), (0.0, 0.0))
        assert n[1][2] == 1.0

    def test_linear_profile_is_curvature_free(self):
        m, n = matrices_at(WalkerMetric(a=ZERO, b=P("2*u"), c=ZERO), ORIGIN)
        assert all(x == 0.0 for row in n for x in row)
        assert m[1][2] == -1.0

    def test_overflowing_entry_is_input_error(self):
        w = WalkerMetric(a=P("u^3*v"), b=P("x^2*u"), c=P("u*y"))
        with pytest.raises(InputError, match=r"^M\[\d\]\[\d\] overflows a float$"):
            matrices_at(w, (10**200, 1, 1, 1))


class TestRiccati:
    def test_exact_closure(self):
        w = WalkerMetric(a=P("u*v"), b=P("x^3"), c=P("u*y"))
        assert riccati_residual(w).is_zero

    def test_flat(self):
        assert riccati_residual(FLAT).is_zero

    def test_corpus_closures_match_the_term_by_term_sum(self):
        """On the 25 acceptance-corpus metrics the closures equal dA/du +
        A^2 + B summed product by product, and vanish."""
        def closure(a, b):
            size = range(len(a))
            return tuple(
                tuple(a[i][j].diff("u") + sum((a[i][k] * a[k][j] for k in size), ZERO)
                      + b[i][j] for j in size)
                for i in size
            )

        for w in corpus_metrics():
            m, n = _matrices(Analysis(w))
            rep = riccati_residual(w)
            assert rep.m_residual == closure(m, n)
            assert rep.p_residual == closure(_screen(m), _screen(n))
            assert rep.is_zero

    def test_scalar_transport_identities(self):
        w = WalkerMetric(a=P("v^2*y"), b=P("u^4"), c=P("x*y"))
        frame = Frame.walker(w)
        s = frame.coeffs
        curv = walker_curvature_components(w, frame)
        diff = s.rho - s.rho_t
        assert (diff.diff("u") - (s.rho_t - s.rho) * (s.rho_t + s.rho)).is_zero
        assert (s.sigma.diff("u") + s.sigma * (s.rho + s.rho_t) + curv.Psi0).is_zero
        assert (s.sigma_t.diff("u") + s.sigma_t * (s.rho + s.rho_t) + curv.PsiT0).is_zero


class TestSigmaOmega:
    def test_deviation_pair_conserves_sigma(self):
        first = integrate_jacobi(QUADRATIC, (0, 0, 1, 0), (1, 0, 0, 0), 1.0, 1e-2)
        second = integrate_jacobi(QUADRATIC, (0, 0, 0, 1), (0, 0, 0, 0), 1.0, 1e-2)
        forms = sigma_omega_forms(first, second)
        assert all(abs(s + 0.5) <= 1e-8 for s in forms.sigma)

    def test_connecting_pair_on_metric_is_exactly_zero(self):
        first = integrate_connecting(QUADRATIC, (0, 1, 1, 0), v_end=1.0, step=1e-2)
        second = integrate_connecting(QUADRATIC, (0, 0, 1, 0), v_end=1.0, step=1e-2)
        forms = sigma_omega_forms(first, second)
        assert all(s == 0.0 for s in forms.sigma)
        # trace-free screen block: the enclosed area is conserved
        assert all(abs(o - 1.0) <= 1e-8 for o in forms.omega)

    def test_orthogonal_pair_proportionality(self):
        values = {"rho": 0.2, "rho_t": -0.1}
        first = constant_path(values, (0.0, 1.0, 0.0, 0.0), 1.0, 1e-2)
        second = constant_path(values, (0.0, 0.0, 1.0, 0.0), 1.0, 1e-2)
        forms = sigma_omega_forms(first, second)
        for s, o in zip(forms.sigma, forms.omega):
            assert s == (0.2 - (-0.1)) / 2 * o

    def test_quadratic_area_identity(self):
        # D(zeta zeta~) = (rho+rho~) zeta zeta~ + sigma zeta~^2 + sigma~ zeta^2
        path = constant_path({"rho": 0.3, "rho_t": 0.3}, (0.0, 1.0, 2.0, 0.0), 1.0, 1e-2)
        prod = [s.zeta * s.zeta_t for s in path.states]
        h = path.grid[1] - path.grid[0]
        for k in range(1, len(prod) - 1):
            lhs = (prod[k + 1] - prod[k - 1]) / (2 * h)
            assert abs(lhs - 0.6 * prod[k]) <= 1e-4

    def test_mismatch_rejection(self):
        a = integrate_connecting(QUADRATIC, (0, 0, 1, 0), v_end=1.0, step=0.1)
        b = integrate_connecting(QUADRATIC, (0, 0, 1, 0), v_end=1.0, step=0.05)
        with pytest.raises(InputError):
            sigma_omega_forms(a, b)
        c = integrate_jacobi(QUADRATIC, (0, 0, 1, 0), (0, 0, 0, 0), 1.0, 0.1)
        with pytest.raises(InputError):
            sigma_omega_forms(a, c)
        d = integrate_connecting(FLAT, (0, 0, 1, 0), v_end=1.0, step=0.1)
        assert d.grid == a.grid
        with pytest.raises(InputError, match="different coefficient data"):
            sigma_omega_forms(a, d)


HUGE = 10**400


@pytest.mark.parametrize(
    "call",
    [
        lambda: connecting_oracle(QUADRATIC, ORIGIN, (0, 0, 1, 0), [math.inf]),
        lambda: integrate_connecting(QUADRATIC, (HUGE, 0, 0, 0), v_end=1.0, step=0.1),
        lambda: integrate_jacobi(QUADRATIC, ORIGIN, (HUGE, 0, 0, 0), 1.0, 0.1),
        lambda: classify_sd_weyl(Analysis(QUADRATIC), (math.inf, 0, 0, 0)),
        lambda: classify_sd_weyl(Analysis(QUADRATIC), ("a", 0, 0, 0)),
        lambda: classify_sd_weyl(Analysis(QUADRATIC), (None, 0, 0, 0)),
    ],
    ids=[
        "connecting_oracle",
        "integrate_connecting",
        "integrate_jacobi",
        "classify_sd_weyl-inf",
        "classify_sd_weyl-text",
        "classify_sd_weyl-none",
    ],
)
def test_unrepresentable_input_is_input_error(call):
    """Infinite parameters and integers past the float range are bad input,
    not an escaping OverflowError."""
    with pytest.raises(InputError):
        call()


def test_unrepresentable_span_and_flow_are_input_errors():
    """A span past the float range, or not a number, is refused before the
    connecting flow is integrated."""
    for v_end, step in ((HUGE, 1.0), (1.0, HUGE), ("x", 0.1), (None, 0.1)):
        with pytest.raises(InputError):
            integrate_connecting(QUADRATIC, (0, 0, 1, 0), v_end=v_end, step=step)


@pytest.mark.parametrize("a, v0", [
    ("0", "0,0,0,0"),
    (f"{2**1030}*u^2", "0,0,0,0"),
    (f"{2**1100}*u", "0,0,0,0"),
    ("0", "1e308,1e308,1e308,1e308"),
], ids=["last-chunk", "earlier-column-later-chunk", "constant-later-column",
        "nonfinite-first-step"])
def test_refusal_is_that_of_sampling_every_column_first(tmp_path, capsys, a, v0):
    """sigma = -2^1024 t rounds past the largest float only at t = 1, the
    last grid point, in the last of several chunks.  The call refuses
    with nothing on stdout, naming sigma as sampling every column before
    the first step did: also when gplus, a later column, overflows from
    the first chunk on or is a constant past the float range, and when
    the first step is already nonfinite."""
    spec = tmp_path / "metric.json"
    spec.write_text(json.dumps({"a": a, "b": f"{2**1024}*u^2", "c": "0"}))
    assert 1000 > 2 * congruence._CHUNK
    code = main(["congruence", str(spec), f"--v0={v0}", "--end=1", "--step=1e-3", "--out", "-"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: sigma overflows a float along the curve\n")


DIGIT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


@pytest.mark.parametrize("a, b, end, step, message", [
    ("0", f"{2**1024}*u^2", "1", "1e-3", "sigma overflows a float along the curve"),
    (f"{2**1030}*u^2", f"{2**1024}*u^2", "1", "1e-3", "sigma overflows a float along the curve"),
    (f"{2**1100}*u", f"{2**1024}*u^2", "1", "1e-3", "sigma overflows a float along the curve"),
    ("0", "u^300", "1e-300", "1e-303", f"sigma has more than {DIGIT_LIMIT} digits along the curve"),
], ids=["last-chunk", "earlier-column-later-chunk", "constant-later-column", "digit-bound"])
def test_a_refused_call_never_steps(tmp_path, capsys, monkeypatch, a, b, end, step, message):
    """Every refusal of sampling is decided before the first step, so the
    refusals of `test_refusal_is_that_of_sampling_every_column_first` and
    a digit refusal of a column of degree 299 on a grid of denominators
    near 2^1000 call the stepper no time, with the same stderr line."""
    calls = []
    stepper = congruence._rk4_connecting

    def counted(*args):
        calls.append(len(calls))
        return stepper(*args)

    monkeypatch.setattr(congruence, "_rk4_connecting", counted)
    spec = tmp_path / "metric.json"
    spec.write_text(json.dumps({"a": a, "b": b, "c": "0"}))
    code = main(["congruence", str(spec), "--v0=0,0,0,0", f"--end={end}", f"--step={step}",
                 "--out", "-"])
    out, err = capsys.readouterr()
    assert (code, out, err, calls) == (2, "", f"error: {message}\n", [])


def test_a_bound_past_the_largest_float_with_no_sample_past_it(tmp_path, capsys):
    """b = 2^1022 (u^5 - u^4) gives sigma = -2^1021 (5t^4 - 4t^3), whose
    bound 9 * 2^1021 on [0, 1] passes the largest float, though no sample
    does: the column is sampled over the whole grid before the first
    step, and the call is accepted, its CSV bytes pinned by their
    SHA-256."""
    spec, csv = tmp_path / "metric.json", tmp_path / "trace.csv"
    spec.write_text(json.dumps({"a": "0", "b": f"{2**1022}*(u^5-u^4)", "c": "0"}))
    code = main(["congruence", str(spec), "--v0=1,0,0,0", "--end=1", "--step=1e-3",
                 "--out", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-3:] == ["steps: 1000", f"trace written to {csv}",
                                     "max oracle error = 0.0"]
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "f324bc7dfda480a211ebc13cf75c731059373e07e469120f4143de675d0acc81"
    )


# signed coefficients from 1 to about 2^1100 in magnitude, so that a
# column's values fall on both sides of the largest float
big_coefficients = st.builds(lambda m, e: m << e, st.integers(-2**12, 2**12), st.integers(0, 1088))
curve_grids = st.one_of(
    st.lists(st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -1.5, 1.0, 1e300, -1e300)),
                       st.floats(-4.0, 4.0)), max_size=12),
    st.lists(st.fractions(-4, 4, max_denominator=10**6), max_size=12),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(columns=st.lists(st.lists(big_coefficients, min_size=1, max_size=7), min_size=1,
                        max_size=3),
       den=st.sampled_from((1, 3, 2**40, 7**30)), grid=curve_grids)
# no sample overflows, though the bound 9 * 2^1021 passes the largest float
@example(columns=[[0, 0, 0, 4 << 1021, -5 << 1021]], den=1, grid=[0.0, 0.25, 0.5, 0.75, 1.0])
# the signed sum at T = 1 is 0, the sample at t = 0 overflows
@example(columns=[[-2**1100, 2**1100]], den=1, grid=[0.0, 1.0])
# the bound 2^1024 is below twice the largest float, the sample at t = 1 overflows
@example(columns=[[0, 2**1024]], den=1, grid=[0.5, 1.0])
def test_sampling_refuses_exactly_where_a_sample_overflows(columns, den, grid):
    """`_sample_columns` refuses, naming the first column in order, exactly
    when a per-point reference ``float(curve.value_at(t))`` overflows, and
    otherwise gives the reference's samples bit for bit."""
    polys = {
        f"c{i}": Poly({(k, 0, 0, 0): Fraction(c, den) for k, c in enumerate(coeffs) if c})
        for i, coeffs in enumerate(columns)
    }
    expected = {}
    for key, poly in polys.items():
        curve = poly.along_u(ORIGIN)
        try:
            expected[key] = [float(curve.value_at(t)).hex() for t in grid]
        except OverflowError:
            with pytest.raises(InputError, match=f"^{key} overflows a float along the curve$"):
                _sample_columns(polys, ORIGIN, grid)
            return
    got = _sample_columns(polys, ORIGIN, grid)
    assert {key: [x.hex() for x in col] for key, col in got.items()} == expected


def test_outputs_do_not_depend_on_the_chunk_size(tmp_path, capsys, monkeypatch):
    """Chunks of 1, 7 and `_CHUNK` steps give the same CSV bytes, report
    and Jacobi states, bit for bit."""
    metric = {"a": "u^3*v - 2/3*x*y + u*y^2", "b": "u^4 - x*v + 1/2",
              "c": "u^2*x - 3*v*y^2 + u"}
    spec, csv = tmp_path / "metric.json", tmp_path / "trace.csv"
    spec.write_text(json.dumps(metric))
    w = WalkerMetric.from_dict(metric)
    base = (Fraction(1, 3), Fraction(-1, 2), 2, Fraction(-3, 4))
    outputs = []
    for size in (1, 7, congruence._CHUNK):
        monkeypatch.setattr(congruence, "_CHUNK", size)
        code = main(["congruence", str(spec), "--v0=1,-2,1/2,3", "--base=1/3,-1/2,2,-3/4",
                     "--end=1", "--step=0.02", "--out", str(csv)])
        jac = integrate_jacobi(w, (1.0, -2.0, 0.5, 3.0), (0.25, 0.0, -1.0, 0.5), 1.0, 0.02,
                               base=base)
        states = [float.hex(x) for s, d in zip(jac.states, jac.derivatives) for x in s + d]
        outputs.append((code, capsys.readouterr().out, csv.read_bytes(), states))
    assert outputs[0][0] == 0 and len(outputs[0][3]) == 51 * 8
    assert outputs[0] == outputs[1] == outputs[2]


def test_peak_memory_grows_by_the_kept_columns():
    """integrate + oracle + CSV hold float columns: the path's 13 (the
    grid, 4 states, 8 trace columns) and the oracle's 2 varying ones, at
    8 B a value, so an added step raises the peak by 120 B.  A chunk's
    samples and states do not grow with the step count."""
    w = WalkerMetric(a=P("u^2*v + x"), b=P("y^3 - u^3*x"), c=P("u*y^2 + u^2"))
    base = (Fraction(1, 2), Fraction(1, 3), 1, 2)

    def peak(steps):
        tracemalloc.start()
        try:
            path = integrate_connecting(w, (1.0, 1.0, 1.0, 1.0), 1.0, 1.0 / steps, base=base)
            exact = connecting_oracle(w, base, path.states[0], path.grid)
            with open(os.devnull, "w") as sink:
                write_trace_csv(path, sink)
            assert len(exact) == steps + 1
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # the first call fills caches that later calls reuse
    small, large = peak(10_000), peak(40_000)
    assert (large - small) / 30_000 <= 128, (small, large)


@settings(max_examples=300, deadline=None)
@given(units=st.integers(1, 5000), n=st.integers(1, 3000),
       scale=st.sampled_from((5e-324, 1e-310, 1.0, 1e300)))
@example(units=3683, n=1820, scale=5e-324)  # a step rounded up past the end
@example(units=1, n=1, scale=5e-324)  # a half step of zero
def test_half_grid_refuses_what_its_point_list_refuses(units, n, scale):
    """The grid's check on h2 and its last two points refuses the spans
    whose whole point list is not strictly increasing, and the points it
    reads are that list's."""
    v_end = units * scale
    step = v_end / n
    if not step > 0.0:
        return
    count = max(1, round(v_end / step))
    h2 = (v_end / count) / 2
    points = [j * h2 for j in range(2 * count + 1)]
    points[-1] = v_end
    if all(p < q for p, q in zip(points, points[1:])):
        assert list(_half_grid(v_end, step)) == points
    else:
        with pytest.raises(InputError, match="^trace grid must be strictly increasing$"):
            _half_grid(v_end, step)


# signed zeros, subnormals, the largest floats and short decimals
FLOAT_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05,
               1.0, -1.5, 1e300, -1e300, 1.7976931348623157e308)
finite_floats = st.one_of(
    st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def entry_tables(draw):
    """Four rows of (column, sign, key) entries in column order, any of the
    columns 1-3 missing."""
    rows = []
    for _ in range(4):
        cols = sorted(draw(st.sets(st.sampled_from((1, 2, 3)))))
        rows.append(tuple(
            (k, draw(st.sampled_from((1, -1))), draw(st.sampled_from("abcd"))) for k in cols
        ))
    return tuple(rows)


class TestRowFunction:
    @settings(max_examples=300, deadline=None)
    @given(
        table=st.one_of(st.just(_M_ENTRIES), st.just(_N_ENTRIES), entry_tables()),
        data=st.data(),
    )
    def test_matches_the_entry_loop_bit_for_bit(self, table, data):
        keys = sorted({key for row in table for _, _, key in row} | {"unused"})
        n = data.draw(st.integers(1, 3))
        samples = {
            key: tuple(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
            for key in keys
        }
        j = data.draw(st.integers(0, n - 1))
        # eight components: the deviation system's state (z, z')
        z = data.draw(st.lists(finite_floats, min_size=8, max_size=8))
        got = reference_row_function(table, samples)(j, z)
        want = row_sums(float_rows(table, samples), j, z)
        assert [float.hex(x) for x in got] == [float.hex(x) for x in want]
        if table is _N_ENTRIES:
            # the deviation system takes -N z: the empty row gives -0.0
            assert float.hex(-got[3]) == float.hex(-want[3]) == "-0x0.0p+0"
        # the fused steppers read row j as its signed entries in place and
        # 0.0 where an entry is missing; a table with no entries streams
        # rows without end, so only row j is taken
        layout = [0.0] * 12
        for i, row in enumerate(float_rows(table, samples)):
            for k, col in row:
                layout[3 * i + k - 1] = col[j]
        (streamed,) = islice(_row_stream(table, samples), j, j + 1)
        assert [float.hex(x) for x in streamed] == [float.hex(x) for x in layout]

    def test_refuses_entries_outside_columns_one_to_three(self):
        samples = {"a": (1.0,), "b": (2.0,)}
        for layout in (_row_stream, reference_row_function):
            for row in (((0, 1, "a"),), ((4, 1, "a"),), ((1, 1, "a"), (1, -1, "b"))):
                with pytest.raises(InternalInconsistencyError):
                    layout((row, (), (), ()), samples)
            with pytest.raises(InternalInconsistencyError):
                layout(_M_ENTRIES[:3], {key: (1.0,) for key in TRACE_KEYS})


def _jacobi_rhs(rows):
    """The deviation system (z, y)' = (y, -N z) over a reference row function."""
    return lambda j, s: s[4:] + [-x for x in rows(j, s)]


def _outcome(step, *args):
    """The states a stepper returns, by float.hex, or the error it raises."""
    try:
        return [[float.hex(x) for x in state] for state in step(*args)]
    except InputError:
        return "InputError"


def assert_steppers_match(table, samples, s0, grid):
    """Both fused steppers give the reference's states bit for bit, or
    both sides refuse; returns whether the connecting run stayed finite."""
    rhs = reference_row_function(table, samples)
    connecting = _outcome(_rk4_connecting, _row_stream(table, samples), s0[:4], grid)
    assert connecting == _outcome(reference_rk4, rhs, s0[:4], grid)
    jacobi = _outcome(_rk4_jacobi, _row_stream(table, samples), s0, grid)
    assert jacobi == _outcome(reference_rk4, _jacobi_rhs(rhs), s0, grid)
    return connecting != "InputError"


@st.composite
def uneven_grids(draw):
    """A strictly increasing grid of 2n + 1 points, ints and floats mixed,
    with no midpoint condition."""
    n = draw(st.integers(1, 4))
    points = draw(st.lists(
        st.one_of(st.integers(-20, 20), st.floats(-20, 20)),
        min_size=2 * n + 1, max_size=2 * n + 1, unique=True,
    ))
    return tuple(sorted(points))


N_KEYS = ("phi00", "psi0", "psit0", "psi1c", "psit1c", "psi2c")
small_floats = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-05, 1.0)), st.floats(-4, 4)
)


class TestFusedSteppers:
    @settings(max_examples=300, deadline=None)
    @given(
        table=st.one_of(st.just(_M_ENTRIES), st.just(_N_ENTRIES), entry_tables()),
        grid=uneven_grids(),
        edges=st.booleans(),
        data=st.data(),
    )
    def test_match_the_generic_stepper_bit_for_bit(self, table, grid, edges, data):
        """Small samples keep most runs finite; the full edge set (1e300
        and the largest float among them) mostly overflows, and then both
        sides refuse."""
        floats = finite_floats if edges else small_floats
        keys = sorted({key for row in table for _, _, key in row} | {"unused"})
        samples = {
            key: tuple(data.draw(st.lists(floats, min_size=len(grid), max_size=len(grid))))
            for key in keys
        }
        s0 = tuple(data.draw(st.lists(floats, min_size=8, max_size=8)))
        assert_steppers_match(table, samples, s0, grid)

    def test_edge_samples_on_an_int_grid(self):
        """-0.0, 5e-324 and 1e300 samples at int grid points, finite."""
        values = dict.fromkeys(TRACE_KEYS, (0.0,) * 5)
        values.update(
            rho=(-0.0, 5e-324, 1e300, 1e-05, 0.0),
            sigma=(5e-324, -0.0, 1e-05, 2.5, 1e300),
            kappa=(1e-05, 1e300, 5e-324, -0.0, -1.5),
        )
        grid = (0, 1, 2, 3, 4)
        # zeta, zeta~ and nu are zero, so the 1e300 entries multiply +-0.0
        s0 = (1.0, -0.0, 0.0, 0.0, 5e-324, -0.0, 1e-05, 0.0)
        assert assert_steppers_match(_M_ENTRIES, values, s0, grid)
        n_values = dict(zip(N_KEYS, (values[key] for key in ("rho", "sigma", "kappa") * 2)))
        assert_steppers_match(_N_ENTRIES, n_values, s0, grid)

    def test_signed_zeros_follow_the_leading_zero_of_each_row(self):
        """From a state of -0.0 through positive entries every product is
        -0.0 and every row sum 0.0 + ... is +0.0: the connecting state
        turns +0.0 after one step, and the deviation state, whose stages
        negate the rows, stays -0.0.  A row without its leading 0.0 + in
        the deviation stepper gives +0.0 somewhere."""
        grid = (0.0, 0.5, 1.0, 1.5, 2.0)
        values = {key: (1.0,) * 5 for key in TRACE_KEYS}
        n_values = {key: (1.0,) * 5 for key in N_KEYS}
        s0 = (-0.0,) * 8
        assert_steppers_match(_M_ENTRIES, values, s0, grid)
        assert_steppers_match(_N_ENTRIES, n_values, s0, grid)
        connecting = _rk4_connecting(_row_stream(_M_ENTRIES, values), s0[:4], grid)
        assert [[math.copysign(1.0, x) for x in s] for s in connecting] == [[-1.0] * 4] + [
            [1.0] * 4] * 2
        jacobi = _rk4_jacobi(_row_stream(_N_ENTRIES, n_values), s0, grid)
        assert all(math.copysign(1.0, x) == -1.0 for s in jacobi for x in s)

    def test_overflowing_state_refused_on_both_sides(self):
        values = {key: (1e300,) * 3 for key in TRACE_KEYS}
        s0 = (1e300,) * 8
        assert not assert_steppers_match(_M_ENTRIES, values, s0, (0.0, 0.5, 1.0))
        with pytest.raises(InputError, match="nonfinite"):
            _rk4_connecting(_row_stream(_M_ENTRIES, values), s0[:4], (0.0, 0.5, 1.0))


STEPS = 10_000
CONSTANT_SAMPLES = {
    "rho": 0.3, "sigma": -0.2, "tau_t": 0.1, "kappa": 0.05, "kappa_t": -0.4, "aplus": 0.2,
    "phi00": 0.3, "psi0": -0.2, "psit0": 0.1, "psi1c": 0.05, "psit1c": -0.4, "psi2c": 0.2,
}


def _guard_run(stepper, steps):
    """A stepper run, row layout included, on constant samples over
    `steps` steps, as a call of no arguments."""
    grid = _half_grid(1.0, 1.0 / steps)[:]
    samples = {key: (x,) * len(grid) for key, x in CONSTANT_SAMPLES.items()}
    if stepper is _rk4_connecting:
        samples.update((key, (0.0,) * len(grid)) for key in TRACE_KEYS if key not in samples)
        entries, s0 = _M_ENTRIES, (0.0, 1.0, -0.5, 0.25)
    else:
        entries, s0 = _N_ENTRIES, (0.0, 1.0, -0.5, 0.25, 1.0, 0.0, 0.5, 0.0)
    return lambda: stepper(_row_stream(entries, samples), s0, grid)


@pytest.mark.parametrize("stepper", [_rk4_connecting, _rk4_jacobi])
class TestStepperOverhead:
    """Guards against per-step overhead coming back into the steppers: a
    call per stage or a list per stage would each fail one of these."""

    def test_python_calls_do_not_grow_with_the_step_count(self, stepper):
        def python_calls(steps):
            run = _guard_run(stepper, steps)
            calls = [0]

            def count(frame, event, arg):
                if event == "call":
                    calls[0] += 1

            # a collection may run Python-level gc callbacks mid-step
            gc.disable()
            sys.setprofile(count)
            try:
                run()
            finally:
                sys.setprofile(None)
                gc.enable()
            return calls[0]

        # the run, the layout and the stepper, each called once
        assert python_calls(STEPS) == python_calls(10) <= 3

    def test_peak_memory_is_the_states_returned(self, stepper):
        run = _guard_run(stepper, STEPS)
        tracemalloc.start()
        try:
            states = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(states) == STEPS + 1
        size = sys.getsizeof(states) + sum(
            sys.getsizeof(s) + sum(map(sys.getsizeof, s)) for s in states
        )
        assert peak < 1.25 * size, (peak, size)


def test_transport_columns_name_a_nonzero_epsilon():
    """A frame whose epsilon is not zero is not one the transport matrix
    is written for; the error names the coefficient and a witness."""
    bump = parse_poly("u*x")
    s = Frame.walker(WalkerMetric(a=ZERO, b=ZERO, c=ZERO)).coeffs.with_values(epsilon=bump)
    with pytest.raises(InternalInconsistencyError) as err:
        _transport_columns(s)
    assert_names_a_witness(str(err.value), "epsilon on a canonical frame", bump)


def hand_path(columns) -> ConnectingPath:
    """The path whose nine CSV columns (the grid, the four states, then rho,
    rho~, sigma and sigma~) are `columns`, each kept as it is given."""
    grid, *rest = columns
    trace = CoefficientTrace(grid, dict(zip(("rho", "rho_t", "sigma", "sigma_t"), rest[4:])))
    return ConnectingPath(grid, StateColumns(rest[:4]), trace)


# one value per CSV column, each printed differently
CSV_VALUES = (0.0, -0.0, 5e-324, -1e300, 1e-05, 2.5, 1 / 3, -7.0, 1e22)


def varying_columns(rows):
    """Nine columns of `rows` floats, no two values of a column alike."""
    return [[(j - 1.5) * x + j / 7 for j in range(rows)] for x in CSV_VALUES]


def mixed_columns(rows):
    """The odd columns constant, the even ones varying."""
    cols = varying_columns(rows)
    return [[x] * rows if i % 2 else col for i, (x, col) in enumerate(zip(CSV_VALUES, cols))]


def signed_zeros(rows, column):
    """The mixed columns with column 1, constant there, replaced."""
    cols = mixed_columns(rows)
    cols[1] = column
    return cols, [False, False] + [bool(i % 2) for i in range(2, 9)]


# CSV columns of a number of rows, by the constant columns they hold, with
# which of the nine are constant
CSV_KINDS = {
    "all constant": lambda rows: ([[x] * rows for x in CSV_VALUES], [True] * 9),
    "none constant": lambda rows: (varying_columns(rows), [False] * 9),
    "mix": lambda rows: (mixed_columns(rows), [bool(i % 2) for i in range(9)]),
    "leading -0.0": lambda rows: signed_zeros(rows, [-0.0] + [0.0] * (rows - 1)),
    "0.0 and -0.0": lambda rows: signed_zeros(rows, [0.0, -0.0] * (rows // 2) + [0.0] * (rows % 2)),
    "last -0.0": lambda rows: signed_zeros(rows, [0.0] * (rows - 1) + [-0.0]),
}
CSV_ROWS = (2, congruence._CHUNK, congruence._CHUNK + 1, 3 * congruence._CHUNK + 5)


class TestCsv:
    def test_matches_csv_writer_rendering(self):
        grid = (0, 1e-05, 0.5, 0.75, 2)  # a float column holds ints as floats
        values = dict.fromkeys(TRACE_KEYS, (0.0,) * 5)
        values.update(
            rho=(-0.0, 5e-324, 1e300, 1e-05, 0.0),
            rho_t=(1e-05, 1e300, 5e-324, -0.0, -1e300),
            sigma=(1e300, -5e-324, 1, 1e-05, -0.0),
            sigma_t=(5e-324, -0.0, 1e-05, 2.5, 1e300),
        )
        steps = array("d", grid[::2])
        trace = CoefficientTrace(steps, {k: array("d", col[::2]) for k, col in values.items()})
        states = state_columns((
            (-0.0, 5e-324, 1e300, 1e-05),
            (1e-05, -0.0, -5e-324, -1e300),
            (0.0, 1.0, 2.5, -3.0),
        ))
        paths = (
            ConnectingPath(grid=steps, states=states, trace=trace),
            constant_path({"rho": -0.0, "sigma": 1e-05, "tau": 5e-324},
                          (1e-05, -0.0, 5e-324, 1e300), 1, 0.25),
            integrate_connecting(QUADRATIC, (0.0, -0.0, 1.0, 1e-05), v_end=0.1, step=0.01),
        )
        outputs = []
        for path in paths:
            got, want = io.StringIO(), io.StringIO()
            write_trace_csv(path, got)
            csv_writer_trace(path, want)
            assert got.getvalue() == want.getvalue()
            outputs.append(got.getvalue())
        assert outputs[0].splitlines()[1:] == [
            "0.0,-0.0,5e-324,1e+300,1e-05,-0.0,1e-05,1e+300,5e-324",
            "0.5,1e-05,-0.0,-5e-324,-1e+300,1e+300,5e-324,1.0,1e-05",
            "2.0,0.0,1.0,2.5,-3.0,0.0,-1e+300,-0.0,1e+300",
        ]

    def test_header_and_determinism(self):
        def render():
            buf = io.StringIO()
            path = integrate_connecting(QUADRATIC, (0.0, 0.0, 1.0, 0.0), v_end=0.01, step=0.005)
            write_trace_csv(path, buf)
            return buf.getvalue()

        out = render()
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert out == render()

    def test_flat_columns_constant(self):
        buf = io.StringIO()
        path = integrate_connecting(FLAT, (1.0, 2.0, 3.0, 4.0), v_end=0.2, step=0.1)
        write_trace_csv(path, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        for col in range(1, 9):
            assert len({row[col] for row in rows}) == 1

    @pytest.mark.parametrize("rows", CSV_ROWS)
    @pytest.mark.parametrize("kind", CSV_KINDS)
    def test_block_writer_matches_csv_writer(self, kind, rows):
        """Every path of the block writer gives the bytes of ``csv.writer``,
        on tuple and on float array columns."""
        columns, mask = CSV_KINDS[kind](rows)
        assert [_constant(col) for col in columns] == mask
        for container in (tuple, lambda col: array("d", col)):
            path = hand_path(map(container, columns))
            got, want = io.StringIO(), io.StringIO()
            write_trace_csv(path, got)
            csv_writer_trace(path, want)
            assert got.getvalue() == want.getvalue()

    def test_one_write_per_block(self):
        """The header, then one write per block of `_CHUNK` rows, whether
        some column varies or none does."""
        k = congruence._CHUNK

        class Counting:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        paths = [hand_path(CSV_KINDS[kind](rows)[0])
                 for rows in CSV_ROWS for kind in ("all constant", "mix")]
        paths.append(integrate_connecting(QUADRATIC, (1.0, 0.0, 1.0, 0.5), 1.0, 1 / (3 * k + 4)))
        for path in paths:
            rows = len(path.grid)
            stream = Counting()
            write_trace_csv(path, stream)
            assert len(stream.writes) == 1 + -(-rows // k)
            assert [text.count("\n") for text in stream.writes[1:]] == [
                min(k, rows - lo) for lo in range(0, rows, k)
            ]
