"""Propagation of connecting and deviation fields along the distinguished
null congruence.

The integral curves of the first tetrad vector run along the u coordinate,
so a curve is fixed by its base point and an affine parameter offset t:
it is the line (u0 + t, v0, x0, y0).  Every sampled quantity is a
polynomial in u, v, x, y on a canonical frame, so it is restricted to the
curve once, exactly, as a polynomial in t with integer coefficients over
one denominator.  Each sample on the half-step grid is then that
polynomial's exact value at the float-derived rational t, rounded to a
float once; a column's samples are batches of integer Horner over the
grid, each batch one loop with no call per point.  The grid's ratios are
formed only when some column varies along the curve (or the grid is not
all floats): a constant column's samples are its one value.  The
closed-form oracle restricts two polynomials in a, b and c the same way.
Integration error is the only numerical error in a trace.

The transport matrix M (z' = M z) and the curvature matrix N (z'' = -N z)
are each written once, as a table of nonzero entries that the sampling,
the integrators and the Riccati closures read.  The closures
dM/du + M^2 + N = 0 (and the same for the screen blocks) are exact, and
`verify` checks each of their 20 entries.  One layout helper turns a
table and its sampled columns into a lazy stream of rows, twelve signed
entries each.  Each system has one fused RK4 stepper, the deviation one
in its 8-dimensional first-order form: a step reads three rows and
computes all four stages as straight-line float expressions on locals, in
the operation order of a generic stepper, so it makes no call and builds
no list per stage.  Both integrators take a metric and sample their own
trace on the grid that `_half_grid`, the one grid builder, makes and
checks.  A connecting state is a named tuple, but the steppers yield
plain tuples: one helper, `_states`, builds the records from them in C,
for `integrate_connecting`, for each half of `integrate_jacobi`'s
8-tuples, and for `connecting_oracle`'s closed-form values.  The CLI
checks the states against `connecting_oracle`, and the CSV is streamed
row by row, each row one ``%`` format over its nine columns.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import islice, repeat
from typing import NamedTuple

from .curvature import Analysis, CurvatureSpinors
from .errors import InputError, InternalInconsistencyError
from .poly import (
    HALF,
    ZERO,
    Poly,
    Value,
    _point,
    _ratio,
    _refused_digits,
    _sequence,
    dot,
)
from .spincoeff import Frame, SpinCoefficientSet, _check
from .walker import WalkerMetric

TRACE_KEYS = (
    "rho",
    "rho_t",
    "sigma",
    "sigma_t",
    "tau",
    "tau_t",
    "gplus",
    "aplus",
    "atplus",
    "kappa",
    "kappa_t",
)

CSV_HEADER = "v,eta,zeta,zetatilde,nu,rho,rhotilde,sigma,sigmatilde"
_CSV_ROW = ",".join(["%r"] * len(CSV_HEADER.split(","))) + "\n"

# Largest number of integration steps v_end / step may ask for.
MAX_STEPS = 1_000_000

# The nonzero entries of M and N in the basis l, m~, m, n, row by row, as
# (column, sign, column name); M's names are TRACE_KEYS and N's are the
# keys of _curvature_columns.  Column 0 of both and row 3 of N vanish.
_M_ENTRIES = (
    ((1, 1, "aplus"), (2, 1, "atplus"), (3, 1, "gplus")),
    ((1, 1, "rho"), (2, 1, "sigma"), (3, 1, "tau")),
    ((1, 1, "sigma_t"), (2, 1, "rho_t"), (3, 1, "tau_t")),
    ((1, -1, "kappa_t"), (2, -1, "kappa")),
)
_N_ENTRIES = (
    ((1, -1, "psit1c"), (2, -1, "psi1c"), (3, 1, "psi2c")),
    ((1, 1, "phi00"), (2, 1, "psi0"), (3, 1, "psi1c")),
    ((1, 1, "psit0"), (2, 1, "phi00"), (3, 1, "psit1c")),
    (),
)


def _finite(values, what) -> tuple[float, ...]:
    """A sequence of finite real numbers, as floats; anything else is
    refused."""
    try:
        finite = all(map(math.isfinite, values))
    except (TypeError, OverflowError) as exc:
        raise InputError(f"{what}: not a float") from exc
    if not finite:
        raise InputError(f"{what}: nonfinite value")
    return tuple(map(float, _sequence(values, what)))


def _check_span(v_end, step) -> tuple[float, float]:
    v_end, step = _finite((v_end, step), "v_end and step")
    if step <= 0:
        raise InputError("step must be positive")
    if v_end <= 0:
        raise InputError("v_end must be positive")
    # also catches an infinite quotient, which round() would refuse
    if not v_end / step < MAX_STEPS + 0.5:
        raise InputError(f"v_end / step asks for more than {MAX_STEPS} steps")
    return v_end, step


def _half_grid(v_end, step):
    """Uniform grid with midpoints, ending exactly at v_end."""
    v_end, step = _check_span(v_end, step)
    n = max(1, round(v_end / step))
    h2 = (v_end / n) / 2
    grid = [j * h2 for j in range(2 * n + 1)]
    grid[-1] = v_end
    # a subnormal span can halve to a step of zero
    if not all(map(operator.lt, grid, grid[1:])):
        raise InputError("trace grid must be strictly increasing")
    return tuple(grid)


class ConnectingState(NamedTuple):
    """Components (eta, zeta, zeta~, nu) in the frame basis l, m~, m, n."""

    eta: float
    zeta: float
    zeta_t: float
    nu: float


def _states(rows) -> tuple[ConnectingState, ...]:
    """A ``ConnectingState`` from each 4-tuple of floats in ``rows``, built
    in C: ``tuple.__new__`` makes each record with no Python call per row,
    and so without ``_make``'s length check."""
    return tuple(map(tuple.__new__, repeat(ConnectingState), rows))


def _as_state(v) -> ConnectingState:
    comps = _finite(v, "connecting state")
    if len(comps) != 4:
        raise InputError("a connecting state needs four components")
    return ConnectingState._make(comps)


class CoefficientTrace(NamedTuple):
    """Double-precision samples of the TRACE_KEYS columns along one
    integral curve, one per grid parameter."""

    grid: tuple
    values: dict

    @classmethod
    def from_metric(cls, w: WalkerMetric, base, grid) -> "CoefficientTrace":
        values = _sample_columns(_transport_columns(Frame.walker(w).coeffs), base, grid)
        return cls(grid=_finite(grid, "curve parameters"), values=values)


class ConnectingPath(NamedTuple):
    grid: tuple
    states: tuple
    trace: CoefficientTrace


class JacobiPath(NamedTuple):
    grid: tuple
    states: tuple
    derivatives: tuple
    trace: CoefficientTrace


def _transport_columns(s: SpinCoefficientSet) -> dict[str, Value]:
    """The entries of M, named as in _M_ENTRIES."""
    # parallel-dyad transport data: these vanish for the frames built
    # here, and M silently assumes it
    for name in ("epsilon", "tau_p", "epsilon_t", "tau_tp"):
        _check(f"{name} on a canonical frame", s.get(name), ZERO)
    _check("gamma' + gamma~' on a canonical frame", s.gamma_p + s.gamma_tp, ZERO)
    return {
        "rho": s.rho,
        "rho_t": s.rho_t,
        "sigma": s.sigma,
        "sigma_t": s.sigma_t,
        "tau": s.tau,
        "tau_t": s.tau_t,
        "gplus": s.gamma + s.gamma_t,
        "aplus": s.alpha + s.beta_t,
        "atplus": s.alpha_t + s.beta,
        "kappa": s.kappa,
        "kappa_t": s.kappa_t,
    }


def _curvature_columns(curv: CurvatureSpinors) -> dict[str, Value]:
    """The entries of N, named as in _N_ENTRIES."""
    return {
        "phi00": curv.Phi[0][0],
        "psi0": curv.Psi0,
        "psit0": curv.PsiT0,
        "psi1c": curv.Psi1 + curv.Phi[0][1],
        "psit1c": curv.PsiT1 + curv.Phi[1][0],
        "psi2c": 2 * curv.Lambda - 2 * curv.Phi[1][1] - curv.Psi2 - curv.PsiT2,
    }


def _matrix(entries, columns):
    """The 4x4 symbolic matrix laid out by `entries` over `columns`."""
    rows = []
    for row in entries:
        out = [ZERO] * 4
        for k, sign, key in row:
            out[k] = columns[key] if sign > 0 else -columns[key]
        rows.append(tuple(out))
    return tuple(rows)


def _matrices(an: Analysis):
    """The symbolic M and N on a metric's canonical frame."""
    return (
        _matrix(_M_ENTRIES, _transport_columns(an.frame.coeffs)),
        _matrix(_N_ENTRIES, _curvature_columns(an.curvature)),
    )


def _screen(a):
    """The screen block (rows and columns m~, m) of a 4x4 matrix."""
    return tuple(row[1:3] for row in a[1:3])


def _row_stream(entries, samples):
    """The rows of the matrix of `entries` over the float columns `samples`,
    streamed: one 12-tuple (a01, a02, a03, a11, ..., a33) per grid index,
    where a_ik is row i, column k, signed, and a missing entry reads 0.0.

    Column 0 of M and N vanishes and no row has more than three entries,
    so the steppers form each row as one straight-line sum
    ((0.0 + a_i1*z1) + a_i2*z2) + a_i3*z3.  For finite z that is the sum
    of the row's nonzero entries in column order: a partial sum that
    starts from +0.0 is never -0.0, so the signed zero a missing entry
    adds leaves it unchanged.  A nonfinite z[k] also reaches a row with an
    entry in column k, so either way the stepper refuses that step.  The
    columns are read lazily, and no row outlives the step that reads it."""
    if len(entries) != 4:
        raise InternalInconsistencyError("a transport table needs four rows")
    zero = repeat(0.0)
    cols = []
    for row in entries:
        row_cols = [zero] * 3
        for k, sign, key in row:
            if k not in (1, 2, 3) or row_cols[k - 1] is not zero:
                raise InternalInconsistencyError(f"entry {key!r} not in a free column 1-3")
            col = samples[key]
            row_cols[k - 1] = col if sign > 0 else map(operator.neg, col)
        cols += row_cols
    return zip(*cols)


def _rk4_connecting(rows, z, grid) -> list[tuple]:
    """Classical RK4 for z' = M z over a half-step grid, reading M's rows
    from `_row_stream`: each step runs between even indices k and k + 2
    and samples the midpoint k + 1.  Returns the state at each even index.

    A step is written out on locals, in the operation order of a generic
    stepper: stages k_i = M s_i with s_1 = z, s_2 = z + hh*k_1,
    s_3 = z + hh*k_2 and s_4 = z + h*k_3, then
    z + h6*(k_1 + 2*k_2 + 2*k_3 + k_4).  Component 0 of a stage input is
    never formed, since column 0 of M vanishes."""
    isfinite = math.isfinite
    z0, z1, z2, z3 = z
    states = [tuple(z)]
    a01, a02, a03, a11, a12, a13, a21, a22, a23, a31, a32, a33 = next(rows)
    t0 = grid[0]
    for t2, mid, end in zip(islice(grid, 2, None, 2), rows, rows):
        m01, m02, m03, m11, m12, m13, m21, m22, m23, m31, m32, m33 = mid
        h = t2 - t0
        hh = 0.5 * h
        k10 = ((0.0 + a01 * z1) + a02 * z2) + a03 * z3
        k11 = ((0.0 + a11 * z1) + a12 * z2) + a13 * z3
        k12 = ((0.0 + a21 * z1) + a22 * z2) + a23 * z3
        k13 = ((0.0 + a31 * z1) + a32 * z2) + a33 * z3
        s1, s2, s3 = z1 + hh * k11, z2 + hh * k12, z3 + hh * k13
        k20 = ((0.0 + m01 * s1) + m02 * s2) + m03 * s3
        k21 = ((0.0 + m11 * s1) + m12 * s2) + m13 * s3
        k22 = ((0.0 + m21 * s1) + m22 * s2) + m23 * s3
        k23 = ((0.0 + m31 * s1) + m32 * s2) + m33 * s3
        s1, s2, s3 = z1 + hh * k21, z2 + hh * k22, z3 + hh * k23
        k30 = ((0.0 + m01 * s1) + m02 * s2) + m03 * s3
        k31 = ((0.0 + m11 * s1) + m12 * s2) + m13 * s3
        k32 = ((0.0 + m21 * s1) + m22 * s2) + m23 * s3
        k33 = ((0.0 + m31 * s1) + m32 * s2) + m33 * s3
        s1, s2, s3 = z1 + h * k31, z2 + h * k32, z3 + h * k33
        # row k + 2 ends this step and starts the next
        a01, a02, a03, a11, a12, a13, a21, a22, a23, a31, a32, a33 = end
        k40 = ((0.0 + a01 * s1) + a02 * s2) + a03 * s3
        k41 = ((0.0 + a11 * s1) + a12 * s2) + a13 * s3
        k42 = ((0.0 + a21 * s1) + a22 * s2) + a23 * s3
        k43 = ((0.0 + a31 * s1) + a32 * s2) + a33 * s3
        h6 = h / 6
        z0 = z0 + h6 * (((k10 + 2.0 * k20) + 2.0 * k30) + k40)
        z1 = z1 + h6 * (((k11 + 2.0 * k21) + 2.0 * k31) + k41)
        z2 = z2 + h6 * (((k12 + 2.0 * k22) + 2.0 * k32) + k42)
        z3 = z3 + h6 * (((k13 + 2.0 * k23) + 2.0 * k33) + k43)
        z = (z0, z1, z2, z3)
        if not all(map(isfinite, z)):
            raise InputError("integration produced nonfinite values")
        states.append(z)
        t0 = t2
    return states


def _rk4_jacobi(rows, s, grid) -> list[tuple]:
    """Classical RK4, as `_rk4_connecting`, for the deviation system
    (z, y)' = (y, -N z) with N's rows from `_row_stream`.  Stage i's
    derivative is (v_i, k_i): v_1 = y, and v_i for i > 1 is the y half of
    stage i's input; k_i = -N s_i, s_i being the input's z half."""
    isfinite = math.isfinite
    z0, z1, z2, z3, y0, y1, y2, y3 = s
    states = [tuple(s)]
    a01, a02, a03, a11, a12, a13, a21, a22, a23, a31, a32, a33 = next(rows)
    t0 = grid[0]
    for t2, mid, end in zip(islice(grid, 2, None, 2), rows, rows):
        m01, m02, m03, m11, m12, m13, m21, m22, m23, m31, m32, m33 = mid
        h = t2 - t0
        hh = 0.5 * h
        k10 = -(((0.0 + a01 * z1) + a02 * z2) + a03 * z3)
        k11 = -(((0.0 + a11 * z1) + a12 * z2) + a13 * z3)
        k12 = -(((0.0 + a21 * z1) + a22 * z2) + a23 * z3)
        k13 = -(((0.0 + a31 * z1) + a32 * z2) + a33 * z3)
        s1, s2, s3 = z1 + hh * y1, z2 + hh * y2, z3 + hh * y3
        v20, v21, v22, v23 = y0 + hh * k10, y1 + hh * k11, y2 + hh * k12, y3 + hh * k13
        k20 = -(((0.0 + m01 * s1) + m02 * s2) + m03 * s3)
        k21 = -(((0.0 + m11 * s1) + m12 * s2) + m13 * s3)
        k22 = -(((0.0 + m21 * s1) + m22 * s2) + m23 * s3)
        k23 = -(((0.0 + m31 * s1) + m32 * s2) + m33 * s3)
        s1, s2, s3 = z1 + hh * v21, z2 + hh * v22, z3 + hh * v23
        v30, v31, v32, v33 = y0 + hh * k20, y1 + hh * k21, y2 + hh * k22, y3 + hh * k23
        k30 = -(((0.0 + m01 * s1) + m02 * s2) + m03 * s3)
        k31 = -(((0.0 + m11 * s1) + m12 * s2) + m13 * s3)
        k32 = -(((0.0 + m21 * s1) + m22 * s2) + m23 * s3)
        k33 = -(((0.0 + m31 * s1) + m32 * s2) + m33 * s3)
        s1, s2, s3 = z1 + h * v31, z2 + h * v32, z3 + h * v33
        v40, v41, v42, v43 = y0 + h * k30, y1 + h * k31, y2 + h * k32, y3 + h * k33
        a01, a02, a03, a11, a12, a13, a21, a22, a23, a31, a32, a33 = end
        k40 = -(((0.0 + a01 * s1) + a02 * s2) + a03 * s3)
        k41 = -(((0.0 + a11 * s1) + a12 * s2) + a13 * s3)
        k42 = -(((0.0 + a21 * s1) + a22 * s2) + a23 * s3)
        k43 = -(((0.0 + a31 * s1) + a32 * s2) + a33 * s3)
        h6 = h / 6
        z0 = z0 + h6 * (((y0 + 2.0 * v20) + 2.0 * v30) + v40)
        z1 = z1 + h6 * (((y1 + 2.0 * v21) + 2.0 * v31) + v41)
        z2 = z2 + h6 * (((y2 + 2.0 * v22) + 2.0 * v32) + v42)
        z3 = z3 + h6 * (((y3 + 2.0 * v23) + 2.0 * v33) + v43)
        y0 = y0 + h6 * (((k10 + 2.0 * k20) + 2.0 * k30) + k40)
        y1 = y1 + h6 * (((k11 + 2.0 * k21) + 2.0 * k31) + k41)
        y2 = y2 + h6 * (((k12 + 2.0 * k22) + 2.0 * k32) + k42)
        y3 = y3 + h6 * (((k13 + 2.0 * k23) + 2.0 * k33) + k43)
        s = (z0, z1, z2, z3, y0, y1, y2, y3)
        if not all(map(isfinite, s)):
            raise InputError("integration produced nonfinite values")
        states.append(s)
        t0 = t2
    return states


def integrate_connecting(w: WalkerMetric, V0, v_end, step, base=None) -> ConnectingPath:
    """Fourth-order fixed-step propagation of a connecting state along the
    curve through `base` (the origin if None), over the coefficients
    sampled exactly on the half-step grid of `v_end` and `step`."""
    state0 = _as_state(V0)
    trace = CoefficientTrace.from_metric(w, base, _half_grid(v_end, step))
    rows = _row_stream(_M_ENTRIES, trace.values)
    states = _rk4_connecting(rows, state0, trace.grid)
    return ConnectingPath(grid=trace.grid[::2], states=_states(states), trace=trace)


def connecting_oracle(w: WalkerMetric, base, V0, ts) -> tuple[ConnectingState, ...]:
    """Closed-form connecting states at each curve parameter in `ts`, along
    the curve through `base` (the origin if None).

    The last two components are constant and the first two integrate
    metric-function differences exactly: as polynomials,
    eta = eta0 + ((c(base) - c) zeta~0 + (a - a(base)) nu0) / 2 and
    zeta = zeta0 + ((b(base) - b) zeta~0 + (c - c(base)) nu0) / 2,
    each restricted to the curve once and rounded once per parameter.
    """
    eta0, zeta0, zeta_t0, nu0 = _as_state(V0)
    pt0 = _base_point(base)
    a0, b0, c0 = (f.eval_at(pt0) for f in (w.a, w.b, w.c))
    zt, nu = Fraction(zeta_t0), Fraction(nu0)
    eta = Fraction(eta0) + ((c0 - w.c) * zt + (w.a - a0) * nu) * HALF
    zeta = Fraction(zeta0) + ((b0 - w.b) * zt + (w.c - c0) * nu) * HALF
    eta, zeta = _sample_columns({"eta": eta, "zeta": zeta}, pt0, ts).values()
    return _states(zip(eta, zeta, repeat(zeta_t0), repeat(nu0)))


def _base_point(base) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The exact base point of a curve: ``base``, or the origin if None."""
    return _point((0, 0, 0, 0) if base is None else base)


def _grid_ratios(grid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The numerators and the denominators of the grid parameters, each
    p/q in lowest terms with q > 0.  A grid that is not all floats is read
    by ``_ratio``.  The (p, q) pairs are dropped on return, so a long grid
    holds only the two columns."""
    try:
        ratios = list(map(float.as_integer_ratio, grid))
    except TypeError:  # not every parameter is a float
        ratios = list(map(_ratio, grid))
    except (ValueError, OverflowError) as exc:
        raise InputError("nonfinite curve parameter") from exc
    return tuple(map(operator.itemgetter(0), ratios)), tuple(map(operator.itemgetter(1), ratios))


def _sample_columns(columns, base, grid) -> dict[str, tuple[float, ...]]:
    """Float samples of each column at every grid parameter along the curve
    through `base`, the origin if None.  Canonical-frame columns are
    polynomials; each is restricted to the curve first, once.  When some
    column varies along the curve, or the grid is not all finite floats,
    every parameter is taken as a (p, q) pair, and each column is one
    ``CurvePoly.floats`` call over them; a grid that is not all floats
    takes the exact route of ``_ratio``.  The largest bit lengths of p and
    of q are taken once, so a column whose samples could pass the rule of
    ``_refused_digits`` is refused before any sample is formed.  When every
    column is constant along the curve and the grid is all finite floats,
    no ratio is formed: each column's value is its value at t = 0, and its
    digit bound reads no bit length, so the refusals are the same."""
    pt0 = _base_point(base)
    grid = _sequence(grid, "curve parameters")
    curves = {}
    for key, col in columns.items():
        if not isinstance(col, Poly):
            raise InternalInconsistencyError(f"{key} not polynomial on a canonical frame")
        curves[key] = col.along_u(pt0)
    if (any(len(curve.coeffs) > 1 for curve in curves.values())
            or not {float}.issuperset(map(type, grid))
            or not all(map(math.isfinite, grid))):
        ps, qs = _grid_ratios(grid)
        # the largest magnitude has the largest bit length
        p_bits = max(map(abs, ps), default=0).bit_length()
        q_bits = max(qs, default=0).bit_length()
    else:
        ps, qs, p_bits, q_bits = (0,) * len(grid), (1,) * len(grid), 0, 0
    out = {}
    for key, curve in curves.items():
        limit = _refused_digits(curve.digit_bound(p_bits, q_bits))
        if limit:
            raise InputError(f"{key} has more than {limit} digits along the curve")
        try:
            out[key] = curve.floats(ps, qs)
        except OverflowError as exc:
            raise InputError(f"{key} overflows a float along the curve") from exc
    return out


def integrate_jacobi(w: WalkerMetric, V0, V0p, v_end, step, base=None) -> JacobiPath:
    """Second-order deviation system integrated as an 8-dimensional
    first-order one, along the curve through `base` (the origin if None);
    returns states and their parameter derivatives.  The columns of M and
    of N are sampled in one pass, on one set of grid ratios."""
    z0 = _as_state(V0)
    y0 = _as_state(V0p)
    grid = _half_grid(v_end, step)
    an = Analysis(w)
    values = _sample_columns(
        {**_transport_columns(an.frame.coeffs), **_curvature_columns(an.curvature)}, base, grid
    )
    trace = CoefficientTrace(grid=grid, values={key: values[key] for key in TRACE_KEYS})
    states = _rk4_jacobi(_row_stream(_N_ENTRIES, values), z0 + y0, grid)
    return JacobiPath(
        grid=grid[::2],
        states=_states(map(operator.itemgetter(slice(4)), states)),
        derivatives=_states(map(operator.itemgetter(slice(4, None)), states)),
        trace=trace,
    )


class RiccatiReport(NamedTuple):
    m_residual: tuple
    p_residual: tuple

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.m_residual for e in row) and all(
            e.is_zero for row in self.p_residual for e in row
        )


def _closure(a, b):
    """dA/du + A^2 + B: the derivative along the congruence is the
    first-coordinate partial."""
    size = range(len(a))
    return tuple(
        tuple(dot(((a[i][k], a[k][j]) for k in size), a[i][j].diff("u")) + b[i][j]
              for j in size)
        for i in size
    )


def _closures(an: Analysis) -> tuple[tuple, tuple]:
    """The Riccati closures of an analysis's canonical frame, each an exact
    identity: dM/du + M^2 + N and the same for the screen blocks P of M and
    Q of N.  The one owner of the closure, which `verify` checks."""
    m, n = _matrices(an)
    return _closure(m, n), _closure(_screen(m), _screen(n))


def riccati_residual(w: WalkerMetric) -> RiccatiReport:
    """Exact residual of the matrix transport closures (`_closures`)."""
    return RiccatiReport(*_closures(Analysis(w)))


class SigmaOmega(NamedTuple):
    grid: tuple
    sigma: tuple
    omega: tuple


def _metric_pairing(v: ConnectingState, w: ConnectingState) -> float:
    return v.eta * w.nu + v.nu * w.eta - v.zeta * w.zeta_t - v.zeta_t * w.zeta


def sigma_omega_forms(first, second) -> SigmaOmega:
    """The symplectic-type pairing and the screen area of two paths.

    Deviation paths carry their derivatives, so the pairing is computed
    directly; connecting paths substitute the transport law.
    """
    if first.grid != second.grid:
        raise InputError("paths sampled on different grids")
    if first.trace.values != second.trace.values:
        raise InputError("paths carry different coefficient data")
    jacobi = isinstance(first, JacobiPath)
    if jacobi != isinstance(second, JacobiPath):
        raise InputError("cannot mix deviation and connecting paths")
    tr = first.trace.values
    sigma_path, omega_path = [], []
    for k in range(len(first.grid)):
        v, w = first.states[k], second.states[k]
        omega = v.zeta * w.zeta_t - v.zeta_t * w.zeta
        if jacobi:
            dv, dw = first.derivatives[k], second.derivatives[k]
            sig = (_metric_pairing(v, dw) - _metric_pairing(w, dv)) / 2
        else:
            j = 2 * k
            sig = (
                (tr["rho"][j] - tr["rho_t"][j]) * omega
                + (tr["tau_t"][j] + tr["aplus"][j]) * (v.nu * w.zeta - v.zeta * w.nu)
                + (tr["tau"][j] + tr["atplus"][j])
                * (v.nu * w.zeta_t - v.zeta_t * w.nu)
            ) / 2
        sigma_path.append(sig)
        omega_path.append(omega)
    return SigmaOmega(first.grid, tuple(sigma_path), tuple(omega_path))


def write_trace_csv(path, stream) -> None:
    """One row per accepted step; floats printed in shortest
    round-trip form so identical runs give identical bytes.  Rows are
    streamed, not built into one string: each is one ``%`` format over
    its nine columns, every column read through ``float``, so an int
    grid still prints as floats.  A finite float's repr holds no comma,
    quote or line break, so no field needs CSV quoting."""
    tr = path.trace.values
    columns = (
        path.grid,
        *(map(operator.itemgetter(i), path.states) for i in range(4)),
        *(islice(tr[key], 0, None, 2) for key in ("rho", "rho_t", "sigma", "sigma_t")),
    )
    stream.write(CSV_HEADER + "\n")
    stream.writelines(map(_CSV_ROW.__mod__, zip(*(map(float, col) for col in columns))))
