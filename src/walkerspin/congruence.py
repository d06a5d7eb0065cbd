"""Propagation of connecting and deviation fields along the distinguished
null congruence.

The integral curves of the first tetrad vector run along the u coordinate,
so a curve is fixed by its base point and an affine parameter offset t:
it is the line (u0 + t, v0, x0, y0).  Every sampled quantity is a
polynomial in u, v, x, y on a canonical frame, so it is restricted to the
curve once, exactly, as a polynomial in t with integer coefficients over
one denominator.  Each sample is then that polynomial's exact value at the
float-derived rational t, rounded to a float once: a varying column's
samples are batches of integer Horner, with no call per point, and a
column constant along the curve is rounded once.  The closed-form oracle
restricts two polynomials in a, b and c the same way.  Integration error
is the only numerical error in a trace.

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
no list per stage.

Both integrators run on one chunked driver, `_integrate`, over the lazy
grid that `_half_grid`, the one grid builder, checks.  A chunk of
`_CHUNK` steps samples its 2 _CHUNK + 1 grid points (the last shared with
the next chunk) and runs the stepper from the state the chunk before
ended in.  What a path keeps is float columns (``array('d')``): the grid,
the states and the trace columns that the CSV and `sigma_omega_forms`
read, each at every step.  A chunk's samples and state tuples go with it,
so a call holds 8 bytes per kept value and nothing the cyclic GC scans.
`_Sampler` refuses the inputs, with the messages, that sampling every
column over the whole grid before the first step would.  A path's states
are a `StateColumns`, a read-only view that builds a `ConnectingState`
per row on read; `connecting_oracle` returns one too, and the CLI
compares the two column by column.  The CSV is written from the columns
after the last step, each row one ``%`` format over its nine columns.
"""

from __future__ import annotations

import math
import operator
from array import array
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
from .spincoeff import SpinCoefficientSet, _check
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
# The trace columns of a path: the four the CSV prints, then the four more
# that `sigma_omega_forms` reads.
_CSV_KEYS = ("rho", "rho_t", "sigma", "sigma_t")
_KEPT_KEYS = _CSV_KEYS + ("tau", "tau_t", "aplus", "atplus")

# Largest number of integration steps v_end / step may ask for.
MAX_STEPS = 1_000_000

# Steps per chunk of `_integrate`, and half the grid points per slice of
# `_Sampler`.  A chunk's transient objects (up to 17 sample tuples of
# 2K + 1 floats, the grid ratios, K + 1 state tuples) take about 2 kB per
# step of K, so K = 256 keeps them near 0.5 MB, while the few calls a
# chunk makes (two more per varying column) cost little beside its steps:
# on a 10^5-step call with four varying columns, K = 128 to 512 run
# equally fast, and K = 32 about 10 % slower.
_CHUNK = 256

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


def _zeros(size: int) -> array:
    """A float column of `size` zeros, allocated at its full size once, so
    filling it slice by slice never grows it."""
    return array("d", [0.0]) * size


class _HalfGrid:
    """The points j * h2, j = 0 .. 2n, of a half-step grid, the last one
    v_end, formed on read: a slice is a list formed in C, and the grid
    holds no point.  The driver reads it by slices only."""

    __slots__ = ("n", "h2", "v_end")

    def __init__(self, n: int, h2: float, v_end: float):
        self.n, self.h2, self.v_end = n, h2, v_end

    def __len__(self) -> int:
        return 2 * self.n + 1

    def __getitem__(self, j):
        last = 2 * self.n
        index = range(last + 1)[j]
        if isinstance(j, slice):
            points = list(map(operator.mul, index, repeat(self.h2)))
            if last in index:
                points[index.index(last)] = self.v_end
            return points
        return self.v_end if index == last else index * self.h2


def _half_grid(v_end, step) -> _HalfGrid:
    """Uniform grid with midpoints, ending exactly at v_end."""
    v_end, step = _check_span(v_end, step)
    n = max(1, round(v_end / step))
    h2 = (v_end / n) / 2
    # j * h2 rounds monotonically, and h2 is more than an ulp of j * h2 for
    # every j below 2^51, so once h2 > 0 the points before the last rise
    # strictly.  A subnormal span can halve to a step of zero, or round
    # its step up so far that the last point, v_end, is not past the one
    # before it.
    if not (0.0 < h2 and (2 * n - 1) * h2 < v_end):
        raise InputError("trace grid must be strictly increasing")
    return _HalfGrid(n, h2, v_end)


class ConnectingState(NamedTuple):
    """Components (eta, zeta, zeta~, nu) in the frame basis l, m~, m, n."""

    eta: float
    zeta: float
    zeta_t: float
    nu: float


def _as_state(v) -> ConnectingState:
    comps = _finite(v, "connecting state")
    if len(comps) != 4:
        raise InputError("a connecting state needs four components")
    return ConnectingState._make(comps)


class _Constant:
    """A float column of one value, stored once."""

    __slots__ = ("value", "length")

    def __init__(self, value: float, length: int):
        self.value, self.length = value, length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, k):
        index = range(self.length)[k]
        return _Constant(self.value, len(index)) if isinstance(k, slice) else self.value

    def __iter__(self):
        return repeat(self.value, self.length)


class StateColumns:
    """Connecting states read from four float columns (eta, zeta, zeta~,
    nu), one row per step: item k is the ``ConnectingState`` of row k,
    built on read, and iteration builds them in C.  Equal to another view
    or to a tuple with the same states; ``columns`` gives the columns."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = tuple(columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        return tuple.__new__(ConnectingState, [col[k] for col in self.columns])

    def __iter__(self):
        return map(tuple.__new__, repeat(ConnectingState), zip(*self.columns))

    def __eq__(self, other):
        if isinstance(other, (StateColumns, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<StateColumns of {len(self)} states>"


class CoefficientTrace(NamedTuple):
    """Double-precision samples of TRACE_KEYS columns along one integral
    curve, one per grid parameter, as ``array('d')`` columns."""

    grid: array
    values: dict

    @classmethod
    def from_metric(cls, w: WalkerMetric, base, grid) -> "CoefficientTrace":
        """Every TRACE_KEYS column of w's canonical frame at each parameter
        in `grid`, along the curve through `base` (the origin if None)."""
        values = _sample_columns(_transport_columns(Analysis(w).frame.coeffs), base, grid)
        return cls(grid=array("d", _finite(grid, "curve parameters")), values=values)


class ConnectingPath(NamedTuple):
    """The grid at each step, the state there, and the trace of the
    columns the CSV and `sigma_omega_forms` read, on the same grid."""

    grid: array
    states: StateColumns
    trace: CoefficientTrace


class JacobiPath(NamedTuple):
    """As `ConnectingPath`, with the states' parameter derivatives."""

    grid: array
    states: StateColumns
    derivatives: StateColumns
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



def _overflow(key: str) -> InputError:
    return InputError(f"{key} overflows a float along the curve")


class _Sampler:
    """Float samples of columns along the curve through `base` (the origin
    if None), formed slice by slice over `grid`.

    Canonical-frame columns are polynomials; each is restricted to the
    curve once, and one constant along it is rounded once.  When some
    column varies, or the grid is not all finite floats, every parameter
    is taken as a (p, q) pair in lowest terms, q > 0; a grid that is not
    all floats takes the exact route of ``_ratio``.  Then one streamed
    pass over the whole grid, storing no pair, takes the largest bit
    lengths of p and of q, so a column whose samples could pass the rule
    of ``_refused_digits`` is refused before any sample is formed.  On a
    finite float grid with every column constant no pair is formed, and
    the digit bound reads no bit length.

    Every refusal is the one that sampling each column over the whole
    grid in turn gives (see `refuse`), although the samples are formed one
    slice at a time."""

    def __init__(self, columns, base, grid):
        pt0 = _base_point(base)
        if not isinstance(grid, _HalfGrid):
            grid = _sequence(grid, "curve parameters")
        self.grid = grid
        self.curves = {}
        for key, col in columns.items():
            if not isinstance(col, Poly):
                raise InternalInconsistencyError(f"{key} not polynomial on a canonical frame")
            self.curves[key] = col.along_u(pt0)
        self.fractions = False
        # a half grid is finite floats by construction
        self.by_ratio = (any(len(curve.coeffs) > 1 for curve in self.curves.values())
                         or not isinstance(grid, _HalfGrid)
                         and (not {float}.issuperset(map(type, grid))
                              or not all(map(math.isfinite, grid))))
        p_bits = q_bits = 0
        if self.by_ratio:
            p_max = q_max = 0
            for lo in range(0, len(grid), 2 * _CHUNK):
                ps, qs = self._ratios(grid[lo:lo + 2 * _CHUNK])
                # the largest magnitude has the largest bit length
                p_max = max(p_max, max(map(abs, ps), default=0))
                q_max = max(q_max, max(qs, default=0))
            p_bits, q_bits = p_max.bit_length(), q_max.bit_length()
        for i, (key, curve) in enumerate(self.curves.items()):
            limit = _refused_digits(curve.digit_bound(p_bits, q_bits))
            if limit:
                self.refuse(0, list(self.curves)[:i])
                raise InputError(f"{key} has more than {limit} digits along the curve")
        self.constants = {}
        for key, curve in self.curves.items():
            if len(curve.coeffs) <= 1:
                num, den = curve.ratio_at(0, 1)
                try:
                    self.constants[key] = num / den
                except OverflowError:
                    self.refuse(0)
                    raise _overflow(key) from None

    def _ratios(self, points) -> tuple[list[int], list[int]]:
        """The numerators and the denominators of `points`.  Once a slice
        holds a parameter that is not a float, it and every later slice are
        read by ``_ratio``, so the first parameter refused is the one a
        pass over the whole grid refuses first."""
        if not self.fractions:
            try:
                ratios = list(map(float.as_integer_ratio, points))
            except TypeError:  # not every parameter is a float
                self.fractions = True
            except (ValueError, OverflowError) as exc:
                raise InputError("nonfinite curve parameter") from exc
        if self.fractions:
            ratios = list(map(_ratio, points))
        return list(map(operator.itemgetter(0), ratios)), list(map(operator.itemgetter(1), ratios))

    def sample(self, lo: int, hi: int) -> tuple[list, dict[str, tuple[float, ...]]]:
        """The parameters grid[lo:hi] and each column's samples there."""
        points = self.grid[lo:hi]
        if self.by_ratio:
            ps, qs = self._ratios(points)
        out = {}
        for key, curve in self.curves.items():
            if key in self.constants:
                out[key] = (self.constants[key],) * len(points)
                continue
            try:
                out[key] = curve.floats(ps, qs)
            except OverflowError:
                self.refuse(lo)
                raise _overflow(key) from None
        return points, out

    def refuse(self, lo: int, keys=None) -> None:
        """Refuse the first of `keys` (every column if None), in column
        order, whose samples at grid[lo:] overflow a float, if one does.
        With every column sampled at grid[:lo] already, that is the refusal
        of sampling each column over the whole grid in turn."""
        for key in self.curves if keys is None else keys:
            curve = self.curves[key]
            try:
                if len(curve.coeffs) <= 1:
                    curve.floats((), ())  # rounds the constant, at no parameter
                    continue
                for start in range(lo, len(self.grid), 2 * _CHUNK):
                    curve.floats(*self._ratios(self.grid[start:start + 2 * _CHUNK]))
            except OverflowError as exc:
                raise _overflow(key) from exc


def _sample_columns(columns, base, grid) -> dict[str, array]:
    """Float samples of each column at every grid parameter along the curve
    through `base`, the origin if None, as ``array('d')`` columns; see
    `_Sampler` for the refusals."""
    sampler = _Sampler(columns, base, grid)
    size = len(sampler.grid)
    out = {key: _zeros(size) for key in columns}
    for lo in range(0, size, 2 * _CHUNK):
        _, samples = sampler.sample(lo, lo + 2 * _CHUNK)
        for key, col in out.items():
            col[lo:lo + 2 * _CHUNK] = array("d", samples[key])
    return out


def _integrate(sampler: _Sampler, entries, stepper, state) -> tuple[CoefficientTrace, list]:
    """Run `stepper` from `state` over the rows of `entries` on the sampler's
    half grid, `_CHUNK` steps at a time: a chunk samples its grid points,
    and the stepper carries the state the chunk before ended in.  Returns
    the trace of the _KEPT_KEYS columns and the state columns, each a float
    array over the steps.  A nonfinite step is refused as it is after
    every sample has been formed: a later sample's refusal comes first."""
    n = sampler.grid.n
    grid = _zeros(n + 1)
    kept = {key: _zeros(n + 1) for key in _KEPT_KEYS}
    states = [_zeros(n + 1) for _ in state]
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        points, samples = sampler.sample(2 * lo, 2 * hi + 1)
        try:
            rows = stepper(_row_stream(entries, samples), state, points)
        except InputError:
            sampler.refuse(2 * hi + 1)
            raise
        state = rows[-1]
        grid[lo:hi + 1] = array("d", points[::2])
        for col, values in zip(states, zip(*rows)):
            col[lo:hi + 1] = array("d", values)
        for key, col in kept.items():
            col[lo:hi + 1] = array("d", samples[key][::2])
    return CoefficientTrace(grid=grid, values=kept), states


def integrate_connecting(w: WalkerMetric, V0, v_end, step, base=None) -> ConnectingPath:
    """Fourth-order fixed-step propagation of a connecting state along the
    curve through `base` (the origin if None), over the coefficients
    sampled exactly on the half-step grid of `v_end` and `step`."""
    state0 = _as_state(V0)
    grid = _half_grid(v_end, step)
    sampler = _Sampler(_transport_columns(Analysis(w).frame.coeffs), base, grid)
    trace, states = _integrate(sampler, _M_ENTRIES, _rk4_connecting, state0)
    return ConnectingPath(grid=trace.grid, states=StateColumns(states), trace=trace)


def connecting_oracle(w: WalkerMetric, base, V0, ts) -> StateColumns:
    """Closed-form connecting states at each curve parameter in `ts`, along
    the curve through `base` (the origin if None).

    The last two components are constant and the first two integrate
    metric-function differences exactly: as polynomials,
    eta = eta0 + ((c(base) - c) zeta~0 + (a - a(base)) nu0) / 2 and
    zeta = zeta0 + ((b(base) - b) zeta~0 + (c - c(base)) nu0) / 2,
    each restricted to the curve once and rounded once per parameter.
    The two constant columns are stored once.
    """
    eta0, zeta0, zeta_t0, nu0 = _as_state(V0)
    pt0 = _base_point(base)
    a0, b0, c0 = (f.eval_at(pt0) for f in (w.a, w.b, w.c))
    zt, nu = Fraction(zeta_t0), Fraction(nu0)
    eta = Fraction(eta0) + ((c0 - w.c) * zt + (w.a - a0) * nu) * HALF
    zeta = Fraction(zeta0) + ((b0 - w.b) * zt + (w.c - c0) * nu) * HALF
    eta, zeta = _sample_columns({"eta": eta, "zeta": zeta}, pt0, ts).values()
    return StateColumns((eta, zeta, _Constant(zeta_t0, len(eta)), _Constant(nu0, len(eta))))


def _base_point(base) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The exact base point of a curve: ``base``, or the origin if None."""
    return _point((0, 0, 0, 0) if base is None else base)


def integrate_jacobi(w: WalkerMetric, V0, V0p, v_end, step, base=None) -> JacobiPath:
    """Second-order deviation system integrated as an 8-dimensional
    first-order one, along the curve through `base` (the origin if None);
    returns states and their parameter derivatives.  The columns of M and
    of N are sampled together, on one set of grid ratios per chunk."""
    z0 = _as_state(V0)
    y0 = _as_state(V0p)
    grid = _half_grid(v_end, step)
    an = Analysis(w)
    sampler = _Sampler(
        {**_transport_columns(an.frame.coeffs), **_curvature_columns(an.curvature)}, base, grid
    )
    trace, states = _integrate(sampler, _N_ENTRIES, _rk4_jacobi, z0 + y0)
    return JacobiPath(
        grid=trace.grid,
        states=StateColumns(states[:4]),
        derivatives=StateColumns(states[4:]),
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
    for k, (v, w) in enumerate(zip(first.states, second.states)):
        omega = v.zeta * w.zeta_t - v.zeta_t * w.zeta
        if jacobi:
            dv, dw = first.derivatives[k], second.derivatives[k]
            sig = (_metric_pairing(v, dw) - _metric_pairing(w, dv)) / 2
        else:
            sig = (
                (tr["rho"][k] - tr["rho_t"][k]) * omega
                + (tr["tau_t"][k] + tr["aplus"][k]) * (v.nu * w.zeta - v.zeta * w.nu)
                + (tr["tau"][k] + tr["atplus"][k])
                * (v.nu * w.zeta_t - v.zeta_t * w.nu)
            ) / 2
        sigma_path.append(sig)
        omega_path.append(omega)
    return SigmaOmega(first.grid, tuple(sigma_path), tuple(omega_path))


def write_trace_csv(path, stream) -> None:
    """One row per step, from the path's float columns; floats printed in
    shortest round-trip form so identical runs give identical bytes.  Rows
    are streamed, not built into one string: each is one ``%`` format over
    its nine columns.  A finite float's repr holds no comma, quote or line
    break, so no field needs CSV quoting."""
    tr = path.trace.values
    columns = (path.grid, *path.states.columns, *(tr[key] for key in _CSV_KEYS))
    stream.write(CSV_HEADER + "\n")
    stream.writelines(map(_CSV_ROW.__mod__, zip(*columns)))
