"""Propagation of connecting and deviation fields along the distinguished
null congruence.

The integral curves of the first tetrad vector run along the u coordinate,
so a curve is fixed by its base point and an affine parameter offset t:
it is the line (u0 + t, v0, x0, y0).  Every sampled quantity is a
polynomial in u, v, x, y on a canonical frame, so it is restricted to the
curve once, exactly, as a polynomial in t with integer coefficients over
one denominator.  Each sample on the half-step grid is then that
polynomial's exact value at the float-derived rational t, computed by
integer Horner and rounded to a float once.  The closed-form oracle
restricts two polynomials in a, b and c the same way.  Integration error
is the only numerical error in a trace.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .curvature import Analysis, CurvatureSpinors
from .errors import (
    CausticError,
    InputError,
    InternalInconsistencyError,
    PatternError,
)
from .poly import HALF, RationalFunction
from .spincoeff import Frame, SpinCoefficientSet
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

FLOW_KINDS = ("dilation", "rotation", "boost", "inverse-scale")

# Largest number of integration steps v_end / step may ask for.
MAX_STEPS = 1_000_000


def _fraction(x) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError) as exc:
        raise InputError(f"not a rational coordinate: {x!r}") from exc


def _point(base) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    pt = tuple(_fraction(c) for c in base)
    if len(pt) != 4:
        raise InputError("a curve base point needs four coordinates")
    return pt


def _curve_point(base, t):
    # the congruence flows along the first coordinate only
    return (base[0] + _fraction(t), base[1], base[2], base[3])


def _ratios(grid) -> list[tuple[int, int]]:
    """Each curve parameter as an exact (p, q) pair; a float converts exactly."""
    return [
        (t if isinstance(t, float) and math.isfinite(t) else _fraction(t)).as_integer_ratio()
        for t in grid
    ]


def _check_span(v_end, step) -> None:
    for name, val in (("v_end", v_end), ("step", step)):
        if not math.isfinite(val):
            raise InputError(f"{name} must be finite")
    if step <= 0:
        raise InputError("step must be positive")
    if v_end <= 0:
        raise InputError("v_end must be positive")
    # also catches an infinite quotient, which round() would refuse
    if not v_end / step < MAX_STEPS + 0.5:
        raise InputError(f"v_end / step asks for more than {MAX_STEPS} steps")


def _half_grid(v_end: float, step: float):
    """Uniform grid with midpoints, ending exactly at v_end; callers bound
    the step count with _check_span first."""
    n = max(1, round(v_end / step))
    h2 = (v_end / n) / 2
    grid = [j * h2 for j in range(2 * n + 1)]
    grid[-1] = float(v_end)
    return tuple(grid)


@dataclass(frozen=True)
class ConnectingState:
    """Components (eta, zeta, zeta~, nu) in the frame basis l, m~, m, n."""

    eta: float
    zeta: float
    zeta_t: float
    nu: float

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.eta, self.zeta, self.zeta_t, self.nu)


def _as_state(v) -> ConnectingState:
    if not isinstance(v, ConnectingState):
        comps = tuple(v)
        if len(comps) != 4:
            raise InputError("a connecting state needs four components")
        v = ConnectingState(*(float(c) for c in comps))
    if not all(math.isfinite(c) for c in v.astuple()):
        raise InputError("nonfinite connecting-state component")
    return v


@dataclass(frozen=True)
class CoefficientTrace:
    """Double-precision coefficient samples along one integral curve."""

    grid: tuple
    values: dict

    def __post_init__(self):
        if set(self.values) != set(TRACE_KEYS):
            raise InputError(f"trace must carry exactly the keys {TRACE_KEYS}")
        npts = len(self.grid)
        if npts < 3 or npts % 2 == 0:
            raise InputError("trace grid must hold an odd number (>= 3) of samples")
        for left, right in zip(self.grid, self.grid[1:]):
            if not right > left:
                raise InputError("trace grid must be strictly increasing")
        for key, samples in self.values.items():
            if len(samples) != npts:
                raise InputError(f"trace column {key!r} does not match the grid")
            if not all(math.isfinite(s) for s in samples):
                raise InputError(f"nonfinite sample in trace column {key!r}")

    @classmethod
    def from_metric(cls, w: WalkerMetric, base, grid) -> "CoefficientTrace":
        return cls.from_frame(Frame.walker(w), base, grid)

    @classmethod
    def from_frame(cls, frame: Frame, base, grid) -> "CoefficientTrace":
        s = frame.coeffs
        # parallel-dyad transport data: these vanish for the frames built
        # here, and the transport matrix below silently assumes it
        for name in ("epsilon", "tau_p", "epsilon_t", "tau_tp"):
            if not s.get(name).is_zero:
                raise InternalInconsistencyError(f"{name} nonzero on a canonical frame")
        if not (s.gamma_p + s.gamma_tp).is_zero:
            raise InternalInconsistencyError("gamma' + gamma~' nonzero on a canonical frame")
        combos = {
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
        values = _sample_columns(combos, base, grid)
        return cls(grid=tuple(float(t) for t in grid), values=values)

    @classmethod
    def constant(cls, values, v_end: float, step: float) -> "CoefficientTrace":
        unknown = sorted(set(values) - set(TRACE_KEYS))
        if unknown:
            raise InputError(f"unknown trace keys: {unknown}")
        _check_span(v_end, step)
        grid = _half_grid(v_end, step)
        cols = {k: (float(values.get(k, 0.0)),) * len(grid) for k in TRACE_KEYS}
        return cls(grid=grid, values=cols)


@dataclass(frozen=True)
class ConnectingPath:
    grid: tuple
    states: tuple
    trace: CoefficientTrace


@dataclass(frozen=True)
class JacobiPath:
    grid: tuple
    states: tuple
    derivatives: tuple
    trace: CoefficientTrace


@dataclass(frozen=True)
class PropagationMatrices:
    """Transport and curvature matrices evaluated at one point."""

    m: tuple
    p: tuple
    n: tuple
    q: tuple
    point: tuple


def _transport_row_data(tr: CoefficientTrace, j: int):
    v = tr.values
    return (
        (0.0, v["aplus"][j], v["atplus"][j], v["gplus"][j]),
        (0.0, v["rho"][j], v["sigma"][j], v["tau"][j]),
        (0.0, v["sigma_t"][j], v["rho_t"][j], v["tau_t"][j]),
        (0.0, -v["kappa_t"][j], -v["kappa"][j], 0.0),
    )


def _matvec(m, z):
    return [sum(m[i][k] * z[k] for k in range(len(z))) for i in range(len(m))]


def _check_midpoints(grid) -> None:
    for k in range(0, len(grid) - 2, 2):
        t0, tm, t1 = grid[k], grid[k + 1], grid[k + 2]
        if abs(tm - (t0 + t1) / 2) > 1e-9 * (abs(t1 - t0) + 1.0):
            raise InputError("trace grid must sample step midpoints")


def integrate_connecting(
    source, V0, v_end=None, step=None, base=(0, 0, 0, 0)
) -> ConnectingPath:
    """Fourth-order fixed-step propagation of a connecting state.

    `source` is either a metric (the trace is built by exact sampling
    along the curve through `base`) or a prebuilt CoefficientTrace.
    """
    state0 = _as_state(V0)
    if isinstance(source, WalkerMetric):
        if v_end is None or step is None:
            raise InputError("v_end and step are required with a metric source")
        _check_span(v_end, step)
        trace = CoefficientTrace.from_metric(source, base, _half_grid(v_end, step))
    elif isinstance(source, CoefficientTrace):
        trace = source
    else:
        raise InputError("source must be a WalkerMetric or a CoefficientTrace")
    _check_midpoints(trace.grid)

    # zero last transport row: nu admits no forcing and is pinned exactly
    auto_parallel = all(x == 0.0 for x in trace.values["kappa"]) and all(
        x == 0.0 for x in trace.values["kappa_t"]
    )
    z = list(state0.astuple())
    states = [state0]
    grid = trace.grid
    for k in range(0, len(grid) - 2, 2):
        h = grid[k + 2] - grid[k]
        m0 = _transport_row_data(trace, k)
        mm = _transport_row_data(trace, k + 1)
        m1 = _transport_row_data(trace, k + 2)
        k1 = _matvec(m0, z)
        k2 = _matvec(mm, [z[i] + 0.5 * h * k1[i] for i in range(4)])
        k3 = _matvec(mm, [z[i] + 0.5 * h * k2[i] for i in range(4)])
        k4 = _matvec(m1, [z[i] + h * k3[i] for i in range(4)])
        z = [z[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(4)]
        if auto_parallel:
            z[3] = state0.nu
        if not all(math.isfinite(c) for c in z):
            raise InputError("integration produced nonfinite values")
        states.append(ConnectingState(*z))
    return ConnectingPath(grid=grid[::2], states=tuple(states), trace=trace)


def connecting_oracle(w: WalkerMetric, base, V0, ts) -> tuple[ConnectingState, ...]:
    """Closed-form connecting states at each curve parameter in `ts`.

    The last two components are constant and the first two integrate
    metric-function differences exactly: as polynomials,
    eta = eta0 + ((c(base) - c) zeta~0 + (a - a(base)) nu0) / 2 and
    zeta = zeta0 + ((b(base) - b) zeta~0 + (c - c(base)) nu0) / 2,
    each restricted to the curve once and rounded once per parameter.
    """
    s0 = _as_state(V0)
    pt0 = _point(base)
    a0, b0, c0 = (f.eval_at(pt0) for f in (w.a, w.b, w.c))
    zt0 = Fraction(s0.zeta_t)
    nu0 = Fraction(s0.nu)
    eta = Fraction(s0.eta) + ((c0 - w.c) * zt0 + (w.a - a0) * nu0) * HALF
    zeta = Fraction(s0.zeta) + ((b0 - w.b) * zt0 + (w.c - c0) * nu0) * HALF
    ratios = _ratios(ts)
    etas = _curve_floats(eta.along_u(pt0), ratios, "eta")
    zetas = _curve_floats(zeta.along_u(pt0), ratios, "zeta")
    return tuple(ConnectingState(e, z, s0.zeta_t, s0.nu) for e, z in zip(etas, zetas))


def _curvature_columns(curv: CurvatureSpinors) -> dict[str, RationalFunction]:
    psi1c = curv.Psi1 + curv.Phi[0][1]
    psit1c = curv.PsiT1 + curv.Phi[1][0]
    return {
        "n01": -psit1c,
        "n02": -psi1c,
        "n03": 2 * curv.Lambda - 2 * curv.Phi[1][1] - curv.Psi2 - curv.PsiT2,
        "n11": curv.Phi[0][0],
        "n12": curv.Psi0,
        "n13": psi1c,
        "n21": curv.PsiT0,
        "n22": curv.Phi[0][0],
        "n23": psit1c,
    }


def _transport_matrix(s: SpinCoefficientSet):
    zero = s.rho - s.rho
    return (
        (zero, s.alpha + s.beta_t, s.alpha_t + s.beta, s.gamma + s.gamma_t),
        (zero, s.rho, s.sigma, s.tau),
        (zero, s.sigma_t, s.rho_t, s.tau_t),
        (zero, -1 * s.kappa_t, -1 * s.kappa, zero),
    )


def _curvature_matrix_sym(curv: CurvatureSpinors):
    c = _curvature_columns(curv)
    zero = curv.Psi0 - curv.Psi0
    return (
        (zero, c["n01"], c["n02"], c["n03"]),
        (zero, c["n11"], c["n12"], c["n13"]),
        (zero, c["n21"], c["n22"], c["n23"]),
        (zero, zero, zero, zero),
    )


def _curve_floats(curve, ratios, name) -> tuple[float, ...]:
    try:
        return curve.floats(ratios)
    except OverflowError as exc:
        raise InputError(f"{name} overflows a float along the curve") from exc


def _sample_columns(columns, base, grid) -> dict[str, tuple[float, ...]]:
    """Float samples of each column at every grid parameter along the curve
    through `base`.  Canonical-frame columns are polynomials; each is
    restricted to the curve once and evaluated exactly per sample."""
    pt0 = _point(base)
    ratios = _ratios(grid)
    out = {}
    for key, rf in columns.items():
        if not rf.is_polynomial:
            raise InternalInconsistencyError(f"{key} not polynomial on a canonical frame")
        out[key] = _curve_floats(rf.num.along_u(pt0), ratios, key)
    return out


def _curvature_row_data(samples, j):
    return (
        (0.0, samples["n01"][j], samples["n02"][j], samples["n03"][j]),
        (0.0, samples["n11"][j], samples["n12"][j], samples["n13"][j]),
        (0.0, samples["n21"][j], samples["n22"][j], samples["n23"][j]),
        (0.0, 0.0, 0.0, 0.0),
    )


def integrate_jacobi(
    w: WalkerMetric, V0, V0p, v_end, step, base=(0, 0, 0, 0)
) -> JacobiPath:
    """Second-order deviation system integrated as an 8-dimensional
    first-order one; returns states and their parameter derivatives."""
    z0 = _as_state(V0)
    y0 = _as_state(V0p)
    _check_span(v_end, step)
    grid = _half_grid(v_end, step)
    an = Analysis(w)
    trace = CoefficientTrace.from_frame(an.frame, base, grid)
    samples = _sample_columns(_curvature_columns(an.curvature), base, grid)

    z = list(z0.astuple())
    y = list(y0.astuple())
    states = [z0]
    derivs = [y0]
    for k in range(0, len(grid) - 2, 2):
        h = grid[k + 2] - grid[k]
        n0 = _curvature_row_data(samples, k)
        nm = _curvature_row_data(samples, k + 1)
        n1 = _curvature_row_data(samples, k + 2)
        k1z, k1y = y, [-v for v in _matvec(n0, z)]
        za = [z[i] + 0.5 * h * k1z[i] for i in range(4)]
        ya = [y[i] + 0.5 * h * k1y[i] for i in range(4)]
        k2z, k2y = ya, [-v for v in _matvec(nm, za)]
        zb = [z[i] + 0.5 * h * k2z[i] for i in range(4)]
        yb = [y[i] + 0.5 * h * k2y[i] for i in range(4)]
        k3z, k3y = yb, [-v for v in _matvec(nm, zb)]
        zc = [z[i] + h * k3z[i] for i in range(4)]
        yc = [y[i] + h * k3y[i] for i in range(4)]
        k4z, k4y = yc, [-v for v in _matvec(n1, zc)]
        z = [
            z[i] + h / 6 * (k1z[i] + 2 * k2z[i] + 2 * k3z[i] + k4z[i])
            for i in range(4)
        ]
        y = [
            y[i] + h / 6 * (k1y[i] + 2 * k2y[i] + 2 * k3y[i] + k4y[i])
            for i in range(4)
        ]
        if not all(math.isfinite(c) for c in z + y):
            raise InputError("integration produced nonfinite values")
        states.append(ConnectingState(*z))
        derivs.append(ConnectingState(*y))
    return JacobiPath(
        grid=grid[::2], states=tuple(states), derivatives=tuple(derivs), trace=trace
    )


def propagation_matrices(w: WalkerMetric, point) -> PropagationMatrices:
    """All four matrices of the transport/deviation systems at one point."""
    pt = _point(point)
    an = Analysis(w)
    s, curv = an.frame.coeffs, an.curvature
    ev = lambda rf: float(rf.eval_at(pt))
    m = tuple(tuple(ev(e) for e in row) for row in _transport_matrix(s))
    p = ((ev(s.rho), ev(s.sigma)), (ev(s.sigma_t), ev(s.rho_t)))
    if p != ((m[1][1], m[1][2]), (m[2][1], m[2][2])):
        raise InternalInconsistencyError("screen block disagrees with transport matrix")
    n = tuple(tuple(ev(e) for e in row) for row in _curvature_matrix_sym(curv))
    q = ((ev(curv.Phi[0][0]), ev(curv.Psi0)), (ev(curv.PsiT0), ev(curv.Phi[0][0])))
    if q != ((n[1][1], n[1][2]), (n[2][1], n[2][2])):
        raise InternalInconsistencyError("screen curvature block disagrees")
    return PropagationMatrices(m=m, p=p, n=n, q=q, point=tuple(float(c) for c in pt))


@dataclass(frozen=True)
class RiccatiReport:
    m_residual: tuple
    p_residual: tuple
    m_sample: tuple | None
    p_sample: tuple | None

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.m_residual for e in row) and all(
            e.is_zero for row in self.p_residual for e in row
        )


def riccati_residual(w: WalkerMetric, base=None, v=None) -> RiccatiReport:
    """Exact residual of the matrix transport closures: the parameter
    derivative of each matrix plus its square plus the curvature matrix."""
    an = Analysis(w)
    s, curv = an.frame.coeffs, an.curvature
    zero = s.rho - s.rho
    m = _transport_matrix(s)
    n = _curvature_matrix_sym(curv)
    # the derivative along the congruence is the first-coordinate partial
    m_res = tuple(
        tuple(
            m[i][j].diff("u") + sum((m[i][k] * m[k][j] for k in range(4)), zero) + n[i][j]
            for j in range(4)
        )
        for i in range(4)
    )
    p = ((s.rho, s.sigma), (s.sigma_t, s.rho_t))
    q = ((curv.Phi[0][0], curv.Psi0), (curv.PsiT0, curv.Phi[0][0]))
    p_res = tuple(
        tuple(
            p[i][j].diff("u") + sum((p[i][k] * p[k][j] for k in range(2)), zero) + q[i][j]
            for j in range(2)
        )
        for i in range(2)
    )
    m_sample = p_sample = None
    if base is not None and v is not None:
        pt = _curve_point(_point(base), v)
        m_sample = tuple(tuple(float(e.eval_at(pt)) for e in row) for row in m_res)
        p_sample = tuple(tuple(float(e.eval_at(pt)) for e in row) for row in p_res)
    return RiccatiReport(m_res, p_res, m_sample, p_sample)


def _fraction_matrix(m0):
    rows = [tuple(_fraction(x) for x in row) for row in m0]
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise InputError("matrix must be square")
    return rows, size


def _invert(rows, size):
    aug = [list(rows[i]) + [Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def curvature_free_solution(m0, v):
    """Closed-form propagated matrix when the curvature matrix vanishes:
    M(v) = M0 (M0 v + 1)^-1, in exact rational arithmetic."""
    rows, size = _fraction_matrix(m0)
    vf = _fraction(v)
    shifted = [
        [vf * rows[i][j] + (1 if i == j else 0) for j in range(size)]
        for i in range(size)
    ]
    inverse = _invert(shifted, size)
    if inverse is None:
        raise CausticError(v)
    out = tuple(
        tuple(sum(rows[i][k] * inverse[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )
    if size == 2:
        # scalar cross-check on the top-left entry
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        den = 1 + vf * (rows[0][0] + rows[1][1]) + vf * vf * det
        if out[0][0] != (rows[0][0] + vf * det) / den:
            raise InternalInconsistencyError("scalar flow disagrees with matrix flow")
    return out


def _pattern_violation(kind: str, tr: CoefficientTrace) -> str | None:
    v = tr.values
    zero = lambda key: all(x == 0.0 for x in v[key])
    if kind == "dilation":
        if not zero("sigma") or not zero("sigma_t"):
            return "sigma and sigma~ must vanish"
        if v["rho"] != v["rho_t"]:
            return "rho must equal rho~"
    elif kind == "rotation":
        if not zero("rho") or not zero("rho_t"):
            return "rho and rho~ must vanish"
        if any(st != -s for s, st in zip(v["sigma"], v["sigma_t"])):
            return "sigma~ must equal -sigma"
    elif kind == "boost":
        if not zero("rho") or not zero("rho_t"):
            return "rho and rho~ must vanish"
        if v["sigma"] != v["sigma_t"]:
            return "sigma~ must equal sigma"
    else:
        if not zero("sigma") or not zero("sigma_t"):
            return "sigma and sigma~ must vanish"
    return None


def special_flows(kind: str, integrals, X0, trace: CoefficientTrace | None = None):
    """Closed-form screen flow for one of the special coefficient patterns.

    `integrals` is the accumulated coefficient integral: a single number
    except for the inverse-scale pattern, which takes one per diagonal.
    """
    if kind not in FLOW_KINDS:
        raise InputError(f"unknown flow kind {kind!r}; expected one of {FLOW_KINDS}")
    x0 = tuple(float(x) for x in X0)
    if len(x0) != 2 or not all(math.isfinite(x) for x in x0):
        raise InputError("X0 must be two finite screen components")
    if trace is not None:
        violation = _pattern_violation(kind, trace)
        if violation is not None:
            raise PatternError(f"{kind} pattern violated: {violation}")
    if kind == "inverse-scale":
        try:
            ir, irt = (float(x) for x in integrals)
        except (TypeError, ValueError) as exc:
            raise InputError("inverse-scale needs a pair of integrals") from exc
        return (math.exp(ir) * x0[0], math.exp(irt) * x0[1])
    t = float(integrals)
    if kind == "dilation":
        scale = math.exp(t)
        return (scale * x0[0], scale * x0[1])
    if kind == "rotation":
        cos_t, sin_t = math.cos(t), math.sin(t)
        return (cos_t * x0[0] - sin_t * x0[1], sin_t * x0[0] + cos_t * x0[1])
    cosh_t, sinh_t = math.cosh(t), math.sinh(t)
    return (cosh_t * x0[0] + sinh_t * x0[1], sinh_t * x0[0] + cosh_t * x0[1])


@dataclass(frozen=True)
class SigmaOmega:
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


@dataclass(frozen=True)
class ShapeReport:
    """Additive decomposition of the screen shape data at a point."""

    p_matrix: tuple
    dilation: tuple
    shear: tuple
    rotation: tuple
    boost: tuple
    eigenvalues: tuple
    divergence: object
    skew_square: object
    sym_square: object
    t_matrix: tuple
    t_shear: tuple
    t_trace_coeff: object
    t_skew_coeff: object


def shape_decompositions(rho, rho_t, sigma, sigma_t) -> ShapeReport:
    vals = (rho, rho_t, sigma, sigma_t)
    if any(isinstance(x, float) for x in vals):
        rho, rho_t, sigma, sigma_t = (float(x) for x in vals)
        half = 0.5
        close = lambda x, y: abs(x - y) <= 1e-12 * (abs(x) + abs(y) + 1.0)
    else:
        rho, rho_t, sigma, sigma_t = (_fraction(x) for x in vals)
        half = Fraction(1, 2)
        close = lambda x, y: x == y

    p = ((rho, sigma), (sigma_t, rho_t))
    d = half * (rho + rho_t)
    s = half * (rho - rho_t)
    i = half * (sigma_t - sigma)
    hc = half * (sigma_t + sigma)
    dilation = ((d, 0 * d), (0 * d, d))
    shear = ((s, 0 * s), (0 * s, -s))
    rot = ((0 * i, -i), (i, 0 * i))
    boost = ((0 * hc, hc), (hc, 0 * hc))
    for a in range(2):
        for b in range(2):
            total = dilation[a][b] + shear[a][b] + rot[a][b] + boost[a][b]
            if not close(total, p[a][b]):
                raise InternalInconsistencyError("shape parts do not rebuild the matrix")

    trace = float(rho + rho_t)
    disc = float((rho - rho_t) * (rho - rho_t) + 4 * sigma * sigma_t)
    if disc >= 0:
        root = math.sqrt(disc)
        eigenvalues = ((trace - root) / 2, (trace + root) / 2)
    else:
        root = math.sqrt(-disc)
        eigenvalues = (complex(trace, -root) / 2, complex(trace, root) / 2)

    divergence = rho + rho_t
    skew_square = -half * (rho - rho_t) * (rho - rho_t)
    sym_square = 2 * sigma * sigma_t + half * (rho + rho_t) * (rho + rho_t)

    t_matrix = ((-sigma_t, -rho), (-rho_t, -sigma))
    t_shear = ((-sigma_t, 0 * sigma), (0 * sigma, -sigma))
    t_trace = half * (rho + rho_t)
    t_skew = half * (rho_t - rho)
    h_mat = ((0, -1), (-1, 0))
    omega_mat = ((0, 1), (-1, 0))
    for a in range(2):
        for b in range(2):
            total = t_shear[a][b] + t_trace * h_mat[a][b] + t_skew * omega_mat[a][b]
            if not close(total, t_matrix[a][b]):
                raise InternalInconsistencyError("shape parts do not rebuild the matrix")

    return ShapeReport(
        p_matrix=p,
        dilation=dilation,
        shear=shear,
        rotation=rot,
        boost=boost,
        eigenvalues=eigenvalues,
        divergence=divergence,
        skew_square=skew_square,
        sym_square=sym_square,
        t_matrix=t_matrix,
        t_shear=t_shear,
        t_trace_coeff=t_trace,
        t_skew_coeff=t_skew,
    )


def write_trace_csv(path, stream) -> None:
    """One row per accepted step; floats printed in shortest
    round-trip form so identical runs give identical bytes."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    tr = path.trace.values
    for k, t in enumerate(path.grid):
        st = path.states[k]
        j = 2 * k
        writer.writerow(
            repr(float(x))
            for x in (
                t,
                st.eta,
                st.zeta,
                st.zeta_t,
                st.nu,
                tr["rho"][j],
                tr["rho_t"][j],
                tr["sigma"][j],
                tr["sigma_t"][j],
            )
        )
