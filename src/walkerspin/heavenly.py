"""Metrics built from a scalar potential with a prescribed derivative
chain, and the exact identities tying the potential to curvature.

Derivative subscripts in names follow the coordinate order u, v, x, y:
theta_12 is the mixed u,v second derivative, F_4 the y derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .curvature import Analysis
from .errors import InputError, InternalInconsistencyError
from .poly import HALF, ONE, QUARTER, Poly, RationalFunction, VARIABLES, ZERO
from .walker import WalkerMetric, aligned_ricci_residuals

_U = Poly.parse("u")
_V = Poly.parse("v")
_UUVV = Poly.parse("u^2*v^2")

# which coordinates each chain function may depend on
_ALLOWED = {
    "theta": ("u", "v", "x", "y"),
    "f": ("u", "x", "y"),
    "g": ("v", "x", "y"),
    "F": ("u", "x", "y"),
    "G": ("v", "x", "y"),
    "h": ("x", "y"),
}


def _d(p: Poly, *vars: str) -> Poly:
    for var in vars:
        p = p.diff(var)
    return p


def _depends_on(p: Poly, var: str) -> bool:
    return not p.diff(var).is_zero


def _as_poly(rf: RationalFunction) -> Poly:
    if rf.den != ONE:
        raise InternalInconsistencyError("expected a polynomial curvature component")
    return rf.num


@dataclass(frozen=True)
class HeavenlyPotential:
    """Scalar potential with its derivative-chain companions."""

    theta: Poly
    f: Poly = ZERO
    g: Poly = ZERO
    F: Poly = ZERO
    G: Poly = ZERO
    h: Poly = ZERO
    label: str = ""

    @classmethod
    def from_dict(cls, data) -> "HeavenlyPotential":
        if not isinstance(data, dict):
            raise InputError("potential specification must be a JSON object")
        missing = [k for k in _ALLOWED if k not in data]
        if missing:
            raise InputError(f"potential specification missing keys: {missing}")
        unknown = sorted(set(data) - set(_ALLOWED) - {"label"})
        if unknown:
            raise InputError(f"potential specification has unknown keys: {unknown}")
        parsed = {}
        for key in _ALLOWED:
            text = data[key]
            if not isinstance(text, str):
                raise InputError(f"potential field {key!r} must be a string")
            try:
                parsed[key] = Poly.parse(text)
            except ValueError as err:
                raise InputError(f"bad polynomial for {key!r}: {err}") from err
        label = data.get("label", "")
        if not isinstance(label, str):
            raise InputError("label must be a string")
        return cls(
            theta=parsed["theta"],
            f=parsed["f"],
            g=parsed["g"],
            F=parsed["F"],
            G=parsed["G"],
            h=parsed["h"],
            label=label,
        )

    # the layers every check reads, each built once per potential
    @cached_property
    def metric(self) -> WalkerMetric:
        return build_metric(self)

    @cached_property
    def analysis(self) -> Analysis:
        return Analysis(self.metric)

    @cached_property
    def scalars(self) -> HeavenlyInvariants:
        return invariants(self)


@dataclass(frozen=True)
class PotentialReport:
    """Validation outcome; residuals are polynomials, zero when satisfied."""

    chain_residuals: dict
    dependence_violations: tuple

    @property
    def is_valid(self) -> bool:
        return not self.dependence_violations and all(
            r == ZERO for r in self.chain_residuals.values()
        )

    def problems(self) -> list[str]:
        out = [
            f"{key} = {res}" for key, res in self.chain_residuals.items() if res != ZERO
        ]
        out.extend(self.dependence_violations)
        return out


def validate_potential(p: HeavenlyPotential) -> PotentialReport:
    """Check the derivative chain and the declared variable dependence.

    Violations are reported, never raised: callers that need a hard
    gate use build_metric.
    """
    residuals = {
        "f_u - h": p.f.diff("u") - p.h,
        "g_v - h": p.g.diff("v") - p.h,
        "F_u - f": p.F.diff("u") - p.f,
        "G_v - g": p.G.diff("v") - p.g,
    }
    violations = []
    for name, allowed in _ALLOWED.items():
        poly = getattr(p, name)
        for var in VARIABLES:
            if var not in allowed and _depends_on(poly, var):
                violations.append(f"{name} may not depend on {var}")
    return PotentialReport(
        chain_residuals=residuals, dependence_violations=tuple(violations)
    )


def build_metric(p: HeavenlyPotential) -> WalkerMetric:
    """Metric functions from the potential; the output always satisfies
    the aligned-Ricci coordinate conditions, which are re-verified here."""
    report = validate_potential(p)
    if not report.is_valid:
        raise InputError("invalid potential: " + "; ".join(report.problems()))
    a = -2 * _d(p.theta, "v", "v") + p.F
    b = -2 * _d(p.theta, "u", "u") + p.G
    c = 2 * _d(p.theta, "u", "v")
    w = WalkerMetric(a=a, b=b, c=c, label=p.label)
    for name, res in aligned_ricci_residuals(w).items():
        if res != ZERO:
            raise InternalInconsistencyError(f"built metric violates {name}")
    return w


def wave_operator(w: WalkerMetric, H: Poly) -> Poly:
    """Second-order operator attached to the metric, acting on functions."""
    return (
        -w.a * _d(H, "u", "u")
        - 2 * w.c * _d(H, "u", "v")
        - w.b * _d(H, "v", "v")
        + 2 * _d(H, "u", "x")
        + 2 * _d(H, "v", "y")
        - (w.a.diff("u") + w.c.diff("v")) * H.diff("u")
        - (w.b.diff("v") + w.c.diff("u")) * H.diff("v")
    )


@dataclass(frozen=True)
class HeavenlyInvariants:
    S: Poly
    B_plus_Sc: Poly
    P: Poly
    Q: Poly
    T: Poly
    R: Poly
    A: tuple


def invariants(p: HeavenlyPotential) -> HeavenlyInvariants:
    """The scalar building blocks of the curvature of the built metric."""
    w = p.metric
    s_metric = (
        _d(w.a, "u", "u") + _d(w.b, "v", "v") + 2 * _d(w.c, "u", "v")
    )
    s_val = 2 * p.h
    if s_metric != s_val:
        raise InternalInconsistencyError("scalar curvature disagrees with 2h")
    big_p = (
        _d(p.theta, "u", "x")
        + _d(p.theta, "v", "y")
        + _d(p.theta, "u", "u") * _d(p.theta, "v", "v")
        - _d(p.theta, "u", "v") * _d(p.theta, "u", "v")
    )
    big_q = HALF * (
        p.g * p.theta.diff("v")
        - p.G * _d(p.theta, "v", "v")
        + p.f * p.theta.diff("u")
        - p.F * _d(p.theta, "u", "u")
        - p.h * p.theta
    )
    big_t = -QUARTER * (_V * p.F.diff("y") + _U * p.G.diff("x"))
    big_r = big_p + big_q + big_t
    pq = big_p + big_q
    a_pair = (_d(pq, "u", "u"), _d(big_r, "u", "v"), _d(pq, "v", "v"))
    return HeavenlyInvariants(
        S=s_val,
        B_plus_Sc=2 * (p.f.diff("y") - p.g.diff("x")),
        P=big_p,
        Q=big_q,
        T=big_t,
        R=big_r,
        A=a_pair,
    )


def master_identity_residual(p: HeavenlyPotential) -> Poly:
    """Difference of the two routes to the deepest scalar identity: the
    curvature side (recovered from the quartic components) minus the
    potential side (derivatives of the chain data). Identically zero."""
    w = p.metric
    curv = p.analysis.curvature
    # the paper's A - 6*B*c - S*(3*c^2 - 1), with A and B expanded in PsiT3,
    # PsiT4 and S, is exactly -24*PsiT4
    lhs = -24 * _as_poly(curv.PsiT4)

    big_r = p.scalars.R
    f4 = p.f.diff("y")
    g3 = p.g.diff("x")
    rhs = (
        12 * wave_operator(w, big_r)
        + 24 * p.f * big_r.diff("u")
        + 24 * p.g * big_r.diff("v")
        - 3 * (p.f * p.G.diff("x") + p.g * p.F.diff("y"))
        - 6 * (_d(p.F, "y", "y") + _d(p.G, "x", "x"))
        + 3 * (_V * p.f * f4 + _U * p.g * g3)
        + 6 * (_V * _d(p.f, "x", "y") + _U * _d(p.g, "x", "y"))
        - 3 * _V * p.h.diff("y") * (p.F - 2 * _d(p.theta, "v", "v"))
        - 3 * _U * p.h.diff("x") * (p.G - 2 * _d(p.theta, "u", "u"))
    )
    return lhs - rhs


def psi_components(p: HeavenlyPotential) -> tuple:
    """The unprimed quartic components, by two routes.

    The metric route reads second derivatives of the built metric
    functions; the operator route applies four parameter derivatives to
    a shifted potential. Both are computed and compared.
    """
    w = p.metric
    sixth = Fraction(1, 6)
    direct = (
        HALF * _d(w.b, "u", "u"),
        HALF * _d(w.b, "u", "v"),
        sixth * (_d(w.b, "v", "v") - 2 * _d(w.c, "u", "v")),
        HALF * _d(w.a, "u", "v"),
        HALF * _d(w.a, "v", "v"),
    )
    shifted = p.theta - Fraction(1, 24) * _UUVV * p.h
    operator = tuple(
        -1 * _d(shifted, *(["u"] * (4 - m) + ["v"] * m)) for m in range(5)
    )
    if direct != operator:
        raise InternalInconsistencyError("quartic component routes disagree")
    return direct


def _require_scalar_flat(p: HeavenlyPotential) -> WalkerMetric:
    if p.h != ZERO:
        raise InputError("scalar-flat analysis requires h = 0")
    if _depends_on(p.f, "u") or _depends_on(p.g, "v"):
        raise InputError("scalar-flat analysis requires f, g free of u, v")
    if p.F != _U * p.f or p.G != _V * p.g:
        raise InputError("scalar-flat analysis requires F = u f and G = v g")
    return p.metric


@dataclass(frozen=True)
class ScalarFlatReport:
    psi_t3: Poly
    psi_t4: Poly
    A: tuple
    label: str


def scalar_flat_case(p: HeavenlyPotential) -> ScalarFlatReport:
    """Surviving primed-quartic components and mixed curvature for the
    vanishing-scalar specialization, with the generic type label."""
    w = _require_scalar_flat(p)
    f4 = p.f.diff("y")
    g3 = p.g.diff("x")
    psi_t3 = QUARTER * (g3 - f4)

    inv = p.scalars
    big_r = inv.R
    diff = f4 - g3
    psi_t4 = (
        -HALF * wave_operator(w, big_r)
        - p.f * big_r.diff("u")
        - p.g * big_r.diff("v")
        + Fraction(1, 8) * (_U * p.g - _V * p.f) * diff
        + QUARTER * (_U * diff.diff("y") - _V * diff.diff("x"))
    )

    curv = p.analysis.curvature
    if _as_poly(curv.PsiT3) != psi_t3 or _as_poly(curv.PsiT4) != psi_t4:
        raise InternalInconsistencyError("scalar-flat quartic routes disagree")

    a_pair = (_d(big_r, "u", "u"), _d(big_r, "u", "v"), _d(big_r, "v", "v"))
    if a_pair != inv.A:
        raise InternalInconsistencyError("mixed-curvature routes disagree")

    big_b = -8 * psi_t3
    big_a = 6 * big_b * w.c - 24 * psi_t4
    if big_b != ZERO:
        label = "{31}III"
    elif big_a != ZERO:
        label = "{4}II"
    else:
        label = "SD-flat"
    return ScalarFlatReport(psi_t3=psi_t3, psi_t4=psi_t4, A=a_pair, label=label)


@dataclass(frozen=True)
class EinsteinReport:
    einstein: bool
    residuals: dict
    R: Poly


def einstein_check(p: HeavenlyPotential) -> EinsteinReport:
    """Affine-in-parameters test on the scalar R, cross-checked against
    the vanishing of the mixed curvature of the built metric."""
    _require_scalar_flat(p)
    big_r = p.scalars.R
    residuals = {
        "R_uu": _d(big_r, "u", "u"),
        "R_uv": _d(big_r, "u", "v"),
        "R_vv": _d(big_r, "v", "v"),
    }
    verdict = all(res == ZERO for res in residuals.values())

    curv = p.analysis.curvature
    tensor_flat = all(
        curv.Phi[i][k].is_zero for i in range(3) for k in range(3)
    ) and curv.Lambda.is_zero
    if verdict != tensor_flat:
        raise InternalInconsistencyError("affine test disagrees with curvature")
    return EinsteinReport(einstein=verdict, residuals=residuals, R=big_r)
