"""Curvature of Walker metrics: tensor route, coefficient route, and the
field-equation and commutator residuals connecting them.

The coefficient route computes every curvature dyad component from first
derivatives of the 32 connection scalars; the tensor route goes through
Christoffel symbols and the Ricci tensor.  Wherever a quantity is
expressible both ways the two are compared and a disagreement raises
InternalInconsistencyError, so a passing run certifies the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InputError, InternalInconsistencyError
from .poly import HALF, ONE, RF_ZERO, Poly, RationalFunction, as_rf
from .spincoeff import (
    Frame,
    prime,
    priming_companion_tetrad,
    tilde_companion_tetrad,
    tilde_relabel,
)
from .walker import (
    COORDS,
    Christoffel,
    DirectionalOps,
    MetricTensor,
    Tetrad,
    WalkerMetric,
)

THIRD = Fraction(1, 3)

# ---------------------------------------------------------------------------
# Tensor route.
# ---------------------------------------------------------------------------


def ricci_tensor(ch: Christoffel):
    """Ricci tensor from the connection alone, no rank-four intermediate."""
    g = ch.gamma
    out = []
    for b in range(4):
        row = []
        for d in range(4):
            entry = Poly.zero()
            for a in range(4):
                entry = entry + g[a][d][b].diff(COORDS[a]) - g[a][a][b].diff(COORDS[d])
                for e in range(4):
                    entry = entry + g[a][a][e] * g[e][d][b] - g[a][d][e] * g[e][a][b]
            row.append(entry)
        out.append(tuple(row))
    return tuple(out)


def scalar_curvature(mt: MetricTensor, ricci) -> Poly:
    total = Poly.zero()
    for b in range(4):
        for d in range(4):
            total = total + mt.ginv[b][d] * ricci[b][d]
    return total


@dataclass(frozen=True)
class RiemannData:
    """Fully lowered curvature tensor with its traces."""

    lowered: tuple   # R_abcd
    ricci: tuple     # R_bd
    scalar: Poly


def riemann(mt: MetricTensor, ch: Christoffel) -> RiemannData:
    g = ch.gamma
    up = [[[[Poly.zero() for _ in range(4)] for _ in range(4)] for _ in range(4)]
          for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(c + 1, 4):
                    entry = g[a][d][b].diff(COORDS[c]) - g[a][c][b].diff(COORDS[d])
                    for e in range(4):
                        entry = entry + g[a][c][e] * g[e][d][b] - g[a][d][e] * g[e][c][b]
                    up[a][b][c][d] = entry
                    up[a][b][d][c] = -entry
    lowered = tuple(
        tuple(
            tuple(
                tuple(
                    sum(
                        (mt.g[a][e] * up[e][b][c][d] for e in range(4)),
                        Poly.zero(),
                    )
                    for d in range(4)
                )
                for c in range(4)
            )
            for b in range(4)
        )
        for a in range(4)
    )
    traced = tuple(
        tuple(
            sum((up[a][b][a][d] for a in range(4)), Poly.zero()) for d in range(4)
        )
        for b in range(4)
    )
    direct = ricci_tensor(ch)
    for b in range(4):
        for d in range(4):
            if traced[b][d] != direct[b][d]:
                raise InternalInconsistencyError(
                    "Ricci trace of the curvature tensor disagrees with the "
                    "direct contraction formula"
                )
    return RiemannData(lowered=lowered, ricci=direct,
                       scalar=scalar_curvature(mt, direct))


def bianchi_contracted_residual(mt: MetricTensor, ch: Christoffel, ricci, scalar):
    """Components of div(Ricci) - grad(scalar)/2; identically zero."""
    g = ch.gamma
    nabla = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                entry = ricci[b][c].diff(COORDS[a])
                for d in range(4):
                    entry = entry - g[d][a][b] * ricci[d][c] - g[d][a][c] * ricci[b][d]
                nabla[a][b][c] = entry
    out = []
    for b in range(4):
        entry = Poly.zero()
        for a in range(4):
            for e in range(4):
                entry = entry + mt.ginv[a][e] * nabla[e][a][b]
        out.append(entry - scalar.diff(COORDS[b]) * HALF)
    return tuple(out)


# ---------------------------------------------------------------------------
# Dyad components.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureSpinors:
    """Curvature dyad components: both quartic families, the mixed 3x3
    block, and the scalar pieces."""

    Psi0: RationalFunction = RF_ZERO
    Psi1: RationalFunction = RF_ZERO
    Psi2: RationalFunction = RF_ZERO
    Psi3: RationalFunction = RF_ZERO
    Psi4: RationalFunction = RF_ZERO
    PsiT0: RationalFunction = RF_ZERO
    PsiT1: RationalFunction = RF_ZERO
    PsiT2: RationalFunction = RF_ZERO
    PsiT3: RationalFunction = RF_ZERO
    PsiT4: RationalFunction = RF_ZERO
    Phi: tuple = ((RF_ZERO,) * 3,) * 3
    Lambda: RationalFunction = RF_ZERO
    Pi: RationalFunction = RF_ZERO
    S: RationalFunction = RF_ZERO

    def psi(self, k: int) -> RationalFunction:
        return getattr(self, f"Psi{k}")

    def psi_t(self, k: int) -> RationalFunction:
        return getattr(self, f"PsiT{k}")


def prime_curvature(c: CurvatureSpinors) -> CurvatureSpinors:
    """Component relabelling under the priming involution."""
    # negation, not a product with -1 or 1: this runs in every suite 3.4 call
    signed = lambda k, value: value if k % 2 == 0 else -value
    phi = tuple(
        tuple(signed(i + j, c.Phi[2 - i][2 - j]) for j in range(3)) for i in range(3)
    )
    return CurvatureSpinors(
        Psi0=c.Psi4, Psi1=-c.Psi3, Psi2=c.Psi2, Psi3=-c.Psi1, Psi4=c.Psi0,
        PsiT0=c.PsiT4, PsiT1=-c.PsiT3, PsiT2=c.PsiT2, PsiT3=-c.PsiT1, PsiT4=c.PsiT0,
        Phi=phi, Lambda=c.Lambda, Pi=c.Pi, S=c.S,
    )


def tilde_curvature(c: CurvatureSpinors) -> CurvatureSpinors:
    """Component relabelling when the two dyads exchange roles."""
    phi = tuple(tuple(c.Phi[j][i] for j in range(3)) for i in range(3))
    return CurvatureSpinors(
        Psi0=c.PsiT0, Psi1=c.PsiT1, Psi2=c.PsiT2, Psi3=c.PsiT3, Psi4=c.PsiT4,
        PsiT0=c.Psi0, PsiT1=c.Psi1, PsiT2=c.Psi2, PsiT3=c.Psi3, PsiT4=c.Psi4,
        Phi=phi, Lambda=c.Lambda, Pi=c.Pi, S=c.S,
    )


def _check(label: str, value, *alternates):
    for alt in alternates:
        if value != alt:
            raise InternalInconsistencyError(
                f"redundant routes for {label} disagree"
            )
    return value


def walker_curvature_components(w: WalkerMetric, frame: Frame) -> CurvatureSpinors:
    """All curvature dyad components of the canonical frame of ``w``.

    Every component that admits more than one first-order expression is
    computed along each route and compared exactly.
    """
    s = frame.coeffs
    D = frame.ops.D
    A = frame.ops.Delta
    dl = frame.ops.delta
    Dp = frame.ops.Dp

    a, b, c = w.a, w.b, w.c
    a11 = a.diff("u").diff("u")
    b22 = b.diff("v").diff("v")
    c12 = c.diff("u").diff("v")
    c11 = c.diff("u").diff("u")

    Psi0 = -D(s.sigma)
    Psi1 = _check("Psi1", D(s.beta), -((D(s.tau) + A(s.sigma)) * HALF))
    Psi2 = _check(
        "Psi2",
        (D(s.gamma) + A(s.beta - s.tau)) * THIRD,
        (D(s.gamma + s.rho_p) + A(s.beta)) * THIRD,
        as_rf((a11 + b22 - 4 * c12) * Fraction(1, 12)),
    )
    Psi3 = _check("Psi3", A(s.gamma), (A(s.rho_p) - D(s.kappa_p)) * HALF)
    Psi4 = -A(s.kappa_p)

    S = _check(
        "scalar",
        4 * (D(s.gamma) + A(s.beta + 2 * s.tau)),
        4 * (D(s.gamma - 2 * s.rho_p) + A(s.beta)),
        as_rf(a11 + b22 + 2 * c12),
    )
    PsiT2 = _check(
        "PsiT2",
        S * Fraction(1, 12),
        (D(s.gamma_t) - A(s.alpha_t)) * THIRD,
    )
    PsiT3 = _check(
        "PsiT3",
        dl(s.gamma_t) - Dp(s.alpha_t),
        -((D(s.kappa_tp) + A(s.sigma_tp)) * HALF),
    )
    PsiT4 = (
        2 * (s.sigma_tp * s.epsilon_tp - s.kappa_tp * s.beta_tp)
        - dl(s.kappa_tp)
        - Dp(s.sigma_tp)
    )

    Phi01 = _check("Phi01", D(s.beta_tp), (A(s.sigma) - D(s.tau)) * HALF)
    Phi02 = _check(
        "Phi02",
        D(s.sigma_tp),
        Dp(s.sigma) - dl(s.tau) + 2 * (s.tau * s.beta - s.sigma * s.gamma),
    )
    Phi11 = _check(
        "Phi11",
        (D(s.gamma) - A(s.beta)) * HALF,
        (D(s.gamma_t) + A(s.alpha_t)) * HALF,
        as_rf((a11 - b22) * Fraction(1, 8)),
    )
    Phi12 = _check(
        "Phi12",
        s.tau * s.rho_p + s.kappa_p * s.sigma - Dp(s.beta) + dl(s.gamma),
        (A(s.sigma_tp) - D(s.kappa_tp)) * HALF,
    )
    Phi21 = _check("Phi21", A(s.gamma_t), -((D(s.kappa_p) + A(s.rho_p)) * HALF))
    Phi22 = _check(
        "Phi22",
        -A(s.kappa_tp),
        2 * (s.rho_p * s.epsilon_p - s.kappa_p * s.alpha_p) - dl(s.kappa_p) - Dp(s.rho_p),
    )

    _check("Psi1+Phi01", Psi1 + Phi01, as_rf(c11 * -HALF))

    Lambda = S * Fraction(-1, 24)
    phi = (
        (RF_ZERO, Phi01, Phi02),
        (RF_ZERO, Phi11, Phi12),
        (RF_ZERO, Phi21, Phi22),
    )
    return CurvatureSpinors(
        Psi0=Psi0, Psi1=Psi1, Psi2=Psi2, Psi3=Psi3, Psi4=Psi4,
        PsiT0=RF_ZERO, PsiT1=RF_ZERO, PsiT2=PsiT2, PsiT3=PsiT3, PsiT4=PsiT4,
        Phi=phi, Lambda=Lambda, Pi=Lambda, S=S,
    )


@dataclass(frozen=True, eq=False)
class Analysis:
    """Owner of a metric's canonical frame and curvature, each built once."""

    w: WalkerMetric

    @cached_property
    def frame(self) -> Frame:
        return Frame.walker(self.w)

    @cached_property
    def curvature(self) -> CurvatureSpinors:
        return walker_curvature_components(self.w, self.frame)


def phi_lambda_from_ricci(ricci, scalar: Poly, mt: MetricTensor, t: Tetrad):
    """Trace-free Ricci dyad components and the scalar multiple.

    Valid only for unit normalization; the dyad dictionary used here
    presumes it, so anything else is refused.
    """
    if t.chi * t.chi_t != RationalFunction(ONE):
        raise InputError("Ricci dyad components require unit normalization")
    phi_ab = [
        [
            as_rf((ricci[a][b_] - scalar * Fraction(1, 4) * mt.g[a][b_]) * HALF)
            for b_ in range(4)
        ]
        for a in range(4)
    ]

    def pairing(V, W):
        total = RF_ZERO
        for a in range(4):
            if V[a].is_zero:
                continue
            for b_ in range(4):
                entry = phi_ab[a][b_]
                if entry.is_zero:
                    continue
                total = total + entry * V[a] * W[b_]
        return total

    l, n, m, mtld = t.l, t.n, t.m, t.mt
    phi11 = pairing(l, n)
    if phi11 != pairing(m, mtld):
        raise InternalInconsistencyError(
            "trace-free Ricci pairing violates the completeness relation"
        )
    phi = (
        (pairing(l, l), pairing(l, m), pairing(m, m)),
        (pairing(l, mtld), phi11, pairing(m, n)),
        (pairing(mtld, mtld), pairing(mtld, n), pairing(n, n)),
    )
    lam = as_rf(scalar * Fraction(-1, 24))
    return phi, lam


# ---------------------------------------------------------------------------
# Field equations and commutators.
# ---------------------------------------------------------------------------


def field_equation_residuals(frame: Frame, curv: CurvatureSpinors):
    """Left minus right side of all 48 first-order curvature equations.

    Twelve equations a..l are written once; the other 36 are the same
    twelve on companion frames.  Their primed partners (marker ') hold on
    the priming companion tetrad (n, l, -mt, -m) with primed coefficients
    and curvature; the equations of the second dyad (marker ~) hold on
    the tetrad with m and mt exchanged, with tilde-relabelled data; and
    the primed partners of those on the priming companion of that tetrad.
    Keys run a, a', ..., l, l', a~, a'~, ..., l'~.
    """

    def build(ops, s, c):
        D, A, dl, Dp = ops.D, ops.Delta, ops.delta, ops.Dp
        phi = c.Phi
        return {
            "a": (A(s.kappa) - D(s.rho)) - (
                s.rho * s.rho + s.sigma * s.sigma_t - s.kappa_t * s.tau
                + s.kappa * (s.tau_p + 2 * s.alpha + s.beta_t + s.beta_p)
                - s.rho * (s.epsilon + s.epsilon_t) + phi[0][0]
            ),
            "b": (dl(s.kappa) - D(s.sigma)) - (
                s.sigma * (s.rho + s.rho_t - s.gamma_tp + s.gamma_p - 2 * s.epsilon)
                - s.kappa * (s.tau - s.tau_tp - s.alpha_t - s.alpha_p - 2 * s.beta)
                + c.Psi0
            ),
            "c": (Dp(s.kappa) - D(s.tau)) - (
                s.rho * (s.tau + s.tau_tp) + s.sigma * (s.tau_t + s.tau_p)
                - s.tau * (s.gamma_tp + s.epsilon)
                + s.kappa * (s.gamma_t + 2 * s.gamma - s.epsilon_p)
                + c.Psi1 + phi[0][1]
            ),
            "d": (A(s.sigma) - dl(s.rho)) - (
                s.tau * (s.rho - s.rho_t) + s.kappa * (s.rho_tp - s.rho_p)
                - s.rho * (s.alpha_t + s.beta)
                + s.sigma * (2 * s.alpha - s.alpha_tp + s.beta_p)
                - c.Psi1 + phi[0][1]
            ),
            "e": (Dp(s.sigma) - dl(s.tau)) - (
                -s.rho_p * s.sigma - s.sigma_tp * s.rho
                + s.tau * s.tau - s.kappa * s.kappa_tp
                - s.tau * (s.beta - s.beta_tp)
                + s.sigma * (2 * s.gamma - s.epsilon_p + s.epsilon_tp)
                + phi[0][2]
            ),
            "f": (A(s.tau) - Dp(s.rho)) - (
                s.rho * s.rho_tp + s.sigma * s.sigma_p
                - s.tau * s.tau_t + s.kappa * s.kappa_p
                - s.rho * (s.gamma + s.gamma_t)
                + s.tau * (s.alpha - s.alpha_tp)
                - c.Psi2 - 2 * c.Pi
            ),
            "g": (Dp(s.beta) - dl(s.gamma)) - (
                s.tau * s.rho_p + s.kappa_p * s.sigma
                - s.kappa_tp * s.epsilon - s.alpha * s.sigma_tp
                + s.beta * (s.epsilon_tp - s.rho_p + s.gamma)
                + s.gamma * (s.beta_tp + s.alpha_p + s.tau)
                - phi[1][2]
            ),
            "h": (A(s.epsilon) - D(s.alpha)) - (
                -s.tau_p * s.rho - s.kappa * s.sigma_p
                - s.kappa_t * s.gamma + s.beta * s.sigma_t
                - s.alpha * (s.epsilon_t - s.rho + s.gamma_p)
                + s.epsilon * (s.beta_t + s.alpha + s.tau_p)
                - phi[1][0]
            ),
            "i": (D(s.beta) - dl(s.epsilon)) - (
                s.kappa * (s.rho_p + s.gamma)
                + s.sigma * (s.tau_p - s.alpha)
                + s.beta * (s.gamma_tp - s.rho_t)
                - s.epsilon * (s.tau_tp + s.alpha_t)
                + c.Psi1
            ),
            "j": (A(s.gamma) - Dp(s.alpha)) - (
                s.kappa_p * (s.epsilon - s.rho)
                + s.sigma_p * (s.beta - s.tau)
                + s.alpha * (s.rho_tp - s.gamma_t)
                - s.gamma * (s.tau_t + s.alpha_tp)
                - (s.gamma * s.beta_p + s.alpha * s.epsilon_p)
                + c.Psi3
            ),
            "k": (D(s.gamma) - Dp(s.epsilon)) - (
                s.tau * s.tau_p - s.kappa * s.kappa_p
                - s.beta * (s.tau_p + s.tau_t)
                - s.alpha * (s.tau_tp + s.tau)
                - s.epsilon * (s.gamma + s.gamma_t)
                + s.gamma * (s.gamma_p + s.gamma_tp)
                + c.Psi2 + phi[1][1] - c.Pi
            ),
            "l": (A(s.beta) - dl(s.alpha)) - (
                s.rho * s.rho_p - s.sigma * s.sigma_p
                - s.alpha * s.alpha_t - s.beta * s.alpha_tp
                + s.alpha * (s.beta + s.alpha_p)
                + s.gamma * (s.rho - s.rho_t)
                + s.epsilon * (s.rho_tp - s.rho_p)
                + c.Psi2 - phi[1][1] - c.Pi
            ),
        }

    def with_primed(mark, ops, t, s, c):
        plain = build(ops, s, c)
        primed = build(
            DirectionalOps(priming_companion_tetrad(t)), prime(s), prime_curvature(c)
        )
        out = {}
        for key in plain:
            out[key + mark] = plain[key]
            out[key + "'" + mark] = primed[key]
        return out

    out = with_primed("", frame.ops, frame.tetrad, frame.coeffs, curv)
    t = tilde_companion_tetrad(frame.tetrad)
    out.update(with_primed(
        "~", DirectionalOps(t), t, tilde_relabel(frame.coeffs), tilde_curvature(curv)
    ))
    return out


def commutator_residuals(frame: Frame, f):
    """Second-derivative commutators of a scalar minus their first-order
    expansions; six residuals, one per operator pair.

    This is the direct route, one call per scalar.  ``verify`` derives its
    3.1 suite from ``commutator_vector_fields`` instead; the tests compare
    the two routes and keep this one as the guard.
    """
    ops = frame.ops
    s = frame.coeffs
    f = as_rf(f)
    D = {name: ops.apply(name, f) for name in ops.NAMES}
    second = {
        (p, q): ops.apply(p, D[q]) for p in ops.NAMES for q in ops.NAMES
    }

    def lie(p, q):
        return second[(p, q)] - second[(q, p)]

    out = {
        "[Dp,D]": lie("Dp", "D") - (
            (s.gamma + s.gamma_t) * D["D"]
            - (s.gamma_p + s.gamma_tp) * D["Dp"]
            + (s.tau + s.tau_tp) * D["Delta"]
            + (s.tau_p + s.tau_t) * D["delta"]
        ),
        "[delta,D]": lie("delta", "D") - (
            (s.beta + s.alpha_t + s.tau_tp) * D["D"]
            - s.kappa * D["Dp"]
            + s.sigma * D["Delta"]
            + (s.rho_t - s.epsilon - s.gamma_tp) * D["delta"]
        ),
        "[Dp,Delta]": lie("Dp", "Delta") - (
            (s.beta_p + s.alpha_tp + s.tau_t) * D["Dp"]
            - s.kappa_p * D["D"]
            - s.sigma_p * D["delta"]
            - (s.rho_tp - s.epsilon_p - s.gamma_t) * D["Delta"]
        ),
        "[D,Delta]": lie("D", "Delta") - (
            s.kappa_t * D["Dp"]
            - (s.tau_p + s.beta_t + s.alpha) * D["D"]
            - s.sigma_t * D["delta"]
            - (s.rho - s.epsilon_t - s.gamma_p) * D["Delta"]
        ),
        "[delta,Dp]": lie("delta", "Dp") - (
            s.kappa_tp * D["D"]
            - (s.tau + s.beta_tp + s.alpha_p) * D["Dp"]
            + s.sigma_tp * D["Delta"]
            + (s.rho_p - s.epsilon_tp - s.gamma) * D["delta"]
        ),
        "[Delta,delta]": lie("Delta", "delta") - (
            (s.rho_tp - s.rho_p) * D["D"]
            + (s.rho - s.rho_t) * D["Dp"]
            + (s.alpha_p - s.alpha_t) * D["Delta"]
            + (s.alpha - s.alpha_tp) * D["delta"]
        ),
    }
    return out


def commutator_vector_fields(frame: Frame):
    """The six commutator residuals as vector fields: operator pair -> the
    residual's components along d/du, d/dv, d/dx, d/dy.

    Each residual is a first-order operator for any coefficient values (the
    second derivatives cancel), so its components are its values on the
    coordinate functions.
    """
    on_coords = [commutator_residuals(frame, Poly.variable(name)) for name in COORDS]
    return {key: tuple(r[key] for r in on_coords) for key in on_coords[0]}


def commutator_residuals_from_fields(fields, f):
    """The six residuals of ``commutator_residuals(frame, f)``, derived from
    ``fields = commutator_vector_fields(frame)`` as sum_i V^i * df/dx^i."""
    grad = [as_rf(f).diff(name) for name in COORDS]
    out = {}
    for key, comps in fields.items():
        total = RF_ZERO
        for comp, df in zip(comps, grad):
            if not (comp.is_zero or df.is_zero):
                total = total + comp * df
        out[key] = total
    return out


# ---------------------------------------------------------------------------
# Pointwise algebraic type of the second quartic family.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylTypeReport:
    label: str
    point: tuple
    scalar: Fraction
    invariant_a: Fraction
    invariant_b: Fraction
    psi_t3: Fraction
    psi_t4: Fraction


def classify_sd_weyl(an: Analysis, point) -> WeylTypeReport:
    """Pointwise root-multiplicity class of the second quartic family.

    The two scalar invariants are recovered from the nonzero components,
    so the classification applies to any metric in canonical form, not
    just those built from a potential.
    """
    pt = tuple(Fraction(coord) for coord in point)
    if len(pt) != 4:
        raise InputError("point must have four coordinates")
    curv = an.curvature
    s_val = curv.S.eval_at(pt)
    psi_t3 = curv.PsiT3.eval_at(pt)
    psi_t4 = curv.PsiT4.eval_at(pt)
    c_val = an.w.c.eval_at(pt)
    inv_b = -8 * psi_t3 - s_val * c_val
    inv_a = 6 * inv_b * c_val + s_val * (3 * c_val * c_val - 1) - 24 * psi_t4
    if s_val != 0:
        if s_val * s_val + inv_a * s_val + 3 * inv_b * inv_b == 0:
            label = "{2,2}Ia"
        else:
            label = "{211}II/{1 1bar 2}II"
    elif psi_t3 != 0:
        label = "{31}III"
    elif psi_t4 != 0:
        label = "{4}II"
    else:
        label = "SD-flat"
    return WeylTypeReport(
        label=label, point=pt, scalar=s_val,
        invariant_a=inv_a, invariant_b=inv_b,
        psi_t3=psi_t3, psi_t4=psi_t4,
    )
