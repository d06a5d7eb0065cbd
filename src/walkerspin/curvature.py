"""Curvature of Walker metrics: tensor route, coefficient route, and the
field-equation and commutator residuals connecting them.

The coefficient route computes every curvature dyad component from first
derivatives of the 32 connection scalars; the tensor route goes through
Christoffel symbols and the Ricci tensor, whose contracted Bianchi identity
is checked by a divergence that needs no connection, since det g = 1.
Wherever a quantity is expressible both ways the two are compared and a
disagreement raises InternalInconsistencyError, so a passing run
certifies the whole chain.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import InputError
from .poly import HALF, ONE, QUARTER, ZERO, Poly, Value, _point, dot
from .spincoeff import _COMPANION_OPS, Frame, _check
from .walker import COORDS, Christoffel, MetricTensor, WalkerMetric, bilinear, christoffel

THIRD = Fraction(1, 3)

# ---------------------------------------------------------------------------
# Tensor route.
# ---------------------------------------------------------------------------


def ricci_tensor(ch: Christoffel):
    """Ricci tensor from the connection alone, no rank-four intermediate.

    The contracted connection T_e = sum_a Gamma^a_ae is formed once, and

        R_bd = sum_a d_a Gamma^a_bd - d_d T_b + sum_e T_e Gamma^e_bd
               - sum_{a,e} Gamma^a_de Gamma^e_ab,

    so the products Gamma^a_ae Gamma^e_db, which cancel only in their sum,
    are never formed.  The premise is a Levi-Civita connection, the only
    kind ``christoffel`` builds: it is symmetric in its lower indices, and
    T_b = d_b ln sqrt|det g| is a gradient, so R_bd is symmetric and only
    the entries b <= d are formed.  A Walker metric has det g = 1, so T is
    zero and ``dot`` skips its terms.
    """
    g = ch.gamma
    trace = [sum((g[a][a][e] for a in range(4)), ZERO) for e in range(4)]
    out = [[ZERO] * 4 for _ in range(4)]
    for b in range(4):
        for d in range(b, 4):
            linear = dot(
                zip(trace, (g[e][b][d] for e in range(4))),
                sum((g[a][b][d].diff(COORDS[a]) for a in range(4)), ZERO)
                - trace[b].diff(COORDS[d]),
            )
            quadratic = dot((g[a][d][e], g[e][a][b]) for a in range(4) for e in range(4))
            out[b][d] = out[d][b] = linear - quadratic
    return tuple(tuple(row) for row in out)


def scalar_curvature(mt: MetricTensor, ricci) -> Poly:
    return dot((mt.ginv[b][d], ricci[b][d]) for b in range(4) for d in range(4))


_WALKER_ROWS = ((ZERO, ZERO, ONE, ZERO), (ZERO, ZERO, ZERO, ONE))


def bianchi_contracted_residual(mt: MetricTensor, ricci, scalar):
    """Components of div(Ricci) - grad(scalar)/2; identically zero.

    A metric in Walker block form ((0, I), (I, W)) has det g = 1, so the
    divergence of a symmetric tensor needs no connection (Landau &
    Lifshitz, *Classical Theory of Fields*, section 86).  Applied to
    T = Ric - (R/2) g this gives

        res_b = sum_a d_a(g^ac R_cb) - 1/2 sum_cd (d_b g_cd) R^cd - 1/2 d_b R,

    where the trace term g^cd d_b g_cd = d_b ln|det g| is zero.  Only the
    block W of g varies, so c and d run over x and y.  Any other metric,
    for which the formula would be wrong, is refused with InputError.
    """
    g, ginv = mt.g, mt.ginv
    if any(g[i][j] != row[j] or g[j][i] != row[j]
           for i, row in enumerate(_WALKER_ROWS) for j in range(4)):
        raise InputError("the contracted Bianchi residual needs a metric in Walker form")
    mixed = [[dot((ginv[a][c], ricci[c][b]) for c in range(4)) for b in range(4)]
             for a in range(4)]
    block = [(c, d) for c in (2, 3) for d in (2, 3)]
    raised = [dot((mixed[c][e], ginv[e][d]) for e in range(4)) for c, d in block]
    return tuple(
        sum((mixed[a][b].diff(COORDS[a]) for a in range(4)), ZERO)
        - (dot((g[c][d].diff(COORDS[b]), up) for (c, d), up in zip(block, raised))
           + scalar.diff(COORDS[b])) * HALF
        for b in range(4)
    )


# ---------------------------------------------------------------------------
# Dyad components.
# ---------------------------------------------------------------------------


class CurvatureSpinors(NamedTuple):
    """Curvature dyad components: both quartic families, the mixed 3x3
    block, and the scalar pieces."""

    Psi0: Value = ZERO
    Psi1: Value = ZERO
    Psi2: Value = ZERO
    Psi3: Value = ZERO
    Psi4: Value = ZERO
    PsiT0: Value = ZERO
    PsiT1: Value = ZERO
    PsiT2: Value = ZERO
    PsiT3: Value = ZERO
    PsiT4: Value = ZERO
    Phi: tuple = ((ZERO,) * 3,) * 3
    Lambda: Value = ZERO
    Pi: Value = ZERO
    S: Value = ZERO

    def psi(self, k: int) -> Value:
        return getattr(self, f"Psi{k}")

    def psi_t(self, k: int) -> Value:
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


def walker_curvature_components(w: WalkerMetric, frame: Frame) -> CurvatureSpinors:
    """All curvature dyad components of the canonical frame of ``w``.

    Every component that admits more than one first-order expression is
    computed along each route and compared exactly.  Psi0 ... Psi4 are
    also compared with their closed forms in second derivatives of a, b
    and c (Davidov, Diaz-Ramos, Garcia-Rio et al., J. Geom. Phys. 57,
    2007), the metric route ``heavenly.psi_components`` reads.
    """
    s = frame.coeffs
    D, A, dl, Dp = frame.ops.signed(_COMPANION_OPS[""])

    a, b, c = w.a, w.b, w.c
    a_u, b_u, c_u = a.diff("u"), b.diff("u"), c.diff("u")
    a11, a12, a22 = a_u.diff("u"), a_u.diff("v"), a.diff("v").diff("v")
    b11, b12, b22 = b_u.diff("u"), b_u.diff("v"), b.diff("v").diff("v")
    c11, c12, c22 = c_u.diff("u"), c_u.diff("v"), c.diff("v").diff("v")

    Psi0 = _check("Psi0", -D(s.sigma), b11 * HALF)
    Psi1 = _check(
        "Psi1",
        D(s.beta),
        -((D(s.tau) + A(s.sigma)) * HALF),
        (b12 - c11) * QUARTER,
    )
    Psi2 = _check(
        "Psi2",
        (D(s.gamma) + A(s.beta - s.tau)) * THIRD,
        (D(s.gamma + s.rho_p) + A(s.beta)) * THIRD,
        (a11 + b22 - 4 * c12) * Fraction(1, 12),
    )
    Psi3 = _check(
        "Psi3",
        A(s.gamma),
        (A(s.rho_p) - D(s.kappa_p)) * HALF,
        (a12 - c22) * QUARTER,
    )
    Psi4 = _check("Psi4", -A(s.kappa_p), a22 * HALF)

    S = _check(
        "scalar",
        4 * (D(s.gamma) + A(s.beta + 2 * s.tau)),
        4 * (D(s.gamma - 2 * s.rho_p) + A(s.beta)),
        a11 + b22 + 2 * c12,
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
        (a11 - b22) * Fraction(1, 8),
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

    _check("Psi1+Phi01", Psi1 + Phi01, c11 * -HALF)

    Lambda = S * Fraction(-1, 24)
    phi = (
        (ZERO, Phi01, Phi02),
        (ZERO, Phi11, Phi12),
        (ZERO, Phi21, Phi22),
    )
    return CurvatureSpinors(
        Psi0=Psi0, Psi1=Psi1, Psi2=Psi2, Psi3=Psi3, Psi4=Psi4,
        PsiT0=ZERO, PsiT1=ZERO, PsiT2=PsiT2, PsiT3=PsiT3, PsiT4=PsiT4,
        Phi=phi, Lambda=Lambda, Pi=Lambda, S=S,
    )


class Analysis:
    """Owner of a metric's layers, each built once and only on first read:
    the canonical frame, its curvature, and the tensor route, that is the
    Ricci tensor (``ricci``), the scalar curvature (``scalar``, checked
    against the curvature's S) and Phi_ij and Lambda paired from them on
    the frame's legs (``phi_lambda``).  Christoffel symbols are built only
    when a tensor-route layer is read.  Two analyses are equal only if
    they are the same object."""

    def __init__(self, w: WalkerMetric):
        self.w = w

    @cached_property
    def frame(self) -> Frame:
        return Frame.walker(self.w)

    @cached_property
    def curvature(self) -> CurvatureSpinors:
        return walker_curvature_components(self.w, self.frame)

    @cached_property
    def ricci(self):
        return ricci_tensor(christoffel(self.frame.metric))

    @cached_property
    def scalar(self) -> Poly:
        # the tensor scalar is a second route to the curvature's S
        return _check("S", scalar_curvature(self.frame.metric, self.ricci), self.curvature.S)

    @cached_property
    def phi_lambda(self):
        """Trace-free Ricci dyad components and the scalar multiple from the
        tensor route.  The dyad dictionary presumes unit normalization,
        which the canonical tetrad has."""
        g, scalar = self.frame.metric.g, self.scalar
        phi_ab = [
            [(self.ricci[a][b] - scalar * QUARTER * g[a][b]) * HALF for b in range(4)]
            for a in range(4)
        ]

        def pairing(V, W):
            return bilinear(phi_ab, V, W)

        t = self.frame.tetrad
        l, n, m, mtld = t.l, t.n, t.m, t.mt
        phi11 = _check("Phi11 (completeness of the trace-free Ricci pairing)",
                       pairing(l, n), pairing(m, mtld))
        phi = (
            (pairing(l, l), pairing(l, m), pairing(m, m)),
            (pairing(l, mtld), phi11, pairing(m, n)),
            (pairing(mtld, mtld), pairing(mtld, n), pairing(n, n)),
        )
        return phi, scalar * Fraction(-1, 24)


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
    the primed partners of those (marker '~) on the priming companion of
    that tetrad.  Keys run a, a', ..., l, l', a~, a'~, ..., l'~.

    Each companion's operators and coefficients come from
    ``frame.companions``; the operators are signed relabellings of the
    frame's own, so all 48 equations share the memo of ``frame.ops``:

        primed        D -> Dp,  Delta -> -delta,  delta -> -Delta,  Dp -> D
        tilde         D -> D,   Delta -> delta,   delta -> Delta,   Dp -> Dp
        tilde-primed  D -> Dp,  Delta -> -Delta,  delta -> -delta,  Dp -> D
    """

    def build(ops, s, c):
        D, A, dl, Dp = ops
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

    out = {}
    for mark, c in (("", curv), ("~", tilde_curvature(curv))):
        plain = build(*frame.companions[mark], c)
        primed = build(*frame.companions["'" + mark], prime_curvature(c))
        for key in plain:
            out[key + mark] = plain[key]
            out[key + "'" + mark] = primed[key]
    return out


def commutator_residuals(frame: Frame, f):
    """Second-derivative commutators of a scalar minus their first-order
    expansions; six residuals, one per operator pair.

    Three expansions are written: [Dp,D], [delta,D] and [Delta,delta].
    The other three are [delta,D] on a companion from ``frame.companions``:
    [Dp,Delta] on the priming companion, and [D,Delta] and [delta,Dp]
    minus it on the tilde and tilde-primed companions.

    This is the direct route, one call per scalar.  ``verify`` derives its
    3.1 suite from ``commutator_vector_fields`` through ``_field_sums``
    instead; the tests compare the two routes and keep this one as the
    guard.
    """

    def lie(p, q):
        return p(q(f)) - q(p(f))

    def delta_D(mark):
        (D, A, dl, Dp), s = frame.companions[mark]
        return lie(dl, D) - (
            (s.beta + s.alpha_t + s.tau_tp) * D(f)
            - s.kappa * Dp(f)
            + s.sigma * A(f)
            + (s.rho_t - s.epsilon - s.gamma_tp) * dl(f)
        )

    (D, A, dl, Dp), s = frame.companions[""]
    return {
        "[Dp,D]": lie(Dp, D) - (
            (s.gamma + s.gamma_t) * D(f)
            - (s.gamma_p + s.gamma_tp) * Dp(f)
            + (s.tau + s.tau_tp) * A(f)
            + (s.tau_p + s.tau_t) * dl(f)
        ),
        "[delta,D]": delta_D(""),
        "[Dp,Delta]": delta_D("'"),
        "[D,Delta]": -delta_D("~"),
        "[delta,Dp]": -delta_D("'~"),
        "[Delta,delta]": lie(A, dl) - (
            (s.rho_tp - s.rho_p) * D(f)
            + (s.rho - s.rho_t) * Dp(f)
            + (s.alpha_p - s.alpha_t) * A(f)
            + (s.alpha - s.alpha_tp) * dl(f)
        ),
    }


def commutator_vector_fields(frame: Frame):
    """The six commutator residuals as vector fields: operator pair -> the
    residual's components along d/du, d/dv, d/dx, d/dy.

    Each residual is a first-order operator for any coefficient values (the
    second derivatives cancel), so its components are its values on the
    coordinate functions.
    """
    on_coords = [commutator_residuals(frame, Poly.variable(name)) for name in COORDS]
    return {key: tuple(r[key] for r in on_coords) for key in on_coords[0]}


def _field_sums(fields, grads):
    """For each gradient (df/du, df/dv, df/dx, df/dy) of ``grads``, the map
    key -> sum_i V^i * df/dx^i over the components V of ``fields[key]``,
    added left to right.  Zero components are dropped once per field, so a
    vanishing field sums nothing and is ZERO at every gradient."""
    live = [(key, [(i, comp) for i, comp in enumerate(comps) if not comp.is_zero])
            for key, comps in fields.items()]
    return [{key: dot((comp, grad[i]) for i, comp in comps) for key, comps in live}
            for grad in grads]


# ---------------------------------------------------------------------------
# Pointwise algebraic type of the second quartic family.
# ---------------------------------------------------------------------------


class WeylTypeReport(NamedTuple):
    label: str
    point: tuple
    scalar: Fraction
    invariant_a: Fraction
    invariant_b: Fraction
    psi_t3: Fraction
    psi_t4: Fraction


def _sd_weyl_type(s, psi_t3, psi_t4, c):
    """(label, A, B) of the second quartic family from S, PsiT3, PsiT4 and
    c, as values at a point or as polynomials (nonzero unless identically
    zero): B = -8 PsiT3 - S c and A = 6 B c + S (3 c^2 - 1) - 24 PsiT4."""
    inv_b = -8 * psi_t3 - s * c
    inv_a = 6 * inv_b * c + s * (3 * c * c - 1) - 24 * psi_t4
    if s:
        discriminant = s * s + inv_a * s + 3 * inv_b * inv_b
        label = "{211}II/{1 1bar 2}II" if discriminant else "{2,2}Ia"
    elif psi_t3:
        label = "{31}III"
    elif psi_t4:
        label = "{4}II"
    else:
        label = "SD-flat"
    return label, inv_a, inv_b


def classify_sd_weyl(an: Analysis, point) -> WeylTypeReport:
    """Pointwise root-multiplicity class of the second quartic family.

    The two scalar invariants are recovered from the nonzero components,
    so the classification applies to any metric in canonical form, not
    just those built from a potential.
    """
    pt = _point(point)
    curv = an.curvature
    fields = (curv.S, curv.PsiT3, curv.PsiT4, an.w.c)
    s_val, psi_t3, psi_t4, c_val = (f.eval_at(pt) for f in fields)
    label, inv_a, inv_b = _sd_weyl_type(s_val, psi_t3, psi_t4, c_val)
    return WeylTypeReport(
        label=label, point=pt, scalar=s_val,
        invariant_a=inv_a, invariant_b=inv_b,
        psi_t3=psi_t3, psi_t4=psi_t4,
    )
