"""Primed direction fields: integrability, recurrence data, and the
differential tests attached to the second curvature family.

A direction field is a projective spinor with one primed index; the
canonical distribution of a metric in Walker form corresponds to the
constant field (1, 0).  Everything here works at the level of dyad
components, so results come out as exact rational functions.  One-forms
are plain 4-tuples of rational functions in coordinate order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .curvature import Analysis, CurvatureSpinors
from .errors import InputError, InternalInconsistencyError
from .poly import ONE, RF_ONE, RF_ZERO, ZERO, RationalFunction, as_rf
from .spincoeff import (
    DIR_OF,
    DN,
    DN_P,
    DyadSpinorField,
    Frame,
    SpinCoefficientSet,
    UP_P,
    contract,
    dyad_covariant_derivative,
    lower_index,
    raise_index,
)
from .walker import COORDS, WalkerMetric, aligned_ricci_residuals, tetrad_covectors


def _rf_pow(base: RationalFunction, n: int) -> RationalFunction:
    out = RF_ONE
    for _ in range(n):
        out = out * base
    return out


@dataclass(frozen=True)
class PrimedSpinor:
    """Spinor with one upper primed index, components over the dyad."""

    p: RationalFunction
    q: RationalFunction

    def field(self) -> DyadSpinorField:
        return DyadSpinorField((UP_P,), {(0,): self.p, (1,): self.q})

    def lowered(self) -> tuple:
        return (-self.q, self.p)

    def dual(self) -> tuple:
        """The spinor xi with pi_lowered . xi = 1.

        The normalizing factor is p^2 + q^2, which for real components
        vanishes identically only for the zero spinor.
        """
        norm = self.p * self.p + self.q * self.q
        return (-self.q / norm, self.p / norm)


def primed_spinor(p, q) -> PrimedSpinor:
    p, q = as_rf(p), as_rf(q)
    if p.is_zero and q.is_zero:
        raise InputError("direction spinor must not vanish identically")
    return PrimedSpinor(p=p, q=q)


def _pair_dict(values) -> dict:
    return {DIR_OF[pair]: value for pair, value in values.items()}


def integrability_residual(pi: PrimedSpinor, frame: Frame) -> DyadSpinorField:
    """Obstruction to the field's totally null two-planes being
    surface-forming: the derivative of the field, contracted with two
    copies of itself.  Zero also characterizes the planes as recurrent
    along themselves."""
    pi_up = pi.field()
    pi_low = lower_index(pi_up, 0)
    dpi = dyad_covariant_derivative(pi_up, frame)
    comps = {}
    for B in (0, 1):
        total = RF_ZERO
        for bp in (0, 1):
            for c in (0, 1):
                total = total + (
                    (pi.p, pi.q)[bp] * pi_low.component(c) * dpi.component(B, bp, c)
                )
        comps[(B,)] = total
    return DyadSpinorField((DN,), comps)


@dataclass(frozen=True)
class RecurrenceForms:
    """First-derivative data of an integrable direction field.

    s_form and t_form are the two covectors obtained by contracting the
    field's derivative with the field itself, keyed by the direction
    whose coefficient they are; omega and eta are the unprimed parts of
    their factorizations over the field.  s_one_form and t_one_form are
    the same covectors in coordinate components.
    """

    s_form: dict
    t_form: dict
    omega: tuple
    eta: tuple
    divergence: tuple
    s_one_form: tuple
    t_one_form: tuple
    pairing: RationalFunction

    @property
    def s_form_vanishes(self) -> bool:
        return all(v.is_zero for v in self.s_form.values())


def _covector_from_pairs(vals: dict, frame: Frame) -> tuple:
    """Coordinate components from dyad-pair components, valid for
    unit-normalized tetrads."""
    covs = tetrad_covectors(frame.metric, frame.tetrad)
    l_dn, n_dn, m_dn, mt_dn = covs
    out = []
    for a in range(4):
        out.append(
            vals[(1, 1)] * l_dn[a]
            + vals[(0, 0)] * n_dn[a]
            - vals[(1, 0)] * m_dn[a]
            - vals[(0, 1)] * mt_dn[a]
        )
    return tuple(out)


def recurrence_forms(
    pi: PrimedSpinor, frame: Frame, check_integrable: bool = True
) -> RecurrenceForms:
    pi_up = pi.field()
    pi_low = lower_index(pi_up, 0)
    dpi = dyad_covariant_derivative(pi_up, frame)
    dpi_low = dyad_covariant_derivative(pi_low, frame)

    s_vals = {}
    t_vals = {}
    for pair in product((0, 1), repeat=2):
        s_vals[pair] = sum(
            (pi_low.component(c) * dpi.component(*pair, c) for c in (0, 1)),
            RF_ZERO,
        )
        t_vals[pair] = sum(
            (pi_up.component(b) * dpi_low.component(pair[0], b, pair[1])
             for b in (0, 1)),
            RF_ZERO,
        )

    if check_integrable:
        integ = integrability_residual(pi, frame)
        if not integ.is_zero:
            raise InputError(
                "direction field is not surface-forming; its recurrence "
                "covectors do not factor over the field"
            )

    xi = pi.dual()
    omega = tuple(
        sum((s_vals[(A, a)] * xi[a] for a in (0, 1)), RF_ZERO) for A in (0, 1)
    )
    eta = tuple(
        sum((t_vals[(A, a)] * xi[a] for a in (0, 1)), RF_ZERO) for A in (0, 1)
    )
    div = tuple(
        sum((dpi.component(A, d, d) for d in (0, 1)), RF_ZERO) for A in (0, 1)
    )
    for A in (0, 1):
        if omega[A] + eta[A] != div[A]:
            raise InternalInconsistencyError(
                "recurrence parts do not sum to the divergence"
            )

    # The full square of the derivative is an epsilon-contraction of a
    # symmetric object, hence identically zero; a nonzero value would
    # mean broken index algebra.
    raised = raise_index(raise_index(dpi, 0), 1)
    square = RF_ZERO
    for key in product((0, 1), repeat=3):
        square = square + dpi_low.component(*key) * raised.component(*key)
    if not square.is_zero:
        raise InternalInconsistencyError("derivative square failed to vanish")

    eta_up = (eta[1], -eta[0])
    pairing = 2 * (eta_up[0] * omega[0] + eta_up[1] * omega[1])

    unit = frame.tetrad.chi * frame.tetrad.chi_t == RF_ONE
    s_one = _covector_from_pairs(s_vals, frame) if unit else None
    t_one = _covector_from_pairs(t_vals, frame) if unit else None

    return RecurrenceForms(
        s_form=_pair_dict(s_vals),
        t_form=_pair_dict(t_vals),
        omega=omega,
        eta=eta,
        divergence=div,
        s_one_form=s_one,
        t_one_form=t_one,
        pairing=pairing,
    )


# ---------------------------------------------------------------------------
# Algebraic tests against the curvature components.
# ---------------------------------------------------------------------------


def weyl_quartic(pi: PrimedSpinor, curv: CurvatureSpinors) -> RationalFunction:
    """Full contraction of the second quartic family with the field;
    zero exactly when the field is a principal direction."""
    total = RF_ZERO
    for k in range(5):
        total = total + comb(4, k) * curv.psi_t(k) * _rf_pow(pi.p, 4 - k) * _rf_pow(pi.q, k)
    return total


def principal_spinor_residual(pi: PrimedSpinor, curv: CurvatureSpinors) -> tuple:
    """Triple contraction; both components vanish exactly when the field
    is a repeated root of the quartic."""
    out = []
    for i in (0, 1):
        total = RF_ZERO
        for j in range(4):
            total = total + comb(3, j) * curv.psi_t(j + i) * _rf_pow(pi.p, 3 - j) * _rf_pow(pi.q, j)
        out.append(total)
    return tuple(out)


def _psi_t_field(curv: CurvatureSpinors) -> DyadSpinorField:
    comps = {}
    for key in product((0, 1), repeat=4):
        comps[key] = curv.psi_t(sum(key))
    return DyadSpinorField((DN_P, DN_P, DN_P, DN_P), comps)


def _contract_primed(field: DyadSpinorField, pos: int, pi: PrimedSpinor) -> DyadSpinorField:
    if field.indices[pos] != DN_P:
        raise InputError("can only contract the field onto a lower primed index")
    comps_pi = (pi.p, pi.q)
    keep = [i for i in range(len(field.indices)) if i != pos]
    indices = tuple(field.indices[i] for i in keep)
    comps = {}
    for key in product((0, 1), repeat=len(indices)):
        total = RF_ZERO
        for i in (0, 1):
            full = [0] * len(field.indices)
            for slot, value in zip(keep, key):
                full[slot] = value
            full[pos] = i
            total = total + comps_pi[i] * field.comps[tuple(full)]
        comps[key] = total
    return DyadSpinorField(indices, comps)


def multiple_spinor_differential_test(
    pi: PrimedSpinor, multiplicity: int, curv: CurvatureSpinors, frame: Frame
) -> DyadSpinorField:
    """Differential criterion accompanying a root of the stated
    multiplicity: the divergence of the quartic family, saturated with
    5 - multiplicity copies of the field."""
    if multiplicity not in (2, 3, 4):
        raise InputError("multiplicity must be 2, 3 or 4")
    psit = _psi_t_field(curv)
    grad = dyad_covariant_derivative(psit, frame)
    raised = raise_index(raise_index(grad, 0), 1)
    divergence = contract(raised, 1, 5)
    out = divergence
    for _ in range(5 - multiplicity):
        out = _contract_primed(out, len(out.indices) - 1, pi)
    return out


@dataclass(frozen=True)
class RicciReport:
    """Contractions of the mixed curvature block with a direction field.

    aligned: the double contraction (a quadratic form on directions)
    vanishes.  null: the stronger single contraction vanishes, i.e. the
    field annihilates the block on one primed index.  For the canonical
    direction of a Walker-form metric the latter is equivalent to three
    second-derivative conditions on the metric functions, cross-checked
    when the metric is supplied.
    """

    aligned: bool
    null: bool
    double: tuple
    single: dict
    coordinate_residuals: dict | None


def ricci_conditions(
    pi: PrimedSpinor, curv: CurvatureSpinors, w: WalkerMetric | None = None
) -> RicciReport:
    single = {}
    for i in range(3):
        for k in (0, 1):
            single[(i, k)] = pi.p * curv.Phi[i][k] + pi.q * curv.Phi[i][k + 1]
    double = []
    for i in range(3):
        total = RF_ZERO
        for j in range(3):
            total = total + comb(2, j) * curv.Phi[i][j] * _rf_pow(pi.p, 2 - j) * _rf_pow(pi.q, j)
        double.append(total)
    double = tuple(double)
    is_null = all(v.is_zero for v in single.values())
    is_aligned = all(v.is_zero for v in double)
    if is_null and not is_aligned:
        raise InternalInconsistencyError(
            "single contraction vanished but the double contraction did not"
        )
    coord = None
    if w is not None and pi.p == RF_ONE and pi.q.is_zero:
        via_phi = {
            "a_uu - b_vv": 8 * curv.Phi[1][1],
            "b_uv + c_uu": -4 * curv.Phi[0][1],
            "a_uv + c_vv": 4 * curv.Phi[2][1],
        }
        coord = {}
        for name, residual in aligned_ricci_residuals(w).items():
            direct = as_rf(residual)
            if direct != via_phi[name]:
                raise InternalInconsistencyError(
                    f"coordinate form of the null-alignment condition {name} "
                    "disagrees with the dyad route"
                )
            coord[name] = direct
    return RicciReport(
        aligned=is_aligned,
        null=is_null,
        double=double,
        single=single,
        coordinate_residuals=coord,
    )


@dataclass(frozen=True)
class KerrReport:
    hypothesis: tuple
    hypothesis_holds: bool
    frobenius: dict
    conclusion_holds: bool


def kerr_check(pi: PrimedSpinor, frame: Frame, curv: CurvatureSpinors) -> KerrReport:
    """Instance check of the implication: if the double contraction of
    the mixed block with an integrable field vanishes, the planes
    orthogonal to its recurrence covector are themselves integrable.

    Refuses a field whose recurrence covector vanishes identically,
    since then there is no orthogonal plane field to speak of.
    """
    rec = recurrence_forms(pi, frame)
    if rec.s_form_vanishes:
        raise InputError(
            "recurrence covector vanishes identically; the orthogonal "
            "plane field is undefined"
        )
    if rec.s_one_form is None:
        raise InputError("the implication check needs a unit-normalized frame")
    hypothesis = ricci_conditions(pi, curv).double
    hyp_holds = all(v.is_zero for v in hypothesis)
    frob = frobenius_residual(rec.s_one_form)
    concl_holds = all(v.is_zero for v in frob.values())
    if hyp_holds and not concl_holds:
        raise InternalInconsistencyError(
            "hypothesis of the integrability implication holds but the "
            "conclusion residual is nonzero"
        )
    return KerrReport(
        hypothesis=hypothesis,
        hypothesis_holds=hyp_holds,
        frobenius=frob,
        conclusion_holds=concl_holds,
    )


# ---------------------------------------------------------------------------
# Exterior algebra and coefficient relation suites.
# ---------------------------------------------------------------------------


def frobenius_residual(cov) -> dict:
    """Components of d(omega) wedge omega for a covector field; all four
    vanish exactly when the orthogonal distribution is integrable."""
    cov = tuple(as_rf(c) for c in cov)
    if len(cov) != 4:
        raise InputError("covector must have four components")
    d = [
        [cov[b].diff(COORDS[a]) - cov[a].diff(COORDS[b]) for b in range(4)]
        for a in range(4)
    ]
    out = {}
    for a in range(4):
        for b in range(a + 1, 4):
            for c in range(b + 1, 4):
                out[(a, b, c)] = d[a][b] * cov[c] + d[b][c] * cov[a] + d[c][a] * cov[b]
    return out


_SUITES = (
    "canonical",
    "surface-orthogonal",
    "flat-connection",
    "distribution-parallel",
    "integrable-pair",
    "screen-integrable",
    "affine-section",
)


def relation_suite(
    s: SpinCoefficientSet, suite: str, curv: CurvatureSpinors | None = None
) -> dict:
    """Residuals of a named family of coefficient relations."""
    if suite == "canonical":
        return {
            "alpha' + alpha~ + tau": s.alpha_p + s.alpha_t + s.tau,
            "beta + beta~' + tau": s.beta + s.beta_tp + s.tau,
            "gamma - gamma~ - rho'": s.gamma - s.gamma_t - s.rho_p,
            "epsilon' - epsilon~' + rho'": s.epsilon_p - s.epsilon_tp + s.rho_p,
        }
    if suite == "surface-orthogonal":
        return {
            "tau + alpha~ + beta": s.tau + s.alpha_t + s.beta,
            "tau~ + alpha + beta~": s.tau_t + s.alpha + s.beta_t,
        }
    if suite == "flat-connection":
        names = ("kappa", "rho", "alpha", "epsilon", "tau_p", "sigma_p",
                 "epsilon_t", "beta_t")
        return {name: s.get(name) for name in names}
    if suite == "distribution-parallel":
        return {name: s.get(name) for name in ("kappa_t", "sigma_t", "rho_t", "tau_t")}
    if suite == "integrable-pair":
        out = {name: s.get(name) for name in
               ("kappa", "kappa_t", "epsilon", "epsilon_t", "tau_p", "tau_tp")}
        out["tau + alpha~ + beta"] = s.tau + s.alpha_t + s.beta
        out["tau~ + alpha + beta~"] = s.tau_t + s.alpha + s.beta_t
        out["rho - rho~"] = s.rho - s.rho_t
        return out
    if suite == "screen-integrable":
        return {
            "kappa": s.kappa,
            "kappa~": s.kappa_t,
            "rho - rho~": s.rho - s.rho_t,
        }
    if suite == "affine-section":
        if curv is None:
            raise InputError("the affine-section suite needs curvature components")
        return {
            "beta~": s.beta_t,
            "alpha + 1": s.alpha + RF_ONE,
            "PsiT2 + 2*Lambda - 2*alpha~": curv.PsiT2 + 2 * curv.Lambda - 2 * s.alpha_t,
        }
    raise InputError(
        f"unknown suite {suite!r}; available: {', '.join(_SUITES)}"
    )


def null_plane_curvature_identities(curv: CurvatureSpinors, parallel: bool = False) -> dict:
    """Curvature identities forced by a null two-plane field that recurs
    along itself; with parallel=True also the stronger scalar identities."""
    out = {
        "Psi0": curv.Psi0,
        "PsiT0": curv.PsiT0,
        "Phi00": curv.Phi[0][0],
        "Psi1 - Phi01": curv.Psi1 - curv.Phi[0][1],
        "PsiT1 - Phi10": curv.PsiT1 - curv.Phi[1][0],
    }
    if parallel:
        out["Psi2 + 2*Lambda"] = curv.Psi2 + 2 * curv.Lambda
        out["PsiT2 + 2*Lambda"] = curv.PsiT2 + 2 * curv.Lambda
    return out


# ---------------------------------------------------------------------------
# Distribution classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeIFlags:
    auto_parallel: bool
    parallel: bool
    residuals: dict


def classify_type_I(s: SpinCoefficientSet) -> TypeIFlags:
    """Flags for the null line field spanned by the first tetrad leg."""
    auto = {"kappa": s.kappa, "kappa~": s.kappa_t}
    par = dict(auto)
    for name in ("sigma", "sigma_t", "rho", "rho_t", "tau", "tau_t"):
        par[name] = s.get(name)
    return TypeIFlags(
        auto_parallel=all(v.is_zero for v in auto.values()),
        parallel=all(v.is_zero for v in par.values()),
        residuals=par,
    )


@dataclass(frozen=True)
class TypeIIIFlags:
    integrable: bool
    auto_parallel: bool
    parallel: bool
    residuals: dict
    identity_residuals: dict | None


def classify_type_III(
    s: SpinCoefficientSet, curv: CurvatureSpinors | None = None
) -> TypeIIIFlags:
    """Flags for the three-distribution orthogonal to the first tetrad
    leg; with curvature supplied, the identities its recurrence forces
    on the curvature components are asserted."""
    integ = relation_suite(s, "screen-integrable")
    auto = {name: s.get(name) for name in
            ("kappa", "kappa_t", "sigma", "sigma_t", "rho", "rho_t")}
    par = dict(auto)
    par["tau"] = s.tau
    par["tau~"] = s.tau_t
    residuals = dict(par)
    residuals["rho - rho~"] = integ["rho - rho~"]
    is_auto = all(v.is_zero for v in auto.values())
    is_par = all(v.is_zero for v in par.values())
    ids = None
    if curv is not None and is_auto:
        ids = null_plane_curvature_identities(curv, parallel=is_par)
        for name, value in ids.items():
            if not value.is_zero:
                raise InternalInconsistencyError(
                    f"recurrent-plane curvature identity {name} violated"
                )
    return TypeIIIFlags(
        integrable=all(v.is_zero for v in integ.values()),
        auto_parallel=is_auto,
        parallel=is_par,
        residuals=residuals,
        identity_residuals=ids,
    )


@dataclass(frozen=True)
class DistributionReport:
    alpha_integrable: bool
    walker: bool
    auto_parallel: bool
    parallel: bool
    type_iii_integrable: bool
    ricci_null: bool
    ricci_aligned: bool
    residuals: dict
    frobenius: dict


def distribution_report(an: Analysis) -> DistributionReport:
    """Full diagnostic sheet for the canonical distribution of a metric
    in Walker form, with the two independent recurrence routes compared."""
    w, frame, curv = an.w, an.frame, an.curvature
    s = frame.coeffs
    pi = primed_spinor(ONE, ZERO)
    integ = integrability_residual(pi, frame)
    rec = recurrence_forms(pi, frame, check_integrable=False)
    coeff_res = relation_suite(s, "distribution-parallel")
    coeff_zero = all(v.is_zero for v in coeff_res.values())
    if rec.s_form_vanishes != coeff_zero:
        raise InternalInconsistencyError(
            "recurrence covector and coefficient criteria disagree"
        )
    if coeff_zero and not integ.is_zero:
        raise InternalInconsistencyError(
            "recurrent direction failed the surface-forming test"
        )
    type_i = classify_type_I(s)
    type_iii = classify_type_III(s, curv)
    ricci = ricci_conditions(pi, curv, w)
    l_dn = tetrad_covectors(frame.metric, frame.tetrad)[0]
    frob = frobenius_residual(l_dn)
    residuals = {
        "integrability": integ,
        "s_form": rec.s_form,
        "distribution-parallel": coeff_res,
        "type-I": type_i.residuals,
        "type-III": type_iii.residuals,
        "ricci-double": ricci.double,
        "ricci-single": ricci.single,
    }
    return DistributionReport(
        alpha_integrable=integ.is_zero,
        walker=rec.s_form_vanishes,
        auto_parallel=type_i.auto_parallel,
        parallel=type_i.parallel,
        type_iii_integrable=type_iii.integrable,
        ricci_null=ricci.null,
        ricci_aligned=ricci.aligned,
        residuals=residuals,
        frobenius=frob,
    )
