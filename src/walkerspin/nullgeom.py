"""Primed direction fields: integrability, recurrence data, and the
differential test attached to the second curvature family; the coefficient
relation suites and the classification of the canonical distribution.

A direction field is a projective spinor with one primed index; the
canonical distribution of a metric in Walker form corresponds to the
constant field (1, 0).  Everything here works at the level of dyad
components, so results come out as exact rational functions.  One-forms
are plain 4-tuples of rational functions in coordinate order.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import NamedTuple

from .curvature import Analysis, CurvatureSpinors
from .errors import InputError, InternalInconsistencyError
from .poly import ONE, ZERO, Value, _as_poly, _sequence, dot
from .spincoeff import (
    DIR_OF,
    DN,
    DN_P,
    DyadSpinorField,
    Frame,
    SpinCoefficientSet,
    UP_P,
    _check,
    contract,
    dyad_covariant_derivative,
    lower_index,
    raise_index,
)
from .walker import WalkerMetric, aligned_ricci_residuals, exterior_derivative


class PrimedSpinor(NamedTuple):
    """Spinor with one upper primed index, components over the dyad."""

    p: Value
    q: Value

    def field(self) -> DyadSpinorField:
        return DyadSpinorField((UP_P,), {(0,): self.p, (1,): self.q})

    def dual(self) -> tuple:
        """The spinor xi with pi_lowered . xi = 1.

        The normalizing factor is p^2 + q^2, which for real components
        vanishes identically only for the zero spinor.
        """
        norm = self.p * self.p + self.q * self.q
        return (-self.q / norm, self.p / norm)


def primed_spinor(p, q) -> PrimedSpinor:
    p, q = _as_poly(p), _as_poly(q)
    if p.is_zero and q.is_zero:
        raise InputError("direction spinor must not vanish identically")
    return PrimedSpinor(p=p, q=q)


def _pair_dict(values) -> dict:
    return {DIR_OF[pair]: value for pair, value in values.items()}


class RecurrenceForms(NamedTuple):
    """First-derivative data of a direction field.

    s_form and t_form are the two covectors obtained by contracting the
    field's derivative with the field itself, keyed by the direction
    whose coefficient they are; omega and eta are the unprimed parts of
    their factorizations over the field, which exist when the field is
    integrable.  integrability is s_form contracted once more
    with the field: the obstruction to the field's totally null two-planes
    being surface-forming.
    """

    s_form: dict
    t_form: dict
    omega: tuple
    eta: tuple
    divergence: tuple
    integrability: DyadSpinorField

    @property
    def s_form_vanishes(self) -> bool:
        return all(v.is_zero for v in self.s_form.values())


def recurrence_forms(
    pi: PrimedSpinor, frame: Frame, check_integrable: bool = True
) -> RecurrenceForms:
    """Everything read off the field's derivative, from one covariant
    derivative of the field and one of its lowered form.  With
    check_integrable, a field whose planes are not surface-forming is
    refused."""
    pi_up = pi.field()
    pi_low = lower_index(pi_up, 0)
    dpi = dyad_covariant_derivative(pi_up, frame)
    dpi_low = dyad_covariant_derivative(pi_low, frame)

    s_vals = {}
    t_vals = {}
    for pair in product((0, 1), repeat=2):
        s_vals[pair] = dot((pi_low.component(c), dpi.component(*pair, c)) for c in (0, 1))
        t_vals[pair] = dot(
            (pi_up.component(b), dpi_low.component(pair[0], b, pair[1])) for b in (0, 1)
        )

    integ = DyadSpinorField((DN,), {
        (B,): dot(zip((pi.p, pi.q), (s_vals[(B, bp)] for bp in (0, 1)))) for B in (0, 1)
    })
    if check_integrable and not integ.is_zero:
        raise InputError(
            "direction field is not surface-forming; its recurrence "
            "covectors do not factor over the field"
        )

    xi = pi.dual()
    omega = tuple(dot((s_vals[(A, a)], xi[a]) for a in (0, 1)) for A in (0, 1))
    eta = tuple(dot((t_vals[(A, a)], xi[a]) for a in (0, 1)) for A in (0, 1))
    div = tuple(
        sum((dpi.component(A, d, d) for d in (0, 1)), ZERO) for A in (0, 1)
    )
    for A in (0, 1):
        _check(f"divergence component {A} (recurrence parts omega + eta)",
               omega[A] + eta[A], div[A])

    # The full square of the derivative is an epsilon-contraction of a
    # symmetric object, hence identically zero; a nonzero value would
    # mean broken index algebra.
    raised = raise_index(raise_index(dpi, 0), 1)
    square = dot((dpi_low.comps[key], raised.comps[key]) for key in product((0, 1), repeat=3))
    _check("derivative square", square, ZERO)

    return RecurrenceForms(
        s_form=_pair_dict(s_vals),
        t_form=_pair_dict(t_vals),
        omega=omega,
        eta=eta,
        divergence=div,
        integrability=integ,
    )


# ---------------------------------------------------------------------------
# Differential test against the curvature components.
# ---------------------------------------------------------------------------


def _psi_t_field(curv: CurvatureSpinors) -> DyadSpinorField:
    comps = {}
    for key in product((0, 1), repeat=4):
        comps[key] = curv.psi_t(sum(key))
    return DyadSpinorField((DN_P, DN_P, DN_P, DN_P), comps)


def _contract_primed(field: DyadSpinorField, pos: int, pi: PrimedSpinor) -> DyadSpinorField:
    if field.indices[pos] != DN_P:
        raise InputError("can only contract the field onto a lower primed index")
    indices = field.indices[:pos] + field.indices[pos + 1:]
    comps = {
        key: dot(zip((pi.p, pi.q), (field.comps[key[:pos] + (i,) + key[pos:]] for i in (0, 1))))
        for key in product((0, 1), repeat=len(indices))
    }
    return DyadSpinorField(indices, comps)


def multiple_spinor_differential_test(
    pi: PrimedSpinor, multiplicity: int, curv: CurvatureSpinors, frame: Frame
) -> DyadSpinorField:
    """Differential criterion accompanying a root of the stated
    multiplicity: the divergence of the quartic family, saturated with
    5 - multiplicity copies of the field."""
    if type(multiplicity) is not int or multiplicity not in (2, 3, 4):
        raise InputError("multiplicity must be 2, 3 or 4")
    psit = _psi_t_field(curv)
    grad = dyad_covariant_derivative(psit, frame)
    raised = raise_index(raise_index(grad, 0), 1)
    divergence = contract(raised, 1, 5)
    out = divergence
    for _ in range(5 - multiplicity):
        out = _contract_primed(out, len(out.indices) - 1, pi)
    return out


class RicciReport(NamedTuple):
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
    double = tuple(
        dot((comb(2, j) * curv.Phi[i][j], pi.p ** (2 - j) * pi.q**j) for j in range(3))
        for i in range(3)
    )
    is_null = all(v.is_zero for v in single.values())
    is_aligned = all(v.is_zero for v in double)
    if is_null and not is_aligned:
        raise InternalInconsistencyError(
            "single contraction vanished but the double contraction did not"
        )
    coord = None
    if w is not None and pi.p == ONE and pi.q.is_zero:
        via_phi = {
            "a_uu - b_vv": 8 * curv.Phi[1][1],
            "b_uv + c_uu": -4 * curv.Phi[0][1],
            "a_uv + c_vv": 4 * curv.Phi[2][1],
        }
        coord = {
            name: _check(name, residual, via_phi[name])
            for name, residual in aligned_ricci_residuals(w).items()
        }
    return RicciReport(
        aligned=is_aligned,
        null=is_null,
        double=double,
        single=single,
        coordinate_residuals=coord,
    )


# ---------------------------------------------------------------------------
# Exterior algebra and coefficient relation suites.
# ---------------------------------------------------------------------------


def frobenius_residual(cov) -> dict:
    """Components of d(omega) wedge omega for a covector field; all four
    vanish exactly when the orthogonal distribution is integrable."""
    cov = tuple(map(_as_poly, _sequence(cov, "covector")))
    if len(cov) != 4:
        raise InputError("covector must have four components")
    d = exterior_derivative(cov)
    out = {}
    for a in range(4):
        for b in range(a + 1, 4):
            for c in range(b + 1, 4):
                out[(a, b, c)] = d[a][b] * cov[c] + d[b][c] * cov[a] + d[c][a] * cov[b]
    return out


_SUITES = (
    "canonical",
    "surface-orthogonal",
    "distribution-parallel",
    "screen-integrable",
)


def relation_suite(s: SpinCoefficientSet, suite: str) -> dict:
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
    if suite == "distribution-parallel":
        return {name: s.get(name) for name in ("kappa_t", "sigma_t", "rho_t", "tau_t")}
    if suite == "screen-integrable":
        return {
            "kappa": s.kappa,
            "kappa~": s.kappa_t,
            "rho - rho~": s.rho - s.rho_t,
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


class TypeIFlags(NamedTuple):
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


class TypeIIIFlags(NamedTuple):
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
            _check(f"recurrent-plane curvature identity {name}", value, ZERO)
    return TypeIIIFlags(
        integrable=all(v.is_zero for v in integ.values()),
        auto_parallel=is_auto,
        parallel=is_par,
        residuals=residuals,
        identity_residuals=ids,
    )


class DistributionReport(NamedTuple):
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
    in Walker form, with the two independent recurrence routes compared,
    and the Frobenius residual of the first leg against the
    screen-integrable relations."""
    w, frame, curv = an.w, an.frame, an.curvature
    s = frame.coeffs
    pi = primed_spinor(ONE, ZERO)
    rec = recurrence_forms(pi, frame, check_integrable=False)
    coeff_res = relation_suite(s, "distribution-parallel")
    coeff_zero = all(v.is_zero for v in coeff_res.values())
    if rec.s_form_vanishes != coeff_zero:
        raise InternalInconsistencyError(
            "recurrence covector and coefficient criteria disagree"
        )
    type_i = classify_type_I(s)
    type_iii = classify_type_III(s, curv)
    ricci = ricci_conditions(pi, curv, w)
    frob = frobenius_residual(frame.covectors[0])
    # l wedge dl vanishes exactly when kappa = kappa~ = 0 and rho = rho~
    if all(v.is_zero for v in frob.values()) != type_iii.integrable:
        raise InternalInconsistencyError(
            "Frobenius residual and screen-integrable relations disagree"
        )
    residuals = {
        "integrability": rec.integrability,
        "s_form": rec.s_form,
        "distribution-parallel": coeff_res,
        "type-I": type_i.residuals,
        "type-III": type_iii.residuals,
        "ricci-double": ricci.double,
        "ricci-single": ricci.single,
    }
    return DistributionReport(
        alpha_integrable=rec.integrability.is_zero,
        walker=rec.s_form_vanishes,
        auto_parallel=type_i.auto_parallel,
        parallel=type_i.parallel,
        type_iii_integrable=type_iii.integrable,
        ricci_null=ricci.null,
        ricci_aligned=ricci.aligned,
        residuals=residuals,
        frobenius=frob,
    )
