"""Direction-field analysis: integrability, recurrence covectors,
principal-direction tests, and the distribution diagnostics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkerspin.curvature import Analysis, walker_curvature_components
from walkerspin.errors import InputError
from walkerspin.nullgeom import (
    KerrReport,
    classify_type_I,
    classify_type_III,
    distribution_report,
    frobenius_residual,
    integrability_residual,
    kerr_check,
    multiple_spinor_differential_test,
    null_plane_curvature_identities,
    primed_spinor,
    principal_spinor_residual,
    recurrence_forms,
    relation_suite,
    ricci_conditions,
    weyl_quartic,
)
from walkerspin.poly import ONE, ZERO, RationalFunction, parse_poly
from walkerspin.spincoeff import Frame
from walkerspin.walker import WalkerMetric, christoffel

from support import random_metric_functions

RF = RationalFunction
P = parse_poly

FLAT = WalkerMetric(a=ZERO, b=ZERO, c=ZERO)


def rf_eq(value, expected) -> bool:
    return value == RF(P(expected)) if isinstance(expected, str) else value == RF(expected)


@pytest.fixture(scope="module")
def flat_frame():
    return Frame.walker(FLAT)


def test_spinor_validation():
    with pytest.raises(InputError):
        primed_spinor(ZERO, ZERO)
    pi = primed_spinor(P("v"), P("x"))
    lo = pi.lowered()
    du = pi.dual()
    # normalization pi_lowered . dual = 1
    assert lo[0] * du[0] + lo[1] * du[1] == RF(ONE)


class TestIntegrability:
    def test_constant_directions_flat(self, flat_frame):
        for p, q in ((ONE, ZERO), (ZERO, ONE), (ONE, ONE)):
            res = integrability_residual(primed_spinor(p, q), flat_frame)
            assert res.is_zero

    def test_varying_field_flat_obstructed(self, flat_frame):
        res = integrability_residual(primed_spinor(ONE, P("u")), flat_frame)
        assert res.component(0) == RF(ONE)
        assert res.component(1).is_zero

    def test_varying_field_flat_integrable(self, flat_frame):
        res = integrability_residual(primed_spinor(P("v"), P("x")), flat_frame)
        assert res.is_zero

    def test_canonical_direction_all_metrics(self):
        rng = random.Random(31)
        for _ in range(3):
            a, b, c = random_metric_functions(rng, 3)
            frame = Frame.walker(WalkerMetric(a=a, b=b, c=c))
            assert integrability_residual(primed_spinor(ONE, ZERO), frame).is_zero


class TestRecurrenceForms:
    def test_canonical_direction_recurrence_covector_vanishes(self):
        frame = Frame.walker(WalkerMetric(a=P("u*y^2"), b=P("x^3"), c=ZERO))
        rec = recurrence_forms(primed_spinor(ONE, ZERO), frame)
        assert rec.s_form_vanishes
        assert all(v.is_zero for v in rec.omega)
        assert all(v.is_zero for v in rec.eta)

    def test_flat_field_covector_components(self, flat_frame):
        rec = recurrence_forms(primed_spinor(P("v"), P("x")), flat_frame)
        assert rf_eq(rec.s_form["Delta"], "-x")
        assert rf_eq(rec.s_form["Dp"], "v")
        assert rec.s_form["D"].is_zero and rec.s_form["delta"].is_zero
        assert rec.omega[0].is_zero and rec.omega[1] == RF(ONE)
        assert rec.eta[0].is_zero and rec.eta[1] == RF(ONE)
        # coordinate components: v dx - x dv
        assert [str(c) for c in rec.s_one_form] == ["0", "-x", "v", "0"]
        assert rec.pairing.is_zero

    def test_rejects_non_integrable_field(self, flat_frame):
        with pytest.raises(InputError):
            recurrence_forms(primed_spinor(ONE, P("u")), flat_frame)
        rec = recurrence_forms(
            primed_spinor(ONE, P("u")), flat_frame, check_integrable=False
        )
        assert rec.s_form["D"] == RF(ONE)

    def test_scaling_covariance(self, flat_frame):
        base = recurrence_forms(primed_spinor(P("v"), P("x")), flat_frame)
        scaled = recurrence_forms(primed_spinor(P("u*v"), P("u*x")), flat_frame)
        lam = RF(P("u"))
        for key in base.s_form:
            assert scaled.s_form[key] == lam * lam * base.s_form[key]
        for A in (0, 1):
            assert scaled.omega[A] == lam * base.omega[A]

    def test_pairing_is_scale_sensitive(self, flat_frame):
        # The scalar 2*eta.omega is not invariant under rescaling the
        # field, even though integrability is; the adapted scaling above
        # gives zero, this one does not.
        rec = recurrence_forms(primed_spinor(P("u*v"), P("u*x")), flat_frame)
        assert rec.pairing == RF(P("-2*u*v"))

    def test_rescaled_frame_matches_coefficient_formula(self):
        from walkerspin.spincoeff import transform_coefficients

        w = WalkerMetric(a=P("u^2"), b=P("x*y"), c=P("v*x"))
        frame = Frame.walker(w)
        _, t_new = transform_coefficients(frame, P("1"), P("v+1"), ZERO, ZERO)
        scaled = Frame.from_tetrad(frame.metric, christoffel(frame.metric), t_new)
        rec = recurrence_forms(primed_spinor(ONE, ZERO), scaled)
        s = scaled.coeffs
        assert rec.omega == (s.rho_t, s.tau_t)
        assert rec.eta == (s.epsilon_t, s.beta_t)
        assert not rec.eta[1].is_zero


class TestWeylPrincipalTests:
    def test_flat_everything_vanishes(self):
        curv = Analysis(FLAT).curvature
        pi = primed_spinor(P("u+1"), P("x*y"))
        assert weyl_quartic(pi, curv).is_zero
        assert all(v.is_zero for v in principal_spinor_residual(pi, curv))

    def test_canonical_direction_is_repeated_root(self):
        w = WalkerMetric(a=P("u*y^2"), b=ZERO, c=ZERO)
        curv = Analysis(w).curvature
        pi = primed_spinor(ONE, ZERO)
        assert weyl_quartic(pi, curv).is_zero
        assert all(v.is_zero for v in principal_spinor_residual(pi, curv))
        # multiplicity is exactly three here: the next component survives
        assert curv.PsiT2.is_zero and not curv.PsiT3.is_zero

    def test_quartic_expansion_generic_direction(self):
        w = WalkerMetric(a=P("u*y^2"), b=ZERO, c=ZERO)
        curv = Analysis(w).curvature
        p, q = RF(P("v")), RF(P("x"))
        expected = (
            4 * curv.PsiT3 * p * q * q * q + curv.PsiT4 * q * q * q * q
        )
        assert weyl_quartic(primed_spinor(p, q), curv) == expected


class TestDifferentialMultiplicity:
    def test_multiplicity_validation(self):
        curv = Analysis(FLAT).curvature
        frame = Frame.walker(FLAT)
        with pytest.raises(InputError):
            multiple_spinor_differential_test(primed_spinor(ONE, ZERO), 5, curv, frame)

    def test_vanishing_quartic_family_trivial(self):
        w = WalkerMetric(a=ZERO, b=P("u^3"), c=ZERO)
        frame = Frame.walker(w)
        curv = walker_curvature_components(w, frame)
        assert all(curv.psi_t(k).is_zero for k in range(5))
        for q in (2, 3, 4):
            for pi in (primed_spinor(ONE, ZERO), primed_spinor(P("v"), ONE)):
                assert multiple_spinor_differential_test(pi, q, curv, frame).is_zero

    def test_low_multiplicities_hold_high_fails(self):
        w = WalkerMetric(a=P("v*y"), b=ZERO, c=P("u^2"))
        frame = Frame.walker(w)
        curv = walker_curvature_components(w, frame)
        pi = primed_spinor(ONE, ZERO)
        assert multiple_spinor_differential_test(pi, 2, curv, frame).is_zero
        assert multiple_spinor_differential_test(pi, 3, curv, frame).is_zero
        assert not multiple_spinor_differential_test(pi, 4, curv, frame).is_zero


class TestRicciConditions:
    def test_canonical_direction_always_aligned(self):
        rng = random.Random(92)
        for _ in range(3):
            a, b, c = random_metric_functions(rng, 3)
            w = WalkerMetric(a=a, b=b, c=c)
            rep = ricci_conditions(primed_spinor(ONE, ZERO), Analysis(w).curvature, w)
            assert rep.aligned

    def test_null_condition_dual_route(self):
        w = WalkerMetric(a=P("u*v"), b=ZERO, c=ZERO)
        rep = ricci_conditions(primed_spinor(ONE, ZERO), Analysis(w).curvature, w)
        assert rep.aligned and not rep.null
        assert rep.coordinate_residuals["a_uv + c_vv"] == RF(ONE)
        assert rep.coordinate_residuals["a_uu - b_vv"].is_zero

    def test_quartic_metric_is_null(self):
        w = WalkerMetric(a=P("v^4"), b=ZERO, c=ZERO)
        rep = ricci_conditions(primed_spinor(ONE, ZERO), Analysis(w).curvature, w)
        assert rep.null
        assert all(v.is_zero for v in rep.coordinate_residuals.values())


class TestKerrCheck:
    def test_flat_instance(self, flat_frame):
        curv = Analysis(FLAT).curvature
        rep = kerr_check(primed_spinor(P("v"), P("x")), flat_frame, curv)
        assert isinstance(rep, KerrReport)
        assert rep.hypothesis_holds and rep.conclusion_holds

    def test_curved_instance(self):
        w = WalkerMetric(a=ZERO, b=ZERO, c=P("2*x"))
        frame = Frame.walker(w)
        curv = walker_curvature_components(w, frame)
        rep = kerr_check(primed_spinor(P("v"), P("x")), frame, curv)
        assert rep.hypothesis_holds and rep.conclusion_holds

    def test_recurrent_direction_refused(self, flat_frame):
        curv = Analysis(FLAT).curvature
        with pytest.raises(InputError):
            kerr_check(primed_spinor(ONE, ZERO), flat_frame, curv)


class TestFrobenius:
    def test_coordinate_covector(self):
        assert all(v.is_zero for v in frobenius_residual((ZERO, ZERO, ONE, ZERO)).values())

    def test_gradient_covector(self):
        f = P("u^2*v + x*y")
        grad = tuple(f.diff(var) for var in ("u", "v", "x", "y"))
        assert all(v.is_zero for v in frobenius_residual(grad).values())

    def test_contact_covector(self):
        res = frobenius_residual((ONE, P("x"), ZERO, ZERO))
        assert any(not v.is_zero for v in res.values())

    def test_wrong_arity(self):
        with pytest.raises(InputError):
            frobenius_residual((ONE, ZERO))


class TestRelationSuites:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=12, deadline=None)
    def test_structural_suites_vanish_on_walker_frames(self, seed):
        rng = random.Random(seed)
        a, b, c = random_metric_functions(rng, 3)
        s = Frame.walker(WalkerMetric(a=a, b=b, c=c)).coeffs
        for suite in ("canonical", "surface-orthogonal", "flat-connection",
                      "distribution-parallel", "integrable-pair",
                      "screen-integrable"):
            residuals = relation_suite(s, suite)
            assert all(v.is_zero for v in residuals.values()), suite

    def test_affine_section_measures_frame_misfit(self):
        w = WalkerMetric(a=ZERO, b=ZERO, c=P("u*v"))
        frame = Frame.walker(w)
        curv = walker_curvature_components(w, frame)
        res = relation_suite(frame.coeffs, "affine-section", curv)
        assert res["beta~"].is_zero
        assert res["alpha + 1"] == RF(ONE)

    def test_affine_section_needs_curvature(self, flat_frame):
        with pytest.raises(InputError):
            relation_suite(flat_frame.coeffs, "affine-section")

    def test_unknown_suite(self, flat_frame):
        with pytest.raises(InputError):
            relation_suite(flat_frame.coeffs, "no-such-suite")


class TestTypeClassification:
    def test_line_field_flags(self):
        assert classify_type_I(Frame.walker(FLAT).coeffs).parallel
        s = Frame.walker(WalkerMetric(a=ZERO, b=P("u^3"), c=ZERO)).coeffs
        flags = classify_type_I(s)
        assert flags.auto_parallel and not flags.parallel
        assert flags.residuals["sigma"] == RF(P("-3/2*u^2"))

    def test_plane_field_flags(self):
        s = Frame.walker(WalkerMetric(a=ZERO, b=P("u*x"), c=ZERO)).coeffs
        flags = classify_type_III(s)
        assert flags.integrable and not flags.auto_parallel

        w = WalkerMetric(a=ZERO, b=ZERO, c=P("u^2"))
        frame = Frame.walker(w)
        curv = walker_curvature_components(w, frame)
        flags = classify_type_III(frame.coeffs, curv)
        assert flags.auto_parallel and not flags.parallel
        assert flags.identity_residuals is not None
        assert curv.Psi1 == curv.Phi[0][1] == RF(P("-1/2"))

        flat_flags = classify_type_III(
            Frame.walker(FLAT).coeffs, Analysis(FLAT).curvature
        )
        assert flat_flags.parallel

    def test_parallel_scalar_identity_needs_parallel(self):
        # auto-parallel but non-parallel plane: the stronger scalar
        # identity genuinely fails, so it must not be asserted there.
        w = WalkerMetric(a=ZERO, b=ZERO, c=P("u*v"))
        curv = Analysis(w).curvature
        ids = null_plane_curvature_identities(curv, parallel=True)
        assert ids["Psi2 + 2*Lambda"] == RF(P("-1/2"))
        flags = classify_type_III(Frame.walker(w).coeffs, curv)
        assert flags.auto_parallel and not flags.parallel


class TestDistributionReport:
    def test_flat(self):
        rep = distribution_report(Analysis(FLAT))
        assert rep.alpha_integrable and rep.walker and rep.parallel
        assert rep.type_iii_integrable and rep.ricci_null and rep.ricci_aligned

    def test_cubic_profile(self):
        rep = distribution_report(Analysis(WalkerMetric(a=ZERO, b=P("u^3"), c=ZERO)))
        assert rep.walker and rep.alpha_integrable
        assert rep.auto_parallel and not rep.parallel
        assert rep.type_iii_integrable and rep.ricci_null
        assert all(v.is_zero for v in rep.frobenius.values())

    def test_mixed_profile(self):
        rep = distribution_report(Analysis(WalkerMetric(a=P("u*v"), b=ZERO, c=ZERO)))
        assert rep.ricci_aligned and not rep.ricci_null


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=8, deadline=None)
def test_canonical_direction_differential_condition(seed):
    # every metric in this form admits the constant direction as a
    # repeated principal root, and the accompanying differential
    # condition holds identically
    rng = random.Random(seed)
    a, b, c = random_metric_functions(rng, 2)
    w = WalkerMetric(a=a, b=b, c=c)
    frame = Frame.walker(w)
    curv = walker_curvature_components(w, frame)
    pi = primed_spinor(ONE, ZERO)
    assert all(v.is_zero for v in principal_spinor_residual(pi, curv))
    assert multiple_spinor_differential_test(pi, 2, curv, frame).is_zero
