"""Direction-field analysis: integrability, recurrence covectors, the
differential multiplicity test, and the distribution diagnostics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkerspin.curvature import Analysis, walker_curvature_components
from walkerspin.errors import InputError, InternalInconsistencyError
from walkerspin.nullgeom import (
    classify_type_I,
    classify_type_III,
    distribution_report,
    frobenius_residual,
    multiple_spinor_differential_test,
    null_plane_curvature_identities,
    primed_spinor,
    recurrence_forms,
    relation_suite,
    ricci_conditions,
)
from walkerspin.poly import ONE, ZERO, RationalFunction, parse_poly
from walkerspin.spincoeff import Frame, dyad_covariant_derivative, lower_index
from walkerspin.walker import WalkerMetric, aligned_ricci_residuals

from support import assert_names_a_witness, random_metric_functions

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
    du = pi.dual()
    # normalization pi_lowered . dual = 1, with pi_lowered = (-q, p)
    assert -pi.q * du[0] + pi.p * du[1] == RF(ONE)


class TestIntegrability:
    def test_constant_directions_flat(self, flat_frame):
        for p, q in ((ONE, ZERO), (ZERO, ONE), (ONE, ONE)):
            rec = recurrence_forms(primed_spinor(p, q), flat_frame, check_integrable=False)
            assert rec.integrability.is_zero

    def test_varying_field_flat_obstructed(self, flat_frame):
        res = recurrence_forms(primed_spinor(ONE, P("u")), flat_frame,
                               check_integrable=False).integrability
        assert res.component(0) == RF(ONE)
        assert res.component(1).is_zero

    def test_varying_field_flat_integrable(self, flat_frame):
        rec = recurrence_forms(primed_spinor(P("v"), P("x")), flat_frame, check_integrable=False)
        assert rec.integrability.is_zero

    def test_residual_is_the_double_contraction(self, flat_frame):
        """Read off the recurrence forms, the residual equals the derivative
        of the field contracted with the field and its lowered form."""
        for p, q in (("1", "u"), ("v", "x"), ("u*y + 1", "x^2")):
            pi = primed_spinor(P(p), P(q))
            pi_up = pi.field()
            pi_low = lower_index(pi_up, 0)
            dpi = dyad_covariant_derivative(pi_up, flat_frame)
            want = [sum((pi_up.component(b) * pi_low.component(c) * dpi.component(B, b, c)
                         for b in (0, 1) for c in (0, 1)), ZERO) for B in (0, 1)]
            res = recurrence_forms(pi, flat_frame, check_integrable=False).integrability
            assert [res.component(B) for B in (0, 1)] == want

    def test_canonical_direction_all_metrics(self):
        rng = random.Random(31)
        for _ in range(3):
            a, b, c = random_metric_functions(rng, 3)
            frame = Frame.walker(WalkerMetric(a=a, b=b, c=c))
            rec = recurrence_forms(primed_spinor(ONE, ZERO), frame, check_integrable=False)
            assert rec.integrability.is_zero


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

    def test_rescaled_frame_matches_coefficient_formula(self):
        from walkerspin.spincoeff import transform_coefficients

        w = WalkerMetric(a=P("u^2"), b=P("x*y"), c=P("v*x"))
        frame = Frame.walker(w)
        _, t_new = transform_coefficients(frame, P("1"), P("v+1"), ZERO, ZERO)
        scaled = Frame.from_tetrad(frame.metric, t_new)
        rec = recurrence_forms(primed_spinor(ONE, ZERO), scaled)
        s = scaled.coeffs
        assert rec.omega == (s.rho_t, s.tau_t)
        assert rec.eta == (s.epsilon_t, s.beta_t)
        assert not rec.eta[1].is_zero


class TestWeylPrincipalTests:
    def test_flat_everything_vanishes(self):
        curv = Analysis(FLAT).curvature
        assert all(curv.psi(k).is_zero and curv.psi_t(k).is_zero for k in range(5))

    def test_canonical_direction_is_repeated_root(self):
        # the canonical direction (1, 0) is a root of the second quartic
        # family of multiplicity at least two: PsiT0 = PsiT1 = 0
        w = WalkerMetric(a=P("u*y^2"), b=ZERO, c=ZERO)
        curv = Analysis(w).curvature
        assert curv.PsiT0.is_zero and curv.PsiT1.is_zero
        # multiplicity is exactly three here: the next component survives
        assert curv.PsiT2.is_zero and not curv.PsiT3.is_zero


class TestDifferentialMultiplicity:
    def test_multiplicity_validation(self):
        curv = Analysis(FLAT).curvature
        frame = Frame.walker(FLAT)
        # a float that equals an allowed multiplicity is refused too
        for multiplicity in (5, 2.0, 3.0):
            with pytest.raises(InputError, match="multiplicity must be 2, 3 or 4"):
                multiple_spinor_differential_test(
                    primed_spinor(ONE, ZERO), multiplicity, curv, frame)

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

    def test_route_disagreement_names_a_witness(self):
        # the curvature of one metric against the coordinate residuals of
        # another, whose a_uu - b_vv is larger by 2*x
        w = WalkerMetric(a=P("u*v"), b=ZERO, c=ZERO)
        other = WalkerMetric(a=P("u*v + u^2*x"), b=ZERO, c=ZERO)
        curv = Analysis(w).curvature
        with pytest.raises(InternalInconsistencyError) as err:
            ricci_conditions(primed_spinor(ONE, ZERO), curv, other)
        diff = aligned_ricci_residuals(other)["a_uu - b_vv"] - 8 * curv.Phi[1][1]
        assert_names_a_witness(str(err.value), "a_uu - b_vv", diff)


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
        for suite in ("canonical", "surface-orthogonal", "distribution-parallel",
                      "screen-integrable"):
            residuals = relation_suite(s, suite)
            assert all(v.is_zero for v in residuals.values()), suite

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
    assert multiple_spinor_differential_test(pi, 2, curv, frame).is_zero
