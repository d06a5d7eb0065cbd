"""Potential-built metrics: chain validation, exact invariants, the
master scalar identity, quartic component routes, and the Einstein test."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkerspin import curvature
from walkerspin.curvature import Analysis, classify_sd_weyl
from walkerspin.errors import InputError, InternalInconsistencyError
from walkerspin.heavenly import (
    HeavenlyPotential,
    build_metric,
    einstein_check,
    invariants,
    master_identity_residual,
    psi_components,
    scalar_flat_case,
    validate_potential,
    wave_operator,
)
from walkerspin.poly import Poly, RationalFunction, ZERO
from walkerspin.walker import WalkerMetric

from support import assert_names_a_witness, random_potential

P = Poly.parse

UVX = HeavenlyPotential(theta=P("u*v*x"))
QUARTIC = HeavenlyPotential(theta=Fraction(1, 4) * P("u^2*v^2"))
SCALAR_FLAT = HeavenlyPotential(theta=ZERO, f=P("y^2"), F=P("u*y^2"))
CHAINED = HeavenlyPotential(
    theta=P("u*v*x*y + x^2*y^3"),
    f=P("u*x + y"),
    g=P("v*x"),
    F=Fraction(1, 2) * P("u^2*x") + P("u*y + x^3"),
    G=Fraction(1, 2) * P("v^2*x") + P("y^2"),
    h=P("x"),
)


def swap_poly(p: Poly) -> Poly:
    """The involution u <-> v, x <-> y on exponents."""
    return Poly({(ev, eu, ey, ex): c for (eu, ev, ex, ey), c in p.terms.items()})


class TestValidation:
    def test_bare_potential_is_valid(self):
        assert validate_potential(HeavenlyPotential(theta=P("u^3*y - v*x^2"))).is_valid

    def test_u_independent_chain(self):
        p = HeavenlyPotential(theta=ZERO, f=P("x"), F=P("u*x"))
        assert validate_potential(p).is_valid

    def test_chain_mismatch(self):
        p = HeavenlyPotential(theta=ZERO, f=P("u"), F=Fraction(1, 2) * P("u^2"))
        report = validate_potential(p)
        assert not report.is_valid
        assert report.chain_residuals["f_u - h"] == P("1")

    def test_dependence_violation(self):
        report = validate_potential(HeavenlyPotential(theta=ZERO, h=P("u*x")))
        assert "h may not depend on u" in report.dependence_violations

    def test_full_chain_is_valid(self):
        assert validate_potential(CHAINED).is_valid

    def test_from_dict(self):
        data = {"theta": "u*v*x", "f": "0", "g": "0", "F": "0", "G": "0", "h": "0"}
        assert build_metric(HeavenlyPotential.from_dict(data)).c == P("2*x")
        with pytest.raises(InputError):
            HeavenlyPotential.from_dict({"theta": "u"})
        with pytest.raises(InputError):
            HeavenlyPotential.from_dict({**data, "f": "u +* v"})
        with pytest.raises(InputError):
            HeavenlyPotential.from_dict({**data, "g": 3})


class TestBuildMetric:
    def test_zero_potential_is_flat(self):
        w = build_metric(HeavenlyPotential(theta=ZERO))
        assert w.a == ZERO and w.b == ZERO and w.c == ZERO

    def test_product_potential(self):
        w = build_metric(UVX)
        assert (w.a, w.b, w.c) == (ZERO, ZERO, P("2*x"))

    def test_quartic_potential(self):
        w = build_metric(QUARTIC)
        assert (w.a, w.b, w.c) == (P("-u^2"), P("-v^2"), P("2*u*v"))

    def test_invalid_rejected(self):
        with pytest.raises(InputError):
            build_metric(HeavenlyPotential(theta=ZERO, f=P("u")))

    def test_aligned_ricci_conditions(self):
        rng = random.Random(7)
        for _ in range(4):
            w = build_metric(random_potential(rng, max_degree=4))
            assert (w.a.diff("u").diff("u") - w.b.diff("v").diff("v")) == ZERO
            assert (w.b.diff("u").diff("v") + w.c.diff("u").diff("u")) == ZERO
            assert (w.a.diff("u").diff("v") + w.c.diff("v").diff("v")) == ZERO


class TestInvariants:
    def test_product_potential_scalars(self):
        inv = invariants(UVX)
        assert inv.P == P("v - x^2")
        assert inv.Q == ZERO and inv.T == ZERO
        assert inv.R == P("v - x^2")
        assert inv.A == (ZERO, ZERO, ZERO)

    def test_quartic_potential_scalars(self):
        inv = invariants(QUARTIC)
        assert inv.P == Fraction(-3, 4) * P("u^2*v^2")
        assert inv.A[0] == Fraction(-3, 2) * P("v^2")

    def test_scalar_flat_b_term(self):
        inv = invariants(SCALAR_FLAT)
        assert inv.S == ZERO
        assert inv.B_plus_Sc == P("4*y")

    def test_chained_scalars(self):
        inv = invariants(CHAINED)
        assert inv.S == P("2*x")
        assert inv.B_plus_Sc == P("-2*v + 2")

    def test_mixed_curvature_matches_tensor_route(self):
        for p in (QUARTIC, CHAINED, SCALAR_FLAT):
            inv = invariants(p)
            curv = Analysis(build_metric(p)).curvature
            for i in range(3):
                assert curv.Phi[i][2] == RationalFunction(inv.A[i])
                assert curv.Phi[i][1].is_zero
                assert curv.Phi[i][0].is_zero

    def test_parallel_reduction(self):
        # with the whole chain zero the propagation scalars collapse
        p = HeavenlyPotential(theta=P("u^2*v*y + x^3"))
        inv = invariants(p)
        assert inv.Q == ZERO and inv.T == ZERO and inv.R == inv.P


class TestWaveOperator:
    def test_flat_operator(self):
        flat = WalkerMetric(a=ZERO, b=ZERO, c=ZERO)
        assert wave_operator(flat, P("u*x")) == P("2")
        assert wave_operator(flat, P("v*y^2")) == P("4*y")

    def test_first_order_tail(self):
        w = WalkerMetric(a=P("u*x"), b=ZERO, c=ZERO)
        # a_u = x contributes -x H_u
        assert wave_operator(w, P("u")) == P("-x")


class TestMasterIdentity:
    def test_trivial(self):
        assert master_identity_residual(HeavenlyPotential(theta=ZERO)) == ZERO

    def test_named_examples(self):
        for p in (UVX, QUARTIC, SCALAR_FLAT, CHAINED):
            assert master_identity_residual(p) == ZERO

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=6, deadline=None)
    def test_random_chains(self, seed):
        rng = random.Random(seed)
        assert master_identity_residual(random_potential(rng, max_degree=4)) == ZERO


class TestPsiComponents:
    def test_pure_quartic(self):
        psi = psi_components(HeavenlyPotential(theta=P("u^4")))
        assert psi == (P("-24"), ZERO, ZERO, ZERO, ZERO)

    def test_low_parameter_degree_vanishes(self):
        p = HeavenlyPotential(theta=P("u^2*v*x^5 + u*v*y + u^3"))
        assert psi_components(p) == (ZERO,) * 5

    def test_a_curvature_fault_disagrees_with_the_operator_route(self, monkeypatch):
        # the metric route is the curvature owner's Psi0 ... Psi4
        build = curvature.walker_curvature_components

        def bumped(w, frame):
            curv = build(w, frame)
            return curv._replace(Psi0=curv.Psi0 + 1)

        monkeypatch.setattr(curvature, "walker_curvature_components", bumped)
        with pytest.raises(InternalInconsistencyError, match="quartic component Psi0"):
            psi_components(HeavenlyPotential(theta=P("u^4*v + u*v^3*x")))

    def test_matches_curvature_engine(self):
        rng = random.Random(13)
        p = random_potential(rng, max_degree=4)
        psi = psi_components(p)
        curv = Analysis(build_metric(p)).curvature
        for k in range(5):
            assert curv.psi(k) == RationalFunction(psi[k])


class TestScalarFlat:
    def test_cubic_type(self):
        rep = scalar_flat_case(SCALAR_FLAT)
        assert rep.psi_t3 == Fraction(-1, 2) * P("y")
        assert rep.psi_t4 == P("u")
        assert rep.label == "{31}III"
        assert rep.A == (ZERO, Fraction(-1, 2) * P("y"), ZERO)

    def test_pointwise_label_agrees(self):
        an = Analysis(build_metric(SCALAR_FLAT))
        assert classify_sd_weyl(an, (0, 0, 0, 1)).label == "{31}III"

    def test_route_disagreement_names_a_witness(self):
        # the potential's own PsiT3 is -y/2; the curvature of a flat metric
        # put in place of the built one has PsiT3 = 0
        p = HeavenlyPotential(theta=ZERO, f=P("y^2"), F=P("u*y^2"))
        vars(p)["analysis"] = Analysis(WalkerMetric(a=ZERO, b=ZERO, c=ZERO))
        with pytest.raises(InternalInconsistencyError) as err:
            scalar_flat_case(p)
        assert_names_a_witness(str(err.value), "scalar-flat PsiT3", Fraction(-1, 2) * P("y"))

    def test_product_potential_is_self_dual_flat(self):
        rep = scalar_flat_case(UVX)
        assert rep.psi_t3 == ZERO and rep.psi_t4 == ZERO
        assert rep.label == "SD-flat"

    def test_quartic_potential_type(self):
        rep = scalar_flat_case(QUARTIC)
        assert rep.psi_t3 == ZERO
        assert rep.psi_t4 == Fraction(-9, 2) * P("u^2*v^2")
        assert rep.label == "{4}II"
        assert classify_sd_weyl(Analysis(build_metric(QUARTIC)), (1, 1, 0, 0)).label == "{4}II"

    def test_preconditions(self):
        with pytest.raises(InputError):
            scalar_flat_case(CHAINED)
        with pytest.raises(InputError):
            scalar_flat_case(HeavenlyPotential(theta=ZERO, f=P("y^2")))


class TestEinstein:
    def test_product_potential(self):
        rep = einstein_check(UVX)
        assert rep.einstein
        assert rep.R == P("v - x^2")

    def test_quartic_potential(self):
        rep = einstein_check(QUARTIC)
        assert not rep.einstein
        assert rep.residuals["R_uu"] == Fraction(-3, 2) * P("v^2")

    def test_flat(self):
        assert einstein_check(HeavenlyPotential(theta=ZERO)).einstein

    def test_scalar_flat_profile(self):
        rep = einstein_check(SCALAR_FLAT)
        assert not rep.einstein
        assert rep.residuals["R_uv"] == Fraction(-1, 2) * P("y")


class TestWalkerSymmetry:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=8, deadline=None)
    def test_swap_commutes_with_build(self, seed):
        rng = random.Random(seed)
        p = random_potential(rng, max_degree=4)
        swapped = HeavenlyPotential(
            theta=swap_poly(p.theta),
            f=swap_poly(p.g),
            g=swap_poly(p.f),
            F=swap_poly(p.G),
            G=swap_poly(p.F),
            h=swap_poly(p.h),
        )
        w = build_metric(p)
        ws = build_metric(swapped)
        assert ws.a == swap_poly(w.b)
        assert ws.b == swap_poly(w.a)
        assert ws.c == swap_poly(w.c)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=6, deadline=None)
def test_random_chain_dual_routes(seed):
    rng = random.Random(seed)
    p = random_potential(rng, max_degree=4)
    assert validate_potential(p).is_valid
    psi_components(p)
    inv = invariants(p)
    assert inv.R == inv.P + inv.Q + inv.T
