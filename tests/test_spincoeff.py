import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkerspin import spincoeff
from walkerspin import walker as walker_module
from walkerspin.errors import DegenerateTetradError, InputError, InternalInconsistencyError
from walkerspin.poly import ONE, ZERO, Poly, RationalFunction, parse_poly
from walkerspin.spincoeff import (
    COEFF_NAMES,
    DN,
    DN_P,
    UP,
    UP_P,
    DyadSpinorField,
    Frame,
    SpinCoefficientSet,
    connection_matrices,
    contract,
    describe_difference,
    dyad_covariant_derivative,
    first_form_residuals,
    lower_index,
    prime,
    priming_companion_tetrad,
    raise_index,
    spin_coefficients_from_tetrad,
    tilde_companion_tetrad,
    tilde_relabel,
    transform_coefficients,
    walker_closed_form,
)
from walkerspin.walker import (
    DirectionalOps,
    Tetrad,
    WalkerMetric,
    assemble_metric,
    christoffel,
    scale_normalization,
    tetrad_covectors,
    tetrad_transform,
    walker_tetrad,
)

from support import (
    christoffel_route_coefficients,
    corpus_metrics,
    covariant_derivative_vector,
    directional_vector_derivative,
    frame_values,
    random_metric_functions,
    reference_lower_index,
    reference_raise_index,
    scaled_frame,
    value_parts,
)

RF_ZERO = RationalFunction(ZERO)
RF_ONE = RationalFunction(ONE)
# the metric of the transformed frames, and the dense metric of degree 3
FRAMES_METRIC = WalkerMetric(
    a=parse_poly("u*v+x^2"), b=parse_poly("y^3-u"), c=parse_poly("u*y")
)
DENSE_METRIC = WalkerMetric.from_dict(
    {"a": "(u+v+x+y+1)^3", "b": "(u-2*v+x+1/2)^3", "c": "(u*v+x-y)^2"}
)


def P(text):
    return RationalFunction(parse_poly(text))


def sample_metrics(count, seed, max_degree=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b, c = random_metric_functions(rng, max_degree=max_degree)
        out.append(WalkerMetric(a=a, b=b, c=c))
    return out


def extraction_frame(w):
    mt = assemble_metric(w)
    return Frame.from_tetrad(mt, walker_tetrad(w))


def assert_sets_equal(s1, s2, context=""):
    for name in COEFF_NAMES:
        assert s1.get(name) == s2.get(name), f"{name} differs {context}"


def test_extraction_matches_closed_form():
    for w in sample_metrics(6, seed=101):
        frame = extraction_frame(w)
        assert_sets_equal(frame.coeffs, walker_closed_form(w))


def test_unprimed_dyad_is_parallel_along_l_and_mt():
    # The canonical tetrad is built so that u- and v-translations are
    # symmetries of the dyad; every D and Delta coefficient vanishes.
    for w in sample_metrics(3, seed=102):
        s = extraction_frame(w).coeffs
        for name in ("epsilon", "kappa", "alpha", "rho", "epsilon_t", "kappa_t",
                     "beta_t", "sigma_t"):
            assert s.get(name) == RF_ZERO


def test_constant_normalization_pairings():
    # With both normalization scalars constant the diagonal entries pair up:
    # epsilon = -gamma_p, alpha = beta_p, beta = alpha_p, gamma = -epsilon_p,
    # and the same for the tilde family.
    for w in sample_metrics(5, seed=103):
        s = extraction_frame(w).coeffs
        for plain, partner, sign in (
            ("epsilon", "gamma_p", -1),
            ("alpha", "beta_p", 1),
            ("beta", "alpha_p", 1),
            ("gamma", "epsilon_p", -1),
            ("epsilon_t", "gamma_tp", -1),
            ("alpha_t", "beta_tp", 1),
            ("beta_t", "alpha_tp", 1),
            ("gamma_t", "epsilon_tp", -1),
        ):
            assert s.get(plain) == sign * s.get(partner), (plain, partner)


def test_canonical_frame_linear_relations():
    for w in sample_metrics(5, seed=104):
        s = extraction_frame(w).coeffs
        assert s.alpha_p + s.alpha_t + s.tau == RF_ZERO
        assert s.beta + s.beta_tp + s.tau == RF_ZERO
        assert s.gamma - s.gamma_t - s.rho_p == RF_ZERO
        assert s.epsilon_p - s.epsilon_tp + s.rho_p == RF_ZERO


def test_prime_matches_companion_tetrad():
    for w in sample_metrics(4, seed=105):
        mt = assemble_metric(w)
        t = walker_tetrad(w)
        s = spin_coefficients_from_tetrad(t, mt)
        companion = priming_companion_tetrad(t)
        s_companion = spin_coefficients_from_tetrad(companion, mt)
        assert_sets_equal(prime(s), s_companion, "(prime oracle)")
        assert_sets_equal(prime(prime(s)), s, "(prime involution)")


def test_tilde_relabel_matches_swapped_tetrad():
    for w in sample_metrics(4, seed=106):
        mt = assemble_metric(w)
        # a non-unit chi checks that the normalization scalars swap too
        t = walker_tetrad(w)
        scaled = scale_normalization(t, RationalFunction(parse_poly("u + 2")), RF_ONE)
        for tetrad in (t, scaled):
            s = spin_coefficients_from_tetrad(tetrad, mt)
            s_swapped = spin_coefficients_from_tetrad(tilde_companion_tetrad(tetrad), mt)
            assert_sets_equal(tilde_relabel(s), s_swapped, "(tilde oracle)")


def reconstruction_residuals(frame):
    """Residuals of all sixteen first-derivative expansions of the tetrad."""
    t, s, ch = frame.tetrad, frame.coeffs, christoffel(frame.metric)
    legs = {"l": t.l, "n": t.n, "m": t.m, "mt": t.mt}
    nabla = {name: covariant_derivative_vector(ch, vec) for name, vec in legs.items()}
    dirs = {"D": t.l, "Delta": t.mt, "delta": t.m, "Dp": t.n}
    eqs = [
        ("D", "l", ((s.epsilon + s.epsilon_t, "l"), (s.kappa_t, "m"), (s.kappa, "mt"))),
        ("D", "n", ((s.gamma_p + s.gamma_tp, "n"), (-s.tau_p, "m"), (-s.tau_tp, "mt"))),
        ("Delta", "l", ((s.alpha + s.beta_t, "l"), (s.sigma_t, "m"), (s.rho, "mt"))),
        ("Delta", "n", ((-(s.alpha_tp + s.beta_p), "n"), (s.sigma_p, "m"), (s.rho_tp, "mt"))),
        ("delta", "l", ((s.alpha_t + s.beta, "l"), (s.rho_t, "m"), (s.sigma, "mt"))),
        ("delta", "n", ((-(s.alpha_p + s.beta_tp), "n"), (s.rho_p, "m"), (s.sigma_tp, "mt"))),
        ("Dp", "l", ((s.gamma + s.gamma_t, "l"), (s.tau_t, "m"), (s.tau, "mt"))),
        ("Dp", "n", ((s.epsilon_p + s.epsilon_tp, "n"), (-s.kappa_p, "m"), (-s.kappa_tp, "mt"))),
        ("D", "m", ((s.epsilon + s.gamma_tp, "m"), (-s.tau_tp, "l"), (s.kappa, "n"))),
        ("D", "mt", ((s.gamma_p + s.epsilon_t, "mt"), (-s.tau_p, "l"), (s.kappa_t, "n"))),
        ("Delta", "m", ((s.alpha - s.alpha_tp, "m"), (s.rho_tp, "l"), (s.rho, "n"))),
        ("Delta", "mt", ((s.beta_t - s.beta_p, "mt"), (s.sigma_p, "l"), (s.sigma_t, "n"))),
        ("delta", "m", ((s.beta - s.beta_tp, "m"), (s.sigma_tp, "l"), (s.sigma, "n"))),
        ("delta", "mt", ((s.alpha_t - s.alpha_p, "mt"), (s.rho_p, "l"), (s.rho_t, "n"))),
        ("Dp", "m", ((s.gamma + s.epsilon_tp, "m"), (-s.kappa_tp, "l"), (s.tau, "n"))),
        ("Dp", "mt", ((s.epsilon_p + s.gamma_t, "mt"), (-s.kappa_p, "l"), (s.tau_t, "n"))),
    ]
    residuals = {}
    for op, name, expansion in eqs:
        derived = directional_vector_derivative(nabla[name], dirs[op])
        expected = [RF_ZERO, RF_ZERO, RF_ZERO, RF_ZERO]
        for coeff, leg in expansion:
            vec = legs[leg]
            expected = [expected[i] + coeff * vec[i] for i in range(4)]
        residuals[(op, name)] = tuple(derived[i] - expected[i] for i in range(4))
    return residuals


def test_derivative_expansions_canonical_frame():
    for w in sample_metrics(3, seed=107):
        frame = extraction_frame(w)
        for key, res in reconstruction_residuals(frame).items():
            assert all(c == RF_ZERO for c in res), key


def test_extraction_with_nonunit_normalization():
    # Rescaling the dyads changes chi and chi_t; the extraction must keep
    # every one of the sixteen expansion identities exact.
    w = sample_metrics(1, seed=108)[0]
    mt = assemble_metric(w)
    t = walker_tetrad(w)
    f = RationalFunction(parse_poly("u + 2"))
    f_t = RationalFunction(Poly.const(3))
    scaled = scale_normalization(t, f, f_t)
    assert scaled.chi == f
    assert scaled.chi_t == f_t
    s = spin_coefficients_from_tetrad(scaled, mt)
    frame = Frame(metric=mt, tetrad=scaled, ops=DirectionalOps(scaled), coeffs=s)
    for key, res in reconstruction_residuals(frame).items():
        assert all(c == RF_ZERO for c in res), key
    # The normalization derivative enters the diagonal entries; D chi = f'
    # is nonzero here, so the pairing epsilon = -gamma_p must fail.
    assert s.epsilon != -s.gamma_p


def generic_frame(w):
    """A unit-normalized frame on which none of the 32 coefficients
    vanishes: null rotations on both sides of a priming."""
    mt = assemble_metric(w)
    t = tetrad_transform(walker_tetrad(w), RF_ONE, RF_ONE, P("v"), P("x"))
    t = tetrad_transform(priming_companion_tetrad(t), RF_ONE, RF_ONE, P("y"), P("u"))
    return Frame.from_tetrad(mt, t)


def test_first_form_residuals_vanish():
    for w in sample_metrics(3, seed=109):
        for frame in (extraction_frame(w), generic_frame(w)):
            residuals = first_form_residuals(frame)
            for name, grid in residuals.items():
                for row in grid:
                    assert all(entry == RF_ZERO for entry in row), name
    assert not any(value.is_zero for value in generic_frame(w).coeffs)


def test_first_form_residuals_detect_bad_coefficient():
    w = WalkerMetric(a=parse_poly("u^2"), b=Poly.zero(), c=Poly.zero())
    frame = extraction_frame(w)
    bad = Frame(metric=frame.metric, tetrad=frame.tetrad, ops=frame.ops,
                coeffs=frame.coeffs.with_values(sigma=frame.coeffs.sigma + RF_ONE))
    residuals = first_form_residuals(bad)
    assert any(
        entry != RF_ZERO for grid in residuals.values() for row in grid for entry in row
    )


@pytest.mark.parametrize("name, grid", [
    ("kappa", "dl"), ("sigma", "dm"), ("sigma_t", "dmt"), ("kappa_p", "dn"),
])
def test_first_form_bump_shows_in_its_grid(name, grid):
    # dmt and dn are derived from the dm and dl expansions on companion
    # tetrads; each of these coefficients enters exactly one grid.
    w = sample_metrics(1, seed=115)[0]
    frame = extraction_frame(w)
    bumped = Frame(metric=frame.metric, tetrad=frame.tetrad, ops=frame.ops,
                   coeffs=frame.coeffs.with_values(**{name: frame.coeffs.get(name) + RF_ONE}))
    residuals = first_form_residuals(bumped)
    assert list(residuals) == ["dl", "dm", "dmt", "dn"]
    nonzero = {
        key for key, rows in residuals.items()
        if any(entry != RF_ZERO for row in rows for entry in row)
    }
    assert nonzero == {grid}


def test_first_form_requires_unit_normalization():
    w = sample_metrics(1, seed=110)[0]
    mt = assemble_metric(w)
    scaled = scale_normalization(walker_tetrad(w), RationalFunction(Poly.const(2)), RF_ONE)
    s = spin_coefficients_from_tetrad(scaled, mt)
    frame = Frame(metric=mt, tetrad=scaled, ops=DirectionalOps(scaled), coeffs=s)
    with pytest.raises(InputError):
        first_form_residuals(frame)


def test_frame_owns_its_lowered_legs():
    w = sample_metrics(1, seed=112)[0]
    mt = assemble_metric(w)
    scaled = scale_normalization(walker_tetrad(w), P("1 + u"), P("2 - x"))
    for frame in (Frame.walker(w), Frame.from_tetrad(mt, scaled)):
        assert frame.covectors is frame.covectors
        assert frame.covectors == tetrad_covectors(frame.metric, frame.tetrad)


def test_from_tetrad_lowers_the_legs_and_builds_the_operators_once(monkeypatch):
    """Frame.from_tetrad validates and lowers a tetrad once, and the Koszul
    extraction, ``covectors`` and the first-form expansions of both
    companions read those legs and that one DirectionalOps."""
    calls = {"lowered": 0, "ops": 0}

    def counting_covectors(mt, t):
        calls["lowered"] += 1
        return tetrad_covectors(mt, t)

    init = DirectionalOps.__init__

    def counting_init(self, t):
        calls["ops"] += 1
        init(self, t)

    monkeypatch.setattr(walker_module, "tetrad_covectors", counting_covectors)
    monkeypatch.setattr(spincoeff, "tetrad_covectors", counting_covectors)
    monkeypatch.setattr(DirectionalOps, "__init__", counting_init)
    w = sample_metrics(1, seed=116)[0]
    frame = generic_frame(w)
    frame.covectors
    assert calls == {"lowered": 1, "ops": 1}
    first_form_residuals(frame)
    assert calls == {"lowered": 1, "ops": 1}


def test_first_form_companion_legs_are_the_companion_tetrads_lowered():
    """dmt and dn read the frame's lowered legs permuted and signed; they
    equal the lowered legs of the companion tetrads, and, with every
    coefficient bumped so that no grid vanishes, each grid is the dm or dl
    grid of a frame on the companion tetrad itself."""
    w = sample_metrics(1, seed=117)[0]
    for frame in (extraction_frame(w), generic_frame(w)):
        mt, t = frame.metric, frame.tetrad
        l_, n_, m_, mt_ = frame.covectors
        neg = lambda vec: tuple(-c for c in vec)
        assert tetrad_covectors(mt, tilde_companion_tetrad(t)) == (l_, n_, mt_, m_)
        assert tetrad_covectors(mt, priming_companion_tetrad(t)) == (n_, l_, neg(mt_), neg(m_))
        s = frame.coeffs.with_values(**{
            name: frame.coeffs.get(name) + P(f"{i + 1}*u - v")
            for i, name in enumerate(COEFF_NAMES)
        })
        residuals = first_form_residuals(frame._replace(coeffs=s))
        for key, companion, relabel, grid in (
            ("dmt", tilde_companion_tetrad, tilde_relabel, "dm"),
            ("dn", priming_companion_tetrad, prime, "dl"),
        ):
            c = companion(t)
            own = Frame(metric=mt, tetrad=c, ops=DirectionalOps(c), coeffs=relabel(s))
            assert any(entry != RF_ZERO for row in residuals[key] for entry in row)
            assert residuals[key] == first_form_residuals(own)[grid]


def test_degenerate_normalization_refused():
    w = sample_metrics(1, seed=113)[0]
    t = walker_tetrad(w)
    with pytest.raises(DegenerateTetradError, match="vanishes identically"):
        Frame.from_tetrad(assemble_metric(w), t._replace(chi=ZERO))
    with pytest.raises(InputError, match="must not vanish"):
        scale_normalization(t, 0, 1)


def test_transform_coefficients_closed_forms():
    w = sample_metrics(1, seed=111)[0]
    frame = extraction_frame(w)
    lam = RationalFunction(parse_poly("u + 2"))
    lam_t = RationalFunction(Poly.const(3))
    mu = RationalFunction(parse_poly("v"))
    mu_t = RationalFunction(parse_poly("x - 1"))
    s_new, new_t = transform_coefficients(frame, lam, lam_t, mu, mu_t)
    s = frame.coeffs
    # The canonical frame has kappa = rho = 0, so sigma and tau pick up
    # only the scaling factors.
    assert s_new.sigma == lam * lam * lam / lam_t * s.sigma
    assert s_new.tau == lam / lam_t * s.tau + lam * mu_t * s.rho + lam * lam / lam_t * mu * s.sigma
    assert new_t.chi == frame.tetrad.chi


def test_transform_coefficients_refuses_none():
    frame = extraction_frame(sample_metrics(1, seed=111)[0])
    for args in ((None, ONE, ONE, ONE), (ONE, ONE, None, ONE)):
        with pytest.raises(InputError, match="got NoneType"):
            transform_coefficients(frame, *args)


def test_transform_coefficients_second_dyad():
    # On the tilde companion of the canonical tetrad the tilde kappa, rho,
    # sigma and tau families are the nonzero ones, so the derived laws of
    # the second dyad are checked with lam != lam_t and mu != mu_t.
    w = sample_metrics(1, seed=116)[0]
    mt = assemble_metric(w)
    frame = Frame.from_tetrad(mt, tilde_companion_tetrad(walker_tetrad(w)))
    s = frame.coeffs
    assert not s.sigma_t.is_zero and not s.tau_t.is_zero
    lam = RationalFunction(parse_poly("u + 2"))
    lam_t = RationalFunction(Poly.const(3))
    mu = RationalFunction(parse_poly("v"))
    mu_t = RationalFunction(parse_poly("x - 1"))
    s_new, _ = transform_coefficients(frame, lam, lam_t, mu, mu_t)
    assert s_new.sigma_t == lam_t * lam_t * lam_t / lam * s.sigma_t
    assert s_new.tau_t == (
        lam_t / lam * s.tau_t + lam_t * mu * s.rho_t + lam_t * lam_t / lam * mu_t * s.sigma_t
    )


@pytest.mark.parametrize(
    "params",
    [("1+u", "1", "x", "0"), ("1", "1", "x", "y"), ("1+x", "1", "0", "y"), ("1+u", "1+v", "0", "0")],
)
def test_transform_quotients_keep_their_denominators(params):
    """Every RationalFunction of a transformed frame, coefficient or tetrad
    leg, has a nonconstant denominator; every other value is a Poly."""
    w = WalkerMetric(a=parse_poly("u*v+x^2"), b=parse_poly("y^3-u"), c=parse_poly("u*y"))
    coeffs, t = transform_coefficients(Frame.walker(w), *map(parse_poly, params))
    values = [coeffs.get(name) for name in COEFF_NAMES]
    values += [*t.l, *t.n, *t.m, *t.mt, t.chi, t.chi_t]
    for value in values:
        if isinstance(value, RationalFunction):
            assert value.den.constant_value() is None, value
        else:
            assert type(value) is Poly, value
    # constant lam and lam_t leave no denominator at all
    quotients = [value for value in values if isinstance(value, RationalFunction)]
    assert (not quotients) == (params[:2] == ("1", "1"))


def test_transform_rejects_vanishing_scale():
    w = sample_metrics(1, seed=112)[0]
    frame = extraction_frame(w)
    with pytest.raises(InputError):
        transform_coefficients(frame, RF_ZERO, RF_ONE, RF_ZERO, RF_ZERO)


def test_hatted_frame_closed_form():
    # Exchanging the roles of the two null 2-surface directions gives a
    # second canonical-style frame; every coefficient of the recomputed
    # set must match the directly written table.
    for w in sample_metrics(2, seed=113):
        mt = assemble_metric(w)
        t = walker_tetrad(w)
        neg = lambda vec: tuple(-c for c in vec)
        hatted = Tetrad(l=t.mt, n=neg(t.m), m=t.n, mt=neg(t.l))
        s = spin_coefficients_from_tetrad(hatted, mt)

        a, b, c = w.a, w.b, w.c
        a1, a2 = a.diff("u"), a.diff("v")
        b1, b2 = b.diff("u"), b.diff("v")
        c1, c2 = c.diff("u"), c.diff("v")
        a4, b3 = a.diff("y"), b.diff("x")
        c3, c4 = c.diff("x"), c.diff("y")
        q = Fraction(1, 4)
        kc = (2 * c3 - 2 * a4 + b * a2 + c * a1 - a * c1 - c * c2) * q
        kd = (2 * c4 - 2 * b3 - c * c1 - b * c2 + a * b1 + c * b2) * q
        expected = {
            "epsilon_p": (c1 - b2) * q,
            "epsilon_tp": -((c1 + b2) * q),
            "alpha_p": (c2 - a1) * q,
            "alpha_t": (c2 + a1) * q,
            "beta": (c2 - a1) * q,
            "beta_tp": (c2 + a1) * q,
            "gamma": (b2 - c1) * q,
            "gamma_t": (c1 + b2) * q,
            "kappa_p": b1 * Fraction(1, 2),
            "kappa_tp": kd,
            "rho_p": -(c1 * Fraction(1, 2)),
            "sigma": -(a2 * Fraction(1, 2)),
            "sigma_tp": kc,
            "tau": -(c2 * Fraction(1, 2)),
        }
        for name in COEFF_NAMES:
            want = RationalFunction(expected[name]) if name in expected else RF_ZERO
            assert s.get(name) == want, f"hatted {name}"


class TestDyadCalculus:
    def frame(self):
        w = sample_metrics(1, seed=114)[0]
        return Frame.walker(w), w

    def test_connection_matrix_columns_are_dyad_derivatives(self):
        frame, w = self.frame()
        gamma, gamma_t = connection_matrices(frame.coeffs)
        o = DyadSpinorField((UP,), {(0,): ONE})
        iota = DyadSpinorField((UP,), {(1,): ONE})
        do = dyad_covariant_derivative(o, frame)
        diota = dyad_covariant_derivative(iota, frame)
        from walkerspin.spincoeff import DIR_OF

        for pair, op in DIR_OF.items():
            for i in (0, 1):
                assert do.component(*pair, i) == gamma[op][i][0]
                assert diota.component(*pair, i) == gamma[op][i][1]

    def test_walker_dyad_derivatives(self):
        # The unprimed dyad is parallel along the two distribution legs
        # and has the quarter-derivative mixing along the other two.
        frame, w = self.frame()
        a, b, c = w.a, w.b, w.c
        o = DyadSpinorField((UP,), {(0,): ONE})
        do = dyad_covariant_derivative(o, frame)
        for pair in ((0, 0), (1, 0)):
            assert do.component(*pair, 0) == RF_ZERO
            assert do.component(*pair, 1) == RF_ZERO
        assert do.component(1, 1, 0) == RationalFunction(
            (a.diff("u") - c.diff("v")) * Fraction(1, 4)
        )
        assert do.component(1, 1, 1) == RationalFunction(c.diff("u") * Fraction(1, 2))
        assert do.component(0, 1, 0) == RationalFunction(
            (b.diff("v") - c.diff("u")) * Fraction(1, 4)
        )
        assert do.component(0, 1, 1) == RationalFunction(
            -(b.diff("u") * Fraction(1, 2))
        )

    def test_primed_direction_spinor_is_recurrent(self):
        # The first primed dyad element reproduces itself under every
        # derivative, with a covector of quarter-derivatives as factor.
        frame, w = self.frame()
        a, b, c = w.a, w.b, w.c
        pi = DyadSpinorField((UP_P,), {(0,): ONE})
        dpi = dyad_covariant_derivative(pi, frame)
        assert dpi.component(0, 0, 0) == RF_ZERO
        assert dpi.component(1, 0, 0) == RF_ZERO
        assert dpi.component(1, 1, 0) == RationalFunction(
            (a.diff("u") + c.diff("v")) * Fraction(1, 4)
        )
        assert dpi.component(0, 1, 0) == RationalFunction(
            -((b.diff("v") + c.diff("u")) * Fraction(1, 4))
        )
        # No component along the second dyad element anywhere.
        for pair in ((0, 0), (1, 0), (0, 1), (1, 1)):
            assert dpi.component(*pair, 1) == RF_ZERO

    def test_scalar_derivative_has_no_connection_terms(self):
        frame, _ = self.frame()
        f = RationalFunction(parse_poly("u^2*v - x*y"))
        field = DyadSpinorField((), {(): f})
        d = dyad_covariant_derivative(field, frame)
        assert d.component(0, 0) == frame.ops.apply("D", f)
        assert d.component(1, 0) == frame.ops.apply("Delta", f)
        assert d.component(0, 1) == frame.ops.apply("delta", f)
        assert d.component(1, 1) == frame.ops.apply("Dp", f)

    def test_raise_lower_round_trip(self):
        field = DyadSpinorField((UP,), {(0,): parse_poly("u"), (1,): parse_poly("v")})
        lowered = lower_index(field, 0)
        assert lowered.indices == (DN,)
        assert lowered.component(0) == RationalFunction(-parse_poly("v"))
        assert lowered.component(1) == RationalFunction(parse_poly("u"))
        assert raise_index(lowered, 0) == field

    def test_contraction_pairing(self):
        o_up = DyadSpinorField((UP,), {(0,): ONE})
        iota_up = DyadSpinorField((UP,), {(1,): ONE})
        iota_dn = lower_index(iota_up, 0)
        o_dn = lower_index(o_up, 0)
        pair = DyadSpinorField(
            (DN, UP), {(i, j): o_dn.component(i) * iota_up.component(j)
                       for i in (0, 1) for j in (0, 1)}
        )
        assert contract(pair, 1, 0).component() == RF_ONE
        flipped = DyadSpinorField(
            (DN, UP), {(i, j): iota_dn.component(i) * o_up.component(j)
                       for i in (0, 1) for j in (0, 1)}
        )
        assert contract(flipped, 1, 0).component() == -RF_ONE

    def test_valence_validation(self):
        with pytest.raises(InputError):
            DyadSpinorField(("Q",), {})
        with pytest.raises(InputError):
            DyadSpinorField((UP,), {(0, 1): ONE})
        field = DyadSpinorField((UP,), {(0,): ONE})
        with pytest.raises(InputError):
            raise_index(field, 0)
        with pytest.raises(InputError):
            contract(DyadSpinorField((UP, UP), {}), 0, 1)

    def test_index_positions_are_read_or_refused(self):
        # a position names an index of the field: a negative one would
        # slice the component keys at the wrong place
        u, v, x, y = map(Poly.variable, "uvxy")
        f = DyadSpinorField((DN, DN_P), {(0, 0): u, (0, 1): v, (1, 0): x, (1, 1): y})
        h = DyadSpinorField((UP, UP_P), f.comps)
        g = DyadSpinorField((UP_P, DN_P), {(0, 0): u, (1, 1): y})
        assert contract(g, 0, 1) == DyadSpinorField((), {(): u + y})
        assert raise_index(f, 1).indices == (DN, UP_P)
        assert lower_index(h, 1).indices == (UP, DN_P)
        for pos in (-1, -2, -3, 2, 5, 10**400, 1.0, None, "0"):
            with pytest.raises(InputError, match="no index at position"):
                raise_index(f, pos)
            with pytest.raises(InputError, match="no index at position"):
                lower_index(h, pos)
            with pytest.raises(InputError, match="no index at position"):
                contract(g, pos, 1)
            with pytest.raises(InputError, match="no index at position"):
                contract(g, 0, pos)
        with pytest.raises(InputError, match="no index at position 5"):
            raise_index(DyadSpinorField((DN,), {}), 5)


def test_coefficient_set_helpers():
    s = SpinCoefficientSet().with_values(kappa=parse_poly("u"), gamma_tp=parse_poly("v"))
    assert s.get("kappa") == RationalFunction(parse_poly("u"))
    assert set(s._asdict()) == set(COEFF_NAMES)
    assert len(COEFF_NAMES) == 32
    with pytest.raises(KeyError):
        s.get("lambda")
    p = prime(s)
    assert p.kappa_p == s.kappa
    assert p.gamma_t == s.gamma_tp
    r = tilde_relabel(s)
    assert r.kappa_t == s.kappa
    assert r.gamma_p == s.gamma_tp


def test_with_values_names_an_unknown_coefficient():
    # named as get names it, and still the ValueError it was
    s = SpinCoefficientSet()
    with pytest.raises(InputError, match="^unknown coefficient 'nosuch'$"):
        s.with_values(nosuch=1)
    with pytest.raises(ValueError, match="'lambda_'"):
        s.with_values(kappa=1, lambda_=2)


def _frame_digest(coeffs, t) -> str:
    """SHA-256 of the printed coefficients and tetrad legs: it pins the
    representative of every quotient, not just its value."""
    values = frame_values(coeffs, t)
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()


_GOLDEN_TRANSFORMS = {
    ("1+u", "1", "x", "0"):
        "ae29b4ba02733b2c6ed85694cd4675e90cf39ece5c5d7aa7de75e720b58838f2",
    ("1", "1", "x", "y"):
        "b8400659f3397472c55bef1cb42262b448392d048c76ec954ef8cd7a88d88c92",
    ("1+x", "1", "0", "y"):
        "f178b7513917086df5e2cb4f25146899fb29a4e055ed18a19cf5c50a641b12b3",
    ("1+u", "1+v", "0", "0"):
        "3e4c5311abe541f630a5c507b89aa91895dde75ae74b92e9486cb2d4d73abfa2",
}


@pytest.mark.parametrize("params", list(_GOLDEN_TRANSFORMS))
def test_transform_representatives_are_pinned(params):
    """Each quotient is reduced over the factors 1+u, 1+v and 1+x, so these
    digests pin its one representative.  The values themselves are checked
    against the unreduced representatives by the test below."""
    w = WalkerMetric(a=parse_poly("u*v+x^2"), b=parse_poly("y^3-u"), c=parse_poly("u*y"))
    coeffs, t = transform_coefficients(Frame.walker(w), *map(parse_poly, params))
    assert _frame_digest(coeffs, t) == _GOLDEN_TRANSFORMS[params]


def test_scaled_frame_representatives_are_pinned():
    w = WalkerMetric(a=parse_poly("u*v+x^2"), b=parse_poly("y^3-u"), c=parse_poly("u*y"))
    coeffs, t = scaled_frame(w, parse_poly("1+u"), ONE)
    assert _frame_digest(coeffs, t) == (
        "93a1c775fc0ebb868825abe72d32e380cd2014b9fd0d0805a18e13e812965eb6"
    )


def _printed_parts(text: str):
    """(numerator, denominator) of a printed Poly or RationalFunction."""
    if ") / (" not in text:
        return parse_poly(text), ONE
    num, den = text[1:-1].split(") / (")
    return parse_poly(num), parse_poly(den)


def test_representatives_equal_the_parents():
    """The coefficients and legs printed before denominators were reduced
    (tests/data/parent_representatives.json: the four golden transforms and
    the scaled frame) equal today's values as rational functions, by
    cross-multiplication."""
    data = json.loads(
        (Path(__file__).parent / "data" / "parent_representatives.json").read_text()
    )
    w = WalkerMetric(**{k: parse_poly(v) for k, v in data["metric"].items()})
    cases = []
    for entry in data["transforms"]:
        coeffs, t = transform_coefficients(Frame.walker(w), *map(parse_poly, entry["params"]))
        cases.append((entry["values"], frame_values(coeffs, t)))
    scaled = data["scaled"]
    coeffs, t = scaled_frame(w, parse_poly(scaled["f"]), parse_poly(scaled["f_t"]))
    cases.append((scaled["values"], frame_values(coeffs, t)))
    assert len(cases) == 5
    for texts, values in cases:
        assert len(texts) == len(values) == 48
        for text, value in zip(texts, values):
            num, den = value_parts(value)
            parent_num, parent_den = _printed_parts(text)
            assert num * parent_den == parent_num * den, text[:80]


@pytest.mark.parametrize("params", [("1+u", "1+v", "x", "0"), ("1+u", "1+v", "x", "y")])
def test_large_frames_keep_only_the_scale_factors(params):
    """The frames that took seconds while denominators were multiplied out:
    every denominator is a product of powers of lam = 1+u and lam_t = 1+v."""
    w = WalkerMetric(a=parse_poly("u*v+x^2"), b=parse_poly("y^3-u"), c=parse_poly("u*y"))
    coeffs, t = transform_coefficients(Frame.walker(w), *map(parse_poly, params))
    allowed = {parse_poly("1+u"), parse_poly("1+v")}
    quotients = [v for v in frame_values(coeffs, t) if isinstance(v, RationalFunction)]
    assert len(quotients) > 16
    for value in quotients:
        assert value.factors and set(value.factors) <= allowed, value


def test_difference_vanishing_on_the_small_grid_names_no_point():
    diff = parse_poly("u*(u^2 - 1)*(u^2 - 4)")
    assert describe_difference(diff, ZERO) == (
        "the difference has 3 numerator terms and is nonzero at no integer point in [-2, 2]^4"
    )


def test_witness_skips_a_point_where_an_operand_has_no_value():
    # the difference is 1 everywhere, but 1/u has no value where u = 0
    reciprocal = ONE / parse_poly("u")
    assert describe_difference(reciprocal + 1, reciprocal) == (
        "the difference has 1 numerator terms and is nonzero at (u, v, x, y) = (1, 0, 0, 0)"
    )


def test_law_mismatch_names_a_witness(monkeypatch):
    """A law that disagrees with recomputation raises an error naming the
    coefficient, the size of the difference and a point where it is
    nonzero; the difference re-evaluates to nonzero there."""
    laws = spincoeff._transformation_laws
    u = parse_poly("u")

    def broken(s, *params):
        out = laws(s, *params)
        out["kappa"] = out["kappa"] + u
        return out

    monkeypatch.setattr(spincoeff, "_transformation_laws", broken)
    w = WalkerMetric(a=parse_poly("u*v+x^2"), b=parse_poly("y^3-u"), c=parse_poly("u*y"))
    frame = Frame.walker(w)
    params = tuple(map(parse_poly, ("1+u", "1+v", "x", "0")))
    with pytest.raises(InternalInconsistencyError) as err:
        transform_coefficients(frame, *params)
    message = str(err.value)
    assert "transformation for kappa disagrees" in message
    match = re.search(
        r"has (\d+) numerator terms and is nonzero at \(u, v, x, y\) = \(([-\d, ]+)\)$",
        message,
    )
    assert match, message
    point = tuple(int(c) for c in match.group(2).split(","))
    new_t = tetrad_transform(frame.tetrad, *params)
    full = spin_coefficients_from_tetrad(new_t, frame.metric)
    diff = full.kappa - broken(frame.coeffs, *params)["kappa"]
    num, _ = value_parts(diff)
    assert int(match.group(1)) == len(num.terms)
    assert diff.eval_at(point) != 0


@pytest.mark.parametrize("name, params, message", [
    ("tau", ("1", "1", "x", "y"), "2 numerator terms and is nonzero at (u, v, x, y) = (0, 0, 0, 1)"),
    ("tau", ("1+u", "1+v", "x", "0"),
     "5 numerator terms and is nonzero at (u, v, x, y) = (0, 0, 0, 1)"),
    ("sigma", ("1+u", "1+v", "x", "y"),
     "4 numerator terms and is nonzero at (u, v, x, y) = (0, 0, 0, 0)"),
], ids=["poly", "quotient", "four-parameter"])
def test_law_mismatch_counts_the_packed_numerator(monkeypatch, name, params, message):
    """A doubled law differs from recomputation by the law itself, a
    polynomial or a quotient; the message counts its numerator terms as
    the ``Fraction`` view ``terms`` of the difference does."""
    laws = spincoeff._transformation_laws

    def doubled(s, *args):
        out = laws(s, *args)
        out[name] = out[name] * 2
        return out

    monkeypatch.setattr(spincoeff, "_transformation_laws", doubled)
    with pytest.raises(InternalInconsistencyError) as err:
        transform_coefficients(Frame.walker(FRAMES_METRIC), *map(parse_poly, params))
    assert str(err.value) == (
        f"closed-form transformation for {name} disagrees with recomputation: "
        f"the difference has {message}"
    )


# ---------------------------------------------------------------------------
# The Koszul route against the Christoffel route, on every kind of frame.
# ---------------------------------------------------------------------------

def assert_routes_agree(t, w):
    mt = assemble_metric(w)
    assert_sets_equal(
        spin_coefficients_from_tetrad(t, mt), christoffel_route_coefficients(t, mt),
        "(Koszul route against Christoffel route)",
    )


@pytest.mark.parametrize("w", corpus_metrics()[:5] + [DENSE_METRIC],
                         ids=[f"corpus{i}" for i in range(5)] + ["dense3"])
def test_koszul_route_on_canonical_frames(w):
    assert_routes_agree(walker_tetrad(w), w)


@pytest.mark.parametrize("params", list(_GOLDEN_TRANSFORMS) + [
    ("1+u", "1+v", "x", "0"), ("1+u", "1+v", "x", "y"),
])
def test_koszul_route_on_transformed_frames(params):
    t = tetrad_transform(walker_tetrad(FRAMES_METRIC), *map(parse_poly, params))
    assert_routes_agree(t, FRAMES_METRIC)


def test_koszul_route_on_scaled_and_companion_frames():
    # a quotient chi and a polynomial chi_t make every X(g_YZ) term nonzero
    f = RationalFunction(parse_poly("u + 2"), parse_poly("1 + v"))
    scaled = scale_normalization(walker_tetrad(FRAMES_METRIC), f, P("1 + x"))
    assert not DirectionalOps(scaled).apply("Dp", scaled.chi * scaled.chi_t).is_zero
    for t in (walker_tetrad(FRAMES_METRIC), scaled):
        for frame in (t, priming_companion_tetrad(t), tilde_companion_tetrad(t)):
            assert_routes_agree(frame, FRAMES_METRIC)


# c + d * (one coordinate), with small integers c and d
_small_linear = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.sampled_from("uvxy")).map(
    lambda c: c[0] + c[1] * Poly.variable(c[2])
)
_nonvanishing = _small_linear.filter(lambda p: not p.is_zero)


@settings(max_examples=20, deadline=None)
@given(lam=_nonvanishing, lam_t=_nonvanishing, mu=_small_linear, mu_t=_small_linear)
def test_koszul_route_on_random_transforms(lam, lam_t, mu, mu_t):
    t = tetrad_transform(walker_tetrad(FRAMES_METRIC), lam, lam_t, mu, mu_t)
    assert_routes_agree(t, FRAMES_METRIC)


@st.composite
def _spinor_fields(draw):
    """A field of up to four indices of mixed kinds, each component a
    small linear polynomial."""
    indices = draw(st.lists(st.sampled_from((UP, DN, UP_P, DN_P)), max_size=4))
    keys = list(itertools.product((0, 1), repeat=len(indices)))
    values = draw(st.lists(_small_linear, min_size=len(keys), max_size=len(keys)))
    return DyadSpinorField(indices, dict(zip(keys, values)))


@settings(max_examples=60, deadline=None)
@given(field=_spinor_fields())
def test_epsilon_move_matches_the_two_branch_reference(field):
    for pos, kind in enumerate(field.indices):
        for move, reference in ((raise_index, reference_raise_index),
                                (lower_index, reference_lower_index)):
            try:
                want = reference(field, pos)
            except InputError as err:
                with pytest.raises(InputError, match=f"^{err}$"):
                    move(field, pos)
                continue
            assert move(field, pos) == want
        if kind in (UP, UP_P):
            assert raise_index(lower_index(field, pos), pos) == field
        else:
            assert lower_index(raise_index(field, pos), pos) == field
