import random
from fractions import Fraction

import pytest

from walkerspin.errors import InputError
from walkerspin.poly import ONE, ZERO, Poly, RationalFunction, parse_poly
from walkerspin.spincoeff import (
    COEFF_NAMES,
    DN,
    UP,
    UP_P,
    DyadSpinorField,
    Frame,
    SpinCoefficientSet,
    connection_matrices,
    contract,
    directional,
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
    covariant_derivative_vector,
    directional_vector_derivative,
    scale_normalization,
    tetrad_transform,
    walker_tetrad,
)

from support import random_metric_functions

RF_ZERO = RationalFunction(ZERO)
RF_ONE = RationalFunction(ONE)


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
    return Frame.from_tetrad(mt, christoffel(mt), walker_tetrad(w))


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
        ch = christoffel(mt)
        t = walker_tetrad(w)
        s = spin_coefficients_from_tetrad(ch, t, mt)
        companion = priming_companion_tetrad(t)
        s_companion = spin_coefficients_from_tetrad(ch, companion, mt)
        assert_sets_equal(prime(s), s_companion, "(prime oracle)")
        assert_sets_equal(prime(prime(s)), s, "(prime involution)")


def test_tilde_relabel_matches_swapped_tetrad():
    for w in sample_metrics(4, seed=106):
        mt = assemble_metric(w)
        ch = christoffel(mt)
        # a non-unit chi checks that the normalization scalars swap too
        t = walker_tetrad(w)
        scaled = scale_normalization(t, RationalFunction(parse_poly("u + 2")), RF_ONE)
        for tetrad in (t, scaled):
            s = spin_coefficients_from_tetrad(ch, tetrad, mt)
            s_swapped = spin_coefficients_from_tetrad(ch, tilde_companion_tetrad(tetrad), mt)
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
    ch = christoffel(mt)
    t = walker_tetrad(w)
    f = RationalFunction(parse_poly("u + 2"))
    f_t = RationalFunction(Poly.const(3))
    scaled = scale_normalization(t, f, f_t)
    assert scaled.chi == f
    assert scaled.chi_t == f_t
    s = spin_coefficients_from_tetrad(ch, scaled, mt)
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
    return Frame.from_tetrad(mt, christoffel(mt), t)


def test_first_form_residuals_vanish():
    for w in sample_metrics(3, seed=109):
        for frame in (extraction_frame(w), generic_frame(w)):
            residuals = first_form_residuals(frame)
            for name, grid in residuals.items():
                for row in grid:
                    assert all(entry == RF_ZERO for entry in row), name
    assert not any(value.is_zero for value in generic_frame(w).coeffs.as_dict().values())


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
    ch = christoffel(mt)
    scaled = scale_normalization(walker_tetrad(w), RationalFunction(Poly.const(2)), RF_ONE)
    s = spin_coefficients_from_tetrad(ch, scaled, mt)
    frame = Frame(metric=mt, tetrad=scaled, ops=DirectionalOps(scaled), coeffs=s)
    with pytest.raises(InputError):
        first_form_residuals(frame)


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


def test_transform_coefficients_second_dyad():
    # On the tilde companion of the canonical tetrad the tilde kappa, rho,
    # sigma and tau families are the nonzero ones, so the derived laws of
    # the second dyad are checked with lam != lam_t and mu != mu_t.
    w = sample_metrics(1, seed=116)[0]
    mt = assemble_metric(w)
    ch = christoffel(mt)
    frame = Frame.from_tetrad(mt, ch, tilde_companion_tetrad(walker_tetrad(w)))
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
        ch = christoffel(mt)
        t = walker_tetrad(w)
        neg = lambda vec: tuple(-c for c in vec)
        hatted = Tetrad(l=t.mt, n=neg(t.m), m=t.n, mt=neg(t.l))
        s = spin_coefficients_from_tetrad(ch, hatted, mt)

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


def test_directional_wrapper():
    w = WalkerMetric(a=parse_poly("u^2"), b=parse_poly("v"), c=parse_poly("x*y"))
    t = walker_tetrad(w)
    f = parse_poly("u*v + x^2")
    assert directional(t, f, "D") == RationalFunction(parse_poly("v"))
    assert directional(t, f, "Delta") == RationalFunction(parse_poly("u"))
    with pytest.raises(InputError):
        directional(t, f, "north")


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
        field = DyadSpinorField.scalar(f)
        d = dyad_covariant_derivative(field, frame)
        assert d.component(0, 0) == frame.ops.D(f)
        assert d.component(1, 0) == frame.ops.Delta(f)
        assert d.component(0, 1) == frame.ops.delta(f)
        assert d.component(1, 1) == frame.ops.Dp(f)

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


def test_coefficient_set_helpers():
    s = SpinCoefficientSet().with_values(kappa=parse_poly("u"), gamma_tp=parse_poly("v"))
    assert s.get("kappa") == RationalFunction(parse_poly("u"))
    assert set(s.as_dict()) == set(COEFF_NAMES)
    assert len(COEFF_NAMES) == 32
    with pytest.raises(KeyError):
        s.get("lambda")
    p = prime(s)
    assert p.kappa_p == s.kappa
    assert p.gamma_t == s.gamma_tp
    r = tilde_relabel(s)
    assert r.kappa_t == s.kappa
    assert r.gamma_p == s.gamma_tp
