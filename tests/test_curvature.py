import dataclasses
import random
from fractions import Fraction

import pytest

from walkerspin.curvature import (
    Analysis,
    CurvatureSpinors,
    bianchi_contracted_residual,
    classify_sd_weyl,
    commutator_residuals,
    commutator_residuals_from_fields,
    commutator_vector_fields,
    field_equation_residuals,
    phi_lambda_from_ricci,
    prime_curvature,
    ricci_tensor,
    riemann,
    scalar_curvature,
    tilde_curvature,
    walker_curvature_components,
)
from walkerspin.errors import InputError
from walkerspin.poly import ONE, ZERO, Poly, RationalFunction, parse_poly
from walkerspin.spincoeff import (
    COEFF_NAMES,
    Frame,
    SpinCoefficientSet,
    prime,
    priming_companion_tetrad,
    tilde_companion_tetrad,
    tilde_relabel,
)
from walkerspin.walker import (
    DirectionalOps,
    WalkerMetric,
    assemble_metric,
    christoffel,
    walker_tetrad,
)

from support import corpus_metrics, monomials_to_degree, random_metric_functions, random_poly

RF_ZERO = RationalFunction(ZERO)


def sample_metrics(count, seed, max_degree=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b, c = random_metric_functions(rng, max_degree=max_degree)
        out.append(WalkerMetric(a=a, b=b, c=c))
    return out


def test_scalar_curvature_calibration():
    # For a = b = 0, c = u*v the scalar curvature is exactly 2; this pins
    # the overall sign convention of the tensor route.
    w = WalkerMetric(a=Poly.zero(), b=Poly.zero(), c=parse_poly("u*v"))
    mt = assemble_metric(w)
    ch = christoffel(mt)
    ricci = ricci_tensor(ch)
    assert scalar_curvature(mt, ricci) == Poly.const(2)
    curv = Analysis(w).curvature
    assert curv.S == RationalFunction(Poly.const(2))


def test_riemann_symmetries():
    for w in sample_metrics(2, seed=201, max_degree=2):
        mt = assemble_metric(w)
        data = riemann(mt, christoffel(mt))
        R = data.lowered
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for d in range(4):
                        assert R[a][b][c][d] == -R[b][a][c][d]
                        assert R[a][b][c][d] == -R[a][b][d][c]
                        assert R[a][b][c][d] == R[c][d][a][b]
                        cyclic = R[a][b][c][d] + R[a][c][d][b] + R[a][d][b][c]
                        assert cyclic == Poly.zero()


def test_ricci_routes_agree_and_bianchi_holds():
    for w in sample_metrics(3, seed=202):
        mt = assemble_metric(w)
        ch = christoffel(mt)
        ricci = ricci_tensor(ch)
        for b in range(4):
            for d in range(4):
                assert ricci[b][d] == ricci[d][b]
        scalar = scalar_curvature(mt, ricci)
        residual = bianchi_contracted_residual(mt, ch, ricci, scalar)
        assert all(entry == Poly.zero() for entry in residual)


def test_tensor_route_matches_coefficient_route():
    for w in sample_metrics(3, seed=203):
        mt = assemble_metric(w)
        ch = christoffel(mt)
        t = walker_tetrad(w)
        ricci = ricci_tensor(ch)
        scalar = scalar_curvature(mt, ricci)
        phi, lam = phi_lambda_from_ricci(ricci, scalar, mt, t)
        curv = Analysis(w).curvature
        for i in range(3):
            for j in range(3):
                assert phi[i][j] == curv.Phi[i][j], (i, j)
        assert lam == curv.Lambda
        assert curv.PsiT2 == curv.S * Fraction(1, 12)
        assert curv.PsiT2 == -2 * curv.Lambda
        assert curv.Pi == curv.Lambda


def test_structural_zeroes_via_tensor_route():
    # The canonical frame kills one whole column of the mixed block; the
    # tensor route must reproduce those zeroes independently.
    for w in sample_metrics(3, seed=204):
        mt = assemble_metric(w)
        ch = christoffel(mt)
        t = walker_tetrad(w)
        ricci = ricci_tensor(ch)
        phi, _ = phi_lambda_from_ricci(ricci, scalar_curvature(mt, ricci), mt, t)
        assert phi[0][0] == RF_ZERO
        assert phi[1][0] == RF_ZERO
        assert phi[2][0] == RF_ZERO


def test_phi_requires_unit_normalization():
    from walkerspin.walker import scale_normalization

    w = sample_metrics(1, seed=205)[0]
    mt = assemble_metric(w)
    ch = christoffel(mt)
    scaled = scale_normalization(
        walker_tetrad(w), RationalFunction(Poly.const(2)), RationalFunction(ONE)
    )
    ricci = ricci_tensor(ch)
    with pytest.raises(InputError):
        phi_lambda_from_ricci(ricci, scalar_curvature(mt, ricci), mt, scaled)


def test_field_equation_residuals_vanish():
    for w in sample_metrics(3, seed=206):
        frame = Frame.walker(w)
        curv = walker_curvature_components(w, frame)
        residuals = field_equation_residuals(frame, curv)
        assert len(residuals) == 48
        for label, value in residuals.items():
            assert value == RF_ZERO, label


def test_analysis_builds_each_layer_once():
    w = WalkerMetric(a=parse_poly("u*v"), b=parse_poly("x^3"), c=parse_poly("u*y"))
    an = Analysis(w)
    assert an.frame is an.frame
    assert an.curvature is an.curvature
    assert an.curvature == walker_curvature_components(w, Frame.walker(w))


def test_field_equations_detect_perturbation():
    w = WalkerMetric(a=parse_poly("u^2"), b=Poly.zero(), c=Poly.zero())
    frame = Frame.walker(w)
    curv = walker_curvature_components(w, frame)
    bad = Frame(metric=frame.metric, tetrad=frame.tetrad, ops=frame.ops,
                coeffs=frame.coeffs.with_values(
                    sigma=frame.coeffs.sigma + RationalFunction(ONE)))
    residuals = field_equation_residuals(bad, curv)
    dirty = [label for label, value in residuals.items() if value != RF_ZERO]
    assert dirty


def test_field_equations_covariant_under_priming_and_dyad_swap():
    # With every coefficient and curvature component an unrelated random
    # polynomial, each primed and second-dyad equation is still the
    # unprimed one on the companion frame, and priming twice or swapping
    # the dyads twice gives back the unprimed equation.
    rng = random.Random(210)

    def rand():
        return RationalFunction(random_poly(rng, max_degree=3, max_terms=3))

    def on(frame, t, s, c):
        return field_equation_residuals(
            dataclasses.replace(frame, tetrad=t, ops=DirectionalOps(t), coeffs=s), c
        )

    for w in corpus_metrics()[:4]:
        frame = Frame.walker(w)
        t = frame.tetrad
        for _ in range(2):
            s = SpinCoefficientSet(**{name: rand() for name in COEFF_NAMES})
            c = CurvatureSpinors(
                **{f"Psi{k}": rand() for k in range(5)},
                **{f"PsiT{k}": rand() for k in range(5)},
                Phi=tuple(tuple(rand() for _ in range(3)) for _ in range(3)),
                Lambda=rand(), Pi=rand(), S=rand(),
            )
            res = on(frame, t, s, c)
            primed = on(frame, priming_companion_tetrad(t), prime(s), prime_curvature(c))
            t_t = tilde_companion_tetrad(t)
            s_t, c_t = tilde_relabel(s), tilde_curvature(c)
            tilded = on(frame, t_t, s_t, c_t)
            both = on(frame, priming_companion_tetrad(t_t), prime(s_t), prime_curvature(c_t))
            for k in "abcdefghijkl":
                assert res[k + "'"] == primed[k], k
                assert res[k + "~"] == tilded[k], k
                assert res[k + "'~"] == both[k], k
                assert primed[k + "'"] == res[k], k
                assert tilded[k + "~"] == res[k], k
                assert not res[k].is_zero


def test_commutator_residuals_vanish_on_monomials():
    mons = [parse_poly(text) for text in
            ("1", "u", "v", "x", "y", "u*v", "x*y", "u*x", "u^2", "v^2*y")]
    for w in sample_metrics(2, seed=207):
        frame = Frame.walker(w)
        for f in mons:
            residuals = commutator_residuals(frame, f)
            assert len(residuals) == 6
            for label, value in residuals.items():
                assert value == RF_ZERO, (label, str(f))


def test_commutator_residuals_from_fields_match_direct_route():
    # verify's 3.1 suite takes the derived route; the direct route per
    # monomial is the reference, on the corpus and on frames bumped by each
    # coefficient, where the residuals are nonzero
    mons = monomials_to_degree(3)
    frames = [Frame.walker(w) for w in corpus_metrics()]
    cases = list(frames)
    for i, name in enumerate(COEFF_NAMES):
        frame = frames[i % len(frames)]
        bumped = frame.coeffs.with_values(**{name: frame.coeffs.get(name) + 1})
        cases.append(dataclasses.replace(frame, coeffs=bumped))
    nonzero = 0
    for frame in cases:
        fields = commutator_vector_fields(frame)
        assert all(len(comps) == 4 for comps in fields.values())
        for f in mons:
            direct = commutator_residuals(frame, f)
            derived = commutator_residuals_from_fields(fields, f)
            assert list(derived) == list(direct)
            for key, value in direct.items():
                assert derived[key] == value, (key, str(f))
                assert str(derived[key]) == str(value), (key, str(f))
                nonzero += not value.is_zero
    assert nonzero > 1000


def test_commutator_coefficients_close_on_distribution():
    # In the canonical frame each commutator expands over D and Delta
    # alone, with metric-derivative coefficients.
    for w in sample_metrics(3, seed=208):
        s = Frame.walker(w).coeffs
        a, b, c = w.a, w.b, w.c
        half = Fraction(1, 2)
        checks = [
            (s.gamma + s.gamma_t, a.diff("u") * half),
            (s.gamma_p + s.gamma_tp, Poly.zero()),
            (s.tau + s.tau_tp, c.diff("u") * half),
            (s.tau_p + s.tau_t, Poly.zero()),
            (s.beta + s.alpha_t + s.tau_tp, -(c.diff("u") * half)),
            (s.sigma, -(b.diff("u") * half)),
            (s.rho_t - s.epsilon - s.gamma_tp, Poly.zero()),
            (-s.kappa_p, a.diff("v") * half),
            (s.beta_p + s.alpha_tp + s.tau_t, Poly.zero()),
            (-(s.rho_tp - s.epsilon_p - s.gamma_t), c.diff("v") * half),
            (s.kappa_t, Poly.zero()),
            (s.tau_p + s.beta_t + s.alpha, Poly.zero()),
            (s.rho - s.epsilon_t - s.gamma_p, Poly.zero()),
            (s.tau + s.beta_tp + s.alpha_p, Poly.zero()),
            (s.rho_p - s.epsilon_tp - s.gamma, Poly.zero()),
            (s.rho_tp - s.rho_p, c.diff("v") * half),
            (s.rho - s.rho_t, Poly.zero()),
            (s.alpha_p - s.alpha_t, b.diff("v") * half),
            (s.alpha - s.alpha_tp, Poly.zero()),
        ]
        for got, want in checks:
            assert got == RationalFunction(want)


def test_prime_and_tilde_relabellings():
    w = sample_metrics(1, seed=209)[0]
    curv = Analysis(w).curvature
    p = prime_curvature(curv)
    assert p.Psi0 == curv.Psi4
    assert p.Psi1 == -curv.Psi3
    assert p.Phi[0][0] == curv.Phi[2][2]
    assert p.Phi[0][1] == -curv.Phi[2][1]
    assert p.Phi[1][1] == curv.Phi[1][1]
    assert prime_curvature(p) == curv
    t = tilde_curvature(curv)
    assert t.Psi0 == curv.PsiT0
    assert t.PsiT3 == curv.Psi3
    assert t.Phi[0][1] == curv.Phi[1][0]
    assert t.Phi[2][0] == curv.Phi[0][2]
    assert tilde_curvature(t) == curv


def test_classification_cubic_profile():
    w = WalkerMetric(a=Poly.zero(), b=parse_poly("u^3"), c=Poly.zero())
    an = Analysis(w)
    curv = an.curvature
    assert curv.Psi0 == RationalFunction(parse_poly("3*u"))
    assert curv.S == RF_ZERO
    report = classify_sd_weyl(an, (1, 2, 0, 0))
    assert report.label == "SD-flat"


def test_classification_flat_metric():
    w = WalkerMetric(a=Poly.zero(), b=Poly.zero(), c=Poly.zero())
    an = Analysis(w)
    curv = an.curvature
    assert curv == CurvatureSpinors()
    assert classify_sd_weyl(an, (0, 0, 0, 0)).label == "SD-flat"


def test_classification_depends_on_point():
    # c = u*v has scalar curvature 2 everywhere but the discriminant
    # 12*u^2*v^2 vanishes exactly on the coordinate planes.
    w = WalkerMetric(a=Poly.zero(), b=Poly.zero(), c=parse_poly("u*v"))
    an = Analysis(w)
    curv = an.curvature
    assert curv.PsiT3 == RF_ZERO
    assert curv.PsiT4 == RationalFunction(parse_poly("-1/4*u^2*v^2"))
    on_plane = classify_sd_weyl(an, (1, 0, 0, 0))
    assert on_plane.label == "{2,2}Ia"
    generic = classify_sd_weyl(an, (1, 1, 0, 0))
    assert generic.label == "{211}II/{1 1bar 2}II"
    assert generic.scalar == 2
    assert generic.invariant_a == -2
    assert generic.invariant_b == -2


def test_classification_quartic_profile():
    # b depending on x alone leaves the second family with only its top
    # component; that is the one-root class until it vanishes.
    w = WalkerMetric(a=Poly.zero(), b=parse_poly("x^2"), c=Poly.zero())
    an = Analysis(w)
    curv = an.curvature
    assert curv.S == RF_ZERO
    assert curv.PsiT3 == RF_ZERO
    report = classify_sd_weyl(an, (0, 0, 1, 0))
    assert report.label in ("{4}II", "SD-flat")
    if curv.PsiT4 != RF_ZERO:
        assert report.label == "{4}II"


def test_classification_rejects_bad_point():
    w = WalkerMetric(a=Poly.zero(), b=Poly.zero(), c=Poly.zero())
    with pytest.raises(InputError):
        classify_sd_weyl(Analysis(w), (0, 0, 0))
