"""Gate checks: one test per release criterion, at the stated tolerance.

Criteria 1-6 share a fixed corpus of 25 random polynomial metrics of
degree at most 4; corpus construction is seeded, so every run checks
the same metrics.
"""

import random
import time
from fractions import Fraction

from walkerspin.congruence import (
    connecting_oracle,
    integrate_connecting,
    integrate_jacobi,
    riccati_residual,
    sigma_omega_forms,
)
from walkerspin.curvature import (
    Analysis,
    bianchi_contracted_residual,
    classify_sd_weyl,
    commutator_residuals,
    field_equation_residuals,
    ricci_tensor,
    walker_curvature_components,
)
from walkerspin.heavenly import (
    HeavenlyPotential,
    build_metric,
    einstein_check,
    master_identity_residual,
    psi_components,
    scalar_flat_case,
    validate_potential,
)
from walkerspin.nullgeom import (
    frobenius_residual,
    multiple_spinor_differential_test,
    primed_spinor,
    recurrence_forms,
    relation_suite,
)
from walkerspin.poly import ONE, Poly, RationalFunction, ZERO
from walkerspin.spincoeff import (
    COEFF_NAMES,
    Frame,
    first_form_residuals,
    spin_coefficients_from_tetrad,
    walker_closed_form,
)
from walkerspin.walker import (
    WalkerMetric,
    assemble_metric,
    christoffel,
    tetrad_covectors,
)

from support import (
    corpus_metrics,
    monomials_to_degree,
    random_potential,
)

P = Poly.parse
RF_ZERO = RationalFunction(ZERO)
HALF = Fraction(1, 2)

_corpus = {}


def corpus():
    """25 seeded random metrics with their frames, built once."""
    if "frames" not in _corpus:
        metrics = corpus_metrics()
        _corpus["metrics"] = metrics
        _corpus["frames"] = [Frame.walker(w) for w in metrics]
    return _corpus["metrics"], _corpus["frames"]


def curvatures():
    if "curvs" not in _corpus:
        metrics, frames = corpus()
        _corpus["curvs"] = [
            walker_curvature_components(w, f) for w, f in zip(metrics, frames)
        ]
    return _corpus["curvs"]


def test_criterion_01_route_equality():
    """Tetrad-derived coefficients match the closed forms in all 32
    entries for 25 random metrics, exactly, in under 10 seconds."""
    metrics, frames = corpus()
    start = time.perf_counter()
    for w, frame in zip(metrics, frames):
        geometric = spin_coefficients_from_tetrad(frame.tetrad, frame.metric)
        closed = walker_closed_form(w)
        for name in COEFF_NAMES:
            assert geometric.get(name) == closed.get(name), (name, w)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"route comparison took {elapsed:.1f}s"


def test_criterion_02_first_form_expansions():
    """The four exterior-derivative expansions of the tetrad covectors
    hold exactly on the same corpus."""
    _, frames = corpus()
    for frame in frames:
        residuals = first_form_residuals(frame)
        for name, grid in residuals.items():
            for row in grid:
                for entry in row:
                    assert entry == RF_ZERO, name


def test_criterion_03_field_equations():
    """All 48 first-order curvature equations vanish on the corpus, and
    a single injected coefficient error leaves a nonzero residual."""
    metrics, frames = corpus()
    for w, frame, curv in zip(metrics, frames, curvatures()):
        residuals = field_equation_residuals(frame, curv)
        assert len(residuals) == 48
        for label, value in residuals.items():
            assert value == RF_ZERO, (label, w)
    # adversarial run: shift one coefficient by u on every metric
    bump = RationalFunction(P("u"))
    for frame, curv in zip(frames, curvatures()):
        bad = Frame(
            metric=frame.metric, tetrad=frame.tetrad, ops=frame.ops,
            coeffs=frame.coeffs.with_values(sigma=frame.coeffs.sigma + bump),
        )
        dirty = [
            label
            for label, value in field_equation_residuals(bad, curv).items()
            if value != RF_ZERO
        ]
        assert dirty


def test_criterion_04_commutators():
    """The six operator commutators vanish on every monomial of degree
    at most 3, and their expansion coefficients collapse to the
    metric-derivative forms of the canonical frame."""
    monomials = monomials_to_degree(3)
    assert len(monomials) == 35
    metrics, frames = corpus()
    for w, frame in zip(metrics, frames):
        for f in monomials:
            for label, value in commutator_residuals(frame, f).items():
                assert value == RF_ZERO, (label, str(f), w)
        s = frame.coeffs
        a, b, c = w.a, w.b, w.c
        reductions = [
            (s.gamma + s.gamma_t, a.diff("u") * HALF),
            (s.tau + s.tau_tp, c.diff("u") * HALF),
            (s.tau_p + s.tau_t, ZERO),
            (s.sigma, -(b.diff("u") * HALF)),
            (s.beta + s.alpha_t + s.tau_tp, -(c.diff("u") * HALF)),
            (-s.kappa_p, a.diff("v") * HALF),
            (-(s.rho_tp - s.epsilon_p - s.gamma_t), c.diff("v") * HALF),
            (s.rho_tp - s.rho_p, c.diff("v") * HALF),
            (s.alpha_p - s.alpha_t, b.diff("v") * HALF),
            (s.rho - s.rho_t, ZERO),
            (s.alpha - s.alpha_tp, ZERO),
        ]
        for got, want in reductions:
            assert got == RationalFunction(want)


def test_criterion_05_curvature_cross_route():
    """Tensor-route mixed components and scalar agree exactly with the
    coefficient route; the two scalar identities pin the curvature
    scalar twice over; the contracted divergence identity is zero."""
    metrics, _ = corpus()
    for w, curv in zip(metrics, curvatures()):
        an = Analysis(w)
        phi, lam = an.phi_lambda
        for i in range(3):
            for j in range(3):
                assert phi[i][j] == curv.Phi[i][j], (i, j, w)
        assert lam == curv.Lambda
        twelve = Fraction(1, 12)
        assert curv.PsiT2 == twelve * curv.S
        assert curv.PsiT2 == -2 * curv.Lambda
        for entry in bianchi_contracted_residual(an.frame.metric, an.ricci, an.scalar):
            assert entry == ZERO


def test_criterion_06_vanishing_components():
    """Both leading components of the second quartic family and the
    first mixed column vanish identically on the corpus."""
    for curv in curvatures():
        assert curv.PsiT0 == RF_ZERO
        assert curv.PsiT1 == RF_ZERO
        assert curv.Phi[0][0] == RF_ZERO
        assert curv.Phi[1][0] == RF_ZERO
        assert curv.Phi[2][0] == RF_ZERO


def test_criterion_07_heavenly_pipeline():
    """Random potential chains build aligned-Ricci metrics whose quartic
    components agree along both routes and whose master identity
    residual is exactly zero; the Einstein verdict matches the tensor
    Ricci on the two reference potentials."""
    rng = random.Random(628318)
    for _ in range(10):
        p = random_potential(rng, max_degree=5)
        assert validate_potential(p).is_valid
        w = build_metric(p)
        assert w.a.diff("u").diff("u") == w.b.diff("v").diff("v")
        assert w.b.diff("u").diff("v") == -(w.c.diff("u").diff("u"))
        assert w.a.diff("u").diff("v") == -(w.c.diff("v").diff("v"))
        psi_components(p)  # raises if the direct and operator routes differ
        assert master_identity_residual(p) == ZERO

    for text, expected in (("u*v*x", True), ("1/4*u^2*v^2", False)):
        p = HeavenlyPotential(theta=P(text))
        verdict = einstein_check(p).einstein
        assert verdict is expected
        mt = assemble_metric(build_metric(p))
        ricci = ricci_tensor(christoffel(mt))
        ricci_zero = all(ricci[i][j] == ZERO for i in range(4) for j in range(4))
        assert ricci_zero is expected


def test_criterion_08_congruence_numerics():
    """Integration against the closed-form transport: error bound at the
    stated step, fourth-order step halving, constancy of the last state
    component, conservation of the symplectic pairing, and exact matrix
    transport closures."""
    origin = (0, 0, 0, 0)
    v0 = (0.0, 0.0, 1.0, 0.0)

    # error bound over the unit span at step 1e-3
    quad = WalkerMetric(a=ZERO, b=P("u^2"), c=ZERO)
    path = integrate_connecting(quad, v0, v_end=1.0, step=1e-3, base=origin)
    worst = 0.0
    for state, exact in zip(path.states, connecting_oracle(quad, origin, v0, path.grid)):
        worst = max(
            worst,
            max(abs(g - e) for g, e in zip(state, exact)),
        )
    assert worst <= 1e-8, worst

    # halving the step divides the error by roughly 16
    sixth = WalkerMetric(a=ZERO, b=P("u^6"), c=ZERO)

    def max_error(step):
        run = integrate_connecting(sixth, v0, v_end=1.0, step=step, base=origin)
        return max(
            abs(g - e)
            for st, exact in zip(run.states, connecting_oracle(sixth, origin, v0, run.grid))
            for g, e in zip(st, exact)
        )

    ratio = max_error(0.1) / max_error(0.05)
    assert 12 <= ratio <= 20, ratio

    # the last component admits no forcing: bitwise constant
    mixed = WalkerMetric(a=P("u*v"), b=P("x^3"), c=P("u*y"))
    run = integrate_connecting(
        mixed, (0.5, -2.0, 1.0, 0.25), v_end=1.0, step=0.01, base=origin
    )
    assert all(state.nu == 0.25 for state in run.states)

    # pairing of two deviation solutions is conserved to the bound
    j1 = integrate_jacobi(quad, v0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.01, origin)
    j2 = integrate_jacobi(quad, (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0), 1.0, 0.01, origin)
    pairing = sigma_omega_forms(j1, j2)
    assert all(abs(value - pairing.sigma[0]) <= 1e-8 for value in pairing.sigma)

    # and identically zero for connecting fields of this metric
    c1 = integrate_connecting(quad, v0, v_end=1.0, step=0.01, base=origin)
    c2 = integrate_connecting(quad, (0.0, 1.0, 0.0, 0.0), v_end=1.0, step=0.01, base=origin)
    conn_pairing = sigma_omega_forms(c1, c2)
    assert all(value == 0.0 for value in conn_pairing.sigma)

    # transport matrices close the quadratic evolution law symbolically
    report = riccati_residual(WalkerMetric(a=P("u*v"), b=P("x^3"), c=P("u*y")))
    assert report.is_zero


def test_criterion_09_classification():
    """The stated scalar-flat chain is cubic-rooted away from y = 0, the
    cubic metric is flat on the second side with a linear component on
    the first, and the flat metric carries nothing at all."""
    chain = HeavenlyPotential(theta=ZERO, f=P("y^2"), F=P("u*y^2"))
    rep = scalar_flat_case(chain)
    assert rep.psi_t3 == -HALF * P("y")
    assert rep.label == "{31}III"
    built = Analysis(build_metric(chain))
    assert classify_sd_weyl(built, (0, 0, 0, 1)).label == "{31}III"
    assert classify_sd_weyl(built, (2, -1, 3, -2)).label == "{31}III"

    cubic = Analysis(WalkerMetric(a=ZERO, b=P("u^3"), c=ZERO))
    curv = cubic.curvature
    assert curv.Psi0 == RationalFunction(P("3*u"))
    for k in range(5):
        assert curv.psi_t(k) == RF_ZERO
    assert classify_sd_weyl(cubic, (5, 1, 2, 3)).label == "SD-flat"

    flat = WalkerMetric(a=ZERO, b=ZERO, c=ZERO)
    coeffs = walker_closed_form(flat)
    assert all(coeffs.get(name) == RF_ZERO for name in COEFF_NAMES)
    flat_an = Analysis(flat)
    flat_curv = flat_an.curvature
    for k in range(5):
        assert flat_curv.psi(k) == RF_ZERO
        assert flat_curv.psi_t(k) == RF_ZERO
    assert flat_curv.Lambda == RF_ZERO
    assert classify_sd_weyl(flat_an, (0, 0, 0, 0)).label == "SD-flat"


def test_criterion_10_null_geometry_checkers():
    """Canonical-form metrics recur their distribution with a vanishing
    recurrence covector and the matching coefficient pattern; the first
    tetrad covector is closed; the divergence criterion for a multiple
    root is zero on the Einstein product example."""
    pi = primed_spinor(ONE, ZERO)
    metrics, frames = corpus()
    for w, frame in zip(metrics, frames):
        rec = recurrence_forms(pi, frame, check_integrable=False)
        assert rec.s_form_vanishes
        pattern = relation_suite(frame.coeffs, "distribution-parallel")
        assert all(value == RF_ZERO for value in pattern.values())
        l_dn = tetrad_covectors(frame.metric, frame.tetrad)[0]
        for entry in frobenius_residual(l_dn).values():
            assert entry == RF_ZERO

    einstein = build_metric(HeavenlyPotential(theta=P("u*v*x")))
    frame = Frame.walker(einstein)
    curv = walker_curvature_components(einstein, frame)
    assert multiple_spinor_differential_test(pi, 2, curv, frame).is_zero

    # same criterion on a metric whose second quartic family survives
    rich = WalkerMetric(a=P("v*y"), b=ZERO, c=P("u^2"))
    frame = Frame.walker(rich)
    curv = walker_curvature_components(rich, frame)
    assert not all(curv.psi_t(k) == RF_ZERO for k in range(5))
    assert multiple_spinor_differential_test(pi, 2, curv, frame).is_zero


def test_canonical_values_are_polys():
    """On every corpus metric each value the canonical frame and its
    curvature hold is a Poly: no polynomial is wrapped as a quotient."""
    metrics, _ = corpus()
    for w in metrics:
        an = Analysis(w)
        t, s, curv = an.frame.tetrad, an.frame.coeffs, an.curvature
        values = {name: s.get(name) for name in COEFF_NAMES}
        values.update((f"Psi{k}", curv.psi(k)) for k in range(5))
        values.update((f"PsiT{k}", curv.psi_t(k)) for k in range(5))
        values.update((f"Phi{i}{j}", curv.Phi[i][j]) for i in range(3) for j in range(3))
        values.update({"Lambda": curv.Lambda, "Pi": curv.Pi, "S": curv.S})
        for leg in ("l", "n", "m", "mt"):
            values.update((f"{leg}[{a}]", c) for a, c in enumerate(getattr(t, leg)))
        values.update({"chi": t.chi, "chi_t": t.chi_t})
        for name, value in values.items():
            assert type(value) is Poly, (name, w)
