import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkerspin import cli, spincoeff
from walkerspin.curvature import (
    Analysis,
    CurvatureSpinors,
    _field_sums,
    bianchi_contracted_residual,
    classify_sd_weyl,
    commutator_residuals,
    commutator_vector_fields,
    field_equation_residuals,
    prime_curvature,
    ricci_tensor,
    scalar_curvature,
    tilde_curvature,
    walker_curvature_components,
)
from walkerspin.errors import InputError
from walkerspin.heavenly import build_metric
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
    COORDS,
    DirectionalOps,
    MetricTensor,
    WalkerMetric,
    assemble_metric,
    christoffel,
    tetrad_transform,
    walker_tetrad,
)

from support import (
    bianchi_residual_by_connection,
    corpus_metrics,
    monomials_to_degree,
    random_metric_functions,
    random_poly,
    random_potential,
    random_symmetric_tensor,
    reference_commutator_residuals,
    reference_commutator_suite,
    ricci_by_sixteen_entries,
    riemann,
    scaled_frame,
)

RF_ZERO = RationalFunction(ZERO)
FRAMES_METRIC = WalkerMetric(
    a=parse_poly("u*v+x^2"), b=parse_poly("y^3-u"), c=parse_poly("u*y")
)


def dense_metric(d):
    return WalkerMetric.from_dict(
        {"a": f"(u+v+x+y+1)^{d}", "b": f"(u-2*v+x+1/2)^{d}", "c": "(u*v+x-y)^2"}
    )


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
        residual = bianchi_contracted_residual(mt, ricci, scalar)
        assert all(entry == Poly.zero() for entry in residual)


def test_ricci_matches_the_sixteen_entry_reference():
    # the contracted-connection route against the textbook one, on the
    # corpus, the dense metrics and metrics built from potentials
    rng = random.Random(211)
    metrics = corpus_metrics() + [dense_metric(d) for d in (2, 3, 4)]
    metrics += [build_metric(random_potential(rng, max_degree=4)) for _ in range(6)]
    nonzero = 0
    for w in metrics:
        ch = christoffel(assemble_metric(w))
        ricci = ricci_tensor(ch)
        assert ricci == ricci_by_sixteen_entries(ch), w
        nonzero += any(not entry.is_zero for row in ricci for entry in row)
    assert nonzero >= len(metrics) - 2


def test_ricci_matches_the_reference_where_the_contracted_connection_is_nonzero():
    # A Walker metric has det g = 1, so sum_a G^a_ae vanishes and the terms
    # of ricci_tensor that carry it are never formed; the conformally
    # rescaled metric (1 + u*x) g has det g = (1 + u*x)^4 and forms them.
    scale = parse_poly("1+u*x")
    for w in corpus_metrics()[:4]:
        mt = assemble_metric(w)
        inverse = ONE / scale
        ch = christoffel(MetricTensor(
            g=tuple(tuple(scale * entry for entry in row) for row in mt.g),
            ginv=tuple(tuple(inverse * entry for entry in row) for row in mt.ginv),
        ))
        assert any(not sum((ch.gamma[a][a][e] for a in range(4)), ZERO).is_zero
                   for e in range(4))
        assert ricci_tensor(ch) == ricci_by_sixteen_entries(ch), w


def counting(monkeypatch, owner, name):
    """Wrap owner.name; the returned list gets one entry per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("w, fresh, products", [
    (FRAMES_METRIC, 6, 12),
    (dense_metric(5), 12, 24),
], ids=["frames", "dense-5"])
def test_verify_work_counts(monkeypatch, w, fresh, products):
    # Upper bounds at the counts measured when the derivative memo and the
    # contracted Ricci route went in: suite 3.4 differentiates only what
    # the curvature routes of the same frame did not (96 derivatives
    # before), and ricci_tensor forms neither the products that cancel in
    # their sum nor the mirrored entries (512 products before).
    an = Analysis(w)
    an.curvature
    derived = counting(monkeypatch, DirectionalOps, "derive")
    field_equation_residuals(an.frame, an.curvature)
    assert 0 < len(derived) <= fresh
    ch = christoffel(an.frame.metric)
    multiplied = counting(monkeypatch, Poly, "__mul__")
    ricci_tensor(ch)
    assert 0 < len(multiplied) <= products


@pytest.mark.parametrize("w", [FRAMES_METRIC, dense_metric(5)], ids=["frames", "dense-5"])
def test_commutator_suite_work_counts(monkeypatch, w):
    # The table of monomial labels and gradients is built once per process,
    # and on an unperturbed frame every residual field vanishes, so after
    # the fields suite 3.1 takes no derivative and forms no product (140
    # derivatives and 210 sums of products before).
    frame = Frame.walker(w)
    fields = commutator_vector_fields(frame)
    monkeypatch.setattr(cli, "commutator_vector_fields", lambda f: fields)
    [(_, run)] = cli._suite_items("3.1", frame, None)
    run()
    derived = counting(monkeypatch, Poly, "diff")
    multiplied = counting(monkeypatch, Poly, "__mul__")
    residuals = run()
    assert len(residuals) == 210 and all(value is ZERO for value in residuals.values())
    assert derived == [] and multiplied == []
    assert cli._commutator_probes.cache_info().misses == 1


def _ricci_and_scalar(w):
    mt = assemble_metric(w)
    ch = christoffel(mt)
    ricci = ricci_tensor(ch)
    return mt, ch, ricci, scalar_curvature(mt, ricci)


def test_bianchi_divergence_matches_connection_route_on_corpus():
    for w in corpus_metrics():
        mt, ch, ricci, scalar = _ricci_and_scalar(w)
        assert bianchi_contracted_residual(mt, ricci, scalar) == (
            bianchi_residual_by_connection(mt, ch, ricci, scalar)
        ), w


def test_bianchi_divergence_matches_connection_route_on_any_symmetric_tensor():
    # The divergence formula holds for every symmetric tensor and scalar,
    # so the two routes must agree even where the residual is nonzero.
    rng = random.Random(205)
    nonzero = 0
    for w in sample_metrics(24, seed=206):
        mt = assemble_metric(w)
        ch = christoffel(mt)
        tensor = random_symmetric_tensor(rng)
        scalar = random_poly(rng)
        residual = bianchi_contracted_residual(mt, tensor, scalar)
        assert residual == bianchi_residual_by_connection(mt, ch, tensor, scalar), w
        nonzero += any(not entry.is_zero for entry in residual)
    assert nonzero >= 20


def test_bianchi_detects_a_corrupted_ricci_entry():
    mt, _, ricci, scalar = _ricci_and_scalar(FRAMES_METRIC)
    bump = parse_poly("u*x")
    rows = [list(row) for row in ricci]
    rows[2][3] = rows[2][3] + bump
    rows[3][2] = rows[3][2] + bump
    assert all(entry.is_zero for entry in bianchi_contracted_residual(mt, ricci, scalar))
    assert any(not entry.is_zero for entry in bianchi_contracted_residual(mt, rows, scalar))


def test_bianchi_refuses_a_metric_not_in_walker_form():
    mt, _, ricci, scalar = _ricci_and_scalar(FRAMES_METRIC)
    one, zero = Poly.const(1), Poly.zero()
    identity = tuple(tuple(one if i == j else zero for j in range(4)) for i in range(4))
    skew = (mt.g[0], mt.g[1], (one, one) + mt.g[2][2:], mt.g[3])
    for g in (identity, skew):
        with pytest.raises(InputError):
            bianchi_contracted_residual(mt._replace(g=g), ricci, scalar)


@pytest.mark.parametrize("spec", [
    {"a": "u*v+x^2", "b": "y^3-u", "c": "u*y"},
    {"a": "(u+v+x+y+1)^5", "b": "(u-2*v+x+1/2)^5", "c": "(u*v+x-y)^2"},
], ids=["frames", "dense-5"])
def test_bianchi_divergence_makes_few_products(monkeypatch, spec):
    mt, _, ricci, scalar = _ricci_and_scalar(WalkerMetric.from_dict(spec))
    calls = 0
    multiply = Poly.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    bianchi_contracted_residual(mt, ricci, scalar)
    assert 0 < calls < 100


def test_tensor_route_matches_coefficient_route():
    for w in sample_metrics(3, seed=203):
        an = Analysis(w)
        phi, lam = an.phi_lambda
        curv = an.curvature
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
        phi, _ = Analysis(w).phi_lambda
        assert phi[0][0] == RF_ZERO
        assert phi[1][0] == RF_ZERO
        assert phi[2][0] == RF_ZERO


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
            frame._replace(tetrad=t, ops=DirectionalOps(t), coeffs=s), c
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


_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=4,
).map(Poly)
_LAMBDA = parse_poly("1+u")
_CANONICAL = walker_tetrad(FRAMES_METRIC)
_TRANSFORMED = tetrad_transform(_CANONICAL, _LAMBDA, *map(parse_poly, ("1+v", "x", "y")))


@settings(max_examples=40, deadline=None)
@given(f=_polys)
def test_companion_operators_are_signed_views(f):
    # each companion tetrad's operators, built from its own legs, equal the
    # signed relabelling of the frame's operators that field_equation_residuals
    # uses; on the transformed tetrad the quotient f / lam takes the path
    # that bypasses the memo
    for t, values in ((_CANONICAL, (f,)), (_TRANSFORMED, (f, f / _LAMBDA))):
        companions = {
            "": t,
            "'": priming_companion_tetrad(t),
            "~": tilde_companion_tetrad(t),
            "'~": priming_companion_tetrad(tilde_companion_tetrad(t)),
        }
        ops = DirectionalOps(t)
        for mark, table in spincoeff._COMPANION_OPS.items():
            direct = DirectionalOps(companions[mark])
            for op, name in zip(ops.signed(table), DirectionalOps.NAMES):
                for value in values:
                    assert op(value) == direct.apply(name, value), (mark, name)


def test_derivative_memo_belongs_to_its_frame():
    ops = Frame.walker(FRAMES_METRIC).ops
    assert ops.memo == {}
    f = parse_poly("u*x")
    first = ops.apply("Dp", f)
    assert ops.apply("Dp", f) is first
    assert list(ops.memo) == [("Dp", f)]
    quotient = f / parse_poly("1+u")
    assert isinstance(quotient, RationalFunction)
    assert ops.apply("Dp", quotient) == ops.derive("Dp", quotient)
    assert len(ops.memo) == 1
    assert Frame.walker(FRAMES_METRIC).ops.memo == {}


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
        cases.append(frame._replace(coeffs=bumped))
    nonzero = 0
    for frame in cases:
        fields = commutator_vector_fields(frame)
        assert all(len(comps) == 4 for comps in fields.values())
        for f in mons:
            direct = commutator_residuals(frame, f)
            [derived] = _field_sums(fields, [[f.diff(name) for name in COORDS]])
            assert list(derived) == list(direct)
            for key, value in direct.items():
                assert derived[key] == value, (key, str(f))
                assert str(derived[key]) == str(value), (key, str(f))
                nonzero += not value.is_zero
    assert nonzero > 1000


def test_commutator_suite_matches_the_monomial_loop():
    # verify's suite 3.1 reads one table of gradients and drops each
    # field's zero components once; the loop over monomials is the
    # reference, key for key, in order and with the same representatives,
    # on the corpus, on three of its frames bumped by each coefficient and
    # on a dense metric
    frames = [Frame.walker(w) for w in corpus_metrics()]
    cases = frames + [Frame.walker(dense_metric(3))]
    for frame in frames[:3]:
        for name in COEFF_NAMES:
            bumped = frame.coeffs.with_values(**{name: frame.coeffs.get(name) + 1})
            cases.append(frame._replace(coeffs=bumped))
    nonzero = 0
    for frame in cases:
        [(_, run)] = cli._suite_items("3.1", frame, None)
        suite = run()
        reference = reference_commutator_suite(frame)
        assert list(suite) == list(reference)
        for key, value in reference.items():
            assert suite[key] == value and str(suite[key]) == str(value), key
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
    for point in ((0, 0, 0), 0):
        with pytest.raises(InputError, match="four coordinates"):
            classify_sd_weyl(Analysis(w), point)


def _commutator_frames():
    """Canonical, transformed, scaled and tilde-companion frames of the
    frames metric, each also with one coefficient bumped by 1, for six
    coefficients that between them reach every commutator."""
    mt = assemble_metric(FRAMES_METRIC)
    canonical = Frame.walker(FRAMES_METRIC)
    frames = [canonical]
    for params in (("1+u", "1", "x", "0"), ("1+u", "1+v", "x", "y")):
        t = tetrad_transform(canonical.tetrad, *map(parse_poly, params))
        frames.append(Frame.from_tetrad(mt, t))
    coeffs, t = scaled_frame(FRAMES_METRIC, parse_poly("1+x"), parse_poly("2+y"))
    frames.append(Frame(metric=mt, tetrad=t, ops=DirectionalOps(t), coeffs=coeffs))
    frames.append(Frame.from_tetrad(mt, tilde_companion_tetrad(canonical.tetrad)))
    bumped = [
        frame._replace(coeffs=frame.coeffs.with_values(
            **{name: frame.coeffs.get(name) + 1}))
        for frame in frames
        for name in ("gamma", "kappa", "kappa_p", "kappa_t", "kappa_tp", "rho")
    ]
    return frames + bumped


def test_derived_commutators_match_the_written_out_expansions():
    # three commutators are [delta,D] on a companion frame; each residual
    # prints as the one of the expansion written out for it
    rng = random.Random(219)
    nonzero = set()
    for frame in _commutator_frames():
        for _ in range(3):
            f = random_poly(rng, max_degree=3, max_terms=4)
            got = commutator_residuals(frame, f)
            want = reference_commutator_residuals(frame, f)
            assert list(got) == list(want)
            for key, value in want.items():
                assert str(got[key]) == str(value), (key, str(f))
                if not value.is_zero:
                    nonzero.add(key)
    assert nonzero == set(want)


def test_self_paired_commutators_change_sign_on_companions():
    # on a perturbed frame, where the residuals are nonzero, the priming
    # companion negates [Dp,D] and [Delta,delta], and the tilde companion
    # keeps [Dp,D] and negates [Delta,delta]
    frame = Frame.walker(FRAMES_METRIC)
    s = frame.coeffs.with_values(gamma=frame.coeffs.gamma + 1, rho=frame.coeffs.rho + 1)
    t = frame.tetrad
    f = parse_poly("u^2*x + v*y^2 - 3*x*y")
    base = commutator_residuals(frame._replace(coeffs=s), f)
    for t_c, s_c, signs in (
        (priming_companion_tetrad(t), prime(s), (-1, -1)),
        (tilde_companion_tetrad(t), tilde_relabel(s), (1, -1)),
    ):
        companion = Frame(metric=frame.metric, tetrad=t_c, ops=DirectionalOps(t_c), coeffs=s_c)
        got = commutator_residuals(companion, f)
        for key, sign in zip(("[Dp,D]", "[Delta,delta]"), signs):
            assert not base[key].is_zero, key
            assert got[key] == sign * base[key], key
