"""The tensor route checked against SymPy: Christoffel symbols, Ricci tensor
and scalar curvature by the textbook formulas, from the metric strings; the
spinor route's Psi and PsiT against the SymPy Weyl tensor on the tetrad legs;
the Einstein verdicts of built metrics against SymPy's trace-free Ricci; and
the denominators of non-canonical frames against SymPy's ``cancel``."""

from fractions import Fraction

import pytest

from walkerspin.curvature import Analysis, ricci_tensor, scalar_curvature
from walkerspin.heavenly import HeavenlyPotential, einstein_check
from walkerspin.poly import ZERO, parse_poly
from walkerspin.spincoeff import Frame, transform_coefficients
from walkerspin.walker import WalkerMetric, assemble_metric, christoffel, walker_tetrad

from support import corpus_metrics, frame_values, scaled_frame, value_parts

sympy = pytest.importorskip("sympy")

COORDS = sympy.symbols("u v x y")


def _sympy(text):
    return sympy.sympify(text.replace("^", "**"), locals=dict(zip("uvxy", COORDS)))


def _walker_metric(a, b, c):
    return sympy.Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, a, c], [0, 1, c, b]])


def _textbook_gamma(g):
    """G^k_ij = g^kd (d_i g_dj + d_j g_di - d_d g_ij) / 2, as gamma[k][i][j]."""
    ginv = g.inv()
    n = range(4)
    return [[[sympy.expand(sum(
        ginv[k, d] * (sympy.diff(g[d, j], COORDS[i]) + sympy.diff(g[d, i], COORDS[j])
                      - sympy.diff(g[i, j], COORDS[d]))
        for d in n) / 2) for j in n] for i in n] for k in n]


def _textbook_ricci(a, b, c):
    """Ricci tensor and scalar of the Walker metric ((0, I), (I, W)),
    W = ((a, c), (c, b)), with R_bd = R^a_bad and
    R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb."""
    g = _walker_metric(a, b, c)
    ginv = g.inv()
    gamma = _textbook_gamma(g)
    n = range(4)
    ricci = [[sympy.expand(sum(
        sympy.diff(gamma[a_][d][b_], COORDS[a_]) - sympy.diff(gamma[a_][a_][b_], COORDS[d])
        + sum(gamma[a_][a_][e] * gamma[e][d][b_] - gamma[a_][d][e] * gamma[e][a_][b_]
              for e in n)
        for a_ in n)) for d in n] for b_ in n]
    scalar = sympy.expand(sum(ginv[b_, d] * ricci[b_][d] for b_ in n for d in n))
    return ricci, scalar


def _textbook_weyl(a, b, c):
    """The metric and the Weyl tensor C_abcd of the Walker metric, from
    R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb lowered
    with g, R_bd = R^a_bad, and C = R_abcd - (g_ac R_bd - g_ad R_bc - g_bc R_ad
    + g_bd R_ac) / 2 + R (g_ac g_bd - g_ad g_bc) / 6."""
    g = _walker_metric(a, b, c)
    gamma = _textbook_gamma(g)
    n = range(4)
    up = [[[[sympy.diff(gamma[a_][d][b_], COORDS[c_]) - sympy.diff(gamma[a_][c_][b_], COORDS[d])
             + sum(gamma[a_][c_][e] * gamma[e][d][b_] - gamma[a_][d][e] * gamma[e][c_][b_]
                   for e in n)
             for d in n] for c_ in n] for b_ in n] for a_ in n]
    riem = [[[[sympy.expand(sum(g[a_, e] * up[e][b_][c_][d] for e in n))
               for d in n] for c_ in n] for b_ in n] for a_ in n]
    ricci = [[sympy.expand(sum(up[a_][b_][a_][d] for a_ in n)) for d in n] for b_ in n]
    scalar = sympy.expand(sum(g.inv()[b_, d] * ricci[b_][d] for b_ in n for d in n))
    weyl = [[[[riem[a_][b_][c_][d]
               - (g[a_, c_] * ricci[b_][d] - g[a_, d] * ricci[b_][c_]
                  - g[b_, c_] * ricci[a_][d] + g[b_, d] * ricci[a_][c_]) / 2
               + scalar * (g[a_, c_] * g[b_, d] - g[a_, d] * g[b_, c_]) / 6
               for d in n] for c_ in n] for b_ in n] for a_ in n]
    return g, weyl


@pytest.mark.parametrize("w", [
    WalkerMetric.from_dict({"a": "u*v+x^2", "b": "y^3-u", "c": "u*y"}),
    *(corpus_metrics()[i] for i in (0, 7, 19)),
], ids=["frames", "corpus-0", "corpus-7", "corpus-19"])
def test_ricci_and_scalar_match_sympy(w):
    mt = assemble_metric(w)
    ricci = ricci_tensor(christoffel(mt))
    scalar = scalar_curvature(mt, ricci)
    theirs, their_scalar = _textbook_ricci(*(_sympy(str(f)) for f in (w.a, w.b, w.c)))
    for i in range(4):
        for j in range(4):
            assert sympy.expand(_sympy(str(ricci[i][j])) - theirs[i][j]) == 0, (i, j)
    assert sympy.expand(_sympy(str(scalar)) - their_scalar) == 0


FRAME_METRIC = WalkerMetric.from_dict({"a": "u*v+x^2", "b": "y^3-u", "c": "u*y"})
# All eight components a Walker metric leaves free, Psi0-Psi4 and
# PsiT2-PsiT4, are nonzero here.
DENSE_WEYL_METRIC = WalkerMetric.from_dict({
    "a": "v^2*x + u^3*y - u*v", "b": "u^2*x + u*v*y + v*y^2", "c": "u*v*x + y^2",
})


@pytest.mark.parametrize("w", [
    FRAME_METRIC,
    *(corpus_metrics()[i] for i in (0, 7, 19)),
    DENSE_WEYL_METRIC,
], ids=["frames", "corpus-0", "corpus-7", "corpus-19", "dense-weyl"])
def test_quartic_components_match_the_sympy_weyl_tensor(w):
    """Psi_k is -C on (l,m,l,m), (l,n,l,m), (l,m,mt,n), (l,n,mt,n) and
    (n,mt,n,mt) for k = 0..4; PsiT_k is the same with m and mt exchanged."""
    g, weyl = _textbook_weyl(*(_sympy(str(f)) for f in (w.a, w.b, w.c)))
    t = walker_tetrad(w)
    legs = {name: [_sympy(str(c)) for c in getattr(t, name)] for name in ("l", "n", "m", "mt")}
    n = range(4)

    def inner(x, y):
        return sympy.expand(sum(g[i, j] * legs[x][i] * legs[y][j] for i in n for j in n))

    assert inner("l", "n") == 1 and inner("m", "mt") == -1
    for x, y in (("l", "l"), ("n", "n"), ("m", "m"), ("mt", "mt"),
                 ("l", "m"), ("l", "mt"), ("n", "m"), ("n", "mt")):
        assert inner(x, y) == 0, (x, y)

    def weyl_on(*names):
        vecs = [legs[name] for name in names]
        return sympy.expand(sum(
            weyl[i][j][k][h] * vecs[0][i] * vecs[1][j] * vecs[2][k] * vecs[3][h]
            for i in n for j in n for k in n for h in n
        ))

    curv = Analysis(w).curvature
    quartets = (("l", "m", "l", "m"), ("l", "n", "l", "m"), ("l", "m", "mt", "n"),
                ("l", "n", "mt", "n"), ("n", "mt", "n", "mt"))
    swap = {"m": "mt", "mt": "m"}
    for k, names in enumerate(quartets):
        tilded = tuple(swap.get(name, name) for name in names)
        for label, ours, which in (("Psi", curv.psi(k), names), ("PsiT", curv.psi_t(k), tilded)):
            assert sympy.expand(_sympy(str(ours)) + weyl_on(*which)) == 0, f"{label}{k}"
    if w is DENSE_WEYL_METRIC:
        assert all(curv.psi(k) for k in range(5)) and all(curv.psi_t(k) for k in (2, 3, 4))


@pytest.mark.parametrize("potential, einstein", [
    (HeavenlyPotential(theta=ZERO), True),
    (HeavenlyPotential(theta=parse_poly("u*v*x")), True),
    (HeavenlyPotential(theta=parse_poly("u*v*y + x^3*y")), True),
    (HeavenlyPotential(theta=Fraction(1, 4) * parse_poly("u^2*v^2")), False),
    (HeavenlyPotential(theta=ZERO, f=parse_poly("y^2"), F=parse_poly("u*y^2")), False),
    (HeavenlyPotential(theta=parse_poly("u*x^2 - v*y^2"), f=parse_poly("x"),
                       F=parse_poly("u*x"), g=parse_poly("x*y"), G=parse_poly("v*x*y")), False),
    (HeavenlyPotential(theta=parse_poly("u^3*x + v^2*y")), False),
], ids=["flat", "uvx", "uvy-x3y", "quartic", "profile", "chain", "cubic"])
def test_einstein_verdicts_match_the_sympy_trace_free_ricci(potential, einstein):
    """The affine test on R says Einstein exactly when R_ab - R g_ab / 4 of
    the built metric vanishes by the textbook formulas."""
    w = potential.metric
    a, b, c = (_sympy(str(f)) for f in (w.a, w.b, w.c))
    g = _walker_metric(a, b, c)
    ricci, scalar = _textbook_ricci(a, b, c)
    trace_free = [sympy.expand(ricci[i][j] - scalar * g[i, j] / 4)
                  for i in range(4) for j in range(4)]
    assert all(e == 0 for e in trace_free) == einstein
    assert einstein_check(potential).einstein == einstein


def _frame_values(params):
    """Coefficients and legs of a transformed frame, or, for ("scaled", f,
    f_t), of the canonical frame rescaled by scale_normalization."""
    if params[0] == "scaled":
        coeffs, t = scaled_frame(FRAME_METRIC, *map(parse_poly, params[1:]))
    else:
        coeffs, t = transform_coefficients(Frame.walker(FRAME_METRIC), *map(parse_poly, params))
    return frame_values(coeffs, t)


@pytest.mark.parametrize("params", [
    ("1+u", "1", "x", "0"), ("1", "1", "x", "y"), ("1+x", "1", "0", "y"),
    ("1+u", "1+v", "0", "0"), ("1+u", "1+v", "x", "y"),
    ("scaled", "1+u", "1"), ("scaled", "1+u", "1+v"),
], ids=lambda p: ",".join(p))
def test_denominators_match_sympy_cancel(params):
    """Every denominator is the one SymPy's cancel leaves, up to a constant;
    a value that is a Poly has a constant denominator there."""
    for value in _frame_values(params):
        num, den = value_parts(value)
        _, their_den = sympy.fraction(sympy.cancel(_sympy(str(num)) / _sympy(str(den))))
        ratio = sympy.cancel(_sympy(str(den)) / their_den)
        assert ratio.is_number and ratio != 0, (str(value), their_den)
