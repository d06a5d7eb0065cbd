"""The tensor route checked against SymPy: Christoffel symbols, Ricci tensor
and scalar curvature by the textbook formulas, from the metric strings; and
the denominators of non-canonical frames against SymPy's ``cancel``."""

import pytest

from walkerspin.curvature import ricci_tensor, scalar_curvature
from walkerspin.poly import parse_poly
from walkerspin.spincoeff import Frame, transform_coefficients
from walkerspin.walker import WalkerMetric, assemble_metric, christoffel

from support import corpus_metrics, frame_values, scaled_frame, value_parts

sympy = pytest.importorskip("sympy")

COORDS = sympy.symbols("u v x y")


def _sympy(text):
    return sympy.sympify(text.replace("^", "**"), locals=dict(zip("uvxy", COORDS)))


def _textbook_ricci(a, b, c):
    """Ricci tensor and scalar of the Walker metric ((0, I), (I, W)),
    W = ((a, c), (c, b)), with R_bd = R^a_bad and
    R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb."""
    g = sympy.Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, a, c], [0, 1, c, b]])
    ginv = g.inv()
    n = range(4)
    gamma = [[[sympy.expand(sum(
        ginv[k, d] * (sympy.diff(g[d, j], COORDS[i]) + sympy.diff(g[d, i], COORDS[j])
                      - sympy.diff(g[i, j], COORDS[d]))
        for d in n) / 2) for j in n] for i in n] for k in n]
    ricci = [[sympy.expand(sum(
        sympy.diff(gamma[a_][d][b_], COORDS[a_]) - sympy.diff(gamma[a_][a_][b_], COORDS[d])
        + sum(gamma[a_][a_][e] * gamma[e][d][b_] - gamma[a_][d][e] * gamma[e][a_][b_]
              for e in n)
        for a_ in n)) for d in n] for b_ in n]
    scalar = sympy.expand(sum(ginv[b_, d] * ricci[b_][d] for b_ in n for d in n))
    return ricci, scalar


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
