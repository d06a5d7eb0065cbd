"""The tensor route checked against SymPy: Christoffel symbols, Ricci tensor
and scalar curvature by the textbook formulas, from the metric strings."""

import pytest

from walkerspin.curvature import ricci_tensor, scalar_curvature
from walkerspin.walker import WalkerMetric, assemble_metric, christoffel

from support import corpus_metrics

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
