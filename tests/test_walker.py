"""Metric assembly, connection, tetrad and directional-operator behaviour."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from walkerspin.errors import DegenerateTetradError, InputError
from walkerspin.poly import ONE, ZERO, Poly, RationalFunction, _point, parse_poly
from walkerspin.spincoeff import Frame
from walkerspin.walker import (
    COORDS,
    DirectionalOps,
    WalkerMetric,
    assemble_metric,
    christoffel,
    scale_normalization,
    tetrad_covectors,
    tetrad_transform,
    validate_tetrad,
    walker_tetrad,
)

from support import (
    covariant_derivative_vector,
    directional_vector_derivative,
    random_metric_functions,
)


def sample_metrics(count=8, seed=11, max_degree=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b, c = random_metric_functions(rng, max_degree=max_degree)
        out.append(WalkerMetric(a=a, b=b, c=c))
    return out


def test_metric_blocks_and_inverse():
    for w in sample_metrics(5):
        mt = assemble_metric(w)
        for i in range(4):
            for j in range(4):
                assert mt.g[i][j] == mt.g[j][i]
                entry = sum(
                    (mt.g[i][k] * mt.ginv[k][j] for k in range(4)), Poly.zero()
                )
                assert entry == (ONE if i == j else ZERO)
        assert mt.g[0][0].is_zero and mt.g[1][1].is_zero and mt.g[0][1].is_zero
        assert mt.g[2][2] == w.a and mt.g[3][3] == w.b and mt.g[2][3] == w.c


def test_christoffel_symmetry_and_null_plane_rows():
    for w in sample_metrics(5):
        ch = christoffel(assemble_metric(w))
        for k in range(4):
            for i in range(4):
                for j in range(4):
                    assert ch.gamma[k][i][j] == ch.gamma[k][j][i]
            # The parallel null plane forces these rows to vanish.
            assert ch.gamma[k][0][0].is_zero
            assert ch.gamma[k][1][1].is_zero


def test_christoffel_metric_compatibility():
    for w in sample_metrics(4):
        mt = assemble_metric(w)
        ch = christoffel(mt)
        for k in range(4):
            for i in range(4):
                for j in range(i, 4):
                    total = mt.g[i][j].diff(COORDS[k])
                    for e in range(4):
                        total = total - ch.gamma[e][k][i] * mt.g[e][j]
                        total = total - ch.gamma[e][k][j] * mt.g[i][e]
                    assert total.is_zero


def test_walker_tetrad_components_and_normalization():
    for w in sample_metrics(5):
        mt = assemble_metric(w)
        t = walker_tetrad(w)
        assert all(type(c) is Poly for c in t.l + t.n + t.m + t.mt)
        assert list(t.l) == [ONE, ZERO, ZERO, ZERO]
        assert list(t.mt) == [ZERO, ONE, ZERO, ZERO]
        assert t.n[0] == RationalFunction(w.a * Fraction(-1, 2))
        assert t.n[1] == RationalFunction(w.c * Fraction(-1, 2))
        assert t.m[0] == RationalFunction(w.c * Fraction(1, 2))
        assert t.m[1] == RationalFunction(w.b * Fraction(1, 2))
        validate_tetrad(mt, t)


def test_metric_reconstructed_from_tetrad():
    for w in sample_metrics(4):
        mt = assemble_metric(w)
        t = walker_tetrad(w)
        l_dn, n_dn, m_dn, mt_dn = tetrad_covectors(mt, t)
        for i in range(4):
            for j in range(4):
                dyadic = (
                    l_dn[i] * n_dn[j]
                    + n_dn[i] * l_dn[j]
                    - m_dn[i] * mt_dn[j]
                    - mt_dn[i] * m_dn[j]
                )
                assert dyadic == RationalFunction(mt.g[i][j])


def test_degenerate_tetrad_rejected():
    w = sample_metrics(1)[0]
    mt = assemble_metric(w)
    t = walker_tetrad(w)
    broken = type(t)(l=t.l, n=t.l, m=t.m, mt=t.mt)  # n replaced by l
    with pytest.raises(DegenerateTetradError):
        validate_tetrad(mt, broken)


def test_directional_operators_closed_form():
    for w in sample_metrics(3):
        t = walker_tetrad(w)
        ops = DirectionalOps(t)
        f = RationalFunction(parse_poly("u^2*v + x*y - 3*y"))
        f1, f2 = f.diff("u"), f.diff("v")
        f3, f4 = f.diff("x"), f.diff("y")
        half = Fraction(1, 2)
        assert ops.apply("D", f) == f1
        assert ops.apply("Delta", f) == f2
        assert ops.apply("Dp", f) == -(half * w.a) * f1 - (half * w.c) * f2 + f3
        assert ops.apply("delta", f) == (half * w.c) * f1 + (half * w.b) * f2 - f4


def covariant_directional(w, which):
    mt = assemble_metric(w)
    ch = christoffel(mt)
    t = walker_tetrad(w)
    dirs = {"D": t.l, "Delta": t.mt, "delta": t.m, "Dp": t.n}
    out = {}
    for name, vec in {"l": t.l, "n": t.n, "m": t.m, "mt": t.mt}.items():
        nabla = covariant_derivative_vector(ch, vec)
        out[name] = directional_vector_derivative(nabla, dirs[which])
    return t, out


def combo(t, cl=0, cn=0, cm=0, cmt=0):
    comps = []
    for i in range(4):
        total = RationalFunction(ZERO)
        for coeff, vec in ((cl, t.l), (cn, t.n), (cm, t.m), (cmt, t.mt)):
            if coeff == 0:
                continue
            total = total + RationalFunction(coeff) * vec[i]
        comps.append(total)
    return comps


def test_tetrad_covariant_derivatives_match_closed_form():
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    for w in sample_metrics(3, seed=5):
        a, b, c = w.a, w.b, w.c
        a1, a2 = a.diff("u"), a.diff("v")
        b1, b2 = b.diff("u"), b.diff("v")
        c1, c2 = c.diff("u"), c.diff("v")
        kc = (
            2 * c.diff("x") - 2 * a.diff("y") + b * a2 + c * a1 - a * c1 - c * c2
        ) * quarter
        kd = (
            2 * c.diff("y") - 2 * b.diff("x") - c * c1 - b * c2 + a * b1 + c * b2
        ) * quarter

        t, along_D = covariant_directional(w, "D")
        for name in ("l", "n", "m", "mt"):
            assert all(comp.is_zero for comp in along_D[name])
        _, along_Delta = covariant_directional(w, "Delta")
        for name in ("l", "n", "m", "mt"):
            assert all(comp.is_zero for comp in along_Delta[name])

        _, along_Dp = covariant_directional(w, "Dp")
        assert list(along_Dp["l"]) == combo(t, cl=half * a1, cmt=half * c1)
        assert list(along_Dp["mt"]) == combo(t, cl=half * a2, cmt=half * c2)
        assert list(along_Dp["n"]) == combo(t, cmt=kc, cn=-half * a1, cm=half * a2)
        assert list(along_Dp["m"]) == combo(t, cl=kc, cn=half * c1, cm=-half * c2)

        _, along_delta = covariant_directional(w, "delta")
        assert list(along_delta["l"]) == combo(t, cl=-half * c1, cmt=-half * b1)
        assert list(along_delta["mt"]) == combo(t, cl=-half * c2, cmt=-half * b2)
        assert list(along_delta["n"]) == combo(t, cmt=kd, cn=half * c1, cm=-half * c2)
        assert list(along_delta["m"]) == combo(t, cl=kd, cn=-half * b1, cm=half * b2)


def test_tetrad_transform_preserves_normalization():
    w = sample_metrics(1, seed=31)[0]
    mt = assemble_metric(w)
    t = walker_tetrad(w)
    lam = RationalFunction(parse_poly("u + 2"))
    lam_t = RationalFunction(Poly.const(3))
    mu = RationalFunction(parse_poly("v"))
    mu_t = RationalFunction(parse_poly("x - 1"))
    t2 = tetrad_transform(t, lam, lam_t, mu, mu_t)
    validate_tetrad(mt, t2)
    assert t2.chi == t.chi and t2.chi_t == t.chi_t


def test_tetrad_transform_rejects_zero_scale():
    t = walker_tetrad(sample_metrics(1)[0])
    with pytest.raises(InputError):
        tetrad_transform(t, Poly.zero(), ONE, ZERO, ZERO)
    with pytest.raises(InputError):
        tetrad_transform(t, ONE, Poly.zero(), ZERO, ZERO)


def test_scale_normalization_tracks_chi():
    w = sample_metrics(1, seed=41)[0]
    mt = assemble_metric(w)
    t = walker_tetrad(w)
    f = RationalFunction(parse_poly("u + 1"))
    g = RationalFunction(parse_poly("2"))
    t2 = scale_normalization(t, f, g)
    assert t2.chi == f and t2.chi_t == g
    validate_tetrad(mt, t2)
    # Completeness identity scales with the normalization.
    l_dn, n_dn, m_dn, mt_dn = tetrad_covectors(mt, t2)
    unit = t2.chi * t2.chi_t
    for i in range(4):
        for j in range(4):
            dyadic = (
                l_dn[i] * n_dn[j]
                + n_dn[i] * l_dn[j]
                - m_dn[i] * mt_dn[j]
                - mt_dn[i] * m_dn[j]
            )
            assert dyadic == unit * mt.g[i][j]


def test_metric_to_dict_keeps_a_label():
    data = {"a": "u^2", "b": "0", "c": "u*v", "label": "demo"}
    assert WalkerMetric.from_dict(data).to_dict() == data
    assert "label" not in WalkerMetric.from_dict({**data, "label": ""}).to_dict()


def test_metric_from_dict_validation():
    w = WalkerMetric.from_dict({"a": "u^2", "b": "0", "c": "u*v", "label": "demo"})
    assert w.a == parse_poly("u^2") and w.label == "demo"
    with pytest.raises(InputError):
        WalkerMetric.from_dict({"a": "u"})
    with pytest.raises(InputError):
        WalkerMetric.from_dict({"a": "u/", "b": "0", "c": "0"})
    with pytest.raises(InputError):
        WalkerMetric.from_dict({"a": 1, "b": "0", "c": "0"})
    with pytest.raises(InputError):
        WalkerMetric.from_dict(["not", "a", "dict"])


def test_point_refuses_an_unordered_collection():
    assert _point([1, Fraction(1, 2), 0, 3]) == (1, Fraction(1, 2), 0, 3)
    for coords in ({1, 2, 3, 4}, frozenset({1, 2, 3, 4}), dict.fromkeys("uvxy", 1),
                   iter((1, 2, 3, 4))):
        with pytest.raises(InputError, match="a point needs four coordinates"):
            _point(coords)


def test_frame_changes_refuse_none():
    t = walker_tetrad(WalkerMetric(a=parse_poly("u*v"), b=ZERO, c=ZERO))
    for args in ((None, ONE, ONE, ONE), (ONE, ONE, ONE, None)):
        with pytest.raises(InputError, match="got NoneType"):
            tetrad_transform(t, *args)
    for args in ((None, ONE), (ONE, None)):
        with pytest.raises(InputError, match="expected a polynomial or a rational number"):
            scale_normalization(t, *args)


def test_a_finite_float_scalar_is_read_exactly():
    """A float scalar is the rational it holds, as in every other entry
    point; a nonfinite one is refused."""
    w = WalkerMetric(a=parse_poly("u*v"), b=parse_poly("x^3"), c=parse_poly("u*y"))
    t = walker_tetrad(w)
    coeffs = Frame.walker(w).coeffs
    half = Fraction(1, 2)
    assert RationalFunction(0.5) == RationalFunction(half)
    assert scale_normalization(t, 0.5, 1) == scale_normalization(t, half, 1)
    assert coeffs.with_values(rho=0.5) == coeffs.with_values(rho=half)
    for call in (lambda: RationalFunction(math.nan), lambda: scale_normalization(t, 1, math.inf),
                 lambda: coeffs.with_values(rho=math.nan)):
        with pytest.raises(InputError, match="not a finite rational"):
            call()
