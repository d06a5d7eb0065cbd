"""The engine's records: named tuples, with tuple equality and ``_replace``,
and three plain classes (``Frame``, ``Analysis``, ``HeavenlyPotential``)
for the records that hold cached layers."""

import importlib

import pytest

from walkerspin.congruence import TRACE_KEYS, CoefficientTrace
from walkerspin.curvature import Analysis, CurvatureSpinors, walker_curvature_components
from walkerspin.heavenly import HeavenlyPotential
from walkerspin.poly import ONE, ZERO, parse_poly
from walkerspin.spincoeff import Frame, connection_matrices, prime
from walkerspin.walker import WalkerMetric

P = parse_poly
W = WalkerMetric(a=P("u*v"), b=P("x^3"), c=P("u*y"))
MODULES = ("walker", "spincoeff", "curvature", "nullgeom", "congruence", "heavenly")


def _named_tuples():
    out = []
    for mod in MODULES:
        module = importlib.import_module(f"walkerspin.{mod}")
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, tuple)
                    and value.__module__ == module.__name__ and value not in out):
                out.append(value)
    return out


NAMED_TUPLES = _named_tuples()


def test_every_immutable_record_is_a_named_tuple():
    assert len(NAMED_TUPLES) == 23
    assert all(hasattr(cls, "_fields") for cls in NAMED_TUPLES)


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda cls: cls.__name__)
def test_assigning_a_field_raises(cls):
    record = cls._make(range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_frame_replace_rebuilds_the_cached_layers():
    frame = Frame.walker(W)
    companions, connection = frame.companions, frame.connection
    bumped = frame.coeffs.with_values(sigma=frame.coeffs.sigma + ONE)
    new = frame._replace(coeffs=bumped)
    assert new.companions[""][1] is bumped
    assert new.companions["'"][1] == prime(bumped)
    assert new.connection == connection_matrices(bumped) != connection
    assert (new.metric, new.tetrad, new.ops) == (frame.metric, frame.tetrad, frame.ops)
    assert frame.companions is companions and frame.companions[""][1] is frame.coeffs
    assert new != frame and frame._replace() == frame
    with pytest.raises(TypeError):
        frame._replace(coefs=bumped)


def test_frame_from_tetrad_owns_its_covectors():
    frame = Frame.walker(W)
    other = Frame.from_tetrad(frame.metric, frame.tetrad)
    assert "covectors" in vars(other)  # seeded from the validated legs
    assert other.covectors == frame.covectors
    assert other._replace().covectors == frame.covectors


def test_curvature_equality_is_by_components():
    curv = Analysis(W).curvature
    again = walker_curvature_components(W, Frame.walker(W))
    assert curv == again and hash(curv) == hash(again)
    assert curv._replace(Lambda=curv.Lambda + ONE) != curv
    assert CurvatureSpinors() == CurvatureSpinors(Phi=((ZERO,) * 3,) * 3)


def test_trace_equality_and_validation():
    grid = (0.0, 0.5, 1.0)
    trace = CoefficientTrace.from_metric(W, (0, 0, 0, 1), grid)
    assert trace == CoefficientTrace.from_metric(W, (0, 0, 0, 1), grid)
    assert trace != CoefficientTrace.from_metric(W, (0, 0, 0, 2), grid)
    assert trace == CoefficientTrace._make(trace)
    assert set(trace.values) == set(TRACE_KEYS)


def test_potential_equality_replace_and_cached_layers():
    p = HeavenlyPotential(theta=P("u*v*x"))
    assert p == HeavenlyPotential(theta=P("u*v*x"), f=ZERO, label="")
    assert hash(p) == hash(HeavenlyPotential(theta=P("u*v*x")))
    assert p != HeavenlyPotential(theta=P("u*v*y"))
    assert repr(p).startswith("HeavenlyPotential(theta=")
    metric = p.metric
    labelled = p._replace(label="built")
    assert labelled.label == "built" and labelled.theta is p.theta
    assert labelled.metric.label == "built" and p.metric is metric


def test_analysis_equality_is_identity():
    an = Analysis(W)
    assert an == an and an != Analysis(W)
    assert an.w is W
