"""Ring, calculus, and parser behaviour of the exact polynomial layer."""

from __future__ import annotations

import math
import operator
import random
import time
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkerspin import poly
from walkerspin.errors import EngineError, InputError
from walkerspin.poly import (
    EXPONENT_LIMIT,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_PAIRS,
    MAX_TERMS,
    CurvePoly,
    ExponentLimitError,
    ExprSyntaxError,
    PoleError,
    Poly,
    RationalFunction,
    _HORNER_BATCH,
    _as_poly,
    _digit_bound,
    _exact_quotient,
    parse_poly,
)

from support import (
    count_packed,
    random_poly,
    reference_parse,
    reference_product,
    value_parts,
)


coeffs = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)
exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * 4)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(Poly)
# exact small rationals, and float-derived ones with 2^-k denominators as
# the congruence integrator produces
coords = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False).map(Fraction),
)
points = st.tuples(*[coords] * 4)
# curve parameters: exact rationals, float-derived Fractions, and raw floats
params = st.one_of(coords, st.floats(min_value=-3, max_value=3, allow_nan=False))


# Reference: schoolbook arithmetic on dicts of Fraction coefficients,
# independent of Poly's integer storage.


def ref_add(p: dict, q: dict) -> dict:
    merged = dict(p)
    for exps, coeff in q.items():
        acc = merged.get(exps)
        total = coeff if acc is None else acc + coeff
        if total:
            merged[exps] = total
        elif exps in merged:
            del merged[exps]
    return merged


def ref_mul(p: dict, q: dict) -> dict:
    product = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            acc = product.get(key)
            total = c1 * c2 if acc is None else acc + c1 * c2
            if total:
                product[key] = total
            elif key in product:
                del product[key]
    return product


def ref_diff(p: dict, i: int) -> dict:
    out = {}
    for exps, coeff in p.items():
        e = exps[i]
        if e == 0:
            continue
        lowered = list(exps)
        lowered[i] = e - 1
        out[tuple(lowered)] = coeff * e
    return out


def ref_eval(p: dict, pt) -> Fraction:
    total = Fraction(0)
    for exps, coeff in p.items():
        term = coeff
        for base, e in zip(pt, exps):
            if e:
                term *= base ** e
        total += term
    return total


def unpack(key: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key: four fields of EXPONENT_LIMIT,
    u in the highest, and nothing above them."""
    fields = []
    for _ in range(4):
        key, e = divmod(key, EXPONENT_LIMIT)
        fields.append(e)
    assert key == 0
    return tuple(reversed(fields))


def canonical(p: Poly) -> Poly:
    """Assert the storage invariant and that ``terms`` matches it."""
    assert p._den > 0
    assert all(p._num.values())
    # also forces the zero polynomial to be {} over 1
    assert gcd(p._den, *p._num.values()) == 1
    assert p.terms == {unpack(k): Fraction(n, p._den) for k, n in p._num.items()}
    # the exponent bound that guards the packed fields holds
    assert all(max(e) <= p._top for e in p.terms)
    return p


@given(polys, polys)
def test_ring_ops_match_reference(p, q):
    canonical(p)
    assert canonical(p + q).terms == ref_add(p.terms, q.terms)
    assert canonical(p - q).terms == ref_add(p.terms, {e: -c for e, c in q.terms.items()})
    assert canonical(-p).terms == {e: -c for e, c in p.terms.items()}
    assert canonical(p * q).terms == ref_mul(p.terms, q.terms)


@given(polys, coeffs)
def test_scalar_ops_match_reference(p, c):
    const = {(0, 0, 0, 0): c} if c else {}
    assert canonical(p * c).terms == ref_mul(p.terms, const)
    assert canonical(c * p).terms == ref_mul(p.terms, const)
    # a one-term constant Poly operand, on either side
    assert canonical(p * Poly.const(c)).terms == ref_mul(p.terms, const)
    assert canonical(Poly.const(c) * p).terms == ref_mul(p.terms, const)
    assert canonical(p + c).terms == ref_add(p.terms, const)
    assert canonical(c - p).terms == ref_add(const, {e: -k for e, k in p.terms.items()})
    assert canonical(Poly.const(c)).terms == const


@given(polys)
def test_diff_matches_reference(p):
    for i, var in enumerate(("u", "v", "x", "y")):
        assert canonical(p.diff(var)).terms == ref_diff(p.terms, i)


@given(polys, polys, points)
def test_eval_matches_reference(p, q, pt):
    assert p.eval_at(pt) == ref_eval(p.terms, pt)
    assert (p * q).eval_at(pt) == ref_eval(ref_mul(p.terms, q.terms), pt)


@given(polys, polys, st.tuples(*[st.one_of(
    coords,
    st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 10**40)),
)] * 4))
def test_digit_bound_bounds_the_evaluated_value(p, q, pt):
    for value in (p, p * q):
        bound = _digit_bound(value, pt)
        exact = value.eval_at(pt)
        assert len(str(abs(exact.numerator))) <= bound
        assert len(str(exact.denominator)) <= bound


# distinct float, Fraction and int parameters, with different denominators
BATCH = (0.1, Fraction(-7, 3), 2, -1.5, Fraction(5, 64), 2.0 ** -60, -3, Fraction(11, 9))


def curve_checks(p: Poly, base, t) -> None:
    """The restriction of p to the u line through base against eval_at:
    exact at t, and rounded to the same float bit for bit.  One ``floats``
    batch covers t among distinct parameters, so a value carried from one
    point to the next would show."""
    curve = p.along_u(base)
    assert curve.den > 0 and gcd(curve.den, *curve.coeffs) == 1
    assert not curve.coeffs or curve.coeffs[-1]
    exact = p.eval_at((base[0] + Fraction(t), *base[1:]))
    assert curve.value_at(t) == exact
    batch = (*BATCH[:3], t, *BATCH[3:])
    ps, qs = zip(*(Fraction(s).as_integer_ratio() for s in batch))
    got = [x.hex() for x in curve.floats(ps, qs)]
    assert got == [float(curve.value_at(s)).hex() for s in batch]
    assert got[3] == float(exact).hex()


@given(polys, points, params)
def test_curve_restriction_matches_eval(p, base, t):
    curve_checks(p, base, t)


def test_curve_restriction_on_corpus_polys():
    rng = random.Random(7)
    for _ in range(60):
        p = random_poly(rng, max_degree=6, max_terms=8)
        base = tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(4))
        for t in (0.0, 1e-3, 0.1 * rng.randint(-10, 10), rng.uniform(-2, 2)):
            curve_checks(p, base, t)


def test_curve_restriction_edge_cases():
    base = (Fraction(-1, 3), Fraction(5, 2), -2, Fraction(-7, 4))
    for t in (0, 0.5, Fraction(-1, 3), 2.0 ** -60):
        curve_checks(Poly.zero(), base, t)
        curve_checks(Poly.const(Fraction(-5, 6)), base, t)
        curve_checks(parse_poly("v*x^2*y - 1/3"), base, t)
    zero = Poly.zero().along_u(base)
    assert zero.coeffs == () and zero.den == 1
    assert zero.floats((1,) * 3, (2,) * 3) == (0.0, 0.0, 0.0)
    # (u0 + t)^2 * v with u0 = -1/3, v = 5/2: 5/18 - 5/3 t + 5/2 t^2
    curve = parse_poly("u^2*v").along_u(base)
    assert (curve.coeffs, curve.den) == ((5, -30, 45), 18)
    # u*x + 2*u vanishes on the line, where x = -2
    assert parse_poly("u*x + 2*u").along_u(base).coeffs == ()
    assert CurvePoly([2, 4, 0, 0], 6).coeffs == (1, 2)


def test_curve_floats_across_batches():
    """A grid longer than two Horner batches, with a ragged last batch:
    every point equals its exact value, rounded once."""
    curve = parse_poly("u^3*v - 2*u*x + 1/3*y").along_u((Fraction(-1, 3), Fraction(5, 2), 2, 7))
    ts = [k / 7 - 300 for k in range(2 * _HORNER_BATCH + 5)]
    ps, qs = zip(*map(float.as_integer_ratio, ts))
    got = [x.hex() for x in curve.floats(ps, qs)]
    assert got == [float(curve.value_at(t)).hex() for t in ts]


def test_restriction_kernel_at_high_u_degree():
    p = parse_poly("u^1000 + v*x")
    base = (Fraction(1, 2), Fraction(-3, 5), Fraction(7, 3), 2)
    assert p.eval_at(base) == ref_eval(p.terms, base)
    curve = p.along_u(base)
    assert len(curve.coeffs) == 1001
    for t in (Fraction(1, 3), Fraction(-7, 5)):
        assert curve.value_at(t) == ref_eval(p.terms, (base[0] + t, *base[1:]))
    zero = Poly.zero()
    assert zero.eval_at(base) == 0
    assert zero.along_u(base).coeffs == () and zero.along_u(base).den == 1


@given(polys, polys)
def test_equal_copies_hash_equal(p, q):
    copies = [
        Poly.parse(str(p)),
        Poly(p.terms),
        (p + q) - q,
        (p * q + p) - p * q,
        -(-p),
        p * Fraction(2, 3) * Fraction(3, 2),
    ]
    for copy in copies:
        assert canonical(copy) == p
        assert hash(copy) == hash(p)


@given(polys, polys)
def test_rational_function_normalization(p, q):
    if q.is_zero:
        return
    f = RationalFunction(p, q)
    canonical(f.num)
    canonical(f.den)
    if p.is_zero:
        assert f.num.is_zero and f.den == Poly.const(1)
        return
    lead = min(f.den.terms, key=lambda e: (-sum(e), tuple(-k for k in e)))
    assert f.den.terms[lead] == 1
    # f.num / f.den is p / q
    assert ref_mul(f.num.terms, q.terms) == ref_mul(p.terms, f.den.terms)


nonconstant = polys.filter(lambda f: f.constant_value() is None)


@given(polys, nonconstant)
def test_trial_division_recovers_the_cofactor(p, f):
    """p*f divided by f is exactly p, and a Poly; p*f + 1, which f does not
    divide, is refused and stays a quotient."""
    assert canonical(_exact_quotient(p * f, f)) == p
    q = (p * f) / f
    assert type(q) is Poly and q == p
    assert _exact_quotient(p * f + 1, f) is None
    r = (p * f + 1) / f
    assert type(r) is RationalFunction and r * f == p * f + 1
    # a repeated factor cancels one multiplicity at a time
    s = RationalFunction(p * f + 1) / f / f
    assert type(s) is RationalFunction and list(s.factors.values()) == [2]
    assert s * f * f == p * f + 1
    assert s * (f * f) == p * f + 1


@given(polys, nonconstant, polys)
def test_trial_division_is_sound(p, f, r):
    """A quotient that trial division returns multiplies back exactly."""
    q = _exact_quotient(p * f + r, f)
    assert q is None or q * f == p * f + r


def test_trial_division_refuses_a_coefficient_it_cannot_divide():
    """Every leading monomial of 3u + 1 and 2u^2 + 3u + 2 is divisible by
    that of 2u + 1, but no coefficient of the quotient is an integer."""
    f = parse_poly("2*u + 1")
    for text in ("3*u + 1", "2*u^2 + 3*u + 2"):
        p = parse_poly(text)
        assert _exact_quotient(p, f) is None
        q = p / f
        assert type(q) is RationalFunction and q * f == p
    assert _exact_quotient(parse_poly("2*u^2 + 3*u + 1"), f) == parse_poly("u + 1")


def test_trial_division_keeps_quotient_exponents_within_the_dividend():
    """Lex division of u^256 - x by u - y^256 never ends: its remainder
    reaches y^65536, which packed into the y field would carry into x and
    cancel the x term.  A quotient exponent above the dividend's is refused
    first, so the quotient stays irreducible."""
    p, f = parse_poly("u^256 - x"), parse_poly("u - y^256")
    assert _exact_quotient(p, f) is None
    r = p / f
    assert type(r) is RationalFunction and r * f == p
    assert _exact_quotient(p * f, f) == p


def test_trial_division_is_not_tried_where_a_remainder_could_carry():
    """Dividend and divisor bounds summing to EXPONENT_LIMIT could carry in
    a remainder key: the division is refused and the quotient stays
    correct, unreduced."""
    half = EXPONENT_LIMIT // 2
    f = Poly({(half, 0, 0, 0): 1, (0, 0, 0, 0): 1})
    assert _exact_quotient(f, f) is None
    r = f / f
    assert type(r) is RationalFunction and r.num == f and r.eval_at((2, 0, 0, 0)) == 1
    g = Poly({(half - 1, 0, 0, 0): 1, (0, 0, 0, 0): 1})
    assert _exact_quotient(g * parse_poly("u + 1"), parse_poly("u + 1")) == g


U, V = parse_poly("1 + u"), parse_poly("1 + v")


def over_uv(p, a: int, b: int):
    """p / ((1+u)^a * (1+v)^b), one division at a time."""
    for _ in range(a):
        p = p / U
    for _ in range(b):
        p = p / V
    return p


uv_terms = st.lists(
    st.tuples(polys, st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=5
)


@given(uv_terms, st.randoms(use_true_random=False), points)
@settings(max_examples=60)
def test_sums_over_known_factors_are_canonical(terms, rnd, pt):
    """A sum of quotients over powers of 1+u and 1+v has one numerator and
    one denominator whatever order it is added in, and the right value."""
    values = [over_uv(p, a, b) for p, a, b in terms]
    shuffled = list(values)
    rnd.shuffle(shuffled)
    forward = reduce(operator.add, values)
    other = reduce(operator.add, shuffled)
    assert type(forward) is type(other)
    num, den = value_parts(forward)
    assert value_parts(other) == (num, den)
    if isinstance(forward, RationalFunction):
        assert forward.factors == other.factors
        assert set(forward.factors) <= {U, V}
        # reduced: no factor left divides the numerator
        assert all(_exact_quotient(num, f) is None for f in forward.factors)
    if U.eval_at(pt) and V.eval_at(pt):
        assert forward.eval_at(pt) == sum(v.eval_at(pt) for v in values)


FACTOR_POOL = [parse_poly(t) for t in ("1 + u", "1 + v", "2 - x", "u*v + 1", "x^2 + y^2")]
quotients = st.tuples(polys, st.lists(st.sampled_from(FACTOR_POOL), max_size=3)).map(
    lambda t: reduce(operator.truediv, t[1], t[0])
)


@given(quotients, quotients, points)
@settings(max_examples=60)
def test_quotient_arithmetic_matches_evaluation(f, g, pt):
    """Sums, differences, products and quotients evaluate to the same
    operation on the values, wherever no denominator vanishes."""
    try:
        a, b = f.eval_at(pt), g.eval_at(pt)
    except ZeroDivisionError:
        return
    assert (f + g).eval_at(pt) == a + b
    assert (f - g).eval_at(pt) == a - b
    assert (f * g).eval_at(pt) == a * b
    if not g.is_zero and b:
        try:
            value = (f / g).eval_at(pt)
        except ZeroDivisionError:
            # the product of a denominator and g's numerator may vanish here
            return
        assert value == a / b


@given(quotients, st.sampled_from("uvxy"))
@settings(max_examples=60)
def test_quotient_diff_matches_quotient_rule(f, var):
    """d(n/d) * d^2 = n' d - n d', cross-multiplied in Poly arithmetic."""
    num, den = value_parts(f)
    dnum, dden = value_parts(f.diff(var))
    assert dnum * den * den == (num.diff(var) * den - num * den.diff(var)) * dden


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys)
def test_additive_inverse(p):
    assert (p - p).is_zero
    assert p + Poly.zero() == p


@given(polys, polys)
@settings(max_examples=60)
def test_product_rule(p, q):
    for var in ("u", "v", "x", "y"):
        lhs = (p * q).diff(var)
        rhs = p.diff(var) * q + p * q.diff(var)
        assert lhs == rhs


@given(polys, polys)
def test_mixed_partials_commute(p, q):
    s = p * q
    assert s.diff("u").diff("x") == s.diff("x").diff("u")


@given(polys, polys, points)
def test_evaluation_is_ring_homomorphism(p, q, pt):
    assert (p + q).eval_at(pt) == p.eval_at(pt) + q.eval_at(pt)
    assert (p * q).eval_at(pt) == p.eval_at(pt) * q.eval_at(pt)


@given(polys)
def test_str_parse_round_trip(p):
    assert Poly.parse(str(p)) == p


def ref_str(terms: dict) -> str:
    """Terms by total degree descending, then exponent tuples descending,
    each from its Fraction coefficient."""
    pieces = []
    for exps in sorted(terms, key=lambda e: (-sum(e), tuple(-k for k in e))):
        coeff = terms[exps]
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip("uvxy", exps) if e]
        mag = abs(coeff)
        body = "*".join(([] if factors and mag == 1 else [str(mag)]) + factors)
        sign = ("" if coeff > 0 else "-") if not pieces else ("+ " if coeff > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


wide_exponents = st.tuples(*[st.integers(min_value=0, max_value=EXPONENT_LIMIT - 1)] * 4)
wide_polys = st.dictionaries(wide_exponents, coeffs, max_size=6).map(Poly)


@given(st.one_of(polys, wide_polys))
def test_str_order_matches_reference(p):
    assert str(p) == ref_str(p.terms)


def test_round_trip_on_random_polys():
    rng = random.Random(7)
    for _ in range(200):
        p = random_poly(rng)
        assert parse_poly(str(p)) == p


def test_parse_examples():
    p = parse_poly("3*u^2*v - x")
    assert p == Poly({(2, 1, 0, 0): 3, (0, 0, 1, 0): -1})
    assert parse_poly("u*(u+v)") == Poly({(2, 0, 0, 0): 1, (1, 1, 0, 0): 1})
    assert parse_poly("2/3*y^4") == Poly({(0, 0, 0, 4): Fraction(2, 3)})
    assert parse_poly("0").is_zero
    assert parse_poly("-u - -v") == Poly({(1, 0, 0, 0): -1, (0, 1, 0, 0): 1})
    assert parse_poly("(u+v)^2") == Poly(
        {(2, 0, 0, 0): 1, (1, 1, 0, 0): 2, (0, 2, 0, 0): 1}
    )


def test_parse_rejects_division_by_variables():
    with pytest.raises(ExprSyntaxError) as err:
        parse_poly("u/v")
    assert "division" in str(err.value)
    assert err.value.position == 1
    with pytest.raises(ExprSyntaxError, match="integer denominator") as err:
        parse_poly("1/u")
    assert err.value.position == 2


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as err:
        parse_poly("u + w")
    assert "'w'" in str(err.value)
    assert err.value.position == 4


def test_parse_reports_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_poly("u + ")
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_poly("")
    with pytest.raises(ExprSyntaxError) as err:
        parse_poly("(u + v")
    assert "')'" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse_poly("u ^ v")
    with pytest.raises(ExprSyntaxError):
        parse_poly("1/0")
    with pytest.raises(ExprSyntaxError):
        parse_poly("u v")


def test_parse_error_is_an_input_error():
    """A parse failure is refused input, so ``except EngineError`` catches
    it, and it is still the ValueError that callers catch."""
    with pytest.raises(InputError) as err:
        parse_poly("u + ")
    assert isinstance(err.value, ExprSyntaxError) and isinstance(err.value, EngineError)
    with pytest.raises(ValueError, match="position 4"):
        parse_poly("u + ")


def test_parse_refuses_what_is_not_text():
    for value in (3, None, b"u", ["u"]):
        for parse in (parse_poly, Poly.parse):
            with pytest.raises(InputError, match="must be a string"):
                parse(value)


# Random expression text for the parser differential: spaces, signs,
# rationals (a zero denominator among them), powers near MAX_EXPONENT, of a
# one-term base also after a sum that cancels down to it, which keeps the
# larger bound, and parentheses; then a few character edits, most of which
# leave the text invalid.
_spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n "])
_literals = st.one_of(
    st.sampled_from(["0", "1", "2", "007", "10000000000000000000001"]),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(0, 12)),
)
_names = st.sampled_from(["u", "v", "x", "y"])
_high = st.sampled_from([0, 1, 2, 3, 333, 334, 499, 500, 501, 999, 1000, 1001, 2000])


@st.composite
def _monomial_text(draw):
    factors = draw(st.lists(st.one_of(_names, _literals, st.builds(
        "{}^{}".format, _names, st.integers(0, 600))), min_size=1, max_size=3))
    text = "*".join(factors)
    if draw(st.booleans()):
        # the same terms, bounded by a sum whose other part cancels
        other = draw(st.builds("{}^{}".format, _names, _high))
        text = f"({other} + {text} - {other})"
    return text


@st.composite
def _expr_text(draw, depth=3):
    def sp():
        return draw(_spaces)

    kind = draw(st.integers(0, 7 if depth else 1))
    if kind == 0:
        return draw(_names)
    if kind == 1:
        return draw(_literals)
    if kind == 2:
        return f"({sp()}{draw(_monomial_text())}{sp()}){sp()}^{sp()}{draw(_high)}"
    a = draw(_expr_text(depth - 1))
    if kind == 3:
        return f"({sp()}{a}{sp()})"
    if kind == 4:
        return f"{draw(st.sampled_from(['-', '+', '- -', '-+']))}{sp()}{a}"
    if kind == 5:
        return f"({a}){sp()}^{sp()}{draw(st.integers(0, 3))}"
    return f"{a}{sp()}{draw(st.sampled_from('+-*'))}{sp()}{draw(_expr_text(depth - 1))}"


@st.composite
def _edited_text(draw):
    text = draw(_expr_text())
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from("()+-*/^ 0129²uvxyw_."))
        text = draw(st.sampled_from([
            text[:i] + ch + text[i:], text[:i] + text[i + 1:], text[:i] + ch + text[i + 1:],
        ]))
    return text


def _parse_outcome(parse, text):
    """The value with its exponent bound, or the refusal."""
    try:
        value = parse(text)
    except (ExprSyntaxError, ExponentLimitError) as exc:
        return type(exc), str(exc)
    return value, value._top


@settings(max_examples=400, deadline=None)
@given(_edited_text())
@example("3*v^1*x^2*y^1 - 2/3*u^4")
@example("(u^2*v^3)^334")
@example("(u^2*v^2)^501")
@example("x^600*y^600*(x^500*y^500)")
@example("(2*u*v^501)^2")
@example("(u^1000 + 7/2*u*x - u^1000)^70")
@example("(u^1000 + 7/2 - u^1000)^70 * (u^1000 + 2 - u^1000)")
@example("(u^1000 + u - u^1000)*(u^1000 + v - u^1000)")
@example("(3/4)^1000 * u^0 * 0 * x")
def test_parser_matches_the_reference(text):
    """One-term products and powers formed at once give what the product
    loop gives, bound included, or the same refusal at the same position."""
    assert _parse_outcome(parse_poly, text) == _parse_outcome(reference_parse, text)


def test_parse_limits():
    nested = "(" * MAX_NESTING + "u" + ")" * MAX_NESTING
    assert parse_poly(nested) == Poly.variable("u")
    with pytest.raises(ExprSyntaxError) as err:
        parse_poly("(" + nested + ")")
    assert err.value.position == MAX_NESTING
    assert parse_poly(f"u^{MAX_EXPONENT}").degree() == MAX_EXPONENT
    assert parse_poly(f"u^000{MAX_EXPONENT}").degree() == MAX_EXPONENT
    for text in (f"u^{MAX_EXPONENT + 1}", "u^" + "9" * 5000):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly(text)
        assert err.value.position == 2


def test_parse_bounds_each_product_by_its_largest_exponent():
    # the sum keeps the bound 1000 of its cancelled terms; each power of it
    # is bounded by the exponent it holds
    for text in ("(u^1000+u-u^1000)^70", "(u^1000+u-u^1000)^69*(u^1000+u-u^1000)"):
        value = parse_poly(text)
        assert value == Poly.variable("u") ** 70 and value._top == 70
    value = parse_poly("(u^1000+u+v-u^1000)^2")
    assert value == parse_poly("u^2 + 2*u*v + v^2") and value._top == 2


def test_exponent_limit_is_input_to_refuse():
    for make in (lambda: Poly({(70000, 0, 0, 0): 1}), lambda: Poly.variable("u") ** 70000):
        with pytest.raises(InputError):
            make()
        with pytest.raises(ValueError):
            make()


def test_floats_are_read_exactly():
    p = parse_poly("u^2*v - x + 1/3")
    for point in ((1.5, 0.25, -2.0, 7), (Fraction(3, 2), Fraction(1, 4), -2, 7)):
        assert p.eval_at(point) == Fraction(9, 16) + 2 + Fraction(1, 3)
        assert p.along_u(point).value_at(0.5) == Fraction(1) + 2 + Fraction(1, 3)
    assert Poly({(1, 0, 0, 0): 0.1}) == Poly({(1, 0, 0, 0): Fraction(0.1)})
    for value in (math.inf, math.nan, "1/2", None, [1]):
        with pytest.raises(InputError, match="not a finite rational"):
            Poly.const(value)


@pytest.mark.parametrize("text, message", [
    ("u^²", "exponent must be a nonnegative integer (position 2)"),
    ("²", "unexpected character '²' (position 0)"),
    ("3/²", "expected integer denominator after '/' (position 2)"),
    ("1" * 5000, "integer literal has too many digits (position 0)"),
    ("u + 3/" + "7" * 5000, "integer literal has too many digits (position 6)"),
], ids=["superscript-exponent", "superscript", "superscript-denominator", "long-literal",
        "long-denominator"])
def test_parse_refuses_what_int_cannot_read(text, message):
    # '²' is a digit to str.isdigit, but not to int(); int() also refuses
    # a literal past the interpreter's digit limit
    with pytest.raises(ExprSyntaxError) as err:
        parse_poly(text)
    assert str(err.value) == message


def test_exponent_read_without_its_leading_zeros():
    assert parse_poly("u^" + "0" * 5000 + "1") == Poly.variable("u")
    assert parse_poly("u^" + "0" * 5000) == Poly.const(1)
    # other scripts' decimal digits are digits to int() and Fraction()
    assert parse_poly("٣*u^٢") == parse_poly("3*u^2")


@pytest.mark.parametrize("zeros", ["٠" * 5, "٠" * 5000, "0٠０" * 1000],
                         ids=["five", "five-thousand", "three-scripts"])
def test_exponent_read_without_leading_zeros_of_any_script(zeros):
    # Arabic-Indic and fullwidth zeros are zeros to int(), as ASCII ones are
    value = parse_poly("u^" + zeros + "1")
    assert value == Poly.variable("u") and value._top == 1
    assert parse_poly("u^" + zeros + "1000") == Poly.variable("u") ** 1000
    with pytest.raises(ExprSyntaxError, match=r"exponent exceeds 1000 \(position 2\)"):
        parse_poly("u^" + zeros + "1001")
    assert reference_parse("u^" + zeros + "1") == Poly.variable("u")


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("u^²")
@example("1" * 5000)
def test_parse_returns_a_poly_or_refuses(text):
    try:
        value = parse_poly(text)
    except EngineError:
        return
    assert isinstance(value, Poly)


@pytest.mark.parametrize("terms, message", [
    (5, "polynomial terms must be a mapping, got int"),
    ([(1,)], "polynomial terms must be a mapping, got list"),
    ({(1, 2, 3): 1}, "bad exponent tuple (1, 2, 3)"),
    ({(1, 2, 3, -1): 1}, "bad exponent tuple (1, 2, 3, -1)"),
    ({7: 1}, "bad exponent tuple 7"),
], ids=["int", "list", "three-exponents", "negative-exponent", "int-key"])
def test_poly_terms_refused_as_input(terms, message):
    with pytest.raises(InputError) as err:
        Poly(terms)
    assert str(err.value) == message


def test_pole_is_input_and_still_a_zero_division():
    u = Poly.variable("u")
    f = RationalFunction(Poly.const(1), 1 + u)
    with pytest.raises(PoleError, match="denominator vanishes") as err:
        f.eval_at((-1, 0, 0, 0))
    assert isinstance(err.value, InputError) and isinstance(err.value, ZeroDivisionError)
    assert f.eval_at((1, 0, 0, 0)) == Fraction(1, 2)
    # dividing by a zero polynomial is the engine's fault, not bad input
    for divide in (lambda: f / Poly.zero(), lambda: RationalFunction(Poly.const(1), Poly.zero())):
        with pytest.raises(ZeroDivisionError) as err:
            divide()
        assert not isinstance(err.value, EngineError)


def test_parse_bounds_composed_exponents():
    # each operand within the bound, but not the product: refused before
    # the product is formed, so a tower of powers costs nothing
    both = parse_poly(f"u^{MAX_EXPONENT}*v^{MAX_EXPONENT}")
    assert both == Poly({(MAX_EXPONENT, MAX_EXPONENT, 0, 0): 1})
    for text in (f"u^{MAX_EXPONENT}*u", f"(x^2)^{MAX_EXPONENT // 2 + 1}",
                 "((u^1000)^1000)^1000*v"):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly(text)
        assert f"exceeds {MAX_EXPONENT}" in str(err.value)


def test_parse_term_limit():
    def line(var, n):
        return "(" + "+".join(f"{var}^{k}" for k in range(n)) + ")"

    # 100 * 100 = MAX_TERMS products, and 73 * 137 = MAX_TERMS + 1
    assert MAX_TERMS == 100 * 100 == 73 * 137 - 1
    assert len(parse_poly(line("u", 100) + "*" + line("v", 100))._num) == MAX_TERMS
    with pytest.raises(ExprSyntaxError) as err:
        parse_poly(line("u", 73) + "*" + line("v", 137))
    assert "terms" in str(err.value)
    # powers are bounded product by product, so this fails early
    with pytest.raises(ExprSyntaxError):
        parse_poly("(u+v+x+y+1)^1000")
    assert len(parse_poly("(u+v+x+y+1)^5")._num) == 126
    # 1820 * 1820 term pairs are refused before the product is formed
    assert MAX_TERM_PAIRS < 1820 * 1820
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as err:
        parse_poly("(u+v+x+y+1)^12*(u-v+x-y+2)^12")
    assert "term pairs" in str(err.value)
    assert time.perf_counter() - start < 1.0


def test_diff_and_eval_basics():
    p = parse_poly("u^2*v + 3*x*y")
    assert p.diff("u") == parse_poly("2*u*v")
    assert p.diff("y") == parse_poly("3*x")
    assert p.eval_at((2, 1, 1, 1)) == Fraction(7)
    assert p.eval_at((Fraction(1, 2), 4, 0, 0)) == Fraction(1)
    with pytest.raises(InputError, match="four coordinates"):
        p.eval_at((1, 2, 3))
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        p.diff("w")
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        Poly.variable("w")


def test_degree_and_constants():
    assert Poly.zero().degree() == -1
    assert Poly.const(5).degree() == 0
    assert parse_poly("u*v*x*y").degree() == 4
    assert parse_poly("7").constant_value() == 7
    assert parse_poly("u").constant_value() is None


def test_constructor_refuses_bad_exponents():
    for exps in ((1.5, 0, 0, 0), (0, 0, 1.0, 0), (0, Fraction(1), 0, 0), (0, 0, 0, "1")):
        with pytest.raises(InputError, match="bad exponent tuple"):
            Poly({exps: 1})
    for exps in ((EXPONENT_LIMIT, 0, 0, 0), (0, 0, 0, EXPONENT_LIMIT), (0, 2**70, 0, 0)):
        with pytest.raises(ExponentLimitError):
            Poly({exps: 1})
    top = Poly({(0, EXPONENT_LIMIT - 1, 0, 0): 3})
    assert top.terms == {(0, EXPONENT_LIMIT - 1, 0, 0): 3}


def test_product_refused_before_a_field_carries():
    big = Poly({(40000, 0, 0, 0): 1})
    start = time.perf_counter()
    with pytest.raises(ExponentLimitError):
        big * big
    with pytest.raises(ExponentLimitError):
        (big + Poly.variable("v")) * (big - 1)
    assert time.perf_counter() - start < 1.0
    # the largest product that fits keeps its exponent in the u field
    a = Poly({(EXPONENT_LIMIT // 2, 0, 0, 0): 2})
    b = Poly({(EXPONENT_LIMIT // 2 - 1, 0, 0, 0): 3, (0, 0, 0, 1): 1})
    assert (a * b).terms == {
        (EXPONENT_LIMIT - 1, 0, 0, 0): 6,
        (EXPONENT_LIMIT // 2, 0, 0, 1): 2,
    }
    assert (a * b).diff("u").terms == {
        (EXPONENT_LIMIT - 2, 0, 0, 0): 6 * (EXPONENT_LIMIT - 1),
        (EXPONENT_LIMIT // 2 - 1, 0, 0, 1): EXPONENT_LIMIT,
    }


@given(polys, polys)
def test_zero_factor_products_match_the_loop(p, q):
    # q - q is zero but keeps q's bound
    for zero in (Poly.zero(), q - q):
        for a, b in ((zero, p), (p, zero), (zero, zero)):
            product = canonical(a * b)
            assert product == reference_product(a, b) and product.is_zero
            assert hash(product) == hash(reference_product(a, b)) == hash(0)
            # the one difference: a zero product is ZERO, bounded by 0
            assert product._top == 0


def test_zero_factor_refused_at_the_exponent_limit():
    big = Poly({(EXPONENT_LIMIT // 2, 0, 0, 0): 1})
    zero = big - big
    assert zero.is_zero and zero._top == EXPONENT_LIMIT // 2
    for a, b in ((zero, big), (big, zero), (zero, zero)):
        with pytest.raises(ExponentLimitError):
            a * b
    assert (zero * Poly.variable("v"))._top == 0


def test_as_poly_refuses_what_is_not_a_polynomial_or_rational():
    p = parse_poly("u - v")
    assert _as_poly(p) is p and _as_poly(Fraction(1, 2)) == Poly.const(Fraction(1, 2))
    assert _as_poly(1.5) == Poly.const(Fraction(3, 2))
    for value in (None, "u", [1]):
        with pytest.raises(InputError, match="expected a polynomial or a rational number"):
            _as_poly(value)


def test_powers_are_bounded():
    u = Poly.variable("u")
    start = time.perf_counter()
    assert Poly.const(2) ** 10**6 == Poly.const(2**10**6)
    assert Poly.const(Fraction(-2, 3)) ** 3 == Poly.const(Fraction(-8, 27))
    assert Poly.zero() ** 0 == Poly.const(1) and Poly.zero() ** 5 == Poly.zero()
    with pytest.raises(ExponentLimitError):
        u**70000
    with pytest.raises(ExponentLimitError):
        (u * u) ** (EXPONENT_LIMIT // 2)
    assert time.perf_counter() - start < 1.0
    assert (u + 1) ** 3 == parse_poly("u^3 + 3*u^2 + 3*u + 1")
    assert u**0 == Poly.const(1)
    with pytest.raises(ValueError, match="nonnegative"):
        u**-1


# Packed products: factors whose terms fall into few (u, v, x) groups, with
# several y terms each, so that most products pass the packing rule.

packed_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9), st.integers(min_value=-2**230, max_value=2**230)
).filter(bool)
# the lowest y exponent of each factor: from zero, or so near the limit
# that the product's top y exponent is within 20 of it
y_lows = st.sampled_from([(0, 0), (EXPONENT_LIMIT // 2 - 10,) * 2, (EXPONENT_LIMIT - 20, 0)])


@st.composite
def grouped_factor(draw, low: int) -> Poly:
    """5-8 groups, each of all n y terms from y^low upward or, one in four,
    of some of them (one term, maybe), over a denominator of 1 or more."""
    keys = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=5, max_size=8,
                         unique=True))
    n = draw(st.integers(4, 10))
    ys = range(low, low + n)
    terms = {}
    for u, v, x in keys:
        some = draw(st.integers(0, 3)) == 0
        for y in draw(st.sets(st.sampled_from(ys), min_size=1)) if some else ys:
            terms[(u, v, x, y)] = draw(packed_coeffs)
    return Poly(terms) * Fraction(1, draw(st.sampled_from([1, 1, 6, 2**70 + 1])))


def saturated(g: int, n: int, c: int) -> Poly:
    """g groups x^i of n y terms, each coefficient c."""
    return Poly({(0, 0, i, j): c for i in range(g) for j in range(n)})


@st.composite
def saturated_pair(draw) -> tuple[Poly, Poly]:
    """g groups of n y terms in both factors, every coefficient 2^k - 1 of
    one sign: the middle output term meets g * n = 2^m - 1 term pairs, the
    most the slot width allows for."""
    g, n = draw(st.sampled_from([(7, 9), (9, 7), (3, 21), (21, 3), (1, 63)]))
    c = 2 ** draw(st.integers(2, 240)) - 1
    return saturated(g, n, draw(st.sampled_from([c, -c]))), saturated(g, n, c)


@st.composite
def packed_pairs(draw) -> tuple[Poly, Poly]:
    if draw(st.integers(0, 3)) == 0:
        return draw(saturated_pair())
    low_p, low_q = draw(y_lows)
    return draw(grouped_factor(low_p)), draw(grouped_factor(low_q))


def test_packed_product_matches_the_loop(monkeypatch):
    calls = count_packed(monkeypatch)
    packed = []

    @settings(max_examples=150, deadline=None)
    @given(packed_pairs())
    @example((saturated(7, 9, 2**100 - 1), saturated(7, 9, 1 - 2**100)))
    def check(pair):
        p, q = pair
        before = calls[0]
        assert canonical(p * q) == reference_product(p, q)
        packed.append(calls[0] > before)

    check()
    assert 2 * sum(packed) > len(packed), f"{sum(packed)} of {len(packed)} packed"


def test_wide_y_span_keeps_the_loop(monkeypatch):
    # 20 groups of 20 y terms spread over 950 and 893 exponents: packed,
    # each int would carry about 950 slots for 20 terms
    calls = count_packed(monkeypatch)
    p = Poly({(0, 0, i, 50 * j): 1 + i + j for i in range(20) for j in range(20)})
    q = Poly({(0, 0, i, 47 * j): 3 - i * j for i in range(20) for j in range(20)})
    assert p * q == reference_product(p, q)
    assert calls[0] == 0


def test_packable_product_refused_at_the_exponent_limit(monkeypatch):
    calls = count_packed(monkeypatch)
    grid = {(0, 0, i, j): i - j or 5 for i in range(8) for j in range(8)}
    fits = Poly({**grid, (EXPONENT_LIMIT // 2 - 1, 0, 0, 0): 1})
    assert fits * fits == reference_product(fits, fits) and calls[0] == 1
    # the same 65 * 65 term pairs with one exponent bound past the limit
    formed = [0]
    reduced = poly._reduced

    def counted(*args):
        formed[0] += 1
        return reduced(*args)

    monkeypatch.setattr(poly, "_reduced", counted)
    monkeypatch.setattr(poly, "_y_packed", lambda p, q: pytest.fail("packing tried"))
    big = Poly({**grid, (EXPONENT_LIMIT // 2, 0, 0, 0): 1})
    with pytest.raises(ExponentLimitError):
        big * big
    assert formed[0] == 0 and calls[0] == 1

class TestRationalFunction:
    def test_cross_multiplication_equality(self):
        u = Poly.variable("u")
        v = Poly.variable("v")
        one = Poly.const(1)
        # u/(u*v) equals 1/v without any gcd reduction.
        lhs = RationalFunction(u, u * v)
        rhs = RationalFunction(one, v)
        assert lhs == rhs
        assert RationalFunction(u, v) != RationalFunction(v, u)

    def test_arithmetic(self):
        u = Poly.variable("u")
        v = Poly.variable("v")
        f = RationalFunction(Poly.const(1), u)
        g = RationalFunction(Poly.const(1), v)
        assert f + g == RationalFunction(u + v, u * v)
        assert f * g == RationalFunction(Poly.const(1), u * v)
        assert f - f == RationalFunction(Poly.zero())
        assert (f / g) == RationalFunction(v, u)
        with pytest.raises(ZeroDivisionError):
            f / RationalFunction(Poly.zero())

    def test_polynomial_fast_path(self):
        """Arithmetic whose denominator normalizes to a constant returns a
        Poly; a denominator that survives stays a RationalFunction."""
        u, v = parse_poly("u"), parse_poly("v")
        p = parse_poly("u^2 - v")
        wrapped = RationalFunction(p)
        f = RationalFunction(u * u, v)
        cases = {
            "wrapped + 1": (wrapped + 1, p + 1),
            "v - wrapped": (v - wrapped, v - p),
            "2 * wrapped": (2 * wrapped, 2 * p),
            "wrapped * u": (wrapped * u, p * u),
            "wrapped / 2": (wrapped / 2, p * Fraction(1, 2)),
            "-wrapped": (-wrapped, -p),
            "wrapped ** 2": (wrapped**2, p * p),
            "d/du wrapped": (wrapped.diff("u"), 2 * u),
            "f - f": (f - f, Poly.zero()),
            "f * 0": (f * 0, Poly.zero()),
            "d/dx f": (f.diff("x"), Poly.zero()),
            "u / -2": (u / Poly.const(-2), u * Fraction(-1, 2)),
            "u / (3/2)": (u / Poly.const(Fraction(3, 2)), u * Fraction(2, 3)),
        }
        for label, (got, want) in cases.items():
            assert type(got) is Poly, label
            assert got == want, label
        q = u / (2 * v)
        assert type(q) is RationalFunction
        assert q.den == v and q.num == u * Fraction(1, 2)
        assert q * v == u * Fraction(1, 2)

    def test_diff_quotient_rule(self):
        u = Poly.variable("u")
        v = Poly.variable("v")
        f = RationalFunction(u * u, v)
        df = f.diff("u")
        assert df == RationalFunction(2 * u, v)
        dv = f.diff("v")
        assert dv == RationalFunction(-(u * u), v * v)

    def test_eval(self):
        f = RationalFunction(parse_poly("u + v"), parse_poly("x"))
        assert f.eval_at((1, 2, 3, 0)) == Fraction(1)
        with pytest.raises(ZeroDivisionError):
            f.eval_at((1, 2, 0, 0))

    def test_mixed_coercion(self):
        u = Poly.variable("u")
        f = RationalFunction(u)
        assert f + 1 == RationalFunction(u + 1)
        assert 2 * f == RationalFunction(2 * u)
        assert f - Fraction(1, 2) == RationalFunction(u - Fraction(1, 2))
        assert u * f == RationalFunction(u * u)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly.const(1), Poly.zero())


def test_equal_polys_hash_equal_by_every_route():
    """The hash is cached on first use; equal values built by the
    constructor, the parser and arithmetic still hash equal."""
    u, v, x, y = (parse_poly(name) for name in "uvxy")
    routes = [
        parse_poly("u*v - 1/2*x^2"),
        Poly({(1, 1, 0, 0): 1, (0, 0, 2, 0): Fraction(-1, 2)}),
        u * v - x * x * Fraction(1, 2),
        (parse_poly("2*u*v - x^2 + y") - y) * Fraction(1, 2),
        -(-parse_poly("u*v - 1/2*x^2")),
    ]
    first = hash(routes[0])
    assert hash(routes[0]) == first
    assert all(p == routes[0] and hash(p) == first for p in routes)
    table = {routes[0]: "value"}
    assert all(table[p] == "value" for p in routes[1:])
    zeros = [Poly(), Poly.zero(), u - u, parse_poly("0"), Poly({(1, 0, 0, 0): 0})]
    assert len({hash(z) for z in zeros}) == 1


@given(st.one_of(st.integers(), st.fractions()))
@example(0)
def test_constants_hash_as_their_value(c):
    """A constant polynomial equals its value, so it hashes as that value
    and set membership holds both ways."""
    p = Poly.const(c)
    assert hash(p) == hash(c)
    assert p in {c} and c in {p}
