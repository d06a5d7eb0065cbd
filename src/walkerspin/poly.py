"""Exact sparse polynomials over the rationals in the coordinates u, v, x, y.

Everything downstream manipulates polynomial or rational-function data in
four fixed coordinates, so this module pins down one canonical
representation: integer numerators keyed by packed exponents, over one
positive integer denominator shared by every term.  No numerator is zero,
the denominator and the numerators have no common factor, and the zero
polynomial is ``{}`` over 1, so each polynomial has exactly one
representation and equality compares the two fields.  Arithmetic stays in
integers, after Monagan and Pearce's sparse integer arithmetic: a product
is one integer convolution followed by one reduction by the common factor
of its denominator and numerators.

Each term is keyed by one int holding its exponents in four 16-bit fields,
u << 48 | v << 32 | x << 16 | y, after Monagan and Pearce's packed exponent
vectors: the key of a product of two terms is the sum of their keys, and
with u in the highest field, comparing keys compares exponent tuples
lexicographically.  An exponent must stay below ``EXPONENT_LIMIT`` = 2^16,
or a sum of keys would carry into the next field.  So every polynomial
keeps ``_top``, an upper bound on its largest exponent: a product's bound
is the sum of its factors' bounds, a sum's the larger of its parts'.  The
constructor refuses an exponent at or above the limit, and a product, or a
power, whose bound would reach it is refused before any term is formed.

A product of more than 256 term pairs whose factors fall into few
(u, v, x) groups is Kronecker substitution in y alone, after R. Fateman,
"Can you save time in multiplying polynomials by encoding them as
integers?" (2010).  Each group's y-polynomial becomes one signed int, y^k
at bit width * k, so a pair of groups costs one int product, not one dict
update per term pair.  Group keys add as term keys do, and the int summed
for each output (u, v, x) key is read back by signed digits of width bits.
The width is the bit lengths of the two largest numerators, plus that of
the most term pairs that can meet in one output term, plus two: every
output numerator is then under 2^(width - 2) in magnitude, so no slot
carries into the next (the argument is written out at ``_y_packed``).
Smaller products, factors with many groups and factors whose y exponents
spread wide keep the per-pair loop.  Both paths give the same numerators.

Two fast paths serve small operands.  A product with a zero factor, once
its bound is checked, is ``ZERO``: the loop's value and hash, but bounded by
0, not by the sum of the factors' bounds.  The parser forms a product of two
one-term factors, and a one-term base to the e as key * e over n^e / den^e,
directly, with the refusal (message and position) that its product loop
would give.  Each product and power the parser forms is bounded by its
exact largest exponent, at most ``MAX_EXPONENT``, so text whose terms
cancel to a small power is read, and no product it forms reaches the limit.

Every module reads user data by the input rules kept here: ``_fraction``,
``_sequence``, ``_point``, ``_float`` and ``_bounded_int`` (see ``errors``).

``Poly.terms`` maps each exponent tuple to its ``Fraction`` coefficient.
It is built on first access, cached, and read-only by convention.

``Poly.eval_at`` and ``Poly.along_u`` share one kernel, which evaluates
the v, x, y factors in integers: ``eval_at`` is Horner in u over the
integer coefficients of u^a it leaves, and ``along_u`` Horner in u0 + t,
the restriction t -> p(u0 + t, v0, x0, y0) as a ``CurvePoly``: integer
coefficients of t^k over one denominator, evaluated by integer Horner.
Its float values, rounded once from the exact value, are the only floats.
``_horner`` is that one Horner: one loop over a batch of points t = p/q,
with no call per point, so ``CurvePoly.floats`` hands it a grid in
batches of ``_HORNER_BATCH`` points and ``eval_at`` and ``ratio_at`` a
single point.

A ``RationalFunction`` keeps its denominator as a map from factor to
multiplicity: a product adds multiplicities, a sum works over each factor
at its larger multiplicity, and division by a ``Poly`` first divides out
every known factor, and what is left becomes one new factor.  Each result
divides its numerator by each factor as often as it goes, by exact sparse
trial division in integers (``_exact_quotient``); no polynomial gcd is
taken.  The division keeps the carry guard: a quotient exponent above the
dividend's ends it, so no remainder key reaches the limit, and a pair whose
bounds sum to the limit is left undivided.  The engine's denominators are products of the scale factors it
divides by, such as lam, lam_t, chi, chi_t and p^2 + q^2, so their factors
stay few and small.  A value with denominator one is always a ``Poly``.

``dot`` is the one sum of products: it adds x * y over its pairs, left to
right after its start term, and skips a pair with a zero factor, which
changes nothing, since zero times anything is ``ZERO``.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import repeat
from math import gcd, isfinite, lcm
from operator import mul, truediv
from typing import Iterable, Union

from .errors import InputError

VARIABLES = ("u", "v", "x", "y")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

Exponents = tuple[int, int, int, int]
Scalar = Union[int, Fraction]

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

# Parser limits: parentheses nest at most this deep, no exponent, whether a
# literal or built by a product, is larger, no sum or product the parser forms
# has more terms, and no product it forms multiplies more term pairs (each
# product bound is checked before the product is formed, so a refused product
# costs nothing).
MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_TERMS = 10_000
MAX_TERM_PAIRS = 1_000_000


class ExprSyntaxError(InputError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class PoleError(InputError, ZeroDivisionError):
    """Raised when a rational function is evaluated at a pole."""


def _fraction(value) -> Fraction:
    """A number read exactly: a Fraction as it is, an int or a finite float
    as the rational it holds.  Anything else, text included, is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) or isinstance(value, float) and isfinite(value):
        return Fraction(value)
    shown = value if isinstance(value, float) else type(value).__name__
    raise InputError(f"not a finite rational: {shown}")


def _sequence(values, what: str):
    """values, when it is an ordered sequence: a str, a set, a mapping or
    an iterator has no order to read it in."""
    if isinstance(values, (str, bytes, bytearray)) or not isinstance(values, Sequence):
        raise InputError(f"{what}: not a sequence")
    return values


def _point(coords) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Four exact coordinates, in the order u, v, x, y."""
    coords = _sequence(coords, "a point needs four coordinates")
    if len(coords) != 4:
        raise InputError("a point needs four coordinates")
    return tuple(map(_fraction, coords))


def _bounded_int(digits: str, limit: int) -> int | None:
    """The decimal digits as an int, or None past limit.  int() reads at most
    one digit more than limit has, after every leading zero of any script."""
    start = next((i for i, ch in enumerate(digits) if int(ch)), len(digits))
    value = int(digits[start:start + len(str(limit)) + 1] or "0")
    return value if value <= limit else None


def _float(value, what: str) -> float:
    """float(value); one too large for a float is an InputError."""
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"{what} overflows a float") from exc


# Packed exponents: the exponent of u, v, x, y sits in the field at shift
# 48, 32, 16, 0 of a term's key, and stays below EXPONENT_LIMIT.
EXPONENT_LIMIT = 1 << 16
_MASK = EXPONENT_LIMIT - 1
_SHIFTS = (48, 32, 16, 0)


class ExponentLimitError(InputError):
    """Raised when an exponent, or a product's or power's bound, reaches EXPONENT_LIMIT."""


def _pack(exps: Exponents) -> int:
    a, b, c, d = exps
    return a << 48 | b << 32 | c << 16 | d


def _unpack(key: int) -> Exponents:
    return (key >> 48, key >> 32 & _MASK, key >> 16 & _MASK, key & _MASK)


def _degree(key: int) -> int:
    return (key >> 48) + (key >> 32 & _MASK) + (key >> 16 & _MASK) + (key & _MASK)


def _term_order(key: int):
    """Sort key: total degree descending, then exponents descending."""
    return (-_degree(key), -key)


class Poly:
    """Polynomial in u, v, x, y: integer numerators over one denominator.

    ``_num`` maps packed exponent keys to nonzero ints, ``_den`` is a
    positive int with gcd(den, all numerators) = 1, and ``_top`` bounds
    every exponent from above.  All operations return new objects;
    instances are treated as immutable.
    """

    __slots__ = ("_num", "_den", "_top", "_terms", "_hash")

    def __init__(self, terms: Mapping[Exponents, Scalar] | None = None):
        clean: dict[int, Fraction] = {}
        top = 0
        if terms is not None and not isinstance(terms, Mapping):
            raise InputError(f"polynomial terms must be a mapping, got {type(terms).__name__}")
        if terms:
            for exps, coeff in terms.items():
                if not (isinstance(exps, tuple) and len(exps) == 4
                        and all(isinstance(e, int) and e >= 0 for e in exps)):
                    raise InputError(f"bad exponent tuple {exps!r}")
                if max(exps) >= EXPONENT_LIMIT:
                    raise ExponentLimitError(
                        f"exponent in {exps!r} reaches the limit {EXPONENT_LIMIT}"
                    )
                c = _fraction(coeff)
                if c:
                    # distinct keys, and _pack is injective below the limit
                    clean[_pack(exps)] = c
                    top = max(top, *exps)
        # the lcm of reduced denominators leaves no factor common to all
        den = lcm(*(c.denominator for c in clean.values()))
        self._num = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._den = den
        self._top = top
        self._terms = None

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        c = _fraction(value)
        return _poly({0: c.numerator} if c else {}, c.denominator, 0)

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name not in VARIABLES:  # a tuple, so an unhashable name is refused too
            raise InputError(f"unknown variable {name!r}")
        return _poly({1 << _SHIFTS[_VAR_INDEX[name]]: 1}, 1, 1)

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """Exponent tuple -> Fraction coefficient; cached, do not mutate."""
        terms = self._terms
        if terms is None:
            den = self._den
            terms = self._terms = {
                _unpack(k): Fraction(n, den) for k, n in self._num.items()
            }
        return terms

    @property
    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(map(_degree, self._num))

    def constant_value(self) -> Fraction | None:
        """The value as a Fraction if constant, else None."""
        if not self._num:
            return Fraction(0)
        if len(self._num) == 1 and 0 in self._num:
            return Fraction(self._num[0], self._den)
        return None

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        # cached in a slot that __init__ and _poly leave unset
        try:
            return self._hash
        except AttributeError:
            # a constant equals its value, so it hashes as that value
            c = self.constant_value()
            h = self._hash = hash((self._den, frozenset(self._num.items())) if c is None else c)
            return h

    def __neg__(self) -> "Poly":
        return _poly({k: -n for k, n in self._num.items()}, self._den, self._top)

    # Poly operands are tested first: isinstance against Fraction, an ABC,
    # is slow when it fails.

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return _combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return _combine(self, other, -1)

    def __rsub__(self, other: Scalar) -> "Poly":
        return _combine(Poly.const(other), self, -1)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(other.numerator, other.denominator)
        top = self._top + other._top
        if top >= EXPONENT_LIMIT:
            raise ExponentLimitError(
                f"product exponent bound {top} reaches the limit {EXPONENT_LIMIT}"
            )
        outer, inner = self._num, other._num
        # after the bound check, so a zero factor is refused where any is
        if not (outer and inner):
            return ZERO
        # a single constant term scales the other factor
        if len(outer) == 1 and 0 in outer:
            return other._scaled(outer[0], self._den)
        if len(inner) == 1 and 0 in inner:
            return self._scaled(inner[0], other._den)
        if len(outer) > len(inner):
            outer, inner = inner, outer
        if len(outer) * len(inner) > _PACK_FLOOR:
            packed = _y_packed(outer, inner)
            if packed is not None:
                return _reduced(_packed_product(*packed), self._den * other._den, top)
        pairs = list(inner.items())
        product: dict[int, int] = {}
        get = product.get
        for a, m in outer.items():
            for b, n in pairs:
                key = a + b
                product[key] = get(key, 0) + m * n
        return _reduced({k: n for k, n in product.items() if n}, self._den * other._den, top)

    __rmul__ = __mul__

    def __truediv__(self, other: "Poly"):
        return _quotient(self, {}, other) if isinstance(other, Poly) else NotImplemented

    def _scaled(self, a: int, b: int) -> "Poly":
        """self * (a/b) for coprime ints a and b > 0."""
        num, den, top = self._num, self._den, self._top
        if not a or not num:
            return ZERO
        g = gcd(a, den)
        if g != 1:
            a //= g
            den //= g
        if b != 1:
            # gcd(a, b) = 1 and gcd(den, content) = 1, so only the content
            # of the numerators can share a factor with b
            h = gcd(b, *num.values())
            if h != 1:
                b //= h
                return _poly({k: n // h * a for k, n in num.items()}, den * b, top)
        return _poly({k: n * a for k, n in num.items()}, den * b, top)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError("exponent must be a nonnegative integer")
        c = self.constant_value()
        if c is not None:
            return Poly.const(c**exponent)
        if self._top * exponent >= EXPONENT_LIMIT:
            raise ExponentLimitError(
                f"power exponent bound {self._top} * {exponent} reaches the "
                f"limit {EXPONENT_LIMIT}"
            )
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def diff(self, var: str) -> "Poly":
        """Partial derivative with respect to one of u, v, x, y."""
        if var not in VARIABLES:
            raise InputError(f"unknown variable {var!r}")
        shift = _SHIFTS[_VAR_INDEX[var]]
        step = 1 << shift
        out: dict[int, int] = {}
        for k, n in self._num.items():
            e = k >> shift & _MASK
            if e:
                out[k - step] = n * e
        return _reduced(out, self._den, self._top)

    def _u_restriction(self, point: Sequence[Scalar]):
        """(u0, g, scale), with self(u, v0, x0, y0) = sum_a g[a] u^a / scale
        in integers g: with p/q one of v0, x0, y0 and d its highest power
        here, (p/q)^k is p^k * q^(d-k) over q^d, and scale = den * prod(q^d).
        """
        pt = _point(point)
        num = self._num
        if not num:
            return pt[0], [], 1
        exps = list(map(_unpack, num))
        top, *tops = map(max, zip(*exps))
        scale = self._den
        tables = []
        for c, d in zip(pt[1:], tops):
            p, q = c.numerator, c.denominator
            tables.append([p**k * q ** (d - k) for k in range(d + 1)])
            scale *= q**d
        t1, t2, t3 = tables
        g = [0] * (top + 1)
        for (a, b, c, d), n in zip(exps, num.values()):
            g[a] += n * t1[b] * t2[c] * t3[d]
        return pt[0], g, scale

    def eval_at(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation at a point (``_point``), in coordinate order:
        Horner in u over the coefficients of ``_u_restriction``."""
        u0, g, scale = self._u_restriction(point)
        (num,), (den,) = _horner(g, (u0.numerator,), (u0.denominator,))
        return Fraction(num, scale * den)

    def along_u(self, base: Sequence[Scalar]) -> "CurvePoly":
        """The exact univariate restriction t -> self(u0 + t, v0, x0, y0).

        With u0 = p/q and g over scale from ``_u_restriction``, it is
        sum_a g[a] q^(top-a) (p + q t)^a over scale * q^top: Horner in
        p + q t, a Taylor shift in integers.
        """
        u0, g, scale = self._u_restriction(base)
        if not g:
            return CurvePoly((), 1)
        p, q = u0.numerator, u0.denominator
        coeffs = [g[-1]]
        qj = 1
        for ga in g[-2::-1]:
            qj *= q
            # coeffs * (p + q t) + g_a q^j
            coeffs = [p * c + q * d for c, d in zip(coeffs + [0], [0] + coeffs)]
            coeffs[0] += ga * qj
        return CurvePoly(coeffs, scale * qj)

    def __str__(self) -> str:
        if not self._num:
            return "0"
        num, den = self._num, self._den
        pieces: list[str] = []
        for key in sorted(num, key=_term_order):
            n = num[key]
            factors = []
            for name, e in zip(VARIABLES, _unpack(key)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            # |n| / den in lowest terms, printed as str(Fraction) would
            g = gcd(n, den)
            mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = "*".join([mag] + factors)
            if not pieces:
                pieces.append(body if n > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Parse arithmetic text such as ``3*u^2*v - x + 2/3``.

        Division is only permitted between integer literals (rational
        coefficients); ``u/v`` is rejected.  Parentheses may nest
        ``MAX_NESTING`` deep, and no sum or product formed on the way may
        exceed ``MAX_TERMS`` terms.  No exponent of the result, whether
        written as a literal or built by products and powers, exceeds
        ``MAX_EXPONENT``.  Anything but a ``str`` is an ``InputError``.
        """
        if not isinstance(text, str):
            raise InputError(f"polynomial text must be a string, got {type(text).__name__}")
        return _Parser(text).run()


def _poly(num: dict[int, int], den: int, top: int) -> Poly:
    """Wrap parts that are already canonical, with top bounding every
    exponent."""
    p = object.__new__(Poly)
    p._num = num
    p._den = den
    p._top = top
    p._terms = None
    return p


def _ratio(t) -> tuple[int, int]:
    """(p, q) in lowest terms with t = p/q and q > 0, t read by ``_fraction``."""
    t = _fraction(t)
    return t.numerator, t.denominator


# Points per ``_horner`` batch in ``CurvePoly.floats``: a batch lists the
# numerator and the power of q of each of its points, so batches keep those
# lists short at any grid length, and a batch of 2048 costs per point what
# a single batch over a grid of 20 001 points does.
_HORNER_BATCH = 2048


def _horner(coeffs, ps, qs) -> tuple[list[int], list[int]]:
    """sum_k coeffs[k] (p/q)^k at each point t = p/q, p and q read in step
    from the sequences ``ps`` and ``qs`` (q > 0), as numerators over
    q^degree, by homogenised Horner, acc = acc*p + c_k*q^j, in integers
    throughout.  One loop runs over the whole batch, so no point costs a
    call.  Returns the numerators and the powers q^degree, as two lists."""
    top = coeffs[-1] if coeffs else 0
    rest = coeffs[-2::-1]
    nums, qjs = [], []
    for p, q in zip(ps, qs):
        acc, qj = top, 1
        for c in rest:
            qj *= q
            acc = acc * p + c * qj
        nums.append(acc)
        qjs.append(qj)
    return nums, qjs


class CurvePoly:
    """Univariate polynomial in t: integer numerators over one denominator.

    ``coeffs[k]`` is the numerator of t^k and ``den`` a positive int with
    gcd(den, all numerators) = 1; the top coefficient is nonzero, so zero
    has no coefficients.  ``Poly.along_u`` builds these.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs: Iterable[int], den: int):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        g = gcd(den, *coeffs)
        self.coeffs = tuple(c // g for c in coeffs)
        self.den = den // g

    def ratio_at(self, p: int, q: int) -> tuple[int, int]:
        """The value at t = p/q, q > 0, as (numerator, denominator)."""
        (num,), (qj,) = _horner(self.coeffs, (p,), (q,))
        return num, self.den * qj

    def digit_bound(self, p_bits: int, q_bits: int) -> int:
        """``_digits`` of ``ratio_at(p, q)`` over |p| < 2^p_bits, 0 < q < 2^q_bits."""
        return _digits(self.coeffs, self.den, [(max(len(self.coeffs) - 1, 0), p_bits, q_bits)])

    def value_at(self, t: Scalar | float) -> Fraction:
        """The exact value at t; a float t counts as the rational it holds."""
        return Fraction(*self.ratio_at(*_ratio(t)))

    def floats(self, ps, qs) -> tuple[float, ...]:
        """The value at each t = p/q, p and q read in step from the
        sequences ``ps`` and ``qs``, rounded once: int true division rounds
        correctly, so each equals float(value_at(p/q)) bit for bit.  The
        points go to ``_horner`` in batches of ``_HORNER_BATCH``."""
        if len(self.coeffs) <= 1:
            num, den = self.ratio_at(0, 1)
            return (num / den,) * len(ps)
        coeffs, den = self.coeffs, self.den
        out: list[float] = []
        for i in range(0, len(ps), _HORNER_BATCH):
            j = i + _HORNER_BATCH
            nums, qjs = _horner(coeffs, ps[i:j], qs[i:j])
            out += map(truediv, nums, map(mul, repeat(den), qjs))
        return tuple(out)


def _reduced(num: dict[int, int], den: int, top: int) -> Poly:
    """Canonical Poly from nonzero numerators over den > 0."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: n // g for k, n in num.items()}
            den //= g
    return _poly(num, den, top)


def _combine(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign * q, with sign 1 or -1."""
    if not q._num:
        return p
    if not p._num:
        return q if sign > 0 else -q
    den = p._den
    if den == q._den:
        out = dict(p._num)
        scale = sign
    else:
        den = lcm(den, q._den)
        lift = den // p._den
        out = {k: n * lift for k, n in p._num.items()}
        scale = sign * (den // q._den)
    get = out.get
    for k, n in q._num.items():
        total = get(k, 0) + n * scale
        if total:
            out[k] = total
        else:
            del out[k]
    return _reduced(out, den, max(p._top, q._top))


# A product of more than _PACK_FLOOR term pairs packs y (``_y_packed``)
# when 2 * (g_p * g_q + |p| + |q|) < |p| * |q|, with g the number of
# (u, v, x) groups of a factor: its group pairs, with a pass over each
# factor's terms to pack them, come to under half its term pairs.  On
# random sparse factors the per-pair loop is faster below the floor and
# where the rule refuses.  A factor whose y exponents span _Y_SPAN times its
# largest group's y terms or more would pack mostly empty slots, and is
# refused too.
_PACK_FLOOR = 256
_Y_SPAN = 2


def _y_groups(num: dict[int, int], low: int) -> dict[int, list[tuple[int, int]]]:
    """num's terms by the (u, v, x) part of their keys, each group a list
    of (y - low, numerator)."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for k, n in num.items():
        group = groups.get(k >> 16)
        if group is None:
            groups[k >> 16] = [((k & _MASK) - low, n)]
        else:
            group.append(((k & _MASK) - low, n))
    return groups


def _y_packed(p: dict[int, int], q: dict[int, int]):
    """The arguments of ``_packed_product`` for p * q: each factor's
    groups as (u, v, x) key and y-polynomial, shifted down to its lowest y
    exponent, evaluated at 2^width; the slot width; and the range of the
    product's y exponents.  None where the loop is faster (see _PACK_FLOOR)."""
    g_p = len({k >> 16 for k in p})
    g_q = len({k >> 16 for k in q})
    if 2 * (g_p * g_q + len(p) + len(q)) >= len(p) * len(q):
        return None
    low_p, low_q = min(map(_MASK.__and__, p)), min(map(_MASK.__and__, q))
    top_p, top_q = max(map(_MASK.__and__, p)), max(map(_MASK.__and__, q))
    by_p, by_q = _y_groups(p, low_p), _y_groups(q, low_q)
    ny_p = max(map(len, by_p.values()))
    ny_q = max(map(len, by_q.values()))
    if top_p - low_p >= _Y_SPAN * ny_p or top_q - low_q >= _Y_SPAN * ny_q:
        return None
    # No slot carries.  The coefficient of one output term sums a * b over
    # the term pairs whose keys add to its key.  A group of p meets at most
    # one group of q there, so at most min(g_p, g_q) group pairs take part,
    # and in each a y term of p meets at most one of q, so at most
    # min(ny_p, ny_q) term pairs.  With the bit lengths below, each
    # coefficient is then under 2^(width - 2) in magnitude, inside the
    # signed range [-2^(width - 1), 2^(width - 1)) of one slot.  A group
    # packs as sum n * 2^(width * y) over its shifted y, so the sum of the
    # group products that land on one (u, v, x) key is exactly
    # sum c_y * 2^(width * y) over that key's output coefficients c_y, and
    # its signed base-2^width digits are the c_y.
    width = (
        max(map(abs, p.values())).bit_length()
        + max(map(abs, q.values())).bit_length()
        + (min(ny_p, ny_q) * min(g_p, g_q)).bit_length()
        + 2
    )

    def packed(groups):
        return [(k, sum(n << width * y for y, n in group)) for k, group in groups.items()]

    return packed(by_p), packed(by_q), width, range(low_p + low_q, top_p + top_q + 1)


def _packed_product(p, q, width: int, ys: range) -> dict[int, int]:
    """The nonzero product numerators from ``_y_packed``'s groups: group
    keys add as term keys do, and each sum of group products is read back
    by signed digits of width bits, one for each y exponent in ys."""
    sums: dict[int, int] = {}
    get = sums.get
    for a, m in p:
        for b, n in q:
            key = a + b
            sums[key] = get(key, 0) + m * n
    mask, half, full = (1 << width) - 1, 1 << width - 1, 1 << width
    product: dict[int, int] = {}
    for key, n in sums.items():
        key <<= 16
        for y in ys:
            digit = n & mask
            n >>= width
            if digit >= half:
                # a negative digit: the slots above lent it one
                digit -= full
                n += 1
            if digit:
                product[key | y] = digit
    return product


def _top_exponents(p: Poly) -> tuple[int, ...]:
    """The largest exponent of each variable over the terms of p; empty
    for the zero polynomial, which bounds no product."""
    return tuple(map(max, zip(*map(_unpack, p._num))))


def _digits(nums, den: int, powers) -> int:
    """An upper bound on the decimal digits of the numerator and of the
    denominator of a sum of len(nums) terms n * prod (p_i/q_i)^e_i over den,
    with each e_i <= top_i, |p_i| < 2^p_bits_i and 0 < q_i < 2^q_bits_i,
    from bit lengths alone, so that a value too large to form is known
    before it is formed; ``powers`` holds the (top_i, p_bits_i, q_bits_i)."""
    num_bits = max(map(int.bit_length, nums), default=0) + len(nums).bit_length()
    den_bits = den.bit_length()
    for top, p_bits, q_bits in powers:
        num_bits += top * max(p_bits, q_bits)
        den_bits += top * q_bits
    # log10(2) < 0.30103
    return max(num_bits, den_bits) * 30103 // 100000 + 1


def _digit_bound(value: Poly, point: Sequence[Scalar]) -> int:
    """``_digits`` of value.eval_at(point)."""
    pt = _point(point)
    return _digits(value._num.values(), value._den, [
        (top, c.numerator.bit_length(), c.denominator.bit_length())
        for c, top in zip(pt, _top_exponents(value))
    ])


def _refused_digits(bound: int) -> int:
    """The digit limit when a bound on the digits of a value passes four
    times it, else 0.  The limit is the interpreter's, for converting an
    int to text, or its default when that is off (0); the factor four
    leaves room for a bound that overestimates."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    return limit if bound > 4 * limit else 0


class _Parser:
    """Recursive descent over +, -, *, ^, parentheses and rational literals."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def run(self) -> Poly:
        value = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            raise ExprSyntaxError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return value

    def skip_ws(self) -> None:
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Poly:
        value = self.term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = self.bounded(value + self.term())
            elif ch == "-":
                self.pos += 1
                value = self.bounded(value - self.term())
            else:
                return value

    def term(self) -> Poly:
        value = self.factor()
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                value = self.product(value, self.factor())
            elif self.peek() == "/":
                raise ExprSyntaxError(
                    "division is only allowed between integer literals", self.pos
                )
            else:
                return value

    def factor(self) -> Poly:
        self.skip_ws()
        sign = 1
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
            self.skip_ws()
        base = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            exp_pos = self.pos
            digits = self.read_digits()
            if digits is None:
                raise ExprSyntaxError("exponent must be a nonnegative integer", exp_pos)
            e = _bounded_int(digits, MAX_EXPONENT)
            if e is None:
                raise ExprSyntaxError(f"exponent exceeds {MAX_EXPONENT}", exp_pos)
            base = self.power(base, e)
        return base if sign > 0 else -base

    def power(self, base: Poly, e: int) -> Poly:
        """base^e; a one-term base at once."""
        if len(base._num) == 1:
            (key, n), = base._num.items()
            exps = _unpack(key)
            # the loop's step k refuses where k * x first passes the limit
            k = min([MAX_EXPONENT // x + 1 for x in exps if x], default=e + 1)
            if k <= e:
                self.refuse_past([k * x for x in exps])
            return _poly({key * e: n**e}, base._den**e, max(exps) * e)
        power = ONE
        for _ in range(e):
            power = self.product(power, base)
        return power

    def product(self, p: Poly, q: Poly) -> Poly:
        """p * q, bounded by its largest exponent: the largest exponent of
        a variable in a product is the sum of the factors' largest."""
        if len(p._num) == 1 == len(q._num):
            (a, m), = p._num.items()
            (b, n), = q._num.items()
            exps = _unpack(a + b)
            self.refuse_past(exps)
            return _reduced({a + b: m * n}, p._den * q._den, max(exps))
        exps = [i + j for i, j in zip(_top_exponents(p), _top_exponents(q))]
        self.refuse_past(exps)
        pairs = len(p._num) * len(q._num)
        if pairs > MAX_TERM_PAIRS:
            raise ExprSyntaxError(
                f"product of {len(p._num)} and {len(q._num)} terms exceeds "
                f"{MAX_TERM_PAIRS} term pairs", self.pos
            )
        value = p * q
        return self.bounded(_poly(value._num, value._den, max(exps, default=0)))

    def refuse_past(self, exps) -> None:
        """Refuse the first variable whose exponent passes MAX_EXPONENT."""
        for name, e in zip(VARIABLES, exps):
            if e > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent of {name} exceeds {MAX_EXPONENT}", self.pos)

    def bounded(self, value: Poly) -> Poly:
        if len(value._num) > MAX_TERMS:
            raise ExprSyntaxError(f"expression expands past {MAX_TERMS} terms", self.pos)
        return value

    def atom(self) -> Poly:
        self.skip_ws()
        start = self.pos
        ch = self.peek()
        if ch == "(":
            if self.depth >= MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", self.pos
                )
            self.depth += 1
            self.pos += 1
            inner = self.expr()
            self.skip_ws()
            if self.peek() != ")":
                raise ExprSyntaxError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return inner
        if ch.isdecimal():
            numerator = self.literal()
            self.skip_ws()
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                den_pos = self.pos
                if not self.peek().isdecimal():
                    raise ExprSyntaxError(
                        "expected integer denominator after '/'", den_pos
                    )
                denominator = self.literal()
                if denominator == 0:
                    raise ExprSyntaxError("denominator is zero", den_pos)
                return Poly.const(Fraction(numerator, denominator))
            return Poly.const(numerator)
        if ch.isalpha() or ch == "_":
            name = self.read_name()
            if name not in _VAR_INDEX:
                raise ExprSyntaxError(f"unknown identifier {name!r}", start)
            return Poly.variable(name)
        if ch == "":
            raise ExprSyntaxError("unexpected end of input", self.pos)
        raise ExprSyntaxError(f"unexpected character {ch!r}", self.pos)

    def read_digits(self) -> str | None:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        return self.text[start:self.pos] if self.pos > start else None

    def literal(self) -> int:
        """The integer literal here; one past the interpreter's digit limit
        for int() is refused at its first digit."""
        start = self.pos
        try:
            return int(self.read_digits())
        except ValueError:
            raise ExprSyntaxError("integer literal has too many digits", start) from None

    def read_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]


ZERO = Poly.zero()
ONE = Poly.const(1)


def _as_poly(value):
    """A Poly or RationalFunction as is; an int, a Fraction or a float as a
    constant Poly, read by ``_fraction``; anything else is an InputError.
    The one coercion, for entry points that take bare scalars."""
    if isinstance(value, (Poly, RationalFunction)):
        return value
    if isinstance(value, (int, Fraction, float)):
        return Poly.const(value)
    raise InputError(f"expected a polynomial or a rational number, got {type(value).__name__}")


def dot(pairs, start=ZERO):
    """start + sum of x * y over the pairs (x, y) whose factors are both
    nonzero, added left to right."""
    total = start
    for x, y in pairs:
        if not (x.is_zero or y.is_zero):
            total = total + x * y
    return total


# Packed keys whose difference borrowed from the v, x or y field: the lowest
# bit of each field above it.
_BORROWS = 1 << 16 | 1 << 32 | 1 << 48
# A one in every field: n * _FIELD_ONES packs the exponent n in all four.
_FIELD_ONES = 1 | 1 << 16 | 1 << 32 | 1 << 48


def _exact_quotient(p: Poly, f: Poly) -> Poly | None:
    """p / f when the nonconstant f divides p exactly, else None.

    Sparse division in integers by the primitive part of f, in lex order on
    the packed keys, so each leading term is ``max`` of the remainder's
    keys.  If f divides p, the quotient has integer coefficients (Gauss's
    lemma) and no exponent above p's in any variable, so the first leading
    term that f's does not divide, as a monomial, by its coefficient or
    within that bound, proves that f does not divide p.  Under the bound
    every remainder exponent stays below p._top + f._top; a pair whose sum
    reaches EXPONENT_LIMIT is not tried (None), so no field can carry.
    """
    num = p._num
    if not num:
        return ZERO
    if p._top + f._top >= EXPONENT_LIMIT:
        return None
    ceiling = p._top * _FIELD_ONES
    div = f._num
    content = gcd(*div.values())
    lead = max(div)
    lead_coeff = div[lead] // content
    others = [(k - lead, n // content) for k, n in div.items() if k != lead]
    rem = dict(num)
    get = rem.get
    quot: dict[int, int] = {}
    while rem:
        key = max(rem)
        shift = key - lead
        # a field of key below the same field of lead borrows, and so does
        # a field of the ceiling below the same field of shift
        if shift < 0 or (key ^ lead ^ shift) & _BORROWS:
            return None
        room = ceiling - shift
        if room < 0 or (ceiling ^ shift ^ room) & _BORROWS:
            return None
        c, r = divmod(rem.pop(key), lead_coeff)
        if r:
            return None
        quot[shift] = c
        for k, n in others:
            k += key
            total = get(k, 0) - c * n
            if total:
                rem[k] = total
            else:
                del rem[k]
    # p / f = (num / p._den) / (div / f._den) and div = content * primitive
    scale = f._den
    return _reduced({k: n * scale for k, n in quot.items()}, content * p._den, p._top)


def _cancelled(num: Poly, factors: dict):
    """num / prod(f^m for f, m in factors), with each factor divided out of
    num as often as it goes: a Poly when no factor is left."""
    if not num._num:
        return ZERO
    left = {}
    for f, m in factors.items():
        while m:
            q = _exact_quotient(num, f)
            if q is None:
                break
            num, m = q, m - 1
        if m:
            left[f] = m
    return _rf(num, left)


def _rf(num: Poly, factors: dict):
    """Wrap parts that are already reduced: a Poly when no factor is left."""
    if not factors:
        return num
    rf = object.__new__(RationalFunction)
    rf.num, rf.factors, rf._den = num, factors, None
    return rf


def _quotient(num: Poly, factors: dict, divisor: Poly):
    """num / (prod(f^m) * divisor): a Poly when no factor is left, else a
    RationalFunction.  Each known factor is first divided out of divisor as
    often as it goes; what is left, if not constant, becomes one more
    factor."""
    if not divisor._num:
        raise ZeroDivisionError("zero denominator in rational function")
    factors = dict(factors)
    for f in factors:
        while True:
            q = _exact_quotient(divisor, f)
            if q is None:
                break
            divisor = q
            factors[f] += 1
    lead = divisor.constant_value()
    if lead is None:
        terms = divisor._num
        lead = Fraction(terms[min(terms, key=_term_order)], divisor._den)
        factors[divisor * (1 / lead)] = 1
    return _cancelled(num * (1 / lead), factors)


def _lifted(num: Poly, part: dict, common: dict) -> Poly:
    """num * prod(f^(m - part[f]) for f, m in common): a numerator over
    ``part`` brought over the multiple ``common``."""
    for f, m in common.items():
        for _ in range(m - part.get(f, 0)):
            num = num * f
    return num


def _product(factors: dict) -> Poly:
    den = ONE
    for f, m in factors.items():
        den = den * f**m
    return den


def _parts(value) -> tuple[Poly, dict] | None:
    """(numerator, factor map) of a RationalFunction, Poly or scalar."""
    if isinstance(value, RationalFunction):
        return value.num, value.factors
    if isinstance(value, Poly):
        return value, {}
    if isinstance(value, (int, Fraction)):
        return Poly.const(value), {}
    return None


def _on_parts(method):
    """A binary RationalFunction operator on the other operand's parts."""

    def operator(self, other):
        parts = _parts(other)
        return NotImplemented if parts is None else method(self, *parts)

    return operator


def _sum(n1: Poly, f1: dict, n2: Poly, f2: dict):
    """n1 / prod(f1) + n2 / prod(f2), over each factor at its larger
    multiplicity.  A zero part returns the other, which is already reduced."""
    if not n1._num:
        return _rf(n2, f2)
    if not n2._num:
        return _rf(n1, f1)
    common = dict(f1)
    for f, m in f2.items():
        if m > common.get(f, 0):
            common[f] = m
    return _cancelled(_lifted(n1, f1, common) + _lifted(n2, f2, common), common)


def _merged(f1: dict, f2: dict) -> dict:
    """The factor map of a product: multiplicities add."""
    out = dict(f1)
    for f, m in f2.items():
        out[f] = out.get(f, 0) + m
    return out


class RationalFunction:
    """Quotient of a polynomial by a product of factors.

    ``num`` is a ``Poly`` and ``factors`` maps each nonconstant factor of
    the denominator, scaled so its first coefficient in the canonical term
    order is one, to its multiplicity (read-only by convention).  Every
    operation divides the numerator by each factor as often as it goes, so
    over factors that are irreducible and pairwise distinct the form is
    reduced, and one value has one representative.  ``den`` is the product
    of the factors, whose first coefficient is then also one.

    Only the constructor wraps a polynomial over one (an empty map);
    arithmetic returns it as a ``Poly``.  A factor made from a divisor
    that no known factor divides need not be irreducible, so two
    representatives of one value can still differ: equality compares the
    parts when the factor maps agree and cross-multiplies otherwise, and
    ``__hash__`` stays refused.
    """

    __slots__ = ("num", "factors", "_den")

    def __init__(self, num, den=ONE):
        self.num, self.factors = _parts(_as_poly(num) / _as_poly(den))
        self._den = None

    @property
    def den(self) -> Poly:
        """The product of the factors; cached."""
        den = self._den
        if den is None:
            den = self._den = _product(self.factors)
        return den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @_on_parts
    def __eq__(self, num: Poly, factors: dict) -> bool:
        if self.factors == factors:
            return self.num == num
        return self.num * _product(factors) == num * self.den

    def __hash__(self) -> int:
        # Representatives over a reducible factor can differ, so hashing by
        # parts would break the hash/eq contract; polynomials hash fine.
        raise TypeError("RationalFunction is unhashable")

    def __neg__(self):
        return _rf(-self.num, self.factors)

    @_on_parts
    def __add__(self, num: Poly, factors: dict):
        return _sum(self.num, self.factors, num, factors)

    __radd__ = __add__

    @_on_parts
    def __sub__(self, num: Poly, factors: dict):
        return _sum(self.num, self.factors, -num, factors)

    @_on_parts
    def __rsub__(self, num: Poly, factors: dict):
        return _sum(num, factors, -self.num, self.factors)

    @_on_parts
    def __mul__(self, num: Poly, factors: dict):
        return _cancelled(self.num * num, _merged(self.factors, factors))

    __rmul__ = __mul__

    @_on_parts
    def __truediv__(self, num: Poly, factors: dict):
        if num.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return _quotient(_lifted(self.num, {}, factors), self.factors, num)

    @_on_parts
    def __rtruediv__(self, num: Poly, factors: dict):
        return _quotient(_lifted(num, {}, self.factors), factors, self.num)

    def __pow__(self, exponent: int):
        return _cancelled(self.num**exponent, {f: m * exponent for f, m in self.factors.items()})

    def diff(self, var: str):
        """By the radical rule over the factors that depend on var:
        d(n / prod f_i^m_i) = (n' prod f_i - n sum m_i f_i' prod_{j != i} f_j)
        / prod f_i^(m_i + 1)."""
        num = self.num
        moving = [
            (f, m, df) for f, m in self.factors.items() if not (df := f.diff(var)).is_zero
        ]
        top = num.diff(var)
        for f, _, _ in moving:
            top = top * f
        for i, (_, m, df) in enumerate(moving):
            term = num * df * m
            for j, (f, _, _) in enumerate(moving):
                if j != i:
                    term = term * f
            top = top - term
        factors = dict(self.factors)
        for f, m, _ in moving:
            factors[f] = m + 1
        return _cancelled(top, factors)

    def eval_at(self, point: Sequence[Scalar]) -> Fraction:
        pt = _point(point)
        bottom = Fraction(1)
        for f, m in self.factors.items():
            bottom *= f.eval_at(pt) ** m
        if bottom == 0:
            raise PoleError(f"denominator vanishes at {pt}")
        return self.num.eval_at(pt) / bottom

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


# A computed value: a Poly, or a RationalFunction where a denominator survives.
Value = Union[Poly, RationalFunction]


def parse_poly(text: str) -> Poly:
    return Poly.parse(text)
