"""Shared helpers for the test suite: reproducible random data generators."""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from walkerspin import poly
from walkerspin.curvature import commutator_vector_fields
from walkerspin.errors import InputError, InternalInconsistencyError
from walkerspin.poly import (
    _VAR_INDEX,
    HALF,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_PAIRS,
    MAX_TERMS,
    ONE,
    VARIABLES,
    ExprSyntaxError,
    Poly,
    RationalFunction,
    _poly,
    _reduced,
    _top_exponents,
    dot,
)
from walkerspin.walker import COORDS


def random_poly(
    rng: random.Random,
    max_degree: int = 4,
    max_terms: int = 5,
    with_fractions: bool = True,
) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0, 0, 0, 0]
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(4)] += 1
        num = rng.choice([-3, -2, -1, 1, 2, 3, 4])
        den = rng.choice([1, 1, 2, 3]) if with_fractions else 1
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(num, den)
    return Poly(terms)


def reference_product(p: Poly, q: Poly) -> Poly:
    """p * q by the per-pair loop alone, the route ``Poly.__mul__`` takes
    for small and sparse products: the reference for the packed kernel."""
    top = p._top + q._top
    outer, inner = p._num, q._num
    if len(outer) > len(inner):
        outer, inner = inner, outer
    pairs = list(inner.items())
    product: dict[int, int] = {}
    get = product.get
    for a, m in outer.items():
        for b, n in pairs:
            key = a + b
            product[key] = get(key, 0) + m * n
    return _reduced({k: n for k, n in product.items() if n}, p._den * q._den, top)


class ReferenceParser:
    """Recursive descent over +, -, *, ^, parentheses and rational literals,
    forming every power and product by ``Poly.__mul__``, each bounded by its
    exact largest exponent: the reference for the parser's one-term paths.
    Digits are decimal digits (``str.isdecimal``), as ``int()`` reads them;
    an exponent is read without its leading zero digits, of any script, and
    a literal ``int()`` refuses for its length is refused at its first digit."""

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
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

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
            # each digit in ASCII, then the digit count: int() refuses
            # literals over 4300 digits
            digits = "".join(str(int(ch)) for ch in digits).lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent exceeds {MAX_EXPONENT}", exp_pos)
            power = ONE
            for _ in range(int(digits)):
                power = self.product(power, base)
            base = power
        return base if sign > 0 else -base

    def product(self, p: Poly, q: Poly) -> Poly:
        exps = [i + j for i, j in zip(_top_exponents(p), _top_exponents(q))]
        for name, e in zip(VARIABLES, exps):
            if e > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent of {name} exceeds {MAX_EXPONENT}", self.pos
                )
        pairs = len(p._num) * len(q._num)
        if pairs > MAX_TERM_PAIRS:
            raise ExprSyntaxError(
                f"product of {len(p._num)} and {len(q._num)} terms exceeds "
                f"{MAX_TERM_PAIRS} term pairs", self.pos
            )
        value = p * q
        return self.bounded(_poly(value._num, value._den, max(exps, default=0)))

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
            numerator = self.integer(self.read_digits(), start)
            self.skip_ws()
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                den_pos = self.pos
                digits = self.read_digits()
                if digits is None:
                    raise ExprSyntaxError(
                        "expected integer denominator after '/'", den_pos
                    )
                denominator = self.integer(digits, den_pos)
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

    @staticmethod
    def integer(digits: str, start: int) -> int:
        try:
            return int(digits)
        except ValueError:
            raise ExprSyntaxError("integer literal has too many digits", start) from None

    def read_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]


def reference_parse(text: str) -> Poly:
    """``Poly.parse`` by ``ReferenceParser``."""
    return ReferenceParser(text).run()


def count_packed(monkeypatch) -> list[int]:
    """A one-entry counter of calls into the packed product kernel."""
    calls = [0]
    kernel = poly._packed_product

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(poly, "_packed_product", counted)
    return calls


def value_parts(value) -> tuple[Poly, Poly]:
    """(numerator, denominator) of a Poly or RationalFunction."""
    if isinstance(value, RationalFunction):
        return value.num, value.den
    return value, ONE


def assert_names_a_witness(message: str, label: str, diff) -> None:
    """``message`` is a route disagreement about ``label``: it counts the
    numerator terms of ``diff`` and names a point where ``diff`` is nonzero."""
    match = re.fullmatch(
        r"redundant routes for (.+) disagree: the difference has (\d+) numerator "
        r"terms and is nonzero at \(u, v, x, y\) = \(([-\d, ]+)\)",
        message,
    )
    assert match, message
    assert match.group(1) == label
    assert int(match.group(2)) == len(value_parts(diff)[0].terms)
    point = tuple(int(c) for c in match.group(3).split(","))
    assert diff.eval_at(point) != 0


def frame_values(coeffs, t) -> list:
    """The 32 coefficients in COEFF_NAMES order, then the four legs."""
    from walkerspin.spincoeff import COEFF_NAMES

    return [coeffs.get(name) for name in COEFF_NAMES] + [*t.l, *t.n, *t.m, *t.mt]


def scaled_frame(w, f: Poly, f_t: Poly):
    """(coefficients, tetrad) of the Walker tetrad of w rescaled by
    scale_normalization(f, f_t), recomputed from the tetrad."""
    from walkerspin.spincoeff import spin_coefficients_from_tetrad
    from walkerspin.walker import assemble_metric, scale_normalization, walker_tetrad

    mt = assemble_metric(w)
    t = scale_normalization(walker_tetrad(w), f, f_t)
    return spin_coefficients_from_tetrad(t, mt), t


def covariant_derivative_vector(ch, V):
    """nabla[b][a] = (d_b V^a) + Gamma^a_{bc} V^c, returned as a 4x4 grid."""
    return tuple(
        tuple(dot(zip(ch.gamma[a][b], V), V[a].diff(COORDS[b])) for a in range(4))
        for b in range(4)
    )


def directional_vector_derivative(nabla, W):
    """Contract a covariant derivative grid with a direction vector W^b."""
    return tuple(dot((W[b], nabla[b][a]) for b in range(4)) for a in range(4))


def christoffel_route_coefficients(t, mt):
    """Reference route for ``spin_coefficients_from_tetrad``: the 32
    coefficients from the inner products g(e_z, nabla_{e_x} e_y), each
    derivative taken from a covariant-derivative grid of Christoffel
    symbols and each inner product a bilinear form of the metric."""
    from walkerspin.spincoeff import _ROWS, _SAME, _SWAP, SpinCoefficientSet, tilde_relabel
    from walkerspin.walker import DirectionalOps, bilinear, christoffel, validate_tetrad

    validate_tetrad(mt, t)
    ch = christoffel(mt)
    ops = DirectionalOps(t)
    X = (ONE / t.chi) * (ONE / t.chi_t)
    legs = {"l": t.l, "n": t.n, "m": t.m, "mt": t.mt}
    nabla = {name: covariant_derivative_vector(ch, vec) for name, vec in legs.items()}
    deriv = {
        (op, name): directional_vector_derivative(nabla[name], ops.dirs[op])
        for op in DirectionalOps.NAMES
        for name in nabla
    }
    dchi = {op: ops.apply(op, t.chi) for op in DirectionalOps.NAMES}
    dchi_t = {op: ops.apply(op, t.chi_t) for op in DirectionalOps.NAMES}

    def table(rn, chi_t, dchi):
        def ip(vec, op, name):
            return bilinear(mt.g, legs[rn[vec]], deriv[(rn[op], rn[name])])

        values = {}
        for op, diag1, offdiag1, offdiag2, diag2, sgn in _ROWS:
            dnorm = chi_t * dchi[rn[op]]
            values[diag1] = HALF * X * (ip("n", op, "l") + ip("m", op, "mt") + dnorm)
            values[offdiag1] = -(X * ip("m", op, "l"))
            values[offdiag2] = sgn * X * ip("mt", op, "n")
            values[diag2] = sgn * (HALF * X * (ip("l", op, "n") + ip("mt", op, "m") + dnorm))
        return values

    tilde = tilde_relabel(SpinCoefficientSet(**table(_SWAP, t.chi, dchi_t)))
    return tilde._replace(**table(_SAME, t.chi_t, dchi))


@dataclass(frozen=True)
class RiemannData:
    """Fully lowered curvature tensor with its traces."""

    lowered: tuple   # R_abcd
    ricci: tuple     # R_bd
    scalar: Poly


def riemann(mt, ch) -> RiemannData:
    """The full curvature tensor from the connection, every Gamma.Gamma
    product formed; its trace is checked against ``ricci_tensor``."""
    from walkerspin.curvature import ricci_tensor, scalar_curvature

    g = ch.gamma
    up = [[[[Poly.zero() for _ in range(4)] for _ in range(4)] for _ in range(4)]
          for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(c + 1, 4):
                    entry = g[a][d][b].diff(COORDS[c]) - g[a][c][b].diff(COORDS[d])
                    for e in range(4):
                        entry = entry + g[a][c][e] * g[e][d][b] - g[a][d][e] * g[e][c][b]
                    up[a][b][c][d] = entry
                    up[a][b][d][c] = -entry
    lowered = tuple(
        tuple(
            tuple(
                tuple(dot((mt.g[a][e], up[e][b][c][d]) for e in range(4)) for d in range(4))
                for c in range(4)
            )
            for b in range(4)
        )
        for a in range(4)
    )
    direct = ricci_tensor(ch)
    for b in range(4):
        for d in range(4):
            traced = sum((up[a][b][a][d] for a in range(4)), Poly.zero())
            assert traced == direct[b][d], f"Ricci entry ({b}, {d}) by trace and by contraction"
    return RiemannData(lowered=lowered, ricci=direct, scalar=scalar_curvature(mt, direct))


def random_metric_functions(rng: random.Random, max_degree: int = 4):
    """A triple (a, b, c) of random polynomial metric functions."""
    return (
        random_poly(rng, max_degree=max_degree),
        random_poly(rng, max_degree=max_degree),
        random_poly(rng, max_degree=max_degree),
    )


def corpus_metrics():
    """The acceptance corpus: 25 seeded random metrics of degree at most 4."""
    from walkerspin.walker import WalkerMetric

    rng = random.Random(20260823)
    return [WalkerMetric(*random_metric_functions(rng, 4)) for _ in range(25)]


def bianchi_residual_by_connection(mt, ch, ricci, scalar):
    """Reference route for ``bianchi_contracted_residual``: the components
    of div(Ricci) - grad(scalar)/2 from the full grid of covariant
    derivatives of Ricci, built from Christoffel symbols."""
    g = ch.gamma
    nabla = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                entry = ricci[b][c].diff(COORDS[a])
                for d in range(4):
                    entry = entry - g[d][a][b] * ricci[d][c] - g[d][a][c] * ricci[b][d]
                nabla[a][b][c] = entry
    return tuple(
        dot((mt.ginv[a][e], nabla[e][a][b]) for a in range(4) for e in range(4))
        - scalar.diff(COORDS[b]) * HALF
        for b in range(4)
    )


def ricci_by_sixteen_entries(ch):
    """Reference route for ``ricci_tensor``: every one of the 16 entries
    from the textbook contraction, 32 connection products each,

        R_bd = sum_a (d_a G^a_db - d_d G^a_ab
                      + sum_e (G^a_ae G^e_db - G^a_de G^e_ab))."""
    g = ch.gamma
    out = []
    for b in range(4):
        row = []
        for d in range(4):
            entry = Poly.zero()
            for a in range(4):
                entry = entry + g[a][d][b].diff(COORDS[a]) - g[a][a][b].diff(COORDS[d])
                for e in range(4):
                    entry = entry + g[a][a][e] * g[e][d][b] - g[a][d][e] * g[e][a][b]
            row.append(entry)
        out.append(tuple(row))
    return tuple(out)


def random_symmetric_tensor(rng: random.Random, max_degree: int = 3):
    """A random symmetric 4x4 tensor of polynomials, some entries zero."""
    rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            entry = random_poly(rng, max_degree) if rng.random() < 0.8 else Poly.zero()
            rows[i][j] = rows[j][i] = entry
    return tuple(tuple(row) for row in rows)


def monomials_to_degree(limit: int):
    """Every monic monomial in u, v, x, y of total degree at most limit."""
    out = []
    for total in range(limit + 1):
        for eu in range(total + 1):
            for ev in range(total - eu + 1):
                for ex in range(total - eu - ev + 1):
                    out.append(Poly({(eu, ev, ex, total - eu - ev - ex): Fraction(1)}))
    return out


def reference_commutator_suite(frame):
    """Suite 3.1 of ``verify`` monomial by monomial: for each monomial f of
    degree at most 3 and each commutator residual field V, the sum
    sum_i V^i * df/dx^i over all four components, keyed "pair @ f"."""
    fields = commutator_vector_fields(frame)
    out = {}
    for mono in monomials_to_degree(3):
        grad = [mono.diff(name) for name in COORDS]
        for key, comps in fields.items():
            out[f"{key} @ {mono}"] = dot(zip(comps, grad))
    return out


def random_point(rng: random.Random):
    return tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(4))


def _random_xy_poly(rng: random.Random, max_degree: int) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.choice([2, 3])] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(
            rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2])
        )
    return Poly(terms)


def random_potential(rng: random.Random, max_degree: int = 5):
    """A random valid potential-chain tuple (theta, f, g, F, G, h).

    The chain is built upward from h so the derivative relations hold
    by construction.
    """
    from walkerspin.heavenly import HeavenlyPotential

    u = Poly.parse("u")
    v = Poly.parse("v")
    h = _random_xy_poly(rng, max_degree=max(0, max_degree - 2))
    f0 = _random_xy_poly(rng, max_degree - 1)
    g0 = _random_xy_poly(rng, max_degree - 1)
    f = u * h + f0
    g = v * h + g0
    F = Fraction(1, 2) * (u * u * h) + u * f0 + _random_xy_poly(rng, max_degree)
    G = Fraction(1, 2) * (v * v * h) + v * g0 + _random_xy_poly(rng, max_degree)
    return HeavenlyPotential(
        theta=random_poly(rng, max_degree=max_degree), f=f, g=g, F=F, G=G, h=h
    )


def float_rows(entries, samples):
    """Reference for ``congruence._row_function``, with ``row_sums``: each
    row of an entry table as (column, signed samples) pairs."""
    return [
        [(k, samples[key] if sign > 0 else tuple(-x for x in samples[key]))
         for k, sign, key in row]
        for row in entries
    ]


def row_sums(rows, j, z) -> list[float]:
    """The matrix of ``float_rows`` at grid index j times z, each sum
    starting from 0.0 and adding the row's entries in table order."""
    out = []
    for row in rows:
        acc = 0.0
        for k, col in row:
            acc += col[j] * z[k]
        out.append(acc)
    return out


def reference_row_function(entries, samples):
    """The generic row function the fused steppers replaced, kept as their
    reference with ``reference_rk4``.  rhs(j, z): the matrix of `entries`
    at grid index j times z, over the float columns `samples`.

    Column 0 of M and N vanishes and no row has more than three entries,
    so each row is one straight-line sum
    ((0.0 + a1[j]*z[1]) + a2[j]*z[2]) + a3[j]*z[3], where a missing entry
    reads a shared column of 0.0.  For finite z that is the sum of the
    row's nonzero entries in column order: a partial sum that starts from
    +0.0 is never -0.0, so the signed zero a missing entry adds leaves it
    unchanged.  A nonfinite z[k] also reaches a row with an entry in
    column k, so either way the stepper refuses that step."""
    if len(entries) != 4:
        raise InternalInconsistencyError("a transport table needs four rows")
    zero = (0.0,) * len(next(iter(samples.values())))
    cols = []
    for row in entries:
        row_cols = [zero] * 3
        for k, sign, key in row:
            if k not in (1, 2, 3) or row_cols[k - 1] is not zero:
                raise InternalInconsistencyError(f"entry {key!r} not in a free column 1-3")
            col = samples[key]
            row_cols[k - 1] = col if sign > 0 else tuple(-x for x in col)
        cols += row_cols
    a1, a2, a3, b1, b2, b3, c1, c2, c3, d1, d2, d3 = cols

    def rhs(j, z) -> list[float]:
        z1, z2, z3 = z[1], z[2], z[3]
        return [
            ((0.0 + a1[j] * z1) + a2[j] * z2) + a3[j] * z3,
            ((0.0 + b1[j] * z1) + b2[j] * z2) + b3[j] * z3,
            ((0.0 + c1[j] * z1) + c2[j] * z2) + c3[j] * z3,
            ((0.0 + d1[j] * z1) + d2[j] * z2) + d3[j] * z3,
        ]

    return rhs


def reference_rk4(rhs, z0, grid) -> list[list[float]]:
    """The generic stepper the fused ones replaced, kept as their reference.
    Classical RK4 for z' = rhs(j, z) over a half-step grid: steps run
    between even indices j and sample the midpoint at the odd one between.
    Returns the state at each even index."""
    z = list(z0)
    states = [z]
    for k in range(0, len(grid) - 2, 2):
        h = grid[k + 2] - grid[k]
        hh = 0.5 * h
        k1 = rhs(k, z)
        k2 = rhs(k + 1, [a + hh * b for a, b in zip(z, k1)])
        k3 = rhs(k + 1, [a + hh * b for a, b in zip(z, k2)])
        k4 = rhs(k + 2, [a + h * b for a, b in zip(z, k3)])
        h6 = h / 6
        z = [a + h6 * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(z, k1, k2, k3, k4)]
        if not all(map(math.isfinite, z)):
            raise InputError("integration produced nonfinite values")
        states.append(z)
    return states


def csv_writer_trace(path, stream) -> None:
    """Reference for ``congruence.write_trace_csv``: the same rows through
    ``csv.writer``."""
    from walkerspin.congruence import CSV_HEADER

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    tr = path.trace.values
    columns = (tr["rho"], tr["rho_t"], tr["sigma"], tr["sigma_t"])
    for k, t in enumerate(path.grid):
        row = (t, *path.states[k], *(col[k] for col in columns))
        writer.writerow(repr(float(x)) for x in row)


def oracle_error(w, V0, step, v_end=1.0, base=(0, 0, 0, 0)) -> float:
    """Reference for the congruence command's ``max oracle error``: the
    largest error of any component of any integrated state against the
    closed-form oracle, state by state."""
    from walkerspin.congruence import connecting_oracle, integrate_connecting

    path = integrate_connecting(w, V0, v_end=v_end, step=step, base=base)
    worst = 0.0
    for state, exact in zip(path.states, connecting_oracle(w, base, V0, path.grid)):
        worst = max(
            worst,
            max(abs(x - y) for x, y in zip(state, exact)),
        )
    return worst


def reference_raise_index(field, pos: int):
    """The two-branch epsilon raise that ``raise_index`` replaced, kept as
    the reference for the one shared index move."""
    from walkerspin.errors import InputError
    from walkerspin.spincoeff import DN, DN_P, UP, UP_P, DyadSpinorField

    kind = field.indices[pos]
    if kind == DN:
        new_kind = UP
    elif kind == DN_P:
        new_kind = UP_P
    else:
        raise InputError("can only raise a lower index")
    indices = field.indices[:pos] + (new_kind,) + field.indices[pos + 1:]
    comps = {}
    for key in field.comps:
        if key[pos] == 0:
            src = key[:pos] + (1,) + key[pos + 1:]
            comps[key] = field.comps[src]
        else:
            src = key[:pos] + (0,) + key[pos + 1:]
            comps[key] = -field.comps[src]
    return DyadSpinorField(indices, comps)


def reference_lower_index(field, pos: int):
    """The two-branch epsilon lower that ``lower_index`` replaced."""
    from walkerspin.errors import InputError
    from walkerspin.spincoeff import DN, DN_P, UP, UP_P, DyadSpinorField

    kind = field.indices[pos]
    if kind == UP:
        new_kind = DN
    elif kind == UP_P:
        new_kind = DN_P
    else:
        raise InputError("can only lower an upper index")
    indices = field.indices[:pos] + (new_kind,) + field.indices[pos + 1:]
    comps = {}
    for key in field.comps:
        if key[pos] == 0:
            src = key[:pos] + (1,) + key[pos + 1:]
            comps[key] = -field.comps[src]
        else:
            src = key[:pos] + (0,) + key[pos + 1:]
            comps[key] = field.comps[src]
    return DyadSpinorField(indices, comps)


def reference_commutator_residuals(frame, f):
    """The six commutator residuals with every expansion written out, each
    second derivative taken from the frame's own operators; the reference
    for ``commutator_residuals``, which writes three and reads the rest off
    the companion frames."""
    ops = frame.ops
    s = frame.coeffs
    D = {name: ops.apply(name, f) for name in ops.NAMES}
    second = {
        (p, q): ops.apply(p, D[q]) for p in ops.NAMES for q in ops.NAMES
    }

    def lie(p, q):
        return second[(p, q)] - second[(q, p)]

    return {
        "[Dp,D]": lie("Dp", "D") - (
            (s.gamma + s.gamma_t) * D["D"]
            - (s.gamma_p + s.gamma_tp) * D["Dp"]
            + (s.tau + s.tau_tp) * D["Delta"]
            + (s.tau_p + s.tau_t) * D["delta"]
        ),
        "[delta,D]": lie("delta", "D") - (
            (s.beta + s.alpha_t + s.tau_tp) * D["D"]
            - s.kappa * D["Dp"]
            + s.sigma * D["Delta"]
            + (s.rho_t - s.epsilon - s.gamma_tp) * D["delta"]
        ),
        "[Dp,Delta]": lie("Dp", "Delta") - (
            (s.beta_p + s.alpha_tp + s.tau_t) * D["Dp"]
            - s.kappa_p * D["D"]
            - s.sigma_p * D["delta"]
            - (s.rho_tp - s.epsilon_p - s.gamma_t) * D["Delta"]
        ),
        "[D,Delta]": lie("D", "Delta") - (
            s.kappa_t * D["Dp"]
            - (s.tau_p + s.beta_t + s.alpha) * D["D"]
            - s.sigma_t * D["delta"]
            - (s.rho - s.epsilon_t - s.gamma_p) * D["Delta"]
        ),
        "[delta,Dp]": lie("delta", "Dp") - (
            s.kappa_tp * D["D"]
            - (s.tau + s.beta_tp + s.alpha_p) * D["Dp"]
            + s.sigma_tp * D["Delta"]
            + (s.rho_p - s.epsilon_tp - s.gamma) * D["delta"]
        ),
        "[Delta,delta]": lie("Delta", "delta") - (
            (s.rho_tp - s.rho_p) * D["D"]
            + (s.rho - s.rho_t) * D["Dp"]
            + (s.alpha_p - s.alpha_t) * D["Delta"]
            + (s.alpha - s.alpha_tp) * D["delta"]
        ),
    }
