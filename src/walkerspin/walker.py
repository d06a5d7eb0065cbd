"""Walker metrics in canonical coordinates and their tangent-space data.

The metric family lives on coordinates (u, v, x, y) with line element block
form ((0, I), (I, W)) where W collects three arbitrary functions a, b, c of
all four coordinates.  The plane field spanned by the first two coordinate
vectors is null and parallel; every structure downstream (tetrad, connection,
curvature) is polynomial in a, b, c and their derivatives, so the whole
layer stays exact.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegenerateTetradError, InputError
from .poly import HALF, ONE, VARIABLES as COORDS, ZERO, Poly, Value, _as_poly, dot

Vector = tuple[Value, Value, Value, Value]
Matrix4 = tuple[tuple[Poly, ...], ...]


def _vec(components) -> Vector:
    out = tuple(components)
    if len(out) != 4:
        raise InputError("vectors have four components")
    return out


def read_spec(data, kind: str, noun: str, keys) -> tuple[dict[str, Poly], str]:
    """The polynomials named by ``keys`` and the optional label of a JSON
    specification object; anything else is an InputError.  The label is
    printed as is in reports, so it must be printable text: a line break
    in it could forge a report line."""
    if not isinstance(data, dict):
        raise InputError(f"{kind} specification must be a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise InputError(f"{kind} specification missing keys: {missing}")
    unknown = sorted(set(data) - set(keys) - {"label"})
    if unknown:
        raise InputError(f"{kind} specification has unknown keys: {unknown}")
    parsed = {}
    for key in keys:
        text = data[key]
        if not isinstance(text, str):
            raise InputError(f"{noun} {key!r} must be a string")
        try:
            parsed[key] = Poly.parse(text)
        except ValueError as err:
            raise InputError(f"bad polynomial for {key!r}: {err}") from err
    label = data.get("label", "")
    if not isinstance(label, str):
        raise InputError("label must be a string")
    if not label.isprintable():
        raise InputError("label must be printable text, without line breaks or control characters")
    return parsed, label


class _Record:
    """Value behaviour for a record that holds cached properties, and so is
    a plain class with a ``__dict__`` instead of a named tuple: equality,
    hash and repr over the fields ``_fields`` names, and ``_replace``,
    which builds a new instance from those fields alone, so that no cached
    property carries over."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({args})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class WalkerMetric(NamedTuple):
    """The three metric functions, plus an optional display label."""

    a: Poly
    b: Poly
    c: Poly
    label: str = ""

    @classmethod
    def from_dict(cls, data) -> "WalkerMetric":
        parsed, label = read_spec(data, "metric", "metric function", ("a", "b", "c"))
        return cls(**parsed, label=label)

    def to_dict(self) -> dict:
        out = {"a": str(self.a), "b": str(self.b), "c": str(self.c)}
        if self.label:
            out["label"] = self.label
        return out


def aligned_ricci_residuals(w: WalkerMetric) -> dict[str, Poly]:
    """The three coordinate conditions on a, b, c of the aligned-Ricci
    family, as residuals that vanish when the condition holds."""
    a, b, c = w.a, w.b, w.c
    return {
        "a_uu - b_vv": a.diff("u").diff("u") - b.diff("v").diff("v"),
        "b_uv + c_uu": b.diff("u").diff("v") + c.diff("u").diff("u"),
        "a_uv + c_vv": a.diff("u").diff("v") + c.diff("v").diff("v"),
    }


class MetricTensor(NamedTuple):
    g: Matrix4
    ginv: Matrix4

    def lower(self, V: Vector) -> Vector:
        return _vec(dot(zip(row, V)) for row in self.g)


def bilinear(form: Matrix4, V: Vector, W: Vector) -> Value:
    """form_ab V^a W^b, summed as (form_ab V^a) W^b with b fastest."""
    return dot(
        (entry * V[a], W[b])
        for a, row in enumerate(form)
        for b, entry in enumerate(row)
        if not entry.is_zero
    )


def assemble_metric(w: WalkerMetric) -> MetricTensor:
    a, b, c = w.a, w.b, w.c
    one = ONE
    zero = ZERO
    g = (
        (zero, zero, one, zero),
        (zero, zero, zero, one),
        (one, zero, a, c),
        (zero, one, c, b),
    )
    ginv = (
        (-a, -c, one, zero),
        (-c, -b, zero, one),
        (one, zero, zero, zero),
        (zero, one, zero, zero),
    )
    return MetricTensor(g=g, ginv=ginv)


class Christoffel(NamedTuple):
    """Connection symbols gamma[k][i][j] with k the contravariant index."""

    gamma: tuple[tuple[tuple[Poly, ...], ...], ...]


def christoffel(mt: MetricTensor) -> Christoffel:
    g, ginv = mt.g, mt.ginv
    dg = [[[g[i][j].diff(COORDS[k]) for j in range(4)] for i in range(4)] for k in range(4)]

    def symbol(k, i, j):
        # the bracket is formed only where the inverse metric is nonzero
        return dot(
            (factor, dg[i][d][j] + dg[j][d][i] - dg[d][i][j])
            for d, factor in enumerate(ginv[k])
            if not factor.is_zero
        ) * HALF

    # the bracket is symmetric in i and j: Gamma^k_ji is Gamma^k_ij
    formed = {(k, i, j): symbol(k, i, j) for k in range(4) for i in range(4) for j in range(i, 4)}
    gamma = tuple(
        tuple(tuple(formed[k, min(i, j), max(i, j)] for j in range(4)) for i in range(4))
        for k in range(4)
    )
    return Christoffel(gamma=gamma)


class Tetrad(NamedTuple):
    """Null tetrad (l, n, m, mt) with dyad normalization scalars chi, chi_t.

    Inner products: l.n = chi*chi_t, m.mt = -chi*chi_t, all others zero.
    """

    l: Vector
    n: Vector
    m: Vector
    mt: Vector
    chi: Value = ONE
    chi_t: Value = ONE


def walker_tetrad(w: WalkerMetric) -> Tetrad:
    a, b, c = w.a, w.b, w.c
    l = _vec([ONE, ZERO, ZERO, ZERO])
    mt = _vec([ZERO, ONE, ZERO, ZERO])
    n = _vec([a * -HALF, c * -HALF, ONE, ZERO])
    m = _vec([c * HALF, b * HALF, ZERO, Poly.const(-1)])
    return Tetrad(l=l, n=n, m=m, mt=mt)


def validate_tetrad(mt: MetricTensor, t: Tetrad):
    """Check all ten inner products against the stated normalization, each
    as a lowered leg dotted with a leg, and return the lowered legs
    (l_a, n_a, m_a, mt_a)."""
    unit = t.chi * t.chi_t
    if unit.is_zero:
        raise DegenerateTetradError("chi * chi_t vanishes identically")
    cov = tetrad_covectors(mt, t)
    legs = (t.l, t.n, t.m, t.mt)
    names = ("l", "n", "m", "mt")
    pairs = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (2, 3)]
    expect = {(0, 1): unit, (2, 3): -unit}
    for i, j in pairs:
        if dot(zip(cov[i], legs[j])) != expect.get((i, j), ZERO):
            raise DegenerateTetradError(f"normalization violated for {names[i]}.{names[j]}")
    return cov


class DirectionalOps:
    """Scalar directional derivatives D, Delta, delta, Dp of a tetrad,
    each along the leg ``LEG_OF`` names, taken by name through ``apply``
    or as the callables of ``signed``.

    Each instance remembers the derivative of every Poly it was given,
    keyed on (operator name, value), so the routes that share one frame
    differentiate each value once.  A RationalFunction has no hash, as
    one value can have two representatives, so it is differentiated anew.
    """

    LEG_OF = {"D": "l", "Delta": "mt", "delta": "m", "Dp": "n"}
    NAMES = tuple(LEG_OF)

    def __init__(self, t: Tetrad):
        self.dirs = {name: getattr(t, leg) for name, leg in self.LEG_OF.items()}
        self.memo: dict[tuple[str, Poly], Value] = {}

    def apply(self, name: str, f: Value) -> Value:
        if type(f) is not Poly:
            return self.derive(name, f)
        key = (name, f)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self.derive(name, f)
        return out

    def derive(self, name: str, f: Value) -> Value:
        """The derivative itself, without the memo."""
        # f is not differentiated along a coordinate the leg does not move
        return dot(
            (comp, f.diff(x)) for comp, x in zip(self.dirs[name], COORDS) if not comp.is_zero
        )

    def signed(self, table) -> tuple:
        """D, Delta, delta, Dp of a tetrad whose legs are signed legs of this
        one, as callables that share this memo; ``table`` maps each name to
        (the name of the operator here, +1 or -1)."""

        def view(name, sign):
            apply = self.apply
            if sign > 0:
                return lambda f: apply(name, f)
            return lambda f: -apply(name, f)

        return tuple(view(*table[name]) for name in self.NAMES)


def tetrad_transform(t: Tetrad, lam, lam_t, mu, mu_t) -> Tetrad:
    """Boost-rotation family preserving the normalization scalars.

    l scales by lam*lam_t, n picks up the inverse factor plus null-rotation
    terms, and m, mt mix accordingly.  lam and lam_t must be invertible
    (not identically zero); mu, mu_t are unrestricted.
    """
    lam, lam_t, mu, mu_t = map(_as_poly, (lam, lam_t, mu, mu_t))
    if lam.is_zero or lam_t.is_zero:
        raise InputError("lam and lam_t must not vanish identically")
    ll = lam * lam_t
    inv_lam = ONE / lam
    inv_lam_t = ONE / lam_t
    # a product of the two inverses keeps lam and lam_t apart as factors
    inv_ll = inv_lam * inv_lam_t

    def comb(*pairs) -> Vector:
        return _vec(dot((coeff, vec[i]) for coeff, vec in pairs) for i in range(4))

    new_l = comb((ll, t.l))
    new_n = comb((inv_ll, t.n), (inv_lam * mu_t, t.mt), (mu * inv_lam_t, t.m), ((mu * mu_t), t.l))
    new_m = comb((lam * inv_lam_t, t.m), (lam * mu_t, t.l))
    new_mt = comb((inv_lam * lam_t, t.mt), (mu * lam_t, t.l))
    return Tetrad(l=new_l, n=new_n, m=new_m, mt=new_mt, chi=t.chi, chi_t=t.chi_t)


def scale_normalization(t: Tetrad, f, f_t) -> Tetrad:
    """Rescale the two dyads independently, producing chi = f, chi_t = f_t.

    Unlike tetrad_transform this leaves the normalization scalars non-unit,
    which exercises the derivative terms in the coefficient extraction.
    """
    f, f_t = _as_poly(f), _as_poly(f_t)
    if f.is_zero or f_t.is_zero:
        raise InputError("scale factors must not vanish identically")

    def scale(vec: Vector, factor: Value) -> Vector:
        return _vec([factor * comp for comp in vec])

    return Tetrad(
        l=scale(t.l, f * f_t),
        n=t.n,
        m=scale(t.m, f),
        mt=scale(t.mt, f_t),
        chi=t.chi * f,
        chi_t=t.chi_t * f_t,
    )


def tetrad_covectors(mt: MetricTensor, t: Tetrad):
    """Lowered one-forms (l_a, n_a, m_a, mt_a)."""
    return mt.lower(t.l), mt.lower(t.n), mt.lower(t.m), mt.lower(t.mt)


def exterior_derivative(cov) -> list[list[Value]]:
    """(d omega)[a][b] = d_a omega_b - d_b omega_a of a covector field.

    Each partial off the diagonal is taken once; the entries below the
    diagonal are the negated ones above it, and the diagonal is zero."""
    d = [[ZERO] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            d[a][b] = cov[b].diff(COORDS[a]) - cov[a].diff(COORDS[b])
            d[b][a] = -d[a][b]
    return d
