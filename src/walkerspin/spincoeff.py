"""Connection coefficients of a null tetrad and the dyad-level calculus.

There are 32 scalars: eight Greek families, each in four flavours (plain,
primed, tilde, tilde-primed).  The tilde family is an independent set of
functions, not an involution applied to the plain one; the naming only
records which dyad a coefficient belongs to.  Extraction from a tetrad
takes the exterior derivatives of the lowered legs through the Koszul
formula, with no Christoffel symbols.  It works for non-unit
normalization scalars as well, which is why the derivative terms of chi
and chi_t appear in the diagonal entries.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations, product
from typing import NamedTuple

from .errors import InputError, InternalInconsistencyError
from .poly import HALF, ONE, QUARTER, ZERO, RationalFunction, Value, _as_poly, dot
from .walker import (
    DirectionalOps,
    MetricTensor,
    Tetrad,
    WalkerMetric,
    _Record,
    assemble_metric,
    exterior_derivative,
    tetrad_covectors,
    tetrad_transform,
    validate_tetrad,
    walker_tetrad,
)

_FAMILIES = ("kappa", "sigma", "rho", "tau", "epsilon", "alpha", "beta", "gamma")
_FLAVOURS = ("", "_p", "_t", "_tp")
COEFF_NAMES = tuple(f"{fam}{fl}" for fam in _FAMILIES for fl in _FLAVOURS)


class SpinCoefficientSet(NamedTuple):
    kappa: Value = ZERO
    kappa_p: Value = ZERO
    kappa_t: Value = ZERO
    kappa_tp: Value = ZERO
    sigma: Value = ZERO
    sigma_p: Value = ZERO
    sigma_t: Value = ZERO
    sigma_tp: Value = ZERO
    rho: Value = ZERO
    rho_p: Value = ZERO
    rho_t: Value = ZERO
    rho_tp: Value = ZERO
    tau: Value = ZERO
    tau_p: Value = ZERO
    tau_t: Value = ZERO
    tau_tp: Value = ZERO
    epsilon: Value = ZERO
    epsilon_p: Value = ZERO
    epsilon_t: Value = ZERO
    epsilon_tp: Value = ZERO
    alpha: Value = ZERO
    alpha_p: Value = ZERO
    alpha_t: Value = ZERO
    alpha_tp: Value = ZERO
    beta: Value = ZERO
    beta_p: Value = ZERO
    beta_t: Value = ZERO
    beta_tp: Value = ZERO
    gamma: Value = ZERO
    gamma_p: Value = ZERO
    gamma_t: Value = ZERO
    gamma_tp: Value = ZERO

    def get(self, name: str) -> Value:
        if name not in COEFF_NAMES:
            raise KeyError(f"unknown coefficient {name!r}")
        return getattr(self, name)

    def with_values(self, **updates) -> "SpinCoefficientSet":
        for name in updates:
            if name not in COEFF_NAMES:
                raise InputError(f"unknown coefficient {name!r}")
        return self._replace(**{k: _as_poly(v) for k, v in updates.items()})


def _swap_flavours(s: SpinCoefficientSet, bit: int) -> SpinCoefficientSet:
    """Each coefficient exchanged with the partner whose flavour's index in
    ``_FLAVOURS`` differs from its own in ``bit``."""
    return SpinCoefficientSet(**{
        f"{fam}{fl}": getattr(s, f"{fam}{_FLAVOURS[i ^ bit]}")
        for fam in _FAMILIES for i, fl in enumerate(_FLAVOURS)
    })


def prime(s: SpinCoefficientSet) -> SpinCoefficientSet:
    """Swap every coefficient with its primed partner.

    This matches recomputation from the priming companion tetrad
    (n, l, -mt, -m), which the tests exercise directly.
    """
    return _swap_flavours(s, 1)


def tilde_relabel(s: SpinCoefficientSet) -> SpinCoefficientSet:
    """Swap plain and tilde families; a pure renaming of the same data."""
    return _swap_flavours(s, 2)


def _negated(vec) -> tuple:
    return tuple(-c for c in vec)


def priming_companion_tetrad(t: Tetrad) -> Tetrad:
    return Tetrad(l=t.n, n=t.l, m=_negated(t.mt), mt=_negated(t.m), chi=t.chi, chi_t=t.chi_t)


def tilde_companion_tetrad(t: Tetrad) -> Tetrad:
    """The tetrad with m, mt and chi, chi_t exchanged; its coefficients
    are ``tilde_relabel`` of the original ones."""
    return Tetrad(l=t.l, n=t.n, m=t.mt, mt=t.m, chi=t.chi_t, chi_t=t.chi)


# The operators D, Delta, delta, Dp of each companion tetrad of a frame, as
# signed operators of the frame itself, by the marker of its equations.
_COMPANION_OPS = {
    "": {"D": ("D", 1), "Delta": ("Delta", 1), "delta": ("delta", 1), "Dp": ("Dp", 1)},
    "'": {"D": ("Dp", 1), "Delta": ("delta", -1), "delta": ("Delta", -1), "Dp": ("D", 1)},
    "~": {"D": ("D", 1), "Delta": ("delta", 1), "delta": ("Delta", 1), "Dp": ("Dp", 1)},
    "'~": {"D": ("Dp", 1), "Delta": ("Delta", -1), "delta": ("delta", -1), "Dp": ("D", 1)},
}


# One row per directional operator: the plain and primed coefficients it
# carries, and the sign of the primed pair.
_ROWS = (
    ("D", "epsilon", "kappa", "tau_p", "gamma_p", 1),
    ("Delta", "alpha", "rho", "sigma_p", "beta_p", -1),
    ("delta", "beta", "sigma", "rho_p", "alpha_p", -1),
    ("Dp", "gamma", "tau", "kappa_p", "epsilon_p", 1),
)
# The legs in tetrad order, and the sign of each nonzero g(e_i, e_j)
# relative to chi * chi_t.
_LEGS = ("l", "n", "m", "mt")
_G_SIGN = {("l", "n"): 1, ("n", "l"): 1, ("m", "mt"): -1, ("mt", "m"): -1}
# Legs and operators of the tilde companion tetrad: its Delta follows the
# original m, so it is the original delta.
_SAME = {name: name for name in _LEGS + DirectionalOps.NAMES}
_SWAP = {**_SAME, "m": "mt", "mt": "m",
         **{op: name for op, (name, _) in _COMPANION_OPS["~"].items()}}


def spin_coefficients_from_tetrad(t: Tetrad, mt: MetricTensor) -> SpinCoefficientSet:
    """All 32 coefficients of ``t``, through ``Frame.from_tetrad``."""
    return Frame.from_tetrad(mt, t).coeffs


def _koszul_coefficients(t: Tetrad, covectors, ops: DirectionalOps) -> SpinCoefficientSet:
    """Extract all 32 coefficients from the exterior derivatives of the
    lowered legs theta_k = e_k^flat (``covectors``), with no Christoffel
    symbols, differentiating along the legs through ``ops``.

    For legs X, Y, Z the Koszul formula gives

        2 g(nabla_X Y, Z) = X(g_YZ) - Y(g_XZ) + Z(g_XY)
                            - dtheta_Z(X, Y) + dtheta_Y(X, Z) + dtheta_X(Y, Z),

    where g_ln = chi chi_t, g_mmt = -chi chi_t and every other g_ij is
    zero, so the derivative terms vanish at unit normalization.  Each
    dtheta_k(e_i, e_j) is dtheta_k contracted with the bivector e_i ^ e_j.

    The table of ``_ROWS`` gives the plain and primed families.  The tilde
    families are the same table on the tilde companion tetrad (m and mt,
    Delta and delta, chi and chi_t exchanged), read from the inner
    products of this tetrad and named by ``tilde_relabel``.
    """
    cov = dict(zip(_LEGS, covectors))
    # a product of the two inverses keeps chi and chi_t apart as factors
    X = (ONE / t.chi) * (ONE / t.chi_t)

    legs = {"l": t.l, "n": t.n, "m": t.m, "mt": t.mt}
    dchi = {op: ops.apply(op, t.chi) for op in DirectionalOps.NAMES}
    dchi_t = {op: ops.apply(op, t.chi_t) for op in DirectionalOps.NAMES}
    # half of X(chi * chi_t) along each leg X
    unit = t.chi * t.chi_t
    dunit = {leg: HALF * ops.apply(op, unit) for op, leg in ops.LEG_OF.items()}
    # half of dtheta_k(e_i, e_j), from the components a < b of both forms
    pairs = list(combinations(range(4), 2))
    bivectors = {
        (i, j): [dot(((legs[i][a], legs[j][b]), (legs[i][b], -legs[j][a]))) for a, b in pairs]
        for i, j in combinations(_LEGS, 2)
    }
    half_d = {}
    for k in _LEGS:
        d = exterior_derivative(cov[k])
        comps = [d[a][b] for a, b in pairs]
        for (i, j), bivector in bivectors.items():
            half_d[k, i, j] = HALF * dot(zip(comps, bivector))
            half_d[k, j, i] = -half_d[k, i, j]

    @cache
    def koszul(z, x, y):
        """g(Z, nabla_X Y) for the legs named z, x and y."""
        total = (-half_d.get((z, x, y), ZERO) + half_d.get((y, x, z), ZERO)
                 + half_d.get((x, y, z), ZERO))
        for sign, (p, q, r) in ((1, (x, y, z)), (-1, (y, x, z)), (1, (z, x, y))):
            if (q, r) in _G_SIGN:
                total = total + dunit[p] if sign * _G_SIGN[q, r] > 0 else total - dunit[p]
        return total

    def table(rn, chi_t, dchi):
        """Plain and primed coefficients of the tetrad whose legs and
        operators are those of ``t`` renamed by ``rn``."""

        def ip(vec, op, name):
            return koszul(rn[vec], ops.LEG_OF[rn[op]], rn[name])

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


def walker_closed_form(w: WalkerMetric) -> SpinCoefficientSet:
    """The coefficients of the canonical Walker tetrad, written directly
    from the first derivatives of a, b, c (a1 = a_u, ..., c4 = c_y)."""
    a, b, c = w.a, w.b, w.c
    a1, a2, a4 = a.diff("u"), a.diff("v"), a.diff("y")
    b1, b2, b3 = b.diff("u"), b.diff("v"), b.diff("x")
    c1, c2, c3, c4 = c.diff("u"), c.diff("v"), c.diff("x"), c.diff("y")
    kc = (2 * c3 - 2 * a4 + b * a2 + c * a1 - a * c1 - c * c2) * QUARTER
    kd = (2 * c4 - 2 * b3 - c * c1 - b * c2 + a * b1 + c * b2) * QUARTER
    return SpinCoefficientSet(
        kappa_p=a2 * -HALF,
        kappa_tp=-kc,
        rho_p=c2 * -HALF,
        sigma=b1 * -HALF,
        sigma_tp=kd,
        tau=c1 * HALF,
        epsilon_p=(c2 - a1) * QUARTER,
        epsilon_tp=(a1 + c2) * -QUARTER,
        alpha_p=(b2 - c1) * QUARTER,
        alpha_t=(b2 + c1) * -QUARTER,
        beta=(b2 - c1) * QUARTER,
        beta_tp=(b2 + c1) * -QUARTER,
        gamma=(a1 - c2) * QUARTER,
        gamma_t=(a1 + c2) * QUARTER,
    )


class Frame(_Record):
    """A tetrad bundled with its metric context and coefficient set, and the
    owner of its lowered legs, companions and connection matrices, each
    built once.  ``_replace`` builds a new frame from the four fields, so
    its cached layers are built anew."""

    _fields = ("metric", "tetrad", "ops", "coeffs")

    def __init__(self, metric: MetricTensor, tetrad: Tetrad, ops: DirectionalOps,
                 coeffs: SpinCoefficientSet):
        self.metric = metric
        self.tetrad = tetrad
        self.ops = ops
        self.coeffs = coeffs

    @cached_property
    def covectors(self) -> tuple:
        """``tetrad_covectors`` of the tetrad: (l_a, n_a, m_a, mt_a)."""
        return tetrad_covectors(self.metric, self.tetrad)

    @cached_property
    def companions(self) -> dict:
        """The operators and coefficients of each companion tetrad, by the
        marker of its equations: "" this frame, "'" its priming companion,
        "~" its tilde companion and "'~" the priming companion of that.
        The operators are signed views of ``ops`` (``_COMPANION_OPS``), so
        every companion shares its memo."""
        s, s_t = self.coeffs, tilde_relabel(self.coeffs)
        sets = {"": s, "'": prime(s), "~": s_t, "'~": prime(s_t)}
        return {mark: (self.ops.signed(_COMPANION_OPS[mark]), sets[mark]) for mark in sets}

    @cached_property
    def connection(self):
        """``connection_matrices`` of the coefficients."""
        return connection_matrices(self.coeffs)

    @classmethod
    def walker(cls, w: WalkerMetric) -> "Frame":
        mt = assemble_metric(w)
        t = walker_tetrad(w)
        return cls(
            metric=mt,
            tetrad=t,
            ops=DirectionalOps(t),
            coeffs=walker_closed_form(w),
        )

    @classmethod
    def from_tetrad(cls, mt: MetricTensor, t: Tetrad) -> "Frame":
        """The frame of any valid tetrad, whose legs are validated and lowered
        once: the Koszul extraction and ``covectors`` read those legs."""
        covectors, ops = validate_tetrad(mt, t), DirectionalOps(t)
        frame = cls(metric=mt, tetrad=t, ops=ops, coeffs=_koszul_coefficients(t, covectors, ops))
        frame.covectors = covectors
        return frame


def _transformation_laws(s: SpinCoefficientSet, lam, lam_t, mu, mu_t):
    """The kappa, rho, sigma and tau of the transformed tetrad."""
    lam2, lam3 = lam * lam, lam * lam * lam
    inv_lam_t = ONE / lam_t
    return {
        "kappa": lam3 * lam_t * s.kappa,
        "rho": lam * lam_t * s.rho + lam2 * lam_t * mu * s.kappa,
        "sigma": lam3 * inv_lam_t * s.sigma + lam3 * mu_t * s.kappa,
        "tau": lam * inv_lam_t * s.tau
        + lam * mu_t * s.rho
        + lam2 * inv_lam_t * mu * s.sigma
        + lam2 * mu * mu_t * s.kappa,
    }


def transform_coefficients(
    frame: Frame, lam, lam_t, mu, mu_t
) -> tuple[SpinCoefficientSet, Tetrad]:
    """Coefficients after a normalization-preserving tetrad change.

    The kappa, rho, sigma, tau families admit closed transformation laws;
    they are checked here against full recomputation from the transformed
    tetrad, and a mismatch raises InternalInconsistencyError, which names
    the size of the difference and a point where it is nonzero.  The laws
    are written for the first dyad; the tilde families obey the same laws
    on ``tilde_relabel`` of both sets, with lam, lam_t and mu, mu_t
    exchanged.
    """
    lam, lam_t, mu, mu_t = map(_as_poly, (lam, lam_t, mu, mu_t))
    new_t = tetrad_transform(frame.tetrad, lam, lam_t, mu, mu_t)
    full = spin_coefficients_from_tetrad(new_t, frame.metric)

    s = frame.coeffs
    for mark, old, new, params in (
        ("", s, full, (lam, lam_t, mu, mu_t)),
        ("_t", tilde_relabel(s), tilde_relabel(full), (lam_t, lam, mu_t, mu)),
    ):
        for name, want in _transformation_laws(old, *params).items():
            _check(name + mark, new.get(name), want,
                   head="closed-form transformation for {} disagrees with recomputation")
    return full, new_t


def _check(label: str, value: Value, *alternates: Value,
           head: str = "redundant routes for {} disagree") -> Value:
    """value, once it equals each alternate exactly; the one check between
    two routes to a quantity.  A disagreement raises
    InternalInconsistencyError: ``head`` with the label, then the size of
    the difference and a point where it is nonzero.  A quantity that must
    vanish is checked against ZERO."""
    for alt in alternates:
        if value != alt:
            raise InternalInconsistencyError(
                f"{head.format(label)}: {describe_difference(value, alt)}"
            )
    return value


def describe_difference(got: Value, want: Value) -> str:
    """The size of got - want and a point where it is nonzero, for the
    message of a disagreement between two routes."""
    diff = got - want
    terms = len((diff.num if isinstance(diff, RationalFunction) else diff)._num)
    point = _witness(diff, (got, want))
    where = (f"nonzero at (u, v, x, y) = {point}" if point else
             "nonzero at no integer point in [-2, 2]^4")
    return f"the difference has {terms} numerator terms and is {where}"


def _witness(diff: Value, operands) -> tuple[int, ...] | None:
    """The first point of small integers, each coordinate tried in the order
    0, 1, -1, 2, -2, where diff is nonzero and no denominator of diff or of
    an operand vanishes."""
    for point in product((0, 1, -1, 2, -2), repeat=4):
        try:
            for value in operands:
                value.eval_at(point)
            if diff.eval_at(point):
                return point
        except ZeroDivisionError:
            continue
    return None


# ---------------------------------------------------------------------------
# Dyad-component spinor calculus.
# ---------------------------------------------------------------------------

UP = "U"        # upper unprimed index
DN = "L"        # lower unprimed index
UP_P = "U'"     # upper primed index
DN_P = "L'"     # lower primed index

_INDEX_TYPES = (UP, DN, UP_P, DN_P)

# Direction pairs: the first slot is the unprimed half of a covector index,
# the second the primed half.
DIR_OF = {(0, 0): "D", (1, 0): "Delta", (0, 1): "delta", (1, 1): "Dp"}


class DyadSpinorField:
    """Dense component array of a spinor field over the dyad basis."""

    __slots__ = ("indices", "comps")

    def __init__(self, indices, comps):
        indices = tuple(indices)
        for idx in indices:
            if idx not in _INDEX_TYPES:
                raise InputError(f"unknown index type {idx!r}")
        if not hasattr(comps, "items"):
            raise InputError("components must be a mapping from index tuples")
        n = len(indices)
        table = {key: ZERO for key in product((0, 1), repeat=n)}
        for key, value in comps.items():
            key = tuple(key)
            if len(key) != n or any(i not in (0, 1) for i in key):
                raise InputError(f"component key {key} does not match valence {n}")
            table[key] = _as_poly(value)
        self.indices = indices
        self.comps = table

    def component(self, *key) -> Value:
        return self.comps[tuple(key)]

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.comps.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadSpinorField):
            return NotImplemented
        return self.indices == other.indices and all(
            self.comps[k] == other.comps[k] for k in self.comps
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.comps.items()))
        return f"DyadSpinorField({self.indices}, {{{body}}})"


def raise_index(field: DyadSpinorField, pos: int) -> DyadSpinorField:
    """epsilon-raise the index at pos: components (c0, c1) -> (c1, -c0)."""
    return _epsilon_move(field, pos, {DN: UP, DN_P: UP_P}, 0, "can only raise a lower index")


def lower_index(field: DyadSpinorField, pos: int) -> DyadSpinorField:
    """epsilon-lower the index at pos: components (c0, c1) -> (-c1, c0)."""
    return _epsilon_move(field, pos, {UP: DN, UP_P: DN_P}, 1, "can only lower an upper index")


def _position(field: DyadSpinorField, pos) -> int:
    """pos, when it names an index of field."""
    if not isinstance(pos, int) or pos not in range(len(field.indices)):
        raise InputError(f"no index at position {pos!r} of a valence-{len(field.indices)} field")
    return pos


def _epsilon_move(field, pos, kinds, kept, message) -> DyadSpinorField:
    """The index at pos turned into ``kinds`` of its kind: component i
    becomes component 1 - i, negated unless 1 - i is ``kept``."""
    kind = field.indices[_position(field, pos)]
    if kind not in kinds:
        raise InputError(message)
    indices = field.indices[:pos] + (kinds[kind],) + field.indices[pos + 1:]
    comps = {}
    for key, value in field.comps.items():
        i = 1 - key[pos]
        comps[key[:pos] + (i,) + key[pos + 1:]] = value if i == kept else -value
    return DyadSpinorField(indices, comps)


def contract(field: DyadSpinorField, pos_up: int, pos_dn: int) -> DyadSpinorField:
    """Plain-sum contraction of an upper index with a lower index."""
    up_kind = field.indices[_position(field, pos_up)]
    dn_kind = field.indices[_position(field, pos_dn)]
    valid = (up_kind == UP and dn_kind == DN) or (up_kind == UP_P and dn_kind == DN_P)
    if not valid:
        raise InputError("contraction needs an upper and a lower index of the same kind")
    keep = [i for i in range(len(field.indices)) if i not in (pos_up, pos_dn)]
    indices = tuple(field.indices[i] for i in keep)
    comps: dict[tuple[int, ...], Value] = {}
    for key in product((0, 1), repeat=len(indices)):
        total = ZERO
        for i in (0, 1):
            full = [0] * len(field.indices)
            for slot, value in zip(keep, key):
                full[slot] = value
            full[pos_up] = i
            full[pos_dn] = i
            total = total + field.comps[tuple(full)]
        comps[key] = total
    return DyadSpinorField(indices, comps)


def connection_matrices(s: SpinCoefficientSet):
    """Per-direction 2x2 connection matrices for each dyad.

    Column j of gamma[op] is the component vector of the op-derivative of
    the j-th dyad element; same for the tilde matrices and the primed dyad.
    Each row of ``_ROWS`` lays out one matrix; the tilde matrix along an
    operator is the plain one of ``tilde_relabel(s)`` along its ``_SWAP``.
    """

    def matrices(s):
        return {
            op: ((s.get(d1), -sgn * s.get(o2)), (s.get(o1), sgn * s.get(d2)))
            for op, d1, o1, o2, d2, sgn in _ROWS
        }

    gamma, tilde = matrices(s), matrices(tilde_relabel(s))
    return gamma, {op: tilde[_SWAP[op]] for op in DirectionalOps.NAMES}


def dyad_covariant_derivative(field: DyadSpinorField, frame: Frame) -> DyadSpinorField:
    """Covariant derivative; prepends a lower unprimed and lower primed index.

    The two new leading indices jointly form the covector slot, with
    direction pairs mapping to the operators D, Delta, delta, Dp.
    """
    if not isinstance(field, DyadSpinorField):
        raise InputError("expected a DyadSpinorField")
    gamma, gamma_t = frame.connection
    ops = frame.ops
    n = len(field.indices)
    out: dict[tuple[int, ...], Value] = {}
    for B, Bp in product((0, 1), repeat=2):
        op = DIR_OF[(B, Bp)]
        for key in product((0, 1), repeat=n):
            terms = []
            for pos, kind in enumerate(field.indices):
                i = key[pos]
                mat = gamma[op] if kind in (UP, DN) else gamma_t[op]
                for j in (0, 1):
                    coeff = mat[i][j] if kind in (UP, UP_P) else -mat[j][i]
                    terms.append((coeff, field.comps[key[:pos] + (j,) + key[pos + 1:]]))
            out[(B, Bp) + key] = dot(terms, ops.apply(op, field.comps[key]))
    return DyadSpinorField((DN, DN_P) + field.indices, out)


def first_form_residuals(frame: Frame):
    """Exterior derivatives of the tetrad covectors minus their
    coefficient expansions; all four grids vanish for a correct set.

    Only the dl and dm expansions are written.  dmt is dm on the tilde
    companion tetrad and dn is dl on the priming companion tetrad, each
    with its coefficients from ``frame.companions``.  Their lowered legs
    are the frame's own, permuted and signed: (l, n, mt, m) and
    (n, l, -mt, -m).  Keys run dl, dm, dmt, dn.

    Requires unit normalization (chi * chi_t = 1).
    """
    t = frame.tetrad
    if t.chi * t.chi_t != ONE:
        raise InputError("first-form expansion requires unit normalization")
    s = frame.coeffs
    l_, n_, m_, mt_ = frame.covectors

    def wedge(P, Q):
        return [[P[a_] * Q[b_] - P[b_] * Q[a_] for b_ in range(4)] for a_ in range(4)]

    def expand(terms):
        return [
            [dot((coeff, grid[a_][b_]) for coeff, grid in terms) for b_ in range(4)]
            for a_ in range(4)
        ]

    def residual(covs, s, leg):
        """d of the covector of leg l or m minus its expansion, over the
        lowered legs ``covs``."""
        l_dn, n_dn, m_dn, mt_dn = covs
        lm, lmt, ln = wedge(l_dn, m_dn), wedge(l_dn, mt_dn), wedge(l_dn, n_dn)
        mmt, mn, mtn = wedge(m_dn, mt_dn), wedge(m_dn, n_dn), wedge(mt_dn, n_dn)
        if leg == "l":
            cov, terms = l_dn, [
                (s.tau_t + s.beta_t + s.alpha, lm),
                (s.tau + s.alpha_t + s.beta, lmt),
                (-(s.epsilon + s.epsilon_t), ln),
                (s.rho_t - s.rho, mmt),
                (-s.kappa_t, mn),
                (-s.kappa, mtn),
            ]
        else:
            cov, terms = m_dn, [
                (s.gamma + s.epsilon_tp + s.rho_tp, lm),
                (s.sigma_tp, lmt),
                (s.tau + s.tau_tp, ln),
                (s.beta - s.beta_tp, mmt),
                (-(s.rho + s.epsilon + s.gamma_tp), mn),
                (-s.sigma, mtn),
            ]
        direct, expected = exterior_derivative(cov), expand(terms)
        return [[direct[a_][b_] - expected[a_][b_] for b_ in range(4)] for a_ in range(4)]

    return {
        "dl": residual(frame.covectors, s, "l"),
        "dm": residual(frame.covectors, s, "m"),
        "dmt": residual((l_, n_, mt_, m_), frame.companions["~"][1], "m"),
        "dn": residual((n_, l_, _negated(mt_), _negated(m_)), frame.companions["'"][1], "l"),
    }
