"""Connection coefficients of a null tetrad and the dyad-level calculus.

There are 32 scalars: eight Greek families, each in four flavours (plain,
primed, tilde, tilde-primed).  The tilde family is an independent set of
functions, not an involution applied to the plain one; the naming only
records which dyad a coefficient belongs to.  Extraction from a tetrad
works for non-unit normalization scalars as well, which is why the
derivative terms of chi and chi_t appear in the diagonal entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .errors import InputError, InternalInconsistencyError
from .poly import HALF, ONE, QUARTER, RF_ZERO, ZERO, RationalFunction, as_rf
from .walker import (
    COORDS,
    Christoffel,
    DirectionalOps,
    MetricTensor,
    Tetrad,
    WalkerMetric,
    assemble_metric,
    christoffel,
    covariant_derivative_vector,
    directional_vector_derivative,
    tetrad_covectors,
    tetrad_transform,
    validate_tetrad,
    walker_tetrad,
)

_FAMILIES = ("kappa", "sigma", "rho", "tau", "epsilon", "alpha", "beta", "gamma")
_FLAVOURS = ("", "_p", "_t", "_tp")
COEFF_NAMES = tuple(f"{fam}{fl}" for fam in _FAMILIES for fl in _FLAVOURS)


@dataclass(frozen=True)
class SpinCoefficientSet:
    kappa: RationalFunction = RF_ZERO
    kappa_p: RationalFunction = RF_ZERO
    kappa_t: RationalFunction = RF_ZERO
    kappa_tp: RationalFunction = RF_ZERO
    sigma: RationalFunction = RF_ZERO
    sigma_p: RationalFunction = RF_ZERO
    sigma_t: RationalFunction = RF_ZERO
    sigma_tp: RationalFunction = RF_ZERO
    rho: RationalFunction = RF_ZERO
    rho_p: RationalFunction = RF_ZERO
    rho_t: RationalFunction = RF_ZERO
    rho_tp: RationalFunction = RF_ZERO
    tau: RationalFunction = RF_ZERO
    tau_p: RationalFunction = RF_ZERO
    tau_t: RationalFunction = RF_ZERO
    tau_tp: RationalFunction = RF_ZERO
    epsilon: RationalFunction = RF_ZERO
    epsilon_p: RationalFunction = RF_ZERO
    epsilon_t: RationalFunction = RF_ZERO
    epsilon_tp: RationalFunction = RF_ZERO
    alpha: RationalFunction = RF_ZERO
    alpha_p: RationalFunction = RF_ZERO
    alpha_t: RationalFunction = RF_ZERO
    alpha_tp: RationalFunction = RF_ZERO
    beta: RationalFunction = RF_ZERO
    beta_p: RationalFunction = RF_ZERO
    beta_t: RationalFunction = RF_ZERO
    beta_tp: RationalFunction = RF_ZERO
    gamma: RationalFunction = RF_ZERO
    gamma_p: RationalFunction = RF_ZERO
    gamma_t: RationalFunction = RF_ZERO
    gamma_tp: RationalFunction = RF_ZERO

    def get(self, name: str) -> RationalFunction:
        if name not in COEFF_NAMES:
            raise KeyError(f"unknown coefficient {name!r}")
        return getattr(self, name)

    def as_dict(self) -> dict[str, RationalFunction]:
        return {name: getattr(self, name) for name in COEFF_NAMES}

    def with_values(self, **updates) -> "SpinCoefficientSet":
        return replace(self, **{k: as_rf(v) for k, v in updates.items()})


def prime(s: SpinCoefficientSet) -> SpinCoefficientSet:
    """Swap every coefficient with its primed partner.

    This matches recomputation from the priming companion tetrad
    (n, l, -mt, -m), which the tests exercise directly.
    """
    values = {}
    for fam in _FAMILIES:
        values[fam] = s.get(f"{fam}_p")
        values[f"{fam}_p"] = s.get(fam)
        values[f"{fam}_t"] = s.get(f"{fam}_tp")
        values[f"{fam}_tp"] = s.get(f"{fam}_t")
    return SpinCoefficientSet(**values)


def tilde_relabel(s: SpinCoefficientSet) -> SpinCoefficientSet:
    """Swap plain and tilde families; a pure renaming of the same data."""
    values = {}
    for fam in _FAMILIES:
        values[fam] = s.get(f"{fam}_t")
        values[f"{fam}_t"] = s.get(fam)
        values[f"{fam}_p"] = s.get(f"{fam}_tp")
        values[f"{fam}_tp"] = s.get(f"{fam}_p")
    return SpinCoefficientSet(**values)


def priming_companion_tetrad(t: Tetrad) -> Tetrad:
    neg = lambda vec: tuple(-c for c in vec)
    return Tetrad(l=t.n, n=t.l, m=neg(t.mt), mt=neg(t.m), chi=t.chi, chi_t=t.chi_t)


def tilde_companion_tetrad(t: Tetrad) -> Tetrad:
    """The tetrad with m, mt and chi, chi_t exchanged; its coefficients
    are ``tilde_relabel`` of the original ones."""
    return Tetrad(l=t.l, n=t.n, m=t.mt, mt=t.m, chi=t.chi_t, chi_t=t.chi)


# One row per directional operator: the plain and primed coefficients it
# carries, and the sign of the primed pair.
_ROWS = (
    ("D", "epsilon", "kappa", "tau_p", "gamma_p", 1),
    ("Delta", "alpha", "rho", "sigma_p", "beta_p", -1),
    ("delta", "beta", "sigma", "rho_p", "alpha_p", -1),
    ("Dp", "gamma", "tau", "kappa_p", "epsilon_p", 1),
)
# Legs and operators of the tetrad with m and mt exchanged: its Delta follows
# the original m, so it is the original delta.
_SAME = {name: name for name in ("l", "n", "m", "mt") + DirectionalOps.NAMES}
_SWAP = {**_SAME, "m": "mt", "mt": "m", "Delta": "delta", "delta": "Delta"}


def spin_coefficients_from_tetrad(
    ch: Christoffel, t: Tetrad, mt: MetricTensor
) -> SpinCoefficientSet:
    """Extract all 32 coefficients from directional tetrad derivatives.

    The table of ``_ROWS`` gives the plain and primed families.  The tilde
    families are the same table on the tilde companion tetrad (m and mt,
    Delta and delta, chi and chi_t exchanged), read from the derivatives
    of this tetrad and named by ``tilde_relabel``.
    """
    validate_tetrad(mt, t)
    ops = DirectionalOps(t)
    unit = t.chi * t.chi_t
    X = RationalFunction(ONE) / unit

    legs = {"l": t.l, "n": t.n, "m": t.m, "mt": t.mt}
    nabla = {name: covariant_derivative_vector(ch, vec) for name, vec in legs.items()}
    dirs = {"D": t.l, "Delta": t.mt, "delta": t.m, "Dp": t.n}
    deriv = {
        (op, name): directional_vector_derivative(nabla[name], dirs[op])
        for op in DirectionalOps.NAMES
        for name in nabla
    }
    dchi = {op: ops.apply(op, t.chi) for op in DirectionalOps.NAMES}
    dchi_t = {op: ops.apply(op, t.chi_t) for op in DirectionalOps.NAMES}

    def table(rn, chi_t, dchi):
        """Plain and primed coefficients of the tetrad whose legs and
        operators are those of ``t`` renamed by ``rn``."""

        def ip(vec, op, name):
            return mt.inner(legs[rn[vec]], deriv[(rn[op], rn[name])])

        values = {}
        for op, diag1, offdiag1, offdiag2, diag2, sgn in _ROWS:
            dnorm = chi_t * dchi[rn[op]]
            values[diag1] = HALF * X * (ip("n", op, "l") + ip("m", op, "mt") + dnorm)
            values[offdiag1] = -(X * ip("m", op, "l"))
            values[offdiag2] = sgn * X * ip("mt", op, "n")
            values[diag2] = sgn * (HALF * X * (ip("l", op, "n") + ip("mt", op, "m") + dnorm))
        return values

    tilde = tilde_relabel(SpinCoefficientSet(**table(_SWAP, t.chi, dchi_t)))
    return replace(tilde, **table(_SAME, t.chi_t, dchi))


def _walker_auxiliaries(w: WalkerMetric):
    a, b, c = w.a, w.b, w.c
    d = {
        "a1": a.diff("u"), "a2": a.diff("v"), "a3": a.diff("x"), "a4": a.diff("y"),
        "b1": b.diff("u"), "b2": b.diff("v"), "b3": b.diff("x"), "b4": b.diff("y"),
        "c1": c.diff("u"), "c2": c.diff("v"), "c3": c.diff("x"), "c4": c.diff("y"),
    }
    d["kc"] = (
        2 * d["c3"] - 2 * d["a4"] + b * d["a2"] + c * d["a1"] - a * d["c1"] - c * d["c2"]
    ) * QUARTER
    d["kd"] = (
        2 * d["c4"] - 2 * d["b3"] - c * d["c1"] - b * d["c2"] + a * d["b1"] + c * d["b2"]
    ) * QUARTER
    return d


def walker_closed_form(w: WalkerMetric) -> SpinCoefficientSet:
    """The coefficients of the canonical Walker tetrad, written directly."""
    d = _walker_auxiliaries(w)
    a1, a2 = d["a1"], d["a2"]
    b1, b2 = d["b1"], d["b2"]
    c1, c2 = d["c1"], d["c2"]
    return SpinCoefficientSet(
        kappa_p=as_rf(a2 * -HALF),
        kappa_tp=as_rf(-d["kc"]),
        rho_p=as_rf(c2 * -HALF),
        sigma=as_rf(b1 * -HALF),
        sigma_tp=as_rf(d["kd"]),
        tau=as_rf(c1 * HALF),
        epsilon_p=as_rf((c2 - a1) * QUARTER),
        epsilon_tp=as_rf((a1 + c2) * -QUARTER),
        alpha_p=as_rf((b2 - c1) * QUARTER),
        alpha_t=as_rf((b2 + c1) * -QUARTER),
        beta=as_rf((b2 - c1) * QUARTER),
        beta_tp=as_rf((b2 + c1) * -QUARTER),
        gamma=as_rf((a1 - c2) * QUARTER),
        gamma_t=as_rf((a1 + c2) * QUARTER),
    )


@dataclass(frozen=True)
class Frame:
    """A tetrad bundled with its metric context and coefficient set; the
    Christoffel symbols are built only by the routes that read them."""

    metric: MetricTensor
    tetrad: Tetrad
    ops: DirectionalOps
    coeffs: SpinCoefficientSet

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
    def from_tetrad(cls, mt: MetricTensor, ch: Christoffel, t: Tetrad) -> "Frame":
        return cls(
            metric=mt,
            tetrad=t,
            ops=DirectionalOps(t),
            coeffs=spin_coefficients_from_tetrad(ch, t, mt),
        )


def directional(t: Tetrad, f, which: str) -> RationalFunction:
    """Directional derivative of a scalar along one tetrad leg."""
    if which not in DirectionalOps.NAMES:
        raise InputError(f"unknown direction {which!r}; use one of {DirectionalOps.NAMES}")
    return DirectionalOps(t).apply(which, f)


def _transformation_laws(s: SpinCoefficientSet, lam, lam_t, mu, mu_t):
    """The kappa, rho, sigma and tau of the transformed tetrad."""
    lam2, lam3 = lam * lam, lam * lam * lam
    inv_lam_t = RationalFunction(ONE) / lam_t
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
    tetrad, and a mismatch raises InternalInconsistencyError.  The laws
    are written for the first dyad; the tilde families obey the same laws
    on ``tilde_relabel`` of both sets, with lam, lam_t and mu, mu_t
    exchanged.
    """
    lam, lam_t, mu, mu_t = as_rf(lam), as_rf(lam_t), as_rf(mu), as_rf(mu_t)
    new_t = tetrad_transform(frame.tetrad, lam, lam_t, mu, mu_t)
    full = spin_coefficients_from_tetrad(christoffel(frame.metric), new_t, frame.metric)

    s = frame.coeffs
    for mark, old, new, params in (
        ("", s, full, (lam, lam_t, mu, mu_t)),
        ("_t", tilde_relabel(s), tilde_relabel(full), (lam_t, lam, mu_t, mu)),
    ):
        for name, want in _transformation_laws(old, *params).items():
            if new.get(name) != want:
                raise InternalInconsistencyError(
                    f"closed-form transformation for {name}{mark} disagrees with recomputation"
                )
    return full, new_t


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
        table = {key: as_rf(ZERO) for key in product((0, 1), repeat=n)}
        for key, value in comps.items():
            key = tuple(key)
            if len(key) != n or any(i not in (0, 1) for i in key):
                raise InputError(f"component key {key} does not match valence {n}")
            table[key] = as_rf(value)
        self.indices = indices
        self.comps = table

    @classmethod
    def scalar(cls, value) -> "DyadSpinorField":
        return cls((), {(): as_rf(value)})

    def component(self, *key) -> RationalFunction:
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

    def __add__(self, other: "DyadSpinorField") -> "DyadSpinorField":
        if self.indices != other.indices:
            raise InputError("cannot add fields of different valence")
        return DyadSpinorField(
            self.indices, {k: self.comps[k] + other.comps[k] for k in self.comps}
        )

    def __sub__(self, other: "DyadSpinorField") -> "DyadSpinorField":
        if self.indices != other.indices:
            raise InputError("cannot subtract fields of different valence")
        return DyadSpinorField(
            self.indices, {k: self.comps[k] - other.comps[k] for k in self.comps}
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.comps.items()))
        return f"DyadSpinorField({self.indices}, {{{body}}})"


def raise_index(field: DyadSpinorField, pos: int) -> DyadSpinorField:
    """epsilon-raise the index at pos: components (c0, c1) -> (c1, -c0)."""
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


def lower_index(field: DyadSpinorField, pos: int) -> DyadSpinorField:
    """epsilon-lower the index at pos: components (c0, c1) -> (-c1, c0)."""
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


def contract(field: DyadSpinorField, pos_up: int, pos_dn: int) -> DyadSpinorField:
    """Plain-sum contraction of an upper index with a lower index."""
    up_kind, dn_kind = field.indices[pos_up], field.indices[pos_dn]
    valid = (up_kind == UP and dn_kind == DN) or (up_kind == UP_P and dn_kind == DN_P)
    if not valid:
        raise InputError("contraction needs an upper and a lower index of the same kind")
    keep = [i for i in range(len(field.indices)) if i not in (pos_up, pos_dn)]
    indices = tuple(field.indices[i] for i in keep)
    comps: dict[tuple[int, ...], RationalFunction] = {}
    for key in product((0, 1), repeat=len(indices)):
        total = as_rf(ZERO)
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
    """
    gamma = {
        "D": ((s.epsilon, -s.tau_p), (s.kappa, s.gamma_p)),
        "Delta": ((s.alpha, s.sigma_p), (s.rho, -s.beta_p)),
        "delta": ((s.beta, s.rho_p), (s.sigma, -s.alpha_p)),
        "Dp": ((s.gamma, -s.kappa_p), (s.tau, s.epsilon_p)),
    }
    gamma_t = {
        "D": ((s.epsilon_t, -s.tau_tp), (s.kappa_t, s.gamma_tp)),
        "Delta": ((s.beta_t, s.rho_tp), (s.sigma_t, -s.alpha_tp)),
        "delta": ((s.alpha_t, s.sigma_tp), (s.rho_t, -s.beta_tp)),
        "Dp": ((s.gamma_t, -s.kappa_tp), (s.tau_t, s.epsilon_tp)),
    }
    return gamma, gamma_t


def dyad_covariant_derivative(field: DyadSpinorField, frame: Frame) -> DyadSpinorField:
    """Covariant derivative; prepends a lower unprimed and lower primed index.

    The two new leading indices jointly form the covector slot, with
    direction pairs mapping to the operators D, Delta, delta, Dp.
    """
    if not isinstance(field, DyadSpinorField):
        raise InputError("expected a DyadSpinorField")
    gamma, gamma_t = connection_matrices(frame.coeffs)
    ops = frame.ops
    n = len(field.indices)
    out: dict[tuple[int, ...], RationalFunction] = {}
    for B, Bp in product((0, 1), repeat=2):
        op = DIR_OF[(B, Bp)]
        for key in product((0, 1), repeat=n):
            total = ops.apply(op, field.comps[key])
            for pos, kind in enumerate(field.indices):
                i = key[pos]
                mat = gamma[op] if kind in (UP, DN) else gamma_t[op]
                for j in (0, 1):
                    other = key[:pos] + (j,) + key[pos + 1:]
                    if kind in (UP, UP_P):
                        coeff = mat[i][j]
                    else:
                        coeff = -mat[j][i]
                    if coeff.is_zero:
                        continue
                    total = total + coeff * field.comps[other]
            out[(B, Bp) + key] = total
    return DyadSpinorField((DN, DN_P) + field.indices, out)


def first_form_residuals(frame: Frame):
    """Exterior derivatives of the tetrad covectors minus their
    coefficient expansions; all four grids vanish for a correct set.

    Only the dl and dm expansions are written.  dmt is dm on the tilde
    companion tetrad with ``tilde_relabel`` coefficients, and dn is dl on
    the priming companion tetrad with ``prime`` coefficients.  Keys run
    dl, dm, dmt, dn.

    Requires unit normalization (chi * chi_t = 1).
    """
    t = frame.tetrad
    if t.chi * t.chi_t != RationalFunction(ONE):
        raise InputError("first-form expansion requires unit normalization")
    mt = frame.metric
    s = frame.coeffs

    def d(cov):
        return [
            [cov[b_].diff(COORDS[a_]) - cov[a_].diff(COORDS[b_]) for b_ in range(4)]
            for a_ in range(4)
        ]

    def wedge(P, Q):
        return [[P[a_] * Q[b_] - P[b_] * Q[a_] for b_ in range(4)] for a_ in range(4)]

    def expand(terms):
        out = [[as_rf(ZERO) for _ in range(4)] for _ in range(4)]
        for coeff, grid in terms:
            if coeff.is_zero:
                continue
            for a_ in range(4):
                for b_ in range(4):
                    out[a_][b_] = out[a_][b_] + coeff * grid[a_][b_]
        return out

    def residual(t, s, leg):
        """d of the covector of leg l or m minus its expansion."""
        l_dn, n_dn, m_dn, mt_dn = tetrad_covectors(mt, t)
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
        direct, expected = d(cov), expand(terms)
        return [[direct[a_][b_] - expected[a_][b_] for b_ in range(4)] for a_ in range(4)]

    return {
        "dl": residual(t, s, "l"),
        "dm": residual(t, s, "m"),
        "dmt": residual(tilde_companion_tetrad(t), tilde_relabel(s), "m"),
        "dn": residual(priming_companion_tetrad(t), prime(s), "l"),
    }
