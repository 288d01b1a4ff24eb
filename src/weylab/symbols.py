"""Symbol representations and symbol-class machinery.

Two layers: PolySymbol holds symbols polynomial in xi with jet-capable
x-coefficients (exact derivatives through the jets of as_evaluator(),
exact transport between quantization conventions, exact star products),
and SymbolEvaluator is the one phase-space function type: a vectorized
value with exact jets when it has them, finite differences otherwise.
Weights are SymbolEvaluators too (metric.WeightEvaluator), so the
weight m and the class weight M of a seminorm are symbols with jets.

Seminorm estimation, class-membership gates and band restriction live
here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Callable, Optional, Sequence

import numpy as np

from ._jets import (JProd, JPowerSum, JScale, JSum, JetExpr, JetSymbol,
                    UnsupportedOrderError, coords, fd_deriv_eval, in_shape)
from .profiles import band_bump

__all__ = [
    "SymbolEvaluator", "PolySymbol", "SeminormEstimate", "with_confinement",
    "quadratic_confinement", "smg_seminorm", "class_membership", "band_restrict",
    "box_sample",
]

MAX_DERIV_ORDER = 4


class SymbolEvaluator:
    """A symbol on R^n x R^n: vectorized value plus optional exact jets.

    Points are a tuple P = (x_1..x_n, xi_1..xi_n) of coordinate arrays
    that broadcast against each other; eval and derivative return values
    in the broadcast shape.  Rows Z of shape (m, 2n) are the special case
    tuple(Z.T) and may be passed as they are.  value_fn maps such a tuple
    (always a tuple) to values; jet, when present, is a JetSymbol over the
    same 2n variables.  derivative() dispatches to the jet and falls back
    to scaled central differences otherwise.
    """

    def __init__(self, n: int, value_fn: Callable, jet: Optional[JetSymbol] = None,
                 name: str = ""):
        self.n = n
        self.value_fn = value_fn
        self.jet = jet
        self.name = name

    def _points(self, P) -> tuple:
        P = coords(P)
        if len(P) != 2 * self.n:
            raise ValueError(f"{len(P)} coordinates given, the phase space has {2 * self.n}")
        return P

    def eval(self, P):
        P = self._points(P)
        return in_shape(self.value_fn(P), P)

    def derivative(self, beta, alpha, P):
        """d_x^beta d_xi^alpha at the points P; exact when a jet exists."""
        beta, alpha = tuple(beta), tuple(alpha)
        if len(beta) != self.n or len(alpha) != self.n:
            raise ValueError("multi-index length must equal the dimension")
        if sum(beta) + sum(alpha) > MAX_DERIV_ORDER:
            raise UnsupportedOrderError(
                f"derivative order {sum(beta) + sum(alpha)} beyond the maximum {MAX_DERIV_ORDER}")
        P = self._points(P)
        multi = beta + alpha
        if self.jet is not None:
            return self.jet.deriv_eval(multi, P)
        return fd_deriv_eval(self.value_fn, multi, P)


def _iter_multi(bound):
    return itertools.product(*(range(b + 1) for b in bound))


def _mfact(m):
    out = 1
    for v in m:
        out *= factorial(v)
    return out


def _falling(gamma, alpha):
    out = 1
    for g, a in zip(gamma, alpha):
        if a > g:
            return 0
        out *= factorial(g) // factorial(g - a)
    return out


def _flatten(expr: JetExpr) -> Optional[JPowerSum]:
    """Collapse a JetExpr tree into a single JPowerSum when possible.

    Returns None when the tree contains a univariate-table factor; those
    cannot be represented in closed monomial form.
    """
    if isinstance(expr, JPowerSum):
        return expr
    if isinstance(expr, JScale):
        inner = _flatten(expr.expr)
        if inner is None:
            return None
        return JPowerSum(inner.nvars, [(expr.c * c, e, p) for c, e, p in inner.terms])
    if isinstance(expr, JSum):
        terms = []
        nv = expr.nvars
        for p in expr.parts:
            f = _flatten(p)
            if f is None:
                return None
            nv = f.nvars
            terms.extend(f.terms)
        return JPowerSum(nv, terms)
    if isinstance(expr, JProd):
        acc = None
        for fct in expr.factors:
            f = _flatten(fct)
            if f is None:
                return None
            if acc is None:
                acc = f
            else:
                terms = [(c1 * c2, tuple(a + b for a, b in zip(e1, e2)), p1 + p2)
                         for c1, e1, p1 in acc.terms for c2, e2, p2 in f.terms]
                acc = JPowerSum(f.nvars, terms)
        return acc if acc is not None else None
    return None


class PolySymbol:
    """Symbol polynomial in xi: sum over multi-indices of c_alpha(x) xi^alpha.

    Coefficients are JetExpr over the full 2n phase variables but may
    only depend on x (their xi-derivatives must vanish; the constructors
    here guarantee that).  Everything downstream of this representation
    is exact: derivatives, quantization transport, star products.
    """

    def __init__(self, n: int, monomials: dict):
        self.n = n
        self.monomials = {tuple(a): c for a, c in monomials.items() if not c.is_zero}

    def __add__(self, other):
        if not isinstance(other, PolySymbol):
            return NotImplemented
        out = dict(self.monomials)
        for a, c in other.monomials.items():
            out[a] = JSum([out[a], c]) if a in out else c
        return PolySymbol(self.n, out)

    def eval(self, P):
        return self.as_jet().eval(P)

    def as_evaluator(self, name: str = "") -> SymbolEvaluator:
        jet = JetSymbol(self.as_jet())
        return SymbolEvaluator(self.n, self.eval, jet=jet, name=name)

    def as_jet(self) -> JetExpr:
        parts = []
        nv = 2 * self.n
        for a, c in self.monomials.items():
            e = (0,) * self.n + tuple(a)
            parts.append(JProd([c, JPowerSum.monomial(nv, e)]))
        return JSum(parts)

    def coefficient_terms(self):
        """monomial -> flattened JPowerSum terms; None entries where a
        coefficient has no closed monomial form."""
        return {a: _flatten(c) for a, c in self.monomials.items()}

    # -- transport between quantization conventions ------------------------

    def jt(self, t: float) -> "PolySymbol":
        """J_t transport: exp(t (i/2pi) <d_x, d_xi>), a finite sum here.

        Normalization is pinned by J_t(x xi) = x xi + i t/(2 pi) in one
        dimension; the semigroup law J_t J_s = J_{t+s} is then exact on
        coefficients.
        """
        out: dict = {}
        cur = {a: c for a, c in self.monomials.items()}
        k = 0
        while cur:
            scale = (1j * t / (2.0 * np.pi)) ** k / factorial(k)
            for a, c in cur.items():
                sc = JScale(scale, c)
                out[a] = JSum([out[a], sc]) if a in out else sc
            nxt: dict = {}
            for a, c in cur.items():
                for j in range(self.n):
                    if a[j] == 0:
                        continue
                    dc = c.diff(j)  # x_j axis
                    if dc.is_zero:
                        continue
                    a1 = list(a)
                    a1[j] -= 1
                    key = tuple(a1)
                    term = JScale(a[j], dc)
                    nxt[key] = JSum([nxt[key], term]) if key in nxt else term
            cur = nxt
            k += 1
        simplified = {}
        for a, c in out.items():
            f = _flatten(c)
            simplified[a] = f if f is not None else c
        return PolySymbol(self.n, simplified)

    def sharp(self, other: "PolySymbol") -> "PolySymbol":
        """Star product: composition law of the symmetric quantization.

        Exact terminating expansion; the xi-degrees bound the derivative
        orders.  Sign/normalization fixed by xi # x - x # xi = 1/(2 pi i)
        in one dimension.
        """
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        out: dict = {}
        for ga, ca in self.monomials.items():
            for gb, cb in other.monomials.items():
                for gamma in _iter_multi(ga):      # xi-derivatives on self
                    fa = _falling(ga, gamma)
                    if fa == 0:
                        continue
                    for beta in _iter_multi(gb):   # xi-derivatives on other
                        fb = _falling(gb, beta)
                        if fb == 0:
                            continue
                        ka, kb = sum(gamma), sum(beta)
                        scalar = ((1j / (4.0 * np.pi)) ** (ka + kb)
                                  * (-1.0) ** ka * fa * fb
                                  / (_mfact(beta) * _mfact(gamma)))
                        cl = ca
                        for axis, b in enumerate(beta):
                            for _ in range(b):
                                cl = cl.diff(axis)
                        if cl.is_zero:
                            continue
                        cr = cb
                        for axis, g in enumerate(gamma):
                            for _ in range(g):
                                cr = cr.diff(axis)
                        if cr.is_zero:
                            continue
                        key = tuple(ga[j] - gamma[j] + gb[j] - beta[j] for j in range(self.n))
                        term = JScale(scalar, JProd([cl, cr]))
                        out[key] = JSum([out[key], term]) if key in out else term
        simplified = {}
        for a, c in out.items():
            f = _flatten(c)
            simplified[a] = f if f is not None else c
        return PolySymbol(self.n, simplified)


# -- concrete symbols -------------------------------------------------------

def quadratic_confinement(n: int) -> PolySymbol:
    """|x|^2 as a xi-degree-0 symbol."""
    nv = 2 * n
    terms = [(1.0, tuple(2 if i == j else 0 for i in range(nv)), 0.0) for j in range(n)]
    return PolySymbol(n, {(0,) * n: JPowerSum(nv, terms)})


def with_confinement(a2: PolySymbol) -> PolySymbol:
    """a = a2 + |x|^2."""
    return a2 + quadratic_confinement(a2.n)


# -- sampling and seminorms -------------------------------------------------

def box_sample(n: int, half: float, n_grid: int = 7, n_random: int = 2000,
               seed: int = 0) -> np.ndarray:
    """Deterministic sample of the box [-half, half]^{2n}.

    Three layers: an axis-aligned coarse grid (odd count, so degenerate
    loci like x_1 = 0 are always present), two-axis sheets pairing a
    fine core along one axis with an edge ladder along another, and a
    uniform random fill.  The fine core is pinned to [-6, 6] regardless
    of the box, so features living at absolute coordinates (cutoff
    bridges) are hit at identical points in every nested box and sup
    comparisons across boxes measure tail behaviour, not sampling luck.
    """
    d = 2 * n
    axes = [np.linspace(-half, half, n_grid) for _ in range(d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    core = np.linspace(-6.0, 6.0, 241)
    core = core[np.abs(core) <= half]
    frac = np.array([0.25, 0.5, 0.75, 1.0])
    ladder = np.concatenate([[0.0, 1.0, -1.0], half * frac, -half * frac])
    ladder = ladder[np.abs(ladder) <= half]
    sheets = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            uu, vv = np.meshgrid(core, ladder, indexing="ij")
            pts = np.zeros((uu.size, d))
            pts[:, i] = uu.ravel()
            pts[:, j] = vv.ravel()
            sheets.append(pts)
    rng = np.random.default_rng(seed)
    rand = rng.uniform(-half, half, size=(n_random, d))
    return np.concatenate([grid] + sheets + [rand], axis=0)


@dataclass
class SeminormEstimate:
    order: int
    value: float
    argmax: np.ndarray
    sample_size: int
    descriptor: str = ""


def smg_seminorm(s, M, w, k: int, sample: np.ndarray, descriptor: str = "") -> SeminormEstimate:
    """Estimate the order-k class seminorm of s in S(M, g), g the metric
    of the weight m.

    M and w are weights (metric.WeightEvaluator; w gives m).  Field
    maximized: |d_x^beta d_xi^alpha s| * m^{(|a|+|b|)/2}
    * (<xi>^2 + |x|^2)^{-|b|/2} / M, over the sample and all orders <= k.
    A sup over a finite sample only ever certifies growth, never a bound;
    callers gate on stability across nested boxes for that reason.
    """
    Z = np.atleast_2d(np.asarray(sample, dtype=float))
    n = getattr(s, "n")
    m_vals = w.m_values(Z)
    M_vals = M.m_values(Z)
    x, xi = Z[:, :n], Z[:, n:]
    bx2 = 1.0 + (xi * xi).sum(axis=1) + (x * x).sum(axis=1)  # <xi>^2 + |x|^2
    best, arg = -np.inf, Z[0]
    for total in range(k + 1):
        for beta in _iter_multi((total,) * n):
            nb = sum(beta)
            if nb > total:
                continue
            for alpha in _iter_multi((total - nb,) * n):
                na = sum(alpha)
                if na + nb != total:
                    continue
                d = np.abs(np.asarray(s.derivative(beta, alpha, Z)))
                field = d * m_vals ** (total / 2.0) * bx2 ** (-nb / 2.0) / M_vals
                i = int(np.argmax(field))
                if field[i] > best:
                    best, arg = float(field[i]), Z[i]
    return SeminormEstimate(order=k, value=best, argmax=np.asarray(arg),
                            sample_size=Z.shape[0], descriptor=descriptor)


@dataclass
class MembershipReport:
    passed: bool
    estimates: list
    growth: list
    gate: float


def class_membership(s, M, w, k: int, halves: Sequence[float], growth_factor: float = 1.05,
                     n_grid: int = 7, n_random: int = 2000, seed: int = 0) -> MembershipReport:
    """Seminorm growth across nested boxes; slow growth passes.

    halves lists the box half-extents, smallest first.  The pass gate is
    growth under growth_factor per step, the operational reading of
    'bounded' for a sampled sup.
    """
    if len(halves) < 2:
        raise ValueError("need at least two nested boxes")
    n = getattr(s, "n")
    ests = []
    for h in halves:
        sample = box_sample(n, h, n_grid=n_grid, n_random=n_random, seed=seed)
        ests.append(smg_seminorm(s, M, w, k, sample, descriptor=f"box[{-h},{h}]"))
    growth = [ests[i + 1].value / max(ests[i].value, 1e-300) for i in range(len(ests) - 1)]
    return MembershipReport(passed=all(g < growth_factor for g in growth),
                            estimates=ests, growth=growth, gate=growth_factor)


def band_restrict(s, w, R: float) -> SymbolEvaluator:
    """Multiply by the shell bump chi(m/R) of the weight w: support
    exactly R <= m <= 3R."""
    if R <= 1:
        raise ValueError("R must exceed 1")
    n = getattr(s, "n")

    def value(P):
        return np.asarray(s.eval(P)) * band_bump(w.m_values(P) / R)

    name = f"band[{getattr(s, 'name', '') or 'symbol'}, R={R}]"
    return SymbolEvaluator(n, value, jet=None, name=name)
