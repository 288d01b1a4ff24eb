"""Symbol representations and symbol-class machinery.

SymbolEvaluator is the one phase-space function type, given by one
expression or one value function: a JetExpr tree gives both the values
and the memoized exact derivatives, a value function gives the values
and finite-difference derivatives.  PolySymbol is the SymbolEvaluator of
a symbol polynomial in xi with jet-capable x-coefficients; it builds its
tree once.  Weights are SymbolEvaluators too (metric.WeightEvaluator),
so the weight m and the class weight M of a seminorm are symbols.

Seminorm estimation, class-membership gates and band restriction live
here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._jets import (JProd, JPowerSum, JSum, JetExpr, UnsupportedOrderError, bracket_sq,
                    coords, fd_deriv_eval, in_shape, shape_of)
from .profiles import band_bump

__all__ = [
    "SymbolEvaluator", "PolySymbol", "SeminormEstimate", "with_confinement",
    "quadratic_confinement", "smg_seminorm", "class_membership", "band_restrict",
    "box_sample",
]

MAX_DERIV_ORDER = 4
# rows per run of a 1-D batch (_by_rows): planck of the daho weight on
# 2e5 rows then holds 8.7 MB beyond its input, not 31 MB.  Each run is one
# more pass over a jet tree of hundreds of nodes, so a seminorm sample
# (32,893 rows) stays one run: in runs of 8192 class-check took 1.5x as long
ROW_BLOCK = 65536


def _by_rows(fn, P: tuple):
    """fn(P) for a coordinate tuple P, fn returning values in the shape
    of its argument.  A 1-D batch longer than ROW_BLOCK rows is taken in
    equal runs of at most ROW_BLOCK rows (equal, so that no short tail
    run costs a whole tree pass).  Every value depends on its own point
    only, so the runs give the one-shot values bit for bit while the
    temporaries of fn stay at ROW_BLOCK rows.  Other shapes (Weyl blocks,
    quadrature chunks) are bounded by their callers and taken at once."""
    # a cheap test first: most calls (Weyl blocks, quadrature chunks) stop at it
    if any(p.ndim != 1 for p in P) or max(p.size for p in P) <= ROW_BLOCK:
        return fn(P)
    shape = shape_of(P)
    runs = -(-shape[0] // ROW_BLOCK)
    cut = [shape[0] * r // runs for r in range(runs + 1)]
    out = None
    for lo, hi in zip(cut, cut[1:]):
        v = fn(tuple(p if p.size == 1 else p[lo:hi] for p in P))
        if out is None or not np.can_cast(v.dtype, out.dtype, "safe"):
            out = np.empty(shape, v.dtype) if out is None else out.astype(v.dtype)
        out[lo:hi] = v
    return out


class SymbolEvaluator:
    """A symbol on R^n x R^n, given by f: a JetExpr over the 2n variables
    or a value function.

    Points are a tuple P = (x_1..x_n, xi_1..xi_n) of coordinate arrays
    that broadcast against each other; eval and derivative return values
    in the broadcast shape.  Rows Z of shape (m, 2n) are the special case
    tuple(Z.T) and may be passed as they are.  Values are pointwise: a
    1-D batch is evaluated in runs of at most ROW_BLOCK rows (_by_rows),
    and no value may depend on the run it falls in.  A JetExpr f is expr: its
    tree gives the values and, differentiated once per multi-index and
    memoized (jet), the exact derivatives.  Otherwise expr is None, f is
    value_fn, mapping such a tuple (always a tuple) to values, and the
    derivatives are scaled central differences of it.
    """

    def __init__(self, n: int, f, name: str = ""):
        self.n = n
        self.name = name
        self.expr: Optional[JetExpr] = f if isinstance(f, JetExpr) else None
        self.value_fn: Callable = f if self.expr is None else f._eval
        self._jets = {(0,) * (2 * n): self.expr}

    def _points(self, P) -> tuple:
        P = coords(P)
        if len(P) != 2 * self.n:
            raise ValueError(f"{len(P)} coordinates given, the phase space has {2 * self.n}")
        return P

    def eval(self, P):
        return _by_rows(lambda Q: in_shape(self.value_fn(Q), Q), self._points(P))

    def derivative(self, beta, alpha, P):
        """d_x^beta d_xi^alpha at the points P; exact when f is an expression."""
        beta, alpha = tuple(beta), tuple(alpha)
        if len(beta) != self.n or len(alpha) != self.n:
            raise ValueError("multi-index length must equal the dimension")
        if sum(beta) + sum(alpha) > MAX_DERIV_ORDER:
            raise UnsupportedOrderError(
                f"derivative order {sum(beta) + sum(alpha)} beyond the maximum {MAX_DERIV_ORDER}")
        multi = beta + alpha
        if self.expr is None:
            return _by_rows(lambda Q: fd_deriv_eval(self.value_fn, multi, Q), self._points(P))
        return _by_rows(self.jet(multi).eval, self._points(P))

    def jet(self, multi) -> JetExpr:
        """The tree of the derivative d^multi of expr, multi over (x, xi);
        each one is built once, from the tree one order below."""
        multi = tuple(int(v) for v in multi)
        got = self._jets.get(multi)
        if got is None:
            if len(multi) != 2 * self.n:
                raise ValueError(f"multi-index of length {len(multi)}, not {2 * self.n}")
            axis = next(i for i, v in enumerate(multi) if v > 0)
            lower = multi[:axis] + (multi[axis] - 1,) + multi[axis + 1:]
            got = self._jets[multi] = self.jet(lower).diff(axis)
        return got


def _iter_multi(bound):
    return itertools.product(*(range(b + 1) for b in bound))


class PolySymbol(SymbolEvaluator):
    """Symbol polynomial in xi: sum over multi-indices of c_alpha(x) xi^alpha.

    Coefficients are JetExpr over the full 2n phase variables but may
    only depend on x (their xi-derivatives must vanish; the constructors
    here guarantee that).  The tree sum_alpha c_alpha * xi^alpha is built
    once, here; its values and derivatives are exact.
    """

    def __init__(self, n: int, monomials: dict):
        self.monomials = {tuple(a): c for a, c in monomials.items() if not c.is_zero}
        # xi^0 = 1 multiplies nothing: the coefficient is its own term
        super().__init__(n, JSum([JProd([c, JPowerSum.monomial(2 * n, (0,) * n + a)])
                                  if any(a) else c for a, c in self.monomials.items()]))

    def __add__(self, other):
        if not isinstance(other, PolySymbol):
            return NotImplemented
        out = dict(self.monomials)
        for a, c in other.monomials.items():
            out[a] = JSum([out[a], c]) if a in out else c
        return PolySymbol(self.n, out)


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


def smg_seminorm(s, M, w, k: int, sample: np.ndarray) -> SeminormEstimate:
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
    bx2 = bracket_sq(Z, n)  # <xi>^2 + |x|^2
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
                            sample_size=Z.shape[0])


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
        ests.append(smg_seminorm(s, M, w, k, sample))
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
    return SymbolEvaluator(n, value, name)
