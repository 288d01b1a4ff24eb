"""Split phase-space metrics, admissible weights, and their sanity gates.

The metric attached to a weight m is diagonal in the (x, xi) splitting:
g = a_x |dx|^2 + a_xi |dxi|^2 with a_x = (<xi>^2 + |x|^2)/m and
a_xi = 1/m.  Its symplectic dual swaps and inverts the coefficients,
and the uncertainty ratio h = sqrt(a_x a_xi / (dual pair)) collapses to
<X>/m for this family.

Checks are sampled, vectorized, and report achieved constants plus
explicit witnesses rather than bare booleans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._jets import JPowerSum, JSum, JetSymbol
from .symbols import SymbolEvaluator, quadratic_confinement

__all__ = [
    "WeightEvaluator", "MetricValues", "MetricCheckReport", "phase_split",
    "bracket_sq", "eval_metric", "eval_dual_metric", "planck",
    "metric_apply", "pair_sample", "check_uncertainty", "check_slowness",
    "check_temperateness", "check_gweight",
]


def phase_split(Z, n: int):
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    return Z[:, :n], Z[:, n:]


def bracket_sq(Z, n: int):
    """<X>^2 = 1 + |x|^2 + |xi|^2; equals <xi>^2 + |x|^2 identically."""
    x, xi = phase_split(Z, n)
    return 1.0 + (x * x).sum(axis=1) + (xi * xi).sum(axis=1)


class WeightEvaluator(SymbolEvaluator):
    """Order function m on phase space: a symbol whose values are real.

    The canonical construction is m = a2 + |x|^2 + <X> from a principal
    symbol (from_a2), which carries exact jets, so the weight's own
    seminorms never touch finite differences.  The constructor admits any
    vectorized m, including deliberately broken ones used to exercise the
    failure paths of the checks.
    """

    def m_values(self, Z):
        return np.asarray(self.eval(Z), dtype=float)

    @classmethod
    def from_a2(cls, a2, name: str = "") -> "WeightEvaluator":
        n = a2.n

        def fn(Z):
            x, _ = phase_split(Z, n)
            vals = np.asarray(a2.eval(Z))
            if np.iscomplexobj(vals):
                vals = vals.real
            return vals + (x * x).sum(axis=1) + np.sqrt(bracket_sq(Z, n))

        conf = quadratic_confinement(n).monomials[(0,) * n]
        jet = JetSymbol(JSum([a2.as_jet(), conf, JPowerSum.bracket_power(2 * n, 1)]))
        return cls(n, fn, jet=jet, name=name or f"m[{getattr(a2, 'name', 'a2')}]")

    @classmethod
    def half_bracket(cls, n: int) -> "WeightEvaluator":
        """m = <X>/2.  Violates the uncertainty gate everywhere; kept as
        the standard counterexample input."""
        return cls(n, lambda Z: 0.5 * np.sqrt(bracket_sq(Z, n)), name="half-bracket")


@dataclass
class MetricValues:
    """Diagonal metric coefficients at a batch of points."""
    ax: np.ndarray
    axi: np.ndarray


def eval_metric(w: WeightEvaluator, Z) -> MetricValues:
    m = w.m_values(Z)
    return MetricValues(ax=bracket_sq(Z, w.n) / m, axi=1.0 / m)


def eval_dual_metric(w: WeightEvaluator, Z) -> MetricValues:
    """Symplectic dual: coefficients invert and swap blocks."""
    m = w.m_values(Z)
    return MetricValues(ax=m, axi=m / bracket_sq(Z, w.n))


def planck(w: WeightEvaluator, Z) -> np.ndarray:
    """h = sqrt(g/g^dual) ratio; <X>/m in closed form for this family."""
    return np.sqrt(bracket_sq(Z, w.n)) / w.m_values(Z)


def metric_apply(vals: MetricValues, n: int, T) -> np.ndarray:
    """Quadratic form of the (dual) metric on tangent rows T."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    tx, txi = T[:, :n], T[:, n:]
    return vals.ax * (tx * tx).sum(axis=1) + vals.axi * (txi * txi).sum(axis=1)


@dataclass
class MetricCheckReport:
    kind: str
    passed: bool
    constant: float
    order: Optional[int] = None
    n_checked: int = 0
    ball_radius: Optional[float] = None
    witnesses: list = field(default_factory=list)
    frontier: list = field(default_factory=list)

    def summary(self) -> str:
        extra = f", J={self.order}" if self.order is not None else ""
        return (f"{self.kind}: {'pass' if self.passed else 'FAIL'} "
                f"(C={self.constant:.6g}{extra}, checked={self.n_checked}, "
                f"witnesses={len(self.witnesses)})")


def pair_sample(n: int, n_pairs: int, seed: int = 0,
                scales: Sequence[float] = (1.0, 10.0, 100.0)) -> tuple:
    """Mixed-scale point pairs (X, Y).

    Base points drawn per scale bucket; half the offsets are metric-blind
    short steps, half are independent redraws across buckets, so both the
    slow regime and the far-field temperate regime get exercised.
    """
    rng = np.random.default_rng(seed)
    per = n_pairs // len(scales)
    Xs, Ys = [], []
    for s in scales:
        X = rng.uniform(-s, s, size=(per, 2 * n))
        near = X + rng.normal(scale=0.05 * np.maximum(1.0, np.abs(X)), size=X.shape)
        far_scale = scales[rng.integers(0, len(scales))]
        far = rng.uniform(-far_scale, far_scale, size=X.shape)
        half = per // 2
        Y = np.concatenate([near[:half], far[half:]], axis=0)
        Xs.append(X)
        Ys.append(Y)
    return np.concatenate(Xs, axis=0), np.concatenate(Ys, axis=0)


def check_uncertainty(w: WeightEvaluator, Z, tol: float = 1e-12) -> MetricCheckReport:
    """Gate h <= 1 pointwise."""
    h = planck(w, Z)
    bad = np.nonzero(h > 1.0 + tol)[0]
    witnesses = [(np.asarray(Z)[i].tolist(), float(h[i])) for i in bad[:32]]
    return MetricCheckReport(kind="uncertainty", passed=bad.size == 0,
                             constant=float(np.max(h)), n_checked=len(h),
                             witnesses=witnesses)


def _component_ratio(mv_x: MetricValues, mv_y: MetricValues) -> np.ndarray:
    rx = mv_y.ax / mv_x.ax
    rxi = mv_y.axi / mv_x.axi
    return np.max(np.stack([rx, 1.0 / rx, rxi, 1.0 / rxi]), axis=0)


def check_slowness(w: WeightEvaluator, X, Y, ball_radius: float = 0.25,
                   gate: float = 1e3) -> MetricCheckReport:
    """Metric comparable on its own small balls.

    Among pairs with g_X(Y - X) <= ball_radius^2, the worst two-sided
    coefficient ratio must stay under the gate.
    """
    X = np.atleast_2d(np.asarray(X, float))
    Y = np.atleast_2d(np.asarray(Y, float))
    gX = eval_metric(w, X)
    d = Y - X
    qual = metric_apply(gX, w.n, d) <= ball_radius**2
    if not np.any(qual):
        return MetricCheckReport(kind="slowness", passed=False, constant=np.inf,
                                 n_checked=0, ball_radius=ball_radius,
                                 witnesses=[("no qualifying pairs", 0.0)])
    ratio = _component_ratio(gX, eval_metric(w, Y))
    r = np.where(qual, ratio, 0.0)
    worst = float(np.max(r))
    bad = np.nonzero(r > gate)[0]
    witnesses = [(X[i].tolist(), Y[i].tolist(), float(r[i])) for i in bad[:32]]
    return MetricCheckReport(kind="slowness", passed=bad.size == 0, constant=worst,
                             n_checked=int(qual.sum()), ball_radius=ball_radius,
                             witnesses=witnesses)


def _frontier(ratio, s, max_order: int, order_gate: int) -> tuple:
    """(J, C_J) for J = 1..max_order with C_J = sup ratio / s^J, and the
    smallest (C_J, J) with J <= order_gate."""
    frontier = []
    best: tuple = (np.inf, None)
    for J in range(1, max_order + 1):
        cJ = float(np.max(ratio / s**J))
        frontier.append((J, cJ))
        if J <= order_gate and cJ < best[0]:
            best = (cJ, J)
    return frontier, best


def check_temperateness(w: WeightEvaluator, X, Y, gate: float = 1e3,
                        max_order: int = 8, order_gate: int = 4) -> MetricCheckReport:
    """Far-field comparison against powers of the dual distance.

    For each J the achieved constant is sup ratio / (1 + g^dual_X(Y-X))^J;
    pass requires some J <= order_gate to land under the gate.  The full
    (J, C_J) frontier is reported.
    """
    X = np.atleast_2d(np.asarray(X, float))
    Y = np.atleast_2d(np.asarray(Y, float))
    ratio = _component_ratio(eval_metric(w, X), eval_metric(w, Y))
    s = 1.0 + metric_apply(eval_dual_metric(w, X), w.n, Y - X)
    frontier, best = _frontier(ratio, s, max_order, order_gate)
    passed = best[0] <= gate
    witnesses = []
    if not passed:
        J = order_gate
        r = ratio / s**J
        for i in np.argsort(r)[::-1][:8]:
            witnesses.append((X[i].tolist(), Y[i].tolist(), float(r[i])))
    return MetricCheckReport(kind="temperateness", passed=passed, constant=best[0],
                             order=best[1], n_checked=len(ratio),
                             witnesses=witnesses, frontier=frontier)


def check_gweight(w: WeightEvaluator, X, Y, ball_radius: float = 0.25,
                  gate: float = 1e3, max_order: int = 8,
                  order_gate: int = 4) -> MetricCheckReport:
    """Weight admissibility against its own metric: comparable on small
    g-balls and dual-temperate at range, both on the weight ratio."""
    X = np.atleast_2d(np.asarray(X, float))
    Y = np.atleast_2d(np.asarray(Y, float))
    mX, mY = w.m_values(X), w.m_values(Y)
    ratio = np.maximum(mX / mY, mY / mX)
    gX = eval_metric(w, X)
    d = Y - X
    qual = metric_apply(gX, w.n, d) <= ball_radius**2
    slow_c = float(np.max(np.where(qual, ratio, 0.0))) if np.any(qual) else np.inf
    s = 1.0 + metric_apply(eval_dual_metric(w, X), w.n, d)
    frontier, best = _frontier(ratio, s, max_order, order_gate)
    passed = slow_c <= gate and best[0] <= gate
    return MetricCheckReport(kind="gweight", passed=passed,
                             constant=max(slow_c, best[0]), order=best[1],
                             n_checked=len(ratio), ball_radius=ball_radius,
                             frontier=frontier)
