"""Split phase-space metrics, admissible weights, and their sanity gates.

The metric attached to a weight m is diagonal in the (x, xi) splitting:
g = a_x |dx|^2 + a_xi |dxi|^2 with a_x = (<xi>^2 + |x|^2)/m and
a_xi = 1/m.  The canonical weight m = a + <X> is one expression tree,
whose values and exact jets agree bit for bit.  The symplectic dual
swaps and inverts the coefficients, and the uncertainty ratio
h = sqrt(a_x a_xi / (dual pair)) collapses to <X>/m for this family.

Checks are sampled, vectorized, and report achieved constants plus
explicit witnesses rather than bare booleans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._jets import JPowerSum, JSum, bracket_sq
from .symbols import ROW_BLOCK, SymbolEvaluator, with_confinement

__all__ = [
    "WeightEvaluator", "MetricValues", "MetricCheckReport", "bracket_sq",
    "eval_metric", "eval_dual_metric", "planck",
    "metric_apply", "pair_sample", "check_uncertainty", "check_pairs",
]

UNCERTAINTY_TOL = 1e-12     # check_uncertainty passes h <= 1 + UNCERTAINTY_TOL
PAIR_SCALES = (1.0, 10.0, 100.0)   # pair_sample's coordinate scales
BALL_RADIUS = 0.25          # Y lies in X's g-ball when g_X(Y - X) <= BALL_RADIUS^2
PAIR_GATE = 1e3             # the largest constant a pair check passes with
MAX_ORDER = 8               # the temperate frontier runs over J = 1..MAX_ORDER,
ORDER_GATE = 4              # and passes only with some J <= ORDER_GATE


class WeightEvaluator(SymbolEvaluator):
    """Order function m on phase space: a symbol whose values are real.

    The canonical construction is m = a + <X>, a = a2 + |x|^2, from a
    principal symbol (from_a2): one JetExpr tree gives the values and the
    exact jets, so the weight's own seminorms never touch finite
    differences.  The constructor takes any tree, including deliberately
    broken weights that exercise the failure paths of the checks.
    """

    def m_values(self, Z):
        """m at a coordinate tuple or at rows Z, as eval."""
        return np.asarray(self.eval(Z), dtype=float)

    @classmethod
    def from_a2(cls, a2, name: str = "") -> "WeightEvaluator":
        # a2, then + |x|^2, then + sqrt((1 + |x|^2) + |xi|^2): the order
        # every weight value is pinned to
        m = JSum([with_confinement(a2).expr, JPowerSum.bracket_power(2 * a2.n, 1)])
        return cls(a2.n, m, name=name or "m[a2]")

    @classmethod
    def half_bracket(cls, n: int) -> "WeightEvaluator":
        """m = <X>/2, the expression 0.5 u^(1/2) with exact jets.  Violates
        the uncertainty gate everywhere; kept as the standard
        counterexample input."""
        return cls(n, JPowerSum(2 * n, [(0.5, (0,) * (2 * n), 0.5)]), name="half-bracket")


@dataclass
class MetricValues:
    """Diagonal metric coefficients at a batch of points."""
    ax: np.ndarray
    axi: np.ndarray


def _metric(m, b) -> MetricValues:
    """g from the values m of the weight and b = <X>^2 at the same points."""
    return MetricValues(ax=b / m, axi=1.0 / m)


def _dual_metric(m, b) -> MetricValues:
    """The symplectic dual of _metric(m, b)."""
    return MetricValues(ax=m, axi=m / b)


def eval_metric(w: WeightEvaluator, Z) -> MetricValues:
    return _metric(w.m_values(Z), bracket_sq(Z, w.n))


def eval_dual_metric(w: WeightEvaluator, Z) -> MetricValues:
    """Symplectic dual: coefficients invert and swap blocks."""
    return _dual_metric(w.m_values(Z), bracket_sq(Z, w.n))


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
    constant: Optional[float]     # None when no pair qualified
    order: Optional[int] = None
    n_checked: int = 0
    ball_radius: Optional[float] = None
    witnesses: list = field(default_factory=list)
    frontier: list = field(default_factory=list)

    def summary(self) -> str:
        extra = f", J={self.order}" if self.order is not None else ""
        c = "none" if self.constant is None else f"{self.constant:.6g}"
        return (f"{self.kind}: {'pass' if self.passed else 'FAIL'} "
                f"(C={c}{extra}, checked={self.n_checked}, "
                f"witnesses={len(self.witnesses)})")


def pair_sample(n: int, n_pairs: int, seed: int = 0) -> tuple:
    """Mixed-scale point pairs (X, Y).

    Base points drawn per scale of PAIR_SCALES; half the offsets are
    metric-blind short steps, half are independent redraws across scales,
    so both the slow regime and the far-field temperate regime get
    exercised.  Below 2 pairs per scale no short step is drawn.
    """
    rng = np.random.default_rng(seed)
    per = n_pairs // len(PAIR_SCALES)
    Xs, Ys = [], []
    for s in PAIR_SCALES:
        X = rng.uniform(-s, s, size=(per, 2 * n))
        near = X + rng.normal(scale=0.05 * np.maximum(1.0, np.abs(X)), size=X.shape)
        far_scale = PAIR_SCALES[rng.integers(0, len(PAIR_SCALES))]
        far = rng.uniform(-far_scale, far_scale, size=X.shape)
        half = per // 2
        Y = np.concatenate([near[:half], far[half:]], axis=0)
        Xs.append(X)
        Ys.append(Y)
    return np.concatenate(Xs, axis=0), np.concatenate(Ys, axis=0)


def check_uncertainty(w: WeightEvaluator, Z) -> MetricCheckReport:
    """Gate h <= 1 pointwise on a sample given as rows Z (an array, taken
    in ROW_BLOCK-row slices, as views) or as an iterable of row runs in
    sample order, such as a generator that draws them.  planck runs once
    per run, and all that is kept across runs is the running maximum of
    h, the row count and the first 32 violating rows in sample order: h
    is pointwise, so any runs give the one-shot report bit for bit."""
    runs = ((Z[lo:lo + ROW_BLOCK] for lo in range(0, len(Z), ROW_BLOCK))
            if isinstance(Z, np.ndarray) else Z)
    top, count, witnesses = -np.inf, 0, []
    for run in runs:
        h = planck(w, run)
        top = np.max(h, initial=top)
        bad = np.nonzero(h > 1.0 + UNCERTAINTY_TOL)[0][:32 - len(witnesses)]
        witnesses += [(run[i].tolist(), float(h[i])) for i in bad]
        count += len(h)
    return MetricCheckReport(kind="uncertainty", passed=not witnesses, constant=float(top),
                             n_checked=count, witnesses=witnesses)


def _frontier(ratio, powers) -> tuple:
    """(J, C_J) for J = 1..MAX_ORDER with C_J = sup ratio / s^J, given
    powers[J - 1] = s^J, and the smallest (C_J, J) with J <= ORDER_GATE."""
    frontier = []
    best: tuple = (np.inf, None)
    for J, sJ in enumerate(powers, 1):
        cJ = float(np.max(ratio / sJ))
        frontier.append((J, cJ))
        if J <= ORDER_GATE and cJ < best[0]:
            best = (cJ, J)
    return frontier, best


def check_pairs(w: WeightEvaluator, X, Y) -> list:
    """The slowness, temperateness and g-weight reports on the pairs (X, Y).

    slowness: among pairs with g_X(Y - X) <= BALL_RADIUS^2, the worst
    two-sided metric coefficient ratio must stay under PAIR_GATE.
    temperateness: for each J <= MAX_ORDER the constant is sup ratio /
    s^J, s = 1 + g^dual_X(Y - X); some J <= ORDER_GATE must land under
    PAIR_GATE, and the full (J, C_J) frontier is reported.  gweight: the
    weight ratio m(X)/m(Y), two-sided, on the same g-balls and against
    the same powers of s.  m is evaluated once at X and once at Y, and
    everything derived from it serves all three reports.
    """
    X = np.atleast_2d(np.asarray(X, float))
    Y = np.atleast_2d(np.asarray(Y, float))
    n = w.n
    mX, mY = w.m_values(X), w.m_values(Y)
    bX = bracket_sq(X, n)
    gX, gY = _metric(mX, bX), _metric(mY, bracket_sq(Y, n))
    d = Y - X
    qual = metric_apply(gX, n, d) <= BALL_RADIUS**2
    s = 1.0 + metric_apply(_dual_metric(mX, bX), n, d)
    rx, rxi = gY.ax / gX.ax, gY.axi / gX.axi
    ratio = np.max(np.stack([rx, 1.0 / rx, rxi, 1.0 / rxi]), axis=0)
    wratio = np.maximum(mX / mY, mY / mX)

    with np.errstate(over="ignore"):  # s^J = inf is the limit, and ratio / inf = 0
        powers = [s**J for J in range(1, MAX_ORDER + 1)]
    frontier, best = _frontier(ratio, powers)
    wfrontier, wbest = _frontier(wratio, powers)

    if np.any(qual):
        slow_r = np.where(qual, ratio, 0.0)
        slow_c = float(np.max(slow_r))
        bad = np.nonzero(slow_r > PAIR_GATE)[0]
        slowness = MetricCheckReport(
            kind="slowness", passed=bad.size == 0, constant=slow_c,
            n_checked=int(qual.sum()), ball_radius=BALL_RADIUS,
            witnesses=[(X[i].tolist(), Y[i].tolist(), float(slow_r[i])) for i in bad[:32]])
        wslow_c = float(np.max(np.where(qual, wratio, 0.0)))
    else:
        slowness = MetricCheckReport(kind="slowness", passed=False, constant=None,
                                     n_checked=0, ball_radius=BALL_RADIUS,
                                     witnesses=[("no qualifying pairs", 0.0)])
        wslow_c = None

    passed = best[0] <= PAIR_GATE
    witnesses = []
    if not passed:
        r = ratio / powers[ORDER_GATE - 1]
        witnesses = [(X[i].tolist(), Y[i].tolist(), float(r[i]))
                     for i in np.argsort(r)[::-1][:8]]
    temperateness = MetricCheckReport(kind="temperateness", passed=passed,
                                      constant=best[0], order=best[1], n_checked=len(ratio),
                                      witnesses=witnesses, frontier=frontier)
    wpassed = wslow_c is not None and wslow_c <= PAIR_GATE and wbest[0] <= PAIR_GATE
    gweight = MetricCheckReport(kind="gweight", passed=wpassed,
                                constant=None if wslow_c is None else max(wslow_c, wbest[0]),
                                order=wbest[1], n_checked=len(wratio),
                                ball_radius=BALL_RADIUS, frontier=wfrontier)
    return [slowness, temperateness, gweight]
