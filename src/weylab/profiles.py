"""Smooth cutoff machinery.

Everything here is built from the exponential smoothstep: the plateau
profile that caps the oscillator coefficient and the band bump used to
localize symbols to a weight shell.  All transitions are C-infinity with
exactly matched boundary jets.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PROFILE_DERIV_ORDERS = 6


def smoothstep(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly increasing between.

    Built from exp(-1/u) bump halves; all derivatives vanish at both ends.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    if mid.any():
        v = u[mid]
        a = np.exp(-1.0 / v)
        b = np.exp(-1.0 / (1.0 - v))
        out[mid] = a / (a + b)
    return float(out[0]) if scalar else out


# -- truncated Taylor series ------------------------------------------------
# A series is an array of shape (K, ...) whose row k holds f^(k)(t) / k!.
# Products, quotients and exp follow the usual Taylor-mode recurrences
# (Griewank & Walther, Evaluating Derivatives, 2008, ch. 13); row 0 of
# every result is computed exactly as the plain formula would be.

def _tmul(a, b):
    return np.stack([sum(a[j] * b[k - j] for j in range(k + 1))
                     for k in range(len(a))])


def _tdiv(a, b):
    q = [a[0] / b[0]]
    for k in range(1, len(a)):
        q.append((a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1))) / b[0])
    return np.stack(q)


def _texp(a):
    e = [np.exp(a[0])]
    for k in range(1, len(a)):
        e.append(sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k)
    return np.stack(e)


def _tvar(c0, c1, depth):
    """Series of c0 + c1 (t - t0), truncated after order depth."""
    x = np.zeros((depth + 1,) + np.shape(c0))
    x[0] = c0
    if depth:
        x[1] = c1
    return x


def _beta_jet(t, gamma, depth):
    """beta = 2t(1 - s)(1 + gamma rho) and its t-derivatives 0..depth.

    Returns shape (depth + 1,) + t.shape.  The clip keeps exp(-1/u) away
    from the 0/0 endpoints; the integrand is flat to all orders there so
    the clip is exact to machine precision.
    """
    t = np.clip(np.asarray(t, dtype=float), 2 + 1e-9, 4 - 1e-9)
    one = _tvar(np.ones_like(t), 0.0, depth)
    phi = _texp(_tdiv(-one, _tvar(0.5 * t - 1, 0.5, depth)))
    phic = _texp(_tdiv(-one, _tvar(2 - 0.5 * t, -0.5, depth)))
    total = phi + phic
    rest = one - _tdiv(phi, total)
    # 1 + gamma rho with rho = 4 s (1 - s), s = phi / (phi + phic)
    mix = _tdiv(_tmul(4 * gamma * rest, phi), total) + one
    beta = _tmul(_tmul(_tvar(2 * t, 2.0, depth), rest), mix)
    fact = np.cumprod([1.0] + list(range(1, depth + 1)))
    return beta * fact.reshape((-1,) + (1,) * t.ndim)


# The bridge integral int_2^t beta is a composite rule: [2, 4] is cut into
# _PANELS equal panels (edges 2 + k/128, exact in binary).  Each profile
# keeps int_2^edge at every edge, the running sum of one 8-node
# Gauss-Legendre rule per whole panel, and a point t then costs one 8-node
# rule on its partial panel [edge_k, t]: 8 evaluations of beta, not 64.
# On 2e5 random points and every edge and its neighbours, the values
# differ from one 64-node rule over all of [2, t] by at most 5.3e-15 at
# c' = 3, 2.5e-14 at c' = 0.5 and 2.8e-13 at c' = 10 (3e-15 relative to
# c'^2); against a 40-digit quadrature both rules err by that rounding level.
_PANELS = 256
_EDGES = 2.0 + np.arange(_PANELS + 1) * (2.0 / _PANELS)
_GLX, _GLW = np.polynomial.legendre.leggauss(8)
# distinct bridge |t| per block: the 8-node rule of a value block then
# holds about 3 MB of temporaries, the order-6 series of a derivative 2 MB
BRIDGE_BLOCK = 4096


def _gauss(lo, hi, gamma):
    """int_lo^hi beta for each pair (lo, hi), one 8-node Gauss-Legendre rule each."""
    half = (hi - lo) / 2
    nodes = lo[:, None] + half[:, None] * (_GLX[None, :] + 1)
    return (_beta_jet(nodes, gamma, 0)[0] * _GLW[None, :]).sum(axis=1) * half


def _panel_table(gamma):
    """int_2^edge beta at every panel edge: the running sum of whole panels."""
    return np.concatenate([[0.0], np.cumsum(_gauss(_EDGES[:-1], _EDGES[1:], gamma))])


def _bridge_cumint(t, table, gamma):
    """int_2^t beta for t in [2, 4]: the table up to t's panel plus one
    8-node rule on the rest."""
    k = ((t - 2) * (_PANELS / 2)).astype(np.intp)  # exact for t in [2, 4]
    return table[k] + _gauss(_EDGES[k], t, gamma)


@lru_cache(maxsize=1)
def _bridge_constants():
    """int_2^4 beta at gamma = 0 and its gamma-coefficient, by the panel rule."""
    i1 = float(_panel_table(0.0)[-1])
    irho = float(_panel_table(1.0)[-1]) - i1
    return i1, irho


class CutoffProfileSquared:
    """The squared coefficient profile: t^2 inside |t| <= 2, c'^2 outside
    |t| >= 4, C-infinity bridge in between.

    The bridge is F(t) = 4 + int_2^t beta with beta >= 0 exactly when
    c'^2 >= monotone_threshold(); F(4) = c'^2 holds to rounding because the
    bump mixing weight is solved in closed form from the two bridge
    integrals, taken by the same panel rule as F.  The panel table is built
    once per profile, so each distinct |t| costs 8 evaluations of beta.
    Only the square is representable: the signed square root is not
    differentiable at the origin and nothing downstream needs it.
    """

    def __init__(self, c_prime: float = 3.0):
        if c_prime == 0:
            raise ValueError("c_prime must be nonzero")
        self.c_prime = float(c_prime)
        i1, irho = _bridge_constants()
        self.gamma = (self.c_prime**2 - 4.0 - i1) / irho
        self._table = _panel_table(self.gamma)

    @staticmethod
    def monotone_threshold() -> float:
        """Smallest c'^2 for which this bridge family is nondecreasing on t >= 0."""
        i1, irho = _bridge_constants()
        return 4.0 + i1 - irho

    @property
    def monotone(self) -> bool:
        return self.c_prime**2 >= self.monotone_threshold() - 1e-12

    def __call__(self, t):
        return self._jet(t, 0)

    def derivative(self, t, order: int = 1):
        """Exact t-derivative of the squared profile, orders 1..6."""
        if not 1 <= order <= PROFILE_DERIV_ORDERS:
            raise ValueError(f"order must be in 1..{PROFILE_DERIV_ORDERS}")
        return self._jet(t, order)

    def _jet(self, t, order: int):
        """The order-th t-derivative, order 0 the value.  On the bridge
        each distinct |t| is taken once, BRIDGE_BLOCK of them at a time,
        so the temporaries do not grow with the batch; each value depends
        on its own |t| only, so the blocks cannot change it."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        a = np.abs(t)
        if order < 2:
            inner = 2.0 * t if order else t * t
        else:
            inner = 2.0 if order == 2 else 0.0
        out = np.where(a <= 2.0, inner, 0.0 if order else self.c_prime**2)
        mask = (a > 2.0) & (a < 4.0)
        if mask.any():
            vals, inv = np.unique(a[mask], return_inverse=True)
            on = np.empty_like(vals)
            for lo in range(0, vals.size, BRIDGE_BLOCK):
                v = vals[lo:lo + BRIDGE_BLOCK]
                # F = 4 + int_2^t beta, so F' = beta; the even extension
                # picks up sgn^order
                on[lo:lo + BRIDGE_BLOCK] = (
                    _beta_jet(v, self.gamma, order - 1)[-1] if order
                    else 4.0 + _bridge_cumint(v, self._table, self.gamma))
            out[mask] = np.sign(t[mask]) ** order * on[inv]
        return float(out[0]) if scalar else out


def band_bump(v):
    """chi with support exactly [1, 3] and chi = 1 on [1.2, 2.5].

    Applied to m(X)/R this carves out the weight shell R <= m <= 3R.
    """
    v = np.asarray(v, dtype=float)
    up = smoothstep((v - 1.0) / 0.2)
    down = 1.0 - smoothstep((v - 2.5) / 0.5)
    return np.where((v <= 1.0) | (v >= 3.0), 0.0, up * down)
