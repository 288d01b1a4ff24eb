"""Exact derivative algebra for structured phase-space expressions.

Symbols that matter here are built from three atoms: monomials in the
2n phase coordinates, powers of the bracket core u = 1 + |x|^2 + |xi|^2,
and univariate factors with a supplied derivative table (the plateau
profile).  Each atom family is closed under partial differentiation, so
sums and products of them admit machine-exact jets to any implemented
order.  Symbol-class seminorm checks are threshold-sensitive enough that
this exactness is worth the bookkeeping.

Evaluation convention: points are passed as Z with shape (m, 2n),
columns ordered x_1..x_n, xi_1..xi_n.
"""

from __future__ import annotations

from math import comb

import numpy as np


class UnsupportedOrderError(ValueError):
    pass


def _zpow(Z, e):
    out = None
    for i, ei in enumerate(e):
        if ei:
            f = Z[..., i] ** ei
            out = f if out is None else out * f
    if out is None:
        return np.ones(Z.shape[:-1])
    return out


class JetExpr:
    """Base: immutable expression with symbolic diff and vectorized eval."""

    nvars: int

    def diff(self, axis: int) -> "JetExpr":
        raise NotImplementedError

    def eval(self, Z: np.ndarray):
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return False


class JPowerSum(JetExpr):
    """sum_T c_T * z^{e_T} * u^{p_T} with u = 1 + |z|^2.

    Covers plain polynomials (p = 0), bracket powers <X>^s (p = s/2) and
    everything differentiation generates from them:
      d/dz_i [z^e u^p] = e_i z^{e - d_i} u^p + 2 p z^{e + d_i} u^{p-1}.
    """

    def __init__(self, nvars: int, terms):
        self.nvars = nvars
        merged = {}
        for c, e, p in terms:
            if c == 0:
                continue
            key = (tuple(int(v) for v in e), float(p))
            merged[key] = merged.get(key, 0) + c
        self.terms = tuple((c, e, p) for (e, p), c in merged.items() if c != 0)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, [(c, (0,) * nvars, 0.0)])

    @classmethod
    def monomial(cls, nvars, e, c=1.0):
        return cls(nvars, [(c, tuple(e), 0.0)])

    @classmethod
    def bracket_power(cls, nvars, s):
        """<Z>^s = u^{s/2}."""
        return cls(nvars, [(1.0, (0,) * nvars, s / 2.0)])

    @property
    def is_zero(self):
        return not self.terms

    def diff(self, axis):
        out = []
        for c, e, p in self.terms:
            if e[axis]:
                e1 = list(e)
                e1[axis] -= 1
                out.append((c * e[axis], tuple(e1), p))
            if p != 0.0:
                e2 = list(e)
                e2[axis] += 1
                out.append((2.0 * p * c, tuple(e2), p - 1.0))
        return JPowerSum(self.nvars, out)

    def eval(self, Z):
        Z = np.asarray(Z, dtype=float)
        need_u = any(p != 0.0 for _, _, p in self.terms)
        u = 1.0 + (Z * Z).sum(axis=-1) if need_u else None
        # real coefficients sum in real arithmetic: the same values as the
        # real part of a complex sum, without its temporaries
        real = all(np.isrealobj(c) for c, _, _ in self.terms)
        acc = np.zeros(Z.shape[:-1], dtype=float if real else complex)
        for c, e, p in self.terms:
            t = c * _zpow(Z, e)
            if p != 0.0:
                t = t * u**p
            acc = acc + t
        if not real and np.allclose(acc.imag, 0.0):
            return acc.real
        return acc


class JUni(JetExpr):
    """f(z_axis) for a univariate f given by a derivative table.

    table(order, t) returns the order-th derivative of f at t; it must
    raise UnsupportedOrderError past its implemented depth.
    """

    def __init__(self, nvars, axis, table, order=0):
        self.nvars = nvars
        self.axis = axis
        self.table = table
        self.order = order

    def diff(self, axis):
        if axis != self.axis:
            return JPowerSum(self.nvars, [])
        return JUni(self.nvars, self.axis, self.table, self.order + 1)

    def eval(self, Z):
        Z = np.asarray(Z, dtype=float)
        return np.asarray(self.table(self.order, Z[..., self.axis]), dtype=float)


class JSum(JetExpr):
    def __init__(self, parts):
        parts = [p for p in parts if not p.is_zero]
        self.parts = parts
        self.nvars = parts[0].nvars if parts else 0

    @property
    def is_zero(self):
        return not self.parts

    def diff(self, axis):
        return JSum([p.diff(axis) for p in self.parts])

    def eval(self, Z):
        Z = np.asarray(Z, dtype=float)
        if not self.parts:
            return np.zeros(Z.shape[:-1])
        acc = self.parts[0].eval(Z)
        for p in self.parts[1:]:
            acc = acc + p.eval(Z)
        return acc


class JProd(JetExpr):
    def __init__(self, factors):
        self.factors = list(factors)
        self.nvars = self.factors[0].nvars

    @property
    def is_zero(self):
        return any(f.is_zero for f in self.factors)

    def diff(self, axis):
        parts = []
        for i in range(len(self.factors)):
            df = self.factors[i].diff(axis)
            if df.is_zero:
                continue
            parts.append(JProd(self.factors[:i] + [df] + self.factors[i + 1:]))
        return JSum(parts)

    def eval(self, Z):
        Z = np.asarray(Z, dtype=float)
        if self.is_zero:
            return np.zeros(Z.shape[:-1])
        acc = self.factors[0].eval(Z)
        for f in self.factors[1:]:
            acc = acc * f.eval(Z)
        return acc


class JScale(JetExpr):
    def __init__(self, c, expr):
        self.c = c
        self.expr = expr
        self.nvars = expr.nvars

    @property
    def is_zero(self):
        return self.c == 0 or self.expr.is_zero

    def diff(self, axis):
        return JScale(self.c, self.expr.diff(axis))

    def eval(self, Z):
        return self.c * self.expr.eval(Z)


class JetSymbol:
    """Memoizing wrapper: derivative expressions keyed by multi-index."""

    def __init__(self, root: JetExpr):
        self.root = root
        self.nvars = root.nvars
        self._cache = {(0,) * root.nvars: root}

    def expr(self, multi) -> JetExpr:
        multi = tuple(int(v) for v in multi)
        if len(multi) != self.nvars:
            raise ValueError("multi-index length mismatch")
        got = self._cache.get(multi)
        if got is not None:
            return got
        axis = next(i for i, v in enumerate(multi) if v > 0)
        lower = list(multi)
        lower[axis] -= 1
        got = self.expr(tuple(lower)).diff(axis)
        self._cache[multi] = got
        return got

    def deriv_eval(self, multi, Z):
        return self.expr(multi).eval(np.asarray(Z, dtype=float))


FD_REL_STEP = 1e-3


def fd_deriv_eval(value_fn, multi, Z):
    """Central finite-difference jet for evaluator-only symbols.

    Per-variable steps scale with the coordinate magnitude to control
    cancellation where the symbol is large; one Richardson pass upgrades
    the O(h^2) stencil to O(h^4).
    """
    Z = np.asarray(Z, dtype=float)
    multi = tuple(int(v) for v in multi)

    def central(h_scale):
        steps = FD_REL_STEP * h_scale * np.maximum(1.0, np.abs(Z))
        acc = np.zeros(Z.shape[:-1], dtype=complex)
        offsets = [[(k, comb(m, k)) for k in range(m + 1)] for m in multi]
        idx = [0] * len(multi)
        while True:
            shift = np.zeros_like(Z)
            coeff = 1.0
            parity = 0
            for i, m in enumerate(multi):
                if m == 0:
                    continue
                k, binom = offsets[i][idx[i]]
                coeff *= binom
                parity += k
                shift[..., i] = (m / 2.0 - k) * steps[..., i]
            vals = value_fn(Z + shift)
            acc = acc + ((-1) ** parity) * coeff * np.asarray(vals)
            # odometer over the per-variable stencil nodes
            for i in range(len(multi)):
                if multi[i] == 0:
                    continue
                idx[i] += 1
                if idx[i] <= multi[i]:
                    break
                idx[i] = 0
            else:
                break
        denom = np.ones(Z.shape[:-1])
        for i, m in enumerate(multi):
            if m:
                denom = denom * steps[..., i] ** m
        return acc / denom

    if sum(multi) == 0:
        return np.asarray(value_fn(Z))
    d1, d2 = central(1.0), central(0.5)
    out = d2 + (d2 - d1) / 3.0
    if np.allclose(np.asarray(out).imag, 0.0):
        return np.asarray(out).real
    return out
