"""Exact derivative algebra for structured phase-space expressions.

Symbols that matter here are built from three atoms: monomials in the
2n phase coordinates, powers of the bracket core u = <X>^2 = 1 + |x|^2
+ |xi|^2 (bracket_sq, its one definition), and univariate factors with
a supplied derivative table (the plateau profile).  Each atom family is
closed under partial differentiation, so sums and products of them
admit machine-exact jets to any implemented order.  A tree gives its
values and its derivatives' trees (diff); symbols.SymbolEvaluator
memoizes the latter by multi-index.  Symbol-class seminorm checks are
threshold-sensitive enough that this exactness is worth the bookkeeping.

Evaluation convention: points are passed as a tuple P of per-coordinate
arrays, ordered x_1..x_n, xi_1..xi_n, that broadcast against each other;
values come back in their broadcast shape.  Rows Z of shape (m, 2n) are
the special case P = tuple(Z.T), and any non-tuple argument is read as
such rows (see coords).  A coordinate that is constant over a block
(x_1 in a Weyl block or a quadrature chunk) is then one value, and
everything that depends on it alone is computed once.  Every value is
a function of its own point only, never of the other points of the
batch: symbols.SymbolEvaluator evaluates a 1-D batch in runs of at most
symbols.ROW_BLOCK rows, and a value must not depend on the run it falls in.
"""

from __future__ import annotations

from math import comb

import numpy as np


class UnsupportedOrderError(ValueError):
    pass


def coords(P) -> tuple:
    """The evaluation argument as a tuple of float coordinate arrays: a
    tuple is taken as coordinates, anything else as rows Z, which become
    tuple(Z.T).  A scalar coordinate becomes shape (1,): numpy scalars
    take other power routines than arrays (x**2 is not always x*x), so
    no value may depend on whether a coordinate was passed as a scalar."""
    if isinstance(P, tuple):
        return tuple(np.atleast_1d(np.asarray(p, dtype=float)) for p in P)
    return tuple(np.atleast_2d(np.asarray(P, dtype=float)).T)


def shape_of(P) -> tuple:
    """The broadcast shape of the coordinates in P."""
    return np.broadcast_shapes(*(np.shape(p) for p in P))


def in_shape(v, P):
    """Values v in the broadcast shape of P: an array that has it is
    returned as it is, anything else as a read-only broadcast view."""
    v, shape = np.asarray(v), shape_of(P)
    return v if v.shape == shape else np.broadcast_to(v, shape)


def sqsum(P):
    """Sum of squares of the coordinates in P, added left to right (the
    order of numpy's row sum (Z * Z).sum(axis=-1), so the bits agree)."""
    out = P[0] * P[0]
    for p in P[1:]:
        out = out + p * p
    return out


def bracket_sq(P, n: int):
    """<X>^2 = (1 + |x|^2) + |xi|^2, summed in that order; equals
    <xi>^2 + |x|^2 identically.  P is a coordinate tuple or rows (see
    coords), ordered x_1..x_n, xi_1..xi_n."""
    P = coords(P)
    return 1.0 + sqsum(P[:n]) + sqsum(P[n:])


def _zpow(P, e):
    out = None
    for i, ei in enumerate(e):
        if ei:
            f = P[i] ** ei
            out = f if out is None else out * f
    return 1.0 if out is None else out


class JetExpr:
    """Base: immutable expression with symbolic diff and vectorized eval."""

    nvars: int

    def diff(self, axis: int) -> "JetExpr":
        raise NotImplementedError

    def eval(self, P):
        """Values on the coordinate tuple P (or rows, see coords), in
        the broadcast shape of P."""
        P = coords(P)
        return in_shape(self._eval(P), P)

    def _eval(self, P: tuple):
        """Values on a tuple that coords has already normalized, in the
        broadcast shape of the coordinates they depend on: a term that
        does not depend on x_2 is not repeated along it."""
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

    def _eval(self, P):
        need_u = any(p != 0.0 for _, _, p in self.terms)
        u = bracket_sq(P, self.nvars // 2) if need_u else None
        # the coefficients decide the type: real ones sum in real
        # arithmetic, and a complex one keeps every imaginary part; a
        # unit coefficient multiplies nothing (the same bits, less work)
        real = all(np.isrealobj(c) for c, _, _ in self.terms)
        acc = 0.0 if real else 0j
        for c, e, p in self.terms:
            t = _zpow(P, e)
            if p != 0.0:
                t = t * u**p
            acc = acc + (t if c == 1 else c * t)
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

    def _eval(self, P):
        return np.asarray(self.table(self.order, P[self.axis]), dtype=float)


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

    def _eval(self, P):
        if not self.parts:
            return 0.0
        acc = self.parts[0]._eval(P)
        for p in self.parts[1:]:
            acc = acc + p._eval(P)
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

    def _eval(self, P):
        if self.is_zero:
            return 0.0
        acc = self.factors[0]._eval(P)
        for f in self.factors[1:]:
            acc = acc * f._eval(P)
        return acc


FD_REL_STEP = 1e-3


def fd_deriv_eval(value_fn, multi, P):
    """Central finite-difference jet for evaluator-only symbols, in the
    broadcast shape of P; value_fn takes a coordinate tuple.

    Per-variable steps scale with the coordinate magnitude to control
    cancellation where the symbol is large; one Richardson pass upgrades
    the O(h^2) stencil to O(h^4).  The sums run in complex arithmetic;
    the jet is returned real when every stencil value was real.
    """
    P = coords(P)
    multi = tuple(int(v) for v in multi)
    real = True

    def central(h_scale):
        nonlocal real
        steps = [FD_REL_STEP * h_scale * np.maximum(1.0, np.abs(p)) for p in P]
        acc = np.zeros(shape_of(P), dtype=complex)
        offsets = [[(k, comb(m, k)) for k in range(m + 1)] for m in multi]
        idx = [0] * len(multi)
        while True:
            shift = [0.0] * len(P)
            coeff = 1.0
            parity = 0
            for i, m in enumerate(multi):
                if m == 0:
                    continue
                k, binom = offsets[i][idx[i]]
                coeff *= binom
                parity += k
                shift[i] = (m / 2.0 - k) * steps[i]
            vals = value_fn(tuple(p + d for p, d in zip(P, shift)))
            real = real and np.isrealobj(vals)
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
        denom = np.ones(shape_of(P))
        for i, m in enumerate(multi):
            if m:
                denom = denom * steps[i] ** m
        return acc / denom

    if sum(multi) == 0:
        return in_shape(value_fn(P), P)
    d1, d2 = central(1.0), central(0.5)
    out = d2 + (d2 - d1) / 3.0
    return out.real if real else out
