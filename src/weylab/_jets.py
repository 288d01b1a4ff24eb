"""Exact derivative algebra for structured phase-space expressions, the
only way a symbol is differentiated.

Symbols that matter here are built from monomial terms in the 2n phase
coordinates, powers of the bracket core u = <X>^2 = 1 + |x|^2 + |xi|^2
(bracket_sq, its one definition), and univariate functions f, given by
a derivative table, of any inner expression (the plateau profile of x_1,
the shell symbol and the class weight of a weight).  Differentiation maps each atom to a sum
of atoms and f(g) to f'(g) dg, so sums, products and compositions admit
machine-exact jets to any implemented order.  A tree gives its values
and its derivatives' trees (diff); symbols.SymbolEvaluator memoizes the
latter by multi-index.  Symbol-class seminorm checks are
threshold-sensitive enough that this exactness is worth the bookkeeping.
A tree also gives its structural parity under each coordinate reflection
(parity), read off its nodes without evaluating anything: the
phase-space quadrature and the quantizer fold each axis where the tree
is even, and the quantizer's DFT matrices are real sums of cosines for
a real tree even on every xi axis.

Evaluation convention: points are passed as a tuple P of per-coordinate
arrays, ordered x_1..x_n, xi_1..xi_n, that broadcast against each other;
values come back in their broadcast shape.  Rows Z of shape (m, 2n) are
the special case P = tuple(Z.T), and any non-tuple argument is read as
such rows (see coords).  A coordinate that is constant over a block
(x_1 in a Weyl block) is then one value, and everything that depends on
it alone is computed once.  Every node computes each value from its own
point only, in a value type fixed by its coefficients, so
symbols.SymbolEvaluator may cut a 1-D batch into runs of ROW_BLOCK rows
and get the one-shot values bit for bit.
"""

from __future__ import annotations

import math

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


def _common(parities):
    """The parity that all of parities share, 0 when two differ, and +1
    when there are none: the zero expression is even."""
    found = set(parities)
    return found.pop() if len(found) == 1 else (0 if found else 1)


def _zpow(P, e):
    out = None
    for i, ei in enumerate(e):
        if ei:
            f = P[i] ** ei
            out = f if out is None else out * f
    return 1.0 if out is None else out


class JetExpr:
    """Base: immutable expression with symbolic diff and vectorized eval.

    A subclass gives diff(axis), the derivative's tree, _eval(P), the
    values on a tuple that coords has normalized, in the broadcast shape of
    the coordinates they depend on (a term free of x_2 is not repeated along it),
    and parity(axis): +1 when the tree is proven even under the reflection
    z_axis -> -z_axis, -1 when proven odd, 0 when nothing is proven.  The
    proof is structural and conservative: 0 is always a safe answer."""

    nvars: int

    def eval(self, P):
        """Values on the coordinate tuple P (or rows, see coords), in
        the broadcast shape of P."""
        P = coords(P)
        return in_shape(self._eval(P), P)

    @property
    def is_zero(self) -> bool:
        return False

    @property
    def is_one(self) -> bool:
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
        # fixed with the terms: whether u is needed, and the value type (the
        # coefficients decide it: real ones sum in real arithmetic, and a
        # complex one keeps every imaginary part)
        self._need_u = any(p != 0.0 for _, _, p in self.terms)
        self._real = all(np.isrealobj(c) for c, _, _ in self.terms)

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

    @property
    def is_one(self):
        return len(self.terms) == 1 and self.terms[0][0] == 1 \
            and not any(self.terms[0][1]) and self.terms[0][2] == 0.0

    def parity(self, axis):
        """(-1)^e_axis when every term agrees (u is even)."""
        return _common((-1) ** e[axis] for _, e, _ in self.terms)

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
        u = bracket_sq(P, self.nvars // 2) if self._need_u else None
        acc = None
        for c, e, p in self.terms:
            t = _zpow(P, e)
            if p != 0.0:
                t = t * u**p
            # a unit coefficient multiplies nothing (the same bits, less work)
            t = t if c == 1 and self._real else c * t
            acc = t if acc is None else acc + t
        return 0.0 if acc is None else acc


class JUni(JetExpr):
    """f(g) for a univariate f given by a derivative table and an inner
    expression g, differentiated by the chain rule d f^(k)(g) = f^(k+1)(g) dg;
    a dg that is the constant 1 (g a coordinate) multiplies nothing.

    table(order, t) returns the order-th derivative of f at the values t
    of g; it must raise UnsupportedOrderError past its implemented depth.
    A table may declare f's parity as its attribute ``parity`` (+1 even,
    -1 odd); one that declares none counts as 0, nothing proven.
    """

    def __init__(self, inner: JetExpr, table, order=0):
        self.nvars = inner.nvars
        self.inner = inner
        self.table = table
        self.order = order

    def parity(self, axis):
        """f^(k)(g) is even where g is; where g is odd it has f's parity
        times (-1)^k, f^(k)(-t) = q (-1)^k f^(k)(t) for f(-t) = q f(t)."""
        g = self.inner.parity(axis)
        if g != -1:   # even, or nothing proven
            return g
        return getattr(self.table, "parity", 0) * (-1) ** self.order

    def diff(self, axis):
        dg = self.inner.diff(axis)
        if dg.is_zero:
            return dg
        outer = JUni(self.inner, self.table, self.order + 1)
        return outer if dg.is_one else JProd([outer, dg])

    def _eval(self, P):
        return np.asarray(self.table(self.order, self.inner._eval(P)), dtype=float)


class JSum(JetExpr):
    def __init__(self, parts):
        parts = [p for p in parts if not p.is_zero]
        self.parts = parts
        self.nvars = parts[0].nvars if parts else 0

    @property
    def is_zero(self):
        return not self.parts

    def parity(self, axis):
        """The common parity of the parts, else 0."""
        return _common(p.parity(axis) for p in self.parts)

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

    def parity(self, axis):
        """The product of the factors' parities (0 when one is unknown)."""
        return math.prod(f.parity(axis) for f in self.factors)

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
