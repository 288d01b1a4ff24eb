"""Shared oracles: symbolic derivative tables and a composite tree over
them, a tree with no proven parity, localized trial states,
the direct-sum quantizer, the composition law and the transport between
conventions in closed form, the weight formula, Schatten norms, stencil
symbols, symmetry and positivity witnesses, and call counters."""
import numpy as np
import sympy as sp

from weylab._jets import JetExpr, JPowerSum, JProd, JSum, JUni, UnsupportedOrderError, shape_of
from weylab.hamiltonians import _W2
from weylab.symbols import SymbolEvaluator


def uni_table(expr, var, depth=8):
    """table(order, t) suitable for JUni, derivatives taken symbolically."""
    fns = [sp.lambdify(var, sp.diff(expr, var, k), "numpy")
           for k in range(depth + 1)]

    def table(order, t):
        if order > depth:
            raise UnsupportedOrderError(f"symbolic table depth {depth} exceeded")
        t = np.asarray(t, dtype=float)
        return np.asarray(fns[order](t), dtype=float) * np.ones_like(t)

    return table


def exp_sqrt_bracket_x(n):
    """exp(sqrt(1 + |x|^2)) on R^n x R^n as a tree: a JUni of exp over a
    JUni of sqrt over the polynomial 1 + |x|^2, derivatives by the chain rule."""
    t = sp.Symbol("t")
    inner = JPowerSum(2 * n, [(1.0, (0,) * (2 * n), 0.0)]
                      + [(1.0, tuple(2 * (i == j) for i in range(2 * n)), 0.0) for j in range(n)])
    return JUni(JUni(inner, uni_table(sp.sqrt(t), t)), uni_table(sp.exp(t), t))


def gaussian_packets(grid, count=6, seed=0):
    """Normalized envelope-times-plane-wave states well inside the box."""
    rng = np.random.default_rng(seed)
    pts = grid.points
    out = []
    for _ in range(count):
        center = rng.uniform(-1.0, 1.0)
        width = rng.uniform(0.8, 1.4)
        k = int(rng.integers(-grid.N // 8, grid.N // 8 + 1))
        u = (np.exp(-((pts - center) ** 2) / (2.0 * width**2))
             * np.exp(2j * np.pi * k * pts / (2.0 * grid.L)))
        out.append(u / np.linalg.norm(u))
    return out


def direct_quantize(s, grid, tau):
    """The plain sum A[i, j] = N^-n sum_k s(tau x_i + (1 - tau) x_j, xi_k)
    e^{2 pi i (x_i - x_j) . xi_k}, one row at a time with no FFT; grid
    points and modes are flattened with the first axis outermost."""
    def flat(axis):
        return np.stack([a.ravel() for a in np.meshgrid(*([axis] * grid.n), indexing="ij")], axis=-1)

    X, K = flat(grid.points), flat(grid.modes)
    side = X.shape[0]
    A = np.empty((side, side), dtype=complex)
    for i in range(side):
        P = tau * X[i] + (1.0 - tau) * X
        Z = np.concatenate([np.repeat(P, side, axis=0), np.tile(K, (side, 1))], axis=1)
        S = np.asarray(s.eval(Z)).reshape(side, side)  # [j, k]
        A[i] = np.sum(S * np.exp(2j * np.pi * ((X[i] - X) @ K.T)), axis=1) / side
    return A


X, XI = sp.symbols("x xi", real=True)


def moyal_product(f, g):
    """The Weyl composition f # g of two symbols in one dimension,
    polynomial in XI: the sum over j, l of (i/4pi)^(j+l) (-1)^j / (j! l!)
    d_xi^j d_x^l f * d_x^j d_xi^l g, which ends at the XI-degrees."""
    total = sp.S(0)
    for j in range(sp.degree(f, XI) + 1):
        for l in range(sp.degree(g, XI) + 1):
            total += ((sp.I / (4 * sp.pi)) ** (j + l) * (-1) ** j
                      / (sp.factorial(j) * sp.factorial(l))
                      * sp.diff(f, XI, j, X, l) * sp.diff(g, X, j, XI, l))
    return sp.expand(total)


def transport(f, t):
    """J_t f = exp(t (i/2pi) d_x d_xi) f in one dimension, summed term by
    term until a derivative vanishes: tau-quantization of f is
    output-point quantization of J_(tau - 1) f."""
    total, k = sp.S(0), 0
    while (term := sp.diff(f, X, k, XI, k)) != 0:
        total += (sp.I * t / (2 * sp.pi)) ** k / sp.factorial(k) * term
        k += 1
    return sp.expand(total)


def sympy_symbol(expr):
    """A polynomial in X, XI as a one-dimensional SymbolEvaluator: one
    JPowerSum term per monomial, complex coefficients kept complex."""
    terms = []
    for e, c in sp.Poly(expr, X, XI).terms():
        c = complex(c)
        terms.append((c if c.imag else c.real, e, 0.0))
    return SymbolEvaluator(1, JPowerSum(2, terms), name=str(expr))


class Unproven(JetExpr):
    """The values and derivatives of tree with no parity proven on the
    phase axes in hidden (every axis by default), so nothing folds there;
    seen, when given, collects the broadcast shape of each evaluation's
    points."""

    def __init__(self, tree, seen=None, hidden=None):
        self.nvars, self.tree, self.seen = tree.nvars, tree, seen
        self.hidden = range(tree.nvars) if hidden is None else hidden

    def parity(self, axis):
        return 0 if axis in self.hidden else self.tree.parity(axis)

    def diff(self, axis):
        return Unproven(self.tree.diff(axis), hidden=self.hidden)

    def _eval(self, P):
        if self.seen is not None:
            self.seen.append(shape_of(P))
        return self.tree._eval(P)


def poly(n, monomials):
    """The symbol sum_alpha c_alpha xi^alpha of a dict {alpha: c_alpha},
    the c_alpha trees over the 2n phase variables: one term per entry, in
    dict order, and a c_0 (alpha = 0) is its own term."""
    return SymbolEvaluator(n, JSum([
        JProd([c, JPowerSum.monomial(2 * n, (0,) * n + tuple(a))]) if any(a) else c
        for a, c in monomials.items()]))


def weight_values(model, Z):
    """m = a2 + |x|^2 + <X> of the builders.Model model at the rows of Z,
    in the operation order of WeightEvaluator.from_a2, with a2 summed
    field by field as sum_j c_j(x) xi_axis^2; the weight must match it
    bit for bit."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n = model.n
    x, xi = Z[:, :n], Z[:, n:]
    acc = np.zeros(Z.shape[0])
    for axis, c in model.fields:
        acc = acc + (1.0 if c is None else np.asarray(c.eval(Z))) * xi[:, axis] ** 2
    bracket = np.sqrt(1.0 + (x * x).sum(axis=1) + (xi * xi).sum(axis=1))
    return acc + (x * x).sum(axis=1) + bracket


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name for the test; returns the list of the shapes of
    the first argument of each call."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def schatten_norm(T, r):
    """(sum of singular value^r)^(1/r), from a full SVD."""
    return float(np.sum(np.linalg.svd(np.asarray(T), compute_uv=False) ** r) ** (1.0 / r))


def periodic_mode_symbol(N, h, order=6):
    """Eigenvalues of the periodic second-difference matrix, indexed by
    FFT mode: the Fourier multiplier of the stencil."""
    w = _W2[order]
    theta = 2.0 * np.pi * np.arange(N) / N
    vals = np.full(N, w[0])
    for k in range(1, len(w)):
        vals = vals + 2.0 * w[k] * np.cos(k * theta)
    return vals / h**2


def symmetry_defect(H):
    """max |A - A^T| of a HamiltonianMatrix, on its sparse form."""
    return float(abs(H.sparse - H.sparse.T).max())


def min_ritz(H, trials=1000, seed=0):
    """Cheap PSD witness: smallest Rayleigh quotient over random vectors."""
    v = np.random.default_rng(seed).normal(size=(H.sparse.shape[0], trials))
    v /= np.linalg.norm(v, axis=0)
    return float(np.min(np.einsum("ij,ij->j", v, H.sparse @ v)))
