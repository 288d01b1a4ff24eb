"""The grid type, and discrete quantization on periodic grids.

The convention throughout uses e^{2 pi i} phases: cell-centred nodes
x_i = -L + (i + 1/2) h with h = 2L/N, modes xi_k = k/(2L) for
k = -N/2 .. N/2-1, and

    A[i, j] = N^{-n} sum_k s(p_ij, xi_k) e^{2 pi i (x_i - x_j) . xi_k},

where p_ij = tau x_i + (1 - tau) x_j.  At tau = 1, 0 and 1/2 per axis
p_ij = nodes[at[i, j]] (the grid at tau = 1 or 0, at[i, j] = i or j;
the half-step grid at the midpoint, at[i, j] = i + j) and the phase
depends only on d = (i - j) mod N, so the inverse DFT G of the symbol on
the nodes gives A = G[at, d].  G comes from one small DFT matrix per mode
axis (_dft_matrices), applied to the kept samples by one fixed-shape
matrix product per sample row (_dft): no spectrum is expanded and no FFT
taken.  A half-step row v reads only the d = v (mod 2), as i - j = i + j
(mod 2), so at the midpoint its matrix has the N/2 columns d = 2c + p of
its parity p.  In 1-D, A is that one gather.  Other tau take one
transform per row, in 1-D only.  The symbol is evaluated on per-axis node
and mode arrays that broadcast, never on (rows, 2n) points.

The symbol is evaluated once per reflection orbit: on each axis where
its tree is proven even (JetExpr.parity), a node and its mirror, or a
mode and its mirror, share one sample, picked by index; node i mirrors
to N - 1 - i, half-step node v to 2N - 2 - v, mode k to -k mod N (the
only fold at generic tau).  A folded mode axis's DFT matrix sums each
pair's phases, and a kept node's transform serves its mirror through
the gather's index.  For every table weight and a2 symbol that is about
1/2^{2n} of the samples.  A node's mirror is its negative only to
rounding, so the matrix moves by about 1e-16 of its largest entry where
the nodes are not exact in binary; an axis without a proof keeps every
sample and the unfolded matrix.

The phase table t[a] = e^{2 pi i a/N} is conjugate-symmetric bit for bit
(t[N - a] = conj t[a], t[N/2] = -1) and a folded axis sums the same two
cosines for d and -d.  Where the BLAS products round the transform's
columns d and -d alike, as at every N the tests and the benchmark use, a
real symbol's Weyl matrix and its parity blocks are exactly Hermitian
and the seam is 0; not at every N (daho at N = 34..40 misses by 1e-16 of
max|M|).

In 2-D one run loop (_runs) builds the whole matrix at tau = 0, 1/2 or
1, one block with nothing split, and at 1/2 weyl_blocks' parity blocks
on the axes of proven_split(s), never forming the matrix: per run of
kept rows on every axis (the last innermost; at most ROW_BLOCK (node
pair, d) values over all N^n d, one row of each axis at least) one
symbol block and one transform, copied into term arrays and, on a split
axis, compared with their mirror values for the seam.  The term arrays
then add into the blocks in place, so no bit depends on the run length.

Quantizers return plain dense arrays, float64 or complex128, by the
same proof: when the tree is real-typed and proven even on every xi
axis, every mode axis is folded and its DFT matrix is a real sum of
cosines, so the matrix is float64; otherwise it is complex.  Every
table weight, a2 symbol and shell symbol is real and proven even in xi,
so their matrices are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jets import JPowerSum
from .symbols import ROW_BLOCK, SymbolEvaluator

__all__ = [
    "Grid", "kn_quantize", "weyl_quantize", "tau_quantize",
    "weyl_blocks", "proven_split", "identity_symbol_matrix", "sobolev_norm",
]

DENSE_SIDE_LIMIT = 4096


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the box [-L, L]^n.  Periodic (the default): the
    cell centres x_i = -L + (i + 1/2) h, h = 2L/N, with FFT-compatible
    modes.  Dirichlet: the interior nodes x_i = -L + (i+1) h, h = 2L/(N+1).
    On both, node i mirrors to node N - 1 - i."""
    n: int
    N: int
    L: float
    boundary: str = "periodic"

    def __post_init__(self):
        if self.boundary not in ("periodic", "dirichlet"):
            raise ValueError("boundary must be periodic or dirichlet")
        periodic = self.boundary == "periodic"
        if self.n not in (1, 2):
            raise ValueError("only one or two spatial dimensions are supported")
        if self.N < 8 or (periodic and self.N % 2):
            raise ValueError("N must be even and at least 8" if periodic
                             else "N must be at least 8")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N if self.boundary == "periodic" else self.N + 1)

    @property
    def points(self) -> np.ndarray:
        first = 0.5 if self.boundary == "periodic" else 1.0  # no node on the wall
        return -self.L + self.h * (first + np.arange(self.N))

    def mesh(self) -> np.ndarray:
        """Flattened node coordinates, first axis major; shape (N^n, n)."""
        axes = np.meshgrid(*[self.points] * self.n, indexing="ij")
        return np.stack([x.ravel() for x in axes], axis=1)

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.N // 2, self.N // 2) / (2.0 * self.L)

    @property
    def xi_max(self) -> float:
        return self.N / (4.0 * self.L)

    def side(self) -> int:
        return self.N ** self.n


def kn_quantize(s, grid: Grid) -> np.ndarray:
    """Output-point quantization (tau = 1)."""
    return tau_quantize(s, grid, 1.0)


def weyl_quantize(s, grid: Grid) -> np.ndarray:
    """Midpoint quantization (tau = 1/2); Hermitian for real symbols (bit
    for bit as the module docstring says), and real when the symbol is
    also proven even in xi (tau_quantize)."""
    return tau_quantize(s, grid, 0.5)


def tau_quantize(s, grid: Grid, tau: float) -> np.ndarray:
    """The dense matrix of s in the tau convention: float64 when s's tree
    is real-typed and proven even on every xi axis (then each DFT matrix
    is real), complex otherwise.  s is evaluated once per mirror pair on
    each axis where its tree is proven even (_orbits), on the mode axis
    only at generic tau; an axis without a proof keeps every sample.
    The side limit is checked before s is evaluated or anything allocated."""
    if grid.boundary != "periodic":
        raise ValueError("quantization needs a periodic grid")
    side = grid.side()
    if side > DENSE_SIDE_LIMIT:
        raise ValueError(f"dense side {side} exceeds limit {DENSE_SIDE_LIMIT}")
    if tau in (0.0, 0.5, 1.0):
        return _runs(s, grid, tau, [False] * grid.n)[1][0]
    if grid.n == 2:
        raise ValueError("two dimensions: only tau = 0, 1/2 and 1")
    # generic tau: the point depends on both indices, one transform per row
    N, idx, mode = grid.N, np.arange(grid.N), _orbits(grid.N, s, 1)
    E, K = _dft_matrices([mode], N, False), np.fft.ifftshift(grid.modes)[:mode.max() + 1]
    p = tau * grid.points[:, None] + (1.0 - tau) * grid.points  # [i, j]
    return np.stack([_dft(s.eval((p[i][:, None], K[None, :])), E, [0])[idx, (i - idx) % N]
                     for i in idx])


def proven_split(s) -> list:
    """Per node axis a, s's tree proven even in x_a and xi_a (JetExpr.parity):
    then weyl_quantize(s, grid) commutes with axis a's reflection."""
    return [s.expr.parity(a) == 1 == s.expr.parity(s.n + a) for a in range(s.n)]


def weyl_blocks(s, grid: Grid) -> tuple:
    """The reflection-parity blocks of M = weyl_quantize(s, grid), M never
    formed, and M's seam max|M - PMP| / max|M|, P reflecting every axis of
    proven_split(s).  A split axis keeps its lead nodes i < N/2 as block rows
    and columns, and the block of parity e (0 even, 1 odd) takes M[a, b] +
    (-1)^e M[a, m(b)], m(b) = N - 1 - b: U_c M U_c^T for eigensolve's rows
    (e_i +- e_m(i))/sqrt(2) when M = PMP, which the seam measures and the
    sweep gates.  Other axes keep every node.  The blocks come in C order of
    their parities, not symmetrized (Hermitian as the module docstring says);
    the caller bounds their side (no whole-matrix side limit applies).  Runs
    as in the module docstring; returns (seam, blocks)."""
    if grid.boundary != "periodic":
        raise ValueError("quantization needs a periodic grid")
    return _runs(s, grid, 0.5, proven_split(s))


def _runs(s, grid: Grid, tau: float, split) -> tuple:
    """weyl_blocks at tau in {0, 1/2, 1}, on the axes of split (none: one block, seam 0).
    The whole 1-D matrix is one gather G[row, d]; its term tables would match its size."""
    N, n, half = grid.N, grid.n, tau == 0.5
    nodes = grid.points[0] + grid.h / 2.0 * np.arange(2 * N - 1) if half else grid.points
    # per symbol axis (x_1..x_n, xi_1..xi_n): map[j], index j's kept row (_orbits)
    maps = [_orbits(len(nodes) if a < n else N, s, a) for a in range(2 * n)]
    ks = np.fft.ifftshift(grid.modes)  # FFT order
    P = [nodes[:m.max() + 1] for m in maps[:n]] + [ks[:m.max() + 1] for m in maps[n:]]
    E = _dft_matrices(maps[n:], N, half)
    div = 2 if half else 1  # d's column d // 2: a half-step row of parity p reads d = 2c + p
    ts = [2 if split_a else 1 for split_a in split]
    shape = ts + [N // t for t in ts] * 2  # the term arrays [t..., row..., block column...]
    at = [int(np.prod(shape[k + 1:])) for k in range(3 * n)]
    budget, steps = ROW_BLOCK // N ** n, []
    for p in reversed(P[:n]):
        steps.insert(0, max(1, min(len(p), budget)))
        budget //= len(p)
    terms = []  # per axis, by run: the row, the columns of d and of its mirror, the term
    for a, split_a in enumerate(split):
        t, i, b = np.ix_(np.arange(ts[a]), np.arange(N // ts[a]), np.arange(N // ts[a]))
        j = np.where(t == 1, N - 1 - b, b)  # the column of M
        d = (i - j) % N // div
        row = maps[a][i + j if half else i if tau else j]  # p_ij's node
        if n == 1 and not split_a:
            return 0.0, [_dft(s.eval((P[0][:, None], P[1][None, :])), E, [0])[row, d][0]]
        row = np.broadcast_to(row, d.shape).ravel()
        key = row // steps[a]  # the run; terms keep their order within one
        o = np.argsort(key, kind="stable")
        term = t * at[a] + i * at[n + a] + b * at[2 * n + a]
        mirrored = (j - i) % N // div if split_a else d
        terms.append([row[o], *(x.ravel()[o] * (N // div) ** (n - 1 - a) for x in (d, mirrored)),
                      term.ravel()[o], np.searchsorted(key[o], range(key.max() + 2))])
    T, seam, top = None, 0.0, 0.0
    for run in np.ndindex(*(len(e) - 1 for *_, e in terms)):  # the last axis innermost
        lo = [r * step for r, step in zip(run, steps)]
        pts = [p[l:l + step] for p, l, step in zip(P, lo, steps)] + P[n:]
        S = s.eval(tuple(p.reshape((-1,) + (1,) * (2 * n - 1 - a)) for a, p in enumerate(pts)))
        G = _dft(S, E, lo)
        T = np.empty(shape, G.dtype) if T is None else T
        sel = [[x[e[r]:e[r + 1]] for x in xs] for (*xs, e), r in zip(terms, run)]
        base = [(row - l) * int(np.prod(G.shape[a + 1:]))
                for a, ((row, *_), l) in enumerate(zip(sel, lo))]
        # sum(np.ix_(...)): the flat index of every term of the run, one part per axis
        V = np.take(G, sum(np.ix_(*(r + d for r, (_, d, _, _) in zip(base, sel)))))
        if any(split):
            W = np.take(G, sum(np.ix_(*(r + m for r, (_, _, m, _) in zip(base, sel)))))
            seam = max(seam, np.max(np.abs(V - W), initial=0.0))
            top = max(top, np.max(np.abs(V), initial=0.0), np.max(np.abs(W), initial=0.0))
            del W
        T.reshape(-1)[sum(np.ix_(*(term for *_, term in sel)))] = V
        del G, V  # a run's arrays go before the next run's are made
    flat = T.reshape(ts + [-1])
    for a in np.flatnonzero(split):  # (M[., b], M[., m(b)]) -> (even, odd), in place
        X = np.moveaxis(flat, a, 0)
        for k in np.ndindex(X.shape[1:-1]):
            for c in range(0, X.shape[-1], ROW_BLOCK):
                x, y = X[0][k][c:c + ROW_BLOCK], X[1][k][c:c + ROW_BLOCK]
                x[...], y[...] = x + y, x - y
    side = int(np.prod(shape[n:2 * n]))
    seam = float(seam / top) if any(split) else 0.0
    return seam, [T[e].reshape(side, side) for e in np.ndindex(*ts)]


def _orbits(count: int, s, axis: int) -> np.ndarray:
    """The row map of one symbol axis with count samples: where s's tree
    is proven even on the axis, index j and its mirror share the row
    min(j, mirror), so the kept rows are a prefix and each mirror pair is
    evaluated once.  A node axis mirrors by reversal, j -> count - 1 - j;
    a mode axis by k -> -k mod count.  The mirror is picked by index,
    never by the sign of a sample: a node's mirror is its negative only
    to rounding.  An axis without a proof keeps every sample."""
    j = np.arange(count)
    if s.expr.parity(axis) != 1:
        return j
    return np.minimum(j, count - 1 - j if axis < s.n else -j % count)


def _dft_matrices(maps, N: int, half: bool) -> list:
    """Per mode axis with row map m (_orbits), the inverse DFT from its
    kept modes: E[p][kk, c] = N^{-1} sum over k with m[k] = kk of
    e^{2 pi i d k / N}, d = 2c + p when half (p = 0, 1), else d = c.
    Each phase is read at the integer angle dk mod N from one table t
    with t[N - a] = conj t[a] bit for bit (t[0] = 1, t[N/2] = -1; the
    e^{i pi} of np.exp is not real), so columns d and -d are conjugates
    bit for bit; a folded axis sums the same two cosines for both and is
    real."""
    k, out = np.arange(N, dtype=np.int32), []
    ds = k.reshape(-1, 2).T if half else k[None]
    angle, phase = ds[:, None, :] * k[:, None] % np.int32(N), 2.0 * np.pi / N * k  # [p, k, c]
    t = np.exp(1j * phase[:N // 2 + 1])  # t[a] = e^{2 pi i a/N}, mirrored below
    t[N // 2] = -1.0
    t = np.concatenate([t, t[N // 2 - 1:0:-1].conj()])
    for m in maps:
        K = m.max() + 1
        e = (np.cos(phase) if K < N else t)[angle]
        E = e[:, :K]  # the kept modes are a prefix; each adds its mirror, if it has one
        E[:, m[K:]] += e[:, K:]
        out.append(E / N)
    return out


def _dft(S, E, lo) -> np.ndarray:
    """G[r, c] from samples S[r, kk] over n row axes and n kept-mode axes:
    on each mode axis a, last first, a row times E[a][(lo[a] + r_a) mod
    len(E[a])], its parity's matrix (lo[a]: the first row's index).  One
    fixed-shape matrix product per row, so no bit depends on which rows
    share a call.  A row's zero-mode sample skips the products and goes
    straight to d = 0, so a constant symbol gives the identity exactly."""
    n, zero = len(E), (slice(0, 1),) * len(E)
    S0 = S[(...,) + zero]
    G = np.empty(S.shape[:n] + tuple(e.shape[2] for e in E), np.result_type(S, *E))
    for ps in np.ndindex(*(len(e) for e in E)):
        rows = tuple(slice((p - l) % len(e), None, len(e)) for p, l, e in zip(ps, lo, E))
        Y = S[rows] - S0[rows] if n == 2 else (S[rows] - S0[rows])[:, None]  # 1-D: 1 x K rows
        for e, p in zip(E[::-1], ps[::-1]):
            Y = (Y @ e[p]).swapaxes(-1, -2)
        G[rows] = Y if n == 2 else Y[..., 0]
    rows = tuple(slice(-l % len(e), None, len(e)) for l, e in zip(lo, E))  # column 0 is d = 0
    G[rows + zero] += S0[rows]
    return G


def identity_symbol_matrix(grid: Grid, tau: float = 1.0) -> np.ndarray:
    """Quantization of the constant symbol 1; must be the identity."""
    one = SymbolEvaluator(grid.n, JPowerSum.constant(2 * grid.n, 1.0))
    return tau_quantize(one, grid, tau)


def sobolev_norm(u: np.ndarray, grid: Grid, tau: float) -> float:
    """Fourier-multiplier norm with weight (1 + |xi|^2)^{tau/2}."""
    if grid.boundary != "periodic":
        raise ValueError("quantization needs a periodic grid")
    shape = (grid.N,) * grid.n
    u = np.asarray(u, dtype=complex).reshape(shape)
    uhat = np.fft.fftshift(np.fft.fftn(u)) * grid.h ** grid.n
    # 1 + sum over axes of k_axis^2, summed left to right
    w = sum(np.meshgrid(*[grid.modes ** 2] * grid.n, indexing="ij", sparse=True), 1.0)
    val = np.sum(w**tau * np.abs(uhat) ** 2) / (2.0 * grid.L) ** grid.n
    return float(np.sqrt(val))
