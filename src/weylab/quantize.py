"""The grid type, and discrete quantization on periodic grids.

The convention throughout uses e^{2 pi i} phases: grid x_i = -L + i h
with h = 2L/N, modes xi_k = k/(2L) for k = -N/2 .. N/2-1, and

    A[i, j] = N^{-n} sum_k s(p_ij, xi_k) e^{2 pi i (x_i - x_j) . xi_k},

where p_ij = tau x_i + (1 - tau) x_j.  At tau = 1, 0 and 1/2 one routine
serves both dimensions: per axis p_ij = nodes[at[i, j]] (the grid at
tau = 1 or 0, the half-step grid at the midpoint) and the phase depends
only on d = (i - j) mod N, so the inverse FFT G of the symbol on the
nodes gives A = G[at, d], O(N^2 log N) instead of O(N^3); in 2-D, one
block and one 2-D transform per first-axis node.  For a real symbol the
midpoint rule gives Hermitian matrices to rounding (about 1e-16 of the
largest entry), not exactly.  Other tau take one transform per row, in
1-D only.  The symbol is evaluated on per-axis node and mode arrays that
broadcast into the block, never on flattened (rows, 2n) points: in a 2-D
block the first-axis point is one value.

Quantizers return plain dense arrays, float64 or complex128 by one rule:
each sampled block is tested against its reflection xi_k -> xi_{-k mod N}
on its mode axes (the Nyquist mode is its own mirror).  When every block
is real-typed and equal to its reflection, each inverse DFT is real in
exact arithmetic; it is taken from the half spectrum (irfftn) and the
matrix is float64.  Otherwise every block takes the complex transform.
Every table weight and a2 symbol is even in xi and samples to blocks that
pass, so their matrices are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jets import JPowerSum
from .symbols import SymbolEvaluator

__all__ = [
    "Grid", "kn_quantize", "weyl_quantize", "tau_quantize",
    "identity_symbol_matrix", "sobolev_norm",
]

DENSE_SIDE_LIMIT = 4096


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the box [-L, L]^n.  Periodic (the default): nodes
    x_i = -L + i h, h = 2L/N, on [-L, L) with FFT-compatible modes.
    Dirichlet: the interior nodes x_i = -L + (i+1) h, h = 2L/(N+1)."""
    n: int
    N: int
    L: float
    boundary: str = "periodic"

    def __post_init__(self):
        if self.boundary not in ("periodic", "dirichlet"):
            raise ValueError("boundary must be periodic or dirichlet")
        periodic = self.boundary == "periodic"
        if self.n not in (1, 2):
            raise ValueError("only one or two spatial dimensions are supported" if periodic
                             else "only one or two dimensions")
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
        first = 0 if self.boundary == "periodic" else 1  # Dirichlet: no node on the wall
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
    """Midpoint quantization (tau = 1/2); Hermitian to rounding for real
    symbols, and real when the symbol is also even in xi (tau_quantize)."""
    return tau_quantize(s, grid, 0.5)


def tau_quantize(s, grid: Grid, tau: float) -> np.ndarray:
    """The dense matrix of s in the tau convention: float64 when every
    sampled symbol block is real and equal to its reflection xi -> -xi
    (then each inverse DFT is real), complex otherwise.  The side limit
    is checked before s is evaluated or anything allocated."""
    if grid.boundary != "periodic":
        raise ValueError("quantization needs a periodic grid")
    side = grid.side()
    if side > DENSE_SIDE_LIMIT:
        raise ValueError(f"dense side {side} exceeds limit {DENSE_SIDE_LIMIT}")
    N, ks = grid.N, np.fft.ifftshift(grid.modes)  # FFT order: the samples need no shift
    idx = np.arange(N)
    d = (idx[:, None] - idx[None, :]) % N
    # per axis, p_ij = nodes[at[i, j]]: half-step nodes at tau = 1/2
    if tau == 0.5:
        nodes, at = -grid.L + (grid.h / 2.0) * np.arange(2 * N - 1), idx[:, None] + idx[None, :]
    elif tau == 1.0 or tau == 0.0:
        nodes, at = grid.points, np.broadcast_to(idx[:, None] if tau else idx[None, :], (N, N))
    elif grid.n == 2:
        raise ValueError("two dimensions: only tau = 0, 1/2 and 1")
    else:
        # generic tau: the point depends on both indices, one block per row
        def rows():
            for i in range(N):
                p = tau * grid.points[i] + (1.0 - tau) * grid.points
                yield s.eval((p[:, None], ks[None, :])), i, (idx, d[i])
        return _gather(rows, (N, N), 1)
    if grid.n == 1:
        S = s.eval((nodes[:, None], ks[None, :]))  # [node, mode]
        return _inverse_dft(S, 1, _even(S, 1))[at, d]

    def blocks():
        # every block whose first-axis point is node: one symbol block, one transform
        for v, node in enumerate(nodes):
            S = s.eval((node, nodes[:, None, None], ks[None, :, None], ks[None, None, :]))
            i1, j1 = np.nonzero(at == v)
            yield S, (i1, slice(None), j1, slice(None)), (at, d[i1, j1][:, None, None], d)
    return _gather(blocks, (N, N, N, N), 2).reshape(side, side)  # [i1, i2, j1, j2]


def _even(X, n: int) -> bool:
    """X is real and equal to its reflection j -> -j mod N on its last n
    (mode) axes, in FFT order; the Nyquist mode is its own mirror.  Then
    its inverse DFT is real in exact arithmetic."""
    if np.iscomplexobj(X):
        return False
    mirror = -np.arange(X.shape[-1]) % X.shape[-1]
    return np.array_equal(X, X[(...,) + np.ix_(*[mirror] * n)])


def _inverse_dft(X, n: int, real: bool) -> np.ndarray:
    """The inverse DFT of X over its last n (mode) axes, in FFT order;
    real: from the half spectrum of an even X (see _even)."""
    axes = tuple(range(X.ndim - n, X.ndim))
    if not real:
        return np.fft.ifftn(X, axes=axes)
    return np.fft.irfftn(X[..., :X.shape[-1] // 2 + 1], s=X.shape[-n:], axes=axes)


def _gather(blocks, shape: tuple, n: int, real: bool = True) -> np.ndarray:
    """A[dst] = G[src] for each (X, dst, src) that blocks() yields, G the
    inverse DFT of the symbol block X over its last n axes.  float64 when
    every X is even; a block that is not starts the gather again in
    complex, so a complex matrix has the same entries as an all-complex
    gather."""
    A = np.empty(shape, dtype=float if real else complex)
    for X, dst, src in blocks():
        if real and not _even(X, n):
            del A
            return _gather(blocks, shape, n, real=False)
        A[dst] = _inverse_dft(X, n, real)[src]
    return A


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
