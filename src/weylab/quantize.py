"""Discrete quantization on periodic grids.

The convention throughout uses e^{2 pi i} phases: grid x_i = -L + i h
with h = 2L/N, modes xi_k = k/(2L) for k = -N/2 .. N/2-1, and

    A[i, j] = N^{-n} sum_k s(p_ij, xi_k) e^{2 pi i (x_i - x_j) . xi_k},

where p_ij = tau x_i + (1 - tau) x_j.  At tau = 1, 0 and 1/2 one routine
serves both dimensions: per axis p_ij = nodes[at[i, j]] (the grid at
tau = 1 or 0, the half-step grid at the midpoint) and the phase depends
only on d = (i - j) mod N, so the inverse FFT G of the symbol on the
nodes gives A = G[at, d], O(N^2 log N) instead of O(N^3); in 2-D, one
block and one ifft2 per first-axis node.  The midpoint rule gives exactly
Hermitian matrices for real symbols.  Other tau take one transform per
row, in 1-D only.  The symbol is evaluated on per-axis node and mode
arrays that broadcast into the block, never on flattened (rows, 2n)
points: in a 2-D block the first-axis point is one value.  Between
conventions the transport (PolySymbol.jt) acts on symbols, not matrices:
tau-quantization of s equals output-point quantization of the
transported symbol.  Quantizers return plain dense complex arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbols import SymbolEvaluator

__all__ = [
    "Grid", "kn_quantize", "weyl_quantize", "tau_quantize",
    "identity_symbol_matrix", "sobolev_norm",
]

DENSE_SIDE_LIMIT = 4096


@dataclass(frozen=True)
class Grid:
    """Periodic uniform grid on [-L, L)^n with FFT-compatible modes."""
    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only one or two spatial dimensions are supported")
        if self.N < 8 or self.N % 2:
            raise ValueError("N must be even and at least 8")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def points(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.N // 2, self.N // 2) / (2.0 * self.L)

    @property
    def xi_max(self) -> float:
        return self.N / (4.0 * self.L)

    def resolves(self, xi_scale: float, margin: float = 2.0) -> bool:
        """True when the mode range covers xi_scale with headroom."""
        return self.xi_max >= margin * xi_scale

    def side(self) -> int:
        return self.N ** self.n


def kn_quantize(s, grid: Grid) -> np.ndarray:
    """Output-point quantization (tau = 1)."""
    return tau_quantize(s, grid, 1.0)


def weyl_quantize(s, grid: Grid) -> np.ndarray:
    """Midpoint quantization (tau = 1/2); exactly Hermitian for real symbols."""
    return tau_quantize(s, grid, 0.5)


def tau_quantize(s, grid: Grid, tau: float) -> np.ndarray:
    """The dense complex matrix of s in the tau convention.  The side
    limit is checked before s is evaluated or anything allocated."""
    side = grid.side()
    if side > DENSE_SIDE_LIMIT:
        raise ValueError(f"dense side {side} exceeds limit {DENSE_SIDE_LIMIT}")
    N, ks = grid.N, grid.modes
    idx = np.arange(N)
    d = (idx[:, None] - idx[None, :]) % N
    # per axis, p_ij = nodes[at[i, j]]: half-step nodes at tau = 1/2
    if tau == 0.5:
        nodes, at = -grid.L + (grid.h / 2.0) * np.arange(2 * N - 1), idx[:, None] + idx[None, :]
    elif tau == 1.0 or tau == 0.0:
        nodes, at = grid.points, np.broadcast_to(idx[:, None] if tau else idx[None, :], (N, N))
    elif grid.n == 2:
        raise NotImplementedError("two dimensions: only tau = 0, 1/2 and 1")
    else:
        # generic tau: the point depends on both indices, one transform per row
        A = np.empty((N, N), dtype=complex)
        for i in range(N):
            p = tau * grid.points[i] + (1.0 - tau) * grid.points
            S = s.eval((p[:, None], ks[None, :]))
            A[i, :] = np.fft.ifft(np.fft.ifftshift(S, axes=1), axis=1)[idx, d[i]]
        return A
    if grid.n == 1:
        S = s.eval((nodes[:, None], ks[None, :]))  # [node, mode]
        G = np.fft.ifft(np.fft.ifftshift(S, axes=1), axis=1)
        return G[at, d]
    A = np.empty((N, N, N, N), dtype=complex)  # [i1, i2, j1, j2]
    for v, node in enumerate(nodes):
        # every block whose first-axis point is node: one symbol block, one ifft2
        S = s.eval((node, nodes[:, None, None], ks[None, :, None], ks[None, None, :]))
        G = np.fft.ifft2(np.fft.ifftshift(S, axes=(1, 2)), axes=(1, 2))
        i1, j1 = np.nonzero(at == v)
        A[i1, :, j1, :] = G[at, d[i1, j1][:, None, None], d]
    return A.reshape(side, side)


def identity_symbol_matrix(grid: Grid, tau: float = 1.0) -> np.ndarray:
    """Quantization of the constant symbol 1; must be the identity."""
    one = SymbolEvaluator(grid.n, lambda P: 1.0)
    return tau_quantize(one, grid, tau)


def sobolev_norm(u: np.ndarray, grid: Grid, tau: float) -> float:
    """Fourier-multiplier norm with weight (1 + |xi|^2)^{tau/2}."""
    shape = (grid.N,) * grid.n
    u = np.asarray(u, dtype=complex).reshape(shape)
    uhat = np.fft.fftshift(np.fft.fftn(u)) * grid.h ** grid.n
    # 1 + sum over axes of k_axis^2, summed left to right
    w = sum(np.meshgrid(*[grid.modes ** 2] * grid.n, indexing="ij", sparse=True), 1.0)
    val = np.sum(w**tau * np.abs(uhat) ** 2) / (2.0 * grid.L) ** grid.n
    return float(np.sqrt(val))
