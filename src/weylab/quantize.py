"""Discrete quantization on periodic grids.

The convention throughout uses e^{2 pi i} phases: grid x_i = -L + i h
with h = 2L/N, modes xi_k = k/(2L) for k = -N/2 .. N/2-1, and

    A[i, j] = N^{-n} sum_k s(p_ij, xi_k) e^{2 pi i (x_i - x_j) . xi_k},

where p_ij = tau x_i + (1 - tau) x_j.  tau = 1 evaluates at the output
point, tau = 1/2 at the midpoint; the midpoint rule lands exactly on the
half-step grid, which is what makes the assembly below O(N^2 log N)
instead of O(N^3), and it produces exactly Hermitian matrices for real
symbols.  Between conventions the transport (PolySymbol.jt) acts on
symbols, not matrices: tau-quantization of s equals output-point
quantization of the transported symbol.  Quantizers return plain dense
complex arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _eval_symbol(s, X, XI):
    """Evaluate on broadcast position/frequency blocks, flattening to rows."""
    shape = np.broadcast_shapes(*(a.shape for a in X + XI))
    cols = [np.broadcast_to(a, shape).ravel() for a in X + XI]
    Z = np.stack(cols, axis=-1)
    vals = np.asarray(s.eval(Z))
    return vals.reshape(shape)


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
    if grid.n == 1:
        return _tau_quantize_1d(s, grid, tau)
    if tau == 1.0:
        return _kn_quantize_2d(s, grid)
    if tau == 0.5:
        return _weyl_quantize_2d(s, grid)
    raise NotImplementedError("two dimensions: only tau = 1 and tau = 1/2")


def _tau_quantize_1d(s, grid: Grid, tau: float) -> np.ndarray:
    N, L, h = grid.N, grid.L, grid.h
    xs, ks = grid.points, grid.modes
    idx = np.arange(N)
    d = (idx[:, None] - idx[None, :]) % N
    if tau == 1.0 or tau == 0.0:
        # symbol constant along one matrix index: one batched transform
        S = _eval_symbol(s, (xs[:, None],), (ks[None, :],))  # [point, mode]
        G = np.fft.ifft(np.fft.ifftshift(S, axes=1), axis=1)
        if tau == 1.0:
            A = np.take_along_axis(G, d, axis=1)      # A[i, j] = G[i, (i-j) % N]
        else:
            A = G[idx[None, :], d]                    # A[i, j] = G[j, (i-j) % N]
        return A
    if tau == 0.5:
        mids = -L + (h / 2.0) * np.arange(2 * N - 1)
        S = _eval_symbol(s, (mids[:, None],), (ks[None, :],))
        G = np.fft.ifft(np.fft.ifftshift(S, axes=1), axis=1)
        A = G[idx[:, None] + idx[None, :], d]
        return A
    # generic tau: row-by-row, evaluation point depends on both indices
    A = np.empty((N, N), dtype=complex)
    for i in range(N):
        p = tau * xs[i] + (1.0 - tau) * xs
        S = _eval_symbol(s, (p[:, None],), (ks[None, :],))
        G = np.fft.ifft(np.fft.ifftshift(S, axes=1), axis=1)
        A[i, :] = G[idx, (i - idx) % N]
    return A


def _kn_quantize_2d(s, grid: Grid) -> np.ndarray:
    N, L = grid.N, grid.L
    xs, ks = grid.points, grid.modes
    idx = np.arange(N)
    d = (idx[:, None] - idx[None, :]) % N
    side = N * N
    A = np.empty((side, side), dtype=complex)
    K1 = ks[:, None]
    K2 = ks[None, :]
    for i1 in range(N):
        # all rows sharing x_{i1}: one symbol block, one batched ifft2
        S = _eval_symbol(s, (np.full((N, 1, 1), xs[i1]), xs[:, None, None]),
                         (K1[None, :, :], K2[None, :, :]))
        G = np.fft.ifft2(np.fft.ifftshift(S, axes=(1, 2)), axes=(1, 2))
        for j1 in range(N):
            blk = G[:, d[i1, j1], :]  # rows i2, frequency-shift axis
            A[i1 * N:(i1 + 1) * N, j1 * N:(j1 + 1) * N] = np.take_along_axis(blk, d, axis=1)
    return A


def _weyl_quantize_2d(s, grid: Grid) -> np.ndarray:
    N, L, h = grid.N, grid.L, grid.h
    ks = grid.modes
    idx = np.arange(N)
    mids = -L + (h / 2.0) * np.arange(2 * N - 1)
    mid_idx = idx[:, None] + idx[None, :]
    d = (idx[:, None] - idx[None, :]) % N
    side = N * N
    A = np.empty((side, side), dtype=complex)
    K1 = ks[None, :, None]
    K2 = ks[None, None, :]
    for a in range(2 * N - 1):
        S = _eval_symbol(s, (np.full((1, 1, 1), mids[a]), mids[:, None, None]),
                         (K1, K2))
        G = np.fft.ifft2(np.fft.ifftshift(S, axes=(1, 2)), axes=(1, 2))
        pairs = np.nonzero(mid_idx == a)
        for p1, q1 in zip(*pairs):
            block = G[mid_idx, d[p1, q1], d]
            A[p1 * N:(p1 + 1) * N, q1 * N:(q1 + 1) * N] = block
    return A


def identity_symbol_matrix(grid: Grid, tau: float = 1.0) -> np.ndarray:
    """Quantization of the constant symbol 1; must be the identity."""

    class _One:
        n = grid.n

        @staticmethod
        def eval(Z):
            return np.ones(np.atleast_2d(Z).shape[0])

    return tau_quantize(_One(), grid, tau)


def sobolev_norm(u: np.ndarray, grid: Grid, tau: float) -> float:
    """Fourier-multiplier norm with weight (1 + |xi|^2)^{tau/2}."""
    shape = (grid.N,) * grid.n
    u = np.asarray(u, dtype=complex).reshape(shape)
    uhat = np.fft.fftshift(np.fft.fftn(u)) * grid.h ** grid.n
    ks = grid.modes
    if grid.n == 1:
        w = 1.0 + ks**2
    else:
        w = 1.0 + ks[:, None] ** 2 + ks[None, :] ** 2
    val = np.sum(w**tau * np.abs(uhat) ** 2) / (2.0 * grid.L) ** grid.n
    return float(np.sqrt(val))
