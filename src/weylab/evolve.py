"""Time evolution: unitary group and contraction semigroup.

Propagation goes through the eigendecomposition by default: one
certified ``spectral.Spectrum`` per operator, the coefficients Q^T f
once, and every output time in one real product Q @ [Re C | Im C].
Norms are measured on the propagated states and energies come from one
product with the sparse operator, so the conservation monitors test the
states that were computed: norm drift and group law defects sit at
rounding level instead of integrator level, and a 1e-10 gate tests the
operator and not the time stepper.  A Crank-Nicolson path exists behind
a flag for sizes where a full decomposition is unreasonable; its
tolerances are looser (1e-6) and that is documented in the trace
metadata.

Sign bookkeeping: the stored operator is the nonnegative H; the heat
flow evolves e^{-tH}, the unitary flow e^{-itH}.  An EvolutionTrace
holds measurements only; cli lays them out in its output files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import HamiltonianMatrix
from .spectral import Spectrum

__all__ = ["Propagator", "EvolutionTrace", "schrodinger_evolve", "heat_evolve"]

SYMMETRY_GATE = 1e-10
HEAT_FLOOR = -1e-9


@dataclass
class EvolutionTrace:
    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    method: str
    meta: str = ""

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _csr(H):
    """The stored operator of a HamiltonianMatrix, or a real array as CSR."""
    from scipy import sparse

    if isinstance(H, HamiltonianMatrix):
        return H.sparse
    return sparse.csr_array(np.asarray(H, dtype=float))


def _from_zero(times) -> np.ndarray:
    """times as floats, none before f's time 0: backwards the heat flow is
    ill-posed, and Crank-Nicolson steps forward only."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"time {times[times < 0][0]:g} is before t = 0, "
                         "where the evolution starts")
    return times


class Propagator:
    """Cached spectral data for one operator, shared across evolutions."""

    def __init__(self, H, kind: str):
        if kind not in ("schrodinger", "heat"):
            raise ValueError("kind must be schrodinger or heat")
        S = _csr(H)
        defect = float(abs(S - S.T).max())
        if defect > SYMMETRY_GATE * max(1.0, float(abs(S).max())):
            raise ValueError(f"operator not symmetric: defect {defect:.3e}")
        # a HamiltonianMatrix goes through whole, so its grid reaches the solver
        spec = Spectrum(H if isinstance(H, HamiltonianMatrix) else S)
        self.kind = kind
        self.A, self.lam, self.Q = spec.A, spec.lam, spec.Q
        self.Qt = np.ascontiguousarray(self.Q.T)
        if kind == "heat" and self.lam[0] < HEAT_FLOOR:
            raise ValueError(
                f"contraction requires spectrum above {HEAT_FLOOR}: found {self.lam[0]:.3e}")

    def _parts(self, f: np.ndarray, times) -> np.ndarray:
        """[Re U | Im U], U the states e^{-itH} f or e^{-tH} f as columns,
        one per time.  Q is real, so Q^T acts once on the real and
        imaginary parts of f, and Q once on all the times together, never
        on a complex copy of itself."""
        f = np.asarray(f)
        t = _from_zero(times) if self.kind == "heat" else np.asarray(times, dtype=float)
        C = self.Qt @ np.stack([f.real, np.imag(f)], axis=1)
        if self.kind == "schrodinger":
            c = (C[:, :1] + 1j * C[:, 1:]) * np.exp(-1j * np.outer(self.lam, t))
            C = np.hstack([c.real, c.imag])
        else:
            E = np.exp(-np.outer(self.lam, t))
            C = np.hstack([C[:, :1] * E, C[:, 1:] * E])
        return self.Q @ C

    def apply(self, f: np.ndarray, t: float) -> np.ndarray:
        """e^{-itH} f, or e^{-tH} f for t >= 0."""
        U = self._parts(f, [t])
        return U[:, 0] + 1j * U[:, 1]


def _trace(prop: Propagator, f, times, meta: str) -> EvolutionTrace:
    times = np.asarray(times, dtype=float)
    f = np.asarray(f, dtype=complex)
    if not np.any(np.abs(f) > 0):
        raise ValueError("initial state must be nonzero")
    U = prop._parts(f, times)
    nt = times.size
    sq = np.sum(U * U, axis=0)
    e = np.sum(U * (prop.A @ U), axis=0)
    return EvolutionTrace(times=times, norms=np.sqrt(sq[:nt] + sq[nt:]),
                          energies=e[:nt] + e[nt:], method="eig", meta=meta)


def _cn_trace(H, f, times, kind: str, meta: str) -> EvolutionTrace:
    """Crank-Nicolson steps, with one sparse LU of I + (i) dt/2 A per
    distinct step dt.  Steps are rounded to 12 significant digits first,
    so the steps of a uniform time grid, which differ in their last bits,
    share one factorization."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    A = _csr(H)
    times = _from_zero(times)
    u = np.asarray(f, dtype=complex).copy()
    c = 0.5j if kind == "schrodinger" else 0.5
    I = sparse.eye_array(A.shape[0])
    factors = {}
    norms, energies = [], []
    prev = 0.0
    for t in times:
        dt = float(f"{t - prev:.12g}")
        if dt > 0:
            if dt not in factors:
                factors[dt] = splu(sparse.csc_array(I + c * dt * A, dtype=complex))
            u = factors[dt].solve(u - c * dt * (A @ u))
        prev = t
        norms.append(np.linalg.norm(u))
        energies.append(float(np.real(np.vdot(u, A @ u))))
    return EvolutionTrace(times=times, norms=np.asarray(norms),
                          energies=np.asarray(energies), method="crank-nicolson",
                          meta=meta + "; tolerance class 1e-6")


def schrodinger_evolve(H, f, times, method: str = "eig") -> EvolutionTrace:
    """u(t) = e^{-itH} f with norm and energy recorded at each time; only
    the eig path, a group, takes t < 0."""
    meta = "unitary group of the stored nonnegative operator"
    if method == "cn":
        return _cn_trace(H, f, times, "schrodinger", meta)
    return _trace(Propagator(H, "schrodinger"), f, times, meta)


def heat_evolve(H, f, times, method: str = "eig") -> EvolutionTrace:
    """u(t) = e^{-tH} f, t >= 0; contraction guaranteed by the spectral floor check."""
    meta = "semigroup convention e^{-tH}, H stored nonnegative"
    if method == "cn":
        return _cn_trace(H, f, times, "heat", meta)
    return _trace(Propagator(H, "heat"), f, times, meta)
