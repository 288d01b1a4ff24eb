"""Time evolution: unitary group and contraction semigroup.

Every evolution goes through the eigendecomposition: one certified
``spectral.Spectrum`` per operator, kept in its parity blocks, and per
block the coefficients W_c^T U_c f once and every output time together.
Norms are measured on the propagated states and energies come from one
product with the sparse operator, so the conservation monitors test the
states that were computed: norm drift and group law defects sit at
rounding level, and a 1e-10 gate tests the operator.  The size is
bounded by the dense limit per parity block: an operator whose blocks
cannot be decomposed whole is refused with a ``SolverError``.

Sign bookkeeping: the stored operator is the nonnegative H; the heat
flow evolves e^{-tH}, the unitary flow e^{-itH}.  An EvolutionTrace
holds measurements only; cli lays them out in its output files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import HamiltonianMatrix
from .spectral import Spectrum, real_csr

__all__ = ["Propagator", "EvolutionTrace", "schrodinger_evolve", "heat_evolve"]

SYMMETRY_GATE = 1e-10
HEAT_FLOOR = -1e-9


@dataclass
class EvolutionTrace:
    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    method: str  # always "eig"; report.json carries it, so earlier manifests reproduce
    meta: str = ""

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _from_zero(times) -> np.ndarray:
    """times as floats, none before f's time 0: the heat flow is ill-posed backwards."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"time {times[times < 0][0]:g} is before t = 0, "
                         "where the evolution starts")
    return times


class Propagator:
    """One operator's certified Spectrum, shared across evolutions, behind
    two gates: a symmetric operator, and for heat a spectrum above HEAT_FLOOR."""

    def __init__(self, H, kind: str):
        if kind not in ("schrodinger", "heat"):
            raise ValueError("kind must be schrodinger or heat")
        S = real_csr(H)
        defect = float(abs(S - S.T).max())
        if defect > SYMMETRY_GATE * max(1.0, float(abs(S).max())):
            raise ValueError(f"operator not symmetric: defect {defect:.3e}")
        # a HamiltonianMatrix goes through whole, so its grid reaches the solver
        self.spectrum = Spectrum(H if isinstance(H, HamiltonianMatrix) else S)
        self.kind = kind
        if kind == "heat" and self.spectrum.lam[0] < HEAT_FLOOR:
            raise ValueError(f"contraction requires spectrum above {HEAT_FLOOR}: "
                             f"found {self.spectrum.lam[0]:.3e}")

    def _parts(self, f: np.ndarray, times) -> np.ndarray:
        """[Re U | Im U], U the states e^{-itH} f or e^{-tH} f as columns,
        one per time, summed over the spectrum's blocks.  W_c is real, so
        W_c^T U_c acts once on the real and imaginary parts of f, and
        U_c^T W_c once on all the times together."""
        t = _from_zero(times) if self.kind == "heat" else np.asarray(times, dtype=float)
        z = 1j if self.kind == "schrodinger" else 1.0
        F = np.stack([np.real(f), np.imag(f)], axis=1)
        out = 0.0
        for Uc, lam, W in self.spectrum.blocks:
            C = W.T @ (F if Uc is None else Uc @ F)
            c = (C[:, :1] + 1j * C[:, 1:]) * np.exp(-z * np.outer(lam, t))
            X = W @ np.hstack([c.real, c.imag])
            out = out + (X if Uc is None else Uc.T @ X)
        return out

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
    e = np.sum(U * (prop.spectrum.A @ U), axis=0)
    return EvolutionTrace(times=times, norms=np.sqrt(sq[:nt] + sq[nt:]),
                          energies=e[:nt] + e[nt:], method="eig", meta=meta)


def schrodinger_evolve(H, f, times) -> EvolutionTrace:
    """u(t) = e^{-itH} f with norm and energy recorded at each time; a
    group, so t < 0 is allowed."""
    return _trace(Propagator(H, "schrodinger"), f, times,
                  "unitary group of the stored nonnegative operator")


def heat_evolve(H, f, times) -> EvolutionTrace:
    """u(t) = e^{-tH} f, t >= 0; contraction guaranteed by the spectral floor check."""
    return _trace(Propagator(H, "heat"), f, times,
                  "semigroup convention e^{-tH}, H stored nonnegative")
