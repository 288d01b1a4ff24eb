"""Empirical norm probes: band-symbol sup bounds, p-norm windows,
subelliptic a-priori constants.

Everything here is an experiment, not a theorem: each probe returns the
full ladder of raw measurements next to its verdict so the verdict can
be recomputed.  Matrix p->p norms for p outside {1, 2, inf} are
bracketed (interpolated upper bound, randomized lower bound), never
reported as point values.  The result types hold measurements only;
cli lays them out in its output files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._jets import JUni
from .metric import WeightEvaluator
from .profiles import power_table, smoothstep
from .quantize import Grid, kn_quantize, sobolev_norm
from .spectral import Spectrum
from .symbols import band_restrict, smg_seminorm

__all__ = [
    "BandProbeResult", "linf_band_probe", "LpProbeResult", "lp_window_probe",
    "SubellipticityResult", "subellipticity_probe", "CalibrationError",
    "STABILITY_GATE",
]

STABILITY_GATE = 0.15   # relative change per refinement step counted stable
SEMINORM_ORDER = 2      # linf_band_probe's class seminorm order
SAMPLE_COUNT = 4000     # linf_band_probe's shell sample size
CALIBRATION_GATE = 0.35  # largest power-calibration residual lp_window_probe accepts


class CalibrationError(RuntimeError):
    pass


# -- sup-norm band probe ----------------------------------------------------

@dataclass
class BandProbeResult:
    R: float
    op_norm: float
    trial_ratio: float
    seminorm: float
    sup_band_weight: float
    quotient: float


def _band_sample(w: WeightEvaluator, R: float, count: int, seed: int) -> np.ndarray:
    """Rejection sample of the shell R <= m <= 3R in the box |x_j|, |xi_j|
    <= 1.05 sqrt(3R), which holds the shell where m >= |x|^2 + |xi|^2 (the
    harmonic weight).  A degenerate weight breaks that (daho: m(0, 0, 0, 20)
    ~ 20 lies in the R = 9 shell), and a sample beyond sqrt(3R) raises."""
    rng = np.random.default_rng(seed)
    half = np.sqrt(3.0 * R) * 1.05
    out = []
    got = 0
    for _ in range(200):
        Z = rng.uniform(-half, half, size=(4 * count, 2 * w.n))
        m = w.m_values(Z)
        keep = (m >= R) & (m <= 3.0 * R)
        Z = Z[keep]
        out.append(Z)
        got += Z.shape[0]
        if got >= count:
            break
    if got < count // 4:
        raise RuntimeError(f"band sampling starved at R={R}")
    Z = np.concatenate(out, axis=0)
    far = np.max(np.abs(Z), axis=1) > np.sqrt(3.0 * R)
    if far.any():
        raise ValueError(f"weight {w.name!r} does not dominate |x|^2 + |xi|^2: at R={R}, "
                         f"{far.mean():.1%} of the shell samples lie beyond sqrt(3R), "
                         "so the sampled box and the grid cut the shell")
    return Z[:count]


def linf_band_probe(w: WeightEvaluator, epsilon: float, R_list: Sequence[float],
                    grid: Grid, seed: int = 0) -> list:
    """Probe the sup-norm bound for shell restrictions of m^{-(n/2) eps}.

    Per R: sample the shell, which must lie in |x_j|, |xi_j| <= sqrt(3R)
    (_band_sample), quantize the band piece m^p chi(m/R) (band_restrict,
    on w's jet tree), measure the max-abs response to the phase-matched
    row maximizer (which attains the exact infinity-operator norm),
    estimate the class seminorm on the shell samples, and form the
    quotient norm / (seminorm * sup of the class weight on the shell).
    The class weight M = m^p is a JUni of profiles.power_table on w's
    tree.  The bound being probed says exactly that this quotient stays
    bounded in R.
    """
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    if min(R_list) <= 1.0:
        raise ValueError("R values must exceed 1")
    n = w.n
    power = -(n / 2.0) * epsilon
    M = WeightEvaluator(n, JUni(w.expr, power_table(power)), name=f"m^{power:g}")
    results = []
    for R in R_list:
        xi_need = np.sqrt(3.0 * R)
        if grid.xi_max < xi_need:
            raise ValueError(
                f"grid too coarse: shell at R={R} reaches |xi|~{xi_need:.2f} "
                f"but modes stop at {grid.xi_max:.2f}")
        sample = _band_sample(w, R, SAMPLE_COUNT, seed + int(R))
        q = band_restrict(w, power, R)
        A = kn_quantize(q, grid)
        row_l1 = np.abs(A).sum(axis=1)
        op_norm = float(np.max(row_l1))
        row = A[int(np.argmax(row_l1))]
        f = np.where(np.abs(row) > 0, np.conj(row) / np.maximum(np.abs(row), 1e-300), 1.0)
        trial_ratio = float(np.max(np.abs(A @ f)) / np.max(np.abs(f)))
        est = smg_seminorm(q, M, w, SEMINORM_ORDER, sample)
        supM = float(np.max(M.m_values(sample)))
        quotient = op_norm / max(est.value * supM, 1e-300)
        results.append(BandProbeResult(R=float(R), op_norm=op_norm, trial_ratio=trial_ratio,
                                       seminorm=est.value, sup_band_weight=supM,
                                       quotient=quotient))
    return results


# -- Lp window probe --------------------------------------------------------

@dataclass
class LpProbeResult:
    p: float
    upper: float
    lower: float
    N: int
    beta_prime: float
    calibration_residual: float


def _interp_upper(A: np.ndarray, p: float, n2: float) -> float:
    """Riesz-Thorin bound on the p -> p norm of A from its 1, 2 and inf
    norms; n2 = |A|_2 comes from the caller, who knows A's spectrum."""
    n1 = float(np.max(np.abs(A).sum(axis=0)))     # columns: 1 -> 1
    ninf = float(np.max(np.abs(A).sum(axis=1)))   # rows: inf -> inf
    if p == 2:
        return n2
    if p == 1:
        return n1
    if np.isinf(p):
        return ninf
    if p < 2:
        theta = 2.0 / p - 1.0          # 1/p = theta/1 + (1-theta)/2
        return n1**theta * n2 ** (1.0 - theta)
    theta = 2.0 / p                    # 1/p = theta/2 + (1-theta)/inf
    return n2**theta * ninf ** (1.0 - theta)


def _lp_bracket(A: np.ndarray, p: float, n2: float, trials: int, rng) -> tuple:
    """(lower, upper) on the p -> p norm of A: at p = 1, 2 and inf the upper
    bound is the exact norm, and so is the lower; other p draw it from rng."""
    upper = _interp_upper(A, p, n2)
    return (upper if p in (1, 2, np.inf) else _lp_lower(A, p, trials, rng)), upper


def _lp_lower(A: np.ndarray, p: float, trials: int, rng) -> float:
    side = A.shape[1]
    best = 0.0
    for t in range(trials):
        if t == 0:
            f = np.ones(side)
        elif t % 3 == 0:
            f = np.zeros(side)
            f[rng.integers(side)] = 1.0
        elif t % 3 == 1:
            f = rng.choice([-1.0, 1.0], size=side)
        else:
            f = rng.normal(size=side)
        g = A @ f
        denom = np.linalg.norm(f, p)
        if denom > 0:
            best = max(best, float(np.linalg.norm(g, p) / denom))
        # one dual-matched refinement: |g|^{p-1} sign pattern back through A^T
        if p > 1 and np.any(g != 0):
            h = np.sign(g) * np.abs(g) ** (p - 1.0)
            f2 = A.T @ h
            if np.linalg.norm(f2, p) > 0:
                best = max(best, float(np.linalg.norm(A @ f2, p) / np.linalg.norm(f2, p)))
    return best


def _target_profile(mesh: np.ndarray, w: WeightEvaluator, beta: float) -> np.ndarray:
    """Per mesh node, the mean of m^{-(n/2) beta} over 256 fixed xi samples:
    one evaluation over (node, sample), x along axis 0 and xi along axis 1."""
    n = mesh.shape[1]
    xi = np.random.default_rng(7).normal(scale=2.0, size=(256, n))
    P = tuple(mesh[:, j:j + 1] for j in range(n)) + tuple(xi.T)
    m = np.broadcast_to(w.m_values(P), (mesh.shape[0], 256))   # a constant m is a scalar
    return np.mean(m ** (-(n / 2.0) * beta), axis=1)


def _calibrate_beta_prime(spec: Spectrum, grid: Grid, w: WeightEvaluator,
                          beta: float, shift: float) -> tuple:
    """Pick the spectral power whose diagonal decay tracks the symbol decay.

    Target profile: the frequency-averaged class weight m^{-(n/2) beta}
    along the grid diagonal.  Candidate powers are scanned and the
    log-log regression slope of diag((H+C)^{-b}) against the target is
    driven to 1; the winning residual must clear CALIBRATION_GATE or the
    experiment refuses to run.  Only the diagonal is formed, from the
    spectrum, never the power itself.
    """
    mesh = grid.mesh()
    target = _target_profile(mesh, w, beta)
    # restrict to a radial annulus: center rows are resolution-limited,
    # edge rows boundary-limited
    r = np.linalg.norm(mesh, axis=1)
    sel = (r > 0.15 * grid.L) & (r < 0.85 * grid.L)
    lt = np.log(target[sel])
    span = lt.max() - lt.min()
    if span < 0.5:
        raise CalibrationError("target profile too flat to calibrate against")
    best = (np.inf, None, None)
    for b in np.linspace(0.1, 2.0, 39) * max(beta, 0.5):
        ld = np.log(spec.power_diagonal(-b, shift)[sel])
        slope = np.polyfit(lt, ld, 1)[0]
        resid = abs(slope - 1.0)
        if resid < best[0]:
            best = (resid, float(b), slope)
    if best[0] > CALIBRATION_GATE:
        raise CalibrationError(
            f"power calibration residual {best[0]:.3f} above gate {CALIBRATION_GATE}; "
            f"closest power {best[1]} (slope {best[2]:.3f})")
    return best[1], best[0]


def lp_window_probe(builder: Callable, grids: Sequence[Grid],
                    w: WeightEvaluator, beta: float, p_list: Sequence[float],
                    shift: float = 1.0, trials: int = 48, seed: int = 0) -> list:
    """Bracket p->p norms of the calibrated negative power across a ladder.

    builder maps a grid to the Hamiltonian; the power applied is fixed by
    the mandatory calibration pre-step on the coarsest grid and reused
    up the ladder so all cells measure the same operator family.  The p
    share one rng in p_list order; p = 1, 2, inf draw nothing (_lp_bracket).
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    rng = np.random.default_rng(seed)
    spec = Spectrum(builder(grids[0]))
    beta_prime, resid = _calibrate_beta_prime(spec, grids[0], w, beta, shift)
    out = []
    for i, grid in enumerate(grids):
        if i:
            spec = Spectrum(builder(grid))
        T = spec.power(-beta_prime, shift)
        # T is SPD with eigenvalues (lam + shift)^(-beta'): the lowest lam gives |T|_2
        n2 = float((spec.lam[0] + shift) ** -beta_prime)
        for p in p_list:
            lower, upper = _lp_bracket(T, p, n2, trials, rng)
            out.append(LpProbeResult(p=float(p), upper=upper, lower=lower,
                                     N=grid.N, beta_prime=beta_prime,
                                     calibration_residual=resid))
    return out


# -- subellipticity ---------------------------------------------------------

@dataclass
class SubellipticityResult:
    tau: float
    ladder: list                  # (N, fitted C1)
    rel_changes: list
    stable: bool


def _bump1(t: np.ndarray, w: float) -> np.ndarray:
    """Smooth profile supported on |t| <= w."""
    u = np.clip(t / w, -1.0, 1.0)
    return smoothstep((u + 1.0) / 0.35) * smoothstep((1.0 - u) / 0.35)


def subellipticity_probe(op_builder: Callable, tau: float,
                         N_list: Sequence[int] = (32, 48, 64), L: float = 4.0,
                         trials: int = 24, seed: int = 0) -> SubellipticityResult:
    """Fit the smallest constant in ||v||_{H^tau} <= C (||Pv|| + ||v||).

    Trial states are smooth compactly supported bumps modulated by plane
    waves.  The mode set mixes a fixed low-frequency block (so the
    maximizing state of a genuinely subelliptic operator is present at
    every refinement), near-Nyquist single-axis probes scaling with N
    (these expose a control operator that is blind to one direction),
    and seeded random draws.  Where the second-axis frequency is high the
    envelope width is also shrunk to the matching oscillator scale, which
    is the near-extremal shape for the degenerate model.
    """
    if not (0.0 < tau <= 2.0):
        raise ValueError("tau must lie in (0, 2]")
    rng = np.random.default_rng(seed)
    ladder = []
    for N in N_list:
        grid = Grid(2, int(N), L)
        P = op_builder(grid)
        pts = grid.points
        h = grid.h
        # the second factor of every envelope, and the first at width 0.9 L
        wide = _bump1(pts, 0.9 * L)
        ktop = N // 2 - 2
        kmid = N // 4
        modes = [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 2), (0, 4),
                 (0, kmid), (kmid, 0), (kmid // 2, kmid // 2),
                 (0, ktop), (ktop, 0)]
        modes += [tuple(rng.integers(-kmid, kmid + 1, size=2)) for _ in range(trials)]
        C1 = 0.0
        for k1, k2 in modes:
            freq2 = np.pi * abs(k2) / L
            bumps = [wide]
            if freq2 > 0:
                bumps.append(_bump1(pts, float(np.clip(freq2**-0.5, 4.0 * h, 0.5 * L))))
            for bump in bumps:
                env = np.outer(bump, wide)
                phase = np.exp(2j * np.pi * (k1 * pts[:, None] + k2 * pts[None, :]) / (2.0 * L))
                v = (env * phase).ravel()
                nv = np.linalg.norm(v)
                if nv == 0:
                    continue
                # sobolev_norm carries the continuum measure; the plain
                # vector norms need the cell factor h to match it
                ratio = sobolev_norm(v, grid, tau) / (h * (np.linalg.norm(P @ v) + nv))
                C1 = max(C1, float(ratio))
        ladder.append((int(N), C1))
    rel = [abs(ladder[i + 1][1] - ladder[i][1]) / max(ladder[i][1], 1e-300)
           for i in range(len(ladder) - 1)]
    return SubellipticityResult(tau=tau, ladder=ladder, rel_changes=rel,
                                stable=all(c < STABILITY_GATE for c in rel))
