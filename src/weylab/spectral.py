"""Certified eigensolves, growth fits, and the compactness trend
experiment.

The trend experiment is the one place where a continuum question (does a
negative power of the weight lie in a Schatten class) meets finite
matrices.  No single matrix decides it; the protocol is a bundle of
ladders: Schatten values of the quantized weight across grid refinement,
raw phase-space integrals across box growth, and a dyadic band-sum slope
compared against the same slope at the self-calibrated critical
exponent.  The band slope is the classifying signal; the other two are
emitted raw so every verdict can be recomputed from the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .hamiltonians import HamiltonianMatrix
from .metric import WeightEvaluator
from .quantize import Grid, weyl_quantize

__all__ = [
    "SpectralResult", "GrowthFit", "SolverError", "eigensolve", "growth_fit",
    "phase_box_integral", "band_slope", "SchattenTrendReport", "schatten_sweep",
]

RESIDUAL_REL_TOL = 1e-8
GAP_REL_TOL = 1e-6
DENSE_LIMIT = 4096
EXTRA_PAIRS = 4
START_SEED = 0          # Lanczos start vectors are drawn from this seed
BAND_BASE = 3.0         # band_slope shells: BAND_BASE^k <= m < BAND_BASE^(k+1)
BAND_KMIN, BAND_KMAX = 1, 4
BAND_BOX_FACTOR = 1.02  # box margin past the last counted shell


class SolverError(RuntimeError):
    pass


@dataclass
class SpectralResult:
    eigenvalues: np.ndarray
    residuals: np.ndarray
    solver: str
    eigenvectors: Optional[np.ndarray] = None

    def __post_init__(self):
        d = np.diff(self.eigenvalues)
        if d.size and np.min(d) < -1e-12:
            raise ValueError("eigenvalues must be ascending")


def eigensolve(H, k: int, want_vectors: bool = True) -> SpectralResult:
    """Lowest k eigenpairs of a symmetric (or Hermitian) matrix, certified.

    H is a HamiltonianMatrix, a scipy sparse matrix or an array.  Up to
    ``DENSE_LIMIT`` rows: one subset ``scipy.linalg.eigh``.  Above it:
    shift-invert Lanczos (``scipy.sparse.linalg.eigsh``, start vector
    drawn from ``START_SEED``) around a Gershgorin lower bound sigma, so
    that A - sigma I is positive definite and the eigenvalues nearest
    sigma are the lowest ones whatever the sign of the spectrum.

    Both paths compute p >= 1 extra pairs and raise SolverError unless
    every residual is at most 1e-8 |A|_2, |A|_2 = max(|lambda_1|,
    lambda_max), and the computed count is complete: tau goes in the
    first gap at or after lambda_k wider than ``GAP_REL_TOL`` |A|_2 (p
    doubles until there is one), and the negative pivots of an LDL^T of
    A - tau I, which count the eigenvalues below tau (Sylvester), must
    equal the number computed below tau.  A skipped eigenvalue passes
    the residual gate; it fails this count.
    """
    from scipy import sparse

    S = H.sparse if isinstance(H, HamiltonianMatrix) else sparse.csr_array(H)
    side = S.shape[0]
    if not 0 < k <= side:
        raise ValueError("k must lie between 1 and the dimension")
    S = 0.5 * (S + S.conj().T)
    p = min(EXTRA_PAIRS, side - k)
    if side <= DENSE_LIMIT:
        pairs = _dense_pairs(S)
        lam_max = None if k + p == side else _top_eigenvalue(S)
    else:
        pairs = _shift_invert_pairs(S)
        lam_max = _top_eigenvalue(S)
    while True:
        lam, V, solver = pairs(k + p)
        normA = max(abs(float(lam[0])), float(lam[-1] if lam_max is None else lam_max))
        cut = _first_gap(lam, k, GAP_REL_TOL * normA)
        if cut is not None or k + p == side:
            break
        p = min(2 * p, side - k)
    below = lam.size if cut is None else cut
    res = np.linalg.norm(S @ V[:, :below] - V[:, :below] * lam[:below], axis=0)
    _enforce_residuals(res, normA, solver)
    if cut is not None:
        tau = 0.5 * (lam[cut - 1] + lam[cut])
        count = _count_below(S, tau)
        if count != cut:
            raise SolverError(f"{solver}: {cut} eigenvalues computed below {tau:.10g}, "
                              f"inertia of A - tau I counts {count}")
    return SpectralResult(lam[:k], res[:k], solver,
                          eigenvectors=V[:, :k] if want_vectors else None)


def _enforce_residuals(res, normH, solver):
    gate = RESIDUAL_REL_TOL * max(normH, 1e-300)
    worst = float(np.max(res)) if res.size else 0.0
    if worst > gate:
        raise SolverError(f"{solver}: residual {worst:.3e} above {gate:.3e}")


def _first_gap(lam, k: int, width: float):
    """Smallest j >= k with lam[j] - lam[j-1] > width, or None."""
    gaps = np.nonzero(np.diff(lam[k - 1:]) > width)[0]
    return int(k + gaps[0]) if gaps.size else None


def _top_eigenvalue(S) -> float:
    from scipy.sparse.linalg import eigsh
    v0 = np.random.default_rng(START_SEED).normal(size=S.shape[0])
    return float(eigsh(S, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])


def _dense_pairs(S):
    from scipy.linalg import eigh
    A = S.toarray()

    def pairs(count):
        lam, V = eigh(A, subset_by_index=[0, count - 1])
        return lam, V, "dense"
    return pairs


def _shift_invert_pairs(S):
    from scipy import sparse
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    side = S.shape[0]
    d = S.diagonal().real
    gersh = float(np.min(d - (abs(S).sum(axis=1) - np.abs(d))))
    sigma = gersh - 1e-3 * max(1.0, abs(gersh))
    try:
        lu = splu(sparse.csc_array(S - sigma * sparse.eye_array(side)))
    except RuntimeError as exc:
        raise SolverError(f"shift-invert: A - sigma I is singular: {exc}") from exc
    OPinv = LinearOperator(S.shape, matvec=lu.solve, dtype=S.dtype)
    v0 = np.random.default_rng(START_SEED).normal(size=side)

    def pairs(count):
        if count >= side:
            raise SolverError(f"shift-invert: {count} pairs asked of dimension {side}")
        ncv = min(side, max(2 * count + 1, 20))
        try:
            lam, V = eigsh(S, k=count, sigma=sigma, which="LM", OPinv=OPinv,
                           v0=v0, ncv=ncv)
        except ArpackError as exc:
            raise SolverError(f"shift-invert: {exc}") from exc
        order = np.argsort(lam)
        return lam[order], V[:, order], f"shift-invert(m={ncv})"
    return pairs


def _count_below(S, tau: float) -> int:
    """Eigenvalues of S below tau, as the negative pivots of a symmetric
    LU (LDL^T) of S - tau I: Sylvester's law of inertia."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    M = sparse.csc_array(S - tau * sparse.eye_array(S.shape[0]))
    try:
        lu = splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"inertia: A - tau I is singular: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("inertia: the factorization pivoted off the diagonal")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


@dataclass
class GrowthFit:
    exponent: float
    window: tuple
    residual: float
    n_points: int


def growth_fit(res, window: tuple = (50, 400)) -> GrowthFit:
    """Least-squares slope of log eigenvalue against log index.

    Indices are 1-based; the default window drops the boundary-polluted
    head and the truncation-polluted tail.
    """
    lam = res.eigenvalues if isinstance(res, SpectralResult) else np.asarray(res, float)
    lo, hi = window
    if hi - lo + 1 < 50:
        raise ValueError("window must span at least 50 eigenvalues")
    if hi > lam.size:
        raise ValueError("window exceeds available spectrum")
    vals = lam[lo - 1:hi]
    if np.min(vals) <= 0:
        raise ValueError("nonpositive eigenvalue in fit window")
    j = np.arange(lo, hi + 1, dtype=float)
    X = np.log(j)
    Y = np.log(vals)
    slope, icpt = np.polyfit(X, Y, 1)
    resid = float(np.sqrt(np.mean((Y - (slope * X + icpt)) ** 2)))
    return GrowthFit(exponent=float(slope), window=(lo, hi), residual=resid,
                     n_points=vals.size)


# -- phase-space quadrature -------------------------------------------------

def _midpoint_axis(L: float, npts: int) -> np.ndarray:
    h = 2.0 * L / npts
    return -L + h * (np.arange(npts) + 0.5)


def _chunked_weight(w: WeightEvaluator, L: float, npts: int):
    """Yield (m values, cell volume) in fixed chunk order over the box:
    one chunk per first-coordinate node, the other coordinates broadcast
    from per-axis arrays and raveled in C order."""
    d = 2 * w.n
    g = _midpoint_axis(L, npts)
    cell = (2.0 * L / npts) ** d
    rest = np.meshgrid(*([g] * (d - 1)), indexing="ij", sparse=True)
    for v in g:
        yield w.m_values((v, *rest)).ravel(), cell


def _box_integrals(w: WeightEvaluator, exps: Sequence[float], L: float, npts: int) -> list:
    """phase_box_integral for each exponent in exps, from one pass of m."""
    totals = [0.0] * len(exps)
    for m, cell in _chunked_weight(w, L, npts):
        for i, s in enumerate(exps):
            totals[i] += float(np.sum(m**(-s))) * cell
    return totals


def phase_box_integral(w: WeightEvaluator, s: float, L: float, npts: int = 100) -> float:
    """Midpoint quadrature of m^{-s} over [-L, L]^{2n}, fixed summation order."""
    return _box_integrals(w, [s], L, npts)[0]


def _band_fits(w: WeightEvaluator, exps: Sequence[float], npts: int) -> list:
    """band_slope for each exponent in exps, from one pass of m."""
    L = BAND_BASE ** ((BAND_KMAX + 1) / 2.0) * BAND_BOX_FACTOR
    B = np.zeros((len(exps), BAND_KMAX + 2))
    logb = np.log(BAND_BASE)
    for m, cell in _chunked_weight(w, L, npts):
        k = np.clip(np.floor(np.log(m) / logb).astype(int), 0, BAND_KMAX + 1)
        for i, s in enumerate(exps):
            B[i] += np.bincount(k, weights=m**(-s), minlength=BAND_KMAX + 2) * cell
    bands = B[:, BAND_KMIN:BAND_KMAX + 1]
    if np.min(bands) <= 0:
        raise SolverError("empty band in slope fit; box too small")
    ks = np.arange(BAND_KMIN, BAND_KMAX + 1, dtype=float)
    return [(float(np.polyfit(ks, np.log(b) / logb, 1)[0]), b) for b in bands]


def band_slope(w: WeightEvaluator, s: float, npts: int = 100) -> tuple:
    """Slope of log-base band sums of m^{-s} over dyadic-in-base shells.

    The box covers the closure of the last counted shell with a small
    margin; shells outside [BAND_KMIN, BAND_KMAX] are binned but not
    fitted.  Returns (slope, band sums for k = BAND_KMIN..BAND_KMAX).
    """
    return _band_fits(w, [s], npts)[0]


# -- the trend experiment ---------------------------------------------------

@dataclass
class SchattenTrendReport:
    operator: str
    mu: float
    r: float
    Q: float
    matrix_cells: list            # (N, L, schatten value)
    matrix_rel_change: float
    box_cells: list               # (L, integral)
    box_growth: list              # successive ratios
    slope: float
    critical_slope: float
    bands: list
    verdict: str                  # "converges": slope below critical, read as mu r > Q
    shift_used: list = field(default_factory=list)

    def csv_rows(self):
        rows = []
        for N, L, v in self.matrix_cells:
            rows.append((self.operator, N, L, self.mu, self.r, v, "", "", ""))
        for L, val in self.box_cells:
            rows.append((self.operator, "", L, self.mu, self.r, "", val, "", ""))
        rows.append((self.operator, "", "", self.mu, self.r, "", "",
                     self.slope, self.slope - self.critical_slope))
        return rows


def schatten_sweep(w: WeightEvaluator, cells: Sequence[tuple], Q: float,
                   matrix_N: Sequence[int] = (32, 48),
                   box_L: Sequence[float] = (8.0, 12.0, 16.0),
                   box_npts: int = 100, band_npts: int = 100, operator: str = "") -> list:
    """Run the full trend protocol for m^{-mu} in Schatten-r, one report
    per (mu, r) in cells.  Q is the homogeneous-dimension calibration:
    the critical band slope is measured at exponent Q (the borderline of
    the sufficient condition mu > Q/r), and each verdict compares the
    actual slope at s = mu r against it.  So "converges" reads mu r > Q,
    the sufficient condition; it does not decide whether m^{-mu} lies in
    S_r, and "diverges" only says the condition fails.  All ladders are
    reported raw.
    The cells share one quantization and eigvalsh per N (m^{-mu}(M) has
    singular values (lam + shift)^{-mu}) and one m pass per quadrature box.
    """
    if any(mu <= 0 or r < 1 for mu, r in cells):
        raise ValueError("mu must be positive and r at least 1")
    if not cells:
        return []
    ladder = []
    for N in map(int, matrix_N):
        # balanced box: x and xi extents both ~ sqrt(N)/2 starve neither end of the shells
        L = np.sqrt(N) / 2.0
        M = weyl_quantize(w, Grid(w.n, N, L))
        lam = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
        ladder.append((N, L, lam, max(0.0, 1.0 - float(lam[0]))))  # PD floor at 1, as m
    exps = [mu * r for mu, r in cells]
    boxes = [_box_integrals(w, exps, L, box_npts) for L in box_L]
    *fits, (critical, _) = _band_fits(w, exps + [Q], band_npts)
    reports = []
    for c, ((mu, r), (slope, bands)) in enumerate(zip(cells, fits)):
        vals = [(N, L, float(np.sum((lam + sh) ** (-mu * r)) ** (1.0 / r)))
                for N, L, lam, sh in ladder]
        box = [(L, totals[c]) for L, totals in zip(box_L, boxes)]
        reports.append(SchattenTrendReport(
            operator=operator or w.name, mu=mu, r=r, Q=Q, matrix_cells=vals,
            matrix_rel_change=abs(vals[-1][2] - vals[0][2]) / max(abs(vals[0][2]), 1e-300),
            box_cells=box, slope=slope, critical_slope=critical, bands=list(bands),
            box_growth=[box[i + 1][1] / max(box[i][1], 1e-300) for i in range(len(box) - 1)],
            verdict="converges" if slope < critical else "diverges",
            shift_used=[sh for *_, sh in ladder]))
    return reports
