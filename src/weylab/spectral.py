"""Certified eigensolves, growth fits, and the compactness trend
experiment.

This is the one module that decomposes a matrix: ``eigensolve`` for the
lowest pairs, its full-spectrum case ``Spectrum`` for the propagators and
the fractional powers, and the trend sweep's eigenvalues.  ``eigensolve``
solves one block per reflection parity of the operator's grid, the whole
matrix when none applies, each block on the dense or the shift-invert
path by its own size, a partial solve on scipy's OpenBLAS only (numpy
bundles another; ``_dense_pairs``).  The trend sweep takes the same split
of its Weyl matrix straight from the quantizer (quantize.weyl_blocks), on
the axes of quantize.proven_split, never forming the matrix, and gates
its seam: it must be reflection-symmetric to rounding there.

The trend experiment is the one place where a continuum question (does a
negative power of the weight lie in a Schatten class) meets finite
matrices.  No single matrix decides it; the protocol is a bundle of
ladders: Schatten values of the quantized weight across grid refinement,
raw phase-space integrals across box growth, and a dyadic band-sum slope
compared against the same slope at the self-calibrated critical
exponent.  The band slope is the classifying signal; the other two are
kept raw so every verdict can be recomputed from the report, which
holds measurements only; cli lays them out in its output files.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .hamiltonians import HamiltonianMatrix
from .metric import WeightEvaluator
from .quantize import Grid, proven_split, weyl_blocks
from .symbols import ROW_BLOCK

__all__ = [
    "SpectralResult", "Spectrum", "GrowthFit", "SolverError", "eigensolve", "growth_fit",
    "SchattenTrendReport", "schatten_sweep", "real_csr",
]

RESIDUAL_REL_TOL = 1e-8
GAP_REL_TOL = 1e-6
DENSE_LIMIT = 4096
DENSE_KRYLOV_RATIO = 8  # below DENSE_LIMIT, dense while side < this times the Krylov size
EXTRA_PAIRS = 4
RESIDUAL_CHUNK = 256    # columns per residual pass
START_SEED = 0          # Lanczos start vectors are drawn from this seed
BAND_BASE = 3.0         # _band_fits shells: BAND_BASE^k <= m < BAND_BASE^(k+1)
BAND_KMIN, BAND_KMAX = 1, 4
BAND_BOX_FACTOR = 1.02  # box margin past the last counted shell


class SolverError(RuntimeError):
    pass


@dataclass
class SpectralResult:
    eigenvalues: np.ndarray
    residuals: np.ndarray
    solver: str
    sigma: Optional[tuple] = None     # the certified shift of each block (None: dense); None when all are dense
    inertia: Optional[tuple] = None   # (tau, eigenvalues below tau) of the final count
    blocks: Optional[tuple] = None    # the side of each block solved, (side,) when none splits

    def __post_init__(self):
        d = np.diff(self.eigenvalues)
        if d.size and np.min(d) < -1e-12:
            raise ValueError("eigenvalues must be ascending")


def eigensolve(H, k: int) -> SpectralResult:
    """Lowest k eigenvalues of a symmetric (or Hermitian) matrix, certified.

    H is a HamiltonianMatrix, a scipy sparse matrix or an array.  The
    solve splits into one block per reflection parity, the whole matrix
    when none applies: each axis of a HamiltonianMatrix's grid whose
    mirror x -> -x leaves A invariant splits its nodes into even and odd
    combinations, and U A U^T is block diagonal for the orthogonal U built
    from them.  Each block is routed by its own side and the count asked
    of it (``_parity_pairs``).  Dense when the side is at most
    ``DENSE_LIMIT`` and below ``DENSE_KRYLOV_RATIO`` times the Krylov size
    the Lanczos path would use: a split block whole, the whole matrix by a
    subset ``scipy.linalg.eigh``, or whole when every pair is asked for
    (k = side, the ``Spectrum`` case), on the OpenBLAS of the calls around
    it (numpy and scipy bundle one each; ``_dense_pairs``), and cut to the
    vectors the merge can reach (``_cut``).  Else shift-invert Lanczos
    (``scipy.sparse.linalg.eigsh``, start vector drawn from
    ``START_SEED``) around a shift sigma certified below the block's
    spectrum, so that the eigenvalues nearest sigma are the lowest ones
    whatever their sign.  The candidates are 0, then g/8, g/4, g/2 of the
    block's Gershgorin lower bound g, then a point just below g; the first
    whose banded Cholesky of A - sigma I succeeds (A - sigma I positive
    definite) is taken, and that one factor is the solve.  The band is the
    block's lower band in reverse Cuthill-McKee order, (b + 1) x side
    numbers for its bandwidth b (``_rcm_band``).  The pairs merge by
    eigenvalue.

    The residuals see only A and the merged pairs, so they hold however
    the solve was split; the count is taken per block.  p >= 1 extra
    pairs are computed (none when k = side), and SolverError is raised
    unless every residual |A q - lambda q|, with the sparse A, is at most
    1e-8 |A|_2, |A|_2 = max(|lambda_1|, lambda_max) (lambda_max is the top
    merged eigenvalue when every block is decomposed whole, a Lanczos
    estimate on A otherwise), and the computed count is complete: tau goes
    in the first gap at or after lambda_k wider than ``GAP_REL_TOL`` |A|_2
    (p doubles until there is one), and for each block M_c = U_c A U_c^T
    (A itself when none splits) the negative pivots of a sparse LDL^T of
    M_c - tau I, which count M_c's eigenvalues below tau (Sylvester), must
    equal the number of that block's own pairs computed below tau.  A
    skipped eigenvalue passes the residual gate; it fails this count, also
    when another block returns a pair twice and the merged total matches.

    The block counts add up to A's because the split is checked on its
    basis: the block sides sum to the side and |U U^T - I|_max <= side eps
    for the stacked U, else SolverError.  So U is nonsingular, and
    inertia(A - tau I) = inertia(U (A - tau I) U^T) by Sylvester's law.
    U A U^T is the block diagonal of the M_c plus the coupling the split
    drops, which ``_parity_basis`` gates at side eps |A|_inf, and
    tau U U^T is tau I within side eps |tau|; both are about the no-pivot
    LDL^T's own backward error.  By Weyl's inequality the block counts
    then sum to A's count for every tau farther from A's spectrum than
    those two perturbations.  The result carries the block sides, sigma
    (one shift per block, None for a dense one; None when every block is
    dense), and the pair (tau, total count) when counted.
    """
    return _solve(H, _symmetric_part(H), k)[0]


def _solve(H, S, k: int) -> tuple:
    """eigensolve of S, the symmetric part of H: the result, and its blocks
    (U_c or None, lambda_c, W_c) unless a count at tau was needed, which
    a full spectrum never is.  Each block's sigma factor lives in its
    pairs function and goes with it, before the residuals.  The count at
    tau takes one LDL^T of each block matrix that ``_parity_pairs`` built,
    against that block's own eigenvalues, and keeps only the count."""
    side = S.shape[0]
    if not 0 < k <= side:
        raise ValueError("k must lie between 1 and the dimension")
    p = min(EXTRA_PAIRS, side - k)
    U = _parity_basis(H, S)
    if U:
        _check_basis(U, side)
    pairs, lam_max, mats = _parity_pairs(S, U, k + p)
    if lam_max is None:
        lam_max = _top_eigenvalue(S)
    while True:
        lam, blocks, solver, sigma = pairs(k + p)
        normA = max(abs(float(lam[0])), lam_max)
        cut = _first_gap(lam, k, GAP_REL_TOL * normA)
        if cut is not None or k + p == side:
            break
        p = min(2 * p, side - k)
    del pairs  # every block's sigma factorization, freed before the residuals
    # one block at a time, then into the merged order: a stable sort
    res = np.concatenate([_residual_norms(S, _lift(Uc, W), w) for Uc, w, W in blocks])
    res = res[np.argsort(np.concatenate([w for _, w, _ in blocks]), kind="stable")]
    _enforce_residuals(res[:cut], normA, solver)
    inertia = None
    if cut is not None:
        tau = 0.5 * (lam[cut - 1] + lam[cut])
        below = [int(np.count_nonzero(w < tau)) for _, w, _ in blocks]
        blocks = None  # the block vectors, freed before the LDL^T at tau
        for c, (M, own) in enumerate(zip(mats, below)):
            count = _count_below(M, tau)
            if count != own:
                name = f"block {c}" if U else "A"
                raise SolverError(f"{solver}: {own} eigenvalues of {name} computed below "
                                  f"{tau:.10g}, inertia of {name} - tau I counts {count}")
        inertia = (float(tau), cut)
    return SpectralResult(lam[:k], res[:k], solver, sigma=sigma, inertia=inertia,
                          blocks=tuple(Uc.shape[0] for Uc in U) or (side,)), blocks


def _lift(Uc, X):
    """U_c^T X: block coordinates back to the grid's (X itself with no U)."""
    return X if Uc is None else Uc.T @ X


class Spectrum:
    """Every eigenpair of the symmetric part A of a real operator, as
    eigensolve's full case solved them: A = sum_c U_c^T W_c diag(lam_c)
    W_c^T U_c over the parity blocks, or the one block (None, lam, W), and
    lam merged ascending.  No side x side eigenvector matrix is formed."""

    def __init__(self, H):
        self.A = _symmetric_part(real_csr(H))
        res, self.blocks = _solve(H, self.A, self.A.shape[0])
        self.lam = res.eigenvalues

    def _shifted(self, shift: float) -> list:
        low = self.lam[0] + shift
        if low <= 0.0:
            raise SolverError(f"shift too small: min shifted eigenvalue {low:.3e}")
        return [w + shift for _, w, _ in self.blocks]

    def power(self, beta: float, shift: float = 0.0) -> np.ndarray:
        """(A + shift)^beta, symmetrized; A + shift must be PD (beta < 0: resolvent powers)."""
        M = sum(_lift(Uc, _lift(Uc, (W * s ** beta) @ W.T).T)
                for (Uc, _, W), s in zip(self.blocks, self._shifted(shift)))
        return 0.5 * (M + M.T)

    def power_diagonal(self, beta: float, shift: float = 0.0) -> np.ndarray:
        """diag((A + shift)^beta) = sum_c (V_c o V_c) s_c^beta, V_c = U_c^T W_c:
        one matrix-vector product per block instead of the whole power."""
        return sum(V2 @ s ** beta for V2, s in zip(self._lifted_squares, self._shifted(shift)))

    @functools.cached_property
    def _lifted_squares(self) -> list:
        """V_c o V_c per block, kept: a calibration scans dozens of powers."""
        return [np.square(_lift(Uc, W)) for Uc, _, W in self.blocks]


def real_csr(H):
    """H as a real CSR array; spectra, powers and propagators act through a
    real eigenbasis, so a complex H is a ValueError."""
    S = _csr(H)
    if np.iscomplexobj(S):
        raise ValueError("complex operator: spectra, powers and propagators take a real one")
    return S


def _csr(H):
    """H as a CSR array: a HamiltonianMatrix's operator, a scipy sparse matrix or an array."""
    from scipy import sparse

    return H.sparse if isinstance(H, HamiltonianMatrix) else sparse.csr_array(H)


def _symmetric_part(H):
    """0.5 (A + A^*) as a CSR array, A = _csr(H)."""
    S = _csr(H)
    return 0.5 * (S + S.conj().T)


def _enforce_residuals(res, normH, solver):
    gate = RESIDUAL_REL_TOL * max(normH, 1e-300)
    worst = float(np.max(res)) if res.size else 0.0
    if worst > gate:
        raise SolverError(f"{solver}: residual {worst:.3e} above {gate:.3e}")


def _residual_norms(S, V, lam):
    """|S q - lambda q| for each column q of V and its eigenvalue lambda,
    in equal runs of at most RESIDUAL_CHUNK columns, so the pass holds
    two side x RESIDUAL_CHUNK temporaries, not two copies of V.  No run
    is one column wide, which numpy would sum pairwise: each norm is the
    one-pass norm bit for bit."""
    n = V.shape[1]
    runs = max(1, -(-n // RESIDUAL_CHUNK))
    cut = [n * r // runs for r in range(runs + 1)]
    return np.concatenate([np.linalg.norm(S @ V[:, a:b] - V[:, a:b] * lam[a:b], axis=0)
                           for a, b in zip(cut, cut[1:])])


def _first_gap(lam, k: int, width: float):
    """Smallest j >= k with lam[j] - lam[j-1] > width, or None."""
    gaps = np.nonzero(np.diff(lam[k - 1:]) > width)[0]
    return int(k + gaps[0]) if gaps.size else None


def _top_eigenvalue(S) -> float:
    """A Lanczos estimate of lambda_max, to tol=1e-4: a Ritz value never
    exceeds lambda_max, so a loose estimate can only shrink |A|_2, and
    with it the residual gate and the gap width; the checks only tighten."""
    from scipy.sparse.linalg import eigsh
    v0 = np.random.default_rng(START_SEED).normal(size=S.shape[0])
    return float(eigsh(S, k=1, which="LA", v0=v0, tol=1e-4, return_eigenvectors=False)[0])


def _krylov_size(count: int, side: int) -> int:
    return min(side, max(2 * count + 1, 20))


def _dense_pairs(S, spectrum: bool):
    """numpy and scipy each bundle an OpenBLAS, whose idle threads spin on the cores
    the other needs: a ``Spectrum`` (spectrum=True) takes ``np.linalg.eigh``, as its
    products use numpy's BLAS; every other solve stays on scipy's, as its Lanczos and
    factor calls do: evd whole, else a subset ``eigh``, on a Fortran copy it overwrites."""
    from scipy.linalg import eigh

    def pairs(count):
        if spectrum:
            return np.linalg.eigh(S.toarray())
        if count == S.shape[0]:
            return eigh(S.toarray(order="F"), overwrite_a=True, driver="evd", check_finite=False)
        return eigh(S.toarray(order="F"), subset_by_index=[0, count - 1], overwrite_a=True)
    return pairs


def _cut(lam, W, count: int) -> None:
    """Cut each W decomposed whole (all its eigenvalues in lam), in place, after the column of
    its first eigenvalue above the count-th of lam: a merge of count pairs reads none past it."""
    merged = np.sort(np.concatenate(lam))
    top = merged[count - 1] if merged.size >= count else np.inf
    for b, w in enumerate(lam):
        u = int(np.searchsorted(w, top, side="right")) + 1
        if w.size == W[b].shape[0] and u < W[b].shape[1]:
            W[b] = W[b][:, :u].copy(order="F")  # the whole W goes


def _inf_norm(S) -> float:
    return float(abs(S).sum(axis=1).max())


def _reflection_indices(g: Grid) -> tuple:
    """Each node's mirror N - 1 - i on either boundary, the lead node of each
    mirror orbit (i <= mirror), the first of each pair (i < mirror) and each
    lead's even row scale: 1/2 on a fixed node (e_i twice), which only an
    odd Dirichlet grid has, at its centre, else sqrt(1/2)."""
    i = np.arange(g.N)
    mirror = g.N - 1 - i
    lead, pair = i[i <= mirror], i[i < mirror]
    return mirror, lead, pair, np.where(lead == mirror[lead], 0.5, np.sqrt(0.5))


def _parity_basis(H, S) -> list:
    """The rows U_c of an orthogonal U with U S U^T block diagonal, one
    sparse array per block; [] when H has no grid or no axis splits.

    The mirror m(i) of node i is ``_reflection_indices``'s.  An axis splits
    when its reflection R moves S by |S - R S R|_inf <= side eps |S|_inf,
    the dense solver's own backward error, so dropping the coupling it
    leaves between blocks costs no more than the one-block solve would.
    Its factor has the even rows (e_i + e_m(i))/sqrt(2) (e_i on a fixed
    node) and then the odd rows (e_i - e_m(i))/sqrt(2); an axis that does
    not split keeps the identity.  The blocks are the Kronecker products
    of one factor per axis, first axis major.  ``_check_basis`` checks the
    stacked rows orthogonal before the blocks are counted apart."""
    from scipy import sparse

    if not isinstance(H, HamiltonianMatrix):
        return []
    g = H.grid
    mirror, lead, pair, scale = _reflection_indices(g)
    flat = np.arange(S.shape[0]).reshape((g.N,) * g.n)
    gate = S.shape[0] * np.finfo(float).eps * _inf_norm(S)
    eye = sparse.eye_array(g.N, format="csr")
    factors = []
    for axis in range(g.n):
        R = np.take(flat, mirror, axis=axis).ravel()
        if _inf_norm(S - S[R][:, R]) > gate:
            factors.append([eye])
            continue
        factors.append([sparse.diags_array(scale) @ (eye[lead] + eye[mirror[lead]]),
                        np.sqrt(0.5) * (eye[pair] - eye[mirror[pair]])])
    if all(len(f) == 1 for f in factors):
        return []
    return [functools.reduce(lambda A, B: sparse.kron(A, B, format="csr"), rows)
            for rows in itertools.product(*factors)]


def _check_basis(U, side: int) -> None:
    """SolverError unless the stacked rows of U are a side x side matrix
    with |U U^T - I|_max <= side eps: then inertia moves from A to its
    blocks (eigensolve)."""
    from scipy import sparse

    sides = [Uc.shape[0] for Uc in U]
    if sum(sides) != side:
        raise SolverError(f"parity basis: block sides {sides} do not sum to {side}")
    Ut = sparse.vstack(U, format="csr")
    defect = float(abs(Ut @ Ut.T - sparse.eye_array(side)).max())
    gate = side * np.finfo(float).eps
    if not defect <= gate:
        raise SolverError(f"parity basis: |U U^T - I|_max = {defect:.3e} above {gate:.3e}")


def _parity_pairs(S, U, count: Optional[int] = None):
    """Pairs of S merged from one solver per block U_c S U_c^T (S itself
    when U is empty), each routed by its side and the count first asked,
    None for every pair.  Of a count, each of the B blocks first computes
    ceil(count/B) + p pairs (at most count, at most its side).  A block
    whose largest computed eigenvalue lies below the merged count-th one
    may miss pairs, all above that largest one, so it is solved again for
    p more plus one per merged eigenvalue above it; no block is solved
    twice for one count.  Dense blocks use numpy's OpenBLAS only when
    every pair of S is asked (``_dense_pairs``); each whole decomposition
    cuts the whole blocks so far (``_cut``), and a later count past a cut
    decomposes that block again, to the same bits.  A block above
    ``DENSE_LIMIT`` that must be decomposed whole (all its pairs first
    asked, or every pair of S), which shift-invert cannot do, is a
    SolverError before any block is solved.  The eigenvalues merge by a
    stable sort.  Returns the pairs function, which gives (the merged
    eigenvalues, each block (U_c or None, lambda_c, W_c) cut to the pairs
    it gave them, solver, the shifts or None), the largest eigenvalue of
    S when every block is decomposed whole (no cut touches one), else
    None, and the block matrices ([S] when U is empty).  A shift-invert
    block's pairs function holds its one certified banded Cholesky
    factor, (b + 1) x side numbers, until it is dropped."""
    count = S.shape[0] if count is None else count
    mats = [Uc @ S @ Uc.T for Uc in U] or [S]
    sides = [M.shape[0] for M in mats]

    def start(count):
        return [min(n, count, -(-count // len(sides)) + EXTRA_PAIRS) for n in sides]

    for n, c in zip(sides, start(count)):
        if n > DENSE_LIMIT and (c == n or count == S.shape[0]):
            raise SolverError(f"a block of side {n} must be decomposed whole, "
                              f"above the dense limit {DENSE_LIMIT}")
    solve, sigma, asked = [], [], []
    lam, W = [np.empty(0)] * len(sides), [np.empty((n, 0)) for n in sides]
    for b, (M, c) in enumerate(zip(mats, start(count))):
        n = M.shape[0]
        if n <= DENSE_LIMIT and n < DENSE_KRYLOV_RATIO * _krylov_size(c, n):
            f, s = _dense_pairs(M, spectrum=count == S.shape[0]), None
        else:
            f, s = _shift_invert_pairs(M)
        solve.append(f)
        sigma.append(s)
        asked.append(n if s is None and (U or c == n) else 0)  # decomposed whole, for every count
        if asked[b]:
            lam[b], W[b] = f(n)
            _cut(lam, W, count)
    shifts = None if all(s is None for s in sigma) else tuple(sigma)

    def pairs(count):
        want = start(count)
        while True:
            for b, f in enumerate(solve):
                if asked[b] < want[b]:
                    lam[b], W[b] = f(want[b])
                    asked[b] = want[b]
            merged = np.concatenate(lam)
            take = np.argsort(merged, kind="stable")[:count]
            short = [b for b, w in enumerate(lam)
                     if asked[b] < min(sides[b], count) and w[-1] < merged[take[-1]]]
            if not short:
                break
            for b in short:
                above = int(np.count_nonzero(merged[take] > lam[b][-1]))
                want[b] = min(sides[b], count, asked[b] + EXTRA_PAIRS + above)
        solver = "dense" if shifts is None else "shift-invert(m={})".format(max(
            _krylov_size(a, n) for a, n, s in zip(asked, sides, sigma) if s is not None))
        used = np.bincount(np.repeat(np.arange(len(lam)), [w.size for w in lam])[take],
                           minlength=len(lam))
        for b in np.flatnonzero(used > [V.shape[1] for V in W]):  # cut short: whole again
            W[b] = solve[b](sides[b])[1]
        _cut(lam, W, count)
        blocks = [(Uc, w[:u], V[:, :u]) for Uc, w, V, u in zip(U or [None], lam, W, used)]
        return merged[take], blocks, solver, shifts
    if all(a == n for a, n in zip(asked, sides)):
        return pairs, float(max(w[-1] for w in lam)), mats
    return pairs, None, mats


def _shift_invert_pairs(S):
    """Lanczos pairs around the first certified shift, and that shift.

    The candidates run from 0 down to the Gershgorin floor, below which
    A - sigma I is diagonally dominant; the first whose banded Cholesky
    succeeds (so A - sigma I is positive definite) is used, and that
    factor is the shift-invert solve.  A is ordered once by reverse
    Cuthill-McKee and kept as its lower band (``_rcm_band``); a failing
    candidate stops at its first non-positive pivot."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    side = S.shape[0]
    d = S.diagonal().real
    gersh = float(np.min(d - (abs(S).sum(axis=1) - np.abs(d))))
    floor = gersh - 1e-3 * max(1.0, abs(gersh))
    perm, where, band = _rcm_band(S)
    last = np.inf
    for sigma in (0.0, gersh / 8, gersh / 4, gersh / 2, floor):
        if sigma >= last:
            continue
        last = sigma
        try:
            solve = _band_cholesky(band, sigma)
        except SolverError:
            continue
        break
    else:
        raise SolverError(f"shift-invert: no shift down to {floor:.10g} "
                          "certified below the spectrum")
    OPinv = LinearOperator(S.shape, matvec=lambda x: solve(x[perm])[where], dtype=S.dtype)
    v0 = np.random.default_rng(START_SEED).normal(size=side)

    def pairs(count):
        if count >= side:
            raise SolverError(f"shift-invert: {count} pairs asked of dimension {side}")
        try:
            lam, V = eigsh(S, k=count, sigma=sigma, which="LM", OPinv=OPinv,
                           v0=v0, ncv=_krylov_size(count, side))
        except ArpackError as exc:
            raise SolverError(f"shift-invert: {exc}") from exc
        order = np.argsort(lam)
        return lam[order], V[:, order]
    return pairs, sigma


def _rcm_band(S) -> tuple:
    """S in its reverse Cuthill-McKee order: the order perm (new index i
    holds node perm[i]), each node's new index where, and the lower band
    of S[perm][:, perm] in LAPACK's lower storage, row r the r-th
    subdiagonal: (b + 1) x side numbers for the reordered bandwidth b."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    C = S.tocoo()  # canonical, as every sparse sum and product makes it
    perm = reverse_cuthill_mckee(S.tocsr(), symmetric_mode=True)
    where = np.empty_like(perm)
    where[perm] = np.arange(perm.size, dtype=perm.dtype)
    r, c = where[C.row], where[C.col]
    low = r >= c
    band = np.zeros((int(np.max(r - c, initial=0)) + 1, perm.size), dtype=S.dtype, order="F")
    band[r[low] - c[low], c[low]] = C.data[low]
    return perm, where, band


def _band_cholesky(band, sigma: float):
    """The solve x -> (A - sigma I)^{-1} x by one banded Cholesky of
    A - sigma I, A Hermitian and given by its lower band (``_rcm_band``
    storage); SolverError at the first non-positive pivot, where A - sigma I
    is shown not positive definite."""
    from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

    shifted = band.copy(order="F")
    shifted[0] -= sigma
    try:
        factor = cholesky_banded(shifted, overwrite_ab=True, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SolverError(f"shift-invert: A - {sigma:.10g} I is not positive definite: "
                          f"{exc}") from exc
    return lambda x: cho_solve_banded((factor, True), x, check_finite=False)


def _ldlt(S, shift: float):
    """Symmetric LU (LDL^T) of S - shift I: no off-diagonal pivoting, so
    the signs of the pivots are the inertia of S - shift I."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    M = sparse.csc_array(S - shift * sparse.eye_array(S.shape[0]))
    try:
        lu = splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"inertia: A - {shift:.10g} I is singular: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("inertia: the factorization pivoted off the diagonal")
    return lu


def _count_below(S, tau: float) -> int:
    """Eigenvalues of S below tau, as the negative pivots of an LDL^T of
    S - tau I: Sylvester's law of inertia.  eigensolve counts each parity
    block this way, and the whole operator only when nothing splits; the
    factorization and the L and U that reading its pivots builds go on
    return."""
    return int(np.count_nonzero(_ldlt(S, tau).U.diagonal().real < 0))


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
    """Yield (m values, multiplicities, cell volume) in fixed chunk order
    over the box: one chunk per run of first-coordinate nodes, at most
    ROW_BLOCK points, m evaluated on it at once (x_1 an axis array); row k
    holds the run's k-th node, the other coordinates raveled in C order.
    A quadrature sums f(m) * multiplicity per row, adds the rows in node
    order and scales by the cell volume; values are pointwise, so each
    row has the bits of its own node's evaluation, and so has each sum.

    The box is folded on every axis where w's tree is proven even
    (w.expr.parity(axis) == 1, see _jets.JetExpr): only the upper half of
    the midpoint nodes is kept, picked by index, because the centre node of
    an odd count lies a rounding error off 0 and a sign test would count it
    twice.  A kept node stands for itself and its mirror image,
    multiplicity 2; the centre node for itself only, multiplicity 1.  A
    point's multiplicity is the product over its axes.  An axis without a
    proof keeps every node with multiplicity 1, so there its sums are the
    unfolded ones bit for bit: multiplying by 1 is exact."""
    d = 2 * w.n
    g = _midpoint_axis(L, npts)
    cell = (2.0 * L / npts) ** d
    nodes, mults = [], []
    for axis in range(d):
        if w.expr.parity(axis) == 1:
            k = np.arange(npts // 2, npts)
            nodes.append(g[k])
            mults.append(np.where(2 * k == npts - 1, 1.0, 2.0))
        else:
            nodes.append(g)
            mults.append(np.ones(npts))
    rest = np.meshgrid(*nodes[1:], indexing="ij", sparse=True)
    rest_mult = functools.reduce(np.multiply.outer, mults[1:]).ravel()
    run = max(1, ROW_BLOCK // rest_mult.size)
    for lo in range(0, len(nodes[0]), run):
        x1 = nodes[0][lo:lo + run]
        m = w.m_values((x1.reshape((-1,) + (1,) * (d - 1)), *rest))
        yield m.reshape(len(x1), -1), mults[0][lo:lo + run, None] * rest_mult, cell


def _box_integrals(w: WeightEvaluator, exps: Sequence[float], L: float, npts: int) -> list:
    """Midpoint quadrature of m^{-s} over [-L, L]^{2n}, fixed summation
    order, for each exponent s in exps, from one pass of m over the
    folded box (_chunked_weight): one sum per node, added in node order."""
    totals = [0.0] * len(exps)
    for m, mult, cell in _chunked_weight(w, L, npts):
        for i, s in enumerate(exps):
            for node_sum in np.sum(m**(-s) * mult, axis=1):
                totals[i] += float(node_sum) * cell
    return totals


def _band_fits(w: WeightEvaluator, exps: Sequence[float], npts: int) -> list:
    """Slope of log-base band sums of m^{-s} over dyadic-in-base shells,
    for each exponent s in exps, from one pass of m over the folded box
    (_chunked_weight), one bincount on the (node, shell) key per run.

    The box covers the closure of the last counted shell with a small
    margin; shells outside [BAND_KMIN, BAND_KMAX] are binned but not
    fitted.  Each entry is (slope, band sums for k = BAND_KMIN..BAND_KMAX)."""
    L = BAND_BASE ** ((BAND_KMAX + 1) / 2.0) * BAND_BOX_FACTOR
    K = BAND_KMAX + 2
    B = np.zeros((len(exps), K))
    logb = np.log(BAND_BASE)
    for m, mult, cell in _chunked_weight(w, L, npts):
        k = np.clip(np.floor(np.log(m) / logb).astype(int), 0, BAND_KMAX + 1)
        k += K * np.arange(len(m))[:, None]
        for i, s in enumerate(exps):
            sums = np.bincount(k.ravel(), weights=(m**(-s) * mult).ravel(), minlength=len(m) * K)
            for node_sums in sums.reshape(len(m), K) * cell:
                B[i] += node_sums
    bands = B[:, BAND_KMIN:BAND_KMAX + 1]
    if np.min(bands) <= 0:
        raise SolverError("empty band in slope fit; box too small")
    ks = np.arange(BAND_KMIN, BAND_KMAX + 1, dtype=float)
    return [(float(np.polyfit(ks, np.log(b) / logb, 1)[0]), b) for b in bands]


# -- the trend experiment ---------------------------------------------------

@dataclass
class SchattenTrendReport:
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
    seam_coupling: list = field(default_factory=list)  # (N, max|M - PMP| / max|M|)


def _certified_eigvalsh(S: np.ndarray) -> np.ndarray:
    """The eigenvalues of Hermitian S, real or complex, certified by the
    trace identities: SolverError unless sum(lam) = tr S to side * eps *
    |S|_F and sum(lam^2) = |S|_F^2 to side * eps * |S|_F^2."""
    lam = np.linalg.eigvalsh(S)
    # a pairwise sum: the BLAS dot in np.linalg.norm missed |S|_F^2 by
    # twice the gate on daho's side-1024 sweep matrix
    fro2 = float(np.sum(S.real ** 2) + (np.sum(S.imag ** 2) if np.iscomplexobj(S) else 0.0))
    gate = len(S) * np.finfo(float).eps
    d1 = abs(float(np.sum(lam)) - float(np.trace(S).real)) / np.sqrt(fro2)
    d2 = abs(float(np.sum(lam * lam)) - fro2) / fro2
    if max(d1, d2) > gate:
        raise SolverError(f"eigvalsh fails its trace identities at side {len(S)}: relative "
                          f"defects {d1:.3e}, {d2:.3e} > side * eps = {gate:.3e}")
    return lam


def schatten_sweep(w: WeightEvaluator, cells: Sequence[tuple], Q: float,
                   matrix_N: Sequence[int] = (32, 48),
                   box_L: Sequence[float] = (8.0, 12.0, 16.0),
                   box_npts: int = 100, band_npts: int = 100) -> list:
    """Run the full trend protocol for m^{-mu} in Schatten-r, one report
    per (mu, r) in cells.  Q is the homogeneous-dimension calibration:
    the critical band slope is measured at exponent Q (the borderline of
    the sufficient condition mu > Q/r), and each verdict compares the
    actual slope at s = mu r against it.  So "converges" reads mu r > Q,
    the sufficient condition; it does not decide whether m^{-mu} lies in
    S_r, and "diverges" only says the condition fails.  All ladders are
    reported raw.
    The cells share one quantization pass per N, straight into the parity
    blocks of the Weyl matrix M, one certified eigvalsh per block, which
    reads its lower triangle (m^{-mu}(M) has singular values
    (lam + shift)^{-mu}), and one m pass per quadrature box.  M splits on
    the axes of quantize.proven_split(w) and is not formed: every node
    and its mirror are sampled, so lam are M's own, and the seam the
    blocks drop (seam_coupling) is gated here at side eps (SolverError).
    Nothing proven: one block, M, bit for bit.  Each block's side is
    checked against DENSE_LIMIT for every N before anything is evaluated (ValueError).
    A pass evaluates m only on the box folded by the reflections under
    which w's tree is proven even (_chunked_weight): about 1/2^{2n} of the nodes
    for every table weight, every node on an axis without a proof.
    """
    if any(mu <= 0 or r < 1 for mu, r in cells):
        raise ValueError("mu must be positive and r at least 1")
    if not cells:
        return []
    for N in map(int, matrix_N):
        side = int(np.prod([N // 2 if s else N for s in proven_split(w)]))
        if side > DENSE_LIMIT:
            raise ValueError(f"N = {N}: parity block side {side} exceeds the dense limit "
                             f"{DENSE_LIMIT}")
    ladder = []
    for N in map(int, matrix_N):
        # balanced box: x and xi extents both ~ sqrt(N)/2 starve neither end of the shells
        L = np.sqrt(N) / 2.0
        g = Grid(w.n, N, L)
        seam, blocks = weyl_blocks(w, g)
        gate = g.side() * np.finfo(float).eps  # blocks read M's lead rows: exact if M = PMP
        if not seam <= gate:
            raise SolverError(f"parity blocks: the seam max|M - PMP| / max|M| = "
                              f"{seam:.3e} is above the gate side * eps = {gate:.3e}")
        lam = np.sort(np.concatenate(list(map(_certified_eigvalsh, blocks))))
        del blocks  # before the next N's are made
        ladder.append((N, L, lam, max(0.0, 1.0 - float(lam[0])), seam))  # PD floor at 1, as m
    exps = [mu * r for mu, r in cells]
    boxes = [_box_integrals(w, exps, L, box_npts) for L in box_L]
    *fits, (critical, _) = _band_fits(w, exps + [Q], band_npts)
    reports = []
    for c, ((mu, r), (slope, bands)) in enumerate(zip(cells, fits)):
        vals = [(N, L, float(np.sum((lam + sh) ** (-mu * r)) ** (1.0 / r)))
                for N, L, lam, sh, _ in ladder]
        box = [(L, totals[c]) for L, totals in zip(box_L, boxes)]
        reports.append(SchattenTrendReport(
            mu=mu, r=r, Q=Q, matrix_cells=vals,
            matrix_rel_change=abs(vals[-1][2] - vals[0][2]) / max(abs(vals[0][2]), 1e-300),
            box_cells=box, slope=slope, critical_slope=critical, bands=list(bands),
            box_growth=[box[i + 1][1] / max(box[i][1], 1e-300) for i in range(len(box) - 1)],
            verdict="converges" if slope < critical else "diverges",
            shift_used=[sh for *_, sh, _ in ladder],
            seam_coupling=[(N, seam) for N, *_, seam in ladder]))
    return reports
