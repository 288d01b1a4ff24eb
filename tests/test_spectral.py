"""Eigensolvers, growth fits, phase-space quadrature, the trend sweep."""
import functools
import importlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from scipy import sparse
from scipy.sparse.linalg import eigsh

import weylab
from _helpers import Unproven, count_calls, poly, schatten_norm, uni_table
from weylab import quantize as qz
from weylab import spectral
from weylab._jets import JPowerSum, JSum, JUni
from weylab.builders import get_operator, get_weight
from weylab.evolve import Propagator
from weylab.hamiltonians import (
    DirichletGrid,
    HamiltonianMatrix,
    bounded_noise_potential,
    hamiltonian_with_potential,
    second_derivative,
    step_potential,
)
from weylab.metric import WeightEvaluator
from weylab.profiles import CutoffProfileSquared
from weylab.quantize import Grid
from weylab.spectral import (
    GrowthFit,
    SolverError,
    SpectralResult,
    _band_fits,
    _box_integrals,
    _chunked_weight,
    eigensolve,
    growth_fit,
    schatten_sweep,
)


def harmonic_1d_weight():
    """1 + (x^2 + xi^2), summed in that order."""
    radial = JPowerSum(2, [(1.0, (2, 0), 0.0), (1.0, (0, 2), 0.0)])
    return WeightEvaluator(1, JSum([JPowerSum.constant(2, 1.0), radial]), name="harmonic-1d")


# -- eigensolve -------------------------------------------------------------

def test_dense_path_matches_continuum_oscillator():
    res = eigensolve(get_operator("harmonic", DirichletGrid(1, 64, 8.0)), 5)
    assert res.solver == "dense"
    assert np.allclose(res.eigenvalues, 2.0 * np.arange(5) + 1.0, atol=1e-3)
    assert np.max(res.residuals) < 1e-8


@pytest.mark.parametrize("grid,k,path", [
    (DirichletGrid(1, 64, 8.0), 5, "dense"),
    (DirichletGrid(2, 40, 8.0), 10, "shift-invert"),
    (DirichletGrid(2, 48, 8.0), 410, "dense"),
], ids=["side64-k5", "side1600-k10", "side2304-k410"])
def test_dense_path_only_below_eight_krylov_sizes(grid, k, path):
    # under DENSE_LIMIT the dense path still needs side < 8 ncv,
    # ncv = max(2 (k + p) + 1, 20): a few pairs of a large matrix go to
    # shift-invert, a large share of them stays dense
    res = eigensolve(get_operator("harmonic", grid), k)
    assert res.solver.split("(")[0] == path
    assert (res.sigma is None) == (path == "dense")


@pytest.mark.parametrize("name,grid,blocks", [
    ("harmonic", DirichletGrid(1, 64, 8.0), (32, 32)),
    ("harmonic", DirichletGrid(1, 65, 8.0), (33, 32)),
    ("harmonic", DirichletGrid(2, 24, 8.0), (144,) * 4),
    ("harmonic", DirichletGrid(2, 25, 8.0), (169, 156, 156, 144)),
    ("harmonic", Grid(2, 16, 6.0), (64,) * 4),
    ("daho", DirichletGrid(2, 24, 6.0), (144,) * 4),
    ("daho", DirichletGrid(2, 25, 6.0), (169, 156, 156, 144)),
    ("grushin_pure", DirichletGrid(2, 24, 6.0), (144,) * 4),
    ("grushin_pure", DirichletGrid(2, 25, 6.0), (169, 156, 156, 144)),
], ids=lambda v: f"{v.boundary}{v.n}d-N{v.N}" if isinstance(v, Grid) else None)
@pytest.mark.parametrize("share", [0.1, 1.0], ids=["subset", "full"])
def test_parity_blocks_match_the_whole_matrix(name, grid, blocks, share):
    # the even and odd parts of each mirror-invariant axis are solved
    # apart (odd N: the middle node is fixed and even); the pairs agree
    # with one decomposition of the whole matrix, which the bare CSR gets.
    # A tenth of the spectrum of side 576 or more stays on the dense path
    # (side < 8 Krylov sizes)
    H = get_operator(name, grid)
    side = grid.side()
    k = max(5, int(share * side))
    split, whole = eigensolve(H, k), eigensolve(H.sparse, k)
    assert split.blocks == blocks and whole.blocks == (side,)
    assert split.solver == whole.solver == "dense"
    rel = np.abs(split.eigenvalues - whole.eigenvalues) / np.abs(whole.eigenvalues)
    assert np.max(rel) <= 1e-12
    assert np.max(split.residuals) <= 1e-12 * np.max(abs(H.sparse).sum(axis=1))
    if k < side:
        assert split.inertia[1] == whole.inertia[1]


def _with_potential(V, grid):
    return hamiltonian_with_potential(get_operator("harmonic", grid), V(grid))


@pytest.mark.parametrize("operator,blocks", [
    (lambda g: _with_potential(step_potential, g), (288, 288)),
    (lambda g: _with_potential(bounded_noise_potential, g), (576,)),
    (lambda g: HamiltonianMatrix(get_operator("harmonic", g).sparse
                                 + sparse.coo_array(([1e-6], ([0], [0])), shape=(576, 576)),
                                 g, "harmonic+1e-6 at node 0"), (576,)),
], ids=["step", "noise", "one-entry"])
def test_only_invariant_axes_split(operator, blocks):
    # the step potential depends on x1 through floor(x1) mod 2, so only x2
    # splits; bounded noise breaks both mirrors, and so does 1e-6 on one
    # corner of the diagonal, far above the gate side eps |A|_inf
    grid = DirichletGrid(2, 24, 8.0)
    H = operator(grid)
    res = eigensolve(H, 60)
    assert res.blocks == blocks
    whole = eigensolve(H.sparse, 60)
    assert np.max(np.abs(res.eigenvalues / whole.eigenvalues - 1.0)) <= 1e-12


@pytest.mark.parametrize("case", ["harmonic", "daho", "harmonic-whole", "daho-whole",
                                  "daho-noise-N40", "spectrum"])
def test_no_solve_runs_lanczos_for_the_top_eigenvalue(monkeypatch, case):
    # the residual gate and the gap width scale by rho = max(|lambda_1|,
    # max A_ii), read without a solve: no eigsh run asks for the largest
    # eigenvalue, split or not, on the dense or the shift-invert path
    import scipy.sparse.linalg as sla

    orig, which = sla.eigsh, []

    def wrapper(*args, **kwargs):
        which.append(kwargs.get("which", "LM"))
        return orig(*args, **kwargs)

    monkeypatch.setattr(sla, "eigsh", wrapper)
    name, _, variant = case.partition("-")
    if variant == "noise":
        g = DirichletGrid(2, 40, 8.0)
        H = hamiltonian_with_potential(get_operator("daho", g), bounded_noise_potential(g))
        res = eigensolve(H, 10)
        assert res.solver.startswith("shift-invert(m=") and res.blocks == (1600,)
        assert which and set(which) == {"LM"}
        return
    H = get_operator("harmonic" if name == "spectrum" else name, DirichletGrid(2, 24, 8.0))
    if name == "spectrum":
        assert spectral.Spectrum(H).lam.shape == (576,)
    else:
        res = eigensolve(H.sparse if variant else H, 60)
        assert res.blocks == ((576,) if variant else (144,) * 4)
    assert which == []


def test_residual_gate_scales_by_the_diagonal_and_lambda_1(monkeypatch):
    # daho's four whole blocks, block 0's lowest eigenvalue returned 2e-6
    # high: its residual is 2e-6, above 1e-8 rho = 1.75e-6 (rho = max A_ii
    # = 174.80) though below 1e-8 lambda_max = 2.24e-6
    import scipy.linalg as la

    H = get_operator("daho", DirichletGrid(2, 24, 8.0))
    S = spectral._symmetric_part(H)
    rho = max(abs(eigensolve(H, 1).eigenvalues[0]), float(np.max(S.diagonal())))
    top = eigsh(S, k=1, which="LA", return_eigenvectors=False)[0]
    assert 1e-8 * rho < 2e-6 < 1e-8 * top
    orig, calls = la.eigh, []

    def raised(*args, **kwargs):
        lam, V = orig(*args, **kwargs)
        if not calls:
            lam = lam.copy()
            lam[0] += 2e-6
        calls.append(lam.size)
        return lam, V

    monkeypatch.setattr(la, "eigh", raised)
    with pytest.raises(SolverError, match=f"residual 2.000e-06 above {1e-8 * rho:.3e}"):
        eigensolve(H, 60)
    assert calls == [144] * 4


def test_each_solve_stays_on_one_blas_runtime(monkeypatch):
    # numpy and scipy each bundle an OpenBLAS: a partial solve decomposes
    # its dense blocks with scipy's LAPACK, as its Lanczos and factor
    # calls do, and a Spectrum with numpy's, as its products do
    import scipy.linalg as la

    def refuse(*args, **kwargs):
        raise AssertionError("called on the wrong BLAS runtime")

    H = get_operator("harmonic", DirichletGrid(2, 24, 8.0))
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    calls = count_calls(monkeypatch, la, "eigh")
    assert eigensolve(H, 60).blocks == (144,) * 4
    assert calls == [(144, 144)] * 4
    monkeypatch.undo()
    monkeypatch.setattr(la, "eigh", refuse)
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    assert spectral.Spectrum(H).lam.shape == (576,)
    assert calls == [(144, 144)] * 4


def held_columns(monkeypatch):
    """Wrap spectral._cut; returns the list of the held W of the last solve."""
    held, cut = [], spectral._cut

    def wrapper(lam, W, *args):
        held[:] = [W]
        return cut(lam, W, *args)

    monkeypatch.setattr(spectral, "_cut", wrapper)
    return held


def test_whole_blocks_hold_only_the_columns_the_merge_can_reach(monkeypatch):
    # four whole blocks of side 144, 64 = k + p pairs merged: each keeps
    # its eigenvalues but W only up to its first eigenvalue above the
    # 64th smallest, so at most one column more than the merge takes
    H = get_operator("harmonic", DirichletGrid(2, 24, 8.0))
    S = spectral._symmetric_part(H)
    held = held_columns(monkeypatch)
    pairs, _ = spectral._parity_pairs(S, spectral._parity_basis(H, S), 64)
    lam, blocks, _, _ = pairs(64)
    assert lam.size == 64
    W = held[0]
    used = [w.size for _, w, _ in blocks]
    assert all(V.shape == (144, V.shape[1]) and V.shape[1] <= u + 1 for V, u in zip(W, used))
    assert sum(V.shape[1] for V in W) < 4 * 144


def test_a_doubled_count_past_a_cut_decomposes_the_block_again(monkeypatch):
    # single_field is -d^2/dx1^2 on a 2-D grid: every eigenvalue is 12
    # fold, so k = 3 has no gap within p = 4 and p doubles; the blocks cut
    # at the first count are decomposed whole again, and the pairs, the
    # residuals and the count at tau are those of a solve with no cut
    import scipy.linalg as la

    H = get_operator("single_field", DirichletGrid(2, 12, 8.0))
    calls = count_calls(monkeypatch, la, "eigh")
    cut = eigensolve(H, 3)
    assert cut.blocks == (36,) * 4 and len(calls) > 4
    monkeypatch.setattr(spectral, "_cut", lambda *args: None)
    calls.clear()
    whole = eigensolve(H, 3)
    assert len(calls) == 4
    assert np.array_equal(cut.eigenvalues, whole.eigenvalues)
    assert np.array_equal(cut.residuals, whole.residuals)
    assert cut.inertia == whole.inertia


def test_spectrum_is_certified(monkeypatch):
    # Spectrum is eigensolve's full case: one np.linalg.eigh per parity
    # block (here two of side 16), then the same per-column residual gate,
    # which a perturbed eigenvector of a block fails
    H = get_operator("harmonic", DirichletGrid(1, 32, 6.0))
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    spec = spectral.Spectrum(H)
    assert spec.lam.shape == (32,) and [W.shape for _, _, W in spec.blocks] == [(16, 16)] * 2
    assert calls == [(16, 16), (16, 16)]
    monkeypatch.undo()
    orig = np.linalg.eigh

    def perturbed(a, *args, **kwargs):
        lam, V = orig(a, *args, **kwargs)
        V = V.copy()
        V[0, 3] += 1e-6
        return lam, V

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(SolverError, match="residual"):
        spectral.Spectrum(H)


def harmonic_tensor_oracle(g, k):
    H1 = second_derivative(g.N, g.h, 6) + np.diag(g.points**2)
    l1 = np.linalg.eigvalsh(H1)
    return np.sort((l1[:, None] + l1[None, :]).ravel())[:k]


def factor_shifts(monkeypatch, A):
    """Wrap the banded Cholesky and the LDL^T of each count at tau; returns
    the list of the shifts s of the factored A - s I, in call order.  The
    Cholesky's shift is read off the least diagonal entry of its band; the
    count's off the first entry of the first block it factors, A's lead
    entry in reverse Cuthill-McKee order less s."""
    import scipy.linalg as la
    d, shifts = float(np.min(A.diagonal().real)), []
    lead = float(A.diagonal().real[spectral._rcm_band(A)[0][0]])
    cholesky, lapack = la.cholesky_banded, la.get_lapack_funcs

    def factor(ab, *args, **kwargs):
        shifts.append(float(d - np.min(ab[0].real)))
        return cholesky(ab, *args, **kwargs)

    def funcs(name, *args, **kwargs):
        solve, first = lapack(name, *args, **kwargs), [True]
        assert solve.typecode + name in ("dsysv", "zhesv")

        def ldlt(a, *args, **kwargs):
            if first:
                first.pop()
                shifts.append(float(lead - a[0, 0].real))
            return solve(a, *args, **kwargs)
        return ldlt

    monkeypatch.setattr(la, "cholesky_banded", factor)
    monkeypatch.setattr(la, "get_lapack_funcs", funcs)
    return shifts


def gershgorin_floor(A):
    d = A.diagonal()
    g = float(np.min(d - (abs(A).sum(axis=1) - np.abs(d))))
    return g - 1e-3 * max(1.0, abs(g))


def test_iterative_path_matches_tensor_oracle():
    # side 4356 crosses the dense limit; the transverse modes decouple,
    # so the pairwise sums of the 1d spectrum are exact for this matrix.
    # The operator is positive definite, so the first candidate shift,
    # 0, is certified.
    g = DirichletGrid(2, 66, 8.0)
    res = eigensolve(get_operator("harmonic", g), 6)
    assert res.solver.startswith("shift-invert(m=")
    assert res.sigma == (0.0,) * 4
    assert np.max(np.abs(res.eigenvalues - harmonic_tensor_oracle(g, 6))) < 1e-10


def test_psd_shift_invert_factors_once_per_shift(monkeypatch):
    # one banded Cholesky at sigma = 0 is both the certificate and the
    # solve; the only other factorization is the block LDL^T of the count
    # at tau
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 16)
    H = get_operator("harmonic", DirichletGrid(1, 64, 8.0)).sparse
    shifts = factor_shifts(monkeypatch, H)
    res = eigensolve(H, 3)
    tau, count = res.inertia
    assert res.sigma == (0.0,)
    assert shifts == [0.0, pytest.approx(tau)]
    assert count == 3 and res.eigenvalues[2] < tau


def test_shifted_spectrum_on_the_sparse_path(monkeypatch):
    # a spectrum reaching below zero: the lowest eigenvalues of the 1d
    # oscillator minus 5 are about -4, -2, 0; a solver that assumes the
    # spectrum lies above -1/2 returns 0, 2, 4, genuine pairs all
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 16)
    H = get_operator("harmonic", DirichletGrid(1, 64, 8.0)).sparse
    res = eigensolve(H - 5.0 * sparse.eye_array(64), 3)
    assert res.solver.startswith("shift-invert(m=")
    assert np.allclose(res.eigenvalues, [-4.0, -2.0, 0.0], atol=1e-3)


def test_shifted_2d_oscillator_matches_tensor_oracle(monkeypatch):
    # lambda_1 = 2 - 5 < 0: the Cholesky at 0 meets a non-positive pivot,
    # so the shift comes from further down the ladder, not below its floor
    g = DirichletGrid(2, 66, 8.0)
    A = get_operator("harmonic", g).sparse - 5.0 * sparse.eye_array(g.side())
    shifts = factor_shifts(monkeypatch, A)
    res = eigensolve(A, 6)
    assert res.solver.startswith("shift-invert(m=")
    assert shifts[0] == 0.0 and len(shifts) >= 3
    assert shifts[-2] == pytest.approx(res.sigma[0]) and shifts[-1] == pytest.approx(res.inertia[0])
    assert gershgorin_floor(A) <= res.sigma[0] < 0.0
    assert res.sigma[0] < res.eigenvalues[0]
    assert np.max(np.abs(res.eigenvalues - (harmonic_tensor_oracle(g, 6) - 5.0))) < 1e-10


def test_singular_candidate_shift_is_rejected(monkeypatch):
    # an exact zero eigenvalue stops the Cholesky at 0 on a zero pivot; the Gershgorin
    # bound is 0 as well, so g/8, g/4, g/2 are no lower and the floor is next
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 16)
    A = np.diag(np.arange(64.0))
    shifts = factor_shifts(monkeypatch, sparse.csr_array(A))
    res = eigensolve(A, 3)
    assert res.solver.startswith("shift-invert(m=")
    assert shifts == [0.0, pytest.approx(-1e-3), pytest.approx(2.5)]
    assert res.sigma == pytest.approx((-1e-3,))
    assert res.inertia == (pytest.approx(2.5), 3)
    assert np.allclose(res.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)


def test_no_certified_shift_is_a_solver_error(monkeypatch):
    # a shift is used only after its own Cholesky shows A - sigma I
    # positive definite; when no candidate does, down to the Gershgorin
    # floor, nothing runs
    def refuse(band, sigma):
        raise SolverError(f"A - {sigma} I is not positive definite")

    monkeypatch.setattr(spectral, "DENSE_LIMIT", 16)
    monkeypatch.setattr(spectral, "_band_cholesky", refuse)
    H = get_operator("harmonic", DirichletGrid(1, 64, 8.0))
    with pytest.raises(SolverError, match="no shift"):
        eigensolve(H, 3)


def test_a_block_just_below_zero_rejects_sigma_zero(monkeypatch):
    # the 1d oscillator minus (lambda_1 + 1e-8) I: one eigenvalue at
    # -1e-8, far above the factorization's rounding, so the Cholesky at 0
    # fails and a lower shift of the ladder is certified below -1e-8
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 16)
    H = get_operator("harmonic", DirichletGrid(1, 64, 8.0)).sparse
    lam1 = np.linalg.eigvalsh(H.toarray())[0]
    A = H - (lam1 + 1e-8) * sparse.eye_array(64)
    shifts = factor_shifts(monkeypatch, A)
    res = eigensolve(A, 3)
    assert res.solver.startswith("shift-invert(m=") and res.blocks == (64,)
    assert shifts[0] == 0.0 and len(shifts) >= 3
    assert gershgorin_floor(A) <= res.sigma[0] < -1e-8
    assert res.eigenvalues[0] == pytest.approx(-1e-8, abs=1e-12)
    assert res.inertia[1] == 3


def test_complex_hermitian_operator_certifies_on_the_shift_invert_path(monkeypatch):
    # D A D^* for a diagonal of unit phases: complex Hermitian, with the
    # eigenvalues of the real A.  Its shift is certified by the complex
    # banded Cholesky (zpbtrf) and its count by the complex LDL^T (zhesv)
    import scipy.linalg as la
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 16)
    A, Z = get_operator("harmonic", DirichletGrid(1, 64, 8.0)).sparse, phased_oscillator()
    assert np.iscomplexobj(Z) and abs(Z - Z.conj().T).max() <= 1e-13
    orig, dtypes = la.cholesky_banded, []
    monkeypatch.setattr(la, "cholesky_banded",
                        lambda ab, **kwargs: dtypes.append(ab.dtype) or orig(ab, **kwargs))
    res, real = eigensolve(Z, 3), eigensolve(A, 3)
    assert res.solver.startswith("shift-invert(m=") and res.sigma == (0.0,)
    assert dtypes == [np.complex128, np.float64]
    assert np.max(np.abs(res.eigenvalues / real.eigenvalues - 1.0)) <= 1e-12
    assert res.inertia[1] == real.inertia[1] == 3


def test_periodic_operator_is_banded_by_rcm():
    # the periodic wrap couples the first and last rows of x1, a band of
    # 39 * 40 = 1560 in natural order; reverse Cuthill-McKee brings it
    # under 300, and the whole operator (side 1600) solves and counts
    H = get_operator("harmonic", Grid(2, 40, 8.0))
    S = spectral._symmetric_part(H.sparse)
    C = S.tocoo()
    assert int(np.max(C.row - C.col)) == 1560
    perm, where, band = spectral._rcm_band(S)
    assert np.array_equal(perm[where], np.arange(1600)) and band.shape[1] == 1600
    assert band.shape[0] - 1 < 300
    res = eigensolve(H.sparse, 10)
    assert res.solver.startswith("shift-invert(m=") and res.blocks == (1600,)
    assert res.sigma == (0.0,) and res.inertia[1] >= 10
    split = eigensolve(H, 10)
    assert np.max(np.abs(res.eigenvalues / split.eigenvalues - 1.0)) <= 1e-12


def superlu_ldlt(M, shift):
    """The oracle: SuperLU's LDL^T of M - shift I in its own (MMD) order,
    pivoting on the diagonal only, so that the signs of U's diagonal are
    the inertia of M - shift I."""
    from scipy.sparse.linalg import splu
    lu = splu(sparse.csc_array(M - shift * sparse.eye_array(M.shape[0])),
              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_r, lu.perm_c)
    return lu


def superlu_count(M, tau):
    return int(np.count_nonzero(superlu_ldlt(M, tau).U.diagonal().real < 0))


def test_band_solve_matches_superlu_on_a_daho_block():
    # the banded Cholesky in RCM order and SuperLU's LDL^T in its own
    # order solve the same system of one daho E3 block to roundoff
    H = get_operator("daho", DirichletGrid(2, 66, 8.0))
    S = spectral._symmetric_part(H)
    Uc = spectral._parity_basis(H, S)[0]
    M = Uc @ S @ Uc.T
    perm, where, band = spectral._rcm_band(M)
    x = np.random.default_rng(7).normal(size=M.shape[0])
    got = spectral._band_cholesky(band, 0.0)(x[perm])[where]
    want = superlu_ldlt(M, 0.0).solve(x)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_count_refuses_a_singular_shift():
    # tau on an eigenvalue of a diagonal operator: a zero pivot, in the
    # second block of three (bandwidth 0) and in the eleventh of 64
    with pytest.raises(SolverError, match="inertia: A - 2 I is singular"):
        spectral._count_below(sparse.diags_array([1.0, 2.0, 3.0]), 2.0)
    with pytest.raises(SolverError, match="inertia: A - 10 I is singular"):
        spectral._count_below(sparse.diags_array(np.arange(64.0)).tocsr(), 10.0)


def test_a_flipped_pivot_fails_the_count(monkeypatch):
    # the LDL^T of the first Schur complement of block 0 returns one 1 x 1
    # pivot with its sign flipped (its solve is the true one): that block's
    # count at tau moves by one from its own computed pairs, and the
    # certificate refuses the solve
    import scipy.linalg as la
    lapack, flipped = la.get_lapack_funcs, []

    def funcs(name, *args, **kwargs):
        solve = lapack(name, *args, **kwargs)

        def ldlt(a, *args, **kwargs):
            ldu, ipiv, X, info = solve(a, *args, **kwargs)
            if not flipped:
                j = int(np.flatnonzero(ipiv > 0)[0])
                ldu[j, j] = -ldu[j, j]
                flipped.append(j)
            return ldu, ipiv, X, info
        return ldlt

    monkeypatch.setattr(la, "get_lapack_funcs", funcs)
    with pytest.raises(SolverError, match="inertia of block 0"):
        eigensolve(get_operator("daho", DirichletGrid(2, 40, 8.0)), 10)
    assert len(flipped) == 1


def test_shift_invert_refuses_every_pair_and_maps_arpack_errors(monkeypatch):
    import scipy.sparse.linalg as sla

    A = sparse.diags_array(np.arange(1.0, 31.0)).tocsr()
    pairs, sigma = spectral._shift_invert_pairs(A)
    assert sigma == 0.0
    with pytest.raises(SolverError, match="shift-invert: 30 pairs asked of dimension 30"):
        pairs(30)

    def fail(*args, **kwargs):
        raise sla.ArpackError(-9999)

    monkeypatch.setattr(sla, "eigsh", fail)
    with pytest.raises(SolverError, match="shift-invert: ARPACK error -9999"):
        spectral._shift_invert_pairs(A)[0](3)


@pytest.mark.parametrize("dense_limit,solver,whole", [
    pytest.param(4096, "scipy.linalg.eigh", True, id="4096-scipy.linalg.eigh"),
    pytest.param(4096, "scipy.linalg.eigh", False, id="4096-blocks-scipy.linalg.eigh"),
    pytest.param(16, "scipy.sparse.linalg.eigsh", False, id="16-scipy.sparse.linalg.eigsh")])
def test_inertia_certificate_catches_a_missed_eigenvalue(monkeypatch, dense_limit, solver, whole):
    # a solver that silently drops its lowest pair returns genuine
    # eigenpairs that pass the residual gate; only the count catches it.
    # The operator splits into two parity blocks, each decomposed whole
    # by scipy.linalg.eigh's evd, and each block loses its lowest pair;
    # its bare CSR (whole) has no grid and goes to the one-block subset
    # scipy eigh
    module, name = solver.rsplit(".", 1)
    module = importlib.import_module(module)
    orig = getattr(module, name)

    def drop_lowest(*args, **kwargs):
        lam, V = orig(*args, **kwargs)
        i = int(np.argmin(lam))
        return np.delete(lam, i), np.delete(V, i, axis=1)

    H = get_operator("harmonic", DirichletGrid(1, 64, 8.0))
    if dense_limit > 64:
        assert eigensolve(H.sparse if whole else H, 5).blocks == ((64,) if whole else (32, 32))
    monkeypatch.setattr(module, name, drop_lowest)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", dense_limit)
    with pytest.raises(SolverError, match="inertia"):
        eigensolve(H.sparse if whole else H, 5)


@pytest.mark.parametrize("name", ["harmonic", "daho", "grushin_pure"])
@pytest.mark.parametrize("N,blocks", [(40, (400,) * 4), (41, (441, 420, 420, 400))],
                         ids=["N40", "N41"])
def test_split_shift_invert_matches_the_whole_matrix(name, N, blocks):
    # k = 10 of side 1600 or 1681 is a shift-invert size for the whole
    # matrix and for each parity block; the merged pairs agree with one
    # Lanczos run on the bare CSR, and so does the count at tau
    H = get_operator(name, DirichletGrid(2, N, 8.0))
    split, whole = eigensolve(H, 10), eigensolve(H.sparse, 10)
    assert split.blocks == blocks and whole.blocks == (N * N,)
    assert split.solver.startswith("shift-invert(m=") and whole.solver.startswith("shift-invert(m=")
    assert len(split.sigma) == 4 and len(whole.sigma) == 1
    rel = np.abs(split.eigenvalues - whole.eigenvalues) / np.abs(whole.eigenvalues)
    assert np.max(rel) <= 1e-12
    assert split.inertia[1] == whole.inertia[1]


def test_inertia_catches_a_pair_dropped_by_one_block(monkeypatch):
    # the first block's Lanczos runs lose their lowest pair; the other
    # blocks are whole and every pair returned is genuine, so only the
    # first block's own count at tau can see the gap
    import scipy.sparse.linalg as sla
    orig, solved = sla.eigsh, []

    def drop_in_first_block(A, *args, **kwargs):
        out = orig(A, *args, **kwargs)
        solved.append(A)
        if A is not solved[0]:
            return out
        lam, V = out
        i = int(np.argmin(lam))
        return np.delete(lam, i), np.delete(V, i, axis=1)

    monkeypatch.setattr(sla, "eigsh", drop_in_first_block)
    with pytest.raises(SolverError, match="inertia"):
        eigensolve(get_operator("daho", DirichletGrid(2, 40, 8.0)), 10)
    assert len(solved) == 4 and len({id(A) for A in solved}) == 4


@pytest.mark.parametrize("solver", ["scipy.linalg.eigh", "scipy.sparse.linalg.eigsh"])
def test_inertia_catches_a_pair_moved_between_blocks(monkeypatch, solver):
    # the first block solved loses its lowest pair and the second returns
    # its lowest pair twice: every pair is genuine and as many lie below
    # tau as the whole operator holds, so a count of the whole operator
    # passes this solve; the first block's own count at tau does not.
    # Dense: the 1d oscillator's even and odd blocks (side 32), each
    # decomposed whole by scipy.linalg.eigh; Lanczos: daho's four blocks
    # of side 400
    module, name = solver.rsplit(".", 1)
    module = importlib.import_module(module)
    orig, calls = getattr(module, name), []

    def fault(*args, **kwargs):
        out = orig(*args, **kwargs)
        lam, V = out
        calls.append(V.shape[0])
        if len(calls) == 1:
            return lam[1:], V[:, 1:]
        if len(calls) == 2:
            return np.insert(lam, 0, lam[0]), np.insert(V, 0, V[:, 0], axis=1)
        return out

    if name == "eigh":
        H, k = get_operator("harmonic", DirichletGrid(1, 64, 8.0)), 5
    else:
        H, k = get_operator("daho", DirichletGrid(2, 40, 8.0)), 10
    monkeypatch.setattr(module, name, fault)
    with pytest.raises(SolverError, match="inertia of block 0"):
        eigensolve(H, k)
    assert len(calls) >= 2


def phased_oscillator():
    """D A D^* for the 1d oscillator A and a diagonal D of unit phases:
    complex Hermitian, with A's eigenvalues, and no grid to split on."""
    A = get_operator("harmonic", DirichletGrid(1, 64, 8.0)).sparse
    phase = np.exp(1j * np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 64))
    return sparse.csr_array(sparse.diags_array(phase) @ A @ sparse.diags_array(phase.conj()))


@pytest.mark.parametrize("name,grid", [
    *[(name, DirichletGrid(2, N, 8.0)) for name in ("harmonic", "daho", "grushin_pure")
      for N in (40, 41)],
    ("daho", Grid(2, 32, 8.0)),
    ("complex-hermitian", None),
], ids=lambda v: f"{v.boundary}-N{v.N}" if isinstance(v, Grid) else None)
def test_block_counts_sum_to_the_whole_count(name, grid):
    # the certificate counts per block; with an orthogonal parity basis
    # the block counts at tau sum to the count on the whole operator
    # (Sylvester), at every tau midway between two adjacent ones of the
    # lowest 41 eigenvalues further apart than the certificate's gap width.
    # Every count, of a block or of the whole, equals SuperLU's LDL^T's.
    # The complex Hermitian operator has no grid, so it is counted whole
    H = phased_oscillator() if grid is None else get_operator(name, grid)
    S = spectral._symmetric_part(H)
    U = spectral._parity_basis(H, S)
    mats = [Uc @ S @ Uc.T for Uc in U]
    assert len(mats) == (0 if grid is None else 4)
    lam = eigensolve(S, 41).eigenvalues
    width = spectral.GAP_REL_TOL * lam[-1]
    taus = [0.5 * (a + b) for a, b in zip(lam, lam[1:]) if b - a > width]
    assert len(taus) >= (8 if name == "harmonic" else 30)
    for tau in taus:
        whole = spectral._count_below(S, tau)
        assert whole == np.count_nonzero(lam < tau) == superlu_count(S, tau)
        counts = [spectral._count_below(M, tau) for M in mats]
        assert counts == [superlu_count(M, tau) for M in mats]
        assert not mats or sum(counts) == whole


@pytest.mark.parametrize("fault", ["drop", "scale"])
def test_a_broken_parity_basis_is_a_solver_error(monkeypatch, fault):
    # the block counts stand for the whole count only on an orthogonal
    # basis: one row fewer, or one row scaled by 1 + 1e-9 (far above the
    # gate side eps, below what the residuals can see), stops the solve
    orig = spectral._parity_basis

    def broken(H, S):
        U = orig(H, S)
        scale = np.ones(U[0].shape[0])
        scale[0] += 1e-9
        U[0] = U[0][1:] if fault == "drop" else sparse.diags_array(scale) @ U[0]
        return U

    monkeypatch.setattr(spectral, "_parity_basis", broken)
    H = get_operator("daho", DirichletGrid(2, 24, 6.0))
    with pytest.raises(SolverError, match="parity basis"):
        eigensolve(H, 10)
    with pytest.raises(SolverError, match="parity basis"):
        spectral.Spectrum(H)


@pytest.mark.parametrize("name,grid,k,path", [
    ("daho", DirichletGrid(2, 40, 8.0), 10, "shift-invert"),
    ("harmonic", DirichletGrid(2, 24, 6.0), 10, "dense"),
], ids=["shift-invert", "dense"])
def test_split_solve_factors_nothing_larger_than_a_block(monkeypatch, name, grid, k, path):
    # the shifts sigma (banded Cholesky) and the count at tau (block
    # LDL^T) factor the block matrices, never the whole operator
    sides = []
    for factor in ("_band_cholesky", "_count_below"):
        orig = getattr(spectral, factor)
        monkeypatch.setattr(spectral, factor, lambda A, shift, orig=orig:
                            sides.append(A.shape[-1]) or orig(A, shift))
    res = eigensolve(get_operator(name, grid), k)
    assert res.solver.startswith(path) and res.inertia is not None
    assert len(sides) >= len(res.blocks) and max(sides) <= max(res.blocks)


def test_a_block_short_of_pairs_grows_without_repeating_a_count(monkeypatch):
    # a stiff 1e3 x2^2 well on a grid with a node at x2 = 0: the lowest 44
    # pairs but two are x1 excitations over the x2 ground state, so the
    # two blocks even in x2 hold 42 of them between them, more than the
    # ceil(44/4) + 4 = 15 each starts at.  Those two grow; the odd ones are
    # solved once, and no block twice for one count
    import scipy.sparse.linalg as sla
    g = DirichletGrid(2, 41, 8.0)
    x2 = g.mesh()[:, 1]
    H = HamiltonianMatrix(get_operator("harmonic", g).sparse + sparse.diags_array(1e3 * x2**2),
                          g, "harmonic+1e3 x2^2")
    orig, asked = sla.eigsh, {}

    def record(A, *args, **kwargs):
        if kwargs.get("sigma") is not None:
            asked.setdefault(id(A), []).append(kwargs["k"])
        return orig(A, *args, **kwargs)

    monkeypatch.setattr(sla, "eigsh", record)
    res = eigensolve(H, 40)
    monkeypatch.undo()
    assert res.blocks == (441, 420, 420, 400) and len(res.sigma) == 4
    even_even, even_odd, odd_even, odd_odd = asked.values()
    assert even_odd == odd_odd == [15]
    for ks in (even_even, odd_even):
        assert ks[0] == 15 and len(ks) > 1
        assert all(a < b for a, b in zip(ks, ks[1:]))
    whole = eigensolve(H.sparse, 40)
    assert np.max(np.abs(res.eigenvalues / whole.eigenvalues - 1.0)) <= 1e-12
    assert res.inertia[1] == whole.inertia[1]


def test_each_block_certifies_its_own_shift():
    # the E4 shape, harmonic - 5 I: the blocks' lowest eigenvalues are
    # about -3, -1, -1 and 1.  Each block takes the first shift of its own
    # ladder that is certified below its own spectrum: 0 for the odd-odd
    # block, a negative one for the others, none below its block's floor
    g = DirichletGrid(2, 40, 8.0)
    H = hamiltonian_with_potential(get_operator("harmonic", g),
                                   step_potential(g, amplitude=0.0, base=-5.0))
    res = eigensolve(H, 6)
    assert res.solver.startswith("shift-invert(m=") and res.blocks == (400,) * 4
    S = spectral._symmetric_part(H)
    for Uc, sigma in zip(spectral._parity_basis(H, S), res.sigma):
        block = Uc @ S @ Uc.T
        assert gershgorin_floor(block) <= sigma < np.linalg.eigvalsh(block.toarray())[0]
    assert res.sigma[3] == 0.0 and max(res.sigma[:3]) < 0.0
    assert np.max(np.abs(res.eigenvalues - (harmonic_tensor_oracle(g, 6) - 5.0))) < 1e-10


def test_blocks_route_by_their_own_side():
    # daho at the benchmark's E3 size: the four blocks of side 1089 each
    # run shift-invert, none on the whole side 4356
    res = eigensolve(get_operator("daho", DirichletGrid(2, 66, 8.0)), 6)
    assert res.blocks == (1089,) * 4
    assert res.solver.startswith("shift-invert(m=") and len(res.sigma) == 4


def test_full_spectrum_above_the_dense_limit_splits_into_dense_blocks(monkeypatch):
    # every pair of a side-64 grid with the dense limit at 32: the whole
    # matrix is too large for the dense path and shift-invert cannot give
    # every pair, but each parity block of side 32 fits under the limit
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 32)
    H = get_operator("harmonic", DirichletGrid(1, 64, 8.0))
    res = eigensolve(H, 64)
    assert res.blocks == (32, 32) and res.solver == "dense" and res.sigma is None
    spec = spectral.Spectrum(H)
    want = np.linalg.eigvalsh(H.sparse.toarray())
    assert np.max(np.abs(spec.lam - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(SolverError, match="^a block of side 64 must be decomposed whole, "
                                          "above the dense limit 32$"):
        eigensolve(H.sparse, 64)


def test_full_spectrum_of_too_large_blocks_is_refused_unfactored(monkeypatch):
    # daho at N=130 splits into four parity blocks of side 65^2 = 4225:
    # each must be decomposed whole, none fits the dense path, and the
    # refusal comes before any factorization or eigendecomposition
    ldlt = count_calls(monkeypatch, spectral, "_count_below")
    band = count_calls(monkeypatch, spectral, "_band_cholesky")
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    H = get_operator("daho", DirichletGrid(2, 130, 6.0))
    with pytest.raises(SolverError, match="^a block of side 4225 must be decomposed whole, "
                                          "above the dense limit 4096$"):
        spectral.Spectrum(H)
    assert ldlt == [] and band == [] and eigh == []


def _block_kept_cases():
    for name, n, N in [("harmonic", 1, 32), ("harmonic", 1, 33), ("daho", 2, 16), ("daho", 2, 17),
                       ("grushin_pure", 2, 16), ("grushin_pure", 2, 17)]:
        yield pytest.param(get_operator(name, DirichletGrid(n, N, 6.0)), id=f"{name}-{n}d-N{N}")
    yield pytest.param(get_operator("daho", DirichletGrid(2, 16, 6.0)).sparse.toarray(),
                       id="bare-array")


@pytest.mark.parametrize("H", _block_kept_cases())
def test_block_kept_spectrum_matches_one_dense_decomposition(H):
    # the powers and the propagators act block by block; they agree with
    # the same functions of one np.linalg.eigh of the whole matrix
    A = H.sparse.toarray() if isinstance(H, HamiltonianMatrix) else H
    lam, Q = np.linalg.eigh(A)
    spec = spectral.Spectrum(H)
    assert len(spec.blocks) == (1 if A is H else 2 ** H.grid.n)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for beta in (-0.75, 1.5):
        close(spec.power(beta, 1.0), (Q * (lam + 1.0) ** beta) @ Q.T)
        close(spec.power_diagonal(beta, 1.0), (Q * Q) @ (lam + 1.0) ** beta)
    f = np.random.default_rng(5).normal(size=lam.size) * (1.0 + 0.5j)
    for kind, phase in (("schrodinger", -0.3j), ("heat", -0.3)):
        close(Propagator(H, kind).apply(f, 0.3), Q @ (np.exp(phase * lam) * (Q.T @ f)))


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif type(obj).__module__.startswith("weylab."):
        for item in vars(obj).values():
            yield from _arrays(item)


def test_split_spectra_hold_no_side_squared_array():
    # a full spectrum stays in its parity blocks: neither the Spectrum nor
    # a Propagator keeps an eigenvector matrix of the whole side
    H = get_operator("daho", DirichletGrid(2, 16, 6.0))
    for held in (spectral.Spectrum(H), Propagator(H, "schrodinger")):
        sizes = [a.size for a in _arrays(held)]
        assert sizes and max(sizes) < 256 ** 2


def test_certificate_cut_skips_a_degenerate_pair(monkeypatch):
    # the 2d oscillator's eigenvalues come in exact pairs; k = 2 splits
    # the pair at 4, so tau has to go past both copies, into (4, 6).
    # Each of the four parity blocks is counted once, all at that one tau
    counted = []
    count_below = spectral._count_below
    monkeypatch.setattr(spectral, "_count_below",
                        lambda S, tau: counted.append((S.shape[0], tau)) or count_below(S, tau))
    res = eigensolve(get_operator("harmonic", DirichletGrid(2, 24, 6.0)), 2)
    assert res.eigenvalues[1] == pytest.approx(4.0, abs=1e-2)
    sides, taus = zip(*counted)
    assert sides == res.blocks == (144,) * 4
    assert len(set(taus)) == 1 and taus[0] == pytest.approx(5.0, abs=0.1)


class _Widths:
    """S for _residual_norms, recording the width of each block of columns
    it multiplies."""

    def __init__(self, S):
        self.S, self.widths = S, []

    def __matmul__(self, V):
        self.widths.append(V.shape[1])
        return self.S @ V


@pytest.mark.parametrize("order", ["C", "F"])
def test_residual_norms_take_bounded_runs_and_equal_the_one_pass(monkeypatch, order):
    # more columns than one run holds, including counts that would leave a
    # one-column tail; every norm is the one-pass norm bit for bit
    rng = np.random.default_rng(5)
    S = sparse.random_array((300, 300), density=0.05, rng=rng, format="csr")
    S = S + S.T
    cases = [(spectral.RESIDUAL_CHUNK, 2 * spectral.RESIDUAL_CHUNK + 1)]
    cases += [(8, n) for n in (1, 8, 9, 17, 33, 40)]
    for chunk, n in cases:
        monkeypatch.setattr(spectral, "RESIDUAL_CHUNK", chunk)
        V = np.asarray(rng.normal(size=(300, n)), order=order)
        lam = rng.normal(size=n)
        counted = _Widths(S)
        got = spectral._residual_norms(counted, V, lam)
        assert np.array_equal(got, np.linalg.norm(S @ V - V * lam, axis=0))
        assert sum(counted.widths) == n and max(counted.widths) <= chunk
        assert len(counted.widths) == -(-n // chunk)


def test_setup_does_not_import_scipy():
    # scipy.sparse.linalg alone takes about as long to import as the
    # whole package set-up; only the assembly and solver calls load it
    code = ("import sys\n"
            "import numpy as np\n"
            "import weylab\n"
            "from weylab.builders import get_weight\n"
            "get_weight('daho').m_values(np.linspace(-5.0, 5.0, 400).reshape(100, 4))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _fresh_interpreter(code) == "[]"


def _fresh_interpreter(code):
    """The stripped stdout of code run by a new python with weylab on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_eigensolve_k_exceeds_dimension():
    with pytest.raises(ValueError):
        eigensolve(np.eye(4), 5)


def test_spectral_result_rejects_descending():
    with pytest.raises(ValueError, match="ascending"):
        SpectralResult(np.array([2.0, 1.0]), np.zeros(2), "dense")


def test_eigensolve_accepts_raw_arrays():
    A = np.diag([3.0, 1.0, 2.0])
    res = eigensolve(A, 2)
    assert np.allclose(res.eigenvalues, [1.0, 2.0])
    assert res.sigma is None and res.inertia == (2.5, 2)


# -- Schatten oracle ----------------------------------------------------------
# schatten_norm in _helpers is the SVD reference the sweep's values are
# checked against; these pin it to closed forms.

def test_schatten_two_is_frobenius(rng):
    T = rng.normal(size=(9, 9))
    assert schatten_norm(T, 2.0) == pytest.approx(np.linalg.norm(T, "fro"), rel=1e-12)


def test_schatten_one_is_trace_norm(rng):
    # trace norm tr sqrt(T^T T), from the eigenvalues of the Gram matrix
    T = rng.normal(size=(6, 6))
    gram = np.sqrt(np.clip(np.linalg.eigvalsh(T.T @ T), 0.0, None))
    assert schatten_norm(T, 1.0) == pytest.approx(np.sum(gram), rel=1e-12)


def test_weyl_inequality(rng):
    # sum |lambda|^p <= sum s^p, with equality on normal matrices: the
    # sweep's eigenvalue route to the Schatten value of a Hermitian T
    T = rng.normal(size=(8, 8))
    for p in (1.0, 2.0):
        lhs = np.sum(np.abs(np.linalg.eigvals(T)) ** p)
        assert lhs <= schatten_norm(T, p) ** p * (1.0 + 1e-12)
    sym = T + T.T
    lam = np.linalg.eigvalsh(sym)
    assert np.sum(np.abs(lam) ** 1.5) ** (1.0 / 1.5) == pytest.approx(
        schatten_norm(sym, 1.5), rel=1e-12)


# -- growth fits ------------------------------------------------------------

def test_growth_fit_recovers_power_law():
    j = np.arange(1, 501, dtype=float)
    fit = growth_fit(3.7 * j**1.31)
    assert fit.exponent == pytest.approx(1.31, abs=1e-12)
    assert fit.residual < 1e-12
    assert fit.window == (50, 400) and fit.n_points == 351


def test_growth_fit_with_noise(rng):
    j = np.arange(1, 501, dtype=float)
    lam = j**0.8 * (1.0 + 0.01 * rng.uniform(-1, 1, size=500))
    fit = growth_fit(np.sort(lam))
    assert fit.exponent == pytest.approx(0.8, abs=0.02)


def test_growth_fit_validation():
    lam = np.arange(1.0, 100.0)
    with pytest.raises(ValueError, match="span"):
        growth_fit(lam, window=(10, 40))
    with pytest.raises(ValueError, match="exceeds"):
        growth_fit(lam, window=(50, 400))
    bad = np.concatenate([[-1.0], np.arange(1.0, 500.0)])
    with pytest.raises(ValueError, match="nonpositive"):
        growth_fit(bad, window=(1, 60))


# -- phase-space quadrature -------------------------------------------------

def test_box_integral_constant_weight_is_volume():
    w = WeightEvaluator(1, JPowerSum.constant(2, 1.0))
    got = _box_integrals(w, [3.0], 2.5, 50)[0]
    assert got == pytest.approx(25.0, rel=1e-13)


def test_box_integral_gaussian_closed_form():
    # separable integrand, so the product of 1d error functions is exact
    t = sp.Symbol("t")
    radial = JPowerSum(2, [(1.0, (2, 0), 0.0), (1.0, (0, 2), 0.0)])
    w = WeightEvaluator(1, JUni(radial, uni_table(sp.exp(t), t)))
    got = _box_integrals(w, [1.0], 6.0, 100)[0]
    want = (math.sqrt(math.pi) * math.erf(6.0)) ** 2
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_band_slope_closed_form(s):
    # radial weight 1 + |Z|^2 in one slot: the shell mass of m^{-s} is an
    # exact integral in m, so log-base-3 band sums slope at 1 - s
    sl, bands = _band_fits(harmonic_1d_weight(), [s], 100)[0]
    assert len(bands) == 4
    assert sl == pytest.approx(1.0 - s, abs=0.05)


def test_band_slope_rejects_concentrated_weight():
    w = WeightEvaluator(1, JPowerSum.constant(2, 1.0))
    with pytest.raises(SolverError, match="empty band"):
        _band_fits(w, [2.0], 100)


def _unfolded(w):
    """w with no parity proven, so no axis of its box folds."""
    return WeightEvaluator(w.n, Unproven(w.expr), name=w.name)


def _plain_box_integrals(w, exps, L, npts):
    """Midpoint sums of m^{-s} over every node of the box, in the chunk
    order, as the quadrature took them before it folded anything."""
    d = 2 * w.n
    g = -L + (2.0 * L / npts) * (np.arange(npts) + 0.5)
    cell = (2.0 * L / npts) ** d
    rest = np.meshgrid(*([g] * (d - 1)), indexing="ij", sparse=True)
    totals = [0.0] * len(exps)
    for v in g:
        m = w.m_values((v, *rest)).ravel()
        for i, s in enumerate(exps):
            totals[i] += float(np.sum(m ** (-s))) * cell
    return totals


def _with_x1_xi1(n):
    """The harmonic weight plus x1 xi1 / 2 (still >= 1): odd under x1 -> -x1
    and under xi1 -> -xi1 alone, so neither axis is proven even."""
    x1 = JPowerSum.monomial(2 * n, (1,) + (0,) * (2 * n - 1), c=0.5)
    cross = poly(n, {(1,) + (0,) * (n - 1): x1})
    return WeightEvaluator(n, JSum([get_weight("harmonic", {"n": n}).expr, cross.expr]),
                           name="x1-xi1")


def _box_points(w, L, npts):
    """(evaluated points, their total multiplicity) of one pass."""
    sizes, mults = zip(*((m.size, mult.sum()) for m, mult, _ in _chunked_weight(w, L, npts)))
    return sum(sizes), float(sum(mults))


FOLDED = [("daho", {}), ("harmonic", {"n": 1}), ("harmonic", {"n": 2}), ("grushin_pure", {})]


@pytest.mark.parametrize("L,npts", [(8.0, 12), (7.7, 21), (12.0, 15)])
@pytest.mark.parametrize("name,params", FOLDED, ids=["daho", "harmonic1", "harmonic2", "grushin"])
def test_folded_box_sums_match_the_unfolded_ones(name, params, L, npts):
    # every axis of a table weight is even, so its box keeps the upper half
    # of the nodes, the centre of an odd count once (at L = 7.7, npts = 21
    # it lies 8.9e-16 off 0), and each node's multiplicity counts its mirror
    w = get_weight(name, params)
    d = 2 * w.n
    assert _box_points(w, L, npts) == ((npts - npts // 2) ** d, float(npts ** d))
    exps = [2.0, 3.0, 4.8]
    got, want = _box_integrals(w, exps, L, npts), _box_integrals(_unfolded(w), exps, L, npts)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("npts", [14, 23])
@pytest.mark.parametrize("name,params", FOLDED, ids=["daho", "harmonic1", "harmonic2", "grushin"])
def test_folded_band_sums_match_the_unfolded_ones(name, params, npts):
    # the band box's centre node at npts = 23 lies 1.8e-15 off 0
    w = get_weight(name, params)
    exps = [2.4, 3.0, 4.0]
    for (slope, bands), (want_slope, want_bands) in zip(
            _band_fits(w, exps, npts), _band_fits(_unfolded(w), exps, npts)):
        assert slope == pytest.approx(want_slope, rel=1e-13)
        assert np.allclose(bands, want_bands, rtol=1e-13, atol=0.0)


def test_unproven_axes_are_not_folded():
    L, npts, exps = 7.7, 21, [2.0, 3.0]
    # in one dimension x1 xi1 leaves no axis proven: nothing folds, and
    # the sums are the plain ones bit for bit
    w = _with_x1_xi1(1)
    assert [w.expr.parity(a) for a in range(2)] == [0, 0]
    assert _box_points(w, L, npts) == (npts ** 2, float(npts ** 2))
    assert _box_integrals(w, exps, L, npts) == _plain_box_integrals(w, exps, L, npts)
    for (slope, bands), (want_slope, want_bands) in zip(
            _band_fits(w, exps, 40), _band_fits(_unfolded(w), exps, 40)):
        assert slope == want_slope and np.array_equal(bands, want_bands)
    # in two, x2 and xi2 fold and x1, xi1 do not
    w = _with_x1_xi1(2)
    assert [w.expr.parity(a) for a in range(4)] == [0, 1, 0, 1]
    assert _box_points(w, L, npts) == (npts ** 2 * 11 ** 2, float(npts ** 4))
    assert np.allclose(_box_integrals(w, exps, L, npts),
                       _plain_box_integrals(w, exps, L, npts), rtol=1e-13, atol=0.0)
    # a weight with no proof on any axis folds none
    w = _unfolded(get_weight("daho"))
    assert _box_points(w, L, npts) == (npts ** 4, float(npts ** 4))
    assert _box_integrals(w, exps, L, npts) == _plain_box_integrals(w, exps, L, npts)


@pytest.mark.parametrize("name,params,unfolded,npts,calls", [
    ("harmonic", {"n": 1}, False, 100, 1),     # 50 x 50 points: one call
    ("daho", {}, False, 28, 1),                # 14^4 = 38,416 points: one call
    ("daho", {}, True, 28, 14),                # 28^3 points a node: two nodes a call
    ("grushin_pure", {}, False, 21, 1),
], ids=["harmonic1", "daho", "daho-unproven", "grushin"])
def test_a_pass_evaluates_runs_of_first_coordinate_nodes(monkeypatch, name, params, unfolded,
                                                         npts, calls):
    # a run of first-coordinate nodes is one evaluation and one chunk of
    # at most ROW_BLOCK points; each node's row keeps the bits of its own
    w = get_weight(name, params)
    w = _unfolded(w) if unfolded else w
    g = -8.0 + (16.0 / npts) * (np.arange(npts) + 0.5)
    d = 2 * w.n
    sizes, m_values = [], w.m_values

    def counting(P):
        sizes.append(int(np.prod(np.broadcast_shapes(*(np.shape(p) for p in P)))))
        return m_values(P)

    monkeypatch.setattr(w, "m_values", counting)
    chunks = [row for m, _, _ in _chunked_weight(w, 8.0, npts) for row in m]
    assert len(sizes) == calls and max(sizes) <= spectral.ROW_BLOCK
    kept = g[npts // 2:] if not unfolded else g
    assert len(chunks) == len(kept)
    rest = [g[npts // 2:] if not unfolded and w.expr.parity(a) == 1 else g for a in range(1, d)]
    rest = np.meshgrid(*rest, indexing="ij", sparse=True)
    for v, m in zip(kept, chunks):
        assert np.array_equal(m, m_values((v, *rest)).ravel())


# -- trend experiment -------------------------------------------------------

def test_trend_experiment_consistency():
    rep = schatten_sweep(
        harmonic_1d_weight(), [(2.0, 1.5)], 2.0, matrix_N=(16, 24),
        box_L=(4.0, 6.0), box_npts=40, band_npts=60)[0]
    assert rep.verdict == "converges"
    assert rep.slope < rep.critical_slope
    assert rep.slope == pytest.approx(-2.0, abs=0.05)
    assert rep.matrix_rel_change < 0.05
    assert len(rep.matrix_cells) == 2 and len(rep.box_cells) == 2
    assert len(rep.box_growth) == 1
    assert all(s >= 0.0 for s in rep.shift_used)


def test_sweep_shares_one_quantization_and_one_m_pass_per_box(monkeypatch):
    # two cells, two N, two boxes: one quantization pass per N, straight
    # into its parity blocks, and one eigvalsh per block (even and odd,
    # N/2 each), no SVD, and one m pass per box plus one for the band box;
    # the inner name counts the SVD that np.linalg.norm(A, 2) calls directly
    import numpy.linalg._linalg as la
    w = harmonic_1d_weight()
    quantized = count_calls(monkeypatch, spectral, "weyl_blocks")
    decomposed = count_calls(monkeypatch, np.linalg, "eigvalsh")
    svd = count_calls(monkeypatch, np.linalg, "svd")
    svd_inner = count_calls(monkeypatch, la, "svd")
    m_passes = count_calls(monkeypatch, spectral, "_chunked_weight")
    reps = schatten_sweep(w, [(2.0, 1.5), (0.9, 2.0)], 2.0, matrix_N=(12, 16),
                          box_L=(4.0, 6.0), box_npts=20, band_npts=60)
    assert len(reps) == 2
    assert decomposed == [(6, 6), (6, 6), (8, 8), (8, 8)]
    assert (len(quantized), len(svd), len(svd_inner), len(m_passes)) == (2, 0, 0, 3)
    # and a sweep without cells does none of it
    assert schatten_sweep(w, [], 2.0) == []
    assert (len(quantized), len(decomposed), len(m_passes)) == (2, 4, 3)


def test_sweep_eigenvalues_must_meet_the_trace_identities(monkeypatch):
    # an eigvalsh that returns the second eigenvalue in place of the lowest
    # keeps the count and the order; sum(lam) = tr S catches it
    orig = np.linalg.eigvalsh

    def second_for_lowest(S):
        lam = orig(S)
        return np.concatenate([lam[1:2], lam[1:]])

    monkeypatch.setattr(np.linalg, "eigvalsh", second_for_lowest)
    with pytest.raises(SolverError, match="trace identities"):
        schatten_sweep(harmonic_1d_weight(), [(2.0, 1.5)], 2.0, matrix_N=(12,),
                       box_L=(4.0,), box_npts=20, band_npts=60)


@pytest.mark.parametrize("dtype", [float, complex])
def test_certified_eigvalsh_catches_a_wrong_eigenvalue_of_each_dtype(monkeypatch, dtype):
    # the sweep's matrices are real now; the same faulty eigvalsh on a
    # complex Hermitian matrix must fail the trace identities too
    rng = np.random.default_rng(4)
    B = rng.normal(size=(40, 40)) + (1j * rng.normal(size=(40, 40)) if dtype is complex else 0.0)
    S = B + B.conj().T
    assert S.dtype == dtype
    assert np.array_equal(spectral._certified_eigvalsh(S), np.linalg.eigvalsh(S))
    orig = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda S: np.concatenate([orig(S)[1:2], orig(S)[1:]]))
    with pytest.raises(SolverError, match="trace identities"):
        spectral._certified_eigvalsh(S)


def test_sweep_quadratures_equal_the_one_exponent_calls():
    # the shared m pass sums each exponent in the one-exponent order
    w = harmonic_1d_weight()
    cells = [(2.0, 1.5), (0.9, 2.0)]
    reps = schatten_sweep(w, cells, 2.0, matrix_N=(12,), box_L=(4.0, 6.0),
                          box_npts=20, band_npts=60)
    critical = _band_fits(w, [2.0], 60)[0][0]
    for (mu, r), rep in zip(cells, reps):
        assert rep.box_cells == [(L, _box_integrals(w, [mu * r], L, 20)[0]) for L in (4.0, 6.0)]
        slope, bands = _band_fits(w, [mu * r], 60)[0]
        assert rep.slope == slope and np.array_equal(rep.bands, bands)
        assert rep.critical_slope == critical


def test_sweep_schatten_values_match_the_operator_path():
    # reference: form T = m^{-mu}(M) from the full decomposition and take
    # the Schatten norm of its singular values
    w = harmonic_1d_weight()
    cells = [(2.0, 1.5), (0.9, 2.0)]
    reps = schatten_sweep(w, cells, 2.0, matrix_N=(12, 20), box_L=(4.0,),
                          box_npts=20, band_npts=60)
    for (mu, r), rep in zip(cells, reps):
        for (N, L, value), shift in zip(rep.matrix_cells, rep.shift_used):
            grid = spectral.Grid(1, N, L)
            M = qz.weyl_quantize(w, grid)
            lam, Q = np.linalg.eigh(0.5 * (M + M.conj().T))
            assert shift == pytest.approx(max(0.0, 1.0 - lam[0]), abs=1e-12)
            T = (Q * (lam + shift) ** (-mu)) @ Q.conj().T
            assert value == pytest.approx(schatten_norm(T, r), rel=1e-12)


def _reflected(M, n, axes):
    """P M P for P the reflection x -> -x of the periodic grid on the given
    axes: index i goes to N - 1 - i, a flip of the row and the column index
    of each axis."""
    N = round(M.shape[0] ** (1.0 / n))
    T = np.flip(M.reshape((N,) * (2 * n)), [d for a in axes for d in (a, n + a)])
    return T.reshape(M.shape)


def _recorded_sweep(monkeypatch, w, N):
    """One cell's sweep at one N: its report, each eigenvalue array that
    _certified_eigvalsh returned, and the Weyl matrix."""
    blocks, certified = [], spectral._certified_eigvalsh

    def recorded(S):
        blocks.append(certified(S))
        return blocks[-1]

    monkeypatch.setattr(spectral, "_certified_eigvalsh", recorded)
    rep = schatten_sweep(w, [(2.0, 2.0)], 3.0, matrix_N=(N,), box_L=(4.0,),
                         box_npts=8, band_npts=28)[0]
    return rep, blocks, qz.weyl_quantize(w, Grid(w.n, N, np.sqrt(N) / 2.0))


@pytest.mark.parametrize("name,params,N,count",
                         [("daho", {}, 16, 4), ("daho", {}, 24, 4), ("daho", {}, 32, 4),
                          ("harmonic", {"n": 1}, 16, 2), ("harmonic", {"n": 1}, 64, 2)],
                         ids=["daho", "daho-N24", "daho-N32", "harmonic1", "harmonic1-N64"])
def test_sweep_eigenvalues_are_the_whole_matrixs(monkeypatch, name, params, N, count):
    # every node axis mirrors by reversal, so M = PMP to rounding: the
    # merged block eigenvalues are the whole matrix's own, and the reported
    # seam coupling, max|M - PMP| / max|M| with every axis reflected (here
    # by flips), is at most side eps
    w = get_weight(name, params)
    rep, blocks, M = _recorded_sweep(monkeypatch, w, N)
    assert len(blocks) == count
    lam = np.sort(np.concatenate(blocks))
    whole = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert np.max(np.abs(lam - whole)) <= 1e-12 * np.max(np.abs(whole))
    shift = max(0.0, 1.0 - whole[0])
    assert rep.matrix_cells[0][2] == pytest.approx(np.sum((whole + shift) ** -4.0) ** 0.5,
                                                   rel=1e-12)
    seam = np.max(np.abs(M - _reflected(M, w.n, range(w.n)))) / np.max(np.abs(M))
    assert rep.seam_coupling == [(N, seam)] and seam <= M.shape[0] * np.finfo(float).eps


@pytest.mark.parametrize("grid", [Grid(1, 16, 4.0), Grid(2, 12, 3.0), DirichletGrid(1, 24, 6.0),
                                  DirichletGrid(2, 25, 6.0)],
                         ids=lambda g: f"{g.boundary}{g.n}d-N{g.N}")
def test_every_node_axis_mirrors_by_reversal(grid):
    # one mirror on both boundaries: node i goes to N - 1 - i, which is its
    # negative to rounding; only an odd Dirichlet grid has a fixed node
    mirror, lead, pair, scale = spectral._reflection_indices(grid)
    assert np.array_equal(mirror, grid.N - 1 - np.arange(grid.N))
    assert np.allclose(grid.points[mirror], -grid.points, rtol=0.0, atol=1e-14)
    fixed = np.flatnonzero(mirror == np.arange(grid.N))
    assert fixed.tolist() == ([grid.N // 2] if grid.N % 2 else [])
    assert np.array_equal(lead, np.arange((grid.N + 1) // 2))
    assert np.array_equal(pair, np.arange(grid.N // 2))
    assert np.array_equal(scale == 0.5, lead == mirror[lead])


def test_seam_gate_refuses_a_transform_that_is_not_reflection_symmetric(monkeypatch):
    # M is never formed, so the fault goes into the transform: one output
    # entry of the first transform moved by 1e-9 max|M| (kept rows (15, 15),
    # the difference d = (1, 3) in columns (0, 1), whose mirror (15, 13) in
    # columns (7, 6) it no longer equals) couples the parity blocks beyond
    # rounding, and the sweep refuses it
    w, N = get_weight("daho"), 16
    top = np.max(np.abs(qz.weyl_quantize(w, Grid(2, N, np.sqrt(N) / 2.0))))

    def sweep():
        return schatten_sweep(w, [(2.0, 2.0)], 3.0, matrix_N=(N,), box_L=(4.0,),
                              box_npts=8, band_npts=28)[0]

    assert sweep().seam_coupling[0][1] <= N * N * np.finfo(float).eps
    dft, calls = qz._dft, []

    def moved(S, E, lo):
        G = dft(S, E, lo)
        if not calls:
            G[-1, -1, 0, 1] += 1e-9 * top
        calls.append(G.shape)
        return G

    monkeypatch.setattr(qz, "_dft", moved)
    with pytest.raises(SolverError, match=r"seam .* above the gate side \* eps"):
        sweep()
    assert calls == [(N, N, N // 2, N // 2)]


def reference_blocks(M, g, split):
    """The parity blocks term by term, one block at a time: for each block
    and each run of its rows, every term's rows of M gathered and summed
    (einsum over the terms, in term order), then the columns alike; the
    sums are Hermitian only to rounding, so the reference keeps their
    Hermitian part.  The plain U_c M U_c^T that the sweep's blocks, which
    are Hermitian as built and read only M's lead rows, must match to
    rounding."""
    mirror, lead, pair, scale = spectral._reflection_indices(g)
    root = np.full(pair.size, np.sqrt(0.5))
    factors = [[[(lead, scale), (mirror[lead], scale)], [(pair, root), (mirror[pair], -root)]]
               if s else [[(np.arange(g.N), np.ones(g.N))]] for s in split]
    run = max(1, spectral.ROW_BLOCK // M.shape[0])
    blocks = []
    for c in itertools.product(*factors):
        terms = [(functools.reduce(lambda a, b: (a[:, None] * g.N + b).ravel(), [i for i, _ in t]),
                  functools.reduce(np.multiply.outer, [v for _, v in t]).ravel())
                 for t in itertools.product(*c)]
        I, V = (np.stack(x) for x in zip(*terms))
        B = np.empty((I.shape[1],) * 2, M.dtype)
        for a in range(0, len(B), run):
            rows = np.einsum("tr,trc->rc", V[:, a:a + run], M[I[:, a:a + run]])
            B[a:a + run] = np.einsum("tc,rtc->rc", V, rows[:, I])
        blocks.append(0.5 * (B + B.conj().T))
    return blocks


def reference_seam(M, g, split):
    """max|M - PMP| / max|M|, P built as a whole-row and whole-column gather."""
    R = functools.reduce(lambda a, b: (a[:, None] * g.N + b).ravel(),
                         [spectral._reflection_indices(g)[0] if s else np.arange(g.N)
                          for s in split])
    return float(np.max(np.abs(M - M[R][:, R])) / np.max(np.abs(M)))


def x1_xi1_plus_xi1_squared():
    """x1 xi1 + xi1^2 in two dimensions: its Weyl matrix is complex, and
    only the second axis (which it does not depend on) is proven even."""
    e = (1, 0)
    return poly(2, {e: JPowerSum.monomial(4, e + (0, 0)), (2, 0): JPowerSum.constant(4, 1.0)})


@pytest.mark.parametrize("name,params,N,split", [
    ("daho", {}, 16, [True, True]),
    ("daho", {}, 24, [True, True]),
    ("harmonic", {"n": 1}, 32, [True]),
    ("daho", {}, 16, [False, True]),
    ("daho", {}, 16, [True, False]),
    ("complex", {}, 16, [False, True]),
    ("daho", {}, 8, [False, False]),
], ids=["daho-N16", "daho-N24", "harmonic1-N32", "x2", "x1", "x2-complex", "none"])
def test_parity_blocks_match_the_term_by_term_build(name, params, N, split):
    # a block row reads only M's lead rows, B[a, b] = M[a, b] +- M[a, m(b)]
    # per split axis, which is U_c M U_c^T when M = PMP: so every block is
    # the plain build's to rounding, side eps max|M| entry by entry; with
    # nothing split the one block is M's symmetric part bit for bit.  The
    # seam is taken over every entry of M and its mirror, bit for bit.
    # daho's x_a proof is hidden on each axis a that split leaves whole;
    # its xi axes stay folded, so M stays real
    w = x1_xi1_plus_xi1_squared() if name == "complex" else get_weight(name, params)
    if not all(split) and name == "daho":
        hidden = {a for a, s in enumerate(split) if not s}
        w = WeightEvaluator(w.n, Unproven(w.expr, hidden=hidden), name=name)
    assert qz.proven_split(w) == split
    g = Grid(w.n, N, np.sqrt(N) / 2.0)
    M = qz.weyl_quantize(w, g)
    assert M.dtype == (np.complex128 if name == "complex" else np.float64)
    seam, blocks = qz.weyl_blocks(w, g)
    want = reference_blocks(M, g, split)
    assert len(blocks) == len(want) == 2 ** sum(split)
    gate = M.shape[0] * np.finfo(float).eps * np.max(np.abs(M))
    for B, ref in zip(blocks, want):
        assert B.dtype == ref.dtype and np.max(np.abs(B - ref)) <= gate
        assert np.array_equal(B, ref) or any(split)
    assert seam == reference_seam(M, g, split)
    # a mirror pair's columns of the transform are equal bit for bit, so
    # the kept rows serve their mirrors exactly: the seam is exactly 0
    assert seam == 0.0


def test_seam_off_the_exact_sizes_is_the_whole_matrixs_and_passes_the_gate():
    # at daho N = 36 (L = 3) the BLAS products need not round a transform's
    # columns d and -d alike, so M may miss PMP by rounding: the blocks'
    # seam is still the whole matrix's bit for bit and within side eps,
    # and the sweep passes its gate and reports it.  Whether the seam is
    # nonzero there is the BLAS's rounding, so that is not asserted
    w, N = get_weight("daho"), 36
    g = Grid(2, N, np.sqrt(N) / 2.0)
    seam, _ = qz.weyl_blocks(w, g)
    assert seam == reference_seam(qz.weyl_quantize(w, g), g, [True, True])
    assert seam <= g.side() * np.finfo(float).eps
    rep = schatten_sweep(w, [(2.0, 2.0)], 3.0, matrix_N=(N,), box_L=(4.0,),
                         box_npts=8, band_npts=28)[0]
    assert rep.seam_coupling == [(N, seam)]


@pytest.mark.parametrize("name,params,n_per", [
    ("daho", {}, 3), ("harmonic", {"n": 1}, 3), ("daho-unproven", {}, 2)])
def test_run_length_changes_no_sweep_bit(monkeypatch, name, params, n_per):
    # one first-coordinate node a run and n_per nodes a run give the default
    # runs' quadratures bit for bit; the blocks and the seam too, with one
    # kept row of every axis a run, three rows of the last axis a run, and
    # n_per kept rows of the first axis (every row of the second) a run
    w = get_weight(name.split("-")[0], params)
    if name.endswith("unproven"):
        w = WeightEvaluator(w.n, Unproven(w.expr), name=name)
    split = qz.proven_split(w)
    g = Grid(w.n, 16, 2.0)
    box_npts, band_npts = (12, 28) if w.n == 2 else (40, 60)

    def everything():
        return (_box_integrals(w, [2.0, 3.0], 6.0, box_npts),
                _band_fits(w, [2.4, 3.0], band_npts), qz.weyl_blocks(w, g))

    want = everything()
    assert len(want[2][1]) == 2 ** sum(split)
    box_node = next(_chunked_weight(w, 6.0, box_npts))[0].shape[1]
    band_node = next(_chunked_weight(w, 1.0, band_npts))[0].shape[1]
    kept = 31 if name.endswith("unproven") else 16  # half-step rows, folded on a proven axis
    transform = g.N ** w.n
    for bounds in ((1, 1, 1), (box_node, band_node, 3 * transform),
                   (n_per * box_node, n_per * band_node, n_per * kept * transform)):
        monkeypatch.setattr(spectral, "ROW_BLOCK", bounds[0])
        box = _box_integrals(w, [2.0, 3.0], 6.0, box_npts)
        monkeypatch.setattr(spectral, "ROW_BLOCK", bounds[1])
        fits = _band_fits(w, [2.4, 3.0], band_npts)
        monkeypatch.setattr(qz, "ROW_BLOCK", bounds[2])
        seam, blocks = qz.weyl_blocks(w, g)
        assert box == want[0]
        for (slope, bands), (want_slope, want_bands) in zip(fits, want[1]):
            assert slope == want_slope and np.array_equal(bands, want_bands)
        assert seam == want[2][0] and len(blocks) == len(want[2][1])
        assert all(np.array_equal(B, ref) for B, ref in zip(blocks, want[2][1]))


def test_block_build_holds_the_blocks_and_a_few_runs():
    # at daho N = 32 a run of the block build transforms ROW_BLOCK values;
    # the build's peak is the four blocks (2.1 MB) plus a few runs' worth
    # of ROW_BLOCK complex-sized values, where M alone would take 8.4 MB
    w, N = get_weight("daho"), 32
    g = Grid(2, N, np.sqrt(N) / 2.0)
    qz.weyl_blocks(w, g)  # warm: first-call allocations
    tracemalloc.start()
    try:
        _, blocks = qz.weyl_blocks(w, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(B.nbytes for B in blocks)
    assert held == 4 * (N * N // 4) ** 2 * 8
    assert peak <= held + 3 * qz.ROW_BLOCK * 16


def test_daho_sweep_never_allocates_an_m_sized_array():
    # the whole sweep at N = 32, eigvalsh and quadrature included, stays
    # below one side x side float64 array, the M it never forms
    w, N = get_weight("daho"), 32

    def sweep():
        return schatten_sweep(w, [(2.0, 2.0)], 3.0, matrix_N=(N,), box_L=(4.0,),
                              box_npts=12, band_npts=28)

    sweep()
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (N * N) ** 2 * 8


def test_sweep_of_an_unproven_weight_decomposes_the_whole_matrix(monkeypatch):
    # nothing proven, nothing split: the one block is the symmetric part of
    # M, and every value has the bits of its whole eigvalsh
    w = WeightEvaluator(2, Unproven(get_weight("daho").expr), name="daho")
    rep, blocks, M = _recorded_sweep(monkeypatch, w, 8)
    lam = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    assert len(blocks) == 1 and np.array_equal(blocks[0], lam)
    shift = max(0.0, 1.0 - float(lam[0]))
    assert rep.shift_used == [shift] and rep.seam_coupling == [(8, 0.0)]
    assert rep.matrix_cells[0][2] == float(np.sum((lam + shift) ** -4.0) ** 0.5)


@pytest.mark.parametrize("faulty", range(4))
def test_a_wrong_eigenvalue_of_any_one_block_fails_the_trace_identities(monkeypatch, faulty):
    orig, calls = np.linalg.eigvalsh, []

    def second_for_lowest_once(S):
        lam = orig(S)
        calls.append(S.shape)
        return np.concatenate([lam[1:2], lam[1:]]) if len(calls) == faulty + 1 else lam

    monkeypatch.setattr(np.linalg, "eigvalsh", second_for_lowest_once)
    with pytest.raises(SolverError, match="trace identities"):
        schatten_sweep(get_weight("daho"), [(2.0, 2.0)], 3.0, matrix_N=(12,),
                       box_L=(4.0,), box_npts=8, band_npts=28)
    assert len(calls) == faulty + 1


def test_a_sweep_config_never_imports_scipy_sparse():
    # the blocks are built by index: scipy.sparse would add about 15 MB to
    # a sweep's resident set
    code = ("import json, os, sys, tempfile\n"
            "from weylab.cli import run_config\n"
            "cfg = {'schema': 1, 'kind': 'schatten-sweep', 'weight': {'name': 'daho'},\n"
            "       'Q': 3.0, 'cells': [{'mu': 2.0, 'r': 2.0}], 'matrix_N': [8, 12],\n"
            "       'box_L': [4.0], 'box_npts': 8, 'band_npts': 28}\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    run_config(cfg, out)\n"
            "    report = json.load(open(os.path.join(out, 'report.json')))['report']\n"
            "print([N for N, _ in report['seam_coupling']], 'scipy.sparse' in sys.modules)\n")
    assert _fresh_interpreter(code) == "[8, 12] False"


def test_daho_sweep_never_evaluates_the_profile_on_rows(monkeypatch):
    # x1 is one value per Weyl block and per quadrature chunk, so no call
    # of the profile sees more values than there are half-step nodes,
    # 2N - 1; flattened (rows, 4) points would pass it whole blocks
    N = 24
    sizes = []
    call = CutoffProfileSquared.__call__

    def counted(self, t):
        sizes.append(np.size(t))
        return call(self, t)

    monkeypatch.setattr(CutoffProfileSquared, "__call__", counted)
    schatten_sweep(get_weight("daho"), [(2.0, 2.0)], 3.0, matrix_N=(N,),
                   box_L=(8.0,), box_npts=24, band_npts=28)
    assert sizes and max(sizes) <= 2 * N - 1


def test_trend_experiment_validation():
    w = harmonic_1d_weight()
    with pytest.raises(ValueError):
        schatten_sweep(w, [(-1.0, 2.0)], 2.0)
    with pytest.raises(ValueError):
        schatten_sweep(w, [(1.0, 0.5)], 2.0)
