"""Eigensolvers, growth fits, phase-space quadrature, the trend sweep."""
import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

import weylab
from _helpers import count_calls, schatten_norm
from weylab import spectral
from weylab.builders import get_operator, get_weight
from weylab.hamiltonians import (
    DirichletGrid,
    second_derivative,
)
from weylab.metric import WeightEvaluator
from weylab.profiles import CutoffProfileSquared
from weylab.spectral import (
    GrowthFit,
    SolverError,
    SpectralResult,
    band_slope,
    eigensolve,
    growth_fit,
    phase_box_integral,
    schatten_sweep,
)


def harmonic_1d_weight():
    return WeightEvaluator(
        1, lambda P: 1.0 + (P[0] ** 2 + P[1] ** 2), name="harmonic-1d")


# -- eigensolve -------------------------------------------------------------

def test_dense_path_matches_continuum_oscillator():
    res = eigensolve(get_operator("harmonic", DirichletGrid(1, 64, 8.0)), 5)
    assert res.solver == "dense"
    assert np.allclose(res.eigenvalues, 2.0 * np.arange(5) + 1.0, atol=1e-3)
    assert res.eigenvectors.shape == (64, 5)
    assert np.max(res.residuals) < 1e-8


def harmonic_tensor_oracle(g, k):
    H1 = second_derivative(g.N, g.h, 6) + np.diag(g.points**2)
    l1 = np.linalg.eigvalsh(H1)
    return np.sort((l1[:, None] + l1[None, :]).ravel())[:k]


def test_iterative_path_matches_tensor_oracle():
    # side 4356 crosses the dense limit; the transverse modes decouple,
    # so the pairwise sums of the 1d spectrum are exact for this matrix
    g = DirichletGrid(2, 66, 8.0)
    res = eigensolve(get_operator("harmonic", g), 6)
    assert res.solver.startswith("shift-invert(m=")
    assert np.max(np.abs(res.eigenvalues - harmonic_tensor_oracle(g, 6))) < 1e-10


def test_shifted_spectrum_on_the_sparse_path(monkeypatch):
    # a spectrum reaching below zero: the lowest eigenvalues of the 1d
    # oscillator minus 5 are about -4, -2, 0; a solver that assumes the
    # spectrum lies above -1/2 returns 0, 2, 4, genuine pairs all
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 16)
    H = get_operator("harmonic", DirichletGrid(1, 64, 8.0)).sparse
    res = eigensolve(H - 5.0 * sparse.eye_array(64), 3)
    assert res.solver.startswith("shift-invert(m=")
    assert np.allclose(res.eigenvalues, [-4.0, -2.0, 0.0], atol=1e-3)


def test_shifted_2d_oscillator_matches_tensor_oracle():
    g = DirichletGrid(2, 66, 8.0)
    H = get_operator("harmonic", g).sparse
    res = eigensolve(H - 5.0 * sparse.eye_array(g.side()), 6)
    assert res.solver.startswith("shift-invert(m=")
    assert np.max(np.abs(res.eigenvalues - (harmonic_tensor_oracle(g, 6) - 5.0))) < 1e-10


@pytest.mark.parametrize("dense_limit,solver", [(4096, "scipy.linalg.eigh"),
                                                 (16, "scipy.sparse.linalg.eigsh")])
def test_inertia_certificate_catches_a_missed_eigenvalue(monkeypatch, dense_limit, solver):
    # a solver that silently drops its lowest pair returns genuine
    # eigenpairs that pass the residual gate; only the count catches it
    module, name = solver.rsplit(".", 1)
    module = importlib.import_module(module)
    orig = getattr(module, name)

    def drop_lowest(*args, **kwargs):
        out = orig(*args, **kwargs)
        if name == "eigsh" and kwargs.get("sigma") is None:
            return out
        lam, V = out
        i = int(np.argmin(lam))
        return np.delete(lam, i), np.delete(V, i, axis=1)

    monkeypatch.setattr(module, name, drop_lowest)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", dense_limit)
    H = get_operator("harmonic", DirichletGrid(1, 64, 8.0))
    with pytest.raises(SolverError, match="inertia"):
        eigensolve(H, 5)


def test_certificate_cut_skips_a_degenerate_pair(monkeypatch):
    # the 2d oscillator's eigenvalues come in exact pairs; k = 2 splits
    # the pair at 4, so tau has to go past both copies, into (4, 6)
    taus = []
    count_below = spectral._count_below
    monkeypatch.setattr(spectral, "_count_below",
                        lambda S, tau: taus.append(tau) or count_below(S, tau))
    res = eigensolve(get_operator("harmonic", DirichletGrid(2, 24, 6.0)), 2)
    assert res.eigenvalues[1] == pytest.approx(4.0, abs=1e-2)
    assert taus == [pytest.approx(5.0, abs=0.1)]


def test_setup_does_not_import_scipy():
    # scipy.sparse.linalg alone takes about as long to import as the
    # whole package set-up; only the assembly and solver calls load it
    code = ("import sys\n"
            "import numpy as np\n"
            "import weylab\n"
            "from weylab.builders import get_weight\n"
            "get_weight('daho').m_values(np.linspace(-5.0, 5.0, 400).reshape(100, 4))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_eigensolve_k_exceeds_dimension():
    with pytest.raises(ValueError):
        eigensolve(np.eye(4), 5)


def test_spectral_result_rejects_descending():
    with pytest.raises(ValueError, match="ascending"):
        SpectralResult(np.array([2.0, 1.0]), np.zeros(2), "dense")


def test_eigensolve_accepts_raw_arrays():
    A = np.diag([3.0, 1.0, 2.0])
    res = eigensolve(A, 2, want_vectors=False)
    assert np.allclose(res.eigenvalues, [1.0, 2.0])
    assert res.eigenvectors is None


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
    w = WeightEvaluator(1, lambda P: 1.0)
    got = phase_box_integral(w, 3.0, 2.5, npts=50)
    assert got == pytest.approx(25.0, rel=1e-13)


def test_box_integral_gaussian_closed_form():
    # separable integrand, so the product of 1d error functions is exact
    w = WeightEvaluator(
        1, lambda P: np.exp(P[0] ** 2 + P[1] ** 2))
    got = phase_box_integral(w, 1.0, 6.0, npts=100)
    want = (math.sqrt(math.pi) * math.erf(6.0)) ** 2
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_band_slope_closed_form(s):
    # radial weight 1 + |Z|^2 in one slot: the shell mass of m^{-s} is an
    # exact integral in m, so log-base-3 band sums slope at 1 - s
    sl, bands = band_slope(harmonic_1d_weight(), s)
    assert len(bands) == 4
    assert sl == pytest.approx(1.0 - s, abs=0.05)


def test_band_slope_rejects_concentrated_weight():
    w = WeightEvaluator(1, lambda P: 1.0)
    with pytest.raises(SolverError, match="empty band"):
        band_slope(w, 2.0)


# -- trend experiment -------------------------------------------------------

def test_trend_experiment_consistency():
    rep = schatten_sweep(
        harmonic_1d_weight(), [(2.0, 1.5)], 2.0, matrix_N=(16, 24),
        box_L=(4.0, 6.0), box_npts=40, band_npts=60, operator="h1")[0]
    assert rep.verdict == "converges"
    assert rep.slope < rep.critical_slope
    assert rep.slope == pytest.approx(-2.0, abs=0.05)
    assert rep.matrix_rel_change < 0.05
    assert len(rep.matrix_cells) == 2 and len(rep.box_cells) == 2
    assert len(rep.box_growth) == 1
    assert len(rep.csv_rows()) == 5
    assert all(s >= 0.0 for s in rep.shift_used)


def test_sweep_shares_one_quantization_and_one_m_pass_per_box(monkeypatch):
    # two cells, two N, two boxes: one quantization and one eigvalsh per
    # N, no SVD, and one m pass per box plus one for the band box; the
    # inner name counts the SVD that np.linalg.norm(A, 2) calls directly
    import numpy.linalg._linalg as la
    w = harmonic_1d_weight()
    quantized = count_calls(monkeypatch, spectral, "weyl_quantize")
    decomposed = count_calls(monkeypatch, np.linalg, "eigvalsh")
    svd = count_calls(monkeypatch, np.linalg, "svd")
    svd_inner = count_calls(monkeypatch, la, "svd")
    m_passes = count_calls(monkeypatch, spectral, "_chunked_weight")
    reps = schatten_sweep(w, [(2.0, 1.5), (0.9, 2.0)], 2.0, matrix_N=(12, 16),
                          box_L=(4.0, 6.0), box_npts=20, band_npts=60)
    assert len(reps) == 2
    assert decomposed == [(12, 12), (16, 16)]
    assert (len(quantized), len(svd), len(svd_inner), len(m_passes)) == (2, 0, 0, 3)
    # and a sweep without cells does none of it
    assert schatten_sweep(w, [], 2.0) == []
    assert (len(quantized), len(decomposed), len(m_passes)) == (2, 2, 3)


def test_sweep_quadratures_equal_the_one_exponent_calls():
    # the shared m pass sums each exponent in the one-exponent order
    w = harmonic_1d_weight()
    cells = [(2.0, 1.5), (0.9, 2.0)]
    reps = schatten_sweep(w, cells, 2.0, matrix_N=(12,), box_L=(4.0, 6.0),
                          box_npts=20, band_npts=60)
    critical = band_slope(w, 2.0, npts=60)[0]
    for (mu, r), rep in zip(cells, reps):
        assert rep.box_cells == [(L, phase_box_integral(w, mu * r, L, 20)) for L in (4.0, 6.0)]
        slope, bands = band_slope(w, mu * r, npts=60)
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
            M = spectral.weyl_quantize(w, grid)
            lam, Q = np.linalg.eigh(0.5 * (M + M.conj().T))
            assert shift == pytest.approx(max(0.0, 1.0 - lam[0]), abs=1e-12)
            T = (Q * (lam + shift) ** (-mu)) @ Q.conj().T
            assert value == pytest.approx(schatten_norm(T, r), rel=1e-12)


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
