"""Norm bounds: shell probes, interpolation brackets, subellipticity fits."""
import numpy as np
import pytest

from _helpers import count_calls
from weylab.bounds import (
    CalibrationError,
    LpProbeResult,
    _band_sample,
    _bump1,
    _interp_upper,
    _lp_lower,
    linf_band_probe,
    lp_window_probe,
    subellipticity_probe,
)
from weylab.builders import get_a2, get_kinetic, get_operator, get_weight
from weylab.hamiltonians import DirichletGrid, Spectrum
from weylab.metric import WeightEvaluator
from weylab.quantize import Grid


def harmonic_matrix(grid):
    return get_operator("harmonic", grid)


def periodic(name):
    return lambda grid: get_kinetic(name, grid).data


def harmonic_1d_weight():
    return WeightEvaluator(
        1, lambda P: 1.0 + (P[0] ** 2 + P[1] ** 2), name="harmonic-1d")


# -- interpolation brackets -------------------------------------------------

def test_interp_upper_exact_endpoints(rng):
    A = rng.normal(size=(10, 10))
    n2 = np.linalg.norm(A, 2)
    assert _interp_upper(A, 1.0, n2) == pytest.approx(np.linalg.norm(A, 1))
    assert _interp_upper(A, np.inf, n2) == pytest.approx(np.linalg.norm(A, np.inf))
    assert _interp_upper(A, 2.0, n2) == pytest.approx(np.linalg.norm(A, 2))


def test_interp_upper_diagonal_is_tight(rng):
    d = rng.uniform(0.5, 3.0, size=12)
    A = np.diag(d)
    for p in (1.0, 1.5, 2.0, 4.0, np.inf):
        assert _interp_upper(A, p, np.max(d)) == pytest.approx(np.max(d), rel=1e-12)


def test_lp_lower_reaches_diagonal_norm(rng):
    d = rng.uniform(0.5, 3.0, size=12)
    A = np.diag(d)
    for p in (1.5, 3.0):
        lower = _lp_lower(A, p, 48, np.random.default_rng(0))
        assert lower <= np.max(d) * (1.0 + 1e-9)
        assert lower >= 0.95 * np.max(d)


def test_lp_bracket_consistency(rng):
    A = rng.normal(size=(16, 16))
    for p in (1.5, 2.0, 4.0):
        upper = _interp_upper(A, p, np.linalg.norm(A, 2))
        lower = _lp_lower(A, p, 32, np.random.default_rng(1))
        assert lower <= upper * (1.0 + 1e-9)


def test_probe_result_validates_bracket():
    with pytest.raises(ValueError, match="lower bound"):
        LpProbeResult(p=2.0, upper=1.0, lower=2.0, N=16, beta_prime=1.0,
                      calibration_residual=0.0)


# -- calibrated window probe ------------------------------------------------

def lp_grids():
    return [DirichletGrid(2, 12, 6.0), DirichletGrid(2, 16, 6.0)]


def test_lp_window_probe_runs_calibrated():
    w = WeightEvaluator.from_a2(get_a2("harmonic"))
    res = lp_window_probe(harmonic_matrix, lp_grids(), w, beta=1.0,
                          p_list=[2.0, 4.0], trials=16, seed=0)
    assert len(res) == 4
    bp = {r.beta_prime for r in res}
    assert len(bp) == 1  # calibrated once, reused up the ladder
    for r in res:
        assert r.calibration_residual < 0.35
        assert r.lower <= r.upper * (1.0 + 1e-9)
        if r.p == 2.0:
            assert r.lower == r.upper
    assert {r.N for r in res} == {12, 16}


def test_lp_window_probe_decomposes_each_grid_once(monkeypatch):
    # the calibration's 39 candidate powers and grid 0's probe share one eigh
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    w = WeightEvaluator.from_a2(get_a2("harmonic"))
    lp_window_probe(harmonic_matrix, lp_grids(), w, beta=1.0, p_list=[2.0, 4.0],
                    trials=4, seed=0)
    assert calls == [(144, 144), (256, 256)]


def test_lp_probe_takes_the_two_norm_from_the_spectrum(monkeypatch):
    # T = (H + C)^{-b} is SPD, so |T|_2 = (lam_1 + C)^{-b} and no SVD is
    # needed; the bound agrees with the SVD-based one to rounding
    import numpy.linalg._linalg as la
    svd = count_calls(monkeypatch, np.linalg, "svd")
    svd_inner = count_calls(monkeypatch, la, "svd")
    builder = lambda g: get_operator("daho", g)
    grids = [DirichletGrid(2, 16, 6.0), DirichletGrid(2, 20, 6.0)]
    w = get_weight("daho")
    res = lp_window_probe(builder, grids, w, beta=1.0, p_list=[2.0, 4.0], trials=8, seed=5)
    assert svd == [] and svd_inner == []
    monkeypatch.undo()
    for r, (grid, p) in zip(res, [(g, p) for g in grids for p in (2.0, 4.0)]):
        T = Spectrum(builder(grid)).power(-r.beta_prime, 1.0)
        want = _interp_upper(T, p, np.linalg.norm(T, 2))
        assert (r.N, r.p) == (grid.N, p)
        assert r.upper == pytest.approx(want, rel=1e-13)


def test_lp_window_probe_validation():
    w = WeightEvaluator.from_a2(get_a2("harmonic"))
    with pytest.raises(ValueError, match="beta"):
        lp_window_probe(harmonic_matrix, lp_grids(), w, beta=-1.0, p_list=[2.0])


def test_calibration_refuses_flat_target():
    flat = WeightEvaluator(
        2, lambda P: 1.0, name="flat")
    with pytest.raises(CalibrationError, match="flat"):
        lp_window_probe(harmonic_matrix, lp_grids(), flat, beta=1.0, p_list=[2.0])


def test_calibration_residual_gate():
    w = WeightEvaluator.from_a2(get_a2("harmonic"))
    with pytest.raises(CalibrationError, match="residual"):
        lp_window_probe(harmonic_matrix, lp_grids(), w, beta=1.0,
                        p_list=[2.0], calibration_gate=1e-9)


# -- shell probes -----------------------------------------------------------

def test_band_sample_starves_on_concentrated_weight():
    flat = WeightEvaluator(
        1, lambda P: 1.0, name="flat")
    with pytest.raises(RuntimeError, match="starved"):
        _band_sample(flat, 3.0, 100, seed=0)


def test_linf_band_probe_validation():
    w = harmonic_1d_weight()
    g = Grid(1, 256, 10.5)
    with pytest.raises(ValueError, match="epsilon"):
        linf_band_probe(w, 1.0, [3.0], g)
    with pytest.raises(ValueError, match="exceed"):
        linf_band_probe(w, 0.5, [0.5], g)
    coarse = Grid(1, 16, 10.5)
    with pytest.raises(ValueError, match="coarse"):
        linf_band_probe(w, 0.5, [9.0], coarse)


def test_linf_band_probe_single_shell():
    w = harmonic_1d_weight()
    res = linf_band_probe(w, 0.8, [3.0], Grid(1, 256, 10.5), seed=9,
                          sample_count=500, operator="h1")
    assert len(res) == 1
    r = res[0]
    assert r.R == 3.0
    # the phase-matched trial attains the exact infinity-operator norm
    assert r.trial_ratio == pytest.approx(r.op_norm, rel=1e-9)
    assert r.quotient > 0.0 and np.isfinite(r.quotient)
    assert r.seminorm > 0.0 and r.sup_band_weight > 0.0
    row = r.csv_row(0.8)
    assert row[0] == "h1" and row[3] == 0.8 and row[4] == 3.0


# -- subellipticity ---------------------------------------------------------

def test_bump_profile_shape():
    t = np.linspace(-2.0, 2.0, 401)
    vals = _bump1(t, 1.5)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert vals[200] == 1.0  # center
    assert np.all(vals[np.abs(t) >= 1.5] == 0.0)


def test_periodic_builders_annihilate_constants():
    g = Grid(2, 16, 4.0)
    for b in (periodic("laplacian"), periodic("grushin_pure"), periodic("single_field")):
        P = b(g)
        assert np.max(np.abs(P - P.T)) < 1e-10
        assert np.max(np.abs(P @ np.ones(256))) < 1e-9


def test_subellipticity_probe_validation():
    with pytest.raises(ValueError, match="tau"):
        subellipticity_probe(periodic("laplacian"), 0.0)
    with pytest.raises(ValueError, match="tau"):
        subellipticity_probe(periodic("laplacian"), 2.5)


def test_spanning_brackets_give_stable_constant():
    r = subellipticity_probe(periodic("grushin_pure"), 1.0, trials=12, seed=0,
                             operator="grushin")
    assert r.stable
    assert [N for N, _ in r.ladder] == [32, 48, 64]
    assert r.ladder[0][1] == pytest.approx(0.1106, rel=1e-3)
    assert all(c < 0.15 for c in r.rel_changes)
    rows = r.csv_rows()
    assert len(rows) == 3


def test_elliptic_control_is_stable():
    r = subellipticity_probe(periodic("laplacian"), 1.0, trials=12, seed=0)
    assert r.stable
    assert r.ladder[-1][1] == pytest.approx(0.2225, rel=1e-3)


def test_nonspanning_field_constant_escapes():
    # one missing direction: near-Nyquist probes along it push the fitted
    # constant up with every refinement
    r = subellipticity_probe(periodic("single_field"), 1.0, trials=12, seed=0)
    assert not r.stable
    assert r.ladder[-1][1] > 1.2 * r.ladder[0][1]
