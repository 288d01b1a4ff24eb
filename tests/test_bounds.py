"""Norm bounds: shell probes, interpolation brackets, subellipticity fits."""
import warnings

import numpy as np
import pytest

from _helpers import count_calls
from weylab import bounds
from weylab.bounds import (
    CalibrationError,
    _band_sample,
    _bump1,
    _interp_upper,
    _lp_bracket,
    _lp_lower,
    _target_profile,
    linf_band_probe,
    lp_window_probe,
    subellipticity_probe,
)
from weylab._jets import JPowerSum
from weylab.builders import get_a2, get_kinetic, get_operator, get_weight
from weylab.hamiltonians import DirichletGrid
from weylab.metric import WeightEvaluator
from weylab.quantize import Grid
from weylab.spectral import Spectrum


def harmonic_matrix(grid):
    return get_operator("harmonic", grid)


def periodic(name):
    return lambda grid: get_kinetic(name, grid).sparse


def harmonic_1d_weight():
    # 1 + x^2 + xi^2 = <X>^2, a tree
    return WeightEvaluator(1, JPowerSum.bracket_power(2, 2.0), name="harmonic-1d")


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


def test_lp_bracket_collapses_at_the_exact_endpoints(rng):
    # at p = 1 and inf the upper bound is the exact norm, and so is the
    # lower; the randomized bound is never taken there (at inf it computed
    # |g|^(p-1) = nan and warned), and nothing is drawn from the rng
    A = rng.normal(size=(16, 16))
    draws = np.random.default_rng(3)
    state = draws.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1.0, np.inf):
            lower, upper = _lp_bracket(A, p, np.linalg.norm(A, 2), 8, draws)
            assert lower == upper == pytest.approx(np.linalg.norm(A, p), rel=1e-14)
    assert draws.bit_generator.state == state


def test_lp_probe_config_without_an_endpoint_is_unchanged(tmp_path, monkeypatch):
    # the benchmark's lp-probe config (p_list [2, 4]) writes the same bytes
    # as under the rule it replaced: only p = 2 skipped the randomized bound
    from weylab.cli import run_config
    cfg = {"schema": 1, "kind": "lp-probe", "seed": 11, "weight": {"name": "daho"},
           "operator": {"name": "daho"},
           "grids": [{"n": 2, "N": 16, "L": 6.0}, {"n": 2, "N": 20, "L": 6.0}],
           "beta": 1.0, "p_list": [2.0, 4.0], "trials": 8}
    run_config(cfg, str(tmp_path / "now"))

    def before(A, p, n2, trials, rng):
        upper = _interp_upper(A, p, n2)
        return (_lp_lower(A, p, trials, rng) if p != 2 else upper), upper

    monkeypatch.setattr(bounds, "_lp_bracket", before)
    run_config(cfg, str(tmp_path / "before"))
    for name in ("report.json", "data.csv"):
        assert (tmp_path / "now" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()


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
    # the calibration's 39 candidate powers and grid 0's probe share one
    # decomposition: one eigh per parity block, four on each grid
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    w = WeightEvaluator.from_a2(get_a2("harmonic"))
    lp_window_probe(harmonic_matrix, lp_grids(), w, beta=1.0, p_list=[2.0, 4.0],
                    trials=4, seed=0)
    assert calls == [(36, 36)] * 4 + [(64, 64)] * 4


def test_calibration_diagonal_matches_the_dense_power():
    # the calibration reads diag((H + C)^(-b)) as (Q o Q)(lam + C)^(-b),
    # for every candidate power, without forming the power
    spec = Spectrum(get_operator("daho", DirichletGrid(2, 12, 6.0)))
    for b in np.linspace(0.1, 2.0, 39):
        want = np.diag(spec.power(-b, 1.0))
        assert np.max(np.abs(spec.power_diagonal(-b, 1.0) / want - 1.0)) < 1e-13


@pytest.mark.parametrize("name,n", [("daho", 2), ("harmonic", 2), ("harmonic", 1),
                                    ("broken_half_bracket", 2)])
@pytest.mark.parametrize("N", [16, 20, 32])
def test_target_profile_matches_the_per_node_loop(name, n, N):
    # one broadcast evaluation over (node, sample) gives the per-node
    # means of the loop it replaced, bit for bit
    w = get_weight(name, {} if name == "daho" else {"n": n})
    mesh, beta = DirichletGrid(n, N, 6.0).mesh(), 1.0
    xi = np.random.default_rng(7).normal(scale=2.0, size=(256, n))
    want = [np.mean(w.m_values(np.concatenate([np.broadcast_to(x, (256, n)), xi], axis=1))
                    ** (-(n / 2.0) * beta)) for x in mesh]
    assert np.array_equal(_target_profile(mesh, w, beta), want)


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
    flat = WeightEvaluator(2, JPowerSum.constant(4, 1.0), name="flat")
    with pytest.raises(CalibrationError, match="flat"):
        lp_window_probe(harmonic_matrix, lp_grids(), flat, beta=1.0, p_list=[2.0])


def test_calibration_residual_gate(monkeypatch):
    w = WeightEvaluator.from_a2(get_a2("harmonic"))
    monkeypatch.setattr(bounds, "CALIBRATION_GATE", 1e-9)
    with pytest.raises(CalibrationError, match="residual"):
        lp_window_probe(harmonic_matrix, lp_grids(), w, beta=1.0, p_list=[2.0])


# -- shell probes -----------------------------------------------------------

def test_band_sample_starves_on_concentrated_weight():
    flat = WeightEvaluator(1, JPowerSum.constant(2, 1.0), name="flat")
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


def test_band_probe_refuses_a_degenerate_weight(monkeypatch):
    # daho's c vanishes at x1 = 0, so m does not dominate |x|^2 + |xi|^2 and
    # the shell reaches past the sampled box: m(0, 0, 0, 20) lies in the
    # R = 9 shell; harmonic shells stay inside
    w = get_weight("daho")
    assert 9.0 <= w.m_values(np.array([[0.0, 0.0, 0.0, 20.0]]))[0] <= 27.0
    quantized = count_calls(monkeypatch, bounds, "kn_quantize")
    with pytest.raises(ValueError, match=r"weight 'daho' .* at R=9\.0"):
        linf_band_probe(w, 0.8, [9.0], Grid(2, 24, 1.0))
    assert quantized == []
    for n in (1, 2):
        Z = _band_sample(get_weight("harmonic", {"n": n}), 9.0, 4000, seed=1)
        assert np.max(np.abs(Z)) <= np.sqrt(27.0)


def test_linf_band_probe_single_shell(monkeypatch):
    w = harmonic_1d_weight()
    monkeypatch.setattr(bounds, "SAMPLE_COUNT", 500)
    res = linf_band_probe(w, 0.8, [3.0], Grid(1, 256, 10.5), seed=9)
    assert len(res) == 1
    r = res[0]
    assert r.R == 3.0
    # the phase-matched trial attains the exact infinity-operator norm
    assert r.trial_ratio == pytest.approx(r.op_norm, rel=1e-9)
    assert r.quotient > 0.0 and np.isfinite(r.quotient)
    assert r.seminorm > 0.0 and r.sup_band_weight > 0.0


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
    r = subellipticity_probe(periodic("grushin_pure"), 1.0, trials=12, seed=0)
    assert r.stable
    assert [N for N, _ in r.ladder] == [32, 48, 64]
    assert r.ladder[0][1] == pytest.approx(0.10719, rel=1e-3)
    assert all(c < 0.15 for c in r.rel_changes)


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
