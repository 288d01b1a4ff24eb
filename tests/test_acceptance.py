"""Desk-scale acceptance gates for the whole laboratory.

Every test here pins a gate together with the measured value that was
frozen when the gate was last calibrated, so a regression shows up as a
numeric drift and not just a boolean flip.  One gate is deliberately
left red: the order-4 box-doubling seminorm check on the degenerate
model (see the strict xfail below for the analysis).  Slow tests live
at the bottom; the full module runs in a few minutes.
"""
import json
import os

import numpy as np
import pytest

import weylab.builders as bld
from weylab._jets import JPowerSum
from weylab.bounds import linf_band_probe
from weylab.cli import main
from weylab.evolve import Propagator, heat_evolve, schrodinger_evolve
from weylab.hamiltonians import DirichletGrid, hamiltonian_with_potential
from weylab.metric import (WeightEvaluator, check_pairs, check_uncertainty,
                           eval_dual_metric, eval_metric, pair_sample, planck)
from weylab.quantize import Grid, identity_symbol_matrix, weyl_quantize
from weylab.spectral import eigensolve, growth_fit, schatten_sweep
from weylab.symbols import SymbolEvaluator, class_membership, with_confinement

from _helpers import X, XI, exp_sqrt_bracket_x, moyal_product, poly, sympy_symbol


@pytest.fixture(scope="module")
def daho_weight():
    return bld.get_weight("daho")


@pytest.fixture(scope="module")
def grid_2d():
    return DirichletGrid(2, 64, 8.0)


@pytest.fixture(scope="module")
def harmonic_2d_eigs(grid_2d):
    return eigensolve(bld.get_operator("harmonic", grid_2d), 410)


@pytest.fixture(scope="module")
def daho_2d_eigs(grid_2d):
    return eigensolve(bld.get_operator("daho", grid_2d), 410)


# -- uncertainty principle in closed form -----------------------------------

def test_planck_function_bounded_by_one(daho_weight):
    """h = <X>/m <= 1 at 1e5 uniform points of [-100, 100]^4.

    The bound is sharp (h -> 1 along x = 0, xi_1 = 0 where the
    principal part vanishes); the sampled sup on this box is 0.5284.
    """
    rng = np.random.default_rng(0)
    Z = rng.uniform(-100.0, 100.0, size=(100_000, 4))
    h = planck(daho_weight, Z)
    assert np.all(h <= 1.0 + 1e-12)
    assert np.max(h) == pytest.approx(0.528382, abs=1e-4)


def test_numerical_symplectic_dual_matches_closed_form(daho_weight):
    """Sup-based dual coefficients agree with m and m/B to 1e-6 relative.

    The candidate set contains the coordinate directions, where the sup
    defining the dual is attained exactly, so the only slack is float
    roundoff (measured 2.2e-16).
    """
    rng = np.random.default_rng(0)
    rng.uniform(size=(100_000, 4))  # keep the stream aligned with the pin above
    Z = rng.uniform(-100.0, 100.0, size=(1000, 4))
    g = eval_metric(daho_weight, Z)
    gd = eval_dual_metric(daho_weight, Z)
    n = 2
    dirs = np.concatenate([np.eye(2 * n), rng.standard_normal((256, 2 * n))])
    den = (np.outer(g.ax, (dirs[:, :n] ** 2).sum(axis=1))
           + np.outer(g.axi, (dirs[:, n:] ** 2).sum(axis=1)))
    worst = 0.0
    for j in range(n):
        # pairing e_{x_j} with W picks out W_{xi_j} and vice versa
        dual_x = np.max(dirs[:, n + j] ** 2 / den, axis=1)
        dual_xi = np.max(dirs[:, j] ** 2 / den, axis=1)
        worst = max(worst,
                    float(np.max(np.abs(dual_x - gd.ax) / gd.ax)),
                    float(np.max(np.abs(dual_xi - gd.axi) / gd.axi)))
    assert worst < 1e-6


# -- metric axioms over mixed-scale pairs -----------------------------------

def test_metric_axioms_on_mixed_scale_pairs(daho_weight):
    """Slowness / temperateness / weight admissibility over 1e4 pairs.

    All constants land far under the 1e3 gate with temperate order <= 4
    and no witnesses; the frozen values are the regression anchors.
    """
    X, Y = pair_sample(2, 10_000, seed=0)
    Z = np.vstack([X, Y])

    unc = check_uncertainty(daho_weight, Z)
    assert unc.passed and not unc.witnesses
    assert unc.constant == pytest.approx(0.992534, abs=1e-4)

    reps = {r.kind: r for r in check_pairs(daho_weight, X, Y)}
    slow = reps["slowness"]
    assert slow.passed and not slow.witnesses
    assert slow.n_checked == 2868        # qualifying short pairs
    assert slow.constant == pytest.approx(1.430983, abs=1e-4)

    temp = reps["temperateness"]
    assert temp.passed and temp.order <= 4
    assert temp.constant == pytest.approx(1.063336, abs=1e-4)

    gw = reps["gweight"]
    assert gw.passed and gw.order <= 4
    assert gw.constant == pytest.approx(1.430983, abs=1e-4)


def test_halved_bracket_weight_fails_uncertainty():
    """The m = <X>/2 weight sits at h = 2 everywhere: witnesses must appear."""
    wb = bld.get_weight("broken_half_bracket")
    X, Y = pair_sample(2, 10_000, seed=0)
    rep = check_uncertainty(wb, np.vstack([X, Y]))
    assert not rep.passed
    assert len(rep.witnesses) >= 1
    assert rep.constant == pytest.approx(2.0, abs=1e-12)


# -- symbol class membership under box doubling -----------------------------

def _class_setup():
    a2 = bld.get_a2("daho")
    w = WeightEvaluator.from_a2(a2)
    s_a = with_confinement(a2)
    return w, s_a, w


CLASS_KW = dict(n_grid=3, n_random=100, seed=0)


@pytest.mark.xfail(strict=True, reason=(
    "kept red deliberately: the order-4 seminorms of both the full symbol "
    "and its weight grow 20.8% when the sample box doubles from half-width "
    "10 to 20, against the 5% gate.  The growth is genuine, not a sampling "
    "artifact: it is carried by the (4,0)-derivative field (fourth "
    "derivative of the squared plateau profile times xi_2^2, normalized by "
    "m/B^2), whose sup over the box saturates only past |xi_2| ~ 40.  "
    "Order 2 is exactly stable and every control in the companion test "
    "behaves, so the gate itself is what is unattainable at this box size."))
def test_order_four_box_doubling_gate():
    """Order-4 seminorms of a and m must grow < 5% from box 10 to box 20."""
    w, s_a, s_m = _class_setup()
    rep_a = class_membership(s_a, w, w, 4, [10.0, 20.0], **CLASS_KW)
    rep_m = class_membership(s_m, w, w, 4, [10.0, 20.0], **CLASS_KW)
    assert rep_a.passed and rep_m.passed


def test_order_four_growth_measured_and_controls():
    """Companion to the red gate above: pins the measured growth and shows
    the harness separates stable from unstable classes cleanly."""
    w, s_a, s_m = _class_setup()

    rep_a = class_membership(s_a, w, w, 4, [10.0, 20.0], **CLASS_KW)
    assert not rep_a.passed
    assert rep_a.growth[0] == pytest.approx(1.20808, abs=2e-3)

    # order 2 is exactly box-stable for the same symbol and weight
    rep2 = class_membership(s_a, w, w, 2, [10.0, 20.0], **CLASS_KW)
    assert rep2.passed
    assert rep2.growth[0] == pytest.approx(1.0, abs=1e-6)

    # a fully elliptic model passes at order 4
    a2h = bld.get_a2("harmonic", {"n": 2})
    wh = WeightEvaluator.from_a2(a2h)
    reph = class_membership(with_confinement(a2h), wh, wh, 4,
                            [10.0, 20.0], **CLASS_KW)
    assert reph.passed

    # exponential growth is rejected by the same gate, loudly; the
    # smoothed radius exp<x> is differentiable at x = 0
    bad = SymbolEvaluator(2, exp_sqrt_bracket_x(2))
    repb = class_membership(bad, w, w, 4, [10.0, 20.0], **CLASS_KW)
    assert not repb.passed
    assert repb.growth[0] > 2.0


# -- quantization identities ------------------------------------------------

def test_quantization_of_one_and_hermiticity():
    """Op(1) = I with zero defect; real symbols quantize to Hermitian
    matrices (worst defect over ten random quadratics: 1.8e-15)."""
    grid = Grid(1, 32, 5.0)
    for tau in (0.5, 1.0):
        I = identity_symbol_matrix(grid, tau)
        assert float(np.max(np.abs(I - np.eye(32)))) == 0.0

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        mono = {}
        for dxi in range(3):
            terms = [(float(rng.integers(-3, 4)), (e, 0), 0.0) for e in range(3)]
            mono[(dxi,)] = JPowerSum(2, terms)
        M = weyl_quantize(poly(1, mono), grid)
        worst = max(worst, float(np.max(np.abs(M - M.conj().T))))
    assert worst < 1e-10


def test_composition_defect_vanishes_under_refinement():
    """|| (Op(a)Op(b) - Op(a#b)) u || collapses as the grid refines.

    a#b is the closed form of the composition law, summed in sympy.
    Frozen ladder for a = xi^2 + x^2, b = x xi acting on a normalized
    e^{-2x^2} state at L = 8 on cell-centred nodes: refinement
    N = 32 -> 64 -> 128 drops the action defect 0.130 -> 2.01e-7 ->
    5.1e-14, an observed order of 19 and 22 at the two halvings (gate:
    order >= 2 and a machine-level endpoint).
    """
    a = with_confinement(bld.get_a2("harmonic", {"n": 1}))
    b = poly(1, {(1,): JPowerSum.monomial(2, (1, 0))})
    ab = sympy_symbol(moyal_product(XI**2 + X**2, X * XI))
    defects = []
    for N in (32, 64, 128):
        grid = Grid(1, N, 8.0)
        A = weyl_quantize(a, grid)
        B = weyl_quantize(b, grid)
        C = weyl_quantize(ab, grid)
        u = np.exp(-grid.points ** 2 / 0.5)
        u = u / np.linalg.norm(u)
        defects.append(float(np.linalg.norm(A @ (B @ u) - C @ u)))
    assert defects[0] == pytest.approx(0.129883, rel=1e-4)
    assert defects[1] == pytest.approx(2.0052e-07, rel=1e-3)
    assert defects[2] < 1e-12
    orders = [np.log2(defects[i] / defects[i + 1]) for i in range(2)]
    assert min(orders) >= 2.0


# -- spectral calibration and growth ----------------------------------------

def test_harmonic_2d_spectrum_calibration(harmonic_2d_eigs):
    """Lowest six eigenvalues of the 2d oscillator hit {2,4,4,6,6,6}
    within 1e-2 with residuals <= 1e-8 (measured 4e-13, dense path)."""
    res = harmonic_2d_eigs
    assert res.solver == "dense"
    want = np.array([2.0, 4.0, 4.0, 6.0, 6.0, 6.0])
    assert np.allclose(res.eigenvalues[:6], want, atol=1e-2)
    assert np.max(res.residuals[:6]) <= 1e-8


def test_eigenvalue_growth_exponents(harmonic_2d_eigs, daho_2d_eigs):
    """Counting-function exponents on the window [50, 400].

    The elliptic control fits 0.4992 (gate 0.5 +/- 0.05).  The
    degenerate model fits 0.6415, comfortably above the 1/3 - 0.05
    lower bound that its commutator structure guarantees.
    """
    fit_h = growth_fit(harmonic_2d_eigs, window=(50, 400))
    assert fit_h.exponent == pytest.approx(0.4992, abs=2e-3)
    assert abs(fit_h.exponent - 0.5) <= 0.05

    fit_d = growth_fit(daho_2d_eigs, window=(50, 400))
    assert fit_d.exponent == pytest.approx(0.6415, abs=2e-3)
    assert fit_d.exponent >= 1.0 / 3.0 - 0.05


# -- evolution surrogates ---------------------------------------------------

def test_evolution_surrogates_with_discontinuous_potential():
    """Unitary drift, heat contraction, group law and spectral floor for
    the oscillator plus a discontinuous two-level potential."""
    grid = DirichletGrid(1, 64, 12.0)
    pot = bld.get_potential("step", grid, {})
    H = hamiltonian_with_potential(bld.get_operator("harmonic", grid), pot)
    f = np.exp(-(grid.points - 0.5) ** 2)
    times = np.linspace(0.0, 5.0, 1001)

    tr = schrodinger_evolve(H, f, times)
    assert np.max(np.abs(tr.norms - tr.norms[0])) <= 1e-10

    th = heat_evolve(H, f, times)
    assert np.max(np.diff(th.norms)) < 0.0     # strictly decreasing

    prop = Propagator(H, "schrodinger")
    glued = prop.apply(prop.apply(f, 0.4), 0.5)
    assert np.linalg.norm(glued - prop.apply(f, 0.9)) <= 1e-9

    # the potential is bounded below by its lower level, so the spectrum is too
    lam0 = eigensolve(H, 1).eigenvalues[0]
    assert lam0 >= 1.0 - 1e-9
    assert lam0 == pytest.approx(1.459005, abs=1e-4)


# -- shell restriction quotients --------------------------------------------

def test_shell_quotient_stable_across_bands():
    """Sup-norm quotient of quantized shell restrictions stays within a
    factor 2 across R in {3, 9, 27} (measured spread 1.027)."""
    w = bld.get_weight("harmonic", {"n": 1})
    rows = linf_band_probe(w, 0.8, [3.0, 9.0, 27.0], Grid(1, 512, 10.5),
                           seed=9)
    q = [r.quotient for r in rows]
    assert all(v > 0 and np.isfinite(v) for v in q)
    assert max(q) / min(q) < 2.0
    assert max(q) / min(q) == pytest.approx(1.0271, abs=2e-3)


# -- reproducibility --------------------------------------------------------

def test_experiments_reproduce_bitwise(tmp_path, capsys):
    """Re-running an experiment from its manifest reproduces every CSV
    and report byte for byte."""
    configs = {
        "sp.json": {"schema": 1, "kind": "spectrum",
                    "grid": {"n": 1, "N": 32, "L": 6.0},
                    "operator": {"name": "harmonic"}, "k": 4},
        "ev.json": {"schema": 1, "kind": "evolve",
                    "grid": {"n": 1, "N": 32, "L": 6.0},
                    "operator": {"name": "harmonic"},
                    "evolution": "schrodinger",
                    "times": {"t0": 0.0, "t1": 0.5, "count": 11},
                    "state": {"kind": "gaussian", "center": [0.5], "width": 1.0}},
    }
    for name, cfg in configs.items():
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
        out = os.path.splitext(str(path))[0] + ".out"
        capsys.readouterr()
        assert main(["reproduce", os.path.join(out, "manifest.json")]) == 0
        text = capsys.readouterr().out
        assert "[DIFFER]" not in text and "[match]" in text


# -- trace-class trend experiments (slow: ~15 s total on 2 cores) -----------

def test_schatten_trend_elliptic_control():
    """Near-critical elliptic family: mu = 1.01 converges (band slope
    -0.969 under the critical -0.949) with matrix cells stable to 1.5%
    across N = 32 -> 48; mu = 0.9 diverges with a monotone box ladder."""
    w = bld.get_weight("harmonic", {"n": 1})

    conv, div = schatten_sweep(w, [(1.01, 2.0), (0.9, 2.0)], 2.0)
    assert conv.verdict == "converges"
    assert conv.slope == pytest.approx(-0.9691, abs=5e-3)
    assert conv.slope < conv.critical_slope
    assert conv.matrix_rel_change == pytest.approx(0.0144, abs=5e-3)
    assert conv.matrix_rel_change < 0.10

    assert div.verdict == "diverges"
    assert div.slope == pytest.approx(-0.7484, abs=5e-3)
    assert all(g > 1.0 for g in div.box_growth)


def test_schatten_trend_degenerate_model(daho_weight):
    """Degenerate family at reduced quadrature (40^4-point boxes).

    mu = 2.0 converges with matrix cells stable to 1% across
    N = 32 -> 48; mu = 1.2 is classified divergent by the band slope
    against the calibrated critical slope.  The raw box ladder is
    emitted but not gated for mu = 1.2: the raw integral itself is
    convergent there (the sufficient threshold is not sharp for this
    operator), so only the slope classification is meaningful.
    """
    conv, div = schatten_sweep(daho_weight, [(2.0, 2.0), (1.2, 2.0)], 3.0,
                               box_npts=40, band_npts=48)
    assert conv.verdict == "converges"
    assert conv.slope == pytest.approx(-2.1131, abs=5e-3)
    assert conv.slope < conv.critical_slope
    assert conv.matrix_rel_change == pytest.approx(0.0095, abs=5e-3)
    assert conv.matrix_rel_change < 0.10
    assert conv.shift_used == [0.0, 0.0]   # both matrices already PD

    assert div.verdict == "diverges"
    assert div.slope == pytest.approx(-0.5356, abs=5e-3)
    assert div.slope > div.critical_slope
    assert len(div.box_cells) == 3
