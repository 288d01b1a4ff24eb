"""Admissibility checks for the phase-space metric and its weight."""
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from _helpers import uni_table, weight_values
from weylab._jets import JPowerSum, JSum, JUni
from weylab.metric import (
    WeightEvaluator,
    bracket_sq,
    check_pairs,
    check_uncertainty,
    eval_dual_metric,
    eval_metric,
    metric_apply,
    pair_sample,
    planck,
)
from weylab.builders import _model, get_a2, get_weight, symbol_names
from weylab.symbols import box_sample


def daho_weight():
    return WeightEvaluator.from_a2(get_a2("daho"), name="daho")


def pair_reports(w, X, Y):
    """check_pairs's reports by kind."""
    return {r.kind: r for r in check_pairs(w, X, Y)}


def test_bracket_sq_value():
    Z = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert bracket_sq(Z, 2)[0] == pytest.approx(1.0 + 1 + 4 + 9 + 16)


def test_weight_closed_form(rng):
    a2 = get_a2("daho")
    w = WeightEvaluator.from_a2(a2)
    Z = rng.uniform(-8.0, 8.0, size=(40, 4))
    manual = (np.asarray(a2.eval(Z)).real
              + (Z[:, :2] ** 2).sum(axis=1)
              + np.sqrt(bracket_sq(Z, 2)))
    assert np.allclose(w.m_values(Z), manual, rtol=1e-14)


@pytest.mark.parametrize("name", symbol_names())
def test_weight_values_equal_the_formula(rng, name):
    # the weight is a symbol with jets, but its values keep the formula's
    # operation order, bit for bit
    Z = np.concatenate([rng.uniform(-8.0, 8.0, size=(200, 4)),
                        box_sample(2, 10.0, n_random=0)])
    assert np.array_equal(get_weight(name).m_values(Z), weight_values(_model(name), Z))


def test_metric_and_dual_are_reciprocal(rng):
    w = daho_weight()
    Z = rng.uniform(-20.0, 20.0, size=(50, 4))
    g = eval_metric(w, Z)
    gd = eval_dual_metric(w, Z)
    assert np.allclose(g.ax * gd.axi, 1.0, rtol=1e-13)
    assert np.allclose(g.axi * gd.ax, 1.0, rtol=1e-13)


def test_dual_ratio_is_inverse_planck_squared(rng):
    # both coefficient slots shrink by the same factor h^2 under dualization
    w = daho_weight()
    Z = rng.uniform(-15.0, 15.0, size=(50, 4))
    g = eval_metric(w, Z)
    gd = eval_dual_metric(w, Z)
    h2 = planck(w, Z) ** 2
    assert np.allclose(g.ax / gd.ax, h2, rtol=1e-13)
    assert np.allclose(g.axi / gd.axi, h2, rtol=1e-13)


def test_metric_apply_quadratic_form():
    vals = eval_metric(daho_weight(), np.zeros((1, 4)))
    q = metric_apply(vals, 2, np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert q[0] == pytest.approx(vals.ax[0] * 5.0 + vals.axi[0] * 25.0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4))
def test_planck_never_exceeds_one(pt):
    # m dominates <X> by construction, so h = <X>/m stays at or below 1
    w = daho_weight()
    h = planck(w, np.array([pt]))
    assert h[0] <= 1.0 + 1e-12


def test_planck_working_set_is_bounded():
    # metric-check's uncertainty bound on 2e5 points: the weight tree and
    # the profile bridge run in row blocks, so what is held beyond the
    # result is a few full-length arrays of bracket_sq (31 MB before)
    w = get_weight("daho")
    Z = np.random.default_rng(2).uniform(-6.0, 6.0, (200_000, 4))
    planck(w, Z[:10])
    tracemalloc.start()
    try:
        planck(w, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_uncertainty_passes_for_admissible_weight():
    w = daho_weight()
    Z = box_sample(2, 25.0, n_random=500, seed=3)
    rep = check_uncertainty(w, Z)
    assert rep.passed
    assert rep.kind == "uncertainty"
    assert rep.constant <= 1.0 + 1e-12
    assert rep.n_checked == len(Z)
    assert rep.witnesses == []
    assert "pass" in rep.summary()


def test_uncertainty_flags_half_bracket():
    # m = <X>/2 makes h identically 2: every point is a violation
    w = WeightEvaluator.half_bracket(2)
    Z = box_sample(2, 10.0, n_random=100, seed=3)
    rep = check_uncertainty(w, Z)
    assert not rep.passed
    assert rep.constant == pytest.approx(2.0, abs=1e-12)
    assert len(rep.witnesses) == 32
    pt, h = rep.witnesses[0]
    assert h == pytest.approx(2.0, abs=1e-12)
    assert len(pt) == 4
    assert "FAIL" in rep.summary()


def test_pair_sample_shape_and_determinism():
    X, Y = pair_sample(2, 300, seed=11)
    X2, Y2 = pair_sample(2, 300, seed=11)
    assert X.shape == Y.shape == (300, 4)
    assert np.array_equal(X, X2) and np.array_equal(Y, Y2)
    assert np.max(np.abs(X)) <= 100.0
    X3, _ = pair_sample(2, 300, seed=12)
    assert not np.array_equal(X, X3)


def test_slowness_passes_on_mixed_pairs():
    w = daho_weight()
    X, Y = pair_sample(2, 2000, seed=5)
    rep = pair_reports(w, X, Y)["slowness"]
    assert rep.passed
    assert rep.n_checked > 0
    assert np.isfinite(rep.constant) and rep.constant < 1e3
    assert rep.ball_radius == 0.25


def test_slowness_reports_empty_ball():
    # no pair in a g-ball: no constant at all, and neither check passes
    w = daho_weight()
    reps = pair_reports(w, np.zeros((1, 4)), np.full((1, 4), 50.0))
    rep = reps["slowness"]
    assert not rep.passed
    assert rep.constant is None
    assert rep.witnesses == [("no qualifying pairs", 0.0)]
    assert "C=none" in rep.summary()
    assert not reps["gweight"].passed
    assert reps["gweight"].constant is None


def test_temperateness_frontier():
    w = daho_weight()
    X, Y = pair_sample(2, 2000, seed=5)
    rep = pair_reports(w, X, Y)["temperateness"]
    assert rep.passed
    assert rep.order is not None and rep.order <= 4
    assert [J for J, _ in rep.frontier] == list(range(1, 9))
    consts = [c for _, c in rep.frontier]
    # dual distance >= 1 after the shift, so constants cannot increase in J
    assert all(consts[j] <= consts[j - 1] + 1e-12 for j in range(1, len(consts)))
    assert rep.constant == pytest.approx(min(consts[:4]))


def test_temperateness_failure_names_its_worst_pairs():
    # m = e^{x1} + <X> changes by e^{|x1 - y1|}, faster than any power of
    # the dual distance s: the check fails at C about 3e24 and names eight
    # witness pairs in descending ratio / s^4, the first at the constant.
    # s^J overflows to inf on the farthest pairs, whose ratio / s^J is 0
    t = sp.Symbol("t")
    x1 = JUni(JPowerSum.monomial(4, (1, 0, 0, 0)), uni_table(sp.exp(t), t))
    w = WeightEvaluator(2, JSum([x1, JPowerSum.bracket_power(4, 1)]), name="exp-x1")
    X, Y = pair_sample(2, 3000, 1)
    rep = pair_reports(w, X, Y)["temperateness"]
    assert not rep.passed and rep.order == 4 and rep.constant > 1e24
    ratios = [r for *_, r in rep.witnesses]
    assert len(ratios) == 8 and ratios == sorted(ratios, reverse=True)
    assert ratios[0] == rep.constant
    assert all(len(x) == len(y) == 4 for x, y, _ in rep.witnesses)
    assert "FAIL" in rep.summary()


def test_gweight_admissible():
    w = daho_weight()
    X, Y = pair_sample(2, 2000, seed=5)
    rep = pair_reports(w, X, Y)["gweight"]
    assert rep.passed
    assert rep.kind == "gweight"
    assert rep.constant < 1e3
    assert rep.ball_radius == 0.25
    assert len(rep.frontier) == 8


def test_harmonic_weight_planck_peaks_at_origin():
    w = WeightEvaluator.from_a2(get_a2("harmonic"))
    assert planck(w, np.zeros((1, 4)))[0] == pytest.approx(1.0)
    far = planck(w, np.array([[3.0, 0.0, 0.0, 0.0]]))[0]
    assert far < 0.5
