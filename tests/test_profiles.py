import json
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp

import weylab
from weylab import profiles
from weylab.profiles import (PROFILE_DERIV_ORDERS, CutoffProfileSquared, band_bump,
                             smoothstep)

THRESHOLD = 6.9453607293  # 4 + I_1 - I_rho by the panel rule, within 5e-15 of a 40-digit value


def test_smoothstep_plateaus_and_monotone():
    u = np.linspace(-2.0, 3.0, 1001)
    s = smoothstep(u)
    assert np.all(s[u <= 0.0] == 0.0)
    assert np.all(s[u >= 1.0] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)
    # complement symmetry of the exponential-bump construction
    v = np.linspace(0.0, 1.0, 501)
    assert np.max(np.abs(smoothstep(v) + smoothstep(1.0 - v) - 1.0)) < 1e-12


def test_profile_inner_and_plateau_exact(profile):
    t = np.linspace(-2.0, 2.0, 401)
    assert np.array_equal(profile(t), t * t)
    t = np.array([-7.0, -4.0, 4.0, 5.5, 100.0])
    assert np.array_equal(profile(t), np.full(5, 9.0))


def test_profile_even_and_continuous(profile):
    t = np.linspace(0.0, 5.0, 1777)
    assert np.array_equal(profile(t), profile(-t))
    dense = np.linspace(1.9, 4.1, 20001)
    vals = profile(dense)
    step = dense[1] - dense[0]
    # continuity across both joins: increments bounded by slope * step
    assert np.max(np.abs(np.diff(vals))) < 10.0 * step


def test_profile_bridge_meets_plateau(profile):
    # F(4^-) = c'^2 exactly by construction of the mixing weight
    assert profile(4.0 - 1e-9) == pytest.approx(9.0, abs=1e-7)
    assert profile(2.0 + 1e-12) == pytest.approx(4.0, abs=1e-9)


def test_profile_jets_continuous_at_joins(profile):
    inner_jets = [4.0, 2.0, 0.0, 0.0, 0.0, 0.0]  # d^k(t^2) at t=2
    for order in range(1, PROFILE_DERIV_ORDERS + 1):
        at2 = profile.derivative(2.0 + 1e-7, order)
        assert at2 == pytest.approx(inner_jets[order - 1], abs=1e-4)
        at4 = profile.derivative(4.0 - 1e-7, order)
        assert at4 == pytest.approx(0.0, abs=1e-4)


def test_profile_derivative_matches_finite_differences(profile):
    t = np.linspace(2.1, 3.9, 37)
    h = 1e-5
    fd1 = (profile(t + h) - profile(t - h)) / (2.0 * h)
    assert np.max(np.abs(fd1 - profile.derivative(t, 1))) < 1e-6
    fd2 = (profile(t + h) - 2.0 * profile(t) + profile(t - h)) / h**2
    assert np.max(np.abs(fd2 - profile.derivative(t, 2))) < 1e-4


def test_profile_derivative_odd_even_symmetry(profile):
    t = np.linspace(2.05, 3.95, 101)
    for order in range(1, 7):
        sgn = (-1.0) ** order
        assert np.allclose(profile.derivative(-t, order),
                           sgn * profile.derivative(t, order), atol=1e-12)


def test_profile_derivative_order_validation(profile):
    with pytest.raises(ValueError):
        profile.derivative(3.0, 0)
    with pytest.raises(ValueError):
        profile.derivative(3.0, PROFILE_DERIV_ORDERS + 1)


def test_monotone_threshold_value():
    assert CutoffProfileSquared.monotone_threshold() == pytest.approx(
        THRESHOLD, abs=1e-8)


def test_monotone_flag_and_actual_monotonicity():
    assert CutoffProfileSquared(3.0).monotone
    below = CutoffProfileSquared(2.5)  # 6.25 < threshold
    assert not below.monotone
    t = np.linspace(0.0, 5.0, 4001)
    assert np.all(np.diff(CutoffProfileSquared(3.0)(t)) >= -1e-9)
    assert np.min(np.diff(below(t))) < -1e-6  # genuinely dips


def test_gamma_solves_bridge_mass():
    p = CutoffProfileSquared(3.0)
    # gamma reproduces c'^2 through the two bridge integrals
    assert 4.0 + 5.1076748407 + p.gamma * 2.1623141114 == pytest.approx(9.0, abs=1e-6)


def test_zero_c_prime_rejected():
    with pytest.raises(ValueError):
        CutoffProfileSquared(0.0)


def test_nonnegative_everywhere():
    for c in (0.5, 3.0, -3.0, 10.0):
        p = CutoffProfileSquared(c)
        t = np.linspace(-6.0, 6.0, 2001)
        assert np.min(p(t)) >= 0.0


def test_band_bump_support_and_plateau():
    v = np.linspace(-1.0, 6.0, 1401)
    b = band_bump(v)
    assert np.all(b[(v <= 1.0) | (v >= 3.0)] == 0.0)
    inner = (v >= 1.2) & (v <= 2.5)
    assert np.array_equal(b[inner], np.ones(inner.sum()))
    assert np.all((b >= 0.0) & (b <= 1.0))


@lru_cache(maxsize=1)
def _sympy_beta_table():
    """Bridge integrand and its t-derivatives, differentiated symbolically.

    The mixing weight g stays symbolic so one table serves every c'.
    """
    t, g = sp.Symbol("t"), sp.Symbol("g")
    u = (t - 2) / 2
    phi, phic = sp.exp(-1 / u), sp.exp(-1 / (1 - u))
    s = phi / (phi + phic)
    expr = 2 * t * (1 - s) * (1 + g * 4 * s * (1 - s))
    fns = [sp.lambdify((t, g), expr, "numpy", cse=True)]
    for _ in range(PROFILE_DERIV_ORDERS - 1):
        expr = sp.diff(expr, t)
        fns.append(sp.lambdify((t, g), expr, "numpy", cse=True))
    return fns


def _beta_oracle(order, t, gamma):
    t = np.asarray(t, dtype=float)
    return np.asarray(_sympy_beta_table()[order](t, gamma), dtype=float) * np.ones_like(t)


@pytest.mark.parametrize("c_prime", [0.5, 3.0, 10.0])
def test_profile_jets_match_symbolic_table(c_prime):
    p = CutoffProfileSquared(c_prime)
    near = np.array([1e-7, 5e-8, 1e-8])
    t = np.concatenate([np.linspace(2.0, 4.0, 203)[1:-1], 2.0 + near, 4.0 - near])
    for order in range(1, PROFILE_DERIV_ORDERS + 1):
        ref = _beta_oracle(order - 1, t, p.gamma)
        got = p.derivative(t, order)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-10


def test_derivatives_across_bridge_blocks_match_symbolic_table(monkeypatch):
    p = CutoffProfileSquared(3.0)
    rng = np.random.default_rng(9)
    distinct = rng.uniform(2.0, 4.0, 2 * 64 + 17)
    t = np.concatenate([distinct, -distinct[:40], distinct[50:70], [0.0, 1.5, -2.0, 4.0, 7.0]])
    t = t[rng.permutation(t.size)]
    bridge = (np.abs(t) > 2.0) & (np.abs(t) < 4.0)
    sizes, beta = [], profiles._beta_jet

    def counted_beta(t, gamma, depth):
        sizes.append(np.size(t))
        return beta(t, gamma, depth)

    monkeypatch.setattr(profiles, "_beta_jet", counted_beta)
    for order in range(1, PROFILE_DERIV_ORDERS + 1):
        monkeypatch.setattr(profiles, "BRIDGE_BLOCK", 10**9)
        whole = p.derivative(t, order)
        monkeypatch.setattr(profiles, "BRIDGE_BLOCK", 64)
        sizes.clear()
        got = p.derivative(t, order)
        assert sizes == [64, 64, 17]
        assert np.array_equal(got, whole)
        ref = np.sign(t[bridge]) ** order * _beta_oracle(order - 1, np.abs(t[bridge]), p.gamma)
        err = np.abs(got[bridge] - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(err) <= 1e-10


def test_bridge_working_set_is_bounded():
    # on 2e5 distinct bridge points the order-6 series held about 95 MB
    # at once; in blocks the full-length index arrays of the scatter
    # (about 15 MB) are most of what is left
    p = CutoffProfileSquared(3.0)
    t = np.random.default_rng(4).uniform(2.0, 4.0, 200_000)
    p.derivative(t[:10], 6)
    tracemalloc.start()
    try:
        p.derivative(t, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("c_prime", [0.5, 2.5, 3.0, 10.0])
def test_bridge_values_match_direct_quadrature(c_prime):
    p = CutoffProfileSquared(c_prime)
    rng = np.random.default_rng(7)
    distinct = rng.uniform(2.0, 4.0, profiles.BRIDGE_BLOCK + 904)
    t = np.concatenate([distinct, distinct[:1500], -distinct[2000:2600]])
    t = t[rng.permutation(t.size)]  # unsorted, with duplicates and mirrored signs
    assert np.unique(np.abs(t)).size > profiles.BRIDGE_BLOCK
    glx, glw = np.polynomial.legendre.leggauss(64)
    a = np.abs(t)
    half = (a - 2.0) / 2.0
    nodes = np.clip(2.0 + half[:, None] * (glx + 1.0), 2 + 1e-9, 4 - 1e-9)
    direct = 4.0 + (_beta_oracle(0, nodes, p.gamma) * glw).sum(axis=1) * half
    got = p(t)
    assert np.max(np.abs(got - direct)) <= 1e-13 * max(1.0, c_prime**2)


def _direct_bridge(a, gamma):
    """F(a) for a in (2, 4]: one 64-node Gauss-Legendre rule over [2, a]."""
    glx, glw = np.polynomial.legendre.leggauss(64)
    half = (a - 2.0) / 2.0
    nodes = np.clip(2.0 + half[:, None] * (glx + 1.0), 2 + 1e-9, 4 - 1e-9)
    return 4.0 + (_beta_oracle(0, nodes, gamma) * glw).sum(axis=1) * half


def _edges_and_neighbours():
    edges = 2.0 + 2.0 * np.arange(257) / 256
    return edges, np.nextafter(edges, 0.0), np.nextafter(edges, 5.0)


@pytest.mark.parametrize("c_prime", [0.5, 3.0, 10.0])
def test_bridge_at_panel_edges(c_prime):
    p = CutoffProfileSquared(c_prime)
    edges, below, above = _edges_and_neighbours()
    a = np.concatenate([edges[1:-1], below[1:], above[:-1]])
    tol = 1e-13 * max(1.0, c_prime**2)
    for t in (a, -a):
        assert np.max(np.abs(p(t) - _direct_bridge(a, p.gamma))) <= tol
    # the closed joins: t^2 at 2, c'^2 at 4, and the bridge meets both
    assert p(2.0) == 4.0 and p(-4.0) == c_prime**2
    assert p(np.nextafter(2.0, 3.0)) == pytest.approx(4.0, abs=tol)
    assert p(np.nextafter(4.0, 0.0)) == pytest.approx(c_prime**2, abs=tol)
    # t = 4 is the last edge: the table's end, whose sum is c'^2 - 4
    assert profiles._bridge_cumint(np.array([4.0]), p._table, p.gamma)[0] == p._table[-1]
    assert 4.0 + p._table[-1] == pytest.approx(c_prime**2, abs=tol)


@pytest.mark.parametrize("c_prime", [0.5, 3.0, 10.0])
def test_bridge_continuous_across_every_edge(c_prime):
    p = CutoffProfileSquared(c_prime)
    edges, below, above = _edges_and_neighbours()
    inner = slice(1, -1)
    at, lo, hi = p(edges[inner]), p(below[inner]), p(above[inner])
    tol = 1e-13 * max(1.0, c_prime**2)
    assert np.max(np.abs(at - lo)) <= tol
    assert np.max(np.abs(hi - at)) <= tol
    # nondecreasing across the edges wherever the bridge is monotone
    if p.monotone:
        assert np.all(hi >= lo - tol)


def test_bridge_costs_eight_nodes_per_distinct_point(monkeypatch):
    CutoffProfileSquared.monotone_threshold()  # the shared constants, cached
    tables, nodes = [], []
    table, beta = profiles._panel_table, profiles._beta_jet

    def counted_table(gamma):
        tables.append(gamma)
        return table(gamma)

    def counted_beta(t, gamma, depth):
        nodes.append(np.size(t))
        return beta(t, gamma, depth)

    monkeypatch.setattr(profiles, "_panel_table", counted_table)
    p = CutoffProfileSquared(3.0)
    assert len(tables) == 1
    monkeypatch.setattr(profiles, "_beta_jet", counted_beta)
    rng = np.random.default_rng(3)
    distinct = rng.uniform(2.0, 4.0, 1000)
    t = np.concatenate([distinct, -distinct[:300], distinct[:200],
                        [0.0, 1.5, -2.0, 4.0, 7.0]])
    p(t[rng.permutation(t.size)])
    assert sum(nodes) == 8 * distinct.size
    p(2.5)
    assert sum(nodes) == 8 * (distinct.size + 1)
    assert len(tables) == 1


def test_daho_runs_do_not_load_sympy(tmp_path):
    cfgs = [
        {"schema": 1, "kind": "schatten-sweep", "weight": {"name": "daho"},
         "Q": 3.0, "cells": [{"mu": 2.0, "r": 2.0}, {"mu": 1.2, "r": 2.0}],
         "matrix_N": [8, 12], "box_L": [4.0], "box_npts": 10, "band_npts": 14},
        {"schema": 1, "kind": "class-check", "seed": 0,
         "symbol": {"name": "daho"}, "target": "a", "order": 4,
         "halves": [10.0, 20.0], "n_grid": 3, "n_random": 50},
    ]
    code = (
        "import json, os, sys\n"
        "from weylab.cli import run_config\n"
        "for i, cfg in enumerate(json.loads(sys.argv[1])):\n"
        "    run_config(cfg, os.path.join(sys.argv[2], str(i)))\n"
        "print('sympy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(cfgs), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
    assert sorted(os.listdir(tmp_path)) == ["0", "1"]
