"""Unitary and dissipative propagation with conservation contracts."""
import numpy as np
import pytest

from _helpers import count_calls
from weylab.evolve import (
    EvolutionTrace,
    Propagator,
    fractional_evolve,
    heat_evolve,
    schrodinger_evolve,
)
from weylab.builders import get_operator
from weylab.hamiltonians import DirichletGrid, fractional_power


@pytest.fixture(scope="module")
def H():
    return get_operator("harmonic", DirichletGrid(1, 64, 8.0))


@pytest.fixture(scope="module")
def f0(H):
    return np.exp(-(H.grid.points - 0.7) ** 2)


def test_schrodinger_conserves_norm_and_energy(H, f0):
    times = np.linspace(0.0, 2.0, 41)
    tr = schrodinger_evolve(H, f0, times, keep_snapshots=True)
    assert tr.method == "eig"
    assert np.max(np.abs(tr.norms / tr.norms[0] - 1.0)) < 1e-12
    assert np.max(np.abs(tr.energies / tr.energies[0] - 1.0)) < 1e-12
    assert len(tr.snapshots) == 41


def test_propagator_group_law(H, f0):
    prop = Propagator(H, "schrodinger")
    direct = prop.apply(f0, 0.9)
    composed = prop.apply(prop.apply(f0, 0.5), 0.4)
    assert np.max(np.abs(direct - composed)) < 1e-10


def test_heat_is_a_contraction(H, f0):
    times = np.linspace(0.0, 1.0, 21)
    tr = heat_evolve(H, f0, times)
    assert np.all(np.diff(tr.norms) <= 1e-12)
    assert np.all(np.diff(tr.energies) <= 1e-10)


def test_heat_rejects_negative_spectrum():
    A = np.diag([-1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="contraction"):
        Propagator(A, "heat")


def test_propagator_validation(H):
    with pytest.raises(ValueError, match="kind"):
        Propagator(H, "wave")
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        Propagator(bad, "schrodinger")


def test_zero_state_rejected(H):
    with pytest.raises(ValueError, match="nonzero"):
        schrodinger_evolve(H, np.zeros(64), [0.0, 1.0])


def test_times_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        EvolutionTrace(np.array([0.0, 0.5, 0.5]), np.ones(3), np.ones(3), "eig")


def test_crank_nicolson_tracks_exact_evolution(H, f0):
    # trapezoidal stepping is second order: at dt = 2.5e-3 the terminal
    # state sits a few 1e-5 from the spectral one, comfortably inside
    # the advertised tolerance class
    times = np.linspace(0.0, 0.5, 201)
    te = schrodinger_evolve(H, f0, times, keep_snapshots=True)
    tc = schrodinger_evolve(H, f0, times, method="cn")
    assert tc.method == "crank-nicolson"
    assert "1e-6" in tc.meta
    assert np.max(np.abs(tc.norms / tc.norms[0] - 1.0)) < 1e-10
    drift = np.max(np.abs(tc.energies / tc.energies[0] - 1.0))
    assert drift < 1e-6
    # terminal norms agree; CN keeps no snapshots so compare observables
    assert abs(tc.norms[-1] - te.norms[-1]) / te.norms[-1] < 1e-4
    assert abs(tc.energies[-1] - te.energies[-1]) / te.energies[-1] < 1e-4


def test_crank_nicolson_heat_monotone(H, f0):
    times = np.linspace(0.0, 0.4, 81)
    tr = heat_evolve(H, f0, times, method="cn")
    assert np.all(np.diff(tr.norms) <= 1e-12)


def test_fractional_beta_one_matches_plain(H, f0):
    times = np.linspace(0.0, 0.8, 9)
    a = schrodinger_evolve(H, f0, times)
    b = fractional_evolve(H, 1.0, 0.0, f0, times, "schrodinger")
    assert np.allclose(a.norms, b.norms, rtol=1e-9)
    assert np.allclose(a.energies, b.energies, rtol=1e-7)
    assert "beta=1" in b.meta


def test_fractional_evolve_decomposes_once(H, f0, monkeypatch):
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    times = np.linspace(0.0, 0.8, 9)
    tr = fractional_evolve(H, 0.5, 1.0, f0, times, "heat")
    assert calls == [(64, 64)]
    # the power's spectrum reused from H equals a direct evolution under
    # the formed power, which decomposes it a second time
    Hb = fractional_power(H, 0.5, 1.0)
    ref = heat_evolve(Hb, f0, times)
    assert np.allclose(tr.norms, ref.norms, rtol=1e-12)
    assert np.allclose(tr.energies, ref.energies, rtol=1e-12)


def test_fractional_validation(H, f0):
    with pytest.raises(ValueError, match="beta"):
        fractional_evolve(H, 0.0, 0.0, f0, [0.0, 1.0], "heat")
    with pytest.raises(TypeError):
        fractional_evolve(np.eye(4), 0.5, 0.0, np.ones(4), [0.0, 1.0], "heat")


def test_csv_rows(H, f0):
    tr = heat_evolve(H, f0, np.linspace(0.0, 0.2, 5))
    rows = tr.csv_rows()
    assert len(rows) == 5
    assert all(len(r) == 3 for r in rows)
    assert rows[0][0] == 0.0
