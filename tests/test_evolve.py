"""Unitary and dissipative propagation with conservation contracts."""
import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from _helpers import count_calls
from weylab.evolve import (
    EvolutionTrace,
    Propagator,
    heat_evolve,
    schrodinger_evolve,
)
from weylab.builders import get_operator
from weylab.hamiltonians import DirichletGrid
from weylab.spectral import Spectrum, eigensolve


@pytest.fixture(scope="module")
def H():
    return get_operator("harmonic", DirichletGrid(1, 64, 8.0))


@pytest.fixture(scope="module")
def f0(H):
    return np.exp(-(H.grid.points - 0.7) ** 2)


def test_schrodinger_conserves_norm_and_energy(H, f0):
    times = np.linspace(0.0, 2.0, 41)
    tr = schrodinger_evolve(H, f0, times)
    assert tr.method == "eig"
    assert np.max(np.abs(tr.norms / tr.norms[0] - 1.0)) < 1e-12
    assert np.max(np.abs(tr.energies / tr.energies[0] - 1.0)) < 1e-12
    assert len(tr.norms) == len(tr.energies) == 41
    u = Propagator(H, "schrodinger").apply(f0, times[-1])
    assert tr.norms[-1] == pytest.approx(np.linalg.norm(u), rel=1e-13)


def test_propagator_group_law(H, f0):
    prop = Propagator(H, "schrodinger")
    direct = prop.apply(f0, 0.9)
    composed = prop.apply(prop.apply(f0, 0.5), 0.4)
    assert np.max(np.abs(direct - composed)) < 1e-10


@pytest.mark.parametrize("evolve,kind", [(schrodinger_evolve, "schrodinger"),
                                          (heat_evolve, "heat")])
def test_batched_trace_matches_per_time_apply(H, f0, evolve, kind):
    # every time of a trace comes out of one product per block; each norm
    # and energy must agree with one apply per time
    f = f0 * np.exp(1j * H.grid.points)
    times = np.linspace(0.0, 0.8, 9)
    tr = evolve(H, f, times)
    prop = Propagator(H, kind)
    A = H.data
    for t, norm, energy in zip(times, tr.norms, tr.energies):
        v = prop.apply(f, t)
        assert norm == pytest.approx(np.linalg.norm(v), rel=1e-13)
        assert energy == pytest.approx(np.vdot(v, A @ v).real, rel=1e-13)


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


def test_evolution_from_zero_refuses_earlier_times(H, f0):
    # backwards the heat flow is ill-posed
    with pytest.raises(ValueError, match="^time -1 is before t = 0, where the evolution"):
        heat_evolve(H, f0, [-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="^time -3 is before t = 0"):
        heat_evolve(H, f0, np.linspace(-3.0, 0.0, 5))


def test_only_the_schrodinger_group_takes_negative_times(H, f0):
    tr = schrodinger_evolve(H, f0, [-1.0, 0.0, 1.0])
    assert np.max(np.abs(tr.norms / tr.norms[1] - 1.0)) < 1e-12
    prop = Propagator(H, "schrodinger")
    assert np.max(np.abs(prop.apply(f0, 0.0) - f0)) <= 1e-13
    back = prop.apply(prop.apply(f0, -1.0), 1.0)
    assert np.max(np.abs(back - f0)) < 1e-10
    with pytest.raises(ValueError, match="^time -1 is before t = 0"):
        Propagator(H, "heat").apply(f0, -1.0)


def test_evolution_decomposes_once(H, f0, monkeypatch):
    # one eigendecomposition, of each of the two parity blocks, serves
    # every time of the trace; the energies reuse the symmetric part the
    # Spectrum already formed
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    times = np.linspace(0.0, 0.8, 9)
    for evolve in (schrodinger_evolve, heat_evolve):
        calls.clear()
        tr = evolve(H, f0, times)
        assert calls == [(32, 32), (32, 32)]
        assert len(tr.norms) == len(tr.energies) == 9


def test_complex_operator_is_refused():
    # the propagators and the powers act through a real eigenbasis and its
    # transpose; a complex operator is refused, while eigensolve still
    # takes a Hermitian one
    X = np.random.default_rng(2).normal(size=(6, 6, 2)) @ [1.0, 1j]
    hermitian, f = X + X.conj().T, np.ones(6)
    with pytest.raises(ValueError, match="complex operator"):
        Propagator(hermitian, "schrodinger")
    with pytest.raises(ValueError, match="complex operator"):
        Spectrum(hermitian)
    with pytest.raises(ValueError, match="complex operator"):
        heat_evolve(hermitian, f, [0.0, 0.1])
    want = np.linalg.eigvalsh(hermitian)[:3]
    assert np.max(np.abs(eigensolve(hermitian, 3).eigenvalues - want)) <= 1e-12 * np.max(np.abs(want))


def test_sparse_operator_evolves_like_the_dense_one(H, f0):
    # a scipy sparse operator takes the same input path as an array
    A, S = H.sparse.toarray(), H.sparse
    times = np.linspace(0.0, 0.6, 7)
    for evolve in (schrodinger_evolve, heat_evolve):
        dense, sp = (evolve(M, f0, times) for M in (A, S))
        assert np.max(np.abs(sp.norms - dense.norms)) <= 1e-13 * np.max(dense.norms)
        assert np.max(np.abs(sp.energies - dense.energies)) <= 1e-13 * np.max(dense.energies)
    for kind in ("schrodinger", "heat"):
        u, v = (Propagator(M, kind).apply(f0, 0.6) for M in (A, S))
        assert np.max(np.abs(v - u)) <= 1e-13 * np.max(np.abs(u))


@pytest.mark.parametrize("kind", ["heat", "schrodinger"])
def test_propagated_states_match_expm_multiply(kind):
    # an independent reference at every output time, on the stiff daho
    # operator (dt |A|_inf ~ 8): e^{-tA} f, e^{-itA} f by Al-Mohy and
    # Higham's truncated Taylor series on the sparse operator
    H = get_operator("daho", DirichletGrid(2, 24, 6.0))
    rng = np.random.default_rng(1)
    f = rng.normal(size=H.sparse.shape[0]) + 1j * rng.normal(size=H.sparse.shape[0])
    z = 1.0 if kind == "heat" else 1j
    want = expm_multiply(-z * H.sparse, f, start=0.0, stop=0.5, num=20, endpoint=True)
    prop = Propagator(H, kind)
    for t, w in zip(np.linspace(0.0, 0.5, 20), want):
        assert np.linalg.norm(prop.apply(f, t) - w) <= 1e-12 * np.linalg.norm(w)
