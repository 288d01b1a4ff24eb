"""Quantization rules, convention transport and Sobolev norms."""
import numpy as np
import pytest

import weylab.quantize as qz
from weylab._jets import JPowerSum
from weylab.builders import get_a2, get_weight
from weylab.quantize import (
    Grid,
    identity_symbol_matrix,
    kn_quantize,
    sobolev_norm,
    tau_quantize,
    weyl_quantize,
)
from weylab.symbols import PolySymbol, with_confinement

from _helpers import direct_quantize, gaussian_packets


def xxi_symbol():
    return PolySymbol(1, {(1,): JPowerSum.monomial(2, (1, 0))})


def mixed_2d_symbol():
    """x1 xi2 + x2^2 xi1: x-dependent and odd in xi, unlike every model."""
    return PolySymbol(2, {(0, 1): JPowerSum.monomial(4, (1, 0, 0, 0)),
                          (1, 0): JPowerSum.monomial(4, (0, 2, 0, 0))})


def daho_weight():
    return get_weight("daho")


def harmonic_1d():
    return with_confinement(get_a2("harmonic", {"n": 1}))


# -- grids ------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 16, 4.0)
    with pytest.raises(ValueError):
        Grid(1, 15, 4.0)
    with pytest.raises(ValueError):
        Grid(1, 4, 4.0)
    with pytest.raises(ValueError):
        Grid(1, 16, 0.0)


def test_grid_geometry():
    g = Grid(1, 16, 4.0)
    assert g.h == pytest.approx(0.5)
    assert g.points[0] == -4.0 and g.points[-1] == pytest.approx(3.5)
    assert len(g.points) == 16
    assert g.modes[0] == pytest.approx(-1.0)  # -N/2 / (2L)
    assert g.xi_max == pytest.approx(1.0)
    assert g.side() == 16
    assert Grid(2, 16, 4.0).side() == 256
    assert g.resolves(0.4) and not g.resolves(0.6)


# -- identity and hermiticity ----------------------------------------------

@pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
def test_identity_symbol_1d(tau):
    op = identity_symbol_matrix(Grid(1, 16, 4.0), tau)
    defect = np.max(np.abs(op - np.eye(16)))
    assert defect <= 1e-12


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_identity_symbol_2d(tau):
    g = Grid(2, 8, 3.0)
    op = identity_symbol_matrix(g, tau)
    defect = np.max(np.abs(op - np.eye(g.side())))
    assert defect <= 1e-12


def test_generic_tau_2d_unsupported():
    with pytest.raises(NotImplementedError):
        identity_symbol_matrix(Grid(2, 8, 3.0), 0.3)


def test_weyl_of_real_symbol_is_hermitian():
    op = weyl_quantize(harmonic_1d(), Grid(1, 32, 6.0))
    assert np.max(np.abs(op - op.conj().T)) < 1e-12


def test_kn_equals_weyl_for_separable_symbol():
    # no mixed x-xi monomials, so every ordering convention coincides
    g = Grid(1, 32, 6.0)
    diff = weyl_quantize(harmonic_1d(), g) - kn_quantize(harmonic_1d(), g)
    assert np.max(np.abs(diff)) < 1e-10


def test_dense_side_limit(monkeypatch):
    monkeypatch.setattr(qz, "DENSE_SIDE_LIMIT", 16)
    with pytest.raises(ValueError, match="dense side"):
        identity_symbol_matrix(Grid(1, 32, 4.0))


def test_dense_side_limit_checked_before_the_symbol(monkeypatch):
    # an oversized grid fails on entry: the symbol is never evaluated
    monkeypatch.setattr(qz, "DENSE_SIDE_LIMIT", 16)
    calls = []

    class Counting:
        n = 2

        @staticmethod
        def eval(P):
            calls.append(len(P))
            return np.ones(np.broadcast(*P).shape)

    for tau in (0.5, 1.0):
        with pytest.raises(ValueError, match="dense side"):
            tau_quantize(Counting(), Grid(2, 8, 3.0), tau)
    Counting.n = 1
    with pytest.raises(ValueError, match="dense side"):
        tau_quantize(Counting(), Grid(1, 32, 4.0), 0.3)
    assert calls == []


# -- entries against the direct sum ----------------------------------------

def _direct_defect(s, grid, tau):
    want = direct_quantize(s, grid, tau)
    return np.max(np.abs(tau_quantize(s, grid, tau) - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
def test_1d_matches_direct_sum(tau):
    assert _direct_defect(xxi_symbol(), Grid(1, 16, 4.0), tau) <= 1e-13


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("symbol", [mixed_2d_symbol, daho_weight])
def test_2d_matches_direct_sum(symbol, tau):
    assert _direct_defect(symbol(), Grid(2, 8, 3.0), tau) <= 1e-13


# -- convention transport ---------------------------------------------------

def test_transport_matches_weakly_but_not_entrywise():
    # Op_W(a) and Op_KN of the half-step transported symbol agree on
    # matrix elements against localized states; raw entries differ because
    # the periodic wrap acts differently on the two kernels.
    g = Grid(1, 32, 6.0)
    a = xxi_symbol()
    W = weyl_quantize(a, g)
    K = kn_quantize(a.jt(-0.5), g)
    xs = g.points
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        c1, c2 = rng.uniform(-2, 2, 2)
        phi = np.exp(-((xs - c1) ** 2))
        psi = np.exp(-((xs - c2) ** 2) / 1.5)
        phi /= np.linalg.norm(phi)
        psi /= np.linalg.norm(psi)
        worst = max(worst, abs(phi @ (W - K) @ psi))
    assert worst <= 1e-10
    assert np.max(np.abs(W - K)) > 0.5


# -- Sobolev norms ----------------------------------------------------------

def test_sobolev_tau_zero_is_scaled_l2(rng):
    g = Grid(1, 64, 5.0)
    u = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert sobolev_norm(u, g, 0.0) == pytest.approx(
        np.sqrt(g.h) * np.linalg.norm(u), rel=1e-12)
    g2 = Grid(2, 16, 3.0)
    u2 = rng.normal(size=256)
    assert sobolev_norm(u2, g2, 0.0) == pytest.approx(
        g2.h * np.linalg.norm(u2), rel=1e-12)


@pytest.mark.parametrize("tau", [0.0, 1.0, 2.0, -1.0])
def test_sobolev_plane_wave_closed_form(tau):
    g = Grid(1, 64, 5.0)
    k = g.modes[40]
    u = np.exp(2j * np.pi * k * g.points)
    want = (1.0 + k**2) ** (tau / 2.0) * np.sqrt(2.0 * g.L)
    assert sobolev_norm(u, g, tau) == pytest.approx(want, rel=1e-12)


def test_gaussian_packets_are_normalized():
    g = Grid(1, 64, 8.0)
    packets = gaussian_packets(g, count=4, seed=1)
    assert len(packets) == 4
    for u in packets:
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
