"""Quantization rules, convention transport, norms, and serialization."""
import numpy as np
import pytest

import weylab.quantize as qz
from weylab._jets import JPowerSum
from weylab.builders import get_a2
from weylab.quantize import (
    Grid,
    OperatorMatrix,
    identity_symbol_matrix,
    jt_transport,
    kn_quantize,
    load_operator,
    moyal_sharp,
    save_operator,
    sobolev_norm,
    tau_quantize,
    weyl_quantize,
)
from weylab.symbols import (
    PolySymbol,
    SymbolEvaluator,
    with_confinement,
)

from _helpers import gaussian_packets


def xxi_symbol():
    return PolySymbol(1, {(1,): JPowerSum.monomial(2, (1, 0))})


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
    defect = np.max(np.abs(op.data - np.eye(16)))
    assert defect <= 1e-12


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_identity_symbol_2d(tau):
    g = Grid(2, 8, 3.0)
    op = identity_symbol_matrix(g, tau)
    defect = np.max(np.abs(op.data - np.eye(g.side())))
    assert defect <= 1e-12


def test_generic_tau_2d_unsupported():
    with pytest.raises(NotImplementedError):
        identity_symbol_matrix(Grid(2, 8, 3.0), 0.3)


def test_weyl_of_real_symbol_is_hermitian():
    op = weyl_quantize(harmonic_1d(), Grid(1, 32, 6.0))
    assert op.is_hermitian()
    assert op.hermitian_defect() < 1e-12


def test_kn_equals_weyl_for_separable_symbol():
    # no mixed x-xi monomials, so every ordering convention coincides
    g = Grid(1, 32, 6.0)
    diff = weyl_quantize(harmonic_1d(), g) - kn_quantize(harmonic_1d(), g)
    assert np.max(np.abs(diff.data)) < 1e-10


def test_dense_side_limit(monkeypatch):
    monkeypatch.setattr(qz, "DENSE_SIDE_LIMIT", 16)
    with pytest.raises(ValueError, match="dense side"):
        identity_symbol_matrix(Grid(1, 32, 4.0))


def test_operator_matrix_shape_check():
    g = Grid(1, 16, 4.0)
    with pytest.raises(ValueError, match="shape"):
        OperatorMatrix(g, np.eye(8), tau=0.5)


def test_apply_and_sub():
    g = Grid(1, 16, 4.0)
    op = weyl_quantize(harmonic_1d(), g)
    u = np.sin(g.points)
    assert np.allclose(op.apply(u), op.data @ u)
    zero = op - op
    assert np.max(np.abs(zero.data)) == 0.0


# -- convention transport ---------------------------------------------------

def test_transport_matches_weakly_but_not_entrywise():
    # Op_W(a) and Op_KN of the half-step transported symbol agree on
    # matrix elements against localized states; raw entries differ because
    # the periodic wrap acts differently on the two kernels.
    g = Grid(1, 32, 6.0)
    a = xxi_symbol()
    W = weyl_quantize(a, g).data
    K = kn_quantize(jt_transport(a, -0.5), g).data
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


def test_transport_requires_polynomial_layer():
    s = SymbolEvaluator(1, lambda Z: np.ones(np.atleast_2d(Z).shape[0]))
    with pytest.raises(TypeError):
        jt_transport(s, 0.5)
    with pytest.raises(TypeError):
        moyal_sharp(s, s)


def test_moyal_sharp_delegates():
    a = xxi_symbol()
    prod = moyal_sharp(a, a)
    direct = a.sharp(a)
    Z = np.array([[0.3, -1.2], [1.0, 2.0]])
    assert np.allclose(np.asarray(prod.eval(Z)), np.asarray(direct.eval(Z)))


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


# -- serialization ----------------------------------------------------------

def test_save_load_roundtrip(tmp_path, rng):
    g = Grid(1, 16, 4.0)
    data = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    op = OperatorMatrix(g, data, tau=0.5)
    path = tmp_path / "op.bin"
    save_operator(path, op)
    back = load_operator(path)
    assert back.grid == g
    assert back.tau == 0.5
    assert np.array_equal(back.data, op.data)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"nope" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_operator(path)


def test_load_rejects_unknown_version(tmp_path):
    g = Grid(1, 16, 4.0)
    op = identity_symbol_matrix(g)
    path = tmp_path / "op.bin"
    save_operator(path, op)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_operator(path)


def test_gaussian_packets_are_normalized():
    g = Grid(1, 64, 8.0)
    packets = gaussian_packets(g, count=4, seed=1)
    assert len(packets) == 4
    for u in packets:
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
