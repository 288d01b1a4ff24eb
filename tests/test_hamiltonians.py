"""Discretized operators: stencils, model builders, potentials, powers."""
import numpy as np
import pytest

from weylab.builders import _model, get_operator
from weylab.hamiltonians import (
    DirichletGrid,
    HamiltonianMatrix,
    P2ValidationError,
    Potential,
    bounded_noise_potential,
    hamiltonian_with_potential,
    quadratic_potential,
    second_derivative,
    step_potential,
    table_potential,
    tensor_stencil_matrix,
    validate_p2,
)
from weylab.quantize import Grid
from weylab.spectral import SolverError, Spectrum

from _helpers import min_ritz, periodic_mode_symbol, symmetry_defect


# -- grids and wrapper ------------------------------------------------------

def test_dirichlet_grid_geometry():
    g = DirichletGrid(1, 9, 5.0)
    assert g.h == pytest.approx(1.0)
    assert g.points[0] == pytest.approx(-4.0)
    assert g.points[-1] == pytest.approx(4.0)
    g2 = DirichletGrid(2, 9, 5.0)
    assert g2.mesh().shape == (81, 2)
    assert g2.side() == 81


def test_dirichlet_grid_validation():
    with pytest.raises(ValueError):
        DirichletGrid(3, 16, 4.0)
    with pytest.raises(ValueError):
        DirichletGrid(1, 7, 4.0)
    with pytest.raises(ValueError):
        DirichletGrid(1, 16, -1.0)


def test_matrix_shape_check():
    with pytest.raises(ValueError):
        HamiltonianMatrix(np.eye(8), DirichletGrid(1, 16, 4.0), "x")


def test_matrix_stores_csr_only():
    # a dense input is converted on entry; .data is a fresh dense copy
    # that cannot write back into the stored operator
    g = DirichletGrid(1, 16, 4.0)
    A = second_derivative(16, g.h)
    H = HamiltonianMatrix(A, g, "x")
    assert H.sparse.format == "csr"
    assert np.array_equal(H.data, A)
    D = H.data
    D[0, 0] = 1e9
    assert H.data[0, 0] == A[0, 0]
    assert H.data is not H.data


# -- stencils ---------------------------------------------------------------

def test_dirichlet_order2_eigenvalues_closed_form():
    N, h = 40, 0.2
    lam = np.sort(np.linalg.eigvalsh(second_derivative(N, h, order=2)))
    k = np.arange(1, N + 1)
    oracle = np.sort((2.0 - 2.0 * np.cos(np.pi * k / (N + 1))) / h**2)
    assert np.max(np.abs(lam - oracle)) < 1e-10


def test_periodic_matrix_matches_mode_symbol():
    N, h = 32, 0.3
    lam = np.sort(np.linalg.eigvalsh(second_derivative(N, h, 6, bc="periodic")))
    assert np.max(np.abs(lam - np.sort(periodic_mode_symbol(N, h, 6)))) < 1e-10


def test_stencil_order_validation():
    with pytest.raises(ValueError):
        second_derivative(16, 0.1, order=3)
    with pytest.raises(ValueError):
        second_derivative(16, 0.1, bc="neumann")


@pytest.mark.parametrize("order", [2, 4, 6])
def test_stencil_refinement_rate(order):
    # compactly small Gaussian keeps the wall truncation invisible, so the
    # interior error must shrink at the advertised rate under h -> h/2
    errs = []
    for N in (95, 191):
        g = DirichletGrid(1, N, 8.0)
        f = np.exp(-4.0 * g.points**2)
        fpp = (64.0 * g.points**2 - 8.0) * f
        D = second_derivative(g.N, g.h, order=order)
        errs.append(np.max(np.abs(D @ f + fpp)))
    assert errs[0] / errs[1] > 0.7 * 2**order


def test_stencils_are_symmetric_psd():
    for bc in ("dirichlet", "periodic"):
        A = second_derivative(24, 0.25, order=6, bc=bc)
        assert np.max(np.abs(A - A.T)) == 0.0
        assert np.min(np.linalg.eigvalsh(A)) > -1e-10


# -- model builders ---------------------------------------------------------

def test_harmonic_2d_kronecker_eigenvalues():
    g = DirichletGrid(2, 24, 6.0)
    H = get_operator("harmonic", g)
    H1 = second_derivative(24, g.h, 6) + np.diag(g.points**2)
    l1 = np.linalg.eigvalsh(H1)
    oracle = np.sort((l1[:, None] + l1[None, :]).ravel())
    got = np.linalg.eigvalsh(H.data)
    assert np.max(np.abs(got - oracle)) < 1e-8


def test_grushin_decouples_over_transverse_modes():
    # conjugating by the x2 eigenbasis splits the operator into one
    # Sturm-Liouville block per transverse eigenvalue, at any stencil order
    g = DirichletGrid(2, 20, 5.0)
    G = get_operator("grushin_pure", g)
    D2 = second_derivative(20, g.h, 6)
    mus = np.linalg.eigvalsh(D2)
    oracle = np.sort(np.concatenate(
        [np.linalg.eigvalsh(D2 + mu * np.diag(g.points**2)) for mu in mus]))
    got = np.linalg.eigvalsh(G.data)
    assert np.max(np.abs(got - oracle)) / got[-1] < 1e-12


def test_single_field_spectrum_is_degenerate_lift():
    g = DirichletGrid(2, 12, 4.0)
    K = get_operator("single_field", g)
    D2 = second_derivative(12, g.h, 6)
    lam = np.linalg.eigvalsh(D2)
    oracle = np.sort(np.repeat(lam, 12))
    got = np.linalg.eigvalsh(K.data)
    assert np.max(np.abs(got - oracle)) < 1e-8


def test_daho_matrix_structure(profile):
    g = DirichletGrid(2, 16, 6.0)
    H = get_operator("daho", g)
    assert symmetry_defect(H) == 0.0
    assert min_ritz(H, trials=200) >= 0.0
    assert "daho" in H.provenance
    with pytest.raises(ValueError):
        get_operator("daho", DirichletGrid(1, 16, 6.0))
    with pytest.raises(ValueError):
        get_operator("grushin_pure", DirichletGrid(1, 16, 6.0))
    with pytest.raises(ValueError):
        get_operator("single_field", DirichletGrid(1, 16, 6.0))


def test_daho_plateau_matches_scaled_laplacian_far_out():
    # beyond the bridge the x1-coefficient is exactly c'^2
    g = DirichletGrid(2, 16, 6.0)
    H = get_operator("daho", g, {"c_prime": 2.0})
    top = np.abs(g.points) >= 4.0
    assert np.any(top)
    D2 = second_derivative(16, g.h, 6)
    i = int(np.nonzero(top)[0][0])
    row = H.data[i * 16:(i + 1) * 16, i * 16:(i + 1) * 16]
    inner = D2[i, i] * np.eye(16) + 4.0 * D2 + np.diag(
        g.points[i] ** 2 + g.points**2)
    assert np.max(np.abs(row - inner)) < 1e-10


def test_sum_of_squares_constant_field():
    g = DirichletGrid(1, 20, 5.0)
    H = get_operator("sum_of_squares", g, {"fields": [[0, "1"]]})
    assert np.max(np.abs(H.data - second_derivative(20, g.h, order=2))) == 0.0


@pytest.mark.parametrize("grid", [DirichletGrid(2, 20, 5.0), Grid(2, 16, 4.0)],
                         ids=["dirichlet", "periodic"])
def test_sum_of_squares_matches_grushin(grid):
    # the Grushin fields as a sum_of_squares config are the model itself
    # at order 2, with the stencils of either boundary
    H = get_operator("sum_of_squares", grid, {"fields": [[0, "1"], [1, "x1"]]})
    assert np.array_equal(H.data, get_operator("grushin_pure", grid, {"order": 2}).data)
    assert symmetry_defect(H) == 0.0
    assert np.min(np.linalg.eigvalsh(H.data)) > -1e-9


def test_sum_of_squares_accepts_a_generator():
    g = DirichletGrid(2, 12, 4.0)
    fields = _model("grushin_pure").fields
    H = tensor_stencil_matrix((f for f in fields), g, order=2, provenance="grushin")
    assert H.provenance == "grushin"
    assert np.array_equal(H.data, tensor_stencil_matrix(fields, g, order=2).data)


@pytest.mark.parametrize("axis", [-1, 2], ids=["below", "above"])
def test_tensor_stencil_matrix_refuses_an_axis_off_the_grid(axis):
    # axis -1 would otherwise select the last axis through the index
    with pytest.raises(ValueError, match=f"field axis {axis} is not an axis of a grid "
                                         "of dimension 2"):
        tensor_stencil_matrix([(axis, None)], DirichletGrid(2, 12, 4.0))


def test_tensor_stencil_matrix_refuses_a_coefficient_varying_along_its_axis():
    # x1^2 on axis 0 varies along its own axis: the stencil product with
    # it is not symmetric, so the assembly refuses it
    x1_squared = _model("grushin_pure").fields[1][1]
    with pytest.raises(ValueError, match="varies along it"):
        tensor_stencil_matrix([(0, x1_squared)], DirichletGrid(2, 12, 4.0))


@pytest.mark.parametrize("name,params", [("harmonic", {"n": 1}), ("harmonic", {"n": 2}),
                                         ("daho", {}), ("grushin_pure", {}),
                                         ("single_field", {})],
                         ids=["harmonic1", "harmonic2", "daho", "grushin_pure", "single_field"])
def test_every_model_field_passes_the_stencil_check(name, params):
    # each model's coefficients are proven constant along their own axis,
    # so the check refuses none of them and the sum stays symmetric PSD
    # on either boundary
    model = _model(name, params)
    for g in (DirichletGrid(model.n, 16, 5.0), Grid(model.n, 16, 5.0)):
        H = tensor_stencil_matrix(model.fields, g, order=2)
        assert symmetry_defect(H) == 0.0
        assert min_ritz(H) > -1e-9


# -- potentials -------------------------------------------------------------

def test_quadratic_potential_values():
    g = DirichletGrid(2, 10, 4.0)
    V = quadratic_potential(g)
    assert np.allclose(V.values, (g.mesh() ** 2).sum(axis=1))


def test_bounded_noise_is_bounded_and_seeded():
    g = DirichletGrid(1, 32, 4.0)
    V = bounded_noise_potential(g, amplitude=0.7, seed=5)
    assert np.max(np.abs(V.values)) <= 0.7
    V2 = bounded_noise_potential(g, amplitude=0.7, seed=5)
    assert np.array_equal(V.values, V2.values)


def test_step_potential_levels():
    g = DirichletGrid(1, 32, 4.0)
    V = step_potential(g, amplitude=2.0, base=1.0)
    assert set(np.unique(V.values)) == {1.0, 3.0}
    x = g.points
    assert np.allclose(V.values, 1.0 + 2.0 * (np.floor(x) % 2))


def test_table_potential_roundtrip(tmp_path, rng):
    g = DirichletGrid(1, 16, 4.0)
    vals = rng.normal(size=16)
    path = tmp_path / "v.csv"
    np.savetxt(path, vals, delimiter=",")
    V = table_potential(g, path)
    assert np.allclose(V.values, vals)
    with pytest.raises(ValueError, match="table has"):
        table_potential(DirichletGrid(1, 20, 4.0), path)


def test_potential_rejects_nonfinite():
    with pytest.raises(ValueError):
        Potential(np.array([1.0, np.nan]), "bad")


# -- potential class gates --------------------------------------------------

def far_grid():
    return DirichletGrid(1, 201, 12.0)


def test_validate_p2_accepts_quadratic():
    g = far_grid()
    rep = validate_p2(quadratic_potential(g), g.mesh())
    assert rep.passed and rep.v1_ok and rep.v2_ok
    assert rep.v1_growth <= 1.5
    assert rep.witnesses == []


def test_validate_p2_rejects_quartic_growth():
    g = far_grid()
    vals = g.points**4
    rep = validate_p2(vals, g.mesh())
    assert not rep.passed and not rep.v1_ok
    assert rep.v1_growth > 1.5
    assert rep.witnesses[0][0] == "V1"


def test_validate_p2_rejects_unbounded_below():
    g = far_grid()
    vals = -2.0 * g.points**2
    rep = validate_p2(vals, g.mesh())
    assert rep.v1_ok and not rep.v2_ok
    assert rep.witnesses[0][0] == "V2"


def test_validate_p2_needs_far_sample():
    g = DirichletGrid(1, 32, 4.0)
    with pytest.raises(ValueError, match="reach"):
        validate_p2(quadratic_potential(g), g.mesh())


def test_hamiltonian_with_potential_gates():
    g = DirichletGrid(1, 64, 12.0)
    kin = get_operator("harmonic", g)
    V = bounded_noise_potential(g, amplitude=0.5, seed=1)
    H = hamiltonian_with_potential(kin, V)
    assert np.allclose(H.data, kin.data + np.diag(V.values))
    # growth-gate failure is scale invariant; the small amplitude keeps
    # the conditioning guard out of the way for the override branch
    bad = Potential(0.01 * g.points**4, "quartic")
    with pytest.raises(P2ValidationError):
        hamiltonian_with_potential(kin, bad)
    # override skips the class gates but keeps the conditioning guard
    H2 = hamiltonian_with_potential(kin, bad, override=True)
    assert "quartic" in H2.provenance


def test_conditioning_limit():
    g = DirichletGrid(1, 8, 12.0)
    kin = tensor_stencil_matrix([(0, None)], g, order=2)
    huge = Potential(np.full(8, 100.0), "flat")
    with pytest.raises(ValueError, match="conditioning"):
        hamiltonian_with_potential(kin, huge, override=True)


# -- powers -----------------------------------------------------------------

def test_fractional_power_identity_and_roots():
    g = DirichletGrid(1, 24, 5.0)
    H = get_operator("harmonic", g)
    spec = Spectrum(H)
    assert np.max(np.abs(spec.power(1.0) - H.data)) < 1e-9
    R = spec.power(0.5)
    assert np.max(np.abs(R @ R - H.data)) < 1e-8
    Inv = spec.power(-1.0)
    assert np.max(np.abs(Inv @ H.data - np.eye(24))) < 1e-10


def test_fractional_power_requires_positive_shifted_spectrum():
    g = DirichletGrid(1, 16, 4.0)
    H = get_operator("harmonic", g)
    with pytest.raises(SolverError, match="shift too small"):
        Spectrum(H).power(0.5, shift=-1e6)
