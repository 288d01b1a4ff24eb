"""Name registries and deterministic artifact writing."""
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylab._output import (
    canonical_json,
    fmt_cell,
    write_csv_atomic,
    write_json_atomic,
)
from weylab.builders import (
    OPERATOR,
    POTENTIAL,
    ConfigError,
    UnknownBuilderError,
    describe_builders,
    get_a2,
    get_kinetic,
    get_operator,
    get_potential,
    get_weight,
    symbol_names,
    weight_names,
)
from weylab.hamiltonians import DirichletGrid, second_derivative
from weylab.metric import WeightEvaluator
from weylab.profiles import CutoffProfileSquared
from weylab.quantize import Grid


def test_registry_names():
    assert symbol_names() == ["daho", "grushin_pure", "harmonic"]
    assert weight_names() == ["broken_half_bracket", "daho", "grushin_pure",
                              "harmonic"]
    assert "sum_of_squares" in sorted(OPERATOR.variants)
    assert sorted(POTENTIAL.variants) == ["bounded_noise", "quadratic", "step", "table"]


def test_get_dispatch():
    a2 = get_a2("daho", {"c_prime": 2.5})
    assert a2.n == 2
    w = get_weight("harmonic", {"n": 1})
    assert isinstance(w, WeightEvaluator) and w.n == 1
    g = DirichletGrid(2, 12, 4.0)
    H = get_operator("grushin_pure", g, {"order": 2})
    assert np.allclose(H.data, get_operator("grushin_pure", g, {"order": 2}).data)
    V = get_potential("quadratic", g)
    assert V.values.shape == (144,)


def test_unknown_builder_lists_alternatives():
    with pytest.raises(UnknownBuilderError, match="available:.*harmonic"):
        get_weight("lorentz")


def test_a_model_of_fixed_dimension_refuses_n():
    # a key outside the params a builder declares is refused, not ignored
    with pytest.raises(ConfigError) as err:
        get_weight("daho", {"n": 2})
    assert str(err.value) == "unknown key 'n' in params"


def test_sum_of_squares_coefficient_whitelist():
    g = DirichletGrid(2, 12, 4.0)
    H = get_operator("sum_of_squares", g, {"fields": [[0, "1"], [1, "x1"]]})
    assert np.array_equal(H.data, get_operator("grushin_pure", g, {"order": 2}).data)
    with pytest.raises(ConfigError) as err:
        get_operator("sum_of_squares", g, {"fields": [[0, "x2"]]})
    assert str(err.value) == 'params.fields[0][1] must be "1" or "x1", got "x2"'


# (coefficient on the x2 axis, |x|^2 added) of each model, by hand
MODEL_FORMULAS = {
    "harmonic": (lambda p: np.ones_like(p), True),
    "daho": (lambda p: CutoffProfileSquared(3.0)(p), True),
    "grushin_pure": (lambda p: p**2, False),
    "single_field": (None, False),
}


@pytest.mark.parametrize("grid", [DirichletGrid(1, 16, 6.0), DirichletGrid(2, 16, 6.0),
                                  DirichletGrid(2, 33, 6.0), Grid(1, 16, 4.0),
                                  Grid(2, 16, 4.0)],
                         ids=["DirichletGrid(n=1, N=16, L=6.0)", "DirichletGrid(n=2, N=16, L=6.0)",
                              "DirichletGrid(n=2, N=33, L=6.0)", "Grid(n=1, N=16, L=4.0)",
                              "Grid(n=2, N=16, L=4.0)"])
@pytest.mark.parametrize("order", [2, 6])
@pytest.mark.parametrize("name", sorted(MODEL_FORMULAS))
def test_model_operator_matches_explicit_kronecker_sum(name, order, grid):
    # the table's one assembly, entry for entry against np.kron; Dirichlet
    # or periodic stencils by the grid's boundary, N=33 puts a node on x1 = 0
    coeff, confined = MODEL_FORMULAS[name]
    if grid.n == 1 and name != "harmonic":
        with pytest.raises(ValueError, match="dimension"):
            get_operator(name, grid)
        return
    D2 = second_derivative(grid.N, grid.h, order, grid.boundary)
    p = grid.points
    if grid.n == 1:
        want, V = D2, p * p
    else:
        want = np.kron(D2, np.eye(grid.N))
        if coeff is not None:
            want = want + np.kron(np.diag(coeff(p)), D2)
        X1, X2 = np.meshgrid(p, p, indexing="ij")
        V = (X1 * X1 + X2 * X2).ravel()
    if confined:
        want = want + np.diag(V)
    H = get_operator(name, grid, {"order": order})
    assert np.array_equal(H.data, want)
    assert H.sparse.has_sorted_indices  # the entry order the solvers sum in


def test_every_name_accepted_before_the_table_still_resolves():
    g1, g2, per = DirichletGrid(1, 12, 4.0), DirichletGrid(2, 12, 4.0), Grid(2, 16, 4.0)
    for name in ("daho", "grushin_pure", "harmonic"):
        assert get_a2(name).n == 2
        assert get_weight(name).name == name
    assert get_a2("harmonic", {"n": 1}).n == 1
    assert get_weight("broken_half_bracket").name == "half-bracket"
    for name in ("daho", "grushin_pure", "harmonic", "single_field", "sum_of_squares"):
        assert get_operator(name, g2).data.shape == (144, 144)
    assert get_operator("harmonic", g1).provenance == "harmonic"
    assert get_operator("daho", g2, {"c_prime": 2.5}).provenance == "daho(c_prime=2.5)"
    # subellipticity operators: "laplacian" is the harmonic model's kinetic part
    for name in ("daho", "harmonic"):
        with pytest.raises(UnknownBuilderError,
                           match="available: grushin_pure, laplacian, single_field"):
            get_kinetic(name, per)
    D2 = second_derivative(16, per.h, 6, "periodic")
    I = np.eye(16)
    assert np.array_equal(get_kinetic("laplacian", per).data,
                          np.kron(D2, I) + np.kron(I, D2))
    for name in ("grushin_pure", "single_field"):
        assert np.array_equal(get_kinetic(name, per).data, get_operator(name, per).data)


def test_bounded_noise_requires_seed():
    g = DirichletGrid(1, 12, 4.0)
    with pytest.raises(KeyError):
        get_potential("bounded_noise", g, {"amplitude": 1.0})


def test_describe_builders_mentions_everything():
    text = describe_builders()
    for name in (symbol_names() + weight_names() + sorted(OPERATOR.variants)
                 + sorted(POTENTIAL.variants)):
        assert name in text
    assert "fails the uncertainty gate by design" in text


# -- cell formatting --------------------------------------------------------

def test_fmt_cell_cases():
    assert fmt_cell(None) == ""
    assert fmt_cell(True) == "true" and fmt_cell(False) == "false"
    assert fmt_cell(3) == "3"
    assert fmt_cell(np.int64(7)) == "7"
    assert fmt_cell("text") == "text"
    assert fmt_cell(0.1) == "0.10000000000000001"
    # numpy scalars print as the Python numbers they equal
    cases = [(np.float64(0.1), "0.10000000000000001"), (np.float64(-2.5e-300), "-2.5e-300"),
             (np.int64(-7), "-7"), (np.int64(2**62), "4611686018427387904"),
             (np.float32(0.1), "0.10000000149011612"), (np.bool_(True), "True"),
             (1.0, "1"), (float("inf"), "inf"), (-0.0, "-0")]
    assert [fmt_cell(c) for c, _ in cases] == [text for _, text in cases]


@settings(max_examples=120, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_cell_floats_roundtrip(x):
    assert float(fmt_cell(x)) == x


@settings(max_examples=60, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_fmt_cell_numpy_floats_roundtrip(x):
    v = np.float64(x)
    assert float(fmt_cell(v)) == v


# -- atomic writers ---------------------------------------------------------

def test_write_csv_atomic_digest_and_linefeeds(tmp_path):
    path = tmp_path / "data.csv"
    digest = write_csv_atomic(path, ["a", "b"], [(1, 0.5), (None, True)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines() == ["a,b", "1,0.5", ",true"]
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


def test_write_csv_atomic_is_deterministic(tmp_path):
    rows = [(i, i * 0.3) for i in range(20)]
    d1 = write_csv_atomic(tmp_path / "a.csv", ["i", "v"], rows)
    d2 = write_csv_atomic(tmp_path / "b.csv", ["i", "v"], rows)
    assert d1 == d2


def test_canonical_json_sorts_keys(tmp_path):
    s = canonical_json({"z": 1, "a": [1, 2], "m": {"b": 2, "a": 1}})
    assert s.index('"a"') < s.index('"m"') < s.index('"z"')
    digest = write_json_atomic(tmp_path / "r.json", {"z": 1, "a": 2})
    digest2 = write_json_atomic(tmp_path / "r2.json", {"a": 2, "z": 1})
    assert digest == digest2
