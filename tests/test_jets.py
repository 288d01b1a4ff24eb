import numpy as np
import pytest
import sympy as sp

from _helpers import uni_table
from weylab._jets import (JPowerSum, JProd, JSum, JUni, UnsupportedOrderError,
                          fd_deriv_eval)
from weylab.symbols import SymbolEvaluator


def bracket_u(Z):
    return 1.0 + np.sum(np.asarray(Z) ** 2, axis=-1)


def test_powersum_monomial_and_constant():
    Z = np.array([[0.5, -2.0], [1.0, 3.0]])
    mono = JPowerSum.monomial(2, (2, 1), c=3.0)
    assert np.allclose(mono.eval(Z), 3.0 * Z[:, 0] ** 2 * Z[:, 1])
    const = JPowerSum.constant(2, -1.5)
    assert np.allclose(const.eval(Z), np.full(2, -1.5))


def test_bracket_power_eval_and_derivative():
    Z = np.array([[0.3, 0.7], [2.0, -1.0], [0.0, 0.0]])
    s = 3.0
    b = JPowerSum.bracket_power(2, s)
    assert np.allclose(b.eval(Z), bracket_u(Z) ** (s / 2.0))
    # d/dz0 u^{3/2} = 3 z0 u^{1/2}
    d = b.diff(0)
    assert np.allclose(d.eval(Z), 3.0 * Z[:, 0] * bracket_u(Z) ** 0.5)


def test_powersum_diff_matches_sympy():
    z0, z1 = sp.symbols("z0 z1")
    u = 1 + z0**2 + z1**2
    expr = 2.0 * z0**2 * z1 * u**1.5 - 0.5 * z1**3 * u**-0.5
    ps = JPowerSum(2, [(2.0, (2, 1), 1.5), (-0.5, (0, 3), -0.5)])
    Z = np.random.default_rng(0).normal(size=(40, 2))
    for axis, var in ((0, z0), (1, z1)):
        want = sp.lambdify((z0, z1), sp.diff(expr, var), "numpy")(Z[:, 0], Z[:, 1])
        got = ps.diff(axis).eval(Z)
        assert np.allclose(got, want, rtol=1e-12)


def test_juni_chain_and_off_axis():
    t = sp.Symbol("t")
    tab = uni_table(sp.sin(t), t)
    f = JUni(2, 1, tab)
    Z = np.array([[5.0, 0.3], [0.0, -1.2]])
    assert np.allclose(f.eval(Z), np.sin(Z[:, 1]))
    assert np.allclose(f.diff(1).eval(Z), np.cos(Z[:, 1]))
    assert np.allclose(f.diff(1).diff(1).eval(Z), -np.sin(Z[:, 1]))
    assert f.diff(0).is_zero


def test_product_rule_against_sympy():
    z0, z1 = sp.symbols("z0 z1")
    t = sp.Symbol("t")
    expr = sp.sin(z0) * z1**2 * (1 + z0**2 + z1**2) ** 1.5
    prod = JProd([JUni(2, 0, uni_table(sp.sin(t), t)),
                  JPowerSum.monomial(2, (0, 2)),
                  JPowerSum.bracket_power(2, 3.0)])
    Z = np.random.default_rng(1).normal(size=(30, 2))
    for order in ((1, 0), (0, 1), (1, 1), (2, 0)):
        want_expr = sp.diff(expr, z0, order[0], z1, order[1])
        want = sp.lambdify((z0, z1), want_expr, "numpy")(Z[:, 0], Z[:, 1])
        node = prod
        for axis, k in enumerate(order):
            for _ in range(k):
                node = node.diff(axis)
        assert np.allclose(node.eval(Z), want, rtol=1e-10)


def test_evaluator_mixed_partials_and_memoization():
    z0, z1 = sp.symbols("z0 z1")
    expr = z0**3 * z1 * (1 + z0**2 + z1**2) ** -0.5
    root = JProd([JPowerSum.monomial(2, (3, 1)),
                  JPowerSum.bracket_power(2, -1.0)])
    s = SymbolEvaluator(1, root)
    assert s.jet((1, 1)) is s.jet((1, 1))  # cache hit
    with pytest.raises(ValueError):
        s.jet((1,))
    Z = np.random.default_rng(2).normal(size=(25, 2))
    want = sp.lambdify((z0, z1), sp.diff(expr, z0, 2, z1, 1), "numpy")(
        Z[:, 0], Z[:, 1])
    assert np.allclose(s.derivative((2,), (1,), Z), want, rtol=1e-10)


def test_jsum_of_scaled_term():
    a = JPowerSum.monomial(2, (1, 0))
    b = JPowerSum.constant(2, 2.0)
    s = JSum([JProd([JPowerSum.constant(2, 3.0), a]), b])
    Z = np.array([[1.0, 0.0], [-2.0, 1.0]])
    assert np.allclose(s.eval(Z), 3.0 * Z[:, 0] + 2.0)
    assert np.allclose(s.diff(0).eval(Z), np.full(2, 3.0))


def test_fd_deriv_eval_accuracy():
    def gauss(P):
        return np.exp(-0.5 * (P[0] ** 2 + P[1] ** 2))

    Z = np.random.default_rng(3).normal(size=(20, 2))
    exact = -Z[:, 0] * gauss(tuple(Z.T))
    got = fd_deriv_eval(gauss, (1, 0), Z)
    assert np.allclose(got, exact, rtol=1e-7, atol=1e-9)
    exact2 = (Z[:, 0] ** 2 - 1.0) * gauss(tuple(Z.T))
    got2 = fd_deriv_eval(gauss, (2, 0), Z)
    assert np.allclose(got2, exact2, rtol=1e-5, atol=1e-7)
    mixed = Z[:, 0] * Z[:, 1] * gauss(tuple(Z.T))
    gotm = fd_deriv_eval(gauss, (1, 1), Z)
    assert np.allclose(gotm, mixed, rtol=1e-4, atol=1e-6)


def test_fd_keeps_a_small_imaginary_part():
    # the stencil values are complex, so the jet stays complex however
    # small its imaginary part; a real symbol's jet stays real
    Z = np.array([[0.5, 2.0]])
    got = SymbolEvaluator(1, lambda P: P[0] + 1e-10j * P[1]).derivative((0,), (1,), Z)
    assert np.iscomplexobj(got)
    assert got[0].imag == pytest.approx(1e-10, rel=1e-6)
    assert abs(got[0].real) < 1e-12
    assert np.isrealobj(SymbolEvaluator(1, lambda P: P[0] * P[1]).derivative((0,), (1,), Z))


def test_fd_deriv_scales_step_with_magnitude():
    # relative stepping keeps large-coordinate evaluation conditioned
    def quad(P):
        return P[0] ** 2

    Z = np.array([[1e6, 0.0]])
    got = fd_deriv_eval(quad, (1, 0), Z)
    assert got[0] == pytest.approx(2e6, rel=1e-9)


def test_symbolic_table_raises_past_depth():
    t = sp.Symbol("t")
    tab = uni_table(sp.exp(-t**2), t, depth=3)
    f = JUni(1, 0, tab)
    for _ in range(4):
        f = f.diff(0)
    with pytest.raises(UnsupportedOrderError):
        f.eval(np.array([[0.5]]))
