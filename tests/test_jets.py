import numpy as np
import pytest
import sympy as sp

from _helpers import exp_sqrt_bracket_x, uni_table
from weylab._jets import JPowerSum, JProd, JSum, JUni, UnsupportedOrderError
from weylab.builders import get_weight
from weylab.profiles import power_table
from weylab.symbols import MAX_DERIV_ORDER, SymbolEvaluator, band_restrict


def bracket_u(Z):
    return 1.0 + np.sum(np.asarray(Z) ** 2, axis=-1)


def test_powersum_monomial_and_constant():
    Z = np.array([[0.5, -2.0], [1.0, 3.0]])
    mono = JPowerSum.monomial(2, (2, 1), c=3.0)
    assert np.allclose(mono.eval(Z), 3.0 * Z[:, 0] ** 2 * Z[:, 1])
    const = JPowerSum.constant(2, -1.5)
    assert np.allclose(const.eval(Z), np.full(2, -1.5))


def test_powersum_type_follows_its_coefficients():
    # a sum starts from its first term: real coefficients give real
    # values, and a complex one anywhere, a unit one too, a complex value
    P = (np.array([0.5, -2.0]), np.array([3.0, 0.25]))
    assert JPowerSum.monomial(2, (1, 0)).eval(P).dtype == np.float64
    unit = JPowerSum(2, [(1 + 0j, (1, 0), 0.0)]).eval(P)
    assert unit.dtype == np.complex128 and np.array_equal(unit, P[0])
    mixed = JPowerSum(2, [(1.0, (1, 0), 0.0), (2j, (0, 1), 0.0)]).eval(P)
    assert np.array_equal(mixed, P[0] + 2j * P[1])
    assert np.array_equal(JPowerSum(2, []).eval(P), np.zeros(2))


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
    f = JUni(JPowerSum.monomial(2, (0, 1)), tab)
    Z = np.array([[5.0, 0.3], [0.0, -1.2]])
    assert np.allclose(f.eval(Z), np.sin(Z[:, 1]))
    assert np.allclose(f.diff(1).eval(Z), np.cos(Z[:, 1]))
    assert np.allclose(f.diff(1).diff(1).eval(Z), -np.sin(Z[:, 1]))
    assert f.diff(0).is_zero
    # the inner derivative of a coordinate is 1, which multiplies nothing
    assert isinstance(f.diff(1), JUni) and isinstance(f.diff(1).diff(1), JUni)


def test_juni_of_an_expression_against_sympy():
    # exp(sqrt(1 + |x|^2)): a JUni over a JUni over a polynomial, every
    # derivative up to MAX_DERIV_ORDER by the chain rule
    x1, x2 = sp.symbols("x1 x2")
    want = {(0, 0): sp.exp(sp.sqrt(1 + x1**2 + x2**2))}
    for a, b in np.ndindex(MAX_DERIV_ORDER + 1, MAX_DERIV_ORDER + 1):
        if 0 < a + b <= MAX_DERIV_ORDER:
            want[a, b] = sp.diff(want[a - 1, b], x1) if a else sp.diff(want[a, b - 1], x2)
    s = SymbolEvaluator(2, exp_sqrt_bracket_x(2))
    Z = np.random.default_rng(5).uniform(-3.0, 3.0, size=(30, 4))
    Z[0] = 0.0
    vals = dict(zip(want, sp.lambdify((x1, x2), list(want.values()), "numpy")(Z[:, 0], Z[:, 1])))
    for multi in np.ndindex(*(MAX_DERIV_ORDER + 1,) * 4):
        if sum(multi) > MAX_DERIV_ORDER:
            continue
        got = s.derivative(multi[:2], multi[2:], Z)
        if any(multi[2:]):
            assert np.all(got == 0.0)
            continue
        ref = vals[multi[:2]]
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12


def test_product_rule_against_sympy():
    z0, z1 = sp.symbols("z0 z1")
    t = sp.Symbol("t")
    expr = sp.sin(z0) * z1**2 * (1 + z0**2 + z1**2) ** 1.5
    prod = JProd([JUni(JPowerSum.monomial(2, (1, 0)), uni_table(sp.sin(t), t)),
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


def test_a_symbol_is_a_tree():
    with pytest.raises(TypeError, match="a symbol is a JetExpr tree, not function"):
        SymbolEvaluator(1, lambda P: P[0])


def test_symbolic_table_raises_past_depth():
    t = sp.Symbol("t")
    tab = uni_table(sp.exp(-t**2), t, depth=3)
    f = JUni(JPowerSum.monomial(1, (1,)), tab)
    for _ in range(4):
        f = f.diff(0)
    with pytest.raises(UnsupportedOrderError):
        f.eval(np.array([[0.5]]))


# -- structural parity ------------------------------------------------------

def _declared(table, parity):
    table.parity = parity
    return table


def _assert_claims_hold(expr, P):
    """Every axis whose parity expr claims obeys it at the points P:
    f(R_axis P) = parity f(P), R_axis flipping the sign of that coordinate."""
    for axis in range(expr.nvars):
        q = expr.parity(axis)
        if q:
            mirrored = tuple(-p if i == axis else p for i, p in enumerate(P))
            assert np.allclose(expr.eval(mirrored), q * expr.eval(P), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", range(4))
def test_odd_inner_of_an_even_table_has_the_parity_of_its_order(order):
    # cos of g = x1 + x1^3 <X>, odd in x1 and even in xi1: the k-th chain-rule
    # tree is a sum of cos^(j)(g) times products of derivatives of g, each
    # term odd or even with k, and JUni of order k alone is (-1)^k
    t = sp.Symbol("t")
    tab = _declared(uni_table(sp.cos(t), t), 1)
    g = JPowerSum(2, [(1.0, (1, 0), 0.0), (1.0, (3, 0), 0.5)])
    assert JUni(g, tab, order).parity(0) == (-1) ** order
    node = JUni(g, tab)
    for _ in range(order):
        node = node.diff(0)
    assert (node.parity(0), node.parity(1)) == ((-1) ** order, 1)
    P = tuple(np.random.default_rng(order).normal(size=(2, 40)))
    _assert_claims_hold(node, P)


def test_odd_times_odd_is_even_and_odd_times_even_is_odd():
    t = sp.Symbol("t")
    x1, xi1 = JPowerSum.monomial(2, (1, 0)), JPowerSum.monomial(2, (0, 1))
    sin_x1 = JUni(x1, _declared(uni_table(sp.sin(t), t), -1))
    assert sin_x1.parity(0) == -1 and sin_x1.diff(0).parity(0) == 1
    assert JProd([x1, sin_x1]).parity(0) == 1
    assert JProd([x1, JPowerSum.bracket_power(2, 1.0)]).parity(0) == -1
    assert JProd([x1, xi1]).parity(0) == -1 and JProd([x1, xi1]).parity(1) == -1
    P = tuple(np.random.default_rng(5).normal(size=(2, 40)))
    for expr in (sin_x1, JProd([x1, sin_x1]), JProd([x1, xi1])):
        _assert_claims_hold(expr, P)


def test_what_is_not_proven_is_zero():
    t = sp.Symbol("t")
    x1 = JPowerSum.monomial(2, (1, 0))
    mixed = JSum([x1, JPowerSum.monomial(2, (2, 0))])
    assert mixed.parity(0) == 0 and mixed.parity(1) == 1
    assert JPowerSum(2, [(1.0, (1, 0), 0.0), (1.0, (0, 0), 0.5)]).parity(0) == 0
    assert JProd([mixed, x1]).parity(0) == 0
    # a table that declares nothing proves nothing of an odd inner tree;
    # of an even one, or of an unknown one, the table does not matter
    assert JUni(x1, uni_table(sp.exp(t), t)).parity(0) == 0
    assert JUni(mixed, _declared(uni_table(sp.cos(t), t), 1)).parity(0) == 0
    assert JUni(JPowerSum.monomial(2, (2, 0)), uni_table(sp.exp(t), t)).parity(0) == 1


@pytest.mark.parametrize("name,params", [("daho", {}), ("harmonic", {"n": 2}),
                                         ("grushin_pure", {})])
def test_table_weights_and_their_jets_keep_their_claims(name, params):
    # every table weight is proven even on every axis, and so are its
    # shell symbol and the band probe's class weight m^p, JUni nodes on
    # its tree; each claim their jets make up to order 2 holds at random
    # points, a third of which lie in the R = 12 shell
    w = get_weight(name, params)
    d = 2 * w.n
    P = tuple(np.random.default_rng(3).uniform(-5.0, 5.0, size=(d, 60)))
    shell = band_restrict(w, -0.8, 12.0)
    M = SymbolEvaluator(w.n, JUni(w.expr, power_table(-0.8)))
    assert np.count_nonzero(shell.eval(P)) >= 20
    assert np.array_equal(M.eval(P), w.m_values(P) ** -0.8)
    for s in (w, shell, M):
        assert [s.expr.parity(a) for a in range(d)] == [1] * d
        for multi in np.ndindex(*(3,) * d):
            if sum(multi) <= 2:
                jet = s.jet(multi)
                assert [jet.parity(a) for a in range(d)] == [(-1) ** k for k in multi]
                _assert_claims_hold(jet, P)
