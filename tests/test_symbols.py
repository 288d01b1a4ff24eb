import numpy as np
import pytest
import sympy as sp

from _helpers import Unproven, exp_sqrt_bracket_x, poly
from weylab import profiles, symbols
from weylab._jets import JPowerSum, JSum, UnsupportedOrderError
from weylab.builders import (WEIGHT, Model, _model, _MODELS, get_a2, get_weight,
                             symbol_names, weight_names)
from weylab.metric import WeightEvaluator
from weylab.symbols import (MAX_DERIV_ORDER, SymbolEvaluator, band_restrict, box_sample,
                            class_membership, smg_seminorm, with_confinement)

X1, X2, XI1, XI2 = sp.symbols("x1 x2 xi1 xi2")
C = sp.Function("c")   # the daho coefficient, the squared plateau profile of x1
# the principal symbols of the two-dimensional models, in closed form
A2 = {"daho": XI1**2 + C(X1) * XI2**2, "grushin_pure": XI1**2 + X1**2 * XI2**2,
      "harmonic": XI1**2 + XI2**2}


def closed_form(expr, Z, profile):
    """expr, in X1, X2, XI1, XI2 and c(X1), at the rows Z; c and its
    x1-derivatives are read from the profile's derivative table."""
    cs = sp.symbols(f"c0:{MAX_DERIV_ORDER + 1}")
    expr = expr.xreplace({sp.diff(C(X1), X1, k): cs[k] for k in range(MAX_DERIV_ORDER + 1)})
    table = [profile(Z[:, 0])] + [profile.derivative(Z[:, 0], k)
                                  for k in range(1, MAX_DERIV_ORDER + 1)]
    return sp.lambdify((X1, X2, XI1, XI2, *cs), expr, "numpy")(*Z.T, *table) * np.ones(len(Z))


def rand_phase(rng, count=40, scale=3.0, n=2):
    return rng.uniform(-scale, scale, size=(count, 2 * n))


def test_daho_symbol_values(profile, rng):
    a2 = get_a2("daho")
    Z = rand_phase(rng, scale=6.0)
    want = Z[:, 2] ** 2 + profile(Z[:, 0]) * Z[:, 3] ** 2
    assert np.allclose(np.asarray(a2.eval(Z)).real, want, rtol=1e-14)


def test_builtin_quadratic_symbols(rng):
    Z = rand_phase(rng)
    got = np.asarray(get_a2("grushin_pure").eval(Z)).real
    assert np.allclose(got, Z[:, 2] ** 2 + Z[:, 0] ** 2 * Z[:, 3] ** 2)
    got = np.asarray(get_a2("harmonic", {"n": 2}).eval(Z)).real
    assert np.allclose(got, Z[:, 2] ** 2 + Z[:, 3] ** 2)
    a2 = get_a2("grushin_pure")
    got = np.asarray(with_confinement(a2).eval(Z) - a2.eval(Z)).real
    assert np.allclose(got, Z[:, 0] ** 2 + Z[:, 1] ** 2)


def test_with_confinement_adds_x_square(rng):
    a = with_confinement(get_a2("harmonic", {"n": 2}))
    Z = rand_phase(rng)
    want = (Z**2).sum(axis=1)
    assert np.allclose(np.asarray(a.eval(Z)).real, want)


def test_confined_symbol_derivatives_match_sympy(rng):
    a = with_confinement(get_a2("grushin_pure"))
    expr = XI1**2 + X1**2 * XI2**2 + X1**2 + X2**2
    Z = rand_phase(rng, count=25)
    for beta, alpha in (((1, 0), (0, 0)), ((0, 0), (2, 0)), ((1, 0), (0, 1)),
                        ((2, 0), (0, 2)), ((0, 1), (0, 0)), ((1, 1), (1, 1))):
        want_expr = sp.diff(expr, X1, beta[0], X2, beta[1],
                            XI1, alpha[0], XI2, alpha[1])
        want = sp.lambdify((X1, X2, XI1, XI2), want_expr, "numpy")(
            Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3]) * np.ones(len(Z))
        got = np.asarray(a.derivative(beta, alpha, Z))
        assert np.allclose(got.real, want, rtol=1e-12, atol=1e-12)
        assert np.allclose(got.imag, 0.0, atol=1e-12)


def test_evaluator_exact_jets_match_closed_forms(profile, rng):
    # the contract that makes the exact path trustworthy
    s = with_confinement(get_a2("daho"))
    expr = A2["daho"] + X1**2 + X2**2
    Z = rand_phase(rng, count=100, scale=5.0)
    for beta, alpha in (((1, 0), (0, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1)),
                        ((2, 0), (0, 0))):
        exact = np.asarray(s.derivative(beta, alpha, Z)).real
        want = closed_form(sp.diff(expr, X1, beta[0], X2, beta[1], XI1, alpha[0],
                                   XI2, alpha[1]), Z, profile)
        denom = np.maximum(np.abs(exact), 1.0)
        assert np.max(np.abs(exact - want) / denom) < 1e-12


# -- coordinate tuples against rows ------------------------------------------


def _at(name, n):
    """The params of the builder name in n dimensions: {"n": n} where it
    declares n, else none (the daho and Grushin models are two-dimensional only)."""
    return {"n": n} if "n" in WEIGHT.variants[name]["params"][0] else {}


def _dims(get, names):
    """(name, n) for every dimension a builder takes."""
    return [(name, n) for name in names for n in (1, 2) if get(name, _at(name, n)).n == n]


X1S = [0.3, 2.5, -3.1, 5.0]  # plateau, both sides of the bridge 2 < |x1| < 4, far field


def _block(n, x1):
    """Coordinates as the quantizer and the quadrature pass them, x1 one
    value and every other axis its own array, and the same points as the
    flattened rows Z."""
    axes = [np.linspace(-6.0, 6.0, 7), np.linspace(-5.0, 5.0, 6),
            np.linspace(-4.0, 4.0, 5)][:2 * n - 1]
    P = (x1, *np.meshgrid(*axes, indexing="ij", sparse=True))
    shape = np.broadcast_shapes(*(np.shape(p) for p in P))
    Z = np.stack([np.broadcast_to(p, shape).ravel() for p in P], axis=-1)
    return P, Z, shape


@pytest.mark.parametrize("x1", X1S)
@pytest.mark.parametrize("name,n", _dims(get_weight, weight_names()))
def test_weight_on_coordinates_equals_rows(name, n, x1):
    w = get_weight(name, _at(name, n))
    P, Z, shape = _block(n, x1)
    got = w.m_values(P)
    assert got.shape == shape
    assert np.array_equal(got.ravel(), w.m_values(Z))


@pytest.mark.parametrize("x1", X1S)
@pytest.mark.parametrize("name,n", _dims(get_a2, symbol_names()))
def test_symbol_on_coordinates_equals_rows(name, n, x1):
    a2 = get_a2(name, _at(name, n))
    P, Z, shape = _block(n, x1)
    got = np.asarray(a2.eval(P))
    assert got.shape == shape
    assert np.array_equal(got.ravel(), a2.eval(Z))


@pytest.mark.parametrize("x1", X1S)
@pytest.mark.parametrize("name,n", _dims(get_weight, weight_names()))
def test_derivatives_on_coordinates_equal_rows(name, n, x1):
    w = get_weight(name, _at(name, n))
    P, Z, shape = _block(n, x1)
    for m in np.ndindex(*(3,) * 2 * n):
        if 0 < sum(m) <= 2:
            beta, alpha = m[:n], m[n:]
            got = np.asarray(w.derivative(beta, alpha, P))
            assert got.shape == shape
            assert np.array_equal(got.ravel(), w.derivative(beta, alpha, Z))


@pytest.mark.parametrize("name,n", _dims(get_weight, weight_names()))
def test_weight_order_zero_jet_is_its_values(rng, name, n):
    # one tree gives the values and the jets, so they agree bit for bit
    w = get_weight(name, _at(name, n))
    Z = rand_phase(rng, count=20000, scale=8.0, n=n)
    zero = (0,) * n
    assert np.array_equal(w.derivative(zero, zero, Z), w.m_values(Z))


def test_weights_and_symbols_differentiate_through_their_tree(rng):
    syms = [get_weight(name, _at(name, n)) for name, n in _dims(get_weight, weight_names())]
    syms += [f(get_a2(name, _at(name, n))) for name, n in _dims(get_a2, symbol_names())
             for f in (lambda a2: a2, with_confinement)]
    for s in syms:
        Z = rand_phase(rng, count=10, n=s.n)
        for m in np.ndindex(*(3,) * 2 * s.n):
            if sum(m) <= MAX_DERIV_ORDER:
                assert np.all(np.isfinite(s.derivative(m[:s.n], m[s.n:], Z)))


def test_evaluator_order_gate():
    s = with_confinement(get_a2("daho"))
    assert MAX_DERIV_ORDER == 4
    with pytest.raises(UnsupportedOrderError):
        s.derivative((3, 0), (0, 2), np.zeros((1, 4)))


def test_evaluator_checks_its_coordinates_and_multi_indices():
    s = get_a2("daho")
    with pytest.raises(ValueError, match="3 coordinates given, the phase space has 4"):
        s.eval(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="multi-index length must equal the dimension"):
        s.derivative((1,), (0, 0), np.zeros((2, 4)))


def test_profile_jets_stop_past_their_table():
    # daho's coefficient is the squared cutoff profile of x1, tabulated to
    # order 6: the x1-jet of order 7 builds, and its evaluation refuses
    jet = get_a2("daho").jet((7, 0, 0, 0))
    with pytest.raises(UnsupportedOrderError, match="profile jets stop at order 6"):
        jet.eval(np.zeros((4, 3)))


def test_with_confinement_adds_x_square_after_a2(rng):
    a = get_a2("harmonic", {"n": 2})
    Z = rand_phase(rng, count=10)
    want = np.asarray(a.eval(Z)) + (Z[:, 0] ** 2 + Z[:, 1] ** 2)
    assert np.array_equal(np.asarray(with_confinement(a).eval(Z)), want)


def test_complex_coefficient_keeps_a_small_imaginary_part():
    # x xi + i 1e-9/(2 pi): the coefficients are complex, so the value
    # stays complex however small its imaginary part
    sym = poly(1, {(1,): JPowerSum.monomial(2, (1, 0)),
                   (0,): JPowerSum.constant(2, 1j * 1e-9 / (2 * np.pi))})
    got = sym.eval(np.array([[0.5, 2.0]]))[0]
    assert got.real == 1.0
    assert got.imag == pytest.approx(1e-9 / (2 * np.pi), rel=1e-12)


# -- row blocks --------------------------------------------------------------

BLOCK = 64  # ROW_BLOCK in the blocked runs; a batch of 2 * BLOCK + 17 rows


def _one_shot_and_blocked(monkeypatch, fn):
    """fn() with every row of a batch in one run, then with ROW_BLOCK =
    BLOCK and the profile's BRIDGE_BLOCK at 16."""
    monkeypatch.setattr(symbols, "ROW_BLOCK", 10**9)
    whole = fn()
    monkeypatch.setattr(symbols, "ROW_BLOCK", BLOCK)
    monkeypatch.setattr(profiles, "BRIDGE_BLOCK", 16)
    return whole, fn()


def _rows_with_bridge(n, seed=11):
    Z = np.random.default_rng(seed).uniform(-5.0, 5.0, (2 * BLOCK + 17, 2 * n))
    on_bridge = (np.abs(Z[:, 0]) > 2.0) & (np.abs(Z[:, 0]) < 4.0)
    assert all(on_bridge[lo:lo + 48].any() for lo in (0, 48, 96))
    return Z


def _all_multis(n, top=MAX_DERIV_ORDER):
    return [m for m in np.ndindex(*(top + 1,) * 2 * n) if sum(m) <= top]


def _assert_same(whole, blocked):
    whole, blocked = np.asarray(whole), np.asarray(blocked)
    assert blocked.shape == whole.shape and blocked.dtype == whole.dtype
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("name,n", _dims(get_weight, weight_names())
                         + [("a2:daho", 2), ("a2:grushin_pure", 2)])
def test_row_blocks_give_the_one_shot_jets(monkeypatch, name, n):
    s = get_a2(name[3:]) if name.startswith("a2:") else get_weight(name, _at(name, n))
    Z = _rows_with_bridge(n)
    multis = _all_multis(n)

    def values():
        return [s.eval(Z)] + [s.derivative(m[:n], m[n:], Z) for m in multis]

    for whole, blocked in zip(*_one_shot_and_blocked(monkeypatch, values)):
        _assert_same(whole, blocked)


# -- the model trees ---------------------------------------------------------


def test_fields_on_one_axis_add_in_the_symbol():
    # the symbol keeps every field the operator keeps: two fields d/dx1
    # give 2 xi1^2, as the stencil assembly sums both
    fields = ((0, None), (0, None), (1, JPowerSum.monomial(4, (2, 0, 0, 0))))
    Z = np.array([[0.5, 0.3, 2.0, 1.0], [1.5, -2.0, 0.7, 3.0]])
    got = Model("dup", 2, fields, False).a2().eval(Z)
    parts = [Model("one", 2, (f,), False).a2().eval(Z) for f in fields]
    assert np.array_equal(got, (parts[0] + parts[1]) + parts[2])
    assert got[0] == 8.25


def _flat_a(name):
    """a = a2 + |x|^2 of the model name as a flat tree: a dict of
    coefficients keyed by the xi exponent, a field's c on xi_axis^2 and
    |x|^2 on xi^0, one term per entry in that order."""
    model = _model(name)
    n, nv = model.n, 2 * model.n
    mono = {tuple(2 * (j == axis) for j in range(n)):
            JPowerSum.constant(nv, 1.0) if c is None else c for axis, c in model.fields}
    mono[(0,) * n] = JPowerSum(nv, [(1.0, tuple(2 * (i == j) for i in range(nv)), 0.0)
                                    for j in range(n)])
    return poly(n, mono).expr


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_a_and_m_are_the_flat_trees_bit_for_bit(name):
    # with_confinement nests a2's sum in one more; it adds in the flat
    # tree's order, so every value, jet and parity is the flat tree's
    flat = _flat_a(name)
    n = flat.nvars // 2
    Z = _rows_with_bridge(n)
    for s, tree in ((with_confinement(get_a2(name)), flat),
                    (get_weight(name), JSum([flat, JPowerSum.bracket_power(2 * n, 1)]))):
        want = SymbolEvaluator(n, tree)
        for m in _all_multis(n):
            got, ref = s.jet(m), want.jet(m)
            assert [got.parity(a) for a in range(2 * n)] == [ref.parity(a) for a in range(2 * n)]
            _assert_same(ref.eval(Z), got.eval(Z))


def test_row_blocks_keep_the_shape_of_a_constant(monkeypatch):
    one = SymbolEvaluator(2, JPowerSum.constant(4, 1.0))
    Z = _rows_with_bridge(2)
    whole, blocked = _one_shot_and_blocked(
        monkeypatch, lambda: [one.eval(Z), one.derivative((1, 0), (0, 0), Z)])
    for w, b, c in zip(whole, blocked, (1.0, 0.0)):
        _assert_same(w, b)
        assert b.shape == (Z.shape[0],) and np.all(b == c)


def test_row_blocks_on_coordinates(monkeypatch):
    # a coordinate passed as one value is not cut; other shapes are not blocked
    w = get_weight("daho")
    Z = _rows_with_bridge(2)
    P = (Z[:, 0], 0.5, Z[:, 2], Z[:, 3])
    whole, blocked = _one_shot_and_blocked(
        monkeypatch, lambda: [w.eval(P), w.derivative((1, 1), (0, 1), P)])
    for pair in zip(whole, blocked):
        _assert_same(*pair)
    seen = []
    s = SymbolEvaluator(2, Unproven(w.expr, seen))
    grid = (Z[:, :1], 0.5, Z[None, :3, 2], 1.0)
    _assert_same(w.eval(grid), s.eval(grid))
    assert seen == [(Z.shape[0], 3)]


# -- seminorms and membership ------------------------------------------------


def test_box_sample_structure():
    s = box_sample(2, 10.0, n_random=100, seed=1)
    assert s.shape[1] == 4
    assert np.max(np.abs(s)) <= 10.0
    assert np.any(np.all(s == 0.0, axis=1))  # origin present
    again = box_sample(2, 10.0, n_random=100, seed=1)
    assert np.array_equal(s, again)


def test_seminorm_constant_symbol():
    s = SymbolEvaluator(2, JPowerSum.constant(4, 1.0), name="one")
    w = WeightEvaluator.from_a2(get_a2("daho"))
    sample = box_sample(2, 5.0, n_random=50)
    one = WeightEvaluator(2, JPowerSum.constant(4, 1.0), name="one")
    est0 = smg_seminorm(s, one, w, 0, sample)
    assert est0.value == pytest.approx(1.0, abs=1e-12)
    est2 = smg_seminorm(s, one, w, 2, sample)
    assert est2.value == pytest.approx(1.0, abs=1e-6)  # derivatives vanish


def test_seminorm_evaluates_only_nonzero_jets_and_keeps_the_order_gate(monkeypatch):
    # the harmonic a = |xi|^2 + |x|^2 has 8 nonzero jets of orders 1-2
    # among the 65 of orders 1-4; a zero one is never evaluated, and past
    # MAX_DERIV_ORDER, where every jet of a is zero, the gate still raises
    s = with_confinement(get_a2("harmonic", {"n": 2}))
    w = WeightEvaluator.from_a2(get_a2("harmonic", {"n": 2}))
    sample = box_sample(2, 5.0, n_random=50)
    asked = []
    derivative = s.derivative
    monkeypatch.setattr(s, "derivative", lambda b, a, Z: asked.append(b + a) or derivative(b, a, Z))
    est = smg_seminorm(s, w, w, 4, sample)
    assert len(asked) == 1 + 8 and not any(s.jet(m).is_zero for m in asked)
    assert est.value == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(UnsupportedOrderError):
        smg_seminorm(s, w, w, MAX_DERIV_ORDER + 1, sample)


def test_seminorm_monotone_under_refinement():
    s = with_confinement(get_a2("daho"))
    w = WeightEvaluator.from_a2(get_a2("daho"))
    sample = box_sample(2, 10.0, n_random=200, seed=2)
    small = smg_seminorm(s, w, w, 2, sample[: len(sample) // 2]).value
    full = smg_seminorm(s, w, w, 2, sample).value
    assert small <= full + 1e-12


def test_bracket_weight_is_self_class(rng):
    s = WeightEvaluator(2, JPowerSum.bracket_power(4, 1.0), name="bracket")
    w = WeightEvaluator.from_a2(get_a2("daho"))
    # the sup saturates slowly along the anisotropic directions; a 15% gate
    # still separates this cleanly from the unbounded negative control below
    rep = class_membership(s, s, w, 2, [10.0, 20.0], growth_factor=1.15,
                           n_random=300, seed=4)
    assert rep.passed
    assert rep.growth[0] < 1.15


def test_membership_requires_two_boxes():
    s = with_confinement(get_a2("daho"))
    w = WeightEvaluator.from_a2(get_a2("daho"))
    with pytest.raises(ValueError):
        class_membership(s, w, w, 2, [10.0])


def test_membership_negative_control_blows_up():
    # exp<x> rather than exp|x|, which has no derivative at x = 0, a point
    # of every box sample
    w = WeightEvaluator.from_a2(get_a2("daho"))
    neg = SymbolEvaluator(2, exp_sqrt_bracket_x(2), name="exp<x>")
    rep = class_membership(neg, w, w, 2, [10.0, 20.0], n_random=200, seed=4)
    assert not rep.passed
    assert rep.growth[0] > 100.0


@pytest.mark.parametrize("name", symbol_names())
def test_weight_jet_matches_weight_values(profile, rng, name):
    w = get_weight(name)
    assert isinstance(w, SymbolEvaluator)
    Z = rand_phase(rng, count=60, scale=8.0)
    exact0 = np.asarray(w.derivative((0, 0), (0, 0), Z)).real
    assert np.allclose(exact0, w.m_values(Z), rtol=1e-13)
    # its exact derivatives are those of the weight's closed form
    m = A2[name] + X1**2 + X2**2 + sp.sqrt(1 + X1**2 + X2**2 + XI1**2 + XI2**2)
    for beta, alpha in (((1, 0), (0, 0)), ((0, 1), (0, 1))):
        exact = np.asarray(w.derivative(beta, alpha, Z)).real
        want = closed_form(sp.diff(m, X1, beta[0], X2, beta[1], XI1, alpha[0], XI2, alpha[1]),
                           Z, profile)
        assert np.max(np.abs(exact - want) / np.maximum(np.abs(exact), 1.0)) < 1e-12


def test_band_restrict_support(rng):
    w = WeightEvaluator.from_a2(get_a2("daho"))
    R, p = 9.0, -0.4
    banded = band_restrict(w, p, R)
    sample = box_sample(2, 10.0, n_random=4000, seed=6)
    m = w.m_values(sample)
    vals = np.asarray(banded.eval(sample))
    outside = (m < R) | (m > 3 * R)
    assert np.max(np.abs(vals[outside])) == 0.0  # exactly zero, not small
    plateau = (m >= 1.2 * R) & (m <= 2.5 * R)
    assert np.allclose(vals[plateau], m[plateau] ** p)
    assert np.count_nonzero(vals) > 0  # the shell carries mass on this box
    # one tree: its order-0 jet is its values, bit for bit
    assert np.array_equal(banded.derivative((0, 0), (0, 0), sample), vals)
    with pytest.raises(ValueError):
        band_restrict(w, p, 1.0)


def test_prop32_inequality():
    # Prop. 3.2, (f')^2 <= C ||f''||_inf f for nonnegative C^2 f, needs
    # C = 2, not the printed 1: the Taylor argument gives 2, and f = t^2
    # saturates it exactly (4t^2 against 2 * 2 * t^2), so C = 1 fails
    # already on the quadratic.  Exact derivatives, no differencing.
    t = np.linspace(-10.0, 10.0, 801)
    f, df, sup2 = t**2, 2.0 * t, 2.0
    assert np.all(df**2 <= 2.0 * sup2 * f)
    assert np.array_equal(df**2, 2.0 * sup2 * f)
    assert np.all((df**2 > 1.0 * sup2 * f)[t != 0.0])
    # a smooth positive control: f = 1 + sin t, |f''| <= 1, and
    # cos^2 = (1 - sin)(1 + sin) <= 2 (1 + sin)
    f, df, sup2 = 1.0 + np.sin(t), np.cos(t), 1.0
    assert np.all(df**2 <= 2.0 * sup2 * f + 1e-12)
