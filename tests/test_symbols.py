import numpy as np
import pytest
import sympy as sp

from weylab._jets import JPowerSum, JetSymbol, UnsupportedOrderError
from weylab.builders import get_a2, get_weight, symbol_names, weight_names
from weylab.metric import WeightEvaluator
from weylab.symbols import (MAX_DERIV_ORDER, PolySymbol, SymbolEvaluator,
                            band_restrict, box_sample, class_membership,
                            quadratic_confinement, smg_seminorm, with_confinement)

X1, X2, XI1, XI2 = sp.symbols("x1 x2 xi1 xi2")


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
    got = np.asarray(quadratic_confinement(2).eval(Z)).real
    assert np.allclose(got, Z[:, 0] ** 2 + Z[:, 1] ** 2)


def test_with_confinement_adds_x_square(rng):
    a = with_confinement(get_a2("harmonic", {"n": 2}))
    Z = rand_phase(rng)
    want = (Z**2).sum(axis=1)
    assert np.allclose(np.asarray(a.eval(Z)).real, want)


def test_polysymbol_derivatives_match_sympy(rng):
    a = with_confinement(get_a2("grushin_pure"))
    expr = XI1**2 + X1**2 * XI2**2 + X1**2 + X2**2
    Z = rand_phase(rng, count=25)
    for beta, alpha in (((1, 0), (0, 0)), ((0, 0), (2, 0)), ((1, 0), (0, 1)),
                        ((2, 0), (0, 2)), ((0, 1), (0, 0)), ((1, 1), (1, 1))):
        want_expr = sp.diff(expr, X1, beta[0], X2, beta[1],
                            XI1, alpha[0], XI2, alpha[1])
        want = sp.lambdify((X1, X2, XI1, XI2), want_expr, "numpy")(
            Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3]) * np.ones(len(Z))
        got = np.asarray(a.as_evaluator().derivative(beta, alpha, Z))
        assert np.allclose(got.real, want, rtol=1e-12, atol=1e-12)
        assert np.allclose(got.imag, 0.0, atol=1e-12)


def test_evaluator_exact_jets_agree_with_finite_differences(rng):
    # the contract that makes the exact path trustworthy
    s = with_confinement(get_a2("daho")).as_evaluator("a")
    fd = SymbolEvaluator(2, s.eval, jet=None, name="fd twin")
    Z = rand_phase(rng, count=100, scale=5.0)
    for beta, alpha in (((1, 0), (0, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1)),
                        ((2, 0), (0, 0))):
        exact = np.asarray(s.derivative(beta, alpha, Z)).real
        approx = np.asarray(fd.derivative(beta, alpha, Z)).real
        denom = np.maximum(np.abs(exact), 1.0)
        assert np.max(np.abs(exact - approx) / denom) < 1e-5


# -- coordinate tuples against rows ------------------------------------------


def _dims(get, names):
    """(name, n) for every dimension a builder takes; the daho and
    Grushin models are two-dimensional only."""
    return [(name, n) for name in names for n in (1, 2) if get(name, {"n": n}).n == n]


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
    w = get_weight(name, {"n": n})
    P, Z, shape = _block(n, x1)
    got = w.m_values(P)
    assert got.shape == shape
    assert np.array_equal(got.ravel(), w.m_values(Z))


@pytest.mark.parametrize("x1", X1S)
@pytest.mark.parametrize("name,n", _dims(get_a2, symbol_names()))
def test_symbol_on_coordinates_equals_rows(name, n, x1):
    a2 = get_a2(name, {"n": n})
    P, Z, shape = _block(n, x1)
    got = np.asarray(a2.eval(P))
    assert got.shape == shape
    assert np.array_equal(got.ravel(), a2.eval(Z))


@pytest.mark.parametrize("x1", X1S)
@pytest.mark.parametrize("name,n", _dims(get_weight, weight_names()))
def test_derivatives_on_coordinates_equal_rows(name, n, x1):
    # through the weight's jets where it has them, and through finite
    # differences of its values always
    w = get_weight(name, {"n": n})
    paths = [w, SymbolEvaluator(n, w.value_fn)] if w.jet is not None else [w]
    P, Z, shape = _block(n, x1)
    multis = [m for m in np.ndindex(*(3,) * 2 * n) if 0 < sum(m) <= 2]
    for s in paths:
        for m in multis:
            beta, alpha = m[:n], m[n:]
            got = np.asarray(s.derivative(beta, alpha, P))
            assert got.shape == shape
            assert np.array_equal(got.ravel(), s.derivative(beta, alpha, Z))


def test_evaluator_order_gate():
    s = with_confinement(get_a2("daho")).as_evaluator("a")
    assert MAX_DERIV_ORDER == 4
    with pytest.raises(UnsupportedOrderError):
        s.derivative((3, 0), (0, 2), np.zeros((1, 4)))


def test_polysymbol_addition(rng):
    a = get_a2("harmonic", {"n": 2})
    Z = rand_phase(rng, count=10)
    c = a + quadratic_confinement(2)
    want = np.asarray(a.eval(Z)) + np.asarray(quadratic_confinement(2).eval(Z))
    assert np.allclose(np.asarray(c.eval(Z)), want)


# -- transport ---------------------------------------------------------------


def poly_1d(rng, xi_deg=2, x_deg=2):
    mono = {}
    for q in range(xi_deg + 1):
        terms = [(rng.normal(), (p, 0), 0.0) for p in range(x_deg + 1)]
        mono[(q,)] = JPowerSum(2, terms)
    return PolySymbol(1, mono)


def sympy_of(sym):
    """Rebuild the closed form of a 1d polynomial symbol for the oracle."""
    x, xi = sp.symbols("x xi")
    total = sp.S(0)
    for alpha, terms in sym.coefficient_terms().items():
        assert terms is not None
        for c, e, p in terms.terms:
            assert p == 0.0  # polynomial coefficients only
            total += sp.nsimplify(complex(c), rational=False) * x**e[0] * xi**alpha[0]
    return total, x, xi


def jt_oracle(expr, x, xi, t):
    """Transport series computed symbolically, term by term."""
    total = sp.S(0)
    k = 0
    while True:
        term = sp.diff(expr, x, k, xi, k)
        if term == 0:
            break
        total += (sp.I * t / (2 * sp.pi)) ** k / sp.factorial(k) * term
        k += 1
    return total


def test_jt_on_xxi_matches_symbolic_oracle(rng):
    sym = PolySymbol(1, {(1,): JPowerSum.monomial(2, (1, 0))})  # x xi
    t = 0.7
    got = sym.jt(t)
    x, xi = sp.symbols("x xi")
    want = jt_oracle(x * xi, x, xi, t)
    assert sp.simplify(want - (x * xi + sp.I * t / (2 * sp.pi))) == 0
    Z = rand_phase(rng, count=30, n=1)
    want_fn = sp.lambdify((x, xi), want, "numpy")
    got_vals = np.asarray(got.eval(Z))
    assert np.allclose(got_vals, want_fn(Z[:, 0], Z[:, 1]), atol=1e-14)


def test_jt_random_polynomials_match_oracle(rng):
    for _ in range(10):
        sym = poly_1d(rng)
        t = float(rng.uniform(-1.0, 1.0))
        expr, x, xi = sympy_of(sym)
        want = sp.lambdify((x, xi), jt_oracle(expr, x, xi, t), "numpy")
        Z = rand_phase(rng, count=20, n=1)
        got = np.asarray(sym.jt(t).eval(Z))
        ref = np.asarray(want(Z[:, 0], Z[:, 1]), dtype=complex) * np.ones(len(Z))
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-10)


def test_jt_semigroup_and_identity(rng):
    Z = rand_phase(rng, count=30, n=1)
    for _ in range(8):
        sym = poly_1d(rng)
        base = np.asarray(sym.eval(Z))
        assert np.allclose(np.asarray(sym.jt(0.0).eval(Z)), base, atol=1e-14)
        t, s = rng.uniform(-0.8, 0.8, size=2)
        two_step = np.asarray(sym.jt(t).jt(s).eval(Z))
        one_step = np.asarray(sym.jt(t + s).eval(Z))
        scale = np.max(np.abs(one_step)) + 1.0
        assert np.max(np.abs(two_step - one_step)) / scale < 1e-13


# -- star product ------------------------------------------------------------


def test_sharp_commutator_normalization(rng):
    xpoly = PolySymbol(1, {(0,): JPowerSum.monomial(2, (1, 0))})
    xipoly = PolySymbol(1, {(1,): JPowerSum.constant(2, 1.0)})
    Z = rand_phase(rng, count=25, n=1)
    lhs = np.asarray(xipoly.sharp(xpoly).eval(Z))
    rhs = np.asarray(xpoly.sharp(xipoly).eval(Z))
    comm = lhs - rhs
    want = 1.0 / (2j * np.pi)
    assert np.max(np.abs(comm - want)) < 1e-15


def test_sharp_with_constant_and_commutative_limits(rng):
    one = PolySymbol(1, {(0,): JPowerSum.constant(2, 1.0)})
    sym = poly_1d(rng)
    Z = rand_phase(rng, count=20, n=1)
    assert np.allclose(np.asarray(sym.sharp(one).eval(Z)),
                       np.asarray(sym.eval(Z)), atol=1e-13)
    assert np.allclose(np.asarray(one.sharp(sym).eval(Z)),
                       np.asarray(sym.eval(Z)), atol=1e-13)
    # x-only times x-only multiplies pointwise: no derivatives in play
    f = PolySymbol(1, {(0,): JPowerSum.monomial(2, (2, 0), 1.5)})
    g = PolySymbol(1, {(0,): JPowerSum.monomial(2, (1, 0), -2.0)})
    got = np.asarray(f.sharp(g).eval(Z))
    assert np.allclose(got, -3.0 * Z[:, 0] ** 3, atol=1e-13)


def test_sharp_associative(rng):
    a = poly_1d(rng, xi_deg=2, x_deg=1)
    b = poly_1d(rng, xi_deg=1, x_deg=2)
    c = poly_1d(rng, xi_deg=2, x_deg=1)
    Z = rand_phase(rng, count=25, n=1)
    left = np.asarray(a.sharp(b).sharp(c).eval(Z))
    right = np.asarray(a.sharp(b.sharp(c)).eval(Z))
    scale = np.max(np.abs(left)) + 1.0
    assert np.max(np.abs(left - right)) / scale < 1e-12


def test_sharp_commutator_of_real_symbols_is_imaginary(rng):
    a = poly_1d(rng)
    b = poly_1d(rng)
    Z = rand_phase(rng, count=25, n=1)
    comm = (np.asarray(a.sharp(b).eval(Z)) - np.asarray(b.sharp(a).eval(Z)))
    scale = np.max(np.abs(comm)) + 1.0
    assert np.max(np.abs(comm.real)) / scale < 1e-13


def test_sharp_square_second_order_constant():
    # (x^2 + xi^2) # (x^2 + xi^2) picks up exactly -1/(4 pi^2)
    a = with_confinement(get_a2("harmonic", {"n": 1}))
    terms = a.sharp(a).coefficient_terms()[(0,)]
    const = [c for c, e, p in terms.terms if e == (0, 0) and p == 0.0]
    assert len(const) == 1
    assert const[0].real == pytest.approx(-1.0 / (4.0 * np.pi**2), rel=1e-12)
    assert abs(const[0].imag) < 1e-15
    quartic = [c for c, e, p in terms.terms if e == (4, 0)]
    assert quartic[0] == pytest.approx(1.0)


def test_sharp_dimension_mismatch():
    with pytest.raises(ValueError):
        get_a2("harmonic", {"n": 2}).sharp(get_a2("harmonic", {"n": 1}))


# -- seminorms and membership ------------------------------------------------


def test_box_sample_structure():
    s = box_sample(2, 10.0, n_random=100, seed=1)
    assert s.shape[1] == 4
    assert np.max(np.abs(s)) <= 10.0
    assert np.any(np.all(s == 0.0, axis=1))  # origin present
    again = box_sample(2, 10.0, n_random=100, seed=1)
    assert np.array_equal(s, again)


def test_seminorm_constant_symbol():
    s = SymbolEvaluator(2, lambda P: 1.0, name="one")
    w = WeightEvaluator.from_a2(get_a2("daho"))
    sample = box_sample(2, 5.0, n_random=50)
    one = WeightEvaluator(2, lambda P: 1.0, name="one")
    est0 = smg_seminorm(s, one, w, 0, sample)
    assert est0.value == pytest.approx(1.0, abs=1e-12)
    est2 = smg_seminorm(s, one, w, 2, sample)
    assert est2.value == pytest.approx(1.0, abs=1e-6)  # derivatives vanish


def test_seminorm_monotone_under_refinement():
    s = with_confinement(get_a2("daho")).as_evaluator("a")
    w = WeightEvaluator.from_a2(get_a2("daho"))
    sample = box_sample(2, 10.0, n_random=200, seed=2)
    small = smg_seminorm(s, w, w, 2, sample[: len(sample) // 2]).value
    full = smg_seminorm(s, w, w, 2, sample).value
    assert small <= full + 1e-12


def test_bracket_weight_is_self_class(rng):
    jet = JetSymbol(JPowerSum.bracket_power(4, 1.0))
    s = WeightEvaluator(2, lambda P: jet.deriv_eval((0, 0, 0, 0), P), jet=jet,
                        name="bracket")
    w = WeightEvaluator.from_a2(get_a2("daho"))
    # the sup saturates slowly along the anisotropic directions; a 15% gate
    # still separates this cleanly from the unbounded negative control below
    rep = class_membership(s, s, w, 2, [10.0, 20.0], growth_factor=1.15,
                           n_random=300, seed=4)
    assert rep.passed
    assert rep.growth[0] < 1.15


def test_membership_requires_two_boxes():
    s = with_confinement(get_a2("daho")).as_evaluator("a")
    w = WeightEvaluator.from_a2(get_a2("daho"))
    with pytest.raises(ValueError):
        class_membership(s, w, w, 2, [10.0])


def test_membership_negative_control_blows_up():
    w = WeightEvaluator.from_a2(get_a2("daho"))
    neg = SymbolEvaluator(
        2, lambda P: np.exp(np.sqrt(P[0] * P[0] + P[1] * P[1])),
        name="exp|x|")
    rep = class_membership(neg, w, w, 2, [10.0, 20.0], n_random=200, seed=4)
    assert not rep.passed
    assert rep.growth[0] > 100.0


@pytest.mark.parametrize("name", symbol_names())
def test_weight_jet_matches_weight_values(rng, name):
    w = get_weight(name)
    assert isinstance(w, SymbolEvaluator) and w.jet is not None
    Z = rand_phase(rng, count=60, scale=8.0)
    exact0 = np.asarray(w.derivative((0, 0), (0, 0), Z)).real
    assert np.allclose(exact0, w.m_values(Z), rtol=1e-13)
    # its exact derivative path survives the finite-difference cross-check
    fd = SymbolEvaluator(2, w.eval, jet=None)
    for beta, alpha in (((1, 0), (0, 0)), ((0, 1), (0, 1))):
        exact = np.asarray(w.derivative(beta, alpha, Z)).real
        approx = np.asarray(fd.derivative(beta, alpha, Z)).real
        assert np.max(np.abs(exact - approx) / np.maximum(np.abs(exact), 1.0)) < 1e-5


def test_band_restrict_support(profile, rng):
    a2 = get_a2("daho")
    w = WeightEvaluator.from_a2(a2)
    s = with_confinement(a2).as_evaluator("a")
    R = 9.0
    banded = band_restrict(s, w, R)
    sample = box_sample(2, 10.0, n_random=4000, seed=6)
    m = w.m_values(sample)
    vals = np.asarray(banded.eval(sample))
    outside = (m < R) | (m > 3 * R)
    assert np.max(np.abs(vals[outside])) == 0.0  # exactly zero, not small
    plateau = (m >= 1.2 * R) & (m <= 2.5 * R)
    assert np.allclose(vals[plateau], np.asarray(s.eval(sample))[plateau])
    assert np.count_nonzero(vals) > 0  # the shell carries mass on this box
    with pytest.raises(ValueError):
        band_restrict(s, w, 1.0)


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
