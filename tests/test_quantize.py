"""Quantization rules, the dtype rule, convention transport, composition
and Sobolev norms."""
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp

import weylab
import weylab.quantize as qz
from weylab._jets import JProd, JPowerSum, JSum, JUni, UnsupportedOrderError
from weylab.builders import get_a2, get_weight, symbol_names, weight_names
from weylab.hamiltonians import DirichletGrid
from weylab.quantize import (
    Grid,
    identity_symbol_matrix,
    kn_quantize,
    sobolev_norm,
    tau_quantize,
    weyl_quantize,
)
from weylab.symbols import SymbolEvaluator, with_confinement

from _helpers import (X, XI, Unproven, direct_quantize, gaussian_packets, moyal_product, poly,
                      sympy_symbol, transport)


def xxi_symbol():
    return poly(1, {(1,): JPowerSum.monomial(2, (1, 0))})


def mixed_2d_symbol():
    """x1 xi2 + x2^2 xi1: x-dependent and odd in xi, unlike every model."""
    return poly(2, {(0, 1): JPowerSum.monomial(4, (1, 0, 0, 0)),
                    (1, 0): JPowerSum.monomial(4, (0, 2, 0, 0))})


def daho_weight():
    return get_weight("daho")


def harmonic_1d():
    return with_confinement(get_a2("harmonic", {"n": 1}))


def odd_in_xi(n):
    """x1 xi1 + xi1^2: real, with a term odd in xi."""
    e = (1,) + (0,) * (n - 1)
    return poly(n, {e: JPowerSum.monomial(2 * n, e + (0,) * n),
                    (2,) + (0,) * (n - 1): JPowerSum.constant(2 * n, 1.0)})


def odd_past_the_middle():
    """xi2^2 + max(x1, 0) xi1: even in xi on the 2-D blocks whose
    first-axis point is at most 0, odd on the ones after them, and proven
    even on no xi axis."""
    def positive_part(order, t):
        if order:
            raise UnsupportedOrderError("max(t, 0) has no derivative table")
        return np.maximum(t, 0.0)

    x1 = JUni(JPowerSum.monomial(4, (1, 0, 0, 0)), positive_part)
    return SymbolEvaluator(2, JSum([JPowerSum.monomial(4, (0, 0, 0, 2)),
                                    JProd([x1, JPowerSum.monomial(4, (0, 0, 1, 0))])]))


def table_symbols():
    """Every table weight and a2 symbol, in each dimension it takes."""
    dims = {"harmonic": ({"n": 1}, {"n": 2}), "broken_half_bracket": ({"n": 1}, {"n": 2})}
    return ([get_weight(name, p) for name in weight_names() for p in dims.get(name, (None,))]
            + [get_a2(name, p) for name in symbol_names() for p in dims.get(name, (None,))])


# (n, tau) pairs that tau_quantize takes: generic tau in 1-D only
DIM_TAU = [(n, tau) for n in (1, 2) for tau in (0.0, 0.3, 0.5, 1.0) if n == 1 or tau != 0.3]
# the pairs that take the transform per node, in both dimensions
FAST_DIM_TAU = [(n, tau) for n, tau in DIM_TAU if tau != 0.3]


# -- grids ------------------------------------------------------------------

def test_grid_validation():
    # one dimension rule on both boundaries; the N rules differ
    for args, err in [
        ((3, 16, 4.0), "only one or two spatial dimensions are supported"),
        ((1, 15, 4.0), "N must be even and at least 8"),
        ((1, 4, 4.0), "N must be even and at least 8"),
        ((1, 16, 0.0), "L must be positive"),
        ((3, 16, 4.0, "dirichlet"), "only one or two spatial dimensions are supported"),
        ((1, 7, 4.0, "dirichlet"), "N must be at least 8"),
        ((1, 16, -1.0, "dirichlet"), "L must be positive"),
        ((1, 16, 4.0, "neumann"), "boundary must be periodic or dirichlet"),
    ]:
        with pytest.raises(ValueError) as exc:
            Grid(*args)
        assert str(exc.value) == err


def test_grid_geometry():
    g = Grid(1, 16, 4.0)
    assert g.h == pytest.approx(0.5)
    # cell-centred: the first node is half a step in from the wall, and
    # node i mirrors to node N - 1 - i
    assert g.points[0] == -4.0 + 0.25 and g.points[-1] == pytest.approx(3.75)
    assert np.allclose(g.points[::-1], -g.points, rtol=0.0, atol=1e-15)
    assert len(g.points) == 16
    assert g.modes[0] == pytest.approx(-1.0)  # -N/2 / (2L)
    assert g.xi_max == pytest.approx(1.0)
    assert g.side() == 16
    assert Grid(2, 16, 4.0).side() == 256
    assert Grid(1, 32, 4.0).xi_max == pytest.approx(2.0)  # N / (4L)
    # each boundary against the formulas of the two grid classes it
    # replaces; odd N is Dirichlet only
    for n, N, L, boundary in [(1, 16, 4.0, "periodic"), (2, 12, 3.0, "periodic"),
                              (1, 9, 5.0, "dirichlet"), (2, 33, 6.0, "dirichlet")]:
        g = Grid(n, N, L, boundary)
        h = 2.0 * L / N if boundary == "periodic" else 2.0 * L / (N + 1)
        p = -L + h * ((0.5 if boundary == "periodic" else 1.0) + np.arange(N))
        assert g.h == h and np.array_equal(g.points, p)
        assert np.allclose(p[::-1], -p, rtol=0.0, atol=4 * np.finfo(float).eps * L)
        want = p[:, None] if n == 1 else \
            np.stack([a.ravel() for a in np.meshgrid(p, p, indexing="ij")], axis=1)
        assert np.array_equal(g.mesh(), want) and g.side() == N ** n
    assert DirichletGrid(2, 16, 6.0) == Grid(2, 16, 6.0, "dirichlet")
    assert DirichletGrid(2, 16, 6.0) != Grid(2, 16, 6.0)
    # quantization needs the FFT modes of a periodic grid
    with pytest.raises(ValueError, match="quantization needs a periodic grid"):
        weyl_quantize(harmonic_1d(), Grid(1, 16, 4.0, "dirichlet"))
    with pytest.raises(ValueError, match="quantization needs a periodic grid"):
        qz.weyl_blocks(harmonic_1d(), DirichletGrid(1, 16, 4.0))


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
    with pytest.raises(ValueError):
        identity_symbol_matrix(Grid(2, 8, 3.0), 0.3)


def test_weyl_of_real_symbol_is_hermitian():
    op = weyl_quantize(harmonic_1d(), Grid(1, 32, 6.0))
    assert np.max(np.abs(op - op.conj().T)) < 1e-12


def exactly_hermitian(A):
    """A equals its conjugate transpose bit for bit, 256 rows at a time."""
    return all(np.array_equal(A[r:r + 256], A[:, r:r + 256].conj().T)
               for r in range(0, len(A), 256))


@pytest.mark.parametrize("n, N", [(2, 8), (2, 24), (2, 48), (1, 32), (1, 256), (1, 1024)])
def test_weyl_of_a_real_symbol_is_hermitian_bit_for_bit(n, N):
    # an unproven mode axis reads e^{+-2 pi i dk/N} from one table with
    # t[N - a] = conj t[a] exactly, so columns d and -d of the transform
    # are conjugates bit for bit where the BLAS products round them alike,
    # as at these N; a folded one sums the same two cosines.
    # In 2-D odd_in_xi is x1 xi1 + xi1^2: complex, its x1 and xi1 unproven.
    # The 1-D transform takes one product per row, seconds per symbol at
    # N = 1024, so there only odd_in_xi, on the complex table
    values = daho_weight() if n == 2 else harmonic_1d()
    grid = sweep_grid(n, N)
    symbols = [SymbolEvaluator(n, Unproven(values.expr), name="unproven"),
               odd_in_xi(n), odd_in_x1(n)]
    for s in symbols[1:2] if N == 1024 else symbols:
        M = weyl_quantize(s, grid)
        assert exactly_hermitian(M), (s.name, M.dtype)
    if n == 2:
        # the parity blocks of x1 xi1 + xi1^2, split on its one proven axis, the second
        seam, blocks = qz.weyl_blocks(odd_in_xi(2), grid)
        assert seam == 0.0 and len(blocks) == 2
        assert all(B.dtype == np.complex128 and exactly_hermitian(B) for B in blocks)


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


# -- the dtype rule ---------------------------------------------------------

@pytest.mark.parametrize("n, tau", DIM_TAU)
def test_real_symbols_even_in_xi_quantize_to_real_arrays(n, tau):
    symbols = [s for s in table_symbols() if s.n == n]
    assert len(symbols) == (7 if n == 2 else 3)
    for s in symbols:
        assert tau_quantize(s, Grid(n, 8, 3.0), tau).dtype == np.float64, s.name
    assert identity_symbol_matrix(Grid(n, 8, 3.0), tau).dtype == np.float64


@pytest.mark.parametrize("n, tau", DIM_TAU)
def test_a_term_odd_in_xi_keeps_the_matrix_complex(n, tau):
    assert tau_quantize(odd_in_xi(n), Grid(n, 8, 3.0), tau).dtype == np.complex128


@pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
def test_1d_real_matrix_matches_direct_sum(tau):
    # the real path in 1-D; test_1d_matches_direct_sum's x xi takes the
    # complex one, test_2d_matches_direct_sum's daho weight the 2-D real one
    s, grid = get_weight("harmonic", {"n": 1}), Grid(1, 16, 4.0)
    assert tau_quantize(s, grid, tau).dtype == np.float64
    assert _direct_defect(s, grid, tau) <= 1e-13


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_one_block_odd_in_xi_makes_the_whole_matrix_complex(tau):
    # the blocks before the first x1 > 0 are even in xi, but the tree
    # proves no xi axis even: the matrix is complex, with the entries of
    # the direct sum
    s, grid = odd_past_the_middle(), Grid(2, 8, 3.0)
    assert tau_quantize(s, grid, tau).dtype == np.complex128
    assert _direct_defect(s, grid, tau) <= 1e-13


def test_weyl_quantization_does_not_import_scipy():
    # the real path uses numpy.fft: set-up and the sweep's quantization
    # load no scipy module
    code = ("import sys\n"
            "import weylab\n"
            "from weylab.builders import get_weight\n"
            "from weylab.quantize import Grid, weyl_quantize\n"
            "A = weyl_quantize(get_weight('daho'), Grid(2, 8, 3.0))\n"
            "print(A.dtype, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "float64 []"


# -- one evaluation per reflection orbit ------------------------------------

def every_sample(s, grid, tau, shared=False):
    """The matrix from every sample, a plain loop over the first-axis
    nodes: the symbol at every node and mode, the inverse DFT over the
    modes, real (from the half spectrum) when the samples are real and
    the tree is proven even on every xi axis, and A = G[at, d] on each
    axis.  shared: the samples on the kept modes (_orbits) go through the
    quantizer's own transform instead, which a fold that keeps every
    needed sample must then match bit for bit."""
    N, n = grid.N, grid.n
    idx = np.arange(N)
    ks, d = np.fft.ifftshift(grid.modes), (idx[:, None] - idx[None, :]) % N
    if tau == 0.5:
        nodes = grid.points[0] + (grid.h / 2.0) * np.arange(2 * N - 1)
        at = idx[:, None] + idx[None, :]
    else:
        nodes, at = grid.points, np.broadcast_to(idx[:, None] if tau else idx[None, :], (N, N))
    if n == 1:
        S = s.eval((nodes[:, None], ks[None, :]))
    else:
        S = np.stack([s.eval((v, nodes[:, None, None], ks[None, :, None], ks[None, None, :]))
                      for v in nodes])
    axes = tuple(range(n, 2 * n))
    if shared:
        maps = [qz._orbits(N, s, a) for a in axes]
        S = S[(...,) + tuple(slice(0, m.max() + 1) for m in maps)]
        G = qz._dft(S, qz._dft_matrices(maps, N, tau == 0.5), [0] * n)
        d = d // 2 if tau == 0.5 else d  # a half-step row reads d = 2c + its parity
    elif not np.iscomplexobj(S) and all(s.expr.parity(a) == 1 for a in axes):
        G = np.fft.irfftn(S[..., :N // 2 + 1], s=(N,) * n, axes=axes)
    else:
        G = np.fft.ifftn(S, axes=axes)
    if n == 1:
        return G[at, d]
    i1, i2, j1, j2 = np.ix_(idx, idx, idx, idx)
    return G[at[i1, j1], at[i2, j2], d[i1, j1], d[i2, j2]].reshape(N * N, N * N)


def sweep_grid(n, N):
    """The trend sweep's grid, L = sqrt(N)/2: at N = 24 the nodes' mirrors
    are not their negatives bit for bit."""
    return Grid(n, N, np.sqrt(N) / 2.0)


@pytest.mark.parametrize("N", [8, 16, 24])
@pytest.mark.parametrize("n, tau", FAST_DIM_TAU)
def test_folded_matrix_matches_every_sample(n, tau, N):
    # every table symbol is proven even on every axis, so every axis folds
    for s in (s for s in table_symbols() if s.n == n):
        assert all(s.expr.parity(a) == 1 for a in range(2 * n)), s.name
        grid = sweep_grid(n, N)
        got, want = tau_quantize(s, grid, tau), every_sample(s, grid, tau)
        assert got.dtype == want.dtype, s.name
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), s.name


def odd_in_x1(n):
    """x1^3 + x1 xi1^2: odd under x1 -> -x1, so that axis is not folded."""
    def x1(k):
        return JPowerSum.monomial(2 * n, (k,) + (0,) * (2 * n - 1))
    return poly(n, {(0,) * n: x1(3), (2,) + (0,) * (n - 1): x1(1)})


@pytest.mark.parametrize("N", [8, 24])
@pytest.mark.parametrize("n, tau", FAST_DIM_TAU)
def test_unproven_axes_keep_every_sample_bit_for_bit(n, tau, N):
    values = get_weight("daho" if n == 2 else "harmonic", {} if n == 2 else {"n": 1})
    # x1 xi1 + xi1^2 proves nothing on x1 and xi1 (in 2-D, x2 and xi2 fold)
    cases = [(odd_in_xi(n), [0 if a % n == 0 else 1 for a in range(2 * n)]),
             (odd_in_x1(n), [-1] + [1] * (2 * n - 1)),
             (SymbolEvaluator(n, Unproven(values.expr), name="values"), [0] * (2 * n))]
    for s, parities in cases:
        assert [s.expr.parity(a) for a in range(2 * n)] == parities
        grid = sweep_grid(n, N)
        got, want = tau_quantize(s, grid, tau), every_sample(s, grid, tau, shared=True)
        assert got.dtype == want.dtype and np.array_equal(got, want), s.name


@pytest.mark.parametrize("n, tau", FAST_DIM_TAU)
def test_an_even_symbol_with_a_complex_coefficient_stays_complex(n, tau):
    # (1 + i/2) xi1^2 + i x1^2: proven even on every axis, and not real
    e = (2,) + (0,) * (n - 1)
    s = poly(n, {e: JPowerSum.constant(2 * n, 1.0 + 0.5j),
                 (0,) * n: JPowerSum.monomial(2 * n, e + (0,) * n, c=1j)})
    assert all(s.expr.parity(a) == 1 for a in range(2 * n))
    grid = sweep_grid(n, 24)
    got, want = tau_quantize(s, grid, tau), every_sample(s, grid, tau)
    assert got.dtype == want.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_daho_at_n24_evaluates_one_eighth_of_every_sample(monkeypatch):
    # every sample is 47^2 half-step nodes times 24^2 modes; one per
    # reflection orbit is 24^2 times 13^2 (node v mirrors to 46 - v)
    s, sizes = daho_weight(), []
    ev = s.eval

    def counting(P):
        sizes.append(int(np.prod(np.broadcast_shapes(*(np.shape(p) for p in P)))))
        return ev(P)

    monkeypatch.setattr(s, "eval", counting)
    weyl_quantize(s, sweep_grid(2, 24))
    assert sum(sizes) == 24 ** 2 * 13 ** 2 <= 47 ** 2 * 24 ** 2 / 8
    # one evaluation per run of kept rows on both axes: a run, counted as
    # its rows x 24^2 differences, holds at most ROW_BLOCK = 65536 of them,
    # so all 24 kept second-axis rows share a run and the 24 kept
    # first-axis rows go in six runs of 4
    assert qz.ROW_BLOCK // (24 * 24 ** 2) == 4
    assert sizes == [4 * 24 * 13 ** 2] * 6


def run_length_symbols():
    """Folded and real (daho), unproven, and complex: odd in xi, and even
    with a complex coefficient."""
    e = (2, 0)
    even_complex = poly(2, {e: JPowerSum.constant(4, 1.0 + 0.5j),
                            (0, 0): JPowerSum.monomial(4, e + (0, 0), c=1j)})
    return [daho_weight(), SymbolEvaluator(2, Unproven(daho_weight().expr), name="unproven"),
            odd_in_xi(2), even_complex]


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_run_length_changes_no_bit(monkeypatch, tau):
    # the default runs (2 to 8 nodes here), one node a run, and runs of
    # 144 / (kept second-axis nodes): 3 to 11 nodes
    grid = sweep_grid(2, 24)
    want = [tau_quantize(s, grid, tau) for s in run_length_symbols()]
    assert [A.dtype for A in want] == [np.float64, np.complex128, np.complex128, np.complex128]
    for bound in (1, 24 ** 4 // 4):
        monkeypatch.setattr(qz, "ROW_BLOCK", bound)
        for s, A in zip(run_length_symbols(), want):
            got = tau_quantize(s, grid, tau)
            assert got.dtype == A.dtype and np.array_equal(got, A), (s.name, bound)


# -- the transform ------------------------------------------------------------

def rows_and_spectrum(rng, kind, n, N):
    """Samples S on five rows per axis (the first odd) and the kept modes,
    the row map of every mode axis, and the expanded spectrum X =
    S[.., m, m]: folded and real, unproven (every mode kept) and real, or
    folded and complex."""
    j = np.arange(N)
    m = j if kind == "unproven" else np.minimum(j, -j % N)
    S = rng.standard_normal((5,) * n + (m.max() + 1,) * n)
    if kind == "folded-complex":
        S = S + 1j * rng.standard_normal(S.shape)
    return S, m, S[(...,) + np.ix_(*[m] * n)]


@pytest.mark.parametrize("half", [True, False], ids=["half-step", "every-d"])
@pytest.mark.parametrize("kind", ["folded-real", "unproven", "folded-complex"])
@pytest.mark.parametrize("N", [8, 16, 24, 128])
@pytest.mark.parametrize("n", [1, 2])
def test_transform_matches_the_fft_of_the_expanded_spectrum(n, N, kind, half):
    # the quantizer's transform against numpy's inverse FFT of the whole
    # spectrum (from the half spectrum when it is real and folded): rows
    # 3..7 on every axis, so a half-step row of parity p reads d = 2c + p
    rng = np.random.default_rng(100 * N + n)
    S, m, X = rows_and_spectrum(rng, kind, n, N)
    axes = tuple(range(n, 2 * n))
    if kind == "folded-real":
        want = np.fft.irfftn(X[..., :N // 2 + 1], s=(N,) * n, axes=axes)
    else:
        want = np.fft.ifftn(X, axes=axes)
    got = qz._dft(S, qz._dft_matrices([m] * n, N, half), [3] * n)
    assert got.dtype == want.dtype
    C = N // 2 if half else N
    t, c = np.arange(5)[:, None], np.arange(C)
    d = 2 * c + (3 + t) % 2 if half else np.broadcast_to(c, (5, C))  # [row, column] -> d
    if n == 1:
        want = want[t, d]
    else:
        t1, t2, c1, c2 = np.ix_(range(5), range(5), range(C), range(C))
        want = want[t1, t2, d[t1, c1], d[t2, c2]]
    assert np.max(np.abs(got - want)) <= 2 * np.finfo(float).eps * np.max(np.abs(X))


def test_no_quantizer_takes_an_inverse_fft(monkeypatch):
    # every quantizer goes through the one transform; sobolev_norm keeps
    # its forward FFT
    def refuse(*args, **kwargs):
        raise AssertionError("an inverse FFT was taken")

    for name in ("ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    g1, g2 = sweep_grid(1, 16), sweep_grid(2, 16)
    for s in (daho_weight(), odd_in_xi(2)):
        for A in (weyl_quantize(s, g2), kn_quantize(s, g2)):
            assert A.shape == (256, 256)
    assert qz.weyl_blocks(daho_weight(), g2)[0] == 0.0
    assert tau_quantize(harmonic_1d(), g1, 0.3).dtype == np.float64
    assert tau_quantize(odd_in_xi(1), g1, 0.3).dtype == np.complex128
    assert sobolev_norm(np.ones(16), g1, 1.0) > 0.0


# -- convention transport ---------------------------------------------------

def test_transport_matches_weakly_but_not_entrywise():
    # Op_W(a) and Op_KN of the half-step transported symbol agree on
    # matrix elements against localized states; raw entries differ because
    # the periodic wrap acts differently on the two kernels.
    g = Grid(1, 32, 6.0)
    a = xxi_symbol()
    W = weyl_quantize(a, g)
    K = kn_quantize(sympy_symbol(transport(X * XI, -0.5)), g)
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


@pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 0.75])
def test_tau_quantization_is_kn_of_the_transported_symbol(tau):
    # Op_tau(f) = Op_KN(J_(tau - 1) f) on localized packets, with the
    # second-order transport term in play; measured worst 1.9e-16
    f, g = X**2 * XI**2 + X * XI + XI**2, Grid(1, 64, 8.0)
    D = tau_quantize(sympy_symbol(f), g, tau) - kn_quantize(sympy_symbol(transport(f, tau - 1.0)), g)
    packets = gaussian_packets(g, count=6, seed=3)
    assert max(abs(p.conj() @ D @ q) for p in packets for q in packets) <= 1e-12
    assert np.max(np.abs(D)) > 0.5


# -- composition ------------------------------------------------------------

@pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
def test_x_and_xi_compose_by_the_commutation_rule(tau):
    # Op(x) is the diagonal of the nodes (to rounding at generic tau), so
    # x-only symbols multiply pointwise, and [Op(xi), Op(x)] = 1/(2 pi i)
    # up to the spectral error of the packets (1.4e-8 at N = 64)
    g = Grid(1, 64, 8.0)
    Xm, D = (tau_quantize(sympy_symbol(s), g, tau) for s in (X, XI))
    assert np.max(np.abs(Xm - np.diag(g.points))) <= 1e-13
    F, G, FG = (tau_quantize(sympy_symbol(s), g, tau) for s in (1.5 * X**2, -2 * X, -3 * X**3))
    assert np.max(np.abs(F @ G - FG)) <= 1e-10
    assert sp.expand(moyal_product(XI, X) - moyal_product(X, XI)) == 1 / (2 * sp.pi * sp.I)
    for u in gaussian_packets(g, count=6, seed=3):
        assert np.linalg.norm((D @ Xm - Xm @ D) @ u - u / (2j * np.pi)) < 1e-7


def test_harmonic_square_picks_up_the_composition_constant():
    # (x^2 + xi^2) # (x^2 + xi^2) = (x^2 + xi^2)^2 - 1/(4 pi^2), and the
    # quantizer sees the constant: 1.8e-7 with it, 0.025 without
    h, g = X**2 + XI**2, Grid(1, 64, 8.0)
    assert sp.expand(moyal_product(h, h) - h**2) == -1 / (4 * sp.pi**2)
    H, H2 = (weyl_quantize(sympy_symbol(s), g) for s in (h, h**2))
    for u in gaussian_packets(g, count=6, seed=3):
        defect = H @ (H @ u) - H2 @ u
        assert np.linalg.norm(defect + u / (4 * np.pi**2)) < 1e-6
        assert np.linalg.norm(defect) > 0.02


def test_composition_is_associative_on_states():
    # integer polynomials: the product associates exactly, the commutator
    # of real symbols is imaginary, and Op(a)Op(b)Op(c) acts as
    # Op((a#b)#c) (measured 5.2e-5 against norms near 100)
    a = 2 * X - 3 * XI**2 + 2 * XI + 1
    b = -X**2 * XI - 2 * X**2 - 3 * X * XI + 3 * X - XI + 1
    c = -3 * X * XI**2 - 3 * X * XI - 3 * X - 3 * XI**2 - XI
    abc = moyal_product(moyal_product(a, b), c)
    assert sp.expand(abc - moyal_product(a, moyal_product(b, c))) == 0
    assert sp.expand(sp.re(moyal_product(a, b) - moyal_product(b, a))) == 0
    A, B, C, ABC = (weyl_quantize(sympy_symbol(s), Grid(1, 64, 8.0)) for s in (a, b, c, abc))
    for u in gaussian_packets(Grid(1, 64, 8.0), count=6, seed=3):
        assert np.linalg.norm(A @ (B @ (C @ u)) - ABC @ u) < 1e-5 * np.linalg.norm(ABC @ u)


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


def test_sobolev_norm_refuses_a_dirichlet_grid():
    # its modes and (2L)^n period are the periodic grid's; with the
    # Dirichlet spacing 2L/(N+1) the answer (2.662 for ones) meant nothing
    with pytest.raises(ValueError, match="quantization needs a periodic grid"):
        sobolev_norm(np.ones(16), Grid(1, 16, 4.0, "dirichlet"), 1.0)


def test_gaussian_packets_are_normalized():
    g = Grid(1, 64, 8.0)
    packets = gaussian_packets(g, count=4, seed=1)
    assert len(packets) == 4
    for u in packets:
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
