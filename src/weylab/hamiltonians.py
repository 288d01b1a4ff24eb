"""Finite-difference Hamiltonians on Dirichlet (and periodic) boxes.

Kinetic parts are sums of squares of axis-aligned fields b(x) d/dx_axis,
given in the one field format of builders.Model, (axis, c) with c = b^2
a jet tree over (x, xi) and None for b = 1, and assembled as scipy
sparse matrices by one route, tensor_stencil_matrix: a Kronecker sum of
the boundary's stencils times diagonals.  A field's coefficient must be
proven constant along its own axis; then each per-axis matrix is PSD and
the assembly keeps both symmetry and positivity exactly.

Spectra here use the plain convention -Laplacian + |x|^2, whose 2D
harmonic reference spectrum is {2(k1+k2)+2}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .quantize import Grid

__all__ = [
    "DirichletGrid", "HamiltonianMatrix", "Potential", "P2Report",
    "second_derivative", "tensor_stencil_matrix", "quadratic_potential",
    "bounded_noise_potential", "step_potential", "table_potential", "validate_p2",
    "hamiltonian_with_potential", "P2ValidationError",
]

CONDITIONING_LIMIT = 50.0
P2_GROWTH_GATE = 1.5    # validate_p2: largest full-over-inner constant ratio accepted

# second-difference weights, interior rows, by order
_W2 = {
    2: [2.0, -1.0],
    4: [30.0 / 12.0, -16.0 / 12.0, 1.0 / 12.0],
    6: [49.0 / 18.0, -3.0 / 2.0, 3.0 / 20.0, -1.0 / 90.0],
}


def DirichletGrid(n: int, N: int, L: float) -> Grid:
    """The interior nodes of [-L, L]^n, as Grid(n, N, L, "dirichlet")."""
    return Grid(n, N, L, "dirichlet")


class HamiltonianMatrix:
    """A grid operator, stored as a scipy CSR matrix (``sparse``);
    ``data`` gives a dense copy, materialised on each access."""

    def __init__(self, data, grid: Grid, provenance: str):
        from scipy import sparse
        matrix = sparse.csr_array(data, dtype=float)
        side = grid.side()
        if matrix.shape != (side, side):
            raise ValueError("matrix shape does not match the grid")
        self.sparse = matrix
        self.grid = grid
        self.provenance = provenance

    @property
    def data(self) -> np.ndarray:
        return self.sparse.toarray()


def second_derivative(N: int, h: float, order: int = 6, bc: str = "dirichlet") -> np.ndarray:
    """Matrix for -d^2/dx^2, PSD.  Dirichlet rows truncate the stencil at
    the wall (zero extension); periodic rows wrap."""
    if order not in _W2:
        raise ValueError(f"order must be one of {sorted(_W2)}")
    w = _W2[order]
    A = np.zeros((N, N))
    idx = np.arange(N)
    A[idx, idx] = w[0]
    for k in range(1, len(w)):
        if bc == "dirichlet":
            A[idx[:-k], idx[k:]] = w[k]
            A[idx[k:], idx[:-k]] = w[k]
        elif bc == "periodic":
            A[idx, (idx + k) % N] += w[k]
            A[idx, (idx - k) % N] += w[k]
        else:
            raise ValueError("bc must be dirichlet or periodic")
    return A / h**2


def tensor_stencil_matrix(fields, grid: Grid, order: int = 6, confined: bool = False,
                          provenance: str = "") -> HamiltonianMatrix:
    """sum_j c_j(x) (-d^2/dx_axis^2), plus |x|^2 when confined, as a
    Kronecker sum of stencils for the grid's boundary.  fields holds
    (axis, c), c = b^2 of the field b(x) d/dx_axis as a JetExpr over
    (x, xi), None for b = 1.  Each axis must be one of the grid's, and
    each c's tree must prove it constant along its own axis, which keeps
    the sum symmetric and PSD; ValueError otherwise."""
    from scipy import sparse
    D2 = sparse.csr_array(second_derivative(grid.N, grid.h, order, grid.boundary))
    X = grid.mesh()
    Z = np.hstack([X, np.zeros_like(X)])
    total = None
    for axis, c in fields:
        if not 0 <= axis < grid.n:
            raise ValueError(f"field axis {axis} is not an axis of a grid of dimension {grid.n}")
        if c is not None and not c.diff(axis).is_zero:
            raise ValueError(f"the coefficient of the field on axis {axis} varies along it")
        factors = [sparse.eye_array(grid.N)] * grid.n
        factors[axis] = D2
        K = functools.reduce(lambda A, B: sparse.kron(A, B, format="csr"), factors)
        if c is not None:
            # the product leaves rows unsorted; sorting restores the entry
            # order the solvers sum in
            K = (sparse.diags_array(np.asarray(c.eval(Z), dtype=float)) @ K).sorted_indices()
        total = K if total is None else total + K
    if confined:
        total = total + sparse.diags_array(quadratic_potential(grid).values)
    return HamiltonianMatrix(total, grid, provenance=provenance)


# -- potentials -------------------------------------------------------------

@dataclass
class Potential:
    values: np.ndarray
    descriptor: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("potential must be finite on the grid")


def quadratic_potential(grid: Grid) -> Potential:
    return Potential((grid.mesh() ** 2).sum(axis=1), "quadratic")


def bounded_noise_potential(grid: Grid, amplitude: float = 1.0,
                            seed: int = 0) -> Potential:
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-amplitude, amplitude, size=grid.side())
    return Potential(vals, f"bounded_noise(amplitude={amplitude:g},seed={seed})")


def step_potential(grid: Grid, amplitude: float = 1.0,
                   base: float = 0.0) -> Potential:
    """base + amplitude * (floor(x1) mod 2): bounded, discontinuous."""
    x1 = grid.mesh()[:, 0]
    vals = base + amplitude * (np.floor(x1) % 2)
    return Potential(vals, f"step(amplitude={amplitude:g},base={base:g})")


def table_potential(grid: Grid, path) -> Potential:
    vals = np.loadtxt(path, delimiter=",").ravel()
    if vals.size != grid.side():
        raise ValueError(f"table has {vals.size} values, grid needs {grid.side()}")
    return Potential(vals, f"table({path})")


@dataclass
class P2Report:
    passed: bool
    v1_ok: bool
    v2_ok: bool
    C: float
    C2: float
    v1_growth: float
    v2_growth: float
    witnesses: list = field(default_factory=list)


def validate_p2(V, X) -> P2Report:
    """Quadratic-growth and lower-bound gates, by radial stabilization.

    On a finite sample every constant is finite; what distinguishes an
    admissible potential is that the fitted constants stop growing with
    the sampled radius.  The sample is split at the median radius and
    the inner-ball constants compared with the full ones: each may grow
    by at most P2_GROWTH_GATE.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    vals = V.values if isinstance(V, Potential) else np.asarray(V, dtype=float)
    if vals.shape[0] != X.shape[0]:
        raise ValueError("value/sample length mismatch")
    r2 = (X * X).sum(axis=1)
    if np.sqrt(np.max(r2)) < 10.0:
        raise ValueError("sample must reach |x| >= 10")
    ratio = np.abs(vals) / np.maximum(r2, 1.0)
    neg = np.maximum(-vals, 0.0)
    rmed = np.median(r2)
    inner = r2 <= rmed
    C_inner = float(np.max(ratio[inner]))
    C_full = float(np.max(ratio))
    C2_inner = float(np.max(neg[inner]))
    C2_full = float(np.max(neg))
    v1_growth = C_full / max(C_inner, 1e-300)
    v2_growth = C2_full / max(C2_inner, 1e-12) if C2_full > 1e-12 else 1.0
    v1_ok = v1_growth <= P2_GROWTH_GATE
    v2_ok = v2_growth <= P2_GROWTH_GATE
    witnesses = []
    if not v1_ok:
        i = int(np.argmax(ratio))
        witnesses.append(("V1", X[i].tolist(), float(vals[i])))
    if not v2_ok:
        i = int(np.argmax(neg))
        witnesses.append(("V2", X[i].tolist(), float(vals[i])))
    return P2Report(passed=v1_ok and v2_ok, v1_ok=v1_ok, v2_ok=v2_ok,
                    C=C_full, C2=C2_full, v1_growth=v1_growth,
                    v2_growth=v2_growth, witnesses=witnesses)


class P2ValidationError(ValueError):
    pass


def hamiltonian_with_potential(kinetic: HamiltonianMatrix, V: Potential,
                               override: bool = False) -> HamiltonianMatrix:
    from scipy import sparse
    grid = kinetic.grid
    if not override:
        report = validate_p2(V, grid.mesh())
        if not report.passed:
            raise P2ValidationError(f"potential fails the class gates: {report.witnesses}")
    ratio = grid.h**2 * float(np.max(np.abs(V.values)))
    if ratio > CONDITIONING_LIMIT:
        raise ValueError(f"h^2 * max|V| = {ratio:.3g} exceeds conditioning limit")
    return HamiltonianMatrix(kinetic.sparse + sparse.diags_array(V.values), grid,
                             provenance=f"{kinetic.provenance}+{V.descriptor}")

