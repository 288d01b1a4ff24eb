"""Shared oracles: symbolic derivative tables, localized trial states and
call counters."""
import numpy as np
import sympy as sp

from weylab._jets import UnsupportedOrderError


def uni_table(expr, var, depth=8):
    """table(order, t) suitable for JUni, derivatives taken symbolically."""
    fns = [sp.lambdify(var, sp.diff(expr, var, k), "numpy")
           for k in range(depth + 1)]

    def table(order, t):
        if order > depth:
            raise UnsupportedOrderError(f"symbolic table depth {depth} exceeded")
        t = np.asarray(t, dtype=float)
        return np.asarray(fns[order](t), dtype=float) * np.ones_like(t)

    return table


def gaussian_packets(grid, count=6, seed=0):
    """Normalized envelope-times-plane-wave states well inside the box."""
    rng = np.random.default_rng(seed)
    pts = grid.points
    out = []
    for _ in range(count):
        center = rng.uniform(-1.0, 1.0)
        width = rng.uniform(0.8, 1.4)
        k = int(rng.integers(-grid.N // 8, grid.N // 8 + 1))
        u = (np.exp(-((pts - center) ** 2) / (2.0 * width**2))
             * np.exp(2j * np.pi * k * pts / (2.0 * grid.L)))
        out.append(u / np.linalg.norm(u))
    return out


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name for the test; returns the list of the shapes of
    the first argument of each call."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls
