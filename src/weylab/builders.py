"""Named builders addressable from config files.

One table states each model once: its dimension, its axis-aligned fields
b(x) d/dx_axis as (axis, c) with c = b^2 a jet expression in x, and
whether |x|^2 confinement is added.  Its principal symbol, weight and
grid operators derive from that entry.  Each entry carries the parameter
schema the command-line listing prints; params are plain config dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import hamiltonians as ham
from ._jets import JPowerSum, JUni, UnsupportedOrderError
from .metric import WeightEvaluator
from .profiles import PROFILE_DERIV_ORDERS, CutoffProfileSquared
from .symbols import PolySymbol

__all__ = ["Model", "symbol_names", "weight_names", "operator_names",
           "potential_names", "get_a2", "get_weight", "get_operator",
           "get_kinetic", "get_potential", "describe_builders", "UnknownBuilderError",
           "ConfigError", "MissingKeyError", "need"]


class UnknownBuilderError(KeyError):
    pass


class ConfigError(ValueError):
    pass


class MissingKeyError(ConfigError, KeyError):
    """A required key is absent: a KeyError, as the plain lookup was,
    whose message prints unquoted."""
    __str__ = ValueError.__str__


def need(cfg, key):
    """cfg[key] from a config or params dict."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected an object holding {key!r}, got {type(cfg).__name__}")
    if key not in cfg:
        raise MissingKeyError(f"config missing required key {key!r}")
    return cfg[key]


@dataclass(frozen=True)
class Model:
    """Sum of squares of axis-aligned fields on R^n, plus |x|^2 when confined."""
    label: str
    n: int
    fields: tuple   # (axis, c): c = b^2 as a JetExpr over (x, xi), None for b = 1
    confined: bool

    def a2(self) -> PolySymbol:
        """The principal symbol sum_j c_j(x) xi_axis^2."""
        nv = 2 * self.n
        return PolySymbol(self.n, {
            tuple(2 if j == axis else 0 for j in range(self.n)):
                JPowerSum.constant(nv, 1.0) if c is None else c
            for axis, c in self.fields})

    def operator(self, grid, order: int = 6) -> ham.HamiltonianMatrix:
        if grid.n != self.n:
            raise ValueError(f"{self.label} is defined on {self.n} dimension(s)")
        return ham.tensor_stencil_matrix(self.fields, grid, order, self.confined,
                                         provenance=self.label)


def _profile_table(profile: CutoffProfileSquared):
    def table(order, t):
        if order == 0:
            return profile(t)
        if order > PROFILE_DERIV_ORDERS:
            raise UnsupportedOrderError(f"profile jets stop at order {PROFILE_DERIV_ORDERS}")
        return profile.derivative(t, order)

    return table


def _harmonic(p):
    n = int(p.get("n", 2))
    return Model("harmonic", n, tuple((j, None) for j in range(n)), confined=True)


def _daho(p):
    c_prime = float(p.get("c_prime", 3.0))
    c = JUni(4, 0, _profile_table(CutoffProfileSquared(c_prime)))
    return Model(f"daho(c_prime={c_prime:g})", 2, ((0, None), (1, c)), confined=True)


_MODELS = {
    # the elliptic control: every field constant
    "harmonic": ("n: int = 2", _harmonic),
    # the degenerate oscillator: c on the x2 axis is the squared plateau
    # profile of x1, with jets from the exact bridge derivative table
    "daho": ("c_prime: float = 3", _daho),
    # the untruncated degenerate model: c = x1^2 on the x2 axis
    "grushin_pure": ("", lambda p: Model(
        "grushin_pure", 2, ((0, None), (1, JPowerSum.monomial(4, (2, 0, 0, 0)))),
        confined=False)),
    # one field d/dx1 in two dimensions; deliberately non-spanning
    "single_field": ("", lambda p: Model("single_field", 2, ((0, None),), confined=False)),
}

_WEIGHTS = {
    "broken_half_bracket": ("n: int = 2; fails the uncertainty gate by design",
                            lambda p: WeightEvaluator.half_bracket(int(p.get("n", 2)))),
}


def _sum_of_squares_op(grid, p):
    fields = []
    for axis, coeff in p.get("fields", [[0, "1"], [1, "1"]]):
        if coeff == "1":
            fields.append((int(axis), None))
        elif coeff == "x1":
            fields.append((int(axis), lambda X: X[:, 0]))
        else:
            raise UnknownBuilderError(f"unknown field coefficient {coeff!r}")
    return ham.sum_of_squares_matrix(fields, grid)


_OPERATORS = {
    "sum_of_squares": ("fields: list of [axis, coeff] with coeff in {1, x1}", _sum_of_squares_op),
}

_POTENTIALS = {
    "quadratic": ("", lambda g, p: ham.quadratic_potential(g)),
    "bounded_noise": ("amplitude: float = 1, seed: int",
                      lambda g, p: ham.bounded_noise_potential(
                          g, float(p.get("amplitude", 1.0)), int(need(p, "seed")))),
    "step": ("amplitude: float = 1, base: float = 0",
             lambda g, p: ham.step_potential(g, float(p.get("amplitude", 1.0)),
                                             float(p.get("base", 0.0)))),
    "table": ("file: path to CSV of grid values", lambda g, p: ham.table_potential(g, p["file"])),
}


def _lookup(table, kind, name, others=()):
    if name not in table:
        raise UnknownBuilderError(f"unknown {kind} builder {name!r}; "
                                  f"available: {', '.join(sorted([*table, *others]))}")
    return table[name]


def _params(params) -> dict:
    """A builder's params: None for no parameters, else a config object."""
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise ConfigError(f"params must be an object, got {type(params).__name__}")
    return params


def _model(name, params, kind, others=()) -> Model:
    return _lookup(_MODELS, kind, name, others)[1](_params(params))


def symbol_names():
    """The models with a field on every axis; the non-spanning single
    field is an operator control."""
    models = {name: make({}) for name, (_, make) in _MODELS.items()}
    return sorted(name for name, m in models.items()
                  if {axis for axis, _ in m.fields} == set(range(m.n)))


def weight_names():
    return sorted(symbol_names() + list(_WEIGHTS))


def operator_names():
    return sorted([*_MODELS, *_OPERATORS])


def potential_names():
    return sorted(_POTENTIALS)


def get_a2(name: str, params: Optional[dict] = None) -> PolySymbol:
    return _model(name, params, "symbol").a2()


def get_weight(name: str, params: Optional[dict] = None) -> WeightEvaluator:
    if name in _WEIGHTS:
        return _WEIGHTS[name][1](_params(params))
    return WeightEvaluator.from_a2(_model(name, params, "weight", _WEIGHTS).a2(), name=name)


def get_operator(name: str, grid, params: Optional[dict] = None):
    """A DirichletGrid gives the Dirichlet operator, a periodic
    quantize.Grid the periodic one (models only)."""
    params = _params(params)
    if name in _OPERATORS:
        return _OPERATORS[name][1](grid, params)
    # a model's dimension, where it has a choice, is its grid's
    model = _model(name, {**params, "n": grid.n}, "operator", _OPERATORS)
    return model.operator(grid, int(params.get("order", 6)))


def get_kinetic(name: str, grid):
    """A kinetic operator for periodic boxes, where |x|^2 has no periodic
    meaning: an unconfined model, or "laplacian", the harmonic model's
    kinetic part."""
    kinetic = {key: make for key, (_, make) in _MODELS.items() if not make({}).confined}
    kinetic["laplacian"] = lambda p: replace(_harmonic(p), confined=False)
    return _lookup(kinetic, "kinetic operator", name)({"n": grid.n}).operator(grid)


def get_potential(name: str, grid, params: Optional[dict] = None):
    return _lookup(_POTENTIALS, "potential", name)[1](grid, _params(params))


def describe_builders() -> str:
    lines = []
    for title, table in (("models (symbol, weight and operator; an operator also takes "
                           "order: int = 6)", _MODELS), ("weights", _WEIGHTS),
                         ("operators", _OPERATORS), ("potentials", _POTENTIALS)):
        lines.append(f"{title}:")
        for name in sorted(table):
            schema = table[name][0] or "(no parameters)"
            lines.append(f"  {name:22s} {schema}")
    return "\n".join(lines)
