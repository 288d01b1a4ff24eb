"""Named builders addressable from config files, and the config reader.

One table states each model once: its dimension, its axis-aligned fields
b(x) d/dx_axis as (axis, c) with c = b^2 a jet expression in x, and
whether |x|^2 confinement is added.  Its principal symbol, weight and
grid operators derive from that entry.  Each entry declares its params
as a spec that ``read`` checks and the command-line listing prints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

from . import hamiltonians as ham
from ._jets import JPowerSum, JProd, JSum, JUni, UnsupportedOrderError
from .metric import WeightEvaluator
from .profiles import PROFILE_DERIV_ORDERS, CutoffProfileSquared
from .symbols import SymbolEvaluator

__all__ = ["Model", "symbol_names", "weight_names", "get_a2", "get_weight", "get_operator",
           "get_kinetic", "get_potential", "describe_builders", "UnknownBuilderError",
           "ConfigError", "MissingKeyError", "REQUIRED", "Tagged", "Bound", "COUNT",
           "POSITIVE", "read",
           "SYMBOL", "WEIGHT", "OPERATOR", "KINETIC", "POTENTIAL"]


class UnknownBuilderError(KeyError):
    __str__ = ValueError.__str__


class ConfigError(ValueError):
    pass


class MissingKeyError(ConfigError, KeyError):
    """A required key is absent: a KeyError, as the plain lookup was,
    whose message prints unquoted."""
    __str__ = ValueError.__str__


REQUIRED = object()   # the default of a key that has none
_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


@dataclass(frozen=True)
class Tagged:
    """A config object whose tag key names the spec of its other keys."""
    tag: str
    variants: dict   # tag value -> spec
    what: str        # what an unknown tag value is called in the error
    default: object = REQUIRED
    error: type = ConfigError


@dataclass(frozen=True)
class Bound:
    """A number of type t (int or float) that is at least low, or above
    low when strict."""
    t: type
    low: float
    strict: bool = False


COUNT = Bound(int, 1)                    # a size or a count of samples
POSITIVE = Bound(float, 0.0, strict=True)  # a length, a box or a radius


def _expect(ok, at, what, value):
    if not ok:
        got = "a list" if isinstance(value, list) else \
            "an object" if isinstance(value, dict) else json.dumps(value)
        raise ConfigError(f"{at or 'the config'} must be {what}, got {got}")


def read(t, value, at: str = ""):
    """The checked copy of the config value under type t; at names the
    value in error messages.

    A type is a spec {key: (type, default)} (an object), int (a JSON
    integer, not a boolean), float (any finite JSON number, stored as a float),
    bool, str, a Bound (an int or float with a lower bound), a tuple of the
    allowed values, [T] (a non-empty list of T), [T1, T2, ...] (a list of
    exactly those) or a Tagged.  A default of
    REQUIRED makes the key required, and null counts as absent.  A key
    outside the spec of a nested object (at given) is refused; at the top
    level it is ignored, and a Tagged object's tag key is in its spec.
    """
    if isinstance(t, dict):
        _expect(isinstance(value, dict), at, "an object", value)
        extra = [key for key in value if key not in t]
        if at and extra:
            raise ConfigError(f"unknown key {extra[0]!r} in {at}")
        out = {}
        for key, (kt, default) in t.items():
            v = value.get(key)
            if v is None and default is REQUIRED:
                raise MissingKeyError(f"config missing required key {key!r}")
            v = default if v is None else v
            out[key] = None if v is None else read(kt, v, f"{at}.{key}" if at else key)
        return out
    if isinstance(t, Tagged):
        _expect(isinstance(value, dict), at, "an object", value)
        tag = {t.tag: (str, t.default)}
        name = read(tag, {t.tag: value.get(t.tag)}, at)[t.tag]
        if name not in t.variants:
            raise t.error(f"unknown {t.what} {name!r}; "
                          f"available: {', '.join(sorted(t.variants))}")
        return read({**tag, **t.variants[name]}, value, at)
    if isinstance(t, Bound):
        v = read(t.t, value, at)
        _expect(v > t.low if t.strict else v >= t.low, at,
                f"{_NAMES[t.t]} {'above' if t.strict else 'of at least'} {t.low:g}", value)
        return v
    if isinstance(t, list):
        _expect(isinstance(value, list) and len(t) in (1, len(value)), at,
                "a list" if len(t) == 1 else f"a list of {len(t)}", value)
        if not value:
            raise ConfigError(f"{at or 'the config'} must not be empty")
        return [read(ti, v, f"{at}[{i}]") for i, (ti, v) in enumerate(zip(t * len(value), value))]
    if isinstance(t, tuple):
        _expect(any(type(value) is type(c) and value == c for c in t), at,
                " or ".join(map(json.dumps, t)), value)
        return value
    ok = type(value) is t or (t is float and type(value) is int)
    # json reads the non-JSON literals NaN and Infinity as floats
    _expect(ok and (t is not float or math.isfinite(value)), at, _NAMES[t], value)
    return float(value) if t is float else value


def _described(t) -> str:
    """The type t as the command-line listing prints it."""
    if isinstance(t, dict):
        return ", ".join(f"{key}: {_described(kt)}"
                         + ("" if d is REQUIRED else f" = {json.dumps(d)}")
                         for key, (kt, d) in t.items()) or "(no parameters)"
    if isinstance(t, list):
        return f"[{_described(t[0])}, ...]" if len(t) == 1 else \
            f"[{', '.join(map(_described, t))}]"
    if isinstance(t, tuple):
        return "|".join(map(json.dumps, t))
    if isinstance(t, Bound):
        return f"{t.t.__name__} {'>' if t.strict else '>='} {t.low:g}"
    return t.__name__


@dataclass(frozen=True)
class Model:
    """Sum of squares of axis-aligned fields on R^n, plus |x|^2 when confined.
    Its symbol and its operators take one term per field, in field order."""
    label: str
    n: int
    fields: tuple   # (axis, c): c = b^2 as a JetExpr over (x, xi), None for b = 1
    confined: bool

    def a2(self) -> SymbolEvaluator:
        """The principal symbol sum_j c_j(x) xi_axis^2, one tree."""
        nv = 2 * self.n
        return SymbolEvaluator(self.n, JSum([
            JProd([JPowerSum.constant(nv, 1.0) if c is None else c,
                   JPowerSum.monomial(nv, tuple(2 * (j == self.n + axis) for j in range(nv)))])
            for axis, c in self.fields]))

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

    table.parity = 1   # the squared profile depends on |t|
    return table


def _x1_squared(n: int):
    """c = b^2 of the field b = x1, over the phase space of n dimensions."""
    return JPowerSum.monomial(2 * n, (2,) + (0,) * (2 * n - 1))


def _harmonic(p):
    return Model("harmonic", p["n"], tuple((j, None) for j in range(p["n"])), confined=True)


def _daho(p):
    c = JUni(JPowerSum.monomial(4, (1, 0, 0, 0)),
             _profile_table(CutoffProfileSquared(p["c_prime"])))
    return Model(f"daho(c_prime={p['c_prime']:g})", 2, ((0, None), (1, c)), confined=True)


# each entry: name -> (params spec, make)
_MODELS = {
    # the elliptic control: every field constant
    "harmonic": ({"n": (COUNT, 2)}, _harmonic),
    # the degenerate oscillator: c on the x2 axis is the squared plateau
    # profile of x1, with jets from the exact bridge derivative table
    "daho": ({"c_prime": (float, 3.0)}, _daho),
    # the untruncated degenerate model: c = x1^2 on the x2 axis
    "grushin_pure": ({}, lambda p: Model(
        "grushin_pure", 2, ((0, None), (1, _x1_squared(2))), confined=False)),
    # one field d/dx1 in two dimensions; deliberately non-spanning
    "single_field": ({}, lambda p: Model("single_field", 2, ((0, None),), confined=False)),
}
_ORDER = {"order": (int, 6)}   # a model operator's stencil order

_WEIGHTS = {
    "broken_half_bracket": ({"n": (COUNT, 2)}, lambda p: WeightEvaluator.half_bracket(p["n"])),
}

_COEFFICIENTS = {"1": lambda n: None, "x1": _x1_squared}

_OPERATORS = {
    "sum_of_squares": (
        {"fields": ([[int, tuple(_COEFFICIENTS)]], [[0, "1"], [1, "1"]])},
        lambda grid, p: Model(
            f"sum_of_squares[{len(p['fields'])} fields]", grid.n,
            tuple((axis, _COEFFICIENTS[c](grid.n)) for axis, c in p["fields"]),
            confined=False).operator(grid, 2)),
}

_POTENTIALS = {
    "quadratic": ({}, lambda g, p: ham.quadratic_potential(g)),
    "bounded_noise": ({"amplitude": (float, 1.0), "seed": (int, REQUIRED)},
                      lambda g, p: ham.bounded_noise_potential(g, p["amplitude"], p["seed"])),
    "step": ({"amplitude": (float, 1.0), "base": (float, 0.0)},
             lambda g, p: ham.step_potential(g, p["amplitude"], p["base"])),
    "table": ({"file": (str, REQUIRED)}, lambda g, p: ham.table_potential(g, p["file"])),
}


def _model(name, params=None) -> Model:
    spec, make = _MODELS[name]
    return make(read(spec, params or {}, "params"))


def _ref(what, table, extra=None) -> Tagged:
    """The config type of a {name, params} reference into table."""
    return Tagged("name", {name: {"params": (spec, {}), **(extra or {})}
                           for name, (spec, _) in table.items()},
                  f"{what} builder", error=UnknownBuilderError)


SYMBOL = _ref("symbol", _MODELS)
WEIGHT = _ref("weight", {**_MODELS, **_WEIGHTS})
OPERATOR = _ref("operator", {**{name: ({**spec, **_ORDER}, make)
                                for name, (spec, make) in _MODELS.items()}, **_OPERATORS})
# periodic boxes, where |x|^2 has no periodic meaning: the unconfined
# models, and "laplacian", the harmonic model's kinetic part
KINETIC = _ref("kinetic operator", {name: ({}, None) for name in [*_MODELS, "laplacian"]
                                    if name == "laplacian" or not _model(name).confined})
POTENTIAL = _ref("potential", _POTENTIALS, {"override": (bool, False)})


def _params(ref: Tagged, name, params) -> dict:
    """The named builder's params, checked against the spec it declares."""
    return read(ref, {"name": name, "params": params})["params"]


def symbol_names():
    """The models with a field on every axis; the non-spanning single
    field is an operator control."""
    models = {name: _model(name) for name in _MODELS}
    return sorted(name for name, m in models.items()
                  if {axis for axis, _ in m.fields} == set(range(m.n)))


def weight_names():
    return sorted(symbol_names() + list(_WEIGHTS))


def get_a2(name: str, params: Optional[dict] = None) -> SymbolEvaluator:
    return _MODELS[name][1](_params(SYMBOL, name, params)).a2()


def get_weight(name: str, params: Optional[dict] = None) -> WeightEvaluator:
    p = _params(WEIGHT, name, params)
    if name in _WEIGHTS:
        return _WEIGHTS[name][1](p)
    return WeightEvaluator.from_a2(_MODELS[name][1](p).a2(), name=name)


def get_operator(name: str, grid, params: Optional[dict] = None):
    """The operator with the stencils of the grid's boundary."""
    p = _params(OPERATOR, name, params)
    if name in _OPERATORS:
        return _OPERATORS[name][1](grid, p)
    # a model's dimension, where it has a choice, is its grid's
    return _MODELS[name][1]({**p, "n": grid.n}).operator(grid, p["order"])


def get_kinetic(name: str, grid):
    """A kinetic operator for periodic boxes (see KINETIC)."""
    read(KINETIC, {"name": name})   # raises on an unknown name
    model = _model("harmonic", {"n": grid.n}) if name == "laplacian" else _model(name)
    return replace(model, confined=False).operator(grid)


def get_potential(name: str, grid, params: Optional[dict] = None):
    return _POTENTIALS[name][1](grid, _params(POTENTIAL, name, params))


def describe_builders() -> str:
    lines = []
    for title, table in (("models (symbol, weight and operator; an operator also takes "
                           f"{_described(_ORDER)})", _MODELS),
                         ("weights (each fails the uncertainty gate by design)", _WEIGHTS),
                         ("operators", _OPERATORS), ("potentials", _POTENTIALS)):
        lines.append(f"{title}:")
        for name in sorted(table):
            lines.append(f"  {name:22s} {_described(table[name][0])}")
    return "\n".join(lines)
