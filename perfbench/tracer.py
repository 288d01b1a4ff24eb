"""Span recorder for the traced run, wrapped around weylab from outside.

``Tracer.install()`` replaces the public functions of weylab's layers, and
the numpy/scipy linear-algebra entry points they call, with wrappers that
record one span (name, layer, start, end, parent) per call and update a
few counters.  Spans and counters stay in memory; ``summary()`` derives
self times from them and ``dump()`` writes the spans out at the end.

Counting work (distinct-value counts, matrix fingerprints, flop
estimates) runs after the wrapped call returns and is itself recorded as
a ``trace.bookkeeping`` span, so it is charged to the trace layer and
not to the caller's self time.  Every span's self time is its duration
minus the time its direct children cover, so the layer self times plus
the time no span covers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import re
import sys
import time
from collections import defaultdict

import numpy as np

now = time.perf_counter

# layer -> (module, [(attribute or Class.method, counting hook or None)]).
# Targets a later refactor removes are skipped and listed in
# ``Tracer.missing``, as are counters that no longer fit their call.
LAYER_TARGETS = {
    "profiles": ("weylab.profiles", [
        ("CutoffProfileSquared.__call__", "profile_points"),
        ("CutoffProfileSquared.derivative", "profile_points"),
        ("smoothstep", None), ("eta", None), ("band_bump", None)]),
    "metric": ("weylab.metric", [
        ("WeightEvaluator.m_values", "m_points"),
        ("bracket_sq", None), ("eval_weight", None), ("eval_metric", None),
        ("eval_dual_metric", None), ("planck", None), ("pair_sample", None),
        ("check_uncertainty", None), ("check_slowness", None),
        ("check_temperateness", None), ("check_gweight", None)]),
    "symbols": ("weylab.symbols", [
        ("PolySymbol.eval", None), ("PolySymbol.derivative", None),
        ("SymbolEvaluator.eval", None), ("SymbolEvaluator.derivative", None),
        ("smg_seminorm", None), ("class_membership", None), ("box_sample", None),
        ("band_restrict", None), ("weight_symbol_evaluator", None),
        ("with_confinement", None), ("daho_symbol", None), ("harmonic_a2", None),
        ("grushin_a2", None)]),
    "quantize": ("weylab.quantize", [
        ("tau_quantize", "quantize"), ("kn_quantize", None), ("weyl_quantize", None),
        ("identity_symbol_matrix", None), ("sobolev_norm", None)]),
    "hamiltonians": ("weylab.hamiltonians", [
        ("harmonic_matrix", "assembly"), ("daho_matrix", "assembly"),
        ("grushin_kinetic", "assembly"), ("single_field_kinetic", "assembly"),
        ("sum_of_squares_matrix", "assembly"), ("hamiltonian_with_potential", "assembly"),
        ("constant_shift", "assembly"), ("second_derivative", None),
        ("quadratic_potential", None), ("bounded_noise_potential", None),
        ("step_potential", None), ("table_potential", None), ("validate_p2", None),
        ("fractional_power", None)]),
    "spectral": ("weylab.spectral", [
        ("eigensolve", "eigensolve"), ("singular_values", None), ("schatten_norm", None),
        ("weyl_inequality_check", None), ("growth_fit", None),
        ("phase_box_integral", "quadrature"), ("band_slope", "quadrature"),
        ("schatten_criterion_experiment", None)]),
    "evolve": ("weylab.evolve", [
        ("schrodinger_evolve", "evolve"), ("heat_evolve", "evolve"),
        ("fractional_evolve", "evolve"), ("Propagator.__init__", None),
        ("Propagator.apply", None)]),
    "bounds": ("weylab.bounds", [
        ("linf_band_probe", None), ("lp_window_probe", None),
        ("subellipticity_probe", None), ("periodic_laplacian", None),
        ("periodic_grushin", None), ("periodic_single_field", None)]),
    "cli": ("weylab.cli", [("run_config", None)]),
    "output": ("weylab._output", [
        ("write_csv_atomic", None), ("write_json_atomic", None),
        ("write_bytes_atomic", "output_bytes")]),
}

# Decompositions and solves: numpy's, and scipy's dense and sparse entry
# points (wrapped only when scipy imports).
LINALG_TARGETS = [
    ("numpy.linalg", ["eigh", "eigvalsh", "svd", "inv", "solve", "eig", "eigvals",
                      "cholesky", "qr", "lstsq"]),
    ("scipy.linalg", ["eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "inv",
                      "solve", "lu", "lu_factor", "cho_factor", "cholesky", "ldl",
                      "eigh_tridiagonal", "eigvalsh_tridiagonal", "solve_banded",
                      "solveh_banded"]),
    ("scipy.sparse.linalg", ["eigsh", "eigs", "svds", "lobpcg", "splu", "spilu",
                             "spsolve", "factorized"]),
]

# namespaces that may hold a second reference to a wrapped function
_EXTRA_NAMESPACES = ["numpy.linalg._linalg", "numpy.linalg.linalg"]

# Computed flop estimates for one dense call on an n x n real input
# (Golub & Van Loan counts); complex inputs count four times as much.
_FLOPS = {
    "eigh": lambda n, vec: 9 * n**3 if vec else 4 * n**3 / 3,
    "eigvalsh": lambda n, vec: 4 * n**3 / 3,
    "svd": lambda n, vec: 21 * n**3 if vec else 8 * n**3 / 3,
    "svdvals": lambda n, vec: 8 * n**3 / 3,
    "inv": lambda n, vec: 2 * n**3,
    "solve": lambda n, vec: 2 * n**3 / 3,
    "lu": lambda n, vec: 2 * n**3 / 3,
    "lu_factor": lambda n, vec: 2 * n**3 / 3,
    "eig": lambda n, vec: 25 * n**3,
    "eigvals": lambda n, vec: 10 * n**3,
    "cholesky": lambda n, vec: n**3 / 3,
    "cho_factor": lambda n, vec: n**3 / 3,
    "ldl": lambda n, vec: n**3 / 3,
    "qr": lambda n, vec: 4 * n**3 / 3,
    "lstsq": lambda n, vec: 8 * n**3 / 3,
}

_KRYLOV = re.compile(r"m=(\d+)")


def _fingerprint(a) -> tuple:
    """Cheap identity of a matrix: shape, dtype, full sum, strided sample."""
    if hasattr(a, "tocsr"):  # scipy sparse
        a = a.tocsr()
        parts = (a.data, a.indices.astype(np.int64), a.indptr.astype(np.int64))
    else:
        parts = (np.asarray(a),)
    h = hashlib.sha1()
    for p in parts:
        flat = np.ascontiguousarray(p).reshape(-1)
        h.update(flat[:: max(1, flat.size // 65536)].tobytes())
        h.update(repr(complex(flat.sum())).encode())
    return (parts[0].shape, str(parts[0].dtype), h.hexdigest())


def _arguments(sig, args, kwargs) -> dict:
    """Call arguments by parameter name, defaults filled in."""
    try:
        bound = sig.bind(*args, **kwargs)
    except (AttributeError, TypeError):
        return {f"arg{i}": v for i, v in enumerate(args)} | kwargs
    bound.apply_defaults()
    return dict(bound.arguments)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.fingerprints = set()
        self.missing = []
        self.enabled = False

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook):
        tracer = self
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            # a decomposition that calls another entry point is one call
            if not tracer.enabled or (layer == "linalg" and stack
                                      and tracer.spans[stack[-1]][1] == "linalg"):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            span = [name, layer, now(), 0.0, parent]
            tracer.spans.append(span)
            stack.append(idx)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[3] = now()
                stack.pop()
                if hook is not None:
                    t0 = now()
                    try:
                        hook(tracer, name, _arguments(sig, args, kwargs), result, error)
                    except Exception as exc:  # a counter must never change the run
                        tracer.missing.append(f"{name} counter: {exc!r}")
                    tracer.spans.append(["trace.bookkeeping", "trace", t0, now(), parent])

        return wrapper

    def _replace(self, orig, wrapper, namespaces) -> None:
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapper)

    def install(self) -> None:
        """Wrap every target; call after weylab is imported."""
        import weylab  # noqa: F401  (loads every layer module)

        for mod_name in ("scipy.linalg", "scipy.sparse.linalg"):
            try:
                importlib.import_module(mod_name)
            except ImportError:
                pass
        namespaces = [m for k, m in list(sys.modules.items())
                      if m is not None and (k == "weylab" or k.startswith("weylab."))]
        namespaces += [sys.modules[k] for k in _EXTRA_NAMESPACES if k in sys.modules]
        for layer, (mod_name, targets) in LAYER_TARGETS.items():
            mod = sys.modules.get(mod_name)
            for attr, hook_name in targets:
                hook = _HOOKS[hook_name] if hook_name else None
                span_name = f"{layer}.{attr}"
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = (owner.__dict__.get(meth) if owner_name else getattr(mod, meth, None)) \
                    if owner is not None else None
                if not callable(orig):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(orig, span_name, layer, hook)
                if owner_name:
                    setattr(owner, meth, wrapper)
                else:
                    self._replace(orig, wrapper, namespaces + [mod])
        for mod_name, names in LINALG_TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            short = mod_name.split(".")[0]
            for fname in names:
                orig = getattr(mod, fname, None)
                if not callable(orig):
                    continue
                wrapper = self._wrap(orig, f"linalg.{short}.{fname}", "linalg",
                                     functools.partial(_linalg_hook, fname))
                self._replace(orig, wrapper, namespaces + [mod])

    # -- results ------------------------------------------------------------

    def _outermost(self, names) -> tuple:
        """(count, inclusive seconds) of spans in `names` with no ancestor in it."""
        count, total = 0, 0.0
        spans = self.spans
        for name, _, t0, t1, parent in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][4]
            if p < 0:
                count += 1
                total += t1 - t0
        return count, total

    def summary(self, wall: float) -> dict:
        """Per-layer metrics for a traced pass of length `wall` seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        top = 0.0
        for name, _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                top += t1 - t0
        layer_self = defaultdict(float)
        name_self = defaultdict(float)
        for i, (name, layer, t0, t1, _) in enumerate(spans):
            s = (t1 - t0) - child[i]
            layer_self[layer] += s
            name_self[name] += s
        c, mx = self.counts, self.maxima
        names = {s[0] for s in spans}
        pick = lambda prefix, end="": {n for n in names  # noqa: E731
                                       if n.startswith(prefix) and n.endswith(end)}
        assembly = {f"hamiltonians.{a}" for a, h in LAYER_TARGETS["hamiltonians"][1]
                    if h == "assembly"}
        out = {
            "profiles.points": c["profile_points"],
            "profiles.bridge_points": c["profile_bridge"],
            "profiles.distinct_frac": c["profile_distinct"] / max(c["profile_points"], 1),
            "metric.m_points": c["m_points"],
            "metric.m_self_s": name_self["metric.WeightEvaluator.m_values"],
            "symbols.seminorm_calls": self._outermost({"symbols.smg_seminorm"})[0],
            "symbols.seminorm_self_s": name_self["symbols.smg_seminorm"],
            "quantize.calls": c["quantize_calls"],
            "quantize.side_max": mx["quantize_side"],
            "hamiltonians.assembly_calls": self._outermost(assembly)[0],
            "hamiltonians.assembly_s": self._outermost(assembly)[1],
            "hamiltonians.dense_bytes": mx["dense_bytes"],
            "hamiltonians.stored_bytes": mx["stored_bytes"],
            "hamiltonians.nnz_frac": c["nnz"] / max(c["entries"], 1),
            "hamiltonians.fractional_power_calls": self._outermost(
                {"hamiltonians.fractional_power"})[0],
            "hamiltonians.fractional_power_s": self._outermost(
                {"hamiltonians.fractional_power"})[1],
            "spectral.eigensolve_calls": c["eigensolve_calls"],
            "spectral.eigensolve_s": self._outermost({"spectral.eigensolve"})[1],
            "spectral.eigensolve_failed": c["eigensolve_failed"],
            "spectral.krylov_m": mx["krylov_m"],
            "spectral.quadrature_points": c["quadrature_points"],
            "spectral.quadrature_s": self._outermost(
                {"spectral.phase_box_integral", "spectral.band_slope"})[1],
            "spectral.schatten_s": self._outermost({"spectral.schatten_norm"})[1],
            "evolve.calls": c["evolve_calls"],
            "evolve.steps": c["evolve_steps"],
            "evolve.s": self._outermost(pick("evolve.", "_evolve"))[1],
            "bounds.probe_s": self._outermost(pick("bounds.", "_probe"))[1],
            "linalg.decomp_calls": c["decomp_calls"],
            "linalg.decomp_s": self._outermost(pick("linalg."))[1],
            "linalg.decomp_distinct_frac": len(self.fingerprints) / max(c["decomp_calls"], 1),
            "linalg.decomp_flops": c["decomp_flops"],
            "cli.run_config_s": self._outermost({"cli.run_config"})[1],
            "output.bytes": c["output_bytes"],
            "output.s": self._outermost(pick("output."))[1],
            "trace.uncovered_s": wall - top,
            "trace.wall_s": wall,
        }
        for layer in list(LAYER_TARGETS) + ["linalg"]:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.bookkeeping_s"] = layer_self["trace"]
        out["trace.self_sum_s"] = sum(layer_self.values()) + out["trace.uncovered_s"]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "maxima": dict(self.maxima), "missing": self.missing}, fh)


# -- counting hooks: (tracer, span name, bound arguments, result, error) ------

def _profile_points(tr, name, a, result, error):
    t = np.abs(np.asarray(a.get("t"), dtype=float)).ravel()
    tr.counts["profile_points"] += t.size
    tr.counts["profile_bridge"] += int(np.count_nonzero((t > 2.0) & (t < 4.0)))
    tr.counts["profile_distinct"] += np.unique(t).size


def _m_points(tr, name, a, result, error):
    tr.counts["m_points"] += np.atleast_2d(np.asarray(a.get("Z"))).shape[0]


def _quantize(tr, name, a, result, error):
    tr.counts["quantize_calls"] += 1
    grid = a.get("grid")
    tr.maxima["quantize_side"] = max(tr.maxima["quantize_side"], grid.N ** grid.n)


def _assembly(tr, name, a, result, error):
    data = getattr(result, "data", result)
    if data is None or not hasattr(data, "shape"):
        return
    entries = data.shape[0] * data.shape[1]
    if hasattr(data, "nnz"):
        nnz = data.nnz
        stored = sum(getattr(data, k).nbytes for k in ("data", "indices", "indptr")
                     if hasattr(data, k))
    else:
        nnz = int(np.count_nonzero(data))
        stored = data.nbytes
    tr.counts["nnz"] += nnz
    tr.counts["entries"] += entries
    tr.maxima["dense_bytes"] = max(tr.maxima["dense_bytes"], entries * 8)
    tr.maxima["stored_bytes"] = max(tr.maxima["stored_bytes"], stored)


def _eigensolve(tr, name, a, result, error):
    tr.counts["eigensolve_calls"] += 1
    if error is not None:
        tr.counts["eigensolve_failed"] += 1
        return
    m = _KRYLOV.search(str(getattr(result, "solver", "")))
    if m:
        tr.maxima["krylov_m"] = max(tr.maxima["krylov_m"], int(m.group(1)))


def _quadrature(tr, name, a, result, error):
    w = a.get("w")
    tr.counts["quadrature_points"] += int(a.get("npts")) ** (2 * getattr(w, "n", 1))


def _evolve(tr, name, a, result, error):
    # fractional_evolve delegates to the other two; count the outer call only
    if any(tr.spans[i][0].endswith("_evolve") for i in tr.stack):
        return
    tr.counts["evolve_calls"] += 1
    tr.counts["evolve_steps"] += np.size(a.get("times"))


def _output_bytes(tr, name, a, result, error):
    tr.counts["output_bytes"] += len(a.get("data") or b"")


def _linalg_hook(fname, tr, name, a, result, error):
    if not a:
        return
    mat = next(iter(a.values()))
    tr.counts["decomp_calls"] += 1
    try:
        tr.fingerprints.add(_fingerprint(mat))
    except (TypeError, ValueError, AttributeError):
        return
    est = _FLOPS.get(fname)
    shape = getattr(mat, "shape", ())
    if est is None or len(shape) != 2 or hasattr(mat, "tocsr"):
        return
    vec = bool(a.get("compute_uv", True)) and not a.get("eigvals_only", False)
    factor = 4 if np.iscomplexobj(mat) else 1
    tr.counts["decomp_flops"] += factor * est(min(shape), vec)


_HOOKS = {"profile_points": _profile_points, "m_points": _m_points, "quantize": _quantize,
          "assembly": _assembly, "eigensolve": _eigensolve, "quadrature": _quadrature,
          "evolve": _evolve, "output_bytes": _output_bytes}
