"""The export lists: every name a module advertises must exist."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import weylab

MODULES = sorted(m.name for m in pkgutil.iter_modules(weylab.__path__, "weylab."))


@pytest.mark.parametrize("name", ["weylab"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_star_import_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("from weylab import *\n"
            "import weylab\n"
            "print(all(n in globals() for n in weylab.__all__))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_only_spectral_decomposes():
    # one module owns every eigendecomposition, so each one passes the
    # same certificate: no other module calls or imports an eigensolver
    solvers = {"eigh", "eigvalsh", "eigsh"}
    root = os.path.dirname(os.path.abspath(weylab.__file__))
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py") or name == "spectral.py":
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if called in solvers:
                    found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{name}:{node.lineno}" for a in node.names if a.name in solvers]
    assert found == []


def _reaches(node, names) -> bool:
    """node names one of names: a call or use of the bare name, an
    attribute, or an import."""
    return ((isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)))


BAND_FACTORS = ("cholesky_banded", "cho_solve_banded")


def test_only_spectral_factors():
    # one module owns every factorization, as it owns every
    # eigendecomposition: no other module reaches splu or the banded
    # Cholesky, by call, import or attribute
    root = os.path.dirname(os.path.abspath(weylab.__file__))
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py") or name == "spectral.py":
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [f"{name}:{n.lineno}" for n in ast.walk(tree)
                  if _reaches(n, ("splu",) + BAND_FACTORS)]
    assert found == []


def _reached_only_in(fn_name, names):
    """The lines of spectral.py outside fn_name that reach one of names,
    and the calls inside fn_name to one of them, by name."""
    path = os.path.join(os.path.dirname(os.path.abspath(weylab.__file__)), "spectral.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    fn = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == fn_name]
    assert len(fn) == 1
    inside = {id(n) for n in ast.walk(fn[0])}
    outside = [n.lineno for n in ast.walk(tree) if _reaches(n, names) and id(n) not in inside]
    calls = [n for n in ast.walk(fn[0]) if isinstance(n, ast.Call) and _reaches(n.func, names)]
    return outside, sorted(_called_name(n) for n in calls)


def _called_name(call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else f.id


def test_spectral_factors_only_in_ldlt():
    # _ldlt refuses off-diagonal pivoting and factors in symmetric mode,
    # so its pivots are the inertia that certifies every count at tau; no
    # other function of spectral.py may reach splu, by call, import or
    # attribute
    outside, calls = _reached_only_in("_ldlt", ("splu",))
    assert outside == []
    assert calls == ["splu"]


def test_spectral_band_factors_only_in_band_cholesky():
    # _band_cholesky is the one positive-definite test of a Lanczos shift
    # and the one solve built on its factor; no other function of
    # spectral.py may reach cholesky_banded or cho_solve_banded, by call,
    # import or attribute
    outside, calls = _reached_only_in("_band_cholesky", BAND_FACTORS)
    assert outside == []
    assert calls == ["cho_solve_banded", "cholesky_banded"]


def _dead_locals(fn):
    """Names that fn binds by plain assignment (=, an annotated value,
    :=, with ... as, except ... as) in its own scope and never reads,
    there or in a scope nested in it.  Unpacked tuples and loop targets
    are not counted: they bind every name a value yields."""
    stores, loads, shared = {}, set(), set()

    def own_scope(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                  ast.ClassDef)):
                continue
            yield child
            yield from own_scope(child)

    for node in own_scope(fn):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            targets = [node.target] if getattr(node, "value", None) is not None else []
        elif isinstance(node, ast.withitem):
            targets = [node.optional_vars]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            stores.setdefault(node.name, node.lineno)
            targets = []
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            shared.update(node.names)
            targets = []
        else:
            targets = []
        for t in targets:
            if isinstance(t, ast.Name):
                stores.setdefault(t.id, t.lineno)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            loads.add(node.target.id)
    return sorted((line, name) for name, line in stores.items()
                  if name not in loads | shared and name != "_")


def test_no_function_assigns_a_local_it_never_reads():
    # pyflakes' "local variable is assigned to but never used", without
    # a linter among the dependencies
    root = os.path.dirname(os.path.abspath(weylab.__file__))
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}:{line} {fn.name}: {local}" for line, local in _dead_locals(fn)]
    assert found == []
