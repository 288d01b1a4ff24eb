"""No unreached code: every function of src/weylab runs in some workflow.

One fresh interpreter installs sys.setprofile before it imports weylab,
so calls made at import time count, and then drives ``weylab.cli.main``:
``run`` on every SMALL config of test_cli.py and on one config for each
path those miss, ``list-builders``, and ``reproduce`` of one manifest.
A ``def`` in src/weylab (a method, a property or a nested function too;
a lambda is not a def) that none of this calls fails the test, unless it
or its class is listed in KEPT with its reason.
"""
import ast
import json
import os
import subprocess
import sys
import textwrap

import weylab
from test_cli import SMALL

SRC = os.path.dirname(os.path.dirname(os.path.abspath(weylab.__file__)))

# qualified name -> why it stays although no workflow calls it
KEPT = {
    "weylab.builders.symbol_names":
        "the spanning-model filter that the symbol tests parametrize over",
    "weylab.builders.weight_names":
        "the symbol models plus the extra weights, which the weight tests parametrize over",
    "weylab.hamiltonians.DirichletGrid":
        "the Dirichlet grid constructor that perfbench/make_refs.py builds its reference on",
    "weylab.hamiltonians.HamiltonianMatrix.data":
        "the dense copy of an operator that perfbench/make_refs.py decomposes",
    "weylab.evolve.Propagator.apply":
        "the state at time t of a propagator, library API that README documents",
    "weylab.metric.eval_metric":
        "the split metric g at a point, library API that README documents",
    "weylab.metric.eval_dual_metric":
        "the symplectic dual of g at a point, library API that README documents",
    "weylab.profiles.CutoffProfileSquared.monotone_threshold":
        "the bridge's monotonicity condition, whose pinned value guards _bridge_constants",
    "weylab.profiles.CutoffProfileSquared.monotone":
        "whether a profile meets the bridge's monotonicity condition",
}

# the paths the SMALL configs miss, each with its exit code; the table
# file is written next to the configs, in the scan's working directory
EXTRA = [
    ("sum-of-squares", 0, {
        "kind": "spectrum", "grid": {"n": 2, "N": 12, "L": 4.0},
        "operator": {"name": "sum_of_squares", "params": {"fields": [[0, "1"], [1, "x1"]]}},
        "k": 3}),
    ("table-potential", 0, {
        "kind": "spectrum", "grid": {"n": 1, "N": 32, "L": 12.0},
        "operator": {"name": "harmonic"},
        "potential": {"name": "table", "params": {"file": "table.csv"}}, "k": 3}),
    ("half-bracket", 1, {
        "kind": "metric-check", "seed": 0, "weight": {"name": "broken_half_bracket"},
        "box": 20.0, "n_points": 500, "n_pairs": 400}),
    ("generic-tau", 0, {
        "kind": "quantize-identity", "grid": {"n": 1, "N": 16, "L": 4.0}, "tau": 0.25}),
    ("floor-fails", 1, {
        "kind": "spectrum", "grid": {"n": 1, "N": 24, "L": 8.0},
        "operator": {"name": "harmonic"}, "k": 3, "eigenvalue_floor": 5.0}),
    ("unknown-operator", 2, {
        "kind": "spectrum", "grid": {"n": 1, "N": 24, "L": 8.0},
        "operator": {"name": "no_such_operator"}}),
    ("shift-invert", 0, {
        "kind": "spectrum", "grid": {"n": 2, "N": 40, "L": 12.0},
        "operator": {"name": "daho"},
        "potential": {"name": "bounded_noise", "params": {"amplitude": 0.3, "seed": 2}},
        "k": 10}),
    ("lp-two-powers", 0, {**SMALL["lp-probe"], "kind": "lp-probe", "p_list": [2.0, 4.0]}),
    ("daho-class", 0, {
        "kind": "class-check", "seed": 0, "symbol": {"name": "daho"}, "order": 2,
        "halves": [10.0, 20.0], "n_grid": 3, "n_random": 50}),
    ("daho-sweep", 0, {
        "kind": "schatten-sweep", "weight": {"name": "daho"}, "Q": 3.0,
        "cells": [{"mu": 2.0, "r": 2.0}], "matrix_N": [8, 12], "box_L": [4.0],
        "box_npts": 8, "band_npts": 16}),
    ("schrodinger-evolve", 0, {
        "kind": "evolve", "grid": {"n": 1, "N": 16, "L": 6.0}, "operator": {"name": "harmonic"},
        "evolution": "schrodinger", "times": {"t0": 0.0, "t1": 0.2, "count": 5}}),
    ("daho-weyl-2d", 0, {
        "kind": "quantize-identity", "grid": {"n": 2, "N": 8, "L": 3.0}, "tau": 0.5,
        "symbol": {"name": "daho"}}),
]

# Runs in the fresh interpreter: argv is the source root, the package,
# the driver's code and the file the result goes to.  The profile hook
# records the code object of every Python call; the result lists the
# (file, first line) of those that belong to the package, and whatever
# the driver left in its `result` variable.
_SCANNER = textwrap.dedent("""
    import json, os, sys
    root, package, driver, out = sys.argv[1:5]
    sys.path.insert(0, root)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    scope = {}
    exec(driver, scope)
    sys.setprofile(None)
    pkg = os.path.join(root, package) + os.sep
    called = sorted({(os.path.relpath(c.co_filename, root), c.co_firstlineno)
                     for c in seen if c.co_filename.startswith(pkg)})
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"called": called, "result": scope.get("result")}, fh)
""")


def scan(root, package, driver, tmp_path):
    """(called, result): the (file, first line) pairs of the package's
    functions that driver reached, and its `result` variable."""
    out = tmp_path / "scan.json"
    proc = subprocess.run([sys.executable, "-c", _SCANNER, str(root), package, driver,
                           str(out)], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    return {tuple(c) for c in doc["called"]}, doc["result"]


def defs(root, package):
    """{qualified name: (file, first line)} of every def in the package;
    the first line is a decorator's when there is one, as in co_firstlineno."""
    found = {}

    def visit(node, prefix, rel):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[name] = (rel, line)
                visit(child, f"{name}.<locals>", rel)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", rel)
            else:
                visit(child, prefix, rel)

    for dirpath, _, files in os.walk(os.path.join(root, package)):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, root)
            module = rel[:-3].replace(os.sep, ".")
            module = module[:-len(".__init__")] if module.endswith(".__init__") else module
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), module, rel)
    return found


def unreached(root, package, called, exempt=()):
    """The package's defs that are not called, each as 'file:line name',
    except those exempt by their own qualified name or their class's."""
    return sorted(f"{rel}:{line} {name}" for name, (rel, line) in defs(root, package).items()
                  if (rel, line) not in called
                  and name not in exempt and name.rpartition(".")[0] not in exempt)


def _driver(tmp_path):
    """The driver's code and the configs it runs, written under tmp_path."""
    table = tmp_path / "table.csv"
    table.write_text("\n".join(f"{0.3 * (i % 3 - 1):g}" for i in range(32)) + "\n")
    runs = [(f"small-{kind}", 0, {"kind": kind, **cfg}) for kind, cfg in SMALL.items()] + EXTRA
    paths = []
    for name, code, cfg in runs:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"schema": 1, **cfg}))
        paths.append((str(path), code))
    manifest = str(tmp_path / "sum-of-squares.out" / "manifest.json")
    driver = textwrap.dedent(f"""
        import contextlib, io
        import weylab.cli
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = [[p, weylab.cli.main(["run", p])] for p, _ in {paths!r}]
            result.append(["list-builders", weylab.cli.main(["list-builders"])])
            result.append(["reproduce", weylab.cli.main(["reproduce", {manifest!r}])])
    """)
    expected = [[p, code] for p, code in paths] + [["list-builders", 0], ["reproduce", 0]]
    return driver, expected


def test_every_function_is_reached_by_a_workflow(tmp_path):
    driver, expected = _driver(tmp_path)
    called, codes = scan(SRC, "weylab", driver, tmp_path)
    assert codes == expected
    found = defs(SRC, "weylab")
    stale = [name for name in KEPT if name not in found or found[name] in called]
    assert stale == [], "KEPT names a function that is gone or reached"
    missed = unreached(SRC, "weylab", called, set(KEPT))
    assert missed == [], "no workflow calls:\n" + "\n".join(missed)


def test_an_unreached_function_is_named(tmp_path):
    # the same scan on a package of two functions, one never called
    pkg = tmp_path / "src" / "planted"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(textwrap.dedent("""
        def used():
            return 1


        def unused():
            return 2
    """))
    root = tmp_path / "src"
    called, result = scan(root, "planted", "import planted\nresult = planted.used()", tmp_path)
    assert result == 1
    assert unreached(root, "planted", called) == ["planted/__init__.py:6 planted.unused"]
