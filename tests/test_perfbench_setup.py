"""The benchmark's set-up step: a worker imports weylab from this
checkout, evaluates the daho weight once and reports READY.  The
benchmark scripts' imports of weylab must keep resolving."""
import ast
import glob
import importlib
import os
import subprocess
import sys

from weylab.builders import get_operator
from weylab.hamiltonians import DirichletGrid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_worker_setup_reports_ready(tmp_path):
    worker = os.path.join(ROOT, "perfbench", "worker.py")
    out = subprocess.run([sys.executable, worker, "--mode", "setup", "--workload", "mix",
                          "--seed", "1", "--seconds", "0", "--workdir", str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert any(line.startswith("READY ") for line in out.stdout.splitlines())


def test_every_weylab_name_the_benchmark_imports_resolves():
    # parsed, not run: make_refs.py rewrites refs.json when it runs
    imported = []
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weylab":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path}: {node.module}.{alias.name}"
                    imported.append(f"{node.module}.{alias.name}")
    assert "weylab.hamiltonians.DirichletGrid" in imported  # make_refs.py's grid
    # make_refs.py's operator, without its dense eigensolve
    H = get_operator("daho", DirichletGrid(2, 66, 8.0))
    assert H.sparse.shape == (4356, 4356)
    assert H.grid.boundary == "dirichlet"
