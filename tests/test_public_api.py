"""The export lists: every name a module advertises must exist."""
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
