"""Regenerate ``refs.json``: dense references for the eigen workload's oracles.

Each reference is the lowest part of the spectrum of a daho stencil
operator, computed with one dense ``numpy.linalg.eigvalsh`` of the
assembled matrix, independent of weylab's eigensolver.  Run from the
repository root (takes about a minute):

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = {"daho_N66": {"N": 66, "L": 8.0, "count": 6},
        "daho_N72": {"N": 72, "L": 8.0, "count": 20}}


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import numpy as np
    from weylab.builders import get_operator
    from weylab.hamiltonians import DirichletGrid

    out = {}
    for name, spec in REFS.items():
        H = get_operator("daho", DirichletGrid(2, spec["N"], spec["L"]))
        A = np.asarray(H.data, dtype=float)
        lam = np.linalg.eigvalsh(0.5 * (A + A.T))[:spec["count"]]
        out[name] = dict(spec, operator="daho", method="numpy.linalg.eigvalsh (dense)",
                         eigenvalues=[float(v) for v in lam])
        print(name, lam[:3], flush=True)
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
