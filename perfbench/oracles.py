"""Seed-independent correctness oracles, one per operation kind.

``verdict(op, manifest, out_dir, refs)`` returns None when the operation's
outputs are right, else ``(kind, detail)``.  Every operation must pass all
of its manifest checks; some kinds add an independent check of the
numbers themselves.  This module does not import weylab.
"""

from __future__ import annotations

import csv
import functools
import json
import os

import numpy as np

EIG_RTOL = 1e-8          # eigenvalues against a dense reference
TREND_MATRIX_GATE = 0.10


def _csv_column(out_dir: str, column: str) -> np.ndarray:
    with open(os.path.join(out_dir, "data.csv"), newline="", encoding="utf-8") as fh:
        return np.array([float(row[column]) for row in csv.DictReader(fh)])


def _compare(got: np.ndarray, want: np.ndarray):
    if got.size != want.size:
        return ("wrong-answer", f"{got.size} eigenvalues, expected {want.size}")
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    if err > EIG_RTOL:
        i = int(np.argmax(np.abs(got - want)))
        return ("wrong-answer", f"eigenvalue {i + 1} is {got[i]:.10g}, reference "
                                f"{want[i]:.10g} (rel err {err:.2e} > {EIG_RTOL:g})")
    return None


@functools.lru_cache(maxsize=None)
def harmonic_tensor_eigs(N: int, L: float, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the 2D order-6 Dirichlet oscillator stencil,
    as sums of pairs of 1D eigenvalues (the 2D matrix is the Kronecker sum
    of the 1D matrix -D2 + x^2 with itself)."""
    h = 2.0 * L / (N + 1)
    x = -L + h * (1.0 + np.arange(N))
    A = np.diag(x * x)
    for off, w in enumerate([49.0 / 18.0, -3.0 / 2.0, 3.0 / 20.0, -1.0 / 90.0]):
        A += (w / h**2) * (np.eye(N, k=off) + (np.eye(N, k=-off) if off else 0.0))
    lam = np.linalg.eigvalsh(A)
    return np.sort((lam[:, None] + lam[None, :]).ravel())[:k]


def _trend(out_dir: str, cfg: dict):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        cells = json.load(fh)["report"]["cells"]
    for want, got in zip(cfg["cells"], cells):
        if got["verdict"] != want["expect"]:
            return ("wrong-answer", f"mu={got['mu']}: verdict {got['verdict']}, "
                                    f"expected {want['expect']}")
        if want.get("check_matrix") and not got["matrix_rel_change"] < TREND_MATRIX_GATE:
            return ("wrong-answer", f"mu={got['mu']}: matrix_rel_change "
                                    f"{got['matrix_rel_change']:.4f} >= {TREND_MATRIX_GATE}")
    if len(cells) != len(cfg["cells"]):
        return ("wrong-answer", f"{len(cells)} cells reported, {len(cfg['cells'])} configured")
    return None


def verdict(op: dict, manifest: dict, out_dir: str, refs: dict):
    failed = [c["name"] for c in manifest["checks"] if not c["passed"]]
    if failed or not manifest["passed"]:
        return ("check-failed", ", ".join(failed) or "manifest not passed")
    oracle, cfg = op["oracle"], op["cfg"]
    kind = oracle["kind"]
    if kind == "checks":
        return None
    if kind == "trend":
        return _trend(out_dir, cfg)
    got = _csv_column(out_dir, "eigenvalue")
    if kind == "harmonic-tensor":
        return _compare(got, harmonic_tensor_eigs(oracle["N"], oracle["L"], got.size))
    if kind == "reference":
        want = np.asarray(refs[oracle["ref"]]["eigenvalues"]) + oracle.get("shift", 0.0)
        return _compare(got, want[:int(cfg["k"])])
    raise ValueError(f"unknown oracle kind {kind!r}")
