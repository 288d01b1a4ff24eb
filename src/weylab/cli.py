"""Config-driven experiment runner.

Subcommands: run <config.json>, list-builders, reproduce <manifest.json>.
Configs are JSON with an explicit schema version; every randomized
experiment must carry a seed.  Runs write their outputs atomically,
record a manifest with content hashes, and exit 0 only when every check
passed (1: a check failed, witnesses are in the report; 2: the config or
the run itself is broken).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, builders
from .builders import ConfigError, need as _need
from ._output import canonical_json, write_csv_atomic, write_json_atomic
from .bounds import linf_band_probe, lp_window_probe, subellipticity_probe
from .evolve import heat_evolve, schrodinger_evolve
from .hamiltonians import DirichletGrid, hamiltonian_with_potential
from .metric import (check_gweight, check_slowness, check_temperateness,
                     check_uncertainty, pair_sample)
from .quantize import Grid, identity_symbol_matrix, weyl_quantize
from .spectral import eigensolve, growth_fit, schatten_sweep
from .symbols import class_membership, with_confinement

SCHEMA = 1
SEEDED_KINDS = {"metric-check", "class-check", "lp-probe", "band-probe",
                "subellipticity"}

CSV_PROBE_HEADER = ("operator", "N", "L", "epsilon_or_beta", "p_R_tau",
                    "lower", "upper", "verdict")


def _grid(g, grid_type=DirichletGrid):
    """A grid dict {"n": 2 by default, "N", "L"}, Dirichlet unless told otherwise."""
    N, L = int(_need(g, "N")), float(_need(g, "L"))
    return grid_type(int(g.get("n", 2)), N, L)


def _section(cfg, key, default):
    """cfg[key], an optional sub-object, or default when it is absent."""
    value = cfg.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {type(value).__name__}")
    return value


def _weight(cfg):
    spec = _need(cfg, "weight")
    return builders.get_weight(_need(spec, "name"), spec.get("params"))


def _operator(cfg, grid):
    spec = _need(cfg, "operator")
    H = builders.get_operator(_need(spec, "name"), grid, spec.get("params"))
    pot = cfg.get("potential")
    if pot:
        V = builders.get_potential(_need(pot, "name"), grid, pot.get("params"))
        H = hamiltonian_with_potential(H, V, override=bool(pot.get("override", False)))
    return H


def _report_entry(rep):
    d = asdict(rep)
    for k, v in d.items():
        if isinstance(v, np.ndarray):
            d[k] = v.tolist()
    return d


# -- kind handlers: each returns (checks, report dict, csv header, csv rows);
# header and rows are None for kinds that write no data.csv --------------

def _run_metric_check(cfg, out):
    w = _weight(cfg)
    seed = int(cfg["seed"])
    rng = np.random.default_rng(seed)
    box = float(cfg.get("box", 100.0))
    npts = int(cfg.get("n_points", 20000))
    Z = rng.uniform(-box, box, size=(npts, 2 * w.n))
    X, Y = pair_sample(w.n, int(cfg.get("n_pairs", 10000)), seed + 1)
    reports = [check_uncertainty(w, Z),
               check_slowness(w, X, Y),
               check_temperateness(w, X, Y),
               check_gweight(w, X, Y)]
    checks = [(r.kind, r.passed, r.summary()) for r in reports]
    return checks, {"weight": w.name, "reports": [_report_entry(r) for r in reports]}, None, None


def _run_class_check(cfg, out):
    spec = _need(cfg, "symbol")
    a2 = builders.get_a2(_need(spec, "name"), spec.get("params"))
    target = cfg.get("target", "a")
    if target not in ("a", "m"):
        raise ConfigError("target must be 'a' or 'm'")
    w = builders.get_weight(spec["name"], spec.get("params"))
    s = with_confinement(a2).as_evaluator(name="a") if target == "a" else w
    rep = class_membership(s, w, w, int(cfg.get("order", 4)),
                           [float(h) for h in cfg.get("halves", [10.0, 20.0])],
                           growth_factor=float(cfg.get("growth_factor", 1.05)),
                           n_grid=int(cfg.get("n_grid", 7)),
                           n_random=int(cfg.get("n_random", 2000)),
                           seed=int(cfg["seed"]))
    expect_pass = bool(cfg.get("expect_pass", True))
    ok = rep.passed == expect_pass
    detail = f"growth={['%.5f' % g for g in rep.growth]}, gate={rep.gate}"
    report = {"target": target, "passed": rep.passed, "growth": rep.growth,
              "estimates": [{"order": e.order, "value": e.value,
                             "sample_size": e.sample_size, "box": e.descriptor}
                            for e in rep.estimates]}
    return [(f"class-membership[{target}]", ok, detail)], report, None, None


def _run_quantize_identity(cfg, out):
    grid = _grid(_need(cfg, "grid"), Grid)
    one = identity_symbol_matrix(grid, tau=float(cfg.get("tau", 1.0)))
    defect_id = float(np.max(np.abs(one - np.eye(grid.side()))))
    checks = [("op-of-one-is-identity", defect_id <= 1e-12, f"defect={defect_id:.3e}")]
    report = {"identity_defect": defect_id}
    spec = cfg.get("symbol")
    if spec:
        a2 = builders.get_a2(_need(spec, "name"), spec.get("params"))
        A = weyl_quantize(a2, grid)
        hd = float(np.max(np.abs(A - A.conj().T)))
        checks.append(("weyl-real-symbol-hermitian", hd <= 1e-10, f"defect={hd:.3e}"))
        report["hermitian_defect"] = hd
    return checks, report, None, None


def _run_spectrum(cfg, out):
    grid = _grid(_need(cfg, "grid"))
    H = _operator(cfg, grid)
    k = int(cfg.get("k", 10))
    res = eigensolve(H, k, want_vectors=False)
    rows = [(i + 1, float(v), float(r))
            for i, (v, r) in enumerate(zip(res.eigenvalues, res.residuals))]
    report = {"operator": H.provenance, "solver": res.solver,
              "lowest": float(res.eigenvalues[0]),
              "max_residual": float(np.max(res.residuals))}
    checks = [("spectrum-residuals", True, f"solver={res.solver}")]
    floor = cfg.get("eigenvalue_floor")
    if floor is not None:
        ok = bool(res.eigenvalues[0] >= float(floor) - 1e-9)
        checks.append(("eigenvalue-floor", ok,
                       f"lowest={res.eigenvalues[0]:.6g} floor={floor}"))
    return checks, report, ("index", "eigenvalue", "residual"), rows


def _run_growth_fit(cfg, out):
    grid = _grid(_need(cfg, "grid"))
    H = _operator(cfg, grid)
    window = tuple(int(v) for v in cfg.get("window", (50, 400)))
    k = max(window[1] + 10, int(cfg.get("k", window[1] + 10)))
    res = eigensolve(H, k, want_vectors=False)
    fit = growth_fit(res, window)
    rows = [(i + 1, float(v)) for i, v in enumerate(res.eigenvalues)]
    report = {"operator": H.provenance, "exponent": fit.exponent,
              "window": list(fit.window), "fit_residual": fit.residual}
    checks = [("growth-fit", True, f"exponent={fit.exponent:.4f}")]
    lo, hi = cfg.get("expect_min"), cfg.get("expect_max")
    if lo is not None or hi is not None:
        ok = (lo is None or fit.exponent >= float(lo)) and \
             (hi is None or fit.exponent <= float(hi))
        checks.append(("exponent-window", ok, f"{lo} <= {fit.exponent:.4f} <= {hi}"))
    return checks, report, ("index", "eigenvalue"), rows


def _run_schatten_sweep(cfg, out):
    w = _weight(cfg)
    Q = float(_need(cfg, "Q"))
    reports = schatten_sweep(
        w, [(float(_need(c, "mu")), float(_need(c, "r"))) for c in _need(cfg, "cells")], Q,
        matrix_N=[int(v) for v in cfg.get("matrix_N", (32, 48))],
        box_L=[float(v) for v in cfg.get("box_L", (8.0, 12.0, 16.0))],
        box_npts=int(cfg.get("box_npts", 100)), band_npts=int(cfg.get("band_npts", 100)),
        operator=w.name)
    rows, checks, verdicts = [], [], []
    for cell, rep in zip(cfg["cells"], reports):
        rows.extend(rep.csv_rows())
        verdicts.append({"mu": rep.mu, "r": rep.r, "verdict": rep.verdict,
                         "slope": rep.slope, "critical_slope": rep.critical_slope,
                         "matrix_rel_change": rep.matrix_rel_change,
                         "box_growth": rep.box_growth})
        expect = cell.get("expect")
        if expect:
            checks.append((f"verdict[mu={rep.mu},r={rep.r}]", rep.verdict == expect,
                           f"{rep.verdict} (expected {expect})"))
        if cell.get("check_matrix", False):
            gate = float(cfg.get("matrix_gate", 0.10))
            checks.append((f"matrix-stability[mu={rep.mu}]",
                           rep.matrix_rel_change < gate,
                           f"rel_change={rep.matrix_rel_change:.4f} gate={gate}"))
    if not checks:
        checks = [("schatten-sweep", True, f"{len(verdicts)} cells")]
    header = ("operator", "N", "L", "mu", "r", "schatten_value", "box_integral",
              "fit_exponent", "residual")
    return checks, {"weight": w.name, "Q": Q, "cells": verdicts}, header, rows


def _initial_state(cfg, grid):
    spec = _section(cfg, "state", {"kind": "gaussian"})
    mesh = grid.mesh()
    kind = spec.get("kind", "gaussian")
    if kind == "gaussian":
        c = np.asarray(spec.get("center", [0.0] * grid.n), dtype=float)
        width = float(spec.get("width", 1.0))
        return np.exp(-((mesh - c) ** 2).sum(axis=1) / (2.0 * width**2))
    if kind == "random":
        rng = np.random.default_rng(int(_need(spec, "seed")))
        return rng.normal(size=mesh.shape[0]) + 1j * rng.normal(size=mesh.shape[0])
    raise ConfigError(f"unknown state kind {kind!r}")


def _run_evolve(cfg, out):
    grid = _grid(_need(cfg, "grid"))
    H = _operator(cfg, grid)
    kind = cfg.get("evolution", "schrodinger")
    t = _section(cfg, "times", {})
    times = np.linspace(float(t.get("t0", 0.0)), float(t.get("t1", 1.0)),
                        int(t.get("count", 100)))
    f = _initial_state(cfg, grid)
    method = cfg.get("method", "eig")
    if kind == "schrodinger":
        tr = schrodinger_evolve(H, f, times, method=method)
        drift = float(np.max(np.abs(tr.norms / tr.norms[0] - 1.0)))
        gate = 1e-10 if method == "eig" else 1e-6
        checks = [("norm-conservation", drift <= gate, f"drift={drift:.3e}")]
    elif kind == "heat":
        tr = heat_evolve(H, f, times, method=method)
        inc = float(np.max(np.diff(tr.norms)))
        checks = [("norm-nonincreasing", inc <= 0.0, f"max increment={inc:.3e}")]
    else:
        raise ConfigError("evolution must be schrodinger or heat")
    report = {"operator": H.provenance, "evolution": kind, "method": tr.method,
              "meta": tr.meta, "first_norm": float(tr.norms[0]),
              "last_norm": float(tr.norms[-1])}
    return checks, report, ("time", "norm", "energy"), tr.csv_rows()


def _run_lp_probe(cfg, out):
    w = _weight(cfg)
    spec = _need(cfg, "operator")
    opname, params = _need(spec, "name"), spec.get("params")
    grids = [_grid(g) for g in _need(cfg, "grids")]
    results = lp_window_probe(
        lambda g: builders.get_operator(opname, g, params), grids, w,
        float(_need(cfg, "beta")), [float(p) for p in _need(cfg, "p_list")],
        shift=float(cfg.get("shift", 1.0)), trials=int(cfg.get("trials", 48)),
        seed=int(cfg["seed"]), operator=opname)
    beta = float(cfg["beta"])
    rows = [r.csv_row(beta) for r in results]
    checks = [("bracket-order", all(r.lower <= r.upper * (1 + 1e-9) for r in results),
               f"{len(results)} cells")]
    report = {"beta": beta, "beta_prime": results[0].beta_prime,
              "calibration_residual": results[0].calibration_residual,
              "cells": [{"p": r.p, "N": r.N, "lower": r.lower, "upper": r.upper}
                        for r in results]}
    return checks, report, CSV_PROBE_HEADER, rows


def _run_band_probe(cfg, out):
    w = _weight(cfg)
    grid = _grid(_need(cfg, "grid"), Grid)
    eps = float(_need(cfg, "epsilon"))
    results = linf_band_probe(w, eps, [float(R) for R in _need(cfg, "R_list")],
                              grid, seed=int(cfg["seed"]), operator=w.name)
    rows = [r.csv_row(eps) for r in results]
    quots = [r.quotient for r in results]
    spread = max(quots) / min(quots)
    checks = [("band-probe", True, f"quotient spread {spread:.4f}")]
    gate = cfg.get("spread_gate")
    if gate is not None:
        checks.append(("quotient-spread", spread < float(gate),
                       f"{spread:.4f} < {gate}"))
    report = {"epsilon": eps, "spread": spread,
              "cells": [_report_entry(r) for r in results]}
    return checks, report, CSV_PROBE_HEADER, rows


def _run_subellipticity(cfg, out):
    opname = _need(_need(cfg, "operator"), "name")
    res = subellipticity_probe(lambda g: builders.get_kinetic(opname, g).sparse,
                               float(_need(cfg, "tau")),
                               N_list=[int(v) for v in cfg.get("N_list", (32, 48, 64))],
                               L=float(cfg.get("L", 4.0)),
                               trials=int(cfg.get("trials", 24)),
                               seed=int(cfg["seed"]), operator=opname)
    expect = cfg.get("expect")
    checks = [("subellipticity-ladder", True,
               f"C1 ladder {[f'{c:.4g}' for _, c in res.ladder]}")]
    if expect == "stable":
        checks.append(("stability", res.stable, f"rel changes {res.rel_changes}"))
    elif expect == "growing":
        grew = res.ladder[-1][1] > res.ladder[0][1] * 1.2
        checks.append(("growth", grew, f"ladder {res.ladder}"))
    report = {"tau": res.tau, "operator": opname, "stable": res.stable,
              "ladder": res.ladder, "rel_changes": res.rel_changes}
    return checks, report, CSV_PROBE_HEADER, res.csv_rows()


_HANDLERS = {
    "metric-check": _run_metric_check,
    "class-check": _run_class_check,
    "quantize-identity": _run_quantize_identity,
    "spectrum": _run_spectrum,
    "growth-fit": _run_growth_fit,
    "schatten-sweep": _run_schatten_sweep,
    "evolve": _run_evolve,
    "lp-probe": _run_lp_probe,
    "band-probe": _run_band_probe,
    "subellipticity": _run_subellipticity,
}


def run_config(cfg: dict, out_dir: str) -> dict:
    """Execute one experiment config; returns the manifest dict."""
    if int(cfg.get("schema", -1)) != SCHEMA:
        raise ConfigError(f"schema must be {SCHEMA}")
    kind = _need(cfg, "kind")
    if kind not in _HANDLERS:
        raise ConfigError(f"unknown kind {kind!r}; known: {', '.join(sorted(_HANDLERS))}")
    if kind in SEEDED_KINDS and "seed" not in cfg:
        raise ConfigError(f"kind {kind!r} is randomized and requires a seed")
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.monotonic()
    checks, report, header, rows = _HANDLERS[kind](cfg, out_dir)
    outputs = []
    if rows is not None:
        csv_path = os.path.join(out_dir, "data.csv")
        digest = write_csv_atomic(csv_path, header, rows)
        outputs.append({"path": "data.csv", "sha256": digest})
    report_doc = {"kind": kind, "checks": [
        {"name": n, "passed": bool(p), "detail": d} for n, p, d in checks],
        "report": report}
    digest = write_json_atomic(os.path.join(out_dir, "report.json"), report_doc)
    outputs.append({"path": "report.json", "sha256": digest})
    manifest = {
        "schema": SCHEMA,
        "kind": kind,
        "config": cfg,
        "config_hash": _hash_config(cfg),
        "artifact_version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "checks": [{"name": n, "passed": bool(p)} for n, p, _ in checks],
        "outputs": outputs,
        "passed": all(p for _, p, _ in checks),
    }
    write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _hash_config(cfg: dict) -> str:
    import hashlib
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def _cmd_run(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print(f"config error: the config must be a JSON object, not a {type(cfg).__name__}",
              file=sys.stderr)
        return 2
    out_dir = cfg.get("output_dir") or os.path.splitext(path)[0] + ".out"
    try:
        manifest = run_config(cfg, out_dir)
    except (ConfigError, builders.UnknownBuilderError, KeyError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"run error: {e}", file=sys.stderr)
        return 2
    for c in manifest["checks"]:
        mark = "pass" if c["passed"] else "FAIL"
        print(f"[{mark}] {c['name']}")
    print(f"outputs in {out_dir}")
    return 0 if manifest["passed"] else 1


def _cmd_reproduce(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        cfg = manifest["config"]
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"manifest error: {e}", file=sys.stderr)
        return 2
    if manifest.get("artifact_version") != __version__:
        print(f"warning: manifest from version {manifest.get('artifact_version')}, "
              f"running {__version__}; best effort", file=sys.stderr)
    if _hash_config(cfg) != manifest.get("config_hash"):
        print("warning: embedded config does not match recorded hash; "
              "this is not a reproduction", file=sys.stderr)
    base = os.path.dirname(os.path.abspath(path))
    out_dir = os.path.join(base, "reproduce")
    try:
        new_manifest = run_config(cfg, out_dir)
    except (KeyError, ValueError, RuntimeError) as e:  # every config or run error
        print(f"run error: {e}", file=sys.stderr)
        return 2
    old = {o["path"]: o["sha256"] for o in manifest.get("outputs", [])}
    ok = True
    for o in new_manifest["outputs"]:
        want = old.get(o["path"])
        match = want == o["sha256"]
        # the manifest itself differs (wall time); only payload files count
        print(f"[{'match' if match else 'DIFFER'}] {o['path']}")
        ok &= match
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="weylab",
                                     description="phase-space laboratory runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    sub.add_parser("list-builders", help="print available builders")
    p_rep = sub.add_parser("reproduce", help="re-run from a manifest and compare")
    p_rep.add_argument("manifest")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args.config)
    if args.command == "list-builders":
        print(builders.describe_builders())
        return 0
    return _cmd_reproduce(args.manifest)


if __name__ == "__main__":
    sys.exit(main())
