"""Config-driven experiment runner.

Subcommands: run <config.json>, list-builders, reproduce <manifest.json>.
Configs are JSON with an explicit schema version; every randomized
experiment must carry a seed.  This module writes every output file:
each kind's handler builds its report and its data.csv rows from the
numbers the library returns.  Runs write their outputs atomically,
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
from .builders import (COUNT, KINETIC, OPERATOR, POSITIVE, POTENTIAL, REQUIRED, SYMBOL, WEIGHT,
                       Bound, Tagged, read)
from ._output import canonical_json, write_csv_atomic, write_json_atomic
from .bounds import linf_band_probe, lp_window_probe, subellipticity_probe
from .evolve import heat_evolve, schrodinger_evolve
from .hamiltonians import hamiltonian_with_potential
from .metric import check_pairs, check_uncertainty, pair_sample
from .quantize import Grid, identity_symbol_matrix, weyl_quantize
from .spectral import eigensolve, growth_fit, schatten_sweep
from .symbols import class_membership, with_confinement

SCHEMA = 1

CSV_PROBE_HEADER = ("operator", "N", "L", "epsilon_or_beta", "p_R_tau",
                    "lower", "upper", "verdict")


def _operator(cfg):
    """The operator and potential of a _MODEL config, on its Dirichlet grid."""
    grid = Grid(**cfg["grid"], boundary="dirichlet")
    op, pot = cfg["operator"], cfg["potential"]
    H = builders.get_operator(grid=grid, **op)
    if pot is not None:
        V = builders.get_potential(pot["name"], grid, pot["params"])
        H = hamiltonian_with_potential(H, V, override=pot["override"])
    return H


# -- kind handlers: each reads a config checked against its _KINDS spec and
# returns (checks, report dict, csv header, csv rows); header and rows are
# None for kinds that write no data.csv -----------------------------------

def _run_metric_check(cfg):
    w = builders.get_weight(**cfg["weight"])
    rng = np.random.default_rng(cfg["seed"])
    Z = rng.uniform(-cfg["box"], cfg["box"], size=(cfg["n_points"], 2 * w.n))
    X, Y = pair_sample(w.n, cfg["n_pairs"], cfg["seed"] + 1)
    reports = [check_uncertainty(w, Z), *check_pairs(w, X, Y)]
    checks = [(r.kind, r.passed, r.summary()) for r in reports]
    return checks, {"weight": w.name, "reports": [asdict(r) for r in reports]}, None, None


def _run_class_check(cfg):
    spec, target = cfg["symbol"], cfg["target"]
    a2, w = builders.get_a2(**spec), builders.get_weight(**spec)
    s = with_confinement(a2) if target == "a" else w
    rep = class_membership(s, w, w, cfg["order"], cfg["halves"],
                           growth_factor=cfg["growth_factor"], n_grid=cfg["n_grid"],
                           n_random=cfg["n_random"], seed=cfg["seed"])
    ok = rep.passed == cfg["expect_pass"]
    detail = f"growth={['%.5f' % g for g in rep.growth]}, gate={rep.gate}"
    report = {"target": target, "passed": rep.passed, "growth": rep.growth,
              "estimates": [{"order": e.order, "value": e.value,
                             "sample_size": e.sample_size, "box": f"box[{-h},{h}]"}
                            for e, h in zip(rep.estimates, cfg["halves"])]}
    return [(f"class-membership[{target}]", ok, detail)], report, None, None


def _run_quantize_identity(cfg):
    grid = Grid(**cfg["grid"])
    one = identity_symbol_matrix(grid, tau=cfg["tau"])
    defect_id = float(np.max(np.abs(one - np.eye(grid.side()))))
    checks = [("op-of-one-is-identity", defect_id <= 1e-12, f"defect={defect_id:.3e}")]
    report = {"identity_defect": defect_id}
    spec = cfg["symbol"]
    if spec is not None:
        A = weyl_quantize(builders.get_a2(**spec), grid)
        hd = float(np.max(np.abs(A - A.conj().T)))
        checks.append(("weyl-real-symbol-hermitian", hd <= 1e-10, f"defect={hd:.3e}"))
        report["hermitian_defect"] = hd
    return checks, report, None, None


def _run_spectrum(cfg):
    H = _operator(cfg)
    res = eigensolve(H, cfg["k"])
    rows = [(i + 1, float(v), float(r))
            for i, (v, r) in enumerate(zip(res.eigenvalues, res.residuals))]
    report = {"operator": H.provenance, "solver": res.solver,
              "lowest": float(res.eigenvalues[0]),
              "max_residual": float(np.max(res.residuals))}
    checks = [("spectrum-residuals", True, f"solver={res.solver}")]
    floor = cfg["eigenvalue_floor"]
    if floor is not None:
        ok = bool(res.eigenvalues[0] >= floor - 1e-9)
        checks.append(("eigenvalue-floor", ok,
                       f"lowest={res.eigenvalues[0]:.6g} floor={floor}"))
    return checks, report, ("index", "eigenvalue", "residual"), rows


def _run_growth_fit(cfg):
    H = _operator(cfg)
    window = tuple(cfg["window"])
    res = eigensolve(H, max(window[1] + 10, cfg["k"]))
    fit = growth_fit(res, window)
    rows = [(i + 1, float(v)) for i, v in enumerate(res.eigenvalues)]
    report = {"operator": H.provenance, "exponent": fit.exponent,
              "window": list(fit.window), "fit_residual": fit.residual}
    checks = [("growth-fit", True, f"exponent={fit.exponent:.4f}")]
    lo, hi = cfg["expect_min"], cfg["expect_max"]
    if lo is not None or hi is not None:
        ok = (lo is None or fit.exponent >= lo) and (hi is None or fit.exponent <= hi)
        checks.append(("exponent-window", ok, f"{lo} <= {fit.exponent:.4f} <= {hi}"))
    return checks, report, ("index", "eigenvalue"), rows


def _run_schatten_sweep(cfg):
    w = builders.get_weight(**cfg["weight"])
    reports = schatten_sweep(w, [(c["mu"], c["r"]) for c in cfg["cells"]], cfg["Q"],
                             matrix_N=cfg["matrix_N"], box_L=cfg["box_L"],
                             box_npts=cfg["box_npts"], band_npts=cfg["band_npts"])
    rows, checks, verdicts = [], [], []
    for cell, rep in zip(cfg["cells"], reports):
        rows += [(w.name, N, L, rep.mu, rep.r, v, "", "", "") for N, L, v in rep.matrix_cells]
        rows += [(w.name, "", L, rep.mu, rep.r, "", val, "", "") for L, val in rep.box_cells]
        rows.append((w.name, "", "", rep.mu, rep.r, "", "",
                     rep.slope, rep.slope - rep.critical_slope))
        verdicts.append({"mu": rep.mu, "r": rep.r, "verdict": rep.verdict,
                         "slope": rep.slope, "critical_slope": rep.critical_slope,
                         "matrix_rel_change": rep.matrix_rel_change,
                         "box_growth": rep.box_growth})
        expect = cell["expect"]
        if expect:
            checks.append((f"verdict[mu={rep.mu},r={rep.r}]", rep.verdict == expect,
                           f"{rep.verdict} (expected {expect})"))
        if cell["check_matrix"]:
            gate = cfg["matrix_gate"]
            checks.append((f"matrix-stability[mu={rep.mu}]",
                           rep.matrix_rel_change < gate,
                           f"rel_change={rep.matrix_rel_change:.4f} gate={gate}"))
    if not checks:
        checks = [("schatten-sweep", True, f"{len(verdicts)} cells")]
    header = ("operator", "N", "L", "mu", "r", "schatten_value", "box_integral",
              "fit_exponent", "residual")
    return checks, {"weight": w.name, "Q": cfg["Q"], "cells": verdicts,
                    "seam_coupling": reports[0].seam_coupling}, header, rows  # one per N


def _initial_state(spec, grid):
    mesh = grid.mesh()
    if spec["kind"] == "gaussian":
        c = np.asarray(spec["center"])
        if c.size not in (1, grid.n):
            raise builders.ConfigError(f"state.center has {c.size} entries; it needs 1 or "
                                       f"the grid dimension {grid.n}")
        return np.exp(-((mesh - c) ** 2).sum(axis=1) / (2.0 * spec["width"]**2))
    rng = np.random.default_rng(spec["seed"])
    return rng.normal(size=mesh.shape[0]) + 1j * rng.normal(size=mesh.shape[0])


def _run_evolve(cfg):
    H = _operator(cfg)
    kind, t = cfg["evolution"], cfg["times"]
    times = np.linspace(t["t0"], t["t1"], t["count"])
    f = _initial_state(cfg["state"], H.grid)
    if kind == "schrodinger":
        tr = schrodinger_evolve(H, f, times)
        drift = float(np.max(np.abs(tr.norms / tr.norms[0] - 1.0)))
        checks = [("norm-conservation", drift <= 1e-10, f"drift={drift:.3e}")]
    else:
        tr = heat_evolve(H, f, times)
        steps = np.diff(tr.norms)
        if steps.size:
            inc = float(np.max(steps))
            checks = [("norm-nonincreasing", inc <= 0.0, f"max increment={inc:.3e}")]
        else:
            checks = [("norm-nonincreasing", True, "one output time: no increment")]
    report = {"operator": H.provenance, "evolution": kind, "method": tr.method,
              "meta": tr.meta, "first_norm": float(tr.norms[0]),
              "last_norm": float(tr.norms[-1])}
    rows = [(float(t), float(n), float(e))
            for t, n, e in zip(tr.times, tr.norms, tr.energies)]
    return checks, report, ("time", "norm", "energy"), rows


def _run_lp_probe(cfg):
    w, op, beta = builders.get_weight(**cfg["weight"]), cfg["operator"], cfg["beta"]
    results = lp_window_probe(
        lambda g: builders.get_operator(grid=g, **op),
        [Grid(**g, boundary="dirichlet") for g in cfg["grids"]], w, beta, cfg["p_list"],
        shift=cfg["shift"], trials=cfg["trials"], seed=cfg["seed"])
    rows = [(op["name"], r.N, "", beta, r.p, f"{r.lower:.12g}", f"{r.upper:.12g}", "")
            for r in results]
    checks = [("bracket-order", all(r.lower <= r.upper * (1 + 1e-9) for r in results),
               f"{len(results)} cells")]
    report = {"beta": beta, "beta_prime": results[0].beta_prime,
              "calibration_residual": results[0].calibration_residual,
              "cells": [{"p": r.p, "N": r.N, "lower": r.lower, "upper": r.upper}
                        for r in results]}
    return checks, report, CSV_PROBE_HEADER, rows


def _run_band_probe(cfg):
    w = builders.get_weight(**cfg["weight"])
    eps, grid = cfg["epsilon"], Grid(**cfg["grid"])
    results = linf_band_probe(w, eps, cfg["R_list"], grid, seed=cfg["seed"])
    label = f"N={grid.N},L={grid.L:g}"
    rows = [(w.name, label, "", eps, r.R, r.trial_ratio, r.op_norm, f"{r.quotient:.6g}")
            for r in results]
    quots = [r.quotient for r in results]
    spread = max(quots) / min(quots)
    checks = [("band-probe", True, f"quotient spread {spread:.4f}")]
    gate = cfg["spread_gate"]
    if gate is not None:
        checks.append(("quotient-spread", spread < gate, f"{spread:.4f} < {gate}"))
    report = {"epsilon": eps, "spread": spread,
              "cells": [dict(asdict(r), grid=label, operator=w.name) for r in results]}
    return checks, report, CSV_PROBE_HEADER, rows


def _run_subellipticity(cfg):
    opname, expect = cfg["operator"]["name"], cfg["expect"]
    res = subellipticity_probe(lambda g: builders.get_kinetic(opname, g).sparse,
                               cfg["tau"], N_list=cfg["N_list"], L=cfg["L"],
                               trials=cfg["trials"], seed=cfg["seed"])
    checks = [("subellipticity-ladder", True,
               f"C1 ladder {[f'{c:.4g}' for _, c in res.ladder]}")]
    if expect == "stable":
        checks.append(("stability", res.stable, f"rel changes {res.rel_changes}"))
    elif expect == "growing":
        grew = res.ladder[-1][1] > res.ladder[0][1] * 1.2
        checks.append(("growth", grew, f"ladder {res.ladder}"))
    report = {"tau": res.tau, "operator": opname, "stable": res.stable,
              "ladder": res.ladder, "rel_changes": res.rel_changes}
    verdict = "stable" if res.stable else "growing"
    rows = [(opname, N, "", "", res.tau, "", f"{c:.12g}", verdict) for N, c in res.ladder]
    return checks, report, CSV_PROBE_HEADER, rows


# -- the declared config table: every key of every kind, as
# {key: (type, default)} (see builders.read); sizes and counts are at
# least 1, lengths positive, and every variable-length list non-empty ---

_GRID = {"n": (COUNT, 2), "N": (COUNT, REQUIRED), "L": (POSITIVE, REQUIRED)}
_MODEL = {"grid": (_GRID, REQUIRED), "operator": (OPERATOR, REQUIRED),
          "potential": (POTENTIAL, None)}
_SEED = {"seed": (int, REQUIRED)}

_KINDS = {
    "metric-check": (_run_metric_check, {
        **_SEED, "weight": (WEIGHT, REQUIRED), "box": (POSITIVE, 100.0),
        # pair_sample draws n_pairs // 3 pairs at each of three scales, and
        # the short steps meant to land in a g-ball only from 2 a scale
        "n_points": (COUNT, 20000), "n_pairs": (Bound(int, 6), 10000)}),
    "class-check": (_run_class_check, {
        **_SEED, "symbol": (SYMBOL, REQUIRED), "target": (("a", "m"), "a"),
        "order": (Bound(int, 0), 4), "halves": ([POSITIVE], [10.0, 20.0]),
        "growth_factor": (float, 1.05), "n_grid": (COUNT, 7), "n_random": (COUNT, 2000),
        "expect_pass": (bool, True)}),
    "quantize-identity": (_run_quantize_identity, {
        "grid": (_GRID, REQUIRED), "tau": (float, 1.0), "symbol": (SYMBOL, None)}),
    "spectrum": (_run_spectrum, {
        **_MODEL, "k": (COUNT, 10), "eigenvalue_floor": (float, None)}),
    # k is raised to window[1] + 10 when smaller
    "growth-fit": (_run_growth_fit, {
        **_MODEL, "window": ([COUNT, COUNT], [50, 400]), "k": (Bound(int, 0), 0),
        "expect_min": (float, None), "expect_max": (float, None)}),
    "schatten-sweep": (_run_schatten_sweep, {
        "weight": (WEIGHT, REQUIRED), "Q": (float, REQUIRED),
        "cells": ([{"mu": (float, REQUIRED), "r": (float, REQUIRED),
                    "expect": (("converges", "diverges"), None),
                    "check_matrix": (bool, False)}], REQUIRED),
        "matrix_N": ([COUNT], [32, 48]), "box_L": ([POSITIVE], [8.0, 12.0, 16.0]),
        "box_npts": (COUNT, 100), "band_npts": (COUNT, 100), "matrix_gate": (float, 0.10)}),
    "evolve": (_run_evolve, {
        **_MODEL, "evolution": (("schrodinger", "heat"), "schrodinger"),
        "times": ({"t0": (float, 0.0), "t1": (float, 1.0), "count": (COUNT, 100)}, {}),
        # a center of one coordinate broadcasts over every axis
        "state": (Tagged("kind", {"gaussian": {"center": ([float], [0.0]),
                                               "width": (POSITIVE, 1.0)},
                                  "random": _SEED}, "state kind", "gaussian"), {})}),
    # trial 0 is the constant vector, so a lower bound needs one trial;
    # the interpolated upper bound holds for p >= 1 only
    "lp-probe": (_run_lp_probe, {
        **_SEED, "weight": (WEIGHT, REQUIRED), "operator": (OPERATOR, REQUIRED),
        "grids": ([_GRID], REQUIRED), "beta": (float, REQUIRED),
        "p_list": ([Bound(float, 1.0)], REQUIRED), "shift": (float, 1.0),
        "trials": (COUNT, 48)}),
    "band-probe": (_run_band_probe, {
        **_SEED, "weight": (WEIGHT, REQUIRED), "grid": (_GRID, REQUIRED),
        "epsilon": (float, REQUIRED), "R_list": ([POSITIVE], REQUIRED),
        "spread_gate": (float, None)}),
    # trials are random modes on top of twelve fixed ones, so none is allowed
    "subellipticity": (_run_subellipticity, {
        **_SEED, "operator": (KINETIC, REQUIRED), "tau": (float, REQUIRED),
        "N_list": ([COUNT], [32, 48, 64]), "L": (POSITIVE, 4.0),
        "trials": (Bound(int, 0), 24), "expect": (("stable", "growing"), None)}),
}
CONFIG = Tagged("kind", {kind: {"schema": ((SCHEMA,), REQUIRED), "output_dir": (str, None),
                                 **spec} for kind, (_, spec) in _KINDS.items()}, "kind")


def run_config(cfg: dict, out_dir: str) -> dict:
    """Execute one experiment config; returns the manifest dict.

    A config that fails the table raises before anything is written.  Any
    later failure still leaves a manifest with passed false and the
    classified error (unless out_dir itself cannot be written), then
    raises on.
    """
    checked = read(CONFIG, cfg)
    kind = checked["kind"]
    os.makedirs(out_dir, exist_ok=True)  # no manifest can be written if this fails
    t0 = time.monotonic()
    outputs = []
    manifest_path = os.path.join(out_dir, "manifest.json")
    try:
        checks, report, header, rows = _KINDS[kind][0](checked)
        if rows is not None:
            digest = write_csv_atomic(os.path.join(out_dir, "data.csv"), header, rows)
            outputs.append({"path": "data.csv", "sha256": digest})
        report_doc = {"kind": kind, "checks": [
            {"name": n, "passed": bool(p), "detail": d} for n, p, d in checks],
            "report": report}
        digest = write_json_atomic(os.path.join(out_dir, "report.json"), report_doc)
        outputs.append({"path": "report.json", "sha256": digest})
    except Exception as e:
        write_json_atomic(manifest_path, _manifest(
            cfg, kind, t0, outputs, checks=[], passed=False,
            error={"kind": _error_kind(e), "message": str(e)}))
        raise
    manifest = _manifest(cfg, kind, t0, outputs,
                         checks=[{"name": n, "passed": bool(p)} for n, p, _ in checks],
                         passed=all(p for _, p, _ in checks))
    write_json_atomic(manifest_path, manifest)
    return manifest


def _manifest(cfg, kind, t0, outputs, **result) -> dict:
    return {"schema": SCHEMA, "kind": kind, "config": cfg, "config_hash": _hash_config(cfg),
            "artifact_version": __version__, "wall_time_s": round(time.monotonic() - t0, 3),
            "outputs": outputs, **result}


def _hash_config(cfg: dict) -> str:
    import hashlib
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def _error_kind(e: BaseException) -> str:
    """config for a KeyError or ValueError (ConfigError and
    UnknownBuilderError among them), run for any other failure."""
    return "config" if isinstance(e, (KeyError, ValueError)) else "run"


def _classified(run) -> int:
    """run()'s exit code, or 2 after printing one classified error line."""
    try:
        return run()
    except Exception as e:  # never a traceback
        print(f"{_error_kind(e)} error: {e}", file=sys.stderr)
    return 2


def _cmd_run(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    def run() -> int:
        out_dir = read(CONFIG, cfg)["output_dir"] or os.path.splitext(path)[0] + ".out"
        manifest = run_config(cfg, out_dir)
        for c in manifest["checks"]:
            print(f"[{'pass' if c['passed'] else 'FAIL'}] {c['name']}")
        print(f"outputs in {out_dir}")
        return 0 if manifest["passed"] else 1

    return _classified(run)


def _cmd_reproduce(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        cfg = manifest["config"]
        old = {o["path"]: o["sha256"] for o in manifest.get("outputs", [])}
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        print(f"manifest error: {e}", file=sys.stderr)
        return 2
    if manifest.get("artifact_version") != __version__:
        print(f"warning: manifest from version {manifest.get('artifact_version')}, "
              f"running {__version__}; best effort", file=sys.stderr)
    if _hash_config(cfg) != manifest.get("config_hash"):
        print("warning: embedded config does not match recorded hash; "
              "this is not a reproduction", file=sys.stderr)

    def rerun() -> int:
        new = run_config(cfg, os.path.join(os.path.dirname(os.path.abspath(path)), "reproduce"))
        new = {o["path"]: o["sha256"] for o in new["outputs"]}
        ok = True
        # the manifest itself differs (wall time); only payload files count,
        # and one listed on a single side differs
        for p in sorted(old.keys() | new.keys()):
            match = p in old and p in new and old[p] == new[p]
            print(f"[{'match' if match else 'DIFFER'}] {p}")
            ok &= match
        return 0 if ok else 1

    return _classified(rerun)


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
