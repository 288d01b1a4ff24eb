"""End-to-end runs of the experiment runner on small configs."""
import csv
import importlib.util
import json
import os
import sys
import tempfile
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import expm_multiply

from _helpers import count_calls
from weylab import __version__, bounds, cli, spectral
from weylab.builders import get_operator, get_weight, read
from weylab.cli import CONFIG, _hash_config, main, run_config
from weylab.hamiltonians import DirichletGrid
from weylab.metric import WeightEvaluator, check_uncertainty
from weylab.quantize import Grid, identity_symbol_matrix
from weylab.spectral import _band_fits
from weylab.symbols import SymbolEvaluator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run(tmp_path, name, cfg):
    path = write_cfg(tmp_path, name, cfg)
    code = main(["run", path])
    out = os.path.splitext(path)[0] + ".out"
    return code, out


def run_and_reproduce(tmp_path, capsys, name, cfg):
    """Run cfg, re-run it from its manifest, and require every output to match."""
    code, out = run(tmp_path, name, cfg)
    assert code == 0
    capsys.readouterr()
    assert main(["reproduce", os.path.join(out, "manifest.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("[match] ") for line in lines)
    return out


def test_list_builders(capsys):
    assert main(["list-builders"]) == 0
    text = capsys.readouterr().out
    assert "daho" in text and "broken_half_bracket" in text


def test_quantize_identity_roundtrip(tmp_path):
    code, out = run(tmp_path, "qi.json", {
        "schema": 1, "kind": "quantize-identity",
        "grid": {"n": 1, "N": 16, "L": 4.0}, "tau": 0.5,
        "symbol": {"name": "harmonic", "params": {"n": 1}}})
    assert code == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    assert manifest["schema"] == 1
    assert [c["name"] for c in manifest["checks"]] == [
        "op-of-one-is-identity", "weyl-real-symbol-hermitian"]
    assert [o["path"] for o in manifest["outputs"]] == ["report.json"]
    report = read_json(os.path.join(out, "report.json"))
    assert report["report"]["identity_defect"] <= 1e-12


def test_quantize_identity_defects_hold_no_side_squared_temporary(monkeypatch):
    # the identity defect is taken in place on the quantized matrix and the
    # Hermitian defect in runs of rows: at 2-D N = 32 (side 1024) the
    # handler's traced peak stays within 10% of the identity's quantization
    # alone (one - I, its abs and the identity itself were three more side^2
    # arrays), and on a perturbed identity and a non-Hermitian A both
    # defects equal the whole-matrix formulas bit for bit
    cfg = {"grid": {"n": 2, "N": 32, "L": 6.0}, "tau": 0.5,
           "symbol": {"name": "daho", "params": {}}}

    def peak(f):
        f()
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = peak(lambda: identity_symbol_matrix(Grid(**cfg["grid"]), tau=0.5))
    assert peak(lambda: cli._run_quantize_identity(cfg)) <= 1.1 * alone
    rng = np.random.default_rng(0)
    noise = rng.normal(scale=1e-13, size=(1024, 1024))
    A = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
    monkeypatch.setattr(cli, "identity_symbol_matrix", lambda grid, tau: np.eye(1024) + noise)
    monkeypatch.setattr(cli, "weyl_quantize", lambda s, grid: A.copy())
    _, report, *_ = cli._run_quantize_identity(cfg)
    assert report == {"identity_defect": float(np.max(np.abs(np.eye(1024) + noise - np.eye(1024)))),
                      "hermitian_defect": float(np.max(np.abs(A - A.conj().T)))}
    assert report["identity_defect"] > 0.0 and report["hermitian_defect"] > 0.0


def test_quantize_identity_2d_generic_tau_is_a_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "qi.json", {
        "schema": 1, "kind": "quantize-identity",
        "grid": {"n": 2, "N": 8, "L": 3.0}, "tau": 0.3})
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: two dimensions: only tau = 0, 1/2 and 1\n"
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["error"]["kind"] == "config"
    assert manifest["outputs"] == []


def test_seeded_kind_requires_seed(tmp_path):
    code, _ = run(tmp_path, "mc.json", {
        "schema": 1, "kind": "metric-check",
        "weight": {"name": "daho"}})
    assert code == 2


def test_metric_check_passes_for_admissible_weight(tmp_path):
    code, out = run(tmp_path, "mc.json", {
        "schema": 1, "kind": "metric-check", "seed": 0,
        "weight": {"name": "daho"}, "box": 50.0,
        "n_points": 2000, "n_pairs": 1000})
    assert code == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert [c["name"] for c in manifest["checks"]] == [
        "uncertainty", "slowness", "temperateness", "gweight"]


def test_metric_check_flags_broken_weight(tmp_path):
    code, out = run(tmp_path, "mc.json", {
        "schema": 1, "kind": "metric-check", "seed": 0,
        "weight": {"name": "broken_half_bracket"}, "box": 20.0,
        "n_points": 500, "n_pairs": 400})
    assert code == 1
    manifest = read_json(os.path.join(out, "manifest.json"))
    by_name = {c["name"]: c["passed"] for c in manifest["checks"]}
    assert by_name["uncertainty"] is False


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_metric_check_without_a_qualifying_pair_writes_strict_json(tmp_path):
    # at this seed none of the six pairs lands in a g-ball: slowness and
    # gweight have no constant, and report.json says null, not Infinity
    code, out = run(tmp_path, "mc.json", {
        "schema": 1, "kind": "metric-check", "seed": 2,
        "weight": {"name": "broken_half_bracket"}, "n_points": 50, "n_pairs": 6})
    assert code == 1
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=_strict_constant)
    reports = {r["kind"]: r for r in doc["report"]["reports"]}
    assert reports["slowness"]["n_checked"] == 0
    for kind in ("slowness", "gweight"):
        assert reports[kind]["constant"] is None and reports[kind]["passed"] is False
    detail = {c["name"]: c["detail"] for c in doc["checks"]}
    assert detail["slowness"].startswith("slowness: FAIL (C=none, checked=0")


def test_metric_check_evaluates_the_weight_once_per_point(tmp_path, monkeypatch):
    # |Z| rows for the uncertainty check, then one pass at X and one at Y
    # serve slowness, temperateness and gweight together
    rows = []
    m_values = WeightEvaluator.m_values

    def counted(self, Z):
        rows.append(len(Z))
        return m_values(self, Z)

    monkeypatch.setattr(WeightEvaluator, "m_values", counted)
    code, _ = run(tmp_path, "mc.json", {
        "schema": 1, "kind": "metric-check", "seed": 0,
        "weight": {"name": "daho"}, "n_points": 500, "n_pairs": 300})
    assert code == 0
    assert rows == [500, 300, 300]


@pytest.mark.parametrize("weight", ["daho", "broken_half_bracket"])
def test_metric_check_streams_the_one_shot_sample(tmp_path, monkeypatch, weight):
    # runs of 7 rows (ROW_BLOCK patched wherever it is read): 21 runs of 7
    # and one of 3, drawn in order from the one generator, report what one
    # check of the one-shot draw reports; broken_half_bracket's 32
    # witnesses are rows 0..31, in five runs
    cfg = {"seed": 5, "weight": {"name": weight}, "box": 6.0, "n_points": 150, "n_pairs": 60}
    w = get_weight(weight)
    Z = np.random.default_rng(5).uniform(-6.0, 6.0, (150, 4))
    want = json.loads(json.dumps(asdict(check_uncertainty(w, Z))))
    assert len(want["witnesses"]) == (0 if weight == "daho" else 32)
    for module in [m for name, m in sys.modules.items() if name.startswith("weylab")]:
        if hasattr(module, "ROW_BLOCK"):
            monkeypatch.setattr(module, "ROW_BLOCK", 7)
    rows = []
    m_values = WeightEvaluator.m_values

    def counted(self, Z):
        rows.append(len(Z))
        return m_values(self, Z)

    monkeypatch.setattr(WeightEvaluator, "m_values", counted)
    code, out = run(tmp_path, "mc.json", {"schema": 1, "kind": "metric-check", **cfg})
    assert code == (0 if weight == "daho" else 1)
    assert rows == [7] * 21 + [3, 60, 60]
    got = read_json(os.path.join(out, "report.json"))["report"]["reports"][0]
    assert got == want


def test_metric_check_memory_does_not_grow_with_the_sample(tmp_path):
    # the uncertainty sample is drawn and checked a run at a time: at 2e5
    # and 1e6 points the traced peak is the same few runs (15.5 and 56.0 MB
    # when the sample was drawn whole)
    cfg = {"schema": 1, "kind": "metric-check", "seed": 0, "weight": {"name": "daho"},
           "box": 6.0, "n_pairs": 600}
    run_config({**cfg, "n_points": 1000}, str(tmp_path / "warm"))
    peaks = []
    for n_points in (200_000, 1_000_000):
        tracemalloc.start()
        try:
            run_config({**cfg, "n_points": n_points}, str(tmp_path / f"n{n_points}"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 12e6
    assert max(peaks) <= 1.1 * min(peaks)


def test_spectrum_csv(tmp_path):
    code, out = run(tmp_path, "sp.json", {
        "schema": 1, "kind": "spectrum",
        "grid": {"n": 1, "N": 48, "L": 8.0},
        "operator": {"name": "harmonic"}, "k": 5,
        "eigenvalue_floor": 0.9})
    assert code == 0
    lines = open(os.path.join(out, "data.csv")).read().splitlines()
    assert lines[0] == "index,eigenvalue,residual"
    assert len(lines) == 6
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert np.allclose(vals, [1, 3, 5, 7, 9], atol=1e-2)


def test_spectrum_with_validated_potential(tmp_path):
    code, out = run(tmp_path, "sp.json", {
        "schema": 1, "kind": "spectrum",
        "grid": {"n": 1, "N": 32, "L": 12.0},
        "operator": {"name": "harmonic"},
        "potential": {"name": "bounded_noise",
                      "params": {"amplitude": 0.3, "seed": 2}},
        "k": 3})
    assert code == 0
    report = read_json(os.path.join(out, "report.json"))
    assert "bounded_noise" in report["report"]["operator"]


def test_spectrum_of_sum_of_squares_reproduces(tmp_path, capsys):
    out = run_and_reproduce(tmp_path, capsys, "sos.json", {
        "schema": 1, "kind": "spectrum",
        "grid": {"n": 2, "N": 12, "L": 4.0},
        "operator": {"name": "sum_of_squares", "params": {"fields": [[0, "1"], [1, "x1"]]}},
        "k": 3})
    report = read_json(os.path.join(out, "report.json"))
    assert report["report"]["operator"] == "sum_of_squares[2 fields]"


@pytest.mark.parametrize("n,fields,axis", [
    (1, [[1, "1"]], 1), (2, [[-1, "1"]], -1), (2, [[0, "1"], [5, "x1"]], 5)])
def test_sum_of_squares_field_off_the_grid_is_a_config_error(tmp_path, capsys, n, fields,
                                                             axis):
    code, out = run(tmp_path, "sos.json", {
        "schema": 1, "kind": "spectrum", "grid": {"n": n, "N": 12, "L": 4.0},
        "operator": {"name": "sum_of_squares", "params": {"fields": fields}}, "k": 3})
    assert code == 2
    message = f"field axis {axis} is not an axis of a grid of dimension {n}"
    assert capsys.readouterr().err == f"config error: {message}\n"
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["error"] == {"kind": "config", "message": message}
    assert manifest["outputs"] == []


def test_sum_of_squares_field_varying_along_its_axis_is_a_config_error(tmp_path, capsys):
    # x1 d/dx1: its coefficient varies along its own axis, which the
    # stencil assembly refuses rather than building a non-symmetric matrix
    code, out = run(tmp_path, "sos.json", {
        "schema": 1, "kind": "spectrum", "grid": {"n": 2, "N": 12, "L": 4.0},
        "operator": {"name": "sum_of_squares", "params": {"fields": [[0, "x1"]]}}, "k": 3})
    assert code == 2
    message = "the coefficient of the field on axis 0 varies along it"
    assert capsys.readouterr().err == f"config error: {message}\n"
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["error"] == {"kind": "config", "message": message}
    assert manifest["outputs"] == []


def test_unknown_grid_key_is_a_config_error(tmp_path, capsys):
    # a spectrum runs on a Dirichlet grid; a boundary it would not honour is
    # refused by the table, so, as for any config that fails it, nothing is written
    code, out = run(tmp_path, "sp.json", {
        "schema": 1, "kind": "spectrum",
        "grid": {"n": 1, "N": 24, "L": 8.0, "boundary": "periodic"},
        "operator": {"name": "harmonic"}, "k": 3})
    assert code == 2
    assert capsys.readouterr().err == "config error: unknown key 'boundary' in grid\n"
    assert not os.path.exists(out)


def test_unknown_top_level_key_is_still_ignored(tmp_path):
    # interim: benchmark configs still send keys their kind does not take
    # (trials to band-probe, method to evolve), so the top level stays lenient
    code, _ = run(tmp_path, "sp.json", {
        "schema": 1, "kind": "spectrum", "grid": {"n": 1, "N": 24, "L": 8.0},
        "operator": {"name": "harmonic"}, "k": 3, "trials": 4})
    assert code == 0


def test_spectrum_with_table_potential_reproduces(tmp_path, capsys):
    table = tmp_path / "v.csv"
    np.savetxt(table, 0.3 * np.sin(DirichletGrid(1, 32, 12.0).points), delimiter=",")
    out = run_and_reproduce(tmp_path, capsys, "tp.json", {
        "schema": 1, "kind": "spectrum",
        "grid": {"n": 1, "N": 32, "L": 12.0},
        "operator": {"name": "harmonic"},
        "potential": {"name": "table", "params": {"file": str(table)}},
        "k": 3})
    report = read_json(os.path.join(out, "report.json"))
    assert report["report"]["operator"].endswith(f"+table({table})")


def test_growth_fit_window_gate(tmp_path):
    code, out = run(tmp_path, "gf.json", {
        "schema": 1, "kind": "growth-fit",
        "grid": {"n": 1, "N": 128, "L": 8.0},
        "operator": {"name": "harmonic"},
        "window": [50, 100], "expect_min": 1.4, "expect_max": 1.7})
    assert code == 0
    report = read_json(os.path.join(out, "report.json"))
    assert 1.4 <= report["report"]["exponent"] <= 1.7


def test_evolve_schrodinger(tmp_path):
    code, out = run(tmp_path, "ev.json", {
        "schema": 1, "kind": "evolve",
        "grid": {"n": 1, "N": 32, "L": 6.0},
        "operator": {"name": "harmonic"},
        "evolution": "schrodinger",
        "times": {"t0": 0.0, "t1": 0.5, "count": 11},
        "state": {"kind": "gaussian", "center": [0.5], "width": 1.0}})
    assert code == 0
    lines = open(os.path.join(out, "data.csv")).read().splitlines()
    assert lines[0] == "time,norm,energy"
    assert len(lines) == 12


def _benchmark_op(workload, seed, name):
    """The config of one benchmark operation, as perfbench/workloads.py builds it."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfg, = [op["cfg"] for op in workloads.make_ops(workload, seed) if op["name"] == name]
    return cfg


def test_benchmark_heat_evolution_matches_expm_multiply(tmp_path):
    # the benchmark's M8, whose stale "method": "cn" is a key outside the
    # table and ignored: every norm it writes is the norm of the exact
    # state, here expm_multiply's on the sparse operator (dt |A|_inf ~ 8;
    # Crank-Nicolson was 88% off at the first step)
    cfg = _benchmark_op("mix", 1, "M8-evolve-cn")
    assert cfg["method"] == "cn"
    code, out = run(tmp_path, "m8.json", cfg)
    assert code == 0
    with open(os.path.join(out, "data.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    g, t = cfg["grid"], cfg["times"]
    A = get_operator(cfg["operator"]["name"], DirichletGrid(g["n"], g["N"], g["L"])).sparse
    rng = np.random.default_rng(cfg["state"]["seed"])
    f = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
    want = expm_multiply(-A, f, start=t["t0"], stop=t["t1"], num=t["count"], endpoint=True)
    assert [float(r["time"]) for r in rows] == list(np.linspace(t["t0"], t["t1"], t["count"]))
    for r, w in zip(rows, want):
        norm = np.linalg.norm(w)
        assert abs(float(r["norm"]) - norm) <= 1e-12 * norm
    assert read_json(os.path.join(out, "report.json"))["report"]["method"] == "eig"


def test_evolve_above_the_dense_limit_is_refused_unfactored(tmp_path, capsys, monkeypatch):
    # daho at N=130 splits into four parity blocks of side 65^2 = 4225,
    # each of which a full spectrum needs whole
    ldlt = count_calls(monkeypatch, spectral, "_count_below")
    band = count_calls(monkeypatch, spectral, "_band_cholesky")
    code, out = run(tmp_path, "big.json", {
        "schema": 1, "kind": "evolve", "grid": {"n": 2, "N": 130, "L": 6.0},
        "operator": {"name": "daho"}, "evolution": "heat",
        "times": {"t0": 0.0, "t1": 0.5, "count": 3}})
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "run error: a block of side 4225 must be decomposed whole, "
        "above the dense limit 4096"]
    assert ldlt == [] and band == []
    assert read_json(os.path.join(out, "manifest.json"))["error"]["kind"] == "run"


def test_evolve_heat_with_one_output_time(tmp_path, capsys):
    # one norm has no increment: the check passes and says so
    out = run_and_reproduce(tmp_path, capsys, "ev.json", {
        "schema": 1, "kind": "evolve", "grid": {"n": 1, "N": 16, "L": 6.0},
        "operator": {"name": "harmonic"}, "evolution": "heat",
        "times": {"t0": 0.0, "t1": 0.2, "count": 1}})
    check, = read_json(os.path.join(out, "report.json"))["checks"]
    assert check == {"name": "norm-nonincreasing", "passed": True,
                     "detail": "one output time: no increment"}
    assert len(open(os.path.join(out, "data.csv")).read().splitlines()) == 2


def test_evolve_rejects_unknown_kind(tmp_path):
    code, _ = run(tmp_path, "ev.json", {
        "schema": 1, "kind": "evolve",
        "grid": {"n": 1, "N": 32, "L": 6.0},
        "operator": {"name": "harmonic"},
        "evolution": "wave"})
    assert code == 2


def test_schatten_sweep_cell_gates(tmp_path):
    code, out = run(tmp_path, "ss.json", {
        "schema": 1, "kind": "schatten-sweep",
        "weight": {"name": "harmonic", "params": {"n": 1}},
        "Q": 2.0,
        "cells": [{"mu": 2.0, "r": 1.5, "expect": "converges",
                   "check_matrix": True}],
        "matrix_N": [16, 24], "box_L": [4.0, 6.0],
        "box_npts": 40, "band_npts": 60})
    assert code == 0
    report = read_json(os.path.join(out, "report.json"))
    cell = report["report"]["cells"][0]
    assert cell["verdict"] == "converges"
    assert cell["matrix_rel_change"] < 0.10


def test_schatten_sweep_cells_share_critical_slope(tmp_path):
    code, out = run(tmp_path, "ss2.json", {
        "schema": 1, "kind": "schatten-sweep",
        "weight": {"name": "harmonic", "params": {"n": 1}},
        "Q": 2.0, "cells": [{"mu": 2.0, "r": 1.5}, {"mu": 0.9, "r": 2.0}],
        "matrix_N": [12], "box_L": [4.0], "box_npts": 20, "band_npts": 60})
    assert code == 0
    cells = read_json(os.path.join(out, "report.json"))["report"]["cells"]
    critical = _band_fits(get_weight("harmonic", {"n": 1}), [2.0], 60)[0][0]
    assert [c["critical_slope"] for c in cells] == [critical, critical]
    assert [c["verdict"] for c in cells] == ["converges", "diverges"]


def test_sweep_block_above_the_dense_limit_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the sweep's limit is per parity block, checked for every N before the
    # weight is evaluated once: daho at N = 12 has four blocks of side 36
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 16)
    evaluated = count_calls(monkeypatch, SymbolEvaluator, "eval")
    code, out = run(tmp_path, "big.json", {
        "schema": 1, "kind": "schatten-sweep", "weight": {"name": "daho"}, "Q": 3.0,
        "cells": [{"mu": 2.0, "r": 2.0}], "matrix_N": [8, 12], "box_L": [4.0],
        "box_npts": 8, "band_npts": 16})
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: N = 12: parity block side 36 exceeds the dense limit 16\n"
    assert evaluated == []
    assert read_json(os.path.join(out, "manifest.json"))["error"]["kind"] == "config"


def test_quantize_identity_above_the_dense_side_limit_is_a_config_error(tmp_path, capsys):
    # the whole-matrix quantizers keep the side limit: side 66^2 = 4356
    code, out = run(tmp_path, "qi.json", {
        "schema": 1, "kind": "quantize-identity", "grid": {"n": 2, "N": 66, "L": 6.0},
        "tau": 0.5, "symbol": {"name": "daho"}})
    assert code == 2
    assert capsys.readouterr().err == "config error: dense side 4356 exceeds limit 4096\n"
    assert read_json(os.path.join(out, "manifest.json"))["error"]["kind"] == "config"


def test_band_probe_spread_gate(tmp_path):
    code, out = run(tmp_path, "bp.json", {
        "schema": 1, "kind": "band-probe", "seed": 9,
        "weight": {"name": "harmonic", "params": {"n": 1}},
        "grid": {"n": 1, "N": 256, "L": 10.5},
        "epsilon": 0.8, "R_list": [3.0], "trials": 8,
        "spread_gate": 2.0})
    assert code == 0
    lines = open(os.path.join(out, "data.csv")).read().splitlines()
    assert len(lines) == 2


def test_lp_probe(tmp_path):
    code, out = run(tmp_path, "lp.json", {
        "schema": 1, "kind": "lp-probe", "seed": 0,
        "weight": {"name": "harmonic"},
        "operator": {"name": "harmonic"},
        "grids": [{"n": 2, "N": 12, "L": 6.0}, {"n": 2, "N": 16, "L": 6.0}],
        "beta": 1.0, "p_list": [2.0, 4.0], "trials": 8})
    assert code == 0
    report = read_json(os.path.join(out, "report.json"))
    assert report["report"]["calibration_residual"] < 0.35
    assert len(report["report"]["cells"]) == 4


def test_lp_probe_lower_above_upper_fails_bracket_order(tmp_path, capsys, monkeypatch):
    # a lower bound above the interpolated upper bound is a failed check
    # with its report written, not a config fault
    lp_lower = bounds._lp_lower
    monkeypatch.setattr(bounds, "_lp_lower", lambda *a: 2.0 * lp_lower(*a))
    code, out = run(tmp_path, "lp.json", {
        "schema": 1, "kind": "lp-probe", **SMALL["lp-probe"], "p_list": [4.0]})
    assert code == 1
    assert capsys.readouterr().err == ""
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["checks"] == [{"name": "bracket-order", "passed": False}]
    assert "error" not in manifest
    cell, = read_json(os.path.join(out, "report.json"))["report"]["cells"]
    assert cell["lower"] > cell["upper"]


def test_lp_probe_grid_without_N_is_a_config_error(tmp_path, capsys):
    code, _ = run(tmp_path, "lp.json", {
        "schema": 1, "kind": "lp-probe", "seed": 0,
        "weight": {"name": "harmonic"}, "operator": {"name": "harmonic"},
        "grids": [{"n": 2, "L": 6.0}], "beta": 1.0, "p_list": [2.0]})
    assert code == 2
    assert capsys.readouterr().err == "config error: config missing required key 'N'\n"


@pytest.mark.parametrize("kind,extra", [
    ("lp-probe", {"weight": {"name": "harmonic"}, "grids": [{"n": 2, "N": 12, "L": 6.0}],
                  "beta": 1.0, "p_list": [2.0]}),
    ("subellipticity", {"tau": 1.0}),
])
def test_operator_without_name_is_a_config_error(tmp_path, capsys, kind, extra):
    code, _ = run(tmp_path, "op.json", {"schema": 1, "kind": kind, "seed": 0,
                                        "operator": {}, **extra})
    assert code == 2
    assert capsys.readouterr().err == "config error: config missing required key 'name'\n"


@pytest.mark.parametrize("cfg", [
    {"kind": "evolve", "grid": {"n": 1, "N": 32, "L": 6.0},
     "operator": {"name": "harmonic"}, "times": {"t1": 0.1, "count": 3},
     "state": {"kind": "random"}},
    {"kind": "spectrum", "grid": {"n": 1, "N": 32, "L": 12.0},
     "operator": {"name": "harmonic"}, "k": 3,
     "potential": {"name": "bounded_noise", "params": {"amplitude": 0.3}}},
], ids=["random-state", "bounded-noise"])
def test_randomized_part_without_seed_is_a_config_error(tmp_path, capsys, cfg):
    code, _ = run(tmp_path, "noseed.json", {"schema": 1, **cfg})
    assert code == 2
    assert capsys.readouterr().err == "config error: config missing required key 'seed'\n"


@pytest.mark.parametrize("cfg,err", [
    ([{"schema": 1, "kind": "spectrum"}],
     "config error: the config must be an object, got a list\n"),
    ({"schema": 1, "kind": "spectrum", "grid": 5, "operator": {"name": "harmonic"}, "k": 3},
     "config error: grid must be an object, got 5\n"),
], ids=["top-level-list", "grid-number"])
def test_non_object_config_is_a_config_error(tmp_path, capsys, cfg, err):
    code, _ = run(tmp_path, "shape.json", cfg)
    assert code == 2
    assert capsys.readouterr().err == err


EVOLVE = {"kind": "evolve", "grid": {"n": 1, "N": 32, "L": 6.0}, "operator": {"name": "harmonic"}}


@pytest.mark.parametrize("cfg,err", [
    ({"kind": "spectrum", "grid": {"n": 1, "N": 32, "L": 6.0},
      "operator": {"name": "harmonic", "params": 5}, "k": 3},
     "operator.params must be an object, got 5"),
    ({"kind": "spectrum", "grid": {"n": 1, "N": 32, "L": 12.0}, "operator": {"name": "harmonic"},
      "k": 3, "potential": {"name": "step", "params": 5}},
     "potential.params must be an object, got 5"),
    ({"kind": "metric-check", "seed": 0, "weight": {"name": "daho", "params": 5}},
     "weight.params must be an object, got 5"),
    ({"kind": "class-check", "seed": 0, "symbol": {"name": "daho", "params": [1]}},
     "symbol.params must be an object, got a list"),
    (dict(EVOLVE, state=5), "state must be an object, got 5"),
    (dict(EVOLVE, times=[0.0, 1.0]), "times must be an object, got a list"),
], ids=["operator", "potential", "weight", "symbol", "state", "times"])
def test_non_object_section_is_a_config_error(tmp_path, capsys, cfg, err):
    code, _ = run(tmp_path, "section.json", {"schema": 1, **cfg})
    assert code == 2
    assert capsys.readouterr().err == f"config error: {err}\n"


def test_subellipticity_growing_control(tmp_path):
    code, out = run(tmp_path, "se.json", {
        "schema": 1, "kind": "subellipticity", "seed": 0,
        "operator": {"name": "single_field"}, "tau": 1.0,
        "N_list": [16, 24, 32], "trials": 6, "expect": "growing"})
    assert code == 0
    report = read_json(os.path.join(out, "report.json"))
    assert report["report"]["stable"] is False


def test_subellipticity_stable_ladder_passes_its_check(tmp_path):
    # the laplacian at tau = 1: the C1 ladder moves by 0.005 and 0.07, so
    # the probe reads stable and the stability check runs and passes
    code, out = run(tmp_path, "se.json", {
        "schema": 1, "kind": "subellipticity", "seed": 0,
        "operator": {"name": "laplacian"}, "tau": 1.0,
        "N_list": [16, 24, 32], "trials": 6, "expect": "stable"})
    assert code == 0
    checks = read_json(os.path.join(out, "manifest.json"))["checks"]
    assert checks == [{"name": "subellipticity-ladder", "passed": True},
                      {"name": "stability", "passed": True}]
    report = read_json(os.path.join(out, "report.json"))
    assert report["report"]["stable"] is True


def test_subellipticity_rejects_unknown_operator(tmp_path):
    code, _ = run(tmp_path, "se.json", {
        "schema": 1, "kind": "subellipticity", "seed": 0,
        "operator": {"name": "daho"}, "tau": 1.0})
    assert code == 2


def test_class_check_expected_pass(tmp_path):
    code, out = run(tmp_path, "cc.json", {
        "schema": 1, "kind": "class-check", "seed": 0,
        "symbol": {"name": "harmonic"}, "target": "a",
        "order": 4, "halves": [10.0, 20.0],
        "n_grid": 3, "n_random": 100})
    assert code == 0
    report = read_json(os.path.join(out, "report.json"))
    assert report["report"]["passed"] is True


def test_class_check_of_the_weight_reproduces(tmp_path, capsys):
    out = run_and_reproduce(tmp_path, capsys, "ccm.json", {
        "schema": 1, "kind": "class-check", "seed": 0,
        "symbol": {"name": "harmonic"}, "target": "m",
        "order": 2, "halves": [10.0, 20.0],
        "n_grid": 3, "n_random": 100})
    report = read_json(os.path.join(out, "report.json"))["report"]
    assert report["target"] == "m" and report["passed"] is True


def test_class_check_expected_fail_is_reported_faithfully(tmp_path):
    # the degenerate model's order-4 seminorm genuinely grows past the
    # default gate; the config records that expectation rather than
    # widening the gate
    code, out = run(tmp_path, "cc.json", {
        "schema": 1, "kind": "class-check", "seed": 0,
        "symbol": {"name": "daho"}, "target": "a",
        "order": 4, "halves": [10.0, 20.0],
        "n_grid": 3, "n_random": 100, "expect_pass": False})
    assert code == 0
    report = read_json(os.path.join(out, "report.json"))
    assert report["report"]["passed"] is False
    assert report["report"]["growth"][0] == pytest.approx(1.20808, abs=2e-4)


def test_config_error_paths(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    code, _ = run(tmp_path, "uk.json", {"schema": 1, "kind": "frobnicate"})
    assert code == 2
    code, _ = run(tmp_path, "sc.json", {"schema": 7, "kind": "spectrum"})
    assert code == 2


def test_solver_failure_is_a_run_error(tmp_path, capsys, monkeypatch):
    # the run and its reproduction both meet a solver that drops the
    # lowest eigenpair; the inertia certificate turns that into exit 2.
    # The operator splits into two parity blocks, each decomposed whole
    # by one scipy.linalg.eigh (a partial solve stays on scipy's LAPACK)
    import scipy.linalg as la

    cfg = {"schema": 1, "kind": "spectrum", "grid": {"n": 1, "N": 32, "L": 6.0},
           "operator": {"name": "harmonic"}, "k": 4}
    code, out = run(tmp_path, "sp.json", cfg)
    assert code == 0
    orig = la.eigh

    def drop_lowest(*args, **kwargs):
        lam, V = orig(*args, **kwargs)
        return lam[1:], V[:, 1:]

    monkeypatch.setattr(la, "eigh", drop_lowest)
    capsys.readouterr()
    assert main(["run", write_cfg(tmp_path, "sp2.json", cfg)]) == 2
    assert main(["reproduce", os.path.join(out, "manifest.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("run error: dense:") and "inertia" in line for line in err)


def test_output_dir_override(tmp_path):
    custom = str(tmp_path / "elsewhere")
    path = write_cfg(tmp_path, "qi.json", {
        "schema": 1, "kind": "quantize-identity",
        "grid": {"n": 1, "N": 16, "L": 4.0}, "output_dir": custom})
    assert main(["run", path]) == 0
    assert os.path.exists(os.path.join(custom, "manifest.json"))


def test_reproduce_bitwise_match(tmp_path, capsys):
    code, out = run(tmp_path, "sp.json", {
        "schema": 1, "kind": "spectrum",
        "grid": {"n": 1, "N": 32, "L": 6.0},
        "operator": {"name": "harmonic"}, "k": 4})
    assert code == 0
    capsys.readouterr()
    assert main(["reproduce", os.path.join(out, "manifest.json")]) == 0
    text = capsys.readouterr().out
    assert "[match] data.csv" in text and "[match] report.json" in text
    assert os.path.exists(os.path.join(out, "reproduce", "data.csv"))


def test_reproduce_detects_divergence(tmp_path, capsys):
    code, out = run(tmp_path, "sp.json", {
        "schema": 1, "kind": "spectrum",
        "grid": {"n": 1, "N": 32, "L": 6.0},
        "operator": {"name": "harmonic"}, "k": 4})
    assert code == 0
    mpath = os.path.join(out, "manifest.json")
    manifest = read_json(mpath)
    manifest["outputs"][0]["sha256"] = "0" * 64
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert main(["reproduce", mpath]) == 1
    assert "[DIFFER]" in capsys.readouterr().out


def test_reproduce_fails_on_a_listed_output_it_did_not_write(tmp_path, capsys):
    code, out = run(tmp_path, "sp.json", {
        "schema": 1, "kind": "spectrum",
        "grid": {"n": 1, "N": 32, "L": 6.0},
        "operator": {"name": "harmonic"}, "k": 4})
    assert code == 0
    mpath = os.path.join(out, "manifest.json")
    manifest = read_json(mpath)
    manifest["outputs"].append({"path": "eigenvectors.npy", "sha256": "0" * 64})
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert main(["reproduce", mpath]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[DIFFER] eigenvectors.npy" in lines
    assert "[match] data.csv" in lines and "[match] report.json" in lines


def test_reproduce_warns_on_tampered_config(tmp_path, capsys):
    code, out = run(tmp_path, "qi.json", {
        "schema": 1, "kind": "quantize-identity",
        "grid": {"n": 1, "N": 16, "L": 4.0}})
    assert code == 0
    mpath = os.path.join(out, "manifest.json")
    manifest = read_json(mpath)
    manifest["config"]["tau"] = 0.25
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    main(["reproduce", mpath])
    assert "not a reproduction" in capsys.readouterr().err


def test_reproduce_of_another_versions_manifest_warns_and_matches(tmp_path, capsys):
    code, out = run(tmp_path, "qi.json", {
        "schema": 1, "kind": "quantize-identity",
        "grid": {"n": 1, "N": 16, "L": 4.0}})
    assert code == 0
    mpath = os.path.join(out, "manifest.json")
    manifest = read_json(mpath)
    manifest["artifact_version"] = "0.0.0"
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert main(["reproduce", mpath]) == 0
    captured = capsys.readouterr()
    assert captured.err == (f"warning: manifest from version 0.0.0, running {__version__}; "
                            "best effort\n")
    lines = captured.out.splitlines()
    assert lines and all(line.startswith("[match] ") for line in lines)


def test_reproduce_rejects_broken_manifest(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{}")
    assert main(["reproduce", str(p)]) == 2


def test_starved_band_sample_is_a_run_error(tmp_path, capsys):
    # the broken weight leaves the shell R <= m <= 3R empty, so the band
    # sampler raises a plain RuntimeError: exit 2, not a traceback
    code, _ = run(tmp_path, "bp.json", {
        "schema": 1, "kind": "band-probe", "seed": 1,
        "weight": {"name": "broken_half_bracket", "params": {"n": 1}},
        "grid": {"n": 1, "N": 128, "L": 6.0}, "epsilon": 0.5,
        "R_list": [3.0, 30.0], "trials": 4})
    assert code == 2
    assert capsys.readouterr().err.startswith("run error: band sampling starved at R=3")


def test_degenerate_band_probe_weight_is_a_config_error(tmp_path, capsys):
    # daho's shell reaches past the box |x_j|, |xi_j| <= sqrt(3R) that the
    # probe samples and the grid resolves: exit 2 with the error in the manifest
    code, out = run(tmp_path, "bp.json", {
        "schema": 1, "kind": "band-probe", "seed": 1, "weight": {"name": "daho"},
        "grid": {"n": 2, "N": 24, "L": 2.0}, "epsilon": 0.8, "R_list": [3.0]})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: weight 'daho' does not dominate |x|^2 + |xi|^2: at R=3.0")
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is False
    assert manifest["error"] == {"kind": "config", "message": err[len("config error: "):-1]}


def test_calibration_failure_is_a_run_error(tmp_path, capsys):
    # the non-spanning operator cannot track the harmonic weight's decay;
    # run and reproduce both report it as exit 2, not a traceback
    cfg = {"schema": 1, "kind": "lp-probe", "seed": 1, "weight": {"name": "harmonic"},
           "operator": {"name": "single_field"}, "grids": [{"n": 2, "N": 12, "L": 6.0}],
           "beta": 1.0, "p_list": [2.0], "trials": 2}
    code, _ = run(tmp_path, "lp.json", cfg)
    assert code == 2
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": cfg, "config_hash": _hash_config(cfg),
                                    "artifact_version": __version__}))
    assert main(["reproduce", str(manifest)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("run error: power calibration residual") for line in err)


def test_lp_probe_shift_below_the_spectrum_is_a_run_error(tmp_path, capsys):
    # (H + shift)^(-b) needs H + shift positive definite; a shift that
    # leaves it indefinite is a failed run (exit 2), not a config error
    code, _ = run(tmp_path, "lp.json", {
        "schema": 1, "kind": "lp-probe", "seed": 0, "weight": {"name": "harmonic"},
        "operator": {"name": "harmonic"}, "grids": [{"n": 2, "N": 12, "L": 6.0}],
        "beta": 1.0, "p_list": [2.0], "shift": -1000})
    assert code == 2
    assert capsys.readouterr().err.startswith("run error: shift too small")


def write_manifest(tmp_path, cfg):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": cfg, "config_hash": _hash_config(cfg),
                                "artifact_version": __version__}))
    return str(path)


SPECTRUM = {"schema": 1, "kind": "spectrum", "grid": {"n": 1, "N": 32, "L": 12.0},
            "operator": {"name": "harmonic"}, "k": 3}
CLASS = {"schema": 1, "kind": "class-check", "seed": 0, "symbol": {"name": "harmonic"},
         "n_grid": 3, "n_random": 100}
EVOLVE = {"schema": 1, "kind": "evolve", "grid": {"n": 2, "N": 12, "L": 4.0},
          "operator": {"name": "harmonic"}, "evolution": "heat"}


@pytest.mark.parametrize("cfg,err", [
    (dict(SPECTRUM, potential={"name": "table", "params": {"file": "v.csv"}, "override": "no"}),
     'config error: potential.override must be true or false, got "no"'),
    (dict(CLASS, expect_pass="false"),
     'config error: expect_pass must be true or false, got "false"'),
    (dict(SPECTRUM, kind="evolve", times={"count": 1.5}),
     "config error: times.count must be an integer, got 1.5"),
    (dict(SPECTRUM, grid={"n": 1, "N": 16.9, "L": 12.0}),
     "config error: grid.N must be an integer, got 16.9"),
    (dict(CLASS, seed=1.7), "config error: seed must be an integer, got 1.7"),
    (dict(SPECTRUM, grid={"n": 1, "N": 32, "L": float("nan")}),
     "config error: grid.L must be a finite number, got NaN"),
    (dict(SPECTRUM, schema="1"), 'config error: schema must be 1, got "1"'),
    ({"schema": 1, "kind": "lp-probe", "seed": 0, "weight": {"name": "harmonic"},
      "operator": {"name": "harmonic"}, "grids": [{"N": 12, "L": 6.0}], "beta": None,
      "p_list": [2.0]}, "config error: config missing required key 'beta'"),
    ({"schema": 1, "kind": "subellipticity", "seed": 0, "operator": {"name": "single_field"},
      "tau": 1.0, "N_list": 5}, "config error: N_list must be a list, got 5"),
    (dict(CLASS, halves=10), "config error: halves must be a list, got 10"),
    (5, "config error: the config must be an object, got 5"),
    (dict(EVOLVE, state={"kind": "gaussian", "center": [0.5, 0.0, 1.0]}),
     "config error: state.center has 3 entries; it needs 1 or the grid dimension 2"),
    (dict(EVOLVE, times={"t0": -3, "t1": 0, "count": 5}),
     "config error: time -3 is before t = 0, where the evolution starts"),
], ids=["override", "expect_pass", "count", "N", "seed", "L-nan", "schema", "beta-null",
        "N_list", "halves", "config-number", "center-length", "heat-before-zero"])
def test_config_fault_is_one_config_error_line(tmp_path, capsys, cfg, err):
    # run and reproduce both print exactly one classified line, exit 2
    assert main(["run", write_cfg(tmp_path, "bad.json", cfg)]) == 2
    assert main(["reproduce", write_manifest(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [err, err]


def test_output_path_taken_by_a_file_is_a_run_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = dict(SPECTRUM, output_dir=str(taken))
    assert main(["run", write_cfg(tmp_path, "sp.json", cfg)]) == 2
    # no manifest can go there, and the file is left as it was
    assert taken.read_text() == ""
    assert sorted(os.listdir(tmp_path)) == ["sp.json", "taken"]
    # reproduce writes beside its manifest, into reproduce/
    (tmp_path / "reproduce").write_text("")
    assert main(["reproduce", write_manifest(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"run error: [Errno 17] File exists: '{taken}'",
        f"run error: [Errno 17] File exists: '{tmp_path / 'reproduce'}'"]


# one small valid config per kind; every one runs in well under a second
SMALL = {
    "metric-check": {"seed": 0, "weight": {"name": "harmonic", "params": {"n": 1}},
                     "box": 20.0, "n_points": 200, "n_pairs": 100},
    "class-check": {"seed": 0, "symbol": {"name": "harmonic", "params": {"n": 1}},
                    "target": "a", "order": 2, "halves": [10.0, 20.0], "growth_factor": 1.05,
                    "n_grid": 3, "n_random": 50, "expect_pass": True},
    "quantize-identity": {"grid": {"n": 1, "N": 16, "L": 4.0}, "tau": 0.5,
                          "symbol": {"name": "harmonic", "params": {"n": 1}}},
    "spectrum": {"grid": {"n": 1, "N": 24, "L": 8.0},
                 "operator": {"name": "harmonic", "params": {"order": 6}},
                 "potential": {"name": "step", "params": {"amplitude": 0.5, "base": 0.0},
                               "override": True},
                 "k": 3, "eigenvalue_floor": 0.5},
    "growth-fit": {"grid": {"n": 1, "N": 80, "L": 8.0}, "operator": {"name": "harmonic"},
                   "window": [10, 60], "k": 70, "expect_min": 1.0, "expect_max": 3.0},
    "schatten-sweep": {"weight": {"name": "harmonic", "params": {"n": 1}}, "Q": 2.0,
                       "cells": [{"mu": 2.0, "r": 1.5, "expect": "converges",
                                  "check_matrix": True}],
                       "matrix_N": [12, 16], "box_L": [4.0, 6.0], "box_npts": 20,
                       "band_npts": 40, "matrix_gate": 0.5},
    "evolve": {"grid": {"n": 1, "N": 16, "L": 6.0}, "operator": {"name": "harmonic"},
               "evolution": "heat",
               "times": {"t0": 0.0, "t1": 0.2, "count": 5},
               "state": {"kind": "gaussian", "center": [0.5], "width": 1.0}},
    "lp-probe": {"seed": 0, "weight": {"name": "harmonic"}, "operator": {"name": "harmonic"},
                 "grids": [{"n": 2, "N": 12, "L": 6.0}], "beta": 1.0, "p_list": [2.0],
                 "shift": 1.0, "trials": 2},
    "band-probe": {"seed": 0, "weight": {"name": "harmonic", "params": {"n": 1}},
                   "grid": {"n": 1, "N": 128, "L": 10.5}, "epsilon": 0.8, "R_list": [3.0],
                   "spread_gate": 2.0},
    "subellipticity": {"seed": 0, "operator": {"name": "single_field"}, "tau": 1.0,
                       "N_list": [16, 24, 32], "L": 4.0, "trials": 6, "expect": "growing"},
}


@pytest.mark.parametrize("kind,key,value,err", [
    ("subellipticity", "N_list", [], "N_list must not be empty"),
    ("schatten-sweep", "box_L", [], "box_L must not be empty"),
    ("schatten-sweep", "box_L", [-1.0, 6.0],
     "box_L[0] must be a finite number above 0, got -1.0"),
    ("class-check", "n_random", 0, "n_random must be an integer of at least 1, got 0"),
    ("class-check", "order", -1, "order must be an integer of at least 0, got -1"),
    ("lp-probe", "trials", -1, "trials must be an integer of at least 1, got -1"),
    ("quantize-identity", "symbol", {"name": "harmonic", "params": {"n": 0}},
     "symbol.params.n must be an integer of at least 1, got 0"),
    ("lp-probe", "grids", [], "grids must not be empty"),
    ("lp-probe", "p_list", [2.0, 0.5], "p_list[1] must be a finite number of at least 1, got 0.5"),
    ("band-probe", "R_list", [], "R_list must not be empty"),
    ("metric-check", "n_pairs", 5, "n_pairs must be an integer of at least 6, got 5"),
    ("growth-fit", "window", [0, 60], "window[0] must be an integer of at least 1, got 0"),
], ids=["N_list", "box_L-empty", "box_L-negative", "n_random", "order", "trials",
        "harmonic-n", "grids", "p_list", "R_list", "n_pairs", "window"])
def test_declared_minimum_is_a_config_error(tmp_path, capsys, kind, key, value, err):
    cfg = {"schema": 1, "kind": kind, **SMALL[kind], key: value}
    assert main(["run", write_cfg(tmp_path, "bad.json", cfg)]) == 2
    assert main(["reproduce", write_manifest(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {err}"] * 2
    # the config never passed the table, so nothing is written
    assert not (tmp_path / "bad.out").exists()


LP_SHIFTED = {"schema": 1, "kind": "lp-probe", **SMALL["lp-probe"], "shift": -1000}


def test_failed_run_leaves_a_manifest_with_its_error(tmp_path, capsys):
    code, out = run(tmp_path, "lp.json", LP_SHIFTED)
    assert code == 2
    assert sorted(os.listdir(out)) == ["manifest.json"]
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is False
    assert manifest["checks"] == [] and manifest["outputs"] == []
    assert manifest["config"] == LP_SHIFTED
    assert manifest["config_hash"] == _hash_config(LP_SHIFTED)
    assert manifest["error"]["kind"] == "run"
    assert manifest["error"]["message"].startswith("shift too small")
    # reproducing the failed run fails alike and says so in its own manifest
    assert main(["reproduce", os.path.join(out, "manifest.json")]) == 2
    again = read_json(os.path.join(out, "reproduce", "manifest.json"))
    assert again["error"] == manifest["error"]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"run error: {manifest['error']['message']}"] * 2


def test_failed_handler_value_error_is_a_config_error_in_the_manifest(tmp_path, capsys):
    # c' = 0 passes the table as a number but the profile refuses it
    cfg = {"schema": 1, "kind": "quantize-identity", "grid": {"n": 2, "N": 8, "L": 4.0},
           "symbol": {"name": "daho", "params": {"c_prime": 0.0}}}
    code, out = run(tmp_path, "q.json", cfg)
    assert code == 2
    assert capsys.readouterr().err == "config error: c_prime must be nonzero\n"
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is False
    assert manifest["error"] == {"kind": "config", "message": "c_prime must be nonzero"}


# a value of each JSON type; a key only ever gets one of another type
OTHER_TYPES = [None, True, 3, 2.5, "x", [1], {"a": 1}]


def _paths(value, prefix=()):
    """Every key and list element below value, as a path of keys and indices."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, v in items:
        yield prefix + (key,)
        yield from _paths(v, prefix + (key,))


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return cfg


@st.composite
def _mutated(draw):
    kind = draw(st.sampled_from(sorted(SMALL)))
    cfg = {"schema": 1, "kind": kind, **SMALL[kind]}
    path = draw(st.sampled_from(list(_paths(cfg))))
    old = cfg
    for key in path:
        old = old[key]
    value = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)]))
    return _replaced(cfg, path, value)


def test_small_configs_run_and_reproduce(tmp_path, capsys):
    for kind in SMALL:
        out = run_and_reproduce(tmp_path, capsys, f"{kind}.json",
                                {"schema": 1, "kind": kind, **SMALL[kind]})
        assert read_json(os.path.join(out, "manifest.json"))["passed"] is True


def test_small_configs_data_csv_rows_match_header(tmp_path):
    with_csv = set()
    for kind in SMALL:
        code, out = run(tmp_path, f"{kind}.json", {"schema": 1, "kind": kind, **SMALL[kind]})
        assert code == 0
        if os.path.exists(os.path.join(out, "data.csv")):
            with open(os.path.join(out, "data.csv"), newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            # the handler builds each row next to the header it fills
            assert rows and all(len(row) == len(header) for row in rows)
            with_csv.add(kind)
    assert with_csv == {"spectrum", "growth-fit", "schatten-sweep", "evolve", "lp-probe",
                        "band-probe", "subellipticity"}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_mutated())
def test_one_key_of_another_type_ends_in_one_outcome(cfg):
    # any JSON value in any key: exit 0, 1 or 2 and never an exception;
    # a run that passes reproduces byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        code = main(["run", path])
        assert code in (0, 1, 2)
        if code == 0:
            assert main(["reproduce", os.path.join(tmp, "cfg.out", "manifest.json")]) == 0


def test_every_benchmark_config_passes_the_reader():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    try:
        from workloads import make_ops
    finally:
        sys.path.pop(0)
    for workload in ("eigen", "trend", "mix"):
        for seed in (1, 2):
            for op in make_ops(workload, seed):
                assert read(CONFIG, op["cfg"])["kind"] == op["cfg"]["kind"]
