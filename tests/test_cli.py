"""End-to-end runs of the experiment runner on small configs."""
import json
import os

import numpy as np
import pytest
import scipy.linalg

from weylab import __version__
from weylab.builders import get_weight
from weylab.cli import _hash_config, main
from weylab.hamiltonians import DirichletGrid
from weylab.spectral import band_slope


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


def test_evolve_heat_cn_with_random_state(tmp_path):
    code, out = run(tmp_path, "ev.json", {
        "schema": 1, "kind": "evolve",
        "grid": {"n": 1, "N": 32, "L": 6.0},
        "operator": {"name": "harmonic"},
        "evolution": "heat", "method": "cn",
        "times": {"t0": 0.0, "t1": 0.3, "count": 7},
        "state": {"kind": "random", "seed": 3}})
    assert code == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["checks"][0]["name"] == "norm-nonincreasing"


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
    critical = band_slope(get_weight("harmonic", {"n": 1}), 2.0, npts=60)[0]
    assert [c["critical_slope"] for c in cells] == [critical, critical]
    assert [c["verdict"] for c in cells] == ["converges", "diverges"]


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


def test_subellipticity_growing_control(tmp_path):
    code, out = run(tmp_path, "se.json", {
        "schema": 1, "kind": "subellipticity", "seed": 0,
        "operator": {"name": "single_field"}, "tau": 1.0,
        "N_list": [16, 24, 32], "trials": 6, "expect": "growing"})
    assert code == 0
    report = read_json(os.path.join(out, "report.json"))
    assert report["report"]["stable"] is False


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
    # lowest eigenpair; the inertia certificate turns that into exit 2
    cfg = {"schema": 1, "kind": "spectrum", "grid": {"n": 1, "N": 32, "L": 6.0},
           "operator": {"name": "harmonic"}, "k": 4}
    code, out = run(tmp_path, "sp.json", cfg)
    assert code == 0
    orig = scipy.linalg.eigh

    def drop_lowest(*args, **kwargs):
        lam, V = orig(*args, **kwargs)
        return lam[1:], V[:, 1:]

    monkeypatch.setattr(scipy.linalg, "eigh", drop_lowest)
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
