"""Seeded workload generator: workload name + seed -> list of operations.

Each operation is one weylab config plus the oracle the benchmark applies
to its outputs.  Grids, models and cells are fixed per workload; the seed
only drives the randomized parts (every seeded kind's ``seed``, random
initial states, noise potentials), so the same seed always yields the
same configs.  This module does not import weylab.
"""

from __future__ import annotations

import random

WORKLOADS = ("eigen", "trend", "mix")

# Operations that fail at the commit that defined the benchmark.  They
# stay in the workload and are counted in ``failed``; only their failure
# does not make the run ``correct: false``.  Fixing them needs no change
# here: a passing known-defect operation is simply not a failure.
KNOWN_DEFECTS = frozenset({
    "E4",  # wrong answer: the shift-invert Lanczos assumes a spectrum >= -1/2
    "E5",  # SolverError: the Lanczos residual gate fails at N=72, k=20
})


def _op(name, cfg, oracle):
    return {"name": name, "cfg": dict(cfg, schema=1), "oracle": oracle}


def _eigen(rng):
    # E1 (daho growth-fit at N=64, 13 s) is left out so that every run of
    # every workload fits the benchmark's time budget; E2 covers the same
    # dense path at side 2304.
    daho66 = {"kind": "spectrum", "grid": {"n": 2, "N": 66, "L": 8.0},
              "operator": {"name": "daho"}, "k": 6}
    return [
        _op("E2", {"kind": "growth-fit", "grid": {"n": 2, "N": 48, "L": 8.0},
                   "operator": {"name": "harmonic"}, "window": [50, 400]},
            {"kind": "harmonic-tensor", "N": 48, "L": 8.0}),
        _op("E3", daho66, {"kind": "reference", "ref": "daho_N66"}),
        _op("E4", dict(daho66, potential={"name": "step",
                                          "params": {"amplitude": 0.0, "base": -5.0}}),
            {"kind": "reference", "ref": "daho_N66", "shift": -5.0}),
        _op("E5", {"kind": "spectrum", "grid": {"n": 2, "N": 72, "L": 8.0},
                   "operator": {"name": "daho"}, "k": 20},
            {"kind": "reference", "ref": "daho_N72"}),
    ]


def _trend(rng):
    # matrix_N [16, 24] and 24^4 / 28^4-point quadrature boxes keep one pass
    # near nine seconds; both verdicts keep a wide margin at this size
    # (slopes -1.96 and -0.44 against a critical -1.01).
    daho = {"kind": "schatten-sweep", "weight": {"name": "daho"}, "Q": 3.0,
            "cells": [{"mu": 2.0, "r": 2.0, "expect": "converges", "check_matrix": True},
                      {"mu": 1.2, "r": 2.0, "expect": "diverges"}],
            "matrix_N": [16, 24], "box_L": [8.0, 12.0, 16.0],
            "box_npts": 24, "band_npts": 28}
    elliptic = {"kind": "schatten-sweep", "weight": {"name": "harmonic", "params": {"n": 1}},
                "Q": 2.0,
                "cells": [{"mu": 1.01, "r": 2.0, "expect": "converges", "check_matrix": True},
                          {"mu": 0.9, "r": 2.0, "expect": "diverges"}],
                "matrix_N": [32, 48], "box_L": [8.0, 12.0, 16.0],
                "box_npts": 100, "band_npts": 100}
    return [_op("T1-daho", daho, {"kind": "trend"}),
            _op("T2-elliptic", elliptic, {"kind": "trend"})]


def _mix(rng):
    def s():
        return rng.randrange(1 << 30)

    return [
        _op("M1-metric", {"kind": "metric-check", "seed": s(), "weight": {"name": "daho"},
                          "box": 6.0, "n_points": 200000, "n_pairs": 20000},
            {"kind": "checks"}),
        _op("M2-class-daho", {"kind": "class-check", "seed": s(), "symbol": {"name": "daho"},
                              "target": "a", "order": 4, "halves": [10.0, 20.0],
                              "n_grid": 3, "n_random": 1000, "expect_pass": False},
            {"kind": "checks"}),
        _op("M3-class-harmonic", {"kind": "class-check", "seed": s(),
                                  "symbol": {"name": "harmonic"}, "target": "a",
                                  "order": 4, "halves": [10.0, 20.0],
                                  "n_grid": 3, "n_random": 1000},
            {"kind": "checks"}),
        _op("M4-lp", {"kind": "lp-probe", "seed": s(), "weight": {"name": "daho"},
                      "operator": {"name": "daho"},
                      "grids": [{"n": 2, "N": 16, "L": 6.0}, {"n": 2, "N": 20, "L": 6.0}],
                      "beta": 1.0, "p_list": [2.0, 4.0], "trials": 8},
            {"kind": "checks"}),
        _op("M5-band", {"kind": "band-probe", "seed": s(),
                        "weight": {"name": "harmonic", "params": {"n": 1}},
                        "grid": {"n": 1, "N": 384, "L": 10.5}, "epsilon": 0.8,
                        "R_list": [3.0, 9.0, 27.0], "trials": 32},
            {"kind": "checks"}),
        _op("M6-subelliptic", {"kind": "subellipticity", "seed": s(),
                               "operator": {"name": "grushin_pure"}, "tau": 1.0,
                               "N_list": [16, 24, 32], "trials": 6},
            {"kind": "checks"}),
        _op("M7-evolve-eig", {"kind": "evolve", "grid": {"n": 2, "N": 32, "L": 6.0},
                              "operator": {"name": "daho"}, "evolution": "schrodinger",
                              "method": "eig", "times": {"t0": 0.0, "t1": 1.0, "count": 100},
                              "state": {"kind": "random", "seed": s()}},
            {"kind": "checks"}),
        _op("M8-evolve-cn", {"kind": "evolve", "grid": {"n": 2, "N": 24, "L": 6.0},
                             "operator": {"name": "daho"}, "evolution": "heat",
                             "method": "cn", "times": {"t0": 0.0, "t1": 0.5, "count": 20},
                             "state": {"kind": "random", "seed": s()}},
            {"kind": "checks"}),
        _op("M9-quantize", {"kind": "quantize-identity", "grid": {"n": 2, "N": 24, "L": 6.0},
                            "symbol": {"name": "daho"}},
            {"kind": "checks"}),
        _op("M10-noise", {"kind": "spectrum", "grid": {"n": 2, "N": 40, "L": 8.0},
                          "operator": {"name": "daho"}, "k": 10,
                          "potential": {"name": "bounded_noise",
                                        "params": {"amplitude": 1.0, "seed": s()}}},
            {"kind": "checks"}),
    ]


_GENERATORS = {"eigen": _eigen, "trend": _trend, "mix": _mix}


def make_ops(workload: str, seed: int) -> list:
    """The workload's operations for this seed, in execution order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
