"""One benchmark worker: a fresh interpreter that runs a workload's configs.

Started by ``run.py``, never by hand.  The worker imports weylab from the
checkout's ``src/``, finishes its first daho weight evaluation (the cold
cost every ``weylab run`` pays) and prints ``READY <time.monotonic()>``.
With ``--mode setup`` it stops there.  Otherwise it waits for ``GO`` on
stdin and feeds the workload's configs back to back into
``weylab.cli.run_config``, one pass after another, as a closed loop from a
single client:

* ``--mode run``: passes until ``--seconds`` have elapsed, at least two;
* ``--mode trace``: one untraced pass, then one pass under ``Tracer``.

Outputs are checked after each pass, outside the timed region.  The last
stdout line is a JSON object with per-pass timings, failures, output
digests, the peak RSS and, when traced, the per-layer summary.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cold_start() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from weylab.builders import get_weight

    # x1 = 3 sits on the profile's bridge, so the lazy tables get built
    get_weight("daho").m_values(np.array([[3.0, 0.5, 1.0, -1.0]]))
    print(f"READY {time.monotonic()!r}", flush=True)


def run_pass(ops: list, pass_dir: str, refs: dict, tracer=None) -> dict:
    from oracles import verdict
    from weylab.cli import run_config

    cfgs = [copy.deepcopy(op["cfg"]) for op in ops]
    gc.collect()
    timed = []
    if tracer is not None:
        tracer.enabled = True
    start = time.perf_counter()
    for op, cfg in zip(ops, cfgs):
        out = os.path.join(pass_dir, op["name"])
        t0 = time.perf_counter()
        try:
            manifest, error = run_config(cfg, out), None
        except Exception as exc:  # every failure is recorded, none stops the pass
            manifest, error = None, exc
        timed.append((op, out, manifest, error, time.perf_counter() - t0))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    results = []
    for op, out, manifest, error, seconds in timed:
        if error is not None:
            failure = [type(error).__name__, str(error)[:300]]
            digests = None
        else:
            failure = verdict(op, manifest, out, refs)
            digests = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        results.append({"name": op["name"], "seconds": seconds,
                        "failure": list(failure) if failure else None,
                        "digests": digests})
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {"wall": wall, "ops": results}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", default="")
    args = p.parse_args(argv)

    cold_start()
    if args.mode == "setup":
        return 0
    if sys.stdin.readline().strip() != "GO":
        return 3
    from workloads import make_ops

    ops = make_ops(args.workload, args.seed)
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    passes = []
    trace = None
    if args.mode == "run":
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(ops, os.path.join(args.workdir, f"p{len(passes)}"), refs))
    else:
        from tracer import Tracer

        passes.append(run_pass(ops, os.path.join(args.workdir, "p0"), refs))
        tracer = Tracer()
        tracer.install()
        passes.append(run_pass(ops, os.path.join(args.workdir, "p1"), refs, tracer))
        trace = tracer.summary(passes[1]["wall"])
        trace["trace.overhead_frac"] = passes[1]["wall"] / passes[0]["wall"] - 1.0
        trace["missing"] = tracer.missing
        if args.trace_out:
            tracer.dump(args.trace_out)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "peak_rss_kb": peak_kb, "trace": trace}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
