"""weylab benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload eigen --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/workloads.py``): ``eigen`` (large stencil
eigensolves on both sides of the dense limit), ``trend`` (Schatten trend
sweeps: Weyl quantization and phase-space quadrature of the weight) and
``mix`` (every other experiment kind at medium size).  ``all`` runs the
three in turn.

A run starts one worker process (``perfbench/worker.py``) and, next to it,
one more fresh interpreter that only sets up; both report when their
first daho weight evaluation finished, which gives two ``setup_s``
samples.  The worker then runs the workload's configs back to back for
``--seconds`` (at least two passes) with BLAS threads capped at the
number of usable cores.  Every operation's outputs go through a
seed-independent oracle (``perfbench/oracles.py``); the digests of
``report.json`` and ``data.csv`` are compared across passes.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced pass (spans are written
to ``.bench_out/``).  The last stdout line is the result object; the lines
before it are a readable report: environment, per-operation timings,
failures with their kind, and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 170.0  # a run must end within 180 s, start-up included
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    """Metric names and units come from the repository's ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- environment ---------------------------------------------------------------

def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment() -> dict:
    """Versions and limits, read in this process after the worker is done."""
    import numpy as np

    env = {"nproc": nproc(), "blas_threads": nproc(), "python": sys.version.split()[0],
           "numpy": np.__version__}
    try:
        import scipy
        env["scipy"] = scipy.__version__
    except ImportError:
        env["scipy"] = "absent"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    env["src_lines"] = lines  # metadata only, not a metric
    return env


# -- processes -----------------------------------------------------------------

class RunError(RuntimeError):
    pass


def _readline(proc, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise RunError("worker timed out")
    line = proc.stdout.readline()
    if not line:
        raise RunError(f"worker exited early with code {proc.wait()}")
    return line.decode()


def _ready(proc, launched: float, deadline: float) -> float:
    """Seconds from launch to the worker's READY stamp (same monotonic clock)."""
    line = _readline(proc, deadline)
    if not line.startswith("READY "):
        raise RunError(f"unexpected worker output {line!r}")
    return float(line.split()[1]) - launched


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    trace_out = os.path.join(ROOT, ".bench_out", f"trace-{workload}-seed{seed}.json")
    os.makedirs(workdir, exist_ok=True)
    if trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    env = dict(os.environ, **{v: str(nproc()) for v in BLAS_THREAD_VARS})
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--workdir", workdir]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    procs = []

    def launch(mode):
        extra = ["--trace-out", trace_out] if mode == "trace" else []
        t = time.monotonic()
        procs.append(subprocess.Popen(base + ["--mode", mode] + extra, cwd=ROOT, env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        return procs[-1], t

    try:
        samples = []
        if nproc() < 2:  # no spare core: set up one at a time
            probe, t = launch("setup")
            samples.append(_ready(probe, t, deadline))
            probe.wait()
        worker, tw = launch("trace" if trace else "run")
        if nproc() >= 2:
            probe, tp = launch("setup")
            samples.append(_ready(probe, tp, deadline))
        samples.append(_ready(worker, tw, deadline))
        probe.wait(timeout=max(1.0, deadline - time.monotonic()))
        worker.stdin.write(b"GO\n")
        worker.stdin.flush()
        line = _readline(worker, deadline)
        if worker.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise RunError(f"worker exited with code {worker.returncode}")
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    result = json.loads(line)
    result["setup_samples"] = samples
    return result


# -- metrics -------------------------------------------------------------------

def summarize(workload: str, result: dict, trace: bool, spec: dict) -> dict:
    passes = result["passes"]
    attempted = failed = 0
    unexpected = []
    failures = {}
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if op["failure"]:
                failed += 1
                kind, detail = op["failure"]
                entry = failures.setdefault((op["name"], kind), [0, detail])
                entry[0] += 1
                if op["name"] not in KNOWN_DEFECTS:
                    unexpected.append(op["name"])
    compared = matched = 0
    first = {op["name"]: op["digests"] for op in passes[0]["ops"]}
    for p in passes[1:]:
        for op in p["ops"]:
            if op["digests"] is None and first[op["name"]] is None:
                continue  # raised both times: nothing to compare
            compared += 1
            matched += op["digests"] == first[op["name"]]
    if trace:
        values = result["trace"]
        listed = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(result["setup_samples"]),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "ops_ok_frac": 1.0 - failed / attempted,
            "repro_match_frac": matched / compared if compared else 1.0,
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {
        "workload": workload,
        "correct": not unexpected and matched == compared,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "repro": (matched, compared),
        "metrics": metrics,
    }


def print_report(summary: dict, result: dict, seed: int, trace: bool) -> None:
    w = summary["workload"]
    print(f"== workload {w}  seed {seed}  trace {int(trace)}")
    print("setup samples: " + "  ".join(f"{s:.3f} s" for s in result["setup_samples"]))
    for i, p in enumerate(result["passes"]):
        ops = "  ".join(f"{o['name']} {o['seconds']:.2f}{'' if not o['failure'] else '!'}"
                        for o in p["ops"])
        print(f"pass {i + 1}: {p['wall']:.3f} s   {ops}")
    print(f"attempted {summary['attempted']}  failed {summary['failed']}  "
          f"repro matched {summary['repro'][0]}/{summary['repro'][1]}  "
          f"correct {summary['correct']}")
    for (name, kind), (count, detail) in sorted(summary["failures"].items()):
        note = "  (known defect)" if name in KNOWN_DEFECTS else ""
        print(f"  FAILED {name} [{kind}] x{count}{note}: {detail}")
    if trace:
        tr = result["trace"]
        print(f"layer self times + uncovered = {tr['trace.self_sum_s']:.6f} s; "
              f"traced wall {tr['trace.wall_s']:.6f} s")
        if tr["missing"]:
            print("  not traced in this version: " + "; ".join(sorted(set(tr["missing"]))))
    for name, m in summary["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not os.path.isfile(os.path.join(ROOT, "src", "weylab", "cli.py")):
        print(f"perfbench: no weylab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for w in workloads:
        try:
            result = run_workload(w, args.seed, seconds, trace)
        except (RunError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"perfbench: workload {w}: {exc}", file=sys.stderr)
            return 3
        summary = summarize(w, result, trace, spec)
        print_report(summary, result, args.seed, trace)
        summaries.append(summary)
    print("environment: " + json.dumps(environment()))
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{n}": m for s in summaries for n, m in s["metrics"].items()}
    print(json.dumps({"correct": all(s["correct"] for s in summaries),
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
