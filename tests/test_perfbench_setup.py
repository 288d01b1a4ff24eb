"""The benchmark's set-up step: a worker imports weylab from this
checkout, evaluates the daho weight once and reports READY."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_worker_setup_reports_ready(tmp_path):
    worker = os.path.join(ROOT, "perfbench", "worker.py")
    out = subprocess.run([sys.executable, worker, "--mode", "setup", "--workload", "mix",
                          "--seed", "1", "--seconds", "0", "--workdir", str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert any(line.startswith("READY ") for line in out.stdout.splitlines())
