"""A one-second run of the benchmark, so that the harness cannot rot unseen."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_charge_audit_quick_run():
    cmd = [sys.executable, "bench/run.py", "--workload", "charge-audit", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    metrics = json.loads(run.stdout.strip().splitlines()[-1])
    assert metrics["correct"] is True
    assert metrics["failed"] == 0
    assert metrics["attempted"] > 0
