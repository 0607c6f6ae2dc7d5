"""One-second runs of the benchmark, so that the harness cannot rot unseen."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_run(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_charge_audit_quick_run():
    metrics = quick_run("charge-audit")
    assert metrics["correct"] is True
    assert metrics["failed"] == 0
    assert metrics["attempted"] > 0


def test_peel_certify_quick_run():
    # the benchmark re-checks every peel layer with its own island test
    metrics = quick_run("peel-certify")
    assert metrics["correct"] is True
    assert metrics["failed"] == 0
    assert metrics["attempted"] > 0


def test_mc_solve_quick_run():
    # the benchmark re-checks each colouring and the enumeration's optimum
    metrics = quick_run("mc-solve")
    assert metrics["correct"] is True
    assert metrics["failed"] == 0
    assert metrics["attempted"] > 0


def test_color_small_quick_run():
    metrics = quick_run("color-small")
    assert metrics["correct"] is True
    assert metrics["failed"] == 0
    assert metrics["attempted"] > 0
