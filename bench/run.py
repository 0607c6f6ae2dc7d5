"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload peel-certify --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/`. The run
sets up the workload's inputs three times (reporting the median set-up time),
then runs whole rounds of the workload's jobs until the timed job time reaches
--seconds. Each job's output is checked apart from the program before the next
job starts; the checks are not timed. Between jobs the run times blocks of a
fixed calibration loop, and every time it reports is scaled by the loop's
speed around it (see calibration.py); time metrics use each job's median
scaled latency over the run (see job_latencies).

With --trace 0 the last line of standard output carries the end-to-end
metrics. With --trace 1 rounds alternate between traced and untraced, the
last line carries the per-layer metrics of the traced rounds plus the tracing
overhead, and the spans are written to .bench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUPS = 3

# numpy (used by one check) must not start a thread pool: one thread per run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def measure(jobs, tracer: Tracer, speed: calibration.Speed, seconds: float, trace: bool):
    """Whole rounds of every job until the timed time reaches `seconds`.

    Returns the executions as (round, job index, start, end, outcome, block)
    with outcome "ok", "raised" or "wrong" and block the calibration block
    taken last before the execution, and the number of rounds.
    """
    executions = []
    timed = since_block = 0.0
    rounds = 0
    block = speed.block()
    while timed < seconds or (trace and rounds < 2):
        tracer.enabled = trace and rounds % 2 == 0
        for j, job in enumerate(jobs):
            tracer.job = f"r{rounds}j{j}"
            start = perf_counter()
            try:
                out = tracer.call(f"job.{job.kind}", job.run, tracer)
            except Exception:  # a raising job fails; the run goes on
                end = perf_counter()
                outcome = "raised"
                print(f"job {j} ({job.kind}) raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
            else:
                end = perf_counter()
                try:
                    reason = job.check(out)
                except Exception as exc:  # an output the check cannot read is wrong
                    reason = f"check raised {exc!r}"
                outcome = "ok" if reason is None else "wrong"
                if reason is not None:
                    print(f"job {j} ({job.kind}) wrong: {reason}", file=sys.stderr)
            executions.append((rounds, j, start, end, outcome, block))
            timed += end - start
            since_block += end - start
            if since_block >= calibration.EVERY_S:
                block = speed.block()
                since_block = 0.0
        rounds += 1
    speed.block()
    tracer.enabled = False
    return executions, rounds


def job_latencies(jobs, executions, speed: calibration.Speed) -> list[float]:
    """Each job's median latency over the run, scaled to the nominal host speed.

    The host's slow phases can outlast a run, so no summary of raw times
    repeats between runs; scaled by the calibration loop timed around them,
    they do (see calibration.py).
    """
    scaled: list[list[float]] = [[] for _ in jobs]
    for _, j, start, end, _, block in executions:
        scaled[j].append(speed.scale(block, end - start))
    return [statistics.median(t) for t in scaled]


def throughput(jobs, executions, speed) -> float:
    """Input vertices of the jobs that always passed, per second of all jobs' latencies."""
    passed = [True] * len(jobs)
    for e in executions:
        passed[e[1]] = passed[e[1]] and e[4] == "ok"
    vertices = sum(job.vertices for job, ok in zip(jobs, passed) if ok)
    return vertices / sum(job_latencies(jobs, executions, speed))


def end_to_end(jobs, executions, speed, setup_s, peak_rss_mb):
    latencies = sorted(job_latencies(jobs, executions, speed))
    # with fewer than 40 jobs a round there is no tail; report the slowest job
    tail = latencies[-11] if len(jobs) >= 40 else latencies[-1]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_vps": (throughput(jobs, executions, speed), "vertices/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{args.workload}-{os.getpid()}"
    tracer = Tracer()
    tracer.enabled = trace
    speed = calibration.Speed()
    try:
        setups = []
        for i in range(SETUPS):
            tracer.job = f"setup{i}"
            block = speed.block()
            start = perf_counter()
            jobs = tracer.call("setup", workloads.WORKLOADS[args.workload],
                               args.seed, tracer, scratch)
            setups.append((block, perf_counter() - start))
        speed.block()
        setup_s = statistics.median(speed.scale(b, t) for b, t in setups)
        executions, rounds = measure(jobs, tracer, speed, args.seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for j, job in enumerate(jobs):
            reason = job.deferred() if job.deferred else None
            if reason is not None:
                print(f"job {j} ({job.kind}) wrong: {reason}", file=sys.stderr)
                executions = [
                    e[:4] + ("wrong" if e[1] == j and e[4] == "ok" else e[4], e[5])
                    for e in executions
                ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if trace:
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        traced = [e for e in executions if e[0] % 2 == 0]
        untraced = [e for e in executions if e[0] % 2 == 1]
        metrics = layer_metrics(tracer.spans, (rounds + 1) // 2, SETUPS)
        metrics["trace.overhead_vps"] = (
            throughput(jobs, untraced, speed) - throughput(jobs, traced, speed),
            "vertices/s")
    else:
        metrics = end_to_end(jobs, executions, speed, setup_s, peak_rss_mb)
    loop_s = statistics.median(t for times in speed.blocks for t in times)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(jobs)} jobs, "
          f"calibration loop median {loop_s * 1000:.3f} ms", file=sys.stderr)
    result = {
        "correct": all(e[4] != "wrong" for e in executions),
        "attempted": len(executions),
        "failed": sum(e[4] != "ok" for e in executions),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
