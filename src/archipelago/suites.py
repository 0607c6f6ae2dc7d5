"""Seeded acceptance suites: generated instances through the peel-and-color pipeline.

A suite draws generation specs from its name and seed, runs each instance
through peel, replay_ok and color (from drawn lists, or four colors plus a
sink), and returns one record per instance. Records depend only on the
name, seed and count, never on the number of worker processes.
"""

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

from archipelago.generators import GenSpec, gen
from archipelago.graphs import Graph, euler_characteristic
from archipelago.islands import REGIMES
from archipelago.peeling import TheoremViolation, color, peel


def _sphere(family: str):
    return lambda rng, s: GenSpec(family, seed=s, n=rng.randrange(20, 501))


def _torus(family: str):
    return lambda rng, s: GenSpec(family, seed=s, rows=rng.randrange(3, 9),
                                  cols=rng.randrange(3, 9))


def _hex_patch(rng, s):
    return GenSpec("hex_patch", seed=s, rows=rng.randrange(3, 9),
                   cols=rng.randrange(3, 9), deletions=rng.randrange(0, 6))


# suite name -> (spec drawer, regime name; None peels with A and colors four-plus-sink)
SUITES = {
    "planar-A": (_sphere("triangulation"), "A"),
    "quad-B": (_sphere("quadrangulation"), "B"),
    "hex-C": (_hex_patch, "C"),
    "torus-C": (_torus("hex_torus"), "C"),
    "planar-sink": (_sphere("triangulation"), None),
    "torus-sink": (_torus("triangulated_torus"), None),
}
SUITE_NAMES = tuple(SUITES)


def _suite_specs(name: str, seed: int, count: int) -> list[GenSpec]:
    draw = SUITES[name][0]
    rng = random.Random(f"{name}:{seed}")
    return [draw(rng, rng.randrange(2**31)) for _ in range(count)]


def _draw_lists(g: Graph, width: int, seed: int) -> dict[int, list[int]]:
    rng = random.Random(f"lists:{seed}")
    return {v: sorted(rng.sample(range(1, 10), width)) for v in range(g.n)}


def run_suite_instance(name: str, spec: GenSpec) -> dict:
    """One generated instance through its suite's pipeline.

    Returns a record with pass/fail and the spec to replay it; a peel
    running out of islands is reported as kind "violation" with the residual.
    """
    emb = gen(spec)
    g = emb.graph
    chi = euler_characteristic(emb)
    regime_name = SUITES[name][1]
    record = {"spec": asdict(spec), "n": g.n, "pass": False, "detail": ""}
    regime = REGIMES[regime_name or "A"]
    try:
        dec = peel(g, regime, chi)
    except TheoremViolation as tv:
        record.update(detail=str(tv), kind="violation", residual=sorted(tv.residual),
                      regime=tv.regime.name, chi=tv.chi)
        return record
    if not dec.replay_ok():
        detail = "peel replay failed: a layer is not an island"
    else:
        detail = color(dec, None if regime_name is None else
                       _draw_lists(g, regime.k + 1, spec.seed))[2]
    record.update({"pass": detail is None, "detail": detail or ""})
    return record


def run_suite(name: str, seed: int, count: int, workers: int = 1) -> list[dict]:
    """Records of the suite's instances in draw order, each with its index."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, not {count}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    specs = _suite_specs(name, seed, count)
    # the pool forks all its workers at once, and more than count or the cores do no work
    workers = min(workers, count, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_suite_instance, [name] * len(specs), specs))
    else:
        records = [run_suite_instance(name, spec) for spec in specs]
    for i, rec in enumerate(records):
        rec["index"] = i
    return records
