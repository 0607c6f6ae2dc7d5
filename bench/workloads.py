"""The four workloads: how each makes its inputs and what each job runs.

A workload's set-up function takes the run's seed and returns its jobs. A job
is one input taken through one user-level task: `run` is the timed part and
makes the calls into the program, `check` tests the output apart from the
program, and `deferred` (when set) is a costlier check that runs once after
the measurement. Every input is built by the program's generators and then
relabelled by a seeded permutation, so that deterministic families (the hex
and triangulated tori) vary with the seed too.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import networkx as nx  # imported here so that no timed job pays for it

from archipelago import cli, generators
from archipelago.discharging import charge_bounds_report, discharge
from archipelago.gadgets import build_N, build_uncrosser, reduce_planar, validate_uncrosser
from archipelago.graphs import Graph, parse_embedding
from archipelago.islands import REGIMES, find_island
from archipelago.peeling import audit, extend_coloring, peel
from archipelago.solver import mc_decide, mc_optimize

import checks


@dataclass
class Job:
    kind: str
    vertices: int  # input vertices, credited to throughput when the job passes
    run: Callable  # run(tracer) -> output
    check: Callable  # check(output) -> None, or why the output is wrong
    deferred: Callable | None = None  # deferred() -> None, or why


@dataclass(frozen=True)
class Instance:
    family: str
    adj: list  # the benchmark's own sorted neighbour lists
    m: int
    text: str  # the embedding file the program parses

    @property
    def n(self) -> int:
        return len(self.adj)


# regime and Euler characteristic of each family's surface
FAMILY = {
    "triangulation": ("A", 2),
    "quadrangulation": ("B", 2),
    "hex_torus": ("C", 0),
    "triangulated_torus": ("A", 0),
    "hex_patch": ("C", 2),
}

# generator arguments of the small and the large size of each family; the
# seeded families get their seed appended
PEEL_SIZES = {
    "triangulation": ((200,), (400,)),
    "quadrangulation": ((250,), (500,)),
    "hex_torus": ((11, 11), (16, 16)),
    "triangulated_torus": ((14, 14), (20, 20)),
}
# draws of each size per family
CHARGE_DRAWS = {"triangulation": 2, "quadrangulation": 4, "hex_torus": 2}
CHARGE_SIZES = {
    "triangulation": ((200,), (400,)),
    "quadrangulation": ((100,), (200,)),
    "hex_torus": ((12, 12), (24, 24)),
}
# The cost of charge_bounds_report on a quadrangulation depends on the vertex
# order its island search meets: about one labelling in ten to thirty makes it
# four to twenty times slower. Drawn per seed, such labellings made the run's
# throughput spread by a fifth between seeds, so the quadrangulations are
# drawn once from this fixed seed and do not change with --seed.
CHARGE_FIXED_SEED = "charge-audit:quadrangulation"
# One more fixed quadrangulation and labelling on which that search is slow
# (about 1 s against 0.1 s for most labellings of the same size), so that
# every run pays the slow case once.
SLOW_QUADRANGULATION = ("charge-audit:slow-quadrangulation:250:7", 250)  # rng seed, n
# a fixed input: reduce_planar's cost follows the drawing's crossing count,
# which varies four- to eightfold between random draws of this shape
REDUCE_HYPERGRAPH = (6, 3, 7)  # n, m, seed of hypergraph3; 1,218 output vertices
# many small instances: the solver's node count varies widely between draws,
# and only a sum, or an 11th-slowest, over hundreds of them repeats between
# seeds; above 20 vertices the slowest instances vary too much for either
MC_TRIANGULATIONS = 500  # with the three gadget jobs, 503 jobs a round
MC_SIZES = range(16, 21)
N_LINK_K = 4
# mc_optimize is checked by 2^n enumeration on the first instances, five of
# each size (about 3 s; all 500 would take a minute)
ENUMERATED = 25


def embedded(tracer, rng: random.Random, family: str, *args) -> Instance:
    """Generate an embedding, relabel it by a seeded permutation and serialise it."""
    if family in ("triangulation", "quadrangulation", "hex_patch"):
        args = (*args, rng.randrange(2**31))
    emb = tracer.call(f"generators.{family}", getattr(generators, family), *args)
    n = emb.graph.n
    perm = list(range(n))
    rng.shuffle(perm)
    rot: list = [None] * n
    for v in range(n):
        rot[perm[v]] = [perm[u] for u in emb.rotations[v]]
    edges = [(u, v) for u in range(n) for v in rot[u] if u < v]
    lines = [f"{n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    lines += [f"{v}: " + " ".join(map(str, r)) for v, r in enumerate(rot)]
    return Instance(family, [sorted(r) for r in rot], len(edges), "\n".join(lines) + "\n")


def draw_lists(rng: random.Random, n: int, width: int) -> dict[int, list[int]]:
    return {v: sorted(rng.sample(range(1, 10), width)) for v in range(n)}


# ---------------------------------------------------------------------------
# peel-certify


def peel_job(inst: Instance, lists) -> Job:
    regime_name, chi = FAMILY[inst.family]
    regime = REGIMES[regime_name]
    threshold = regime.threshold(chi)
    bound = max(regime.size, threshold)
    sized = {"family": inst.family, "n": inst.n}

    def run(t):
        g = t.call("graphs.parse_embedding", parse_embedding, inst.text).graph
        island = t.call("islands.find_island", find_island, g, regime.k, regime.size)
        dec = t.call("peeling.peel", peel, g, regime, chi, attrs=sized)
        replayed = t.call("peeling.replay_ok", dec.replay_ok, attrs=sized)
        t.annotate(layers=len(dec.layers))
        coloring = t.call("peeling.extend_coloring", extend_coloring, dec, lists)
        report = t.call("peeling.audit", audit, g, coloring, max_size=bound, lists=lists)
        return island, dec, replayed, coloring, report

    def check(out):
        island, dec, replayed, coloring, report = out
        if island is None:
            return "find_island found no island"
        if not replayed:
            return "replay_ok rejected the decomposition"
        if not report.ok:
            return "audit rejected the colouring"
        return (
            checks.island_reason(inst.adj, island.members, regime.k, regime.size)
            or checks.peel_reason(inst.adj, dec.layers, dec.base, regime.k, regime.size, threshold)
            or checks.coloring_reason(inst.adj, coloring, bound, lists)
        )

    return Job("peel", inst.n, run, check)


def setup_peel_certify(seed: int, tracer, scratch) -> list[Job]:
    rng = random.Random(f"peel-certify:{seed}")
    jobs = []
    for family, sizes in PEEL_SIZES.items():
        for args in sizes:
            inst = embedded(tracer, rng, family, *args)
            width = REGIMES[FAMILY[family][0]].k + 1
            jobs.append(peel_job(inst, draw_lists(rng, inst.n, width)))
    return jobs


# ---------------------------------------------------------------------------
# charge-audit


def charge_job(inst: Instance, series: str | None = None) -> Job:
    """`series` names the exponent fit the job's face tracing joins (its family)."""
    regime_name, chi = FAMILY[inst.family]
    regime = REGIMES[regime_name]
    n, m = inst.n, inst.m
    total = {"A": 2 * m - 6 * n, "B": -4 * chi, "C": -6 * chi}[regime_name]
    sized = {"family": series or inst.family, "n": n}

    def run(t):
        emb = t.call("graphs.parse_embedding", parse_embedding, inst.text)
        faces = t.call("graphs.trace_faces", lambda: emb.faces, attrs=sized)
        t.annotate(faces=len(faces))
        state = t.call("discharging.discharge", discharge, emb, regime)
        t.annotate(transfers=len(state.transfers))
        bounds = t.call("discharging.charge_bounds_report", charge_bounds_report, state, emb)
        return faces, state, bounds

    def check(out):
        faces, state, bounds = out
        if len(faces) != m - n + chi:
            return f"{len(faces)} faces, expected m - n + chi = {m - n + chi}"
        if state.total() != total:
            return f"final charge total {state.total()}, expected {total}"
        if bounds.chi != chi or not bounds.theorem_applies:
            return "bounds report has the wrong chi or says the theorem does not apply"
        for e in bounds.entries:
            if e.witness is None:
                return f"{e.kind}{e.index} is below bound without an island"
            why = checks.island_reason(inst.adj, e.witness.members, regime.k, regime.size)
            if why:
                return f"witness of {e.kind}{e.index}: {why}"
        return None

    return Job("charge", n, run, check)


def reduce_job(h) -> Job:
    def run(t):
        return t.call("gadgets.reduce_planar", reduce_planar, h, 2)

    def check(gg):
        g = gg.graph
        adj = [list(g.neighbors(v)) for v in range(g.n)]
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from((u, v) for u in range(g.n) for v in adj[u] if u < v)
        m = nxg.number_of_edges()
        if not nx.check_planarity(nxg)[0]:
            return "reduce_planar output is not planar"
        if not checks.triangle_free(adj):
            return "reduce_planar output has a triangle"
        if len(gg.embedding.faces) != m - g.n + 2:
            return f"{len(gg.embedding.faces)} faces, expected m - n + 2 = {m - g.n + 2}"
        return None

    return Job("reduce_planar", h.n, run, check)


def setup_charge_audit(seed: int, tracer, scratch) -> list[Job]:
    rng = random.Random(f"charge-audit:{seed}")
    fixed = random.Random(CHARGE_FIXED_SEED)
    jobs = [
        charge_job(embedded(tracer, fixed if family == "quadrangulation" else rng,
                            family, *args))
        for family, sizes in CHARGE_SIZES.items()
        for args in sizes
        for _ in range(CHARGE_DRAWS[family])
    ]
    slow_seed, slow_n = SLOW_QUADRANGULATION
    slow = embedded(tracer, random.Random(slow_seed), "quadrangulation", slow_n)
    jobs.append(charge_job(slow, series="slow_quadrangulation"))
    h = tracer.call("generators.hypergraph3", generators.hypergraph3, *REDUCE_HYPERGRAPH)
    jobs.append(reduce_job(h))
    return jobs


# ---------------------------------------------------------------------------
# mc-solve


def optimize_job(inst: Instance, enumerate_check: bool) -> Job:
    g = Graph(inst.n, [(u, v) for u in range(inst.n) for v in inst.adj[u] if u < v])
    seen_k: set[int] = set()

    def run(t):
        res = t.call("solver.mc_optimize", mc_optimize, g)
        t.annotate(nodes=res.nodes_explored)
        return res

    def check(res):
        seen_k.add(res.k)
        if not res.exact:
            return "mc_optimize is not exact"
        return checks.coloring_reason(inst.adj, res.coloring, res.k)

    def deferred():
        best = checks.min_max_component(inst.adj)
        if seen_k != {best}:
            return f"mc_optimize gave k in {sorted(seen_k)}, enumeration gives {best}"
        return None

    return Job("mc_optimize", inst.n, run, check,
               deferred if enumerate_check else None)


def decide_job(link, k: int, pins: dict, want: str) -> Job:
    g = link.graph
    adj = [list(g.neighbors(v)) for v in range(g.n)]

    def run(t):
        res = t.call("solver.mc_decide", mc_decide, g, k, pins=pins)
        t.annotate(nodes=res.nodes_explored)
        return res

    def check(res):
        if res.verdict != want:
            return f"mc_decide said {res.verdict}, expected {want}"
        if want == "no":
            return checks.n_link_forces_no(adj, k)
        return checks.coloring_reason(adj, res.coloring, k, pins=pins)

    return Job("mc_decide", g.n, run, check)


def uncrosser_job(k: int) -> Job:
    def run(t):
        u = t.call("gadgets.build_uncrosser", build_uncrosser, k)
        rep = t.call("gadgets.validate_uncrosser", validate_uncrosser, u, k)
        t.annotate(nodes=sum(r.nodes_explored for r in rep.checks.values()))
        return u, rep

    def check(out):
        u, rep = out
        if rep.verdict != "pass":
            return f"validate_uncrosser said {rep.verdict}"
        g, term = u.graph, u.terminals
        adj = [list(g.neighbors(v)) for v in range(g.n)]
        return checks.coloring_reason(
            adj, rep.same_witness, k, pins={term["x_N"]: 0, term["x_W"]: 0}
        ) or checks.coloring_reason(
            adj, rep.distinct_witness, k, pins={term["x_N"]: 0, term["x_W"]: 1}
        )

    # no input graph: the job builds the gadget it validates
    return Job("uncrosser", 0, run, check)


def setup_mc_solve(seed: int, tracer, scratch) -> list[Job]:
    rng = random.Random(f"mc-solve:{seed}")
    sizes = list(MC_SIZES)
    jobs = [
        optimize_job(
            embedded(tracer, rng, "triangulation", sizes[i % len(sizes)]),
            i < ENUMERATED,
        )
        for i in range(MC_TRIANGULATIONS)
    ]
    link = tracer.call("gadgets.build_N", build_N, N_LINK_K)
    y, z = link.terminals["y"], link.terminals["z"]
    jobs.append(decide_job(link, N_LINK_K, {y: 0, z: 0}, "no"))
    jobs.append(decide_job(link, N_LINK_K, {y: 0, z: 1}, "yes"))
    jobs.append(uncrosser_job(2))
    return jobs


# ---------------------------------------------------------------------------
# color-small


def _geometric(lo: int, hi: int, count: int) -> list[int]:
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def read_coloring(path) -> dict[int, int]:
    coloring = {}
    with open(path) as fh:
        for line in fh:
            v, c = line.split()
            coloring[int(v)] = int(c)
    return coloring


def color_job(inst: Instance, index: int, scratch, lists) -> Job:
    """`islands color` on one instance; lists None means --four-plus-sink."""
    regime_name, chi = FAMILY[inst.family]
    regime = REGIMES[regime_name]
    graph_path = scratch / f"{index}.emb"
    out_path = scratch / f"{index}.col"
    graph_path.write_text(inst.text)
    argv = ["islands", "color", "--graph", str(graph_path), "--regime", regime_name,
            "--chi", str(chi), "--json", "--out", str(out_path)]
    if lists is None:
        argv.append("--four-plus-sink")
    else:
        lists_path = scratch / f"{index}.lists"
        lists_path.write_text("".join(
            f"{v}: {' '.join(map(str, lists[v]))}\n" for v in range(inst.n)))
        argv += ["--lists", str(lists_path)]
    bound = max(regime.size, regime.threshold(chi))

    def run(t):
        with contextlib.redirect_stdout(io.StringIO()):
            code, report = t.call("cli.dispatch", cli.dispatch, argv)
        t.annotate(color_s=report["timings"].get("color", 0.0))
        return code, report

    def check(out):
        code, report = out
        if code != 0 or report["verdicts"].get("ok") is not True:
            return f"islands color exited {code}"
        coloring = read_coloring(out_path)
        if lists is None:
            return checks.sink_reason(inst.adj, coloring, max(3, regime.threshold(chi)))
        return checks.coloring_reason(inst.adj, coloring, bound, lists)

    return Job("color", inst.n, run, check)


def setup_color_small(seed: int, tracer, scratch) -> list[Job]:
    rng = random.Random(f"color-small:{seed}")
    scratch.mkdir(parents=True, exist_ok=True)
    plan = [("triangulation", (n,)) for n in _geometric(20, 500, 30)]
    plan += [("quadrangulation", (n,)) for n in _geometric(20, 500, 25)]
    # fixed sizes, so that the seed draws instances but not the size mix
    plan += [("hex_patch", (4 + i % 5, 4 + 2 * i % 5, i % 6)) for i in range(20)]
    plan += [("hex_torus", (4 + i % 5, 4 + 3 * i % 5)) for i in range(10)]
    plan += [("triangulated_torus", (4 + i % 7, 4 + 3 * i % 7)) for i in range(15)]
    jobs = []
    for index, (family, args) in enumerate(plan):
        inst = embedded(tracer, rng, family, *args)
        if family == "triangulated_torus":
            lists = None
        else:
            lists = draw_lists(rng, inst.n, REGIMES[FAMILY[family][0]].k + 1)
        jobs.append(color_job(inst, index, scratch, lists))
    return jobs


WORKLOADS = {
    "peel-certify": setup_peel_certify,
    "charge-audit": setup_charge_audit,
    "mc-solve": setup_mc_solve,
    "color-small": setup_color_small,
}
