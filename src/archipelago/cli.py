"""Command-line front ends.

Three console scripts (islands, mc, suite) share one dispatcher. Every
subcommand accepts --json and then prints a single run report object to
stdout: command echo, sha256 digests of the input files, verdicts taken
from the underlying modules, wall-clock timings, and output file paths.

Exit codes: 0 success or verdict yes, 1 verdict no or a failed property,
2 usage error, 3 a peel ran out of islands above the threshold (the
residual base is dumped next to the input for inspection).
"""

import argparse
import functools
import hashlib
import json
import sys
import time

from archipelago.certify import audit
from archipelago.discharging import charge_bounds_report, discharge
from archipelago.gadgets import (
    GadgetGraph,
    build_equalizer,
    build_J,
    build_N,
    build_tree,
    build_uncrosser,
    hyper2color,
    reduce_girth8,
    reduce_planar,
    validate_uncrosser,
)
from archipelago.generators import FAMILIES, GenSpec, gen
from archipelago.graphs import (
    Embedding,
    Graph,
    connected_components,
    euler_characteristic,
    parse_coloring,
    parse_embedding,
    parse_graph,
    parse_hypergraph,
    parse_lists,
    parse_terminals,
    serialize_coloring,
    serialize_embedding,
    serialize_graph,
    serialize_hypergraph,
    terminal_comments,
)
from archipelago.islands import REGIMES, find_island
from archipelago.peeling import TheoremViolation, color, peel
from archipelago.solver import mc_decide, mc_optimize
from archipelago.suites import SUITE_NAMES, run_suite


# ---------------------------------------------------------------------------
# plumbing

def _read(path: str, report: dict) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    report["inputs"][path] = hashlib.sha256(data).hexdigest()
    return data.decode()


def _write(path: str, text: str, report: dict, kind: str):
    with open(path, "w") as fh:
        fh.write(text)
    report["outputs"][kind] = path


def _emit(args, report: dict, lines: list[str]):
    """Human lines to stdout, unless --json claims stdout for the report."""
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def _coloring_lines(args, coloring: dict[int, int], report: dict) -> list[str]:
    """Write the coloring to --out, or return it as "v c" output lines."""
    if args.out:
        _write(args.out, serialize_coloring(coloring), report, "coloring")
        return []
    # an empty coloring's file is one blank line, which prints as nothing
    return serialize_coloring(coloring).splitlines() if coloring else []


def _audit_report(rep, base_size: int) -> dict:
    return {
        "max_component": rep.max_component,
        "component_sizes": dict(rep.component_sizes),
        "list_violations": [list(p) for p in rep.list_violations],
        "oversized": [list(c) for c in rep.oversized_components],
        "base_size": base_size,
    }


def _dump_residual(g: Graph, tv: TheoremViolation, path: str, report: dict):
    order = sorted(tv.residual)
    sub, _ = g.induced(order)
    comments = [
        f"residual base: regime {tv.regime.name}, chi {tv.chi}, "
        f"threshold {tv.threshold}",
        "original-ids: " + " ".join(str(v) for v in order),
    ]
    _write(path, serialize_graph(sub, comments), report, "residual")


# ---------------------------------------------------------------------------
# islands subcommands

def _cmd_find(args, report) -> int:
    g, _ = parse_graph(_read(args.graph, report))
    if args.regime:
        regime = REGIMES[args.regime]
        k = regime.k if args.k is None else args.k
        size = regime.size if args.size is None else args.size
    elif args.k is None or args.size is None:
        raise ValueError("give --regime, or both --k and --size")
    else:
        k, size = args.k, args.size
    t0 = time.perf_counter()
    w = find_island(g, k, size)
    report["timings"]["find"] = round(time.perf_counter() - t0, 6)
    if w is None:
        report["verdicts"]["island"] = None
        _emit(args, report, [f"no {k}-island of at most {size} vertices"])
        return 1
    members = sorted(w.members)
    degs = [w.outside_degrees[v] for v in members]
    report["verdicts"]["island"] = members
    report["verdicts"]["outside_degrees"] = degs
    _emit(args, report, [
        "island: " + " ".join(str(v) for v in members)
        + " ; outside-degrees: " + " ".join(str(d) for d in degs)
    ])
    return 0


def _cmd_color(args, report) -> int:
    if args.four_plus_sink and args.lists:
        raise ValueError("--four-plus-sink ignores lists; give one or the other")
    if args.four_plus_sink and (args.footnote_12 or args.regime not in (None, "A")):
        raise ValueError("--four-plus-sink peels with regime A; "
                         "it takes no other --regime and no --footnote-12")
    if not args.four_plus_sink and not (args.regime and args.lists):
        raise ValueError("--regime and --lists are required unless --four-plus-sink")
    g, emb = parse_graph(_read(args.graph, report))

    t0 = time.perf_counter()
    regime = REGIMES[args.regime or "A"]
    lists = parse_lists(_read(args.lists, report), g.n) if args.lists else None
    try:
        dec = peel(g, regime, args.chi, footnote_12=args.footnote_12)
    except TheoremViolation as tv:
        # --chi is checked against the file's embedding only now, so a run that
        # succeeds traces no faces; a disconnected one has no single surface
        if emb is not None and len(connected_components(g)) == 1:
            traced = euler_characteristic(emb)
            if traced != args.chi:
                raise ValueError(f"--chi {args.chi} does not match the embedding, "
                                 f"whose Euler characteristic is {traced}")
        path = args.graph + ".residual"
        _dump_residual(g, tv, path, report)
        report["verdicts"]["violation"] = str(tv)
        print(f"{tv}\nresidual dumped to {path}", file=sys.stderr)
        _emit(args, report, [])
        return 3
    if not dec.replay_ok():
        raise AssertionError("peel replay failed: a layer is not an island")
    if args.footnote_12 and not dec.planar:
        print(f"warning: no {regime.planar_size}-island in a residual component; "
              f"using up to {regime.size} "
              "(is the input really 2-edge-connected and planar?)", file=sys.stderr)
    coloring, rep, fault = color(dec, lists)
    report["timings"]["color"] = round(time.perf_counter() - t0, 6)

    report["verdicts"]["report"] = _audit_report(rep, len(dec.base))
    report["verdicts"]["ok"] = fault is None
    lines = _coloring_lines(args, coloring, report)
    if not args.out:
        report["verdicts"]["coloring"] = {str(v): coloring[v] for v in sorted(coloring)}
    lines.append(f"max component {rep.max_component}; base {len(dec.base)}")
    _emit(args, report, lines)
    return 0 if fault is None else 1


def _cmd_verify(args, report) -> int:
    g, _ = parse_graph(_read(args.graph, report))
    coloring = parse_coloring(_read(args.coloring, report), g.n)
    lists = parse_lists(_read(args.lists, report), g.n) if args.lists else None
    rep = audit(g, coloring, max_size=args.max_size, lists=lists)
    report["verdicts"]["report"] = _audit_report(rep, 0)
    report["verdicts"]["ok"] = rep.ok
    _emit(args, report, [
        f"max component {rep.max_component}; "
        f"{len(rep.list_violations)} list violations; "
        f"{len(rep.oversized_components)} oversized"
    ])
    return 0 if rep.ok else 1


def _cmd_discharge(args, report) -> int:
    emb = parse_embedding(_read(args.embedding, report))
    regime = REGIMES[args.regime]
    t0 = time.perf_counter()
    state = discharge(emb, regime)
    bounds = charge_bounds_report(state, emb)
    report["timings"]["discharge"] = round(time.perf_counter() - t0, 6)
    report["verdicts"]["total"] = str(state.total())
    report["verdicts"]["chi"] = bounds.chi
    report["verdicts"]["transfers"] = len(state.transfers)
    report["verdicts"]["theorem_applies"] = bounds.theorem_applies
    report["verdicts"]["below_bound"] = [
        {"kind": e.kind, "index": e.index, "charge": str(e.charge),
         "island": sorted(e.witness.members) if e.witness else None}
        for e in bounds.entries
    ]
    lines = []
    if args.log:
        log = [str(t) for t in state.transfers]
        report["verdicts"]["log"] = log
        lines.extend(log)
    lines.append(
        f"total {state.total()} at chi {bounds.chi}; "
        f"{len(state.transfers)} transfers; "
        f"{len(bounds.entries)} elements below bound"
    )
    _emit(args, report, lines)
    return 0


def _cmd_gen(args, report) -> int:
    spec = GenSpec(family=args.family, seed=args.seed, n=args.n,
                   rows=args.rows, cols=args.cols, m=args.m,
                   deletions=args.deletions)
    t0 = time.perf_counter()
    made = gen(spec)
    report["timings"]["gen"] = round(time.perf_counter() - t0, 6)
    if isinstance(made, Embedding):
        text = serialize_embedding(made)
        what = f"embedding: {made.graph.n} vertices, {made.graph.m} edges"
    else:
        text = serialize_hypergraph(made)
        what = f"hypergraph: {made.n} vertices, {len(made.edges)} hyperedges"
    _write(args.out, text, report, "instance")
    report["verdicts"]["family"] = args.family
    _emit(args, report, [f"{what} -> {args.out}"])
    return 0


# ---------------------------------------------------------------------------
# mc subcommands

def _parse_pins(pin_args, terminals: dict[str, int]) -> dict[int, int]:
    pins: dict[int, int] = {}
    for item in pin_args or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad pin {item!r}; expected 'v=c'")
        v = terminals[name] if name in terminals else int(name)
        if v in pins:
            raise ValueError(f"vertex {v} is pinned twice")
        pins[v] = int(value)
    return pins


def _cmd_solve(args, report) -> int:
    if args.optimize and (args.pin or args.k is not None):
        raise ValueError("--optimize searches every k without pins; "
                         "it takes no --pin and no --k")
    text = _read(args.graph, report)
    g, _ = parse_graph(text)
    if args.optimize:
        t0 = time.perf_counter()
        res = mc_optimize(g, budget=args.budget)
        report["timings"]["solve"] = round(time.perf_counter() - t0, 6)
        report["verdicts"].update(
            k=res.k, exact=res.exact, nodes_explored=res.nodes_explored)
        lines = [f"k {res.k} ({'exact' if res.exact else 'budget ran out'}); "
                 f"{res.nodes_explored} nodes"]
        _emit(args, report, lines + _coloring_lines(args, res.coloring, report))
        return 0

    if args.k is None:
        raise ValueError("--k is required unless --optimize")
    pins = _parse_pins(args.pin, parse_terminals(text))
    t0 = time.perf_counter()
    res = mc_decide(g, args.k, pins=pins or None, budget=args.budget)
    report["timings"]["solve"] = round(time.perf_counter() - t0, 6)
    report["verdicts"].update(
        verdict=res.verdict, nodes_explored=res.nodes_explored,
        best_max_component=res.best_max_component)
    lines = [f"{res.verdict}; {res.nodes_explored} nodes"]
    if res.coloring is not None:
        lines.extend(_coloring_lines(args, res.coloring, report))
    _emit(args, report, lines)
    return 0 if res.verdict == "yes" else 1


_GADGETS_BY_T = {"tree": build_tree, "J": build_J}
_GADGETS_BY_K = {"N": build_N, "equalizer": build_equalizer,
                 "uncrosser": build_uncrosser}


def _write_gadget(gg: GadgetGraph, path: str, report: dict):
    comments = terminal_comments(gg.terminals)
    if gg.embedding is not None:
        text = serialize_embedding(gg.embedding, comments)
    else:
        text = serialize_graph(gg.graph, comments)
    _write(path, text, report, "gadget")


def _cmd_gadget(args, report) -> int:
    if args.validate and args.type != "uncrosser":
        raise ValueError("--validate applies to --type uncrosser")
    if args.type in _GADGETS_BY_T:
        if args.t is None:
            raise ValueError(f"--t is required for --type {args.type}")
        gg = _GADGETS_BY_T[args.type](args.t)
    else:
        if args.k is None:
            raise ValueError(f"--k is required for --type {args.type}")
        gg = _GADGETS_BY_K[args.type](args.k)
    report["verdicts"]["n"] = gg.graph.n
    report["verdicts"]["m"] = gg.graph.m
    report["verdicts"]["terminals"] = dict(gg.terminals)
    lines = [f"{args.type}: {gg.graph.n} vertices, {gg.graph.m} edges, "
             f"terminals {gg.terminals}"]
    if args.out:
        _write_gadget(gg, args.out, report)
    code = 0
    if args.validate:
        t0 = time.perf_counter()
        rep = validate_uncrosser(gg, args.k, budget=args.budget)
        report["timings"]["validate"] = round(time.perf_counter() - t0, 6)
        report["verdicts"]["validate"] = rep.verdict
        report["verdicts"]["checks"] = {
            name: {"verdict": r.verdict, "nodes": r.nodes_explored}
            for name, r in rep.checks.items()
        }
        lines.append(f"validation: {rep.verdict}")
        code = 0 if rep.verdict == "pass" else 1
    _emit(args, report, lines)
    return code


def _cmd_reduce(args, report) -> int:
    h = parse_hypergraph(_read(args.hypergraph, report))
    build = reduce_girth8 if args.variant == "girth8" else reduce_planar
    t0 = time.perf_counter()
    gg = build(h, args.k)
    report["timings"]["reduce"] = round(time.perf_counter() - t0, 6)
    report["verdicts"]["n"] = gg.graph.n
    report["verdicts"]["m"] = gg.graph.m
    _write_gadget(gg, args.out, report)
    _emit(args, report, [
        f"{args.variant}: {gg.graph.n} vertices, {gg.graph.m} edges "
        f"-> {args.out}"
    ])
    return 0


def _cmd_hyper2color(args, report) -> int:
    h = parse_hypergraph(_read(args.hypergraph, report))
    t0 = time.perf_counter()
    hcol = hyper2color(h)
    report["timings"]["search"] = round(time.perf_counter() - t0, 6)
    if hcol is None:
        report["verdicts"]["colorable"] = False
        _emit(args, report, ["no 2-coloring"])
        return 1
    report["verdicts"]["colorable"] = True
    report["verdicts"]["coloring"] = {str(v): c for v, c in sorted(hcol.items())}
    _emit(args, report, _coloring_lines(args, hcol, report) + ["2-colorable"])
    return 0


# ---------------------------------------------------------------------------
# suites

def _cmd_suite(args, report) -> int:
    t0 = time.perf_counter()
    records = run_suite(args.name, args.seed, args.count, args.workers)
    report["timings"]["suite"] = round(time.perf_counter() - t0, 6)

    failures = [r for r in records if not r["pass"]]
    report["verdicts"]["suite"] = args.name
    report["verdicts"]["passed"] = len(records) - len(failures)
    report["verdicts"]["count"] = len(records)
    report["verdicts"]["failures"] = failures
    lines = [f"{args.name}: {len(records) - len(failures)}/{len(records)} pass "
             f"(seed {args.seed})"]
    for r in failures:
        lines.append(f"  instance {r['index']} failed: {r['detail']}; "
                     f"replay spec {r['spec']}")

    violation = next((r for r in failures if r.get("kind") == "violation"), None)
    if violation is not None:
        # generators are deterministic, so the spec rebuilds the graph
        g = gen(GenSpec(**violation["spec"])).graph
        tv = TheoremViolation(REGIMES[violation["regime"]], violation["chi"],
                              tuple(violation["residual"]))
        path = f"residual-{args.name}-{violation['spec']['seed']}.g"
        _dump_residual(g, tv, path, report)
        lines.append(f"  residual dumped to {path}")
    _emit(args, report, lines)
    return 3 if violation is not None else 1 if failures else 0


# ---------------------------------------------------------------------------
# parsers and dispatch

@functools.cache
def _build_parser(prog: str) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print a machine-readable run report")
    top = argparse.ArgumentParser(prog=prog)
    sub = top.add_subparsers(dest="subcommand", required=True)

    if prog == "islands":
        p = sub.add_parser("find", parents=[common],
                           help="search for a small island")
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--size", type=int)
        p.add_argument("--regime", choices=sorted(REGIMES))
        p.set_defaults(handler=_cmd_find)

        p = sub.add_parser("color", parents=[common],
                           help="peel and color from lists")
        p.add_argument("--graph", required=True)
        p.add_argument("--lists")
        p.add_argument("--regime", choices=sorted(REGIMES),
                       help="required unless --four-plus-sink, which uses A")
        p.add_argument("--chi", type=int, default=2,
                       help="Euler characteristic of the surface; trusted, and "
                            "checked against an embedding file only if peeling fails")
        p.add_argument("--four-plus-sink", action="store_true")
        p.add_argument("--footnote-12", action="store_true",
                       help="assert 2-edge-connected planar input; "
                            "regime C then peels 12-vertex islands")
        p.add_argument("--out", help="coloring file to write")
        p.set_defaults(handler=_cmd_color)

        p = sub.add_parser("verify", parents=[common],
                           help="audit a coloring file")
        p.add_argument("--graph", required=True)
        p.add_argument("--coloring", required=True)
        p.add_argument("--lists")
        p.add_argument("--max-size", type=int)
        p.set_defaults(handler=_cmd_verify)

        p = sub.add_parser("discharge", parents=[common],
                           help="run charge rules on an embedding")
        p.add_argument("--embedding", required=True)
        p.add_argument("--regime", choices=sorted(REGIMES), required=True)
        p.add_argument("--log", action="store_true",
                       help="print every transfer")
        p.set_defaults(handler=_cmd_discharge)

        p = sub.add_parser("gen", parents=[common],
                           help="generate a test instance")
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--n", type=int, default=0)
        p.add_argument("--rows", type=int, default=0)
        p.add_argument("--cols", type=int, default=0)
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--deletions", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(handler=_cmd_gen)

    elif prog == "mc":
        p = sub.add_parser("solve", parents=[common],
                           help="decide 2-colorability with small components")
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--pin", action="append", metavar="V=C",
                       help="fix a vertex (id or terminal name) to color 0 or 1")
        p.add_argument("--budget", type=int, default=10**7)
        p.add_argument("--optimize", action="store_true",
                       help="find the least k instead of deciding one")
        p.add_argument("--out", help="coloring file to write")
        p.set_defaults(handler=_cmd_solve)

        p = sub.add_parser("gadget", parents=[common],
                           help="build a reduction gadget")
        p.add_argument("--type", choices=sorted(_GADGETS_BY_T | _GADGETS_BY_K),
                       required=True)
        p.add_argument("--t", type=int, help="arity for tree and J")
        p.add_argument("--k", type=int, help="component bound for N, "
                                             "equalizer, uncrosser")
        p.add_argument("--out", help="file to write: an embedding for N, "
                                     "equalizer, uncrosser, else a graph")
        p.add_argument("--validate", action="store_true",
                       help="run the uncrosser's pinned solver checks")
        p.add_argument("--budget", type=int, default=10**6)
        p.set_defaults(handler=_cmd_gadget)

        p = sub.add_parser("reduce", parents=[common],
                           help="reduce a 3-uniform hypergraph")
        p.add_argument("--variant", choices=("girth8", "planar"), required=True)
        p.add_argument("--hypergraph", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(handler=_cmd_reduce)

        p = sub.add_parser("hyper2color", parents=[common],
                           help="2-color a small hypergraph by exhaustion")
        p.add_argument("--hypergraph", required=True)
        p.add_argument("--out", help="coloring file to write")
        p.set_defaults(handler=_cmd_hyper2color)

    else:  # "suite", the one program left: dispatch refuses any other
        p = sub.add_parser("run", parents=[common],
                           help="run a generated acceptance suite")
        p.add_argument("--name", choices=SUITE_NAMES, required=True)
        p.add_argument("--count", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)
        p.set_defaults(handler=_cmd_suite)
    return top


def dispatch(argv: list[str]) -> tuple[int, dict]:
    """Run one command line; returns (exit code, run report)."""
    report = {"command": list(argv), "inputs": {}, "verdicts": {},
              "timings": {}, "outputs": {}}
    if not argv or argv[0] not in ("islands", "mc", "suite"):
        print("usage: islands|mc|suite <subcommand> ...", file=sys.stderr)
        return 2, report
    parser = _build_parser(argv[0])
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as e:
        return (int(e.code) if e.code else 0), report
    try:
        code = args.handler(args, report)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2, report
    except AssertionError as e:
        print(f"property failed: {e}", file=sys.stderr)
        report["verdicts"]["assertion"] = str(e)
        _emit(args, report, [])
        return 1, report
    return code, report


def main_islands():
    sys.exit(dispatch(["islands", *sys.argv[1:]])[0])


def main_mc():
    sys.exit(dispatch(["mc", *sys.argv[1:]])[0])


def main_suite():
    sys.exit(dispatch(["suite", *sys.argv[1:]])[0])
