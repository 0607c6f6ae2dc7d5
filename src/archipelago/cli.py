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
import contextlib
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


@contextlib.contextmanager
def _timed(report: dict, stage: str):
    """Record the body's wall time as timings[stage]; nothing if it raises."""
    t0 = time.perf_counter()
    yield
    report["timings"][stage] = round(time.perf_counter() - t0, 6)


def _coloring_lines(args, coloring: dict[int, int], report: dict) -> list[str]:
    """Write the coloring to --out, or record it as verdicts.coloring and
    return it as "v c" output lines."""
    if args.out:
        _write(args.out, serialize_coloring(coloring), report, "coloring")
        return []
    report["verdicts"]["coloring"] = {str(v): coloring[v] for v in sorted(coloring)}
    # an empty coloring's file is one blank line, which prints as nothing
    return serialize_coloring(coloring).splitlines() if coloring else []


def _audit_report(rep) -> dict:
    return {
        "max_component": rep.max_component,
        "component_sizes": dict(rep.component_sizes),
        "list_violations": [list(p) for p in rep.list_violations],
        "oversized": [list(c) for c in rep.oversized_components],
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

def _cmd_find(args, report) -> tuple[int, list[str]]:
    g, _ = parse_graph(_read(args.graph, report))
    if args.regime:
        regime = REGIMES[args.regime]
        k = regime.k if args.k is None else args.k
        size = regime.size if args.size is None else args.size
    elif args.k is None or args.size is None:
        raise ValueError("give --regime, or both --k and --size")
    else:
        k, size = args.k, args.size
    with _timed(report, "find"):
        w = find_island(g, k, size)
    if w is None:
        report["verdicts"]["island"] = None
        return 1, [f"no {k}-island of at most {size} vertices"]
    members = sorted(w.members)
    degs = [w.outside_degrees[v] for v in members]
    report["verdicts"]["island"] = members
    report["verdicts"]["outside_degrees"] = degs
    return 0, ["island: " + " ".join(str(v) for v in members)
               + " ; outside-degrees: " + " ".join(str(d) for d in degs)]


def _cmd_color(args, report) -> tuple[int, list[str]]:
    if args.four_plus_sink and args.lists:
        raise ValueError("--four-plus-sink ignores lists; give one or the other")
    if args.four_plus_sink and (args.footnote_12 or args.regime not in (None, "A")):
        raise ValueError("--four-plus-sink peels with regime A; "
                         "it takes no other --regime and no --footnote-12")
    if not args.four_plus_sink and not (args.regime and args.lists):
        raise ValueError("--regime and --lists are required unless --four-plus-sink")
    g, emb = parse_graph(_read(args.graph, report))

    # only peel raises the violation; it leaves the timed block, so exit 3
    # records no timing
    try:
        with _timed(report, "color"):
            regime = REGIMES[args.regime or "A"]
            lists = parse_lists(_read(args.lists, report), g.n) if args.lists else None
            dec = peel(g, regime, args.chi, footnote_12=args.footnote_12)
            if not dec.replay_ok():
                raise AssertionError("peel replay failed: a layer is not an island")
            if args.footnote_12 and not dec.planar:
                print(f"warning: no {regime.planar_size}-island in a residual component; "
                      f"using up to {regime.size} "
                      "(is the input really 2-edge-connected and planar?)", file=sys.stderr)
            coloring, rep, fault = color(dec, lists)
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
        return 3, []

    report["verdicts"]["report"] = {**_audit_report(rep), "base_size": len(dec.base)}
    report["verdicts"]["ok"] = fault is None
    lines = _coloring_lines(args, coloring, report)
    lines.append(f"max component {rep.max_component}; base {len(dec.base)}")
    return 0 if fault is None else 1, lines


def _cmd_verify(args, report) -> tuple[int, list[str]]:
    g, _ = parse_graph(_read(args.graph, report))
    coloring = parse_coloring(_read(args.coloring, report), g.n)
    lists = parse_lists(_read(args.lists, report), g.n) if args.lists else None
    rep = audit(g, coloring, max_size=args.max_size, lists=lists)
    report["verdicts"]["report"] = _audit_report(rep)
    report["verdicts"]["ok"] = rep.ok
    return 0 if rep.ok else 1, [f"max component {rep.max_component}; "
                                f"{len(rep.list_violations)} list violations; "
                                f"{len(rep.oversized_components)} oversized"]


def _cmd_discharge(args, report) -> tuple[int, list[str]]:
    emb = parse_embedding(_read(args.embedding, report))
    regime = REGIMES[args.regime]
    with _timed(report, "discharge"):
        state = discharge(emb, regime)
        bounds = charge_bounds_report(state, emb)
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
    return 0, lines


def _cmd_gen(args, report) -> tuple[int, list[str]]:
    spec = GenSpec(family=args.family, seed=args.seed, n=args.n,
                   rows=args.rows, cols=args.cols, m=args.m,
                   deletions=args.deletions)
    with _timed(report, "gen"):
        made = gen(spec)
    if isinstance(made, Embedding):
        text = serialize_embedding(made)
        what = f"embedding: {made.graph.n} vertices, {made.graph.m} edges"
    else:
        text = serialize_hypergraph(made)
        what = f"hypergraph: {made.n} vertices, {len(made.edges)} hyperedges"
    _write(args.out, text, report, "instance")
    report["verdicts"]["family"] = args.family
    return 0, [f"{what} -> {args.out}"]


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


def _cmd_solve(args, report) -> tuple[int, list[str]]:
    if args.optimize and (args.pin or args.k is not None):
        raise ValueError("--optimize searches every k without pins; "
                         "it takes no --pin and no --k")
    text = _read(args.graph, report)
    g, _ = parse_graph(text)
    if args.optimize:
        with _timed(report, "solve"):
            res = mc_optimize(g, budget=args.budget)
        report["verdicts"].update(
            k=res.k, exact=res.exact, nodes_explored=res.nodes_explored)
        lines = [f"k {res.k} ({'exact' if res.exact else 'budget ran out'}); "
                 f"{res.nodes_explored} nodes"]
        return 0, lines + _coloring_lines(args, res.coloring, report)

    if args.k is None:
        raise ValueError("--k is required unless --optimize")
    pins = _parse_pins(args.pin, parse_terminals(text))
    with _timed(report, "solve"):
        res = mc_decide(g, args.k, pins=pins or None, budget=args.budget)
    report["verdicts"].update(
        verdict=res.verdict, nodes_explored=res.nodes_explored,
        best_max_component=res.best_max_component)
    lines = [f"{res.verdict}; {res.nodes_explored} nodes"]
    if res.coloring is not None:
        lines.extend(_coloring_lines(args, res.coloring, report))
    return 0 if res.verdict == "yes" else 1, lines


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


def _cmd_gadget(args, report) -> tuple[int, list[str]]:
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
        with _timed(report, "validate"):
            rep = validate_uncrosser(gg, args.k, budget=args.budget)
        report["verdicts"]["validate"] = rep.verdict
        report["verdicts"]["checks"] = {
            name: {"verdict": r.verdict, "nodes": r.nodes_explored}
            for name, r in rep.checks.items()
        }
        lines.append(f"validation: {rep.verdict}")
        code = 0 if rep.verdict == "pass" else 1
    return code, lines


def _cmd_reduce(args, report) -> tuple[int, list[str]]:
    h = parse_hypergraph(_read(args.hypergraph, report))
    build = reduce_girth8 if args.variant == "girth8" else reduce_planar
    with _timed(report, "reduce"):
        gg = build(h, args.k)
    report["verdicts"]["n"] = gg.graph.n
    report["verdicts"]["m"] = gg.graph.m
    _write_gadget(gg, args.out, report)
    return 0, [f"{args.variant}: {gg.graph.n} vertices, {gg.graph.m} edges -> {args.out}"]


def _cmd_hyper2color(args, report) -> tuple[int, list[str]]:
    h = parse_hypergraph(_read(args.hypergraph, report))
    with _timed(report, "search"):
        hcol = hyper2color(h)
    if hcol is None:
        report["verdicts"]["colorable"] = False
        return 1, ["no 2-coloring"]
    report["verdicts"]["colorable"] = True
    report["verdicts"]["coloring"] = {str(v): c for v, c in sorted(hcol.items())}
    return 0, _coloring_lines(args, hcol, report) + ["2-colorable"]


# ---------------------------------------------------------------------------
# suites

def _cmd_suite(args, report) -> tuple[int, list[str]]:
    with _timed(report, "suite"):
        records = run_suite(args.name, args.seed, args.count, args.workers)

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
    return 3 if violation is not None else 1 if failures else 0, lines


# ---------------------------------------------------------------------------
# parsers and dispatch

@functools.cache
def _build_parser(prog: str) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print a machine-readable run report")
    top = argparse.ArgumentParser(prog=prog)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    if prog == "islands":
        p = add("find", _cmd_find, "search for a small island")
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--size", type=int)
        p.add_argument("--regime", choices=sorted(REGIMES))

        p = add("color", _cmd_color, "peel and color from lists")
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

        p = add("verify", _cmd_verify, "audit a coloring file")
        p.add_argument("--graph", required=True)
        p.add_argument("--coloring", required=True)
        p.add_argument("--lists")
        p.add_argument("--max-size", type=int)

        p = add("discharge", _cmd_discharge, "run charge rules on an embedding")
        p.add_argument("--embedding", required=True)
        p.add_argument("--regime", choices=sorted(REGIMES), required=True)
        p.add_argument("--log", action="store_true",
                       help="print every transfer")

        p = add("gen", _cmd_gen, "generate a test instance")
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--n", type=int, default=0)
        p.add_argument("--rows", type=int, default=0)
        p.add_argument("--cols", type=int, default=0)
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--deletions", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    elif prog == "mc":
        p = add("solve", _cmd_solve, "decide 2-colorability with small components")
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--pin", action="append", metavar="V=C",
                       help="fix a vertex (id or terminal name) to color 0 or 1")
        p.add_argument("--budget", type=int, default=10**7)
        p.add_argument("--optimize", action="store_true",
                       help="find the least k instead of deciding one")
        p.add_argument("--out", help="coloring file to write")

        p = add("gadget", _cmd_gadget, "build a reduction gadget")
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

        p = add("reduce", _cmd_reduce, "reduce a 3-uniform hypergraph")
        p.add_argument("--variant", choices=("girth8", "planar"), required=True)
        p.add_argument("--hypergraph", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--out", required=True)

        p = add("hyper2color", _cmd_hyper2color, "2-color a small hypergraph by exhaustion")
        p.add_argument("--hypergraph", required=True)
        p.add_argument("--out", help="coloring file to write")

    else:  # "suite", the one program left: dispatch refuses any other
        p = add("run", _cmd_suite, "run a generated acceptance suite")
        p.add_argument("--name", choices=SUITE_NAMES, required=True)
        p.add_argument("--count", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)
    return top


def dispatch(argv: list[str]) -> tuple[int, dict]:
    """Run one command line; returns (exit code, run report).

    Each handler returns (exit code, human lines); only this prints them or
    the report, and a usage error (exit 2) prints neither."""
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
        code, lines = args.handler(args, report)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2, report
    except AssertionError as e:
        print(f"property failed: {e}", file=sys.stderr)
        report["verdicts"]["assertion"] = str(e)
        code, lines = 1, []
    _emit(args, report, lines)
    return code, report


def main_islands():
    sys.exit(dispatch(["islands", *sys.argv[1:]])[0])


def main_mc():
    sys.exit(dispatch(["mc", *sys.argv[1:]])[0])


def main_suite():
    sys.exit(dispatch(["suite", *sys.argv[1:]])[0])
