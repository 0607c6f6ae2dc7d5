"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line
(bypassing capture, so the lines appear in any pytest run). The instance
batches are seeded; reruns see identical inputs.
"""

import random
import time
from functools import lru_cache
from itertools import combinations, product

from archipelago.certify import audit, is_island
from archipelago.discharging import discharge
from archipelago.gadgets import (
    build_equalizer,
    build_J,
    build_N,
    build_uncrosser,
    counting_check_J,
    forward_coloring_girth8,
    hyper2color,
    reduce_girth8,
    reduce_planar,
    validate_uncrosser,
)
from archipelago.generators import (
    hex_patch,
    hex_torus,
    hypergraph3,
    quadrangulation,
    triangulated_torus,
    triangulation,
)
from archipelago.graphs import (
    Graph,
    bipartition,
    euler_characteristic,
    girth,
)
from archipelago.islands import REGIME_A, REGIME_B, REGIME_C, find_island
from archipelago.peeling import color, extend_coloring, peel
from archipelago.solver import mc_decide, mc_optimize
from oracles import degeneracy_order, distance


def _report(capsys, num: int, ok: bool, detail: str):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


@lru_cache(maxsize=None)
def _suite1():
    rng = random.Random("acceptance:suite1")
    return tuple(
        triangulation(rng.randrange(20, 501), rng.randrange(2**31))
        for _ in range(100)
    )


def _draw_lists(n: int, width: int, tag: str) -> dict[int, list[int]]:
    rng = random.Random(f"acceptance:{tag}")
    return {v: sorted(rng.sample(range(1, 10), width)) for v in range(n)}


def _random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.uniform(0.1, 0.9)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def test_criterion_01_islands_in_triangulations(capsys):
    ok = True
    slowest = 0.0
    for emb in _suite1():
        g = emb.graph
        t0 = time.perf_counter()
        w = find_island(g, 4, 3)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        if (w is None or len(w.members) > 3 or dt >= 1.0
                or not is_island(g, w.members, 4)):
            ok = False
            break
    _report(capsys, 1, ok,
            f"4-island of <=3 vertices found and re-verified on 100 "
            f"triangulations (n 20..500); slowest {slowest * 1000:.1f} ms")


def test_criterion_02_five_list_colorings(capsys):
    ok = True
    worst = 0
    for i, emb in enumerate(_suite1()):
        g = emb.graph
        lists = _draw_lists(g.n, 5, f"c2:{i}")
        coloring = extend_coloring(peel(g, REGIME_A, 2), lists)
        rep = audit(g, coloring, max_size=3, lists=lists)
        worst = max(worst, rep.max_component)
        if not rep.ok:
            ok = False
            break
    _report(capsys, 2, ok,
            f"5-list colorings of the same 100 instances: zero list "
            f"violations, max component {worst} (bound 3)")


def test_criterion_03_quadrangulations(capsys):
    rng = random.Random("acceptance:c3")
    ok = True
    worst = 0
    for i in range(100):
        emb = quadrangulation(rng.randrange(20, 501), rng.randrange(2**31))
        g = emb.graph
        w = find_island(g, 2, 10)
        if w is None or not is_island(g, w.members, 2):
            ok = False
            break
        lists = _draw_lists(g.n, 3, f"c3:{i}")
        rep = audit(g, extend_coloring(peel(g, REGIME_B, 2), lists),
                    max_size=10, lists=lists)
        worst = max(worst, rep.max_component)
        if not rep.ok:
            ok = False
            break
    _report(capsys, 3, ok,
            f"100 quadrangulations: 2-island of <=10 found, 3-list "
            f"colorings max component {worst} (bound 10)")


def test_criterion_04_hex_patches_and_torus(capsys):
    rng = random.Random("acceptance:c4")
    ok = True
    worst = 0
    for i in range(100):
        emb = hex_patch(rng.randrange(3, 9), rng.randrange(3, 9),
                        rng.randrange(0, 7), rng.randrange(2**31))
        g = emb.graph
        w = find_island(g, 1, 16)
        if w is None or not is_island(g, w.members, 1):
            ok = False
            break
        lists = _draw_lists(g.n, 2, f"c4:{i}")
        rep = audit(g, extend_coloring(peel(g, REGIME_C, 2), lists),
                    max_size=16, lists=lists)
        worst = max(worst, rep.max_component)
        if not rep.ok:
            ok = False
            break
    torus_ok = True
    for rows in range(3, 7):
        for cols in range(3, 7):
            g = hex_torus(rows, cols).graph
            w = find_island(g, 1, 16)
            if w is None or not is_island(g, w.members, 1):
                torus_ok = False
    ok = ok and torus_ok
    _report(capsys, 4, ok,
            f"100 hex patches: 1-island of <=16 found, 2-list colorings "
            f"max component {worst} (bound 16); island found on all 16 "
            f"hex tori")


def test_criterion_05_four_plus_sink(capsys):
    ok = True
    embs = list(_suite1()) + [
        triangulated_torus(r, c) for r in range(3, 7) for c in range(3, 7)
    ]
    for emb in embs:
        g = emb.graph
        chi = euler_characteristic(emb)
        dec = peel(g, REGIME_A, chi)
        coloring, _, _ = color(dec)
        sizes = audit(g, coloring).component_sizes
        if any(sizes.get(c, 0) > 3 for c in (1, 2, 3, 4)):
            ok = False
            break
        if sizes.get(5, 0) > max(3, dec.threshold):
            ok = False
            break
    _report(capsys, 5, ok,
            "colors 1-4 stay within 3 and the sink color within "
            "max(3, threshold) on 100 triangulations and 16 "
            "triangulated tori")


def test_criterion_06_charge_identities(capsys):
    rng = random.Random("acceptance:c6")
    batches = []
    for _ in range(10):
        batches.append(("tri", triangulation(rng.randrange(20, 201),
                                             rng.randrange(2**31))))
        batches.append(("quad", quadrangulation(rng.randrange(20, 201),
                                                rng.randrange(2**31))))
        batches.append(("hex", hex_patch(rng.randrange(3, 8),
                                         rng.randrange(3, 8),
                                         rng.randrange(0, 5),
                                         rng.randrange(2**31))))
    for r in range(3, 7):
        batches.append(("hex", hex_torus(r, r)))
        batches.append(("tri", triangulated_torus(r, r)))
    ok = True
    for family, emb in batches:
        chi = euler_characteristic(emb)
        got_a = discharge(emb, REGIME_A).total()
        if got_a > -6 * chi or (family == "tri" and got_a != -6 * chi):
            ok = False
            break
        if discharge(emb, REGIME_B).total() != -4 * chi:
            ok = False
            break
        if discharge(emb, REGIME_C).total() != -6 * chi:
            ok = False
            break
    _report(capsys, 6, ok,
            f"exact totals on {len(batches)} embeddings: -4*chi and "
            f"-6*chi identities, <= -6*chi with equality on "
            f"triangulations, conservation throughout")


def test_criterion_07_gadget_properties(capsys):
    j = build_J(2)
    g = j.graph
    j_ok = (bipartition(g) is not None
            and degeneracy_order(g)[0] == 2
            and distance(g, j.terminals["y"], j.terminals["z"]) == 6
            and girth(g) == 8)
    counting_ok = all(counting_check_J(t).holds for t in range(2, 1001))

    eq = build_equalizer(2)
    y, z = eq.terminals["y"], eq.terminals["z"]
    valid = 0
    eq_ok = True
    for bits in product((0, 1), repeat=eq.graph.n):
        coloring = dict(enumerate(bits))
        if audit(eq.graph, coloring).max_component <= 2:
            valid += 1
            if coloring[y] != coloring[z]:
                eq_ok = False
    eq_ok = eq_ok and valid > 0

    nn = build_N(2)
    t0 = time.perf_counter()
    same = mc_decide(nn.graph, 2, pins={nn.terminals["y"]: 0,
                                        nn.terminals["z"]: 0}, budget=10**7)
    differ = mc_decide(nn.graph, 2, pins={nn.terminals["y"]: 0,
                                          nn.terminals["z"]: 1}, budget=10**7)
    elapsed = time.perf_counter() - t0
    n_ok = (nn.graph.n == 50 and same.verdict == "no"
            and differ.verdict == "yes" and elapsed < 60.0)

    rep = validate_uncrosser(build_uncrosser(2), 2)
    u_ok = (rep.verdict == "pass" and rep.counterexample is None
            and rep.same_witness is not None
            and rep.distinct_witness is not None)

    ok = j_ok and counting_ok and eq_ok and n_ok and u_ok
    _report(capsys, 7, ok,
            f"coupler bipartite/degeneracy 2/distance 6/girth 8; counting "
            f"identity for t=2..1000; equalizer enumeration ({valid} valid "
            f"colorings); 50-vertex link decided in {elapsed * 1000:.0f} ms; "
            f"uncrosser validated with both witnesses")


def test_criterion_08_girth8_reduction_roundtrip(capsys):
    rng = random.Random("acceptance:c8")
    ok = True
    sizes = []
    for i in range(10):
        m = 1 + i % 3
        h = hypergraph3(rng.randrange(6, 13), m, rng.randrange(2**31))
        hcol = hyper2color(h)
        if hcol is None:
            ok = False
            break
        gg = reduce_girth8(h, 2)
        sizes.append(gg.graph.n)
        coloring = forward_coloring_girth8(h, hcol, gg, 2)
        rep = audit(gg.graph, coloring, max_size=2)
        if not rep.ok or girth(gg.graph) != 8 or degeneracy_order(gg.graph)[0] != 2:
            ok = False
            break
    _report(capsys, 8, ok,
            f"10 two-colorable hypergraphs pushed forward: max component "
            f"<=2, girth exactly 8, degeneracy 2 on outputs of "
            f"{min(sizes)}..{max(sizes)} vertices (reverse direction not "
            f"searched)")


def _covered_connected_hypergraph(rng: random.Random):
    # the planar reduction drawing needs every vertex used and one piece
    while True:
        m = rng.randrange(2, 4)
        n = rng.randrange(4, 3 * m + 1)
        h = hypergraph3(n, m, rng.randrange(2**31))
        if {v for t in h.edges for v in t} != set(range(h.n)):
            continue
        merged = set(h.edges[0])
        rest = [set(t) for t in h.edges[1:]]
        while True:
            joined = [p for p in rest if p & merged]
            if not joined:
                break
            for p in joined:
                merged |= p
                rest.remove(p)
        if not rest:
            return h


def test_criterion_09_planar_reduction_structure(capsys):
    rng = random.Random("acceptance:c9")
    ok = True
    sizes = []
    for _ in range(10):
        h = _covered_connected_hypergraph(rng)
        gg = reduce_planar(h, 2)
        sizes.append(gg.graph.n)
        if (gg.embedding is None
                or euler_characteristic(gg.embedding) != 2
                or girth(gg.graph) < 4
                or degeneracy_order(gg.graph)[0] != 2):
            ok = False
            break
    _report(capsys, 9, ok,
            f"10 planar reductions: characteristic 2 by face tracing, "
            f"girth >= 4, degeneracy 2 ({min(sizes)}..{max(sizes)} "
            f"vertices)")


def test_criterion_10_optimizer_matches_enumeration(capsys):
    rng = random.Random("acceptance:c10")
    ok = True
    for _ in range(200):
        g = _random_graph(rng, rng.randrange(1, 13))
        best = g.n
        for bits in range(2**g.n):
            coloring = {v: (bits >> v) & 1 for v in range(g.n)}
            best = min(best, _max_component(g, coloring))
        res = mc_optimize(g)
        if (res.k != best or not res.exact
                or _max_component(g, res.coloring) > res.k):
            ok = False
            break
    _report(capsys, 10, ok,
            "optimizer agrees with exhaustive 2^n enumeration on 200 "
            "random graphs (n <= 12)")


def _max_component(g: Graph, coloring: dict[int, int]) -> int:
    seen = [False] * g.n
    best = 0
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for y in g.neighbors(x):
                if not seen[y] and coloring[y] == coloring[x]:
                    seen[y] = True
                    stack.append(y)
        best = max(best, size)
    return best


def test_criterion_11_negative_control(capsys):
    k7 = Graph(7, list(combinations(range(7), 2)))
    ok = find_island(k7, 1, 3) is None

    rng = random.Random("acceptance:c11")
    checked = 0
    for _ in range(150):
        g = _random_graph(rng, rng.randrange(1, 10))
        for k, s in ((1, 3), (2, 3), (1, 4), (3, 2)):
            exists = any(
                all(sum(1 for u in g.neighbors(v) if u not in chosen) <= k
                    for v in chosen)
                for size in range(1, min(s, g.n) + 1)
                for chosen in map(set, combinations(range(g.n), size))
            )
            w = find_island(g, k, s)
            if (w is None) == exists:
                ok = False
            if w is not None and not is_island(g, w.members, k):
                ok = False
            checked += 1
    _report(capsys, 11, ok,
            f"no 1-island of <=3 vertices in K7; exhaustive subset oracle "
            f"agrees with the search on {checked} cases over 150 graphs "
            f"(n <= 9)")
