"""Decision solver checked against exhaustive enumeration on small graphs."""

import random
from itertools import combinations

import pytest

from archipelago import solver
from archipelago.certify import audit
from archipelago.gadgets import reduce_girth8
from archipelago.generators import hypergraph3, triangulation
from archipelago.graphs import Graph
from archipelago.solver import MCResult, OptimizeResult, mc_decide, mc_optimize


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def largest_mono_component(g: Graph, coloring) -> int:
    seen = set()
    best = 0
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        stack = [s]
        count = 0
        while stack:
            v = stack.pop()
            count += 1
            for u in g.neighbors(v):
                if u not in seen and coloring[u] == coloring[v]:
                    seen.add(u)
                    stack.append(u)
        best = max(best, count)
    return best


def brute_coloring(g: Graph, k: int, pins=None):
    """First coloring (by binary counter) with all pieces at most k, or None."""
    pins = pins or {}
    for bits in range(1 << g.n):
        coloring = {v: (bits >> v) & 1 for v in range(g.n)}
        if any(coloring[v] != c for v, c in pins.items()):
            continue
        if largest_mono_component(g, coloring) <= k:
            return coloring
    return None


def complete(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestDecide:
    def test_known_small_instances(self):
        assert mc_decide(cycle(4), 1).verdict == "yes"
        assert mc_decide(complete(4), 1).verdict == "no"
        assert mc_decide(complete(4), 2).verdict == "yes"
        assert mc_decide(complete(5), 2).verdict == "no"
        assert mc_decide(complete(5), 3).verdict == "yes"
        assert mc_decide(cycle(5), 1).verdict == "no"
        assert mc_decide(cycle(5), 2).verdict == "yes"

    def test_empty_graph(self):
        res = mc_decide(Graph(0, []), 3)
        assert res.verdict == "yes" and res.coloring == {}

    def test_yes_coloring_audits(self):
        for seed in range(30):
            g = random_graph(7, 0.4, seed)
            res = mc_decide(g, 2)
            if res.verdict == "yes":
                report = audit(g, res.coloring, max_size=2)
                assert report.ok
                assert res.best_max_component == report.max_component

    def test_agrees_with_enumeration(self):
        for seed in range(40):
            n = 5 + seed % 4
            g = random_graph(n, 0.25 + 0.1 * (seed % 5), seed)
            for k in (1, 2, 3):
                res = mc_decide(g, k)
                assert res.verdict != "inconclusive"
                expected = brute_coloring(g, k) is not None
                assert (res.verdict == "yes") == expected, (seed, k)

    def test_agrees_with_enumeration_under_pins(self):
        rng = random.Random(99)
        for seed in range(40):
            n = 6
            g = random_graph(n, 0.35, 1000 + seed)
            pins = {rng.randrange(n): rng.randrange(2)}
            if rng.random() < 0.5:
                pins[(max(pins) + 3) % n] = rng.randrange(2)
            k = rng.choice((1, 2))
            try:
                res = mc_decide(g, k, pins=pins)
            except ValueError:
                assert brute_coloring(g, k, pins) is None
                continue
            expected = brute_coloring(g, k, pins)
            assert (res.verdict == "yes") == (expected is not None), (seed, k, pins)
            if res.verdict == "yes":
                for v, c in pins.items():
                    assert res.coloring[v] == c

    def test_equalizer_property(self):
        # K_{2,3}: forcing the two high-degree vertices apart leaves no room,
        # since two of the three common neighbors share a color either way.
        side2 = [0, 1]
        side3 = [2, 3, 4]
        g = Graph(5, [(a, b) for a in side2 for b in side3])
        assert mc_decide(g, 2, pins={0: 0, 1: 1}).verdict == "no"
        assert mc_decide(g, 2, pins={0: 0, 1: 0}).verdict == "yes"
        assert mc_decide(g, 2).verdict == "yes"

    def test_pin_validation(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            mc_decide(g, 1, pins={0: 0, 1: 0})
        with pytest.raises(ValueError):
            mc_decide(g, 1, pins={5: 0})
        with pytest.raises(ValueError):
            mc_decide(g, 1, pins={0: 2})
        with pytest.raises(ValueError):
            mc_decide(g, 0)

    def test_propagation_only_no(self):
        res = mc_decide(complete(3), 1)
        assert res.verdict == "no"
        assert res.nodes_explored == 0

    def test_first_vertex_pin_symmetry(self):
        for seed in range(25):
            g = random_graph(6, 0.3, 2000 + seed)
            for k in (1, 2):
                free = mc_decide(g, k).verdict
                pinned = mc_decide(g, k, pins={0: 0}).verdict
                assert free == pinned

    def test_budget_exhaustion(self):
        # a refutation visits the same nodes in any color order, so K5's 4
        # nodes at k = 2 do not depend on which color a branch tries first
        res = mc_decide(complete(5), 2, budget=2)
        assert res.verdict == "inconclusive"
        assert res.coloring is None
        assert res.nodes_explored == 2
        assert mc_decide(complete(5), 2) == MCResult("no", None, 4)

    def test_negative_budget_is_refused(self):
        # a budget of 0 explores no node; below that there is no budget
        assert mc_decide(complete(5), 2, budget=0) == MCResult("inconclusive", None, 0)
        for g in (complete(5), Graph(0, [])):
            with pytest.raises(ValueError, match="budget must be nonnegative, not -1"):
                mc_decide(g, 2, budget=-1)

    def test_node_cost_does_not_grow_with_the_graph(self, monkeypatch):
        # 5,000 nodes on a 21,986-vertex reduction: pick reads about 29,000
        # entries of the branching order, and 6.9 million when every scan
        # starts from the first rank
        class Order(list):
            reads = 0

            def __getitem__(self, i):
                Order.reads += 1
                return super().__getitem__(i)

        setup = solver._setup

        def counting_setup(g):
            adj, priority, rank, components = setup(g)
            return adj, Order(priority), rank, components

        monkeypatch.setattr(solver, "_setup", counting_setup)
        g = reduce_girth8(hypergraph3(8, 6, seed=1), 2).graph
        assert g.n == 21986
        res = mc_decide(g, 2, budget=5000)
        assert res.verdict == "inconclusive" and res.nodes_explored == 5000
        assert Order.reads < 10 * res.nodes_explored

    def test_deterministic(self):
        g = random_graph(8, 0.4, 7)
        assert mc_decide(g, 2) == mc_decide(g, 2)

    def test_multiple_components_respect_pins(self):
        tri = [(0, 1), (1, 2), (0, 2)]
        g = Graph(6, tri + [(u + 3, v + 3) for u, v in tri])
        res = mc_decide(g, 3, pins={1: 1})
        assert res.verdict == "yes"
        assert res.coloring[1] == 1


class TestOptimize:
    def test_matches_enumeration(self):
        for seed in range(25):
            g = random_graph(6, 0.35, 3000 + seed)
            res = mc_optimize(g)
            assert res.exact
            best = next(
                k for k in range(1, g.n + 1) if brute_coloring(g, k) is not None
            )
            assert res.k == best
            assert largest_mono_component(g, res.coloring) <= res.k

    def test_known_values(self):
        assert mc_optimize(path(6)).k == 1
        assert mc_optimize(complete(4)).k == 2
        assert mc_optimize(cycle(5)).k == 2
        assert mc_optimize(Graph(0, [])).k == 0

    def test_one_setup_per_graph(self, monkeypatch):
        # the components come with the set-up, which every k shares
        calls = []
        components = solver.connected_components

        def counting_components(g):
            calls.append(g)
            return components(g)

        monkeypatch.setattr(solver, "connected_components", counting_components)
        res = mc_optimize(complete(5))
        assert res.k == 3 and res.exact
        assert len(calls) == 1

    def test_negative_budget_is_refused(self):
        # a budget of 0 explores no node and returns the BFS-parity coloring:
        # vertex 0 alone in layer 0, the other four in layer 1
        parity = {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}
        assert mc_optimize(complete(5), budget=0) == OptimizeResult(4, parity, False, 0)
        for g in (complete(5), Graph(0, [])):
            with pytest.raises(ValueError, match="budget must be nonnegative, not -1"):
                mc_optimize(g, budget=-1)

    def test_budget_starvation_falls_back(self):
        # the best coloring found: here the parity coloring
        res = mc_optimize(complete(5), budget=1)
        assert not res.exact
        assert res.k == 4 and res.nodes_explored == 1
        assert largest_mono_component(complete(5), res.coloring) == res.k

    def test_every_budget_returns_an_audited_coloring(self):
        for seed in range(30):
            g = random_graph(8, 0.3 + 0.02 * seed, 4000 + seed)
            best = next(k for k in range(1, g.n + 1) if brute_coloring(g, k) is not None)
            for budget in range(61):
                res = mc_optimize(g, budget)
                assert res.nodes_explored <= budget
                assert largest_mono_component(g, res.coloring) == res.k >= best
                assert res.k == best or not res.exact

    def test_bipartite_graphs_need_no_search(self):
        # the parity coloring of a bipartite graph is proper
        for g in (path(6), cycle(6), Graph(3, [])):
            res = mc_optimize(g, budget=0)
            assert (res.k, res.exact, res.nodes_explored) == (1, True, 0)

    def test_node_total_on_small_triangulations(self):
        # one search from the parity coloring down; oracles.mc_optimize_climb,
        # with a search for each k = 1, 2, ..., takes 5,462
        graphs = [triangulation(n, seed=s).graph for n in range(12, 21) for s in range(4)]
        results = [mc_optimize(g) for g in graphs]
        assert all(res.exact for res in results)
        assert sum(res.nodes_explored for res in results) == 5394


class TestYesAudit:
    """The two checks _yes makes before it returns a coloring."""

    def test_uncolored_vertex(self):
        with pytest.raises(AssertionError, match="uncolored vertices"):
            solver._yes(path(2), [0, -1], 1, 0)

    def test_oversized_component(self, monkeypatch):
        monkeypatch.setattr(solver, "audit", lambda g, coloring, max_size=None: audit(g, coloring, max_size=0))
        with pytest.raises(AssertionError, match="oversized component; solver bug"):
            mc_decide(path(2), 1)
        with pytest.raises(AssertionError, match="oversized component; solver bug"):
            mc_optimize(complete(3))
