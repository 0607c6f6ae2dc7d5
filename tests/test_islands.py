import random
import re
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations

import pytest

from archipelago import islands
from archipelago.certify import IslandWitness, is_island
from archipelago.generators import triangulation
from archipelago.graphs import Graph, LiveView, connected_components
from archipelago.islands import (
    REGIME_A,
    REGIME_B,
    REGIME_C,
    REGIMES,
    find_island,
    forbidden_configuration,
)
from oracles import CountingGraph


def brute_island_exists(g, k, size):
    """Exhaustive check over all vertex subsets of at most `size` vertices."""
    for s in range(1, size + 1):
        for subset in combinations(range(g.n), s):
            sset = set(subset)
            if all(
                sum(1 for u in g.neighbors(v) if u not in sset) <= k for v in subset
            ):
                return True
    return False


def random_graph(rng, n, p):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def hex_torus_like():
    # 3-regular, girth 6: hexagonal grid on a 3x3 torus
    from archipelago.generators import hex_torus

    return hex_torus(3, 3).graph


class TestRegimes:
    def test_table(self):
        assert (REGIME_A.k, REGIME_A.size, REGIME_A.factor) == (4, 3, 72)
        assert (REGIME_B.k, REGIME_B.size, REGIME_B.factor) == (2, 10, 72)
        assert (REGIME_C.k, REGIME_C.size, REGIME_C.factor) == (1, 16, 357)
        assert set(REGIMES) == {"A", "B", "C"}

    def test_thresholds(self):
        assert REGIME_A.threshold(2) == 0
        assert REGIME_A.threshold(0) == 0
        assert REGIME_A.threshold(-1) == 72
        assert REGIME_B.threshold(-2) == 144
        assert REGIME_C.threshold(-1) == 357


class TestIsIsland:
    def test_witness(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        w = is_island(g, [0, 1], 1)
        assert isinstance(w, IslandWitness) and w
        assert w.members == (0, 1)
        assert w.outside_degrees == {0: 1, 1: 1}

    def test_refusal(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert is_island(g, [0], 2) is None
        assert is_island(g, [0], 3).outside_degrees == {0: 3}

    def test_empty_and_out_of_range(self):
        g = Graph(2, [(0, 1)])
        assert is_island(g, [], 1) is None
        assert is_island(g, [5], 1) is None
        assert is_island(g, [-1], 1) is None

    def test_whole_graph_is_island(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert is_island(g, range(5), 0)

    def test_scan_hit_that_is_no_island_is_refused(self):
        g = triangulation(20, seed=1).graph
        hit = [max(g.vertices(), key=g.degree)]
        assert g.degree(hit[0]) > REGIME_A.k
        regime = replace(REGIME_A, scan=lambda g, size, anchors: hit)
        with pytest.raises(AssertionError, match=re.escape(f"configuration scan produced a non-island: {hit}")):
            forbidden_configuration(g, regime)

    def test_search_hit_that_is_no_island_is_refused(self, monkeypatch):
        g = triangulation(20, seed=1).graph
        hit = {max(g.vertices(), key=g.degree)}
        monkeypatch.setattr(islands, "_grow_island", lambda *args: hit)
        with pytest.raises(AssertionError, match=re.escape(f"island search produced a non-island: {hit}")):
            find_island(g, REGIME_A.k, REGIME_A.size)

    def test_live_view(self):
        # the path 0-1-2-3 with vertex 2 removed
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        alive, live_deg = [True, True, False, True], [1, 1, 0, 0]
        view = LiveView(g, alive, live_deg)
        assert is_island(view, [0, 1], 0) and is_island(g, [0, 1], 0) is None
        assert is_island(view, [2], 0) is None
        assert is_island(view, [1, 2], 1) is None
        assert find_island(view, 0, 2).members == (0, 1)
        assert connected_components(view) == [[0, 1], [3]]
        # the view follows later removals of its owner
        alive[1], live_deg[0] = False, 0
        assert view.neighbors(0) == [] and view.vertices() == [0, 3]


class TestForbiddenConfigurationA:
    def test_low_degree_vertex(self):
        g = Graph(3, [(0, 1), (1, 2)])
        w = forbidden_configuration(g, REGIME_A)
        assert w and len(w.members) == 1

    def test_five_five_edge(self):
        # icosahedron is 5-regular: every edge is a degree-5 pair
        from test_graphs import icosahedron_embedding

        g = icosahedron_embedding().graph
        w = forbidden_configuration(g, REGIME_A)
        assert w and len(w.members) == 2
        u, v = w.members
        assert g.has_edge(u, v) and g.degree(u) == 5 and g.degree(v) == 5

    def test_exhaustive_for_small_islands(self):
        # for this regime the pattern list is complete: a 4-island of at
        # most 3 vertices exists exactly when some pattern matches
        rng = random.Random(123)
        for trial in range(150):
            n = rng.randrange(2, 11)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            scan = forbidden_configuration(g, REGIME_A) is not None
            exists = brute_island_exists(g, 4, 3)
            assert scan == exists, f"trial {trial}"


class TestForbiddenConfigurationBC:
    def test_single_low_degree(self):
        c10 = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
        w = forbidden_configuration(c10, REGIME_B)
        assert w and len(w.members) == 1

    def test_endpoint_path(self):
        # degree-3 endpoints joined by a path of degree-4 vertices, all extra
        # edges going into a K6 body that is too dense to qualify itself
        body = [(6 + a, 6 + b) for a, b in combinations(range(6), 2)]
        path = [(i, i + 1) for i in range(5)]
        hooks = [(0, 6), (0, 7), (5, 8), (5, 9)]
        for i in range(1, 5):
            hooks += [(i, 6 + (2 * i) % 6), (i, 6 + (2 * i + 1) % 6)]
        g = Graph(12, body + path + hooks)
        assert g.degree(0) == 3 and g.degree(5) == 3
        assert all(g.degree(i) == 4 for i in range(1, 5))
        assert all(g.degree(b) > 4 for b in range(6, 12))
        w = forbidden_configuration(g, REGIME_B)
        assert w and set(w.members) == set(range(6))

    def test_cycle_through_degree_two(self):
        # regime C: a pendant 6-cycle hanging off a big wheel-free body
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges += [(0, 6), (6, 7), (6, 8), (7, 8), (7, 9), (8, 9), (9, 6)]
        g = Graph(10, edges)
        # vertices 1..5 have degree 2; the 6-cycle through them qualifies
        w = forbidden_configuration(g, REGIME_C)
        assert w
        assert set(w.members) <= set(range(6))

    def test_three_regular(self):
        g = hex_torus_like()
        # every edge joins two degree-3 vertices: a 2-island pair
        w = forbidden_configuration(g, REGIME_B)
        assert w and len(w.members) == 2
        # no degree-2 vertex anywhere, so the stricter scan finds nothing
        # and only the general search can take over
        assert forbidden_configuration(g, REGIME_C) is None

    def test_scan_is_sound(self):
        rng = random.Random(321)
        for _ in range(80):
            n = rng.randrange(2, 12)
            g = random_graph(rng, n, 0.25)
            for regime in (REGIME_B, REGIME_C):
                w = forbidden_configuration(g, regime)
                if w is not None:
                    assert is_island(g, w.members, regime.k)
                    assert len(w.members) <= regime.size


class TestFindIsland:
    def test_matches_brute_force(self):
        rng = random.Random(2024)
        params = [(4, 3), (2, 10), (1, 16), (1, 2), (0, 1), (2, 3)]
        for trial in range(120):
            n = rng.randrange(1, 11)
            g = random_graph(rng, n, rng.choice([0.15, 0.35, 0.6]))
            k, size = params[trial % len(params)]
            got = find_island(g, k, size)
            expect = brute_island_exists(g, k, size)
            assert (got is not None) == expect, f"trial {trial} k={k} size={size}"
            if got is not None:
                assert len(got.members) <= size
                assert is_island(g, got.members, k)

    def test_search_deeper_than_the_recursion_limit(self):
        # a cycle has no 0-island short of the whole cycle, so the search
        # includes one vertex per step until it reaches the size cap
        size = sys.getrecursionlimit() + 100
        n = size + 100
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert find_island(g, 0, size) is None
        assert find_island(g, 0, n).members == tuple(range(n))

    def test_deep_search_costs_each_step_one_degree(self):
        # on a cycle the search from vertex 0 includes one vertex per step up
        # to the size cap, then backtracks through every step; every other
        # seed fails at once, as its neighbour below it may not join
        n, size = 1200, 1100
        edges = [(i, (i + 1) % n) for i in range(n)]
        g = CountingGraph(n, edges)
        assert find_island(g, 0, size) is None
        assert g.reads <= 4 * size * 2
        g = Graph(n, edges)
        tracemalloc.start()
        try:
            assert find_island(g, 0, size) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_hexagonal_face_island(self):
        g = hex_torus_like()
        w = find_island(g, 1, 16)
        assert w is not None
        assert len(w.members) >= 6  # 3-regular and girth 6: no smaller 1-island

    def test_restrict_to(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        w = find_island(g, 1, 2, restrict_to=[3, 4])
        assert w is not None and set(w.members) <= {3, 4}
        # outside counts refer to the full graph
        assert w.outside_degrees == {3: 1, 4: 1}

    def test_restrict_to_excludes(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert find_island(g, 0, 2, restrict_to=[0, 1]) is None
        assert find_island(g, 0, 4, restrict_to=[0, 1, 2, 3]) is not None

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_restrict_to_rejects_out_of_range(self, bad):
        # -1 used to wrap around to vertex 5 and end in an AssertionError
        # blaming the search; 6 raised IndexError
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(ValueError, match="outside"):
            find_island(g, 2, 1, restrict_to=[bad])

    def test_rejects_bad_parameters(self):
        g = Graph(1, [])
        with pytest.raises(ValueError):
            find_island(g, -1, 1)
        with pytest.raises(ValueError):
            find_island(g, 1, 0)

    def test_none_when_graph_too_tight(self):
        # K7 minus nothing: every vertex has degree 6; 4-islands need 3
        # vertices, giving each at least 4 outside: exactly at the limit
        k7 = Graph(7, list(combinations(range(7), 2)))
        w = find_island(k7, 4, 3)
        assert w is not None and len(w.members) == 3
        assert find_island(k7, 3, 3) is None
