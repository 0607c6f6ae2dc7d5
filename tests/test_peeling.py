import random
from dataclasses import replace
from itertools import combinations

import pytest

from archipelago import peeling
from archipelago.certify import audit
from archipelago.generators import hex_patch, hex_torus, quadrangulation, triangulated_torus, triangulation
from archipelago.graphs import Graph, LiveView, trace_faces
from archipelago.islands import REGIME_A, REGIME_B, REGIME_C, find_island
from archipelago.peeling import (
    PeelDecomposition,
    TheoremViolation,
    color,
    extend_coloring,
    peel,
)
from oracles import peel as oracle_peel, replay_ok as oracle_replay_ok


def disjoint_k9s(count: int) -> Graph:
    return Graph(9 * count, [(9 * i + u, 9 * i + v) for i in range(count) for u, v in combinations(range(9), 2)])


@pytest.fixture
def live_reads(monkeypatch):
    """A counter of the degree and neighbor reads peel makes of its live view."""
    count = [0]

    class CountingView(LiveView):
        def degree(self, v):
            count[0] += 1
            return LiveView.degree(self, v)

        def neighbors(self, v):
            count[0] += 1
            return LiveView.neighbors(self, v)

    monkeypatch.setattr(peeling, "LiveView", CountingView)
    return count


class TestPeel:
    def test_path_cascades(self):
        g = Graph(5, [(i, i + 1) for i in range(4)])
        dec = peel(g, REGIME_C, chi=2)
        assert dec.base == ()
        assert all(len(layer) == 1 for layer in dec.layers)
        assert dec.replay_ok()

    def test_triangulation_regime_a(self):
        emb = triangulation(60, seed=4)
        dec = peel(emb.graph, REGIME_A, chi=2)
        assert dec.threshold == 0
        assert dec.base == ()
        assert all(1 <= len(layer) <= 3 for layer in dec.layers)
        assert sum(len(layer) for layer in dec.layers) == 60
        assert dec.replay_ok()

    def test_triangulated_torus_regime_a(self):
        emb = triangulated_torus(4, 4)
        dec = peel(emb.graph, REGIME_A, chi=0)
        assert dec.base == ()
        assert dec.replay_ok()

    def test_quadrangulation_regime_b(self):
        emb = quadrangulation(120, seed=8)
        dec = peel(emb.graph, REGIME_B, chi=2)
        assert dec.base == ()
        assert all(len(layer) <= 10 for layer in dec.layers)
        assert dec.replay_ok()

    def test_hex_torus_regime_c(self):
        emb = hex_torus(3, 4)
        dec = peel(emb.graph, REGIME_C, chi=0)
        assert dec.base == ()
        assert all(len(layer) <= 16 for layer in dec.layers)
        assert dec.replay_ok()

    def test_hex_patch_regime_c(self):
        emb = hex_patch(4, 4, deletions=5, seed=2)
        dec = peel(emb.graph, REGIME_C, chi=2)
        assert dec.base == ()
        assert dec.replay_ok()

    def test_regime_b_rejects_triangles(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            peel(g, REGIME_B, chi=2)

    def test_regime_c_rejects_short_girth(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            peel(g, REGIME_C, chi=2)

    def test_violation_on_dishonest_characteristic(self):
        # K9 has no 4-island of at most 3 vertices; claiming the sphere
        # forces an island above threshold 0
        k9 = Graph(9, list(combinations(range(9), 2)))
        with pytest.raises(TheoremViolation) as info:
            peel(k9, REGIME_A, chi=2)
        exc = info.value
        assert exc.threshold == 0
        assert len(exc.residual) == 9
        assert "no 4-island" in str(exc)

    def test_base_absorbs_below_threshold(self):
        k9 = Graph(9, list(combinations(range(9), 2)))
        dec = peel(k9, REGIME_A, chi=-1)
        assert dec.threshold == 72
        assert dec.layers == ()
        assert dec.base == tuple(range(9))
        assert dec.replay_ok()

    def test_whole_base_bounds_violation(self):
        # each K9 fits under threshold 72 at chi -1, but the 81-vertex base
        # does not: the guarantee bounds the whole base
        with pytest.raises(TheoremViolation) as info:
            peel(disjoint_k9s(9), REGIME_A, chi=-1)
        exc = info.value
        assert exc.threshold == 72
        assert exc.residual == tuple(range(81))
        assert "base of 81 vertices exceeds threshold 72" in str(exc)
        # the oracle bounds each component and keeps all 81 as its base
        assert len(oracle_peel(disjoint_k9s(9), REGIME_A, chi=-1).base) == 81
        dec = peel(disjoint_k9s(8), REGIME_A, chi=-1)
        assert len(dec.base) == 72 and dec.replay_ok()

    def test_disconnected_mixed(self):
        k9 = list(combinations(range(9), 2))
        cycle = [(9 + i, 9 + (i + 1) % 5) for i in range(5)]
        g = Graph(14, k9 + cycle)
        dec = peel(g, REGIME_A, chi=-1)
        assert set(dec.base) == set(range(9))
        assert sorted(v for layer in dec.layers for v in layer) == list(range(9, 14))
        assert dec.replay_ok()

    def test_deterministic(self):
        emb = triangulation(40, seed=13)
        d1 = peel(emb.graph, REGIME_A, chi=2)
        d2 = peel(emb.graph, REGIME_A, chi=2)
        assert d1.layers == d2.layers and d1.base == d2.base


class TestReplay:
    def _path(self):
        return peel(Graph(5, [(i, i + 1) for i in range(4)]), REGIME_C, chi=2)

    def test_vertex_repeated_across_layers_is_rejected(self):
        dec = self._path()
        layers = list(dec.layers)
        layers[1] = layers[1] + (layers[0][0],)
        assert not replace(dec, layers=tuple(layers)).replay_ok()

    def test_vertex_repeated_within_a_layer_is_rejected(self):
        # the members form a set, so only the count shows the repeat
        dec = peel(triangulation(30, 1).graph, REGIME_A, 2)
        assert dec.layers[0] == (7,) and dec.replay_ok()
        assert not replace(dec, layers=((7, 7),) + dec.layers[1:]).replay_ok()

    def test_out_of_range_vertex_is_rejected(self):
        dec = self._path()
        for bad in (dec.graph.n, -1):
            layers = (dec.layers[0] + (bad,),) + dec.layers[1:]
            assert not replace(dec, layers=layers).replay_ok()

    def test_empty_or_oversized_layer_is_rejected(self):
        dec = self._path()
        assert not replace(dec, layers=((),) + dec.layers).replay_ok()
        whole = replace(dec, layers=(tuple(range(5)),))
        assert not replace(whole, regime=REGIME_A).replay_ok()  # 5 > size 3
        assert whole.replay_ok()

    def test_base_must_be_the_live_vertices_in_small_components(self):
        dec = self._path()
        assert not replace(dec, layers=dec.layers[1:]).replay_ok()
        dissolved = replace(dec, layers=dec.layers[:-2], base=tuple(sorted(dec.layers[-2] + dec.layers[-1])))
        assert not dissolved.replay_ok()  # an edge of two base vertices over threshold 0
        # at chi -1 the threshold is the factor: a 2-vertex component passes
        # at threshold 2 and fails at 1
        assert replace(dissolved, regime=replace(REGIME_C, factor=2), chi=-1).replay_ok()
        assert not replace(dissolved, regime=replace(REGIME_C, factor=1), chi=-1).replay_ok()
        # every layer replays and the base's components are small, but the
        # base omits a live vertex, or lists a removed one
        assert not replace(dec, layers=dec.layers[:-1]).replay_ok()
        assert replace(dec, chi=-1).replay_ok()
        assert not replace(dec, chi=-1, base=dec.layers[0]).replay_ok()

    def test_base_is_bounded_as_a_whole(self):
        # peeled at chi -2 (threshold 144), the 81-vertex base replays; moved
        # to chi -1 (threshold 72), every 9-vertex component still fits but
        # the base does not. The oracle bounds each component and accepts it.
        dec = peel(disjoint_k9s(9), REGIME_A, chi=-2)
        assert dec.layers == () and len(dec.base) == 81 and dec.replay_ok()
        mutated = replace(dec, chi=-1)
        assert mutated.threshold == 72
        assert not mutated.replay_ok()
        assert oracle_replay_ok(mutated)

    def test_threshold_follows_chi(self):
        # a stored threshold of 10**9 once let an unpeeled triangulation pass
        dec = peel(triangulation(60, seed=1).graph, REGIME_A, 2)
        with pytest.raises(TypeError):
            replace(dec, threshold=10**9)
        assert not replace(dec, layers=(), base=tuple(range(60))).replay_ok()
        assert replace(dec, layers=(), base=tuple(range(60)), chi=-1).replay_ok()
        assert replace(dec, chi=-1).threshold == REGIME_A.threshold(-1) == 72

    def test_scale_guard_4000_vertex_triangulation(self, live_reads):
        # the cascade removes every vertex and reads nothing of the live view;
        # finding each island by a whole-graph scan instead read it 2.6
        # million times here
        emb = triangulation(4000, seed=5)
        assert len(trace_faces(emb)) == 2 * 4000 - 4
        dec = peel(emb.graph, REGIME_A, chi=2)
        assert dec.replay_ok()
        assert live_reads[0] <= 10 * emb.graph.n


    def test_scale_guard_3200_vertex_hex_torus(self, live_reads):
        # regime C leaves the cascade with no vertex to remove, so every
        # island comes from a scan; the local scans read the live view about
        # 23,000 times, and re-scanning whole components per island 2.4 million
        g = hex_torus(40, 40).graph
        dec = peel(g, REGIME_C, chi=0)
        assert live_reads[0] <= 10 * g.n
        assert g.n == 3200 and dec.base == ()
        assert dec.replay_ok()


class TestColorFromLists:
    def test_quadrangulation_lists(self):
        emb = quadrangulation(150, seed=21)
        g = emb.graph
        dec = peel(g, REGIME_B, chi=2)
        rng = random.Random(99)
        lists = {v: rng.sample(range(8), 3) for v in range(g.n)}
        coloring = extend_coloring(dec, lists)
        report = audit(g, coloring, max_size=10, lists=lists)
        assert report.ok
        assert coloring.keys() == set(range(g.n))
        assert all(coloring[v] in lists[v] for v in range(g.n))
        assert report.max_component <= 10

    def test_hex_torus_two_lists(self):
        emb = hex_torus(4, 4)
        g = emb.graph
        dec = peel(g, REGIME_C, chi=0)
        rng = random.Random(5)
        lists = {v: rng.sample(range(5), 2) for v in range(g.n)}
        coloring = extend_coloring(dec, lists)
        report = audit(g, coloring, max_size=16, lists=lists)
        assert report.ok

    def test_identical_lists(self):
        emb = triangulation(50, seed=1)
        dec = peel(emb.graph, REGIME_A, chi=2)
        lists = {v: [0, 1, 2, 3, 4] for v in range(50)}
        coloring = extend_coloring(dec, lists)
        assert audit(emb.graph, coloring, max_size=3, lists=lists).ok

    def test_rejects_short_lists(self):
        emb = triangulation(10, seed=0)
        dec = peel(emb.graph, REGIME_A, chi=2)
        lists = {v: [0, 1, 2, 3] for v in range(10)}
        with pytest.raises(ValueError, match="list of vertex 0 has fewer than 5 distinct colors"):
            extend_coloring(dec, lists)
        lists = {v: [0, 1, 2, 3, 3] if v == 7 else [0, 1, 2, 3, 4] for v in range(10)}
        with pytest.raises(ValueError, match="list of vertex 7 has fewer than 5 distinct colors"):
            extend_coloring(dec, lists)

    def test_rejects_missing_list(self):
        emb = triangulation(6, seed=0)
        dec = peel(emb.graph, REGIME_A, chi=2)
        lists = {v: [0, 1, 2, 3, 4] for v in range(5)}
        with pytest.raises(ValueError, match="no color list for vertex 5"):
            extend_coloring(dec, lists)

    @pytest.mark.parametrize("missing, short, first", [
        (2, 4, "no color list for vertex 2"),
        (4, 2, "list of vertex 2 has fewer than 5 distinct colors"),
    ])
    def test_first_faulty_list_is_named(self, missing, short, first):
        dec = peel(triangulation(6, seed=0).graph, REGIME_A, chi=2)
        lists = {v: [0, 1, 2, 3, 4] for v in range(6) if v != missing}
        lists[short] = [0, 1, 2, 3]
        with pytest.raises(ValueError, match=first):
            extend_coloring(dec, lists)

    def test_broken_layer_runs_out_of_colors(self):
        # the star's center goes first with five live neighbors, so no island;
        # colored last, it finds all five of its colors on its leaves
        g = Graph(6, [(0, v) for v in range(1, 6)])
        dec = PeelDecomposition(g, REGIME_A, 2, tuple((v,) for v in range(6)), ())
        assert not dec.replay_ok()
        lists = {0: [1, 2, 3, 4, 5], **{v: [v, 6, 7, 8, 9] for v in range(1, 6)}}
        with pytest.raises(AssertionError, match="vertex 0 ran out of colors; broken layer"):
            extend_coloring(dec, lists)


def fallback_graph() -> Graph:
    """A girth-6 graph on which a planar size of 5 falls back once, at once.

    A hexagon 0..5 with one spoke each into a 6x6 hex torus (ids 6..) with
    three edges cut: minimum degree 3 and girth 6, so a planar size of 5
    fails at once and the hexagon goes first. Then the spoke ends 7 and 17
    bound the 3-vertex island 7, 6, 17, while the end of vertex 5's spoke,
    scanned first, is 5 steps from any other end.
    """
    torus = hex_torus(6, 6).graph
    cut = {(1, 2), (10, 11), (17, 28)}
    edges = [(u + 6, v + 6) for u, v in torus.edges() if (u, v) not in cut]
    edges += [(i, (i + 1) % 6) for i in range(6)]
    edges += zip(range(6), (7, 16, 17, 8, 23, 34))
    return Graph(6 + torus.n, edges)


class TestFootnoteTwelve:
    def test_tighter_bound_on_bridgeless_patches(self):
        # hexagonal patches without deletions have no bridges, so the
        # stronger 12-vertex island guarantee applies
        for seed in range(3):
            emb = hex_patch(5, 5, deletions=0, seed=seed)
            g = emb.graph
            dec = peel(g, REGIME_C, chi=2, footnote_12=True)
            assert dec.planar and dec.bound == 12
            assert all(len(layer) <= 12 for layer in dec.layers)
            assert not dec.base
            assert dec.replay_ok()
            lists = {v: [0, 1] for v in range(g.n)}
            coloring = extend_coloring(dec, lists)
            assert audit(g, coloring, max_size=12, lists=lists).ok

    def test_falls_back_per_island_with_one_warning(self):
        g = fallback_graph()
        row = replace(REGIME_C, planar_size=5)
        dec = peel(g, row, chi=0, footnote_12=True)
        assert not dec.planar and dec.size == 16
        assert dec.layers[0] == tuple(range(6))
        assert dec.base == () and dec.replay_ok()
        # the cap holds again wherever a 5-island is left
        alive = [True] * g.n
        for layer in dec.layers:
            if len(layer) > 5:
                live, _ = g.induced([v for v in range(g.n) if alive[v]])
                assert find_island(live, 1, 5) is None
            for v in layer:
                alive[v] = False

    def test_replay_holds_a_planar_decomposition_to_12(self):
        # a 13-vertex path is one island with no outside neighbors
        g = Graph(13, [(i, i + 1) for i in range(12)])
        dec = PeelDecomposition(graph=g, regime=REGIME_C, chi=2, layers=(tuple(range(13)),), base=())
        assert dec.replay_ok()
        assert not replace(dec, planar=True).replay_ok()

    def test_only_regime_c(self):
        emb = triangulation(20, seed=4)
        with pytest.raises(ValueError):
            peel(emb.graph, REGIME_A, chi=2, footnote_12=True)


class TestColorFourPlusSink:
    def test_sphere(self):
        emb = triangulation(90, seed=3)
        dec = peel(emb.graph, REGIME_A, chi=2)
        coloring, _, fault = color(dec)
        assert fault is None
        assert set(coloring.values()) <= {1, 2, 3, 4, 5}
        report = audit(emb.graph, coloring)
        for c, size in report.component_sizes.items():
            if c in (1, 2, 3, 4):
                assert size <= 3
            else:
                assert size <= max(3, dec.threshold)

    def test_torus(self):
        emb = triangulated_torus(5, 5)
        coloring, _, fault = color(peel(emb.graph, REGIME_A, chi=0))
        report = audit(emb.graph, coloring, max_size=3)
        assert fault is None and report.ok  # threshold 0: every component small

    def test_icosahedron(self):
        from test_graphs import icosahedron_embedding

        g = icosahedron_embedding().graph
        coloring, _, _ = color(peel(g, REGIME_A, chi=2))
        assert audit(g, coloring, max_size=3).ok

    def test_needs_regime_a(self):
        dec = peel(quadrangulation(20, seed=1).graph, REGIME_B, chi=2)
        with pytest.raises(ValueError, match="regime A"):
            color(dec)


class TestAudit:
    def test_components(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        report = audit(g, {0: 0, 1: 0, 2: 1, 3: 0})
        assert report.max_component == 2
        assert report.component_sizes == {0: 2, 1: 1}
        assert report.oversized_components == ()
        report = audit(g, {0: 0, 1: 0, 2: 1, 3: 0}, max_size=1)
        assert report.oversized_components == ((0, 1),) and not report.ok

    def test_uncolored_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="vertex 1 is uncolored"):
            audit(g, {0: 1})

    @pytest.mark.parametrize("uncolored, unlisted, first", [
        (1, 3, "vertex 1 is uncolored"),
        (3, 1, "no color list for vertex 1"),
        (2, 2, "vertex 2 is uncolored"),
    ])
    def test_first_faulty_vertex_is_named(self, uncolored, unlisted, first):
        g = Graph(5, [(v, v + 1) for v in range(4)])
        coloring = {v: v % 2 for v in range(5) if v != uncolored}
        lists = {v: [0, 1] for v in range(5) if v != unlisted}
        with pytest.raises(ValueError, match=first):
            audit(g, coloring, lists=lists)

    def test_list_violations(self):
        g = Graph(2, [(0, 1)])
        report = audit(g, {0: 7, 1: 1}, lists={0: [1, 2], 1: [1, 2]})
        assert report.list_violations == ((0, 7),)
        assert not report.ok

    def test_oversized(self):
        g = Graph(3, [(0, 1), (1, 2)])
        report = audit(g, {0: 4, 1: 4, 2: 4}, max_size=2)
        assert report.oversized_components == ((0, 1, 2),)
        assert not report.ok
