"""Gadget constructions, their terminal-forcing properties, and the reductions."""

import hashlib
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from archipelago import gadgets, graphs
from archipelago.certify import audit
from archipelago.gadgets import (
    CountingCheck,
    GadgetGraph,
    _uncrosser_size,
    build_equalizer,
    build_J,
    build_N,
    build_tree,
    build_uncrosser,
    counting_check_J,
    forward_coloring_girth8,
    hyper2color,
    reduce_girth8,
    reduce_planar,
    tree_leaf,
    validate_uncrosser,
)
from archipelago.generators import hypergraph3
from archipelago.graphs import (
    Embedding,
    Graph,
    Hypergraph3,
    bipartition,
    euler_characteristic,
    girth,
    parse_hypergraph,
    serialize_embedding,
    serialize_graph,
    serialize_hypergraph,
)
from archipelago.solver import mc_decide
import oracles
from oracles import degeneracy_order, distance

FANO = Hypergraph3.from_edges(
    7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
)


class TestHypergraphType:
    def test_roundtrip(self):
        h = Hypergraph3.from_edges(5, [(2, 0, 1), (2, 3, 4)])
        assert h.edges == ((0, 1, 2), (2, 3, 4))
        assert parse_hypergraph(serialize_hypergraph(h)) == h

    def test_parse_comments_and_errors(self):
        h = parse_hypergraph("# example\n4 1\n3 1 0\n")
        assert h.edges == ((0, 1, 3),)
        with pytest.raises(ValueError):
            parse_hypergraph("4 2\n0 1 2\n")
        with pytest.raises(ValueError):
            parse_hypergraph("4\n")
        with pytest.raises(ValueError):
            parse_hypergraph("")

    def test_validation(self):
        with pytest.raises(ValueError):
            Hypergraph3(4, ((0, 1, 1),))
        with pytest.raises(ValueError):
            Hypergraph3(3, ((0, 1, 3),))
        with pytest.raises(ValueError):
            Hypergraph3(4, ((2, 1, 0),))

    def test_gadget_graph_validation(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            GadgetGraph(g, {"y": 5})


class TestCouplerTrees:
    def test_tree_shape(self):
        t = build_tree(2)
        assert t.graph.n == 1 + 10 + 100 + 1000
        assert t.graph.m == t.graph.n - 1
        assert t.terminals == {"x": 0}
        assert t.graph.degree(0) == 10
        assert girth(t.graph) == float("inf")

    def test_leaf_labels(self):
        leaf_base = 1 + 10 + 100
        assert tree_leaf(2, 1, 1, 1) == leaf_base
        assert tree_leaf(2, 10, 10, 10) == build_tree(2).graph.n - 1
        assert tree_leaf(2, 1, 1, 2) == leaf_base + 1
        assert tree_leaf(2, 2, 1, 1) == leaf_base + 100
        with pytest.raises(ValueError):
            tree_leaf(2, 0, 1, 1)
        with pytest.raises(ValueError):
            tree_leaf(2, 1, 11, 1)

    def test_too_small(self):
        for build in (build_tree, build_J, build_N, build_equalizer, build_uncrosser):
            with pytest.raises(ValueError):
                build(1)

    def test_coupler_size_formula(self):
        for t in (2, 3, 4):
            b = 5 * t
            expected = 2 * (1 + b + b * b) + b**3
            assert build_J(t).graph.n == gadgets._coupler_size(t) == expected

    def test_coupler_invariants(self):
        j = build_J(2)
        g = j.graph
        y, z = j.terminals["y"], j.terminals["z"]
        assert bipartition(g) is not None
        assert degeneracy_order(g)[0] == 2
        assert distance(g, y, z) == 6
        assert girth(g) == 8

    def test_leaves_glued_by_reversed_label(self):
        j = build_J(2)
        z = j.terminals["z"]
        for m1, m2, m3 in ((1, 1, 1), (3, 7, 2), (10, 10, 10), (5, 1, 9)):
            znode = z + 1 + 10 + (m1 - 1) * 10 + (m2 - 1)
            assert j.graph.has_edge(znode, tree_leaf(2, m3, m2, m1))

    def test_counting_check(self):
        c = counting_check_J(2)
        assert c == CountingCheck(2, 729, Fraction(500), True)
        c3 = counting_check_J(3)
        assert c3.lhs == 2197 and c3.rhs == Fraction(3375, 2) and c3.holds
        assert all(counting_check_J(t).holds for t in range(2, 1001))
        with pytest.raises(ValueError):
            counting_check_J(1)


class TestLinks:
    def test_distinct_link_shape(self):
        n = build_N(2)
        assert n.graph.n == 3 * 2**4 + 2
        assert n.graph.degree(n.terminals["y"]) == 24
        assert n.graph.degree(n.terminals["z"]) == 24
        assert bipartition(n.graph) is not None
        n3 = build_N(3)
        assert n3.graph.n == 3 * 3**4 + 2
        assert n3.graph.degree(n3.terminals["y"]) == 243 // 2
        assert n3.graph.degree(n3.terminals["z"]) == 243 // 2 + 1

    def test_distinct_link_forces_inequality(self):
        n = build_N(2)
        y, z = n.terminals["y"], n.terminals["z"]
        assert mc_decide(n.graph, 2, pins={y: 0, z: 0}).verdict == "no"
        assert mc_decide(n.graph, 2, pins={y: 0, z: 1}).verdict == "yes"

    def test_equalizer_shape(self):
        eq = build_equalizer(2)
        assert eq.graph.n == 5
        assert girth(eq.graph) == 4
        assert build_equalizer(3).graph.n == 2 + 2 * 3 * 2 - 1

    def test_equalizer_forces_equality_exhaustively(self):
        eq = build_equalizer(2)
        g, y, z = eq.graph, eq.terminals["y"], eq.terminals["z"]
        for bits in range(1 << g.n):
            coloring = {v: (bits >> v) & 1 for v in range(g.n)}
            report = audit(g, coloring, max_size=2)
            if report.ok:
                assert coloring[y] == coloring[z]
        assert mc_decide(g, 2, pins={y: 0, z: 1}).verdict == "no"
        assert mc_decide(g, 2, pins={y: 0, z: 0}).verdict == "yes"


def left_hand_faces(emb):
    """Face walks that leave each vertex by the clockwise successor of the
    arrival: each keeps its face on the left, so the outer face runs
    clockwise around the drawing."""
    walks, done = [], set()
    for start in range(emb.graph.n):
        for nxt in emb.rotations[start]:
            walk, u, v = [], start, nxt
            while (u, v) not in done:
                done.add((u, v))
                walk.append(u)
                rot = emb.rotations[v]
                u, v = v, rot[(rot.index(u) + 1) % len(rot)]
            if walk:
                walks.append(walk)
    return walks


class TestUncrosser:
    def test_structure(self):
        u = build_uncrosser(2)
        assert set(u.terminals) == {"x_N", "x_S", "x_W", "x_E", "x_C", "y_1", "y_2"}
        # 7 terminals, one pendant per y_i, three 50-vertex distinct-links
        # and three equalizers contributing internals only
        assert u.graph.n == 7 + 2 + 3 * 48 + 3 * 3
        assert euler_characteristic(u.embedding) == 2
        # x_C meets each y_i directly
        for name in ("y_1", "y_2"):
            assert u.graph.has_edge(u.terminals["x_C"], u.terminals[name])

    def test_validates(self):
        u = build_uncrosser(2)
        report = validate_uncrosser(u, 2)
        assert report.ok and report.verdict == "pass"
        assert report.counterexample is None
        t = u.terminals
        same, diff = report.same_witness, report.distinct_witness
        assert same[t["x_N"]] == same[t["x_W"]] == 0
        assert diff[t["x_N"]] == 0 and diff[t["x_W"]] == 1
        assert audit(u.graph, same, max_size=2).ok
        assert audit(u.graph, diff, max_size=2).ok

    def test_mutation_is_caught(self):
        u = build_uncrosser(2)
        x_s = u.terminals["x_S"]
        cut = Graph(u.graph.n, [e for e in u.graph.edges() if x_s not in e])
        report = validate_uncrosser(GadgetGraph(cut, u.terminals), 2)
        assert report.verdict == "fail"
        assert report.counterexample is not None
        assert report.counterexample[u.terminals["x_N"]] == 0
        assert report.counterexample[x_s] == 1
        assert audit(cut, report.counterexample, max_size=2).ok

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_drawing_meets_the_corners_clockwise_on_one_face(self, k):
        u = build_uncrosser(k)
        assert u.graph.n == _uncrosser_size(k)
        corners = [u.terminals[name] for name in ("x_W", "x_N", "x_E", "x_S")]
        orders = []
        for walk in left_hand_faces(u.embedding):
            seen = [v for v in walk if v in corners]
            if len(seen) == 4:
                orders.append(seen)
        assert len(orders) == 1
        start = orders[0].index(corners[0])
        assert orders[0][start:] + orders[0][:start] == corners

    def test_zero_budget_inconclusive(self):
        u = build_uncrosser(2)
        assert validate_uncrosser(u, 2, budget=0).verdict == "inconclusive"

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="budget must be nonnegative, not -3"):
            validate_uncrosser(build_uncrosser(2), 2, budget=-3)


# sha256 of serialize_embedding: any change to a block's key, or to the
# order in which edges are drawn, shows as a changed digest
DRAWING_DIGESTS = {
    (build_N, 2): "87d3d9c70ae43c2e848c3b5570b8f1c71ecb03436c46b2be94637150229aa66f",
    (build_N, 3): "4bf3258b614f2199b91d94f2874919eb1768938a55ecbfacafb1e78f4efce456",
    (build_N, 4): "884fe8d930f8bde7ecbd6a3409ec981e8b9f0e34a4c6ccc6033d1976f906d7be",
    (build_equalizer, 2): "eb41adf84b65ffbad6a709430625282a9fc0ad42e32857545c8671050c80cde1",
    (build_equalizer, 3): "8711f5bd89356aea55b6be9877995e2ffb73e1443b6df8a788257eb171da96a4",
    (build_equalizer, 4): "bbb499cebfdecb46fbd331e265a5319b3a4189ebf19d31321d441841347a1a65",
    (build_uncrosser, 2): "b406dfd9b9c68d36561108bbd3aa66c6cb8d4591c272bb64e6f603108a970dcf",
    (build_uncrosser, 3): "3e78809ef9c199206320933c55a05d127168d68c47181fceeacac3d1a98a8c8d",
}


class TestDrawings:
    @pytest.mark.parametrize("build,k", list(DRAWING_DIGESTS))
    def test_gadget_drawing_is_pinned(self, build, k):
        text = serialize_embedding(build(k).embedding)
        assert hashlib.sha256(text.encode()).hexdigest() == DRAWING_DIGESTS[build, k]

    def test_planar_reduction_drawing_is_pinned(self):
        text = serialize_embedding(reduce_planar(hypergraph3(6, 3, 7), 2).embedding)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a2c3a43fb2a3a4a8a09d79f718a890e77be094a18446311fa148fa8e6a0493dc")


def graph_digest(g: GadgetGraph) -> str:
    """sha256 of serialize_graph and the terminals' repr, which keeps their order."""
    return hashlib.sha256((serialize_graph(g.graph) + repr(g.terminals)).encode()).hexdigest()


# the couplers' ids, edges and terminals as the hand-numbered builders made them
GRAPH_DIGESTS = {
    (build_tree, 2): "0621518fa927224094fbcd3d0299d7b99a299aead7490554021fe19dcd0fdbff",
    (build_tree, 3): "fb9fbfc816cd440dd88a77ba815ac06f8cf71ebc7473dee46972fb0dd0498f69",
    (build_J, 2): "53d911725e1a7cc16faec5edcf5b779cb6d2413259dca65999484b91e06da7b5",
    (build_J, 3): "585682fa386f44fe7ae2328d4d23c27be1157851f0907de844ba0d53c21f421d",
}


class TestCouplerDigests:
    @pytest.mark.parametrize("build,t", list(GRAPH_DIGESTS))
    def test_coupler_is_pinned(self, build, t):
        assert graph_digest(build(t)) == GRAPH_DIGESTS[build, t]

    def test_girth8_reduction_is_pinned(self):
        assert graph_digest(reduce_girth8(hypergraph3(6, 3, 7), 2)) == (
            "572d8a2e9c03d023ae63ca8f56fa618ae7c87473d9972a8459a27a8567aeb5b5")

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_couplers_match_oracles(self, t):
        for build, old in ((build_tree, oracles.build_tree), (build_J, oracles.build_J)):
            got, want = build(t), old(t)
            assert got.graph == want.graph
            assert list(got.terminals.items()) == list(want.terminals.items())


class TestGirth8Reduction:
    def test_one_hyperedge_shape(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        g = reduce_girth8(h, 2)
        assert g.graph.n == 3 + 3 + 3 * (1222 - 2)
        for v in range(3):
            assert g.terminals[f"v{v}"] == v
        assert girth(g.graph) == 8
        assert degeneracy_order(g.graph)[0] == 2

    def test_path_attachment(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        g = reduce_girth8(h, 2)
        # path vertex j couples to hyperedge vertex j mod 3, j counted from 1
        for j, target in ((1, 1), (2, 2), (3, 0)):
            ej = g.terminals[f"e0_{j}"]
            assert distance(g.graph, ej, target) == 6
        assert g.graph.has_edge(g.terminals["e0_1"], g.terminals["e0_2"])
        assert g.graph.has_edge(g.terminals["e0_2"], g.terminals["e0_3"])

    def test_forward_coloring(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        g = reduce_girth8(h, 2)
        coloring = forward_coloring_girth8(h, {0: 0, 1: 0, 2: 1}, g, 2)
        report = audit(g.graph, coloring, max_size=2)
        assert report.ok and report.max_component <= 2
        assert coloring[0] == 0 and coloring[2] == 1

    def test_forward_coloring_shared_vertices(self):
        h = Hypergraph3.from_edges(4, [(0, 1, 2), (1, 2, 3)])
        g = reduce_girth8(h, 2)
        hcol = hyper2color(h)
        coloring = forward_coloring_girth8(h, hcol, g, 2)
        assert audit(g.graph, coloring, max_size=2).ok

    def test_forward_coloring_rejects_bad_inputs(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        g = reduce_girth8(h, 2)
        with pytest.raises(ValueError):
            forward_coloring_girth8(h, {0: 1, 1: 1, 2: 1}, g, 2)
        with pytest.raises(ValueError):
            forward_coloring_girth8(h, {0: 0, 1: 0, 2: 1}, reduce_girth8(h, 3), 2)

    def test_forward_coloring_audits_an_oversized_component(self):
        # at k = 3 the path e0_1 .. e0_4 takes the colors of primitives 1, 2, 0, 1:
        # 0, 1, 0, 0; an added edge from e0_1 to e0_3 merges {e0_1} and {e0_3, e0_4}
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        hcol = {0: 0, 1: 0, 2: 1}
        g = reduce_girth8(h, 3)
        e = [g.terminals[f"e0_{j}"] for j in range(1, 5)]
        assert [forward_coloring_girth8(h, hcol, g, 3)[v] for v in e] == [0, 1, 0, 0]
        corrupted = GadgetGraph(Graph(g.graph.n, [*g.graph.edges(), (e[0], e[2])]), g.terminals)
        with pytest.raises(AssertionError, match="forward coloring produced an oversized component"):
            forward_coloring_girth8(h, hcol, corrupted, 3)

    def test_k_validation(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            reduce_girth8(h, 1)
        with pytest.raises(ValueError):
            reduce_planar(h, 1)


class TestPlanarReduction:
    def test_rejects_uncovered_vertex(self):
        h = Hypergraph3.from_edges(4, [(0, 1, 2)])
        with pytest.raises(ValueError, match="isolated"):
            reduce_planar(h, 2)

    def test_rejects_split_hypergraph(self):
        h = Hypergraph3.from_edges(6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(ValueError, match="connected"):
            reduce_planar(h, 2)

    def test_one_hyperedge_crossing_free(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        g = reduce_planar(h, 2)
        # first-use primitive order nests the three connectors: no crossings,
        # so only three direct equalizers beyond primitives and the path
        assert g.graph.n == 3 + 3 + 3 * 3
        assert euler_characteristic(g.embedding) == 2
        assert girth(g.graph) >= 4
        assert degeneracy_order(g.graph)[0] == 2

    def test_small_instance_decides_colorability(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        g = reduce_planar(h, 2)
        assert mc_decide(g.graph, 2, pins={0: 0, 1: 0, 2: 0}).verdict == "no"
        assert mc_decide(g.graph, 2, pins={0: 0, 1: 0, 2: 1}).verdict == "yes"
        assert mc_decide(g.graph, 2).verdict == "yes"

    def test_two_hyperedges_use_uncrossers(self):
        h = Hypergraph3.from_edges(4, [(0, 1, 2), (1, 2, 3)])
        g = reduce_planar(h, 2)
        # 5 crossings under the fixed layout: 4 primitives, 6 path vertices,
        # five 162-vertex uncrossers, and 16 equalizer copies along the chains
        assert g.graph.n == 4 + 6 + 5 * 162 + 16 * 3
        assert euler_characteristic(g.embedding) == 2
        assert girth(g.graph) >= 4
        assert degeneracy_order(g.graph)[0] == 2
        for v in range(4):
            assert g.terminals[f"v{v}"] == v

    def test_reversed_primitive_is_rejected(self):
        g = reduce_planar(Hypergraph3.from_edges(5, [(0, 1, 3), (2, 3, 4)]), 2)
        rotations = list(g.embedding.rotations)
        rotations[3] = rotations[3][::-1]  # primitive 3 ends two connectors
        with pytest.raises(ValueError, match="must be spherical"):
            GadgetGraph(g.graph, g.terminals, Embedding(g.graph, rotations))

    @pytest.mark.parametrize("copy", range(5))
    def test_one_mirrored_uncrosser_is_rejected(self, monkeypatch, copy):
        # five crossings, each uncrosser's arms held in order by the rest
        h = Hypergraph3.from_edges(4, [(0, 1, 2), (1, 2, 3)])
        u = build_uncrosser(2)
        mirror = GadgetGraph(u.graph, u.terminals,
                             Embedding(u.graph, [rot[::-1] for rot in u.embedding.rotations]))
        splice = gadgets._Assembler.splice
        copies = []

        def splice_one_mirrored(asm, gadget, identify, keys=None):
            if gadget.graph == u.graph:
                copies.append(gadget)
                if len(copies) == copy + 1:
                    gadget = mirror
            return splice(asm, gadget, identify, keys)

        monkeypatch.setattr(gadgets._Assembler, "splice", splice_one_mirrored)
        with pytest.raises(ValueError, match="must be spherical"):
            reduce_planar(h, 2)
        assert len(copies) == 5

    def test_runs_without_networkx(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        g = reduce_planar(Hypergraph3.from_edges(4, [(0, 1, 2), (1, 2, 3)]), 2)
        assert euler_characteristic(g.embedding) == 2
        assert euler_characteristic(build_uncrosser(2).embedding) == 2


    def test_long_chain_reduces_quickly(self):
        # 300 hyperedges (2i, 2i+1, 2i+2): 900 connectors, 599 crossings
        # and 104,833 vertices. The layout reads each connector's slot once;
        # comparing every pair of connectors, as the straight-line oracle
        # does, reads 405,151 slots
        class Slots(dict):
            reads = 0

            def __getitem__(self, key):
                self.reads += 1
                return super().__getitem__(key)

        h = Hypergraph3.from_edges(601, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(300)])
        targets = [triple[j % 3] for triple in h.edges for j in range(1, 4)]
        slots = Slots({u: i for i, u in enumerate(dict.fromkeys(targets))})
        crossings = gadgets._layout_crossings(targets, slots)
        assert slots.reads <= 2 * len(targets)
        assert sum(map(len, crossings)) == 2 * gadgets._count_crossings([slots[u] for u in targets], h.n) == 2 * 599
        assert reduce_planar(h, 2).graph.n == 104833


class TestReductionSize:
    def test_oversized_inputs_are_refused_unbuilt(self):
        # 11 couplers of 130,102 vertices
        with pytest.raises(ValueError, match="1431114 vertices"):
            reduce_girth8(Hypergraph3.from_edges(3, [(0, 1, 2)]), 10)
        # 26,531 and 175,245 crossings of 162-vertex uncrossers
        for n, m in ((60, 120), (100, 300)):
            with pytest.raises(ValueError, match="would build"):
                reduce_planar(hypergraph3(n, m, 1), 2)

    @pytest.mark.parametrize("build,h", [
        (reduce_girth8, Hypergraph3.from_edges(3, [(0, 1, 2)])),
        (reduce_planar, Hypergraph3.from_edges(4, [(0, 1, 2), (1, 2, 3)])),
    ])
    def test_limit_is_the_exact_size(self, monkeypatch, build, h):
        n = build(h, 2).graph.n
        monkeypatch.setattr(graphs, "MAX_VERTICES", n)
        assert build(h, 2).graph.n == n
        monkeypatch.setattr(graphs, "MAX_VERTICES", n - 1)
        with pytest.raises(ValueError, match=f"would build {n} vertices"):
            build(h, 2)


    @pytest.mark.parametrize("build,arg", [
        (build_tree, 2), (build_J, 2), (build_N, 2), (build_equalizer, 3), (build_uncrosser, 2),
    ])
    def test_gadget_limit_is_the_exact_size(self, monkeypatch, build, arg):
        n = build(arg).graph.n
        monkeypatch.setattr(graphs, "MAX_VERTICES", n)
        assert build(arg).graph.n == n
        monkeypatch.setattr(graphs, "MAX_VERTICES", n - 1)
        with pytest.raises(ValueError, match=f"would build {n} vertices"):
            build(arg)


class TestHypergraphOracle:
    def test_single_triple(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        coloring = hyper2color(h)
        assert coloring is not None
        assert len({coloring[v] for v in (0, 1, 2)}) == 2

    def test_complete_on_five(self):
        h = Hypergraph3.from_edges(
            5, [tuple(sorted(t)) for t in combinations(range(5), 3)]
        )
        assert hyper2color(h) is None

    def test_fano_plane(self):
        assert hyper2color(FANO) is None

    def test_fano_minus_line_colorable(self):
        h = Hypergraph3(7, FANO.edges[1:])
        coloring = hyper2color(h)
        assert coloring is not None
        for a, b, c in h.edges:
            assert len({coloring[a], coloring[b], coloring[c]}) == 2

    def test_size_cap(self):
        with pytest.raises(ValueError):
            hyper2color(Hypergraph3(31, ((0, 1, 2),)))
