import math
import random
import tracemalloc
from itertools import combinations

import pytest

from archipelago.graphs import (
    Embedding,
    Graph,
    bipartition,
    connected_components,
    euler_characteristic,
    girth,
    parity_coloring,
    parse_embedding,
    parse_graph,
    parse_hypergraph,
    parse_terminals,
    read_rows,
    reverse_walk,
    serialize_embedding,
    serialize_graph,
    trace_faces,
)
from oracles import degeneracy_order, distance


def k4_embedding():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    rotations = [[1, 2, 3], [2, 0, 3], [3, 0, 1], [1, 0, 2]]
    return Embedding(g, rotations)


def icosahedron_embedding():
    # 0 on top, ring 1..5, ring 6..10, vertex 11 at the bottom
    A = lambda i: 1 + (i % 5)
    B = lambda i: 6 + (i % 5)
    edges = []
    for i in range(5):
        edges += [(0, A(i)), (A(i), A(i + 1)), (A(i), B(i)), (A(i + 1), B(i)), (B(i), B(i + 1)), (11, B(i))]
    g = Graph(12, edges)
    rot = {0: [A(4), A(3), A(2), A(1), A(0)]}
    for i in range(5):
        rot[A(i)] = [0, A(i + 1), B(i), B(i - 1), A(i - 1)]
        rot[B(i)] = [A(i), A(i + 1), B(i + 1), 11, B(i - 1)]
    rot[11] = [B(0), B(1), B(2), B(3), B(4)]
    return Embedding(g, [rot[v] for v in range(12)])


class TestGraph:
    def test_basic(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.neighbors(1) == (0, 2)
        assert g.degree(0) == 1
        assert g.has_edge(2, 1) and not g.has_edge(0, 2)
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_loops_duplicates_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            Graph(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_induced(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        h, relabel = g.induced([0, 1, 3])
        assert h.n == 3 and h.m == 1
        assert h.has_edge(relabel[0], relabel[1])

    def test_isolated_vertices_count(self):
        g = Graph(6, [(2, 5)])
        assert g.n == 6 and g.m == 1 and g.degree(0) == 0


class TestFaceTracing:
    def test_k4_sphere(self):
        emb = k4_embedding()
        faces = emb.faces
        assert len(faces) == 4
        assert sorted(map(len, faces)) == [3, 3, 3, 3]
        assert euler_characteristic(emb) == 2

    def test_face_walks_cover_darts(self):
        # combined over walk and reverse_walk, every directed edge is
        # traversed exactly twice (once per side of the edge's band)
        emb = k4_embedding()
        count = {}
        for f in emb.faces:
            for w in (f, reverse_walk(f)):
                for i in range(len(w)):
                    d = (w[i], w[(i + 1) % len(w)])
                    count[d] = count.get(d, 0) + 1
        assert len(count) == 2 * emb.graph.m
        assert set(count.values()) == {2}

    def test_icosahedron(self):
        emb = icosahedron_embedding()
        assert all(emb.graph.degree(v) == 5 for v in range(12))
        assert emb.graph.m == 30
        faces = emb.faces
        assert len(faces) == 20
        assert all(len(f) == 3 for f in faces)
        assert euler_characteristic(emb) == 2

    def test_triangle_projective_plane(self):
        # one negative edge makes the 3-cycle orientation-reversing
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        emb = Embedding(g, [[1, 2], [0, 2], [0, 1]], signs={(0, 1): -1})
        faces = emb.faces
        assert len(faces) == 1
        assert len(faces[0]) == 6
        assert euler_characteristic(emb) == 1

    def test_cycle_sphere(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        emb = Embedding(g, [[3, 1], [0, 2], [1, 3], [2, 0]])
        assert len(emb.faces) == 2
        assert euler_characteristic(emb) == 2

    def test_single_vertex(self):
        g = Graph(1, [])
        emb = Embedding(g, [[]])
        assert euler_characteristic(emb) == 2

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        emb = Embedding(g, [[1], [0]])
        faces = emb.faces
        assert len(faces) == 1 and len(faces[0]) == 2
        assert euler_characteristic(emb) == 2

    def test_tree_single_face(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        emb = Embedding(g, [[1], [0, 2, 3], [1], [1]])
        faces = emb.faces
        assert len(faces) == 1 and len(faces[0]) == 6
        assert euler_characteristic(emb) == 2

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        emb = Embedding(g, [[1], [0], [3], [2]])
        with pytest.raises(ValueError):
            trace_faces(emb)

    def test_bad_rotation_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            Embedding(g, [[1], [0, 0], [1]])

    def test_reprs(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        emb = Embedding(g, [[1, 2], [0, 2], [0, 1]], signs={(0, 1): -1})
        assert repr(g) == "Graph(n=3, m=3)"
        assert repr(emb) == "Embedding(Graph(n=3, m=3), negative_edges=1)"

    def test_reverse_walk_is_mirror(self):
        emb = k4_embedding()
        for f in emb.faces:
            assert sorted(f) == sorted(reverse_walk(f))
            assert reverse_walk(reverse_walk(f)) == f


def brute_girth(g):
    best = math.inf
    for size in range(3, g.n + 1):
        if best < math.inf:
            break
        for verts in combinations(range(g.n), size):
            vs = set(verts)
            # count cycles of exactly this vertex set: every vertex has 2
            # neighbors inside and the set is connected
            if all(sum(1 for u in g.neighbors(v) if u in vs) == 2 for v in vs):
                sub, _ = g.induced(vs)
                if len(connected_components(sub)) == 1:
                    best = min(best, size)
    return best


class TestGirth:
    def test_forest(self):
        assert girth(Graph(3, [(0, 1), (1, 2)])) == math.inf
        assert girth(Graph(1, [])) == math.inf

    def test_small_known(self):
        assert girth(Graph(3, [(0, 1), (1, 2), (0, 2)])) == 3
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert girth(c5) == 5
        petersen = Graph(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)],
        )
        assert girth(petersen) == 5

    def test_matches_brute_force(self):
        rng = random.Random(20240)
        for trial in range(40):
            n = rng.randrange(4, 10)
            pairs = list(combinations(range(n), 2))
            m = rng.randrange(0, len(pairs) + 1)
            g = Graph(n, rng.sample(pairs, m))
            assert girth(g) == brute_girth(g), f"trial {trial}"

    def test_even_girth(self):
        c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        assert girth(c6) == 6
        k33 = Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
        assert girth(k33) == 4

    def test_each_root_searches_above_itself_up_to_the_cut_off(self):
        class CountingGraph(Graph):
            """Counts the neighbour lists read through its adjacency rows."""

            __slots__ = ("reads",)

            @property
            def adjacency(self):
                graph = self

                class Rows:
                    def __getitem__(self, v):
                        graph.reads += 1
                        return graph.neighbors(v)

                return Rows()

        n = 60
        # a star centred at 0: every leaf's search stops at the leaf, since
        # 0 lies below it, so the neighbour lists are read 2n - 1 times
        star = CountingGraph(n, [(0, v) for v in range(1, n)])
        star.reads = 0
        assert girth(star) == math.inf
        assert star.reads == 2 * n - 1
        # the 5-cycle 0..4 with leaves 5..n-1 on vertex 1. Root 0 reads 0, 1,
        # 4 and 2, where the cycle closes, and no leaf; root 1 reads itself,
        # 2 and the leaves; roots 2, 3 and 4 read 2, 2 and 1 lists; each leaf
        # reads its own
        ring = CountingGraph(n, [(i, (i + 1) % 5) for i in range(5)] + [(1, v) for v in range(5, n)])
        ring.reads = 0
        assert girth(ring) == 5
        assert ring.reads == 4 + (n - 3) + 2 + 2 + 1 + (n - 5)


class TestTraversals:
    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert connected_components(g) == [[0, 1], [2, 3], [4]]

    def test_distance(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3)])
        assert distance(g, 0, 3) == 3
        assert distance(g, 0, 0) == 0
        assert distance(g, 0, 4) == math.inf

    def test_bipartition(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        left, right = bipartition(g)
        assert {frozenset(left), frozenset(right)} == {frozenset({0, 2}), frozenset({1, 3})}
        assert bipartition(Graph(3, [(0, 1), (1, 2), (0, 2)])) is None

    def test_parity_coloring(self):
        path_and_point = Graph(5, [(0, 1), (1, 2), (2, 3)])
        assert parity_coloring(path_and_point) == [0, 1, 0, 1, 0]
        # a root takes its color; the rest of its component follows by BFS parity
        assert parity_coloring(path_and_point, {2: 1}) == [1, 0, 1, 0, 0]
        assert parity_coloring(path_and_point, {4: 1, 3: 0}) == [1, 0, 1, 0, 1]
        # on an odd cycle one edge of the last layer is monochromatic
        assert parity_coloring(Graph(5, [(i, (i + 1) % 5) for i in range(5)])) == [0, 1, 0, 0, 1]
        assert parity_coloring(Graph(0, [])) == []

    def test_parity_coloring_refuses_two_roots_in_one_component(self):
        with pytest.raises(ValueError, match="root 3 lies in an earlier root's component"):
            parity_coloring(Graph(4, [(0, 1), (1, 2), (2, 3)]), {0: 0, 3: 0})

    @pytest.mark.parametrize("roots,message", [
        ({-1: 1}, r"root -1 outside 0\.\.2"),
        ({5: 1}, r"root 5 outside 0\.\.2"),
        ({0: 7}, "root 0 has color 7, not 0 or 1"),
        ({0: -1}, "root 0 has color -1, not 0 or 1"),
    ])
    def test_parity_coloring_refuses_a_bad_root(self, roots, message):
        with pytest.raises(ValueError, match=message):
            parity_coloring(Graph(3, [(0, 1), (1, 2)]), roots)

    def test_degeneracy(self):
        tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
        assert degeneracy_order(tree)[0] == 1
        k4 = Graph(4, [(a, b) for a, b in combinations(range(4), 2)])
        d, order = k4_deg = degeneracy_order(k4)
        assert d == 3 and sorted(order) == [0, 1, 2, 3]
        c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        assert degeneracy_order(c6)[0] == 2

    def test_degeneracy_order_witnesses(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(2, 12)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
            d, order = degeneracy_order(g)
            position = {v: i for i, v in enumerate(order)}
            back = max(
                (sum(1 for u in g.neighbors(v) if position[u] > position[v]) for v in order),
                default=0,
            )
            assert back == d


GRAPH_FILE = """\
# example
4 3
0 1
1 2
2 3
"""


class TestFormats:
    def test_parse_graph(self):
        g, emb = parse_graph(GRAPH_FILE)
        assert g.n == 4 and g.m == 3 and g.has_edge(1, 2) and emb is None

    def test_parse_graph_checks_and_keeps_rotation_lines(self):
        text = serialize_embedding(icosahedron_embedding())
        g, emb = parse_graph(text)
        assert emb.graph is g and emb.rotations == parse_embedding(text).rotations
        with pytest.raises(ValueError, match="two rotation lines for vertex 1"):
            parse_graph("3 2\n0 1\n1 2\n0: 1\n1: 0 2\n1: 2 0\n2: 1\n")

    def test_graph_round_trip(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randrange(1, 10)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
            assert parse_graph(serialize_graph(g)) == (g, None)

    def test_parse_graph_errors(self):
        with pytest.raises(ValueError):
            parse_graph("")
        with pytest.raises(ValueError):
            parse_graph("2 2\n0 1\n")
        with pytest.raises(ValueError):
            parse_graph("2 1\n0 1\n0 1\n")

    def test_rows_are_counted_and_converted_at_once(self):
        with pytest.raises(ValueError, match="expected 2 edges, found 1"):
            read_rows("3 2\n0 1\n", 2, "edge")
        with pytest.raises(ValueError, match="bad edge line '1 2 0'"):
            read_rows("3 2\n0 1\n1 2 0\n", 2, "edge")
        n, rows, rest, ids = read_rows("3 2\n0 1\n+1 002\n0: 1\n", 2, "edge")
        assert (n, rest, ids) == (3, ["0: 1"], {"0": 0, "1": 1, "2": 2})
        # the rows are one flat list of integers read off in pairs, so each
        # row's tuple is made when it is reached and none outlives the read
        assert list(rows) == [(0, 1), (1, 2)]

    def test_embedding_round_trip(self):
        emb = icosahedron_embedding()
        again = parse_embedding(serialize_embedding(emb))
        assert again.rotations == emb.rotations
        assert again.graph == emb.graph
        assert euler_characteristic(again) == 2

    def test_embedding_signs_round_trip(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        emb = Embedding(g, [[1, 2], [0, 2], [0, 1]], signs={(0, 1): -1})
        text = serialize_embedding(emb)
        assert "signs:" in text
        again = parse_embedding(text)
        assert again.sign(0, 1) == -1 and again.sign(1, 2) == 1
        assert euler_characteristic(again) == 1

    def test_embedding_rejects_repeated_rotation_line(self):
        with pytest.raises(ValueError, match="two rotation lines for vertex 1"):
            parse_embedding("3 2\n0 1\n1 2\n0: 1\n1: 0 2\n1: 2 0\n2: 1\n")

    def test_embedding_rejects_two_sign_lines_for_one_edge(self):
        text = "2 1\n0 1\n0: 1\n1: 0\nsigns:\n0 1 -1\n"
        assert parse_embedding(text).sign(0, 1) == -1
        with pytest.raises(ValueError, match=r"two sign lines for edge \(0, 1\)"):
            parse_embedding(text + "1 0 1\n")
        with pytest.raises(ValueError, match="two sign lines"):
            parse_embedding(text + "0 1 -1\n")

    def test_inline_comments_in_every_section(self):
        assert parse_graph("2 1 # header\n0 1 # edge\n") == (Graph(2, [(0, 1)]), None)
        emb = parse_embedding("2 1\n0 1\n0: 1 # rotation\n1: 0\nsigns: # negative edges\n0 1 -1 # flip\n")
        assert emb.rotations == ((1,), (0,)) and emb.sign(0, 1) == -1

    @pytest.mark.parametrize("parse", [parse_graph, parse_embedding, parse_hypergraph])
    def test_header_above_vertex_cap_is_rejected_before_allocating(self, parse):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most 1000000 are read"):
                parse("2000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_terminal_comments(self):
        text = "# terminal y 0\n# terminal z 1\n2 1\n0 1\n"
        assert parse_terminals(text) == {"y": 0, "z": 1}
        assert parse_graph(text)[0].m == 1
