import hashlib
import math
from itertools import product

import pytest

from archipelago import graphs
from archipelago.generators import (
    GenSpec,
    _surface,
    gen,
    hex_patch,
    hex_torus,
    hypergraph3,
    quadrangulation,
    triangulated_torus,
    triangulation,
)
from archipelago.graphs import bipartition, euler_characteristic, girth


class TestTriangulation:
    def test_shape(self):
        for n in (4, 9, 30):
            emb = triangulation(n, seed=7)
            assert emb.graph.n == n
            assert emb.graph.m == 3 * n - 6
            assert len(emb.faces) == 2 * n - 4
            assert all(len(f) == 3 for f in emb.faces)
            assert euler_characteristic(emb) == 2
            assert min(emb.graph.degree(v) for v in range(n)) >= 3

    def test_deterministic(self):
        a = triangulation(25, seed=11)
        b = triangulation(25, seed=11)
        assert a.graph == b.graph and a.rotations == b.rotations
        c = triangulation(25, seed=12)
        assert a.graph != c.graph or a.rotations != c.rotations

    def test_too_small(self):
        with pytest.raises(ValueError):
            triangulation(3, seed=0)


class TestQuadrangulation:
    def test_shape(self):
        for n in (4, 10, 40):
            emb = quadrangulation(n, seed=3)
            assert emb.graph.n == n
            assert emb.graph.m == 2 * n - 4
            assert all(len(f) == 4 for f in emb.faces)
            assert euler_characteristic(emb) == 2
            assert bipartition(emb.graph) is not None
        assert girth(quadrangulation(40, seed=3).graph) == 4

    def test_deterministic(self):
        assert quadrangulation(18, 5).rotations == quadrangulation(18, 5).rotations


class TestTori:
    def test_hex_torus(self):
        emb = hex_torus(3, 4)
        g = emb.graph
        assert g.n == 24 and all(g.degree(v) == 3 for v in range(g.n))
        assert euler_characteristic(emb) == 0
        assert girth(g) == 6
        assert bipartition(g) is not None

    def test_triangulated_torus(self):
        emb = triangulated_torus(4, 5)
        g = emb.graph
        assert g.n == 20 and all(g.degree(v) == 6 for v in range(g.n))
        assert euler_characteristic(emb) == 0
        assert girth(g) == 3

    def test_too_small(self):
        with pytest.raises(ValueError):
            hex_torus(2, 5)
        with pytest.raises(ValueError):
            triangulated_torus(3, 2)


class TestHexPatch:
    def test_no_deletions(self):
        emb = hex_patch(3, 3, deletions=0, seed=0)
        assert emb.graph.n == 18
        assert euler_characteristic(emb) == 2
        assert girth(emb.graph) == 6

    def test_deletions(self):
        emb = hex_patch(4, 4, deletions=6, seed=9)
        assert emb.graph.n >= 32 - 6
        assert euler_characteristic(emb) == 2
        assert girth(emb.graph) >= 6
        assert bipartition(emb.graph) is not None

    @pytest.mark.parametrize("seed", range(5))
    def test_deletions_stop_at_one_vertex(self, seed):
        emb = hex_patch(3, 3, deletions=200, seed=seed)
        assert emb.graph.n == 1
        assert euler_characteristic(emb) == 2

    def test_rotations_are_the_torus_less_its_wrap_edges(self):
        torus = hex_torus(4, 5)
        patch = hex_patch(4, 5, deletions=0, seed=0)
        assert patch.rotations == tuple(tuple(u for u in rot if patch.graph.has_edge(v, u))
                                         for v, rot in enumerate(torus.rotations))
        assert patch.graph.m == torus.graph.m - (4 + 5)  # one wrap edge per row and per column

    def test_deletions_build_no_graph(self, monkeypatch):
        # a deletion is checked by a search from one live neighbor of the
        # deleted vertex: the only graph built is the certified output
        built = []
        init = graphs.Graph.__init__

        def counting_init(self, n, edges):
            built.append(n)
            init(self, n, edges)

        monkeypatch.setattr(graphs.Graph, "__init__", counting_init)
        emb = hex_patch(30, 30, deletions=400, seed=1)
        assert built == [emb.graph.n]

    def test_outputs_are_unchanged(self):
        # sha256 of the serialized patches, recorded when every deletion
        # rebuilt the live graph and its components
        digest = hashlib.sha256()
        for rows, cols, deletions, seed in product((3, 4, 5), (3, 4, 6), (0, 5, 20, 60), range(3)):
            digest.update(graphs.serialize_embedding(hex_patch(rows, cols, deletions, seed)).encode())
        assert digest.hexdigest() == "0de937418bc7880c11e93fa3defaf878b4b6c291af64d9a031df6e6cc1d40151"

    def test_deterministic(self):
        a = hex_patch(4, 5, deletions=8, seed=42)
        b = hex_patch(4, 5, deletions=8, seed=42)
        assert a.graph == b.graph and a.rotations == b.rotations


class TestHypergraph3:
    def test_shape_and_determinism(self):
        h = gen(GenSpec("hypergraph3", n=9, m=12, seed=4))
        assert h.n == 9 and len(h.edges) == 12
        assert len(set(h.edges)) == 12
        for a, b, c in h.edges:
            assert 0 <= a < b < c < 9
        assert h == gen(GenSpec("hypergraph3", n=9, m=12, seed=4))
        assert h != gen(GenSpec("hypergraph3", n=9, m=12, seed=5))

    def test_too_many_triples(self):
        with pytest.raises(ValueError):
            gen(GenSpec("hypergraph3", n=4, m=5, seed=0))

    def test_negative_count_is_refused(self):
        # a negative m would shrink the size that the vertex limit checks
        with pytest.raises(ValueError, match="m >= 0"):
            hypergraph3(2 * 10**6, -1, seed=0)


class TestSurface:
    @pytest.mark.parametrize("chi, face_degree, what", [
        (0, 3, "characteristic"),
        (2, 4, "face degrees"),
    ])
    def test_refuses_a_broken_promise(self, chi, face_degree, what):
        rot = triangulation(9, seed=2).rotations
        with pytest.raises(RuntimeError, match=f"post-check failed: triangulation {what}"):
            _surface(rot, chi, face_degree, "triangulation")


class TestGenDispatch:
    def test_families(self):
        emb = gen(GenSpec("triangulation", seed=1, n=12))
        assert emb.graph.n == 12
        emb = gen(GenSpec("hex_torus", rows=3, cols=3))
        assert emb.graph.n == 18
        with pytest.raises(ValueError):
            gen(GenSpec("mystery"))


@pytest.mark.parametrize("build,args,n", [
    (triangulation, (10, 1), 10),
    (quadrangulation, (10, 1), 10),
    (hex_torus, (3, 4), 24),
    (triangulated_torus, (3, 4), 12),
    (hex_patch, (3, 4, 0, 1), 24),
    (hypergraph3, (6, 5, 1), 11),  # its incidence graph: 6 vertices and 5 hyperedges
])
def test_size_limit_is_the_exact_size(monkeypatch, build, args, n):
    monkeypatch.setattr(graphs, "MAX_VERTICES", n)
    build(*args)
    monkeypatch.setattr(graphs, "MAX_VERTICES", n - 1)
    with pytest.raises(ValueError, match=f"{build.__name__} would build {n} vertices"):
        build(*args)
