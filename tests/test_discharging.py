import re
from dataclasses import replace
from fractions import Fraction

import pytest

from archipelago import discharging
from archipelago.discharging import (
    ChargeState,
    Transfer,
    charge_bounds_report,
    discharge,
    initial_charges,
)
from archipelago.generators import hex_patch, hex_torus, quadrangulation, triangulated_torus, triangulation
from archipelago.graphs import Embedding, Graph, euler_characteristic
from archipelago.islands import REGIME_A, REGIME_B, REGIME_C, find_island
from oracles import CountingGraph
from test_graphs import icosahedron_embedding


def emb_sorted(g):
    """Any rotation system is a valid embedding of some surface."""
    return Embedding(g, [list(g.neighbors(v)) for v in range(g.n)])


def star_with_boosted_leaf(leaf_extra: int):
    """Center 0 with seven leaves; leaf 1 gets leaf_extra extra pendants."""
    edges = [(0, i) for i in range(1, 8)]
    edges += [(1, 8 + i) for i in range(leaf_extra)]
    return emb_sorted(Graph(8 + leaf_extra, edges))


class TestInitialCharges:
    def test_regime_a_triangulation_exact(self):
        emb = triangulation(40, seed=2)
        state = initial_charges(emb, REGIME_A)
        # all faces are triangles, so the vertex side alone carries -6*chi
        assert sum(state.vertex_charge) == -12
        assert all(c == 0 for c in state.face_charge)

    def test_regime_b_total(self):
        emb = quadrangulation(60, seed=5)
        state = initial_charges(emb, REGIME_B)
        assert state.total() == -8  # -4 * chi on the sphere

    def test_regime_c_total(self):
        emb = hex_torus(3, 3)
        state = initial_charges(emb, REGIME_C)
        assert state.total() == 0
        assert all(c == 0 for c in state.vertex_charge)
        assert all(c == 0 for c in state.face_charge)

    def test_identity_holds_on_trees(self):
        # the one face of a tree has degree 2(n-1) < 3 for an edge; the
        # exact identity still balances
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        emb = Embedding(g, [[1], [0, 2, 3], [1], [1]])
        state = initial_charges(emb, REGIME_A)
        assert sum(state.vertex_charge) == 2 * g.m - 6 * g.n


class TestRegimeARules:
    def test_r1_single_transfer(self):
        emb = star_with_boosted_leaf(4)  # degree 7 center, one degree-5 leaf
        state = discharge(emb, REGIME_A)
        assert state.transfers == [
            Transfer("R1", ("v", 0), ("v", 1), Fraction(1, 4))
        ]
        assert state.vertex_charge[0] == Fraction(3, 4)
        assert state.vertex_charge[1] == Fraction(-3, 4)

    def test_r2_single_transfer(self):
        emb = star_with_boosted_leaf(5)  # degree 7 center, one degree-6 leaf
        state = discharge(emb, REGIME_A)
        assert state.transfers == [
            Transfer("R2", ("v", 0), ("v", 1), Fraction(1, 12))
        ]

    def test_r3_single_transfer(self):
        # 0 of degree 6 adjacent to 1 of degree 5
        edges = [(0, 1)] + [(0, 2 + i) for i in range(5)] + [(1, 7 + i) for i in range(4)]
        emb = emb_sorted(Graph(11, edges))
        state = discharge(emb, REGIME_A)
        assert state.transfers == [
            Transfer("R3", ("v", 0), ("v", 1), Fraction(1, 6))
        ]

    def test_no_transfers_on_five_regular(self):
        state = discharge(icosahedron_embedding(), REGIME_A)
        assert state.transfers == []
        assert all(c == -1 for c in state.vertex_charge)

    def test_no_transfers_on_six_regular(self):
        state = discharge(triangulated_torus(4, 4), REGIME_A)
        assert state.transfers == []
        assert all(c == 0 for c in state.vertex_charge)

    def test_conservation_on_triangulations(self):
        for seed in (1, 2, 3):
            emb = triangulation(80, seed=seed)
            state = discharge(emb, REGIME_A)
            assert sum(state.vertex_charge) == -12
            assert any(t.rule in ("R1", "R2", "R3") for t in state.transfers)


class TestRegimeBRules:
    def test_hex_torus_frozen_charges(self):
        # 3-regular, all faces hexagonal: every vertex is a starter whose
        # run stops immediately, so each corner pays and is paid 1/6, and
        # the sprinkle rule leaves every vertex at -17/18, faces at 17/9
        emb = hex_torus(3, 3)
        state = discharge(emb, REGIME_B)
        assert all(c == Fraction(-17, 18) for c in state.vertex_charge)
        assert all(c == Fraction(17, 9) for c in state.face_charge)
        assert state.total() == 0

    def test_cube_frozen_charges(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                      (4, 5), (5, 6), (6, 7), (7, 4),
                      (0, 4), (1, 5), (2, 6), (3, 7)])
        rot = [
            [1, 3, 4], [2, 0, 5], [3, 1, 6], [0, 2, 7],
            [0, 7, 5], [1, 4, 6], [2, 5, 7], [3, 6, 4],
        ]
        emb = Embedding(g, rot)
        assert euler_characteristic(emb) == 2
        state = discharge(emb, REGIME_B)
        assert all(c == Fraction(-17, 18) for c in state.vertex_charge)
        assert all(c == Fraction(-2, 27) for c in state.face_charge)
        assert state.total() == -8

    def test_wrapped_run_pays_from_face(self):
        # inner quadrilateral with corners of degree 3, 4, 4, 4: the walk
        # from the degree-3 corner wraps the whole face, so the face pays
        # in both orientations
        g = Graph(11, [(0, 1), (1, 2), (2, 3), (3, 0),
                       (0, 4), (1, 5), (1, 6), (2, 7), (2, 8), (3, 9), (3, 10)])
        rot = [
            [1, 4, 3],
            [0, 2, 5, 6],
            [1, 3, 7, 8],
            [2, 0, 9, 10],
            [0], [1], [1], [2], [2], [3], [3],
        ]
        emb = Embedding(g, rot)
        assert euler_characteristic(emb) == 2
        inner = [i for i, f in enumerate(emb.faces) if len(f) == 4]
        assert len(inner) == 1
        state = discharge(emb, REGIME_B)
        hits = [t for t in state.transfers if t.rule == "B1f"]
        assert hits == [
            Transfer("B1f", ("f", inner[0]), ("v", 0), Fraction(1, 6)),
            Transfer("B1f", ("f", inner[0]), ("v", 0), Fraction(1, 6)),
        ]
        assert state.face_charge[inner[0]] == Fraction(-11, 27)

    def test_quadrangulation_conservation(self):
        for seed in (3, 7):
            emb = quadrangulation(120, seed=seed)
            state = discharge(emb, REGIME_B)
            assert state.total() == -8
            assert any(t.rule == "B2v" for t in state.transfers)
            assert any(t.rule == "B2f" for t in state.transfers)

    def test_transfers_share_one_tuple_per_element(self):
        state = discharge(quadrangulation(120, seed=3), REGIME_B)
        ends = [e for t in state.transfers for e in (t.source, t.target)]
        assert len({id(e) for e in ends}) == len(set(ends)) < len(ends)


class TestRegimeCRules:
    def test_hex_torus_untouched(self):
        state = discharge(hex_torus(3, 3), REGIME_C)
        assert state.transfers == []
        assert state.total() == 0

    def test_long_run_pays_from_face(self):
        # 6-cycle whose other five vertices carry one pendant each: the
        # degree-2 starter sees a run of five degree-3 vertices, wrapping
        g = Graph(11, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                       (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)])
        rot = [
            [5, 1],
            [0, 2, 6], [1, 3, 7], [2, 4, 8], [3, 5, 9], [4, 0, 10],
            [1], [2], [3], [4], [5],
        ]
        emb = Embedding(g, rot)
        assert euler_characteristic(emb) == 2
        inner = [i for i, f in enumerate(emb.faces) if len(f) == 6]
        assert len(inner) == 1
        state = discharge(emb, REGIME_C)
        face_hits = [t for t in state.transfers if t.rule == "C1f"]
        assert face_hits == [
            Transfer("C1f", ("f", inner[0]), ("v", 0), Fraction(1, 2)),
            Transfer("C1f", ("f", inner[0]), ("v", 0), Fraction(1, 2)),
        ]
        # the outer-face runs stop at pendants, which then pay the starter
        vertex_hits = [t for t in state.transfers if t.rule == "C1v"]
        assert sorted(t.source for t in vertex_hits) == [("v", 6), ("v", 10)]
        assert state.vertex_charge[0] == 0
        assert state.face_charge[inner[0]] == -1
        assert state.vertex_charge[6] == Fraction(-9, 2)
        assert state.total() == -12

    def test_hex_patch_conservation(self):
        emb = hex_patch(4, 4, deletions=4, seed=11)
        state = discharge(emb, REGIME_C)
        assert state.total() == -12


class TestTransferRendering:
    def test_str(self):
        t = Transfer("R1", ("v", 7), ("v", 3), Fraction(1, 4))
        assert str(t) == "rule=R1 from=v7 to=v3 amount=1/4"
        t = Transfer("B1f", ("f", 2), ("v", 9), Fraction(1, 6))
        assert str(t) == "rule=B1f from=f2 to=v9 amount=1/6"


def heptagonal_patch():
    """Two rings of the degree-7 triangulated hyperbolic tiling.

    Center 0, ring one 1..7 (degree 7), ring two 8..28 alternating shared
    (degree 4) and private (degree 3) border vertices.
    """

    def r1(i):
        return 1 + (i % 7)

    def s(j):
        return 8 + (j % 7)

    def pa(j):
        return 15 + 2 * (j % 7)

    def pb(j):
        return 16 + 2 * (j % 7)

    rot = {0: [r1(i) for i in range(7)]}
    for i in range(7):
        rot[r1(i)] = [0, r1(i - 1), s(i - 1), pa(i), pb(i), s(i), r1(i + 1)]
    for j in range(7):
        rot[s(j)] = [r1(j), pb(j), pa(j + 1), r1(j + 1)]
        rot[pa(j)] = [r1(j), s(j - 1), pb(j)]
        rot[pb(j)] = [r1(j), pa(j), s(j)]
    edges = {(min(u, v), max(u, v)) for u in rot for v in rot[u]}
    g = Graph(29, sorted(edges))
    return Embedding(g, [rot[v] for v in range(29)])


class TestBoundsReport:
    def test_icosahedron_all_below_with_witnesses(self):
        emb = icosahedron_embedding()
        state = discharge(emb, REGIME_A)
        report = charge_bounds_report(state, emb)
        assert report.theorem_applies
        assert len(report.entries) == 12
        for e in report.entries:
            assert e.kind == "v" and e.charge == -1
            assert e.witness is not None and len(e.witness.members) == 2

    def test_hex_torus_regime_c_clean(self):
        emb = hex_torus(3, 4)
        state = discharge(emb, REGIME_C)
        report = charge_bounds_report(state, emb)
        assert report.ok and report.entries == ()
        assert report.vertex_bound == 0 and report.face_bound == 0

    def test_heptagonal_patch_interior_safe(self):
        emb = heptagonal_patch()
        assert euler_characteristic(emb) == 2
        degs = sorted(map(len, emb.faces))
        assert degs == [3] * 35 + [21]
        state = discharge(emb, REGIME_A)
        report = charge_bounds_report(state, emb)
        below = {e.index for e in report.entries}
        assert below == set(range(8, 29))  # only the outer ring dips
        assert all(e.witness is not None for e in report.entries)
        for v in range(8):
            assert state.vertex_charge[v] >= Fraction(1, 12)

    def test_quadrangulation_regime_b_witnessed(self):
        emb = quadrangulation(80, seed=9)
        state = discharge(emb, REGIME_B)
        report = charge_bounds_report(state, emb)
        assert report.theorem_applies
        assert all(e.witness is not None for e in report.entries)

    @staticmethod
    def count_searches(monkeypatch, emb, state):
        """The report on a discharged state, its find_island pools and its ball walks' roots."""
        calls = []
        walks = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("restrict_to"))
            return find_island(*args, **kwargs)

        def counting_walks(*args):
            walks.append(list(args[1]))
            return ball(*args)

        ball = discharging._ball
        monkeypatch.setattr(discharging, "find_island", counting)
        monkeypatch.setattr(discharging, "_ball", counting_walks)
        return charge_bounds_report(state, emb), calls, walks

    def test_one_search_per_distinct_ball(self, monkeypatch):
        # the pattern scan anchored at each element witnesses 45 of the 46
        # below-bound elements. Vertex 21 (degree 5) pays B1v to its two
        # degree-3 neighbours, and no degree-3 end lies next to either in the
        # low-degree subgraph, so it alone walks a ball, which is the whole
        # graph, and searches it once
        emb = quadrangulation(80, seed=9)
        report, calls, walks = self.count_searches(monkeypatch, emb, discharge(emb, REGIME_B))
        assert len(report.entries) == 46
        assert all(e.witness is not None for e in report.entries)
        assert walks == [[21, *emb.graph.neighbors(21)]]
        assert calls == [frozenset(range(80))]

    def test_no_search_where_every_element_has_a_pattern(self, monkeypatch):
        emb = quadrangulation(400, seed=1)
        report, calls, walks = self.count_searches(monkeypatch, emb, discharge(emb, REGIME_B))
        assert len(report.entries) == 223
        assert all(e.witness is not None for e in report.entries)
        assert calls == [] and walks == []

    def test_fallback_searches_once_per_distinct_ball(self, monkeypatch):
        # a triangulation fails B's precondition and has no 2-island of at
        # most 10 vertices: no element's scan hits, every element walks its
        # ball (all the whole graph), and that ball is searched once
        emb = triangulation(16, seed=3)
        report, calls, walks = self.count_searches(monkeypatch, emb, discharge(emb, REGIME_B))
        assert not report.theorem_applies
        assert len(report.entries) == len(walks) == 28
        assert all(e.witness is None for e in report.entries)
        assert calls == [frozenset(range(16))]

    def test_report_scales_on_a_large_quadrangulation(self, monkeypatch):
        # every below-bound element has a pattern anchored at it, so there is
        # no search and no ball walk, and the anchored scans read each
        # neighbor list a few times (2,535 reads, the girth precondition
        # reading the adjacency rows uncounted; searching every element's
        # ball reads 2,364,846)
        emb = quadrangulation(2000, seed=1)
        g = CountingGraph(emb.graph.n, emb.graph.edges())
        emb = Embedding(g, emb.rotations)
        state = discharge(emb, REGIME_B)
        g.reads = 0
        report, calls, walks = self.count_searches(monkeypatch, emb, state)
        assert calls == [] and walks == []
        assert g.reads <= 5 * g.n
        assert len(report.entries) == 1179
        assert all(e.witness is not None for e in report.entries)

    def test_faces_can_dip_with_witnesses(self):
        # the cube's faces all end slightly negative; every entry needs an
        # island, and edges supply them
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                      (4, 5), (5, 6), (6, 7), (7, 4),
                      (0, 4), (1, 5), (2, 6), (3, 7)])
        rot = [
            [1, 3, 4], [2, 0, 5], [3, 1, 6], [0, 2, 7],
            [0, 7, 5], [1, 4, 6], [2, 5, 7], [3, 6, 4],
        ]
        emb = Embedding(g, rot)
        state = discharge(emb, REGIME_B)
        report = charge_bounds_report(state, emb)
        face_entries = [e for e in report.entries if e.kind == "f"]
        assert len(face_entries) == 6
        assert all(e.witness is not None for e in face_entries)


class TestStateBasics:
    def test_total(self):
        state = ChargeState(REGIME_A, [Fraction(1), Fraction(-2)], [Fraction(3)], [])
        assert state.total() == 2


class TestChecksRefuse:
    def test_euler_total_refuses_a_missing_face(self):
        # a triangle holds 2*3 - 6 = 0 of A's charge, so dropping one leaves
        # the sum as it was while chi, and so -6*chi, moves by one face
        emb = triangulation(30, seed=1)
        emb._faces = emb.faces[1:]
        with pytest.raises(AssertionError, match=re.escape("regime A charges do not total -6*chi")):
            discharge(emb, REGIME_A)

    def test_report_refuses_a_below_bound_element_without_an_island(self, monkeypatch):
        # every vertex of the icosahedron ends at -1, and with the scan and
        # the search finding nothing the guarantee would be contradicted
        emb = icosahedron_embedding()
        state = discharge(emb, REGIME_A)
        state.regime = replace(REGIME_A, scan=lambda g, size, anchors: None)
        monkeypatch.setattr(discharging, "find_island", lambda *args, **kwargs: None)
        with pytest.raises(AssertionError, match=re.escape(
                "v0 is below bound with no island anywhere; the guarantee is contradicted")):
            charge_bounds_report(state, emb)
