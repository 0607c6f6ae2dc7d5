"""Argument guards, one table row each: every refusal the generators make,
a rotation table that is not one rotation per vertex, an edge sign that is
not +1 or -1 or is given twice, faces of the empty graph, a planar reduction
of the empty hypergraph, a gadget with a foreign embedding, and a charge
state reported on an embedding it does not belong to."""

import re

import pytest

from archipelago.discharging import charge_bounds_report, discharge
from archipelago.gadgets import GadgetGraph, reduce_planar
from archipelago.generators import (
    GenSpec,
    gen,
    hex_patch,
    hex_torus,
    hypergraph3,
    quadrangulation,
    triangulated_torus,
    triangulation,
)
from archipelago.graphs import Embedding, Graph, Hypergraph3, trace_faces
from archipelago.islands import REGIME_A


def report_across(state_of, emb):
    """The bounds report of one embedding's charge state on another embedding."""
    return charge_bounds_report(discharge(state_of, REGIME_A), emb)


TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
TRIANGLE_ROTATIONS = [[1, 2], [2, 0], [0, 1]]
PATH = Graph(3, [(0, 1), (1, 2)])

GUARDS = [
    ("gen", lambda: gen(GenSpec("klein_bottle")), "unknown family 'klein_bottle'; choose from"),
    ("triangulation", lambda: triangulation(3, seed=0), "triangulation needs n >= 4"),
    ("quadrangulation", lambda: quadrangulation(3, seed=0), "quadrangulation needs n >= 4"),
    ("hex_torus rows", lambda: hex_torus(2, 5), "hex_torus needs rows, cols >= 3"),
    ("hex_torus cols", lambda: hex_torus(5, 2), "hex_torus needs rows, cols >= 3"),
    ("triangulated_torus", lambda: triangulated_torus(3, 2), "triangulated_torus needs rows, cols >= 3"),
    ("hex_patch rows", lambda: hex_patch(2, 5, 0, seed=0), "hex_patch needs rows, cols >= 3"),
    ("hex_patch cols", lambda: hex_patch(5, 2, 0, seed=0), "hex_patch needs rows, cols >= 3"),
    ("hex_patch deletions", lambda: hex_patch(3, 3, -1, seed=0), "hex_patch needs deletions >= 0"),
    ("hypergraph3 n", lambda: hypergraph3(2, 0, seed=0), "hypergraph3 needs n >= 3"),
    ("hypergraph3 m", lambda: hypergraph3(5, -1, seed=0), "hypergraph3 needs m >= 0"),
    ("hypergraph3 triples", lambda: hypergraph3(5, 11, seed=0), "only 10 distinct triples exist on 5 vertices"),
    ("embedding with a rotation too many", lambda: Embedding(PATH, [[1], [0, 2], [1], []]),
     "4 rotations given for a graph of 3 vertices"),
    ("embedding with a rotation too few", lambda: Embedding(PATH, [[1], [0, 2]]),
     "2 rotations given for a graph of 3 vertices"),
    ("embedding dict lacking a vertex", lambda: Embedding(PATH, {0: [1], 1: [0, 2]}),
     "2 rotations given for a graph of 3 vertices"),
    ("embedding dict with a foreign vertex", lambda: Embedding(PATH, {0: [1], 1: [0, 2], 3: [1]}),
     "no rotation for vertex 2"),
    ("embedding sign", lambda: Embedding(TRIANGLE, TRIANGLE_ROTATIONS, {(0, 1): 2}), "sign of (0, 1) must be +1 or -1"),
    ("embedding sign twice", lambda: Embedding(TRIANGLE, TRIANGLE_ROTATIONS, {(0, 1): 1, (1, 0): -1}),
     "two signs for edge (0, 1)"),
    ("embedding sign twice, reversed", lambda: Embedding(TRIANGLE, TRIANGLE_ROTATIONS, {(1, 0): -1, (0, 1): 1}),
     "two signs for edge (0, 1)"),
    ("empty faces", lambda: trace_faces(Embedding(Graph(0, []), [])), "cannot trace faces of the empty graph"),
    ("reduce_planar of the empty hypergraph", lambda: reduce_planar(Hypergraph3(0, ()), 2),
     "the hypergraph must be connected through shared vertices"),
    ("gadget embedding", lambda: GadgetGraph(TRIANGLE, {}, triangulation(4, seed=0)),
     "embedding belongs to a different graph"),
    ("charge state of a larger embedding", lambda: report_across(triangulation(30, seed=1), triangulation(20, seed=2)),
     "the charge state has 30 vertices and 56 faces, the embedding 20 and 36"),
    ("charge state of a smaller embedding", lambda: report_across(triangulation(20, seed=2), triangulation(30, seed=1)),
     "the charge state has 20 vertices and 36 faces, the embedding 30 and 56"),
]


@pytest.mark.parametrize("build, message", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS])
def test_guard_refuses_with_its_message(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()

