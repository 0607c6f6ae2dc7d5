"""Argument guards, one table row each: every refusal the generators make,
an edge sign that is not +1 or -1, faces of the empty graph, and a gadget
with a foreign embedding."""

import re

import pytest

from archipelago.gadgets import GadgetGraph
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
from archipelago.graphs import Embedding, Graph, trace_faces

TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
TRIANGLE_ROTATIONS = [[1, 2], [2, 0], [0, 1]]

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
    ("embedding sign", lambda: Embedding(TRIANGLE, TRIANGLE_ROTATIONS, {(0, 1): 2}), "sign of (0, 1) must be +1 or -1"),
    ("empty faces", lambda: trace_faces(Embedding(Graph(0, []), [])), "cannot trace faces of the empty graph"),
    ("gadget embedding", lambda: GadgetGraph(TRIANGLE, {}, triangulation(4, seed=0)),
     "embedding belongs to a different graph"),
]


@pytest.mark.parametrize("build, message", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS])
def test_guard_refuses_with_its_message(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()

