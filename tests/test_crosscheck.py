"""Fast routines against the slow reference forms kept in tests/oracles.py."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from archipelago.discharging import charge_bounds_report, discharge
from archipelago.generators import hex_patch, hex_torus, quadrangulation, triangulated_torus, triangulation
from archipelago.graphs import Embedding, Graph, trace_faces
from archipelago.islands import REGIME_A, REGIME_B, REGIME_C, REGIMES
from archipelago.peeling import color_four_plus_sink, peel

# family -> (regime, chi, draw) where draw(data) builds an embedding
FAMILIES = {
    "triangulation": (
        REGIME_A,
        2,
        lambda data: triangulation(data.draw(st.integers(4, 60)), seed=data.draw(st.integers(0, 999))),
    ),
    "quadrangulation": (
        REGIME_B,
        2,
        lambda data: quadrangulation(data.draw(st.integers(4, 60)), seed=data.draw(st.integers(0, 999))),
    ),
    "hex_torus": (
        REGIME_C,
        0,
        lambda data: hex_torus(data.draw(st.integers(3, 6)), data.draw(st.integers(3, 6))),
    ),
    "triangulated_torus": (
        REGIME_A,
        0,
        lambda data: triangulated_torus(data.draw(st.integers(3, 6)), data.draw(st.integers(3, 6))),
    ),
    "hex_patch": (
        REGIME_C,
        2,
        lambda data: hex_patch(
            data.draw(st.integers(3, 5)),
            data.draw(st.integers(3, 5)),
            deletions=data.draw(st.integers(0, 4)),
            seed=data.draw(st.integers(0, 999)),
        ),
    ),
}


def outcome(f, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return ("value", f(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc), str(exc))


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_trace_faces_matches_oracle_under_random_signs(family, data):
    emb = FAMILIES[family][2](data)
    g = emb.graph
    edges = list(g.edges())
    negative = data.draw(st.sets(st.sampled_from(edges), max_size=len(edges)))
    signed = Embedding(g, emb.rotations, {e: -1 for e in negative})
    assert outcome(trace_faces, signed) == outcome(oracles.trace_faces, signed)


def _oracle_verdict(dec):
    # the oracle raises KeyError on removed or out-of-range vertices
    try:
        return oracles.replay_ok(dec)
    except KeyError:
        return False


def _mutate(data, layers, base, n):
    """Apply one random damaging edit to a decomposition's layers and base."""
    kind = data.draw(
        st.sampled_from(["swap", "dissolve", "base_into_layer", "repeat", "out_of_range", "empty"])
    )
    if kind == "swap" and len(layers) >= 2:
        i, j = data.draw(st.lists(st.integers(0, len(layers) - 1), min_size=2, max_size=2, unique=True))
        layers[i], layers[j] = layers[j], layers[i]
    elif kind == "dissolve" and layers:
        i = data.draw(st.integers(0, len(layers) - 1))
        base = sorted(base + list(layers.pop(i)))
    elif kind == "base_into_layer" and layers and base:
        i = data.draw(st.integers(0, len(layers) - 1))
        v = data.draw(st.sampled_from(base))
        layers[i] = tuple(sorted(layers[i] + (v,)))
        base = [u for u in base if u != v]
    elif kind == "repeat" and len(layers) >= 2 and any(layers):
        # an earlier "empty" edit may have left a layer with nothing to repeat
        i = data.draw(st.sampled_from([i for i, layer in enumerate(layers) if layer]))
        j = data.draw(st.sampled_from([j for j in range(len(layers)) if j != i]))
        layers[j] = layers[j] + (data.draw(st.sampled_from(layers[i])),)
    elif kind == "out_of_range" and layers:
        i = data.draw(st.integers(0, len(layers) - 1))
        layers[i] = layers[i] + (data.draw(st.sampled_from([-1, n, n + 5])),)
    elif kind == "empty":
        layers.insert(data.draw(st.integers(0, len(layers))), ())
    return layers, base


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_replay_ok_matches_oracle_on_mutated_decompositions(family, data):
    regime, chi, draw = FAMILIES[family]
    dec = peel(draw(data).graph, regime, chi)
    assert dec.replay_ok() and oracles.replay_ok(dec)
    layers, base = list(dec.layers), list(dec.base)
    for _ in range(data.draw(st.integers(0, 3))):
        layers, base = _mutate(data, layers, base, dec.graph.n)
    mutated = replace(
        dec,
        layers=tuple(layers),
        base=tuple(base),
        threshold=data.draw(st.sampled_from([dec.threshold, 1, 3, 10])),
    )
    assert mutated.replay_ok() == _oracle_verdict(mutated)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_color_four_plus_sink_matches_oracle(family, data):
    _, chi, draw = FAMILIES[family]
    g = draw(data).graph
    # the same colouring, colour by colour, from the same decomposition
    assert color_four_plus_sink(g, chi)[0] == oracles.color_four_plus_sink(g, chi)[0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(6, 14), chi=st.integers(-2, -1), data=st.data())
def test_color_four_plus_sink_matches_oracle_with_a_base(n, chi, data):
    # the families peel down to nothing; a dense core below the threshold of
    # a negative chi stays as the base, which takes the sink colour
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    removed = data.draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    g = Graph(n, [p for p in pairs if p not in removed])
    coloring, dec = color_four_plus_sink(g, chi)
    assert (coloring, dec) == oracles.color_four_plus_sink(g, chi)


def relabel(emb, perm):
    """The same embedding with vertex v renamed perm[v]."""
    g = emb.graph
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    rotations = [None] * g.n
    for v, rot in enumerate(emb.rotations):
        rotations[perm[v]] = [perm[u] for u in rot]
    signs = {(perm[u], perm[v]): -1 for u, v in g.edges() if emb.sign(u, v) == -1}
    return Embedding(Graph(g.n, edges), rotations, signs)


# the regimes whose girth precondition each family meets, so that the
# guarantee can apply: B needs no triangle, C girth at least 6
IN_SCOPE = {
    "triangulation": "A",
    "quadrangulation": "AB",
    "hex_torus": "ABC",
    "triangulated_torus": "A",
    "hex_patch": "ABC",
}


def assert_report_matches_oracle(emb, regime):
    state = discharge(emb, regime)
    # BoundsReport and BoundEntry compare field by field, witnesses included
    assert outcome(charge_bounds_report, state, emb) == outcome(oracles.charge_bounds_report, state, emb)


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_charge_bounds_report_matches_oracle_under_relabelling(family, data):
    emb = FAMILIES[family][2](data)
    # the labelling decides which seed each island search meets first
    emb = relabel(emb, data.draw(st.permutations(range(emb.graph.n))))
    assert_report_matches_oracle(emb, REGIMES[data.draw(st.sampled_from(IN_SCOPE[family]))])


# Outside the precondition the oracle repeats a fruitless whole-graph search
# per element, seconds each from about 20 vertices, so these inputs are small
# and fixed rather than drawn.
@pytest.mark.parametrize(
    "make, args, regime",
    [
        (triangulation, (16, 3), "B"),
        (triangulation, (16, 3), "C"),
        (triangulated_torus, (3, 4), "B"),
        (triangulated_torus, (3, 4), "C"),
        (quadrangulation, (20, 1), "C"),
    ],
)
def test_charge_bounds_report_matches_oracle_outside_precondition(make, args, regime):
    emb = make(*args)
    perm = list(range(emb.graph.n))
    random.Random(regime).shuffle(perm)
    assert_report_matches_oracle(relabel(emb, perm), REGIMES[regime])
