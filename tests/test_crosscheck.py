"""Fast routines against the slow reference forms kept in tests/oracles.py."""

import random
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from archipelago.certify import audit, is_island
from archipelago.discharging import charge_bounds_report, discharge
from archipelago.gadgets import (
    _layout_crossings,
    build_equalizer,
    build_N,
    build_uncrosser,
    forward_coloring_girth8,
    hyper2color,
    reduce_girth8,
    reduce_planar,
    validate_uncrosser,
)
from archipelago.generators import (
    hex_patch,
    hex_torus,
    hypergraph3,
    quadrangulation,
    triangulated_torus,
    triangulation,
)
from archipelago.graphs import (
    Embedding,
    Graph,
    LiveView,
    bipartition,
    connected_components,
    euler_characteristic,
    girth,
    parity_coloring,
    trace_faces,
)
from archipelago.islands import REGIME_A, REGIME_B, REGIME_C, REGIMES, find_island, forbidden_configuration
from archipelago.peeling import TheoremViolation, color, extend_coloring, peel
from archipelago.regimes import _config_path
from archipelago.solver import mc_decide, mc_optimize

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


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from([*sorted(FAMILIES), "random_graph"]), data=st.data())
def test_trace_faces_matches_oracle_under_random_rotations(source, data):
    # random graphs bring the empty, single-vertex, tree and disconnected cases
    if source == "random_graph":
        g = data.draw(solver_cases())[0] if data.draw(st.booleans()) else Graph(0, [])
    else:
        g = FAMILIES[source][2](data).graph
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rotations = [rng.sample(g.neighbors(v), g.degree(v)) for v in range(g.n)]
    edges = list(g.edges())
    negative = data.draw(st.sets(st.sampled_from(edges), max_size=len(edges))) if edges else ()
    emb = Embedding(g, rotations, {e: -1 for e in negative})
    assert outcome(trace_faces, emb) == outcome(oracles.trace_faces, emb)


def every_signed_rotation_system(g):
    """Every rotation system of g (each neighbor order up to rotation) under every sign assignment."""
    orders = [[(nbrs[0], *rest) for rest in permutations(nbrs[1:])] for nbrs in g.adjacency]
    edges = list(g.edges())
    for rotations in product(*orders):
        for signs in product((1, -1), repeat=len(edges)):
            yield Embedding(g, rotations, dict(zip(edges, signs)))


@pytest.mark.parametrize("g, count", [
    (Graph(4, list(combinations(range(4), 2))), 16 * 64),  # K4
    (Graph(5, [(u, v) for u in range(2) for v in range(2, 5)]), 4 * 64),  # K2,3
    (Graph(4, [(0, 1), (1, 2), (2, 3)]), 8),  # a path
    (Graph(5, [(0, v) for v in range(1, 5)]), 6 * 16),  # a star
], ids=["K4", "K2,3", "path", "star"])
def test_trace_faces_matches_oracle_on_every_signed_rotation_system(g, count):
    # the oracle keeps the self-paired-orbit and degree-sum checks that
    # trace_faces argues away: no input here reaches either of them
    embeddings = list(every_signed_rotation_system(g))
    assert len(embeddings) == count
    for emb in embeddings:
        want = outcome(oracles.trace_faces, emb)
        assert want[0] == "value" and outcome(trace_faces, emb) == want


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
    # the threshold follows chi: 0 from chi 0 up, 72 or 357 times -chi below
    mutated = replace(
        dec,
        layers=tuple(layers),
        base=tuple(base),
        chi=data.draw(st.sampled_from([dec.chi, 2, 0, -1])),
    )
    # replay_ok bounds the whole base, the oracles each component. They can
    # differ only under a positive threshold; at chi -1 that is 72 or 357,
    # and these bases, at most three dissolved layers of at most 16, stay
    # below it
    assert mutated.replay_ok() == _oracle_verdict(mutated) == oracles.replay_ok_live_mask(mutated)


def draw_lists(data, n, k):
    """Lists of k+1 or more colors from a small palette, now and then one
    short of k+1 distinct colors or missing."""
    palette = st.integers(0, k + 2)
    lists = {v: data.draw(st.lists(palette, min_size=k + 1, max_size=k + 3, unique=True)) for v in range(n)}
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
        v = data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            lists.pop(v, None)
        else:
            lists[v] = data.draw(st.lists(palette, min_size=1, max_size=k + 1).filter(lambda row: len(set(row)) <= k))
    return lists


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_extend_coloring_matches_oracle(family, data):
    regime, chi, draw = FAMILIES[family]
    dec = peel(draw(data).graph, regime, chi)
    lists = draw_lists(data, dec.graph.n, regime.k)
    got, want = outcome(extend_coloring, dec, lists), outcome(oracles.extend_coloring, dec, lists)
    # equal dicts in equal order
    assert got == want
    if got[0] == "value":
        assert list(got[1].items()) == list(want[1].items())


def report_fields(report):
    return (report.max_component, list(report.component_sizes.items()), report.list_violations,
            report.oversized_components)


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_audit_matches_oracle(family, data):
    regime, chi, draw = FAMILIES[family]
    g = draw(data).graph
    # a few colors make large monochromatic components; lists may miss the
    # color, or a vertex may go without color or list
    coloring = {v: data.draw(st.integers(0, data.draw(st.integers(0, 4)))) for v in range(g.n)}
    lists = data.draw(st.none() | st.just(draw_lists(data, g.n, 1)))
    if data.draw(st.integers(0, 4)) == 0:
        del coloring[data.draw(st.integers(0, g.n - 1))]
    max_size = data.draw(st.none() | st.integers(1, g.n))

    def report(f):
        return report_fields(f(g, coloring, max_size, lists))

    assert outcome(report, audit) == outcome(report, oracles.audit)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_color_four_plus_sink_matches_oracle(family, data):
    _, chi, draw = FAMILIES[family]
    g = draw(data).graph
    # the same colouring, colour by colour, from the same decomposition
    assert color(peel(g, REGIME_A, chi))[0] == oracles.color_four_plus_sink(g, chi)[0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(6, 14), chi=st.integers(-2, -1), data=st.data())
def test_color_four_plus_sink_matches_oracle_with_a_base(n, chi, data):
    # the families peel down to nothing; a dense core below the threshold of
    # a negative chi stays as the base, which takes the sink colour
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    removed = data.draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    g = Graph(n, [p for p in pairs if p not in removed])
    dec = peel(g, REGIME_A, chi)
    assert (color(dec)[0], dec) == oracles.color_four_plus_sink(g, chi)


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
    """The report equals the oracle's apart from the islands it names.

    Where the regime's pattern scan anchored at an element finds nothing, the
    report falls back to the oracle's searches and must name the oracle's
    island. Elsewhere its island may differ, but must be an island of at most
    regime.size vertices with a member within distance 2 of the element.
    """
    g = emb.graph
    state = discharge(emb, regime)
    got = outcome(charge_bounds_report, state, emb)
    want = outcome(oracles.charge_bounds_report, state, emb)
    if want[0] == "raised" or got[0] == "raised":
        assert got == want
        return
    got, want = got[1], want[1]
    # everything but the entries' witnesses, field by field
    assert replace(got, entries=()) == replace(want, entries=())
    assert [replace(e, witness=None) for e in got.entries] == [replace(e, witness=None) for e in want.entries]
    for e, o in zip(got.entries, want.entries):
        element = [e.index, *g.neighbors(e.index)] if e.kind == "v" else frozenset(emb.faces[e.index])
        if forbidden_configuration(g, regime, element) is None:
            assert e.witness == o.witness
            continue
        assert o.witness is not None and e.witness is not None
        assert len(e.witness.members) <= regime.size and is_island(g, e.witness.members, regime.k)
        near = {e.index} if e.kind == "v" else set(element)
        for _ in range(2):
            near |= {u for x in near for u in g.neighbors(x)}
        assert near.intersection(e.witness.members)


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_discharge_matches_oracle_under_relabelling_and_signs(family, data):
    emb = FAMILIES[family][2](data)
    emb = relabel(emb, data.draw(st.permutations(range(emb.graph.n))))
    edges = list(emb.graph.edges())
    negative = data.draw(st.sets(st.sampled_from(edges), max_size=len(edges)))
    emb = Embedding(emb.graph, emb.rotations, {e: -1 for e in negative})
    for name in IN_SCOPE[family]:
        got, want = outcome(discharge, emb, REGIMES[name]), outcome(oracles.discharge, emb, REGIMES[name])
        # ChargeState compares charges and transfers in order
        assert got == want
        if got[0] == "value":
            assert got[1].total() == oracles.total(want[1])


# Inputs on which some radius balls, but not all, are the whole graph: thin
# tori under A (radius 3), quadrangulations under B (radius 10) and hex
# patches under C (radius 16).
PARTLY_WHOLE = {
    "thin_torus": (REGIME_A, lambda data: triangulated_torus(3, data.draw(st.integers(3, 40)))),
    "quadrangulation": (
        REGIME_B,
        lambda data: quadrangulation(data.draw(st.integers(100, 1500)), seed=data.draw(st.integers(0, 999))),
    ),
    "hex_patch": (
        REGIME_C,
        lambda data: hex_patch(
            data.draw(st.integers(3, 9)),
            data.draw(st.integers(3, 9)),
            deletions=data.draw(st.integers(0, 6)),
            seed=data.draw(st.integers(0, 999)),
        ),
    ),
}


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(PARTLY_WHOLE)), data=st.data())
def test_charge_bounds_report_matches_oracle_where_balls_are_partly_whole(family, data):
    regime, draw = PARTLY_WHOLE[family]
    emb = draw(data)
    assert_report_matches_oracle(relabel(emb, data.draw(st.permutations(range(emb.graph.n)))), regime)


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


# --- peel against the induced-subgraph oracle ------------------------------
#
# Layers may differ from the oracle's, since the two peel in different
# orders. The base may not: an island X of G leaves X & V' an island of
# G[V'], so no peeling order can remove a vertex of an island-free core, and
# every order ends at the same core.


def peel_outcome(f, *args):
    """f's decomposition, or the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return exc


def assert_peel_matches_oracle(g, regime, chi, footnote_12=False):
    with warnings.catch_warnings():
        # footnote 12's fallback warning depends on the order of removal
        warnings.simplefilter("ignore", RuntimeWarning)
        got = peel_outcome(peel, g, regime, chi, footnote_12)
        want = peel_outcome(oracles.peel, g, regime, chi, footnote_12)
    # peel bounds the whole base by the threshold and the oracle each base
    # component; the two differ only when the island-free components fit one
    # by one but not together, which needs a base above 72 vertices at chi -1
    # and no input here has one (tests/test_peeling.py covers that case)
    assert type(got) is type(want), (got, want)
    if isinstance(got, TheoremViolation):
        # both name an island-free component above the threshold, not
        # necessarily the same one
        assert len(got.residual) > got.threshold
        assert find_island(g.induced(got.residual)[0], regime.k, regime.size) is None
    elif not isinstance(got, Exception):
        assert got.replay_ok() and oracles.replay_ok(got)
        assert got.base == want.base


def disjoint_union(graphs):
    edges, n = [], 0
    for h in graphs:
        edges += [(u + n, v + n) for u, v in h.edges()]
        n += h.n
    return Graph(n, edges)


def relabel_graph(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def clique(t):
    return Graph(t, list(combinations(range(t), 2)))


def biclique(s, t):
    return Graph(s + t, [(u, s + v) for u in range(s) for v in range(t)])


def cycle(t):
    return Graph(t, [(i, (i + 1) % t) for i in range(t)])


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_peel_matches_oracle_on_every_family(family, data):
    emb = FAMILIES[family][2](data)
    emb = relabel(emb, data.draw(st.permutations(range(emb.graph.n))))
    regime = REGIMES[data.draw(st.sampled_from(IN_SCOPE[family]))]
    assert_peel_matches_oracle(emb.graph, regime, FAMILIES[family][1])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_peel_matches_oracle_with_footnote_12_on_hex_patches(data):
    emb = FAMILIES["hex_patch"][2](data)
    emb = relabel(emb, data.draw(st.permutations(range(emb.graph.n))))
    assert_peel_matches_oracle(emb.graph, REGIME_C, 2, footnote_12=True)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(6, 14), chi=st.sampled_from([-2, -1, 0, 2]), data=st.data())
def test_peel_matches_oracle_on_dense_graphs(n, chi, data):
    # below 0 the base may keep a dense core; from 0 up such a core is a
    # TheoremViolation in both
    pairs = list(combinations(range(n), 2))
    removed = data.draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    assert_peel_matches_oracle(Graph(n, [p for p in pairs if p not in removed]), REGIME_A, chi)


# pieces a regime accepts: cliques only under A, cycles of at least 4 (B) or
# 6 (C) vertices, and K(s, t) blocks under B (K(8, 8) has no 2-island of at
# most 10 vertices, so it stays as a base or raises)
PIECES = {
    "A": st.one_of(st.builds(clique, st.integers(1, 10)), st.builds(cycle, st.integers(3, 9))),
    "B": st.one_of(st.builds(biclique, st.integers(1, 8), st.integers(1, 9)), st.builds(cycle, st.integers(4, 9))),
    "C": st.builds(cycle, st.integers(6, 12)),
}


@pytest.mark.parametrize("chi", [-1, 0, 2])
def test_peel_matches_oracle_on_k9_plus_c5(chi):
    assert_peel_matches_oracle(disjoint_union([clique(9), cycle(5)]), REGIME_A, chi)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from("ABC"), chi=st.sampled_from([-1, 0, 2]), data=st.data())
def test_peel_matches_oracle_on_disjoint_unions(name, chi, data):
    pieces = data.draw(st.lists(PIECES[name], min_size=1, max_size=4))
    family = data.draw(st.sampled_from(["hex_torus", "hex_patch"] if name == "C" else ["quadrangulation"]))
    pieces.append(FAMILIES[family][2](data).graph)
    g = disjoint_union(data.draw(st.permutations(pieces)))
    g = relabel_graph(g, data.draw(st.permutations(range(g.n))))
    assert_peel_matches_oracle(g, REGIMES[name], chi)


# solver: the same tree, so the same results field by field


@st.composite
def solver_cases(draw):
    """A random graph (often disconnected), valid pins, k and maybe a budget."""
    n = draw(st.integers(1, 14))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * n)) if pairs else set()
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1), max_size=3))
    budget = draw(st.one_of(st.just(10**7), st.integers(0, 60)))
    return Graph(n, sorted(edges)), pins, draw(st.integers(1, 6)), budget


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 16), data=st.data())
def test_parity_coloring_and_bipartition_match_oracles(n, data):
    # from the empty graph up, often disconnected, often not bipartite
    import networkx as nx

    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    g = Graph(n, sorted(edges))
    assert dict(enumerate(parity_coloring(g))) == oracles.parity_coloring(g)
    ng = nx.Graph(list(edges))
    ng.add_nodes_from(range(n))
    assert (bipartition(g) is not None) == nx.is_bipartite(ng)


@settings(max_examples=400, deadline=None)
@given(case=solver_cases())
def test_mc_decide_matches_oracle(case):
    g, pins, k, budget = case
    assert outcome(mc_decide, g, k, pins, budget) == outcome(oracles.mc_decide, g, k, pins, budget)


@settings(max_examples=150, deadline=None)
@given(case=solver_cases())
def test_mc_optimize_matches_oracle(case):
    g, _, _, budget = case
    assert mc_optimize(g, budget) == oracles.mc_optimize(g, budget)


@settings(max_examples=150, deadline=None)
@given(case=solver_cases())
def test_mc_optimize_matches_climb(case):
    # the branch and bound finds the k, and the exactness, of climbing
    # k = 1, 2, ... with one mc_decide each, the optimizer it replaced
    g = case[0]
    res, climb = mc_optimize(g), oracles.mc_optimize_climb(g)
    assert (res.k, res.exact) == (climb.k, climb.exact)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), data=st.data())
def test_mc_decide_matches_oracle_on_pinned_stars(n, data):
    # the hub is last and sees up to n clusters; leaf edges merge some of them
    leaf_pairs = list(combinations(range(n), 2))
    extra = data.draw(st.sets(st.sampled_from(leaf_pairs), max_size=n))
    g = Graph(n + 1, sorted({(i, n) for i in range(n)} | extra))
    pins = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1), max_size=n))
    k = data.draw(st.integers(1, 6))
    assert outcome(mc_decide, g, k, pins) == outcome(oracles.mc_decide, g, k, pins)


@settings(max_examples=60, deadline=None)
@given(make=st.sampled_from([triangulation, quadrangulation]), n=st.integers(6, 20),
       seed=st.integers(0, 999), data=st.data())
def test_mc_optimize_matches_oracle_on_surfaces(make, n, seed, data):
    g = make(n, seed=seed).graph
    g = relabel_graph(g, data.draw(st.permutations(range(g.n))))
    assert mc_optimize(g) == oracles.mc_optimize(g)


@settings(max_examples=30, deadline=None)
@given(make=st.sampled_from([build_N, build_equalizer]), k=st.integers(1, 4),
       y=st.integers(0, 1), z=st.integers(0, 1),
       budget=st.one_of(st.just(10**7), st.integers(0, 200)))
def test_mc_decide_matches_oracle_on_links(make, k, y, z, budget):
    gg = make(2)
    pins = {gg.terminals["y"]: y, gg.terminals["z"]: z}
    assert mc_decide(gg.graph, k, pins, budget) == oracles.mc_decide(gg.graph, k, pins, budget)


@settings(max_examples=400, deadline=None)
@given(case=solver_cases())
def test_mc_decide_keeps_color_zero_first_refutations(case):
    # the branch order changes which coloring is found, never a refutation
    g, pins, k, budget = case
    new = outcome(mc_decide, g, k, pins, budget)
    old = outcome(partial(oracles.mc_decide, larger_first=False), g, k, pins, budget)
    if "raised" in (new[0], old[0]):
        assert new == old
        return
    new, old = new[1], old[1]
    if old.verdict == "no":
        assert new == old
    assert new.verdict != "no" or old.verdict == "no"
    if budget == 10**7:
        assert new.verdict == old.verdict
    if new.verdict == "yes":
        coloring = new.coloring
        assert sorted(coloring) == list(range(g.n)) and set(coloring.values()) <= {0, 1}
        assert all(coloring[v] == c for v, c in pins.items())
        mono = Graph(g.n, [(u, v) for u, v in g.edges() if coloring[u] == coloring[v]])
        largest = max(len(comp) for comp in connected_components(mono))
        assert largest <= k and new.best_max_component == largest


def test_validate_uncrosser_runs_match_oracle():
    u = build_uncrosser(2)
    t = u.terminals
    runs = {
        "north_south_split": (2, {t["x_N"]: 0, t["x_S"]: 1}),
        "west_east_split": (2, {t["x_W"]: 0, t["x_E"]: 1}),
        "corner_agree": (2, {t["x_N"]: 0, t["x_W"]: 0}),
        "corner_disagree": (2, {t["x_N"]: 0, t["x_W"]: 1}),
    }
    report = validate_uncrosser(u, 2)
    assert report.ok
    for name, (k, pins) in runs.items():
        assert report.checks[name] == oracles.mc_decide(u.graph, k, pins, 10**6), name


# girth: list marks against the dict-marked search


def assert_girth_matches_oracle(g):
    want = oracles.girth(g)
    assert girth(g) == want
    assert REGIME_B.precondition(g) == (want >= 4)
    assert REGIME_C.precondition(g) == (want >= 6)


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_girth_matches_oracle_on_every_family(family, data):
    assert_girth_matches_oracle(FAMILIES[family][2](data).graph)


@settings(max_examples=200, deadline=None)
@given(case=solver_cases())
def test_girth_matches_oracle_on_random_graphs(case):
    assert_girth_matches_oracle(case[0])


@st.composite
def planted_cycle_graphs(draw):
    """A random forest plus up to three random edges and a planted 3- to 8-cycle."""
    n = draw(st.integers(8, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n) if rng.random() < 0.9}
    for _ in range(draw(st.integers(0, 3))):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    ring = rng.sample(range(n), draw(st.integers(3, 8)))
    edges |= {tuple(sorted(e)) for e in zip(ring, ring[1:] + ring[:1])}
    return Graph(n, sorted(edges))


# girth searches each cycle from its least vertex, so the answer must not
# depend on which ids the cycle's vertices carry
@settings(max_examples=200, deadline=None)
@given(source=st.sampled_from([*sorted(FAMILIES), "planted_cycle"]), data=st.data())
def test_girth_matches_oracle_under_relabelling(source, data):
    if source == "planted_cycle":
        g = data.draw(planted_cycle_graphs())
    else:
        g = FAMILIES[source][2](data).graph
    assert_girth_matches_oracle(relabel_graph(g, data.draw(st.permutations(range(g.n)))))


# _config_path: one BFS per end against a path BFS followed by a cycle BFS


def bounded_edges(rng, n, cap, tries):
    """Random edges on n vertices, none of degree above cap."""
    deg, edges = [0] * n, set()
    for _ in range(tries):
        u, v = sorted(rng.sample(range(n), 2))
        if deg[u] < cap and deg[v] < cap and (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return edges


def planted_end(rng, n, low_deg, end_deg):
    """A near low_deg-regular graph plus one vertex of degree end_deg on a
    split edge, so that its only short witnesses are often cycles."""
    edges = bounded_edges(rng, n, low_deg, 6 * n * low_deg)
    if edges:
        u, v = rng.choice(sorted(edges))
        edges -= {(u, v)}
        edges |= {(u, n), (v, n)} | {(w, n) for w in rng.sample(range(n), end_deg - 2) if w not in (u, v)}
    return Graph(n + 1, edges)


def test_config_path_matches_oracle():
    rng = random.Random("config-path")
    cycles = 0
    for _ in range(2000):
        low_deg, end_deg = rng.choice([(4, 3), (3, 2)])  # regimes B and C
        n = rng.randrange(3, 40)
        if rng.random() < 0.5:
            g = planted_end(rng, n, low_deg, end_deg)
        else:
            g = Graph(n, bounded_edges(rng, n, rng.randrange(low_deg, low_deg + 3), n * low_deg))
        if rng.random() < 0.3:
            alive = [rng.random() > 0.1 for _ in range(g.n)]
            g = LiveView(g, alive, [sum(alive[u] for u in g.neighbors(v)) for v in range(g.n)])
        max_vertices = rng.randrange(1, 17)
        live = list(g.vertices())
        anchors = None if rng.random() < 0.5 else rng.sample(live, rng.randrange(len(live) + 1))
        got = _config_path(g, max_vertices, anchors, low_deg, end_deg)
        assert got == oracles.config_path(g, max_vertices, anchors, low_deg, end_deg)
        # a cycle witness holds one end, a path two and a lone vertex none
        cycles += got is not None and sum(g.degree(v) == end_deg for v in got) == 1 and len(got) > 1
    assert cycles >= 50


# find_island against the search that copies its member set at every step

FAMILY_DRAWS = {
    "triangulation": lambda rng: triangulation(rng.randrange(4, 60), seed=rng.randrange(1000)),
    "quadrangulation": lambda rng: quadrangulation(rng.randrange(4, 60), seed=rng.randrange(1000)),
    "hex_torus": lambda rng: hex_torus(rng.randrange(3, 6), rng.randrange(3, 6)),
    "triangulated_torus": lambda rng: triangulated_torus(rng.randrange(3, 6), rng.randrange(3, 6)),
    "hex_patch": lambda rng: hex_patch(rng.randrange(3, 6), rng.randrange(3, 6),
                                       deletions=rng.randrange(5), seed=rng.randrange(1000)),
}


def island_case(rng):
    """A graph, k and size: a random graph with random parameters, or a
    family's embedding graph under its regime's."""
    if rng.random() < 0.8:
        n = rng.randrange(2, 25)
        g = Graph(n, bounded_edges(rng, n, rng.randrange(2, 10), rng.randrange(6 * n)))
        return g, rng.randrange(4), rng.randrange(1, 13)
    family = rng.choice(sorted(FAMILY_DRAWS))
    regime = FAMILIES[family][0]
    return FAMILY_DRAWS[family](rng).graph, regime.k, regime.size


def test_find_island_matches_oracle():
    rng = random.Random("find-island")
    found = views = restricted = 0
    for _ in range(3000):
        g, k, size = island_case(rng)
        if rng.random() < 0.3:
            alive = [rng.random() > 0.2 for _ in range(g.n)]
            g = LiveView(g, alive, [sum(alive[u] for u in g.neighbors(v)) for v in range(g.n)])
            views += 1
        restrict_to = None
        live = list(g.vertices())
        if live and rng.random() < 0.3:
            # a ball round a vertex, as the bounds report restricts its search
            restrict_to = oracles._ball(g, [rng.choice(live)], rng.randrange(4))
            restricted += 1
        got = find_island(g, k, size, restrict_to)
        assert got == oracles.find_island(g, k, size, restrict_to)
        found += got is not None
    assert min(found, 3000 - found, views, restricted) >= 500


# is_island: set-counted outside neighbours against a generator per member


def witness_fields(w):
    """A witness's fields, with its outside degrees in order; None stays None."""
    return w and (w.members, w.k, list(w.outside_degrees.items()))


def test_is_island_matches_oracle():
    rng = random.Random("is-island")
    seen = {"empty": 0, "repeated": 0, "removed": 0, "out of range": 0, "island": 0, "not island": 0}
    for _ in range(3000):
        g, _, size = island_case(rng)
        if rng.random() < 0.4:
            alive = [rng.random() > 0.2 for _ in range(g.n)]
            g = LiveView(g, alive, [sum(alive[u] for u in g.neighbors(v)) for v in range(g.n)])
        live = list(g.vertices())
        # a ball round a live vertex, cut to at most `size` members, mostly
        members = []
        if live and rng.random() < 0.95:
            ball = sorted(oracles._ball(g, [rng.choice(live)], rng.randrange(3)))
            members = rng.sample(ball, min(len(ball), rng.randrange(1, size + 1)))
        if members and rng.random() < 0.2:
            members.append(rng.choice(members))
            seen["repeated"] += 1
        if rng.random() < 0.15:
            gone = [v for v in range(g.n) if v not in g]
            if gone:
                members.append(rng.choice(gone))
                seen["removed"] += 1
        if rng.random() < 0.1:
            members.append(rng.choice([-1, g.n]))
            seen["out of range"] += 1
        seen["empty"] += not members
        # k at the boundary: one below, at or one above the largest outside count
        mset = set(members)
        worst = max((sum(u not in mset for u in g.neighbors(v)) for v in mset if v in g), default=0)
        k = max(0, worst + rng.choice((-1, 0, 1)))
        got = is_island(g, members, k)
        assert witness_fields(got) == witness_fields(oracles.is_island(g, members, k))
        seen["island" if got else "not island"] += 1
    assert min(seen.values()) >= 100, seen


# reduce_planar: the drawn rotation system against networkx's planarity test


def test_planarity_helper():
    assert euler_characteristic(
        oracles.planar_embedding(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    ) == 2
    k5 = Graph(5, list(combinations(range(5), 2)))
    with pytest.raises(ValueError):
        oracles.planar_embedding(k5)


def covered_and_connected(h):
    if {v for e in h.edges for v in e} != set(range(h.n)):
        return False
    pairs = {(a, b) for a, b, _ in h.edges} | {(b, c) for _, b, c in h.edges}
    return len(connected_components(Graph(h.n, pairs))) == 1


def crossing_pairs(rows):
    return {(min(p, q), max(p, q)) for p, row in enumerate(rows) for q in row}


def oracle_crossing_pairs(targets, slots):
    """The pairs of straight connectors that cross, at the first untied delta."""
    delta = Fraction(1, 128)
    while True:
        try:
            return crossing_pairs([[q for _, q in row] for row in oracles.layout_crossings(targets, slots, delta)])
        except ValueError:
            delta /= 8


def assert_rows_draw_a_wiring_diagram(targets, slots, rows):
    """Each row's crossings can be made in order by adjacent swaps that take
    the connectors from slot order to path order: the rows draw planarly."""
    order = sorted(range(len(targets)), key=lambda p: slots[targets[p]])
    done = [0] * len(targets)
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(order) - 1):
            p, q = order[i], order[i + 1]
            if rows[p][done[p]:done[p] + 1] == [q] and rows[q][done[q]:done[q] + 1] == [p]:
                order[i], order[i + 1] = q, p
                done[p] += 1
                done[q] += 1
                swapped = True
    assert done == list(map(len, rows)), "a row crosses out of order"
    assert order == list(range(len(targets)))


def assert_reduce_planar_matches_oracle(h, k):
    """Same size, terminals and crossings as the oracle; planar and spherical.

    The two lay their crossings out differently, so the graphs differ.
    """
    import networkx as nx

    got, want = reduce_planar(h, k), oracles.reduce_planar(h, k)
    assert (got.graph.n, got.graph.m) == (want.graph.n, want.graph.m)
    assert got.terminals == want.terminals
    length = k * (k - 1) + 1
    targets = [triple[j % 3] for triple in h.edges for j in range(1, length + 1)]
    slots = {u: i for i, u in enumerate(dict.fromkeys(targets))}
    assert crossing_pairs(_layout_crossings(targets, slots)) == oracle_crossing_pairs(targets, slots)
    g = got.graph
    assert euler_characteristic(got.embedding) == 2
    assert len(got.embedding.faces) == g.m - g.n + 2
    assert nx.check_planarity(nx.Graph(list(g.edges())))[0]
    assert girth(g) >= 4


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 6), m=st.integers(1, 3), seed=st.integers(0, 999))
def test_reduce_planar_matches_oracle(n, m, seed):
    assume(m <= n * (n - 1) * (n - 2) // 6)
    h = hypergraph3(n, m, seed)
    assume(covered_and_connected(h))
    assert_reduce_planar_matches_oracle(h, 2)


def test_reduce_planar_matches_oracle_at_k3():
    # one hyperedge: 9,558 vertices, 7 crossings; two would take the
    # planarity test several seconds more
    assert_reduce_planar_matches_oracle(hypergraph3(3, 1, 0), 3)


# forward_coloring_girth8: parity from each primitive against J's id layout


@pytest.mark.parametrize("k, count, most_edges", [(2, 12, 4), (3, 4, 2)])
def test_forward_coloring_girth8_matches_oracle(k, count, most_edges):
    rng = random.Random(f"forward-girth8:{k}")
    for _ in range(count):
        h = hypergraph3(rng.randrange(4, 9), rng.randrange(1, most_edges + 1), rng.randrange(2**31))
        hcol = hyper2color(h)
        gg = reduce_girth8(h, k)
        assert forward_coloring_girth8(h, hcol, gg, k) == oracles.forward_coloring_girth8(h, hcol, gg, k)


@settings(max_examples=200, deadline=None)
@given(targets=st.lists(st.integers(0, 7), max_size=40))
def test_layout_crossings_matches_oracle(targets):
    slots = {u: i for i, u in enumerate(dict.fromkeys(targets))}
    rows = _layout_crossings(targets, slots)
    assert crossing_pairs(rows) == oracle_crossing_pairs(targets, slots)
    assert sum(map(len, rows)) == 2 * len(crossing_pairs(rows))
    assert_rows_draw_a_wiring_diagram(targets, slots, rows)
