"""Slow reference implementations kept to cross-check the fast ones.

Each function is the earlier, slower form of a routine in the package,
kept verbatim apart from being lifted out of its class. They are not part of
the package and are imported only by tests.
"""

from __future__ import annotations

from fractions import Fraction

from archipelago.discharging import BoundEntry, BoundsReport, ChargeState, _ball
from archipelago.graphs import Embedding, Face, connected_components, euler_characteristic, girth, has_triangle
from archipelago.islands import REGIME_A, IslandWitness, find_island, is_island
from archipelago.peeling import PeelDecomposition, peel


def replay_ok(dec: PeelDecomposition) -> bool:
    """PeelDecomposition.replay_ok with one induced subgraph per layer.

    Raises KeyError when a layer names a removed or out-of-range vertex.
    """
    gone: set[int] = set()
    for layer in dec.layers:
        live = [v for v in range(dec.graph.n) if v not in gone]
        sub, relabel = dec.graph.induced(live)
        if not is_island(sub, [relabel[v] for v in layer], dec.regime.k):
            return False
        if len(layer) > dec.regime.size:
            return False
        gone.update(layer)
    if sorted(dec.base) != sorted(set(range(dec.graph.n)) - gone):
        return False
    if dec.base:
        sub, _ = dec.graph.induced(dec.base)
        if any(len(c) > dec.threshold for c in connected_components(sub)):
            return False
    return True


def trace_faces(emb: Embedding) -> tuple[Face, ...]:
    """trace_faces picking each face's start with min() over the untraced states."""
    g = emb.graph
    if g.n == 0:
        raise ValueError("cannot trace faces of the empty graph")
    if g.n > 1 and len(connected_components(g)) > 1:
        raise ValueError("face tracing requires a connected graph")
    if g.m == 0:
        return (Face(walk=(0,), reverse_walk=(0,)),)

    def step(u: int, v: int, d: int) -> tuple[int, int, int]:
        d2 = d * emb.sign(u, v)
        rot = emb.rotations[v]
        i = emb._pos[v][u]
        w = rot[(i + d2) % len(rot)]
        return (v, w, d2)

    def reverse(state: tuple[int, int, int]) -> tuple[int, int, int]:
        u, v, d = state
        return (v, u, -d * emb.sign(u, v))

    todo = set()
    for u, v in g.edges():
        for d in (1, -1):
            todo.add((u, v, d))
            todo.add((v, u, d))

    faces = []
    total_degree = 0
    while todo:
        start = min(todo)
        orbit = []
        state = start
        while True:
            orbit.append(state)
            state = step(*state)
            if state == start:
                break
        mirror = {reverse(s) for s in orbit}
        if mirror == set(orbit):
            raise ValueError("orbit is self-paired; rotation system is inconsistent")
        todo.difference_update(orbit)
        todo.difference_update(mirror)
        walk = tuple(s[0] for s in orbit)
        rstart = reverse(orbit[0])
        rorbit = [rstart]
        state = step(*rstart)
        while state != rstart:
            rorbit.append(state)
            state = step(*state)
        faces.append(Face(walk=walk, reverse_walk=tuple(s[0] for s in rorbit)))
        total_degree += len(walk)

    if total_degree != 2 * g.m:
        raise AssertionError("face degrees do not sum to twice the edge count")
    return tuple(faces)


# the bounds as literals, so that the cross-check also pins the regime table
VERTEX_BOUND = {"A": Fraction(1, 12), "B": Fraction(1, 18), "C": Fraction(0)}
FACE_BOUND = {"A": None, "B": Fraction(0), "C": Fraction(0)}


def charge_bounds_report(state: ChargeState, emb: Embedding) -> BoundsReport:
    """charge_bounds_report with one ball search, and one fallback, per element.

    Bounds and preconditions are looked up by regime name, as they were before
    the regime table held them.
    """
    regime = state.regime
    g = emb.graph
    chi = euler_characteristic(emb)
    threshold = regime.threshold(chi)
    vb = VERTEX_BOUND[regime.name]
    fb = FACE_BOUND[regime.name]
    precondition = True
    if regime.name == "B":
        precondition = not has_triangle(g)
    elif regime.name == "C":
        precondition = girth(g) >= 6
    theorem_applies = g.n > threshold and precondition

    def witness_near(roots) -> IslandWitness | None:
        ball = _ball(g, roots, regime.size)
        w = find_island(g, regime.k, regime.size, restrict_to=ball)
        if w is None:
            w = find_island(g, regime.k, regime.size)
        return w

    entries: list[BoundEntry] = []
    for v in range(g.n):
        if state.vertex_charge[v] < vb:
            entries.append(BoundEntry("v", v, state.vertex_charge[v], witness_near([v])))
    if fb is not None:
        for fi, face in enumerate(emb.faces):
            if state.face_charge[fi] < fb:
                entries.append(
                    BoundEntry("f", fi, state.face_charge[fi], witness_near(face.vertices()))
                )
    if theorem_applies:
        for e in entries:
            if e.witness is None:
                raise AssertionError(
                    f"{e.kind}{e.index} is below bound with no island anywhere; "
                    "the guarantee is contradicted"
                )
    return BoundsReport(
        regime=regime,
        chi=chi,
        threshold=threshold,
        vertex_bound=vb,
        face_bound=fb,
        theorem_applies=theorem_applies,
        entries=tuple(entries),
    )


def color_four_plus_sink(g, chi: int):
    """color_four_plus_sink with its own colouring loop in place of extend_coloring."""
    dec = peel(g, REGIME_A, chi)
    coloring = {v: 5 for v in dec.base}
    for layer in reversed(dec.layers):
        members = set(layer)
        for v in sorted(layer):
            used = {
                coloring[u]
                for u in g.neighbors(v)
                if u in coloring and u not in members
            }
            coloring[v] = next(c for c in (1, 2, 3, 4, 5) if c not in used)
    return coloring, dec
