"""Slow reference implementations kept to cross-check the fast ones.

Each function is the earlier, slower form of a routine in the package,
kept verbatim apart from being lifted out of its class. They are not part of
the package and are imported only by tests. The graph helpers at the end have
no caller in the package; only tests use them.
"""

from __future__ import annotations

import heapq
import math
import warnings
from collections import deque
from collections.abc import Iterator
from fractions import Fraction

from archipelago import peeling
from archipelago.certify import ColoringReport, IslandWitness
from archipelago.discharging import BoundEntry, BoundsReport, ChargeState, Transfer, initial_charges
from archipelago.gadgets import GadgetGraph, _tree_sizes, build_equalizer, build_N, tree_leaf
from archipelago.graphs import (
    MAX_VERTICES,
    Embedding,
    Graph,
    Hypergraph3,
    LiveView,
    check_size,
    connected_components,
    euler_characteristic,
    reverse_walk,
)
from archipelago.islands import REGIME_A, Regime, forbidden_configuration
from archipelago.peeling import PeelDecomposition, TheoremViolation
from archipelago.solver import MCResult, OptimizeResult


def replay_ok(dec: PeelDecomposition) -> bool:
    """certify.replay_ok with one induced subgraph per layer.

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


def replay_ok_live_mask(dec: PeelDecomposition) -> bool:
    """certify.replay_ok with a member set per layer and a live mask."""
    g, k, size = dec.graph, dec.regime.k, dec.size
    alive = [True] * g.n
    for layer in dec.layers:
        members = set(layer)
        if not members or len(layer) > size or len(members) < len(layer):
            return False
        for v in members:
            if not (0 <= v < g.n and alive[v]):
                return False
        for v in members:
            outside = 0
            for u in g.neighbors(v):
                if alive[u] and u not in members:
                    outside += 1
            if outside > k:
                return False
        for v in members:
            alive[v] = False
    if sorted(dec.base) != [v for v in range(g.n) if alive[v]]:
        return False
    return all(len(c) <= dec.threshold for c in connected_components(g.induced(dec.base)[0]))


def extend_coloring(dec: PeelDecomposition, lists) -> dict[int, int]:
    """peeling.extend_coloring over the colouring dict and a member set per layer."""
    g = dec.graph
    k = dec.regime.k
    for v in range(g.n):
        if v not in lists:
            raise ValueError(f"no color list for vertex {v}")
        if len(set(lists[v])) < k + 1:
            raise ValueError(f"list of vertex {v} has fewer than {k + 1} distinct colors")
    coloring: dict[int, int] = {}
    for v in dec.base:
        coloring[v] = lists[v][0]
    for layer in reversed(dec.layers):
        members = set(layer)
        for v in sorted(layer):
            used = {
                coloring[u]
                for u in g.neighbors(v)
                if u in coloring and u not in members
            }
            for c in lists[v]:
                if c not in used:
                    coloring[v] = c
                    break
            else:
                raise AssertionError(f"vertex {v} ran out of colors; broken layer")
    return coloring


def audit(g: Graph, coloring, max_size: int | None = None, lists=None) -> ColoringReport:
    """certify.audit over the colouring dict, with a deque per component."""
    for v in range(g.n):
        if v not in coloring:
            raise ValueError(f"vertex {v} is uncolored")
        if lists is not None and v not in lists:
            raise ValueError(f"no color list for vertex {v}")
    seen = [False] * g.n
    sizes: dict = {}
    oversized = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        color = coloring[s]
        comp = [s]
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if not seen[y] and coloring[y] == color:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        sizes[color] = max(sizes.get(color, 0), len(comp))
        if max_size is not None and len(comp) > max_size:
            oversized.append(tuple(sorted(comp)))
    violations = tuple(
        (v, coloring[v])
        for v in range(g.n)
        if lists is not None and coloring[v] not in lists[v]
    )
    return ColoringReport(
        max_component=max(sizes.values(), default=0),
        component_sizes=sizes,
        list_violations=violations,
        oversized_components=tuple(oversized),
    )


def trace_faces(emb: Embedding) -> tuple[tuple[int, ...], ...]:
    """trace_faces on (u, v, d) tuple states, tracing each mirror orbit again."""
    g = emb.graph
    if g.n == 0:
        raise ValueError("cannot trace faces of the empty graph")
    if g.n > 1 and len(connected_components(g)) > 1:
        raise ValueError("face tracing requires a connected graph")
    if g.m == 0:
        # single isolated vertex: one face, the sphere
        return ((0,),)

    def step(u: int, v: int, d: int) -> tuple[int, int, int]:
        d2 = d * emb.sign(u, v)
        rot = emb.rotations[v]
        i = rot.index(u)
        w = rot[(i + d2) % len(rot)]
        return (v, w, d2)

    def reverse(state: tuple[int, int, int]) -> tuple[int, int, int]:
        u, v, d = state
        return (v, u, -d * emb.sign(u, v))

    # every state in increasing order: adjacency tuples are sorted
    states = [(u, v, d) for u in range(g.n) for v in g.neighbors(u) for d in (-1, 1)]
    todo = set(states)

    faces = []
    total_degree = 0
    for start in states:
        if start not in todo:
            continue
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
        if reverse_walk(walk) != tuple(s[0] for s in rorbit):
            raise AssertionError(f"reverse_walk of {walk} is not its traced mirror orbit")
        faces.append(walk)
        total_degree += len(walk)

    if total_degree != 2 * g.m:
        raise AssertionError("face degrees do not sum to twice the edge count")
    return tuple(faces)


def total(state: ChargeState) -> Fraction:
    """ChargeState.total summing every charge as a Fraction."""
    return sum(state.vertex_charge, Fraction(0)) + sum(state.face_charge, Fraction(0))


def discharge(emb: Embedding, regime: Regime) -> ChargeState:
    """discharge moving Fraction charges, one Fraction operation per side of a transfer."""
    state = initial_charges(emb, regime)
    before = total(state)
    book = {"v": state.vertex_charge, "f": state.face_charge}
    for rule, source, target, amount in regime.rules(emb):
        book[source[0]][source[1]] -= amount
        book[target[0]][target[1]] += amount
        state.transfers.append(Transfer(rule, source, target, amount))
    if total(state) != before:
        raise AssertionError("discharging did not conserve total charge")
    return state


def _ball(g, roots, radius: int) -> frozenset[int]:
    """_ball walking every ball in full."""
    seen = set(roots)
    frontier = list(seen)
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        if not frontier:
            break
    return frozenset(seen)


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
        precondition = girth(g) >= 4
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
                    BoundEntry("f", fi, state.face_charge[fi], witness_near(frozenset(face)))
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
    """peeling.color without lists (four colors plus a sink) with its own
    colouring loop in place of extend_coloring; returns (coloring, decomposition)."""
    dec = peeling.peel(g, REGIME_A, chi)
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


def peel(g: Graph, regime: Regime, chi: int, footnote_12: bool = False) -> PeelDecomposition:
    """peel with one induced subgraph, component split and whole-component scan per island.

    Its PeelDecomposition no longer takes the threshold, which is now derived
    from chi. The docstring of the original follows.

    Decompose g into islands and a small base.

    chi, at most 2, is the Euler characteristic of a surface the graph
    embeds in; it only enters through the threshold below which island-free
    components are acceptable. g must meet the regime's precondition.

    footnote_12 asserts, on the caller's authority, that the input is a
    2-edge-connected planar graph; regime C then looks for islands of its
    planar size (12) first and falls back to 16 with a warning when none
    exists, rather than failing.
    """
    if chi > 2:
        raise ValueError(f"chi {chi} is above 2; no connected surface has a larger one")
    if not regime.precondition(g):
        raise ValueError(f"regime {regime.name} needs {regime.needs}")
    if footnote_12 and regime.planar_size is None:
        raise ValueError("the 12-island refinement applies to regime C only")
    threshold = regime.threshold(chi)
    alive = [True] * g.n
    live_deg = [g.degree(v) for v in range(g.n)]
    layers: list[tuple[int, ...]] = []
    base: list[int] = []

    def remove(vs):
        for v in vs:
            alive[v] = False
        for v in vs:
            for u in g.neighbors(v):
                if alive[u]:
                    live_deg[u] -= 1

    def cascade(comp):
        # vertices whose live degree is at most k are single-vertex islands
        queue = deque(sorted(v for v in comp if live_deg[v] <= regime.k))
        queued = set(queue)
        while queue:
            v = queue.popleft()
            if not alive[v]:
                continue
            layers.append((v,))
            remove([v])
            for u in g.neighbors(v):
                if alive[u] and live_deg[u] <= regime.k and u not in queued:
                    queued.add(u)
                    queue.append(u)

    worklist = deque(tuple(c) for c in connected_components(g))
    while worklist:
        comp = [v for v in worklist.popleft() if alive[v]]
        if not comp:
            continue
        cascade(comp)
        comp = [v for v in comp if alive[v]]
        if not comp:
            continue
        sub, relabel = g.induced(comp)
        inv = {i: v for v, i in relabel.items()}
        pieces = connected_components(sub)
        if len(pieces) > 1:
            worklist.extend(tuple(inv[i] for i in piece) for piece in pieces)
            continue
        witness = forbidden_configuration(sub, regime)
        if footnote_12 and (witness is None or len(witness.members) > regime.planar_size):
            planar = find_island(sub, regime.k, regime.planar_size)
            if planar is not None:
                witness = planar
            else:
                if witness is None:
                    witness = find_island(sub, regime.k, regime.size)
                if witness is not None:
                    warnings.warn(
                        f"no {regime.planar_size}-island in a residual component; "
                        f"using up to {regime.size} "
                        "(is the input really 2-edge-connected and planar?)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        elif witness is None:
            witness = find_island(sub, regime.k, regime.size)
        if witness is not None:
            members = sorted(inv[i] for i in witness.members)
            layers.append(tuple(members))
            remove(members)
            worklist.append(tuple(v for v in comp if alive[v]))
            continue
        if len(comp) <= threshold:
            base.extend(comp)
            continue
        raise TheoremViolation(regime, chi, tuple(comp))

    return PeelDecomposition(
        graph=g,
        regime=regime,
        chi=chi,
        layers=tuple(layers),
        base=tuple(sorted(base)),
    )



# girth with dict marks and no cap

def girth(g: Graph) -> float:
    """Length of a shortest cycle; math.inf for forests.

    BFS from every vertex; a non-tree edge (x, y) seen from root r witnesses a
    cycle of length level[x] + level[y] + 1 through r when y is not x's BFS
    parent. The shortest cycle is found from any root lying on it, so the
    minimum over roots is exact. Roots after the first are pruned against the
    best bound found so far.
    """
    best = math.inf
    for r in range(g.n):
        level = {r: 0}
        parent = {r: -1}
        queue = deque([r])
        while queue:
            x = queue.popleft()
            lx = level[x]
            if 2 * lx + 1 >= best:
                break
            for y in g.neighbors(x):
                if y not in level:
                    level[y] = lx + 1
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x] and level[y] >= lx:
                    cand = lx + level[y] + 1
                    if cand < best:
                        best = cand
        if best == 3:
            break
    return best


# mc_decide and mc_optimize with pick() scanning every vertex at every node.
# larger_first=False tries color 0 first at every branching vertex, as the
# package did before it ordered the colors by the cluster each would join.
# mc_optimize_climb is the optimizer the branch and bound replaced: one
# mc_decide for each k = 1, 2, ...

class _State:
    """Colors plus rollback-able cluster bookkeeping."""

    def __init__(self, g: Graph, k: int):
        self.adj = tuple(g.neighbors(v) for v in range(g.n))
        self.k = k
        self.color = [-1] * g.n
        self.parent = list(range(g.n))
        self.size = [1] * g.n
        self.union_trail: list[int] = []  # merged child roots
        self.color_trail: list[int] = []  # vertices in assignment order

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def try_size(self, v: int, c: int) -> int:
        """Cluster size if v were colored c, without mutating anything."""
        roots = set()
        for u in self.adj[v]:
            if self.color[u] == c:
                roots.add(self.find(u))
        return 1 + sum(self.size[r] for r in roots)

    def assign(self, v: int, c: int) -> bool:
        """Color v with c unless the resulting cluster would exceed k."""
        if self.try_size(v, c) > self.k:
            return False
        self.color[v] = c
        self.color_trail.append(v)
        for u in self.adj[v]:
            if self.color[u] == c:
                ru, rv = self.find(u), self.find(v)
                if ru != rv:
                    if self.size[ru] < self.size[rv]:
                        ru, rv = rv, ru
                    self.parent[rv] = ru
                    self.size[ru] += self.size[rv]
                    self.union_trail.append(rv)
        return True

    def marks(self) -> tuple[int, int]:
        return len(self.union_trail), len(self.color_trail)

    def largest(self) -> int:
        """The largest cluster, read off every colored vertex's root."""
        return max((self.size[self.find(v)] for v, c in enumerate(self.color) if c != -1), default=0)

    def undo_to(self, marks: tuple[int, int]):
        umark, cmark = marks
        while len(self.union_trail) > umark:
            child = self.union_trail.pop()
            self.size[self.parent[child]] -= self.size[child]
            self.parent[child] = child
        while len(self.color_trail) > cmark:
            self.color[self.color_trail.pop()] = -1

    def propagate(self, queue: deque) -> bool:
        """Force single-choice vertices; False when one has no choice.

        Only the uncolored neighbors of each newly colored vertex are queued,
        which misses a vertex whose option a cluster growing elsewhere removes
        (on the path 0-1-2 at k = 2, coloring 1 then 2 alike leaves 0 one
        color, unforced). The search stays exact: assign re-checks sizes.
        """
        color = self.color
        while queue:
            v = queue.popleft()
            if color[v] != -1:
                continue
            ok0 = self.try_size(v, 0) <= self.k
            ok1 = self.try_size(v, 1) <= self.k
            if not ok0 and not ok1:
                return False
            if ok0 != ok1:
                if not self.assign(v, 0 if ok0 else 1):
                    return False
                for u in self.adj[v]:
                    if color[u] == -1:
                        queue.append(u)
        return True

    def attempt(self, v: int, c: int) -> bool:
        if not self.assign(v, c):
            return False
        queue = deque(u for u in self.adj[v] if self.color[u] == -1)
        return self.propagate(queue)


def mc_decide(g: Graph, k: int, pins=None, budget: int = 10**7, larger_first: bool = True) -> MCResult:
    """Decide whether a 2-coloring with monochromatic pieces of at most k exists.

    pins maps vertices to required colors (0 or 1). Contradictory pins raise;
    an unsatisfiable instance returns "no"; exceeding the node budget returns
    "inconclusive". Flip symmetry is broken by pinning the smallest vertex of
    every component no pin touches; the verdict is unaffected because each
    component can be flipped independently.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    pins = dict(pins) if pins else {}
    for v, c in pins.items():
        if not 0 <= v < g.n:
            raise ValueError(f"pinned vertex {v} out of range")
        if c not in (0, 1):
            raise ValueError(f"pin color {c} must be 0 or 1")
    if g.n == 0:
        return MCResult("yes", {}, 0, 0)
    return _search(g, k, pins, budget, larger_first)


def _search(g: Graph, k: int, pins: dict, budget: int, larger_first: bool = True,
            best: dict | None = None) -> MCResult:
    """mc_decide; given best, a coloring whose largest cluster is k + 1, the
    branch and bound below it: a coloring found replaces best, k drops below
    it and the frames whose state holds a cluster above k are dropped."""
    state = _State(g, k)

    def bound() -> int | None:
        return None if best is None else state.k + 1

    for v in sorted(pins):
        if not state.assign(v, pins[v]):
            raise ValueError("inconsistent pins")
    for comp in connected_components(g):
        if not any(v in pins for v in comp):
            if not state.assign(comp[0], 0):
                return MCResult("no", None, 0)
    seeds = deque(
        u
        for v in range(g.n)
        if state.color[v] != -1
        for u in state.adj[v]
        if state.color[u] == -1
    )
    if not state.propagate(seeds):
        return MCResult("no", None, 0, bound())

    priority = sorted(range(g.n), key=lambda v: (-len(state.adj[v]), v))

    def pick() -> int | None:
        for v in priority:
            if state.color[v] == -1 and any(state.color[u] != -1 for u in state.adj[v]):
                return v
        return None

    def order(v: int) -> list[int]:
        """Colors in the order v tries them: the larger cluster first, ties to 0."""
        if larger_first and state.try_size(v, 1) > state.try_size(v, 0):
            return [1, 0]
        return [0, 1]

    nodes = 0
    stack: list[list] = []

    def extend() -> MCResult | None:
        """Push a frame for the next branching vertex, or take a complete coloring."""
        nxt = pick()
        if nxt is not None:
            stack.append([nxt, order(nxt), state.marks(), state.largest()])
            return None
        if best is None:
            return _yes(g, state, nodes)
        best.clear()
        best.update(enumerate(state.color))
        state.k = state.largest() - 1
        stack[:] = [f for f in stack if f[3] <= state.k]
        return None

    found = extend()
    if found is not None:
        return found
    while stack:
        frame = stack[-1]
        v, colors, marks, _ = frame
        state.undo_to(marks)
        if not colors:
            stack.pop()
            continue
        c = colors.pop(0)
        nodes += 1
        if nodes > budget:
            return MCResult("inconclusive", None, nodes - 1, bound())
        if state.attempt(v, c):
            found = extend()
            if found is not None:
                return found
    return MCResult("no", None, nodes, bound())


def _yes(g: Graph, state: _State, nodes: int) -> MCResult:
    coloring = {v: state.color[v] for v in range(g.n)}
    if any(c == -1 for c in coloring.values()):
        raise AssertionError("search finished with uncolored vertices")
    report = audit(g, coloring, max_size=state.k)
    if report.oversized_components:
        raise AssertionError("search returned an oversized component; solver bug")
    return MCResult("yes", coloring, nodes, report.max_component)


def parity_coloring(g: Graph) -> dict[int, int]:
    """Parity of each vertex's BFS distance from its component's smallest vertex."""
    coloring = {}
    for comp in connected_components(g):
        level = {comp[0]: 0}
        queue = deque([comp[0]])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if y not in level:
                    level[y] = level[x] + 1
                    queue.append(y)
        coloring.update((v, d % 2) for v, d in level.items())
    return dict(sorted(coloring.items()))


def mc_optimize(g: Graph, budget: int = 10**7) -> OptimizeResult:
    """Branch and bound from the parity coloring down, within a node budget."""
    if g.n == 0:
        return OptimizeResult(0, {}, True, 0)
    best = parity_coloring(g)
    top = audit(g, best).max_component
    if top == 1:
        return OptimizeResult(1, best, True, 0)
    res = _search(g, top - 1, {}, budget, best=best)
    report = audit(g, best, max_size=res.best_max_component)
    if report.oversized_components:
        raise AssertionError("branch and bound kept an oversized component")
    return OptimizeResult(report.max_component, best, res.verdict == "no", res.nodes_explored)


def mc_optimize_climb(g: Graph, budget: int = 10**7) -> OptimizeResult:
    """Smallest k for which a coloring exists, within a shared node budget.

    Runs the decision procedure for k = 1, 2, ... The result is exact unless
    some smaller k came back inconclusive; if the budget runs dry entirely,
    the all-zeros coloring supplies a trivial upper bound.
    """
    if g.n == 0:
        return OptimizeResult(0, {}, True, 0)
    spent = 0
    inconclusive_seen = False
    for k in range(1, g.n + 1):
        remaining = budget - spent
        if remaining <= 0:
            break
        res = mc_decide(g, k, budget=remaining)
        spent += res.nodes_explored
        if res.verdict == "yes":
            return OptimizeResult(k, res.coloring, not inconclusive_seen, spent)
        if res.verdict == "inconclusive":
            inconclusive_seen = True
    coloring = {v: 0 for v in range(g.n)}
    worst = max(len(c) for c in connected_components(g))
    return OptimizeResult(worst, coloring, False, spent)


def planar_embedding(g: Graph) -> Embedding:
    """Rotation system from a planarity test, re-verified by face tracing."""
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    ok, emb = nx.check_planarity(ng)
    if not ok:
        raise ValueError("graph is not planar")
    rotations = [list(emb.neighbors_cw_order(v)) for v in range(g.n)]
    out = Embedding(g, rotations)
    if euler_characteristic(out) != 2:
        raise AssertionError("planar rotation system does not trace to a sphere")
    return out


# the coupler builders that numbered every layer by hand in nested loops

def build_tree(t: int) -> GadgetGraph:
    """Complete rooted tree of height 3, branching 5t, root terminal x.

    Ids are breadth-first, so the (5t)^3 leaves occupy the final contiguous
    block in lexicographic order of their (l1, l2, l3) labels; tree_leaf maps
    a label to its id.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    b, n = _tree_sizes(t)
    check_size(n, "build_tree")
    edges = []
    for i in range(b):
        edges.append((0, 1 + i))
    for i in range(b):
        for j in range(b):
            edges.append((1 + i, 1 + b + i * b + j))
    leaf_base = 1 + b + b * b
    for ij in range(b * b):
        for l in range(b):
            edges.append((1 + b + ij, leaf_base + ij * b + l))
    return GadgetGraph(Graph(n, edges), {"x": 0})


def build_J(t: int) -> GadgetGraph:
    """Two coupler trees glued leaf-to-leaf with reversed labels.

    The leaf (l1, l2, l3) of the y-side tree is the leaf (l3, l2, l1) of the
    z-side tree, so only the z-side's two internal layers are new vertices.
    Terminals y and z are the two roots.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    b, size_y = _tree_sizes(t)
    z = size_y
    n = size_y + 1 + b + b * b
    check_size(n, "build_J")
    tree = build_tree(t)
    edges = list(tree.graph.edges())
    for m1 in range(b):
        edges.append((z, z + 1 + m1))
    for m1 in range(b):
        for m2 in range(b):
            edges.append((z + 1 + m1, z + 1 + b + m1 * b + m2))
    for m1 in range(b):
        for m2 in range(b):
            for m3 in range(b):
                # z-side leaf (m1, m2, m3) is the y-side leaf (m3, m2, m1)
                leaf = tree_leaf(t, m3 + 1, m2 + 1, m1 + 1)
                edges.append((z + 1 + b + m1 * b + m2, leaf))
    return GadgetGraph(Graph(n, edges), {"y": 0, "z": z})


class _Assembler:
    """Grows a graph by splicing in gadget copies with shared terminals."""

    def __init__(self, n: int = 0):
        self.n = n
        self.edges: list[tuple[int, int]] = []

    def fresh(self) -> int:
        v = self.n
        self.n += 1
        return v

    def add_edge(self, u: int, v: int):
        self.edges.append((u, v))

    def splice(self, gadget: GadgetGraph, identify: dict) -> dict:
        """Copy a gadget in, mapping the given local ids onto existing ones."""
        mapping = dict(identify)
        for v in range(gadget.graph.n):
            if v not in mapping:
                mapping[v] = self.fresh()
        for u, v in gadget.graph.edges():
            self.add_edge(mapping[u], mapping[v])
        return mapping

    def graph(self) -> Graph:
        return Graph(self.n, self.edges)


def uncrosser(k: int) -> GadgetGraph:
    """build_uncrosser's graph and terminals, without the embedding."""
    if k < 2:
        raise ValueError("k must be at least 2")
    asm = _Assembler()
    terminals = {name: asm.fresh() for name in ("x_N", "x_S", "x_W", "x_E", "x_C")}
    ys = []
    for i in range(1, 2 * (k - 1) + 1):
        ys.append(asm.fresh())
        terminals[f"y_{i}"] = ys[-1]
    distinct = build_N(k)
    equal = build_equalizer(k)

    chain = [terminals["x_W"], *ys]
    for u, v in zip(chain, chain[1:]):
        asm.splice(distinct, {0: u, 1: v})
    asm.splice(equal, {0: ys[-1], 1: terminals["x_E"]})
    for y in ys:
        for _ in range(k - 1):
            p = asm.fresh()
            asm.add_edge(y, p)
            asm.splice(equal, {0: p, 1: terminals["x_N"]})
        asm.add_edge(terminals["x_C"], y)
    asm.splice(distinct, {0: terminals["x_C"], 1: terminals["x_S"]})

    return GadgetGraph(asm.graph(), terminals)


def layout_crossings(targets: list[int], slots: dict, delta: Fraction):
    """Crossings of straight connectors, over every connector pair, in Fractions.

    gadgets._layout_crossings lays the same pairs out as a wiring diagram
    instead. Connector p runs from path vertex p at height p + delta (p+1)^2
    on one line to its primitive's slot height on the other. Returns, per
    connector, the crossing list sorted from the primitive side inward, each
    entry (abscissa, other connector). Raises on tied abscissas.
    """
    heights = [p + delta * (p + 1) ** 2 for p in range(len(targets))]
    crossings: list[list[tuple[Fraction, int]]] = [[] for _ in targets]
    for i in range(len(targets)):
        a_i, b_i = Fraction(slots[targets[i]]), heights[i]
        for j in range(i + 1, len(targets)):
            if targets[i] == targets[j]:
                continue
            a_j, b_j = Fraction(slots[targets[j]]), heights[j]
            if (a_i - a_j) * (b_i - b_j) >= 0:
                continue
            # heights at x: b + (a - b) x; equal at the crossing abscissa
            x = (b_j - b_i) / ((a_i - b_i) - (a_j - b_j))
            crossings[i].append((x, j))
            crossings[j].append((x, i))
    for row in crossings:
        row.sort(key=lambda entry: -entry[0])
        if len({x for x, _ in row}) != len(row):
            raise ValueError("tied crossing abscissas")
    return crossings


def reduce_planar(h: Hypergraph3, k: int) -> GadgetGraph:
    """reduce_planar with straight connectors, embedded by networkx's
    planarity test, not its drawing. The crossings are the same pairs, met
    in another order, so the graph differs from reduce_planar's."""
    if k < 2:
        raise ValueError("k must be at least 2")
    # a single spherical drawing cannot hold disconnected pieces
    if {v for t in h.edges for v in t} != set(range(h.n)):
        raise ValueError("every vertex must occur in some hyperedge; "
                         "drop isolated vertices first")
    length = k * (k - 1) + 1
    targets = [triple[j % 3] for triple in h.edges for j in range(1, length + 1)]
    slots: dict[int, int] = {}
    for u in targets:
        if u not in slots:
            slots[u] = len(slots)
    for u in range(h.n):
        if u not in slots:
            slots[u] = len(slots)

    delta = Fraction(1, 128)
    crossings = None
    for _ in range(32):
        try:
            crossings = layout_crossings(targets, slots, delta)
            break
        except ValueError:
            delta /= 8
    if crossings is None:
        raise RuntimeError("could not break crossing ties")

    asm = _Assembler(h.n)
    terminals = {f"v{v}": v for v in range(h.n)}
    path_ids = []
    for idx in range(len(h.edges)):
        prev = None
        for j in range(1, length + 1):
            ej = asm.fresh()
            terminals[f"e{idx}_{j}"] = ej
            path_ids.append(ej)
            if prev is not None:
                asm.add_edge(prev, ej)
            prev = ej

    crosser = uncrosser(k)
    equal = build_equalizer(k)
    # one shared uncrosser per crossing pair, keyed with the lower index first
    shared: dict[tuple[int, int], dict] = {}
    for p, target in enumerate(targets):
        stops = []
        for x, q in crossings[p]:
            key = (min(p, q), max(p, q))
            if key not in shared:
                shared[key] = asm.splice(crosser, {})
            copy = shared[key]
            if p < q:
                stops.append((copy[crosser.terminals["x_W"]], copy[crosser.terminals["x_E"]]))
            else:
                stops.append((copy[crosser.terminals["x_N"]], copy[crosser.terminals["x_S"]]))
        at = target
        for enter, exit_ in stops:
            asm.splice(equal, {0: at, 1: enter})
            at = exit_
        asm.splice(equal, {0: at, 1: path_ids[p]})

    g = asm.graph()
    if len(connected_components(g)) > 1:
        raise ValueError("the hypergraph must be connected through shared "
                         "vertices; reduce its pieces separately")
    return GadgetGraph(g, terminals, planar_embedding(g))


def forward_coloring_girth8(h: Hypergraph3, hcol, g: GadgetGraph, k: int) -> dict:
    """forward_coloring_girth8 that re-derives build_J's and splice's id layout.

    The docstring of the original follows.

    Extend a valid hypergraph 2-coloring over the girth-8 reduction.

    Every coupler copy is properly 2-colored from its z-root, which makes
    the only monochromatic edges path edges; a run of three would be a
    monochromatic hyperedge. The result is audited to components of size 2.
    """
    for e in h.edges:
        if hcol[e[0]] == hcol[e[1]] == hcol[e[2]]:
            raise ValueError(f"hyperedge {e} is monochromatic")
    b, size_y = _tree_sizes(k)
    z_local = size_y
    n_local = size_y + 1 + b * b + b
    # parity of the distance from the y-root, by local id block
    blocks = [
        (1, 0),  # y-root
        (1 + b, 1),
        (1 + b + b * b, 0),
        (size_y, 1),  # leaves
        (z_local + 1, 0),  # z-root, distance 6
        (z_local + 1 + b, 1),
        (n_local, 0),
    ]

    def parity(local: int) -> int:
        for hi, par in blocks:
            if local < hi:
                return par
        raise AssertionError(f"local id {local} outside coupler")

    coloring = {v: hcol[v] for v in range(h.n)}
    cursor = h.n
    for triple in h.edges:
        for j in range(1, k + 2):
            ej = cursor
            cursor += 1
            base = hcol[triple[j % 3]]
            coloring[ej] = base
            # fresh ids follow local order with y (local 0) and z skipped
            for local in range(1, n_local):
                if local == z_local:
                    continue
                rank = local - 1 if local < z_local else local - 2
                coloring[cursor + rank] = base ^ parity(local)
            cursor += n_local - 2
    if cursor != g.graph.n:
        raise ValueError("graph does not match this hypergraph and k")
    report = audit(g.graph, coloring, max_size=2)
    if report.oversized_components:
        raise AssertionError("forward coloring produced an oversized component")
    return coloring


def config_path(g, max_vertices: int, anchors, low_deg: int, end_deg: int) -> list[int] | None:
    """regimes._config_path as a path BFS, then a second BFS for the cycle.

    The docstring of the original follows.

    Path of at most max_vertices low-degree vertices with exact-degree ends.

    Ends may coincide: a short cycle through a single end-degree vertex whose
    other vertices all have low degree also qualifies (the repeated endpoint is
    listed once). Isolated low-degree vertices are found first. Only anchors
    are tried as the first end, so every pattern with an end at an anchor is
    found; the far end may be any vertex. None tries every vertex.
    """
    if anchors is None:
        anchors = g.vertices()
    for v in anchors:
        if g.degree(v) <= end_deg - 1:
            return [v]
    # BFS inside the low-degree subgraph from each endpoint, looking for
    # another endpoint within max_vertices - 1 steps
    depth_cap = max_vertices - 1
    for s in anchors:
        if g.degree(s) != end_deg:
            continue
        prev = {s: -1}
        level = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if level[x] >= depth_cap:
                continue
            for y in g.neighbors(x):
                dy = g.degree(y)
                if dy <= low_deg and y not in level:
                    level[y] = level[x] + 1
                    prev[y] = x
                    if dy == end_deg:
                        path = [y]
                        while path[-1] != s:
                            path.append(prev[path[-1]])
                        return path
                    queue.append(y)
        # coincident ends: shortest low-degree cycle through s, at most
        # max_vertices - 1 further vertices
        cyc = short_cycle_through(g, s, low_deg, max_len=max_vertices)
        if cyc is not None:
            return cyc
    return None


def short_cycle_through(g, s: int, low_deg: int, max_len: int) -> list[int] | None:
    """A cycle through s of at most max_len vertices, others of degree <= low_deg.

    BFS from s labeling each vertex with the first neighbor of s on its branch;
    an edge joining two branches (or a branch back to s at distance >= 2 along
    a different branch) closes a cycle through s.
    """
    branch = {s: s}
    prev = {s: -1}
    level = {s: 0}
    queue = deque()
    for u in g.neighbors(s):
        if g.degree(u) <= low_deg:
            branch[u] = u
            prev[u] = s
            level[u] = 1
            queue.append(u)
    best: list[int] | None = None
    while queue:
        x = queue.popleft()
        if 2 * level[x] + 1 > max_len:
            break
        for y in g.neighbors(x):
            if y == s or g.degree(y) > low_deg:
                continue
            if y not in branch:
                branch[y] = branch[x]
                prev[y] = x
                level[y] = level[x] + 1
                queue.append(y)
            elif branch[y] != branch[x] and prev[x] != y:
                length = level[x] + level[y] + 1
                if length <= max_len:
                    left = [x]
                    while left[-1] != s:
                        left.append(prev[left[-1]])
                    right = [y]
                    while right[-1] != s:
                        right.append(prev[right[-1]])
                    cycle = list(dict.fromkeys(left + right))
                    if len(cycle) <= max_len:
                        if best is None or len(cycle) < len(best):
                            best = cycle
        if best is not None and len(best) <= 2 * level[x]:
            break
    return best


# is_island counting each member's outside neighbours through a generator


def is_island(g: Graph | LiveView, members, k: int) -> IslandWitness | None:
    """The witness that an explicit vertex set is a k-island, or None.

    None for an empty set, a vertex outside the graph (on a LiveView, a
    removed one) or a member with more than k neighbors outside the set.
    """
    mset = set(members)
    if not mset or any(v not in g for v in mset):
        return None
    outside = {}
    for v in sorted(mset):
        cnt = sum(1 for u in g.neighbors(v) if u not in mset)
        if cnt > k:
            return None
        outside[v] = cnt
    return IslandWitness(members=tuple(sorted(mset)), k=k, outside_degrees=outside)


# find_island with the search that copies its member set at every include
# step and rescans every member for violators at every node


def find_island(g: Graph | LiveView, k: int, size: int, restrict_to=None) -> IslandWitness | None:
    """Search for a k-island of at most `size` vertices; None if none exists.

    Complete: a minimal island is connected, so it lies in the subgraph
    induced by vertices of degree at most k + size - 1 (each member has at
    most k neighbors outside and at most size - 1 inside). The search seeds at
    each candidate vertex in increasing id order and only ever adds vertices
    with id at least the seed, which is sound because the component of the
    island's minimum vertex is itself an island.

    With restrict_to set, members are drawn only from that vertex set, but
    outside-neighbor counts still refer to the full graph, so any witness is a
    genuine island of g. An id in restrict_to outside 0..n-1 is a ValueError.
    """
    if k < 0 or size < 1:
        raise ValueError("need k >= 0 and size >= 1")
    degree_cap = k + size - 1
    pool = g.vertices() if restrict_to is None else sorted(set(restrict_to))
    if pool and not (0 <= pool[0] and pool[-1] < g.n):
        raise ValueError(f"restrict_to names vertices outside 0..{g.n - 1}")
    candidates = [v for v in pool if g.degree(v) <= degree_cap]
    cand_set = set(candidates)
    for seed in candidates:
        hit = _grow_island(g, k, size, seed, cand_set)
        if hit is not None:
            witness = is_island(g, hit, k)
            if witness is None:
                raise AssertionError(f"island search produced a non-island: {hit}")
            return witness
    return None


def _grow_island(g: Graph | LiveView, k: int, size: int, seed: int, cand_set: set[int]) -> set[int] | None:
    """Branch search for an island containing seed, ids >= seed, within cand_set.

    Depth first over (included, excluded) pairs on an explicit stack, so the
    search depth is not bounded by Python's recursion limit: each step adds
    the least undecided neighbor u of the least violating member, trying the
    branch that includes u before the one that excludes it.
    """
    stack = [({seed}, set())]
    while stack:
        included, excluded = stack.pop()
        p = min((v for v in included if sum(1 for u in g.neighbors(v) if u not in included) > k),
                default=None)
        if p is None:
            return included
        if len(included) == size:
            continue
        # the violator must absorb an undecided neighbor; it cannot if too
        # many of its neighbors are already excluded
        if sum(1 for u in g.neighbors(p) if u in excluded or u not in cand_set or u < seed) > k:
            continue
        undecided = [
            u
            for u in g.neighbors(p)
            if u not in included and u not in excluded and u in cand_set and u >= seed
        ]
        if undecided:
            u = min(undecided)
            stack.append((included, excluded | {u}))
            stack.append((included | {u}, excluded))
    return None


# ---------------------------------------------------------------------------
# the readers that read rows lazily and convert every token by int() as they
# reach it; `signs:` may repeat, as it could in these readers


def significant_lines(text: str) -> list[str]:
    """The non-blank lines, stripped; in every format "#" comments out the rest of a line."""
    out = []
    for raw in text.splitlines():
        line = raw.partition("#")[0].strip()
        if line:
            out.append(line)
    return out


def read_rows(text: str, width: int, what: str) -> tuple[int, Iterator[tuple[int, ...]], list[str]]:
    """Read the header "n m" and m rows of `width` integers, naming rows `what`.

    Returns n, the rows, and the significant lines after them for the caller.
    The rows are an iterator that parses each row as it is reached, so no row
    outlives its use (a malformed row raises there); the row count is
    checked at once.
    """
    lines = significant_lines(text)
    if not lines:
        raise ValueError("empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}; expected 'n m'")
    n, m = int(header[0]), int(header[1])
    if n > MAX_VERTICES:
        raise ValueError(f"header declares {n} vertices; at most {MAX_VERTICES} are read")
    body = lines[1 : 1 + m]
    if len(body) != m:
        raise ValueError(f"expected {m} {what}s, found {len(body)}")
    return n, _rows(body, width, what), lines[1 + m :]


def _rows(lines: list[str], width: int, what: str) -> Iterator[tuple[int, ...]]:
    for line in lines:
        parts = line.split()
        if len(parts) != width:
            raise ValueError(f"bad {what} line {line!r}")
        yield tuple(map(int, parts))


def parse_graph(text: str) -> tuple[Graph, Embedding | None]:
    """Parse a graph file, a header "n m" then m lines "u v": the graph, and the
    embedding its rotation lines give (checked) if it is an embedding file, else None.
    """
    n, edges, rest = read_rows(text, 2, "edge")
    g = Graph(n, edges)
    return g, read_rotations(g, rest) if rest else None


def parse_embedding(text: str) -> Embedding:
    """Parse the embedding format: a graph section, rotation lines, optional signs."""
    n, edges, rest = read_rows(text, 2, "edge")
    return read_rotations(Graph(n, edges), rest)


def _vertex_lines(lines: list[str], n: int, what: str, expected: str) -> dict[int, list[int]]:
    """Lines "v: a b c" as {v: [a, b, c]}, one line per v in 0..n-1; errors name them `what`."""
    rows: dict[int, list[int]] = {}
    for line in lines:
        head, sep, rest = line.partition(":")
        if not sep:
            raise ValueError(f"bad {what} line {line!r}; expected '{expected}'")
        v = int(head)
        if not 0 <= v < n:
            raise ValueError(f"{what} line names vertex {v}, which a graph of {n} vertices lacks")
        if v in rows:
            raise ValueError(f"two {what} lines for vertex {v}")
        rows[v] = [int(x) for x in rest.split()]
    return rows


def read_rotations(g: Graph, lines: list[str]) -> Embedding:
    """The embedding of g given by rotation lines "v: a b c", one per vertex,
    then an optional section "signs:" of lines "u v -1". A vertex or an edge
    named twice is an error.
    """
    cut = lines.index("signs:") if "signs:" in lines else len(lines)
    rotations = _vertex_lines(lines[:cut], g.n, "rotation", "v: a b c")
    signs: dict[tuple[int, int], int] = {}
    for line in lines[cut + 1 :]:
        if line == "signs:":
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad sign line {line!r}; expected 'u v -1'")
        u, v, s = int(parts[0]), int(parts[1]), int(parts[2])
        key = (u, v) if u < v else (v, u)
        if key in signs:
            raise ValueError(f"two sign lines for edge {key}")
        signs[key] = s
    for v in range(g.n):
        if v not in rotations and g.degree(v):
            raise ValueError(f"missing rotation for vertex {v}")
    return Embedding(g, [rotations.get(v, ()) for v in range(g.n)], signs)


def parse_hypergraph(text: str) -> Hypergraph3:
    """Parse the hypergraph format: a header "n m", then m lines "a b c"."""
    n, edges, rest = read_rows(text, 3, "hyperedge")
    h = Hypergraph3.from_edges(n, edges)
    if rest:
        raise ValueError(f"trailing content after {len(h.edges)} hyperedges: {rest[0]!r}")
    return h


def parse_lists(text: str, n: int) -> dict[int, list[int]]:
    """Per-vertex color menus of a graph of n vertices, one line "v: c1 c2 ..." each."""
    lists = _vertex_lines(significant_lines(text), n, "list", "v: c1 c2 ...")
    for v, colors in lists.items():
        if not colors:
            raise ValueError(f"empty list for vertex {v}")
    return lists


def parse_coloring(text: str, n: int) -> dict[int, int]:
    """Chosen colors of a graph of n vertices, one line "v c" each."""
    coloring: dict[int, int] = {}
    for line in significant_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad coloring line {line!r}; expected 'v c'")
        v = int(parts[0])
        if not 0 <= v < n:
            raise ValueError(f"coloring line names vertex {v}, which a graph of {n} vertices lacks")
        if v in coloring:
            raise ValueError(f"vertex {v} colored twice")
        coloring[v] = int(parts[1])
    return coloring


# ---------------------------------------------------------------------------
# graph helpers used only by tests


class CountingGraph(Graph):
    """A Graph that counts the calls made to its neighbors()."""

    def __init__(self, n: int, edges):
        super().__init__(n, edges)
        self.reads = 0

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.reads += 1
        return self._adj[v]


def distance(g: Graph, s: int, t: int) -> float:
    """BFS distance between s and t; math.inf if disconnected."""
    if s == t:
        return 0
    level = {s: 0}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y not in level:
                level[y] = level[x] + 1
                if y == t:
                    return level[y]
                queue.append(y)
    return math.inf


def degeneracy_order(g: Graph) -> tuple[int, list[int]]:
    """Degeneracy of g plus an elimination order witnessing it.

    Repeatedly removes a minimum-degree vertex; the largest degree seen at
    removal time is the degeneracy. Every suffix of the returned order induces
    a subgraph whose first vertex has at most that many later neighbors.
    """
    if g.n == 0:
        return 0, []
    deg = [g.degree(v) for v in range(g.n)]
    heap = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    removed = [False] * g.n
    order = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        degeneracy = max(degeneracy, d)
        order.append(v)
        for u in g.neighbors(v):
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return degeneracy, order
