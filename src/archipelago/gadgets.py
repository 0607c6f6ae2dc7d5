"""Terminal gadgets and the two hardness reductions built on them.

The building blocks force color relations between named terminal vertices
under colorings whose monochromatic components are bounded:

* tree / J couplers: girth-8 bipartite gadgets whose two roots must agree;
* N links: force their two terminals apart;
* equalizers (complete bipartite K_{2,m}): force their two terminals equal;
* uncrossers: let two independent color channels pass through each other,
  which planarizes a drawing one crossing at a time.

Reductions translate 3-uniform hypergraph 2-colorability into bounded
monochromatic-component 2-colorability, once with girth 8 preserved and once
inside the plane. A hypergraph coloring carries over the girth-8 reduction by
graphs.parity_coloring, rooted at the hypergraph's vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from archipelago import graphs
from archipelago.certify import audit
from archipelago.graphs import (
    Embedding,
    Graph,
    Hypergraph3,
    check_size,
    connected_components,
    euler_characteristic,
    parity_coloring,
)
from archipelago.solver import mc_decide


@dataclass(frozen=True)
class GadgetGraph:
    graph: Graph
    terminals: dict
    embedding: Embedding | None = None

    def __post_init__(self):
        for name, v in self.terminals.items():
            if not 0 <= v < self.graph.n:
                raise ValueError(f"terminal {name} = {v} out of range")
        if self.embedding is not None:
            if self.embedding.graph != self.graph:
                raise ValueError("embedding belongs to a different graph")
            if euler_characteristic(self.embedding) != 2:
                raise ValueError("gadget embeddings must be spherical")


class _Assembler:
    """Grows a graph by splicing in gadget copies with shared terminals.

    A gadget spliced with an embedding, or an edge added with keys, is also
    drawn: at every vertex it touches it records its clockwise block of
    neighbors under a sort key, and a vertex's rotation is its blocks in key
    order. Keys matter only where a vertex gets three blocks or more.
    """

    def __init__(self, n: int = 0):
        self.n = n
        self.edges: list[tuple[int, int]] = []
        self.blocks: list[list[tuple]] = [[] for _ in range(n)]

    def fresh(self) -> int:
        v = self.n
        self.n += 1
        self.blocks.append([])
        return v

    def add_edge(self, u: int, v: int, keys: tuple | None = None):
        """Add the edge uv; with keys (at u, at v), draw it at both ends too."""
        self.edges.append((u, v))
        if keys is not None:
            self.blocks[u].append((keys[0], (v,)))
            self.blocks[v].append((keys[1], (u,)))

    def splice(self, gadget: GadgetGraph, identify: dict, keys: dict | None = None) -> list[int]:
        """Copy a gadget in, mapping the given local ids onto existing ones.

        The rest take fresh ids in local order; returns each local id's global id.
        A drawn gadget's block at local vertex v is filed under keys[v], by default 0.
        """
        ids = [identify[v] if v in identify else self.fresh() for v in range(gadget.graph.n)]
        self.edges.extend((ids[u], ids[v]) for u, nbrs in enumerate(gadget.graph.adjacency) for v in nbrs if u < v)
        if gadget.embedding is not None:
            keys = keys or {}
            for v, rot in enumerate(gadget.embedding.rotations):
                self.blocks[ids[v]].append((keys.get(v, 0), [ids[w] for w in rot]))
        return ids

    def graph(self) -> Graph:
        return Graph(self.n, self.edges)

    def embedding(self) -> Embedding:
        """The drawn rotation system; every edge must have been drawn."""
        rotations = [
            [w for _, block in sorted(blocks, key=lambda b: b[0]) for w in block]
            for blocks in self.blocks
        ]
        return Embedding(self.graph(), rotations)


# -- coupler trees ------------------------------------------------------------


def _tree_sizes(t: int) -> tuple[int, int]:
    b = 5 * t
    return b, 1 + b + b * b + b**3


def _coupler_size(t: int) -> int:
    """Vertices of build_J(t): a coupler tree plus the second tree's root and internal layers."""
    b, size_y = _tree_sizes(t)
    return size_y + 1 + b + b * b


def build_tree(t: int) -> GadgetGraph:
    """Complete rooted tree of height 3, branching 5t, root terminal x.

    Ids are breadth-first: the children of p are p*5t + 1 .. p*5t + 5t. The
    (5t)^3 leaves occupy the final contiguous block in lexicographic order of
    their (l1, l2, l3) labels; tree_leaf maps a label to its id.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    b, n = _tree_sizes(t)
    check_size(n, "build_tree")
    return GadgetGraph(Graph(n, [((v - 1) // b, v) for v in range(1, n)]), {"x": 0})


def _leaf(b: int, l1: int, l2: int, l3: int) -> int:
    """Id of the leaf labelled (l1, l2, l3), labels counted from 0, in the tree of branching b."""
    return 1 + b + b * b + (l1 * b + l2) * b + l3


def tree_leaf(t: int, l1: int, l2: int, l3: int) -> int:
    """Id of the leaf labelled (l1, l2, l3), labels counted from 1."""
    b, _ = _tree_sizes(t)
    for l in (l1, l2, l3):
        if not 1 <= l <= b:
            raise ValueError(f"leaf label {l} outside 1..{b}")
    return _leaf(b, l1 - 1, l2 - 1, l3 - 1)


def build_J(t: int) -> GadgetGraph:
    """Two coupler trees glued leaf-to-leaf with reversed labels.

    build_tree(t) is spliced in twice, the second copy's leaf (l1, l2, l3)
    identified with the first's leaf (l3, l2, l1). The second copy's root z
    and internal layers take the next ids in breadth-first order.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    check_size(_coupler_size(t), "build_J")
    b, _ = _tree_sizes(t)
    tree = build_tree(t)
    asm = _Assembler()
    asm.splice(tree, {})
    glue = {_leaf(b, l1, l2, l3): _leaf(b, l3, l2, l1) for l1, l2, l3 in product(range(b), repeat=3)}
    z = asm.splice(tree, glue)[0]
    return GadgetGraph(asm.graph(), {"y": 0, "z": z})


@dataclass(frozen=True)
class CountingCheck:
    t: int
    lhs: int
    rhs: Fraction
    holds: bool


def counting_check_J(t: int) -> CountingCheck:
    """Exact check that (4t+1)^3 exceeds half of (5t)^3.

    This margin is what forces the two coupler roots to agree: a root
    colored c passes color 1-c to at least 4t+1 of any internal vertex's 5t
    children, so more than half of all leaves end up colored by root parity,
    and the two trees share all their leaves. This is the program's check of
    the coupler's counting claim; the tests run it for t = 2..1000.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    lhs = (4 * t + 1) ** 3
    rhs = Fraction((5 * t) ** 3, 2)
    return CountingCheck(t, lhs, rhs, lhs > rhs)


# -- links and the uncrosser ---------------------------------------------------


def build_N(k: int) -> GadgetGraph:
    """Distinct-color link: terminals y, z over a path of 3k^4 vertices.

    y sees the even-indexed path vertices and z the odd ones. If y and z
    shared a color, too few path vertices could take it, leaving a run of
    the opposite color longer than k(k-1).

    Drawn with y above, z below, the path running west to east. Clockwise,
    y lists the even v_i east to west and z the odd v_i west to east; v_i
    lists y (north), v_{i+1} (east), z (south), v_{i-1} (west), each where
    it is a neighbor.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    length = 3 * k**4
    check_size(length + 2, "build_N")
    # keys at v_i; y and z order the path by -i and by i
    north, east, south, west = 0, 1, 2, 3
    asm = _Assembler(length + 2)
    for i in range(1, length + 1):
        v = 1 + i  # v_i; y is 0, z is 1
        if i < length:
            asm.add_edge(v, v + 1, (east, west))
        if i % 2 == 0:
            asm.add_edge(0, v, (-i, north))
        else:
            asm.add_edge(1, v, (i, south))
    emb = asm.embedding()
    return GadgetGraph(emb.graph, {"y": 0, "z": 1}, emb)


def build_equalizer(k: int) -> GadgetGraph:
    """Equal-color link: K_{2, 2k(k-1)-1} with terminals on the small side.

    If the terminals differed, each of the 2k(k-1)-1 middle vertices would
    join one terminal's component, and some component would exceed k(k-1).

    Drawn as a lens: clockwise, y lists the middles [m1..mt], z lists
    [mt..m1], and each middle lists y, then z.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    middles = 2 * k * (k - 1) - 1
    check_size(2 + middles, "build_equalizer")
    asm = _Assembler(2 + middles)
    for side, sign in ((0, 1), (1, -1)):  # y lists the middles by key i, z by -i
        for i in range(middles):
            asm.add_edge(side, 2 + i, (sign * i, side))
    emb = asm.embedding()
    return GadgetGraph(emb.graph, {"y": 0, "z": 1}, emb)


def _uncrosser_size(k: int) -> int:
    """build_uncrosser(k)'s vertex count: its terminals and pendants, plus the
    inner vertices of its 2k-1 distinct-links and 2(k-1)^2+1 equalizers."""
    ys = 2 * (k - 1)
    return 5 + ys + ys * (k - 1) + (ys + 1) * 3 * k**4 + (ys * (k - 1) + 1) * (2 * k * (k - 1) - 1)


def build_uncrosser(k: int) -> GadgetGraph:
    """Crossing replacement with terminals x_N, x_S, x_W, x_E, x_C, y_1..y_{2(k-1)}.

    One color channel runs west to east, the other north to south. The y_i
    chain alternates via distinct-links from x_W and ends equalized to x_E;
    every y_i carries k-1 pendants equalized to x_N and a direct edge to x_C,
    and x_C is distinct-linked to x_S. Correctness is computational: the
    construction must pass validate_uncrosser.

    The embedding is a fixed drawing: the chain runs west to east with the
    pendants above it, x_N above them and x_C below the chain, x_S below
    x_C. Clockwise, y_i lists its pendants west to east, then the link
    east, x_C and the link west; x_N lists all pendants east to west, and
    x_C lists y_1..y_{2(k-1)}, then its link to x_S. The outer face meets
    x_W, x_N, x_E, x_S in that clockwise order.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    check_size(_uncrosser_size(k), "build_uncrosser")
    asm = _Assembler()
    terminals = {name: asm.fresh() for name in ("x_N", "x_S", "x_W", "x_E", "x_C")}
    ys = []
    for i in range(1, 2 * (k - 1) + 1):
        ys.append(asm.fresh())
        terminals[f"y_{i}"] = ys[-1]
    distinct = build_N(k)
    equal = build_equalizer(k)
    # keys at y_i: pendants 0..k-2, then east, south (x_C), west
    east, south, west = k - 1, k, k + 1

    chain = [terminals["x_W"], *ys]
    for u, v in zip(chain, chain[1:]):
        asm.splice(distinct, {0: u, 1: v}, {0: east, 1: west})
    asm.splice(equal, {0: ys[-1], 1: terminals["x_E"]}, {0: east})
    pendants = 0
    for i, y in enumerate(ys):
        for j in range(k - 1):
            p = asm.fresh()
            asm.add_edge(y, p, (j, 0))
            asm.splice(equal, {0: p, 1: terminals["x_N"]}, {1: -pendants})
            pendants += 1
        asm.add_edge(terminals["x_C"], y, (i, south))
    asm.splice(distinct, {0: terminals["x_C"], 1: terminals["x_S"]}, {0: len(ys)})

    emb = asm.embedding()
    return GadgetGraph(emb.graph, terminals, emb)


@dataclass(frozen=True)
class UncrosserReport:
    """Solver-checked terminal behavior of an uncrosser candidate.

    Verdict "pass" means: under components bounded by k(k-1), no coloring
    separates x_N from x_S or x_W from x_E; and under components bounded by
    k, both an agreeing and a disagreeing x_N/x_W coloring exist.
    """

    verdict: str  # "pass" | "fail" | "inconclusive"
    checks: dict = field(repr=False)
    counterexample: dict | None = None
    same_witness: dict | None = field(default=None, repr=False)
    distinct_witness: dict | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


def validate_uncrosser(u: GadgetGraph, k: int, budget: int = 10**6) -> UncrosserReport:
    t = u.terminals
    kk = k * (k - 1)
    checks = {
        "north_south_split": (mc_decide(u.graph, kk, pins={t["x_N"]: 0, t["x_S"]: 1}, budget=budget), "no"),
        "west_east_split": (mc_decide(u.graph, kk, pins={t["x_W"]: 0, t["x_E"]: 1}, budget=budget), "no"),
        "corner_agree": (mc_decide(u.graph, k, pins={t["x_N"]: 0, t["x_W"]: 0}, budget=budget), "yes"),
        "corner_disagree": (mc_decide(u.graph, k, pins={t["x_N"]: 0, t["x_W"]: 1}, budget=budget), "yes"),
    }
    counterexample = None
    failed = inconclusive = False
    for name, (res, want) in checks.items():
        if res.verdict == "inconclusive":
            inconclusive = True
        elif res.verdict != want:
            failed = True
            if want == "no" and res.verdict == "yes":
                counterexample = res.coloring
    verdict = "fail" if failed else ("inconclusive" if inconclusive else "pass")
    return UncrosserReport(
        verdict,
        {name: res for name, (res, _) in checks.items()},
        counterexample,
        checks["corner_agree"][0].coloring,
        checks["corner_disagree"][0].coloring,
    )


# -- reductions ----------------------------------------------------------------


def reduce_girth8(h: Hypergraph3, k: int) -> GadgetGraph:
    """Hypergraph 2-colorability as bounded-component coloring at girth 8.

    Primitive vertices keep ids 0..n-1. Each hyperedge contributes a path of
    k+1 fresh vertices, and the j-th path vertex (j from 1) is the y-root of
    a fresh coupler whose z-root is the hyperedge's vertex u_{j mod 3}. A
    2-coloring of the hypergraph extends to components of size at most 2;
    a monochromatic hyperedge forces a monochromatic path of k+1 vertices.
    Raises ValueError if the result would exceed graphs.MAX_VERTICES.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    # each path vertex is a coupler's y-root; its z-root is a primitive
    check_size(h.n + len(h.edges) * (k + 1) * (_coupler_size(k) - 1), "reduce_girth8")
    coupler = build_J(k)
    z_local = coupler.terminals["z"]
    asm = _Assembler(h.n)
    terminals = {f"v{v}": v for v in range(h.n)}
    for idx, triple in enumerate(h.edges):
        prev = None
        for j in range(1, k + 2):
            ej = asm.fresh()
            terminals[f"e{idx}_{j}"] = ej
            if prev is not None:
                asm.add_edge(prev, ej)
            asm.splice(coupler, {0: ej, z_local: triple[j % 3]})
            prev = ej
    return GadgetGraph(asm.graph(), terminals)


def forward_coloring_girth8(h: Hypergraph3, hcol, g: GadgetGraph, k: int) -> dict:
    """Extend a valid hypergraph 2-coloring over the girth-8 reduction.

    Without its path edges the reduction falls into one bipartite piece per
    primitive: the primitive and the couplers whose z-root it is. Each piece
    is properly 2-colored by graphs.parity_coloring from its primitive, which
    makes the only monochromatic edges path edges; a run of three would be a
    monochromatic hyperedge. The result is audited to components of size 2.
    """
    for e in h.edges:
        if hcol[e[0]] == hcol[e[1]] == hcol[e[2]]:
            raise ValueError(f"hyperedge {e} is monochromatic")
    path = [f"e{i}_{j}" for i in range(len(h.edges)) for j in range(1, k + 2)]
    if set(g.terminals) != {f"v{v}" for v in range(h.n)}.union(path):
        raise ValueError("graph does not match this hypergraph and k")
    ends = {g.terminals[name] for name in path}
    pieces = Graph(g.graph.n, [(u, v) for u, v in g.graph.edges() if u not in ends or v not in ends])
    coloring = dict(enumerate(parity_coloring(pieces, {g.terminals[f"v{v}"]: hcol[v] for v in range(h.n)})))
    report = audit(g.graph, coloring, max_size=2)
    if report.oversized_components:
        raise AssertionError("forward coloring produced an oversized component")
    return coloring


def _layout_crossings(targets: list[int], slots: dict, most: int) -> list[list[int]] | None:
    """Pairwise crossings of the connectors, as a wiring diagram.

    Connector p joins path vertex p to its primitive, slots[targets[p]].
    Ordered bottom to top, the connectors leave the primitive line by slot,
    ties by path index, and reach the path line by path index. Insertion
    sort takes the one order to the other by adjacent swaps, each of one
    pair p < q with q's slot below p's, and each swap is a crossing. Taken
    in swap order the swaps draw every connector as a curve crossing the
    others one at a time: planar, with no ties to break. Returns, per
    connector, the connectors it crosses, from the primitive side inward;
    or None as soon as the connectors laid out cross more than `most` times.
    """
    rows: list[list[int]] = [[] for _ in targets]
    order: list[int] = []
    for p in sorted(range(len(targets)), key=lambda c: slots[targets[c]]):
        order.append(p)
        i = len(order) - 1
        while i and order[i - 1] > p:  # p sinks below q, crossing it
            q = order[i - 1]
            rows[p].append(q)
            rows[q].append(p)
            order[i] = q
            i -= 1
        order[i] = p
        most -= len(order) - 1 - i  # the crossings p just made
        if most < 0:
            return None
    return rows


def reduce_planar(h: Hypergraph3, k: int) -> GadgetGraph:
    """Hypergraph 2-colorability as bounded-component coloring in the plane.

    Each hyperedge gets a path of k(k-1)+1 fresh vertices whose j-th vertex
    is equalized to the hyperedge's vertex u_{j mod 3}; a monochromatic
    hyperedge would force the whole path monochromatic. The drawing puts
    path vertices on one vertical line in path order and primitives on
    another in first-use order; connectors cross as _layout_crossings' wiring
    diagram lays them out, and every crossing is replaced by an uncrosser,
    entered west-east by the lower-index connector and north-south by the
    other, with equalizers joining the pieces.

    The embedding is read off that drawing, with the path line on the west,
    the path running upward and the primitive line on the east. Clockwise,
    a primitive lists its connectors in ascending path index, and a path
    vertex lists the next path vertex, its connector, then the previous
    one. Two crossing connectors p < q have their primitive slots in the
    opposite order, so around every crossing the arms run p's primitive
    side, q's, p's path side, q's: the uncrosser's x_W, x_N, x_E, x_S, and
    no copy is mirrored. Equalizers are lenses along their connector. The
    rotation system is re-traced to Euler characteristic 2, which certifies
    the drawing planar. Raises ValueError if the result would exceed
    graphs.MAX_VERTICES, before building anything.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    # a single spherical drawing holds exactly one connected piece
    if {v for t in h.edges for v in t} != set(range(h.n)):
        raise ValueError("every vertex must occur in some hyperedge; "
                         "drop isolated vertices first")
    pairs = {(a, b) for a, b, _ in h.edges} | {(b, c) for _, b, c in h.edges}
    if len(connected_components(Graph(h.n, pairs))) != 1:
        raise ValueError("the hypergraph must be connected through shared "
                         "vertices; reduce its pieces separately")
    length = k * (k - 1) + 1
    middles = 2 * k * (k - 1) - 1
    # the size without crossings, refused first: the connectors alone are
    # quadratic in k. Each crossing adds an uncrosser, and an equalizer to
    # each of its two connectors
    fixed = h.n + len(h.edges) * length * (1 + middles)
    check_size(fixed, "reduce_planar's crossing-free part")
    targets = [triple[j % 3] for triple in h.edges for j in range(1, length + 1)]
    slots: dict[int, int] = {}
    for u in targets:
        if u not in slots:
            slots[u] = len(slots)
    most = (graphs.MAX_VERTICES - fixed) // (_uncrosser_size(k) + 2 * middles)
    crossings = _layout_crossings(targets, slots, most)
    if crossings is None:
        raise ValueError(f"reduce_planar would build more than {graphs.MAX_VERTICES} vertices; "
                         f"its connectors cross more than {most} times")

    # keys at a path vertex: the next one, its connector, the previous one
    north, east, south = 0, 1, 2
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
                asm.add_edge(prev, ej, (north, south))
            prev = ej

    uncrosser = build_uncrosser(k)
    equal = build_equalizer(k)
    # one shared uncrosser per crossing pair, keyed with the lower index first
    shared: dict[tuple[int, int], list[int]] = {}
    for p, target in enumerate(targets):
        stops = []
        for q in crossings[p]:
            key = (min(p, q), max(p, q))
            if key not in shared:
                shared[key] = asm.splice(uncrosser, {})
            copy = shared[key]
            if p < q:
                stops.append((copy[uncrosser.terminals["x_W"]], copy[uncrosser.terminals["x_E"]]))
            else:
                stops.append((copy[uncrosser.terminals["x_N"]], copy[uncrosser.terminals["x_S"]]))
        # key p orders the connectors at the primitive; an uncrosser
        # terminal has only its own block and the equalizer's
        at = target
        for enter, exit_ in stops:
            asm.splice(equal, {0: at, 1: enter}, {0: p, 1: east})
            at = exit_
        asm.splice(equal, {0: at, 1: path_ids[p]}, {0: p, 1: east})

    emb = asm.embedding()
    return GadgetGraph(emb.graph, terminals, emb)


# -- brute-force hypergraph oracle ----------------------------------------------


def hyper2color(h: Hypergraph3):
    """2-coloring of the hypergraph with no monochromatic triple, or None.

    Depth-first over vertices in id order, pruning as soon as a fully
    colored triple goes monochromatic. Exhaustive, so refusals are proofs;
    capped at 30 vertices.
    """
    if h.n > 30:
        raise ValueError("hypergraph too large for exhaustive search (n > 30)")
    by_max: list[list[tuple]] = [[] for _ in range(h.n)]
    for e in h.edges:
        by_max[e[2]].append(e)
    colors = [-1] * h.n

    def extend(v: int) -> bool:
        """Color v, v + 1, .. in turn, trying 0 before 1; the depth is at most 30."""
        if v == h.n:
            return True
        for c in (0, 1):
            colors[v] = c
            if not any(colors[a] == colors[b] == c for a, b, _ in by_max[v]) and extend(v + 1):
                return True
        return False

    return {u: colors[u] for u in range(h.n)} if extend(0) else None
