"""The guarantee table: one row per parameter regime.

  A: any connected embedded graph; 4-islands of at most 3 vertices.
  B: triangle-free; 2-islands of at most 10 vertices.
  C: girth at least 6; 1-islands of at most 16 vertices.

A row holds every fact the program uses about its regime, and island
search, peeling and discharging read the row, never the regime's name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

from archipelago.graphs import Embedding, Graph, LiveView, girth, reverse_walk


class Transfer(NamedTuple):
    """One application of a discharging rule.

    A named tuple, so it unpacks as (rule, source, target, amount). Each
    element is named ("v", vertex id) or ("f", face index), and a rule run
    names every element with one shared tuple; the amount is a Fraction.
    """

    rule: str
    source: tuple[str, int]
    target: tuple[str, int]
    amount: Fraction

    def __str__(self) -> str:
        return (
            f"rule={self.rule} from={self.source[0]}{self.source[1]} "
            f"to={self.target[0]}{self.target[1]} amount={self.amount}"
        )


@dataclass(frozen=True)
class Regime:
    """One row of the guarantee table."""

    name: str
    k: int  # island members may have at most k neighbors outside
    size: int  # an island of at most this many vertices is guaranteed
    factor: int  # guarantee holds once n > factor * (-chi)
    # constant-size island patterns: scan(g, size, anchors) searches from
    # the anchors (a re-iterable of vertices, or None for every vertex) and
    # returns members or None
    scan: Callable[[Graph | LiveView, int, Iterable[int] | None], list[int] | None]
    vertex_charge: tuple[int, int]  # (a, b): a vertex of degree d starts with a*d + b
    face_charge: tuple[int, int]  # (c, e): a face of degree d starts with c*d + e
    rules: Callable[[Embedding], Iterator[Transfer]]  # transfers in the order applied
    vertex_bound: Fraction  # a vertex ending below this has an island nearby
    face_bound: Fraction | None  # likewise for faces; None: faces hold no charge
    precondition: Callable[[Graph], bool] = lambda g: True
    needs: str = ""  # the precondition in words, for errors
    planar_size: int | None = None  # island size on 2-edge-connected planar input

    def __repr__(self) -> str:
        return f"Regime(name={self.name!r}, k={self.k}, size={self.size}, factor={self.factor})"

    def threshold(self, chi: int) -> int:
        """Largest order with no guarantee: islands promised once n exceeds this."""
        return max(0, -self.factor * chi)


# ---------------------------------------------------------------------------
# forbidden configurations: constant-size patterns that are islands directly


def _config_regime_a(g: Graph | LiveView, size: int, anchors: Iterable[int] | None) -> list[int] | None:
    # every pattern has at most `size` (3) vertices and is exhaustive for A:
    # some pattern is found whenever one contains an anchor
    every = anchors is None
    if every:
        anchors = g.vertices()
    # single vertex of degree at most 4
    for v in anchors:
        if g.degree(v) <= 4:
            return [v]
    # edge between two degree-5 vertices
    for v in anchors:
        if g.degree(v) == 5:
            for u in g.neighbors(v):
                if g.degree(u) == 5:
                    return [v, u]
    # degree-5, degree-(at most 6), degree-5 path: the anchor in the middle,
    # then at an end (when every vertex is an anchor, every middle is one)
    mids = anchors if every else chain(
        anchors, (u for v in anchors if g.degree(v) == 5 for u in g.neighbors(v)))
    for mid in mids:
        if g.degree(mid) <= 6:
            fives = [u for u in g.neighbors(mid) if g.degree(u) == 5]
            if len(fives) >= 2:
                return [fives[0], mid, fives[1]]
    # triangle with all degrees at most 6
    for u in anchors:
        if g.degree(u) <= 6:
            nu = set(g.neighbors(u))
            for v in g.neighbors(u):
                if g.degree(v) <= 6:
                    for w in g.neighbors(v):
                        if w in nu and g.degree(w) <= 6:
                            return [u, v, w]
    return None


def _config_path(g: Graph | LiveView, max_vertices: int, anchors: Iterable[int] | None,
                 low_deg: int, end_deg: int) -> list[int] | None:
    """Path of at most max_vertices low-degree vertices with exact-degree ends.

    Ends may coincide: a short cycle through a single end-degree vertex whose
    other vertices all have low degree also qualifies (the repeated endpoint is
    listed once). Isolated low-degree vertices are found first. Only anchors
    are tried as the first end, so every pattern with an end at an anchor is
    found; the far end may be any vertex. None tries every vertex.

    One BFS per end s, inside the low-degree subgraph and at most
    max_vertices - 1 steps deep, labels each vertex with the neighbor of s
    its branch starts from. It returns the path as soon as it reaches
    another end; failing that, the shortest cycle closed by an edge joining
    two branches, the first found among equals.
    """
    if anchors is None:
        anchors = g.vertices()
    for v in anchors:
        if g.degree(v) <= end_deg - 1:
            return [v]
    depth_cap = max_vertices - 1
    for s in anchors:
        if g.degree(s) != end_deg:
            continue
        prev = {s: -1}
        level = {s: 0}
        branch = {s: s}
        best, closing = max_vertices + 1, None  # shortest cycle so far, its closing edge
        queue = deque([s])
        while queue:
            x = queue.popleft()
            ly = level[x] + 1
            if ly > depth_cap:
                break
            bx = branch[x]
            for y in g.neighbors(x):
                dy = g.degree(y)
                if y == s or dy > low_deg:
                    continue
                if y not in level:
                    level[y] = ly
                    prev[y] = x
                    branch[y] = y if x == s else bx
                    if dy == end_deg:
                        return _walk_back(prev, y)
                    queue.append(y)
                elif branch[y] != bx and ly + level[y] < best:
                    best, closing = ly + level[y], (x, y)
        if closing is not None:
            x, y = closing
            return _walk_back(prev, x) + _walk_back(prev, y)[:-1]
    return None


def _walk_back(prev: dict[int, int], v: int) -> list[int]:
    """v, its BFS parent, and so on back to the root."""
    path = [v]
    while prev[path[-1]] != -1:
        path.append(prev[path[-1]])
    return path


# ---------------------------------------------------------------------------
# discharging rules


def _vertex_rules_a(emb: Embedding) -> Iterator[Transfer]:
    # R1/R2: rich vertices support poor neighbors; R3: degree 6 tops up
    # degree 5. All flows are along edges.
    adj = emb.graph.adjacency
    deg = list(map(len, adj))
    name = [("v", v) for v in range(len(adj))]
    r1, r2, r3 = Fraction(1, 4), Fraction(1, 12), Fraction(1, 6)
    for v, dv in enumerate(deg):
        if dv >= 7:
            for u in adj[v]:
                du = deg[u]
                if du == 5:
                    yield Transfer("R1", name[v], name[u], r1)
                elif du == 6:
                    yield Transfer("R2", name[v], name[u], r2)
        elif dv == 6:
            for u in adj[v]:
                if deg[u] == 5:
                    yield Transfer("R3", name[v], name[u], r3)


def _names(emb: Embedding) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """Every vertex's ("v", id) and every face's ("f", index), one tuple each."""
    return [("v", v) for v in range(emb.graph.n)], [("f", i) for i in range(len(emb.faces))]


def _walk_rule(emb: Embedding, starter_deg: int, inner_deg: int, min_inner: int,
               amount: Fraction, face_rule: str, vertex_rule: str,
               names: tuple[list, list] | None = None) -> Iterator[Transfer]:
    """Facial-path rule: each low-degree starter is paid once per boundary pass.

    For every face, both boundary orientations, and every occurrence of a
    vertex of degree exactly starter_deg, walk forward over vertices of
    degree exactly inner_deg. A long enough run means the face pays the
    starter; otherwise the vertex ending the run pays (it can be the starter
    itself when the run wraps all the way around, a logged net-zero event).
    `names` are _names(emb), when the caller shares them with its other rules.
    """
    deg = list(map(len, emb.graph.adjacency))
    vname, fname = names or _names(emb)
    for fi, face in enumerate(emb.faces):
        if starter_deg not in map(deg.__getitem__, face):
            continue
        for w in (face, reverse_walk(face)):
            dw = [deg[x] for x in w]
            d = len(w)
            for i, s in enumerate(w):
                if dw[i] != starter_deg:
                    continue
                j = 1
                while j < d and dw[(i + j) % d] == inner_deg:
                    j += 1
                if j == d:
                    u, inner = s, d - 1
                else:
                    u, inner = w[(i + j) % d], j - 1
                if inner >= min_inner:
                    yield Transfer(face_rule, fname[fi], vname[s], amount)
                else:
                    yield Transfer(vertex_rule, vname[u], vname[s], amount)


def _rules_b(emb: Embedding) -> Iterator[Transfer]:
    names = _names(emb)
    yield from _walk_rule(emb, starter_deg=3, inner_deg=4, min_inner=3, amount=Fraction(1, 6),
                          face_rule="B1f", vertex_rule="B1v", names=names)
    # corner = one occurrence on a positive boundary walk; heavy vertices
    # feed their faces, faces sprinkle their light corners
    deg = list(map(len, emb.graph.adjacency))
    vname, fname = names
    heavy, light = Fraction(1, 18), Fraction(1, 54)
    for fi, face in enumerate(emb.faces):
        f = fname[fi]
        for v in face:
            dv = deg[v]
            if dv >= 5:
                yield Transfer("B2v", vname[v], f, heavy)
            elif dv in (3, 4):
                yield Transfer("B2f", f, vname[v], light)


# ---------------------------------------------------------------------------
# the table


REGIME_A = Regime(
    "A", k=4, size=3, factor=72, scan=_config_regime_a,
    # faces enter the Euler identity with 2d - 6 >= 0 but keep no charge
    vertex_charge=(1, -6), face_charge=(2, -6), rules=_vertex_rules_a,
    vertex_bound=Fraction(1, 12), face_bound=None,
)
REGIME_B = Regime(
    "B", k=2, size=10, factor=72, scan=partial(_config_path, low_deg=4, end_deg=3),
    vertex_charge=(1, -4), face_charge=(1, -4), rules=_rules_b,
    vertex_bound=Fraction(1, 18), face_bound=Fraction(0),
    precondition=lambda g: girth(g) >= 4, needs="a triangle-free graph",
)
REGIME_C = Regime(
    "C", k=1, size=16, factor=357, scan=partial(_config_path, low_deg=3, end_deg=2),
    vertex_charge=(2, -6), face_charge=(1, -6),
    rules=partial(_walk_rule, starter_deg=2, inner_deg=3, min_inner=5,
                  amount=Fraction(1, 2), face_rule="C1f", vertex_rule="C1v"),
    vertex_bound=Fraction(0), face_bound=Fraction(0),
    precondition=lambda g: girth(g) >= 6, needs="girth at least 6",
    planar_size=12,
)

REGIMES = {r.name: r for r in (REGIME_A, REGIME_B, REGIME_C)}
