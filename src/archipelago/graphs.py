"""Core graph, surface-embedding and hypergraph types, and every text format.

Graphs are simple and undirected, with vertices 0..n-1. Embeddings are rotation
systems (cyclic neighbor orders) with optional edge signs, so non-orientable
surfaces are supported. Faces are recovered by tracing directed edges, and the
Euler characteristic follows from the face count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_m")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        # a duplicate edge shows as a repeated neighbor; checking the sorted
        # lists keeps no per-edge key alive while the edges are read
        for nbrs in adj:
            nbrs.sort()
        self._adj = tuple(map(tuple, adj))
        degree_sum = sum(map(len, self._adj))
        if sum(map(len, map(set, self._adj))) != degree_sum:
            u, v = next((u, v) for u, nbrs in enumerate(self._adj) for v, w in zip(nbrs, nbrs[1:]) if v == w)
            raise ValueError(f"duplicate edge {(u, v) if u < v else (v, u)}")
        self.n = n
        self._m = degree_sum // 2

    @property
    def m(self) -> int:
        return self._m

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every vertex's neighbors, indexed by vertex, for passes over them all."""
        return self._adj

    def vertices(self) -> range:
        return range(self.n)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self):
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def induced(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus the old-id -> new-id map."""
        keep = sorted(set(vertices))
        relabel = {v: i for i, v in enumerate(keep)}
        edges = [
            (relabel[u], relabel[v])
            for u in keep
            for v in self._adj[u]
            if u < v and v in relabel
        ]
        return Graph(len(keep), edges), relabel

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


class LiveView:
    """Read-only view of a graph's vertices that are still alive.

    It shares its owner's `alive` mask and live-degree list, so it follows
    later removals without copying, and answers Graph's n / degree /
    neighbors / vertices / `in` over live vertices only, with the graph's ids.
    """

    __slots__ = ("n", "_graph", "_alive", "_deg")

    def __init__(self, graph: Graph, alive: list[bool], live_deg: list[int]):
        self.n = graph.n
        self._graph = graph
        self._alive = alive
        self._deg = live_deg

    def degree(self, v: int) -> int:
        return self._deg[v]

    def neighbors(self, v: int) -> list[int]:
        alive = self._alive
        return [u for u in self._graph.neighbors(v) if alive[u]]

    def vertices(self) -> list[int]:
        alive = self._alive
        return [v for v in range(self.n) if alive[v]]

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and self._alive[v]


class Embedding:
    """Rotation system with optional edge signs.

    `rotations[v]` lists the neighbors of v in cyclic order; it must be a
    permutation of the graph's adjacency at v. `signs` maps unordered edges to
    +1/-1; edges absent from the map are positive, and an edge named twice, in
    either order, is an error. All-positive signs describe an orientable
    surface.
    """

    __slots__ = ("graph", "rotations", "_sign", "_faces")

    def __init__(self, graph: Graph, rotations, signs=None):
        self.graph = graph
        rots = tuple(map(tuple, map(rotations.__getitem__, range(graph.n))))
        if tuple(map(tuple, map(sorted, rots))) != graph._adj:
            v = next(v for v, rot in enumerate(rots) if tuple(sorted(rot)) != graph.neighbors(v))
            raise ValueError(f"rotation at {v} is not a permutation of its neighbors")
        self.rotations = rots
        sign = {}
        if signs:
            named = set()
            for (u, v), s in signs.items():
                if s not in (1, -1):
                    raise ValueError(f"sign of ({u}, {v}) must be +1 or -1")
                if not (u in graph and v in graph and graph.has_edge(u, v)):
                    raise ValueError(f"signed edge ({u}, {v}) not in graph")
                key = (u, v) if u < v else (v, u)
                if key in named:
                    raise ValueError(f"two signs for edge {key}")
                named.add(key)
                if s == -1:
                    sign[key] = -1
        self._sign = sign
        self._faces: tuple[tuple[int, ...], ...] | None = None

    def sign(self, u: int, v: int) -> int:
        return self._sign.get((u, v) if u < v else (v, u), 1)

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        if self._faces is None:
            self._faces = trace_faces(self)
        return self._faces

    def __repr__(self) -> str:
        neg = len(self._sign)
        return f"Embedding({self.graph!r}, negative_edges={neg})"


def trace_faces(emb: Embedding) -> tuple[tuple[int, ...], ...]:
    """Recover the faces of a signed rotation system.

    A state (u, v, d) is the directed edge u->v carried with orientation flag
    d in {+1, -1}. Its successor flips the flag by the sign of uv and then
    takes the next (flag-directionally) neighbor of v after u; its mirror is
    (v, u, -d * sign(uv)). Orbits of the successor map come in mirror pairs;
    each pair is one face. Requires a connected graph, since the Euler
    characteristic of a disconnected embedding is not that of a single surface.

    Darts u->v are numbered by u, then v (adjacency tuples are sorted), and
    state 2 * dart + (d > 0) carries flag d, so the integers follow the order
    of the (u, v, d) tuples. Every signed rotation system has
    succ(mirror(succ(s))) == mirror(s), so the mirror of the orbit s_0, ..,
    s_{L-1} is mirror(s_0), mirror(s_{L-1}), .., mirror(s_1): it is marked,
    not traced, and its walk is read off the orbit's.

    Each face is returned as its walk: the tails of the states of the orbit
    of its least state. That state may carry either flag, so two walks need
    not run the same way round; reverse_walk gives the other side. Faces
    come out in order of their least state, found by one pass over the
    states in increasing order, so the cost is linear in m.
    """
    g = emb.graph
    if g.n == 0:
        raise ValueError("cannot trace faces of the empty graph")
    if g.n > 1 and len(connected_components(g)) > 1:
        raise ValueError("face tracing requires a connected graph")
    if g.m == 0:
        # single isolated vertex: one face, the sphere
        return ((0,),)

    # the dart from v to adj[v][j] is first[v] + j; the states are filled
    # rotation by rotation, so no per-vertex table outlives its vertex
    adj, signs = g._adj, emb._sign
    first = [0]
    for nbrs in adj:
        first.append(first[-1] + len(nbrs))
    succ, mirror, tail = [0] * (2 * first[-1]), [0] * (2 * first[-1]), [0] * (2 * first[-1])
    for v, rot in enumerate(emb.rotations):
        base, nbrs, d = first[v], adj[v], len(rot)
        at = [base + bisect_left(nbrs, w) for w in rot]  # at[i]: the dart v -> rot[i]
        for i, u in enumerate(rot):
            sign = signs.get((u, v) if u < v else (v, u), 1) if signs else 1
            s = 2 * (first[u] + bisect_left(adj[u], v))  # dart u -> v, flag -1
            succ[s] = 2 * at[(i - sign) % d] + (sign < 0)
            succ[s + 1] = 2 * at[(i + sign) % d] + (sign > 0)
            mirror[s] = 2 * at[i] + (sign > 0)
            mirror[s + 1] = 2 * at[i] + (sign < 0)
            tail[s] = tail[s + 1] = u

    # No orbit is its own mirror, and the walks total 2m. mirror and
    # t = mirror o succ are involutions without fixed points: mirror reverses
    # the dart, and t(s) = s would make succ(s) == mirror(s), whose flags are
    # opposite. So each orbit of the group they generate is a cycle of even
    # length alternating the two; succ = mirror o t moves two steps along it,
    # and its orbits there are the even and the odd positions, which mirror
    # swaps. Each face is one orbit plus its distinct mirror orbit of equal
    # length, so the 4m states come in pairs of orbits and the walks total 2m.
    face_of = [-1] * len(succ)
    faces = []
    for start in range(len(succ)):
        if face_of[start] >= 0:
            continue
        fid = len(faces)
        orbit = []
        state = start
        while face_of[state] < 0:
            face_of[state] = fid
            orbit.append(state)
            state = succ[state]
        for state in orbit:
            face_of[mirror[state]] = fid
        faces.append(tuple([tail[s] for s in orbit]))
    return tuple(faces)


def reverse_walk(walk: tuple[int, ...]) -> tuple[int, ...]:
    """A face walk's mirror: from walk[1] back round to walk[2]."""
    return walk[1::-1] + walk[:1:-1]


def euler_characteristic(emb: Embedding) -> int:
    """n - m + f for the embedding's traced faces."""
    return emb.graph.n - emb.graph.m + len(emb.faces)


def connected_components(g: Graph | LiveView) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, ordered by minimum."""
    seen = [False] * g.n
    comps = []
    for s in g.vertices():
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        comps.append(sorted(comp))
    return comps


def parity_coloring(g: Graph, roots: dict[int, int] | None = None) -> list[int]:
    """The BFS-layer parity coloring: every vertex but a BFS root takes the
    opposite of its BFS parent's color.

    A BFS runs from each of `roots` (vertex -> color 0 or 1) in turn, the root
    taking its color; a root that an earlier root's BFS reached is refused.
    Then a BFS runs from the least vertex, colored 0, of each component not yet
    reached. An edge joins two vertices of one layer or of adjacent layers, so
    every monochromatic component lies inside one BFS layer, and the coloring
    is proper exactly when g is bipartite.
    """
    adj, color = g.adjacency, [-1] * g.n

    def search(s: int, c: int):
        color[s] = c
        queue = [s]
        for x in queue:
            cy = color[x] ^ 1
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = cy
                    queue.append(y)

    for r, c in (roots or {}).items():
        if not 0 <= r < g.n:
            raise ValueError(f"root {r} outside 0..{g.n - 1}")
        if c not in (0, 1):
            raise ValueError(f"root {r} has color {c}, not 0 or 1")
        if color[r] != -1:
            raise ValueError(f"root {r} lies in an earlier root's component")
        search(r, c)
    for s in range(g.n):
        if color[s] == -1:
            search(s, 0)
    return color


def bipartition(g: Graph) -> tuple[set[int], set[int]] | None:
    """Two color classes if g is bipartite, else None: the parity coloring's classes."""
    color = parity_coloring(g)
    sides = {v for v, c in enumerate(color) if c == 0}, {v for v, c in enumerate(color) if c}
    if any(not sides[c].isdisjoint(nbrs) for c, nbrs in zip(color, g.adjacency)):
        return None
    return sides


def girth(g: Graph) -> float:
    """Length of a shortest cycle; math.inf for forests.

    Each cycle is looked for only from its least vertex: the BFS from root r
    stays among the vertices above r. A non-tree edge (x, y) seen from r, y not
    x's BFS parent, closes a walk of length level[x] + level[y] + 1 through r
    that contains a cycle no longer. A shortest cycle lies among the vertices at
    or above its least vertex, where it is still shortest, so the BFS from that
    vertex finds it and the minimum over roots is exact. A BFS stops at the
    level from which no cycle shorter than the best found can close, and on the
    level before it only looks for an edge inside that level.
    """
    best = math.inf
    adj = g.adjacency
    level = [-1] * g.n  # -1 off the current root's search, -2 at earlier roots
    parent = [-1] * g.n
    for r in range(g.n):
        level[r], parent[r] = 0, -1
        order = [r]  # the BFS queue, kept whole to reset the marks
        for x in order:
            lx = level[x]
            if 2 * lx + 1 >= best:
                break
            if 2 * lx + 2 >= best:  # only an edge inside level lx is short enough
                for y in adj[x]:
                    if level[y] == lx:
                        best = 2 * lx + 1
                        break
                continue
            for y in adj[x]:
                ly = level[y]
                if ly == -1:
                    level[y] = lx + 1
                    parent[y] = x
                    order.append(y)
                elif ly >= lx and y != parent[x] and lx + ly + 1 < best:
                    best = lx + ly + 1
        for x in order:
            level[x] = -1
        level[r] = -2  # later roots skip r, so each cycle is met from its least vertex
        if best == 3:
            break
    return best


# ---------------------------------------------------------------------------
# file formats

# Largest n a file header may declare, or a generator, gadget or reduction may
# build: Graph() allocates a list per vertex before any row is read, and a
# construction's size grows with the user's n, rows x cols, k or t (build_N(30)
# would have 2,430,002 vertices, reduce_girth8 of one hyperedge at k = 10
# 1,431,114), so every builder computes its size first and refuses more, through
# check_size.
MAX_VERTICES = 10**6


def check_size(n: int, what: str):
    """Refuse a construction of n vertices before anything is allocated."""
    if n > MAX_VERTICES:
        raise ValueError(f"{what} would build {n} vertices; at most {MAX_VERTICES} are allowed")


def significant_lines(text: str) -> list[str]:
    """The non-blank lines, stripped; in every format "#" comments out the rest of a line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return list(filter(None, map(str.strip, lines)))


def _id_table(n: int, reads: int) -> dict[str, int]:
    """The table {str(i): i for i < n} through which a file's ids are read, or
    no table when fewer than n tokens are to be read: building it would cost
    more than reading them by int(), and a header's n alone may not inflate it.
    """
    return {str(i): i for i in range(n)} if reads >= n else {}


def _ints(tokens: list[str], ids: dict[str, int]) -> list[int]:
    """The tokens as integers, read through the id table `ids`. If any token is
    not in it (a large color, "+1", "007", "-1", an id out of range, or no
    integer at all), every token is read by int() instead, which gives the
    same values and the same errors.
    """
    try:
        return list(map(ids.__getitem__, tokens))
    except KeyError:
        return list(map(int, tokens))


def read_rows(text: str, width: int, what: str) -> tuple[int, Iterator[tuple[int, ...]], list[str], dict[str, int]]:
    """Read the header "n m" and m rows of `width` integers, naming rows `what`.

    Returns n, the rows, the significant lines after them and the table of
    vertex ids the rows were read through, for the caller's own lines. The
    row count and every row's width are checked, and every token converted,
    before anything is returned; the rows are an iterator over one flat list
    of integers, so no per-row tuple outlives its use.
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
    if body and set(map(len, map(str.split, body))) != {width}:
        line = next(line for line in body if len(line.split()) != width)
        raise ValueError(f"bad {what} line {line!r}")
    tokens = " ".join(body).split()
    ids = _id_table(n, len(tokens))
    flat = _ints(tokens, ids)
    return n, zip(*[iter(flat)] * width), lines[1 + m :], ids


def parse_graph(text: str) -> tuple[Graph, Embedding | None]:
    """Parse a graph file, a header "n m" then m lines "u v": the graph, and the
    embedding its rotation lines give (checked) if it is an embedding file, else None.
    """
    n, edges, rest, ids = read_rows(text, 2, "edge")
    g = Graph(n, edges)
    return g, read_rotations(g, rest, ids) if rest else None


def serialize_graph(g: Graph, comments: list[str] | None = None) -> str:
    out = [f"# {c}" for c in comments or []]
    out.append(f"{g.n} {g.m}")
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def parse_embedding(text: str) -> Embedding:
    """Parse the embedding format: a graph section, rotation lines, optional signs."""
    n, edges, rest, ids = read_rows(text, 2, "edge")
    return read_rotations(Graph(n, edges), rest, ids)


def _vertex_lines(lines: list[str], n: int, what: str, expected: str, ids: dict[str, int]) -> dict[int, list[int]]:
    """Lines "v: a b c" as {v: [a, b, c]}, one line per v in 0..n-1; errors name them `what`.

    All lines are split at their ":" and checked before any list is read.
    """
    parts = [line.partition(":") for line in lines]
    if not all(sep for _, sep, _ in parts):
        line = next(line for line, (_, sep, _) in zip(lines, parts) if not sep)
        raise ValueError(f"bad {what} line {line!r}; expected '{expected}'")
    heads = _ints([head for head, _, _ in parts], ids)
    if heads and not (0 <= min(heads) and max(heads) < n):
        v = next(v for v in heads if not 0 <= v < n)
        raise ValueError(f"{what} line names vertex {v}, which a graph of {n} vertices lacks")
    if len(set(heads)) < len(heads):
        seen: set[int] = set()
        for v in heads:
            if v in seen:
                raise ValueError(f"two {what} lines for vertex {v}")
            seen.add(v)
    return dict(zip(heads, [_ints(rest.split(), ids) for _, _, rest in parts]))


def read_rotations(g: Graph, lines: list[str], ids: dict[str, int]) -> Embedding:
    """The embedding of g given by rotation lines "v: a b c", one per vertex,
    then an optional section "signs:" of lines "u v -1", read through the
    table of vertex ids `ids`. A vertex or an edge named twice, or a second
    "signs:" line, is an error.
    """
    cut = lines.index("signs:") if "signs:" in lines else len(lines)
    rotations = _vertex_lines(lines[:cut], g.n, "rotation", "v: a b c", ids)
    signs: dict[tuple[int, int], int] = {}
    for line in lines[cut + 1 :]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad sign line {line!r}; expected 'u v -1'")
        u, v, s = int(parts[0]), int(parts[1]), int(parts[2])
        key = (u, v) if u < v else (v, u)
        if key in signs:
            raise ValueError(f"two sign lines for edge {key}")
        signs[key] = s
    if len(rotations) < g.n:
        for v in range(g.n):
            if v not in rotations:
                if g.degree(v):
                    raise ValueError(f"missing rotation for vertex {v}")
                rotations[v] = []
    return Embedding(g, rotations, signs)


def serialize_embedding(emb: Embedding, comments: list[str] | None = None) -> str:
    out = [f"{v}: " + " ".join(str(u) for u in rot) for v, rot in enumerate(emb.rotations)]
    neg = sorted(k for k, s in emb._sign.items() if s == -1)
    if neg:
        out.append("signs:")
        out.extend(f"{u} {v} -1" for u, v in neg)
    return serialize_graph(emb.graph, comments) + "".join(line + "\n" for line in out)


@dataclass(frozen=True)
class Hypergraph3:
    """3-uniform hypergraph: a vertex count and a tuple of sorted triples."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for e in self.edges:
            if len(e) != 3 or len(set(e)) != 3:
                raise ValueError(f"hyperedge {e} must have 3 distinct vertices")
            if not all(isinstance(v, int) and 0 <= v < self.n for v in e):
                raise ValueError(f"hyperedge {e} out of range")
            if tuple(sorted(e)) != tuple(e):
                raise ValueError(f"hyperedge {e} must be sorted")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Hypergraph3":
        return cls(n, tuple(tuple(sorted(e)) for e in edges))


def parse_hypergraph(text: str) -> Hypergraph3:
    """Parse the hypergraph format: a header "n m", then m lines "a b c"."""
    n, edges, rest, _ = read_rows(text, 3, "hyperedge")
    h = Hypergraph3.from_edges(n, edges)
    if rest:
        raise ValueError(f"trailing content after {len(h.edges)} hyperedges: {rest[0]!r}")
    return h


def serialize_hypergraph(h: Hypergraph3) -> str:
    out = [f"{h.n} {len(h.edges)}"]
    out.extend(f"{a} {b} {c}" for a, b, c in h.edges)
    return "\n".join(out) + "\n"


def parse_terminals(text: str) -> dict[str, int]:
    """Extract '# terminal NAME ID' annotations from a graph or embedding file."""
    terms = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 3 and parts[0] == "terminal":
                terms[parts[1]] = int(parts[2])
    return terms


def terminal_comments(terminals: dict[str, int]) -> list[str]:
    return [f"terminal {name} {vid}" for name, vid in terminals.items()]


def parse_lists(text: str, n: int) -> dict[int, list[int]]:
    """Per-vertex color menus of a graph of n vertices, one line "v: c1 c2 ..." each."""
    lines = significant_lines(text)
    lists = _vertex_lines(lines, n, "list", "v: c1 c2 ...", _id_table(n, len(lines)))
    for v, colors in lists.items():
        if not colors:
            raise ValueError(f"empty list for vertex {v}")
    return lists


def serialize_lists(lists: dict[int, list[int]]) -> str:
    out = [f"{v}: " + " ".join(str(c) for c in lists[v]) for v in sorted(lists)]
    return "\n".join(out) + "\n"


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


def serialize_coloring(coloring: dict[int, int]) -> str:
    return "\n".join(f"{v} {coloring[v]}" for v in sorted(coloring)) + "\n"
