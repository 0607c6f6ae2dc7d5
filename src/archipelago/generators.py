"""Seeded generators for embedded test instances.

Every family is deterministic in its seed (randomness goes through
random.Random.randrange exclusively) and every construction is verified
before being returned: faces are retraced and the promised invariants
(face degrees, Euler characteristic, regularity, girth) are checked, with a
RuntimeError on any violation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from archipelago.graphs import Embedding, Graph, Hypergraph3, bipartition, check_size, connected_components, girth


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated instance."""

    family: str
    seed: int = 0
    n: int = 0  # target vertex count (triangulation, quadrangulation, hypergraph3)
    rows: int = 0
    cols: int = 0
    m: int = 0  # hyperedge count (hypergraph3)
    deletions: int = 0  # vertices to delete (hex_patch)


# family name -> builder of that family's instance from a GenSpec
_BUILDERS = {
    "triangulation": lambda s: triangulation(s.n, s.seed),
    "quadrangulation": lambda s: quadrangulation(s.n, s.seed),
    "hex_torus": lambda s: hex_torus(s.rows, s.cols),
    "triangulated_torus": lambda s: triangulated_torus(s.rows, s.cols),
    "hex_patch": lambda s: hex_patch(s.rows, s.cols, s.deletions, s.seed),
    "hypergraph3": lambda s: hypergraph3(s.n, s.m, s.seed),
}
FAMILIES = tuple(_BUILDERS)


def gen(spec: GenSpec):
    """Build the instance a GenSpec describes."""
    if spec.family not in _BUILDERS:
        raise ValueError(f"unknown family {spec.family!r}; choose from {FAMILIES}")
    return _BUILDERS[spec.family](spec)


def _check(cond: bool, what: str):
    if not cond:
        raise RuntimeError(f"generator post-check failed: {what}")


def triangulation(n: int, seed: int) -> Embedding:
    """Random planar triangulation on n >= 4 vertices by face subdivision.

    Starts from the tetrahedron and repeatedly drops a new vertex into a
    random face, joining it to the three corners. Every face stays a
    triangle and the sphere's Euler characteristic is re-verified at the end.
    """
    if n < 4:
        raise ValueError("triangulation needs n >= 4")
    check_size(n, "triangulation")
    rng = random.Random(seed)
    rot = {0: [1, 2, 3], 1: [2, 0, 3], 2: [3, 0, 1], 3: [1, 0, 2]}
    faces = [(0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 2, 1)]
    for w in range(4, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        # drop w into the corner of each face vertex: after the incoming
        # boundary neighbor in that vertex's rotation
        for x, y in ((a, b), (b, c), (c, a)):
            i = rot[y].index(x)
            rot[y].insert(i + 1, w)
        rot[w] = [b, a, c]
        faces += [(a, b, w), (b, c, w), (c, a, w)]
    g = Graph(n, [(u, v) for u in rot for v in rot[u] if u < v])
    emb = Embedding(g, [rot[v] for v in range(n)])
    _check(len(emb.faces) == 2 * n - 4, "triangulation face count")
    _check(all(f.degree == 3 for f in emb.faces), "triangulation face degrees")
    _check(g.n - g.m + len(emb.faces) == 2, "triangulation characteristic")
    return emb


def quadrangulation(n: int, seed: int) -> Embedding:
    """Random planar quadrangulation on n >= 4 vertices.

    Starts from a 4-cycle and repeatedly drops a new vertex into a random
    face, joining it to one of the two opposite corner pairs. Output is
    bipartite with every face a quadrilateral.
    """
    if n < 4:
        raise ValueError("quadrangulation needs n >= 4")
    check_size(n, "quadrangulation")
    rng = random.Random(seed)
    rot = {0: [3, 1], 1: [0, 2], 2: [1, 3], 3: [2, 0]}
    faces = [(0, 1, 2, 3), (3, 2, 1, 0)]
    for w in range(4, n):
        walk = faces.pop(rng.randrange(len(faces)))
        d0 = rng.randrange(4)
        a, b, c, d = (walk[(d0 + i) % 4] for i in range(4))
        rot[a].insert(rot[a].index(d) + 1, w)
        rot[c].insert(rot[c].index(b) + 1, w)
        rot[w] = [c, a]
        faces += [(a, b, c, w), (c, d, a, w)]
    g = Graph(n, [(u, v) for u in rot for v in rot[u] if u < v])
    emb = Embedding(g, [rot[v] for v in range(n)])
    _check(g.m == 2 * n - 4, "quadrangulation edge count")
    _check(all(f.degree == 4 for f in emb.faces), "quadrangulation face degrees")
    _check(g.n - g.m + len(emb.faces) == 2, "quadrangulation characteristic")
    _check(bipartition(g) is not None, "quadrangulation bipartiteness")
    return emb


def _hex_ids(rows: int, cols: int):
    def A(r, c):
        return 2 * ((r % rows) * cols + (c % cols))

    def B(r, c):
        return A(r, c) + 1

    return A, B


def hex_torus(rows: int, cols: int) -> Embedding:
    """Hexagonal grid on the torus: 3-regular, girth 6, characteristic 0."""
    if rows < 3 or cols < 3:
        raise ValueError("hex_torus needs rows, cols >= 3")
    n = 2 * rows * cols
    check_size(n, "hex_torus")
    A, B = _hex_ids(rows, cols)
    rot: list[list[int]] = [[] for _ in range(n)]
    for r in range(rows):
        for c in range(cols):
            rot[A(r, c)] = [B(r, c), B(r, c - 1), B(r - 1, c)]
            rot[B(r, c)] = [A(r, c), A(r, c + 1), A(r + 1, c)]
    edges = {(min(u, v), max(u, v)) for u in range(n) for v in rot[u]}
    g = Graph(n, sorted(edges))
    emb = Embedding(g, rot)
    _check(all(g.degree(v) == 3 for v in range(n)), "hex_torus regularity")
    _check(all(f.degree == 6 for f in emb.faces), "hex_torus face degrees")
    _check(g.n - g.m + len(emb.faces) == 0, "hex_torus characteristic")
    _check(girth(g) == 6, "hex_torus girth")
    return emb


def triangulated_torus(rows: int, cols: int) -> Embedding:
    """Triangular grid on the torus: 6-regular, all faces triangles."""
    if rows < 3 or cols < 3:
        raise ValueError("triangulated_torus needs rows, cols >= 3")
    n = rows * cols
    check_size(n, "triangulated_torus")

    def vid(r, c):
        return (r % rows) * cols + (c % cols)

    rot: list[list[int]] = [[] for _ in range(n)]
    for r in range(rows):
        for c in range(cols):
            rot[vid(r, c)] = [
                vid(r, c + 1),
                vid(r + 1, c + 1),
                vid(r + 1, c),
                vid(r, c - 1),
                vid(r - 1, c - 1),
                vid(r - 1, c),
            ]
    edges = {(min(u, v), max(u, v)) for u in range(n) for v in rot[u]}
    g = Graph(n, sorted(edges))
    emb = Embedding(g, rot)
    _check(all(g.degree(v) == 6 for v in range(n)), "triangulated_torus regularity")
    _check(all(f.degree == 3 for f in emb.faces), "triangulated_torus face degrees")
    _check(g.n - g.m + len(emb.faces) == 0, "triangulated_torus characteristic")
    return emb


def hex_patch(rows: int, cols: int, deletions: int, seed: int) -> Embedding:
    """Planar patch of the hexagonal grid with random connected deletions.

    The torus construction without the wrap edges, then up to `deletions`
    random vertex removals that keep the graph connected (removals that would
    disconnect it are skipped). Result is planar, bipartite, girth 6 or
    acyclic.
    """
    if rows < 3 or cols < 3:
        raise ValueError("hex_patch needs rows, cols >= 3")
    if deletions < 0:
        raise ValueError("hex_patch needs deletions >= 0")
    n = 2 * rows * cols
    check_size(n, "hex_patch")
    rng = random.Random(seed)
    A, B = _hex_ids(rows, cols)
    rot: dict[int, list[int]] = {v: [] for v in range(n)}
    for r in range(rows):
        for c in range(cols):
            nbrs = [B(r, c)]
            if c >= 1:
                nbrs.append(B(r, c - 1))
            if r >= 1:
                nbrs.append(B(r - 1, c))
            rot[A(r, c)] = nbrs
            nbrs = [A(r, c)]
            if c + 1 < cols:
                nbrs.append(A(r, c + 1))
            if r + 1 < rows:
                nbrs.append(A(r + 1, c))
            rot[B(r, c)] = nbrs

    grid = Graph(n, {(min(u, v), max(u, v)) for u in rot for v in rot[u]})
    live = set(range(n))
    for _ in range(deletions):
        if len(live) <= 1:
            break
        pool = sorted(live)
        v = pool[rng.randrange(len(pool))]
        live.discard(v)
        if len(connected_components(grid.induced(live)[0])) > 1:
            live.add(v)
    g, relabel = grid.induced(live)
    rotations = [[relabel[u] for u in rot[v] if u in live] for v in sorted(live)]
    emb = Embedding(g, rotations)
    _check(g.n - g.m + len(emb.faces) == 2, "hex_patch characteristic")
    _check(bipartition(g) is not None, "hex_patch bipartiteness")
    _check(girth(g) >= 6, "hex_patch girth")
    return emb


def hypergraph3(n: int, m: int, seed: int) -> Hypergraph3:
    """Random 3-uniform hypergraph: m distinct sorted triples on n vertices.

    Its size is that of its incidence graph, n + m vertices.
    """
    if n < 3:
        raise ValueError("hypergraph3 needs n >= 3")
    if m < 0:
        raise ValueError("hypergraph3 needs m >= 0")
    check_size(n + m, "hypergraph3")
    limit = n * (n - 1) * (n - 2) // 6
    if m > limit:
        raise ValueError(f"only {limit} distinct triples exist on {n} vertices")
    rng = random.Random(seed)
    triples: set[tuple[int, int, int]] = set()
    while len(triples) < m:
        picks: set[int] = set()
        while len(picks) < 3:
            picks.add(rng.randrange(n))
        triples.add(tuple(sorted(picks)))
    return Hypergraph3(n, tuple(sorted(triples)))
