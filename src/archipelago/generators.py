"""Seeded generators for embedded test instances.

Every family is deterministic in its seed (randomness goes through
random.Random.randrange exclusively) and is certified through one
constructor, `_surface`: it reads the graph off the family's rotation lists,
retraces the faces and checks the promised Euler characteristic and face
degree. Each family then checks only its own invariants (regularity, girth,
bipartiteness). Any violation raises RuntimeError.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from archipelago.graphs import Embedding, Graph, Hypergraph3, bipartition, check_size, euler_characteristic, girth


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


def _graph(rot) -> Graph:
    """The graph whose vertex v has the neighbors rot[v]."""
    return Graph(len(rot), [(u, v) for u, nbrs in enumerate(rot) for v in nbrs if u < v])


def _surface(rot, chi: int, face_degree: int | None, what: str) -> Embedding:
    """The embedding with rotation rot[v] at each vertex v, certified.

    The faces are retraced; every face must have face_degree sides, when
    one is given, and the Euler characteristic must be chi. No family counts
    its faces or edges, because these two checks fix the counts on the
    sphere: n - m + f = 2 with 3f = 2m gives f = 2n - 4 for a triangulation,
    and with 4f = 2m gives m = 2n - 4 for a quadrangulation.
    """
    emb = Embedding(_graph(rot), rot)
    _check(face_degree is None or all(len(f) == face_degree for f in emb.faces), f"{what} face degrees")
    _check(euler_characteristic(emb) == chi, f"{what} characteristic")
    return emb


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
    rot = [[1, 2, 3], [2, 0, 3], [3, 0, 1], [1, 0, 2]]
    faces = [(0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 2, 1)]
    for w in range(4, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        # drop w into the corner of each face vertex: after the incoming
        # boundary neighbor in that vertex's rotation
        for x, y in ((a, b), (b, c), (c, a)):
            i = rot[y].index(x)
            rot[y].insert(i + 1, w)
        rot.append([b, a, c])
        faces += [(a, b, w), (b, c, w), (c, a, w)]
    return _surface(rot, 2, 3, "triangulation")


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
    rot = [[3, 1], [0, 2], [1, 3], [2, 0]]
    faces = [(0, 1, 2, 3), (3, 2, 1, 0)]
    for w in range(4, n):
        walk = faces.pop(rng.randrange(len(faces)))
        d0 = rng.randrange(4)
        a, b, c, d = (walk[(d0 + i) % 4] for i in range(4))
        rot[a].insert(rot[a].index(d) + 1, w)
        rot[c].insert(rot[c].index(b) + 1, w)
        rot.append([c, a])
        faces += [(a, b, c, w), (c, d, a, w)]
    emb = _surface(rot, 2, 4, "quadrangulation")
    _check(bipartition(emb.graph) is not None, "quadrangulation bipartiteness")
    return emb


def _hex_rotations(rows: int, cols: int, wrap: bool) -> list[list[int]]:
    """Rotations of the rows x cols hexagonal grid, two vertices per cell.

    Cell (r, c) holds vertex 2(r*cols + c), joined to its partner 2(r*cols + c)+1
    and to the partners in cells (r, c-1) and (r-1, c); the partner is joined
    to cells (r, c+1) and (r+1, c). With wrap, cells are taken mod the grid,
    giving the torus; without, neighbors across the grid's edge are left out.
    """
    rot = []
    for r in range(rows):
        for c in range(cols):
            for partner, steps in ((1, ((0, 0), (0, -1), (-1, 0))), (0, ((0, 0), (0, 1), (1, 0)))):
                rot.append([2 * ((r + dr) % rows * cols + (c + dc) % cols) + partner
                            for dr, dc in steps
                            if wrap or (0 <= r + dr < rows and 0 <= c + dc < cols)])
    return rot


def hex_torus(rows: int, cols: int) -> Embedding:
    """Hexagonal grid on the torus: 3-regular, girth 6, characteristic 0."""
    if rows < 3 or cols < 3:
        raise ValueError("hex_torus needs rows, cols >= 3")
    check_size(2 * rows * cols, "hex_torus")
    emb = _surface(_hex_rotations(rows, cols, wrap=True), 0, 6, "hex_torus")
    _check(all(len(nbrs) == 3 for nbrs in emb.rotations), "hex_torus regularity")
    _check(girth(emb.graph) == 6, "hex_torus girth")
    return emb


def triangulated_torus(rows: int, cols: int) -> Embedding:
    """Triangular grid on the torus: 6-regular, all faces triangles."""
    if rows < 3 or cols < 3:
        raise ValueError("triangulated_torus needs rows, cols >= 3")
    check_size(rows * cols, "triangulated_torus")
    steps = ((0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0))
    rot = [[(r + dr) % rows * cols + (c + dc) % cols for dr, dc in steps]
           for r in range(rows) for c in range(cols)]
    emb = _surface(rot, 0, 3, "triangulated_torus")
    _check(all(len(nbrs) == 6 for nbrs in emb.rotations), "triangulated_torus regularity")
    return emb


def _joined(rot, live, v: int) -> bool:
    """Whether the live vertices, connected with v, stay connected without it.

    They do when v's live neighbors lie in one component, so the search from
    one of them stops once it has met all of them.
    """
    missing = {u for u in rot[v] if live[u]}
    start = missing.pop()
    seen = {start}
    queue = deque([start])
    while missing and queue:
        for y in rot[queue.popleft()]:
            if live[y] and y not in seen:
                seen.add(y)
                missing.discard(y)
                queue.append(y)
    return not missing


def hex_patch(rows: int, cols: int, deletions: int, seed: int) -> Embedding:
    """Planar patch of the hexagonal grid with random connected deletions.

    The hex torus's rotations less their wrap edges, then up to `deletions`
    random vertex removals that keep the graph connected (removals that would
    disconnect it are skipped). The result is certified planar through the
    same constructor as every family, and is bipartite, girth 6 or acyclic.
    """
    if rows < 3 or cols < 3:
        raise ValueError("hex_patch needs rows, cols >= 3")
    if deletions < 0:
        raise ValueError("hex_patch needs deletions >= 0")
    n = 2 * rows * cols
    check_size(n, "hex_patch")
    rng = random.Random(seed)
    rot = _hex_rotations(rows, cols, wrap=False)
    pool = list(range(n))  # the live vertices, in order
    live = [True] * n
    for _ in range(deletions):
        if len(pool) <= 1:
            break
        i = rng.randrange(len(pool))
        v = pool.pop(i)
        live[v] = False
        if not _joined(rot, live, v):
            live[v] = True
            pool.insert(i, v)
    relabel = {v: i for i, v in enumerate(pool)}
    emb = _surface([[relabel[u] for u in rot[v] if u in relabel] for v in relabel], 2, None, "hex_patch")
    _check(bipartition(emb.graph) is not None, "hex_patch bipartiteness")
    _check(girth(emb.graph) >= 6, "hex_patch girth")
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
