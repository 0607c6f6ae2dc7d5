"""Checkers: the program's re-verification of the certificates it returns.

is_island checks an island witness, replay_ok a peeling decomposition's
layers and base, and audit a coloring's monochromatic components against
their bounds and lists. Each reads only the graph and the certificate, so
this module imports nothing of the package but archipelago.graphs: the code
that finds islands, peels and searches is kept apart from the code that
checks what it found. README's table "Verdicts and their checkers" names the
checker of each verdict the commands print.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from archipelago.graphs import Graph, LiveView


@dataclass(frozen=True)
class IslandWitness:
    """A verified k-island; lists each member's outside-neighbor count."""

    members: tuple[int, ...]
    k: int
    outside_degrees: dict[int, int]


def is_island(g: Graph | LiveView, members, k: int) -> IslandWitness | None:
    """The witness that an explicit vertex set is a k-island, or None.

    None for an empty set, a vertex outside the graph (on a LiveView, a
    removed one) or a member with more than k neighbors outside the set.
    """
    mset = set(members)
    if not mset or not all(map(g.__contains__, mset)):
        return None
    neighbors, inside = g.neighbors, mset.intersection
    outside = {}
    for v in sorted(mset):
        nbrs = neighbors(v)  # distinct, so the members among them are counted once
        cnt = len(nbrs) - len(inside(nbrs))
        if cnt > k:
            return None
        outside[v] = cnt
    return IslandWitness(members=tuple(outside), k=k, outside_degrees=outside)


def replay_ok(dec) -> bool:
    """Re-verify every layer of a PeelDecomposition against the graph it was removed from.

    Layers are replayed against one live mask on the original graph: each
    must be a non-empty set of at most `size` live vertices, none
    repeated, each with at most k live neighbors outside it. A layer's
    members leave the mask before their neighbors are counted, so a
    repeat finds its vertex gone and the live neighbors left are those
    outside. The base must then be exactly the live vertices, and at most
    `threshold` of them. Malformed layers (out-of-range or already
    removed vertices) make the replay fail rather than raise.
    The cost is linear in n + m.
    """
    g, k, size = dec.graph, dec.regime.k, dec.size
    n, adj = g.n, g.adjacency
    alive = [True] * n
    for layer in dec.layers:
        if not layer or len(layer) > size:
            return False
        for v in layer:
            if not (0 <= v < n and alive[v]):
                return False
            alive[v] = False
        for v in layer:
            outside = 0
            for u in adj[v]:
                if alive[u]:
                    outside += 1
            if outside > k:
                return False
    return len(dec.base) <= dec.threshold and sorted(dec.base) == list(compress(range(n), alive))


def _first_missing(table, n: int) -> int:
    """The least vertex below n that table has no entry for, or n."""
    if all(map(table.__contains__, range(n))):
        return n
    return next(v for v in range(n) if v not in table)


@dataclass(frozen=True)
class ColoringReport:
    """Audit of a coloring's monochromatic components."""

    max_component: int
    component_sizes: dict  # color -> largest component of that color
    list_violations: tuple[tuple[int, int], ...]  # (vertex, color not in its list)
    oversized_components: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.list_violations and not self.oversized_components


def audit(g: Graph, coloring, max_size: int | None = None, lists=None) -> ColoringReport:
    """Connected components of each color class, checked against bounds.

    Raises for the least vertex that is uncolored, or has no list when lists
    is given. When max_size is given, components larger than it are
    reported as oversized; when lists is given, vertices colored outside
    their list are reported. One pass over a per-vertex color list.
    """
    n, adj = g.n, g.adjacency
    gap = _first_missing(coloring, n)
    v = min(gap, n if lists is None else _first_missing(lists, n))
    if v < n:
        raise ValueError(f"vertex {v} is uncolored" if v == gap else f"no color list for vertex {v}")
    cols = list(map(coloring.__getitem__, range(n)))
    seen = [False] * n
    sizes: dict = {}
    oversized = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        color = cols[s]
        comp = [s]
        for x in comp:
            for y in adj[x]:
                if cols[y] == color and not seen[y]:
                    seen[y] = True
                    comp.append(y)
        size = len(comp)
        if size > sizes.get(color, 0):
            sizes[color] = size
        if max_size is not None and size > max_size:
            oversized.append(tuple(sorted(comp)))
    violations = () if lists is None else tuple(
        (v, c) for v, c in enumerate(cols) if c not in lists[v])
    return ColoringReport(
        max_component=max(sizes.values(), default=0),
        component_sizes=sizes,
        list_violations=violations,
        oversized_components=tuple(oversized),
    )
