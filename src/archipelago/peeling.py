"""Peeling decompositions and the clustered colorings they support.

peel() repeatedly removes a small island from the graph (layer by layer)
until none is left; the remaining vertices form the base, which must have
at most the regime's guarantee threshold of vertices. Coloring the base
first and the layers in reverse removal order, with each island member
avoiding only its already-colored neighbors outside the island, keeps every
monochromatic component inside one layer or one base component, so within
`dec.bound` of the decomposition dec; color() colors and audits by that rule.

peel() never copies the graph. It looks for each island in the order
cascade, local scan, full scan, find_island, and reads a LiveView of the
vertices not yet removed; only the last two steps cost more than the
neighborhood of the island just removed, and they run only when the first
two find nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from archipelago.certify import _first_missing, audit, replay_ok
from archipelago.graphs import Graph, LiveView
from archipelago.islands import REGIME_A, Regime, find_island, forbidden_configuration


class TheoremViolation(RuntimeError):
    """A base above the guarantee threshold had no island.

    On honestly embedded inputs this cannot happen; it signals either a
    mismatched Euler characteristic or a broken precondition. The residual
    base is kept for inspection.
    """

    def __init__(self, regime: Regime, chi: int, residual: tuple[int, ...]):
        self.regime = regime
        self.chi = chi
        self.threshold = regime.threshold(chi)
        self.residual = residual
        super().__init__(
            f"regime {regime.name}: base of {len(residual)} vertices exceeds "
            f"threshold {self.threshold} (chi={chi}) but contains no "
            f"{regime.k}-island of at most {regime.size} vertices"
        )


@dataclass(frozen=True)
class PeelDecomposition:
    """Removal layers plus the base left at the end.

    Each layer was an island of at most `size` vertices of the graph still
    present when it was removed; the base has at most `threshold` vertices.
    `planar`: footnote 12's size capped every layer.
    """

    graph: Graph
    regime: Regime
    chi: int
    layers: tuple[tuple[int, ...], ...]
    base: tuple[int, ...]
    planar: bool = False

    @property
    def threshold(self) -> int:
        """The regime's threshold at chi, so that the two cannot disagree."""
        return self.regime.threshold(self.chi)

    @property
    def size(self) -> int:
        """The island size every layer honours."""
        return self.regime.planar_size if self.planar else self.regime.size

    @property
    def bound(self) -> int:
        """Largest monochromatic component a coloring of this decomposition may have."""
        return max(self.size, self.threshold)

    replay_ok = replay_ok  # the checker lives in certify, apart from the code that peels


def peel(g: Graph, regime: Regime, chi: int, footnote_12: bool = False) -> PeelDecomposition:
    """Decompose g into islands and a small base.

    chi, at most 2, is the Euler characteristic of a surface the graph
    embeds in; it only enters through the threshold: an island-free base of
    at most that many vertices is acceptable. g must meet the regime's
    precondition.

    Each island is looked for in this order, on a LiveView of the vertices
    not yet removed:
      1. cascade: a vertex with at most k live neighbors is a one-vertex island;
      2. local scan: the regime's patterns, searched from each live neighbor
         of a removed vertex (only those changed degree) until it yields none;
      3. full scan: the patterns, searched from every live vertex;
      4. find_island on the live graph.
    When all four fail, the live vertices are the base, and a base above the
    threshold is a TheoremViolation: the paper's "all but O(g) vertices"
    bounds the whole base, not each of its components.
    Steps 1 and 2 cost time proportional to the degrees around the island
    just removed; steps 3 and 4 cost linear time or more, and run only when
    the first two find nothing, so inputs that the cascade and the local scans
    clear peel in near-linear time. Soundness and completeness rest on steps
    3 and 4, never on the local rule, and every witness of steps 2-4 is
    re-verified by is_island against the live graph.

    footnote_12 asserts, on the caller's authority, that the input is a
    2-edge-connected planar graph; regime C then caps islands at its planar
    size (12). When no such island is left but a larger one is, that one
    island may have up to 16 vertices, and the decomposition is not `planar`;
    the cap of 12 holds again for the next island.
    """
    if chi > 2:
        raise ValueError(f"chi {chi} is above 2; no connected surface has a larger one")
    if not regime.precondition(g):
        raise ValueError(f"regime {regime.name} needs {regime.needs}")
    if footnote_12 and regime.planar_size is None:
        raise ValueError("the 12-island refinement applies to regime C only")
    k = regime.k
    cap = regime.planar_size if footnote_12 else regime.size
    planar = footnote_12
    alive = [True] * g.n
    live_deg = [g.degree(v) for v in range(g.n)]
    live = LiveView(g, alive, live_deg)
    remaining = g.n
    layers: list[tuple[int, ...]] = []
    low = deque(v for v in range(g.n) if live_deg[v] <= k)  # cascade queue
    anchors: dict[int, None] = {}  # vertices whose degree dropped since they were scanned

    def remove(members):
        nonlocal remaining
        layers.append(members)
        remaining -= len(members)
        for v in members:
            alive[v] = False
        for v in members:
            for u in g.neighbors(v):
                if alive[u]:
                    live_deg[u] -= 1
                    if live_deg[u] == k:
                        low.append(u)
                    anchors[u] = None

    while True:
        while low:
            v = low.popleft()
            if alive[v]:
                remove((v,))
        if not remaining:
            break
        witness = None
        while anchors and witness is None:
            a, _ = anchors.popitem()
            if alive[a]:
                witness = forbidden_configuration(live, regime, (a,), cap)
        if witness is None:
            witness = forbidden_configuration(live, regime, None, cap) or find_island(live, k, cap)
        if witness is None and cap < regime.size:
            witness = forbidden_configuration(live, regime) or find_island(live, k, regime.size)
            planar = planar and witness is None
        if witness is None:
            break
        remove(witness.members)

    base = tuple(live.vertices())
    if len(base) > regime.threshold(chi):
        raise TheoremViolation(regime, chi, base)
    return PeelDecomposition(g, regime, chi, tuple(layers), base, planar)


def extend_coloring(dec: PeelDecomposition, lists) -> dict[int, int]:
    """Color a decomposition from per-vertex lists of at least k+1 colors each.

    Base vertices take the first color of their list. Layers are colored in
    reverse removal order; each island member takes the first list color not
    used by an already-colored neighbor outside its own island. Monochromatic
    components then have at most `dec.bound` vertices. Beside the returned
    dict, a list holds each vertex's color once its layer is done, and None
    before (so no list may offer None); dec's layers and base must partition
    the vertices, as they do when replay_ok accepts it.
    """
    g, k = dec.graph, dec.regime.k
    n, adj = g.n, g.adjacency
    gap = _first_missing(lists, n)
    rows = list(map(lists.__getitem__, range(gap)))
    short = next((v for v, row in enumerate(rows) if len(set(row)) <= k), gap)
    if short < gap:
        raise ValueError(f"list of vertex {short} has fewer than {k + 1} distinct colors")
    if gap < n:
        raise ValueError(f"no color list for vertex {gap}")
    coloring: dict[int, int] = {}
    col = [None] * n
    for v in dec.base:
        coloring[v] = col[v] = rows[v][0]
    for layer in reversed(dec.layers):
        for v in sorted(layer):
            used = set(map(col.__getitem__, adj[v]))
            for c in rows[v]:
                if c not in used:
                    coloring[v] = c
                    break
            else:
                raise AssertionError(f"vertex {v} ran out of colors; broken layer")
        for v in layer:
            col[v] = coloring[v]
    return coloring


def color(dec: PeelDecomposition, lists=None):
    """Color a decomposition and audit it: (coloring, report, fault or None).

    With lists, extend_coloring colors from them and components must stay
    within `dec.bound`. Without, a regime A decomposition takes four colors
    and a sink: lists (5, 1, 2, 3, 4) on the base and (1, 2, 3, 4, 5) on
    island members. A member only takes 5 when its (at most four) outside
    neighbors use 1..4, so 5 never crosses a layer boundary: colors 1..4
    stay within `dec.size` and 5 within `dec.bound`.
    """
    g = dec.graph
    if lists is not None:
        coloring = extend_coloring(dec, lists)
        rep = audit(g, coloring, max_size=dec.bound, lists=lists)
        return coloring, rep, None if rep.ok else (
            f"audit failed: max component {rep.max_component}, "
            f"{len(rep.list_violations)} list violations")
    if dec.regime != REGIME_A:
        raise ValueError("four colors plus a sink need a regime A decomposition")
    base = set(dec.base)
    coloring = extend_coloring(
        dec, {v: (5, 1, 2, 3, 4) if v in base else (1, 2, 3, 4, 5) for v in range(g.n)})
    rep = audit(g, coloring)
    sizes = rep.component_sizes
    bad = [c for c in (1, 2, 3, 4) if sizes.get(c, 0) > dec.size]
    fault = (f"colors {bad} exceed {dec.size}" if bad else
             f"sink color exceeds {dec.bound}" if sizes.get(5, 0) > dec.bound else None)
    return coloring, rep, fault
