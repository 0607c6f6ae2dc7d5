"""Exact search for 2-colorings with small monochromatic pieces.

mc_decide answers whether the graph has a red/blue coloring in which every
monochromatic connected component has at most k vertices, optionally under
pinned colors. The search is depth-first over colors with unit propagation;
cluster sizes are tracked by a union-find that supports exact rollback (union
by size, no path compression, merges logged on a trail). Propagation is sound
but not complete: a forced color is the only one that fits, but a vertex left
with one option may go unforced until the search branches on it, where each
branch checks the size its color would make; _yes audits results.

Each branching vertex tries first the color whose cluster it would join is
larger (color 0 on a tie); both sizes come from one try_sizes call when its
frame is pushed. The vertex picked and the pruning depend only on the state,
not on the order its colors are tried, so a refutation visits the same nodes
in any color order. A search that finds a coloring can end sooner or later
than a color-0-first one, so under a node budget it can turn to or from
"inconclusive"; a search that ends within its budget gives the same verdict
in any order.

A node costs time in the degrees of the vertices it colors and uncolors, plus
a forward scan for the next branching vertex, not a pass over all n vertices.
Each vertex keeps a count of its colored neighbors, and a pointer holds a rank
in the branching order below which no frontier vertex lies; the scan starts
there. It skips only vertices that are off the frontier, so the search picks
the same vertex and explores the same tree as a scan from the first rank. The
search state lives in local lists that _search's nested steps share; what
depends on the graph alone (adjacency, branching order and ranks, components)
comes from _setup, once per mc_decide or mc_optimize. mc_optimize is one
branch-and-bound run of the same search (Land and Doig, 1960), from
graphs.parity_coloring's BFS-layer parity coloring down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from archipelago.certify import audit
from archipelago.graphs import Graph, connected_components, parity_coloring


@dataclass(frozen=True)
class MCResult:
    verdict: str  # "yes" | "no" | "inconclusive"
    coloring: dict[int, int] | None
    nodes_explored: int
    best_max_component: int | None = None


@dataclass(frozen=True)
class OptimizeResult:
    k: int  # the largest monochromatic component of coloring
    coloring: dict[int, int]
    exact: bool  # the search refuted every coloring below k
    nodes_explored: int  # nodes of the one branch-and-bound search


def _setup(g: Graph) -> tuple:
    """What every search of g shares: adjacency, branching order, ranks, components."""
    adj = g.adjacency
    priority = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    rank = sorted(range(g.n), key=priority.__getitem__)
    return adj, priority, rank, connected_components(g)


def mc_decide(g: Graph, k: int, pins=None, budget: int = 10**7) -> MCResult:
    """Decide whether a 2-coloring with monochromatic pieces of at most k exists.

    pins maps vertices to required colors (0 or 1). Contradictory pins raise;
    an unsatisfiable instance returns "no"; exceeding the node budget returns
    "inconclusive". Flip symmetry is broken by pinning the smallest vertex of
    every component no pin touches; the verdict is unaffected because each
    component can be flipped independently.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, not {budget}")
    pins = dict(pins) if pins else {}
    for v, c in pins.items():
        if not 0 <= v < g.n:
            raise ValueError(f"pinned vertex {v} out of range")
        if c not in (0, 1):
            raise ValueError(f"pin color {c} must be 0 or 1")
    if g.n == 0:
        return MCResult("yes", {}, 0, 0)
    return _search(g, _setup(g), k, pins, budget)


def _search(g: Graph, setup: tuple, k: int, pins: dict, budget: int, best: list[int] | None = None) -> MCResult:
    """mc_decide on a non-empty graph with checked pins and _setup(g)'s data.

    Given best, a coloring whose largest cluster is k + 1, it is a branch and
    bound: each coloring completed is copied into best, k drops below its
    largest cluster, and the frames whose state holds a larger cluster are
    popped (a color forced under a larger k is forced under a smaller one, so
    the rest stay sound). It ends "no" when nothing below best exists, with
    best's largest cluster as best_max_component.
    """
    adj, priority, rank, components = setup
    n = g.n
    color = [-1] * n
    parent = list(range(n))
    size = [1] * n
    union_trail: list[int] = []  # merged child roots
    color_trail: list[int] = []  # vertices in assignment order
    colored_nbrs = [0] * n
    seen = [0] * n  # the try_sizes call that last counted each root
    stamp = 0
    low = 0  # a rank in the branching order no frontier vertex is below
    largest = 0  # the largest cluster of the state

    def try_sizes(v: int) -> list[int]:
        """Cluster sizes if v were colored 0 and 1; colors and clusters stay."""
        nonlocal stamp
        stamp += 1
        sizes = [1, 1]
        for u in adj[v]:
            c = color[u]
            if c != -1:
                while parent[u] != u:
                    u = parent[u]
                if seen[u] != stamp:  # each root counts once per call
                    seen[u] = stamp
                    sizes[c] += size[u]
        return sizes

    def paint(v: int, c: int):
        """Color v with c, a color known to fit."""
        nonlocal low, largest
        color[v] = c
        color_trail.append(v)
        root = v  # of v's cluster
        for u in adj[v]:
            colored_nbrs[u] += 1
            cu = color[u]
            if cu == c:
                ru, rv = u, root
                while parent[ru] != ru:
                    ru = parent[ru]
                if ru != rv:
                    if size[ru] < size[rv]:
                        ru, rv = rv, ru
                    parent[rv] = root = ru
                    size[ru] += size[rv]
                    union_trail.append(rv)
            elif cu == -1 and rank[u] < low:
                low = rank[u]
        if size[root] > largest:
            largest = size[root]

    def undo_to(umark: int, cmark: int, big: int):
        """Back to the state with the given trail lengths and largest cluster."""
        nonlocal low, largest
        largest = big
        while len(union_trail) > umark:
            child = union_trail.pop()
            size[parent[child]] -= size[child]
            parent[child] = child
        while len(color_trail) > cmark:
            v = color_trail.pop()
            color[v] = -1
            for u in adj[v]:
                colored_nbrs[u] -= 1
            if colored_nbrs[v] and rank[v] < low:
                low = rank[v]

    def pick() -> int | None:
        """First vertex in priority that is uncolored with a colored neighbor."""
        nonlocal low
        for i in range(low, n):
            v = priority[i]
            if color[v] == -1 and colored_nbrs[v]:
                low = i
                return v
        return None

    def propagate(queue: deque) -> bool:
        """Force single-choice vertices; False when one has no choice.

        Only the neighbors of each newly colored vertex are queued, which
        misses a vertex whose option a cluster growing elsewhere removes (on
        the path 0-1-2 at k = 2, coloring 1 then 2 alike leaves 0 one color,
        unforced). The search stays exact: a branch checks the size its color
        would make, and _yes audits the result. Whole neighbor lists are
        queued; a vertex colored when queued is still colored when popped.
        """
        while queue:
            v = queue.popleft()
            if color[v] != -1:
                continue
            size0, size1 = try_sizes(v)
            ok0, ok1 = size0 <= k, size1 <= k
            if not ok0 and not ok1:
                return False
            if ok0 != ok1:
                paint(v, 0 if ok0 else 1)
                queue.extend(adj[v])
        return True

    for v in sorted(pins):
        if try_sizes(v)[pins[v]] > k:
            raise ValueError("inconsistent pins")
        paint(v, pins[v])
    for comp in components:
        if not any(v in pins for v in comp):
            # nothing in comp is colored yet, so the seed's cluster is itself: 1 <= k
            paint(comp[0], 0)

    def frame(v: int) -> list:
        """v, its first color, colors tried, cluster sizes per color, marks, largest cluster."""
        sizes = try_sizes(v)
        return [v, 1 if sizes[1] > sizes[0] else 0, 0, sizes, len(union_trail), len(color_trail), largest]

    nodes = 0
    stack: list[list] = []
    grown = propagate(deque(u for v in range(n) if color[v] != -1 for u in adj[v] if color[u] == -1))
    while True:
        if grown:  # the state grew without a conflict: branch on it, or it is complete
            grown = False
            nxt = pick()
            if nxt is not None:
                stack.append(frame(nxt))
            elif best is None:
                return _yes(g, color, k, nodes)
            else:
                best[:] = color
                k = largest - 1
                while stack and stack[-1][6] > k:
                    stack.pop()
        if not stack:
            return MCResult("no", None, nodes, None if best is None else k + 1)
        top = stack[-1]
        v, c0, tried, sizes, umark, cmark, big = top
        if len(color_trail) > cmark:  # unions come only with colors
            undo_to(umark, cmark, big)
        if tried == 2:
            stack.pop()
            continue
        top[2] = tried + 1
        nodes += 1
        if nodes > budget:
            return MCResult("inconclusive", None, nodes - 1, None if best is None else k + 1)
        c = c0 ^ tried
        if sizes[c] <= k:
            paint(v, c)
            grown = propagate(deque(adj[v]))


def _yes(g: Graph, color: list[int], k: int, nodes: int) -> MCResult:
    coloring = dict(enumerate(color))
    if -1 in color:
        raise AssertionError("search finished with uncolored vertices")
    report = audit(g, coloring, max_size=k)
    if report.oversized_components:
        raise AssertionError("search returned an oversized component; solver bug")
    return MCResult("yes", coloring, nodes, report.max_component)


def mc_optimize(g: Graph, budget: int = 10**7) -> OptimizeResult:
    """Least largest monochromatic component over all colorings, within a node budget.

    One branch-and-bound _search from graphs.parity_coloring(g) down.
    exact means the search refuted every coloring below the one returned; a
    budget that runs out returns the best coloring found. The coloring is
    audited, and k is its largest component.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, not {budget}")
    if g.n == 0:
        return OptimizeResult(0, {}, True, 0)
    best = parity_coloring(g)
    top = audit(g, dict(enumerate(best))).max_component
    if top == 1:  # a proper coloring
        return OptimizeResult(1, dict(enumerate(best)), True, 0)
    res = _search(g, _setup(g), top - 1, {}, budget, best)
    found = _yes(g, best, res.best_max_component, res.nodes_explored)
    return OptimizeResult(found.best_max_component, found.coloring, res.verdict == "no", res.nodes_explored)
