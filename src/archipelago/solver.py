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
the same vertex and explores the same tree as a scan from the first rank.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from archipelago.graphs import Graph, connected_components
from archipelago.peeling import audit


@dataclass(frozen=True)
class MCResult:
    verdict: str  # "yes" | "no" | "inconclusive"
    coloring: dict[int, int] | None
    nodes_explored: int
    best_max_component: int | None = None


@dataclass(frozen=True)
class OptimizeResult:
    k: int
    coloring: dict[int, int]
    exact: bool
    nodes_explored: int


class _State:
    """Colors plus rollback-able cluster and frontier bookkeeping."""

    def __init__(self, g: Graph, k: int):
        self.adj = tuple(g.neighbors(v) for v in range(g.n))
        self.k = k
        self.color = [-1] * g.n
        self.parent = list(range(g.n))
        self.size = [1] * g.n
        self.union_trail: list[int] = []  # merged child roots
        self.color_trail: list[int] = []  # vertices in assignment order
        self.colored_nbrs = [0] * g.n
        self.seen = [0] * g.n  # the try_sizes call that last counted each root
        self.stamp = 0
        # branching order, its inverse, and a rank no frontier vertex is below
        self.priority = sorted(range(g.n), key=lambda v: (-len(self.adj[v]), v))
        self.rank = sorted(range(g.n), key=self.priority.__getitem__)
        self.low = 0

    def try_sizes(self, v: int) -> list[int]:
        """Cluster sizes if v were colored 0 and 1; colors and clusters stay."""
        color, parent, seen, sizes = self.color, self.parent, self.seen, [1, 1]
        self.stamp = stamp = self.stamp + 1
        for u in self.adj[v]:
            c = color[u]
            if c != -1:
                while parent[u] != u:
                    u = parent[u]
                if seen[u] != stamp:  # each root counts once per call
                    seen[u] = stamp
                    sizes[c] += self.size[u]
        return sizes

    def paint(self, v: int, c: int):
        """Color v with c, a color known to fit."""
        color, colored_nbrs, parent, size = self.color, self.colored_nbrs, self.parent, self.size
        color[v] = c
        self.color_trail.append(v)
        root = v  # of v's cluster
        for u in self.adj[v]:
            colored_nbrs[u] += 1
            if color[u] == c:
                ru, rv = u, root
                while parent[ru] != ru:
                    ru = parent[ru]
                if ru != rv:
                    if size[ru] < size[rv]:
                        ru, rv = rv, ru
                    parent[rv] = root = ru
                    size[ru] += size[rv]
                    self.union_trail.append(rv)
            elif color[u] == -1 and self.rank[u] < self.low:
                self.low = self.rank[u]

    def marks(self) -> tuple[int, int]:
        return len(self.union_trail), len(self.color_trail)

    def undo_to(self, marks: tuple[int, int]):
        umark, cmark = marks
        while len(self.union_trail) > umark:
            child = self.union_trail.pop()
            self.size[self.parent[child]] -= self.size[child]
            self.parent[child] = child
        while len(self.color_trail) > cmark:
            v = self.color_trail.pop()
            self.color[v] = -1
            for u in self.adj[v]:
                self.colored_nbrs[u] -= 1
            if self.colored_nbrs[v] and self.rank[v] < self.low:
                self.low = self.rank[v]

    def pick(self) -> int | None:
        """First vertex in priority that is uncolored with a colored neighbor."""
        color, colored_nbrs, priority = self.color, self.colored_nbrs, self.priority
        for i in range(self.low, len(priority)):
            v = priority[i]
            if color[v] == -1 and colored_nbrs[v]:
                self.low = i
                return v
        return None

    def propagate(self, queue: deque) -> bool:
        """Force single-choice vertices; False when one has no choice.

        Only the uncolored neighbors of each newly colored vertex are queued,
        which misses a vertex whose option a cluster growing elsewhere removes
        (on the path 0-1-2 at k = 2, coloring 1 then 2 alike leaves 0 one
        color, unforced). The search stays exact: a branch checks the size
        its color would make, and _yes audits the result.
        """
        color = self.color
        while queue:
            v = queue.popleft()
            if color[v] != -1:
                continue
            size0, size1 = self.try_sizes(v)
            ok0, ok1 = size0 <= self.k, size1 <= self.k
            if not ok0 and not ok1:
                return False
            if ok0 != ok1:
                self.paint(v, 0 if ok0 else 1)
                for u in self.adj[v]:
                    if color[u] == -1:
                        queue.append(u)
        return True

    def attempt(self, v: int, c: int, size: int) -> bool:
        """Color v with c, whose cluster would have size vertices, and propagate."""
        if size > self.k:
            return False
        self.paint(v, c)
        queue = deque(u for u in self.adj[v] if self.color[u] == -1)
        return self.propagate(queue)


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
    pins = dict(pins) if pins else {}
    for v, c in pins.items():
        if not 0 <= v < g.n:
            raise ValueError(f"pinned vertex {v} out of range")
        if c not in (0, 1):
            raise ValueError(f"pin color {c} must be 0 or 1")
    if g.n == 0:
        return MCResult("yes", {}, 0, 0)

    state = _State(g, k)
    for v in sorted(pins):
        if state.try_sizes(v)[pins[v]] > k:
            raise ValueError("inconsistent pins")
        state.paint(v, pins[v])
    for comp in connected_components(g):
        if not any(v in pins for v in comp):
            # nothing in comp is colored yet, so the seed's cluster is itself: 1 <= k
            state.paint(comp[0], 0)
    seeds = deque(
        u
        for v in range(g.n)
        if state.color[v] != -1
        for u in state.adj[v]
        if state.color[u] == -1
    )
    if not state.propagate(seeds):
        return MCResult("no", None, 0)

    def frame(v: int) -> list:
        """v, its first color, colors tried, cluster sizes per color, marks."""
        sizes = state.try_sizes(v)
        return [v, 1 if sizes[1] > sizes[0] else 0, 0, sizes, state.marks()]

    nodes = 0
    first = state.pick()
    if first is None:
        return _yes(g, state, nodes)
    stack = [frame(first)]
    while stack:
        top = stack[-1]
        v, c0, tried, sizes, marks = top
        state.undo_to(marks)
        if tried == 2:
            stack.pop()
            continue
        top[2] = tried + 1
        nodes += 1
        if nodes > budget:
            return MCResult("inconclusive", None, nodes - 1)
        c = c0 ^ tried
        if state.attempt(v, c, sizes[c]):
            nxt = state.pick()
            if nxt is None:
                return _yes(g, state, nodes)
            stack.append(frame(nxt))
    return MCResult("no", None, nodes)


def _yes(g: Graph, state: _State, nodes: int) -> MCResult:
    coloring = {v: state.color[v] for v in range(g.n)}
    if any(c == -1 for c in coloring.values()):
        raise AssertionError("search finished with uncolored vertices")
    report = audit(g, coloring, max_size=state.k)
    if report.oversized_components:
        raise AssertionError("search returned an oversized component; solver bug")
    return MCResult("yes", coloring, nodes, report.max_component)


def mc_optimize(g: Graph, budget: int = 10**7) -> OptimizeResult:
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

