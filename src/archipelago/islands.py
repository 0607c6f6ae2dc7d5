"""Islands: vertex sets whose members each have few neighbors outside the set.

A set X is a k-island when every vertex of X has at most k neighbors outside
X. Small islands are the units removed by the peeling colorer: the guarantees
say that above a size threshold (linear in the negated Euler characteristic),
a small island always exists. Three parameter regimes are supported:

  A: any connected embedded graph; 4-islands of at most 3 vertices.
  B: triangle-free; 2-islands of at most 10 vertices.
  C: girth at least 6; 1-islands of at most 16 vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from archipelago.graphs import Graph


@dataclass(frozen=True)
class Regime:
    """One row of the guarantee table."""

    name: str
    k: int  # island members may have at most k neighbors outside
    size: int  # an island of at most this many vertices is guaranteed
    factor: int  # guarantee holds once n > factor * (-chi)

    def threshold(self, chi: int) -> int:
        """Largest order with no guarantee: islands promised once n exceeds this."""
        return max(0, -self.factor * chi)


REGIME_A = Regime("A", k=4, size=3, factor=72)
REGIME_B = Regime("B", k=2, size=10, factor=72)
REGIME_C = Regime("C", k=1, size=16, factor=357)

REGIMES = {r.name: r for r in (REGIME_A, REGIME_B, REGIME_C)}


@dataclass(frozen=True)
class IslandWitness:
    """A verified k-island. Truthy; lists each member's outside-neighbor count."""

    members: tuple[int, ...]
    k: int
    outside_degrees: dict[int, int]

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class IslandRefusal:
    """Why a set is not a k-island. Falsy; names the first offending vertex."""

    k: int
    vertex: int | None
    outside_count: int | None
    reason: str

    def __bool__(self) -> bool:
        return False


def is_island(g: Graph, members, k: int) -> IslandWitness | IslandRefusal:
    """Check the island condition for an explicit vertex set."""
    mset = set(members)
    if not mset:
        return IslandRefusal(k=k, vertex=None, outside_count=None, reason="empty set")
    for v in mset:
        if not 0 <= v < g.n:
            return IslandRefusal(k=k, vertex=v, outside_count=None, reason="vertex out of range")
    outside = {}
    for v in sorted(mset):
        cnt = sum(1 for u in g.neighbors(v) if u not in mset)
        if cnt > k:
            return IslandRefusal(
                k=k,
                vertex=v,
                outside_count=cnt,
                reason=f"vertex {v} has {cnt} neighbors outside (allowed {k})",
            )
        outside[v] = cnt
    return IslandWitness(members=tuple(sorted(mset)), k=k, outside_degrees=outside)


# ---------------------------------------------------------------------------
# forbidden configurations: constant-size patterns that are islands directly


def forbidden_configuration(g: Graph, regime: Regime) -> IslandWitness | None:
    """Scan for a known constant-size island pattern of the regime.

    For regime A the pattern list is exhaustive for the (4, 3) guarantee; for
    B and C the scans are fast sufficient checks and the general search is the
    fallback. Every hit is re-verified with is_island before being returned.
    """
    if regime.name == "A":
        found = _config_regime_a(g)
    elif regime.name == "B":
        found = _config_path(g, low_deg=4, end_deg=3, max_vertices=10, k=2)
    elif regime.name == "C":
        found = _config_path(g, low_deg=3, end_deg=2, max_vertices=16, k=1)
    else:
        raise ValueError(f"unknown regime {regime.name!r}")
    if found is None:
        return None
    witness = is_island(g, found, regime.k)
    if not witness:
        raise AssertionError(f"configuration scan produced a non-island: {found}")
    return witness


def _config_regime_a(g: Graph) -> list[int] | None:
    # single vertex of degree at most 4
    for v in range(g.n):
        if g.degree(v) <= 4:
            return [v]
    # edge between two degree-5 vertices
    for u, v in g.edges():
        if g.degree(u) == 5 and g.degree(v) == 5:
            return [u, v]
    # degree-5, degree-(at most 6), degree-5 path
    for mid in range(g.n):
        if g.degree(mid) <= 6:
            fives = [u for u in g.neighbors(mid) if g.degree(u) == 5]
            if len(fives) >= 2:
                return [fives[0], mid, fives[1]]
    # triangle with all degrees at most 6
    for u, v in g.edges():
        if g.degree(u) <= 6 and g.degree(v) <= 6:
            nu = set(g.neighbors(u))
            for w in g.neighbors(v):
                if w in nu and g.degree(w) <= 6:
                    return [u, v, w]
    return None


def _config_path(g: Graph, low_deg: int, end_deg: int, max_vertices: int, k: int) -> list[int] | None:
    """Path of at most max_vertices low-degree vertices with exact-degree ends.

    Ends may coincide: a short cycle through a single end-degree vertex whose
    other vertices all have low degree also qualifies (the repeated endpoint is
    listed once). Isolated low-degree vertices are found first.
    """
    for v in range(g.n):
        if g.degree(v) <= end_deg - 1:
            return [v]
    ends = [v for v in range(g.n) if g.degree(v) == end_deg]
    if not ends:
        return None
    low = [v for v in range(g.n) if g.degree(v) <= low_deg]
    lowset = set(low)
    # BFS inside the low-degree subgraph from each endpoint, looking for
    # another endpoint within max_vertices - 1 steps
    depth_cap = max_vertices - 1
    endset = set(ends)
    for s in ends:
        prev = {s: -1}
        level = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if level[x] >= depth_cap:
                continue
            for y in g.neighbors(x):
                if y in lowset and y not in level:
                    level[y] = level[x] + 1
                    prev[y] = x
                    if y in endset:
                        path = [y]
                        while path[-1] != s:
                            path.append(prev[path[-1]])
                        return path
                    queue.append(y)
        # coincident ends: shortest low-degree cycle through s, at most
        # max_vertices - 1 further vertices
        cyc = _short_cycle_through(g, s, lowset, max_len=max_vertices)
        if cyc is not None:
            return cyc
    return None


def _short_cycle_through(g: Graph, s: int, allowed: set[int], max_len: int) -> list[int] | None:
    """A cycle through s of at most max_len vertices inside `allowed`, or None.

    BFS from s labeling each vertex with the first neighbor of s on its branch;
    an edge joining two branches (or a branch back to s at distance >= 2 along
    a different branch) closes a cycle through s.
    """
    branch = {s: s}
    prev = {s: -1}
    level = {s: 0}
    queue = deque()
    for u in g.neighbors(s):
        if u in allowed:
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
            if y == s or y not in allowed:
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


# ---------------------------------------------------------------------------
# general search


def find_island(g: Graph, k: int, size: int, restrict_to=None) -> IslandWitness | None:
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
    pool = range(g.n) if restrict_to is None else sorted(set(restrict_to))
    if pool and not (0 <= pool[0] and pool[-1] < g.n):
        raise ValueError(f"restrict_to names vertices outside 0..{g.n - 1}")
    candidates = [v for v in pool if g.degree(v) <= degree_cap]
    cand_set = set(candidates)
    for seed in candidates:
        hit = _grow_island(g, k, size, seed, cand_set)
        if hit is not None:
            witness = is_island(g, hit, k)
            if not witness:
                raise AssertionError(f"island search produced a non-island: {hit}")
            return witness
    return None


def _grow_island(g: Graph, k: int, size: int, seed: int, cand_set: set[int]) -> set[int] | None:
    """Branch search for an island containing seed, ids >= seed, within cand_set."""

    def violating(included: set[int]) -> int | None:
        worst = None
        for v in included:
            cnt = sum(1 for u in g.neighbors(v) if u not in included)
            if cnt > k:
                worst = v if worst is None else min(worst, v)
        return worst

    def recurse(included: set[int], excluded: set[int]) -> set[int] | None:
        p = violating(included)
        if p is None:
            return set(included)
        if len(included) == size:
            return None
        # the violator must absorb an undecided neighbor; it cannot if too
        # many of its neighbors are already excluded
        undecided = [
            u
            for u in g.neighbors(p)
            if u not in included and u not in excluded and u in cand_set and u >= seed
        ]
        if sum(1 for u in g.neighbors(p) if u in excluded or u not in cand_set or u < seed) > k:
            return None
        if not undecided:
            return None
        u = min(undecided)
        hit = recurse(included | {u}, excluded)
        if hit is not None:
            return hit
        return recurse(included, excluded | {u})

    return recurse({seed}, set())
