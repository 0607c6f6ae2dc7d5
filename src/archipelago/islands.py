"""Islands: vertex sets whose members each have few neighbors outside the set.

A set X is a k-island when every vertex of X has at most k neighbors outside
X. Small islands are the units removed by the peeling colorer: the guarantees
say that above a size threshold (linear in the negated Euler characteristic),
a small island always exists. The three parameter regimes are the rows of
the table in archipelago.regimes, re-exported here.
"""

from __future__ import annotations

from archipelago.certify import IslandWitness, is_island
from archipelago.graphs import Graph, LiveView
from archipelago.regimes import REGIME_A, REGIME_B, REGIME_C, REGIMES, Regime  # noqa: F401 - re-exported


# ---------------------------------------------------------------------------
# forbidden configurations: constant-size patterns that are islands directly


def forbidden_configuration(
    g: Graph | LiveView, regime: Regime, anchors=None, size: int | None = None
) -> IslandWitness | None:
    """Scan for a known constant-size island pattern of the regime.

    For regime A the pattern list is exhaustive for the (4, 3) guarantee; for
    B and C the scans are fast sufficient checks and the general search is the
    fallback. The scan searches from `anchors` (default: every vertex) for
    patterns of at most `size` vertices (default: the regime's). Every hit is
    re-verified with is_island before being returned.
    """
    size = regime.size if size is None else size
    found = regime.scan(g, size, anchors)
    if found is None:
        return None
    witness = is_island(g, found, regime.k)
    if witness is None:
        raise AssertionError(f"configuration scan produced a non-island: {found}")
    return witness


# ---------------------------------------------------------------------------
# general search


def find_island(g: Graph | LiveView, k: int, size: int, restrict_to=None) -> IslandWitness | None:
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
    pool = g.vertices() if restrict_to is None else sorted(set(restrict_to))
    if pool and not (0 <= pool[0] and pool[-1] < g.n):
        raise ValueError(f"restrict_to names vertices outside 0..{g.n - 1}")
    candidates = [v for v in pool if g.degree(v) <= degree_cap]
    cand_set = set(candidates)
    for seed in candidates:
        hit = _grow_island(g, k, size, seed, cand_set)
        if hit is not None:
            witness = is_island(g, hit, k)
            if witness is None:
                raise AssertionError(f"island search produced a non-island: {hit}")
            return witness
    return None


def _grow_island(g: Graph | LiveView, k: int, size: int, seed: int, cand_set: set[int]) -> set[int] | None:
    """Branch search for an island containing seed, ids >= seed, within cand_set.

    Each step adds the least undecided neighbor u of the least violating
    member, trying the branch that includes u before the one that excludes
    it. The members' outside-neighbor counts and the violators are updated
    as a vertex joins or leaves, and backtracking unwinds a path of
    (vertex, included) decisions, so a step costs the degree of the vertex
    it adds or removes and the depth is not bounded by the recursion limit.
    """
    neighbors = g.neighbors
    included, excluded = {seed}, set()
    outside = {seed: len(neighbors(seed))}  # each member's neighbors outside included
    violators = {seed} if outside[seed] > k else set()
    path: list[tuple[int, bool]] = []
    while violators:
        u = None
        if len(included) < size:
            # the least violator must absorb an undecided neighbor; it cannot
            # if too many of its neighbors are already excluded
            blocked = 0
            for w in neighbors(min(violators)):
                if w not in included:
                    if w in excluded or w not in cand_set or w < seed:
                        blocked += 1
                    elif u is None or w < u:
                        u = w
            if blocked > k:
                u = None
        if u is not None:
            count = 0
            for w in neighbors(u):
                if w in included:
                    outside[w] -= 1
                    if outside[w] == k:
                        violators.discard(w)
                else:
                    count += 1
            included.add(u)
            outside[u] = count
            if count > k:
                violators.add(u)
            path.append((u, True))
            continue
        # backtrack to the deepest include step and take its exclude branch
        while path and not path[-1][1]:
            excluded.remove(path.pop()[0])
        if not path:
            return None
        u = path.pop()[0]
        included.remove(u)
        del outside[u]
        violators.discard(u)
        for w in neighbors(u):
            if w in included:
                outside[w] += 1
                if outside[w] == k + 1:
                    violators.add(w)
        excluded.add(u)
        path.append((u, False))
    return included
