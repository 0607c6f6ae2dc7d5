"""Islands: vertex sets whose members each have few neighbors outside the set.

A set X is a k-island when every vertex of X has at most k neighbors outside
X. Small islands are the units removed by the peeling colorer: the guarantees
say that above a size threshold (linear in the negated Euler characteristic),
a small island always exists. The three parameter regimes are the rows of
the table in archipelago.regimes, re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from archipelago.graphs import Graph, LiveView
from archipelago.regimes import REGIME_A, REGIME_B, REGIME_C, REGIMES, Regime  # noqa: F401 - re-exported


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
    if not mset or any(v not in g for v in mset):
        return None
    outside = {}
    for v in sorted(mset):
        cnt = sum(1 for u in g.neighbors(v) if u not in mset)
        if cnt > k:
            return None
        outside[v] = cnt
    return IslandWitness(members=tuple(sorted(mset)), k=k, outside_degrees=outside)


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

    Depth first over (included, excluded) pairs on an explicit stack, so the
    search depth is not bounded by Python's recursion limit: each step adds
    the least undecided neighbor u of the least violating member, trying the
    branch that includes u before the one that excludes it.
    """
    stack = [({seed}, set())]
    while stack:
        included, excluded = stack.pop()
        p = min((v for v in included if sum(1 for u in g.neighbors(v) if u not in included) > k),
                default=None)
        if p is None:
            return included
        if len(included) == size:
            continue
        # the violator must absorb an undecided neighbor; it cannot if too
        # many of its neighbors are already excluded
        if sum(1 for u in g.neighbors(p) if u in excluded or u not in cand_set or u < seed) > k:
            continue
        undecided = [
            u
            for u in g.neighbors(p)
            if u not in included and u not in excluded and u in cand_set and u >= seed
        ]
        if undecided:
            u = min(undecided)
            stack.append((included, excluded | {u}))
            stack.append((included | {u}, excluded))
    return None
