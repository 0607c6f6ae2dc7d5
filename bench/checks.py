"""Output checks computed apart from the program.

Every check works on the benchmark's own adjacency lists (built while making
the inputs, or read off an output graph's edge list) and its own searches.
None compares against a stored copy of an earlier output. Each returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
from collections import deque


def mono_component_sizes(adj, coloring) -> dict[int, int]:
    """Largest monochromatic component per colour, by breadth-first search."""
    seen = [False] * len(adj)
    largest: dict[int, int] = {}
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        c = coloring[s]
        size, queue = 1, deque([s])
        while queue:
            for y in adj[queue.popleft()]:
                if not seen[y] and coloring[y] == c:
                    seen[y] = True
                    size += 1
                    queue.append(y)
        largest[c] = max(largest.get(c, 0), size)
    return largest


def island_reason(adj, members, k, size, present=None) -> str | None:
    """Why `members` is not a k-island of at most `size` vertices, or None."""
    present = present or [True] * len(adj)
    mset = set(members)
    if not mset or len(mset) > size:
        return f"island of {len(mset)} vertices, allowed 1..{size}"
    for v in mset:
        if not present[v]:
            return f"island member {v} was already removed"
        if sum(1 for u in adj[v] if u not in mset and present[u]) > k:
            return f"island member {v} has more than {k} neighbours outside"
    return None


def peel_reason(adj, layers, base, k, size, threshold) -> str | None:
    """Re-check a peel: each layer an island of what was left, then a small base."""
    present = [True] * len(adj)
    for layer in layers:
        why = island_reason(adj, layer, k, size, present)
        if why:
            return why
        for v in layer:
            present[v] = False
    if sorted(base) != [v for v in range(len(adj)) if present[v]]:
        return "base is not the set of unpeeled vertices"
    seen = [not p for p in present]
    for s in base:
        if seen[s]:
            continue
        seen[s] = True
        size_, queue = 1, deque([s])
        while queue:
            for y in adj[queue.popleft()]:
                if not seen[y]:
                    seen[y] = True
                    size_ += 1
                    queue.append(y)
        if size_ > threshold:
            return f"base component of {size_} vertices exceeds {threshold}"
    return None


def coloring_reason(adj, coloring, bound, lists=None, pins=None) -> str | None:
    """Every vertex coloured once, from its list and by its pin; components within bound."""
    if sorted(coloring) != list(range(len(adj))):
        return "not every vertex is coloured exactly once"
    for v in range(len(adj)):
        if lists is not None and coloring[v] not in lists[v]:
            return f"vertex {v} has colour {coloring[v]} outside its list"
    for v, c in (pins or {}).items():
        if coloring[v] != c:
            return f"pinned vertex {v} has colour {coloring[v]}, not {c}"
    worst = max(mono_component_sizes(adj, coloring).values(), default=0)
    if worst > bound:
        return f"monochromatic component of {worst} vertices exceeds {bound}"
    return None


def sink_reason(adj, coloring, sink_bound) -> str | None:
    """Four-plus-sink: colours 1..4 within 3 vertices, colour 5 within sink_bound."""
    if sorted(coloring) != list(range(len(adj))):
        return "not every vertex is coloured exactly once"
    if not set(coloring.values()) <= {1, 2, 3, 4, 5}:
        return "colour outside 1..5"
    sizes = mono_component_sizes(adj, coloring)
    for c, size in sizes.items():
        if size > (sink_bound if c == 5 else 3):
            return f"colour {c} has a component of {size} vertices"
    return None


def triangle_free(adj) -> bool:
    nbrs = [set(a) for a in adj]
    return not any(
        nbrs[u] & nbrs[v] for u in range(len(adj)) for v in adj[u] if u < v
    )


def n_link_forces_no(adj, k) -> str | None:
    """Check that the graph is the N link on k and that equal terminals are infeasible.

    The link is terminals 0 (y) and 1 (z) over a path 2..L+1 of L = 3k^4
    vertices, each path vertex joined to exactly one terminal. With y and z
    both coloured c, a path vertex coloured c joins y's or z's component, so
    at most 2(k-1) path vertices take c. They cut the other L - 2(k-1) path
    vertices into at most 2k-1 runs, and the longest run is a component of
    at least ceil((L - 2k + 2) / (2k - 1)) vertices. Returns None when that
    exceeds k, so the only right verdict is "no".
    """
    length = 3 * k**4
    if len(adj) != length + 2 or 1 in adj[0]:
        return "not an N link: wrong order or joined terminals"
    for i in range(length):
        v = 2 + i
        path = {u for u in (v - 1, v + 1) if 2 <= u <= length + 1}
        terms = set(adj[v]) & {0, 1}
        if len(terms) != 1 or set(adj[v]) != path | terms:
            return f"not an N link at path vertex {v}"
    longest_run = math.ceil((length - 2 * (k - 1)) / (2 * (k - 1) + 1))
    if longest_run <= k:
        return f"arithmetic leaves runs of {longest_run} <= {k}; 'no' is not forced"
    return None


def min_max_component(adj) -> int:
    """Least, over all 2^n two-colourings, of the largest monochromatic component.

    Exhaustive over every vertex subset S (colour class 0) with numpy
    bitmasks: c(S) is the component of S's lowest vertex inside S, found by
    flooding through byte-indexed neighbour tables, and the largest component
    of S follows from f(S) = max(|c(S)|, f(S minus c(S))). Needs n <= 24.
    """
    import numpy as np

    n = len(adj)
    if n > 24:
        raise ValueError("too many vertices to enumerate")
    nbr = [sum(1 << u for u in adj[v]) for v in range(n)]
    tables = []
    for b in range((n + 7) // 8):
        table = np.zeros(256, dtype=np.uint32)
        for x in range(256):
            for i in range(8):
                if x >> i & 1 and 8 * b + i < n:
                    table[x] |= nbr[8 * b + i]
        tables.append(table)
    subsets = np.arange(1 << n, dtype=np.uint32)
    comp = subsets & (~subsets + np.uint32(1))  # lowest vertex of each subset
    while True:
        grown = comp.copy()
        for b, table in enumerate(tables):
            grown |= table[(comp >> np.uint32(8 * b)) & np.uint32(255)] & subsets
        if np.array_equal(grown, comp):
            break
        comp = grown
    comp_size = np.bitwise_count(comp).astype(np.uint8)
    rest = subsets ^ comp
    largest = comp_size.copy()
    while True:
        nxt = np.maximum(comp_size, largest[rest])
        if np.array_equal(nxt, largest):
            break
        largest = nxt
    full = np.uint32((1 << n) - 1)
    return int(np.maximum(largest, largest[full ^ subsets]).min())
