"""A fixed calibration loop that tracks the host's speed during a run.

The host this benchmark was built on slows every process down by up to half
in phases that last from seconds to over a minute, so a run made inside one
reads slow however its jobs' times are summarised. The benchmark therefore
runs this loop in short blocks between its jobs and reports each timed
interval scaled by the loop's speed at that moment (see `Speed`).

The loop is the benchmark's own code and never calls the program, so a change
to the program cannot move it. Its work is like the program's: a depth-first
search over Python adjacency lists with a dict of labels, on a fixed sparse
random graph of 1,500 vertices.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# The loop's median time between jobs on the host the reference figures come
# from (2 cores, Python 3.11). A scaled time reads as seconds on a host where
# the loop takes this long.
NOMINAL_S = 0.0012
CALLS = 5  # loop calls per block
EVERY_S = 0.25  # timed job time between two blocks

_rng = random.Random(12345)
_N = 1500
_nbrs: list[set] = [set() for _ in range(_N)]
for _v in range(_N):
    for _u in _rng.sample(range(_N), 3):
        if _u != _v:
            _nbrs[_v].add(_u)
            _nbrs[_u].add(_v)
_ADJ = [sorted(s) for s in _nbrs]


def loop() -> int:
    """Components of the vertices of degree above 2, by depth-first search."""
    label: dict[int, int] = {}
    for s in range(0, _N, 3):
        if s in label:
            continue
        label[s] = s
        stack = [s]
        while stack:
            for y in _ADJ[stack.pop()]:
                if y not in label and len(_ADJ[y]) > 2:
                    label[y] = s
                    stack.append(y)
    return len(set(label.values()))


class Speed:
    """Blocks of calibration-loop times, taken between timed intervals.

    `block()` runs one block and returns its index. `scale(before, interval)`
    turns the length of an interval that ran between block `before` and the
    next block into seconds at the nominal speed: the interval times
    NOMINAL_S over the median loop time of those two blocks.
    """

    def __init__(self):
        for _ in range(CALLS):  # warm up before the first block
            loop()
        self.blocks: list[list[float]] = []

    def block(self) -> int:
        times = []
        for _ in range(CALLS):
            start = perf_counter()
            loop()
            times.append(perf_counter() - start)
        self.blocks.append(times)
        return len(self.blocks) - 1

    def scale(self, before: int, interval: float) -> float:
        around = self.blocks[before] + self.blocks[before + 1]
        return interval * NOMINAL_S / statistics.median(around)
