"""In-memory spans around the benchmark's calls into the program.

A span is one call: its name (``<layer>.<function>``), start and end on the
``perf_counter`` clock, the job it belongs to, the span that was open when it
began, and optional attributes (the instance family and size, counts read from
the result). Spans stay in memory and are written out once the run ends.

With tracing off, ``Tracer.call`` is a plain call and records nothing.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

# span fields, in the order they are stored
SPAN_FIELDS = ("id", "parent", "job", "name", "start", "end", "attrs")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Run fn(*args, **kwargs), inside a span named `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [len(self.spans), self._open[-1] if self._open else None,
                self.job, name, perf_counter(), None, dict(attrs or {})]
        self.spans.append(span)
        self._open.append(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = perf_counter()
            self._open.pop()

    def annotate(self, **counts):
        """Attach counts to the most recently started span (no-op when off)."""
        if self.enabled and self.spans:
            self.spans[-1][6].update(counts)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def _exponent(points) -> float:
    """Median over families of log(t2/t1)/log(n2/n1) between its two sizes."""
    fits = []
    for by_n in points.values():
        if len(by_n) < 2:
            continue
        n1, n2 = min(by_n), max(by_n)
        t1, t2 = statistics.fmean(by_n[n1]), statistics.fmean(by_n[n2])
        if t1 > 0 and t2 > 0:
            fits.append(math.log(t2 / t1) / math.log(n2 / n1))
    return statistics.median(fits) if fits else 0.0


def layer_metrics(spans, rounds: int, setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `rounds` traced rounds and `setups` set-ups.

    Times are self times per round (per set-up for the generators). Layers a
    workload does not call read 0.
    """
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    count: dict[tuple[str, str], float] = defaultdict(float)
    sized: dict[str, dict] = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for s in spans:
        name, attrs, t = s[3], s[6], own[s[0]]
        total[name] += t
        for key, value in attrs.items():
            if key not in ("family", "n"):
                count[(name, key)] += value
        if "family" in attrs:
            sized[name][attrs["family"]][attrs["n"]].append(t)

    def per_round(name):
        return total[name] / rounds

    def rate(name, key):
        return count[(name, key)] / total[name] if total[name] else 0.0

    gen = sum(t for name, t in total.items() if name.startswith("generators."))
    return {
        "generators.gen_s": (gen / setups, "s"),
        "graphs.parse_embedding_s": (per_round("graphs.parse_embedding"), "s"),
        "graphs.trace_faces_s": (per_round("graphs.trace_faces"), "s"),
        "graphs.faces_per_s": (rate("graphs.trace_faces", "faces"), "faces/s"),
        "graphs.trace_faces.exponent": (_exponent(sized["graphs.trace_faces"]), "1"),
        "islands.find_island_s": (per_round("islands.find_island"), "s"),
        "peeling.peel_s": (per_round("peeling.peel"), "s"),
        "peeling.peel.exponent": (_exponent(sized["peeling.peel"]), "1"),
        "peeling.replay_ok_s": (per_round("peeling.replay_ok"), "s"),
        "peeling.replay_layers_per_s": (rate("peeling.replay_ok", "layers"), "layers/s"),
        "peeling.replay_ok.exponent": (_exponent(sized["peeling.replay_ok"]), "1"),
        "peeling.extend_coloring_s": (per_round("peeling.extend_coloring"), "s"),
        "peeling.audit_s": (per_round("peeling.audit"), "s"),
        "discharging.discharge_s": (per_round("discharging.discharge"), "s"),
        "discharging.transfers_per_s": (rate("discharging.discharge", "transfers"), "transfers/s"),
        "discharging.charge_bounds_report_s": (per_round("discharging.charge_bounds_report"), "s"),
        "gadgets.reduce_planar_s": (per_round("gadgets.reduce_planar"), "s"),
        "gadgets.build_uncrosser_s": (per_round("gadgets.build_uncrosser"), "s"),
        "gadgets.validate_uncrosser_s": (per_round("gadgets.validate_uncrosser"), "s"),
        "solver.mc_optimize_s": (per_round("solver.mc_optimize"), "s"),
        "solver.mc_decide_s": (per_round("solver.mc_decide"), "s"),
        "solver.nodes": (
            sum(v for (name, key), v in count.items() if key == "nodes") / rounds,
            "nodes",
        ),
        "solver.nodes_per_s.small_n": (rate("solver.mc_optimize", "nodes"), "nodes/s"),
        "solver.nodes_per_s.large_n": (rate("solver.mc_decide", "nodes"), "nodes/s"),
        "cli.color_s": (count[("cli.dispatch", "color_s")] / rounds, "s"),
        "cli.overhead_s": (
            (total["cli.dispatch"] - count[("cli.dispatch", "color_s")]) / rounds,
            "s",
        ),
    }
