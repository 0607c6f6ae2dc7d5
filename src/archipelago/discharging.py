"""Exact discharging audits over embedded graphs.

Charges are assigned to vertices (and faces, in the regimes that charge
faces) from the Euler formula, then moved by the regime's local rules;
coefficients, rules and bounds come from the regime's row in
archipelago.regimes. The starting charges are integers and the transfer
amounts Fractions, so discharge moves integer units over one common
denominator, asserts that their total is conserved exactly, and hands out
the final charges as Fractions. Elements that end below the regime's bound
are paired with island witnesses: on a valid embedding above the guarantee
threshold, a below-bound element means an island is present somewhere, and
the report insists on exhibiting one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from archipelago.certify import IslandWitness
from archipelago.graphs import Embedding, euler_characteristic
from archipelago.islands import Regime, find_island, forbidden_configuration
from archipelago.regimes import Transfer


@dataclass
class ChargeState:
    """Vertex and face charges plus the log of every transfer applied.

    Charges are Fractions (initial_charges makes one per element; discharge
    makes one per distinct value and shares it), and each transfer is a
    Transfer named tuple whose amount is a Fraction.
    """

    regime: Regime
    vertex_charge: list[Fraction]
    face_charge: list[Fraction]
    transfers: list[Transfer]

    def total(self) -> Fraction:
        """The exact sum of all charges, adding numerators per denominator."""
        by_denominator: dict[int, int] = {}
        for x in chain(self.vertex_charge, self.face_charge):
            by_denominator[x.denominator] = by_denominator.get(x.denominator, 0) + x.numerator
        return sum((Fraction(num, den) for den, num in by_denominator.items()), Fraction(0))


def initial_charges(emb: Embedding, regime: Regime) -> ChargeState:
    """Assign starting charges and verify the Euler bookkeeping exactly.

    A vertex of degree d starts with a*d + b and a face with c*d + e, from
    the regime's row; these total exactly b*chi, which is asserted (a failure
    means mistraced faces). Regime A's faces (2d - 6) hold no charge, so its
    vertex total is at most -6*chi, with equality on triangulations.
    """
    vc, fc = _euler_charges(emb, regime)
    return ChargeState(regime=regime, vertex_charge=[Fraction(x) for x in vc],
                       face_charge=[Fraction(x) for x in fc], transfers=[])


def _euler_charges(emb: Embedding, regime: Regime) -> tuple[list[int], list[int]]:
    """initial_charges' vertex and face charges, as integers."""
    g = emb.graph
    faces = emb.faces
    chi = euler_characteristic(emb)
    a, b = regime.vertex_charge
    c, e = regime.face_charge
    vc = [a * d + b for d in map(len, g.adjacency)]
    fc = [c * len(f) + e for f in faces]
    if sum(vc) + sum(fc) != b * chi:
        raise AssertionError(f"regime {regime.name} charges do not total {b}*chi")
    if regime.face_bound is None:
        fc = [0] * len(faces)
    return vc, fc


def discharge(emb: Embedding, regime: Regime) -> ChargeState:
    """Run the regime's rules from the initial charges; conservation is asserted.

    Charges move as integers over one common denominator, the lcm of the
    transfer amounts' denominators, so a transfer costs two integer
    additions. The rules pass a few shared amount objects, whose integer
    units are found once, by identity. Conservation is asserted on those
    integers, and the Fraction charges are built once, at the end.
    """
    vc, fc = _euler_charges(emb, regime)
    transfers = list(regime.rules(emb))
    amounts = {id(t.amount): t.amount for t in transfers}
    scale = math.lcm(*{a.denominator for a in amounts.values()})
    units = {key: scale // a.denominator * a.numerator for key, a in amounts.items()}
    book = {"v": [x * scale for x in vc], "f": [x * scale for x in fc]}
    before = sum(book["v"]) + sum(book["f"])
    for _, (sk, si), (tk, ti), amount in transfers:
        u = units[id(amount)]
        book[sk][si] -= u
        book[tk][ti] += u
    # cannot fire: each move takes u units from one entry and gives them to another
    if sum(book["v"]) + sum(book["f"]) != before:
        raise AssertionError("discharging did not conserve total charge")
    exact = {x: Fraction(x, scale) for x in {*book["v"], *book["f"]}}  # few distinct
    return ChargeState(regime, [exact[x] for x in book["v"]], [exact[x] for x in book["f"]],
                       transfers)


@dataclass(frozen=True)
class BoundEntry:
    """One element that finished below its regime bound, with its island."""

    kind: str  # "v" or "f"
    index: int
    charge: Fraction
    witness: IslandWitness | None


@dataclass(frozen=True)
class BoundsReport:
    regime: Regime
    chi: int
    threshold: int
    vertex_bound: Fraction
    face_bound: Fraction | None
    theorem_applies: bool
    entries: tuple[BoundEntry, ...]

    @property
    def ok(self) -> bool:
        return not self.entries


def charge_bounds_report(state: ChargeState, emb: Embedding) -> BoundsReport:
    """Check final charges against the regime's bounds and witness the misses.

    Every below-bound element is paired with an island found near it, in
    this order: the regime's pattern scan anchored at the element (a vertex
    and its neighbours, or a face's vertices), then the general search
    restricted to the radius-`size` ball around those anchors, then the
    whole graph. The anchored scan is the discharging lemma's local witness
    and finds one for nearly every element of an input that meets the
    regime's precondition; the searches keep the report complete where it
    does not. A search depends only on its vertex set, so it runs once per
    distinct ball, and the whole-graph search at most once per report.
    When the guarantee premises hold (order above threshold, and the regime's
    girth precondition), a below-bound element without any island would
    contradict the guarantee, so that case raises. A state whose vertex or
    face count is not the embedding's is a ValueError.
    """
    regime = state.regime
    g = emb.graph
    faces = emb.faces
    if (len(state.vertex_charge), len(state.face_charge)) != (g.n, len(faces)):
        raise ValueError(
            f"the charge state has {len(state.vertex_charge)} vertices and "
            f"{len(state.face_charge)} faces, the embedding {g.n} and {len(faces)}"
        )
    chi = euler_characteristic(emb)
    threshold = regime.threshold(chi)
    vb = regime.vertex_bound
    fb = regime.face_bound
    theorem_applies = g.n > threshold and regime.precondition(g)

    found: dict[frozenset[int], IslandWitness | None] = {}

    def search(pool: frozenset[int]) -> IslandWitness | None:
        if pool not in found:
            found[pool] = find_island(g, regime.k, regime.size, restrict_to=pool)
        return found[pool]

    def witness_near(anchors) -> IslandWitness | None:
        w = forbidden_configuration(g, regime, anchors) or search(_ball(g, anchors, regime.size))
        return w if w is not None else search(frozenset(range(g.n)))

    entries: list[BoundEntry] = []
    vc = state.vertex_charge
    for v in _below(vc, vb):
        entries.append(BoundEntry("v", v, vc[v], witness_near([v, *g.neighbors(v)])))
    if fb is not None:
        fc = state.face_charge
        for fi in _below(fc, fb):
            entries.append(BoundEntry("f", fi, fc[fi], witness_near(frozenset(faces[fi]))))
    if theorem_applies:
        for e in entries:
            if e.witness is None:
                raise AssertionError(
                    f"{e.kind}{e.index} is below bound with no island anywhere; "
                    "the guarantee is contradicted"
                )
    return BoundsReport(
        regime=regime,
        chi=chi,
        threshold=threshold,
        vertex_bound=vb,
        face_bound=fb,
        theorem_applies=theorem_applies,
        entries=tuple(entries),
    )


def _below(charges: list[Fraction], bound: Fraction) -> list[int]:
    """The indices of the charges under bound, comparing each distinct object once.

    discharge shares one Fraction per value, so there are few to compare.
    """
    distinct = {id(x): x for x in charges}
    low = {key for key, x in distinct.items() if x < bound}
    return [i for i, key in enumerate(map(id, charges)) if key in low]


def _ball(g, roots, radius: int) -> frozenset[int]:
    """The vertices within `radius` of `roots`."""
    seen = set(roots)
    frontier = list(seen)
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)
