"""Exact discharging audits over embedded graphs.

Charges are fractions.Fraction throughout, assigned to vertices (and faces,
in the regimes that charge faces) from the Euler formula, then moved by the
regime's local rules. The total is conserved exactly and asserted. Elements
that end below the regime's bound are paired with island witnesses: on a
valid embedding above the guarantee threshold, a below-bound element means an
island is present somewhere, and the report insists on exhibiting one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from archipelago.graphs import Embedding, euler_characteristic, girth, has_triangle
from archipelago.islands import IslandWitness, Regime, find_island


@dataclass(frozen=True)
class Transfer:
    """One application of a discharging rule."""

    rule: str
    source: tuple[str, int]  # ("v", id) or ("f", face index)
    target: tuple[str, int]
    amount: Fraction

    def __str__(self) -> str:
        return (
            f"rule={self.rule} from={self.source[0]}{self.source[1]} "
            f"to={self.target[0]}{self.target[1]} amount={self.amount}"
        )


@dataclass
class ChargeState:
    """Vertex and face charges plus the log of every transfer applied."""

    regime: Regime
    vertex_charge: list[Fraction]
    face_charge: list[Fraction]
    transfers: list[Transfer]

    def total(self) -> Fraction:
        return sum(self.vertex_charge, Fraction(0)) + sum(self.face_charge, Fraction(0))


def initial_charges(emb: Embedding, regime: Regime) -> ChargeState:
    """Assign starting charges and verify the Euler bookkeeping exactly.

    Regime A charges only vertices with d - 6; the combined identity
    sum_v (d(v) - 6) + sum_f (2 d(f) - 6) = -6 chi holds for every valid
    embedding and is asserted (a failure means mistraced faces). Regime B
    charges d - 4 on both sides (total exactly -4 chi), regime C charges
    2d - 6 on vertices and d - 6 on faces (total exactly -6 chi).
    """
    g = emb.graph
    faces = emb.faces
    chi = g.n - g.m + len(faces)
    if regime.name == "A":
        vc = [Fraction(g.degree(v) - 6) for v in range(g.n)]
        fc = [Fraction(0) for _ in faces]
        face_side = sum(2 * f.degree - 6 for f in faces)
        if sum(vc) + face_side != -6 * chi:
            raise AssertionError("vertex/face charge identity failed; faces mistraced")
        if all(f.degree >= 3 for f in faces) and sum(vc) > -6 * chi:
            raise AssertionError("total vertex charge exceeds -6*chi despite face degrees >= 3")
    elif regime.name == "B":
        vc = [Fraction(g.degree(v) - 4) for v in range(g.n)]
        fc = [Fraction(f.degree - 4) for f in faces]
        if sum(vc) + sum(fc) != -4 * chi:
            raise AssertionError("regime B charges do not total -4*chi")
    elif regime.name == "C":
        vc = [Fraction(2 * g.degree(v) - 6) for v in range(g.n)]
        fc = [Fraction(f.degree - 6) for f in faces]
        if sum(vc) + sum(fc) != -6 * chi:
            raise AssertionError("regime C charges do not total -6*chi")
    else:
        raise ValueError(f"unknown regime {regime.name!r}")
    return ChargeState(regime=regime, vertex_charge=vc, face_charge=fc, transfers=[])


def discharge(emb: Embedding, regime: Regime) -> ChargeState:
    """Run the regime's rules from the initial charges; conservation is asserted."""
    state = initial_charges(emb, regime)
    before = state.total()
    if regime.name == "A":
        _vertex_rules_a(emb, state)
    elif regime.name == "B":
        _walk_rule(emb, state, starter_deg=3, inner_deg=4, min_inner=3,
                   amount=Fraction(1, 6), face_rule="B1f", vertex_rule="B1v")
        _corner_rules_b(emb, state)
    elif regime.name == "C":
        _walk_rule(emb, state, starter_deg=2, inner_deg=3, min_inner=5,
                   amount=Fraction(1, 2), face_rule="C1f", vertex_rule="C1v")
    if state.total() != before:
        raise AssertionError("discharging did not conserve total charge")
    return state


def _move(state: ChargeState, rule: str, source: tuple[str, int], target: tuple[str, int], amount: Fraction):
    book = {"v": state.vertex_charge, "f": state.face_charge}
    book[source[0]][source[1]] -= amount
    book[target[0]][target[1]] += amount
    state.transfers.append(Transfer(rule, source, target, amount))


def _vertex_rules_a(emb: Embedding, state: ChargeState):
    # R1/R2: rich vertices support poor neighbors; R3: degree 6 tops up
    # degree 5. All flows are along edges.
    g = emb.graph
    for v in range(g.n):
        dv = g.degree(v)
        if dv >= 7:
            for u in g.neighbors(v):
                du = g.degree(u)
                if du == 5:
                    _move(state, "R1", ("v", v), ("v", u), Fraction(1, 4))
                elif du == 6:
                    _move(state, "R2", ("v", v), ("v", u), Fraction(1, 12))
        elif dv == 6:
            for u in g.neighbors(v):
                if g.degree(u) == 5:
                    _move(state, "R3", ("v", v), ("v", u), Fraction(1, 6))


def _walk_rule(emb: Embedding, state: ChargeState, starter_deg: int, inner_deg: int,
               min_inner: int, amount: Fraction, face_rule: str, vertex_rule: str):
    """Facial-path rule: each low-degree starter is paid once per boundary pass.

    For every face, both boundary orientations, and every occurrence of a
    vertex of degree exactly starter_deg, walk forward over vertices of
    degree exactly inner_deg. A long enough run means the face pays the
    starter; otherwise the vertex ending the run pays (it can be the starter
    itself when the run wraps all the way around, a logged net-zero event).
    """
    g = emb.graph
    for fi, face in enumerate(emb.faces):
        for w in (face.walk, face.reverse_walk):
            d = len(w)
            for i, s in enumerate(w):
                if g.degree(s) != starter_deg:
                    continue
                j = 1
                while j < d and g.degree(w[(i + j) % d]) == inner_deg:
                    j += 1
                if j == d:
                    u, inner = s, d - 1
                else:
                    u, inner = w[(i + j) % d], j - 1
                if inner >= min_inner:
                    _move(state, face_rule, ("f", fi), ("v", s), amount)
                else:
                    _move(state, vertex_rule, ("v", u), ("v", s), amount)


def _corner_rules_b(emb: Embedding, state: ChargeState):
    # corner = one occurrence on a positive boundary walk; heavy vertices
    # feed their faces, faces sprinkle their light corners
    g = emb.graph
    for fi, face in enumerate(emb.faces):
        for v in face.walk:
            dv = g.degree(v)
            if dv >= 5:
                _move(state, "B2v", ("v", v), ("f", fi), Fraction(1, 18))
            elif dv in (3, 4):
                _move(state, "B2f", ("f", fi), ("v", v), Fraction(1, 54))


VERTEX_BOUND = {"A": Fraction(1, 12), "B": Fraction(1, 18), "C": Fraction(0)}
FACE_BOUND = {"A": None, "B": Fraction(0), "C": Fraction(0)}


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

    Every below-bound element is paired with an island found near it (search
    restricted to a ball around the element first, then the whole graph).
    The search depends only on its vertex set, so it runs once per distinct
    ball, and the whole-graph fallback at most once per report; elements
    with the same ball share one witness.
    When the guarantee premises hold (order above threshold, and the regime's
    girth precondition), a below-bound element without any island would
    contradict the guarantee, so that case raises.
    """
    regime = state.regime
    g = emb.graph
    chi = euler_characteristic(emb)
    threshold = regime.threshold(chi)
    vb = VERTEX_BOUND[regime.name]
    fb = FACE_BOUND[regime.name]
    precondition = True
    if regime.name == "B":
        precondition = not has_triangle(g)
    elif regime.name == "C":
        precondition = girth(g) >= 6
    theorem_applies = g.n > threshold and precondition

    found: dict[frozenset[int], IslandWitness | None] = {}
    everything = frozenset(range(g.n))

    def search(pool: frozenset[int]) -> IslandWitness | None:
        if pool not in found:
            found[pool] = find_island(g, regime.k, regime.size, restrict_to=pool)
        return found[pool]

    def witness_near(roots) -> IslandWitness | None:
        w = search(_ball(g, roots, regime.size))
        return w if w is not None else search(everything)

    entries: list[BoundEntry] = []
    for v in range(g.n):
        if state.vertex_charge[v] < vb:
            entries.append(BoundEntry("v", v, state.vertex_charge[v], witness_near([v])))
    if fb is not None:
        for fi, face in enumerate(emb.faces):
            if state.face_charge[fi] < fb:
                entries.append(
                    BoundEntry("f", fi, state.face_charge[fi], witness_near(face.vertices()))
                )
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


def _ball(g, roots, radius: int) -> frozenset[int]:
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
        if not frontier:
            break
    return frozenset(seen)
