"""The guarantee table: each row's own facts, read where the rules apply."""

import pytest

from archipelago.discharging import initial_charges
from archipelago.generators import hex_torus, quadrangulation, triangulation
from archipelago.graphs import Graph, euler_characteristic
from archipelago.islands import REGIME_A, REGIME_B, REGIME_C, REGIMES
from archipelago.peeling import PeelDecomposition, color, peel


def test_rows_by_name():
    assert REGIMES == {"A": REGIME_A, "B": REGIME_B, "C": REGIME_C}
    assert repr(REGIME_C) == "Regime(name='C', k=1, size=16, factor=357)"


@pytest.mark.parametrize("regime", [REGIME_A, REGIME_B, REGIME_C], ids="ABC")
def test_charge_coefficients_fit_the_euler_formula(regime):
    # sum (a d + b) over vertices plus sum (c d + e) over faces is
    # 2m (a + c) + b n + e f, a multiple of chi = n - m + f exactly when
    # b = e = -2 (a + c)
    a, b = regime.vertex_charge
    c, e = regime.face_charge
    assert b == e == -2 * (a + c)


@pytest.mark.parametrize("emb, regime", [
    (triangulation(30, 1), REGIME_A),
    (quadrangulation(30, 1), REGIME_B),
    (hex_torus(4, 4), REGIME_C),
])
def test_initial_charges_read_the_row(emb, regime):
    state = initial_charges(emb, regime)
    a, b = regime.vertex_charge
    g = emb.graph
    assert state.vertex_charge == [a * g.degree(v) + b for v in range(g.n)]
    if regime.face_bound is None:
        assert not any(state.face_charge)
    else:
        assert state.total() == b * euler_characteristic(emb)


def test_preconditions_are_checked_with_their_wording():
    with pytest.raises(ValueError, match="regime B needs a triangle-free graph"):
        peel(triangulation(10, 1).graph, REGIME_B, 2)
    with pytest.raises(ValueError, match="regime C needs girth at least 6"):
        peel(quadrangulation(10, 1).graph, REGIME_C, 2)
    assert REGIME_A.precondition(triangulation(10, 1).graph)


def test_chi_above_two_is_rejected():
    with pytest.raises(ValueError, match="chi 3 is above 2"):
        peel(triangulation(10, 1).graph, REGIME_A, 3)


def test_sink_violation():
    dec = peel(triangulation(40, 2).graph, REGIME_A, 2)
    assert dec.threshold == 0
    assert color(dec)[2] is None
    # colored last to first: x = 0 takes 1; the path 1-4, all next to x, takes
    # 2; y = 5 next to 0 and 1 takes 3; the path 6-9, next to 0, 1 and 5, takes 4
    edges = [(0, a) for a in range(1, 5)] + [(1, 2), (2, 3), (3, 4), (5, 0), (5, 1)]
    edges += [(b, b + 1) for b in range(6, 9)] + [(b, u) for b in range(6, 10) for u in (0, 1, 5)]
    layers = (tuple(range(6, 10)), (5,), (1, 2, 3, 4), (0,))
    broken = PeelDecomposition(Graph(10, edges), REGIME_A, 2, layers, base=())
    assert color(broken)[2] == "colors [2, 4] exceed 3"
    # a four-vertex base above the threshold of 0 is one sink component
    path = PeelDecomposition(Graph(4, [(0, 1), (1, 2), (2, 3)]), REGIME_A, 2, (), base=(0, 1, 2, 3))
    assert color(path)[2] == "sink color exceeds 3"
