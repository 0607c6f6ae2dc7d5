"""The guarantee table: each row's own facts, read where the rules apply."""

import pytest

from archipelago.discharging import initial_charges
from archipelago.generators import hex_torus, quadrangulation, triangulation
from archipelago.graphs import euler_characteristic
from archipelago.islands import REGIME_A, REGIME_B, REGIME_C, REGIMES
from archipelago.peeling import ColoringReport, color_four_plus_sink, peel, sink_violation


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


def report(sizes):
    return ColoringReport(max_component=max(sizes.values()), components=(),
                          component_sizes=sizes, list_violations=(), oversized_components=())


def test_sink_violation():
    _, dec = color_four_plus_sink(triangulation(40, 2).graph, 2)
    assert dec.threshold == 0
    assert sink_violation(report({1: 3, 5: 3}), dec) is None
    assert sink_violation(report({1: 3, 2: 4, 4: 5, 5: 1}), dec) == "colors [2, 4] exceed 3"
    assert sink_violation(report({1: 1, 5: 4}), dec) == "sink color exceeds 3"

