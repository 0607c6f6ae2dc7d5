"""The checkers of certify.py: one corrupted certificate per checked row of
README's "Verdicts and their checkers", and the module's isolation from the
code whose results it checks."""

import ast
import re
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from archipelago import certify, gadgets, peeling, solver
from archipelago.certify import audit, is_island, replay_ok
from archipelago.generators import triangulation
from archipelago.graphs import Graph
from archipelago.islands import REGIME_A

K4 = Graph(4, list(combinations(range(4), 2)))
P3 = Graph(3, [(0, 1), (1, 2)])
LISTS = {v: [1, 2] for v in range(3)}
DEC = peeling.peel(triangulation(20, seed=1).graph, REGIME_A, chi=2)

# (row, checker, certificate, the certificate corrupted, the checker's refusal);
# a string refusal is the message of the AssertionError the checker raises
CORRUPTED = [
    ("is_island: a member with k + 1 outside neighbours",
     lambda members: is_island(K4, members, 2), (0, 1), (0,), None),
    ("replay_ok: a vertex repeated across layers",
     replay_ok, DEC, replace(DEC, layers=DEC.layers[:1] + (DEC.layers[0][:1],) + DEC.layers[1:]), False),
    ("replay_ok: a base above the threshold",
     replay_ok, DEC, replace(DEC, layers=DEC.layers[:-1], base=DEC.layers[-1]), False),
    ("audit: an oversized component",
     lambda coloring: audit(P3, coloring, max_size=2).oversized_components,
     {0: 0, 1: 1, 2: 0}, {0: 0, 1: 0, 2: 0}, ((0, 1, 2),)),
    ("audit: a colour outside its list",
     lambda coloring: audit(P3, coloring, lists=LISTS).list_violations,
     {0: 1, 1: 2, 2: 1}, {0: 1, 1: 7, 2: 1}, ((1, 7),)),
    ("solver._yes: an oversized colouring",
     lambda color: solver._yes(P3, color, 2, 0), [0, 1, 0], [0, 0, 0],
     "search returned an oversized component; solver bug"),
]


@pytest.mark.parametrize("check, good, bad, refusal", [row[1:] for row in CORRUPTED],
                         ids=[row[0] for row in CORRUPTED])
def test_checker_refuses_a_corrupted_certificate(check, good, bad, refusal):
    assert check(good) != refusal
    if isinstance(refusal, str):
        with pytest.raises(AssertionError, match=re.escape(refusal)):
            check(bad)
    else:
        assert check(bad) == refusal


def package_imports(module) -> set[str]:
    """The archipelago modules a module's source imports, read with ast."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "archipelago" if node.level else node.module
            if node.level and node.module:
                base += "." + node.module
            if base == "archipelago":
                found.update(f"archipelago.{alias.name}" for alias in node.names)
            else:
                found.add(base)
    return {name for name in found if name.split(".")[0] == "archipelago"}


def test_checkers_import_only_graphs():
    assert package_imports(certify) == {"archipelago.graphs"}
    for module in (solver, gadgets):
        assert "archipelago.peeling" not in package_imports(module)
    assert peeling.PeelDecomposition.replay_ok is replay_ok
