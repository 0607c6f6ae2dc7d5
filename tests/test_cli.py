import argparse
import hashlib
import json
import tracemalloc
from dataclasses import replace
from itertools import combinations

import pytest

from archipelago import cli, graphs, solver, suites
from archipelago.certify import audit
from archipelago.cli import dispatch
from archipelago.gadgets import build_equalizer, build_N
from archipelago.generators import GenSpec, gen
from archipelago.graphs import (
    Embedding,
    Graph,
    parse_coloring,
    parse_embedding,
    parse_graph,
    parse_hypergraph,
    parse_lists,
    parse_terminals,
    serialize_coloring,
    serialize_embedding,
    serialize_graph,
    serialize_lists,
    terminal_comments,
)
from archipelago.islands import REGIME_C
from archipelago.peeling import TheoremViolation, color, peel
from archipelago.suites import SUITE_NAMES
from test_peeling import fallback_graph


def write_k9(path):
    edges = list(combinations(range(9), 2))
    path.write_text("9 36\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")


def write_lists(path, n, colors):
    path.write_text(serialize_lists({v: list(colors) for v in range(n)}))


class TestFormats:
    def test_lists_roundtrip(self):
        lists = {0: [1, 5, 9], 1: [2, 3], 2: [7]}
        assert parse_lists(serialize_lists(lists), 3) == lists

    def test_inline_comments(self):
        assert parse_lists("0: 1 2 # menu\n# 1: 5\n1: 3\n", 2) == {0: [1, 2], 1: [3]}
        assert parse_coloring("0 1 # chosen\n\n1 3\n", 2) == {0: 1, 1: 3}

    def test_lists_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_lists("0 1 2\n", 1)
        with pytest.raises(ValueError):
            parse_lists("0:\n", 1)
        with pytest.raises(ValueError):
            parse_lists("0: 1\n0: 2\n", 1)

    def test_coloring_roundtrip(self):
        col = {0: 4, 3: 1, 7: 2}
        assert parse_coloring(serialize_coloring(col), 8) == col

    def test_coloring_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_coloring("0 1 2\n", 1)
        with pytest.raises(ValueError):
            parse_coloring("0 1\n0 2\n", 1)

    @pytest.mark.parametrize("parse, text, v", [
        (parse_lists, "0: 1\n3: 2\n", 3),
        (parse_lists, "-1: 1\n", -1),
        (parse_coloring, "0 1\n3 2\n", 3),
        (parse_coloring, "-1 0\n", -1),
    ])
    def test_per_vertex_files_refuse_absent_vertices(self, parse, text, v):
        with pytest.raises(ValueError, match=f"names vertex {v}, which a graph of 3 vertices lacks"):
            parse(text, 3)


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, _ = dispatch(["islands", "frobnicate"])
        assert code == 2

    def test_unknown_flag(self):
        code, _ = dispatch(["islands", "find", "--graph", "x", "--wat"])
        assert code == 2

    def test_missing_file(self):
        code, _ = dispatch(["islands", "find", "--graph", "/nonexistent", "--k", "1", "--size", "3"])
        assert code == 2

    def test_find_needs_k_and_size_or_regime(self, tmp_path):
        p = tmp_path / "g.g"
        p.write_text("2 1\n0 1\n")
        code, _ = dispatch(["islands", "find", "--graph", str(p), "--k", "1"])
        assert code == 2

    def test_empty_argv(self, capsys):
        code, _ = dispatch([])
        assert code == 2
        assert capsys.readouterr().err == "usage: islands|mc|suite <subcommand> ...\n"

    @pytest.mark.parametrize("argv", [["foo"], ["foo", "solve"]])
    def test_unknown_program_is_a_usage_error(self, capsys, argv):
        code, _ = dispatch(argv)
        assert code == 2
        assert capsys.readouterr().err == "usage: islands|mc|suite <subcommand> ...\n"

    def test_console_scripts_exit_with_the_dispatch_code(self, tmp_path, monkeypatch, capsys):
        # the [project.scripts] entry points, run in-process: each passes its
        # argv after the script name to dispatch and exits with its code
        monkeypatch.chdir(tmp_path)
        runs = [
            (cli.main_islands, ["islands", "gen", "--family", "triangulation", "--n", "12",
                                "--seed", "1", "--out", "t.emb"], 0),
            (cli.main_mc, ["mc", "solve", "--graph", "t.emb", "--optimize"], 0),
            (cli.main_suite, ["suite", "run", "--name", "planar-A", "--count", "2"], 0),
            (cli.main_mc, ["mc", "solve", "--graph", "t.emb"], 2),
        ]
        for main, argv, want in runs:
            monkeypatch.setattr("sys.argv", argv)
            with pytest.raises(SystemExit) as info:
                main()
            assert info.value.code == want, argv
        out = capsys.readouterr().out
        assert "embedding: 12 vertices" in out and "planar-A: 2/2 pass (seed 0)" in out

    def test_key_error_is_a_bug_not_a_usage_error(self, tmp_path, monkeypatch):
        # the readers and Embedding turn missing keys into ValueError, so a
        # KeyError out of a handler is a fault of the program and propagates
        p = tmp_path / "g.g"
        p.write_text("2 1\n0 1\n")

        def broken(*args):
            raise KeyError(7)

        monkeypatch.setattr(cli, "find_island", broken)
        with pytest.raises(KeyError):
            dispatch(["islands", "find", "--graph", str(p), "--k", "1", "--size", "1"])

    def test_header_above_vertex_cap(self, tmp_path, capsys):
        p = tmp_path / "big.g"
        p.write_text("2000000 0\n")
        code, _ = dispatch(["islands", "find", "--graph", str(p), "--regime", "A"])
        assert code == 2
        assert "header declares 2000000 vertices" in capsys.readouterr().err


class TestFind:
    def test_witness_printed(self, tmp_path, capsys):
        code, rep = dispatch(["islands", "gen", "--family", "triangulation",
                              "--n", "30", "--seed", "1", "--out",
                              str(tmp_path / "t.emb")])
        assert code == 0
        capsys.readouterr()
        code, rep = dispatch(["islands", "find", "--graph",
                              str(tmp_path / "t.emb"), "--regime", "A"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("island: ")
        assert " ; outside-degrees: " in out
        members = rep["verdicts"]["island"]
        degs = rep["verdicts"]["outside_degrees"]
        assert len(members) <= 3 and all(d <= 4 for d in degs)

    def test_no_island_exits_one(self, tmp_path):
        k7 = tmp_path / "k7.g"
        edges = list(combinations(range(7), 2))
        k7.write_text("7 21\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")
        code, rep = dispatch(["islands", "find", "--graph", str(k7),
                              "--k", "1", "--size", "3"])
        assert code == 1
        assert rep["verdicts"]["island"] is None

    def test_input_digest_recorded(self, tmp_path):
        p = tmp_path / "g.g"
        p.write_text("2 1\n0 1\n")
        _, rep = dispatch(["islands", "find", "--graph", str(p),
                           "--k", "1", "--size", "1"])
        digest = rep["inputs"][str(p)]
        assert len(digest) == 64 and int(digest, 16) >= 0


class TestColor:
    def test_roundtrip_and_report(self, tmp_path):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulation", "--n", "50",
                  "--seed", "3", "--out", str(emb)])
        lists = tmp_path / "l.txt"
        write_lists(lists, 50, [1, 2, 3, 4, 5])
        out = tmp_path / "c.txt"
        code, rep = dispatch(["islands", "color", "--graph", str(emb),
                              "--lists", str(lists), "--regime", "A",
                              "--out", str(out)])
        assert code == 0
        report = rep["verdicts"]["report"]
        assert set(report) == {"max_component", "component_sizes",
                               "list_violations", "oversized", "base_size"}
        assert report["max_component"] <= 3
        assert report["list_violations"] == []
        coloring = parse_coloring(out.read_text(), 50)
        assert set(coloring) == set(range(50))
        code, _ = dispatch(["islands", "verify", "--graph", str(emb),
                            "--coloring", str(out), "--lists", str(lists),
                            "--max-size", "3"])
        assert code == 0

    def test_lists_and_sink_conflict(self, tmp_path):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulation", "--n", "20",
                  "--seed", "0", "--out", str(emb)])
        lists = tmp_path / "l.txt"
        write_lists(lists, 20, [1, 2, 3, 4, 5])
        code, _ = dispatch(["islands", "color", "--graph", str(emb),
                            "--lists", str(lists), "--regime", "A",
                            "--four-plus-sink"])
        assert code == 2
        code, _ = dispatch(["islands", "color", "--graph", str(emb),
                            "--regime", "A"])
        assert code == 2

    def test_four_plus_sink(self, tmp_path):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulated_torus",
                  "--rows", "4", "--cols", "4", "--out", str(emb)])
        code, rep = dispatch(["islands", "color", "--graph", str(emb),
                              "--regime", "A", "--chi", "0",
                              "--four-plus-sink"])
        assert code == 0
        sizes = rep["verdicts"]["report"]["component_sizes"]
        assert all(size <= 3 for size in sizes.values())

    def test_four_plus_sink_needs_no_regime(self, tmp_path):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulated_torus",
                  "--rows", "4", "--cols", "4", "--out", str(emb)])
        argv = ["islands", "color", "--graph", str(emb), "--chi", "0",
                "--four-plus-sink"]
        code, bare = dispatch(argv)
        assert code == 0
        code, with_a = dispatch(argv + ["--regime", "A"])
        assert code == 0
        assert bare["verdicts"] == with_a["verdicts"]

    @pytest.mark.parametrize("extra", [
        ["--regime", "B"], ["--regime", "C"], ["--footnote-12"],
        ["--regime", "A", "--footnote-12"], ["--regime", "C", "--footnote-12"],
    ])
    def test_four_plus_sink_rejects_other_regimes_and_footnote_12(
            self, tmp_path, capsys, extra):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulation", "--n", "20",
                  "--seed", "0", "--out", str(emb)])
        capsys.readouterr()
        code, _ = dispatch(["islands", "color", "--graph", str(emb),
                            "--four-plus-sink", *extra])
        assert code == 2
        assert "--four-plus-sink peels with regime A" in capsys.readouterr().err

    def test_regime_required_without_four_plus_sink(self, tmp_path):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulation", "--n", "20",
                  "--seed", "0", "--out", str(emb)])
        lists = tmp_path / "l.txt"
        write_lists(lists, 20, [1, 2, 3, 4, 5])
        code, _ = dispatch(["islands", "color", "--graph", str(emb),
                            "--lists", str(lists)])
        assert code == 2

    @pytest.mark.parametrize("extra", [[], ["--four-plus-sink"]])
    def test_chi_above_two_is_a_usage_error(self, tmp_path, capsys, extra):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulation", "--n", "20",
                  "--seed", "0", "--out", str(emb)])
        lists = tmp_path / "l.txt"
        write_lists(lists, 20, [1, 2, 3, 4, 5])
        argv = ["islands", "color", "--graph", str(emb), "--regime", "A", "--chi", "3"]
        argv += extra or ["--lists", str(lists)]
        capsys.readouterr()
        code, _ = dispatch(argv)
        assert code == 2
        assert "chi 3 is above 2" in capsys.readouterr().err

    def test_embedding_graph_files_are_checked(self, tmp_path, capsys):
        # the rotation section of an embedding given as --graph must be consistent
        bad = tmp_path / "bad.emb"
        bad.write_text("3 2\n0 1\n1 2\n0: 1\n1: 0 2\n1: 2 0\n2: 1\n")
        code, _ = dispatch(["islands", "find", "--graph", str(bad), "--regime", "A"])
        assert code == 2
        assert "two rotation lines for vertex 1" in capsys.readouterr().err

    def test_footnote_12(self, tmp_path):
        emb = tmp_path / "h.emb"
        dispatch(["islands", "gen", "--family", "hex_patch", "--rows", "5",
                  "--cols", "5", "--seed", "2", "--out", str(emb)])
        n = parse_embedding(emb.read_text()).graph.n
        lists = tmp_path / "l.txt"
        write_lists(lists, n, [1, 2])
        code, rep = dispatch(["islands", "color", "--graph", str(emb),
                              "--lists", str(lists), "--regime", "C",
                              "--footnote-12"])
        assert code == 0
        assert rep["verdicts"]["report"]["max_component"] <= 12
        # the flag is a planarity assertion, meaningless for regimes A and B
        code, _ = dispatch(["islands", "color", "--graph", str(emb),
                            "--lists", str(lists), "--regime", "B",
                            "--footnote-12"])
        assert code == 2

    def test_footnote_12_fallback_warns_and_audits_at_16(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "f.g"
        g = fallback_graph()
        path.write_text(serialize_graph(g))
        write_lists(tmp_path / "l.txt", g.n, [1, 2])
        bounds = []

        def spy(dec, lists=None):
            bounds.append(dec.bound)
            return color(dec, lists)

        monkeypatch.setattr(cli, "color", spy)
        argv = ["islands", "color", "--graph", str(path), "--lists", str(tmp_path / "l.txt"),
                "--regime", "C", "--chi", "0", "--footnote-12"]
        capsys.readouterr()
        assert dispatch(argv)[0] == 0
        assert "warning" not in capsys.readouterr().err
        monkeypatch.setitem(cli.REGIMES, "C", replace(REGIME_C, planar_size=5))
        assert dispatch(argv)[0] == 0
        assert capsys.readouterr().err == (
            "warning: no 5-island in a residual component; using up to 16 "
            "(is the input really 2-edge-connected and planar?)\n")
        assert bounds == [12, 16]

    def test_files_naming_absent_vertices_are_usage_errors(self, tmp_path, capsys):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulation", "--n", "20",
                  "--seed", "0", "--out", str(emb)])
        lists = tmp_path / "l.txt"
        lists.write_text(serialize_lists({v: [1, 2, 3, 4, 5] for v in [*range(20), 99]}))
        capsys.readouterr()
        code, _ = dispatch(["islands", "color", "--graph", str(emb),
                            "--lists", str(lists), "--regime", "A"])
        assert code == 2
        assert "names vertex 99," in capsys.readouterr().err

    def test_violation_exits_three_with_residual(self, tmp_path):
        k9 = tmp_path / "k9.g"
        write_k9(k9)
        lists = tmp_path / "l.txt"
        write_lists(lists, 9, [1, 2, 3, 4, 5])
        code, rep = dispatch(["islands", "color", "--graph", str(k9),
                              "--lists", str(lists), "--regime", "A"])
        assert code == 3
        residual = tmp_path / "k9.g.residual"
        assert rep["outputs"]["residual"] == str(residual)
        dumped, _ = parse_graph(residual.read_text())
        assert dumped.n == 9 and dumped.m == 36
        assert "original-ids: 0 1 2 3 4 5 6 7 8" in residual.read_text()


    @staticmethod
    def write_sorted_k9(path):
        # K9 with each rotation in sorted order: Euler characteristic -22
        g = Graph(9, list(combinations(range(9), 2)))
        path.write_text(serialize_embedding(Embedding(g, [list(g.neighbors(v)) for v in range(9)])))

    @pytest.mark.parametrize("extra", [["--regime", "A", "--lists", "l.txt"], ["--four-plus-sink"]])
    def test_violation_under_a_contradicted_chi_is_a_usage_error(self, tmp_path, capsys, extra):
        # --chi 2 puts the threshold at 0, so peeling K9 fails; the file's
        # own embedding then shows that the given chi is wrong
        k9 = tmp_path / "k9.emb"
        self.write_sorted_k9(k9)
        write_lists(tmp_path / "l.txt", 9, [1, 2, 3, 4, 5])
        extra = [str(tmp_path / a) if a == "l.txt" else a for a in extra]
        code, _ = dispatch(["islands", "color", "--graph", str(k9), *extra])
        assert code == 2
        assert ("--chi 2 does not match the embedding, whose Euler characteristic is -22"
                in capsys.readouterr().err)
        assert not (tmp_path / "k9.emb.residual").exists()

    def test_violation_on_a_disconnected_embedding_stands(self, tmp_path):
        # two disjoint K9s trace to no single surface, so --chi is not checked
        g = Graph(18, [(u + o, v + o) for o in (0, 9) for u, v in combinations(range(9), 2)])
        path = tmp_path / "k9k9.emb"
        path.write_text(serialize_embedding(Embedding(g, [list(g.neighbors(v)) for v in range(18)])))
        write_lists(tmp_path / "l.txt", 18, [1, 2, 3, 4, 5])
        code, _ = dispatch(["islands", "color", "--graph", str(path),
                            "--lists", str(tmp_path / "l.txt"), "--regime", "A"])
        assert code == 3

    def test_violation_under_the_true_chi_stands(self, tmp_path, monkeypatch):
        # an honest chi leaves the guarantee in force, so a failing peel is
        # simulated: the chi check passes and the violation exits 3 as before
        k9 = tmp_path / "k9.emb"
        self.write_sorted_k9(k9)
        write_lists(tmp_path / "l.txt", 9, [1, 2, 3, 4, 5])

        def failing_peel(g, regime, chi, footnote_12=False):
            raise TheoremViolation(regime, chi, tuple(range(9)))

        monkeypatch.setattr(cli, "peel", failing_peel)
        code, rep = dispatch(["islands", "color", "--graph", str(k9), "--chi", "-22",
                              "--lists", str(tmp_path / "l.txt"), "--regime", "A"])
        assert code == 3
        assert parse_graph((tmp_path / "k9.emb.residual").read_text())[0].m == 36

    def test_successful_run_traces_no_faces(self, tmp_path, monkeypatch):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulation", "--n", "30",
                  "--seed", "1", "--out", str(emb)])
        write_lists(tmp_path / "l.txt", 30, [1, 2, 3, 4, 5])
        traced = []
        monkeypatch.setattr(graphs, "trace_faces", lambda e: traced.append(e))
        code, _ = dispatch(["islands", "color", "--graph", str(emb),
                            "--lists", str(tmp_path / "l.txt"), "--regime", "A"])
        assert code == 0 and traced == []

    def test_failed_replay_exits_one_and_writes_nothing(self, tmp_path, monkeypatch):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulation", "--n", "50",
                  "--seed", "3", "--out", str(emb)])
        write_lists(tmp_path / "l.txt", 50, [1, 2, 3, 4, 5])
        bad = []

        def last_layer_first(*args, **kwargs):
            dec = peel(*args, **kwargs)
            bad.append(replace(dec, layers=dec.layers[-1:] + dec.layers[:-1]))
            return bad[-1]

        monkeypatch.setattr(cli, "peel", last_layer_first)
        out = tmp_path / "c.txt"
        code, rep = dispatch(["islands", "color", "--graph", str(emb), "--lists",
                              str(tmp_path / "l.txt"), "--regime", "A", "--out", str(out)])
        assert not bad[0].replay_ok()
        assert code == 1
        assert rep["verdicts"]["assertion"] == "peel replay failed: a layer is not an island"
        assert not out.exists()


class TestVerify:
    def test_oversized_fails(self, tmp_path):
        g = tmp_path / "g.g"
        g.write_text("3 2\n0 1\n1 2\n")
        col = tmp_path / "c.txt"
        col.write_text("0 1\n1 1\n2 2\n")
        code, rep = dispatch(["islands", "verify", "--graph", str(g),
                              "--coloring", str(col), "--max-size", "1"])
        assert code == 1
        assert rep["verdicts"]["report"]["oversized"] == [[0, 1]]
        code, _ = dispatch(["islands", "verify", "--graph", str(g),
                            "--coloring", str(col), "--max-size", "2"])
        assert code == 0

    def test_list_violation_fails(self, tmp_path):
        g = tmp_path / "g.g"
        g.write_text("2 1\n0 1\n")
        col = tmp_path / "c.txt"
        col.write_text("0 1\n1 9\n")
        lists = tmp_path / "l.txt"
        write_lists(lists, 2, [1, 2])
        code, rep = dispatch(["islands", "verify", "--graph", str(g),
                              "--coloring", str(col), "--lists", str(lists)])
        assert code == 1
        assert rep["verdicts"]["report"]["list_violations"] == [[1, 9]]


    @pytest.mark.parametrize("lines, absent", [("0 1\n1 1\n2 2\n7 1\n", 7),
                                                ("-3 1\n0 1\n1 1\n2 2\n", -3)])
    def test_coloring_naming_an_absent_vertex_is_refused(self, tmp_path, capsys, lines, absent):
        g = tmp_path / "g.g"
        g.write_text("3 2\n0 1\n1 2\n")
        col = tmp_path / "c.txt"
        col.write_text(lines)
        capsys.readouterr()
        code, _ = dispatch(["islands", "verify", "--graph", str(g), "--coloring", str(col)])
        assert code == 2
        assert f"names vertex {absent}," in capsys.readouterr().err

    def test_lists_naming_an_absent_vertex_are_refused(self, tmp_path, capsys):
        g = tmp_path / "g.g"
        g.write_text("3 2\n0 1\n1 2\n")
        col = tmp_path / "c.txt"
        col.write_text("0 1\n1 2\n2 1\n")
        lists = tmp_path / "l.txt"
        lists.write_text("0: 1 2\n1: 1 2\n2: 1 2\n99: 1 2\n")
        capsys.readouterr()
        code, _ = dispatch(["islands", "verify", "--graph", str(g), "--coloring", str(col),
                            "--lists", str(lists)])
        assert code == 2
        assert "names vertex 99," in capsys.readouterr().err

    def test_lists_missing_a_colored_vertex_are_refused(self, tmp_path, capsys):
        g = tmp_path / "g.g"
        g.write_text("3 2\n0 1\n1 2\n")
        col = tmp_path / "c.txt"
        col.write_text("0 1\n1 2\n2 1\n")
        lists = tmp_path / "l.txt"
        lists.write_text("0: 1 2\n1: 1 2\n")
        capsys.readouterr()
        code, _ = dispatch(["islands", "verify", "--graph", str(g), "--coloring", str(col),
                            "--lists", str(lists)])
        assert code == 2
        assert capsys.readouterr().err == "error: no color list for vertex 2\n"

    def test_report_has_no_base_size(self, tmp_path):
        # verify audits a coloring file; no decomposition, so no base
        g = tmp_path / "g.g"
        g.write_text("3 2\n0 1\n1 2\n")
        col = tmp_path / "c.txt"
        col.write_text("0 0\n1 1\n2 0\n")
        code, rep = dispatch(["islands", "verify", "--graph", str(g),
                              "--coloring", str(col), "--max-size", "1"])
        assert code == 0
        assert set(rep["verdicts"]["report"]) == {
            "max_component", "component_sizes", "list_violations", "oversized"}


class TestDischarge:
    def test_log_line_format(self, tmp_path, capsys):
        emb = tmp_path / "t.emb"
        dispatch(["islands", "gen", "--family", "triangulation", "--n", "30",
                  "--seed", "5", "--out", str(emb)])
        capsys.readouterr()
        code, rep = dispatch(["islands", "discharge", "--embedding", str(emb),
                              "--regime", "A", "--log"])
        assert code == 0
        out = capsys.readouterr().out
        transfer_lines = [l for l in out.splitlines() if l.startswith("rule=")]
        assert transfer_lines and len(transfer_lines) == rep["verdicts"]["transfers"]
        first = transfer_lines[0].split()
        assert [p.split("=")[0] for p in first] == ["rule", "from", "to", "amount"]
        assert rep["verdicts"]["total"] == "-12"

    def test_quadrangulation_identity(self, tmp_path):
        emb = tmp_path / "q.emb"
        dispatch(["islands", "gen", "--family", "quadrangulation", "--n", "40",
                  "--seed", "2", "--out", str(emb)])
        code, rep = dispatch(["islands", "discharge", "--embedding", str(emb),
                              "--regime", "B"])
        assert code == 0
        assert rep["verdicts"]["total"] == "-8"
        assert rep["verdicts"]["chi"] == 2


class TestGen:
    @pytest.mark.parametrize("argv,kind", [
        (["--family", "triangulation", "--n", "25", "--seed", "1"], "emb"),
        (["--family", "quadrangulation", "--n", "24", "--seed", "1"], "emb"),
        (["--family", "hex_torus", "--rows", "3", "--cols", "3"], "emb"),
        (["--family", "triangulated_torus", "--rows", "3", "--cols", "3"], "emb"),
        (["--family", "hex_patch", "--rows", "3", "--cols", "3",
          "--deletions", "2", "--seed", "4"], "emb"),
        (["--family", "hypergraph3", "--n", "8", "--m", "6", "--seed", "2"], "h3"),
    ])
    def test_families_write_parseable_files(self, tmp_path, argv, kind):
        out = tmp_path / "out.txt"
        code, rep = dispatch(["islands", "gen", *argv, "--out", str(out)])
        assert code == 0
        assert rep["outputs"]["instance"] == str(out)
        text = out.read_text()
        if kind == "emb":
            parse_embedding(text)
        else:
            parse_hypergraph(text)

    def test_bad_params(self, tmp_path):
        code, _ = dispatch(["islands", "gen", "--family", "hex_torus",
                            "--rows", "1", "--cols", "1",
                            "--out", str(tmp_path / "x")])
        assert code == 2

    def test_negative_deletions_are_refused(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, _ = dispatch(["islands", "gen", "--family", "hex_patch", "--rows", "3",
                            "--cols", "3", "--deletions", "-4", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "hex_patch needs deletions >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, what, n", [
        (["--family", "triangulation", "--n", "2000000000"], "triangulation", 2000000000),
        (["--family", "quadrangulation", "--n", "2000000000"], "quadrangulation", 2000000000),
        (["--family", "hex_torus", "--rows", "100000", "--cols", "100000"], "hex_torus", 20000000000),
        (["--family", "triangulated_torus", "--rows", "100000", "--cols", "100000"],
         "triangulated_torus", 10000000000),
        (["--family", "hex_patch", "--rows", "100000", "--cols", "100000"], "hex_patch", 20000000000),
        (["--family", "hypergraph3", "--n", "2000", "--m", "1000000000"], "hypergraph3", 1000002000),
    ])
    def test_oversized_instance_is_refused_before_allocating(self, tmp_path, capsys, argv, what, n):
        out = tmp_path / "x"
        tracemalloc.start()
        try:
            code, _ = dispatch(["islands", "gen", *argv, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and not out.exists()
        assert f"{what} would build {n} vertices; at most 1000000 are allowed" in capsys.readouterr().err
        assert peak < 2**20


class TestSolve:
    def test_terminal_pins(self, tmp_path):
        eq = tmp_path / "k23.g"
        dispatch(["mc", "gadget", "--type", "equalizer", "--k", "2",
                  "--out", str(eq)])
        code, rep = dispatch(["mc", "solve", "--graph", str(eq), "--k", "2",
                              "--pin", "y=0", "--pin", "z=1"])
        assert code == 1
        assert rep["verdicts"]["verdict"] == "no"
        code, rep = dispatch(["mc", "solve", "--graph", str(eq), "--k", "2",
                              "--pin", "y=0", "--pin", "z=0"])
        assert code == 0
        assert rep["verdicts"]["verdict"] == "yes"

    def test_numeric_pins_and_out(self, tmp_path):
        g = tmp_path / "p4.g"
        g.write_text("4 3\n0 1\n1 2\n2 3\n")
        out = tmp_path / "c.txt"
        code, rep = dispatch(["mc", "solve", "--graph", str(g), "--k", "1",
                              "--pin", "0=1", "--out", str(out)])
        assert code == 0
        coloring = parse_coloring(out.read_text(), 4)
        assert coloring[0] == 1 and len(coloring) == 4

    def test_bad_pin(self, tmp_path):
        g = tmp_path / "g.g"
        g.write_text("2 1\n0 1\n")
        code, _ = dispatch(["mc", "solve", "--graph", str(g), "--k", "1",
                            "--pin", "nope"])
        assert code == 2
        code, _ = dispatch(["mc", "solve", "--graph", str(g), "--k", "1",
                            "--pin", "w=0"])
        assert code == 2

    @pytest.mark.parametrize("pins", [["0=0", "0=1"], ["0=0", "0=0"], ["y=0", "0=1"], ["0=1", "y=1"]])
    def test_vertex_pinned_twice_is_refused(self, tmp_path, capsys, pins):
        g = tmp_path / "p3.g"
        g.write_text("# terminal y 0\n3 2\n0 1\n1 2\n")
        argv = ["mc", "solve", "--graph", str(g), "--k", "1"]
        for pin in pins:
            argv += ["--pin", pin]
        capsys.readouterr()
        code, _ = dispatch(argv)
        assert code == 2
        assert "vertex 0 is pinned twice" in capsys.readouterr().err

    def test_k_required_without_optimize(self, tmp_path):
        g = tmp_path / "g.g"
        g.write_text("2 1\n0 1\n")
        code, _ = dispatch(["mc", "solve", "--graph", str(g)])
        assert code == 2

    def test_optimize(self, tmp_path):
        g = tmp_path / "c5.g"
        g.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        code, rep = dispatch(["mc", "solve", "--graph", str(g), "--optimize"])
        assert code == 0
        assert rep["verdicts"]["k"] == 2 and rep["verdicts"]["exact"]

    @pytest.mark.parametrize("extra", [["--k", "1"], ["--optimize"]])
    def test_coloring_without_out_is_in_the_report(self, tmp_path, capsys, extra):
        # --json claims stdout, so the report is the only place left for it
        g = tmp_path / "p4.g"
        g.write_text("4 3\n0 1\n1 2\n2 3\n")
        capsys.readouterr()
        code, rep = dispatch(["mc", "solve", "--graph", str(g), *extra, "--json"])
        assert code == 0
        want = {"0": 0, "1": 1, "2": 0, "3": 1}
        assert rep["verdicts"]["coloring"] == want
        assert json.loads(capsys.readouterr().out)["verdicts"]["coloring"] == want
        code, rep = dispatch(["mc", "solve", "--graph", str(g), *extra,
                              "--out", str(tmp_path / "c.txt")])
        assert code == 0 and "coloring" not in rep["verdicts"]

    def test_budget_runs_out(self, tmp_path):
        # K5 at k = 2 is refuted in 4 nodes, whichever color a branch tries first
        g = tmp_path / "k5.g"
        g.write_text("5 10\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        code, rep = dispatch(["mc", "solve", "--graph", str(g), "--k", "2",
                              "--budget", "2"])
        assert code == 1
        assert rep["verdicts"]["verdict"] == "inconclusive"
        assert rep["verdicts"]["nodes_explored"] == 2
        code, rep = dispatch(["mc", "solve", "--graph", str(g), "--k", "2"])
        assert code == 1
        assert rep["verdicts"]["verdict"] == "no"
        assert rep["verdicts"]["nodes_explored"] == 4

    @pytest.mark.parametrize("extra", [["--k", "3"], ["--optimize"]])
    def test_negative_budget_is_refused(self, tmp_path, capsys, extra):
        g = tmp_path / "c5.g"
        g.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        capsys.readouterr()
        code, rep = dispatch(["mc", "solve", "--graph", str(g), *extra, "--budget", "-1"])
        assert code == 2 and rep["verdicts"] == {}
        assert "budget must be nonnegative, not -1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--k", "2"], ["--optimize"]])
    def test_failed_audit_exits_one(self, tmp_path, capsys, monkeypatch, extra):
        # an audit that finds every component too big stands for a solver bug
        def strict(g, coloring, max_size=None):
            return audit(g, coloring, max_size=0)

        monkeypatch.setattr(solver, "audit", strict)
        g = tmp_path / "c5.g"
        g.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        code, rep = dispatch(["mc", "solve", "--graph", str(g), *extra])
        assert code == 1
        assert rep["verdicts"]["assertion"] == "search returned an oversized component; solver bug"
        assert "property failed: search returned an oversized component" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--pin", "0=1"], ["--pin", "0=1", "--pin", "1=1"], ["--k", "1"],
        ["--pin", "0=1", "--pin", "1=1", "--k", "1"],
    ])
    def test_optimize_rejects_pins_and_k(self, tmp_path, capsys, extra):
        g = tmp_path / "c5.g"
        g.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        out = tmp_path / "c5.col"
        code, _ = dispatch(["mc", "solve", "--graph", str(g), "--optimize",
                            *extra, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "it takes no --pin and no --k" in err
        assert not out.exists()


class TestParserCache:
    def test_dispatches_share_one_parser(self, tmp_path, monkeypatch):
        g = tmp_path / "p2.g"
        g.write_text("2 1\n0 1\n")
        built = []
        real = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            built.append(parser)
            return real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for _ in range(2):
            code, _ = dispatch(["mc", "solve", "--graph", str(g), "--k", "1"])
            assert code == 0
        assert len(built) == 2 and built[0] is built[1]
        assert cli._build_parser("mc") is not cli._build_parser("islands")

    def test_appended_options_do_not_leak(self, tmp_path):
        g = tmp_path / "p4.g"
        g.write_text("4 3\n0 1\n1 2\n2 3\n")
        # the ends of a path on 4 vertices differ in every proper coloring
        code, rep = dispatch(["mc", "solve", "--graph", str(g), "--k", "1",
                              "--pin", "0=0", "--pin", "3=0"])
        assert code == 1 and rep["verdicts"]["verdict"] == "no"
        code, rep = dispatch(["mc", "solve", "--graph", str(g), "--k", "1"])
        assert code == 0 and rep["verdicts"]["verdict"] == "yes"
        code, rep = dispatch(["mc", "solve", "--graph", str(g), "--k", "1",
                              "--pin", "3=0"])
        assert code == 0 and rep["verdicts"]["verdict"] == "yes"
        args = cli._build_parser("mc").parse_args(["solve", "--graph", "x"])
        assert args.pin is None and args.k is None and not args.optimize


class TestGadget:
    def test_terminals_roundtrip(self, tmp_path):
        out = tmp_path / "n2.g"
        code, rep = dispatch(["mc", "gadget", "--type", "N", "--k", "2",
                              "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert parse_terminals(text) == {"y": 0, "z": 1}
        assert parse_graph(text)[0].n == rep["verdicts"]["n"] == 50

    def test_arity_flag_mismatch(self):
        code, _ = dispatch(["mc", "gadget", "--type", "tree", "--k", "2"])
        assert code == 2
        code, _ = dispatch(["mc", "gadget", "--type", "N", "--t", "2"])
        assert code == 2

    @pytest.mark.parametrize("argv, n", [
        (["--type", "N", "--k", "30"], 2430002),
        (["--type", "J", "--t", "20"], 1020202),
    ])
    def test_oversized_gadget_is_refused_before_allocating(self, capsys, argv, n):
        tracemalloc.start()
        try:
            code, _ = dispatch(["mc", "gadget", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"would build {n} vertices; at most 1000000 are allowed" in capsys.readouterr().err
        assert peak < 2**20

    def test_validate_uncrosser(self):
        code, rep = dispatch(["mc", "gadget", "--type", "uncrosser",
                              "--k", "2", "--validate"])
        assert code == 0
        assert rep["verdicts"]["validate"] == "pass"
        assert set(rep["verdicts"]["checks"]) == {
            "north_south_split", "west_east_split",
            "corner_agree", "corner_disagree"}

    def test_validate_refuses_a_negative_budget(self, capsys):
        code, _ = dispatch(["mc", "gadget", "--type", "uncrosser", "--k", "2",
                            "--validate", "--budget", "-3"])
        assert code == 2
        assert "budget must be nonnegative, not -3" in capsys.readouterr().err

    def test_validate_wrong_type(self):
        code, _ = dispatch(["mc", "gadget", "--type", "N", "--k", "2",
                            "--validate"])
        assert code == 2

    def test_validate_wrong_type_builds_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._GADGETS_BY_K, "N", lambda k: pytest.fail("built"))
        out = tmp_path / "x.g"
        code, _ = dispatch(["mc", "gadget", "--type", "N", "--k", "2",
                            "--out", str(out), "--validate"])
        assert code == 2
        assert not out.exists()

    def test_uncrosser_file_is_embedding(self, tmp_path):
        out = tmp_path / "u.emb"
        dispatch(["mc", "gadget", "--type", "uncrosser", "--k", "2",
                  "--out", str(out)])
        emb = parse_embedding(out.read_text())
        assert emb.graph.n == 162

    @pytest.mark.parametrize("kind, build", [("N", build_N), ("equalizer", build_equalizer)])
    def test_link_file_is_embedding_after_the_graph(self, tmp_path, kind, build):
        out = tmp_path / "link.emb"
        code, _ = dispatch(["mc", "gadget", "--type", kind, "--k", "2", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        link = build(2)
        # the graph section comes first, so graph readers see the same graph
        assert text.startswith(serialize_graph(link.graph, terminal_comments(link.terminals)))
        assert parse_embedding(text).rotations == link.embedding.rotations
        code, rep = dispatch(["islands", "discharge", "--embedding", str(out), "--regime", "A"])
        assert code == 0 and rep["verdicts"]["chi"] == 2
        code, _ = dispatch(["mc", "solve", "--graph", str(out), "--k", "2",
                            "--pin", "y=0", "--pin", "z=1" if kind == "N" else "z=0"])
        assert code == 0


class TestReduce:
    def test_girth8_output(self, tmp_path):
        h = tmp_path / "h.h3"
        h.write_text("3 1\n0 1 2\n")
        out = tmp_path / "r.g"
        code, rep = dispatch(["mc", "reduce", "--variant", "girth8",
                              "--hypergraph", str(h), "--k", "2",
                              "--out", str(out)])
        assert code == 0
        assert rep["verdicts"]["n"] == 3666
        terms = parse_terminals(out.read_text())
        assert {"v0", "v1", "v2"} <= set(terms)

    def test_planar_output_is_embedding(self, tmp_path):
        h = tmp_path / "h.h3"
        h.write_text("3 1\n0 1 2\n")
        out = tmp_path / "r.emb"
        code, rep = dispatch(["mc", "reduce", "--variant", "planar",
                              "--hypergraph", str(h), "--k", "2",
                              "--out", str(out)])
        assert code == 0
        emb = parse_embedding(out.read_text())
        assert emb.graph.n == rep["verdicts"]["n"] == 15
        code, rep = dispatch(["islands", "discharge", "--embedding", str(out),
                              "--regime", "B"])
        assert code == 0 and rep["verdicts"]["chi"] == 2

    def test_empty_hypergraph_is_refused(self, tmp_path, capsys):
        h = tmp_path / "h.h3"
        h.write_text("0 0\n")
        code, _ = dispatch(["mc", "reduce", "--variant", "planar", "--hypergraph", str(h),
                            "--k", "2", "--out", str(tmp_path / "r.emb")])
        assert code == 2
        assert "the hypergraph must be connected through shared vertices" in capsys.readouterr().err
        assert not (tmp_path / "r.emb").exists()

    def test_oversized_planar_reduction_is_refused_before_allocating(self, tmp_path, capsys):
        # one hyperedge's connectors alone number k(k - 1) + 1
        h = tmp_path / "h.h3"
        h.write_text("3 1\n0 1 2\n")
        tracemalloc.start()
        try:
            code, _ = dispatch(["mc", "reduce", "--variant", "planar", "--hypergraph", str(h),
                                "--k", "3000", "--out", str(tmp_path / "r.emb")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert ("crossing-free part would build 161892035994003 vertices; at most 1000000 are allowed"
                in capsys.readouterr().err)
        assert peak < 2**20


class TestHyper2Color:
    def test_colorable(self, tmp_path):
        h = tmp_path / "h.h3"
        h.write_text("4 2\n0 1 2\n1 2 3\n")
        code, rep = dispatch(["mc", "hyper2color", "--hypergraph", str(h)])
        assert code == 0
        assert rep["verdicts"]["colorable"]

    def test_fano_is_not(self, tmp_path):
        h = tmp_path / "fano.h3"
        h.write_text("7 7\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n")
        code, rep = dispatch(["mc", "hyper2color", "--hypergraph", str(h)])
        assert code == 1
        assert not rep["verdicts"]["colorable"]


# sha256 of the report of "suite run --name N --count 3 --seed 0" without its
# timings, as json.dumps(..., sort_keys=True); recorded when the suite runner
# lived in cli.py, so moving or rewriting the pipeline must not change them
SUITE_GOLDEN = {
    "planar-A": "037ef2c3b94032a5af66ecbae031548f52c1cace9d954f6461ea456bbdb10b24",
    "quad-B": "3fc4f8015abe76227640bcb86199bb11b62dccc4091bcc007e369d2cb5b29d85",
    "hex-C": "f65113d57938a2287940b50098b27e9d3b54b7dae27e0331afdf1110961bb3ba",
    "torus-C": "761e5a2a4117fcb27f271793871a3ff1588a41c0ec06375f9b07673105082924",
    "planar-sink": "6c39db6703acb3ec25cbf5e42dd5ac6b6b81621e4341b18f99924fc7d93cca87",
    "torus-sink": "0e5996c9c069fbd06d8637846709ba727011d6c0e8fa25bcfd7d21b0687cc0ea",
}


class TestSuite:
    def test_unknown_name(self):
        code, _ = dispatch(["suite", "run", "--name", "nope", "--count", "1"])
        assert code == 2

    def test_negative_count_is_refused(self, capsys):
        code, rep = dispatch(["suite", "run", "--name", "planar-A", "--count", "-5"])
        assert code == 2 and rep["verdicts"] == {}
        assert "count must be nonnegative, not -5" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_are_refused(self, capsys, workers):
        code, rep = dispatch(["suite", "run", "--name", "planar-A", "--count", "2",
                              "--workers", workers])
        assert code == 2 and rep["verdicts"] == {}
        assert f"workers must be at least 1, not {workers}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["planar-A", "quad-B", "hex-C",
                                      "torus-C", "planar-sink", "torus-sink"])
    def test_small_runs_pass(self, name):
        code, rep = dispatch(["suite", "run", "--name", name,
                              "--count", "2", "--seed", "11"])
        assert code == 0
        assert rep["verdicts"]["passed"] == rep["verdicts"]["count"] == 2
        assert rep["verdicts"]["failures"] == []

    def test_deterministic(self):
        _, a = dispatch(["suite", "run", "--name", "quad-B",
                         "--count", "2", "--seed", "3"])
        _, b = dispatch(["suite", "run", "--name", "quad-B",
                         "--count", "2", "--seed", "3"])
        assert a["verdicts"] == b["verdicts"]

    def test_workers_agree_with_serial(self):
        # the command echo names --workers; everything else must match
        def seeded(rep):
            return {k: v for k, v in rep.items() if k not in ("timings", "command")}

        for name in SUITE_NAMES:
            argv = ["suite", "run", "--name", name, "--count", "2", "--seed", "7"]
            _, a = dispatch(argv)
            _, b = dispatch(argv + ["--workers", "2"])
            assert seeded(a) == seeded(b), name

    def test_workers_are_clamped_to_count_and_cores(self, monkeypatch):
        # the pool forks every worker at its first task, so the clamp is
        # checked on a stand-in that starts no process
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(suites, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(suites.os, "cpu_count", lambda: 3)
        serial = suites.run_suite("planar-A", 4, 2)
        assert made == []
        assert suites.run_suite("planar-A", 4, 2, workers=100000) == serial
        assert len(suites.run_suite("planar-A", 4, 5, workers=100000)) == 5
        assert made == [2, 3]
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers must be at least 1"):
                suites.run_suite("planar-A", 4, 2, workers=workers)
        assert made == [2, 3]

    @pytest.mark.parametrize("name,digest", list(SUITE_GOLDEN.items()))
    def test_seeded_report_is_unchanged(self, name, digest):
        argv = ["suite", "run", "--name", name, "--count", "3", "--seed", "0"]
        code, rep = dispatch(argv)
        assert code == 0
        seeded = {k: v for k, v in rep.items() if k != "timings"}
        text = json.dumps(seeded, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_violation_exits_three_with_residual(self, tmp_path, monkeypatch):
        def no_islands(g, regime, chi, footnote_12=False):
            raise TheoremViolation(regime, chi, tuple(range(0, g.n, 2)))

        monkeypatch.setattr(suites, "peel", no_islands)
        monkeypatch.chdir(tmp_path)
        code, rep = dispatch(["suite", "run", "--name", "planar-A",
                              "--count", "2", "--seed", "5", "--workers", "1"])
        assert code == 3
        first = rep["verdicts"]["failures"][0]
        assert first["kind"] == "violation" and first["index"] == 0
        path = f"residual-planar-A-{first['spec']['seed']}.g"
        assert rep["outputs"]["residual"] == path
        text = (tmp_path / path).read_text()
        line = next(l for l in text.splitlines() if "original-ids:" in l)
        assert [int(v) for v in line.split(":")[1].split()] == first["residual"]
        g = gen(GenSpec(**first["spec"])).graph
        assert parse_graph(text)[0] == g.induced(first["residual"])[0]

    def test_corrupted_layer_fails_replay(self, monkeypatch):
        def corrupted(g, regime, chi, footnote_12=False):
            dec = peel(g, regime, chi, footnote_12=footnote_12)
            # the last island absorbs the first: now too big, or not an island
            layers = dec.layers[1:-1] + (dec.layers[-1] + dec.layers[0],)
            return replace(dec, layers=layers)

        monkeypatch.setattr(suites, "peel", corrupted)
        code, rep = dispatch(["suite", "run", "--name", "quad-B",
                              "--count", "2", "--seed", "5", "--workers", "1"])
        assert code == 1
        failures = rep["verdicts"]["failures"]
        assert len(failures) == 2
        assert all("replay failed" in r["detail"] for r in failures)


class TestJsonReport:
    def test_stdout_is_the_report(self, tmp_path, capsys):
        # every subcommand, its exit code and the timing keys it records;
        # exits 1 and 3 print the report too
        p4 = tmp_path / "p4.g"
        p4.write_text("4 3\n0 1\n1 2\n2 3\n")
        col = tmp_path / "c.txt"
        col.write_text("0 0\n1 1\n2 0\n3 1\n")
        k9 = tmp_path / "k9.g"
        write_k9(k9)
        l9 = tmp_path / "l9.txt"
        write_lists(l9, 9, [1, 2, 3, 4, 5])
        emb = tmp_path / "t.emb"
        emb.write_text(serialize_embedding(gen(GenSpec("triangulation", seed=1, n=12))))
        h = tmp_path / "h.h3"
        h.write_text("3 1\n0 1 2\n")
        runs = [
            (["islands", "find", "--graph", p4, "--k", "1", "--size", "1"], 0, {"find"}),
            (["islands", "color", "--graph", emb, "--four-plus-sink"], 0, {"color"}),
            (["islands", "color", "--graph", k9, "--lists", l9, "--regime", "A"], 3, set()),
            (["islands", "verify", "--graph", p4, "--coloring", col, "--max-size", "1"], 0, set()),
            (["islands", "discharge", "--embedding", emb, "--regime", "A"], 0, {"discharge"}),
            (["islands", "gen", "--family", "triangulation", "--n", "12",
              "--out", tmp_path / "g.emb"], 0, {"gen"}),
            (["mc", "solve", "--graph", p4, "--k", "1"], 0, {"solve"}),
            (["mc", "solve", "--graph", p4, "--optimize"], 0, {"solve"}),
            (["mc", "solve", "--graph", k9, "--k", "1"], 1, {"solve"}),
            (["mc", "gadget", "--type", "N", "--k", "2"], 0, set()),
            (["mc", "gadget", "--type", "uncrosser", "--k", "2", "--validate"], 0, {"validate"}),
            (["mc", "reduce", "--variant", "girth8", "--hypergraph", h, "--k", "2",
              "--out", tmp_path / "r.g"], 0, {"reduce"}),
            (["mc", "hyper2color", "--hypergraph", h], 0, {"search"}),
            (["suite", "run", "--name", "planar-A", "--count", "2"], 0, {"suite"}),
        ]
        for argv, want, stages in runs:
            argv = [str(a) for a in argv] + ["--json"]
            capsys.readouterr()
            code, rep = dispatch(argv)
            assert code == want, argv
            assert capsys.readouterr().out == json.dumps(rep, indent=2) + "\n", argv
            assert rep["command"] == argv
            assert set(rep["timings"]) == stages, argv

    def test_usage_error_prints_nothing_on_stdout(self, tmp_path, capsys):
        g = tmp_path / "g.g"
        g.write_text("2 1\n0 1\n")
        capsys.readouterr()
        code, _ = dispatch(["mc", "solve", "--graph", str(g), "--json"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --k is required unless --optimize\n"
