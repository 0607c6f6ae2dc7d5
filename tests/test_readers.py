"""Property tests for the text formats that share one header-and-rows reader."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archipelago.generators import (
    hex_patch,
    hex_torus,
    hypergraph3,
    quadrangulation,
    triangulated_torus,
    triangulation,
)
import oracles
from archipelago.cli import dispatch
from archipelago.graphs import (
    Embedding,
    parse_coloring,
    parse_embedding,
    parse_graph,
    parse_hypergraph,
    parse_lists,
    serialize_coloring,
    serialize_embedding,
    serialize_graph,
    serialize_hypergraph,
    serialize_lists,
)
from test_crosscheck import FAMILY_DRAWS

EMBEDDINGS = {
    "triangulation": lambda d: triangulation(d.draw(st.integers(4, 30)), seed=d.draw(st.integers(0, 999))),
    "quadrangulation": lambda d: quadrangulation(d.draw(st.integers(4, 30)), seed=d.draw(st.integers(0, 999))),
    "hex_torus": lambda d: hex_torus(d.draw(st.integers(3, 5)), d.draw(st.integers(3, 5))),
    "triangulated_torus": lambda d: triangulated_torus(d.draw(st.integers(3, 5)), d.draw(st.integers(3, 5))),
    "hex_patch": lambda d: hex_patch(
        d.draw(st.integers(3, 5)), d.draw(st.integers(3, 5)),
        deletions=d.draw(st.integers(0, 3)), seed=d.draw(st.integers(0, 999)),
    ),
}

# printable ASCII only: str.splitlines also breaks on some control characters
COMMENT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
NOT_INTEGERS = st.sampled_from(["x", "1.5", "1e3", "--1", "0x1", "one", "2-"])


def signed_embedding(d):
    """An embedding of a random family with random negative edges."""
    emb = EMBEDDINGS[d.draw(st.sampled_from(sorted(EMBEDDINGS)))](d)
    edges = list(emb.graph.edges())
    negative = d.draw(st.sets(st.sampled_from(edges), max_size=len(edges)))
    return Embedding(emb.graph, emb.rotations, {e: -1 for e in negative})


def embedding_key(emb):
    g = emb.graph
    return g, emb.rotations, sorted(e for e in g.edges() if emb.sign(*e) == -1)


def hypergraph(d):
    n = d.draw(st.integers(3, 12))
    return hypergraph3(n, d.draw(st.integers(0, min(20, n * (n - 1) * (n - 2) // 6))), d.draw(st.integers(0, 999)))


# kind -> (draw an object, serialize, parse, comparison key)
FORMATS = {
    "graph": (lambda d: signed_embedding(d).graph, serialize_graph, lambda text: parse_graph(text)[0], lambda g: g),
    "embedding": (signed_embedding, serialize_embedding, parse_embedding, embedding_key),
    "hypergraph": (hypergraph, serialize_hypergraph, parse_hypergraph, lambda h: h),
}


def drawn(d):
    kind = d.draw(st.sampled_from(sorted(FORMATS)))
    make, serialize, parse, key = FORMATS[kind]
    x = make(d)
    return kind, x, serialize(x).splitlines(), parse, key


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_round_trip(data):
    _, x, lines, parse, key = drawn(data)
    assert key(parse("\n".join(lines) + "\n")) == key(x)


def noise(d):
    """A line that carries nothing: blank, white space or a comment."""
    comment = d.draw(st.one_of(st.just(""), COMMENT.map(lambda c: "#" + c)))
    return d.draw(st.sampled_from(["", " ", "\t"])) + comment


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blank_lines_and_comments_anywhere(data):
    _, x, lines, parse, key = drawn(data)
    noisy = []
    for line in lines:
        noisy.extend(noise(data) for _ in range(data.draw(st.integers(0, 2))))
        tail = " #" + data.draw(COMMENT) if data.draw(st.booleans()) else ""
        noisy.append(data.draw(st.sampled_from(["", " ", "\t"])) + line + tail)
    noisy.extend(noise(data) for _ in range(data.draw(st.integers(0, 2))))
    assert key(parse("\n".join(noisy))) == key(x)


@pytest.mark.parametrize("line", ["-1 0 -1", "99 100 -1"])
def test_sign_line_out_of_range_raises_value_error(line):
    # -1 once wrapped round to the last vertex, and 99 raised IndexError
    triangle = "3 3\n0 1\n1 2\n0 2\n0: 1 2\n1: 0 2\n2: 0 1\nsigns:\n"
    with pytest.raises(ValueError, match="not in graph"):
        parse_embedding(triangle + line + "\n")


def test_isolated_vertex_may_have_no_rotation_line():
    emb = parse_embedding("3 1\n0 1\n0: 1\n1: 0\n")
    assert emb.rotations == ((1,), (0,), ())


@pytest.mark.parametrize("parse", [parse_graph, parse_embedding, parse_hypergraph])
def test_negative_vertex_count_raises_value_error(parse):
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        parse("-3 0\n")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_truncated_files_raise_value_error(data):
    kind, _, lines, parse, _ = drawn(data)
    if kind == "embedding":
        # cut at or before the last rotation line, which names a vertex of
        # positive degree in every family
        last = max(i for i, line in enumerate(lines) if ":" in line and line != "signs:")
        cut = data.draw(st.integers(0, last))
    else:
        if len(lines) == 1:  # no rows to lose
            return
        cut = data.draw(st.integers(0, len(lines) - 1))
    with pytest.raises(ValueError):
        parse("\n".join(lines[:cut]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_wrong_row_width_raises_value_error(data):
    _, _, lines, parse, _ = drawn(data)
    m = int(lines[0].split()[1])
    if m == 0:
        return
    i = data.draw(st.integers(1, m))
    tokens = lines[i].split()
    if data.draw(st.booleans()):
        tokens.append(data.draw(st.sampled_from(tokens)))
    else:
        tokens.pop(data.draw(st.integers(0, len(tokens) - 1)))
    lines[i] = " ".join(tokens)
    with pytest.raises(ValueError):
        parse("\n".join(lines))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trailing_rows_raise_value_error(data):
    kind, _, lines, parse, _ = drawn(data)
    width = 3 if kind == "hypergraph" else 2
    extra = data.draw(st.lists(st.integers(0, 5), min_size=width, max_size=width))
    lines.append(" ".join(map(str, extra)))
    with pytest.raises(ValueError):
        parse("\n".join(lines))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_non_integer_tokens_raise_value_error(data):
    _, _, lines, parse, _ = drawn(data)
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(NOT_INTEGERS)
    lines[i] = " ".join(tokens)
    with pytest.raises(ValueError):
        parse("\n".join(lines))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_small_integer_edits_parse_or_raise_value_error(data):
    """Any token replaced by a small integer: a parse, or a ValueError, never another error."""
    _, _, lines, parse, _ = drawn(data)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        j = data.draw(st.integers(0, len(tokens) - 1))
        value = str(data.draw(st.integers(-2, 40)))
        tokens[j] = value + ":" if tokens[j].endswith(":") else value
        lines[i] = " ".join(tokens)
    try:
        parse("\n".join(lines))
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# the readers against the ones that convert each token by int() when reached


def respelled(rng, token):
    """A nonnegative integer token, sometimes spelled "+3" or "007"."""
    head, colon = (token[:-1], ":") if token.endswith(":") else (token, "")
    if not head.isdigit() or rng.random() < 0.8:
        return token
    return rng.choice(["+", "0", "00"]) + head + colon


def noisy(rng, text):
    """The text with comments, blank lines, tabs and respelled ids."""
    out = []
    for line in text.splitlines():
        if rng.random() < 0.2:
            out.append(rng.choice(["", " ", "\t", "# note", "\t# 1 2 3"]))
        tokens = [respelled(rng, t) for t in line.split()]
        sep = rng.choice([" ", "\t", "  "])
        tail = rng.choice(["", "", " # trailing", "\t#0 1"])
        out.append(rng.choice(["", "\t", " "]) + sep.join(tokens) + tail)
    return rng.choice(["\n", "\r\n"]).join(out) + rng.choice(["", "\n"])


def random_file(rng):
    """A reader, its oracle, the extra argument both take, a comparison key and a valid file."""
    emb = FAMILY_DRAWS[rng.choice(sorted(FAMILY_DRAWS))](rng)
    g = emb.graph
    negative = {e: -1 for e in g.edges() if rng.random() < 0.1}
    emb = Embedding(g, emb.rotations, negative)
    present = [v for v in range(g.n) if rng.random() < 0.9]
    kind = rng.choice(["graph", "embedding", "hypergraph", "lists", "coloring"])
    if kind == "graph":
        text = serialize_embedding(emb) if rng.random() < 0.5 else serialize_graph(g)
        key = lambda r: (r[0], r[1] and embedding_key(r[1]))  # noqa: E731
        return parse_graph, oracles.parse_graph, (), key, text
    if kind == "embedding":
        return parse_embedding, oracles.parse_embedding, (), embedding_key, serialize_embedding(emb)
    if kind == "hypergraph":
        n = rng.randrange(3, 40)
        h = hypergraph3(n, rng.randrange(min(60, n * (n - 1) * (n - 2) // 6)), rng.randrange(1000))
        return parse_hypergraph, oracles.parse_hypergraph, (), lambda h: h, serialize_hypergraph(h)
    if kind == "lists":
        lists = {v: sorted(rng.sample(range(1, 3 * g.n), rng.randrange(1, 6))) for v in present}
        return parse_lists, oracles.parse_lists, (g.n,), lambda x: x, serialize_lists(lists)
    coloring = {v: rng.randrange(-2, 2 * g.n) for v in present}
    return parse_coloring, oracles.parse_coloring, (g.n,), lambda x: x, serialize_coloring(coloring)


def read(parse, text, args, key):
    try:
        return "value", key(parse(text, *args))
    except ValueError:
        return "ValueError", None


def mutated(rng, text):
    """The text with one token replaced, a line dropped or a line repeated."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    what = rng.randrange(3)
    if what == 0:
        tokens = lines[i].split() or [""]
        j = rng.randrange(len(tokens))
        tokens[j] = rng.choice(["x", "-1", "+1", "007", "1.5", str(rng.randrange(80))])
        lines[i] = " ".join(tokens)
    elif what == 1:
        del lines[i]
    elif lines[i].partition("#")[0].strip() != "signs:":  # the oracles skip a repeated one
        lines.insert(i, lines[i])
    return "\n".join(lines)


def test_readers_match_oracles_on_noisy_and_mutated_files():
    rng = random.Random("readers")
    rejected = 0
    for _ in range(600):
        parse, oracle, args, key, text = random_file(rng)
        text = noisy(rng, text)
        assert read(parse, text, args, key) == read(oracle, text, args, key) != ("ValueError", None)
        bad = mutated(rng, text)
        got = read(parse, bad, args, key)
        assert got == read(oracle, bad, args, key)
        rejected += got[0] == "ValueError"
    assert rejected >= 150


# ---------------------------------------------------------------------------
# every reader's rejections, at the reader and through the command line

PATH3 = "3 2\n0 1\n1 2\n"  # a path on 3 vertices, for the per-vertex files
EDGE2 = "2 1\n0 1\n0: 1\n1: 0\nsigns:\n0 1 -1\n"  # one negative edge
REJECTED = [
    # reader, file, message
    (parse_graph, "3\n0 1\n", "bad header '3'"),
    (parse_graph, "3 2\n0 1 2\n3\n", "bad edge line '0 1 2'"),  # still 2m tokens
    (parse_graph, "3 1\n0 x\n", "invalid literal for int"),
    (parse_graph, "3 1\n0 3\n", r"edge \(0, 3\) out of range"),
    (parse_graph, "3 1\n1 1\n", "loop at vertex 1"),
    (parse_graph, "3 2\n0 1\n1 0\n", r"duplicate edge \(0, 1\)"),
    (parse_embedding, "2 1 1\n0 1\n", "bad header"),
    (parse_embedding, PATH3 + "0: 1\n1: 0 2\n1: 2 0\n2: 1\n", "two rotation lines for vertex 1"),
    (parse_embedding, PATH3 + "0: 1\n1: 0 0\n2: 1\n", "rotation at 1 is not a permutation"),
    (parse_embedding, PATH3 + "0: 1\n2: 1\n", "missing rotation for vertex 1"),
    (parse_embedding, PATH3 + "0: 1\n1: 0 2\n2: 3\n", "rotation at 2 is not a permutation"),
    (parse_embedding, EDGE2 + "1 0 -1\n", r"two sign lines for edge \(0, 1\)"),
    (parse_embedding, EDGE2 + "signs:\n", "bad sign line 'signs:'"),
    (parse_hypergraph, "4 1 1\n0 1 2\n", "bad header"),
    (parse_hypergraph, "4 2\n0 1 2 3\n1 2\n", "bad hyperedge line '0 1 2 3'"),  # still 3m tokens
    (parse_hypergraph, "4 1\n0 1 z\n", "invalid literal for int"),
    (parse_hypergraph, "4 1\n0 1 4\n", "out of range"),
    (parse_lists, "0: 1\n1:\n2: 1\n", "empty list for vertex 1"),
    (parse_lists, "0: 1\n1 2\n", "bad list line '1 2'"),
    (parse_lists, "0: 1\n1: 2 x\n", "invalid literal for int"),
    (parse_lists, "0: 1\n3: 1\n", "list line names vertex 3"),
    (parse_lists, "0: 1\n0: 2\n", "two list lines for vertex 0"),
    (parse_coloring, "0 1\n1 1 1\n", "bad coloring line '1 1 1'"),
    (parse_coloring, "0 1\n1 +\n", "invalid literal for int"),
    (parse_coloring, "0 1\n-1 1\n", "coloring line names vertex -1"),
    (parse_coloring, "0 1\n0 2\n", "vertex 0 colored twice"),
]
# each reader's command, with {} for the malformed file; the others valid
COMMANDS = {
    parse_graph: ["islands", "find", "--graph", "{}", "--k", "0", "--size", "1"],
    parse_embedding: ["islands", "discharge", "--embedding", "{}", "--regime", "A"],
    parse_hypergraph: ["mc", "hyper2color", "--hypergraph", "{}"],
    parse_lists: ["islands", "verify", "--graph", "path3", "--coloring", "coloring", "--lists", "{}"],
    parse_coloring: ["islands", "verify", "--graph", "path3", "--coloring", "{}"],
}


@pytest.mark.parametrize(("parse", "text", "message"), REJECTED)
def test_every_reader_rejects_with_exit_two(parse, text, message, tmp_path):
    args = (3,) if parse in (parse_lists, parse_coloring) else ()
    with pytest.raises(ValueError, match=message):
        parse(text, *args)
    files = {"{}": text, "path3": PATH3, "coloring": "0 1\n1 2\n2 1\n"}
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    code, _ = dispatch([str(tmp_path / a) if a in files else a for a in COMMANDS[parse]])
    assert code == 2
    # the readers before bulk reading refused the same files, all but the
    # repeated "signs:" line, which they skipped
    oracle = getattr(oracles, parse.__name__)
    if text == EDGE2 + "signs:\n":
        assert oracle(text).sign(0, 1) == -1
    else:
        with pytest.raises(ValueError):
            oracle(text, *args)
