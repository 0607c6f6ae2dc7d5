"""Property tests for the text formats that share one header-and-rows reader."""

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
from archipelago.graphs import (
    Embedding,
    parse_embedding,
    parse_graph,
    parse_hypergraph,
    serialize_embedding,
    serialize_graph,
    serialize_hypergraph,
)

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
