import cmath
import math
import random

import pytest

from gainspec import (
    GainGraph,
    GainGraphParseError,
    Graph,
    all_ones,
    chorded_six_cycle,
    empty_graph,
    gnp_graph,
    load_gain_graph,
    parse_gain_graph,
    random_gain_graph,
    save_gain_graph,
    serialize_gain_graph,
    set_gain,
    unit_from_angle,
)
from gainspec.corpus import extremal_union


def test_round_trip_reproduces_gains():
    rng = random.Random(3)
    for _ in range(25):
        phi = random_gain_graph(gnp_graph(rng.randrange(0, 10), 0.6, rng), rng)
        back = parse_gain_graph(serialize_gain_graph(phi))
        assert back.graph == phi.graph
        for e in phi.graph.edges:
            assert abs(back.forward[e] - phi.forward[e]) <= 1e-12


def test_round_trip_through_files(tmp_path):
    phi = random_gain_graph(chorded_six_cycle(), 9)
    path = tmp_path / "instance.ugg"
    save_gain_graph(phi, path, comment="fixture")
    text = path.read_text()
    assert text.startswith("# fixture\n")
    assert "\r" not in text
    back = load_gain_graph(path)
    assert back.graph == phi.graph


def test_serialize_layout():
    text = serialize_gain_graph(all_ones(chorded_six_cycle()))
    lines = text.splitlines()
    assert lines[0] == "ugg 6"
    assert len(lines) == 8
    assert lines[1].split() == ["0", "1", "0"]


def test_parse_accepts_comments_blanks_and_any_angle():
    phi = parse_gain_graph(
        """
        # a comment
        ugg 3

        # gains can be any real angle
        0 1 12.566370614359172
        1 2 -0.5
        """
    )
    assert phi.graph.m == 2
    assert phi.gain(0, 1) == pytest.approx(1.0)  # 4*pi wraps to 1
    assert phi.gain(1, 2) == pytest.approx(complex(math.cos(0.5), -math.sin(0.5)))


def test_parse_empty_graph():
    phi = parse_gain_graph("ugg 0\n")
    assert phi.graph.n == 0 and phi.graph.m == 0


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("0 1 0.5", 1),                    # missing header
        ("ugg\n", 1),                      # header arity
        ("ugg x\n", 1),                    # bad count
        ("ugg -1\n", 1),                   # negative count
        ("ugg 3\n0 0 1.0\n", 2),           # self-loop
        ("ugg 3\n1 0 1.0\n", 2),           # wrong orientation
        ("ugg 3\n0 3 1.0\n", 2),           # out of range
        ("ugg 3\n0 1 1.0\n0 1 2.0\n", 3),  # duplicate
        ("ugg 3\n0 1 nope\n", 2),          # bad angle
        ("ugg 3\n0 1 inf\n", 2),           # non-finite angle
        ("ugg 3\n0 1\n", 2),               # short line
        ("", 1),                           # empty input
        ("# only a comment", 1),           # missing header, no newline
    ],
)
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(GainGraphParseError) as err:
        parse_gain_graph(text)
    assert err.value.line == bad_line
    assert f"line {bad_line}" in str(err.value)


# ---------------------------------------------------------------------------
# The array path against the line loop.  ``_parse_lines`` is the general
# parser and the reference: ``parse_gain_graph`` must raise what it raises
# and return what it returns, on every input.
# ---------------------------------------------------------------------------

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from gainspec import fileio, gains

# Every case of test_parse_errors_carry_line_numbers.
ERROR_CASES = [
    "0 1 0.5",
    "ugg\n",
    "ugg x\n",
    "ugg -1\n",
    "ugg 3\n0 0 1.0\n",
    "ugg 3\n1 0 1.0\n",
    "ugg 3\n0 3 1.0\n",
    "ugg 3\n0 1 1.0\n0 1 2.0\n",
    "ugg 3\n0 1 nope\n",
    "ugg 3\n0 1 inf\n",
    "ugg 3\n0 1\n",
    "",
    "# only a comment",
]

# Inputs the bulk path refuses: each has a valid edge line before the
# trigger, so the line loop that takes them over builds at least one gain.
FALLBACK_CASES = [
    "ugg 2000\n0 1 0.5\n1_000 1001 0.25\n",       # underscore in an endpoint
    "ugg 200\n0 1 0.5\n1e2 101 0.25\n",            # exponent endpoint
    "ugg 9\n0 1 0.5\n1.0 2 0.25\n",                # decimal endpoint
    "ugg 9\n0 1 0.5\n1 2 nan\n",                   # nan angle
    "ugg 9\n0 1 0.5\n1 2 1e999\n",                 # angle overflows to inf
    "ugg 9\n0 1 0.5\n1\t2 0.25\n",                 # tab
    "ugg 9\r\n0 1 0.5\r\n1 2 0.25\r\n",            # CRLF
    "ugg 9\n0 1 0.5\n# note\n1 2 0.25\n",          # comment in the body
    "ugg 9\n0 1 0.5\n١ 2 0.25\n",             # non-ASCII digit
    "ugg 9\n0 1 0.5\n1  2 0.25\n",                 # double space
    "ugg 9\n0 1 0.5\n1 2 0.25 7\n2 3\n",           # 2m spaces, misplaced
    "ugg 9\n0 1 0.5\n 1 2 0.25\n",                 # leading space
    "ugg 9\n0 1 0.5\n1 2 0.25 \n",                 # trailing space
    "ugg 9\n1 2 0.5\n0 1 0.25\n",                  # edges out of order
    "ugg 9\n0 1 0.5\n0 1 0.25\n",                  # duplicate
    "ugg 9\n0 1 0.5\n2 2 0.25\n",                  # self-loop
    "ugg 9\n0 1 0.5\n2 1 0.25\n",                  # reversed edge
    "ugg 9\n0 1 0.5\n1 9 0.25\n",                  # endpoint out of range
    "ugg 9\n0 1 0.5\n1 2 .\n",                     # not a number
    "ugg 9\n0 1 0.5\n1 2 1e\n",                    # truncated exponent
    "ugg 9\n0 1 0.5\n1 2\n",                       # short line
    "ugg 9\n0 1 0.5\n1 2 0.25 7\n",                # long line
    "ugg 9\n0 1 0.5\n0001234567890123456 2 0.25\n",  # endpoint of 19 digits
    "# a\x0cugg 9\n0 1 0.5\n1 2 0.25\n",          # form feed breaks a comment
    "ugg 09 \n0 1 0.5\n",                          # trailing space in the header
    "\nugg 9\n0 1 0.5\n",                          # blank line before the header
]

# Outside the layout ``serialize_gain_graph`` writes, but inside what numpy's
# text reader takes: the bulk path parses them.
BULK_CASES = [
    "ugg 9\n0 1 0.5\n+3 4 0.25\n",                 # signed endpoint
    "ugg 9\n0 1 0.5\n\n1 2 0.25\n",                # blank line in the body
    "ugg 9\n0 1 0.5\n1 2 0.25",                    # no final newline
    "ugg 9\n0 1 0.5\n1 2 0." + "0" * 40 + "1\n",   # angle of 43 characters
]


def _outcome(parse, text):
    try:
        return parse(text)
    except fileio.GainGraphParseError as exc:
        return exc


def assert_same_parse(text):
    want = _outcome(fileio._parse_lines, text)
    got = _outcome(parse_gain_graph, text)
    if isinstance(want, Exception):
        assert isinstance(got, fileio.GainGraphParseError)
        assert (got.line, str(got)) == (want.line, str(want))
        return
    assert got.graph == want.graph
    assert list(got.forward) == list(want.forward)
    for (e, z), w in zip(got.forward.items(), want.forward.values()):
        assert type(e[0]) is int and type(e[1]) is int and type(z) is complex
        assert struct.pack("2d", z.real, z.imag) == struct.pack("2d", w.real, w.imag)


@pytest.mark.parametrize("text", ERROR_CASES + FALLBACK_CASES + BULK_CASES)
def test_array_path_agrees_with_line_loop(text):
    assert_same_parse(text)


@pytest.mark.parametrize("text", FALLBACK_CASES)
def test_fallback_inputs_take_the_line_loop(text, monkeypatch):
    calls = _count_unit_from_angle(monkeypatch)
    _outcome(parse_gain_graph, text)
    assert calls
    assert fileio._parse_canonical(text) is None


@pytest.mark.parametrize("text", BULK_CASES)
def test_bulk_inputs_take_the_array_path(text, monkeypatch):
    calls = _count_unit_from_angle(monkeypatch)
    assert fileio._parse_canonical(text) is not None
    parse_gain_graph(text)
    assert calls == []


def _count_unit_from_angle(monkeypatch):
    calls = []
    real = gains.unit_from_angle

    def counted(theta):
        calls.append(theta)
        return real(theta)

    monkeypatch.setattr(gains, "unit_from_angle", counted)
    monkeypatch.setattr(fileio, "unit_from_angle", counted)
    return calls


@pytest.mark.parametrize("comment", [None, "generated\nfor the guard"])
def test_canonical_files_take_the_array_path(comment, monkeypatch):
    phi = random_gain_graph(gnp_graph(90, 0.5, random.Random(4)), 4)
    assert 1900 <= phi.graph.m <= 2100
    text = serialize_gain_graph(phi, comment)
    calls = _count_unit_from_angle(monkeypatch)
    back = parse_gain_graph(text)
    assert calls == []
    assert back.graph == phi.graph
    monkeypatch.undo()
    assert_same_parse(text)


_ANGLE_FORMATS = [repr, "{:.17g}".format, "{:.3e}".format, "{:.20e}".format, "{:+.6f}".format]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 40),
    data=st.data(),
)
def test_array_path_matches_line_loop_on_valid_files(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(data.draw(st.sets(st.sampled_from(pairs), max_size=120))) if pairs else []
    angle = st.floats(-1e6, 1e6, allow_nan=False) | st.floats(-1e-300, 1e-300)
    lines = [
        f"{u} {v} {data.draw(st.sampled_from(_ANGLE_FORMATS))(data.draw(angle))}"
        for u, v in chosen
    ]
    comments = data.draw(st.lists(st.sampled_from(["#", "# c", "#x y"]), max_size=2))
    # blank lines between edge lines, and perhaps no newline after the last
    ends = [data.draw(st.sampled_from(["\n", "\n", "\n\n", "\n\n\n"])) for _ in lines[1:]]
    ends.append(data.draw(st.sampled_from(["\n", ""])) if lines else "")
    text = "".join(c + "\n" for c in comments) + f"ugg {n}\n" + "".join(
        map(str.__add__, lines, ends)
    )
    assert fileio._parse_canonical(text) is not None
    assert_same_parse(text)


def _serialized_edge_by_edge(phi, comment=None):
    """The ugg text, formatted one sorted edge at a time."""
    lines = [f"# {c}" for c in comment.splitlines()] if comment else []
    lines.append(f"ugg {phi.graph.n}")
    for u, v in sorted(phi.graph.edges):
        lines.append(f"{u} {v} {cmath.phase(phi.forward[(u, v)]):.17g}")
    return "\n".join(lines) + "\n"


def _serialize_cases():
    rng = random.Random(41)
    switched = extremal_union([6, 4, 1], isolated=3, switch_seed=rng)
    dense = random_gain_graph(gnp_graph(60, 0.4, rng), rng)
    u, v = sorted(dense.graph.edges)[100]
    perturbed = set_gain(dense, u, v, dense.gain(u, v) * unit_from_angle(1e-9))
    edgeless = all_ones(empty_graph(4))
    return [switched, dense, perturbed, edgeless, all_ones(empty_graph(0))]


@pytest.mark.parametrize("comment", [None, "", "one line", "two\nlines"])
def test_serialize_matches_the_edge_by_edge_form(comment):
    for phi in _serialize_cases():
        text = serialize_gain_graph(phi, comment)
        assert text == _serialized_edge_by_edge(phi, comment)
        # and on a graph whose arrays the parse filled
        parsed = parse_gain_graph(text)
        assert serialize_gain_graph(parsed, comment) == _serialized_edge_by_edge(
            parsed, comment
        )


def test_serialize_sorts_a_fresh_gain_graph_once(monkeypatch):
    # the edges are sorted at construction only; serializing sorts nothing
    import builtins

    import numpy as np

    sorts = []

    def counting(m, module, name):
        real = getattr(module, name)
        m.setattr(module, name, lambda *a, **k: sorts.append(name) or real(*a, **k))

    rng = random.Random(43)
    for phi in [extremal_union([20, 12], isolated=2, switch_seed=rng),
                random_gain_graph(gnp_graph(40, 0.3, rng), rng)]:
        expected = _serialized_edge_by_edge(phi, "c")
        edges, fwd = list(phi.graph.edges), dict(phi.forward)
        with monkeypatch.context() as m:
            for module, name in [(builtins, "sorted"), (np, "lexsort"), (np, "argsort"),
                                 (np, "sort")]:
                counting(m, module, name)
            fresh = GainGraph(Graph(phi.graph.n, edges), fwd)
            assert sorts == ["sorted"]
            sorts.clear()
            assert serialize_gain_graph(fresh, "c") == expected
        assert sorts == []


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 7])
def test_chunked_writer_gives_the_edge_by_edge_text(monkeypatch, tmp_path, m):
    # chunks of 3 edges: an empty body, a part chunk, whole chunks and both
    monkeypatch.setattr(fileio, "_CHUNK_EDGES", 3)
    rng = random.Random(m)
    pairs = rng.sample([(u, v) for v in range(6) for u in range(v)], m)
    phi = random_gain_graph(Graph.from_edges(6, pairs), rng)
    path = tmp_path / "chunked.ugg"
    for comment in (None, "first\nsecond"):
        save_gain_graph(phi, path, comment)
        expected = _serialized_edge_by_edge(phi, comment)
        assert path.read_bytes().decode() == serialize_gain_graph(phi, comment) == expected


def test_save_holds_a_chunk_not_the_text(tmp_path):
    import gc
    import tracemalloc

    phi = extremal_union([250, 200], switch_seed=5)
    path = tmp_path / "big.ugg"
    gc.collect()
    tracemalloc.start()
    try:
        save_gain_graph(phi, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.graph.m >= 100_000
    assert peak < path.stat().st_size / 4


# ---------------------------------------------------------------------------
# A bulk-parsed gain graph is its arrays: the views ``edges`` and
# ``forward`` are never built on the analyze, double or generate paths.
# ---------------------------------------------------------------------------


def _bulk_parsed():
    rng = random.Random(47)
    unbalanced = random_gain_graph(gnp_graph(60, 0.1, rng), rng)
    balanced = extremal_union([20, 16], isolated=3, switch_seed=rng)
    for phi in (unbalanced, balanced):
        text = serialize_gain_graph(phi)
        assert fileio._parse_canonical(text) is not None
        yield parse_gain_graph(text)


def test_commands_build_no_edge_or_gain_view(monkeypatch):
    from gainspec import bound_report, complete_graph, graphs, kronecker_spectrum_check
    from gainspec.cli import analysis_report

    def no_view(self):
        raise AssertionError("a command built the edges or forward view")

    phis = list(_bulk_parsed())
    monkeypatch.setattr(Graph, "edges", property(no_view))
    monkeypatch.setattr(GainGraph, "forward", property(no_view))
    for phi in phis:
        assert phi.graph.n >= graphs.ARRAY_MIN_ORDER
        bound_report(phi)
        analysis_report(phi)
        serialize_gain_graph(phi)
        kronecker_spectrum_check(phi, complete_graph(2))


def test_a_bulk_parsed_gain_graph_keeps_only_its_arrays():
    # 32 bytes per edge: two intp endpoints and one complex gain
    import gc
    import tracemalloc

    text = serialize_gain_graph(extremal_union([100, 100], switch_seed=3))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        phi = parse_gain_graph(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert phi.graph.m == 20000
    assert retained <= 64 * phi.graph.m
