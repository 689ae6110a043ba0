import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from btas import _compiled, graph_io
from btas.apsp import floyd_warshall
from btas.graph_io import (
    RANDOM_FAMILY,
    Graph,
    ParseError,
    SentinelConvention,
    edge_list_to_text,
    first_content_line,
    graph_to_matrix,
    matrix_to_graph,
    matrix_to_text,
    parse_edge_list,
    parse_matrix,
    random_graph,
)
from btas.matrix import TropicalMatrix
from btas.semiring import SemiringKind, TropicalWeight, exact_integers, parse_weight

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS
INF = math.inf


def test_parse_edge_list_example():
    g = parse_edge_list("3 2\n0 1 1\n1 2 2")
    assert g.n == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))


def test_duplicate_edges_keep_minimum():
    g = parse_edge_list("2 2\n0 1 5\n0 1 3")
    assert g.edges == ((0, 1, 3.0),)


def test_out_of_range_vertex_rejected_with_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("2 1\n0 5 1")
    assert err.value.line_no == 2


def test_edge_count_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n0 1 1")
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 1 1\n1 2 2")


def test_malformed_edge_lines_rejected():
    for text in ("", "3", "x 2\n0 1 1", "2 1\n0 1", "2 1\n0 1 two", "2 -1"):
        with pytest.raises(ParseError):
            parse_edge_list(text)


def test_infinite_edge_weight_rejected():
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n0 1 inf")


def test_comments_and_blank_lines_ignored():
    g = parse_edge_list("# a graph\n\n3 2\n0 1 1\n# middle\n1 2 2\n")
    assert g.edge_count == 2


def test_self_loop_handling():
    dropped = parse_edge_list("2 1\n0 0 3")
    assert dropped.edges == ()
    kept = parse_edge_list("2 1\n0 0 -3")
    assert kept.edges == ((0, 0, -3.0),)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(2, ((0, 5, 1.0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1, math.nan),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1, INF),))


def test_graph_normalizes_duplicates_and_order():
    g = Graph(3, ((2, 1, 4.0), (0, 1, 9.0), (0, 1, 2.0)))
    assert g.edges == ((0, 1, 2.0), (2, 1, 4.0))


def _assert_same_columns(got, want):
    assert got == want  # equal n and equal column bytes
    for name in ("src", "dst", "weight"):
        column = getattr(got, name)
        assert column.dtype == getattr(want, name).dtype and not column.flags.writeable


def test_graph_from_an_array_equals_graph_from_triples(monkeypatch):
    triples = ((2, 1, 4.0), (0, 1, 9.0), (0, 1, -0.0), (1, 0, 2.5))
    from_array = Graph(3, np.array(triples))
    assert from_array == Graph(3, triples)
    assert hash(from_array) == hash(Graph(3, triples))
    assert from_array.edges == ((0, 1, 0.0), (1, 0, 2.5), (2, 1, 4.0))
    assert not np.signbit(from_array.weight).any()
    assert [type(v) for v in from_array.edges[0]] == [int, int, float]

    # the readers, random_graph and matrix_to_graph build the Graph(n, table)
    # of their edges, less the non-negative self-loops, without the table
    table = [*triples, (2, 1, -0.0), (1, 0, 2.5), (2, 2, -1.5), (2, 2, -0.5), (1, 1, 0.0), (0, 0, 3.0), (0, 2, -7.0)]
    kept = Graph(3, [(s, t, w) for s, t, w in table if s != t or w < 0.0])
    text = f"3 {len(table)}\n" + "".join(f"{s} {t} {w!r}\n" for s, t, w in table)

    def unreachable(*args):
        raise AssertionError("the other path ran")

    with monkeypatch.context() as patch:
        patch.setattr(graph_io, "_read_edges", unreachable)
        _assert_same_columns(parse_edge_list(text), kept)
    with monkeypatch.context() as patch:
        patch.setattr(graph_io, "_fast_edges", lambda *args: None)
        _assert_same_columns(parse_edge_list(text), kept)

    grid = [[INF, -0.0, 1.5], [2.0, -4.0, INF], [-0.0, 8.0, 0.0]]
    edges = [(i, j, w) for i, row in enumerate(grid) for j, w in enumerate(row) if w != INF and (i != j or w < 0.0)]
    _assert_same_columns(matrix_to_graph(TropicalMatrix(MIN, grid)), Graph(3, edges))

    generated = random_graph(40, 0.3, (-5, 5), 11)
    _assert_same_columns(generated, Graph(40, np.array(generated.edges)))


@st.composite
def vertex_count_and_triples(draw):
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(allow_nan=False, allow_infinity=False))
    return n, draw(st.lists(st.tuples(vertex, vertex, weight), max_size=25))


@given(vertex_count_and_triples())
def test_graph_normalizes_like_the_per_edge_loop(case):
    n, triples = case
    best = {}
    for src, dst, weight in triples:
        weight = 0.0 if weight == 0.0 else weight
        if (src, dst) not in best or weight < best[(src, dst)]:
            best[(src, dst)] = weight
    # a self-loop stays only at a negative weight
    want = tuple((src, dst, best[(src, dst)]) for src, dst in sorted(best) if src != dst or best[(src, dst)] < 0.0)
    assert repr(Graph(n, triples).edges) == repr(want)  # repr tells -0.0 from 0.0


def test_graph_columns_are_typed_and_read_only():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 2.5)))
    assert (g.src.dtype, g.dst.dtype, g.weight.dtype) == (np.int64, np.int64, np.float64)
    for column in (g.src, g.dst, g.weight):
        with pytest.raises(ValueError):
            column[0] = 0
    for name in ("n", "src", "dst", "weight"):
        with pytest.raises(AttributeError):
            setattr(g, name, getattr(g, name))


def test_graph_rejects_edges_that_are_not_triples():
    for edges in ((0, 1, 2.0), np.zeros((3, 2)), ((0.5, 1, 1.0),)):
        with pytest.raises(ValueError):
            Graph(3, edges)


def test_edge_list_text_round_trip():
    g = Graph(4, ((0, 1, 1.0), (1, 2, 2.5), (3, 0, -2.0)))
    assert parse_edge_list(edge_list_to_text(g)) == g


def test_graph_to_matrix_example():
    m = graph_to_matrix(Graph(3, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0))))
    assert m.to_lists() == [[0, 1, 5], [INF, 0, 2], [INF, INF, 0]]
    assert m.kind is MIN
    assert m.integer


def test_graph_to_matrix_empty_and_negative_loop():
    assert graph_to_matrix(Graph(2, ())).to_lists() == [[0, INF], [INF, 0]]
    loop = graph_to_matrix(Graph(1, ((0, 0, -1.0),)))
    assert loop.to_lists() == [[-1]]


@pytest.mark.parametrize(
    "n, edges",
    [
        (3, ((0, 0, -2.0), (1, 1, -0.5), (0, 1, 3.0))),
        (3, ((2, 2, -7.0), (1, 2, 4.0))),
        (1, ()),
        (4, ()),
        (2, ((0, 1, 2.0**53 - 1), (1, 0, -(2.0**53 - 1)))),
        (2, ((0, 1, 2.0**53), (1, 0, 1.0))),
        (2, ((0, 1, 2.5), (1, 0, 1.0))),
        (2, ((0, 1, 1.0), (1, 1, 0.25))),  # a self-loop of weight ≥ 0 lands as 0
        (2, ((0, 0, 2.0**60), (0, 1, 3.0))),
        (2, ((0, 0, -0.25), (0, 1, 3.0))),
    ],
)
def test_graph_to_matrix_integer_mode_is_that_of_its_entries(n, edges):
    m = graph_to_matrix(Graph(n, edges))
    assert m.integer is exact_integers(m.data)


def test_matrix_graph_round_trip():
    g = Graph(4, ((0, 1, 1.0), (1, 2, 2.0), (3, 3, -5.0), (2, 0, 7.0)))
    assert matrix_to_graph(graph_to_matrix(g)) == g


def test_graph_drops_self_loops_of_weight_at_least_zero():
    """As every reader and matrix_to_graph do, so both round trips hold."""
    g = Graph(2, [(1, 1, 0.25), (0, 1, 1.0)])
    assert g == Graph(2, [(0, 1, 1.0)])
    assert Graph(2, [(0, 0, 0.0), (1, 1, -0.0), (1, 0, 2.0)]).edges == ((1, 0, 2.0),)
    assert Graph(2, [(0, 0, -0.5), (1, 1, 3.0)]).edges == ((0, 0, -0.5),)
    assert parse_edge_list(edge_list_to_text(g)) == g
    assert matrix_to_graph(graph_to_matrix(g)) == g
    assert graph_to_matrix(g).integer


def test_matrix_graph_round_trip_on_a_dense_random_graph():
    g = random_graph(64, 1.0, (-5, 5), 20240611)
    assert g.edge_count == 64 * 63
    assert matrix_to_graph(graph_to_matrix(g)) == g


def test_matrix_to_graph_drops_unreachable_and_zero_diagonal():
    m = TropicalMatrix(MIN, [[0, INF], [3, 0]])
    assert matrix_to_graph(m) == Graph(2, ((1, 0, 3.0),))


def test_matrix_to_graph_rejects_wrong_shape_or_kind():
    with pytest.raises(ValueError):
        matrix_to_graph(TropicalMatrix(MIN, [[0, 1, 2], [3, 0, 4]]))
    with pytest.raises(ValueError):
        matrix_to_graph(TropicalMatrix(MAX, [[0, 1], [1, 0]]))


def test_matrix_text_example():
    m = parse_matrix("2 2 minplus\n0 inf\n1 0")
    assert m.to_lists() == [[0, INF], [1, 0]]
    assert matrix_to_text(m) == "2 2 minplus\n0 inf\n1 0\n"


entries = st.one_of(st.integers(min_value=-1000, max_value=1000).map(float), st.just(INF))


@st.composite
def symbolic_grids(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@given(st.sampled_from([MIN, MAX]), symbolic_grids())
def test_integer_matrix_text_round_trip_is_exact(kind, grid):
    m = TropicalMatrix(kind, grid)
    assert m.integer
    back = parse_matrix(matrix_to_text(m))
    assert back.kind is kind
    assert back.tobytes() == m.tobytes()
    assert back.integer


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=8))
def test_float_matrix_text_round_trip_is_exact(values):
    m = TropicalMatrix(MIN, [values])
    back = parse_matrix(matrix_to_text(m))
    assert back.tobytes() == m.tobytes()


def test_parse_matrix_errors():
    for text in (
        "",
        "2 2\n0 1\n1 0",
        "2 2 boolean\n0 1\n1 0",
        "2 2 minplus\n0 1",
        "2 2 minplus\n0\n1 0",
        "2 2 minplus\n0 nan\n1 0",
        "2 2 minplus\n0 spam\n1 0",
        "0 1 minplus\n",
    ):
        with pytest.raises(ParseError):
            parse_matrix(text)


def test_zero_sentinel_example():
    m = parse_matrix("0 0\n4 0", SentinelConvention.ZERO_MEANS_NO_EDGE)
    assert m.to_lists() == [[0, INF], [4, 0]]


def test_minus_one_sentinel_example():
    m = parse_matrix("0 -1\n3 0", SentinelConvention.MINUS_ONE_MEANS_NO_EDGE)
    assert m.to_lists() == [[0, INF], [3, 0]]


def test_zero_sentinel_keeps_diagonal_and_finite_weights():
    text = "0 7 0\n2 0 5\n0 3 0"
    m = parse_matrix(text, SentinelConvention.ZERO_MEANS_NO_EDGE)
    assert m.to_lists() == [[0, 7, INF], [2, 0, 5], [INF, 3, 0]]


def test_minus_one_sentinel_applies_everywhere():
    text = "-1 -1\n5 -1"
    m = parse_matrix(text, SentinelConvention.MINUS_ONE_MEANS_NO_EDGE)
    assert m.to_lists() == [[INF, INF], [5, INF]]


def test_grid_parsing_errors():
    convention = SentinelConvention.ZERO_MEANS_NO_EDGE
    for text in ("0 0\n4", "0 0 0\n4 0 0", "0 x\n4 0", "0 inf\n4 0", "0 nan\n4 0"):
        with pytest.raises(ParseError):
            parse_matrix(text, convention)


def test_sentinel_convention_tokens():
    assert SentinelConvention.from_token("INF") is SentinelConvention.INF_TOKEN
    assert SentinelConvention.from_token("zero") is SentinelConvention.ZERO_MEANS_NO_EDGE
    assert SentinelConvention.from_token("minus-one") is SentinelConvention.MINUS_ONE_MEANS_NO_EDGE
    with pytest.raises(ValueError):
        SentinelConvention.from_token("guess")


def test_random_graph_edge_probability_extremes():
    assert random_graph(4, 0.0, (1, 100), 7).edge_count == 0
    full = random_graph(4, 1.0, (1, 1), 7)
    assert full.edge_count == 12
    assert all(w == 1.0 for _, _, w in full.edges)


def test_random_graph_is_deterministic_per_seed():
    a = random_graph(12, 0.4, (1, 100), 2024)
    b = random_graph(12, 0.4, (1, 100), 2024)
    assert a == b
    c = random_graph(12, 0.4, (1, 100), 2025)
    assert a != c


def test_random_graph_weight_ranges():
    integral = random_graph(10, 0.8, (1, 100), 5)
    assert integral.edge_count > 0
    assert all(w.is_integer() and 1 <= w <= 100 for _, _, w in integral.edges)
    real = random_graph(10, 0.8, (0.5, 2.5), 5)
    assert all(0.5 <= w < 2.5 for _, _, w in real.edges)


def test_random_graph_integral_bounds_stay_exact():
    top = float(2**53 - 1)
    assert all(abs(w) <= top for _, _, w in random_graph(6, 1.0, (-top, top), 3).edges)
    for bounds in ((1, 1e30), (-(2**53), 0), (0, 2**53)):
        with pytest.raises(ValueError, match="weight_range"):
            random_graph(4, 0.5, bounds, 1)
    assert random_graph(4, 1.0, (0.5, 1e30), 1).edge_count == 12  # real bounds draw floats


def test_random_graph_validation():
    with pytest.raises(ValueError):
        random_graph(0, 0.5, (1, 100), 1)
    with pytest.raises(ValueError):
        random_graph(4, -0.1, (1, 100), 1)
    with pytest.raises(ValueError):
        random_graph(4, 1.5, (1, 100), 1)
    with pytest.raises(ValueError):
        random_graph(4, 0.5, (100, 1), 1)
    with pytest.raises(ValueError):
        random_graph(4, 0.5, (0, INF), 1)


def test_random_family_token():
    assert RANDOM_FAMILY == "numpy-pcg64"


@pytest.mark.parametrize(
    "args, edge_count, digest",
    [
        ((12, 0.4, (1, 100), 2024), 66, "8a65cd7f4504d4b774bcf62bb81d549346c92d47e1ca7d4fa8ca172d5621dc83"),
        ((40, 0.5, (0.5, 2.5), 7), 786, "0f4eae5a6693fd3d9b9eff0ecda73e161b43af1c57f68b29ae0d3f1ad157d66c"),
        ((64, 0.1, (-5, 5), 123), 396, "4f80e40e277cba02bc48c7accdca39e86461be4ca810909055f9465f8f7da87b"),
        ((9, 1.0, (1, 1), 0), 72, "b3743e33870c41c61a9e250e97d0921b2fb4b8fb389f223a7da4253343d7d5f2"),
    ],
)
def test_random_graph_instances_are_pinned(args, edge_count, digest):
    # digests of repr(edges) from the pair-list generator; the RNG stream must not drift
    g = random_graph(*args)
    assert g.edge_count == edge_count
    assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == digest


# Token soup for the readers: valid spellings of weights next to refused ones.
FINITE = ["0", "1", "-1", "7", "2.5", "+5", "1_000", "-0.0", "-0", "3e-2"]
INFINITE = ["inf", "INF", "Infinity", "+inf", "1e309"]
REFUSED = ["nan", "NaN", "-inf", "-Infinity", "-1e309", "x", "1..2", "0x10", "--1", "inf5", "_1"]
GRID_FINITE = ["0", "-1", "1", "5", "2.5", "+5", "1_000", "-0.0", "-1.0", "-0", "0.0"]


@st.composite
def soup_token(draw, good, bad, junk_percent):
    return draw(st.sampled_from(bad if draw(st.integers(0, 99)) < junk_percent else good))


@st.composite
def soup_text(draw, header, rows):
    """Join header and rows (token lists) into text, with comments, blank
    lines, CRLF and the odd ragged row mixed in."""
    out = [] if header is None else [header]
    for row in rows:
        if draw(st.integers(0, 14)) == 0:
            row = row[:-1] if draw(st.booleans()) else [*row, "1"]
        out.append(" ".join(row))
    decorated = []
    for line in out:
        decorated.extend(draw(st.lists(st.sampled_from(["", "  ", "# note", "  # 1 2 3", "\t"]), max_size=1)))
        decorated.append(draw(st.sampled_from(["", " ", "\t"])) + line)
    return draw(st.sampled_from(["\n", "\r\n"])).join(decorated) + draw(st.sampled_from(["", "\n"]))


@st.composite
def edge_list_soup(draw):
    junk = draw(st.sampled_from([0, 0, 3, 20]))
    n = draw(st.integers(1, 5))
    vertex = soup_token([str(v) for v in range(n)] + ["+0", "0_0"], [str(n), "-1", "x", "1.0"], junk)
    weight = soup_token(FINITE, REFUSED + INFINITE, junk)
    rows = draw(st.lists(st.tuples(vertex, vertex, weight).map(list), max_size=8))
    n_token = draw(soup_token([str(n)], ["0", "-2", "x"], junk))
    m_token = draw(soup_token([str(len(rows))], [str(len(rows) + 1), "-1"], junk))
    return draw(soup_text(f"{n_token} {m_token}", rows))


@st.composite
def matrix_soup(draw):
    sentinel = draw(st.sampled_from(["inf", "zero", "minus-one"]))
    junk = draw(st.sampled_from([0, 0, 3, 20]))
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if sentinel == "inf":
        entry = soup_token(FINITE + INFINITE, REFUSED, junk)
        kind = draw(soup_token(["minplus", "maxplus", "MaxPlus"], ["boolean"], junk))
        header = f"{draw(soup_token([str(n_rows)], ['0', str(n_rows + 1)], junk))} {n_cols} {kind}"
    else:
        entry = soup_token(GRID_FINITE, INFINITE + REFUSED, junk)
        header, n_cols = None, n_rows
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    return sentinel, draw(soup_text(header, rows))


def _outcome(read, *args):
    """repr of what a reader returns, or the line its ParseError names."""
    try:
        return "ok", repr(read(*args))
    except (ParseError, oracles.OracleParseError) as exc:
        return "error", exc.line_no


def _read_matrix(text, sentinel):
    m = parse_matrix(text, SentinelConvention(sentinel))
    return m.kind.value, m.to_lists()


def _read_edge_list(text):
    g = parse_edge_list(text)
    return g.n, g.edges


@given(matrix_soup())
@example(("inf", "2 3 maxplus\nINF Infinity 1e309\n+5 1_000 -0.0\n"))
@example(("inf", "# c\n\n1 2 minplus\n1 -inf\n"))
@example(("zero", "0 -0.0\n3 0\n"))
@example(("minus-one", "-1.0 2\n\n# x\n3 inf\n"))
def test_readers_match_the_per_token_oracle_on_matrix_soup(case):
    sentinel, text = case
    assert _outcome(_read_matrix, text, sentinel) == _outcome(oracles.read_matrix, text, sentinel)


@given(edge_list_soup())
@example("2 2\n0 1 1_000\n1 0 -0.0\n")
@example("2 1\n# c\n0 1 Infinity\n")
@example("3 1\n1 2 nan\n")
def test_readers_match_the_per_token_oracle_on_edge_list_soup(text):
    assert _outcome(_read_edge_list, text) == _outcome(oracles.read_edge_list, text)


# Rows on which numpy's tokenizer, str.splitlines()/str.split() and
# float()/int() do not all agree; each replaces the middle one of three rows.
ODD_ROWS = [
    "1 2 -3 # x",
    "1 2\f-3",
    "1 2\v-3",
    "1 2\x1c-3",
    "1 2\u2028-3",
    "1 2 -3\r2 0 1",
    "1 2 nan",
    "1 2 1e309",
    "1 2 1_000",
    "1 2 +5",
    "1 2 \u0663",
    "9223372036854775808 2 -3",
    "1.0 2 -3",
    "1.5 2 -3",
    "1 2 0x1p3",
]
ROWS = ["0 1 5", "1 2 -3", "2 0 2.5"]


def _dense_grid_rows(n):
    grid = np.random.default_rng(n).integers(-9, 100, size=(n, n))
    return [" ".join(map(str, row)) for row in grid.tolist()]


# reader -> (text for rows, the reader's outcome, the oracle's outcome, rows of valid files, made when used)
FAST_READERS = {
    "edge_list": (
        lambda rows: "\n".join([f"192 {len(rows)}", *rows]) + "\n",
        lambda text: _outcome(_read_edge_list, text),
        lambda text: _outcome(oracles.read_edge_list, text),
        lambda: [["0 1 5"], edge_list_to_text(random_graph(192, 0.5, (1, 100), 7)).splitlines()[1:]],
    ),
    "matrix": (
        lambda rows: "\n".join([f"{len(rows)} {len(rows[0].split())} minplus", *rows]) + "\n",
        lambda text: _outcome(_read_matrix, text, "inf"),
        lambda text: _outcome(oracles.read_matrix, text, "inf"),
        lambda: [["5"], matrix_to_text(graph_to_matrix(random_graph(192, 0.5, (-5, 100), 7))).splitlines()[1:]],
    ),
    "zero-grid": (
        lambda rows: "\n".join(rows) + "\n",
        lambda text: _outcome(_read_matrix, text, "zero"),
        lambda text: _outcome(oracles.read_matrix, text, "zero"),
        lambda: [["5"], _dense_grid_rows(192)],
    ),
}


@pytest.mark.parametrize("reader", FAST_READERS)
def test_fast_readers_agree_with_the_per_token_oracle(reader, monkeypatch):
    text, read, oracle, valid_files = FAST_READERS[reader]
    for row in ODD_ROWS:
        odd = text([ROWS[0], row, ROWS[2]])
        assert read(odd) == oracle(odd), repr(row)

    def line_reader_must_not_run(text):
        raise AssertionError("a valid comment-free file left the fast path")

    monkeypatch.setattr(graph_io, "_content_lines", line_reader_must_not_run)
    for rows in valid_files():
        for valid in (text(rows), text(rows).replace("\n", "\r\n")):
            outcome = read(valid)
            assert outcome[0] == "ok" and outcome == oracle(valid)


@pytest.mark.parametrize("reader", FAST_READERS)
def test_a_non_ascii_comment_before_the_body_keeps_the_fast_path(reader, monkeypatch):
    """Only the body after the header is the fast path's to judge."""
    text, read, oracle, valid_files = FAST_READERS[reader]

    def line_reader_must_not_run(text):
        raise AssertionError("a valid body left the fast path")

    monkeypatch.setattr(graph_io, "_content_lines", line_reader_must_not_run)
    for rows in valid_files():
        valid = "# n\u00e4chste Zeile \u2192 \U0001f600\n" + text(rows)
        outcome = read(valid)
        assert outcome[0] == "ok" and outcome == oracle(valid)


def test_fast_path_refuses_what_numpy_reads_only_with_a_warning(monkeypatch):
    def truncating_loadtxt(*args, **kwargs):  # a loadtxt that reads `1.5` as vertex 1 and only warns
        warnings.warn("conversion of a float to an integer is deprecated", DeprecationWarning)
        return np.array([(1, 0, 3.0)], dtype=graph_io._EDGE_ROW)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    with pytest.raises(ParseError, match="^line 2: source vertex must be an integer, got '1.5'$"):
        parse_edge_list("2 1\n1.5 0 3\n")


def test_graph_to_matrix_peak_memory_is_its_matrix_and_one_temporary():
    """graph_to_matrix adopts the matrix it fills: its peak is that matrix plus
    the exact-integer test's temporary, with no copy of the matrix."""
    n = 256
    g = random_graph(n, 1.0, (1, 100), 7)
    tracemalloc.start()
    try:
        graph_to_matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n^2 float64"


def test_parse_edge_list_peak_memory_is_bounded():
    text = edge_list_to_text(random_graph(512, 0.5, (1, 100), 7))  # about 131k edges, 1.3 MiB
    tracemalloc.start()
    try:
        parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@given(st.lists(st.sampled_from(["0", " ", "\t", "#", "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d",
                                 "\x1e", "\x1f", "\x85", "\u2028", "\u2029", "\xa0"]), max_size=12).map("".join))
def test_first_content_line_numbers_lines_like_splitlines(text):
    first = first_content_line(text)
    lines = graph_io._content_lines(text)
    assert (None if first is None else first[:2]) == (lines[0] if lines else None)
    if first is not None:
        line_no, _, start, end = first
        assert text[start:].splitlines() == text.splitlines()[line_no - 1:]
        assert text[end:].splitlines() == text.splitlines()[line_no:]


ACCEPTED = ["inf", "INF", "Infinity", "1e309", "+5", "1_000", "-0.0"]


@pytest.mark.parametrize("token", REFUSED + ACCEPTED)
def test_every_reader_holds_the_one_weight_rule(token):
    """parse_weight, an edge list, a native matrix, a sentinel grid,
    TropicalWeight and TropicalMatrix agree on refusing the token or on the
    bits of its value; edge lists and grids also refuse Infinity."""

    def outcome(read):
        try:
            return np.float64(read()).tobytes()  # bits, so that -0.0 and 0.0 differ
        except ValueError:
            return "refused"

    want = outcome(lambda: parse_weight(token).value)
    finite_want = "refused" if want == np.float64(INF).tobytes() else want
    assert outcome(lambda: parse_matrix(f"1 1 minplus\n{token}\n").to_lists()[0][0]) == want
    assert outcome(lambda: parse_edge_list(f"2 1\n0 1 {token}\n").weight[0]) == finite_want
    grid = SentinelConvention.MINUS_ONE_MEANS_NO_EDGE
    assert outcome(lambda: parse_matrix(f"{token}\n", grid).to_lists()[0][0]) == finite_want
    try:
        value = float(token)
    except ValueError:
        return  # nothing to hand to the constructors
    assert outcome(lambda: TropicalWeight(value).value) == want
    assert outcome(lambda: TropicalMatrix(MIN, [[value]]).to_lists()[0][0]) == want


# ------------------------------------------------- the compiled reader's tokens


def _reader_library():
    library = graph_io._compiled_reader()
    if library is None:
        pytest.skip("no C compiler builds the compiled library here")
    return library


def _compiled_reals(row: bytes, cols: int) -> "np.ndarray | None":
    """btas_read_grid on one row of cols reals: its float64 entries, or None where it refuses the row."""
    out = np.empty(cols)
    read = _reader_library().btas_read_grid(row, 0, len(row), 1, cols, out.ctypes.data)
    return out if read == 1 else None


def _compiled_ends(row: bytes) -> "tuple[int, int] | None":
    """btas_read_edges on one `src dst weight` row: (src, dst), or None where it refuses the row."""
    src, dst, weight = np.empty(1, np.int64), np.empty(1, np.int64), np.empty(1)
    read = _reader_library().btas_read_edges(row, 0, len(row), 1, src.ctypes.data, dst.ctypes.data,
                                            weight.ctypes.data)
    return (int(src[0]), int(dst[0])) if read == 1 else None


@st.composite
def decimal_tokens(draw):
    """[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? with leading zeros, 1-25 digits, any point position, exponents -340..320."""
    digits = "0" * draw(st.integers(0, 3)) + draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.none() | st.integers(0, len(digits)))
    mantissa = digits if point is None else f"{digits[:point]}.{digits[point:]}"
    exponent = draw(st.none() | st.integers(-340, 320))
    if exponent is not None:
        sign = draw(st.sampled_from(["", "+"])) if exponent >= 0 else "-"
        mantissa += draw(st.sampled_from("eE")) + sign + "0" * draw(st.integers(0, 2)) + str(abs(exponent))
    return draw(st.sampled_from(["", "+", "-"])) + mantissa


REAL_EXAMPLES = ["4.9e-324", "2.2250738585072014e-308", "1e-400", "1e309", "0.1", "-0", "9007199254740993",
                 "0.30000000000000004", "1.7976931348623157e308", "-.5", "5.", "+inf", "-inf", "inf"]


@given(st.lists(decimal_tokens(), min_size=1, max_size=16))
@example(REAL_EXAMPLES)
def test_compiled_reals_have_the_bits_of_float(tokens):
    got = _compiled_reals(" ".join(tokens).encode(), len(tokens))
    assert got is not None
    assert got.tobytes() == np.array([float(token) for token in tokens]).tobytes()


@pytest.mark.parametrize("token", ["0", "-0", "1", "-1", "+5", "007", "-007", str(2**53 + 1), str(2**63 - 1),
                                   f"+{2**63 - 1}", f"00{2**63 - 1}", str(-(2**63 - 1))])
def test_compiled_integers_are_int(token):
    assert _compiled_ends(f"{token} {token} 1\n".encode()) == (int(token), int(token))


@pytest.mark.parametrize("token", [str(2**63), str(-(2**63)), "9" * 25, "1.0", "1e3", "", "-", "+-1", "inf"])
def test_compiled_integers_refuse_what_is_not_an_int64(token):
    assert _compiled_ends(f"0 {token} 1".encode()) is None


#: Every byte of the reader's grammar: digits, signs, point, exponent and `inf`, blanks and line ends.
GRAMMAR = set(b"0123456789+-.eEinf \t\r\n")
#: Tokens of grammar bytes that are still not a real.
NOT_REALS = ["nan", "Infinity", "infinity", "in", "inf5", "5inf", "1e", "e5", ".", "+", "-", "1..2", "--1",
             "1.2.3", "1e5.5", "1e+", "1ee5", "+-1", ".e5", "1-2", "ninf", "-nf", "i"]


@pytest.mark.parametrize("reader", FAST_READERS)
def test_compiled_reader_refuses_every_byte_outside_its_grammar(reader, monkeypatch):
    """Each such byte, alone or inside a token, makes the compiled reader
    refuse the row; the file then reaches the line reader, whose outcome is
    the oracle's."""
    _reader_library()
    text, read, oracle, _ = FAST_READERS[reader]
    line_reads, line_reader = [], graph_io._content_lines
    monkeypatch.setattr(graph_io, "_content_lines", lambda text: line_reads.append(text) or line_reader(text))
    others = [bytes([b]) for b in range(256) if b not in GRAMMAR]
    # alone, ending a token, starting the last one and starting the middle one
    rows = [row % odd for odd in others for row in (b"1 2 %b", b"1 2 5%b", b"1 2 %b5", b"1 %b2 5")]
    for row in rows + [b"1 2 " + token.encode() for token in NOT_REALS]:
        assert _compiled_reals(row, 3) is None and _compiled_ends(row) is None, row
        if row.isascii():
            file = text([ROWS[0], row.decode("ascii"), ROWS[2]])
            del line_reads[:]
            assert read(file) == oracle(file), row
            assert line_reads, row


# ------------------------------------------------- writers against the per-entry oracle

EXPONENT_SWITCHES = (1e16, 1e-4)  # repr writes an exponent from 1e16 up and below 1e-4


def _near(x):
    return st.floats(min_value=x / 2, max_value=x * 2).flatmap(lambda v: st.sampled_from([v, -v]))


written_floats = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    *(_near(x) for x in EXPONENT_SWITCHES),
    st.sampled_from([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, -1e16, -1e-4, 0.5]),
)
LARGEST_EXACT = 2**53 - 1
written_integers = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=LARGEST_EXACT - 64, max_value=LARGEST_EXACT).flatmap(lambda v: st.sampled_from([v, -v])),
).map(float)


@st.composite
def written_matrices(draw):
    """(matrix, rows per block): a row, a column or a grid, in either
    semiring, of integers up to 2^53 - 1 or of floats, drawn from a small pool
    (few distinct values) or freely (nearly all distinct)."""
    shape = draw(st.sampled_from(["row", "column", "grid"]))
    if shape == "grid":
        n_rows, n_cols = draw(st.integers(min_value=1, max_value=12)), draw(st.integers(min_value=1, max_value=12))
    else:
        length = draw(st.integers(min_value=1, max_value=40))
        n_rows, n_cols = (1, length) if shape == "row" else (length, 1)
    values = st.one_of(draw(st.sampled_from([written_integers, written_floats])), st.just(INF))
    if draw(st.booleans()):
        values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=4)))
    grid = draw(st.lists(st.lists(values, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    m = TropicalMatrix(draw(st.sampled_from([MIN, MAX])), grid)
    return m, draw(st.integers(min_value=1, max_value=n_rows))


@given(written_matrices())
@example((TropicalMatrix(MAX, [[INF, 1e16, -1e-4, INF]]), 1))
@example((TropicalMatrix(MIN, [[float(LARGEST_EXACT)], [-float(LARGEST_EXACT)], [INF]]), 2))
def test_matrix_to_text_matches_the_per_entry_writer(case):
    m, rows_per_block = case
    want = oracles.matrix_to_text_reference(m.kind.value, m.data.tolist(), m.integer)
    assert matrix_to_text(m) == want
    with pytest.MonkeyPatch.context() as patch:  # several row blocks
        patch.setattr(graph_io, "_TASK_BYTES", 8 * m.n_cols * rows_per_block)
        assert matrix_to_text(m) == want


@pytest.mark.parametrize("distinct", [4, 5])
@pytest.mark.parametrize("kind", [MIN, MAX])
def test_matrix_to_text_on_either_side_of_the_distinct_count_threshold(kind, distinct):
    """A block of 8 entries is written from a table of its values when at
    most 4 of them are distinct, and row by row when 5 are."""
    values = [0.1, 2.5, INF, 1e16, 1e-5][:distinct]
    grid = [values[:4], (values[4:] + values)[:4], [0.1] * 4]
    m = TropicalMatrix(kind, grid)
    want = oracles.matrix_to_text_reference(kind.value, m.data.tolist(), m.integer)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_io, "_TASK_BYTES", 8 * 4 * 2)  # rows 0-1, then row 2
        assert matrix_to_text(m) == want


@st.composite
def written_graphs(draw):
    """A graph of up to 30 edges whose weights are integers up to 2^53 - 1
    or floats, drawn from a small pool or freely."""
    n = draw(st.integers(min_value=1, max_value=6))
    weights = draw(st.sampled_from([written_integers, written_floats]))
    if draw(st.booleans()):
        weights = st.sampled_from(draw(st.lists(weights, min_size=1, max_size=3)))
    vertices = st.integers(min_value=0, max_value=n - 1)
    return Graph(n, draw(st.lists(st.tuples(vertices, vertices, weights), max_size=30)))


@given(written_graphs())
def test_edge_list_to_text_matches_the_per_entry_writer(g):
    assert edge_list_to_text(g) == oracles.edge_list_to_text_reference(g.n, g.edges)


def _written_by_numpy(m, g):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_io, "_compiled_writer", lambda: None)
        return matrix_to_text(m), edge_list_to_text(g)


@pytest.mark.parametrize("failure", ["missing", "failing", "unwritable"])
def test_writer_build_falls_back_to_numpy_and_leaves_no_file(monkeypatch, tmp_path, empty_cache, failing_cc, failure):
    """No cc, a cc that fails, or a cache that cannot be made: the writers
    give the numpy writer's bytes, and no file is left behind."""
    g = random_graph(40, 0.3, (1, 9), 2)
    dist = TropicalMatrix(MIN, np.where(np.eye(40) > 0, INF, np.random.default_rng(2).integers(0, 9, (40, 40)) / 4))
    want = _written_by_numpy(dist, g)
    if failure == "unwritable":
        (tmp_path / "a-file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "a-file"))  # no directory can be made under a file
    else:
        monkeypatch.setattr(_compiled, "_CC", str(tmp_path / "no-such-cc" if failure == "missing" else failing_cc))
    assert graph_io._compiled_writer() is None
    assert (matrix_to_text(dist), edge_list_to_text(g)) == want
    left = sorted(path.name for path in tmp_path.rglob("*") if not path.is_dir())
    assert left == (["a-file"] if failure == "unwritable" else []) + ["failing-cc"]


def test_compiled_writer_copies_a_strided_block_before_reading_it():
    """Every other column of a grid twice as wide flattens to a strided view,
    not a copy: the compiled pass must get the block's values in order."""
    library = graph_io._compiled_writer()
    if library is None:
        pytest.skip("no C compiler builds the compiled library here")
    grid = np.where(np.eye(6, 8) > 0, INF, np.random.default_rng(5).integers(-1, 3, (6, 8)) / 4)
    strided = grid[:, ::2]
    assert strided.reshape(-1).base is not None  # the flat view that must not reach C
    distinct, inverse = graph_io._distinct(strided, library)
    assert (distinct[inverse] == strided).all()
    m = TropicalMatrix._wrap(MIN, strided, False)
    assert matrix_to_text(m) == oracles.matrix_to_text_reference(MIN.value, strided.tolist(), False)
    assert matrix_to_text(m) == _written_by_numpy(m, Graph(1, ()))[0]


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_to_text_peak_memory_on_few_distinct_values():
    """Distances of a sparse n=512 graph with out-degree 8 and quarter-integer
    weights shifted by vertex potentials, some negative: about 1,300
    distinct values in float mode.  Row blocks keep the writer's peak under
    4 n x n float64 matrices."""
    n, degree = 512, 8
    rng = np.random.default_rng(3)
    src = np.repeat(np.arange(n), degree)
    dst = (src + rng.integers(1, n, size=src.size)) % n
    potential = rng.integers(-200, 200, size=n) / 4.0
    weight = rng.integers(1, 400, size=src.size) / 4.0 + potential[src] - potential[dst]
    dist = floyd_warshall(graph_to_matrix(Graph(n, np.column_stack((src, dst, weight))))).distances.dist
    assert not dist.integer and np.unique(dist.data).size < n * n // 100
    peak = _traced_peak(matrix_to_text, dist)
    assert peak < 4 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n^2 float64"


def test_matrix_to_text_peak_memory_on_distinct_values_stays_near_the_per_entry_writer():
    dist = floyd_warshall(graph_to_matrix(random_graph(512, 0.05, (0.1, 10.7), 3))).distances.dist
    rows = dist.data.tolist()
    assert np.unique(dist.data).size > dist.data.size // 2
    reference = _traced_peak(oracles.matrix_to_text_reference, dist.kind.value, rows, dist.integer)
    peak = _traced_peak(matrix_to_text, dist)
    assert peak < 1.25 * reference, f"peak {peak / reference:.2f} times the per-entry writer's"
