"""Text ingestion and emission for graphs and tropical matrices.

Two line-oriented UTF-8 formats, both allowing `#` comment lines:

* edge list: header `n m`, then m lines `src dst weight`;
* matrix: header `n_rows n_cols kind`, then one whitespace-separated row
  per line with `inf` for Infinity.

Weights are read, checked and written by the weight rule in semiring:
float() reads a token, so `inf`, `INF`, `Infinity` and `1e309` all mean
Infinity; NaN and -inf are refused; integral weights below 2^53 are
written without a decimal point.

Legacy adjacency grids that mark "no edge" in-band (0 or -1) are read as
bare n x n numeric grids under an explicit SentinelConvention; they refuse
Infinity, and their sentinels are normalized to it, never guessed.

The readers first try a fast path on the text after the header and check
its result with array operations: read_table.c in the package's compiled
library (btas._compiled), which reads a strict grammar straight into
preallocated columns, or numpy's C tokenizer where that library is not
built.  When the fast path refuses the text, a per-line reader reads it
again, and only that reader refuses input and names the bad line, so
neither results nor messages depend on the path.

The writers format each distinct value of a row block once when at most
half the block's entries are distinct.  In the package's compiled library
(btas._compiled) write_table.c finds those values and writes the rows;
where that library is not built np.unique finds them and Python joins the
rows, on the same bytes.
"""

from __future__ import annotations

import ctypes
import io
import math
import os
import re
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _compiled
from .matrix import _TASK_BYTES, TropicalMatrix
from .semiring import INT_EXACT_LIMIT, SemiringKind, exact_integers, format_weights, read_weight, weights_ok

#: Generator family used by random_graph, recorded in benchmark metadata.
RANDOM_FAMILY = "numpy-pcg64"

#: Largest vertex count whose pair keys src * n + dst fit in int64.
_MAX_VERTICES = math.isqrt(np.iinfo(np.int64).max)


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message: str, line_no: "int | None" = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


class SentinelConvention(Enum):
    """How input text spells "no edge"."""

    INF_TOKEN = "inf"
    ZERO_MEANS_NO_EDGE = "zero"
    MINUS_ONE_MEANS_NO_EDGE = "minus-one"

    @classmethod
    def from_token(cls, token: str) -> "SentinelConvention":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown sentinel convention {token!r} (expected 'inf', 'zero', or 'minus-one')"
            ) from None


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Graph:
    """Directed graph on n vertices, held as three read-only columns: `src`,
    `dst` (int64) and finite `weight` (float64), sorted by (src, dst) with
    each pair once at its minimum weight, -0.0 read as 0.0 and no self-loop
    of weight ≥ 0 (it never shortens a path), so equal graphs compare equal.

    Graph(n, edges) takes (src, dst, weight) triples or an (m, 3) array and
    is where an edge table is checked: integer vertices in 0..n-1 and finite
    weights.  The readers, random_graph and matrix_to_graph hand columns
    they have already checked to _edge_graph, which only normalizes them."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __init__(self, n: int, edges: object) -> None:
        if not isinstance(n, int) or not 1 <= n <= _MAX_VERTICES:
            raise ValueError(f"vertex count must be an integer in 1..{_MAX_VERTICES}, got {n!r}")
        table = np.asarray(edges, dtype=np.float64).reshape(len(edges), 3)
        columns = table.T.copy()  # contiguous src, dst and weight rows: much faster to check than table
        ends, weight = columns[:2], columns[2]
        ok = ((ends >= 0) & (ends < n) & (ends == np.trunc(ends))).all(axis=0) & np.isfinite(weight)
        if not ok.all():
            raise ValueError(f"edge {table[ok.argmin()].tolist()} needs vertices in 0..{n - 1} and a finite weight")
        src, dst = ends.astype(np.int64)
        self._normalize(n, src, dst, weight)

    def _normalize(self, n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> None:
        """Set the fields from edge columns: self-loops of weight ≥ 0 dropped,
        sorted by (src, dst), each pair once at its minimum weight, -0.0 read
        as 0.0.  The inputs are not written."""
        keep = (src != dst) | (weight < 0.0)
        if not keep.all():  # copying only then keeps 24 B per edge off the reader's peak
            src, dst, weight = src[keep], dst[keep], weight[keep]
        key = src * n  # orders pairs by (src, dst); n <= _MAX_VERTICES keeps it in int64
        key += dst
        order = np.argsort(key)
        key, weight = key[order], weight[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))  # where each pair's run starts
        src, dst = np.divmod(key[first], n)
        weight = np.minimum.reduceat(weight, first)
        weight += 0.0  # turns -0.0 into 0.0
        object.__setattr__(self, "n", n)
        for name, column in (("src", src), ("dst", dst), ("weight", weight)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def edges(self) -> "tuple[tuple[int, int, float], ...]":
        """The edges as (src, dst, weight) tuples, in (src, dst) order."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    @property
    def edge_count(self) -> int:
        return self.src.size

    def _key(self) -> "tuple[int, bytes, bytes, bytes]":
        return self.n, self.src.tobytes(), self.dst.tobytes(), self.weight.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _is_content(line: str) -> bool:
    return line.lstrip()[:1] not in ("", "#")


def _content_lines(text: str) -> "list[tuple[int, str]]":
    """(line_no, line) for every line that is neither blank nor a `#` comment."""
    return [(line_no, line) for line_no, line in enumerate(text.splitlines(), start=1) if _is_content(line)]


_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines() ends a line
_LINE = re.compile(f"([^{_LINE_BREAKS}]*)(?:\r\n|[{_LINE_BREAKS}]|\\Z)")


def first_content_line(text: str) -> "tuple[int, str, int, int] | None":
    """The first line of text that is neither blank nor a `#` comment, found
    without splitting the rest: (line_no, line, start, end), numbered as
    str.splitlines() numbers it, where the line begins at text[start] and
    the text after its line break at text[end]; None when there is no such line."""
    pos, line_no = 0, 1
    while pos < len(text):
        match = _LINE.match(text, pos)
        if _is_content(match[1]):
            return line_no, match[1], pos, match.end()
        pos, line_no = match.end(), line_no + 1
    return None


# On ASCII text numpy's tokenizer and str.splitlines()/str.split() part ways
# only at these: numpy strips a `#` comment mid-line, and it reads \v, \f and
# \x1c-\x1f as blanks inside a line (as split() does) where splitlines() ends
# the line at all but \x1f.
_NOT_SPLIT_ALIKE = ("#", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f")
_EDGE_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])


def _compiled_reader() -> "ctypes.CDLL | None":
    """The compiled library, for read_table.c's functions, or None where it is not built."""
    return _compiled.library()


def _loadtxt(body: str, dtype: object, ndmin: int) -> "np.ndarray | None":
    """The rows of body as numpy's C tokenizer reads them, or None where it
    refuses them or might see other lines or tokens than the line readers.
    Any warning refuses too: a value numpy reads only with a warning (such
    as a deprecated conversion) is not one known to read as the line readers read it."""
    if not body or body.isspace() or not body.isascii() or any(c in body for c in _NOT_SPLIT_ALIKE):
        return None  # (numpy warns on a body without rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(io.StringIO(body), dtype=dtype, ndmin=ndmin)
        except (ValueError, Warning):
            return None


def _ascii_bytes(text: str) -> bytes:
    """text as bytes that index as text does: each non-ASCII character
    becomes one `?`, a byte read_table.c refuses, so a non-ASCII header or
    comment before the body refuses nothing."""
    return text.encode("ascii", "replace")


def _fast_edges(text: str, start: int, m: int) -> "tuple[np.ndarray, ...] | None":
    """The src, dst and weight columns of text[start:] when the fast path
    reads exactly m rows from it, else None.  Callers check the values and
    fall back to the line reader on None, so that reader alone judges (and
    names the line of) anything refused."""
    library = _compiled_reader()
    if library is None:
        rows = _loadtxt(text[start:], _EDGE_ROW, ndmin=1)
        return None if rows is None or rows.size != m else (rows["src"], rows["dst"], rows["weight"])
    data = _ascii_bytes(text)
    if m > (len(data) - start + 1) // 6:  # a row takes at least `0 0 0` and a line end
        return None
    columns = np.empty(m, np.int64), np.empty(m, np.int64), np.empty(m)
    count = library.btas_read_edges(data, start, len(data), m, *(column.ctypes.data for column in columns))
    return columns if count == m else None


def _fast_grid(text: str, start: int, n_rows: int, n_cols: int, finite: bool) -> "np.ndarray | None":
    """The n_rows x n_cols float64 grid in text[start:] when the fast path
    reads one and it has no NaN or -inf (no +inf either when finite), else
    None, as _fast_edges."""
    library = _compiled_reader()
    if library is None:
        grid = _loadtxt(text[start:], np.float64, ndmin=2)
        if grid is None or grid.shape != (n_rows, n_cols):
            return None
    else:
        data = _ascii_bytes(text)
        if n_rows * n_cols > (len(data) - start + 1) // 2:  # an entry takes a digit and a blank
            return None
        grid = np.empty((n_rows, n_cols))
        if library.btas_read_grid(data, start, len(data), n_rows, n_cols, grid.ctypes.data) != n_rows:
            return None
    return grid if weights_ok(grid, finite) else None


def _parse_int(token: str, what: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line_no) from None


def _on_line(line_no: int, call, *args):
    """call(*args), with a ValueError it raises turned into a ParseError naming line_no."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def _read_rows(rows: "list[tuple[int, str]]", n_cols: int, finite: bool) -> np.ndarray:
    """Fill a float64 grid line by line under the weight rule; finite=True
    also refuses +inf.  The first line of wrong length or with a bad token raises."""
    grid = np.empty((len(rows), n_cols))
    for out, (line_no, line) in zip(grid, rows):
        tokens = line.split()
        if len(tokens) != n_cols:
            raise ParseError(f"expected {n_cols} entries, got {len(tokens)}", line_no)
        try:
            out[:] = list(map(float, tokens))
            if weights_ok(out, finite):
                continue
        except ValueError:
            pass
        for token in tokens:  # the line is bad: name its first bad token
            if _on_line(line_no, read_weight, token) == math.inf and finite:
                raise ParseError(f"grid entries must be finite numbers, got {token!r}", line_no)
    return grid


def require_dense_fits(n: int) -> None:
    """Refuse (ValueError) an n whose dense solve working set exceeds physical memory."""
    dense_bytes = 4 * 8 * n * n  # float64 A, I ⊕ A and two powers
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # platform without these sysconf names
        return
    if dense_bytes > memory:
        raise ValueError(
            f"{n} vertices need {dense_bytes / 2**30:.1f} GiB as dense {n}x{n} float64 matrices,"
            f" more than the {memory / 2**30:.1f} GiB of physical memory"
        )


def parse_edge_list(text: str) -> Graph:
    """Read `n m` followed by m `src dst weight` lines.

    A header whose n fails require_dense_fits is refused.

    Self-loops with non-negative weight are dropped (self-distance is 0 by
    definition); negative self-loops are kept, they are negative cycles.
    """
    first = first_content_line(text)
    if first is None:
        raise ParseError("empty input, expected an `n m` header")
    header_no, header_line, _, body_start = first
    header = header_line.split()
    if len(header) != 2:
        raise ParseError(f"expected header `n m`, got {' '.join(header)!r}", header_no)
    n = _parse_int(header[0], "vertex count", header_no)
    m = _parse_int(header[1], "edge count", header_no)
    if n < 1:
        raise ParseError(f"vertex count must be positive, got {n}", header_no)
    if m < 0:
        raise ParseError(f"edge count cannot be negative, got {m}", header_no)
    _on_line(header_no, require_dense_fits, n)
    columns = _fast_edges(text, body_start, m)
    if columns is not None:
        src, dst, weight = columns
        if ((src >= 0) & (src < n) & (dst >= 0) & (dst < n)).all() and weights_ok(weight, finite=True):
            return _edge_graph(n, src, dst, weight)
    return _edge_graph(n, *_read_edges(_content_lines(text)[1:], n, m, header_no))


def _read_edges(body: "list[tuple[int, str]]", n: int, m: int, header_no: int) -> "tuple[np.ndarray, ...]":
    """The line reader for edge lines: src, dst and weight columns; the first bad line raises."""
    if len(body) != m:
        raise ParseError(f"header promises {m} edges but file has {len(body)} edge lines", header_no)
    srcs, dsts, weights = [], [], []
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"expected `src dst weight`, got {' '.join(tokens)!r}", line_no)
        src = _parse_int(tokens[0], "source vertex", line_no)
        dst = _parse_int(tokens[1], "destination vertex", line_no)
        if not (0 <= src < n) or not (0 <= dst < n):
            raise ParseError(f"vertex index out of range 0..{n - 1} in edge ({src}, {dst})", line_no)
        weight = _on_line(line_no, read_weight, tokens[2])
        if weight == math.inf:
            raise ParseError("edge weights must be finite; omit the edge instead of `inf`", line_no)
        srcs.append(src)
        dsts.append(dst)
        weights.append(weight)
    return np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64), np.array(weights)


def _edge_graph(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> Graph:
    """The Graph of these edge columns.  They must hold vertices in 0..n-1
    and finite weights: they are normalized, not checked."""
    g = object.__new__(Graph)
    g._normalize(n, src, dst, weight)
    return g


def _compiled_writer() -> "ctypes.CDLL | None":
    """The compiled library, for write_table.c's functions, or None where it is not built."""
    return _compiled.library()


def _distinct(block: np.ndarray, library: "ctypes.CDLL | None") -> "tuple[np.ndarray, np.ndarray] | None":
    """(the distinct values, an inverse of block's shape indexing them) when at
    most half of block's entries are distinct, else None.  The library's pass
    takes the values in order of first appearance, np.unique's in sorted order."""
    if library is None:
        if 2 * np.unique(block).size > block.size:  # counted by hash table, at a fraction of the inverse's cost
            return None
        distinct, inverse = np.unique(block, return_inverse=True)
        return distinct, inverse.reshape(block.shape)
    flat = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)  # the pass reads plain float64 bits
    inverse = np.empty(flat.size, np.int32)
    first = np.empty(flat.size // 2 + 1, np.int64)
    count = library.btas_distinct(flat.ctypes.data, flat.size, inverse.ctypes.data, first.ctypes.data)
    return None if count < 0 else (flat[first[:count]], inverse.reshape(block.shape))


def _token_rows(block: np.ndarray, integer: bool, table: "tuple[np.ndarray, np.ndarray] | None"
                ) -> "Iterable[list[str]]":
    """format_weights on each row of a 2-D block, as one token list per row:
    gathered from table, block's _distinct, or row by row when it is None."""
    if table is None:
        return (format_weights(row.tolist(), integer) for row in block)
    distinct, inverse = table
    return np.array(format_weights(distinct.tolist(), integer), dtype=object)[inverse].tolist()


#: write_table.c copies tokens in words of this many bytes, reading and
#: writing up to this many bytes past a token.
_WORD = 8


def _block_text(block: np.ndarray, integer: bool) -> str:
    """A 2-D block's rows under format_weights, entries joined by ' ' and each
    row ended by '\n'.  Where at most half the entries are distinct, each
    distinct value is formatted once; with the library, write_table.c then
    copies their tokens into the text."""
    library = _compiled_writer()
    table = _distinct(block, library)
    if library is None or table is None:
        return "\n".join([*map(" ".join, _token_rows(block, integer, table)), ""])
    distinct, inverse = table
    tokens = format_weights(distinct.tolist(), integer)
    offsets = np.zeros(len(tokens) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, tokens), np.int64, len(tokens)), out=offsets[1:])
    text = "".join(tokens).encode("ascii") + bytes(_WORD)  # the C loop copies whole words
    args = inverse.ctypes.data, inverse.shape[0], inverse.shape[1], text, offsets.ctypes.data
    size = library.btas_write_rows(*args, None)
    out = np.empty(size + _WORD, np.uint8)
    library.btas_write_rows(*args, out.ctypes.data)
    return str(out.data[:size], "ascii")


def edge_list_to_text(g: Graph) -> str:
    """Inverse of parse_edge_list on normalized graphs.  The weight column is
    one block of _block_text's rule, each distinct weight formatted once
    when at most half of them are distinct."""
    weights = g.weight[None, :]
    (tokens,) = _token_rows(weights, exact_integers(g.weight), _distinct(weights, _compiled_writer()))
    rows = map("{} {} {}".format, g.src.tolist(), g.dst.tolist(), tokens)
    return "\n".join([f"{g.n} {g.edge_count}", *rows]) + "\n"


def graph_to_matrix(g: Graph) -> TropicalMatrix:
    """Min-plus adjacency matrix: diagonal 0, absent edges Infinity."""
    arr = np.full((g.n, g.n), math.inf)
    arr[g.src, g.dst] = g.weight  # Graph holds each (src, dst) pair once
    np.fill_diagonal(arr, np.minimum(np.diagonal(arr), 0.0))  # Graph keeps only negative self-loops
    # Graph weights are finite with no -0.0, so arr already meets the weight rule: adopt it without a copy.
    # Its other finite entries are zeros, so it is integral exactly when the weights are.
    return TropicalMatrix._wrap(SemiringKind.MIN_PLUS, arr, exact_integers(g.weight))


def matrix_to_graph(m: TropicalMatrix) -> Graph:
    """Inverse of graph_to_matrix: finite off-diagonal entries become edges.

    Diagonal entries are self-distances, not edges; only negative ones
    (negative self-cycles) survive the round trip.
    """
    if m.kind is not SemiringKind.MIN_PLUS:
        raise ValueError("only min-plus matrices describe graphs")
    if m.n_rows != m.n_cols:
        raise ValueError(f"adjacency matrix must be square, got {m.shape}")
    src, dst = np.nonzero(np.isfinite(m.data))
    return _edge_graph(m.n_rows, src, dst, m.data[src, dst])


def matrix_to_text(m: TropicalMatrix) -> str:
    """Native matrix format; integer mode prints weights without a point.

    The rows are written in blocks of about _TASK_BYTES of float64
    (_block_text).  In a block where at most half the entries are distinct,
    a distance matrix's usual case, each distinct value is formatted once
    and, in the compiled library, write_table.c finds them and writes the
    rows; a block of mostly distinct values is formatted row by row.  The
    bytes are those of formatting every entry on its own: entries hold no
    NaN and no -0.0, so entries merged into one distinct value have the
    same bits and print alike.
    """
    blocks = [f"{m.n_rows} {m.n_cols} {m.kind.value}\n"]
    step = max(1, _TASK_BYTES // (8 * m.n_cols))
    for r0 in range(0, m.n_rows, step):
        blocks.append(_block_text(m.data[r0 : r0 + step], m.integer))
    return "".join(blocks)


def _parse_native_matrix(text: str, header_no: int, header_line: str, body_start: int) -> TropicalMatrix:
    header = header_line.split()
    if len(header) != 3:
        raise ParseError(f"expected header `n_rows n_cols kind`, got {' '.join(header)!r}", header_no)
    n_rows = _parse_int(header[0], "row count", header_no)
    n_cols = _parse_int(header[1], "column count", header_no)
    if n_rows < 1 or n_cols < 1:
        raise ParseError(f"matrix dimensions must be positive, got {n_rows}x{n_cols}", header_no)
    kind = _on_line(header_no, SemiringKind.from_token, header[2])
    _on_line(header_no, require_dense_fits, max(n_rows, n_cols))
    grid = _fast_grid(text, body_start, n_rows, n_cols, finite=False)
    if grid is None:
        body = _content_lines(text)[1:]
        if len(body) != n_rows:
            raise ParseError(f"header promises {n_rows} rows but file has {len(body)}", header_no)
        grid = _read_rows(body, n_cols, finite=False)
    return TropicalMatrix(kind, grid)


def _parse_grid_matrix(
    text: str, first_no: int, first_line: str, first_start: int, sentinel: SentinelConvention
) -> TropicalMatrix:
    n = len(first_line.split())
    _on_line(first_no, require_dense_fits, n)
    grid = _fast_grid(text, first_start, n, n, finite=True)
    if grid is None:
        lines = _content_lines(text)
        if len(lines) != n:
            raise ParseError(f"grid is {len(lines)} rows of {n} entries, expected a square matrix", first_no)
        grid = _read_rows(lines, n, finite=True)
    if sentinel is SentinelConvention.ZERO_MEANS_NO_EDGE:
        # diagonal zeros are genuine self-distances, not sentinels
        grid[(grid == 0.0) & ~np.eye(n, dtype=bool)] = math.inf
    else:
        grid[grid == -1.0] = math.inf
    return TropicalMatrix(SemiringKind.MIN_PLUS, grid)


def parse_matrix(text: str, sentinel: SentinelConvention = SentinelConvention.INF_TOKEN) -> TropicalMatrix:
    """Read matrix text under the given sentinel convention.

    INF_TOKEN expects the native headered format; the two legacy
    conventions expect a bare square numeric grid and produce a min-plus
    matrix with sentinels normalized to Infinity.  A header (or a grid's
    first row) whose larger dimension fails require_dense_fits is refused.
    """
    first = first_content_line(text)
    if first is None:
        raise ParseError("empty input, expected a matrix")
    line_no, line, start, end = first
    if sentinel is SentinelConvention.INF_TOKEN:
        return _parse_native_matrix(text, line_no, line, end)
    return _parse_grid_matrix(text, line_no, line, start, sentinel)


def random_graph(
    n: int,
    edge_probability: float,
    weight_range: "tuple[float, float]",
    seed: int,
) -> Graph:
    """Seed-deterministic random digraph.

    Every ordered non-diagonal pair is present independently with
    edge_probability.  Integral bounds, which must stay below 2^53 in
    magnitude, draw uniform integers (inclusive), which keeps instances
    exact for oracle comparisons; otherwise weights are uniform reals in
    [low, high).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    p = float(edge_probability)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {edge_probability!r}")
    low, high = float(weight_range[0]), float(weight_range[1])
    if not (math.isfinite(low) and math.isfinite(high)) or low > high:
        raise ValueError(f"weight range must be finite with low <= high, got {weight_range!r}")

    integral = low.is_integer() and high.is_integer()
    if integral and max(abs(low), abs(high)) >= INT_EXACT_LIMIT:
        raise ValueError(f"integral weight_range bounds must have magnitude below 2^53, got {weight_range!r}")

    rng = np.random.Generator(np.random.PCG64(int(seed) & 0xFFFF_FFFF_FFFF_FFFF))
    src, dst = np.nonzero(~np.eye(n, dtype=bool))  # ordered pairs i != j, row-major
    present = rng.random(src.size) < p
    src, dst = src[present], dst[present]
    if integral:
        weights = rng.integers(int(low), int(high) + 1, size=src.size).astype(np.float64)
    else:
        weights = rng.uniform(low, high, size=src.size)
    return _edge_graph(n, src, dst, weights)
