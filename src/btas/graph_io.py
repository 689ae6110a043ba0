"""Text ingestion and emission for graphs and tropical matrices.

Two line-oriented UTF-8 formats, both allowing `#` comment lines:

* edge list: header `n m`, then m lines `src dst weight`;
* matrix: header `n_rows n_cols kind`, then one whitespace-separated row
  per line with `inf` for Infinity.

Legacy adjacency grids that mark "no edge" in-band (0 or -1) are read as
bare n x n numeric grids under an explicit SentinelConvention; sentinels
are normalized to Infinity on ingestion and never guessed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matrix import TropicalMatrix
from .semiring import SemiringKind, format_weight, parse_weight

#: Generator family used by random_graph, recorded in benchmark metadata.
RANDOM_FAMILY = "numpy-pcg64"

#: Dense n x n float64 matrices a solve holds at once: A, I ⊕ A and two powers.
_SOLVE_DENSE_COPIES = 4


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


@dataclass(frozen=True, slots=True)
class Graph:
    """Directed weighted graph with finite weights.

    Edges are normalized at construction: duplicates of one (src, dst) pair
    keep the minimum weight, and the list is sorted by (src, dst) so equal
    graphs compare equal.
    """

    n: int
    edges: "tuple[tuple[int, int, float], ...]"

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        best: "dict[tuple[int, int], float]" = {}
        for src, dst, weight in self.edges:
            if not (0 <= src < self.n) or not (0 <= dst < self.n):
                raise ValueError(f"edge ({src}, {dst}) out of range for n={self.n}")
            w = float(weight)
            if math.isnan(w) or math.isinf(w):
                raise ValueError(f"edge ({src}, {dst}) weight must be finite, got {w!r}")
            if w == 0.0:
                w = 0.0
            key = (int(src), int(dst))
            if key not in best or w < best[key]:
                best[key] = w
        normalized = tuple((s, d, best[(s, d)]) for s, d in sorted(best))
        object.__setattr__(self, "edges", normalized)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _content_lines(text: str) -> "list[tuple[int, list[str]]]":
    """(line_no, tokens) for every non-blank, non-comment line."""
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((line_no, stripped.split()))
    return out


def _parse_int(token: str, what: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line_no) from None


def parse_edge_list(text: str) -> Graph:
    """Read `n m` followed by m `src dst weight` lines.

    A header whose n would make the dense working set of a solve larger
    than physical memory is refused before anything n-sized is allocated.

    Self-loops with non-negative weight are dropped (self-distance is 0 by
    definition); negative self-loops are kept, they are negative cycles.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input, expected an `n m` header")
    header_no, header = lines[0]
    if len(header) != 2:
        raise ParseError(f"expected header `n m`, got {' '.join(header)!r}", header_no)
    n = _parse_int(header[0], "vertex count", header_no)
    m = _parse_int(header[1], "edge count", header_no)
    if n < 1:
        raise ParseError(f"vertex count must be positive, got {n}", header_no)
    if m < 0:
        raise ParseError(f"edge count cannot be negative, got {m}", header_no)
    dense_bytes = _SOLVE_DENSE_COPIES * 8 * n * n
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # platform without these sysconf names
        memory = None
    if memory is not None and dense_bytes > memory:
        raise ParseError(
            f"{n} vertices need {dense_bytes / 2**30:.1f} GiB as dense {n}x{n} float64 matrices,"
            f" more than the {memory / 2**30:.1f} GiB of physical memory",
            header_no,
        )
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"header promises {m} edges but file has {len(body)} edge lines", header_no)

    edges = []
    for line_no, tokens in body:
        if len(tokens) != 3:
            raise ParseError(f"expected `src dst weight`, got {' '.join(tokens)!r}", line_no)
        src = _parse_int(tokens[0], "source vertex", line_no)
        dst = _parse_int(tokens[1], "destination vertex", line_no)
        if not (0 <= src < n) or not (0 <= dst < n):
            raise ParseError(f"vertex index out of range 0..{n - 1} in edge ({src}, {dst})", line_no)
        try:
            weight = parse_weight(tokens[2])
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        if weight.is_infinite:
            raise ParseError("edge weights must be finite; omit the edge instead of `inf`", line_no)
        if src == dst and weight.value >= 0.0:
            continue
        edges.append((src, dst, weight.value))
    return Graph(n=n, edges=tuple(edges))


def edge_list_to_text(g: Graph) -> str:
    """Inverse of parse_edge_list on normalized graphs."""
    integer = all(float(w).is_integer() for _, _, w in g.edges)
    rows = [f"{g.n} {g.edge_count}"]
    rows.extend(f"{s} {d} {format_weight(w, integer=integer)}" for s, d, w in g.edges)
    return "\n".join(rows) + "\n"


def graph_to_matrix(g: Graph) -> TropicalMatrix:
    """Min-plus adjacency matrix: diagonal 0, absent edges Infinity."""
    arr = np.full((g.n, g.n), math.inf)
    np.fill_diagonal(arr, 0.0)
    for src, dst, weight in g.edges:
        if arr[src, dst] > weight:
            arr[src, dst] = weight
    return TropicalMatrix(SemiringKind.MIN_PLUS, arr)


def matrix_to_graph(m: TropicalMatrix) -> Graph:
    """Inverse of graph_to_matrix: finite off-diagonal entries become edges.

    Diagonal entries are self-distances, not edges; only negative ones
    (negative self-cycles) survive the round trip.
    """
    if m.kind is not SemiringKind.MIN_PLUS:
        raise ValueError("only min-plus matrices describe graphs")
    if m.n_rows != m.n_cols:
        raise ValueError(f"adjacency matrix must be square, got {m.shape}")
    edges = []
    for i in range(m.n_rows):
        for j in range(m.n_cols):
            v = float(m.data[i, j])
            if math.isinf(v):
                continue
            if i == j and v >= 0.0:
                continue
            edges.append((i, j, v))
    return Graph(n=m.n_rows, edges=tuple(edges))


def matrix_to_text(m: TropicalMatrix) -> str:
    """Native matrix format; integer mode prints weights without a point."""
    rows = [f"{m.n_rows} {m.n_cols} {m.kind.value}"]
    for i in range(m.n_rows):
        rows.append(
            " ".join(
                format_weight(math.inf if math.isinf(v) else float(v), integer=m.integer)
                for v in m.data[i]
            )
        )
    return "\n".join(rows) + "\n"


def _parse_native_matrix(lines: "list[tuple[int, list[str]]]") -> TropicalMatrix:
    header_no, header = lines[0]
    if len(header) != 3:
        raise ParseError(f"expected header `n_rows n_cols kind`, got {' '.join(header)!r}", header_no)
    n_rows = _parse_int(header[0], "row count", header_no)
    n_cols = _parse_int(header[1], "column count", header_no)
    if n_rows < 1 or n_cols < 1:
        raise ParseError(f"matrix dimensions must be positive, got {n_rows}x{n_cols}", header_no)
    try:
        kind = SemiringKind.from_token(header[2])
    except ValueError as exc:
        raise ParseError(str(exc), header_no) from None
    body = lines[1:]
    if len(body) != n_rows:
        raise ParseError(f"header promises {n_rows} rows but file has {len(body)}", header_no)
    grid = []
    for line_no, tokens in body:
        if len(tokens) != n_cols:
            raise ParseError(f"expected {n_cols} entries, got {len(tokens)}", line_no)
        try:
            grid.append([parse_weight(t).value for t in tokens])
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    return TropicalMatrix(kind, grid)


def _parse_grid_matrix(lines: "list[tuple[int, list[str]]]", sentinel: SentinelConvention) -> TropicalMatrix:
    n = len(lines[0][1])
    if len(lines) != n:
        raise ParseError(
            f"grid is {len(lines)} rows of {n} entries, expected a square matrix", lines[0][0]
        )
    grid = []
    for row_index, (line_no, tokens) in enumerate(lines):
        if len(tokens) != n:
            raise ParseError(f"ragged row: expected {n} entries, got {len(tokens)}", line_no)
        row = []
        for col_index, token in enumerate(tokens):
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"not a number: {token!r}", line_no) from None
            if math.isnan(value) or math.isinf(value):
                raise ParseError(f"grid entries must be finite numbers, got {token!r}", line_no)
            if sentinel is SentinelConvention.ZERO_MEANS_NO_EDGE:
                # diagonal zeros are genuine self-distances, not sentinels
                if value == 0.0 and row_index != col_index:
                    value = math.inf
            elif value == -1.0:
                value = math.inf
            row.append(value)
        grid.append(row)
    return TropicalMatrix(SemiringKind.MIN_PLUS, grid)


def parse_matrix(text: str, sentinel: SentinelConvention = SentinelConvention.INF_TOKEN) -> TropicalMatrix:
    """Read matrix text under the given sentinel convention.

    INF_TOKEN expects the native headered format; the two legacy
    conventions expect a bare square numeric grid and produce a min-plus
    matrix with sentinels normalized to Infinity.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input, expected a matrix")
    if sentinel is SentinelConvention.INF_TOKEN:
        return _parse_native_matrix(lines)
    return _parse_grid_matrix(lines, sentinel)


def random_graph(
    n: int,
    edge_probability: float,
    weight_range: "tuple[float, float]",
    seed: int,
) -> Graph:
    """Seed-deterministic random digraph.

    Every ordered non-diagonal pair is present independently with
    edge_probability.  Integral bounds draw uniform integers (inclusive),
    which keeps instances exact for oracle comparisons; otherwise weights
    are uniform reals in [low, high).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    p = float(edge_probability)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {edge_probability!r}")
    low, high = float(weight_range[0]), float(weight_range[1])
    if not (math.isfinite(low) and math.isfinite(high)) or low > high:
        raise ValueError(f"weight range must be finite with low <= high, got {weight_range!r}")

    rng = np.random.Generator(np.random.PCG64(int(seed) & 0xFFFF_FFFF_FFFF_FFFF))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    present = rng.random(len(pairs)) < p
    chosen = [pair for pair, keep in zip(pairs, present) if keep]
    if low.is_integer() and high.is_integer():
        weights = rng.integers(int(low), int(high) + 1, size=len(chosen)).astype(np.float64)
    else:
        weights = rng.uniform(low, high, size=len(chosen))
    edges = tuple((src, dst, float(w)) for (src, dst), w in zip(chosen, weights))
    return Graph(n=n, edges=edges)
