"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive pure Python: explicit loops, no
numpy, and "no path" spelled as None so that min/max never touches a
float infinity.  Slow on purpose; correctness is the only goal.
"""

import math
from itertools import product

MINPLUS = "minplus"
MAXPLUS = "maxplus"


def o_add(kind, a, b):
    """Reference ⊕ on float-or-None values (None is the identity)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b) if kind == MINPLUS else max(a, b)


def o_mul(a, b):
    """Reference ⊗: addition with None absorbing."""
    if a is None or b is None:
        return None
    return a + b


def from_symbolic(rows):
    """Library to_lists() output (math.inf for Infinity) -> None-form grid."""
    return [[None if math.isinf(v) else v for v in row] for row in rows]


def to_symbolic(rows):
    return [[math.inf if v is None else v for v in row] for row in rows]


def naive_matmul(kind, x, y):
    """Triple-loop product on None-form grids, ascending k."""
    n, inner, m = len(x), len(y), len(y[0])
    assert len(x[0]) == inner
    out = [[None] * m for _ in range(n)]
    for i, j in product(range(n), range(m)):
        acc = None
        for k in range(inner):
            acc = o_add(kind, acc, o_mul(x[i][k], y[k][j]))
        out[i][j] = acc
    return out


def naive_matmul_saturating(kind, x, y, limit):
    """naive_matmul where each finite+finite sum whose magnitude reaches
    limit (2^53 in integer mode, math.inf for overflow in float mode)
    becomes None.  Returns (product, whether any sum did)."""
    n, inner, m = len(x), len(y), len(y[0])
    assert len(x[0]) == inner
    out = [[None] * m for _ in range(n)]
    saturated = False
    for i, j in product(range(n), range(m)):
        acc = None
        for k in range(inner):
            s = o_mul(x[i][k], y[k][j])
            if s is not None and abs(s) >= limit:
                s = None
                saturated = True
            acc = o_add(kind, acc, s)
        out[i][j] = acc
    return out, saturated


def naive_power(kind, x, p):
    """p-1 successive naive multiplications."""
    out = x
    for _ in range(p - 1):
        out = naive_matmul(kind, out, x)
    return out


def _adjacency(n, edges):
    """dst/weight lists per source, duplicates collapsed to the minimum."""
    best = {}
    for src, dst, w in edges:
        key = (src, dst)
        if key not in best or w < best[key]:
            best[key] = w
    adj = [[] for _ in range(n)]
    for (src, dst), w in best.items():
        adj[src].append((dst, w))
    return adj


def enumerate_distances(n, edges):
    """Shortest distances by exhaustive simple-path search (None-form).

    Valid whenever no negative cycle exists (then some shortest walk is a
    simple path).  Exponential; keep n small.
    """
    adj = _adjacency(n, edges)
    best = [[None] * n for _ in range(n)]
    for i in range(n):
        best[i][i] = 0.0

    def walk(source, current, total, visited):
        for nxt, w in adj[current]:
            if nxt in visited:
                continue
            t = total + w
            if best[source][nxt] is None or t < best[source][nxt]:
                best[source][nxt] = t
            walk(source, nxt, t, visited | {nxt})

    for source in range(n):
        walk(source, source, 0.0, {source})
    return best


def has_negative_cycle(n, edges):
    """Exhaustive simple-cycle enumeration (self-loops included).

    Each cycle is visited from its minimum vertex only; existence of one
    with negative total weight is the answer.
    """
    adj = _adjacency(n, edges)

    def walk(start, current, total, visited):
        for nxt, w in adj[current]:
            if nxt == start:
                if total + w < 0.0:
                    return True
                continue
            if nxt in visited or nxt < start:
                continue
            if walk(start, nxt, total + w, visited | {nxt}):
                return True
        return False

    return any(walk(s, s, 0.0, {s}) for s in range(n))


def floyd_warshall_reference(rows, integer):
    """The k-outermost min-plus Floyd-Warshall, one entry at a time.

    rows is an adjacency grid with math.inf for no edge.  Every
    finite+finite sum whose magnitude reaches the limit (2^53 in integer
    mode, overflow otherwise) becomes math.inf, with no screen deciding
    beforehand whether any sum can.  Returns (distances, negative_cycle,
    saturated).
    """
    n = len(rows)
    d = [list(row) for row in rows]
    for i in range(n):
        d[i][i] = min(d[i][i], 0.0)
    limit = 2.0**53 if integer else math.inf
    saturated = False
    for k in range(n):
        pivot = list(d[k])  # row k as it stood when round k began
        for i in range(n):
            x = d[i][k]
            for j in range(n):
                s = x + pivot[j]
                if math.isfinite(x) and math.isfinite(pivot[j]) and abs(s) >= limit:
                    s = math.inf
                    saturated = True
                if s < d[i][j]:
                    d[i][j] = s
    return d, any(d[i][i] < 0.0 for i in range(n)), saturated


def weight_token_reference(v, integer):
    """One entry as the per-entry writers spell it: `inf` for either
    infinity, else str(int(v)) in integer mode and repr(v) otherwise."""
    if math.isinf(v):
        return "inf"
    return str(int(v)) if integer else repr(v)


def matrix_to_text_reference(kind, rows, integer):
    """The native matrix writer, one entry at a time: a `n_rows n_cols kind`
    header, then one line of tokens per row."""
    lines = [f"{len(rows)} {len(rows[0])} {kind}"]
    for row in rows:
        lines.append(" ".join(weight_token_reference(v, integer) for v in row))
    return "\n".join(lines) + "\n"


def edge_list_to_text_reference(n, edges):
    """The edge-list writer, one entry at a time: a `n m` header, then one
    `src dst weight` line per edge; the weights are written in integer mode
    when every one is integral and below 2^53 in magnitude."""
    integer = all(w == int(w) and abs(w) < 2.0**53 for _, _, w in edges)
    lines = [f"{n} {len(edges)}"]
    for src, dst, w in edges:
        lines.append(f"{src} {dst} {weight_token_reference(w, integer)}")
    return "\n".join(lines) + "\n"


class OracleParseError(ValueError):
    """The reference readers' refusal; line_no is 1-based, or None."""

    def __init__(self, line_no):
        super().__init__(f"line {line_no}")
        self.line_no = line_no


def _content_lines(text):
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((line_no, stripped.split()))
    return out


def _read_int(token, line_no):
    try:
        return int(token)
    except ValueError:
        raise OracleParseError(line_no) from None


def read_weight(token, line_no):
    """One weight token: any case of `inf` is Infinity, anything else goes
    through float(); NaN and -inf are refused, -0.0 reads as 0.0."""
    if token.lower() == "inf":
        return math.inf
    try:
        value = float(token)
    except ValueError:
        raise OracleParseError(line_no) from None
    if math.isnan(value) or value == -math.inf:
        raise OracleParseError(line_no)
    return 0.0 if value == 0.0 else value


def read_edge_list(text):
    """Token-by-token reference of the edge-list reader: (n, edges) with
    duplicates collapsed to the minimum and edges sorted by (src, dst)."""
    lines = _content_lines(text)
    if not lines:
        raise OracleParseError(None)
    header_no, header = lines[0]
    if len(header) != 2:
        raise OracleParseError(header_no)
    n, m = _read_int(header[0], header_no), _read_int(header[1], header_no)
    if n < 1 or m < 0 or len(lines) - 1 != m:
        raise OracleParseError(header_no)
    best = {}
    for line_no, tokens in lines[1:]:
        if len(tokens) != 3:
            raise OracleParseError(line_no)
        src, dst = _read_int(tokens[0], line_no), _read_int(tokens[1], line_no)
        if not (0 <= src < n and 0 <= dst < n):
            raise OracleParseError(line_no)
        w = read_weight(tokens[2], line_no)
        if w == math.inf:
            raise OracleParseError(line_no)
        if src == dst and w >= 0.0:
            continue
        if (src, dst) not in best or w < best[(src, dst)]:
            best[(src, dst)] = w
    return n, tuple((src, dst, best[(src, dst)]) for src, dst in sorted(best))


def read_matrix(text, sentinel):
    """Token-by-token reference of the matrix reader: (kind, rows) with
    math.inf for Infinity.  sentinel "inf" reads the headered format;
    "zero" and "minus-one" read a bare square grid of finite numbers."""
    lines = _content_lines(text)
    if not lines:
        raise OracleParseError(None)
    if sentinel == "inf":
        header_no, header = lines[0]
        if len(header) != 3:
            raise OracleParseError(header_no)
        n_rows, n_cols = _read_int(header[0], header_no), _read_int(header[1], header_no)
        kind = header[2].lower()
        if n_rows < 1 or n_cols < 1 or kind not in (MINPLUS, MAXPLUS) or len(lines) - 1 != n_rows:
            raise OracleParseError(header_no)
        rows = []
        for line_no, tokens in lines[1:]:
            if len(tokens) != n_cols:
                raise OracleParseError(line_no)
            rows.append([read_weight(token, line_no) for token in tokens])
        return kind, rows
    n = len(lines[0][1])
    if len(lines) != n:
        raise OracleParseError(lines[0][0])
    rows = []
    for i, (line_no, tokens) in enumerate(lines):
        if len(tokens) != n:
            raise OracleParseError(line_no)
        row = []
        for j, token in enumerate(tokens):
            try:
                value = float(token)
            except ValueError:
                raise OracleParseError(line_no) from None
            if math.isnan(value) or math.isinf(value):
                raise OracleParseError(line_no)
            if sentinel == "zero" and value == 0.0 and i != j:
                value = math.inf
            elif sentinel == "minus-one" and value == -1.0:
                value = math.inf
            row.append(0.0 if value == 0.0 else value)
        rows.append(row)
    return MINPLUS, rows
