"""Spans around the calls into each btas layer, recorded from outside btas.

Inside ``with Tracer(btas)``, the module attributes that callers look up
(``btas.cli.parse_edge_list``, ``btas.apsp.matmul`` and so on) are
wrappers that record a span per call; on exit the originals come back.  A span holds its name, start, end, parent span and op id; spans stay
in memory until ``layer_metrics`` reduces them.  A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass, field

#: (module attribute path, span name).  The CLI looks these names up in
#: btas.cli at call time; the APSP routines look up matmul in btas.apsp;
#: the kernel mix calls btas.matmul.
WRAPPED = (
    ("cli.entrypoint", "cli"),
    ("cli.parse_edge_list", "graph_io.parse_edge_list"),
    ("cli.graph_to_matrix", "graph_io.graph_to_matrix"),
    ("cli.parse_matrix", "graph_io.parse_matrix"),
    ("cli.matrix_to_text", "graph_io.matrix_to_text"),
    ("cli.floyd_warshall", "apsp.floyd_warshall"),
    ("cli.apsp_by_squaring", "apsp.apsp_by_squaring"),
    ("cli.find_apsp_violation", "apsp.find_apsp_violation"),
    ("apsp.matmul", "matrix.matmul"),
    ("matmul", "matrix.matmul"),
)

APSP_SPANS = ("apsp.floyd_warshall", "apsp.apsp_by_squaring", "apsp.find_apsp_violation")


@dataclass
class Span:
    sid: int
    name: str
    parent: "int | None"
    op: int
    start: float
    end: float = 0.0
    cpu: float = 0.0
    extra: dict = field(default_factory=dict)


def _resolve(root, path: str):
    *owners, attr = path.split(".")
    obj = root
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class _Patcher:
    """Context manager: wraps every name in WRAPPED on entry, restores on exit."""

    def __init__(self, btas):
        self.btas = btas
        self._saved: list = []

    def __enter__(self):
        for path, name in WRAPPED:
            owner, attr = _resolve(self.btas, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer(_Patcher):
    """Span recorder for one single-threaded client."""

    def __init__(self, btas):
        super().__init__(btas)
        self.spans: "list[Span]" = []
        self._stack: "list[int]" = []
        self._op = -1

    @contextlib.contextmanager
    def op(self, k: int):
        self._op = k
        with self._span("op"):
            yield

    @contextlib.contextmanager
    def _span(self, name: str):
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, self._op, 0.0)
        self.spans.append(span)
        self._stack.append(span.sid)
        cpu0 = time.process_time()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu = time.process_time() - cpu0
            self._stack.pop()

    def _wrap(self, name: str, fn):
        btas = self.btas

        if name == "matrix.matmul":
            def wrapper(x, y, *args, **kwargs):
                with self._span(name) as span:
                    btas.reset_saturation()
                    out = fn(x, y, *args, **kwargs)
                    span.extra["semiring_ops"] = x.n_rows * x.n_cols * y.n_cols
                    span.extra["saturated"] = btas.saturation_seen()
                return out
        elif name in ("graph_io.parse_edge_list", "graph_io.parse_matrix"):
            def wrapper(text, *args, **kwargs):
                size = len(text.encode("utf-8"))
                with self._span(name) as span:
                    span.extra["bytes"] = size
                    return fn(text, *args, **kwargs)
        elif name == "graph_io.matrix_to_text":
            def wrapper(*args, **kwargs):
                with self._span(name) as span:
                    out = fn(*args, **kwargs)
                span.extra["bytes"] = len(out.encode("utf-8"))
                return out
        else:
            def wrapper(*args, **kwargs):
                with self._span(name):
                    return fn(*args, **kwargs)
        return wrapper


class AllocProbe(_Patcher):
    """Peak bytes allocated inside each matmul call, by tracemalloc.

    Kept apart from Tracer: tracemalloc slows a large product severalfold,
    so span times taken under it would be wrong.
    """

    def __init__(self, btas):
        super().__init__(btas)
        self.peaks: "list[int]" = []

    def __enter__(self):
        tracemalloc.start()
        return super().__enter__()

    def __exit__(self, *exc) -> None:
        super().__exit__(*exc)
        tracemalloc.stop()

    def _wrap(self, name: str, fn):
        if name != "matrix.matmul":
            return fn

        def wrapper(*args, **kwargs):
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            self.peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out
        return wrapper


def layer_metrics(spans: "list[Span]", ops: int) -> "dict[str, float]":
    """Per-op reductions of the spans of ``ops`` traced ops."""
    by_id = {s.sid: s for s in spans}
    child_time: "dict[int, float]" = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.end - s.start for s in named(name))

    def self_total(name):
        return sum(s.end - s.start - child_time.get(s.sid, 0.0) for s in named(name))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    matmuls = named("matrix.matmul")
    mm_wall = total("matrix.matmul")
    sem_ops = sum(s.extra["semiring_ops"] for s in matmuls)
    readers = named("graph_io.parse_edge_list") + named("graph_io.parse_matrix")
    writers = named("graph_io.matrix_to_text")
    apsp_products = sum(1 for s in matmuls if s.parent is not None and by_id[s.parent].name in APSP_SPANS)
    return {
        "graph_io.parse_edge_list.s_per_op": total("graph_io.parse_edge_list") / ops,
        "graph_io.read_mb_per_s": rate(sum(s.extra["bytes"] for s in readers) / 1e6,
                                       sum(s.end - s.start for s in readers)),
        "graph_io.matrix_to_text.s_per_op": total("graph_io.matrix_to_text") / ops,
        "graph_io.write_mb_per_s": rate(sum(s.extra["bytes"] for s in writers) / 1e6,
                                        total("graph_io.matrix_to_text")),
        "graph_io.parse_matrix.s_per_op": total("graph_io.parse_matrix") / ops,
        "graph_io.graph_to_matrix.s_per_op": total("graph_io.graph_to_matrix") / ops,
        "apsp.floyd_warshall.s_per_op": total("apsp.floyd_warshall") / ops,
        "apsp.apsp_by_squaring.self_s_per_op": self_total("apsp.apsp_by_squaring") / ops,
        "apsp.products_per_op": apsp_products / ops,
        "apsp.find_apsp_violation.self_s_per_op": self_total("apsp.find_apsp_violation") / ops,
        "matrix.matmul.calls_per_op": len(matmuls) / ops,
        "matrix.matmul.semiring_ops_per_op": sem_ops / ops,
        "matrix.matmul.s_per_op": mm_wall / ops,
        "matrix.matmul.semiring_ops_per_s": rate(sem_ops, mm_wall),
        "matrix.matmul.cpu_per_wall": rate(sum(s.cpu for s in matmuls), mm_wall),
        "semiring.saturated_ops_ratio": rate(sum(1 for s in matmuls if s.extra["saturated"]), len(matmuls)),
        "cli.self_s_per_op": self_total("cli") / ops,
    }
