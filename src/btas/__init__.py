"""Basic tropical algebra subroutines.

Min-plus and max-plus semiring kernels: scalar ops, dense matrix/vector
algebra with a deterministic tiled parallel matmul, all-pairs shortest
paths by Floyd-Warshall and by repeated squaring, text I/O with sentinel
normalization, and a benchmark harness.
"""

from .apsp import (
    Algorithm,
    ApspReport,
    DistanceMatrix,
    apsp_by_squaring,
    find_apsp_violation,
    floyd_warshall,
    verify_apsp,
)
from .bench import BenchAlgorithm, BenchConfig, BenchRecord, emit_csv, run_benchmark
from .cli import cmd_bench, cmd_convert, cmd_solve, cmd_verify, entrypoint
from .graph_io import (
    Graph,
    ParseError,
    SentinelConvention,
    edge_list_to_text,
    graph_to_matrix,
    matrix_to_graph,
    matrix_to_text,
    parse_edge_list,
    parse_matrix,
    random_graph,
)
from .matrix import (
    DimensionMismatch,
    SemiringMismatch,
    TileSpec,
    TropicalMatrix,
    TropicalVector,
    available_parallelism,
    ew_add,
    identity_matrix,
    matmul,
    matrix_power,
    matvec,
    tile_plan,
)
from .semiring import (
    INFINITY,
    ZERO,
    SemiringKind,
    TropicalWeight,
    additive_identity,
    format_weight,
    multiplicative_identity,
    parse_weight,
    reset_saturation,
    saturation_seen,
    tadd,
    tmul,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "ApspReport",
    "BenchAlgorithm",
    "BenchConfig",
    "BenchRecord",
    "DimensionMismatch",
    "DistanceMatrix",
    "Graph",
    "INFINITY",
    "ParseError",
    "SemiringKind",
    "SemiringMismatch",
    "SentinelConvention",
    "TileSpec",
    "TropicalMatrix",
    "TropicalVector",
    "TropicalWeight",
    "ZERO",
    "additive_identity",
    "apsp_by_squaring",
    "available_parallelism",
    "cmd_bench",
    "cmd_convert",
    "cmd_solve",
    "cmd_verify",
    "edge_list_to_text",
    "entrypoint",
    "emit_csv",
    "ew_add",
    "find_apsp_violation",
    "floyd_warshall",
    "format_weight",
    "graph_to_matrix",
    "identity_matrix",
    "matmul",
    "matrix_power",
    "matrix_to_graph",
    "matrix_to_text",
    "matvec",
    "multiplicative_identity",
    "parse_edge_list",
    "parse_matrix",
    "parse_weight",
    "random_graph",
    "reset_saturation",
    "run_benchmark",
    "saturation_seen",
    "tadd",
    "tile_plan",
    "tmul",
    "verify_apsp",
]
