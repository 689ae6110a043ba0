"""Command-line front end.

Commands: solve (APSP on a graph file), verify (check a distance matrix
against its graph), convert (format and sentinel translation), bench
(scaling sweep to CSV).

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 negative cycle under --strict, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .apsp import Algorithm, DistanceMatrix, apsp_by_squaring, find_apsp_violation, floyd_warshall
from .bench import BenchAlgorithm, BenchConfig, emit_csv, run_benchmark
from .graph_io import (
    ParseError,
    SentinelConvention,
    edge_list_to_text,
    graph_to_matrix,
    matrix_to_graph,
    matrix_to_text,
    parse_edge_list,
    parse_matrix,
)
from .matrix import (
    DimensionMismatch,
    SemiringMismatch,
    TropicalMatrix,
    available_parallelism,
    tile_plan,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NEGATIVE_CYCLE = 3
EXIT_IO = 4


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: "str | None", text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _sniff_format(text: str, sentinel: SentinelConvention) -> str:
    """Guess edges vs matrix from the first content line.

    Legacy sentinel grids have no header, so a non-inf sentinel always
    means matrix.  Otherwise a 3-token header whose last token is a kind
    name is a matrix; a 2-token header is an edge list.
    """
    if sentinel is not SentinelConvention.INF_TOKEN:
        return "matrix"
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) == 3 and tokens[2].lower() in ("minplus", "maxplus"):
            return "matrix"
        return "edges"
    return "edges"


def _load_adjacency(text: str, fmt: str, sentinel: SentinelConvention) -> TropicalMatrix:
    if fmt == "auto":
        fmt = _sniff_format(text, sentinel)
    if fmt == "edges":
        return graph_to_matrix(parse_edge_list(text))
    return parse_matrix(text, sentinel)


def _solve(adj: TropicalMatrix, algorithm: str, workers: "int | None"):
    if algorithm == Algorithm.FLOYD_WARSHALL.value:
        return floyd_warshall(adj)
    tiles = None if workers is None else tile_plan(adj.n_rows, adj.n_cols, workers)
    return apsp_by_squaring(adj, tiles=tiles)


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        text = _read_text(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        adj = _load_adjacency(text, args.format, SentinelConvention(args.sentinel))
        report = _solve(adj, args.algorithm, args.workers)
    except (ParseError, DimensionMismatch, SemiringMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if report.negative_cycle:
        print("warning: input contains a negative cycle; distances are not shortest paths", file=sys.stderr)
        if args.strict:
            return EXIT_NEGATIVE_CYCLE
    try:
        _write_text(args.out, matrix_to_text(report.distances.dist))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        graph_text = _read_text(args.input)
        result_text = _read_text(args.result)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        adj = _load_adjacency(graph_text, args.format, SentinelConvention(args.sentinel))
        dist = parse_matrix(result_text)
        violation = find_apsp_violation(adj, DistanceMatrix.from_matrix(dist))
    except (ParseError, DimensionMismatch, SemiringMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if violation is None:
        print("ok: result is a valid shortest-path closure of the input")
        return EXIT_OK
    print(f"verification failed: {violation}")
    return EXIT_VERIFY_FAILED


def cmd_convert(args: argparse.Namespace) -> int:
    try:
        text = _read_text(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        adj = _load_adjacency(text, args.format, SentinelConvention(args.sentinel))
        if args.to == "edges":
            out_text = edge_list_to_text(matrix_to_graph(adj))
        else:
            out_text = matrix_to_text(adj)
    except (ParseError, DimensionMismatch, SemiringMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        _write_text(args.out, out_text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> "tuple[int, ...]":
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{what} cannot be empty")
    return values


def _parse_weight_range(text: str) -> "tuple[float, float]":
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"--weights expects lo:hi, got {text!r}")
    try:
        return (float(lo), float(hi))
    except ValueError:
        raise ValueError(f"--weights expects numeric lo:hi, got {text!r}") from None


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        if args.algorithm == "all":
            algorithms = tuple(BenchAlgorithm)
        else:
            algorithms = tuple(BenchAlgorithm.from_token(t) for t in args.algorithm.split(","))
        config = BenchConfig(
            sizes=_parse_int_list(args.sizes, "--sizes"),
            repetitions=args.reps,
            algorithms=algorithms,
            edge_probability=args.edge_prob,
            weight_range=_parse_weight_range(args.weights),
            seed=args.seed,
            worker_counts=_parse_int_list(args.workers, "--workers"),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    records = run_benchmark(config)
    for record in records:
        if record.failed:
            print(
                f"note: {record.algorithm.value} n={record.n} workers={record.worker_count}"
                f" failed: {record.note}",
                file=sys.stderr,
            )
    try:
        if args.out is None:
            emit_csv(records, sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                emit_csv(records, handle)
    except OSError as exc:
        print(f"error: cannot write CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btas",
        description="Tropical-algebra kernels: all-pairs shortest paths, verification, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sentinel", choices=["inf", "zero", "minus-one"], default="inf",
                       help="how the input spells 'no edge' (zero/minus-one imply a bare matrix grid)")
        p.add_argument("--format", choices=["auto", "edges", "matrix"], default="auto",
                       help="input format; auto sniffs the header")

    p_solve = sub.add_parser("solve", help="compute all-pairs shortest paths")
    p_solve.add_argument("input", help="graph file (edge list or matrix)")
    p_solve.add_argument("--algorithm", choices=["fw", "square"], default="square")
    add_input_flags(p_solve)
    p_solve.add_argument("--workers", type=int, default=None,
                         help="worker threads for the squaring solver (default: available cores)")
    p_solve.add_argument("--out", default=None, help="output path (default: stdout)")
    p_solve.add_argument("--strict", action="store_true",
                         help="exit 3 instead of writing distances when a negative cycle is found")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a distance matrix against its graph")
    p_verify.add_argument("input", help="graph file")
    p_verify.add_argument("result", help="distance matrix produced by solve")
    add_input_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_convert = sub.add_parser("convert", help="translate between formats and sentinel conventions")
    p_convert.add_argument("input")
    add_input_flags(p_convert)
    p_convert.add_argument("--to", choices=["matrix", "edges"], default="matrix",
                           help="output representation (always inf-token)")
    p_convert.add_argument("--out", default=None)
    p_convert.set_defaults(func=cmd_convert)

    p_bench = sub.add_parser("bench", help="run the scaling sweep and emit CSV")
    p_bench.add_argument("--sizes", default="4,16,32,64,128")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--algorithm", default="fw,square",
                         help="comma list from fw,square,matmul or 'all'")
    p_bench.add_argument("--workers", default=str(available_parallelism()),
                         help="comma list of worker counts to sweep")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--edge-prob", type=float, default=0.5)
    p_bench.add_argument("--weights", default="1:100", help="uniform weight range lo:hi")
    p_bench.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def entrypoint(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(entrypoint())
