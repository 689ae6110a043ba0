"""Command-line front end.

Commands: solve (APSP on a graph file), verify (check a distance matrix
against its graph), convert (format and sentinel translation), bench
(scaling sweep to CSV).

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 negative cycle under --strict, 4 I/O error.  Commands return only 0, 1
and 3 and raise the rest; entrypoint turns an OSError into 4 and a
ValueError into 2, each with one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

from .apsp import Algorithm, DistanceMatrix, apsp_by_squaring, find_apsp_violation, floyd_warshall
from .bench import DEFAULT_ALGORITHMS, BenchAlgorithm, BenchConfig, emit_csv, run_benchmark
from .graph_io import (
    SentinelConvention,
    edge_list_to_text,
    first_content_line,
    graph_to_matrix,
    matrix_to_graph,
    matrix_to_text,
    parse_edge_list,
    parse_matrix,
)
from .matrix import TropicalMatrix, available_parallelism, tile_plan
from .semiring import SemiringKind

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NEGATIVE_CYCLE = 3
EXIT_IO = 4


def _read_text(path: str) -> str:
    """The text of path; a failure names the file (OSError) or calls it malformed (ValueError)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from None


def _write_text(path: "str | None", text: str) -> None:
    """Write text to path, or to stdout when path is None; a failure names the destination."""
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path or 'stdout'}: {exc}") from None


def _sniff_format(text: str, sentinel: SentinelConvention) -> str:
    """Guess edges vs matrix from the first content line.

    Legacy sentinel grids have no header, so a non-inf sentinel always
    means matrix.  Otherwise a 3-token header whose last token is a kind
    name is a matrix; a 2-token header is an edge list.
    """
    if sentinel is not SentinelConvention.INF_TOKEN:
        return "matrix"
    kinds = [kind.value for kind in SemiringKind]
    first = first_content_line(text)
    tokens = [] if first is None else first[1].split()
    return "matrix" if len(tokens) == 3 and tokens[2].lower() in kinds else "edges"


def _load_adjacency(text: str, fmt: str, sentinel: SentinelConvention) -> TropicalMatrix:
    if fmt == "auto":
        fmt = _sniff_format(text, sentinel)
    if fmt == "edges":
        return graph_to_matrix(parse_edge_list(text))
    return parse_matrix(text, sentinel)


def _solve(adj: TropicalMatrix, algorithm: Algorithm, workers: "int | None"):
    # tile_plan refuses workers < 1, so every route checks the flag
    tiles = None if workers is None else tile_plan(adj.n_rows, adj.n_cols, workers)
    if algorithm is Algorithm.FLOYD_WARSHALL:
        return floyd_warshall(adj)
    return apsp_by_squaring(adj, tiles=tiles)


def cmd_solve(args: argparse.Namespace) -> int:
    adj = _load_adjacency(_read_text(args.input), args.format, SentinelConvention(args.sentinel))
    report = _solve(adj, Algorithm(args.algorithm), args.workers)
    if report.negative_cycle:
        print("warning: input contains a negative cycle; distances are not shortest paths", file=sys.stderr)
        if args.strict:
            return EXIT_NEGATIVE_CYCLE
    _write_text(args.out, matrix_to_text(report.distances.dist))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    graph_text = _read_text(args.input)
    result_text = _read_text(args.result)
    adj = _load_adjacency(graph_text, args.format, SentinelConvention(args.sentinel))
    violation = find_apsp_violation(adj, DistanceMatrix.from_matrix(parse_matrix(result_text)))
    if violation is None:
        print("ok: result is a valid shortest-path closure of the input")
        return EXIT_OK
    print(f"verification failed: {violation}")
    return EXIT_VERIFY_FAILED


def cmd_convert(args: argparse.Namespace) -> int:
    adj = _load_adjacency(_read_text(args.input), args.format, SentinelConvention(args.sentinel))
    out_text = matrix_to_text(adj) if args.to == "matrix" else edge_list_to_text(matrix_to_graph(adj))
    _write_text(args.out, out_text)
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
        worker_counts=_parse_int_list(
            str(available_parallelism()) if args.workers is None else args.workers, "--workers"
        ),
    )
    records = run_benchmark(config)
    for record in records:
        if record.failed:
            print(
                f"note: {record.algorithm.value} n={record.n} workers={record.worker_count}"
                f" failed: {record.note}",
                file=sys.stderr,
            )
    csv_text = io.StringIO()
    emit_csv(records, csv_text)
    _write_text(args.out, csv_text.getvalue())
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
    p_solve.add_argument("--algorithm", choices=[a.value for a in Algorithm],
                         default=Algorithm.FLOYD_WARSHALL.value,
                         help="fw: Floyd-Warshall (default); square: repeated squaring on the matmul kernel")
    add_input_flags(p_solve)
    p_solve.add_argument("--workers", type=int, default=None,
                         help="worker threads for matmul; only --algorithm square uses them (default: available cores)")
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
    p_bench.add_argument("--algorithm", default=",".join(a.value for a in DEFAULT_ALGORITHMS),
                         help=f"comma list from {','.join(a.value for a in BenchAlgorithm)} or 'all'")
    p_bench.add_argument("--workers", default=None,
                         help="comma list of worker counts to sweep")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--edge-prob", type=float, default=0.5)
    p_bench.add_argument("--weights", default="1:100",
                         help="uniform weight range lo:hi; write a negative lo as --weights=-1:5")
    p_bench.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: its defaults depend on nothing that changes."""
    return build_parser()


def entrypoint(argv: "list[str] | None" = None) -> int:
    """Run one command; the only place a refusal becomes an `error:` line and an exit code."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # the library's "refused input", ParseError and the mismatches included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(entrypoint())
