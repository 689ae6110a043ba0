import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import btas
from btas import cli
from btas.cli import _sniff_format, entrypoint
from btas.graph_io import Graph, SentinelConvention, edge_list_to_text, parse_edge_list, random_graph

THREE_NODE = "3 3\n0 1 1\n1 2 2\n0 2 5\n"
SOLVED = "3 3 minplus\n0 1 3\ninf 0 2\ninf inf 0\n"


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.edges"
    path.write_text(THREE_NODE, encoding="utf-8")
    return path


def test_solve_to_stdout(graph_file, capsys):
    assert entrypoint(["solve", str(graph_file), "--algorithm", "fw"]) == 0
    assert capsys.readouterr().out == SOLVED


def test_solve_outputs_match_across_algorithms_and_workers(graph_file, tmp_path):
    outputs = []
    for name, extra in (
        ("fw.mat", ["--algorithm", "fw"]),
        ("sq1.mat", ["--algorithm", "square", "--workers", "1"]),
        ("sq4.mat", ["--algorithm", "square", "--workers", "4"]),
        ("default.mat", []),
    ):
        out = tmp_path / name
        assert entrypoint(["solve", str(graph_file), "--out", str(out), *extra]) == 0
        outputs.append(out.read_bytes())
    assert all(blob == outputs[0] for blob in outputs)
    assert outputs[0] == SOLVED.encode()


def test_solve_routes_agree_on_one_fractional_vertex(tmp_path, capsys):
    path = tmp_path / "one.mat"
    path.write_text("1 1 minplus\n0.5\n", encoding="utf-8")
    outputs = []
    for algorithm in ("fw", "square"):
        assert entrypoint(["solve", str(path), "--algorithm", algorithm]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == ["1 1 minplus\n0.0\n"] * 2


def _potential_shifted(graph, seed):
    """graph's edges shifted by vertex potentials: negative weights, no negative cycle."""
    rng = random.Random(seed)
    pot = [rng.uniform(-20, 20) for _ in range(graph.n)]
    return Graph(graph.n, [(s, t, w + pot[s] - pot[t]) for s, t, w in graph.edges])


@pytest.mark.parametrize(
    "graph",
    [random_graph(24, 0.3, (0.1, 10.7), 11), _potential_shifted(random_graph(24, 0.3, (0.1, 10.7), 12), 13)],
    ids=["floats", "negative-weights"],
)
def test_default_solve_is_floyd_warshall(tmp_path, capsys, graph):
    path = tmp_path / "graph.edges"
    path.write_text(edge_list_to_text(graph), encoding="utf-8")
    assert entrypoint(["solve", str(path)]) == 0
    default = capsys.readouterr().out
    assert entrypoint(["solve", str(path), "--algorithm", "fw"]) == 0
    assert capsys.readouterr().out == default
    result = tmp_path / "dist.mat"
    result.write_text(default, encoding="utf-8")
    assert entrypoint(["verify", str(path), str(result)]) == 0
    assert capsys.readouterr().out.startswith("ok:")


def test_solve_reads_matrix_input(graph_file, tmp_path, capsys):
    matrix_file = tmp_path / "adj.mat"
    assert entrypoint(["convert", str(graph_file), "--out", str(matrix_file)]) == 0
    capsys.readouterr()
    assert entrypoint(["solve", str(matrix_file)]) == 0
    assert capsys.readouterr().out == SOLVED


def test_solve_malformed_input_exits_2_and_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("not a graph\n", encoding="utf-8")
    out = tmp_path / "never.mat"
    assert entrypoint(["solve", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert "line 1" in capsys.readouterr().err


def test_solve_missing_file_exits_4(tmp_path, capsys):
    assert entrypoint(["solve", str(tmp_path / "absent.edges")]) == 4
    assert "cannot read" in capsys.readouterr().err


def test_solve_unwritable_output_exits_4(graph_file, tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.mat"
    assert entrypoint(["solve", str(graph_file), "--out", str(target)]) == 4
    assert "cannot write" in capsys.readouterr().err


def test_solve_negative_cycle_warning_and_strict(tmp_path, capsys):
    cyclic = tmp_path / "neg.edges"
    cyclic.write_text("2 2\n0 1 -2\n1 0 1\n", encoding="utf-8")
    out = tmp_path / "neg.mat"

    assert entrypoint(["solve", str(cyclic), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "negative cycle" in captured.err
    assert out.exists()

    strict_out = tmp_path / "strict.mat"
    assert entrypoint(["solve", str(cyclic), "--strict", "--out", str(strict_out)]) == 3
    assert not strict_out.exists()


def test_solve_rejects_max_plus_matrix(tmp_path, capsys):
    matrix_file = tmp_path / "max.mat"
    matrix_file.write_text("2 2 maxplus\n0 1\n1 0\n", encoding="utf-8")
    assert entrypoint(["solve", str(matrix_file)]) == 2
    assert "min-plus" in capsys.readouterr().err


def test_verify_accepts_solve_output(graph_file, tmp_path, capsys):
    result = tmp_path / "dist.mat"
    assert entrypoint(["solve", str(graph_file), "--out", str(result)]) == 0
    assert entrypoint(["verify", str(graph_file), str(result)]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_rejects_tampered_entry(graph_file, tmp_path, capsys):
    result = tmp_path / "dist.mat"
    assert entrypoint(["solve", str(graph_file), "--out", str(result)]) == 0
    tampered = result.read_text(encoding="utf-8").replace("0 1 3", "0 1 5")
    result.write_text(tampered, encoding="utf-8")
    assert entrypoint(["verify", str(graph_file), str(result)]) == 1
    out = capsys.readouterr().out
    assert "verification failed" in out


@pytest.mark.parametrize(
    "graph, claimed",
    [
        ("2 1\n0 1 3\n", "2 2 minplus\n0 1\ninf 0\n"),
        ("2 0\n", "2 2 minplus\n0 -5\ninf 0\n"),
        ("3 2\n1 2 0\n2 1 0\n", "3 3 minplus\n0 -5 -5\ninf 0 0\ninf 0 0\n"),
    ],
    ids=["below-the-edge", "no-path", "unreachable-zero-cycle"],
)
def test_verify_rejects_distances_below_every_path(tmp_path, capsys, graph, claimed):
    graph_path, result = tmp_path / "graph.edges", tmp_path / "dist.mat"
    graph_path.write_text(graph, encoding="utf-8")
    result.write_text(claimed, encoding="utf-8")
    assert entrypoint(["verify", str(graph_path), str(result)]) == 1
    assert capsys.readouterr().out.startswith("verification failed: entry (0,1) is ")


@pytest.mark.parametrize("algorithm", ["fw", "square"])
def test_verify_accepts_float_solve_output(tmp_path, capsys, algorithm):
    # squaring and FW group this instance's float sums differently
    graph = tmp_path / "graph.edges"
    graph.write_text(edge_list_to_text(random_graph(32, 0.1, (0.1, 10.7), 1736404157)), encoding="utf-8")
    result = tmp_path / "dist.mat"
    assert entrypoint(["solve", str(graph), "--algorithm", algorithm, "--out", str(result)]) == 0
    assert entrypoint(["verify", str(graph), str(result)]) == 0
    assert capsys.readouterr().out.startswith("ok")


def test_verify_rejects_any_result_for_a_negative_cycle(tmp_path, capsys):
    graph, result = tmp_path / "graph.edges", tmp_path / "dist.mat"
    graph.write_text("2 2\n0 1 -1\n1 0 -1\n", encoding="utf-8")
    assert entrypoint(["solve", str(graph), "--out", str(result)]) == 0
    assert entrypoint(["verify", str(graph), str(result)]) == 1
    assert "negative cycle" in capsys.readouterr().out


def test_verify_wrong_shape_exits_2(graph_file, tmp_path, capsys):
    result = tmp_path / "tiny.mat"
    result.write_text("2 2 minplus\n0 1\ninf 0\n", encoding="utf-8")
    assert entrypoint(["verify", str(graph_file), str(result)]) == 2


def test_convert_zero_sentinel_grid(tmp_path, capsys):
    grid = tmp_path / "legacy.txt"
    grid.write_text("0 0\n4 0\n", encoding="utf-8")
    assert entrypoint(["convert", str(grid), "--sentinel", "zero"]) == 0
    assert capsys.readouterr().out == "2 2 minplus\n0 inf\n4 0\n"


def test_convert_minus_one_sentinel_grid(tmp_path, capsys):
    grid = tmp_path / "legacy.txt"
    grid.write_text("0 -1\n3 0\n", encoding="utf-8")
    assert entrypoint(["convert", str(grid), "--sentinel", "minus-one"]) == 0
    assert capsys.readouterr().out == "2 2 minplus\n0 inf\n3 0\n"


def test_convert_round_trips_edges(graph_file, tmp_path, capsys):
    matrix_file = tmp_path / "adj.mat"
    assert entrypoint(["convert", str(graph_file), "--out", str(matrix_file)]) == 0
    assert entrypoint(["convert", str(matrix_file), "--to", "edges"]) == 0
    # edges come back de-duplicated and sorted by (src, dst)
    assert capsys.readouterr().out == "3 3\n0 1 1\n0 2 5\n1 2 2\n"


def test_convert_writes_an_integral_weight_beyond_2_53_as_the_matrix_writer_does(tmp_path, capsys):
    graph = tmp_path / "big.edges"
    graph.write_text("2 1\n0 1 1e300\n", encoding="utf-8")
    assert entrypoint(["convert", str(graph), "--to", "edges"]) == 0
    out = capsys.readouterr().out
    assert out == "2 1\n0 1 1e+300\n"
    assert parse_edge_list(out) == parse_edge_list(graph.read_text(encoding="utf-8"))
    assert entrypoint(["convert", str(graph)]) == 0
    assert capsys.readouterr().out == "2 2 minplus\n0.0 1e+300\ninf 0.0\n"


def test_bench_emits_well_formed_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code = entrypoint(
        [
            "bench",
            "--sizes", "4,6",
            "--reps", "2",
            "--algorithm", "fw,square",
            "--workers", "1",
            "--seed", "3",
            "--out", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "algorithm,n,worker_count,repetitions,median_seconds,min_seconds,max_seconds,seed"
    assert len(lines) == 1 + 2 * 2
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["fw", "4"],
        ["fw", "6"],
        ["square", "4"],
        ["square", "6"],
    ]


def test_bench_takes_a_negative_lower_weight_bound_after_an_equals_sign(capsys):
    argv = ["bench", "--sizes", "4", "--reps", "1", "--algorithm", "fw", "--workers", "1", "--weights=-1:5"]
    assert entrypoint(argv) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "algorithm,n,worker_count,repetitions,median_seconds,min_seconds,max_seconds,seed"


def test_entrypoint_builds_its_parser_once_and_bench_defaults_to_every_core(monkeypatch, graph_file, capsys):
    """The parser is built on the first call only, so no default may be read
    when it is built: bench's --workers resolves to the available cores per run."""
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert entrypoint(["solve", str(graph_file), "--algorithm", "fw"]) == 0
        monkeypatch.setattr(cli, "available_parallelism", lambda: 3)
        assert entrypoint(["bench", "--sizes", "4", "--reps", "1", "--algorithm", "fw"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().out.splitlines()[-1].split(",")[:3] == ["fw", "4", "3"]


def test_bench_rejects_bad_flags(capsys):
    assert entrypoint(["bench", "--sizes", "", "--reps", "1"]) == 2
    assert entrypoint(["bench", "--weights", "10"]) == 2
    assert entrypoint(["bench", "--algorithm", "gpu"]) == 2
    assert entrypoint(["bench", "--workers", ""]) == 2


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_solve_rejects_non_positive_workers(graph_file, capsys, workers):
    assert entrypoint(["solve", str(graph_file), "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "worker_count" in captured.err


@pytest.mark.parametrize(
    "flags",
    [["--weights", "1:inf"], ["--weights", "5:1"], ["--edge-prob", "2"], ["--weights", "1:1e30"]],
    ids=["inf-weight", "reversed-weights", "probability", "integral-weight-beyond-2-53"],
)
def test_bench_rejects_bad_instance_arguments(capsys, flags):
    assert entrypoint(["bench", "--sizes", "4", "--reps", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_bench_sweep_refusal_exits_2(monkeypatch, capsys):
    def refuse(config):
        raise ValueError("refused inside the sweep")

    monkeypatch.setattr("btas.cli.run_benchmark", refuse)
    assert entrypoint(["bench", "--sizes", "4", "--reps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: refused inside the sweep\n"


def test_bench_unwritable_csv_exits_4_and_names_the_path(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "sweep.csv"
    assert entrypoint(["bench", "--sizes", "4", "--reps", "1", "--out", str(target)]) == 4
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


def test_verify_missing_result_exits_4_and_names_the_path(graph_file, tmp_path, capsys):
    absent = tmp_path / "absent.mat"
    assert entrypoint(["verify", str(graph_file), str(absent)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {absent}: ")


@pytest.mark.parametrize(
    "argv",
    [["solve", "{bad}"], ["convert", "{bad}"], ["verify", "{bad}", "{result}"], ["verify", "{graph}", "{bad}"]],
    ids=["solve", "convert", "verify-graph", "verify-result"],
)
def test_non_utf8_file_is_malformed_input(graph_file, tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"3 1\n0 1 \xff\n")
    result = tmp_path / "dist.mat"
    result.write_text(SOLVED, encoding="utf-8")
    paths = {"bad": bad, "graph": graph_file, "result": result}
    assert entrypoint([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(bad) in captured.err and "Traceback" not in captured.err


def test_module_invocation(graph_file):
    # run the btas under test, also when only pytest's pythonpath put it on sys.path
    env = {**os.environ, "PYTHONPATH": str(Path(btas.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "btas", "solve", str(graph_file)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == SOLVED


def test_solve_refuses_vertex_count_beyond_physical_memory(tmp_path, capsys):
    huge = tmp_path / "huge.edges"
    huge.write_text("1000000 0\n", encoding="utf-8")
    assert entrypoint(["solve", str(huge)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "1000000 vertices" in err and "GiB" in err
    assert "Traceback" not in err


# Matrix inputs whose dense size no machine holds: a 24-byte header promising
# 10^10 columns, and a 400 KB bare grid whose first row has 100000 entries.
HUGE_HEADER = "1 10000000000 minplus\n1\n"
HUGE_GRID = "\n" + "1 " * 99999 + "1\n" + "1\n" * 99999


@pytest.mark.parametrize(
    "command, text, line",
    [
        (["solve", "{file}"], HUGE_HEADER, 1),
        (["solve", "{file}", "--sentinel", "zero"], HUGE_GRID, 2),
        (["verify", "{graph}", "{file}"], "# distances\n" + HUGE_HEADER, 2),
        (["convert", "{file}", "--to", "edges"], HUGE_HEADER, 1),
        (["convert", "{file}", "--sentinel", "zero"], HUGE_GRID, 2),
    ],
    ids=["solve-header", "solve-grid", "verify-result-header", "convert-header", "convert-grid"],
)
def test_matrix_readers_refuse_dense_sizes_beyond_physical_memory(graph_file, tmp_path, capsys, command, text, line):
    huge = tmp_path / "huge.mat"
    huge.write_text(text, encoding="utf-8")
    argv = [arg.format(file=huge, graph=graph_file) for arg in command]
    assert entrypoint(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: line {line}: ") and "GiB" in captured.err


def test_bench_refuses_sizes_beyond_physical_memory(capsys):
    assert entrypoint(["bench", "--sizes", "4,1000000", "--reps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 1000000 vertices need ") and "GiB" in captured.err


@given(st.lists(st.sampled_from(["2", "minplus", "MaxPlus", "boolean", "#", " ", "\t", "\n", "\r", "\r\n", "\v",
                                 "\x1c", "\x1f", "\x85", "\u2028"]), max_size=12).map("".join))
def test_sniff_decides_as_when_it_split_the_whole_text(text):
    kinds = ["minplus", "maxplus"]
    want = "edges"
    for tokens in map(str.split, text.splitlines()):  # the rule before the sniff stopped at the first content line
        if tokens and not tokens[0].startswith("#"):
            want = "matrix" if len(tokens) == 3 and tokens[2].lower() in kinds else "edges"
            break
    assert _sniff_format(text, SentinelConvention.INF_TOKEN) == want
