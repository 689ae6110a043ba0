import subprocess
import sys

import pytest

from btas.cli import entrypoint

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


def test_bench_rejects_bad_flags(capsys):
    assert entrypoint(["bench", "--sizes", "", "--reps", "1"]) == 2
    assert entrypoint(["bench", "--weights", "10"]) == 2
    assert entrypoint(["bench", "--algorithm", "gpu"]) == 2


def test_module_invocation(graph_file):
    proc = subprocess.run(
        [sys.executable, "-m", "btas", "solve", str(graph_file)],
        capture_output=True,
        text=True,
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
