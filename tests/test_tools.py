import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from btas import apsp, cli

ROOT = Path(__file__).resolve().parents[1]


def test_bench_compare_marks_changes_beyond_ten_percent():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_compare.py"), "BENCH_001.json", "BENCH_002.json"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = {" ".join(line.split()[:4]): line for line in done.stdout.splitlines()[1:]}
    assert lines["verify-mixed --trace 0 op_p50_s"].endswith(" 0.325x *")
    assert lines["verify-mixed --trace 0 peak_rss_mb"].endswith(" 0.992x")
    assert "bench fw n=512 workers=1" in lines


def _snapshot(op_p50_values, float64_fw_median=None):
    results = [{"metrics": {"op_p50_s": {"value": v, "unit": "s"}}} for v in op_p50_values]
    run = {"result": results[len(results) // 2]}
    if len(results) > 1:
        run["repeats"] = results
    header = ["algorithm", "n", "worker_count", "median_seconds"]
    snapshot = {"perfbench": {"runs": {"solve-dense --trace 0": run}},
                "bench": {"header": header, "rows": [["fw", 64, 1, 0.01]]}}
    if float64_fw_median is not None:
        snapshot["bench_fw_float64"] = {"header": header, "rows": [["fw", 512, 1, float64_fw_median]]}
    return snapshot


def _compare_lines(tmp_path, old, new):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_compare.py"), old, new],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[1:]


def test_bench_compare_prints_the_spread_of_repeated_runs(tmp_path):
    files = {"one.json": [0.5], "old.json": [0.4, 0.5, 0.6], "new.json": [0.25, 0.3, 0.35]}
    for name, values in files.items():
        (tmp_path / name).write_text(json.dumps(_snapshot(values)), encoding="utf-8")

    def compare(old, new):
        return _compare_lines(tmp_path, old, new)[0]

    assert compare("old.json", "new.json").split()[4:] == [
        "0.5", "0.3", "0.600x", "*", "[0.4,", "0.6]", "->", "[0.25,", "0.35]"]
    assert compare("one.json", "new.json").endswith("  - -> [0.25, 0.35]")
    assert compare("one.json", "one.json").endswith(" 1.000x")


def test_bench_compare_reads_the_float64_fw_sweep_where_both_files_hold_it(tmp_path):
    files = {"old.json": _snapshot([0.5], 0.2), "new.json": _snapshot([0.5], 0.1), "without.json": _snapshot([0.5])}
    for name, snapshot in files.items():
        (tmp_path / name).write_text(json.dumps(snapshot), encoding="utf-8")
    both = _compare_lines(tmp_path, "old.json", "new.json")
    assert both[-1].split() == [
        "bench_fw_float64", "fw", "n=512", "workers=1", "median_seconds", "0.2", "0.1", "0.500x", "*"]
    assert both[-2].split()[:4] == ["bench", "fw", "n=64", "workers=1"]
    for old, new in (("old.json", "without.json"), ("without.json", "new.json")):
        lines = _compare_lines(tmp_path, old, new)
        assert not any(line.startswith("bench_fw_float64") for line in lines)
        assert lines[-1].split()[:4] == ["bench", "fw", "n=64", "workers=1"]


def test_bench_snapshot_float64_sweep_runs_the_float64_fw_pass(monkeypatch, capsys):
    """The main sweep's integer weights take FW's float32 pass; this sweep's
    weights must take the float64 one.  Run here at n=16."""
    spec = importlib.util.spec_from_file_location("bench_snapshot", ROOT / "tools" / "bench_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    argv = list(snapshot.SWEEPS["bench_fw_float64"])
    argv[argv.index("--sizes") + 1] = "16"
    dtypes = []
    relax_all = apsp._relax_all

    def spying(d, *args):
        dtypes.append(d.dtype.name)
        return relax_all(d, *args)

    monkeypatch.setattr(apsp, "_relax_all", spying)
    assert cli.entrypoint(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(row.startswith("fw,16,") for row in rows)
    assert dtypes and set(dtypes) == {"float64"}


FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts as code


def area(r):
    """One-line docstring."""
    # a comment-only line

    text = """a string that is
not a docstring"""
    return math.pi * r * r, text


class Shape:
    """Class docstring."""

    sides = 0
'''


def test_code_lines_counts_each_module_and_the_sums(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "shapes.py").write_text(FIXTURE, encoding="utf-8")
    (package / "empty.py").write_text("# only a comment\n\n", encoding="utf-8")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(package)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    # code: the import, the def, both lines of text = """...""", the return, the class and sides = 0
    assert rows == [["module", "lines", "code"], ["empty.py", "2", "0"], ["shapes.py", "19", "7"],
                    ["total", "21", "7"]]


C_FIXTURE = r"""/* a block comment
   over two lines */
#include <string.h>

#define TWICE(x) \
    /* a comment inside a macro */ \
                                   \
    ((x) + (x))

// a line comment
static const char *s = "/* not a comment */"; // a comment after code
static const char q = '"';
int f(void) { /* a comment */ return 1; }
/* a comment */ int g(void) { return 2; }
"""


def test_code_lines_counts_c_sources(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "kernel.c").write_text(C_FIXTURE, encoding="utf-8")
    (package / "mod.py").write_text("x = 1\n", encoding="utf-8")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(package)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    # code: the include, the define, ((x) + (x)), s, q, f and g
    assert rows == [["module", "lines", "code"], ["kernel.c", "14", "7"], ["mod.py", "1", "1"],
                    ["total", "15", "8"]]
