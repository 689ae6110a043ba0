import json
import subprocess
import sys
from pathlib import Path

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


def _snapshot(op_p50_values):
    results = [{"metrics": {"op_p50_s": {"value": v, "unit": "s"}}} for v in op_p50_values]
    run = {"result": results[len(results) // 2]}
    if len(results) > 1:
        run["repeats"] = results
    bench = {"header": ["algorithm", "n", "worker_count", "median_seconds"], "rows": [["fw", 64, 1, 0.01]]}
    return {"perfbench": {"runs": {"solve-dense --trace 0": run}}, "bench": bench}


def test_bench_compare_prints_the_spread_of_repeated_runs(tmp_path):
    files = {"one.json": [0.5], "old.json": [0.4, 0.5, 0.6], "new.json": [0.25, 0.3, 0.35]}
    for name, values in files.items():
        (tmp_path / name).write_text(json.dumps(_snapshot(values)), encoding="utf-8")

    def compare(old, new):
        done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_compare.py"), old, new],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[1]

    assert compare("old.json", "new.json").split()[4:] == [
        "0.5", "0.3", "0.600x", "*", "[0.4,", "0.6]", "->", "[0.25,", "0.35]"]
    assert compare("one.json", "new.json").endswith("  - -> [0.25, 0.35]")
    assert compare("one.json", "one.json").endswith(" 1.000x")
