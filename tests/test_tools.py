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
