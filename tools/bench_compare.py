"""Compare two points of the benchmark trajectory, BENCH_*.json files.

    python3 tools/bench_compare.py OLD.json NEW.json

For every perfbench run (workload and trace mode) and every metric present
in both files, and for every `btas bench` cell (algorithm, n, workers) in
both, of each sweep both hold (`bench`, and `bench_fw_float64` from
BENCH_008.json on), it prints the old value, the new value and the ratio
new/old, and marks with `*` a ratio that is off 1 by more than 10 %.  Where
either file holds repeated runs of a perfbench run, it also prints the old
and the new [min, max] over the repeats (`-` for a file with one run), so
that a ratio can be set against the spread between runs.  It only reports
and always exits 0: a mark is a lead to look into, not a verdict, since
timings on a shared 2-vCPU VM drift by up to 11 % between runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: A ratio further than this from 1 is marked.
MARK_BEYOND = 0.10

#: The `btas bench` sweeps a snapshot may hold, by key (tools/bench_snapshot.py).
SWEEPS = ("bench", "bench_fw_float64")


def _line(label: str, old: float, new: float) -> str:
    if old == 0:
        return f"{label:66} {old:>12.6g} {new:>12.6g}      n/a"
    ratio = new / old
    mark = " *" if abs(ratio - 1.0) > MARK_BEYOND else ""
    return f"{label:66} {old:>12.6g} {new:>12.6g} {ratio:>7.3f}x{mark}"


def _spread(run: dict, metric: str) -> str:
    """[min, max] of metric over the run's repeats, `-` for a run without them."""
    values = [r["metrics"][metric]["value"] for r in run.get("repeats", ()) if metric in r["metrics"]]
    return f"[{min(values):.6g}, {max(values):.6g}]" if values else "-"


def compare(old: dict, new: dict) -> "list[str]":
    """The report lines for snapshots old and new, in old's order."""
    lines = []
    new_runs = new["perfbench"]["runs"]
    for run, old_run in old["perfbench"]["runs"].items():
        if run not in new_runs:
            continue
        new_run = new_runs[run]
        new_metrics = new_run["result"]["metrics"]
        for metric, entry in old_run["result"]["metrics"].items():
            if metric in new_metrics:
                line = _line(f"{run}  {metric}", entry["value"], new_metrics[metric]["value"])
                if "repeats" in old_run or "repeats" in new_run:
                    line = f"{line:103}  {_spread(old_run, metric)} -> {_spread(new_run, metric)}"
                lines.append(line)
    for sweep in SWEEPS:
        if sweep not in old or sweep not in new:
            continue
        header = old[sweep]["header"]
        key = [header.index(name) for name in ("algorithm", "n", "worker_count")]
        median = header.index("median_seconds")
        new_cells = {tuple(row[i] for i in key): row[median] for row in new[sweep]["rows"]}
        for row in old[sweep]["rows"]:
            algorithm, n, workers = cell = tuple(row[i] for i in key)
            if cell in new_cells:
                label = f"{sweep} {algorithm} n={n} workers={workers}  median_seconds"
                lines.append(_line(label, row[median], new_cells[cell]))
    return lines


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print("usage: bench_compare.py OLD.json NEW.json", file=sys.stderr)
        return 0
    old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    print(f"{argv[0]} -> {argv[1]}: new/old, `*` where it is off 1 by more than {MARK_BEYOND:.0%}")
    for line in compare(old, new):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
