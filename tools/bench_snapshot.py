"""Record one point of the benchmark trajectory as a BENCH_*.json file.

    python3 tools/bench_snapshot.py --out BENCH_002.json [--checkout DIR]

For each perfbench workload it runs `perfbench/run.py --trace 0` three times
and `--trace 1` once in the checkout, with seed 1 and the `run_seconds` of
the checkout's BENCHMARK.json, and keeps the final JSON line of each (with
the facts line printed before it).  Of the three `--trace 0` runs, the one
with the median `op_p50_s` is stored as the run's `result`, as a snapshot
with one run per mode stores its only run, and all three results are kept
under `repeats`, so that a comparison can tell a change from the spread
between runs.  Then it runs `btas bench --sizes 128,256,512,1024 --algorithm
all --workers 1,2` and keeps its CSV as rows under `bench`.  Those weights
are integers, which take Floyd-Warshall's float32 pass, so it also runs
`btas bench --algorithm fw --sizes 512,1024 --workers 1 --weights 0.1:10.7`,
whose weights take the float64 pass, and keeps that CSV under
`bench_fw_float64`.  Runs are sequential; nothing else should load the
machine meanwhile.  The checkout defaults to the one holding this script;
point it at another checkout to measure that code with the same procedure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("solve-dense", "solve-fw-sparse", "verify-mixed", "kernel-mix")
SEED = 1
#: `--trace 0` runs per workload; the one with the median op_p50_s is the `result`.
REPEATS = 3
#: Each `btas bench` sweep, by the snapshot key its CSV is kept under.
SWEEPS = {
    "bench": ["bench", "--sizes", "128,256,512,1024", "--algorithm", "all", "--workers", "1,2"],
    "bench_fw_float64": ["bench", "--sizes", "512,1024", "--algorithm", "fw", "--workers", "1",
                         "--weights", "0.1:10.7"],
}


def _run(checkout: Path, argv: "list[str]") -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return done.stdout


def _number(token: str) -> "int | float | str":
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    seconds = json.loads((args.checkout / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = ["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds), "--trace", str(trace)]
            repeats = []
            for _ in range(REPEATS if trace == 0 else 1):
                facts, result = _run(args.checkout, argv).strip().splitlines()[-2:]
                repeats.append({**json.loads(facts), "result": json.loads(result)})
            run = repeats[0]
            if len(repeats) > 1:  # in run order; the median op_p50_s run is the result
                by_p50 = sorted(repeats, key=lambda r: r["result"]["metrics"]["op_p50_s"]["value"])
                run = {**by_p50[len(by_p50) // 2], "repeats": [r["result"] for r in repeats]}
            runs[f"{workload} --trace {trace}"] = run
            print(f"{workload} --trace {trace}: done", file=sys.stderr)
    snapshot = {
        "facts": runs[f"{WORKLOADS[0]} --trace 0"]["facts"],
        "perfbench": {"seed": SEED, "seconds": seconds, "runs": runs},
    }
    for key, bench_args in SWEEPS.items():
        header, *rows = csv.reader(_run(args.checkout, ["-m", "btas", *bench_args]).splitlines())
        snapshot[key] = {"argv": ["btas", *bench_args], "header": header, "rows": [list(map(_number, r)) for r in rows]}
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
