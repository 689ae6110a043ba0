"""The btas benchmark: one closed-loop client, one op at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports btas from ``src/`` of the checkout it sits in, generates the
workload's inputs from the seed, and measures for S seconds.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
reports per-layer metrics from spans (see tracing.py) and the tracing
overhead.  Every op's output is checked against a reference computed
before timing starts.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the machine facts and input digests.  Workers stay at btas's default,
``available_parallelism()``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import AllocProbe, Tracer, layer_metrics
from workloads import KNOWN_DEFECT, OK, SCALES, WORKLOADS, WRONG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_TIMEOUT_S = 60.0


def import_btas():
    """Import btas from this checkout's src/ and nowhere else."""
    if not (SRC / "btas" / "__init__.py").is_file():
        raise SystemExit(f"error: no btas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import btas

    if Path(btas.__file__).resolve().parent != SRC / "btas":
        raise SystemExit(f"error: imported btas from {btas.__file__}, not from {SRC}")
    return btas


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def tail_rank(count: int) -> int:
    """0-based rank of the highest percentile with at least ten samples
    beyond it, or of the upper median when there are fewer than twenty."""
    return max(count - 11, count // 2)


def no_span(k: int):
    return contextlib.nullcontext()


class Loop:
    """Runs ops back to back and checks each one outside the timed span.

    ``failed`` counts ops that crashed or were WRONG; ``known_defect``
    counts wrong verdicts excused as a documented defect of the program.
    Both count as errors in the error ratio."""

    def __init__(self, session, reference):
        self.session = session
        self.reference = reference
        self.k = -1  # the untimed first op; measured ops start at 0
        self.reset()
        self._reported = False

    def reset(self) -> None:
        self.attempted = self.failed = self.known_defect = 0

    def error_ratio(self) -> float:
        return (self.failed + self.known_defect) / self.attempted

    def one(self, wrap=no_span) -> "tuple[float, float]":
        k = self.k
        self.k += 1
        self.session.before(k)
        status = WRONG
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with wrap(k):
                out = self.session.op(k)
        except Exception:  # a crashing op is a failed op; keep measuring
            elapsed, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            if not self._reported:
                traceback.print_exc(file=sys.stderr)
                self._reported = True
        else:
            elapsed, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            status = self.reference.check(k, out)
        self.attempted += 1
        self.known_defect += status == KNOWN_DEFECT
        self.failed += status not in (OK, KNOWN_DEFECT)
        return elapsed, cpu

    def run(self, seconds: float, wrap=no_span) -> "tuple[list[float], list[float]]":
        walls, cpus = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, cpu = self.one(wrap)
            walls.append(wall)
            cpus.append(cpu)
        return walls, cpus


def run_setups(args, work: Path, count: int) -> "tuple[list[float], list[float]]":
    """Set-up time and peak RSS of ``count`` fresh processes, each of which
    imports btas, loads the inputs and runs one untimed op.  Each process
    reports its own time since it was spawned: perf_counter reads the
    system-wide monotonic clock, so its readings compare across processes."""
    times, rss = [], []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--scale", args.scale, "--setup-child", str(work),
               "--spawned-at", repr(time.perf_counter())]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
        times.append(report["setup_s"])
        rss.append(report["maxrss_kib"] / 1024.0)
    return times, rss


def setup_child(args) -> int:
    btas = import_btas()
    work = Path(args.setup_child)
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    session = WORKLOADS[args.workload][1](btas, plan)
    session.before(0)
    session.op(0)
    elapsed = time.perf_counter() - args.spawned_at
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": elapsed, "maxrss_kib": maxrss}), flush=True)
    return 0


def program_digest() -> str:
    """sha256 over btas's sources: names the code measured even where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "btas").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> "str | None":
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def facts(args, btas, params: dict, digests: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "inputs_sha256": digests,
        "affinity_cpus": sorted(os.sched_getaffinity(0)),
        "workers": btas.available_parallelism(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "btas_sources_sha256": program_digest(),
    }


def measure(args, btas, session, reference, work: Path, extra_facts: dict) -> "tuple[Loop, dict]":
    loop = Loop(session, reference)
    if args.trace == 0:
        setup_times, rss = run_setups(args, work, SCALES[args.scale]["setups"])
    loop.one()  # untimed first op, as in each set-up process
    loop.reset()

    if args.trace == 0:
        walls, cpus = loop.run(args.seconds)
        extra_facts.update(ops=len(walls), tail_rank=tail_rank(len(walls)), setup_samples_s=setup_times)
        return loop, {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(walls) / sum(walls), "1/s"),
            "op_p50_s": (statistics.median(walls), "s"),
            "op_tail_s": (sorted(walls)[tail_rank(len(walls))], "s"),
            "cpu_per_op_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (statistics.median(rss), "MiB"),
            "op_ok_ratio": (1.0 - loop.error_ratio(), "ratio"),
        }

    plain, _ = loop.run(args.seconds / 2)
    with Tracer(btas) as tracer:
        traced, _ = loop.run(args.seconds / 2, wrap=tracer.op)
    with AllocProbe(btas) as probe:
        loop.one()
    untraced_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    values = layer_metrics(tracer.spans, len(traced))
    values.update({
        "matrix.matmul.peak_alloc_mb": max(probe.peaks, default=0) / 2**20,
        "matrix.threads_alive": threading.active_count(),
        "op_error_ratio": loop.error_ratio(),
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_ratio": 1.0 - traced_rate / untraced_rate,
    })
    extra_facts.update(untraced_ops=len(plain), traced_ops=len(traced), spans=len(tracer.spans))
    return loop, {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


PER_LAYER_UNITS = {
    "graph_io.parse_edge_list.s_per_op": "s",
    "graph_io.read_mb_per_s": "MB/s",
    "graph_io.matrix_to_text.s_per_op": "s",
    "graph_io.write_mb_per_s": "MB/s",
    "graph_io.parse_matrix.s_per_op": "s",
    "graph_io.graph_to_matrix.s_per_op": "s",
    "apsp.floyd_warshall.s_per_op": "s",
    "apsp.apsp_by_squaring.self_s_per_op": "s",
    "apsp.products_per_op": "count",
    "apsp.find_apsp_violation.self_s_per_op": "s",
    "matrix.matmul.calls_per_op": "count",
    "matrix.matmul.semiring_ops_per_op": "count",
    "matrix.matmul.s_per_op": "s",
    "matrix.matmul.semiring_ops_per_s": "1/s",
    "matrix.matmul.cpu_per_wall": "ratio",
    "matrix.matmul.peak_alloc_mb": "MiB",
    "matrix.threads_alive": "count",
    "semiring.saturated_ops_ratio": "ratio",
    "cli.self_s_per_op": "s",
    "op_error_ratio": "ratio",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'toy' is for the smoke test")
    parser.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child is not None:
        return setup_child(args)
    btas = import_btas()
    generate, session_type = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rng = np.random.default_rng([args.seed % 2**64, sorted(WORKLOADS).index(args.workload)])
        plan, reference, digests, params = generate(rng, SCALES[args.scale], work)
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        session = session_type(btas, plan)
        run_facts = facts(args, btas, params, digests)
        loop, metrics = measure(args, btas, session, reference, work, run_facts)
        run_facts["process_maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_facts["threads_alive"] = threading.active_count()
        run_facts["known_defect_ops"] = loop.known_defect
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"facts": run_facts}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
