"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted on every workload,
that a deliberately corrupted output is counted as a failed op, and that
only the documented verify defect is excused.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def result_of(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def run_toy(workload: str, trace: int) -> "tuple[dict, dict]":
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return result_of(proc.stdout), json.loads(lines[-2])["facts"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result, facts = run_toy(workload, trace)
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    assert result["correct"] is True
    assert result["failed"] == 0
    # find_apsp_violation accepts some lowered entries (a known defect);
    # they are counted as errors, never as more than one op in five
    assert facts["known_defect_ops"] <= result["attempted"] // 5 + 1
    if workload != "verify-mixed":
        assert facts["known_defect_ops"] == 0
    assert facts["inputs_sha256"] and facts["affinity_cpus"]
    if trace == 0:  # end-to-end metrics are never 0
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_same_seed_same_inputs():
    a = run_toy("verify-mixed", 0)[1]["inputs_sha256"]
    b = run_toy("verify-mixed", 0)[1]["inputs_sha256"]
    assert a == b


def test_only_the_documented_verify_defect_is_excused():
    base = np.array([[0.0, 3.0], [np.inf, 0.0]])
    lowered = np.array([[0.0, 1.0], [np.inf, 0.0]])  # accepted by today's verify
    raised = np.array([[0.0, 4.0], [np.inf, 0.0]])
    assert workloads.passes_documented_checks(lowered, base)
    assert not workloads.passes_documented_checks(raised, base)
    ref = workloads.VerdictReference(expected=[0, 1, 1], excused=[False, True, False])
    assert [ref.check(k, 0) for k in range(3)] == [workloads.OK, workloads.KNOWN_DEFECT, workloads.WRONG]
    assert [ref.check(k, 1) for k in range(3)] == [workloads.WRONG, workloads.OK, workloads.OK]


def _corrupt_solve(btas):
    original = btas.cli.matrix_to_text

    def wrong(m):
        text = original(m)
        header, first, rest = text.split("\n", 2)
        tokens = first.split()
        tokens[-1] = "0" if tokens[-1] != "0" else "1"
        return "\n".join([header, " ".join(tokens), rest])
    return btas.cli, "matrix_to_text", wrong


def _corrupt_verify(btas):
    return btas.cli, "find_apsp_violation", lambda adj, result: None


def _reject_everything(btas):
    return btas.cli, "find_apsp_violation", lambda adj, result: "rejected"


def _corrupt_kernel(btas):
    original = btas.matmul

    def wrong(x, y, **kwargs):
        out = original(x, y, **kwargs)
        data = np.array(out.data)
        data[0, 0] += 1.0
        return btas.TropicalMatrix._wrap(out.kind, data, out.integer)
    return btas, "matmul", wrong


@pytest.mark.parametrize("workload, corrupt, all_wrong", [
    ("solve-dense", _corrupt_solve, True),
    ("solve-fw-sparse", _corrupt_solve, True),
    ("verify-mixed", _corrupt_verify, False),
    ("verify-mixed", _reject_everything, False),
    ("kernel-mix", _corrupt_kernel, True),
])
def test_corrupted_output_is_counted_as_failure(monkeypatch, workload, corrupt, all_wrong):
    btas = run.import_btas()
    owner, attr, wrong = corrupt(btas)
    monkeypatch.setattr(owner, attr, wrong)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.3",
                         "--trace", "1", "--scale", "toy"]) == 0
    result = result_of(out.getvalue())
    assert result["correct"] is False
    assert result["failed"] >= 1
    if all_wrong:
        assert result["failed"] == result["attempted"]
    else:  # a verifier that accepts or rejects everything is wrong on some ops, not all
        assert result["failed"] < result["attempted"]
    assert result["metrics"]["op_error_ratio"]["value"] >= result["failed"] / result["attempted"]


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in HERE.glob("*.py"):
            (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
        (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
