import io
import math

import pytest

from btas.bench import (
    CSV_HEADER,
    BenchAlgorithm,
    BenchConfig,
    BenchRecord,
    emit_csv,
    instance_seed,
    run_benchmark,
)
from btas.graph_io import RANDOM_FAMILY
from btas.matrix import tile_plan


def test_instance_seed_is_deterministic_and_size_dependent():
    assert instance_seed(42, 16) == instance_seed(42, 16)
    assert instance_seed(42, 16) != instance_seed(42, 32)
    assert instance_seed(41, 16) != instance_seed(42, 16)
    assert 0 <= instance_seed(1, 4) < 2**64


def test_bench_tiles_are_row_strips():
    tiles = tile_plan(128, 128, 4)
    assert tiles.tile_cols == 128
    assert tiles.tile_rows == 8
    assert tiles.worker_count == 4
    assert tile_plan(4, 4, 16).tile_rows == 1


def test_record_invariants_enforced():
    with pytest.raises(ValueError):
        BenchRecord(
            algorithm=BenchAlgorithm.FLOYD_WARSHALL,
            n=4,
            worker_count=1,
            seed=1,
            repetitions=3,
            wall_times=(0.1, 0.2),
            median_seconds=0.15,
            result_digest="d",
        )
    with pytest.raises(ValueError):
        BenchRecord(
            algorithm=BenchAlgorithm.FLOYD_WARSHALL,
            n=4,
            worker_count=1,
            seed=1,
            repetitions=2,
            wall_times=(0.1, 0.2),
            median_seconds=0.5,
            result_digest="d",
        )
    with pytest.raises(ValueError):
        BenchRecord(
            algorithm=BenchAlgorithm.FLOYD_WARSHALL,
            n=4,
            worker_count=1,
            seed=1,
            repetitions=0,
            wall_times=(),
            median_seconds=math.nan,
            result_digest="",
        )


def test_record_constructors():
    r = BenchRecord.from_times(BenchAlgorithm.MATMUL_ONLY, 8, 2, 7, [3.0, 1.0, 2.0], "abc")
    assert r.median_seconds == 2.0
    assert r.min_seconds == 1.0
    assert r.max_seconds == 3.0
    assert r.repetitions == 3
    assert r.prng_family == RANDOM_FAMILY
    failed = BenchRecord.from_failure(BenchAlgorithm.MATMUL_ONLY, 8, 2, 7, "oom")
    assert failed.failed and failed.repetitions == 0
    assert math.isnan(failed.median_seconds)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(sizes=())
    with pytest.raises(ValueError):
        BenchConfig(sizes=(0,))
    with pytest.raises(ValueError):
        BenchConfig(algorithms=())
    with pytest.raises(ValueError):
        BenchConfig(repetitions=0)
    with pytest.raises(ValueError):
        BenchConfig(worker_counts=(0,))


def test_algorithm_tokens():
    assert BenchAlgorithm.from_token("fw") is BenchAlgorithm.FLOYD_WARSHALL
    assert BenchAlgorithm.from_token("SQUARE") is BenchAlgorithm.REPEATED_SQUARING
    with pytest.raises(ValueError):
        BenchAlgorithm.from_token("gpu")


def small_config(**overrides):
    base = dict(
        sizes=(3, 5),
        repetitions=2,
        algorithms=(
            BenchAlgorithm.FLOYD_WARSHALL,
            BenchAlgorithm.REPEATED_SQUARING,
            BenchAlgorithm.MATMUL_ONLY,
        ),
        seed=99,
        worker_counts=(1, 2),
    )
    base.update(overrides)
    return BenchConfig(**base)


def test_run_benchmark_shapes_and_determinism():
    config = small_config()
    records = run_benchmark(config)
    assert len(records) == 3 * 2 * 2
    assert all(r.repetitions == 2 and len(r.wall_times) == 2 for r in records)
    assert all(r.result_digest for r in records)

    # rerunning solves identical instances: timings move, digests do not
    again = run_benchmark(config)
    assert [r.result_digest for r in records] == [r.result_digest for r in again]

    # the two solvers agree entrywise, so their digests match per size
    by_key = {(r.algorithm, r.n, r.worker_count): r.result_digest for r in records}
    for n in (3, 5):
        assert (
            by_key[(BenchAlgorithm.FLOYD_WARSHALL, n, 1)]
            == by_key[(BenchAlgorithm.REPEATED_SQUARING, n, 1)]
            == by_key[(BenchAlgorithm.REPEATED_SQUARING, n, 2)]
        )


def test_emit_csv_single_record():
    record = BenchRecord.from_times(BenchAlgorithm.MATMUL_ONLY, 8, 1, 7, [3.0, 1.0, 2.0], "abc")
    buffer = io.StringIO()
    assert emit_csv([record], buffer) == 1
    lines = buffer.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].split(",")[4] == "2.0"


def test_emit_csv_sorts_rows():
    rows = [
        BenchRecord.from_times(BenchAlgorithm.REPEATED_SQUARING, 16, 1, 7, [0.2], "a"),
        BenchRecord.from_times(BenchAlgorithm.FLOYD_WARSHALL, 16, 1, 7, [0.1], "b"),
        BenchRecord.from_times(BenchAlgorithm.FLOYD_WARSHALL, 4, 2, 7, [0.1], "c"),
        BenchRecord.from_times(BenchAlgorithm.FLOYD_WARSHALL, 4, 1, 7, [0.1], "d"),
    ]
    buffer = io.StringIO()
    assert emit_csv(rows, buffer) == 4
    keys = [tuple(line.split(",")[:3]) for line in buffer.getvalue().splitlines()[1:]]
    assert keys == [
        ("fw", "4", "1"),
        ("fw", "4", "2"),
        ("fw", "16", "1"),
        ("square", "16", "1"),
    ]


def test_emit_csv_round_trips_numeric_fields():
    records = run_benchmark(small_config(sizes=(4,), worker_counts=(1,)))
    buffer = io.StringIO()
    emit_csv(records, buffer)
    lines = buffer.getvalue().splitlines()
    by_key = {(r.algorithm.value, str(r.n)): r for r in records}
    for line in lines[1:]:
        alg, n, workers, reps, med, lo, hi, seed = line.split(",")
        record = by_key[(alg, n)]
        assert int(workers) == record.worker_count
        assert int(reps) == record.repetitions
        assert float(med) == record.median_seconds
        assert float(lo) == record.min_seconds
        assert float(hi) == record.max_seconds
        assert int(seed) == record.seed


def test_emit_csv_skips_failed_records():
    ok = BenchRecord.from_times(BenchAlgorithm.FLOYD_WARSHALL, 4, 1, 7, [0.1], "x")
    broken = BenchRecord.from_failure(BenchAlgorithm.FLOYD_WARSHALL, 8, 1, 7, "oom")
    buffer = io.StringIO()
    assert emit_csv([broken, ok], buffer) == 1
    assert len(buffer.getvalue().splitlines()) == 2


def test_emit_csv_rejects_empty_input():
    with pytest.raises(ValueError):
        emit_csv([], io.StringIO())
