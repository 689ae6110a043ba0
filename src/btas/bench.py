"""Scaling benchmark: timed sweeps over instance size and worker count.

Instances are regenerated from the seed rather than cached, every record
carries a digest of the computed result so reruns can prove they solved
identical instances, and timing uses a monotonic clock with one untimed
warm-up per cell.  Runs execute strictly sequentially; the only parallelism
is inside matmul.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from dataclasses import dataclass
from enum import Enum
from time import perf_counter
from typing import ClassVar

import numpy as np

from .apsp import Algorithm, apsp_by_squaring, floyd_warshall
from .graph_io import RANDOM_FAMILY, graph_to_matrix, random_graph, require_dense_fits
from .matrix import TileSpec, matmul, tile_plan

CSV_HEADER = "algorithm,n,worker_count,repetitions,median_seconds,min_seconds,max_seconds,seed"


class BenchAlgorithm(Enum):
    """The APSP routes of Algorithm, plus a single product."""

    FLOYD_WARSHALL = Algorithm.FLOYD_WARSHALL.value
    REPEATED_SQUARING = Algorithm.REPEATED_SQUARING.value
    MATMUL_ONLY = "matmul"

    @classmethod
    def from_token(cls, token: str) -> "BenchAlgorithm":
        try:
            return cls(token.strip().lower())
        except ValueError:
            *names, last = [repr(a.value) for a in cls]
            raise ValueError(f"unknown algorithm {token!r} (expected {', '.join(names)}, or {last})") from None


@dataclass(frozen=True, slots=True)
class BenchRecord:
    """One measured cell of the sweep: what was measured, with every
    statistic derived from wall_times.

    result_digest is a sha256 of the computed matrix bytes; identical
    digests across reruns prove the instances (not the timings) match.
    A failed record keeps the sweep position, holds no times and says why
    in note.
    """

    prng_family: ClassVar[str] = RANDOM_FAMILY

    algorithm: BenchAlgorithm
    n: int
    worker_count: int
    seed: int
    wall_times: "tuple[float, ...]"
    result_digest: str = ""
    note: str = ""

    def __post_init__(self) -> None:
        if not self.wall_times and not self.note:
            raise ValueError("a record without wall times needs a note saying why")

    @property
    def failed(self) -> bool:
        return not self.wall_times

    @property
    def repetitions(self) -> int:
        return len(self.wall_times)

    @property
    def median_seconds(self) -> float:
        return statistics.median(self.wall_times) if self.wall_times else math.nan

    @property
    def min_seconds(self) -> float:
        return min(self.wall_times) if self.wall_times else math.nan

    @property
    def max_seconds(self) -> float:
        return max(self.wall_times) if self.wall_times else math.nan


DEFAULT_ALGORITHMS = (BenchAlgorithm.FLOYD_WARSHALL, BenchAlgorithm.REPEATED_SQUARING)


@dataclass(frozen=True, slots=True)
class BenchConfig:
    """Sweep definition; defaults follow the standard size ladder."""

    sizes: "tuple[int, ...]" = (4, 16, 32, 64, 128)
    repetitions: int = 5
    algorithms: "tuple[BenchAlgorithm, ...]" = DEFAULT_ALGORITHMS
    edge_probability: float = 0.5
    weight_range: "tuple[float, float]" = (1.0, 100.0)
    seed: int = 1
    worker_counts: "tuple[int, ...]" = (1,)

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("sizes cannot be empty")
        if any(not isinstance(n, int) or n < 1 for n in self.sizes):
            raise ValueError(f"sizes must be positive integers, got {self.sizes!r}")
        if not self.algorithms:
            raise ValueError("algorithms cannot be empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.worker_counts or any(w < 1 for w in self.worker_counts):
            raise ValueError(f"worker counts must be positive, got {self.worker_counts!r}")
        random_graph(1, self.edge_probability, self.weight_range, self.seed)  # checks p and the weights
        require_dense_fits(max(self.sizes))


def instance_seed(seed: int, n: int) -> int:
    """Per-size instance seed: decorrelates sizes, deterministic per (seed, n)."""
    sequence = np.random.SeedSequence(int(seed) & 0xFFFF_FFFF_FFFF_FFFF, spawn_key=(int(n),))
    return int(sequence.generate_state(1, np.uint64)[0])


def _make_runner(algorithm: BenchAlgorithm, adj, tiles: TileSpec):
    if algorithm is BenchAlgorithm.FLOYD_WARSHALL:
        return lambda: floyd_warshall(adj).distances.dist
    if algorithm is BenchAlgorithm.REPEATED_SQUARING:
        return lambda: apsp_by_squaring(adj, tiles=tiles).distances.dist
    return lambda: matmul(adj, adj, tiles=tiles)


def run_benchmark(config: BenchConfig) -> "list[BenchRecord]":
    """Measure every (algorithm, n, worker_count) cell sequentially.

    Per cell: regenerate the instance from instance_seed(seed, n), one
    untimed warm-up, then `repetitions` timed solves.  Resource exhaustion
    marks the record failed and the sweep continues.
    """
    records = []
    for algorithm in config.algorithms:
        for n in config.sizes:
            cell_seed = instance_seed(config.seed, n)
            for worker_count in config.worker_counts:
                try:
                    graph = random_graph(n, config.edge_probability, config.weight_range, cell_seed)
                    adj = graph_to_matrix(graph)
                    runner = _make_runner(algorithm, adj, tile_plan(n, n, worker_count))
                    result = runner()  # warm-up, untimed
                    digest = hashlib.sha256(result.tobytes()).hexdigest()
                    times = []
                    for _ in range(config.repetitions):
                        start = perf_counter()
                        runner()
                        times.append(perf_counter() - start)
                except MemoryError as exc:
                    note = f"out of memory: {exc}"
                    records.append(BenchRecord(algorithm, n, worker_count, config.seed, (), note=note))
                    continue
                records.append(BenchRecord(algorithm, n, worker_count, config.seed, tuple(times), digest))
    return records


def emit_csv(records: "list[BenchRecord]", destination) -> int:
    """Write measured records as CSV, sorted by (algorithm, n, worker_count).

    Failed records hold no statistics and are omitted from the table; the
    returned count says how many rows were written.  `destination` is a
    text file object.
    """
    if not records:
        raise ValueError("no records to emit")
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    rows = 0
    ordered = sorted(
        (r for r in records if not r.failed),
        key=lambda r: (r.algorithm.value, r.n, r.worker_count),
    )
    for r in ordered:
        writer.writerow(
            [
                r.algorithm.value,
                r.n,
                r.worker_count,
                r.repetitions,
                repr(r.median_seconds),
                repr(r.min_seconds),
                repr(r.max_seconds),
                r.seed,
            ]
        )
        rows += 1
    return rows
