import math
import os
import random
import shutil
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from btas import _compiled, apsp, graph_io, semiring
from btas.apsp import (
    Algorithm,
    DistanceMatrix,
    apsp_by_squaring,
    find_apsp_violation,
    floyd_warshall,
    verify_apsp,
)
from btas.graph_io import Graph, graph_to_matrix, matrix_to_text, random_graph
from btas.matrix import (
    DimensionMismatch,
    SemiringMismatch,
    TileSpec,
    TropicalMatrix,
    identity_matrix,
    matmul,
    ew_add,
)
from btas.semiring import SemiringKind, reset_saturation, saturation_seen

MIN = SemiringKind.MIN_PLUS
INF = math.inf

THREE_NODE = Graph(3, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0)))


def random_instance(rng, n, lo=0, hi=100, p=0.5):
    return random_graph(n, p, (lo, hi), rng.randrange(2**63))


def assert_matches_enumeration(graph, report):
    want = oracles.enumerate_distances(graph.n, graph.edges)
    got = oracles.from_symbolic(report.distances.dist.to_lists())
    assert got == want


def test_three_node_example_floyd_warshall():
    report = floyd_warshall(graph_to_matrix(THREE_NODE))
    assert report.algorithm is Algorithm.FLOYD_WARSHALL
    assert report.distances.dist.weight_at(0, 2).value == 3
    assert report.distances.dist.to_lists() == [[0, 1, 3], [INF, 0, 2], [INF, INF, 0]]
    assert not report.negative_cycle
    assert report.multiplications_performed == 0
    assert_matches_enumeration(THREE_NODE, report)


def _recorded_fw_buffers(monkeypatch, adj):
    """(size, dtype, address mod 64) of each buffer floyd_warshall(adj) takes
    from _aligned_empty, after checking that recording leaves its bytes alone."""
    buffers = []

    def recording(size, dtype=np.float64):
        buf = aligned_empty(size, dtype)
        buffers.append((size, buf.dtype, buf.ctypes.data % 64))
        return buf

    aligned_empty = apsp._aligned_empty
    want = floyd_warshall(adj).distances.dist.tobytes()
    with monkeypatch.context() as patch:
        patch.setattr(apsp, "_aligned_empty", recording)
        assert floyd_warshall(adj).distances.dist.tobytes() == want
    return buffers


# integer weights take the float32 pass, non-dyadic ones the float64 pass
ALIGNMENT_INPUTS = ((np.float32, (1, 9)), (np.float64, (0.1, 9.0)))


def test_floyd_warshall_candidate_buffer_starts_on_a_cache_line(monkeypatch):
    monkeypatch.setattr(apsp, "_compiled_relax", lambda: None)  # only the numpy loop takes candidates
    for dtype, weights in ALIGNMENT_INPUTS:
        adj = graph_to_matrix(random_graph(24, 0.3, weights, 5))
        assert _recorded_fw_buffers(monkeypatch, adj) == [(24 * 24, np.dtype(dtype), 0)]


def test_three_node_example_squaring_agrees():
    adj = graph_to_matrix(THREE_NODE)
    fw = floyd_warshall(adj)
    sq = apsp_by_squaring(adj)
    assert sq.algorithm is Algorithm.REPEATED_SQUARING
    assert sq.distances.dist == fw.distances.dist
    assert_matches_enumeration(THREE_NODE, sq)


def test_edgeless_graph_distances_are_identity():
    adj = graph_to_matrix(Graph(4, ()))
    for report in (floyd_warshall(adj), apsp_by_squaring(adj)):
        assert report.distances.dist == identity_matrix(MIN, 4)
        assert not report.negative_cycle


def test_two_cycle_negative_cycle_detected():
    adj = graph_to_matrix(Graph(2, ((0, 1, -2.0), (1, 0, 1.0))))
    assert floyd_warshall(adj).negative_cycle
    assert apsp_by_squaring(adj).negative_cycle
    assert oracles.has_negative_cycle(2, ((0, 1, -2.0), (1, 0, 1.0)))


def test_single_vertex():
    adj = graph_to_matrix(Graph(1, ()))
    report = apsp_by_squaring(adj)
    assert report.distances.dist.to_lists() == [[0]]
    assert report.multiplications_performed == 0
    assert not report.negative_cycle


def test_single_vertex_negative_self_loop():
    adj = graph_to_matrix(Graph(1, ((0, 0, -1.0),)))
    assert floyd_warshall(adj).negative_cycle
    assert apsp_by_squaring(adj).negative_cycle


def test_path_graph_multiplication_budget():
    adj = graph_to_matrix(Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))))
    report = apsp_by_squaring(adj)
    assert report.distances.dist.weight_at(0, 3).value == 3
    assert report.multiplications_performed <= 4


def test_multiplication_count_stays_logarithmic():
    rng = random.Random(0xACE)
    for n in (2, 3, 5, 9, 17, 33, 64, 128):
        adj = graph_to_matrix(random_instance(rng, n))
        report = apsp_by_squaring(adj)
        budget = 0 if n == 2 else 2 * math.ceil(math.log2(n - 1))
        assert report.multiplications_performed <= budget


def test_fixpoint_early_exit_still_exact():
    # complete graph saturates in one squaring, well before n-1
    n = 9
    edges = tuple((i, j, 1.0) for i in range(n) for j in range(n) if i != j)
    adj = graph_to_matrix(Graph(n, edges))
    report = apsp_by_squaring(adj)
    assert report.distances.dist == floyd_warshall(adj).distances.dist
    assert report.multiplications_performed <= 2


def test_algorithms_agree_with_enumeration():
    rng = random.Random(0xD15)
    for case in range(120):
        n = 1 + case % 7
        graph = random_instance(rng, n, p=(0.1, 0.5, 0.9)[case % 3])
        adj = graph_to_matrix(graph)
        fw = floyd_warshall(adj)
        sq = apsp_by_squaring(adj)
        assert fw.distances.dist == sq.distances.dist
        assert_matches_enumeration(graph, fw)


def test_algorithms_agree_on_midsize_instances():
    rng = random.Random(0xBEEF)
    for _ in range(20):
        graph = random_instance(rng, rng.randint(8, 32))
        adj = graph_to_matrix(graph)
        assert floyd_warshall(adj).distances.dist == apsp_by_squaring(adj).distances.dist


def test_negative_cycle_flags_match_enumeration():
    rng = random.Random(0xF00)
    flagged = 0
    for _ in range(80):
        graph = random_instance(rng, rng.randint(1, 7), lo=-3, hi=10)
        adj = graph_to_matrix(graph)
        fw = floyd_warshall(adj)
        sq = apsp_by_squaring(adj)
        expected = oracles.has_negative_cycle(graph.n, graph.edges)
        assert fw.negative_cycle == expected
        assert sq.negative_cycle == expected
        flagged += expected
        if not expected:
            assert fw.distances.dist == sq.distances.dist
            assert_matches_enumeration(graph, fw)
    assert 0 < flagged < 80  # the sample must exercise both outcomes


def test_closure_is_idempotent():
    rng = random.Random(0xC10)
    for _ in range(10):
        adj = graph_to_matrix(random_instance(rng, rng.randint(2, 12)))
        d = apsp_by_squaring(adj).distances.dist
        assert ew_add(matmul(d, d), d) == d


def test_squaring_is_deterministic_across_worker_counts():
    rng = random.Random(0xDE7)
    for _ in range(6):
        adj = graph_to_matrix(random_instance(rng, rng.randint(2, 48)))
        reference = apsp_by_squaring(adj, tiles=TileSpec(8, 8, 1)).distances.dist.tobytes()
        for workers in (2, 4, 8):
            got = apsp_by_squaring(adj, tiles=TileSpec(8, 8, workers)).distances.dist.tobytes()
            assert got == reference


def shifted(graph, rng, spread):
    """The graph with w(u,v) + p(u) - p(v): same shortest paths, no new
    negative cycles, but negative weights and (for real p) float sums."""
    pot = [rng.uniform(-spread, spread) for _ in range(graph.n)]
    return Graph(graph.n, tuple((s, d, w + pot[s] - pot[d]) for s, d, w in graph.edges))


def test_verify_accepts_producer_output():
    rng = random.Random(0xFADE)
    graphs = [random_instance(rng, rng.randint(1, 12)) for _ in range(15)]
    graphs += [random_instance(rng, rng.randint(2, 40), 0.1, 10.7, rng.choice((0.1, 0.5)))
               for _ in range(15)]
    graphs += [shifted(random_instance(rng, rng.randint(2, 40), 0.1, 10.7), rng, 50.0)
               for _ in range(15)]
    # squaring and FW group this instance's float sums differently
    graphs.append(random_graph(32, 0.1, (0.1, 10.7), 1736404157))
    for graph in graphs:
        adj = graph_to_matrix(graph)
        assert verify_apsp(adj, floyd_warshall(adj).distances)
        assert verify_apsp(adj, apsp_by_squaring(adj).distances)


def test_verify_accepts_identity_for_empty_graph():
    adj = graph_to_matrix(Graph(3, ()))
    assert verify_apsp(adj, DistanceMatrix.from_matrix(identity_matrix(MIN, 3)))


def test_verify_rejects_slack_entry():
    adj = graph_to_matrix(THREE_NODE)
    stale = TropicalMatrix(MIN, [[0, 1, 5], [INF, 0, 2], [INF, INF, 0]])
    assert not verify_apsp(adj, DistanceMatrix.from_matrix(stale))
    violation = find_apsp_violation(adj, DistanceMatrix.from_matrix(stale))
    assert violation == "entry (0,2) is 5.0, the shortest distance is 3.0"


def test_verify_names_each_violation_kind():
    adj = graph_to_matrix(THREE_NODE)
    good = floyd_warshall(adj).distances.dist.to_lists()

    broken_diag = [row[:] for row in good]
    broken_diag[1][1] = 2.0
    violation = find_apsp_violation(adj, DistanceMatrix.from_matrix(TropicalMatrix(MIN, broken_diag)))
    assert violation == "entry (1,1) is 2.0, the shortest distance is 0.0"

    above_edge = [row[:] for row in good]
    above_edge[0][1] = 9.0
    violation = find_apsp_violation(adj, DistanceMatrix.from_matrix(TropicalMatrix(MIN, above_edge)))
    assert violation == "entry (0,1) is 9.0, the shortest distance is 1.0"

    assert find_apsp_violation(adj, floyd_warshall(adj).distances) is None


@st.composite
def integer_graphs_with_negative_weights(draw):
    """Non-negative integer weights shifted by integer vertex potentials:
    negative edges but no negative cycle."""
    n = draw(st.integers(1, 7))
    pot = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    vertex = st.integers(0, n - 1)
    raw = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 20)), max_size=3 * n))
    return Graph(n, tuple((s, d, float(w + pot[s] - pot[d])) for s, d, w in raw))


@given(integer_graphs_with_negative_weights(), st.data())
def test_verify_rejects_every_one_entry_mutant(graph, data):
    adj = graph_to_matrix(graph)
    solve = data.draw(st.sampled_from([floyd_warshall, apsp_by_squaring]))
    good = solve(adj).distances.dist.to_lists()
    assert verify_apsp(adj, DistanceMatrix.from_matrix(TropicalMatrix(MIN, good)))
    i, j = data.draw(st.integers(0, graph.n - 1)), data.draw(st.integers(0, graph.n - 1))
    if good[i][j] == INF:
        good[i][j] = float(data.draw(st.integers(-100, 100)))
    else:
        good[i][j] += data.draw(st.sampled_from([-1.0, 1.0]))
    assert not verify_apsp(adj, DistanceMatrix.from_matrix(TropicalMatrix(MIN, good)))


def test_verify_shape_mismatch_raises():
    adj = graph_to_matrix(THREE_NODE)
    small = DistanceMatrix.from_matrix(identity_matrix(MIN, 2))
    with pytest.raises(DimensionMismatch):
        find_apsp_violation(adj, small)


def test_solvers_reject_bad_inputs():
    rect = TropicalMatrix(MIN, [[0, 1, 2], [3, 0, 4]])
    wrong_kind = TropicalMatrix(SemiringKind.MAX_PLUS, [[0]])
    for solver in (floyd_warshall, apsp_by_squaring):
        with pytest.raises(DimensionMismatch):
            solver(rect)
        with pytest.raises(SemiringMismatch):
            solver(wrong_kind)


def test_distance_matrix_wrapper_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(2, TropicalMatrix(SemiringKind.MAX_PLUS, [[0, 1], [1, 0]]))
    with pytest.raises(DimensionMismatch):
        DistanceMatrix(3, identity_matrix(MIN, 2))


def test_floyd_warshall_integer_saturation_near_exactness_limit():
    # 0→1→3 sums to 2^53 and saturates; 0→2→3 stays the finite shortest path
    big = float(2**52)
    graph = Graph(4, ((0, 1, big), (1, 3, big), (0, 2, 1.0), (2, 3, 1.0), (1, 2, big)))
    reset_saturation()
    report = floyd_warshall(graph_to_matrix(graph))
    assert report.distances.dist.integer
    assert report.distances.dist.to_lists() == [
        [0, big, 1, 2],
        [INF, 0, big, big],
        [INF, INF, 0, 1],
        [INF, INF, INF, 0],
    ]
    assert saturation_seen()
    reset_saturation()


def test_floyd_warshall_screen_trip_without_saturation_leaves_flag_clear():
    # 2(n+1)·max|w| reaches 2^53, but no actual path sum does
    big = float(2**50)
    graph = Graph(3, ((0, 1, big), (1, 2, 1.0)))
    reset_saturation()
    report = floyd_warshall(graph_to_matrix(graph))
    assert report.distances.dist.to_lists() == [[0, big, big + 1], [INF, 0, 1], [INF, INF, 0]]
    assert not saturation_seen()


def test_floyd_warshall_float_saturation_on_overflow():
    # -1e308 + -1e308 overflows to -inf; it must saturate to no-path instead
    graph = Graph(3, ((0, 1, -1e308), (1, 2, -1e308)))
    reset_saturation()
    report = floyd_warshall(graph_to_matrix(graph))
    assert not report.distances.dist.integer
    assert report.distances.dist.to_lists() == [[0, -1e308, INF], [INF, 0, -1e308], [INF, INF, 0]]
    assert saturation_seen()
    reset_saturation()


@pytest.mark.parametrize("weight", [3.0 * 2**50, 1e308])
def test_floyd_warshall_saturates_upward_sums_that_no_shorter_path_undercuts(weight):
    """A chain of three equal positive edges: the two- and three-edge sums
    reach 2^53 (integer) or overflow (float), and no other path is finite,
    so the saturated sum is the only candidate and must itself become
    no-path."""
    adj = graph_to_matrix(Graph(4, ((0, 1, weight), (1, 2, weight), (2, 3, weight))))
    want, cycle, saturated = oracles.floyd_warshall_reference(adj.to_lists(), adj.integer)
    reset_saturation()
    report = floyd_warshall(adj)
    assert report.distances.dist.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert saturation_seen() and saturated and not cycle
    two = 2 * weight if adj.integer else INF  # 3·2^51 stays below 2^53
    assert report.distances.dist.to_lists() == [
        [0, weight, two, INF],
        [INF, 0, weight, two],
        [INF, INF, 0, weight],
        [INF, INF, INF, 0],
    ]
    reset_saturation()


@pytest.mark.parametrize("weight", [-1e300, -1.0])
def test_floyd_warshall_saturates_what_a_negative_cycle_drives_past_the_limit(weight):
    """A complete digraph of negative edges: its screen 2(n+1)·max|w| stays
    under the limit, yet unmasked rounds drive every entry to -inf (float)
    or far below -2^53 (integer), since a negative cycle can double an
    entry each round."""
    n = 64
    adj = graph_to_matrix(Graph(n, [(i, j, weight) for i in range(n) for j in range(n) if i != j]))
    assert 2.0 * (n + 1) * abs(weight) < (2.0**53 if adj.integer else INF)
    want, cycle, saturated = oracles.floyd_warshall_reference(adj.to_lists(), adj.integer)
    reset_saturation()
    report = floyd_warshall(adj)
    dist = report.distances.dist
    assert dist.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert report.negative_cycle and cycle
    assert saturation_seen() and saturated
    assert dist.integer == (weight == -1.0)
    assert not np.isneginf(dist.data).any()
    if dist.integer:
        assert (np.abs(dist.data[np.isfinite(dist.data)]) < 2.0**53).all()
    reset_saturation()


@st.composite
def graphs_with_large_negative_cycles(draw):
    """Dense graphs whose weights are small multiples of one scale, chosen
    so the screen 2(n+1)·max|w| stays under the limit (2^53 for integers,
    overflow for floats) while negative cycles can still drive entries past it."""
    n = draw(st.integers(1, 9))
    top = 50 if draw(st.booleans()) else 1020  # 2^50: integer weights, 2^1020: float weights
    scale = 2.0 ** (top - math.ceil(math.log2(n + 1)) - draw(st.integers(0, 2)))
    vertex, multiple = st.integers(0, n - 1), st.sampled_from([-3, -2, -1, 1, 2])
    edges = draw(st.lists(st.tuples(vertex, vertex, multiple), min_size=n * n // 2, max_size=2 * n * n))
    return Graph(n, [(s, d, m * scale) for s, d, m in edges])


@given(graphs_with_large_negative_cycles(), st.data())
def test_floyd_warshall_matches_the_always_masking_reference(graph, data):
    """Same bytes, negative-cycle flag and saturation flag as the oracle,
    which masks every sum; the rounds run in several blocks."""
    adj = graph_to_matrix(graph)
    want, cycle, saturated = oracles.floyd_warshall_reference(adj.to_lists(), adj.integer)
    with pytest.MonkeyPatch.context() as patch:
        _shrink_budget(patch, graph.n, data.draw(st.integers(1, graph.n)))
        reset_saturation()
        report = floyd_warshall(adj)
    assert report.distances.dist.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert report.negative_cycle == cycle
    assert saturation_seen() == saturated
    reset_saturation()


def test_floyd_warshall_peak_memory_on_a_dense_graph():
    """FW holds one copy of the input and one candidate buffer: its peak
    stays below 2.5 n x n float64 matrices."""
    n = 256
    adj = graph_to_matrix(random_graph(n, 1.0, (1, 100), 7))
    tracemalloc.start()
    try:
        floyd_warshall(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n^2 float64"


def _shrink_budget(monkeypatch, n, b):
    """Make floyd_warshall relax n-vertex inputs in row blocks of b."""
    monkeypatch.setattr(apsp, "_TASK_BYTES", 16 * n * b)


def _with_potentials(graph, rng, integral):
    """The same shortest paths, with weights shifted by random vertex potentials."""
    pot = [rng.randrange(-50, 50) if integral else rng.uniform(-50, 50) for _ in range(graph.n)]
    return Graph(graph.n, [(s, t, w + pot[s] - pot[t]) for s, t, w in graph.edges])


def _overflowing_dag(n, rng):
    """Forward edges of -1e308, 1.5 or 2.25: long paths overflow a double."""
    edges = [(i, j, rng.choice((-1e308, 1.5, 2.25))) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    return Graph(n, edges)


BLOCKED_INPUTS = {
    "integers": lambda n, rng: random_instance(rng, n, 1, 100, 0.3),
    "floats": lambda n, rng: random_instance(rng, n, 0.1, 10.7, 0.3),
    "integer-potentials": lambda n, rng: _with_potentials(random_instance(rng, n, 1, 100, 0.3), rng, True),
    "float-potentials": lambda n, rng: _with_potentials(random_instance(rng, n, 0.1, 10.7, 0.3), rng, False),
    "negative-cycles": lambda n, rng: random_instance(rng, n, -3, 40, 0.2),
    "near-2^53": lambda n, rng: random_instance(rng, n, 2**49, 2**50, 0.15),
    "float-overflow": _overflowing_dag,
}


@pytest.mark.parametrize("kind", sorted(BLOCKED_INPUTS))
def test_floyd_warshall_row_blocks_match_the_k_outermost_reference(monkeypatch, kind):
    """Several blocks, the last one ragged: same bytes, negative-cycle flag and saturation flag."""
    rng = random.Random(kind)
    flags = set()
    for n, b in ((1, 1), (2, 1), (5, 2), (13, 4), (17, 17), (24, 7), (31, 8), (40, 6), (40, 39)):
        adj = graph_to_matrix(BLOCKED_INPUTS[kind](n, rng))
        want, cycle, saturated = oracles.floyd_warshall_reference(adj.to_lists(), adj.integer)
        _shrink_budget(monkeypatch, n, b)
        reset_saturation()
        report = floyd_warshall(adj)
        assert report.distances.dist.tobytes() == np.array(want, dtype=np.float64).tobytes(), (n, b)
        assert report.negative_cycle == cycle, (n, b)
        assert saturation_seen() == saturated, (n, b)
        flags.add((cycle, saturated))
    reset_saturation()
    if kind == "negative-cycles":
        assert (True, False) in flags
    if kind in ("near-2^53", "float-overflow"):
        assert (False, True) in flags


def test_floyd_warshall_default_budget_blocks_match_one_block(monkeypatch):
    # n=384 takes blocks of 170, 170 and 44 rows under the default budget
    rng = random.Random(384)
    graph = _with_potentials(random_instance(rng, 384, 0.1, 10.7, 0.05), rng, False)
    adj = graph_to_matrix(graph)
    blocked = floyd_warshall(adj)
    monkeypatch.setattr(apsp, "_TASK_BYTES", 16 * 384 * 384)
    plain = floyd_warshall(adj)
    assert blocked.distances.dist.tobytes() == plain.distances.dist.tobytes()
    assert blocked.negative_cycle == plain.negative_cycle


def test_floyd_warshall_multi_block_buffers_start_on_cache_lines(monkeypatch):
    monkeypatch.setattr(apsp, "_compiled_relax", lambda: None)  # only the numpy loop takes candidates
    _shrink_budget(monkeypatch, 24, 5)
    for dtype, weights in ALIGNMENT_INPUTS:
        adj = graph_to_matrix(random_graph(24, 0.3, weights, 5))
        buffers = _recorded_fw_buffers(monkeypatch, adj)
        assert buffers == [(5 * 24, np.dtype(dtype), 0)] * 2  # candidates, then the snapshots


def test_floyd_warshall_peak_memory_in_eight_row_blocks(monkeypatch):
    """Blocked FW holds its copy of the input, one strip of candidates and
    one strip of snapshots (0.25 n x n float64 matrices in 8 blocks), plus
    the two bufsize-element buffers numpy's iterator takes for the
    broadcast add, never an n x n candidate buffer."""
    n = 256
    adj = graph_to_matrix(random_graph(n, 1.0, (1, 100), 7))
    _shrink_budget(monkeypatch, n, n // 8)
    tracemalloc.start()
    try:
        floyd_warshall(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 1.25 * n * n * 8 + 2 * np.getbufsize() * 8 + 16 * 1024
    assert peak < bound, f"peak {peak / (n * n * 8):.3f} n^2 float64"


def _complete_digraph(n, weight):
    return Graph(n, [(i, j, weight) for i in range(n) for j in range(n) if i != j])


@st.composite
def dyadic_graphs(draw):
    """Weights that are multiples of 2^-s (s = 0..3), or of 0.1 or 1/3, whose
    largest magnitude puts FW's screen 2(n+1)·max|w| far under 2^(24-s),
    just under it, or at or past it.  Negative weights make negative cycles;
    with small weights they stay above -2^(24-s), with large ones they
    can escape below it."""
    n = draw(st.integers(1, 12))
    s = draw(st.integers(0, 3))
    unit = draw(st.sampled_from([2.0**-s] * 4 + [0.1, 1 / 3]))
    # top·2^-s puts the screen just under 2^(24-s), top+1 at or past it (at it when n+1 is a power of 2)
    top = (2**24 - 1) // (2 * (n + 1)) + draw(st.sampled_from([0, 1]))
    span = draw(st.sampled_from([20, top]))
    low = draw(st.sampled_from([0, -1, -(span // 8), -span]))
    # uniform multiples: dense negative ones often end between -2^(24-s) and a few times that
    rng = draw(st.randoms(use_true_random=False))
    edges = [(rng.randrange(n), rng.randrange(n), rng.randint(low, span)) for _ in range(rng.randint(0, 2 * n * n))]
    # one edge of the largest multiple sets the screen, one of the unit itself sets s
    edges += [(0, n - 1, span), (n - 1, 0, 1)]
    return Graph(n, [(u, v, m * unit) for u, v, m in edges])


# negative cycles whose float32 sums round just past -2^(24-s): quarters (s = 2), then integers
ROUNDING_JUST_PAST_THE_FLOOR = (
    Graph(4, [(0, 1, -319335.0), (0, 2, -145562.75), (0, 3, -92571.75), (1, 0, -381972.25), (1, 1, 259930.25),
              (1, 2, -381935.75), (2, 0, -308867.0), (2, 1, -47388.0), (3, 0, -165034.5), (3, 2, -242002.0)]),
    Graph(5, [(0, 0, 1229940.0), (0, 1, -1383731.0), (0, 2, -942431.0), (0, 3, -1115247.0), (0, 4, -1030656.0),
              (1, 0, -70838.0), (1, 3, -1160260.0), (2, 0, 293602.0), (2, 2, 990118.0), (2, 4, -620588.0),
              (3, 0, 525788.0), (3, 4, -530303.0), (4, 0, -417349.0), (4, 3, -457251.0)]),
)


@given(dyadic_graphs(), st.integers(1, 12))
@example(_complete_digraph(64, -1.0), 8)  # a negative cycle that escapes below -2^24 in the first block
@example(ROUNDING_JUST_PAST_THE_FLOOR[0], 4)
@example(ROUNDING_JUST_PAST_THE_FLOOR[1], 2)
@example(Graph(2, [(0, 1, 2.0**-200)]), 1)  # 0.0 in float32, and so is the floor -2^(24-200)
@example(Graph(2, [(0, 1, 2.0**-160)]), 1)  # 0.0 in float32, above a floor of -2^-136
@example(Graph(3, [(0, 1, 2.0**-140), (1, 2, 3 * 2.0**-140), (2, 0, -(2.0**-139))]), 2)  # subnormal in float32
@example(Graph(3, [(0, 1, 2.0**-126), (1, 2, -(2.0**-126))]), 3)  # the least normal float32
def test_floyd_warshall_float32_pass_has_the_float64_bits(graph, b):
    """Same bytes, negative-cycle flag and saturation flag whether or not the
    float32 pass may run; several blocks, and n = 1..3 where float32 row 0
    overlaps float64 row 0 as the result is widened."""
    adj = graph_to_matrix(graph)
    with pytest.MonkeyPatch.context() as patch:
        _shrink_budget(patch, graph.n, min(b, graph.n))
        reset_saturation()
        narrow = floyd_warshall(adj)
        narrow_saturated = saturation_seen()
        patch.setattr(semiring, "SINGLE_EXACT_LIMIT", 0.0)  # no screen is under it: float64 only
        reset_saturation()
        wide = floyd_warshall(adj)
    assert narrow.distances.dist.tobytes() == wide.distances.dist.tobytes()
    assert narrow.distances.dist.integer == wide.distances.dist.integer
    assert narrow.negative_cycle == wide.negative_cycle
    assert narrow_saturated == saturation_seen()
    reset_saturation()


def test_each_operand_is_read_once(monkeypatch):
    """floyd_warshall takes its screen's magnitude and its scale s from one
    read of adj.data, whatever its weights; matmul reads each distinct
    operand once, and a square x ⊗ x reads x once.  A block of real weights
    is tested at s = 0 and once more at the largest s its magnitude allows,
    and the blocks after it are read for their magnitude only."""
    n = 160  # two blocks of rows
    integers = random_graph(n, 0.5, (1, 100), 7)
    graphs = {
        "integer": integers,
        "quarter-integer": Graph(n, [(u, v, w / 4) for u, v, w in integers.edges]),
        "real": random_graph(n, 0.5, (0.1, 10.7), 7),
    }
    adjs = {name: graph_to_matrix(graph) for name, graph in graphs.items()}
    x, y = adjs["integer"], adjs["quarter-integer"]
    reads, tests = [], []
    finite_magnitudes, multiples = semiring._finite_magnitudes, semiring._multiples

    def reading(values):
        reads.append(values)
        return finite_magnitudes(values)

    def testing(m, s):
        tests.append(s)
        return multiples(m, s)

    monkeypatch.setattr(semiring, "_finite_magnitudes", reading)
    monkeypatch.setattr(semiring, "_multiples", testing)
    for name, adj in adjs.items():
        reads.clear()
        tests.clear()
        floyd_warshall(adj)
        assert len(reads) == 1 and reads[0] is adj.data, name
    assert tests == [0, 24 - 4]  # real weights below 16: the ceiling is s = 20
    for a, b in ((x, y), (y, x), (x, x), (y, y)):
        reads.clear()
        matmul(a, b)
        assert [id(values) for values in reads] == [id(a.data)] + ([id(b.data)] if b is not a else [])


def test_verify_reads_its_input_once(monkeypatch):
    """Floyd-Warshall's read of adj also gives the float tolerance's magnitude."""
    adj = graph_to_matrix(random_graph(64, 0.5, (0.1, 10.7), 7))
    result = apsp_by_squaring(adj).distances
    reads = []
    finite_magnitudes = semiring._finite_magnitudes

    def reading(values):
        reads.append(values)
        return finite_magnitudes(values)

    monkeypatch.setattr(semiring, "_finite_magnitudes", reading)
    for _ in range(2):
        reads.clear()
        assert find_apsp_violation(adj, result) is None
        assert len(reads) == 1 and reads[0] is adj.data
    assert not adj.integer


def _relaxed_dtypes(monkeypatch, adj):
    """The dtype of each matrix floyd_warshall(adj) hands to _relax_all, in order."""
    dtypes = []
    relax_all = apsp._relax_all

    def spying(d, *args):
        dtypes.append(d.dtype.name)
        return relax_all(d, *args)

    with monkeypatch.context() as patch:
        patch.setattr(apsp, "_relax_all", spying)
        floyd_warshall(adj)
    return dtypes


def test_floyd_warshall_takes_float32_only_where_it_is_exact(monkeypatch):
    n = 32
    integers = _with_potentials(random_graph(n, 0.5, (1, 100), 7), random.Random(7), True)
    screen = 2 * (n + 1)  # the float32 pass needs screen·max|w| < 2^(24-s)
    quarters = Graph(n, [(u, v, w / 4) for u, v, w in integers.edges])
    present = {(u, v) for u, v, _ in integers.edges}
    absent = next((u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in present)
    top = (2**24 - 1) // screen  # screen·top < 2^24 <= screen·(top + 1)

    def with_edge(graph, w):
        return Graph(n, list(graph.edges) + [(*absent, w)])

    routes = {
        "integers": (integers, ["float32"]),
        "quarter-integers": (quarters, ["float32"]),
        "eighths": (with_edge(integers, 0.125), ["float32"]),
        "tenths": (Graph(n, [(u, v, w / 10) for u, v, w in integers.edges]), ["float64"]),
        "thirds": (Graph(n, [(u, v, w / 3) for u, v, w in integers.edges]), ["float64"]),
        "uniform reals": (random_graph(n, 0.5, (0.1, 10.7), 7), ["float64"]),
        "integers just under the screen": (with_edge(integers, top), ["float32"]),
        "integers past the screen": (with_edge(integers, top + 1), ["float64"]),
        "quarters just under the screen for s = 2": (with_edge(quarters, top / 4), ["float32"]),
        "quarters past the screen for s = 2": (with_edge(quarters, (top + 1) / 4), ["float64"]),
        # multiples of 2^-s are normal float32 numbers only while s <= 126
        "multiples of 2^-126": (Graph(n, [(u, v, w * 2.0**-126) for u, v, w in integers.edges]), ["float32"]),
        "multiples of 2^-127": (Graph(n, [(u, v, w * 2.0**-127) for u, v, w in integers.edges]), ["float64"]),
        "multiples of 2^-200": (Graph(n, [(u, v, w * 2.0**-200) for u, v, w in integers.edges]), ["float64"]),
        # escapes below -2^24 in float32, then below -2^53 unmasked: rerun masked
        "escaping negative cycle": (_complete_digraph(64, -1.0), ["float32", "float64", "float64"]),
        # overflows to -inf unmasked in float mode: rerun masked
        "escaping float negative cycle": (_complete_digraph(64, -1e300), ["float64", "float64"]),
    }
    for name, (graph, want) in routes.items():
        assert _relaxed_dtypes(monkeypatch, graph_to_matrix(graph)) == want, name
    reset_saturation()


@pytest.mark.parametrize("b", [64, 32, 8, 5])
def test_float32_pass_stops_within_floor_rounds_of_its_floor(b):
    """The all -1 graph doubles its lowest entry each round: -2^24 after
    round 23.  A pass that reads its rows every _FLOOR_ROUNDS rounds stops
    by round 31, at -2^32; one that ran its 64 rounds would end at -2^64."""
    n = 64
    d = np.full((n, n), -1.0, np.float32)
    floor = -(2.0**24)
    with pytest.raises(apsp._BelowFloor):
        apsp._relax_all(d, b, None, floor)
    assert floor * 2.0**apsp._FLOOR_ROUNDS <= d.min() <= floor


def _rounds_per_pass(monkeypatch, adj):
    """{(dtype, masks): rounds} over the passes floyd_warshall(adj) runs, in
    order, where rounds is one past the last round any strip of the pass began."""
    rounds = {}
    relax = apsp._relax

    def counting(rows, pivots, k0, cand, limit, snapshot=None, floor=None):
        # one round per call, so either loop is seen: the floor is read
        # after the same rounds, which are counted from k, and a pivot may
        # be a row of rows in both
        key = (rows.dtype.name, limit is not None)
        saturated = False
        for j in range(len(pivots)):
            rounds[key] = max(rounds.get(key, 0), k0 + j + 1)
            saturated |= relax(rows, pivots[j : j + 1], k0 + j, cand, limit,
                               None if snapshot is None else snapshot[j : j + 1], floor)
        return saturated

    with monkeypatch.context() as patch:
        patch.setattr(apsp, "_relax", counting)
        floyd_warshall(adj)
    return rounds


def test_floyd_warshall_drops_an_escaping_float64_pass_within_floor_rounds(monkeypatch):
    """Every edge -1e300: the doubling entries overflow to -inf before round
    32, so the unmasked float64 pass stops at the floor check after round 32
    instead of running all 64; the masking pass then runs all 64."""
    adj = graph_to_matrix(_complete_digraph(64, -1e300))
    assert not adj.integer
    assert _rounds_per_pass(monkeypatch, adj) == {("float64", False): 32, ("float64", True): 64}
    reset_saturation()


def test_floyd_warshall_float32_peak_memory_in_eight_row_blocks(monkeypatch):
    """The float32 pass relaxes the first half of the float64 result in place:
    its peak is that result, one float32 strip of candidates and one of
    snapshots, and numpy's two bufsize-element iterator buffers.  A separate
    float32 copy of the input would add another half n x n float64 matrix."""
    n = 256
    b = n // 8
    adj = graph_to_matrix(random_graph(n, 1.0, (1, 100), 7))
    assert _relaxed_dtypes(monkeypatch, adj) == ["float32"]
    _shrink_budget(monkeypatch, n, b)
    tracemalloc.start()
    try:
        floyd_warshall(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = n * n * 8 + 2 * b * n * 4 + 2 * np.getbufsize() * 4 + 16 * 1024
    assert peak < bound, f"peak {peak / (n * n * 8):.3f} n^2 float64"


def test_floyd_warshall_fallback_peak_memory_in_eight_row_blocks(monkeypatch):
    """A float32 pass that escapes drops its buffer before the float64 passes
    take theirs, so the run holds one n x n matrix at a time and meets the
    float64 bound of test_floyd_warshall_peak_memory_in_eight_row_blocks."""
    n = 256
    adj = graph_to_matrix(_complete_digraph(n, -1.0))
    _shrink_budget(monkeypatch, n, n // 8)
    assert _relaxed_dtypes(monkeypatch, adj) == ["float32", "float64", "float64"]
    tracemalloc.start()
    try:
        floyd_warshall(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reset_saturation()
    bound = 1.25 * n * n * 8 + 2 * np.getbufsize() * 8 + 16 * 1024
    assert peak < bound, f"peak {peak / (n * n * 8):.3f} n^2 float64"


def _use_loop(monkeypatch, loop):
    """Make floyd_warshall run its strips in fw_relax.c's loop ("compiled",
    where a C compiler builds it) or in numpy's."""
    if loop == "numpy":
        monkeypatch.setattr(apsp, "_compiled_relax", lambda: None)


def _solved_in(monkeypatch, loop, adj):
    """(bytes, integer mode, negative_cycle, saturation_seen()) of floyd_warshall(adj) in the named loop."""
    with monkeypatch.context() as patch:
        _use_loop(patch, loop)
        reset_saturation()
        report = floyd_warshall(adj)
        saturated = saturation_seen()
    reset_saturation()
    dist = report.distances.dist
    return dist.tobytes(), dist.integer, report.negative_cycle, saturated


def _integers():
    rng = random.Random(150)
    return _with_potentials(random_instance(rng, 150, 1, 100, 0.3), rng, True)


# each input with its (negative_cycle, saturated), so none of them passes vacuously
BOTH_LOOPS_INPUTS = {
    "integers": (_integers, (False, False)),
    "quarter-integers": (lambda: Graph(150, [(u, v, w / 4) for u, v, w in _integers().edges]), (False, False)),
    "reals": (lambda: _with_potentials(random_instance(random.Random(7), 150, 0.1, 10.7, 0.3),
                                       random.Random(8), False), (False, False)),
    # escapes the float32 floor, then -2^53 unmasked: the masked rung runs
    "escaping negative cycle": (lambda: _complete_digraph(64, -1.0), (True, True)),
    # overflows to -inf unmasked in float mode
    "-1e300 negative cycle": (lambda: _complete_digraph(64, -1e300), (True, True)),
    "saturating integers": (lambda: random_instance(random.Random(53), 40, 2**49, 2**50, 0.15), (False, True)),
    "one vertex": (lambda: Graph(1, ()), (False, False)),
}


def test_compiled_loop_takes_only_the_snapshots(monkeypatch):
    """fw_relax.c's loop needs no candidate buffer: one block takes no
    buffer, several take the snapshots alone, on a cache line."""
    if apsp._compiled_relax() is None:
        pytest.skip("no C compiler builds fw_relax.c here")
    for dtype, weights in ALIGNMENT_INPUTS:
        adj = graph_to_matrix(random_graph(24, 0.3, weights, 5))
        assert _recorded_fw_buffers(monkeypatch, adj) == []
        with monkeypatch.context() as patch:
            _shrink_budget(patch, 24, 5)
            assert _recorded_fw_buffers(patch, adj) == [(5 * 24, np.dtype(dtype), 0)]


@pytest.mark.parametrize("b", [None, 7], ids=["default-blocks", "blocks-of-7"])
@pytest.mark.parametrize("name", sorted(BOTH_LOOPS_INPUTS))
def test_compiled_and_numpy_loops_give_the_same_bits(monkeypatch, name, b):
    """Same bytes, integer mode, negative-cycle flag and saturation flag from
    fw_relax.c's loop and from numpy's, in the default blocks and in blocks
    of 7, which divide none of these n."""
    if apsp._compiled_relax() is None:
        pytest.skip("no C compiler builds fw_relax.c here")
    make, flags = BOTH_LOOPS_INPUTS[name]
    graph = make()
    adj = graph_to_matrix(graph)
    if b is not None:
        _shrink_budget(monkeypatch, graph.n, min(b, graph.n))
    compiled = _solved_in(monkeypatch, "compiled", adj)
    assert compiled == _solved_in(monkeypatch, "numpy", adj)
    assert compiled[2:] == flags


@pytest.mark.parametrize("b", [64, 8, 5])
def test_both_loops_stop_after_the_same_round(monkeypatch, b):
    """The all -1 graph passes -2^10 after round 9 and -2^24 after round 23:
    each loop stops at the same floor check, so it leaves the same bytes."""
    if apsp._compiled_relax() is None:
        pytest.skip("no C compiler builds fw_relax.c here")
    for floor in (-(2.0**10), -(2.0**24)):
        stopped = []
        for loop in ("compiled", "numpy"):
            d = np.full((64, 64), -1.0, np.float32)
            with monkeypatch.context() as patch:
                _use_loop(patch, loop)
                with pytest.raises(apsp._BelowFloor):
                    apsp._relax_all(d, b, None, floor)
            stopped.append(d.tobytes())
        assert stopped[0] == stopped[1], floor


def test_compiled_loop_refuses_arrays_it_cannot_walk():
    """Strided rows, a second dtype, another row length or a short snapshot
    raise before any pointer reaches the C loop."""
    if apsp._compiled_relax() is None:
        pytest.skip("no C compiler builds fw_relax.c here")
    d = np.zeros((4, 8))
    for rows, pivots, snapshot in ((d[:, ::2], d[:2, ::2], None), (d, d.astype(np.float32), None),
                                   (d, d[:, :4].copy(), None), (d, d[:2], np.zeros((1, 8)))):
        with pytest.raises(ValueError):
            apsp._relax(rows, pivots, 0, None, None, snapshot)


def _cached_files(cache):
    return sorted(path.name for path in cache.glob("*"))


def _solves_like_numpy(monkeypatch, library):
    """Whether floyd_warshall with this loaded library gives the numpy loop's bytes, in several blocks."""
    adj = graph_to_matrix(_with_potentials(random_instance(random.Random(3), 30, 1, 100, 0.3), random.Random(4), True))
    with monkeypatch.context() as patch:
        _shrink_budget(patch, 30, 7)
        want = _solved_in(patch, "numpy", adj)
        patch.setattr(_compiled, "_library", library)
        return _solved_in(patch, "compiled", adj) == want


def _works_like_numpy(monkeypatch, library):
    """Whether this loaded library solves and writes like the numpy loops."""
    dist = floyd_warshall(graph_to_matrix(random_graph(40, 0.3, (1, 9), 2))).distances.dist
    with monkeypatch.context() as patch:
        patch.setattr(graph_io, "_compiled_writer", lambda: None)
        want = matrix_to_text(dist)
        patch.setattr(graph_io, "_compiled_writer", lambda: library)
        written = matrix_to_text(dist)
    return library is not None and _solves_like_numpy(monkeypatch, library) and written == want


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_relax_build_falls_back_to_numpy_and_leaves_no_file(monkeypatch, tmp_path, empty_cache, failing_cc, compiler):
    adj = graph_to_matrix(random_instance(random.Random(9), 40, -3, 40, 0.2))
    want = _solved_in(monkeypatch, "numpy", adj)
    cc = tmp_path / "no-such-cc" if compiler == "missing" else failing_cc
    monkeypatch.setattr(_compiled, "_CC", str(cc))
    assert apsp._compiled_relax() is None
    assert _solved_in(monkeypatch, "compiled", adj) == want  # the numpy loop ran
    assert _cached_files(empty_cache) == []


def test_relax_build_falls_back_where_the_cache_is_not_writable(monkeypatch, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))  # no directory can be made under a file
    monkeypatch.setattr(_compiled, "_library", _compiled._NOT_LOADED)
    assert apsp._compiled_relax() is None


def test_relax_build_is_cached_and_keyed_by_its_source(monkeypatch, tmp_path, empty_cache):
    """One library from every C source; a change to either source or to the
    flags builds another, which works as the first did."""
    if shutil.which(_compiled._CC) is None:
        pytest.skip("no C compiler here")
    first = _compiled._load()
    assert _works_like_numpy(monkeypatch, first)
    built = _cached_files(empty_cache)
    assert len(built) == 1 and built[0].startswith("btas-") and built[0].endswith(".so")
    stamp = os.stat(empty_cache / built[0]).st_mtime_ns
    assert _compiled._load() is not None
    assert _cached_files(empty_cache) == built and os.stat(empty_cache / built[0]).st_mtime_ns == stamp

    for index in range(len(_compiled._SOURCES)):  # each C source in turn
        edited = tmp_path / _compiled._SOURCES[index].name
        edited.write_text(_compiled._SOURCES[index].read_text() + "/* edited */\n")
        monkeypatch.setattr(_compiled, "_SOURCES", (*_compiled._SOURCES[:index], edited,
                                                    *_compiled._SOURCES[index + 1 :]))
        assert _works_like_numpy(monkeypatch, _compiled._load())
        rebuilt = _cached_files(empty_cache)
        assert len(rebuilt) == len(built) + 1 and set(built) < set(rebuilt)
        built = rebuilt
    monkeypatch.setattr(_compiled, "_FLAGS", (*_compiled._FLAGS, "-g"))
    assert _works_like_numpy(monkeypatch, _compiled._load())
    rebuilt = _cached_files(empty_cache)
    assert len(rebuilt) == len(built) + 1 and set(built) < set(rebuilt)


def test_the_library_is_built_from_every_c_source_of_the_package():
    """A C file added to the package is compiled only from _SOURCES, which is also the cache key."""
    package = Path(apsp.__file__).parent
    assert sorted(source.name for source in _compiled._SOURCES) == sorted(path.name for path in package.glob("*.c"))
    assert all(source.parent == package for source in _compiled._SOURCES)


@pytest.mark.parametrize("entry", ["library", "_load"])
def test_threads_racing_the_first_build_all_get_a_working_loop(monkeypatch, empty_cache, entry):
    """More threads than CPUs race the first use.  Through library the lock
    lets one thread build and all get its library; through _load, as in
    separate processes, each builds and renames a whole library into place."""
    if shutil.which(_compiled._CC) is None:
        pytest.skip("no C compiler here")
    count = 4
    start = threading.Barrier(count)
    loaded = []

    def first_use():
        start.wait()
        loaded.append(getattr(_compiled, entry)())

    threads = [threading.Thread(target=first_use) for _ in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(loaded) == count
    for library in loaded:
        assert _works_like_numpy(monkeypatch, library)
    if entry == "library":
        assert all(library is loaded[0] for library in loaded)
    assert len(_cached_files(empty_cache)) == 1  # one library, no temporary left behind
