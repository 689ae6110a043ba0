import math
import random

import pytest

import oracles
from btas.apsp import (
    Algorithm,
    DistanceMatrix,
    apsp_by_squaring,
    find_apsp_violation,
    floyd_warshall,
    verify_apsp,
)
from btas.graph_io import Graph, graph_to_matrix, random_graph
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


def test_verify_accepts_producer_output():
    rng = random.Random(0xFADE)
    for _ in range(15):
        adj = graph_to_matrix(random_instance(rng, rng.randint(1, 12)))
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
    assert "triangle" in violation or "fixpoint" in violation


def test_verify_names_each_violation_kind():
    adj = graph_to_matrix(THREE_NODE)
    good = floyd_warshall(adj).distances.dist.to_lists()

    broken_diag = [row[:] for row in good]
    broken_diag[1][1] = 2.0
    assert "diagonal" in find_apsp_violation(
        adj, DistanceMatrix.from_matrix(TropicalMatrix(MIN, broken_diag))
    )

    above_edge = [row[:] for row in good]
    above_edge[0][1] = 9.0
    assert "edge" in find_apsp_violation(
        adj, DistanceMatrix.from_matrix(TropicalMatrix(MIN, above_edge))
    )

    assert find_apsp_violation(adj, floyd_warshall(adj).distances) is None


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
