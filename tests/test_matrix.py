import math
import random
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from btas import matrix as matrix_module
from btas.matrix import (
    DimensionMismatch,
    SemiringMismatch,
    TileSpec,
    TropicalMatrix,
    TropicalVector,
    available_parallelism,
    ew_add,
    identity_matrix,
    matmul,
    matrix_power,
    matvec,
)
from btas.semiring import SemiringKind, reset_saturation, saturation_seen

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS

INF = math.inf

kinds = st.sampled_from([MIN, MAX])
entries = st.one_of(
    st.integers(min_value=-100, max_value=100).map(float),
    st.just(INF),
)


@st.composite
def grids(draw, min_dim=1, max_dim=8, square=False):
    r = draw(st.integers(min_value=min_dim, max_value=max_dim))
    c = r if square else draw(st.integers(min_value=min_dim, max_value=max_dim))
    return draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))


def random_grid(rng, r, c, lo=-50, hi=100, p_inf=0.25):
    return [
        [INF if rng.random() < p_inf else float(rng.randint(lo, hi)) for _ in range(c)]
        for _ in range(r)
    ]


def oracle_product(kind, x_grid, y_grid):
    z = oracles.naive_matmul(kind.value, oracles.from_symbolic(x_grid), oracles.from_symbolic(y_grid))
    return oracles.to_symbolic(z)


def test_identity_matrix_example():
    assert identity_matrix(MIN, 2).to_lists() == [[0, INF], [INF, 0]]
    assert identity_matrix(MIN, 2).integer


def test_identity_matrix_rejects_zero_size():
    with pytest.raises(DimensionMismatch):
        identity_matrix(MIN, 0)


@given(kinds, grids(min_dim=4, max_dim=4, square=True))
def test_identity_is_two_sided_neutral(kind, grid):
    a = TropicalMatrix(kind, grid)
    ident = identity_matrix(kind, 4)
    assert matmul(ident, a) == a
    assert matmul(a, ident) == a


def test_ew_add_example():
    a = TropicalMatrix(MIN, [[1, 4]])
    b = TropicalMatrix(MIN, [[3, 2]])
    assert ew_add(a, b).to_lists() == [[1, 2]]


@given(kinds, grids())
def test_ew_add_idempotent_and_identity(kind, grid):
    a = TropicalMatrix(kind, grid)
    assert ew_add(a, a) == a
    absent = TropicalMatrix.filled(kind, a.n_rows, a.n_cols)
    assert ew_add(a, absent) == a


def test_matmul_example():
    x = TropicalMatrix(MIN, [[0, 3], [INF, 0]])
    y = TropicalMatrix(MIN, [[0, 1], [2, 0]])
    z = matmul(x, y)
    assert z.to_lists() == [[0, 1], [2, 0]]
    assert z.to_lists() == oracle_product(MIN, x.to_lists(), y.to_lists())


def test_matmul_absorbs_all_infinity():
    a = TropicalMatrix(MIN, [[1, 2], [3, 4]])
    absent = TropicalMatrix.filled(MIN, 2, 2)
    assert matmul(a, absent) == absent
    assert matmul(absent, a) == absent


def test_matmul_matches_naive_reference_randomized():
    rng = random.Random(0xB7A5)
    for case in range(120):
        kind = MIN if case % 2 else MAX
        r, k, c = (rng.randint(1, 16) for _ in range(3))
        xg, yg = random_grid(rng, r, k), random_grid(rng, k, c)
        got = matmul(TropicalMatrix(kind, xg), TropicalMatrix(kind, yg))
        assert got.to_lists() == oracle_product(kind, xg, yg)


@given(grids(min_dim=2, max_dim=8, square=True), st.integers(0, 2**32))
def test_matmul_associative(grid, seed):
    rng = random.Random(seed)
    n = len(grid)
    a = TropicalMatrix(MIN, grid)
    b = TropicalMatrix(MIN, random_grid(rng, n, n))
    c = TropicalMatrix(MIN, random_grid(rng, n, n))
    assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def test_accumulate_into_is_elementwise_combine():
    rng = random.Random(7)
    xg, yg = random_grid(rng, 5, 4), random_grid(rng, 4, 6)
    x, y = TropicalMatrix(MIN, xg), TropicalMatrix(MIN, yg)
    zeros = TropicalMatrix.filled(MIN, 5, 6, 0)
    fused = matmul(x, y, accumulate_into=zeros)
    plain = matmul(x, y)
    assert all(v <= 0 for row in fused.to_lists() for v in row)
    expected = [[min(0.0, v) for v in row] for row in plain.to_lists()]
    assert fused.to_lists() == expected


def test_accumulate_into_is_not_mutated():
    x = TropicalMatrix(MIN, [[1]])
    z = TropicalMatrix(MIN, [[5]])
    matmul(x, x, accumulate_into=z)
    assert z.to_lists() == [[5]]


def test_tiled_variants_are_bit_identical():
    rng = random.Random(0x5EED)
    for _ in range(10):
        n = rng.randint(2, 24)
        x = TropicalMatrix(MIN, random_grid(rng, n, n))
        y = TropicalMatrix(MIN, random_grid(rng, n, n))
        reference = matmul(x, y, tiles=TileSpec(1, 1, 1)).tobytes()
        for workers in (1, 2, 4, 8):
            for spec in (TileSpec(1, 1, workers), TileSpec(2, 2, workers), TileSpec(1, n, workers)):
                assert matmul(x, y, tiles=spec).tobytes() == reference


def test_pool_execution_matches_inline():
    # large enough that worker_count > 1 really dispatches to the pool
    rng = random.Random(11)
    x = TropicalMatrix(MIN, random_grid(rng, 48, 48))
    y = TropicalMatrix(MIN, random_grid(rng, 48, 48))
    inline = matmul(x, y, tiles=TileSpec(5, 7, 1))
    pooled = matmul(x, y, tiles=TileSpec(5, 7, 4))
    assert inline.tobytes() == pooled.tobytes()


def test_matvec_example_and_laws():
    a = TropicalMatrix(MIN, [[0, 3], [INF, 0]])
    v = TropicalVector(MIN, [0, 0])
    assert matvec(a, v).to_list() == [0, 0]
    ident = identity_matrix(MIN, 2)
    w = TropicalVector(MIN, [4, -1])
    assert matvec(ident, w) == w
    absent = TropicalVector(MIN, [INF, INF])
    assert matvec(a, absent) == absent


def test_matvec_matches_matmul_column():
    rng = random.Random(3)
    ag = random_grid(rng, 6, 5)
    vg = random_grid(rng, 5, 1)
    a = TropicalMatrix(MIN, ag)
    v = TropicalVector(MIN, [row[0] for row in vg])
    column = matmul(a, TropicalMatrix(MIN, vg))
    assert matvec(a, v).to_list() == [row[0] for row in column.to_lists()]


def test_matrix_power_first_power_is_input():
    a = TropicalMatrix(MIN, [[0, 1], [INF, 0]])
    assert matrix_power(a, 1) is a


def test_matrix_power_example():
    a = TropicalMatrix(MIN, [[0, 1], [INF, 0]])
    assert matrix_power(a, 2) == a


def test_matrix_power_matches_naive_reference():
    rng = random.Random(21)
    for p in (2, 3, 4, 5, 8):
        grid = random_grid(rng, 5, 5)
        got = matrix_power(TropicalMatrix(MIN, grid), p)
        want = oracles.naive_power(oracles.MINPLUS, oracles.from_symbolic(grid), p)
        assert oracles.from_symbolic(got.to_lists()) == want


def test_zero_diagonal_powers_are_monotone():
    rng = random.Random(5)
    grid = random_grid(rng, 8, 8, lo=0)
    for i in range(8):
        grid[i][i] = 0.0
    a = TropicalMatrix(MIN, grid)
    previous = a
    for p in range(2, 6):
        current = matrix_power(a, p)
        assert np.all(current.data <= previous.data)
        previous = current


def test_dimension_and_kind_errors():
    a = TropicalMatrix(MIN, [[1, 2], [3, 4]])
    wide = TropicalMatrix(MIN, [[1, 2, 3]])
    other = TropicalMatrix(MAX, [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        matmul(a, wide)
    with pytest.raises(SemiringMismatch):
        matmul(a, other)
    with pytest.raises(DimensionMismatch):
        ew_add(a, wide)
    with pytest.raises(SemiringMismatch):
        ew_add(a, other)
    with pytest.raises(DimensionMismatch):
        matmul(a, a, accumulate_into=wide)
    with pytest.raises(SemiringMismatch):
        matmul(a, a, accumulate_into=other)
    with pytest.raises(DimensionMismatch):
        matrix_power(wide, 2)
    with pytest.raises(ValueError):
        matrix_power(a, 0)
    with pytest.raises(DimensionMismatch):
        matvec(a, TropicalVector(MIN, [1, 2, 3]))
    with pytest.raises(SemiringMismatch):
        matvec(a, TropicalVector(MAX, [1, 2]))


def test_construction_rejects_bad_values():
    with pytest.raises(ValueError):
        TropicalMatrix(MIN, [[math.nan]])
    with pytest.raises(ValueError):
        TropicalMatrix(MIN, [[-INF]])
    with pytest.raises(DimensionMismatch):
        TropicalMatrix(MIN, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        TropicalMatrix(MIN, [1, 2, 3])


def test_matrices_are_immutable():
    a = TropicalMatrix(MIN, [[1]])
    assert not a.data.flags.writeable
    with pytest.raises(AttributeError):
        a.kind = MAX
    v = TropicalVector(MIN, [1])
    assert not v.data.flags.writeable
    with pytest.raises(AttributeError):
        v.kind = MAX


def test_negative_zero_is_normalized():
    a = TropicalMatrix(MIN, [[-0.0]])
    b = TropicalMatrix(MIN, [[0.0]])
    assert a.tobytes() == b.tobytes()


def test_max_plus_round_trips_symbolic_infinity():
    a = TropicalMatrix(MAX, [[INF, 3], [0, INF]])
    assert a.to_lists() == [[INF, 3], [0, INF]]
    assert a.weight_at(0, 0).is_infinite


def test_max_plus_matmul_against_reference():
    rng = random.Random(9)
    xg, yg = random_grid(rng, 4, 3), random_grid(rng, 3, 5)
    got = matmul(TropicalMatrix(MAX, xg), TropicalMatrix(MAX, yg))
    assert got.to_lists() == oracle_product(MAX, xg, yg)


def test_integer_mode_detection():
    assert TropicalMatrix(MIN, [[1, INF], [0, -3]]).integer
    assert not TropicalMatrix(MIN, [[0.5]]).integer
    assert not TropicalMatrix(MIN, [[float(2**53)]]).integer
    with pytest.raises(ValueError):
        TropicalMatrix(MIN, [[0.5]], integer=True)
    with pytest.raises(ValueError):
        TropicalMatrix(MIN, [[float(2**53)]], integer=True)
    assert not TropicalMatrix(MIN, [[1]], integer=False).integer


def test_integer_products_saturate_at_exactness_limit():
    reset_saturation()
    big = float(2**53 - 1)
    a = TropicalMatrix(MIN, [[big]])
    product = matmul(a, a)
    assert product.to_lists() == [[INF]]
    assert saturation_seen()
    reset_saturation()


def test_float_products_saturate_on_overflow():
    reset_saturation()
    a = TropicalMatrix(MIN, [[1e308]], integer=False)
    assert matmul(a, a).to_lists() == [[INF]]
    assert saturation_seen()
    reset_saturation()
    b = TropicalMatrix(MIN, [[-1e308]], integer=False)
    assert matmul(b, b).to_lists() == [[INF]]
    assert saturation_seen()
    reset_saturation()


def test_small_products_do_not_flag_saturation():
    reset_saturation()
    a = TropicalMatrix(MIN, [[1, INF], [2, 0]])
    matmul(a, a)
    assert not saturation_seen()


def test_tile_spec_validation_and_default():
    with pytest.raises(ValueError):
        TileSpec(0, 1, 1)
    with pytest.raises(ValueError):
        TileSpec(1, 1, 0)


def test_oversized_tiles_are_clamped_to_the_matrix():
    a = TropicalMatrix(MIN, [[1, 2], [3, 4]])
    assert matmul(a, a, tiles=TileSpec(100, 100, 2)) == matmul(a, a)


def test_matvec_integer_saturation_values_and_flag():
    big = float(2**52)
    a = TropicalMatrix(MIN, [[big, 1], [INF, big], [big, INF]])
    v = TropicalVector(MIN, [big, 5])
    reset_saturation()
    assert matvec(a, v).to_list() == [6, big + 5, INF]
    assert saturation_seen()
    reset_saturation()
    assert matvec(a, TropicalVector(MIN, [1, 5])).to_list() == [6, big + 5, big + 1]
    assert not saturation_seen()


def test_matvec_float_saturation_values_and_flag():
    reset_saturation()
    a = TropicalMatrix(MIN, [[-1e308, 0.5], [1e308, 1e308]])
    v = TropicalVector(MIN, [-1e308, 1e308])
    assert matvec(a, v).to_list() == [1e308, 0.0]
    assert saturation_seen()
    reset_saturation()
    m = TropicalMatrix(MAX, [[1e308, INF]])
    assert matvec(m, TropicalVector(MAX, [1e308, 2.5])).to_list() == [INF]
    assert saturation_seen()
    reset_saturation()


def test_product_where_only_some_k_positions_saturate():
    big = float(2**52)
    for kind in (MIN, MAX):
        x = TropicalMatrix(kind, [[big, 3, INF, big], [INF, big, 1, 2]])
        y = TropicalMatrix(kind, [[big, 0], [4, big], [big, 2], [1, INF]])
        reset_saturation()
        got = matmul(x, y).to_lists()
        assert saturation_seen()
        reset_saturation()
        # saturated k terms drop out of the ⊕; the remaining finite terms decide
        if kind is MIN:
            assert got == [[7, big], [3, 3]]
        else:
            assert got == [[big + 1, big + 3], [big + 4, 3]]


def test_k_blocks_match_naive_reference(monkeypatch):
    # budgets small enough that dims <= 16 walk several k blocks with a ragged tail
    rng = random.Random(0xB10C)
    ragged = 0
    for budget in (24, 96, 640):
        monkeypatch.setattr(matrix_module, "_TASK_BYTES", budget)
        for case in range(24):
            kind = MIN if case % 2 else MAX
            r, k, c = (rng.randint(1, 16) for _ in range(3))
            xg, yg = random_grid(rng, r, k), random_grid(rng, k, c)
            x, y = TropicalMatrix(kind, xg), TropicalMatrix(kind, yg)
            acc_grid = random_grid(rng, r, c) if case % 4 < 2 else None
            want = oracle_product(kind, xg, yg)
            if acc_grid is not None:
                pick = min if kind is MIN else max
                want = [
                    [a if math.isinf(b) else b if math.isinf(a) else pick(a, b) for a, b in zip(wr, ar)]
                    for wr, ar in zip(want, acc_grid)
                ]
            acc = None if acc_grid is None else TropicalMatrix(kind, acc_grid)
            for spec in (TileSpec(1, 1, 2), TileSpec(2, 2, 1), TileSpec(1, c, 2)):
                kb = max(1, budget // (8 * min(spec.tile_rows, r) * min(spec.tile_cols, c)))
                ragged += k > kb and k % kb != 0
                got = matmul(x, y, accumulate_into=acc, tiles=spec)
                assert got.tobytes() == TropicalMatrix(kind, want).tobytes()
    assert ragged >= 20
    # large enough to fan out to the pool: 5x7 tiles, k blocks of 3 over k=40
    monkeypatch.setattr(matrix_module, "_TASK_BYTES", 8 * 5 * 7 * 3)
    xg, yg = random_grid(rng, 48, 40), random_grid(rng, 40, 44)
    got = matmul(TropicalMatrix(MIN, xg), TropicalMatrix(MIN, yg), tiles=TileSpec(5, 7, 4))
    assert got.tobytes() == TropicalMatrix(MIN, oracle_product(MIN, xg, yg)).tobytes()


def test_k_blocks_saturate_like_a_single_block(monkeypatch):
    monkeypatch.setattr(matrix_module, "_TASK_BYTES", 24)
    rng = random.Random(0x5A7)
    big = float(2**52)
    xg = [[rng.choice((INF, big + rng.randint(0, 9), float(rng.randint(0, 9)))) for _ in range(11)]
          for _ in range(7)]
    yg = [[rng.choice((INF, big + rng.randint(0, 9), float(rng.randint(0, 9)))) for _ in range(5)]
          for _ in range(11)]
    # min-plus over non-negative terms: an entry saturates iff every finite term reached 2^53
    want = [[INF if v >= 2**53 else v for v in row] for row in oracle_product(MIN, xg, yg)]
    overflow = any(a + b >= 2**53 for row in xg for a, col in zip(row, yg) for b in col)
    assert overflow
    for spec in (TileSpec(1, 1, 1), TileSpec(2, 2, 2), TileSpec(1, 5, 1)):
        reset_saturation()
        got = matmul(TropicalMatrix(MIN, xg), TropicalMatrix(MIN, yg), tiles=spec)
        assert got.integer and got.tobytes() == TropicalMatrix(MIN, want).tobytes()
        assert saturation_seen()
    reset_saturation()


def test_threads_per_call_are_bounded():
    rng = random.Random(96)
    x = TropicalMatrix(MIN, random_grid(rng, 96, 96))
    before = threading.active_count()
    got = matmul(x, x, tiles=TileSpec(1, 1, 64))
    assert threading.active_count() <= before + available_parallelism()
    assert got.tobytes() == matmul(x, x, tiles=TileSpec(96, 96, 1)).tobytes()


def test_kernel_buffers_start_on_cache_lines(monkeypatch):
    addresses = []

    def recording(size):
        buf = aligned_empty(size)
        addresses.append(buf.ctypes.data)
        return buf

    aligned_empty = matrix_module._aligned_empty
    for size in (1, 7, 8, 9, 1000, 131072):
        buf = aligned_empty(size)
        assert buf.shape == (size,) and buf.dtype == np.float64 and buf.flags.writeable
        assert buf.ctypes.data % 64 == 0
    monkeypatch.setattr(matrix_module, "_aligned_empty", recording)
    monkeypatch.setattr(matrix_module, "_TASK_BYTES", 8 * 3 * 5 * 2)
    rng = random.Random(64)
    xg, yg = random_grid(rng, 6, 9), random_grid(rng, 9, 5)
    got = matmul(TropicalMatrix(MIN, xg), TropicalMatrix(MIN, yg), tiles=TileSpec(3, 5, 1))
    assert got.tobytes() == TropicalMatrix(MIN, oracle_product(MIN, xg, yg)).tobytes()
    assert len(addresses) == 2 and all(a % 64 == 0 for a in addresses)
