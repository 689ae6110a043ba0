import copy
import math
import os
import pickle
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from btas import matrix as matrix_module
from btas import semiring
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


def use_the_pool(monkeypatch):
    """Lower the pool cut-off so that products with worker_count > 1 fan out,
    and return the list that records each pool matmul hands its tiles to."""
    monkeypatch.setattr(matrix_module, "_PARALLEL_MIN_OPS", 1)
    pools = []
    shared_pool = matrix_module._shared_pool

    def recording():
        pools.append(shared_pool())
        return pools[-1]

    monkeypatch.setattr(matrix_module, "_shared_pool", recording)
    return pools


def _max_finite(grid):
    return max((abs(v) for row in grid for v in row if v != INF), default=0.0)


def force_float64(monkeypatch):
    """No bound is under float32's exact limit, so every product and every
    Floyd-Warshall pass runs in float64."""
    monkeypatch.setattr(semiring, "SINGLE_EXACT_LIMIT", 0.0)


def kernel_dtypes(monkeypatch):
    """Return the list that records the dtype of each kernel buffer matmul takes."""
    dtypes = []
    aligned_empty = matrix_module._aligned_empty

    def recording(size, dtype=np.float64):
        dtypes.append(np.dtype(dtype))
        return aligned_empty(size, dtype)

    monkeypatch.setattr(matrix_module, "_aligned_empty", recording)
    return dtypes


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


def test_pool_execution_matches_inline(monkeypatch):
    rng = random.Random(11)
    x = TropicalMatrix(MIN, random_grid(rng, 48, 48))
    y = TropicalMatrix(MIN, random_grid(rng, 48, 48))
    inline = matmul(x, y, tiles=TileSpec(5, 7, 1))
    pools = use_the_pool(monkeypatch)
    pooled = matmul(x, y, tiles=TileSpec(5, 7, 4))
    assert pools or available_parallelism() == 1
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


@pytest.mark.parametrize(
    "cls, values, infinite_at, wrong_rank, empty, twin_cls, twin_shape",
    [
        (TropicalMatrix, [[1, INF, 3]], (0, 1), [1, 2], [[]], TropicalVector, (3,)),
        (TropicalVector, [1, INF, 3], (1,), [[1, 2]], [], TropicalMatrix, (1, 3)),
    ],
    ids=["matrix", "vector"],
)
def test_shared_dense_core(cls, values, infinite_at, wrong_rank, empty, twin_cls, twin_shape):
    for bad in (wrong_rank, empty, 5.0):
        with pytest.raises(DimensionMismatch):
            cls(MIN, bad)

    a = cls(MAX, values)
    for name in ("kind", "data", "integer", "anything"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.kind is MAX
    with pytest.raises(TypeError):
        hash(a)

    wrapped = cls._wrap(MIN, np.zeros(np.shape(values)), True)
    assert not wrapped.data.flags.writeable
    with pytest.raises(ValueError):
        wrapped.data[...] = 1.0

    assert a == cls(MAX, values)
    assert a != cls(MIN, values)
    assert a != cls(MAX, np.where(np.isinf(values), 7, values))
    twin = twin_cls._wrap(MAX, a.data.reshape(twin_shape), a.integer)
    assert twin.tobytes() == a.tobytes()
    assert a != twin and twin != a

    assert a.data[infinite_at] == -INF
    assert a.weight_at(*infinite_at).is_infinite
    assert a.weight_at(*infinite_at).value == INF
    assert repr(a).startswith(f"{cls.__name__}(maxplus, ")

    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(copied) is cls and copied == a and copied.integer is a.integer
        assert not copied.data.flags.writeable
        with pytest.raises(AttributeError):
            copied.kind = MIN


def test_equality_compares_the_bits_in_place():
    n = 512
    a = TropicalMatrix(MIN, np.random.default_rng(3).integers(0, 100, (n, n)).astype(float))
    b = TropicalMatrix._wrap(MIN, a.data.copy(), a.integer)
    tracemalloc.start()
    try:
        equal = a == b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert equal
    assert peak < 0.1 * n * n * 8, f"peak {peak / (n * n * 8):.3f} n^2 float64"
    # bytewise, not numeric: -0.0 and 0.0 differ
    assert TropicalMatrix._wrap(MIN, np.array([[-0.0]]), True) != TropicalMatrix._wrap(MIN, np.array([[0.0]]), True)
    # strided data: a transposed view, matvec's column of a product and every other entry of a vector
    grid = [[1.0, INF, 3.0], [4.0, 5.0, -6.0]]
    assert TropicalMatrix._wrap(MIN, np.array(grid).T, False) == TropicalMatrix(MIN, [list(c) for c in zip(*grid)])
    square = TropicalMatrix(MIN, [[0.0, 2.0, INF], [1.0, 0.0, 4.0], [INF, 3.0, 0.0]])
    product = matvec(square, TropicalVector(MIN, [0.0, 5.0, 1.0]))
    assert product == TropicalVector(MIN, [0.0, 1.0, 1.0])
    assert product != TropicalVector(MIN, [0.0, 1.0, 2.0])
    every_other = TropicalVector._wrap(MIN, np.array([0.0, 9.0, 1.0, 9.0, 1.0])[::2], True)
    assert every_other.data.strides == (16,)
    assert every_other == product and product == every_other


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


def test_each_thread_sees_its_own_saturation():
    """One thread saturates; then another resets and runs a clean product.
    The first still sees its saturation, and the second sees none."""
    big = TropicalMatrix(MIN, [[2.0**52]])
    clean = TropicalMatrix(MIN, [[1, INF], [2, 0]])
    saturated, reset = threading.Barrier(2, timeout=30), threading.Barrier(2, timeout=30)
    seen = {}

    def saturating():
        reset_saturation()
        matmul(big, big)
        saturated.wait()
        reset.wait()
        seen["saturating"] = saturation_seen()

    def resetting():
        saturated.wait()
        reset_saturation()
        matmul(clean, clean)
        seen["resetting"] = saturation_seen()
        reset.wait()

    threads = [threading.Thread(target=saturating), threading.Thread(target=resetting)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert seen == {"saturating": True, "resetting": False}


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
            acc_grid = random_grid(rng, r, c) if case % 4 < 2 else None
            want = oracle_product(kind, xg, yg)
            if acc_grid is not None:
                pick = min if kind is MIN else max
                want = [
                    [a if math.isinf(b) else b if math.isinf(a) else pick(a, b) for a, b in zip(wr, ar)]
                    for wr, ar in zip(want, acc_grid)
                ]
            # small integers take the float32 blocks; with float32 forced off, integer=False takes float64 ones
            for integer, dtype in ((None, np.dtype(np.float32)), (False, np.dtype(np.float64))):
                x, y = TropicalMatrix(kind, xg, integer), TropicalMatrix(kind, yg, integer)
                acc = None if acc_grid is None else TropicalMatrix(kind, acc_grid, integer)
                with monkeypatch.context() as patch:
                    dtypes = kernel_dtypes(patch)
                    if integer is False:
                        force_float64(patch)
                    for spec in (TileSpec(1, 1, 2), TileSpec(2, 2, 1), TileSpec(1, c, 2)):
                        kb = max(1, budget // (dtype.itemsize * min(spec.tile_rows, r) * min(spec.tile_cols, c)))
                        ragged += k > kb and k % kb != 0
                        got = matmul(x, y, accumulate_into=acc, tiles=spec)
                        assert got.tobytes() == TropicalMatrix(kind, want).tobytes()
                assert set(dtypes) == {dtype}
    assert ragged >= 40
    # on the pool: 5x7 tiles, float32 k blocks of 6 over k=40
    pools = use_the_pool(monkeypatch)
    monkeypatch.setattr(matrix_module, "_TASK_BYTES", 8 * 5 * 7 * 3)
    xg, yg = random_grid(rng, 48, 40), random_grid(rng, 40, 44)
    got = matmul(TropicalMatrix(MIN, xg), TropicalMatrix(MIN, yg), tiles=TileSpec(5, 7, 4))
    assert pools or available_parallelism() == 1
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


# magnitudes whose sums land on both sides of 2^53 (2^52 + 2^52 reaches it exactly)
NEAR_2_53 = (2.0**52, 2.0**52 - 1, 2.0**52 + 1, 3.0 * 2**51, 2.0**53 - 1)
# magnitudes whose sums land on both sides of overflow: 2^1023 + its predecessor
# rounds up to 2^1024, the largest double plus a small weight rounds back to it
NEAR_OVERFLOW = (2.0**1023, math.nextafter(2.0**1023, 0.0), sys.float_info.max, 1e308, 0.5)


def _edge_entries(magnitudes):
    return st.one_of(
        st.sampled_from(magnitudes),
        st.sampled_from(magnitudes).map(lambda v: -v),
        st.integers(min_value=-9, max_value=9).map(float),
        st.just(INF),
    )


@st.composite
def saturating_products(draw):
    """(kind, integer, x, y, acc or None, tiles or None, _TASK_BYTES or None)"""
    integer = draw(st.booleans())
    entry = _edge_entries(NEAR_2_53 if integer else NEAR_2_53 + NEAR_OVERFLOW)
    r, k, c = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    x = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    y = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    empty = draw(st.sampled_from(["none", "x column", "y row"]))
    kk = draw(st.integers(min_value=0, max_value=k - 1))
    if empty == "x column":
        for row in x:
            row[kk] = INF
    elif empty == "y row":
        y[kk] = [INF] * c
    acc = draw(st.none() | st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    dim = st.integers(min_value=1, max_value=7)
    tiles = draw(st.none() | st.builds(TileSpec, dim, dim, st.integers(min_value=1, max_value=3)))
    # budgets of a few k slices, so k blocks of 1-3 end in a ragged tail
    task_bytes = draw(st.sampled_from([None, 8, 16, 24, 48, 96, 200]))
    return draw(kinds), integer, x, y, acc, tiles, task_bytes


@given(saturating_products())
def test_saturating_products_match_the_saturating_oracle(case):
    kind, integer, xg, yg, acc_grid, tiles, task_bytes = case
    limit = 2.0**53 if integer else INF
    want, flag = oracles.naive_matmul_saturating(
        kind.value, oracles.from_symbolic(xg), oracles.from_symbolic(yg), limit
    )
    acc = None
    if acc_grid is not None:
        acc = TropicalMatrix(kind, acc_grid, integer=integer)
        want = [[oracles.o_add(kind.value, w, a) for w, a in zip(wr, ar)]
                for wr, ar in zip(want, oracles.from_symbolic(acc_grid))]
    x, y = TropicalMatrix(kind, xg, integer=integer), TropicalMatrix(kind, yg, integer=integer)
    with pytest.MonkeyPatch.context() as patch:
        if task_bytes is not None:
            patch.setattr(matrix_module, "_TASK_BYTES", task_bytes)
        reset_saturation()
        got = matmul(x, y, accumulate_into=acc, tiles=tiles)
        seen = saturation_seen()
        reset_saturation()
    assert got.integer is integer
    assert got.tobytes() == TropicalMatrix(kind, oracles.to_symbolic(want)).tobytes()
    assert seen is flag


# integral magnitudes whose sums land on both sides of 2^24, where float32 stops being exact
NEAR_2_23 = (2.0**23, 2.0**23 - 1, 2.0**23 + 1, 2.0**23 + 2, 2.0**22 + 1)


@st.composite
def near_single_limit_products(draw):
    """(kind, x, y, acc or None, tiles or None, _TASK_BYTES or None), every entry integral"""
    entry = _edge_entries(NEAR_2_23)
    r, c = (draw(st.integers(min_value=1, max_value=6)) for _ in range(2))
    k = draw(st.integers(min_value=1, max_value=9))
    x = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    y = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    acc = draw(st.none() | st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    tiles = draw(st.sampled_from([None, TileSpec(1, 1, 2), TileSpec(2, 2, 1), TileSpec(1, c, 2)]))
    # budgets of a few k slices, so k blocks of 1-6 end in a ragged tail
    task_bytes = draw(st.sampled_from([None, 8, 16, 24, 48, 96]))
    return draw(kinds), x, y, acc, tiles, task_bytes


@given(near_single_limit_products())
# max|x| + max|y| reaches 2^24, so float64 runs: 2^24 + 3 has no float32
@example((MIN, [[2.0**23 + 1, 9.0]], [[2.0**23 + 2], [INF]], None, None, None))
# just under 2^24: float32, several ragged k blocks, then a float64 ⊕ with the accumulator
@example((MAX, [[2.0**23 - 1, -9.0, 4.0]], [[2.0**23], [-(2.0**23)], [3.0]], [[-(2.0**23 + 1)]], TileSpec(1, 1, 2), 8))
def test_float32_products_have_the_float64_bits(case):
    """An integer-mode product, in float32 wherever max|x| + max|y| < 2^24,
    has the bytes of the same product with integer=False and float32 forced
    off, which runs in float64."""
    kind, xg, yg, acc_grid, tiles, task_bytes = case

    def product(integer):
        acc = None if acc_grid is None else TropicalMatrix(kind, acc_grid, integer)
        return matmul(TropicalMatrix(kind, xg, integer), TropicalMatrix(kind, yg, integer), acc, tiles)

    with pytest.MonkeyPatch.context() as patch:
        if task_bytes is not None:
            patch.setattr(matrix_module, "_TASK_BYTES", task_bytes)
        dtypes = kernel_dtypes(patch)
        single = product(True)
        assert set(dtypes) == {np.dtype(np.float32 if _max_finite(xg) + _max_finite(yg) < 2**24 else np.float64)}
        force_float64(patch)
        dtypes.clear()
        double = product(False)
        assert set(dtypes) == {np.dtype(np.float64)}
    assert single.data.tobytes() == double.data.tobytes()


@st.composite
def dyadic_products(draw):
    """(kind, x, y, acc or None, tiles or None, _TASK_BYTES or None): every
    entry of x a multiple of 2^-sx and of y of 2^-sy, sx and sy in {0, 1, 2,
    5} and sx either sy or 0, with magnitudes near 2^(23-s) for s = max(sx,
    sy), so that max|x| + max|y| lands on both sides of 2^(24-s).  The
    accumulator holds integers, multiples of 2^-s or tenths."""
    sy = draw(st.sampled_from([0, 1, 2, 5]))
    sx = draw(st.sampled_from([sy, 0]))
    s = max(sx, sy)

    def entries(scale):
        near = st.sampled_from(NEAR_2_23).map(lambda v: math.floor(v * 2.0 ** (scale - s)) * 2.0**-scale)
        return st.one_of(near, near.map(lambda v: -v), st.integers(-9 * 2**scale, 9 * 2**scale).map(
            lambda m: m * 2.0**-scale), st.just(INF))

    r, c = (draw(st.integers(min_value=1, max_value=6)) for _ in range(2))
    k = draw(st.integers(min_value=1, max_value=9))
    x = draw(st.lists(st.lists(entries(sx), min_size=k, max_size=k), min_size=r, max_size=r))
    y = draw(st.lists(st.lists(entries(sy), min_size=c, max_size=c), min_size=k, max_size=k))
    acc_entry = draw(st.sampled_from([entries(0), entries(s), st.integers(-99, 99).map(lambda m: m / 10)]))
    acc = draw(st.none() | st.lists(st.lists(acc_entry | st.just(INF), min_size=c, max_size=c),
                                    min_size=r, max_size=r))
    tiles = draw(st.sampled_from([None, TileSpec(1, 1, 2), TileSpec(2, 2, 1), TileSpec(1, c, 2)]))
    # budgets of a few k slices, so k blocks of 1-6 end in a ragged tail
    task_bytes = draw(st.sampled_from([None, 8, 16, 24, 48, 96]))
    return draw(kinds), x, y, acc, tiles, task_bytes


@given(dyadic_products())
# integer x, quarter-integer y: max|x| + max|y| = 2^22 - 1/4, so float32 at s = 2
@example((MIN, [[2.0**21 - 1, 3.0]], [[2.0**21 + 0.75], [-0.25]], [[0.1]], TileSpec(1, 1, 2), 8))
# max|x| + max|y| = 2^22 exactly: bound·2^s reaches 2^24 at s = 2, so float64
@example((MAX, [[2.0**21 + 0.25, -3.0]], [[2.0**21 - 0.25], [0.5]], None, TileSpec(2, 2, 1), 8))
# s = 5, just under 2^19 and then past it with a sum float32 cannot hold
@example((MIN, [[2.0**18 - 2.0**-5, 1.0]], [[2.0**18], [-(2.0**-5)]], [[7.0]], None, None))
@example((MAX, [[2.0**18 + 2.0**-5, 1.0]], [[2.0**18 + 2 * 2.0**-5], [-(2.0**-5)]], [[0.25]], None, 16))
def test_dyadic_products_have_the_float64_bits(case):
    """A product whose entries are multiples of 2^-s runs in float32 exactly
    when max|x| + max|y| < 2^(24-s), and has the bytes of the same product
    with float32 forced off."""
    kind, xg, yg, acc_grid, tiles, task_bytes = case
    finite = [v for grid in (xg, yg) for row in grid for v in row if v != INF]
    # every finite double is k/2^s for one least s: the denominator of its exact fraction
    s = max((Fraction(v).denominator.bit_length() - 1 for v in finite), default=0)
    single = Fraction(_max_finite(xg) + _max_finite(yg)) * 2**s < 2**24
    x, y = TropicalMatrix(kind, xg), TropicalMatrix(kind, yg)
    acc = None if acc_grid is None else TropicalMatrix(kind, acc_grid)
    with pytest.MonkeyPatch.context() as patch:
        if task_bytes is not None:
            patch.setattr(matrix_module, "_TASK_BYTES", task_bytes)
        dtypes = kernel_dtypes(patch)
        got = matmul(x, y, acc, tiles)
        assert set(dtypes) == {np.dtype(np.float32 if single else np.float64)}
        force_float64(patch)
        dtypes.clear()
        want = matmul(x, y, acc, tiles)
        assert set(dtypes) == {np.dtype(np.float64)}
    assert got.data.tobytes() == want.data.tobytes()
    assert got.integer == want.integer


def test_squaring_reads_and_converts_its_operand_once():
    """matmul(a, a) on integers peaks at out, one float32 copy of a and the
    task's buffers.  A second copy, n²·4 bytes, would pass the bound: with
    a and an equal b apart the peak is about one such copy higher."""
    n = 256
    a = TropicalMatrix(MIN, random_grid(random.Random(256), n, n))
    assert a.integer
    want = matmul(a, TropicalMatrix(MIN, a.to_lists()), tiles=TileSpec(n, n, 1))
    kb = matrix_module._TASK_BYTES // (4 * n * n)
    task = (kb * n * n + 2 * n * n) * 4 + 3 * 64  # k blocks, reduce buffer and float32 tile, each aligned
    tracemalloc.start()
    try:
        got = matmul(a, a, tiles=TileSpec(n, n, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    bound = n * n * 8 + n * n * 4 + task + 2 * np.getbufsize() * 8 + 16 * 1024
    assert peak < bound, f"peak {peak / (n * n * 4):.3f} float32 copies of a"


def test_pool_products_saturate_like_the_oracle(monkeypatch):
    # on the pool, with k blocks of 3 over k=40
    pools = use_the_pool(monkeypatch)
    monkeypatch.setattr(matrix_module, "_TASK_BYTES", 8 * 5 * 7 * 3)
    rng = random.Random(0x5A70)
    big = 2.0**52
    for kind in (MIN, MAX):
        for sign in (1.0, -1.0):
            pick = (INF, sign * big, sign * (big - 1), float(rng.randint(-9, 9)))
            xg = [[rng.choice(pick) for _ in range(40)] for _ in range(48)]
            yg = [[rng.choice(pick) for _ in range(44)] for _ in range(40)]
            want, flag = oracles.naive_matmul_saturating(
                kind.value, oracles.from_symbolic(xg), oracles.from_symbolic(yg), 2.0**53
            )
            reset_saturation()
            got = matmul(TropicalMatrix(kind, xg), TropicalMatrix(kind, yg), tiles=TileSpec(5, 7, 4))
            assert flag and saturation_seen()
            assert got.tobytes() == TropicalMatrix(kind, oracles.to_symbolic(want)).tobytes()
    reset_saturation()
    assert pools or available_parallelism() == 1


def test_threads_per_call_are_bounded(monkeypatch):
    rng = random.Random(96)
    x = TropicalMatrix(MIN, random_grid(rng, 96, 96))
    before = threading.active_count()
    pools = use_the_pool(monkeypatch)
    got = matmul(x, x, tiles=TileSpec(1, 1, 64))
    assert threading.active_count() <= before + available_parallelism()
    assert pools or available_parallelism() == 1
    assert got.tobytes() == matmul(x, x, tiles=TileSpec(96, 96, 1)).tobytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no per-thread CPU affinity here")
def test_pool_threads_run_on_distinct_cpus():
    workers = available_parallelism()
    meet = threading.Barrier(workers, timeout=30)  # holds one task on each pool thread

    def cpus_of_this_thread():
        meet.wait()
        return frozenset(os.sched_getaffinity(0))

    pool = matrix_module._shared_pool()
    seen = [f.result(timeout=60) for f in [pool.submit(cpus_of_this_thread) for _ in range(workers)]]
    assert all(len(cpus) == 1 for cpus in seen)
    assert len(set(seen)) == workers and frozenset().union(*seen) <= os.sched_getaffinity(0)


def test_kernel_buffers_start_on_cache_lines(monkeypatch):
    buffers = []

    def recording(size, dtype=np.float64):
        buf = aligned_empty(size, dtype)
        buffers.append((buf.ctypes.data, buf.dtype, buf.nbytes))
        return buf

    aligned_empty = matrix_module._aligned_empty
    for dtype in (np.float32, np.float64):
        for size in (1, 7, 8, 9, 1000, 131072):
            buf = aligned_empty(size, dtype)
            assert buf.shape == (size,) and buf.dtype == dtype and buf.flags.writeable
            assert buf.ctypes.data % 64 == 0
    budget = 8 * 3 * 5 * 2
    monkeypatch.setattr(matrix_module, "_aligned_empty", recording)
    monkeypatch.setattr(matrix_module, "_TASK_BYTES", budget)
    rng = random.Random(64)
    xg, yg = random_grid(rng, 6, 9), random_grid(rng, 9, 10)
    want = TropicalMatrix(MIN, oracle_product(MIN, xg, yg)).tobytes()
    cases = (
        (None, TileSpec(3, 5, 1), np.float32, 3),  # blocks of 4 k, a reduce buffer, the float32 tile
        (False, TileSpec(3, 5, 1), np.float64, 2),  # blocks of 2 k and a reduce buffer
        (False, TileSpec(6, 10, 1), np.float64, 1),  # a one-k slice of 480 bytes: rows in groups of 3
    )
    for integer, tiles, dtype, count in cases:
        buffers.clear()
        with monkeypatch.context() as patch:
            if dtype is np.float64:
                force_float64(patch)
            got = matmul(TropicalMatrix(MIN, xg, integer), TropicalMatrix(MIN, yg, integer), tiles=tiles)
        assert got.tobytes() == want
        assert len(buffers) == count
        assert all(a % 64 == 0 and d == dtype and nbytes <= budget for a, d, nbytes in buffers)
