import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from btas import semiring
from btas.semiring import (
    INFINITY,
    SINGLE_MAX_SCALE,
    ZERO,
    SemiringKind,
    TropicalWeight,
    additive_identity,
    format_weight,
    magnitude_and_scale,
    multiplicative_identity,
    parse_weight,
    reset_saturation,
    saturation_seen,
    single_scale,
    tadd,
    tmul,
)

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS

kinds = st.sampled_from([MIN, MAX])
finite_ints = st.integers(min_value=-(10**6), max_value=10**6).map(lambda v: TropicalWeight(float(v)))
weights = st.one_of(finite_ints, st.just(INFINITY))


def test_add_examples():
    assert tadd(MIN, TropicalWeight(2), TropicalWeight(5)).value == 2
    assert tadd(MIN, TropicalWeight(7), INFINITY).value == 7
    assert tadd(MAX, TropicalWeight(2), TropicalWeight(5)).value == 5
    assert tadd(MAX, TropicalWeight(7), INFINITY).value == 7


def test_mul_examples():
    assert tmul(MIN, TropicalWeight(2), TropicalWeight(5)).value == 7
    for kind in (MIN, MAX):
        for x in (-3.0, 0.0, 4.5):
            assert tmul(kind, TropicalWeight(x), ZERO).value == x
    assert tmul(MIN, INFINITY, TropicalWeight(5)) == INFINITY


def test_identity_elements():
    for kind in (MIN, MAX):
        assert additive_identity(kind) == INFINITY
        assert multiplicative_identity(kind) == ZERO
        assert tadd(kind, additive_identity(kind), TropicalWeight(3)).value == 3
        assert tmul(kind, ZERO, TropicalWeight(9)).value == 9


@given(kinds, weights, weights)
def test_add_commutative(kind, x, y):
    assert tadd(kind, x, y) == tadd(kind, y, x)


@given(kinds, weights, weights, weights)
def test_add_associative(kind, x, y, z):
    assert tadd(kind, tadd(kind, x, y), z) == tadd(kind, x, tadd(kind, y, z))


@given(kinds, weights)
def test_add_idempotent(kind, x):
    assert tadd(kind, x, x) == x


@given(kinds, weights, weights)
def test_mul_commutative(kind, x, y):
    assert tmul(kind, x, y) == tmul(kind, y, x)


@given(kinds, weights, weights, weights)
def test_mul_associative_integers(kind, x, y, z):
    # integer weights keep double sums exact, so equality is bitwise
    assert tmul(kind, tmul(kind, x, y), z) == tmul(kind, x, tmul(kind, y, z))


@given(kinds, weights)
def test_identity_laws(kind, x):
    assert tadd(kind, x, INFINITY) == x
    assert tmul(kind, x, ZERO) == x
    assert tmul(kind, x, INFINITY) == INFINITY


@given(kinds, weights, weights, weights)
def test_distributivity(kind, x, y, z):
    left = tmul(kind, x, tadd(kind, y, z))
    right = tadd(kind, tmul(kind, x, y), tmul(kind, x, z))
    assert left == right


@given(finite_ints, finite_ints)
def test_min_max_negation_duality(x, y):
    negated = tadd(MIN, TropicalWeight(-x.value), TropicalWeight(-y.value))
    assert tadd(MAX, x, y).value == -negated.value


@given(kinds, weights, weights)
def test_no_nan_ever(kind, x, y):
    assert not math.isnan(tadd(kind, x, y).value)
    assert not math.isnan(tmul(kind, x, y).value)


def test_weight_rejects_nan_and_signed_infinity():
    with pytest.raises(ValueError):
        TropicalWeight(math.nan)
    with pytest.raises(ValueError):
        TropicalWeight(-math.inf)


def test_weight_normalizes_negative_zero():
    w = TropicalWeight(-0.0)
    assert math.copysign(1.0, w.value) == 1.0


def test_coercion_accepts_bare_numbers():
    assert tadd(MIN, 2, 5.0).value == 2
    assert tmul(MAX, 1, math.inf) == INFINITY


def test_format_and_parse_weights():
    assert format_weight(INFINITY) == "inf"
    assert format_weight(TropicalWeight(7.0), integer=True) == "7"
    assert format_weight(TropicalWeight(2.5)) == "2.5"
    assert parse_weight("inf") == INFINITY
    assert parse_weight("INF") == INFINITY
    assert parse_weight(" 42 ").value == 42.0
    with pytest.raises(ValueError):
        parse_weight("spam")
    with pytest.raises(ValueError):
        parse_weight("nan")
    with pytest.raises(ValueError):
        parse_weight("-inf")


@given(st.integers(min_value=-(2**53) + 1, max_value=2**53 - 1))
def test_integer_text_round_trip_is_exact(v):
    w = TropicalWeight(float(v))
    assert parse_weight(format_weight(w, integer=True)) == w


@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_float_text_round_trip_is_exact(v):
    w = TropicalWeight(v)
    assert parse_weight(format_weight(w)).value == w.value


def test_overflow_saturates_and_flags():
    reset_saturation()
    assert not saturation_seen()
    assert tmul(MIN, TropicalWeight(1e308), TropicalWeight(1e308)) == INFINITY
    assert saturation_seen()
    reset_saturation()
    assert tmul(MIN, TropicalWeight(-1e308), TropicalWeight(-1e308)) == INFINITY
    assert saturation_seen()
    reset_saturation()
    assert not saturation_seen()


def test_absorption_does_not_flag_saturation():
    reset_saturation()
    assert tmul(MIN, INFINITY, TropicalWeight(5)) == INFINITY
    assert not saturation_seen()


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=7),
    st.data(),
)
def test_magnitude_in_blocks_matches_the_whole_array(shape, block, data):
    size = math.prod(shape)
    values = data.draw(st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from([math.inf, -math.inf])),
                                min_size=size, max_size=size))
    arr = np.array(values, dtype=np.float64).reshape(shape)
    finite = np.abs(arr[np.isfinite(arr)])
    want = float(finite.max()) if finite.size else 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semiring, "_MAGNITUDE_BLOCK", block)
        assert magnitude_and_scale(arr)[0] == want
    assert magnitude_and_scale(arr)[0] == want


def test_magnitude_read_peak_memory_is_a_fraction_of_its_input():
    n = 1024
    values = np.random.default_rng(5).uniform(-100.0, 100.0, size=(n, n))
    values[::7] = math.inf
    want = np.abs(values[np.isfinite(values)]).max()
    tracemalloc.start()
    try:
        got, _ = magnitude_and_scale(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 0.25 * n * n * 8, f"peak {peak / (n * n * 8):.3f} n^2 float64"


def _read_and_rule(values, bound):
    """single_scale over magnitude_and_scale's s for values, after checking its magnitude."""
    top, s = magnitude_and_scale(values)
    finite = np.abs(values[np.isfinite(values)])
    assert top == (finite.max() if finite.size else 0.0)
    return single_scale(bound, s)


def test_dyadic_scale_examples():
    assert _read_and_rule(np.array([[0.0, 3.0], [-7.0, math.inf]]), 100.0) == 0
    assert _read_and_rule(np.array([1.5, -2.0]), 100.0) == 1
    assert _read_and_rule(np.array([0.25, 0.5, math.inf]), 100.0) == 2
    assert _read_and_rule(np.array([-0.125]), 100.0) == 3
    assert _read_and_rule(np.array([math.inf]), 0.0) == 0
    for non_dyadic in (0.1, 1 / 3):
        assert _read_and_rule(np.array([1.0, non_dyadic]), 100.0) is None
    # s must also keep bound·2^s under 2^24
    assert _read_and_rule(np.array([1.0]), 2.0**24 - 1) == 0
    assert _read_and_rule(np.array([1.0]), 2.0**24) is None
    assert _read_and_rule(np.array([0.25]), 2.0**22 - 0.25) == 2
    assert _read_and_rule(np.array([0.25]), 2.0**22) is None
    # and 2^-s a normal float32: 2^-127 would be subnormal there, 2^-200 zero
    assert _read_and_rule(np.array([2.0**-126]), 4 * 2.0**-126) == SINGLE_MAX_SCALE == 126
    assert _read_and_rule(np.array([2.0**-127]), 4 * 2.0**-127) is None
    assert _read_and_rule(np.array([2.0**-200]), 6 * 2.0**-200) is None
    # the read alone: its s keeps the largest |v| itself under 2^(24-s), and integer mode is s = 0
    assert magnitude_and_scale(np.array([2.0**23 + 0.5, math.inf])) == (2.0**23 + 0.5, None)
    assert magnitude_and_scale(np.array([2.0**22 + 0.5, -1.0])) == (2.0**22 + 0.5, 1)
    assert magnitude_and_scale(np.array([-(2.0**24) + 1, 7.0]), integer=True) == (2.0**24 - 1, 0)
    assert magnitude_and_scale(np.array([2.0**24, 7.0]), integer=True) == (2.0**24, None)
    # the rule: every operand needs an s, and the largest one applies to the bound
    assert single_scale(100.0, 0, 2, 1) == 2
    assert single_scale(100.0, 0, None) is None
    assert single_scale(2.0**22 - 0.25, 0, 2) == 2
    assert single_scale(2.0**22, 0, 2) is None


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=7),
    st.data(),
)
def test_dyadic_scale_in_blocks_matches_exact_fractions(shape, block, data):
    size = math.prod(shape)
    scaled = st.builds(lambda k, s: k * 2.0**-s, st.integers(-(2**20), 2**20), st.integers(0, 4))
    values = data.draw(st.lists(st.one_of(scaled, st.floats(-1e6, 1e6), st.just(math.inf)),
                                min_size=size, max_size=size))
    top = max((abs(v) for v in values if math.isfinite(v)), default=0.0)
    bound = data.draw(st.sampled_from([2.0 * top, 2.0**20, 2.0**24]))
    arr = np.array(values, dtype=np.float64).reshape(shape)
    # every finite double is k/2^s for one least s: the denominator of its exact fraction
    s = max((Fraction(v).denominator.bit_length() - 1 for v in values if math.isfinite(v)), default=0)
    want = s if s <= SINGLE_MAX_SCALE and Fraction(bound) * 2**s < 2**24 else None
    read = s if s <= SINGLE_MAX_SCALE and Fraction(top) * 2**s < 2**24 else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semiring, "_MAGNITUDE_BLOCK", block)
        assert magnitude_and_scale(arr) == (top, read)
        assert _read_and_rule(arr, bound) == want
    assert magnitude_and_scale(arr) == (top, read)
    assert _read_and_rule(arr, bound) == want
    assert np.array_equal(arr, np.array(values, dtype=np.float64).reshape(shape))  # its input is left alone
