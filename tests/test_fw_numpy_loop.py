"""Floyd-Warshall's tests from test_apsp.py, run again on the numpy strip loop.

test_apsp.py runs them on the loop floyd_warshall picks, which is
fw_relax.c's wherever a C compiler builds it; here every strip runs in
numpy, so both loops meet the same expectations.
"""

import pytest

from btas import apsp
from test_apsp import (  # noqa: F401  collected here a second time
    test_algorithms_agree_with_enumeration,
    test_float32_pass_stops_within_floor_rounds_of_its_floor,
    test_floyd_warshall_default_budget_blocks_match_one_block,
    test_floyd_warshall_drops_an_escaping_float64_pass_within_floor_rounds,
    test_floyd_warshall_fallback_peak_memory_in_eight_row_blocks,
    test_floyd_warshall_float32_pass_has_the_float64_bits,
    test_floyd_warshall_float32_peak_memory_in_eight_row_blocks,
    test_floyd_warshall_float_saturation_on_overflow,
    test_floyd_warshall_integer_saturation_near_exactness_limit,
    test_floyd_warshall_matches_the_always_masking_reference,
    test_floyd_warshall_peak_memory_in_eight_row_blocks,
    test_floyd_warshall_peak_memory_on_a_dense_graph,
    test_floyd_warshall_row_blocks_match_the_k_outermost_reference,
    test_floyd_warshall_saturates_upward_sums_that_no_shorter_path_undercuts,
    test_floyd_warshall_saturates_what_a_negative_cycle_drives_past_the_limit,
    test_floyd_warshall_screen_trip_without_saturation_leaves_flag_clear,
    test_floyd_warshall_takes_float32_only_where_it_is_exact,
    test_negative_cycle_flags_match_enumeration,
    test_verify_accepts_producer_output,
)


@pytest.fixture(autouse=True)
def numpy_loop(monkeypatch):
    monkeypatch.setattr(apsp, "_compiled_relax", lambda: None)
