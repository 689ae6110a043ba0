"""The readers' tests from test_graph_io.py, run again on the numpy reader.

test_graph_io.py runs them on the fast path the readers pick, which is
read_table.c's wherever a C compiler builds the compiled library; here
numpy's np.loadtxt reads the bodies, so both fast paths meet the same
expectations, and valid comment-free files reach the line reader on
neither.
"""

import pytest

from btas import graph_io
from test_graph_io import (  # noqa: F401  collected here a second time
    test_a_non_ascii_comment_before_the_body_keeps_the_fast_path,
    test_every_reader_holds_the_one_weight_rule,
    test_fast_path_refuses_what_numpy_reads_only_with_a_warning,
    test_fast_readers_agree_with_the_per_token_oracle,
    test_graph_from_an_array_equals_graph_from_triples,
    test_parse_edge_list_peak_memory_is_bounded,
    test_readers_match_the_per_token_oracle_on_edge_list_soup,
    test_readers_match_the_per_token_oracle_on_matrix_soup,
)


@pytest.fixture(autouse=True)
def numpy_reader(monkeypatch):
    monkeypatch.setattr(graph_io, "_compiled_reader", lambda: None)
