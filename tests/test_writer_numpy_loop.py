"""The writers' tests from test_graph_io.py, run again on the numpy writer.

test_graph_io.py runs them on the writer matrix_to_text picks, which is
write_table.c's wherever a C compiler builds the compiled library; here
the distinct values come from np.unique and the rows are joined in
Python, so both writers meet the same expectations.
"""

import pytest

from btas import graph_io
from test_graph_io import (  # noqa: F401  collected here a second time
    test_edge_list_to_text_matches_the_per_entry_writer,
    test_matrix_to_text_matches_the_per_entry_writer,
    test_matrix_to_text_on_either_side_of_the_distinct_count_threshold,
    test_matrix_to_text_peak_memory_on_distinct_values_stays_near_the_per_entry_writer,
    test_matrix_to_text_peak_memory_on_few_distinct_values,
)


@pytest.fixture(autouse=True)
def numpy_writer(monkeypatch):
    monkeypatch.setattr(graph_io, "_compiled_writer", lambda: None)
