"""The lattice tests of test_trellis.py and test_acceptance.py, run on each
lattice kernel.

trellis runs its fill and backtrack walk in C when the library builds and on
numpy otherwise. pytest collects the test functions imported below again in
this module, where the autouse `kernel` fixture runs each of them once per
kernel; in their own modules they run on whichever kernel the process loaded.
"""

import pytest

from test_acceptance import (  # noqa: F401  (collected here once per kernel)
    test_hand_verified_lattice,
    test_oracle_equivalence,
)
from test_trellis import (  # noqa: F401  (collected here once per kernel)
    compiled_kernel,
    test_a_prefix_ending_inside_an_utterance_raises,
    test_a_split_fill_equals_the_reference_fill,
    test_align_file_equals_a_run_on_the_reference_fill,
    test_align_file_outputs_are_pinned,
    test_backtrack_equals_the_reference_backtrack,
    test_backtrack_rejects_a_sequence_that_is_not_a_prefix,
    test_certain_posteriors_score_zero,
    test_earliest_end_row_wins,
    test_exact_tie_prefers_advancing,
    test_fill_equals_the_reference_fill,
    test_fill_memory_is_a_byte_per_cell,
    test_free_start_skips_leading_frames,
    test_impossible_token_probability_raises,
    test_lattice_is_read_only,
    test_matches_exhaustive_oracle,
    test_no_path_raises,
    test_prefix_backtrack_matches_a_fresh_fill,
    test_rho_equals_the_reference_loop,
    test_rho_takes_blank_when_blank_is_stronger,
    test_the_lattice_keeps_a_read_only_float64_copy_of_its_window,
    test_trellis_validation,
    test_two_frame_lattice_values,
)

from anchoralign import trellis


@pytest.fixture(autouse=True, params=["C", "numpy"])
def kernel(request, monkeypatch):
    """Selects the compiled kernel or the numpy fill and Python walk."""
    lib = compiled_kernel() if request.param == "C" else None
    monkeypatch.setattr(trellis, "_kernel", lambda: lib)
    return request.param
