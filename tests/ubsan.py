"""Pytest plugin: build the C lattice kernel with UndefinedBehaviorSanitizer.

    PYTHONPATH=src:tests python -m pytest -p ubsan --capture=sys tests/test_trellis.py

The sanitizer flags are appended to the ones trellis builds with, the way
test_every_row_clone_gives_the_same_bits appends -DROW_CLONES, so the
instrumented library gets its own cache entry and the package no switch.
Undefined behaviour anywhere in the kernel then ends the test process with
exit code 1 instead of passing unnoticed; --capture=sys leaves the
sanitizer's report on stderr, which pytest's default capture would drop.
"""

import pytest

from anchoralign import trellis

UBSAN_FLAGS = ("-fsanitize=undefined", "-fno-sanitize-recover=all")


def pytest_configure(config):
    trellis._CFLAGS = (*trellis._CFLAGS, *UBSAN_FLAGS)
    trellis._kernel.cache_clear()
    # a failed build would fall back to numpy and pass without checking anything
    if trellis._kernel() is None:
        raise pytest.UsageError(f"the lattice kernel does not build with {' '.join(UBSAN_FLAGS)}")
