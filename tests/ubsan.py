"""Pytest plugin: build the C lattice kernel with AddressSanitizer and
UndefinedBehaviorSanitizer.

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \
        PYTHONPATH=src:tests python -m pytest -p ubsan --capture=sys tests/test_trellis.py

The sanitizer flags are appended to the ones trellis builds with, the way
test_every_row_clone_gives_the_same_bits appends -DROW_CLONES, so the
instrumented library gets its own cache entry and the package no switch.
A read or write outside an array, or undefined behaviour, anywhere in the
kernel then ends the test process with exit code 1 instead of passing
unnoticed; UBSan alone does not see an out-of-bounds read. The ASan runtime
must be loaded before the interpreter, hence LD_PRELOAD, and the interpreter
keeps memory until exit by design, hence detect_leaks=0. --capture=sys leaves
the sanitizer's report on stderr, which pytest's default capture would drop.
"""

import pytest

from anchoralign import trellis

SANITIZER_FLAGS = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")


def pytest_configure(config):
    trellis._CFLAGS = (*trellis._CFLAGS, *SANITIZER_FLAGS)
    trellis._kernel.cache_clear()
    # a failed build or load, as without the preloaded ASan runtime, would
    # fall back to numpy and pass without checking anything
    if trellis._kernel() is None:
        raise pytest.UsageError(
            f"the lattice kernel does not build or load with {' '.join(SANITIZER_FLAGS)};"
            " is the ASan runtime in LD_PRELOAD?"
        )
