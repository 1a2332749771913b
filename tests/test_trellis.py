"""Lattice fill, backtrack, and scoring tests."""

import dataclasses
import hashlib
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import corrupted_utterances

from anchoralign import (
    FRAGMENT_FRAMES,
    SCORE_REF_S,
    SHORT_PENALTY,
    AlignParams,
    TokenSequence,
    Utterance,
    Vocab,
    align_file,
    apply_short_penalty,
    backtrack,
    build_token_sequence,
    compute_trellis,
    end_scores,
    fragment_scores,
    normalize_score,
    oracle_best_path,
    random_window,
    segment_score,
)
from anchoralign import aligner, trellis
from anchoralign.errors import ConfigError, NoPathError
from anchoralign.posterior_io import PosteriorMatrix, logsumexp
from anchoralign.trellis import _EMIT_BLOCK_ROWS, Trellis, segment_scores

VOCAB = Vocab(symbols=("∅", " ", "a", "b", "c"), blank_index=0, separator_index=1)


def _ts(text: str):
    return build_token_sequence([Utterance(utt_index=0, text=text, word_count=1)], VOCAB)


def _logp(rows):
    with np.errstate(divide="ignore"):  # zero probabilities are intentional
        return np.log(np.array(rows, dtype=np.float64))


# --- hand-checked two-frame lattice -----------------------------------------


def test_two_frame_lattice_values():
    # frame 1 is confident about 'a', frame 2 about blank
    window = _logp([[0.05, 0.05, 0.9, 0.0, 0.0], [0.8, 0.1, 0.1, 0.0, 0.0]])
    ts = _ts("a")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    assert tr.width == 2 and tr.k.shape == (2, 1) and tr.k.dtype == np.uint8
    assert tr.k.tolist() == [[1], [0]]  # 'a' advances on frame 1, stays on 2
    assert tr.end_columns == (0, 1)
    assert tr.ends.shape == (2, 2)
    assert tr.ends[1][1] == pytest.approx(math.log(0.9), abs=1e-12)
    assert end_scores(tr)[1] == pytest.approx(math.log(0.72), abs=1e-12)
    frames, rho = backtrack(tr)
    assert frames.dtype == np.int64
    assert frames.tolist() == [0, 1]  # 'a' on the first frame, the trailing blank on the second
    np.testing.assert_allclose(rho, [math.log(0.9), math.log(0.8)], atol=1e-12)


def test_free_start_skips_leading_frames():
    # silence for three frames, then the character; leading frames cost nothing
    quiet = [0.9, 0.04, 0.02, 0.02, 0.02]
    spike = [0.05, 0.02, 0.9, 0.015, 0.015]
    window = _logp([quiet, quiet, quiet, spike, quiet])
    ts = _ts("a")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    frames, rho = backtrack(tr)
    assert frames[0] == 3
    best = end_scores(tr).max()
    assert best == pytest.approx(math.log(0.9) + math.log(0.9), abs=1e-12)
    assert np.isnan(rho[:3]).all()  # frames before the path are unscored


def test_earliest_end_row_wins():
    # uniform probabilities: every end row from 2 on scores the same
    window = _logp([[1 / 3, 1 / 3, 1 / 3]] * 4)[:, [0, 1, 2]]
    vocab = Vocab(symbols=("∅", " ", "a"), blank_index=0, separator_index=1)
    ts = build_token_sequence([Utterance(utt_index=0, text="a", word_count=1)], vocab)
    tr = compute_trellis(window, ts, vocab.blank_index)
    frames, _ = backtrack(tr)
    assert frames[-1] == 1  # path ends at row 2, not later


def test_exact_tie_prefers_advancing():
    # frame 2 offers 'a' at 0.25 while staying costs 0.5 * 0.5: a dead tie,
    # resolved by advancing, so 'a' is emitted on the later frame
    window = _logp(
        [
            [0.25, 0.125, 0.5, 0.125, 0.0],
            [0.5, 0.125, 0.25, 0.125, 0.0],
            [0.125, 0.125, 0.25, 0.5, 0.0],
            [0.5, 0.125, 0.125, 0.25, 0.0],
        ]
    )
    ts = _ts("ab")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    frames, _ = backtrack(tr)
    assert frames.tolist() == [1, 2, 3]
    lp, path = oracle_best_path(window, ts, VOCAB.blank_index)
    assert lp == pytest.approx(end_scores(tr).max(), abs=1e-12)
    assert list(path) == [0, 1, 2, 3]  # column consumed per frame


def test_no_path_raises():
    window = _logp([[0.3, 0.3, 0.4, 0.0, 0.0]] * 2)
    with pytest.raises(NoPathError):
        ts = _ts("abc")  # 4 tokens with the trailing blank, only 2 frames
        tr = compute_trellis(window, ts, VOCAB.blank_index)
        backtrack(tr)


def test_impossible_token_probability_raises():
    window = _logp([[0.5, 0.25, 0.0, 0.25, 0.0]] * 3)  # p(a) = 0 everywhere
    ts = _ts("a")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    with pytest.raises(NoPathError):
        backtrack(tr)


def test_certain_posteriors_score_zero():
    window = _logp(
        [
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    ts = _ts("ab")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    frames, rho = backtrack(tr)
    assert end_scores(tr).max() == 0.0
    assert frames.tolist() == [0, 1, 2]
    np.testing.assert_array_equal(rho, np.zeros(3))


def test_rho_takes_blank_when_blank_is_stronger():
    window = _logp([[0.6, 0.1, 0.3, 0.0, 0.0], [0.9, 0.05, 0.05, 0.0, 0.0]])
    ts = _ts("a")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    _, rho = backtrack(tr)
    assert rho[0] == pytest.approx(math.log(0.6), abs=1e-12)


def test_trellis_validation():
    ts = _ts("a")
    with pytest.raises(ValueError):
        compute_trellis(np.zeros((0, 5)), ts, VOCAB.blank_index)
    with pytest.raises(ValueError):
        compute_trellis(np.zeros(5), ts, VOCAB.blank_index)
    with pytest.raises(ValueError):
        compute_trellis(np.zeros((4, 5)), ts, blank_index=9)
    with pytest.raises(ValueError):
        compute_trellis(np.zeros((4, 2)), ts, VOCAB.blank_index)  # 'a' out of range
    for last in (-2, len(ts.tokens)):  # an utterance end outside the tokens
        with pytest.raises(ValueError):
            compute_trellis(np.zeros((4, 5)), TokenSequence(ts.tokens, ((0, 0, last),)), 0)
    with pytest.raises(ValueError, match="not 1-D integers"):  # not truncated to (1, 2)
        compute_trellis(np.log(np.full((8, 4), 0.25)), TokenSequence((1.7, 2.2), ((0, 0, 1),)), 0)
    for bad in (1e-300, 1e-30, np.inf, np.nan):  # backtrack's end rule needs every value <= 0
        for dtype in (np.float64, np.float32):  # each is checked as it is held
            window = np.zeros((4, 5), dtype=dtype)
            window[2, 3] = bad
            if window[2, 3] != 0 or np.isnan(bad):  # 1e-300 is 0 in float32
                with pytest.raises(ValueError):
                    compute_trellis(window, ts, VOCAB.blank_index)
    # a Trellis built by hand is held to the same rules, and to those on k and ends
    _hand_built()  # the unchanged fields pass
    for changes in (
        {"window": np.full(20, -1.0)},
        {"window": np.full((0, 5), -1.0)},
        {"window": np.full((4, 5), 1e-300)},
        {"window": np.full((4, 5), np.nan)},
        {"window": np.full((4, 5), 1e-30, dtype=np.float32)},
        {"window": np.full((4, 5), np.nan, dtype=np.float32)},
        {"k": np.zeros((3, 1))},  # a row short of frames
        {"k": np.zeros((5, 1))},  # a row for frame 0
        {"k": np.zeros((4, 2))},  # a byte per decision, not 2 bits in 1 byte
        {"k": np.zeros((4, 0))},
        {"k": np.zeros(4)},
        {"ends": np.zeros((3, 2))},
        {"ends": np.zeros((4, 3))},
        {"end_columns": (1, 2)},
        {"end_columns": (0, 3)},
        {"end_columns": (2, 0)},
        {"end_columns": (0, 2, 2), "ends": np.zeros((4, 3))},
        {"end_columns": (), "ends": np.zeros((4, 0))},
        {"tokens": (2, 5)},
        {"tokens": (-1, 3)},
        {"tokens": ((2, 3),)},
        {"tokens": (2.0, 3.0)},  # integral values, but not integers
        {"tokens": np.array([2.5, 3.0])},
        {"tokens": np.array([True, False])},
        {"tokens": np.array([2, 2**32])},  # checked before narrowing: it would wrap to 0
        {"tokens": np.array([2, 2**32 + 3], dtype=np.uint64)},
        {"tokens": (2, 2**64)},  # past int64 as well
        {"blank_index": 5},
        {"blank_index": -1},
    ):
        with pytest.raises(ValueError):
            _hand_built(**changes)


def _hand_built(**changes):
    """A Trellis built by hand, 4 frames of 5 symbols and the tokens of "ab",
    with changes to its fields."""
    fields = {
        "window": np.full((4, 5), -1.0),
        "k": np.zeros((4, 1), dtype=np.uint8),
        "ends": np.zeros((4, 2)),
        "end_columns": (0, 2),
        "tokens": (2, 3),
        "blank_index": 0,
    }
    return Trellis(**{**fields, **changes})


def _crash_recipe(name):
    """backtrack through the last end column of a Trellis built by hand that,
    unchecked, makes the C trace read out of bounds and the numpy trace raise
    IndexError."""
    end_columns = (0, 5)
    window = np.full((8, 4), np.log(0.25))
    tokens = [1, 2, 3, 1, 2]
    k = np.full((8, 1), 0b11111, dtype=np.uint8)  # advances everywhere
    ends = np.zeros((8, 2))
    ends[:, 1] = np.linspace(-7.0, 0.0, 8)
    if name == "a token past the window's symbols":
        tokens[-1] = 400_000_000
    elif name == "k and ends rows that do not match the window's":
        window = np.full((20_000, 4), np.log(0.25))
        window[:, 0] = np.linspace(-1.0, 0.0, 20_000)  # the blank ends the path on the last frame
        k, ends = k[:2], ends[:1]
    elif name == "an end column past k's width":  # with finite ends
        # 5 frames reach no end column past 0, so k has no bits: the trace
        # would read past it
        window, k, ends = window[:5], k[:5, :0], ends[:5]
    tr = Trellis(window=window, k=k, ends=ends, end_columns=end_columns, tokens=tokens, blank_index=0)
    return backtrack(tr, end_columns[-1])


CRASH_RECIPES = (
    "a token past the window's symbols",
    "k and ends rows that do not match the window's",
    "an end column past k's width",
)

# run in a child process: argv is the kernel, then the flags to build C with
_CRASH_CHILD = """
import sys
import test_trellis
from anchoralign import trellis
from anchoralign.errors import AnchorAlignError

kernel, *flags = sys.argv[1:]
trellis._CFLAGS = tuple(flags)
lib = trellis._load_library() if kernel == "C" else None
calls = []
trellis._kernel = lambda: calls.append(kernel) or lib
for recipe in test_trellis.CRASH_RECIPES:
    try:
        test_trellis._crash_recipe(recipe)
        outcome = "returned a path"
    except (ValueError, AnchorAlignError) as exc:
        outcome = f"raised {type(exc).__name__}"
    print(f"{recipe}: {outcome}{' after a kernel call' if calls else ''}", flush=True)
"""


@pytest.mark.parametrize("kernel", ["C", "numpy"])
def test_hand_built_lattices_fail_before_any_kernel_call(kernel):
    # unchecked, a recipe ends the process or reads past an array, so they run
    # in a child, and a regression fails this test instead of ending pytest
    if kernel == "C":
        compiled_kernel()
    paths = [Path(trellis.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_CHILD, kernel, *trellis._CFLAGS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stdout}{proc.stderr}"
    outcomes = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    assert outcomes == {
        CRASH_RECIPES[0]: "raised ValueError",
        CRASH_RECIPES[1]: "raised ValueError",
        CRASH_RECIPES[2]: "raised NoPathError",
    }


def test_lattice_is_read_only():
    window = _logp([[0.05, 0.05, 0.9, 0.0, 0.0], [0.8, 0.1, 0.1, 0.0, 0.0]])
    tr = compute_trellis(window, _ts("a"), VOCAB.blank_index)
    with pytest.raises(ValueError):
        tr.k[0, 0] = 1
    with pytest.raises(ValueError):
        tr.ends[0, 0] = 1.0


def _traced(tr):
    """tr's lattice, frames and rho as bytes."""
    frames, rho = backtrack(tr)
    return tr.k.tobytes(), tr.ends.tobytes(), frames.tobytes(), rho.tobytes()


def _holding_case():
    """A PosteriorMatrix of 1200 float32 rows, its generator and a token sequence."""
    rng = np.random.default_rng(5)
    pm = PosteriorMatrix(np.log(rng.dirichlet(np.ones(38), size=1200)).astype(np.float32), 0.02)
    return rng, pm, _ts("abcab")


def _assert_converted(given, dtype, ts):
    """compute_trellis holds a read-only copy of given, of dtype, that traces
    with the bits of given's float64 values."""
    given.flags.writeable = False  # else compute_trellis copies it first
    tr = compute_trellis(given, ts, VOCAB.blank_index)
    assert tr.window.dtype == dtype and tr.window.flags.c_contiguous
    assert tr.window.flags.aligned and not np.shares_memory(tr.window, given)
    assert not tr.window.flags.writeable and np.array_equal(tr.window, given)
    assert _traced(tr) == _traced(compute_trellis(given.astype(np.float64), ts, 0))


def test_a_float32_windows_rows_are_read_in_place():
    # a row slice of a PosteriorMatrix, as the aligner takes, is held and read in place
    _, pm, ts = _holding_case()
    window = pm.data[100:1100]
    tracemalloc.start()
    try:
        tr = compute_trellis(window, ts, VOCAB.blank_index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.window.dtype == np.float32 and tr.window.flags.c_contiguous
    assert np.shares_memory(tr.window, pm.data) and not tr.window.flags.writeable
    assert peak < window.nbytes / 2  # no window-sized array was allocated
    assert _traced(tr) == _traced(compute_trellis(window.astype(np.float64), ts, 0))


def test_the_lattice_keeps_a_read_only_float64_copy_of_its_window():
    # a float64 window stays float64, held in place when read-only and copied
    # when writable; every dtype but native float32 becomes a float64 copy
    rng, pm, ts = _holding_case()
    window = pm.data[100:1100]
    want = _traced(compute_trellis(window, ts, VOCAB.blank_index))
    as_float64 = window.astype(np.float64)
    as_float64.flags.writeable = False
    held = compute_trellis(as_float64, ts, VOCAB.blank_index)
    assert held.window.dtype == np.float64 and np.shares_memory(held.window, as_float64)
    assert _traced(held) == want
    writable = window.astype(np.float64)
    copied = compute_trellis(writable, ts, VOCAB.blank_index)
    writable[:] = np.log(1 / 38)  # the caller's array stays writable, and apart from the copy
    assert copied.window.dtype == np.float64 and not np.shares_memory(copied.window, writable)
    with pytest.raises(ValueError):
        copied.window[0, 0] = 0.0
    assert _traced(copied) == want
    for given in [
        window.astype(np.float16),
        -rng.integers(0, 4, size=(60, 38)),
        window.astype(">f4"),  # big-endian
    ]:
        _assert_converted(given, np.float64, ts)


def test_the_lattice_holds_a_read_only_window_of_its_own_float_type():
    _, pm, ts = _holding_case()
    window = pm.data[100:1100]
    want = _traced(compute_trellis(window, ts, VOCAB.blank_index))
    # a writable float32 window is copied, so changing it changes nothing the lattice reads
    writable = window.copy()
    from_writable = compute_trellis(writable, ts, VOCAB.blank_index)
    writable[:] = np.log(1 / 38)
    assert writable.flags.writeable and from_writable.window.dtype == np.float32
    assert not np.shares_memory(from_writable.window, writable)
    assert not from_writable.window.flags.writeable
    assert _traced(from_writable) == want
    # a float32 window that is not C-contiguous and aligned becomes one that is
    misaligned = np.frombuffer(b"\0" + window.tobytes(), np.float32, offset=1).reshape(window.shape)
    for given in [
        pm.data[::2],  # strided rows
        np.asfortranarray(window),
        misaligned,
    ]:
        _assert_converted(given, np.float32, ts)


def test_a_prefix_ending_inside_an_utterance_raises():
    utts = [Utterance(0, "ab", word_count=1), Utterance(1, "c", word_count=1)]
    full = build_token_sequence(utts, VOCAB)  # a b <sep> c
    window = _logp([[0.4, 0.1, 0.2, 0.2, 0.1]] * 8)
    tr = compute_trellis(window, full, VOCAB.blank_index)
    assert tr.end_columns == (0, 2, 4)
    for n in (0, 2, 4):
        end_scores(tr, n)
    backtrack(tr, 2)
    for n in (1, 3):
        with pytest.raises(ValueError):
            end_scores(tr, n)
        with pytest.raises(ValueError):
            backtrack(tr, n)


def test_fill_memory_is_a_bit_per_cell():
    rng = np.random.default_rng(9)
    utts = [Utterance(i, "".join(rng.choice(list("abc"), 99)), word_count=1) for i in range(12)]
    ts = build_token_sequence(utts, VOCAB)
    n_frames, n_tokens = 3000, len(ts.tokens)  # 1,199 tokens with the separators
    window = -rng.exponential(size=(n_frames, len(VOCAB.symbols)))
    tracemalloc.start()
    try:
        tr = compute_trellis(window, ts, VOCAB.blank_index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n_frames + 1) * (n_tokens + 1) / 2  # a byte lattice is 1 byte a cell
    # README's bound, met here: every token is within the window's reach
    bound = n_frames * math.ceil(min(n_tokens, n_frames - 1) / 8) + 8 * n_frames * (len(utts) + 1)
    assert tr.k.nbytes + tr.ends.nbytes == bound


# --- oracle cross-checks -----------------------------------------------------


def _path_from_frames(frames):
    path = np.zeros(frames[-1] + 1, dtype=np.int64)
    for col, frame in enumerate(frames, start=1):
        path[frame:] = col
    return path


@pytest.mark.parametrize("tie_prone", [False, True])
def test_matches_exhaustive_oracle(tie_prone):
    rng = np.random.default_rng(4242 if tie_prone else 2424)
    for _ in range(100):
        window, ts, blank = random_window(rng, tie_prone=tie_prone)
        oracle_lp, oracle_path = oracle_best_path(window, ts, blank)
        tr = compute_trellis(window, ts, blank)
        frames, _ = backtrack(tr)
        assert abs(end_scores(tr).max() - oracle_lp) <= 1e-9
        np.testing.assert_array_equal(_path_from_frames(frames), oracle_path)


# --- prefix backtrack on one lattice -----------------------------------------


def _batch_window(rng):
    """12 short utterances and a tie-prone window of 25-69 frames with some -inf cells."""
    utts = [
        Utterance(i, "".join(rng.choice(list("abc"), rng.integers(1, 4))), word_count=1)
        for i in range(12)
    ]
    rows = -0.125 * rng.integers(1, 9, size=(3, len(VOCAB.symbols))).astype(np.float64)
    window = rows[rng.integers(0, 3, size=int(rng.integers(25, 70)))]
    window[rng.random(window.shape) < 0.04] = -np.inf
    return window, utts


def test_prefix_backtrack_matches_a_fresh_fill():
    rng = np.random.default_rng(77)
    traced = blocked = 0
    for _ in range(25):
        window, utts = _batch_window(rng)
        full = build_token_sequence(utts, VOCAB)
        tr = compute_trellis(window, full, VOCAB.blank_index)
        for n in range(1, len(full.boundaries) + 1):
            ts = build_token_sequence(utts[:n], VOCAB)
            n_tokens = full.boundaries[n - 1][2] + 1  # what align_window passes
            assert ts.tokens == full.tokens[:n_tokens]
            fresh = compute_trellis(window, ts, VOCAB.blank_index)
            try:
                want_frames, want_rho = backtrack(fresh)
            except NoPathError:
                with pytest.raises(NoPathError):
                    backtrack(tr, n_tokens)
                blocked += 1
                continue
            traced += 1
            frames, rho = backtrack(tr, n_tokens)
            assert np.array_equal(frames, want_frames)
            assert np.array_equal(rho, want_rho, equal_nan=True)
    assert traced > 100 and blocked > 0


def test_backtrack_rejects_a_sequence_that_is_not_a_prefix():
    window = _logp([[0.4, 0.1, 0.2, 0.2, 0.1]] * 8)
    ts = _ts("ab")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    for n_tokens in (-1, 1, len(ts.tokens) + 1):  # no utterance prefix of "ab" has that many
        with pytest.raises(ValueError):
            backtrack(tr, n_tokens)


# --- reference kernels: the straightforward loops the fast ones must equal ---


def _reference_fill(window_logp, ts, blank_index):
    """The float64 score lattice as first written: a -inf prefill, a fancy
    index per row, and a trailing-blank column after the token columns."""
    window = np.asarray(window_logp, dtype=np.float64)
    col_tokens = np.array(list(ts.tokens) + [blank_index], dtype=np.int64)
    k = np.full((window.shape[0] + 1, len(col_tokens) + 1), -np.inf)
    k[:, 0] = 0.0
    blank_lp = window[:, blank_index]
    for t in range(1, window.shape[0] + 1):
        prev = k[t - 1]
        advance = prev[:-1] + window[t - 1, col_tokens]
        stay = prev[1:] + blank_lp[t - 1]
        k[t, 1:] = np.maximum(stay, advance)
    k.flags.writeable = False
    return k


def _reference_decisions(ref_k, window, tokens, blank_index):
    """The walk's advance rule applied to a _reference_fill lattice, per cell."""
    n = len(tokens)
    decisions = np.zeros((window.shape[0] + 1, n + 1), dtype=np.uint8)
    emit = window[:, list(tokens)]
    blank = window[:, [blank_index]]
    decisions[1:, 1:] = ref_k[:-1, :n] + emit >= ref_k[:-1, 1 : n + 1] + blank
    return decisions


def _packed(decisions, width):
    """k for _reference_decisions: frames 1.. and columns 1..width - 1, packed
    eight to a byte, the first column in bit 0."""
    return np.packbits(decisions[1:, 1:width], axis=1, bitorder="little")


def _reference_trellis(window_logp, ts, blank_index):
    """A Trellis read off _reference_fill: its decisions up to the last end
    column below the window's frame count, the last any path can end in, and
    its end columns."""
    window = np.asarray(window_logp, dtype=np.float64)
    ref_k = _reference_fill(window, ts, blank_index)
    end_columns = tuple(sorted({0, len(ts.tokens), *(last + 1 for *_, last in ts.boundaries)}))
    width = max(c for c in end_columns if c < len(window)) + 1
    return Trellis(
        window=window,
        k=_packed(_reference_decisions(ref_k, window, ts.tokens, blank_index), width),
        ends=ref_k[:-1, list(end_columns)],
        end_columns=end_columns,
        tokens=np.array(ts.tokens, dtype=np.int64),
        blank_index=blank_index,
    )


def _trailing_blank_column(last_token_col, blank_lp):
    """The trailing-blank column after last_token_col, by _reference_fill's update.

    Both of its candidates add the same blank cost, and rounding is
    monotonic, so max(stay, advance) == max(cell, col) + blank bit for bit.
    """
    out = [-math.inf]  # row 0: no frame consumed yet
    cell = -math.inf
    for col, blank in zip(last_token_col.tolist(), blank_lp.tolist()):
        cell = (cell if cell >= col else col) + blank
        out.append(cell)
    return np.array(out)


def _reference_backtrack(k, window_logp, ts, blank_index):
    """backtrack as first written, on a _reference_fill lattice k: the path
    ends on the best row of a trailing-blank column, the stored one for the
    full batch and a derived one for a prefix, and may stay in it. Returns
    the emission frame of each traced column and _reference_rho."""
    window = np.asarray(window_logp, dtype=np.float64)
    n_tokens = len(ts.tokens)
    n_cols = n_tokens + 1  # ts's trailing blank is column n_cols
    col_tokens = [*ts.tokens, blank_index]
    blank_lp = window[:, blank_index]
    if n_cols == k.shape[1] - 1:
        final = k[:, n_cols]
    else:
        final = _trailing_blank_column(k[:, n_tokens], blank_lp)
    if final[1:].max() == -np.inf:
        raise NoPathError("no path")
    psi = int(np.argmax(final[1:])) + 1
    advance_row = [0] * (n_cols + 1)
    t, j = psi, n_cols
    while j > 0:
        if t < 1:
            raise NoPathError("backtrack walked past the window start")
        adv_val = k[t - 1, j - 1] + window[t - 1, col_tokens[j - 1]]
        stay_val = (final[t - 1] if j == n_cols else k[t - 1, j]) + blank_lp[t - 1]
        if adv_val >= stay_val:
            advance_row[j] = t
            j -= 1
        t -= 1
    frames = np.array([advance_row[j] - 1 for j in range(1, n_cols + 1)])
    ends = [*frames[1:], psi]  # each column is held until the next one's emission
    return frames, _reference_rho(window, frames, ends, col_tokens, blank_index)


def _reference_rho(window, frames, ends, symbols, blank_index):
    """rho as first written: one np.maximum per traced column, over frames
    frames[i] .. ends[i] - 1 of symbols[i]."""
    rho = np.full(window.shape[0], np.nan)
    for start, end, symbol in zip(frames, ends, symbols):
        rho[start:end] = np.maximum(window[start:end, symbol], window[start:end, blank_index])
    return rho


def _token_boundaries(n_tokens):
    """Boundaries that make each token an utterance, so every prefix ends one."""
    return tuple((i, i, i) for i in range(n_tokens))


def _hard_window(rng, n_frames):
    """Tie-prone dyadic rows mixed with random log probabilities, plus -inf
    cells and frames whose blank (column 0) is -inf."""
    rows = -0.125 * rng.integers(1, 9, size=(3, len(VOCAB.symbols))).astype(np.float64)
    window = rows[rng.integers(0, 3, size=n_frames)]
    rough = rng.random(n_frames) < 0.3
    window[rough] = np.log(rng.random((int(rough.sum()), len(VOCAB.symbols))))
    window[rng.random(window.shape) < 0.05] = -np.inf
    window[rng.random(n_frames) < 0.1, 0] = -np.inf
    return window


@pytest.mark.parametrize(
    "n_frames",
    [1, _EMIT_BLOCK_ROWS - 1, _EMIT_BLOCK_ROWS, _EMIT_BLOCK_ROWS + 1, 3 * _EMIT_BLOCK_ROWS + 5],
)
def test_fill_equals_the_reference_fill(n_frames):
    rng = np.random.default_rng(900 + n_frames)
    for n_tokens in sorted({1, 2, n_frames // 2 + 1, max(1, n_frames - 1), n_frames, n_frames + 3}):
        for _ in range(4):
            window = _hard_window(rng, n_frames)
            tokens = tuple(int(x) for x in rng.integers(1, 5, size=n_tokens))
            ts = TokenSequence(tokens, _token_boundaries(n_tokens))
            got = compute_trellis(window, ts, 0)
            want = _reference_fill(window, ts, 0)
            decisions = _reference_decisions(want, window, tokens, 0)
            # every column ends an utterance; a path ends no later than column n_frames - 1
            width = min(n_tokens, n_frames - 1) + 1
            assert got.width == width and np.array_equal(got.k, _packed(decisions, width))
            assert got.end_columns == tuple(range(n_tokens + 1))
            assert np.array_equal(got.ends, want[:-1, :-1])
            assert got.tokens.dtype == np.int32 and got.tokens.tolist() == list(tokens)
            one_utt = compute_trellis(window, TokenSequence(tokens, ((0, 0, n_tokens - 1),)), 0)
            one_width = n_tokens + 1 if n_tokens < n_frames else 1  # its end, or column 0 alone
            assert np.array_equal(one_utt.k, _packed(decisions, one_width))
            assert one_utt.end_columns == (0, n_tokens)
            assert np.array_equal(one_utt.ends, want[:-1, [0, n_tokens]])
            for n in range(n_tokens):  # every prefix's derived trailing-blank column
                fresh = _reference_fill(window, TokenSequence(tokens[:n], ()), 0)
                derived = _trailing_blank_column(want[:, n], window[:, 0])
                assert np.array_equal(derived, fresh[:, -1])


def _wide_window(rng, n_frames):
    """Log probabilities spanning e^-40 .. e^40 in magnitude, where additions absorb."""
    return -np.exp(rng.uniform(-40, 40, size=(n_frames, len(VOCAB.symbols))))


@pytest.mark.parametrize("make_window", [_hard_window, _wide_window])
def test_backtrack_equals_the_reference_backtrack(make_window):
    rng = np.random.default_rng(31 if make_window is _hard_window else 32)
    traced = blocked = 0
    for _ in range(40):
        n_frames = int(rng.integers(1, 50))
        window = make_window(rng, n_frames)
        tokens = tuple(int(x) for x in rng.integers(1, 5, size=int(rng.integers(1, n_frames + 4))))
        full = TokenSequence(tokens, _token_boundaries(len(tokens)))  # every prefix is kept
        tr = compute_trellis(window, full, 0)
        ref = _reference_fill(window, full, 0)
        for n in range(len(tokens) + 1):
            ts = TokenSequence(tokens[:n], full.boundaries[:n])
            try:
                want_frames, want_rho = _reference_backtrack(ref, window, ts, 0)
            except NoPathError:
                with pytest.raises(NoPathError):
                    backtrack(tr, n)
                blocked += 1
                continue
            frames, rho = backtrack(tr, n)
            assert frames.dtype == np.int64 and np.array_equal(frames, want_frames)
            assert np.array_equal(rho, want_rho, equal_nan=True)
            traced += 1
    assert traced > 500 and blocked > 15


def test_rho_equals_the_reference_loop():
    rng = np.random.default_rng(78)
    compared = 0
    for _ in range(25):
        window, utts = _batch_window(rng)
        full = build_token_sequence(utts, VOCAB)
        tr = compute_trellis(window, full, VOCAB.blank_index)
        for *_, last in full.boundaries:
            try:
                frames, rho = backtrack(tr, last + 1)
            except NoPathError:
                continue
            ends = [*frames[1:], frames[-1] + 1]
            symbols = (*full.tokens[: last + 1], VOCAB.blank_index)
            want = _reference_rho(window, frames, ends, symbols, VOCAB.blank_index)
            assert np.array_equal(rho, want, equal_nan=True)
            compared += 1
    assert compared > 250


def _align_cases(corpus):
    """The clean corpus on the accept path, and the corrupted one through grows and skips."""
    narrow = AlignParams(window_s=30.0, window_step_s=15.0, max_window_s=60.0, threshold=-1.0)
    return [(corpus.utterances, AlignParams()), (corrupted_utterances(corpus), narrow)]


def test_align_file_equals_a_run_on_the_reference_fill(corpus09, monkeypatch):
    cases = _align_cases(corpus09)
    want = [align_file(corpus09.pm, utts, corpus09.vocab, params) for utts, params in cases]
    outcomes = {o.split(":")[0] for run in want for *_, o in run.iterations_log}
    assert outcomes == {"accepted", "grow", "skip"}
    monkeypatch.setattr(aligner, "compute_trellis", _reference_trellis)
    got = [align_file(corpus09.pm, utts, corpus09.vocab, params) for utts, params in cases]
    assert got == want


# sha256 of what _run_digest_lines writes for _align_cases, computed before
# backtrack returned frame arrays; every aligned span and score keeps these bits
ALIGN_FILE_SHA256 = "2888ec09f7830df9fca30c9abcb592459fc5048feaefb65301351428946dfef3"


def _run_digest_lines(run):
    """Every UtteranceAlignment field (floats as float.hex) and iterations_log.

    The pin predates the removal of the accepted field, which was True on
    every aligned utterance, so each line still carries a True after
    penalized."""
    for aln in run.utterances:
        values = []
        for f in dataclasses.fields(aln):
            values.append(getattr(aln, f.name))
            if f.name == "penalized":
                values.append(True)
        yield " ".join(v.hex() if isinstance(v, float) else repr(v) for v in values)
    yield from (repr(entry) for entry in run.iterations_log)


def test_align_file_outputs_are_pinned(corpus09):
    digest = hashlib.sha256()
    for utts, params in _align_cases(corpus09):
        run = align_file(corpus09.pm, utts, corpus09.vocab, params)
        digest.update("\n".join(_run_digest_lines(run)).encode() + b"\n\n")
    assert digest.hexdigest() == ALIGN_FILE_SHA256


# --- the compiled kernel and the numpy fallback ------------------------------


def compiled_kernel():
    """The C kernel's library; skips the test where it does not build."""
    lib = trellis._load_library()
    if lib is None:
        pytest.skip("the C kernel does not build here")
    return lib


def _run(window, ts, blank):
    tr = compute_trellis(window, ts, blank)
    lattice = (tr.k.tobytes(), tr.ends.tobytes(), tr.end_columns)
    try:
        frames, rho = backtrack(tr)
    except NoPathError:
        return lattice, None
    return lattice, (frames.tobytes(), rho.tobytes())


@pytest.mark.parametrize("tie_prone", [False, True])
def test_kernels_give_the_same_bits(monkeypatch, tie_prone):
    lib = compiled_kernel()
    rng = np.random.default_rng(606 if tie_prone else 607)
    blocked = 0
    for _ in range(150):
        window, ts, blank = random_window(
            rng, max_frames=60, max_chars=40, max_vocab=6, tie_prone=tie_prone
        )
        window[rng.random(window.shape) < 0.1] = -np.inf
        ts = TokenSequence(ts.tokens, _token_boundaries(len(ts.tokens)))  # keep every column
        results = []
        for chosen in (lib, None):
            monkeypatch.setattr(trellis, "_kernel", lambda chosen=chosen: chosen)
            results.append(_run(window, ts, blank))
        assert results[0] == results[1]
        blocked += results[0][1] is None
    assert 0 < blocked < 150 // 2


# --- wide fills with interior utterance ends ---------------------------------

# widths around 512 and 768 columns
_WIDE_WIDTHS = [n * 256 + d for n in (2, 3) for d in (-1, 0, 1)]


def _wide_sequence(rng, width):
    """Tokens for a lattice of width columns whose utterances end on columns
    m - 1, m and m + 1 around each column m = 1 + (width - 1) * i // n
    (0 < i < n) that splits its token columns into halves and thirds."""
    n_tokens = width - 1
    starts = [1 + n_tokens * i // n for n in (2, 3) for i in range(1, n)]
    ends = sorted({c for m in starts for c in (m - 1, m, m + 1)} | {n_tokens})
    tokens = tuple(int(x) for x in rng.integers(1, len(VOCAB.symbols), size=n_tokens))
    firsts = [0, *ends[:-1]]
    return TokenSequence(tokens, tuple((i, a, b - 1) for i, (a, b) in enumerate(zip(firsts, ends))))


def _wide_cases(rng):
    """(window, ts) pairs at each wide width, with -inf emissions: a 1-row
    window, which reaches column 0 alone; one of the width's rows, the
    fewest that reach every column, so that most columns lie out of reach
    on its first rows; and one of twice the width's rows, long enough for a
    path."""
    for width in _WIDE_WIDTHS:
        ts = _wide_sequence(rng, width)
        for n_frames in (1, width, 2 * width):
            yield _hard_window(rng, n_frames), ts


# lattice widths whose rows of width - 1 decision bits fill no byte, part of
# one, one, part of two and two
_BYTE_WIDTHS = (1, 2, 8, 9, 16, 17)


def _byte_cases(rng, make_window):
    """(window, ts) pairs at each of _BYTE_WIDTHS, every column an utterance
    end: a window of width frames under tokens past its reach, whose first
    rows hold out-of-reach bits, and one of 3 x width + 2 frames under
    width - 1 tokens, long enough for a path. So k's last row ends partway
    through a byte at widths 2, 8 and 16, where a store past it would pass
    k's end."""
    for width in _BYTE_WIDTHS:
        for n_frames, n_tokens in ((width, width + 2), (3 * width + 2, width - 1)):
            tokens = tuple(int(x) for x in rng.integers(1, 5, size=n_tokens))
            yield make_window(rng, n_frames), TokenSequence(tokens, _token_boundaries(n_tokens))


def _assert_the_reference_lattice(got, want):
    """got is the lattice of the _reference_trellis want, byte for byte."""
    assert got.width == want.width and got.k.shape == (len(want.window), (want.width + 6) // 8)
    assert got.k.tobytes() == want.k.tobytes() and np.array_equal(got.ends, want.ends)
    assert got.end_columns == want.end_columns


def test_a_split_fill_equals_the_reference_fill():
    # lattices split by utterance ends around their halves and thirds
    rng = np.random.default_rng(612)
    for window, ts in _wide_cases(rng):
        got, want = compute_trellis(window, ts, 0), _reference_trellis(window, ts, 0)
        _assert_the_reference_lattice(got, want)


def test_a_wide_fill_gives_the_numpy_kernels_bits(monkeypatch):
    # the C kernel's lattice, frames and rho are the numpy kernel's, bit for bit
    lib = compiled_kernel()
    rng = np.random.default_rng(611)
    traced = 0
    for window, ts in _wide_cases(rng):
        monkeypatch.setattr(trellis, "_kernel", lambda: None)
        want = _run(window, ts, 0)
        monkeypatch.setattr(trellis, "_kernel", lambda: lib)
        assert _run(window, ts, 0) == want
        traced += want[1] is not None
    assert traced == len(_WIDE_WIDTHS)


def _zeroed_numpy_fill(window, ts, blank):
    """k and ends of the numpy fill into zeroed arrays, up to the last end
    column below the window's frame count; the later end columns are -inf."""
    columns = sorted({0, len(ts.tokens), *(last + 1 for *_, last in ts.boundaries)})
    reached = np.array([c for c in columns if c < len(window)])
    k = np.zeros((len(window), (reached[-1] + 7) // 8), dtype=np.uint8)
    ends = np.zeros((len(window), len(reached)))
    window = np.array(window, dtype=np.float64)
    tokens = np.array(ts.tokens[: reached[-1]], dtype=np.int64)
    trellis._fill_rows(window, tokens, blank, k, reached, ends)
    unreached = np.full((len(window), len(columns) - len(reached)), -np.inf)
    return k.tobytes(), np.hstack([ends, unreached]).tobytes()


@pytest.mark.parametrize("kernel", ["C", "numpy"])
def test_an_unzeroed_lattice_gives_the_bits_of_a_zeroed_one(monkeypatch, kernel):
    # k comes from np.empty and no byte of it is zeroed: the fill must write
    # every one, padding bits included
    lib = compiled_kernel() if kernel == "C" else None
    cases = list(_wide_cases(np.random.default_rng(613)))
    want = [_zeroed_numpy_fill(window, ts, 0) for window, ts in cases]
    real_empty, dirty = np.empty, []

    def dirty_empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        out.view(np.uint8).fill(0xA5)
        dirty.append(out.shape)
        return out

    monkeypatch.setattr(np, "empty", dirty_empty)
    monkeypatch.setattr(trellis, "_kernel", lambda: lib)
    for (window, ts), expected in zip(cases, want):
        dirty.clear()
        tr = compute_trellis(window, ts, 0)
        assert tr.k.shape in dirty
        assert (tr.k.tobytes(), tr.ends.tobytes()) == expected


@pytest.mark.parametrize("kernel", ["C", "numpy"])
def test_cells_out_of_a_paths_reach_advance_and_score_minus_inf(monkeypatch, kernel):
    # column j needs j frames, so on row t every column past t is out of
    # reach: its decision bit is 1 (-inf >= -inf advances) and its end score
    # -inf, and the padding bits past the last column are 0. Windows of 1
    # row, of fewer rows than tokens, as many and one more: rows of 0 bits,
    # and rows that end partway through a byte and on one's end
    lib = compiled_kernel() if kernel == "C" else None
    monkeypatch.setattr(trellis, "_kernel", lambda: lib)
    rng = np.random.default_rng(615)
    n_tokens = 768
    tokens = tuple(int(x) for x in rng.integers(1, len(VOCAB.symbols), size=n_tokens))
    ts = TokenSequence(tokens, _token_boundaries(n_tokens))
    for n_frames in (1, n_tokens - 1, n_tokens, n_tokens + 1):
        window = _hard_window(rng, n_frames)
        want = _reference_trellis(window, ts, 0)
        out_of_reach = np.array(want.end_columns) > np.arange(n_frames)[:, None]
        got = compute_trellis(window, ts, 0)
        _assert_the_reference_lattice(got, want)
        bits = np.unpackbits(got.k, axis=1, bitorder="little")
        rows, columns = np.indices(bits.shape)  # frame rows + 1, column columns + 1
        decided = columns < got.width - 1
        assert (bits[(columns > rows) & decided] == 1).all()
        assert (bits[~decided] == 0).all()
        assert (got.ends[out_of_reach] == -np.inf).all()


def test_a_long_word_fills_only_the_columns_a_path_can_reach():
    # a 60,000-character word after a short line: no path ends past column
    # frames - 1, so the lattice stops at the short line's end column
    utts = [Utterance(0, "abc", word_count=1), Utterance(1, "ab" * 30_000, word_count=1)]
    ts = build_token_sequence(utts, VOCAB)
    n_frames = 2000
    window = -np.random.default_rng(10).exponential(size=(n_frames, len(VOCAB.symbols)))
    window = window.astype(np.float32)
    window.flags.writeable = False  # as the aligner's row slices are: held without a copy
    tracemalloc.start()
    try:
        tr = compute_trellis(window, ts, VOCAB.blank_index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_tokens = len(ts.tokens)
    bound = n_frames * math.ceil(min(n_tokens, n_frames - 1) / 8) + 8 * n_frames * (len(utts) + 1)
    # README's bound, plus the Trellis's int32 tokens: the window is read in place
    assert peak < bound + 4 * n_tokens < (n_frames + 1) * (n_tokens + 1) / 50
    assert np.shares_memory(tr.window, window) and tr.tokens.nbytes == 4 * n_tokens
    # the 3 columns of "abc", in one byte a row
    assert tr.end_columns == (0, 3, n_tokens) and tr.width == 4 and tr.k.shape == (n_frames, 1)
    assert (end_scores(tr) == -np.inf).all()
    with pytest.raises(NoPathError):
        backtrack(tr)
    frames, _ = backtrack(tr, 3)
    assert len(frames) == 4


# ROW_CLONES for one target alone, and the CPU flags that target needs
_ROW_TARGETS = {
    "arch=x86-64-v4": {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"},
    "avx2": {"avx2"},
    None: set(),
}


def _cpu_flags():
    """The CPU's feature flags from /proc/cpuinfo; none where it cannot be read."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            lines = [line for line in fh if line.startswith("flags")]
    except OSError:
        return set()
    return {flag for line in lines for flag in line.split(":")[1].split()}


@pytest.mark.parametrize("target", list(_ROW_TARGETS))
def test_every_row_clone_gives_the_same_bits(monkeypatch, request, target):
    # the library runs the one clone the CPU picks; build each alone, as a
    # CPU without the others would run it, and check it against numpy
    compiled_kernel()
    missing = _ROW_TARGETS[target] - _cpu_flags()
    if missing:
        pytest.skip(f"the CPU lacks {' '.join(sorted(missing))} for target({target})")
    clones = f'__attribute__((target("{target}")))' if target else ""
    monkeypatch.setattr(trellis, "_CFLAGS", (*trellis._CFLAGS, f"-DROW_CLONES={clones}"))
    trellis._kernel.cache_clear()
    request.addfinalizer(trellis._kernel.cache_clear)
    lib = trellis._kernel()
    assert lib is not None
    rng = np.random.default_rng(616)
    cases = []
    for _ in range(50):
        window, ts, blank = random_window(
            rng, max_frames=60, max_chars=40, max_vocab=6, tie_prone=True
        )
        cases.append((window, TokenSequence(ts.tokens, _token_boundaries(len(ts.tokens))), blank))
    cases += [(window, ts, 0) for window, ts in _wide_cases(rng)]
    cases += [(window, ts, 0) for window, ts in _byte_cases(rng, _hard_window)]
    for window, ts, blank in cases:
        monkeypatch.setattr(trellis, "_kernel", lambda: None)
        want = _run(window, ts, blank)
        monkeypatch.setattr(trellis, "_kernel", lambda: lib)
        assert _run(window, ts, blank) == want
        assert want[0][0] == _reference_trellis(window, ts, blank).k.tobytes()


def _table_window(rng, n_frames, n_symbols, blank):
    """A float32 window of n_symbols symbols in the style of _hard_window:
    tie-prone dyadic rows mixed with random log probabilities, -inf cells,
    frames whose blank is -inf, and zeros of both signs."""
    rows = -0.125 * rng.integers(0, 9, size=(3, n_symbols)).astype(np.float64)
    rows[0, rng.random(n_symbols) < 0.5] *= -0.0  # 0.0 and -0.0 both appear
    window = rows[rng.integers(0, 3, size=n_frames)]
    rough = rng.random(n_frames) < 0.3
    window[rough] = np.log(rng.random((int(rough.sum()), n_symbols)))
    window[rng.random(window.shape) < 0.05] = -np.inf
    window[rng.random(n_frames) < 0.1, blank] = -np.inf
    return window.astype(np.float32)


def _table_cases(rng):
    """(float32 window, ts, blank) with 2-65 symbols and the blank first or
    last: rows of 1-16 columns and a few more, so every table and tail width
    occurs, lattices of each of _BYTE_WIDTHS, and for 38, 64 and 65 symbols
    two wide ones. Every column ends an utterance."""
    for n_symbols in (2, 16, 17, 32, 33, 38, 64, 65):
        for blank in (0, n_symbols - 1):
            others = [i for i in range(n_symbols) if i != blank]
            shapes = [(1, 1), (9, 5), (17, 16), (18, 17), (40, 33), (60, 59)]
            shapes += [(w, w + 2) for w in _BYTE_WIDTHS] + [(3 * w, w - 1) for w in _BYTE_WIDTHS]
            if n_symbols in (38, 64, 65):
                shapes += [(2 * w, w - 1) for w in (_WIDE_WIDTHS[2], _WIDE_WIDTHS[-1])]
            for n_frames, n_tokens in shapes:
                tokens = tuple(int(x) for x in rng.choice(others, size=n_tokens))
                ts = TokenSequence(tokens, _token_boundaries(n_tokens))
                yield _table_window(rng, n_frames, n_symbols, blank), ts, blank


def test_the_table_loop_gives_the_same_bits(monkeypatch):
    # float32 windows of at most 64 symbols are scored by the AVX-512 table
    # loop where it is built and the CPU has it, by the row clones on widened
    # rows elsewhere, and those of 65 symbols always take the widened rows;
    # their exact float64 copies and float64 windows whose values are not
    # float32 values take the row clones on the rows in place. All match the
    # numpy kernel and the reference's packed decisions
    lib = compiled_kernel()
    rng = np.random.default_rng(617)
    traced = 0
    for window, ts, blank in _table_cases(rng):
        finite = np.isfinite(window)
        off_grid = window.astype(np.float64)
        off_grid[finite] -= rng.uniform(1e-12, 1e-9, size=int(finite.sum()))
        for w in (window, window.astype(np.float64), off_grid):
            monkeypatch.setattr(trellis, "_kernel", lambda: None)
            want = _run(w, ts, blank)
            monkeypatch.setattr(trellis, "_kernel", lambda: lib)
            assert _run(w, ts, blank) == want
            assert want[0][0] == _reference_trellis(w, ts, blank).k.tobytes()
            traced += want[1] is not None
    assert traced > 100


def _both_traces(monkeypatch, lib, tr, n):
    """backtrack(tr, n) on the C kernel and on the numpy kernel, None where
    it raises NoPathError."""
    traces = []
    for chosen in (lib, None):
        monkeypatch.setattr(trellis, "_kernel", lambda chosen=chosen: chosen)
        try:
            traces.append(backtrack(tr, n))
        except NoPathError:
            traces.append(None)
    return traces


def test_the_c_rho_equals_the_numpy_rho(monkeypatch):
    # rho is the held symbol's value where it beats the blank's, else the
    # blank's, per traced frame; windows of 0.0, -0.0, -0.5 and -inf put ties,
    # ties of zeros of both signs and -inf cells on many traced frames. Both
    # kernels write the same bytes, so a zero's sign counts
    lib = compiled_kernel()
    rng = np.random.default_rng(618)
    compared = zero_ties = 0
    for _ in range(200):
        n_symbols, n_frames = int(rng.integers(2, 6)), int(rng.integers(2, 40))
        values = np.array([0.0, -0.0, -0.5, -np.inf])
        window = values[rng.choice(4, size=(n_frames, n_symbols), p=[0.35, 0.35, 0.2, 0.1])]
        tokens = rng.integers(1, n_symbols, size=int(rng.integers(1, n_frames)))
        ts = TokenSequence(tuple(tokens.tolist()), _token_boundaries(len(tokens)))
        tr = compute_trellis(window, ts, 0)
        for n in range(len(tokens) + 1):
            traces = _both_traces(monkeypatch, lib, tr, n)
            if traces[0] is None:
                assert traces[1] is None
                continue
            (frames, got), (want_frames, want) = traces
            assert frames.tobytes() == want_frames.tobytes()
            assert got.tobytes() == want.tobytes()
            compared += 1
            held = np.repeat(np.append(tokens[:n], 0), np.diff(frames, append=frames[-1] + 1))
            traced = np.arange(frames[0], frames[-1] + 1)
            a, b = tr.window[traced, held], tr.window[traced, 0]
            ties = (a == 0) & (b == 0) & (np.signbit(a) != np.signbit(b))
            zero_ties += bool(ties.any())
            # a tie gives the blank's zero
            assert (np.signbit(got[traced][ties]) == np.signbit(b[ties])).all()
    assert compared > 1000 and zero_ties > 100


def test_a_trace_past_row_0_raises_on_both_kernels(monkeypatch):
    # a lattice filled from a window always holds a path back to column 0 from
    # a finite end; hand-built decisions that advance too rarely do not, and
    # both kernels raise where the walk runs past row 0, and agree elsewhere,
    # also on a float32 window and int32 tokens, which both read as they are
    lib = compiled_kernel()
    rng = np.random.default_rng(620)
    raised = agreed = 0
    for case in range(100):
        n_frames, n = int(rng.integers(2, 30)), int(rng.integers(1, 10))
        window = np.log(rng.dirichlet(np.ones(4), size=n_frames))
        tokens = rng.integers(1, 4, size=n)
        if case % 2:
            window, tokens = window.astype(np.float32), tokens.astype(np.int32)
        advances = rng.random((n_frames, n)) < rng.uniform(0.05, 0.6)
        width = n + 1 if n < n_frames else 1  # no path ends in column n on fewer frames
        k = np.packbits(advances[:, : width - 1], axis=1, bitorder="little")
        tr = Trellis(
            window=window,
            k=k,
            ends=np.zeros((n_frames, 2)),
            end_columns=(0, n),
            tokens=tokens,
            blank_index=0,
        )
        traces = _both_traces(monkeypatch, lib, tr, n)
        if traces[0] is None:
            assert traces[1] is None
            raised += 1
            continue
        (frames, rho), (want_frames, want) = traces
        assert frames.tobytes() == want_frames.tobytes()
        assert rho.tobytes() == want.tobytes()
        agreed += 1
    assert raised > 20 and agreed > 20


@pytest.mark.parametrize("cc", ["no-such-compiler", "false"])
def test_a_failed_build_falls_back_to_the_same_bits(monkeypatch, cc):
    lib = compiled_kernel()
    fallback = trellis._load_library(cc)  # the compiler is missing, or the build fails
    assert fallback is None
    rng = np.random.default_rng(608)
    window = np.log(rng.dirichlet(np.ones(6), size=80))
    ts = TokenSequence(tuple(int(x) for x in rng.integers(1, 6, size=30)), ((0, 0, 29),))
    results = []
    for chosen in (lib, fallback):
        monkeypatch.setattr(trellis, "_kernel", lambda chosen=chosen: chosen)
        results.append(_run(window, ts, 0))
    assert results[0] == results[1]


def _no_build(*args, **kwargs):
    raise AssertionError("ran the compiler")


def test_the_library_is_built_once(monkeypatch):
    compiled_kernel()
    monkeypatch.setattr(subprocess, "run", _no_build)  # trellis imports it only on a cache miss
    assert trellis._load_library() is not None


def test_the_numpy_kernel_is_announced_with_its_reason(caplog):
    with caplog.at_level(logging.WARNING, logger="anchoralign.trellis"):
        assert trellis._load_library("no-such-compiler-anywhere") is None
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "lattice kernel: numpy" in record.getMessage()
    assert "no-such-compiler-anywhere" in record.getMessage()  # the reason


def test_an_unwritable_cache_falls_back_without_compiling(monkeypatch):
    monkeypatch.setattr(subprocess, "run", _no_build)  # trellis imports it only on a cache miss
    monkeypatch.setattr(trellis.os, "access", lambda path, mode: False)
    assert trellis._load_library("a-compiler-with-no-cached-library") is None


# --- fragment and segment scores ---------------------------------------------


def test_fragment_scores_log_of_linear_mean():
    rho = np.array([math.log(0.8)] * 30 + [math.log(0.4)] * 15)
    frags = fragment_scores(rho)
    np.testing.assert_allclose(frags, [math.log(0.8), math.log(0.4)], atol=1e-12)


def test_fragment_mean_is_linear_not_log():
    rho = np.array([math.log(0.9)] * 15 + [math.log(0.1)] * 15)
    frags = fragment_scores(rho)
    assert frags.shape == (1,)
    assert frags[0] == pytest.approx(math.log(0.5), abs=1e-12)


def test_fragment_perfect_run_scores_zero():
    frags = fragment_scores(np.zeros(60))
    np.testing.assert_allclose(frags, [0.0, 0.0], atol=1e-12)


def test_fragment_trailing_block_uses_actual_length():
    rho = np.concatenate([np.full(30, math.log(0.5)), [math.log(0.25)]])
    frags = fragment_scores(rho)
    assert len(frags) == 2
    assert frags[1] == pytest.approx(math.log(0.25), abs=1e-12)


def test_fragment_custom_block_size():
    rho = np.array([math.log(0.8), math.log(0.8), math.log(0.2), math.log(0.2)])
    frags = fragment_scores(rho, fragment_frames=2)
    np.testing.assert_allclose(frags, [math.log(0.8), math.log(0.2)], atol=1e-12)


def test_fragment_scores_match_a_per_block_loop():
    # the reshaped reduction must equal logsumexp over each block, bit for bit
    rng = np.random.default_rng(12)
    for _ in range(300):
        rho = np.log(rng.random(int(rng.integers(1, 401))))
        rho[rng.random(rho.size) < 0.05] = -np.inf
        frames = int(rng.integers(1, 40))
        blocks = [rho[i : i + frames] for i in range(0, rho.size, frames)]
        expected = [logsumexp(b) - np.log(b.size) for b in blocks]
        assert fragment_scores(rho, frames).tolist() == expected


@pytest.mark.parametrize("frames", [61, 2**62, 2**63, 10**20])
def test_fragment_longer_than_the_span_is_one_fragment(frames):
    rho = np.log(np.random.default_rng(13).random(60))
    assert fragment_scores(rho, frames).tolist() == [logsumexp(rho) - np.log(60)]


def test_fragment_validation():
    with pytest.raises(ValueError):
        fragment_scores(np.array([]))
    with pytest.raises(ValueError):
        fragment_scores(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        fragment_scores(np.zeros(5), fragment_frames=0)
    with pytest.raises(ValueError):
        fragment_scores(np.zeros((2, 2)))


def test_segment_score_is_worst_fragment():
    assert segment_score(np.array([-0.1, -2.5, -0.4])) == -2.5
    assert segment_score(np.array([-0.7])) == -0.7
    with pytest.raises(ValueError):
        segment_score(np.array([]))


def _seeded_spans(rng, n_spans):
    """Traced-rho-like spans of 1-400 frames: random log scores, some with -inf
    frames, some with ties at the maximum, some all one value."""
    spans = []
    for _ in range(n_spans):
        size = int(rng.integers(1, 401))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            span = np.full(size, float(rng.choice([0.0, -0.105, -7.5, -np.inf])))
        else:
            span = np.log(rng.random(size)) * float(rng.choice([0.01, 1.0, 30.0]))
            if kind == 2:
                span[rng.random(size) < 0.1] = -np.inf
            if kind == 3:
                span[rng.random(size) < 0.3] = span.max()
        spans.append(span)
    return spans


@pytest.mark.parametrize("frames", [1, 2, 30, 401, 10**20])
def test_segment_scores_equal_each_spans_segment_score(frames):
    # the one reduction over every span gives each span's own bits
    rng = np.random.default_rng(frames % 1000)
    compared = 0
    for _ in range(40):
        spans = _seeded_spans(rng, int(rng.integers(1, 50)))
        want = [segment_score(fragment_scores(span, frames)) for span in spans]
        got = segment_scores(spans, frames)
        assert got.dtype == np.float64 and got.shape == (len(spans),)
        assert got.tobytes() == np.array(want).tobytes()
        compared += len(spans)
    assert compared > 500
    assert segment_scores([], frames).shape == (0,)


def test_segment_scores_validation():
    with pytest.raises(ConfigError):
        segment_scores([np.zeros(5)], fragment_frames=0)
    with pytest.raises(ValueError, match="empty span"):
        segment_scores([np.zeros(5), np.array([])])


# --- score normalization and short penalty -----------------------------------


@pytest.mark.parametrize(
    "score,duration,expected",
    [(-1.0, 4.0, -0.5), (-1.0, 8.0, -1.0), (-2.0, 16.0, -4.0)],
)
def test_normalize_score_reference_scaling(score, duration, expected):
    assert normalize_score(score, duration, ref_s=8.0) == expected
    assert normalize_score(score, duration) == expected  # 8 s is the default


def test_normalize_score_validation():
    with pytest.raises(ValueError):
        normalize_score(-1.0, 0.0)
    with pytest.raises(ValueError):
        normalize_score(-1.0, 4.0, ref_s=0.0)


@pytest.mark.parametrize("score,duration,ref_s", [(-0.2, 2.0, 1e-320), (-1e308, 20.0, 8.0)])
def test_normalize_score_rejects_a_result_that_overflows(score, duration, ref_s):
    with pytest.raises(ConfigError, match="score_ref_s"):
        normalize_score(score, duration, ref_s)
    assert normalize_score(0.0, duration, ref_s) == 0.0


@pytest.mark.parametrize(
    "score,frames,expected",
    [
        (-0.5, 25, (-4.0, True)),
        (-0.5, 30, (-4.0, True)),
        (-0.5, 31, (-0.5, False)),
        (-5.0, 10, (-5.0, True)),  # already below the cap: only the flag changes
    ],
)
def test_short_penalty(score, frames, expected):
    assert apply_short_penalty(score, frames) == expected


def test_short_penalty_custom_limits():
    assert apply_short_penalty(-0.1, 12, fragment_frames=10, penalty=-9.0) == (-0.1, False)
    assert apply_short_penalty(-0.1, 9, fragment_frames=10, penalty=-9.0) == (-9.0, True)


def test_module_constants():
    assert FRAGMENT_FRAMES == 30
    assert SCORE_REF_S == 8.0
    assert SHORT_PENALTY == -4.0
