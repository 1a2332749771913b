"""Lattice fill, backtrack, and scoring tests."""

import dataclasses
import hashlib
import math
import os
import tracemalloc

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
from anchoralign.posterior_io import logsumexp
from anchoralign.trellis import _EMIT_BLOCK_ROWS, _MIN_SLAB_COLUMNS, _MIN_SLAB_ROWS, Trellis

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
    assert tr.k.shape == (3, 2) and tr.k.dtype == np.uint8
    assert tr.k.tolist() == [[0, 0], [0, 1], [0, 0]]  # 'a' advances on frame 1, stays on 2
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
    for bad in (1e-300, np.inf, np.nan):  # backtrack's end rule needs every value <= 0
        window = np.zeros((4, 5))
        window[2, 3] = bad
        with pytest.raises(ValueError):
            compute_trellis(window, ts, VOCAB.blank_index)


def test_lattice_is_read_only():
    window = _logp([[0.05, 0.05, 0.9, 0.0, 0.0], [0.8, 0.1, 0.1, 0.0, 0.0]])
    tr = compute_trellis(window, _ts("a"), VOCAB.blank_index)
    with pytest.raises(ValueError):
        tr.k[0, 0] = 1
    with pytest.raises(ValueError):
        tr.ends[0, 0] = 1.0


def test_the_lattice_keeps_a_read_only_float64_copy_of_its_window():
    rng = np.random.default_rng(5)
    window = np.log(rng.uniform(0.05, 1.0, size=(20, len(VOCAB.symbols)))).astype(np.float32)
    ts = _ts("abc")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    assert tr.window.dtype == np.float64
    assert np.array_equal(tr.window, window.astype(np.float64))
    with pytest.raises(ValueError):
        tr.window[0, 0] = 0.0
    assert end_scores(tr).shape == (20,)
    cast = window.astype(np.float64)
    from_cast = compute_trellis(cast, ts, VOCAB.blank_index)
    cast[0, 0] = 0.0  # the caller's array stays writable, and apart from the lattice's copy
    assert from_cast.window[0, 0] == tr.window[0, 0] < 0
    assert tr.k.tobytes() == from_cast.k.tobytes()
    assert tr.ends.tobytes() == from_cast.ends.tobytes()
    for first in range(len(ts.tokens) + 1):
        frames, rho = backtrack(tr, first_token=first)
        want_frames, want_rho = backtrack(from_cast, first_token=first)
        assert frames.tobytes() == want_frames.tobytes()
        assert rho.tobytes() == want_rho.tobytes()


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


def test_fill_memory_is_a_byte_per_cell(monkeypatch):
    rng = np.random.default_rng(9)
    utts = [Utterance(i, "".join(rng.choice(list("abc"), 99)), word_count=1) for i in range(12)]
    ts = build_token_sequence(utts, VOCAB)
    n_frames, n_tokens = 3000, len(ts.tokens)  # 1,199 tokens with the separators
    window = -rng.exponential(size=(n_frames, len(VOCAB.symbols)))
    monkeypatch.setattr(trellis, "_fill_cpus", 4)  # the C fill's slab buffers count too
    assert trellis._slab_count(n_frames, n_tokens + 1) == 4
    tracemalloc.start()
    try:
        tr = compute_trellis(window, ts, VOCAB.blank_index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n_frames + 1) * (n_tokens + 1) / 4  # a float64 lattice is 8 bytes a cell
    bound = (n_frames + 1) * (n_tokens + 1) + 8 * n_frames * (len(utts) + 1)  # README
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
            for first in range(n_tokens + 1):
                tail, tail_rho = backtrack(tr, n_tokens, first_token=first)
                assert np.array_equal(tail, want_frames[first:])
                want_tail_rho = want_rho.copy()
                want_tail_rho[: tail[0]] = np.nan
                assert np.array_equal(tail_rho, want_tail_rho, equal_nan=True)
    assert traced > 100 and blocked > 0


def test_backtrack_rejects_a_sequence_that_is_not_a_prefix():
    window = _logp([[0.4, 0.1, 0.2, 0.2, 0.1]] * 8)
    ts = _ts("ab")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    for n_tokens in (-1, 1, len(ts.tokens) + 1):  # no utterance prefix of "ab" has that many
        with pytest.raises(ValueError):
            backtrack(tr, n_tokens)
    for first in (-1, len(ts.tokens) + 1):
        with pytest.raises(ValueError):
            backtrack(tr, first_token=first)


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


def _reference_trellis(window_logp, ts, blank_index):
    """A Trellis read off _reference_fill: its decisions and its end columns."""
    window = np.asarray(window_logp, dtype=np.float64)
    ref_k = _reference_fill(window, ts, blank_index)
    end_columns = tuple(sorted({0, len(ts.tokens), *(last + 1 for *_, last in ts.boundaries)}))
    return Trellis(
        window=window,
        k=_reference_decisions(ref_k, window, ts.tokens, blank_index),
        ends=ref_k[:-1, list(end_columns)],
        end_columns=end_columns,
        tokens=ts.tokens,
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


def _reference_backtrack(k, window_logp, ts, blank_index, first_token=0):
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
    while j > first_token:
        if t < 1:
            raise NoPathError("backtrack walked past the window start")
        adv_val = k[t - 1, j - 1] + window[t - 1, col_tokens[j - 1]]
        stay_val = (final[t - 1] if j == n_cols else k[t - 1, j]) + blank_lp[t - 1]
        if adv_val >= stay_val:
            advance_row[j] = t
            j -= 1
        t -= 1
    frames = np.array([advance_row[j] - 1 for j in range(first_token + 1, n_cols + 1)])
    ends = [*frames[1:], psi]  # each column is held until the next one's emission
    return frames, _reference_rho(window, frames, ends, col_tokens[first_token:], blank_index)


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
    for n_tokens in sorted({1, 2, n_frames // 2 + 1, n_frames, n_frames + 3}):
        for _ in range(4):
            window = _hard_window(rng, n_frames)
            tokens = tuple(int(x) for x in rng.integers(1, 5, size=n_tokens))
            ts = TokenSequence(tokens, _token_boundaries(n_tokens))
            got = compute_trellis(window, ts, 0)
            want = _reference_fill(window, ts, 0)
            assert np.array_equal(got.k, _reference_decisions(want, window, tokens, 0))
            assert got.end_columns == tuple(range(n_tokens + 1))
            assert np.array_equal(got.ends, want[:-1, :-1])
            assert got.tokens == tokens
            one_utt = compute_trellis(window, TokenSequence(tokens, ((0, 0, n_tokens - 1),)), 0)
            assert np.array_equal(one_utt.k, got.k)
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
            # the last utterance starts after the last separator (token 1)
            last_start = max((i + 1 for i, x in enumerate(ts.tokens) if x == 1), default=0)
            for first in sorted({0, last_start, n}):
                try:
                    want_frames, want_rho = _reference_backtrack(ref, window, ts, 0, first)
                except NoPathError:
                    with pytest.raises(NoPathError):
                        backtrack(tr, n, first_token=first)
                    blocked += 1
                    continue
                frames, rho = backtrack(tr, n, first_token=first)
                assert frames.dtype == np.int64 and np.array_equal(frames, want_frames)
                assert np.array_equal(rho, want_rho, equal_nan=True)
                traced += 1
    assert traced > 1000 and blocked > 40


def test_rho_equals_the_reference_loop():
    rng = np.random.default_rng(78)
    compared = 0
    for _ in range(25):
        window, utts = _batch_window(rng)
        full = build_token_sequence(utts, VOCAB)
        tr = compute_trellis(window, full, VOCAB.blank_index)
        for *_, last in full.boundaries:
            for first in range(last + 2):
                try:
                    frames, rho = backtrack(tr, last + 1, first_token=first)
                except NoPathError:
                    continue
                ends = [*frames[1:], frames[-1] + 1]
                symbols = (*full.tokens[first : last + 1], VOCAB.blank_index)
                want = _reference_rho(window, frames, ends, symbols, VOCAB.blank_index)
                assert np.array_equal(rho, want, equal_nan=True)
                compared += 1
    assert compared > 1000


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


def _run(window, ts, blank, first_token):
    tr = compute_trellis(window, ts, blank)
    lattice = (tr.k.tobytes(), tr.ends.tobytes(), tr.end_columns)
    try:
        frames, rho = backtrack(tr, first_token=first_token)
    except NoPathError:
        return lattice, None
    return lattice, (frames.tobytes(), rho.tobytes())


@pytest.mark.parametrize("tie_prone", [False, True])
def test_kernels_give_the_same_bits(monkeypatch, tie_prone):
    lib = compiled_kernel()
    rng = np.random.default_rng(606 if tie_prone else 607)
    compared = blocked = 0
    for _ in range(150):
        window, ts, blank = random_window(
            rng, max_frames=60, max_chars=40, max_vocab=6, tie_prone=tie_prone
        )
        window[rng.random(window.shape) < 0.1] = -np.inf
        ts = TokenSequence(ts.tokens, _token_boundaries(len(ts.tokens)))  # keep every column
        for first in sorted({0, len(ts.tokens) // 2, len(ts.tokens)}):
            results = []
            for chosen in (lib, None):
                monkeypatch.setattr(trellis, "_kernel", lambda chosen=chosen: chosen)
                results.append(_run(window, ts, blank, first))
            assert results[0] == results[1]
            compared += 1
            blocked += results[0][1] is None
    assert compared > 300 and 0 < blocked < compared // 2


# --- the C fill's column slabs -----------------------------------------------

# widths just below, at and above the thresholds of 2 and 3 slabs
_SPLIT_WIDTHS = [n * _MIN_SLAB_COLUMNS + d for n in (2, 3) for d in (-1, 0, 1)]


def _split_sequence(rng, width):
    """Tokens for a lattice of width columns whose utterances end on columns
    m - 1, m and m + 1 around the first column m of every slab after the
    first, for 2 and 3 slabs, as _lattice.c splits the columns."""
    n_tokens = width - 1
    starts = [1 + n_tokens * i // n for n in (2, 3) for i in range(1, n)]
    ends = sorted({c for m in starts for c in (m - 1, m, m + 1)} | {n_tokens})
    tokens = tuple(int(x) for x in rng.integers(1, len(VOCAB.symbols), size=n_tokens))
    firsts = [0, *ends[:-1]]
    return TokenSequence(tokens, tuple((i, a, b - 1) for i, (a, b) in enumerate(zip(firsts, ends))))


def _split_cases(rng):
    """(window, ts) pairs at each split width: a 1-row window, and one of
    twice the width's rows, long enough for a path, with -inf emissions.
    Tests that split them set _MIN_SLAB_ROWS to 1 so the 1-row fills split
    too."""
    for width in _SPLIT_WIDTHS:
        ts = _split_sequence(rng, width)
        for n_frames in (1, 2 * width):
            yield _hard_window(rng, n_frames), ts


def test_short_fills_take_one_slab(monkeypatch):
    monkeypatch.setattr(trellis, "_fill_cpus", 2)
    width = 4 * _MIN_SLAB_COLUMNS
    assert trellis._slab_count(_MIN_SLAB_ROWS - 1, width) == 1
    assert trellis._slab_count(_MIN_SLAB_ROWS, width) == 2
    assert trellis._slab_count(_MIN_SLAB_ROWS, 2 * _MIN_SLAB_COLUMNS - 1) == 1


def test_every_slab_count_gives_the_same_bits(monkeypatch):
    lib = compiled_kernel()
    monkeypatch.setattr(trellis, "_MIN_SLAB_ROWS", 1)
    rng = np.random.default_rng(611)
    counts, traced = set(), 0
    for window, ts in _split_cases(rng):
        monkeypatch.setattr(trellis, "_kernel", lambda: None)
        want = _run(window, ts, 0, 0)
        monkeypatch.setattr(trellis, "_kernel", lambda: lib)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(trellis, "_fill_cpus", cpus)
            counts.add(trellis._slab_count(len(window), len(ts.tokens) + 1))
            assert _run(window, ts, 0, 0) == want
        traced += want[1] is not None
    assert counts == {1, 2, 3} and traced == len(_SPLIT_WIDTHS)


def test_a_split_fill_equals_the_reference_fill(monkeypatch):
    monkeypatch.setattr(trellis, "_fill_cpus", 3)  # as many slabs as each width allows
    monkeypatch.setattr(trellis, "_MIN_SLAB_ROWS", 1)
    rng = np.random.default_rng(612)
    for window, ts in _split_cases(rng):
        got, want = compute_trellis(window, ts, 0), _reference_trellis(window, ts, 0)
        assert np.array_equal(got.k, want.k) and np.array_equal(got.ends, want.ends)
        assert got.end_columns == want.end_columns


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
def test_no_thread_outlives_a_fill(monkeypatch):
    compiled_kernel()
    monkeypatch.setattr(trellis, "_fill_cpus", 3)
    monkeypatch.setattr(trellis, "_MIN_SLAB_ROWS", 1)
    rng = np.random.default_rng(613)
    ts = _split_sequence(rng, _SPLIT_WIDTHS[-1])
    assert trellis._slab_count(50, len(ts.tokens) + 1) == 3
    before = len(os.listdir("/proc/self/task"))
    compute_trellis(_hard_window(rng, 50), ts, 0)
    assert len(os.listdir("/proc/self/task")) == before


def test_a_slab_whose_thread_does_not_start_gives_the_same_bits(monkeypatch, tmp_path):
    compiled_kernel()
    header = tmp_path / "no_threads.h"  # every pthread_create fails as at a thread limit
    header.write_text(
        "#include <errno.h>\n#include <pthread.h>\n#define pthread_create(t, a, f, arg) EAGAIN\n"
    )
    cc = tmp_path / "cc-no-threads"
    cc.write_text(f'#!/bin/sh\nexec cc -include "{header}" "$@"\n')
    cc.chmod(0o755)
    monkeypatch.setattr(trellis, "__file__", str(tmp_path / "trellis.py"))  # cache it in tmp_path
    no_threads = trellis._load_library(str(cc))
    assert no_threads is not None
    monkeypatch.setattr(trellis, "_fill_cpus", 3)
    monkeypatch.setattr(trellis, "_MIN_SLAB_ROWS", 1)
    rng = np.random.default_rng(614)
    for window, ts in _split_cases(rng):
        results = []
        for chosen in (None, no_threads):
            monkeypatch.setattr(trellis, "_kernel", lambda chosen=chosen: chosen)
            results.append(_run(window, ts, 0, 0))
        assert results[0] == results[1]


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
        results.append(_run(window, ts, 0, 0))
    assert results[0] == results[1]


def _no_build(*args, **kwargs):
    raise AssertionError("ran the compiler")


def test_the_library_is_built_once(monkeypatch):
    compiled_kernel()
    monkeypatch.setattr(trellis.subprocess, "run", _no_build)
    assert trellis._load_library() is not None


def test_an_unwritable_cache_falls_back_without_compiling(monkeypatch):
    monkeypatch.setattr(trellis.subprocess, "run", _no_build)
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
