"""Lattice fill, backtrack, and scoring tests."""

import math

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
    fragment_scores,
    normalize_score,
    oracle_best_path,
    random_window,
    segment_score,
)
from anchoralign import aligner
from anchoralign.errors import NoPathError
from anchoralign.posterior_io import logsumexp
from anchoralign.trellis import _EMIT_BLOCK_ROWS, Trellis, _trailing_blank_column

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
    assert tr.k.shape == (3, 3)
    assert tr.k[1][1] == pytest.approx(math.log(0.9), abs=1e-12)
    assert tr.k[2][2] == pytest.approx(math.log(0.72), abs=1e-12)
    chars, rho = backtrack(tr, window, ts)
    assert chars[0].symbol == VOCAB.index_of["a"]
    assert chars[0].start_frame == 0  # 'a' is emitted on the first frame
    assert chars[-1].symbol == VOCAB.blank_index
    assert chars[-1].start_frame == 1
    np.testing.assert_allclose(rho, [math.log(0.9), math.log(0.8)], atol=1e-12)


def test_free_start_skips_leading_frames():
    # silence for three frames, then the character; leading frames cost nothing
    quiet = [0.9, 0.04, 0.02, 0.02, 0.02]
    spike = [0.05, 0.02, 0.9, 0.015, 0.015]
    window = _logp([quiet, quiet, quiet, spike, quiet])
    ts = _ts("a")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    chars, rho = backtrack(tr, window, ts)
    assert chars[0].start_frame == 3
    best = tr.k[1:, -1].max()
    assert best == pytest.approx(math.log(0.9) + math.log(0.9), abs=1e-12)
    assert np.isnan(rho[:3]).all()  # frames before the path are unscored


def test_earliest_end_row_wins():
    # uniform probabilities: every end row from 2 on scores the same
    window = _logp([[1 / 3, 1 / 3, 1 / 3]] * 4)[:, [0, 1, 2]]
    vocab = Vocab(symbols=("∅", " ", "a"), blank_index=0, separator_index=1)
    ts = build_token_sequence([Utterance(utt_index=0, text="a", word_count=1)], vocab)
    tr = compute_trellis(window, ts, vocab.blank_index)
    chars, _ = backtrack(tr, window, ts)
    assert chars[-1].end_frame == 1  # path ends at row 2, not later


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
    chars, _ = backtrack(tr, window, ts)
    assert [ca.start_frame for ca in chars] == [1, 2, 3]
    lp, path = oracle_best_path(window, ts, VOCAB.blank_index)
    assert lp == pytest.approx(tr.k[1:, -1].max(), abs=1e-12)
    assert list(path) == [0, 1, 2, 3]  # column consumed per frame


def test_no_path_raises():
    window = _logp([[0.3, 0.3, 0.4, 0.0, 0.0]] * 2)
    with pytest.raises(NoPathError):
        ts = _ts("abc")  # 4 tokens with the trailing blank, only 2 frames
        tr = compute_trellis(window, ts, VOCAB.blank_index)
        backtrack(tr, window, ts)


def test_impossible_token_probability_raises():
    window = _logp([[0.5, 0.25, 0.0, 0.25, 0.0]] * 3)  # p(a) = 0 everywhere
    ts = _ts("a")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    with pytest.raises(NoPathError):
        backtrack(tr, window, ts)


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
    chars, rho = backtrack(tr, window, ts)
    assert tr.k[1:, -1].max() == 0.0
    assert [ca.start_frame for ca in chars] == [0, 1, 2]
    np.testing.assert_array_equal(rho, np.zeros(3))


def test_rho_takes_blank_when_blank_is_stronger():
    window = _logp([[0.6, 0.1, 0.3, 0.0, 0.0], [0.9, 0.05, 0.05, 0.0, 0.0]])
    ts = _ts("a")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    _, rho = backtrack(tr, window, ts)
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


def test_lattice_is_read_only():
    window = _logp([[0.05, 0.05, 0.9, 0.0, 0.0], [0.8, 0.1, 0.1, 0.0, 0.0]])
    tr = compute_trellis(window, _ts("a"), VOCAB.blank_index)
    with pytest.raises(ValueError):
        tr.k[0, 0] = 1.0


# --- oracle cross-checks -----------------------------------------------------


def _path_from_chars(chars):
    psi = chars[-1].end_frame + 1
    path = np.zeros(psi, dtype=np.int64)
    for col, ca in enumerate(chars, start=1):
        path[ca.start_frame :] = col
    return path


@pytest.mark.parametrize("tie_prone", [False, True])
def test_matches_exhaustive_oracle(tie_prone):
    rng = np.random.default_rng(4242 if tie_prone else 2424)
    for _ in range(100):
        window, ts, blank = random_window(rng, tie_prone=tie_prone)
        oracle_lp, oracle_path = oracle_best_path(window, ts, blank)
        tr = compute_trellis(window, ts, blank)
        chars, _ = backtrack(tr, window, ts)
        assert abs(tr.k[1:, -1].max() - oracle_lp) <= 1e-9
        np.testing.assert_array_equal(_path_from_chars(chars), oracle_path)


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
            ts = full.prefix(n)
            assert ts == build_token_sequence(utts[:n], VOCAB)
            fresh = compute_trellis(window, ts, VOCAB.blank_index)
            try:
                want_chars, want_rho = backtrack(fresh, window, ts)
            except NoPathError:
                with pytest.raises(NoPathError):
                    backtrack(tr, window, ts)
                blocked += 1
                continue
            traced += 1
            chars, rho = backtrack(tr, window, ts)
            assert chars == want_chars
            assert np.array_equal(rho, want_rho, equal_nan=True)
            for first in range(len(ts.tokens) + 1):
                tail, tail_rho = backtrack(tr, window, ts, first_token=first)
                assert tail == want_chars[first:]
                want_tail_rho = want_rho.copy()
                want_tail_rho[: tail[0].start_frame] = np.nan
                assert np.array_equal(tail_rho, want_tail_rho, equal_nan=True)
    assert traced > 100 and blocked > 0


def test_backtrack_rejects_a_sequence_that_is_not_a_prefix():
    window = _logp([[0.4, 0.1, 0.2, 0.2, 0.1]] * 8)
    ts = _ts("ab")
    tr = compute_trellis(window, ts, VOCAB.blank_index)
    for other in (_ts("ba"), _ts("abc"), _ts("abb")):
        with pytest.raises(ValueError):
            backtrack(tr, window, other)
    for first in (-1, len(ts.tokens) + 1):
        with pytest.raises(ValueError):
            backtrack(tr, window, ts, first_token=first)


# --- reference kernels: the straightforward loops the fast ones must equal ---


def _reference_fill(window_logp, ts, blank_index):
    """The lattice fill as first written: a -inf prefill and a fancy index per row."""
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
    return Trellis(k=k, col_tokens=col_tokens, blank_index=blank_index)


def _reference_rho(window, chars, blank_index):
    """rho as first written: one np.maximum per traced character."""
    rho = np.full(window.shape[0], np.nan)
    for ca in chars:
        span = slice(ca.start_frame, ca.end_frame + 1)
        rho[span] = np.maximum(window[span, ca.symbol], window[span, blank_index])
    return rho


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
            ts = TokenSequence(tokens, ((0, 0, n_tokens - 1),), n_tokens + 2)
            got = compute_trellis(window, ts, 0)
            want = _reference_fill(window, ts, 0)
            assert np.array_equal(got.k, want.k)
            assert np.array_equal(got.col_tokens, want.col_tokens)
            assert np.isneginf(got.k).any()
            for n in range(n_tokens):  # every prefix's derived trailing-blank column
                fresh = _reference_fill(window, TokenSequence(tokens[:n], (), n + 2), 0)
                derived = _trailing_blank_column(got.k[:, n], window[:, 0])
                assert np.array_equal(derived, fresh.k[:, -1])


def test_rho_equals_the_reference_loop():
    rng = np.random.default_rng(78)
    compared = 0
    for _ in range(25):
        window, utts = _batch_window(rng)
        full = build_token_sequence(utts, VOCAB)
        tr = compute_trellis(window, full, VOCAB.blank_index)
        for n in range(1, len(full.boundaries) + 1):
            ts = full.prefix(n)
            for first in range(len(ts.tokens) + 1):
                try:
                    chars, rho = backtrack(tr, window, ts, first_token=first)
                except NoPathError:
                    continue
                want = _reference_rho(window, chars, VOCAB.blank_index)
                assert np.array_equal(rho, want, equal_nan=True)
                compared += 1
    assert compared > 1000


def test_align_file_equals_a_run_on_the_reference_fill(corpus09, monkeypatch):
    # the clean corpus on the accept path, and the corrupted one through grows and skips
    narrow = AlignParams(window_s=30.0, window_step_s=15.0, max_window_s=60.0, threshold=-1.0)
    cases = [(corpus09.utterances, AlignParams()), (corrupted_utterances(corpus09), narrow)]
    want = [align_file(corpus09.pm, utts, corpus09.vocab, params) for utts, params in cases]
    outcomes = {o.split(":")[0] for run in want for *_, o in run.iterations_log}
    assert outcomes == {"accepted", "grow", "skip"}
    monkeypatch.setattr(aligner, "compute_trellis", _reference_fill)
    got = [align_file(corpus09.pm, utts, corpus09.vocab, params) for utts, params in cases]
    assert got == want


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
