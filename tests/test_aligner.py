"""Anchor loop and window alignment tests on tiny synthetic files."""

import math

import pytest

from anchoralign import (
    AlignParams,
    SpeechRegions,
    SynthSpec,
    SynthUtterance,
    Utterance,
    align_file,
    align_window,
    apply_speech_regions,
    estimate_time_refs,
    frames_to_seconds,
    identity_frame_map,
    normalize_score,
    synth_posteriors,
)
from anchoralign.errors import ConfigError, WindowTooSmallError

FRAME_S = 0.02

# texts all longer than one 30-frame fragment at one char per frame
TEXT_A = "la cabra blanca salta mas lejos"  # 31 chars
TEXT_B = "el rio baja turbio tras la lluvia"  # 33 chars
TEXT_C = "una luz tenue cruza todo el patio"  # 33 chars
GARBAGE = "wxjqzkvwxjqzkvwxjqzkvwxjqzkvwxjqz"  # 33 chars, disjoint alphabet


def _spans(texts, start_frame, pause_frames):
    """Dense utterances (one char frame per posterior frame) on exact frames."""
    out = []
    frame = start_frame
    for text in texts:
        out.append(
            SynthUtterance(
                text=text,
                start_s=frame * FRAME_S,
                end_s=(frame + len(text)) * FRAME_S,
            )
        )
        frame += len(text) + pause_frames
    return out


def _render(synth_utts, vocab, total_s, transcript=None, seed=5):
    spec = SynthSpec(
        utterances=tuple(synth_utts),
        peak_prob=0.9,
        noise_seed=seed,
        gap_peak=0.98,
        total_s=total_s,
    )
    pm, truths = synth_posteriors(spec, vocab)
    texts = transcript if transcript is not None else [u.text for u in synth_utts]
    utts = [
        Utterance(utt_index=i, text=t, word_count=len(t.split(" ")))
        for i, t in enumerate(texts)
    ]
    return pm, truths, estimate_time_refs(utts, pm.duration_s)


def _assert_matches_truth(alignments, truths):
    by_index = {a.utt_index: a for a in alignments}
    for utt_index, start, end in truths:
        if utt_index not in by_index:
            continue
        aln = by_index[utt_index]
        assert (aln.start_frame, aln.end_frame) == (start, end)


# --- align_window ------------------------------------------------------------


def test_window_accepts_clean_batch(spanish_vocab):
    pm, truths, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C], start_frame=50, pause_frames=150), spanish_vocab, 12.0
    )
    result = align_window(pm, (0, pm.n_frames), utts, spanish_vocab)
    assert result.best is not None and len(result.best) == 3
    assert result.attempts[0][0] == 3  # full batch tried first
    _assert_matches_truth(result.best, truths)
    for aln in result.best:
        assert aln.s_seg == pytest.approx(math.log(0.9), abs=1e-9)
        assert not aln.penalized
        assert aln.s_seg_norm == pytest.approx(
            normalize_score(aln.s_seg, aln.duration_s), abs=1e-12
        )
    assert result.last_score >= AlignParams().threshold


def test_window_shrinks_off_garbage_tail(spanish_vocab):
    # the last utterance's text is wrong, so the batch shrinks by one
    pm, truths, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C], start_frame=50, pause_frames=150),
        spanish_vocab,
        12.0,
        transcript=[TEXT_A, TEXT_B, GARBAGE],
    )
    result = align_window(pm, (0, pm.n_frames), utts, spanish_vocab)
    assert result.best is not None and len(result.best) == 2
    assert [n for n, _ in result.attempts] == [3, 2, 1]
    assert result.attempts[0][1] < -2.0  # garbage tail rejected
    assert result.attempts[2][1] == pytest.approx(result.attempts[1][1], abs=1e-9)
    _assert_matches_truth(result.best, truths)


def test_window_too_small_for_any_path(spanish_vocab):
    pm, _, utts = _render(_spans([TEXT_A], 50, 150), spanish_vocab, 4.0)
    with pytest.raises(WindowTooSmallError):
        align_window(pm, (0, 10), utts, spanish_vocab)  # 32 tokens, 10 frames


def test_window_validation(spanish_vocab):
    pm, _, utts = _render(_spans([TEXT_A], 50, 150), spanish_vocab, 4.0)
    with pytest.raises(ValueError):
        align_window(pm, (0, pm.n_frames + 5), utts, spanish_vocab)
    with pytest.raises(ValueError):
        align_window(pm, (-1, 10), utts, spanish_vocab)
    with pytest.raises(ValueError):
        align_window(pm, (0, pm.n_frames), [], spanish_vocab)


def test_window_frames_are_absolute(spanish_vocab):
    pm, truths, utts = _render(_spans([TEXT_B], 200, 150), spanish_vocab, 10.0)
    result = align_window(pm, (150, 200), utts, spanish_vocab)
    assert result.best is not None
    _assert_matches_truth(result.best, truths)  # not window-relative


# --- align_file --------------------------------------------------------------


def test_file_clean_run(spanish_vocab):
    pm, truths, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C], 50, 150), spanish_vocab, 12.0
    )
    run = align_file(pm, utts, spanish_vocab, file_id="clean")
    assert [a.utt_index for a in run.utterances] == [0, 1, 2]
    assert run.skipped == []
    _assert_matches_truth(run.utterances, truths)
    assert all(a.accepted for a in run.utterances)
    assert all(a.file_id == "clean" for a in run.utterances)
    assert [a.anchor for a in run.utterances] == [False, False, True]
    assert len(run.anchors) == 1
    assert run.anchors[0].utt_index == 2
    assert run.anchors[0].end_frame == run.utterances[-1].end_frame
    assert all(outcome.startswith("accepted") for *_, outcome in run.iterations_log)
    assert run.file_id == "clean"
    assert run.total_duration_s == pytest.approx(12.0)


def test_file_accepts_garbage_mid_batch_with_low_score(spanish_vocab):
    # acceptance gates on the batch's last utterance only; wrong text in the
    # middle rides along and is left for the score filters downstream
    pm, truths, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C], 50, 150),
        spanish_vocab,
        12.0,
        transcript=[TEXT_A, GARBAGE, TEXT_C],
    )
    run = align_file(pm, utts, spanish_vocab)
    assert run.skipped == []
    assert [a.utt_index for a in run.utterances] == [0, 1, 2]
    assert run.utterances[1].s_seg < -2.0
    assert run.utterances[1].accepted  # accepted, but the score says garbage
    assert run.utterances[0].s_seg == pytest.approx(math.log(0.9), abs=1e-9)
    assert run.utterances[2].s_seg == pytest.approx(math.log(0.9), abs=1e-9)
    _assert_matches_truth([run.utterances[0], run.utterances[2]], truths)


def test_file_grows_window_until_text_fits(spanish_vocab):
    # first window is shorter than the token sequence itself
    pm, truths, utts = _render(_spans([TEXT_A], 50, 150), spanish_vocab, 3.0)
    params = AlignParams(window_s=0.5, window_step_s=1.3)
    run = align_file(pm, utts, spanish_vocab, params)
    outcomes = [outcome for *_, outcome in run.iterations_log]
    assert outcomes == ["grow", "accepted:1"]
    assert run.skipped == []
    _assert_matches_truth(run.utterances, truths)


def test_text_without_matching_audio_parks_in_silence(spanish_vocab):
    # a window holding no real speech still admits a path: the characters
    # squeeze into blank-dominated frames, and rho forgives each one as
    # max(char, blank). Wrong text is caught when the window holds speech
    # frames (whose blank mass is low), not by silent stretches.
    pm, _, utts = _render(_spans([TEXT_A], 500, 150), spanish_vocab, 20.0)
    result = align_window(pm, (0, 300), utts, spanish_vocab)
    assert result.best is not None
    aln = result.best[0]
    assert aln.s_seg == pytest.approx(math.log(0.98), abs=1e-9)
    assert not aln.penalized
    assert aln.end_frame < 300  # parked inside the silent window


def test_file_skips_unalignable_first_utterance(spanish_vocab):
    pm, truths, utts = _render(
        _spans([TEXT_B, TEXT_B, TEXT_C], 50, 167),
        spanish_vocab,
        12.0,
        transcript=[GARBAGE, TEXT_B, TEXT_C],
    )
    params = AlignParams(
        window_s=6.0, window_step_s=6.0, max_window_s=12.0, max_utts_per_window=1
    )
    run = align_file(pm, utts, spanish_vocab, params)
    assert run.skipped == [0]
    assert [a.utt_index for a in run.utterances] == [1, 2]
    _assert_matches_truth(run.utterances, truths)
    outcomes = [outcome for *_, outcome in run.iterations_log]
    assert "skip" in outcomes and "grow" in outcomes


def test_file_skips_trailing_text_without_audio(spanish_vocab):
    # the audio ends 20 frames after the last real utterance, so the extra
    # transcript line cannot fit anywhere and is skipped
    extra = "el gato duerme sobre la manta gris"
    pm, truths, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C], 50, 150),
        spanish_vocab,
        467 * FRAME_S,
        transcript=[TEXT_A, TEXT_B, TEXT_C, extra],
    )
    params = AlignParams(window_s=6.0, window_step_s=6.0, max_window_s=12.0)
    run = align_file(pm, utts, spanish_vocab, params)
    assert run.skipped == [3]
    assert [a.utt_index for a in run.utterances] == [0, 1, 2]
    _assert_matches_truth(run.utterances, truths)


def test_file_anchor_ordering(spanish_vocab):
    pm, _, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C, TEXT_B, TEXT_A], 50, 150), spanish_vocab, 20.0
    )
    params = AlignParams(window_s=5.0, window_step_s=5.0)
    run = align_file(pm, utts, spanish_vocab, params)
    starts = [a.start_frame for a in run.utterances]
    assert starts == sorted(starts)
    ends = [anchor.end_frame for anchor in run.anchors]
    assert ends == sorted(ends)
    assert len(run.anchors) >= 2  # the 5 s window forces several batches


def test_file_validates_inputs(spanish_vocab):
    pm, _, utts = _render(_spans([TEXT_A], 50, 150), spanish_vocab, 4.0)
    bare = [Utterance(utt_index=0, text=TEXT_A, word_count=6)]
    with pytest.raises(ValueError):
        align_file(pm, bare, spanish_vocab)  # no duration estimates
    from anchoralign import Vocab

    other = Vocab(symbols=("∅", " ", "a"), blank_index=0, separator_index=1)
    with pytest.raises(ValueError):
        align_file(pm, utts, other)


@pytest.mark.parametrize(
    "bad",
    [
        {"window_s": 0.0},
        {"window_step_s": 0.0},
        {"max_window_s": -1.0},
        {"score_ref_s": 0.0},
        {"fragment_frames": 0},
        {"max_utts_per_window": 0},
        {"threshold": float("nan")},
        {"short_penalty": float("-inf")},
    ],
)
def test_params_reject_out_of_range_values(bad):
    with pytest.raises(ConfigError):
        AlignParams(**bad)


def test_file_rejects_windows_under_one_frame(spanish_vocab):
    pm, _, utts = _render(_spans([TEXT_A], 50, 150), spanish_vocab, 4.0)
    for bad in ({"window_s": 0.001}, {"window_step_s": 0.001}):
        with pytest.raises(ConfigError):
            align_file(pm, utts, spanish_vocab, AlignParams(**bad))


# --- frames_to_seconds -------------------------------------------------------


def test_frames_to_seconds_identity_map(spanish_vocab):
    pm, truths, utts = _render(_spans([TEXT_A, TEXT_B], 50, 150), spanish_vocab, 8.0)
    run = align_file(pm, utts, spanish_vocab)
    run = frames_to_seconds(run, identity_frame_map(pm.n_frames))
    for aln, (_, start, end) in zip(run.utterances, truths):
        assert aln.start_s == pytest.approx(start * FRAME_S, abs=1e-9)
        assert aln.end_s == pytest.approx((end + 1) * FRAME_S, abs=1e-9)


def test_frames_to_seconds_undoes_gap_compression(spanish_vocab):
    # 60 s file with a 48 s dead stretch in the middle
    synth_utts = [
        SynthUtterance(text=TEXT_A, start_s=2.0, end_s=2.0 + 31 * FRAME_S),
        SynthUtterance(text=TEXT_B, start_s=52.0, end_s=52.0 + 33 * FRAME_S),
    ]
    pm, truths, utts = _render(synth_utts, spanish_vocab, 60.0)
    regions = SpeechRegions(regions=((1.5, 3.5), (51.5, 53.5)))
    compressed, fm = apply_speech_regions(pm, regions, max_gap_s=30.0)
    assert compressed.n_frames < pm.n_frames
    utts = estimate_time_refs(utts, compressed.duration_s)
    run = align_file(compressed, utts, spanish_vocab)
    run = frames_to_seconds(run, fm)
    assert len(run.utterances) == 2
    for aln, (_, start, end) in zip(run.utterances, truths):
        assert aln.start_s == pytest.approx(start * FRAME_S, abs=1e-9)
        assert aln.end_s == pytest.approx((end + 1) * FRAME_S, abs=1e-9)
    assert run.total_duration_s == pytest.approx(60.0)
    assert run.utterances[1].start_s == pytest.approx(52.0, abs=1e-9)
