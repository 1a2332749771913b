"""Anchor loop and window alignment tests on tiny synthetic files."""

import collections
import math

import numpy as np
import pytest

from conftest import corrupted_utterances

from anchoralign import (
    AlignParams,
    SpeechRegions,
    SynthSpec,
    SynthUtterance,
    Utterance,
    UtteranceAlignment,
    WindowResult,
    align_file,
    align_window,
    aligner,
    apply_short_penalty,
    apply_speech_regions,
    backtrack,
    build_token_sequence,
    compute_trellis,
    estimate_time_refs,
    fragment_scores,
    frames_to_seconds,
    identity_frame_map,
    normalize_score,
    segment_score,
    synth_posteriors,
)
from anchoralign.common import MAX_WINDOW_STEPS
from anchoralign.errors import ConfigError, NoPathError
from anchoralign.trellis import segment_scores

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
    pm, _, utts = _render(_spans([TEXT_A, TEXT_B], 50, 150), spanish_vocab, 8.0)
    result = align_window(pm, (0, 10), utts, spanish_vocab)  # 32 and 66 tokens, 10 frames
    no_path = [(2, -np.inf), (1, -np.inf)]
    assert result == WindowResult(best=None, attempts=no_path)
    assert result.last_score == -np.inf


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


def _reference_align_window(pm, window, utts, vocab, params=AlignParams()):
    """The refill-and-score-all loop: one fill and a full trace per attempt."""
    start, length = window
    window_logp = pm.data[start : start + length]
    best, best_last, attempts = None, -np.inf, []
    for n in range(len(utts), 0, -1):
        ts = build_token_sequence(utts[:n], vocab)
        try:
            tr = compute_trellis(window_logp, ts, vocab.blank_index)
            frames, rho = backtrack(tr)
        except NoPathError:
            attempts.append((n, -np.inf))
            if best is not None:
                break
            continue
        alns = []
        for (_, first, last), utt in zip(ts.boundaries, utts[:n]):
            s, e = int(frames[first]), int(frames[last])
            score = segment_score(fragment_scores(rho[s : e + 1], params.fragment_frames))
            score, penalized = apply_short_penalty(
                score, e - s + 1, params.fragment_frames, params.short_penalty
            )
            duration_s = (e - s + 1) * pm.frame_duration_s
            alns.append(
                UtteranceAlignment(
                    utt_index=utt.utt_index,
                    start_frame=s + start,
                    end_frame=e + start,
                    s_seg=score,
                    s_seg_norm=normalize_score(score, duration_s, params.score_ref_s),
                    penalized=penalized,
                    duration_s=duration_s,
                )
            )
        last = alns[-1].s_seg
        attempts.append((n, last))
        if last >= params.threshold:
            if best is None or last > best_last:
                best, best_last = alns, last
            else:
                break
        elif best is not None:
            break
    result = WindowResult(best=best, attempts=attempts)
    last_score = best_last if best is not None else max(score for _, score in attempts)
    assert result.last_score == last_score
    return result


def test_window_matches_the_refill_reference(spanish_vocab):
    texts = [TEXT_A, TEXT_B, TEXT_C, TEXT_B, TEXT_A, TEXT_C]
    pm, truths, _ = _render(_spans(texts, 30, 60), spanish_vocab, 12.0)
    rng = np.random.default_rng(31)
    seen = collections.Counter()
    for _ in range(150):
        transcript = [GARBAGE if rng.random() < 0.3 else t for t in texts]
        utts = [Utterance(i, t, len(t.split(" "))) for i, t in enumerate(transcript)]
        first = int(rng.integers(0, len(utts)))
        batch = utts[first : first + int(rng.integers(1, len(utts) - first + 1))]
        start = max(0, truths[first][1] - int(rng.integers(0, 80)))
        window = (start, int(rng.integers(1, pm.n_frames - start + 1)))
        want = _reference_align_window(pm, window, batch, spanish_vocab)
        got = align_window(pm, window, batch, spanish_vocab)
        assert got == want
        if all(score == -np.inf for _, score in got.attempts):
            assert got.best is None and got.last_score == -np.inf
            assert [n for n, _ in got.attempts] == list(range(len(batch), 0, -1))
            seen["too small"] += 1
            continue
        if want.attempts[0][1] == -np.inf:
            seen["no path for the longest"] += 1
        if want.best is None:
            seen["rejected"] += 1
        elif len(want.best) == len(batch):
            seen["accepted at full size"] += 1
        elif len(want.attempts) > len(batch) - len(want.best) + 1:
            seen["shrink then break"] += 1
    assert len(seen) == 5 and min(seen.values()) >= 3, seen


def _reference_shrink(scripted, threshold):
    """align_window's shrink loop with its own branch for a count with no
    path (scripted[n] None): the attempts and the kept count."""
    best_n, best_last, attempts = 0, -np.inf, []
    for n in range(len(scripted) - 1, 0, -1):
        if scripted[n] is None:
            attempts.append((n, -np.inf))
            if best_n:
                break
            continue
        last = scripted[n]
        attempts.append((n, last))
        if last >= threshold:
            if not best_n or last > best_last:
                best_n, best_last = n, last
            else:
                break
        elif best_n:
            break
    return attempts, best_n


def test_window_shrink_rule_matches_the_reference(spanish_vocab, monkeypatch):
    # seeded last scores per count, ties and no-path counts among them, fed
    # to align_window through stand-ins for the trace and the scoring
    pm, _, utts = _render(_spans([TEXT_A] * 8, 10, 5), spanish_vocab, 8.0)
    scripted = [None]
    ends = {b[2] + 1: b[0] + 1 for b in build_token_sequence(utts, spanish_vocab).boundaries}

    def stand_in_backtrack(tr, end_column):
        n = ends[end_column]
        if scripted[n] is None:
            raise NoPathError("scripted")
        return n, None

    def stand_in_scores(frames, rho, boundaries, *rest):
        return [
            UtteranceAlignment(utt_index, 0, 0, scripted[utt_index + 1], 0.0, False)
            for utt_index, _, _ in boundaries
        ]

    monkeypatch.setattr(aligner, "compute_trellis", lambda *args: None)
    monkeypatch.setattr(aligner, "backtrack", stand_in_backtrack)
    monkeypatch.setattr(aligner, "_score_batch", stand_in_scores)
    rng = np.random.default_rng(30)
    values = [None, -np.inf, -3.0, -2.0, -1.5, -1.0, -0.5]
    seen = collections.Counter()
    for _ in range(3000):
        n_utts = int(rng.integers(1, len(utts) + 1))
        scripted[1:] = [values[i] for i in rng.integers(0, len(values), n_utts)]
        threshold = float(rng.choice([-2.0, -1.0]))
        params = AlignParams(threshold=threshold)
        result = align_window(pm, (0, pm.n_frames), utts[:n_utts], spanish_vocab, params)
        attempts, best_n = _reference_shrink(scripted, threshold)
        assert result.attempts == attempts
        assert (len(result.best) if result.best else 0) == best_n
        if not best_n:
            seen["rejected"] += 1
            continue
        assert [a.utt_index for a in result.best] == list(range(best_n))
        assert result.best[-1].s_seg == scripted[best_n]
        stop_n, stop = attempts[-1]
        if stop_n == best_n:
            seen["accepted at the last count"] += 1
        elif stop == scripted[best_n]:
            seen["a tie keeps the larger batch"] += 1
        elif scripted[stop_n] is None:
            seen["no path after an accept"] += 1
        else:
            seen["a lower score after an accept"] += 1
    assert len(seen) == 5 and min(seen.values()) >= 50, seen


def test_window_fills_the_lattice_once(spanish_vocab, monkeypatch):
    fills = []

    def counting(*args, **kwargs):
        fills.append(args)
        return compute_trellis(*args, **kwargs)

    monkeypatch.setattr(aligner, "compute_trellis", counting)
    pm, _, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C], start_frame=50, pause_frames=150),
        spanish_vocab,
        12.0,
        transcript=[TEXT_A, TEXT_B, GARBAGE],
    )
    # shrink off the garbage tail; no path for the longest batch; accept, then break
    for length, tried in ((pm.n_frames, [3, 2, 1]), (90, [3, 2, 1]), (300, [3, 2])):
        fills.clear()
        result = align_window(pm, (0, length), utts, spanish_vocab)
        assert [n for n, _ in result.attempts] == tried
        assert len(fills) == 1


def test_window_traces_each_attempt_once(spanish_vocab, monkeypatch):
    traces = []

    def counting(*args, **kwargs):
        traces.append(args)
        return backtrack(*args, **kwargs)

    monkeypatch.setattr(aligner, "backtrack", counting)
    pm, _, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C], start_frame=50, pause_frames=150),
        spanish_vocab,
        12.0,
        transcript=[TEXT_A, TEXT_B, GARBAGE],
    )
    result = align_window(pm, (0, pm.n_frames), utts, spanish_vocab)
    assert result.best is not None and len(result.best) == 2  # accepted after a shrink
    assert len(traces) == len(result.attempts) == 3


def test_window_scores_each_traced_utterance_once(spanish_vocab, monkeypatch):
    # each attempt scores its last utterance from its trace; the kept batch
    # reuses that alignment and scores only the utterances before it, all in
    # one segment_scores call
    calls, traced, batches = [], [], []

    def counting_scores(rho, *args, **kwargs):
        calls.append(rho.size)
        return fragment_scores(rho, *args, **kwargs)

    def counting_batch(spans, *args, **kwargs):
        batches.append(len(spans))
        return segment_scores(spans, *args, **kwargs)

    def counting_backtrack(*args, **kwargs):
        trace = backtrack(*args, **kwargs)
        traced.append(args)
        return trace

    monkeypatch.setattr(aligner, "fragment_scores", counting_scores)
    monkeypatch.setattr(aligner, "segment_scores", counting_batch)
    monkeypatch.setattr(aligner, "backtrack", counting_backtrack)
    synth = _spans([TEXT_A, TEXT_B, TEXT_C], start_frame=50, pause_frames=150)
    kept = set()
    for transcript in ([TEXT_A, TEXT_B, TEXT_C], [TEXT_A, TEXT_B, GARBAGE], [TEXT_A]):
        pm, _, utts = _render(synth, spanish_vocab, 12.0, transcript=transcript)
        calls.clear()
        traced.clear()
        batches.clear()
        result = align_window(pm, (0, pm.n_frames), utts, spanish_vocab)
        best_n = len(result.best)
        kept.add(best_n)
        assert len(calls) == len(traced)
        assert len(batches) == (best_n > 1)
        assert len(calls) + sum(batches) == len(traced) + best_n - 1
    assert kept == {1, 2, 3}


# --- align_file --------------------------------------------------------------


def test_file_clean_run(spanish_vocab):
    pm, truths, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C], 50, 150), spanish_vocab, 12.0
    )
    run = align_file(pm, utts, spanish_vocab, file_id="clean")
    assert [a.utt_index for a in run.utterances] == [0, 1, 2]
    assert run.skipped == []
    _assert_matches_truth(run.utterances, truths)
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
    assert not run.utterances[1].anchor  # accepted, but the score says garbage
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


def test_file_fills_a_window_that_grows_cannot_change_once(spanish_vocab, monkeypatch):
    # past the last real utterance the window is clamped at the file's end and
    # holds the one extra line, so every grow asks for the same window again
    fills = []

    def counting(*args, **kwargs):
        fills.append(args[0].shape[0])
        return compute_trellis(*args, **kwargs)

    monkeypatch.setattr(aligner, "compute_trellis", counting)
    pm, _, utts = _render(
        _spans([TEXT_A, TEXT_B, TEXT_C], 50, 150),
        spanish_vocab,
        467 * FRAME_S,
        transcript=[TEXT_A, TEXT_B, TEXT_C, "el gato duerme sobre la manta gris"],
    )
    params = AlignParams(window_s=6.0, window_step_s=6.0, max_window_s=60.0)
    run = align_file(pm, utts, spanish_vocab, params)
    assert run.iterations_log == [
        (0, 300, 2, "accepted:2"),
        (264, 203, 2, "accepted:1"),
        *[(447, 20, 1, "grow")] * 9,
        (447, 20, 1, "skip"),
    ]
    assert run.skipped == [3]
    assert fills == [300, 203, 20]


def test_file_rows_equal_align_window_window_by_window(corpus09):
    # align_file scores its kept utterances once per file; every accepted
    # window's rows must still be the ones align_window scores on its own
    params = AlignParams()
    sizes = collections.Counter()
    for utts in (corpus09.utterances, corrupted_utterances(corpus09)):
        run = align_file(corpus09.pm, utts, corpus09.vocab, params, file_id="f")
        cursor = done = 0
        for anchor, win_len, n_batch, outcome in run.iterations_log:
            if outcome == "skip":
                cursor += 1
            elif outcome.startswith("accepted:"):
                batch = utts[cursor : cursor + n_batch]
                window = (anchor, win_len)
                result = align_window(corpus09.pm, window, batch, corpus09.vocab, params)
                for aln in result.best:
                    aln.file_id = "f"
                result.best[-1].anchor = True
                rows = run.utterances[done : done + len(result.best)]
                assert [repr(a) for a in rows] == [repr(a) for a in result.best]  # bit for bit
                cursor += len(result.best)
                done += len(result.best)
                sizes[len(result.best)] += 1
        assert done == len(run.utterances) and cursor == len(utts)
    assert sum(sizes.values()) > 15 and len(sizes) > 2, sizes  # shrunk batches among them


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
        # past 2^53 steps a grow no longer changes a float window: it would grow forever
        {"max_window_s": 1e300},
        {"window_s": 1e300, "max_window_s": 1e300},
        {"max_window_s": MAX_WINDOW_STEPS * 60.0 + 1e-6},
    ],
)
def test_params_reject_out_of_range_values(bad):
    with pytest.raises(ConfigError):
        AlignParams(**bad)


def test_params_accept_a_max_window_at_the_step_bound():
    AlignParams(max_window_s=MAX_WINDOW_STEPS * 60.0)


def test_file_rejects_windows_under_one_frame(spanish_vocab):
    pm, _, utts = _render(_spans([TEXT_A], 50, 150), spanish_vocab, 4.0)
    for bad in ({"window_s": 0.001}, {"window_step_s": 0.001, "max_window_s": 1.0}):
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
