"""Iterative anchor-based alignment of a whole file.

Alignment walks the file left to right. A window of posteriors starting at
the last anchor is aligned against the next few utterances; acceptance is
decided only by the last utterance's score, so earlier utterances in an
accepted batch may score badly (imperfect transcripts still pass through,
flagged by their scores). Each window's lattice is filled once, for its
whole batch; a batch of fewer utterances is a column prefix of it, so the
shrink attempts read that prefix instead of refilling. A count with no path
scores -inf, like any rejected count. Each attempt scores its last utterance
at once, as the acceptance rule reads it; the accepted batch's other
utterances are scored together when the file ends, in one reduction over
all their spans, with the bits each would get alone. The accepted batch's
last utterance becomes the new anchor. A rejected window grows by
window_step_s, and once the window would exceed max_window_s the first
pending utterance is skipped and the anchor advances by its estimated
duration.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .common import AlignParams, normalize_score
from .errors import ConfigError, NoPathError
from .posterior_io import FrameMap, PosteriorMatrix, Vocab, map_frames_back
from .textprep import Utterance, build_token_sequence
from .trellis import (
    UtteranceAlignment,
    apply_short_penalty,
    backtrack,
    compute_trellis,
    fragment_scores,
    segment_score,
    segment_scores,
)

log = logging.getLogger("anchoralign.aligner")


@dataclass
class WindowResult:
    """Outcome of aligning one window.

    best is the accepted batch (None if no utterance count produced an
    acceptable last score). attempts records (utterance_count, last_score)
    per try, newest last, -inf for a count with no path.
    """

    best: list[UtteranceAlignment] | None
    attempts: list[tuple[int, float]]

    @property
    def last_score(self) -> float:
        """The best attempt's score: the accepted one's if any, else the
        best rejected score, which is -inf only when no count had a path."""
        return float(max(score for _, score in self.attempts))


@dataclass
class AlignmentRun:
    """Everything produced by aligning one file."""

    file_id: str
    utterances: list[UtteranceAlignment]
    skipped: list[int]
    iterations_log: list[tuple[int, int, int, str]]
    frame_duration_s: float
    total_duration_s: float

    @property
    def anchors(self) -> list[UtteranceAlignment]:
        """Each accepted batch's last utterance: where alignment restarted."""
        return [u for u in self.utterances if u.anchor]


def align_window(
    pm: PosteriorMatrix,
    window: tuple[int, int],
    utts: Sequence[Utterance],
    vocab: Vocab,
    params: AlignParams = AlignParams(),
    pending: list[tuple[UtteranceAlignment, np.ndarray]] | None = None,
) -> WindowResult:
    """Align a shrinking prefix of utts inside one posterior window.

    Tries the full utterance list first and drops utterances off the tail.
    A count with no path scores -inf. Each attempt applies two rules in
    turn: once a batch is accepted, a last score that is not strictly
    higher than the accepted one ends the shrinking, so ties keep the larger
    batch; then a last score at or above the threshold accepts the batch.
    Frames in the result are absolute. A window where no count is accepted
    has best None; every attempt scores -inf when no count admits a path.

    The lattice is filled once, for the full list. Each shrink attempt
    traces its batch's column prefix of it, named by the batch's token
    count, and scores only its last utterance with fragment_scores, which is
    all the acceptance rule reads. The kept batch keeps its attempt's
    alignment of that last utterance and aligns the ones before it from the
    same trace, so every traced utterance is scored once. Those are scored
    in one segment_scores call here, unless the caller passes a pending
    list: they are then appended to it unscored, each with a copy of its
    span of rho, for the caller's _score_pending, as align_file does once
    per file.
    """
    start, length = window
    if length < 1 or start < 0 or start + length > pm.n_frames:
        raise ValueError(f"bad window {window} for {pm.n_frames} frames")
    if not utts:
        raise ValueError("no utterances to align")
    full = build_token_sequence(utts, vocab)
    tr = compute_trellis(pm.data[start : start + length], full, vocab.blank_index)
    best_n = 0
    best_last = -np.inf
    attempts: list[tuple[int, float]] = []
    for n in range(len(utts), 0, -1):
        last_utt = full.boundaries[n - 1]
        try:
            trace = backtrack(tr, last_utt[2] + 1)
        except NoPathError:
            last = -np.inf
        else:
            [aln] = _score_batch(*trace, [last_utt], start, pm.frame_duration_s, params)
            last = aln.s_seg
        attempts.append((n, last))
        if best_n and not last > best_last:
            break
        if last >= params.threshold:
            best_n, best_last, kept, kept_last = n, last, trace, aln
    if not best_n:
        return WindowResult(best=None, attempts=attempts)
    unscored = [] if pending is None else pending
    best = _score_batch(
        *kept, full.boundaries[: best_n - 1], start, pm.frame_duration_s, params, unscored
    )
    if pending is None:
        _score_pending(unscored, params)
    return WindowResult(best=[*best, kept_last], attempts=attempts)


def _score_batch(
    frames: np.ndarray,
    rho: np.ndarray,
    boundaries: Sequence[tuple[int, int, int]],
    window_start: int,
    frame_duration_s: float,
    params: AlignParams,
    pending: list[tuple[UtteranceAlignment, np.ndarray]] | None = None,
) -> list[UtteranceAlignment]:
    """Split a traced path into per-utterance alignments.

    frames and rho are what backtrack returns, frames[i] being the emission
    frame of token i, and boundaries are TokenSequence.boundaries entries
    of utterances on that path. Frames in the result are absolute: the
    window's start is added to each. Each alignment is scored here, by
    fragment_scores, or, where pending is given, appended to it unscored,
    with a copy of its span of rho, so that no window's rho outlives it.
    """
    out = []
    for utt_index, first, last in boundaries:
        start = int(frames[first])
        end = int(frames[last])  # emission frame of the last character
        aln = UtteranceAlignment(
            utt_index=utt_index,
            start_frame=start + window_start,
            end_frame=end + window_start,
            s_seg=math.nan,
            s_seg_norm=math.nan,
            penalized=False,
            duration_s=(end - start + 1) * frame_duration_s,
        )
        span = rho[start : end + 1]
        if pending is None:
            _set_score(aln, segment_score(fragment_scores(span, params.fragment_frames)), params)
        else:
            pending.append((aln, span.copy()))
        out.append(aln)
    return out


def _score_pending(
    pending: list[tuple[UtteranceAlignment, np.ndarray]], params: AlignParams
) -> None:
    """Score every alignment _score_batch left in pending, from all their
    spans in one segment_scores call, and empty the list."""
    if pending:
        scores = segment_scores([span for _, span in pending], params.fragment_frames)
        for (aln, _), score in zip(pending, scores.tolist()):
            _set_score(aln, score, params)
        pending.clear()


def _set_score(aln: UtteranceAlignment, score: float, params: AlignParams) -> None:
    """Set aln's scores from its segment score: a span of at most one
    fragment is capped at the short penalty, then the score is normalized."""
    length = aln.end_frame - aln.start_frame + 1
    aln.s_seg, aln.penalized = apply_short_penalty(
        score, length, params.fragment_frames, params.short_penalty
    )
    aln.s_seg_norm = normalize_score(aln.s_seg, aln.duration_s, params.score_ref_s)


def align_file(
    pm: PosteriorMatrix,
    utts: Sequence[Utterance],
    vocab: Vocab,
    params: AlignParams = AlignParams(),
    file_id: str = "",
) -> AlignmentRun:
    """Run the full anchor loop over a (gap-compressed) posterior file.

    Utterances need est_duration_s set (see textprep.estimate_time_refs);
    estimates drive window packing and the anchor advance after a skip.
    Raises ConfigError when window_s or window_step_s is under one frame.

    A rejected window grows by window_step_s while it stays within
    max_window_s; past that, the first pending utterance is skipped. Every
    ratio of seconds to frame duration is clamped before it is rounded.
    align_window is deterministic, so it runs again only when the anchor,
    window length, cursor or batch size has changed. Each call passes it the
    file's one pending list, so the kept utterances that no acceptance rule
    reads are scored together when the file ends, in one segment_scores call.
    """
    if pm.vocab_id and pm.vocab_id != vocab.checksum():
        raise ValueError("posterior matrix was loaded against a different vocab")
    for utt in utts:
        if not utt.est_duration_s > 0:
            raise ValueError(f"utterance {utt.utt_index} has no duration estimate")
    dur = pm.frame_duration_s
    n_frames = pm.n_frames
    for name in ("window_s", "window_step_s"):
        if round(min(getattr(params, name) / dur, 1)) < 1:
            raise ConfigError(f"{name} must be at least one {dur:g} s frame")
    run = AlignmentRun(
        file_id=file_id,
        utterances=[],
        skipped=[],
        iterations_log=[],
        frame_duration_s=dur,
        total_duration_s=pm.duration_s,
    )
    cursor = 0
    anchor_frame = 0
    window_nominal_s = params.window_s
    aligned = None  # the (anchor, length, cursor, batch size) that result answers
    pending: list[tuple[UtteranceAlignment, np.ndarray]] = []
    while cursor < len(utts) and anchor_frame < n_frames:
        win_len = round(min(window_nominal_s / dur, n_frames - anchor_frame))
        batch = _pack_window(utts, cursor, window_nominal_s, params.max_utts_per_window)
        window = (anchor_frame, win_len, cursor, len(batch))
        if window != aligned:
            result = align_window(pm, (anchor_frame, win_len), batch, vocab, params, pending)
            aligned = window
        grown = window_nominal_s + params.window_step_s
        if result.best is None and grown <= params.max_window_s:
            run.iterations_log.append((anchor_frame, win_len, len(batch), "grow"))
            window_nominal_s = grown
            continue
        window_nominal_s = params.window_s
        if result.best is None:
            skipped = utts[cursor]
            run.skipped.append(skipped.utt_index)
            run.iterations_log.append((anchor_frame, win_len, len(batch), "skip"))
            log.debug(
                "%s: skipping utt %d, advancing %.2fs",
                file_id, skipped.utt_index, skipped.est_duration_s,
            )
            # an estimate from estimate_time_refs is at most the file's length
            anchor_frame += round(min(skipped.est_duration_s / dur, n_frames))
            cursor += 1
            continue
        for aln in result.best:
            aln.file_id = file_id
        result.best[-1].anchor = True
        run.utterances.extend(result.best)
        run.iterations_log.append(
            (anchor_frame, win_len, len(batch), f"accepted:{len(result.best)}")
        )
        log.debug(
            "%s: accepted %d/%d utts at frame %d (last score %.3f)",
            file_id, len(result.best), len(batch), anchor_frame, result.last_score,
        )
        cursor += len(result.best)
        anchor_frame = result.best[-1].end_frame + 1
    for utt in utts[cursor:]:
        run.skipped.append(utt.utt_index)
        run.iterations_log.append((anchor_frame, 0, 0, "skip"))
    _score_pending(pending, params)
    return run


def _pack_window(
    utts: Sequence[Utterance], cursor: int, window_s: float, max_utts: int
) -> list[Utterance]:
    """Take the next utterances whose estimated durations fit the window."""
    batch = [utts[cursor]]
    cum = utts[cursor].est_duration_s
    for utt in utts[cursor + 1 :]:
        if len(batch) >= max_utts or cum + utt.est_duration_s > window_s:
            break
        batch.append(utt)
        cum += utt.est_duration_s
    return batch


def frames_to_seconds(run: AlignmentRun, fm: FrameMap) -> AlignmentRun:
    """Map utterance frame spans back to original-timeline seconds.

    start_s is the emission frame's start, end_s the end of the last
    emission frame (hence +1 frame), both after undoing gap compression.
    """
    dur = run.frame_duration_s
    mapped = [
        dataclasses.replace(
            utt,
            start_s=map_frames_back(fm, utt.start_frame) * dur,
            end_s=(map_frames_back(fm, utt.end_frame) + 1) * dur,
        )
        for utt in run.utterances
    ]
    return dataclasses.replace(
        run, utterances=mapped, total_duration_s=fm.original_frames * dur
    )
