"""Iterative anchor-based alignment of a whole file.

Alignment walks the file left to right. A window of posteriors starting at
the last anchor is aligned against the next few utterances; acceptance is
decided only by the last utterance's score, so earlier utterances in an
accepted batch may score badly (imperfect transcripts still pass through,
flagged by their scores). Each window's lattice is filled once, for its
whole batch; a batch of fewer utterances is a column prefix of it, so the
shrink attempts read that prefix instead of refilling. The accepted batch's
last utterance becomes the new anchor. A window rejected for its scores
and one too short to hold any batch's text fail alike: they grow by
window_step_s, and once the window would exceed max_window_s the first
pending utterance is skipped and the anchor advances by its estimated
duration.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from ._lazy import np
from .errors import ConfigError, NoPathError
from .posterior_io import FrameMap, PosteriorMatrix, Vocab, map_frames_back
from .textprep import Utterance, build_token_sequence
from .trellis import (
    FRAGMENT_FRAMES,
    SCORE_REF_S,
    SHORT_PENALTY,
    UtteranceAlignment,
    apply_short_penalty,
    backtrack,
    compute_trellis,
    fragment_scores,
    normalize_score,
    segment_score,
)

log = logging.getLogger("anchoralign.aligner")


def knob(default: Any, help: str, **meta: Any) -> Any:
    """A settings field carrying its help text and range in its metadata.

    meta may set `above` (values must be greater) or `at_least` (values
    must be at least this), which check_knobs enforces, and `key` (config
    key and flag name, default the field name) or `parse` (converter from
    a string, default the type of the default), which the CLI reads.
    """
    return field(default=default, metadata={"help": help, **meta})


def check_knobs(settings: Any) -> None:
    """Raise ConfigError for a non-finite float or a value out of its range."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        if isinstance(f.default, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
        if "above" in f.metadata and not value > f.metadata["above"]:
            raise ConfigError(f"{f.name} must be > {f.metadata['above']}, got {value}")
        if "at_least" in f.metadata and not value >= f.metadata["at_least"]:
            raise ConfigError(f"{f.name} must be >= {f.metadata['at_least']}, got {value}")


@dataclass(frozen=True)
class AlignParams:
    """Knobs of the iterative aligner; out-of-range values raise ConfigError.

    threshold is the natural-log acceptance score for the last utterance of
    a window (-2.0 corresponds to a linear fragment mean of about 0.135).
    """

    threshold: float = knob(-2.0, "acceptance score for the last utterance of a window")
    window_s: float = knob(120.0, "starting window length in seconds", above=0)
    window_step_s: float = knob(60.0, "window growth per retry in seconds", above=0)
    max_window_s: float = knob(
        600.0, "window length in seconds past which an utterance is skipped", above=0
    )
    max_utts_per_window: int = knob(12, "utterance count cap per window", at_least=1)
    fragment_frames: int = knob(FRAGMENT_FRAMES, "scoring block size in frames", at_least=1)
    score_ref_s: float = knob(SCORE_REF_S, "reference seconds for s_seg_norm", above=0)
    short_penalty: float = knob(SHORT_PENALTY, "score cap for one-fragment utterances")

    def __post_init__(self) -> None:
        check_knobs(self)


@dataclass
class WindowResult:
    """Outcome of aligning one window.

    best is the accepted batch (None if no utterance count produced an
    acceptable last score); last_score is the accepted last utterance's
    score, or the best rejected last score seen, -inf when no count had a
    path. attempts records (utterance_count, last_score) per try, newest
    last.
    """

    best: list[UtteranceAlignment] | None
    last_score: float
    attempts: list[tuple[int, float]] = field(default_factory=list)


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
) -> WindowResult:
    """Align a shrinking prefix of utts inside one posterior window.

    Tries the full utterance list first and drops utterances off the tail
    until the last utterance of the batch scores at or above the threshold;
    shrinking then continues while the last score keeps strictly improving,
    and ties keep the larger batch. Frames in the result are absolute. A
    window where no utterance count admits a path is rejected like any
    other: best is None and every attempt scores -inf.

    The lattice is filled once, for the full list. Each shrink attempt reads
    its batch's column prefix of it, named by the batch's token count, and
    traces and scores only its last utterance, which is all the acceptance
    rule reads; the kept batch is traced and scored in full once at the end.
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
            frames, rho = backtrack(tr, last_utt[2] + 1, first_token=last_utt[1])
        except NoPathError:
            attempts.append((n, -np.inf))
            if best_n:
                break
            continue
        [aln] = _score_batch(frames, rho, [last_utt], start, pm.frame_duration_s, params)
        last = aln.s_seg
        attempts.append((n, last))
        if last >= params.threshold:
            if not best_n or last > best_last:
                best_n, best_last = n, last
            else:
                break
        elif best_n:
            break
    if not best_n:
        return WindowResult(
            best=None, last_score=float(max(score for _, score in attempts)), attempts=attempts
        )
    boundaries = full.boundaries[:best_n]
    frames, rho = backtrack(tr, boundaries[-1][2] + 1)
    best = _score_batch(frames, rho, boundaries, start, pm.frame_duration_s, params)
    return WindowResult(best=best, last_score=float(best_last), attempts=attempts)


def _score_batch(
    frames: np.ndarray,
    rho: np.ndarray,
    boundaries: Sequence[tuple[int, int, int]],
    window_start: int,
    frame_duration_s: float,
    params: AlignParams,
) -> list[UtteranceAlignment]:
    """Split a traced path into per-utterance alignments with scores.

    boundaries are TokenSequence.boundaries entries, and frames and rho are
    what backtrack returns for a walk that starts at the first token of the
    first of them: frames[i] is the emission frame of token
    boundaries[0][1] + i.
    """
    offset = boundaries[0][1]
    out = []
    for utt_index, first, last in boundaries:
        start = int(frames[first - offset])
        end = int(frames[last - offset])  # emission frame of the last character
        length = end - start + 1
        score = segment_score(fragment_scores(rho[start : end + 1], params.fragment_frames))
        score, penalized = apply_short_penalty(
            score, length, params.fragment_frames, params.short_penalty
        )
        duration_s = length * frame_duration_s
        out.append(
            UtteranceAlignment(
                utt_index=utt_index,
                start_frame=start + window_start,
                end_frame=end + window_start,
                s_seg=score,
                s_seg_norm=normalize_score(score, duration_s, params.score_ref_s),
                penalized=penalized,
                duration_s=duration_s,
            )
        )
    return out


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
    """
    if pm.vocab_id and pm.vocab_id != vocab.checksum():
        raise ValueError("posterior matrix was loaded against a different vocab")
    for utt in utts:
        if utt.est_duration_s <= 0:
            raise ValueError(f"utterance {utt.utt_index} has no duration estimate")
    dur = pm.frame_duration_s
    for name in ("window_s", "window_step_s"):
        if round(getattr(params, name) / dur) < 1:
            raise ConfigError(f"{name} must be at least one {dur:g} s frame")
    n_frames = pm.n_frames
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
    # a grow clamped at the file end that packs no further utterance asks for
    # the window just rejected; align_window is deterministic, so reuse it
    last_window, last_result = None, None
    while cursor < len(utts) and anchor_frame < n_frames:
        win_len = min(int(round(window_nominal_s / dur)), n_frames - anchor_frame)
        batch = _pack_window(utts, cursor, window_nominal_s, params.max_utts_per_window)
        window = (anchor_frame, win_len, cursor, len(batch))
        if window == last_window:
            result = last_result
        else:
            result = align_window(pm, (anchor_frame, win_len), batch, vocab, params)
            last_window, last_result = window, result
        if result.best is not None:
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
            window_nominal_s = params.window_s
            continue
        grown = window_nominal_s + params.window_step_s
        if grown > params.max_window_s:
            skipped = utts[cursor]
            run.skipped.append(skipped.utt_index)
            run.iterations_log.append((anchor_frame, win_len, len(batch), "skip"))
            log.debug(
                "%s: skipping utt %d, advancing %.2fs",
                file_id, skipped.utt_index, skipped.est_duration_s,
            )
            anchor_frame += int(round(skipped.est_duration_s / dur))
            cursor += 1
            window_nominal_s = params.window_s
        else:
            run.iterations_log.append((anchor_frame, win_len, len(batch), "grow"))
            window_nominal_s = grown
    for utt in utts[cursor:]:
        run.skipped.append(utt.utt_index)
        run.iterations_log.append((anchor_frame, 0, 0, "skip"))
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
