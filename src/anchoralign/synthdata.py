"""Synthetic posterior generation and a brute-force alignment oracle.

synth_posteriors builds posterior matrices with known character schedules so
alignment output can be checked against exact ground truth; oracle_best_path
re-derives the best path by exhaustive enumeration, independently of the
lattice recurrence, for small windows.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .common import _data_lines, _lines, _write_lines
from .errors import ManifestError
from .posterior_io import DEFAULT_FRAME_DURATION_S, PosteriorMatrix, Vocab
from .textprep import TokenSequence, format_timed_line, parse_timed_line

ORACLE_MAX_FRAMES = 14
ORACLE_MAX_PADDED = 10


@dataclass(frozen=True)
class SynthUtterance:
    """One scheduled utterance: text spoken across [start_s, end_s).

    peak_scale multiplies the corpus peak probability for this utterance
    (lower values simulate harder audio). char_rate overrides the corpus
    characters-per-second; None spreads the character frames over the whole
    span, with blank-dominated frames in between.
    """

    text: str
    start_s: float
    end_s: float
    peak_scale: float = 1.0
    char_rate: float | None = None


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic posterior file.

    gap_peak is the blank mass on frames outside utterance spans; None uses
    peak_prob. Real models are usually more certain about silence than about
    speech, so corpora wanting that shape set gap_peak above peak_prob.
    """

    utterances: tuple[SynthUtterance, ...]
    frame_duration_s: float = DEFAULT_FRAME_DURATION_S
    peak_prob: float = 0.9
    noise_seed: int = 0
    char_rate: float | None = None
    gap_peak: float | None = None
    total_s: float | None = None


def synth_posteriors(
    spec: SynthSpec, vocab: Vocab
) -> tuple[PosteriorMatrix, list[tuple[int, int, int]]]:
    """Render a SynthSpec to log posteriors plus exact ground truth.

    Characters are placed on single frames spread uniformly through their
    utterance span (or through the leading region implied by char_rate);
    every other frame schedules the blank, mimicking the spiky posteriors of
    a trained model. Each frame gives `peak` linear mass to its scheduled
    symbol and spreads the remainder over the other symbols proportionally
    to seeded uniform draws. Returns the matrix and one
    (utt_index, start_frame, end_frame) triple per utterance covering its
    first through last character frame.

    A spec that cannot be rendered raises ManifestError, among others for a
    time or rate that is not finite, a negative seed, or more frames than
    numpy can address for the vocab.
    """
    dur = spec.frame_duration_s
    if not 0 < dur < math.inf:
        raise ManifestError(f"frame_duration_s must be positive and finite, got {dur}")
    if spec.noise_seed < 0:
        raise ManifestError(f"noise seed must be >= 0, got {spec.noise_seed}")
    if not 0.0 < spec.peak_prob <= 1.0:
        raise ManifestError(f"peak_prob {spec.peak_prob} outside (0, 1]")
    gap_peak = spec.gap_peak if spec.gap_peak is not None else spec.peak_prob
    if not 0.0 < gap_peak <= 1.0:
        raise ManifestError(f"gap_peak {gap_peak} outside (0, 1]")
    for utt_index, utt in enumerate(spec.utterances):
        if not 0 <= utt.start_s < utt.end_s < math.inf:
            raise ManifestError(
                f"utterance {utt_index}: span {utt.start_s} to {utt.end_s} s is not"
                " a finite, non-empty span from 0 on"
            )
    last_end = max((u.end_s for u in spec.utterances), default=0.0)
    total_s = spec.total_s if spec.total_s is not None else last_end + 1.0
    if not 0 < total_s < math.inf:
        raise ManifestError(f"total_s must be positive and finite, got {total_s}")
    # the float64 frames x symbols buffer must fit in numpy's address range
    max_frames = np.iinfo(np.intp).max // (8 * vocab.size)
    if total_s / dur > max_frames:
        raise ManifestError(
            f"total_s {total_s} s holds more than the {max_frames} frames of {dur} s"
            f" numpy can allocate for {vocab.size} symbols"
        )
    n_frames = int(round(total_s / dur))
    if n_frames < 1:
        raise ManifestError("corpus has no frames")

    sym = np.full(n_frames, vocab.blank_index, dtype=np.int64)
    peak = np.full(n_frames, gap_peak)
    truths = []
    prev_end = -1
    for utt_index, utt in enumerate(spec.utterances):
        start_f = int(round(utt.start_s / dur))
        end_f_excl = int(round(utt.end_s / dur))
        if end_f_excl > n_frames:
            raise ManifestError(f"utterance {utt_index}: ends past total_s {total_s}")
        if start_f <= prev_end:
            raise ManifestError(f"utterance {utt_index}: overlaps previous one")
        tokens = _text_tokens(utt.text, vocab, utt_index)
        n = len(tokens)
        span = end_f_excl - start_f
        rate = utt.char_rate if utt.char_rate is not None else spec.char_rate
        if rate is None:
            region = span
        else:
            if not 0 < rate < math.inf:
                raise ManifestError(
                    f"utterance {utt_index}: char_rate must be positive and finite, got {rate}"
                )
            # clamped before rounding: a tiny rate overflows to inf
            region = int(round(min(n / rate / dur, span)))
        if region < n:
            raise ManifestError(
                f"utterance {utt_index}: {region} frames cannot place {n} chars"
                " (needs >= 1 frame per char)"
            )
        eff_peak = spec.peak_prob * utt.peak_scale
        if not 0.0 < eff_peak <= 1.0:
            raise ManifestError(f"utterance {utt_index}: effective peak {eff_peak} outside (0, 1]")
        positions = start_f + (np.arange(n, dtype=np.int64) * region) // n
        sym[positions] = tokens
        peak[start_f : start_f + region] = eff_peak
        truths.append((utt_index, int(positions[0]), int(positions[-1])))
        prev_end = end_f_excl - 1

    # one float64 buffer holds the draws, then the probabilities, then their logs
    rng = np.random.default_rng(spec.noise_seed)
    probs = rng.random((n_frames, vocab.size))
    probs += 1e-12
    rows = np.arange(n_frames)
    probs[rows, sym] = 0.0
    probs *= ((1.0 - peak) / probs.sum(axis=1))[:, None]
    probs[rows, sym] = peak
    with np.errstate(divide="ignore"):
        logp = np.log(probs, out=probs).astype(np.float32)
    pm = PosteriorMatrix(data=logp, frame_duration_s=dur, vocab_id=vocab.checksum())
    return pm, truths


def _text_tokens(text: str, vocab: Vocab, utt_index: int) -> list[int]:
    if not text:
        raise ManifestError(f"utterance {utt_index}: empty text")
    tokens = []
    for ch in text:
        idx = vocab.index_of.get(ch)
        if idx is None or idx == vocab.blank_index:
            raise ManifestError(f"utterance {utt_index}: character {ch!r} not usable")
        tokens.append(idx)
    return tokens


def oracle_best_path(
    window_logp: np.ndarray, ts: TokenSequence, blank_index: int
) -> tuple[float, np.ndarray]:
    """Exhaustively enumerate every monotone path and return the best one.

    Intentionally naive and independent of the lattice recurrence: every way
    of placing the tokens (characters plus trailing blank) on strictly
    increasing frames is scored by walking its frames in temporal order.
    Ties resolve like backtrack: earliest end frame, then latest earlier
    placements. Returns (log prob, per-frame column indices up to the end
    frame; 0 marks frames before the first token).
    """
    window = np.asarray(window_logp, dtype=np.float64)
    n_frames = window.shape[0]
    if n_frames > ORACLE_MAX_FRAMES:
        raise ValueError(f"oracle refuses windows over {ORACLE_MAX_FRAMES} frames")
    if ts.padded_length > ORACLE_MAX_PADDED:
        raise ValueError(f"oracle refuses token sequences over padded length {ORACLE_MAX_PADDED}")
    col_tokens = list(ts.tokens) + [blank_index]
    n_tokens = len(col_tokens)
    blank_lp = window[:, blank_index]
    best_key: tuple | None = None
    best_places: tuple[int, ...] | None = None
    for places in itertools.combinations(range(1, n_frames + 1), n_tokens):
        lp = 0.0
        pos = 0
        for t in range(places[0], places[-1] + 1):
            if pos < n_tokens and t == places[pos]:
                lp += window[t - 1, col_tokens[pos]]
                pos += 1
            else:
                lp += blank_lp[t - 1]
        key = (lp, -places[-1]) + tuple(places[-2::-1])
        if best_key is None or key > best_key:
            best_key = key
            best_places = places
    if best_key is None or best_key[0] == -np.inf:
        raise ValueError("no finite path exists")
    assert best_places is not None
    psi = best_places[-1]
    path = np.zeros(psi, dtype=np.int64)
    for col, t in enumerate(best_places, start=1):
        path[t - 1 :] = col
    return float(best_key[0]), path


def random_window(
    rng: np.random.Generator,
    max_frames: int = 12,
    max_chars: int = 6,
    max_vocab: int = 5,
    tie_prone: bool = False,
) -> tuple[np.ndarray, TokenSequence, int]:
    """Draw a small random alignment instance for oracle cross-checks.

    tie_prone samples frames from two shared rows of log values on a coarse
    dyadic grid (not normalized): every path sum is then exact in binary
    floating point, so equally good paths tie exactly instead of differing
    by summation-order rounding, and tie-breaking is actually exercised.
    """
    n_symbols = int(rng.integers(2, max_vocab + 1))
    n_frames = int(rng.integers(1, max_frames + 1))
    n_chars = int(rng.integers(0, min(max_chars, n_frames - 1) + 1))
    blank = int(rng.integers(0, n_symbols))
    others = [i for i in range(n_symbols) if i != blank]
    tokens = tuple(int(rng.choice(others)) for _ in range(n_chars))
    if tie_prone:
        rows = -0.125 * rng.integers(1, 9, size=(2, n_symbols)).astype(np.float64)
        window = rows[rng.integers(0, 2, size=n_frames)]
    else:
        probs = rng.random((n_frames, n_symbols)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        window = np.log(probs)
    ts = TokenSequence(tokens=tokens, boundaries=((0, 0, n_chars - 1),) if n_chars else ())
    return window, ts, blank


# --- manifest I/O -----------------------------------------------------------


def _none_or_float(value: str) -> float | None:
    return None if value.lower() == "none" else float(value)


# manifest directive -> (the dataclass it sets a field of, field, parser), in
# write order; a SynthUtterance field holds for the utterance lines after it
_DIRECTIVES = {
    "seed": (SynthSpec, "noise_seed", int),
    "peak": (SynthSpec, "peak_prob", float),
    "gap_peak": (SynthSpec, "gap_peak", _none_or_float),
    "frame_duration": (SynthSpec, "frame_duration_s", float),
    "total": (SynthSpec, "total_s", float),
    "rate": (SynthUtterance, "char_rate", _none_or_float),
    "peak_scale": (SynthUtterance, "peak_scale", float),
}


def parse_manifest(path: str | os.PathLike) -> SynthSpec:
    """Read a corpus manifest: `start_s end_s text` lines plus # directives.

    #seed, #peak, #gap_peak, #frame_duration, and #total set corpus-level
    values; #rate and #peak_scale apply to the utterance lines that follow
    them (#rate none restores span-filling placement). A value no directive
    sets keeps its SynthSpec or SynthUtterance field default.
    """
    values: dict[type, dict[str, object]] = {SynthSpec: {}, SynthUtterance: {}}
    utts: list[SynthUtterance] = []
    for where, line in _lines(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 1)
            if len(parts) != 2:
                raise ManifestError(f"{where}: bad directive {line!r}")
            name, value = parts
            if name not in _DIRECTIVES:
                raise ManifestError(f"{where}: unknown directive #{name}")
            cls, key, parse = _DIRECTIVES[name]
            try:
                values[cls][key] = parse(value)
            except ValueError as exc:
                raise ManifestError(f"{where}: bad value {value!r}") from exc
            continue
        timed = parse_timed_line(line)
        if timed is None:
            raise ManifestError(f"{where}: expected start_s end_s text, got {line!r}")
        start_s, end_s, text = timed
        utts.append(SynthUtterance(text, start_s, end_s, **values[SynthUtterance]))
    return SynthSpec(utterances=tuple(utts), **values[SynthSpec])


def write_manifest(path: str | os.PathLike, spec: SynthSpec) -> None:
    """Write spec as parse_manifest reads it back: each utterance carries its
    effective char_rate (its own, else the spec's), so both render alike."""
    lines = [
        f"#{name} {getattr(spec, key)}"
        for name, (cls, key, _) in _DIRECTIVES.items()
        if cls is SynthSpec and getattr(spec, key) is not None
    ]
    prev = SynthUtterance("", 0.0, 0.0)  # field defaults, where parse_manifest starts
    for utt in spec.utterances:
        if utt.char_rate is None:
            utt = dataclasses.replace(utt, char_rate=spec.char_rate)
        for name, (cls, key, _) in _DIRECTIVES.items():
            if cls is SynthUtterance and (value := getattr(utt, key)) != getattr(prev, key):
                lines.append(f"#{name} {'none' if value is None else value}")
        prev = utt
        lines.append(format_timed_line(utt.start_s, utt.end_s, utt.text))
    _write_lines(path, lines)


def write_ground_truth(path: str | os.PathLike, truths: list[tuple[int, int, int]]) -> None:
    header = "# utt_index start_frame end_frame"
    _write_lines(path, [header] + [f"{i}\t{s}\t{e}" for i, s, e in truths])


def load_ground_truth(path: str | os.PathLike) -> list[tuple[int, int, int]]:
    truths = []
    for where, line in _data_lines(path):
        try:
            i, s, e = (int(field) for field in line.split("\t"))
        except ValueError as exc:
            raise ManifestError(
                f"{where}: expected utt_index<TAB>start_frame<TAB>end_frame, got {line!r}"
            ) from exc
        truths.append((i, s, e))
    return truths


def default_spanish_vocab() -> Vocab:
    """38-symbol character vocab for Spanish-like corpora."""
    symbols = ["∅", " "] + list("abcdefghijklmnopqrstuvwxyz") + list("áéíóúüñ") + ["ç", "-", "'"]
    return Vocab(symbols=tuple(symbols), blank_index=0, separator_index=1)
