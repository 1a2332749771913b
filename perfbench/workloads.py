"""Seeded inputs for the benchmark workloads.

Every input file is built through anchoralign's public API (synth_posteriors,
save_posteriors, save_vocab, save_regions, write_ground_truth) plus plain
transcript files. The corpus recipe follows the test suite's fixtures:
syllable words, one character per posterior frame, 4.2-5.4 s pauses, a
sharper blank in silence than on speech. It is copied here rather than
imported, so that editing a test cannot change what the benchmark measures.
The same (workload, seed) always gives byte-identical files.
"""

from __future__ import annotations

import os
import textwrap
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from anchoralign import (
    SpeechRegions,
    SynthSpec,
    SynthUtterance,
    default_spanish_vocab,
    save_posteriors,
    save_regions,
    save_vocab,
    synth_posteriors,
    write_ground_truth,
)

FRAME_S = 0.02
PEAK_PROB = 0.9
GAP_PEAK = 0.98
LEAD_IN_FRAMES = 50
PAUSE_FRAMES = (210, 271)  # 4.2-5.4 s between utterances
MAX_WORDS = 24  # the CLI's default --max-words; plain-text truth is chunked by it

SYLLABLES = [c + v for c in "bcdlmnprst" for v in "aeiou"]
GARBAGE = "fghjkqvwxyz"  # disjoint from the syllable alphabet

# conftest-style 100-utterance tile: one-word shorts, a damped tail block,
# isolated wrong lines. The seed changes texts, pauses and noise, never these
# positions, so every seed asks the anchor loop for the same amount of work.
TILE_UTTS = 100
SHORT_OFFSETS = (20, 45, 65, 80)
HARD_OFFSETS = tuple(range(92, 100))
HARD_PEAK_SCALE = 0.165
WRONG_OFFSETS = (3, 12, 18, 27, 33, 41, 52, 60, 71, 85)


@dataclass(frozen=True)
class FileTruth:
    """What the checks need to judge one file's alignment."""

    file_id: str
    n_utts: int
    wrong: frozenset[int]  # utterance indices whose transcript text is not what was spoken


@dataclass(frozen=True)
class Inputs:
    data_dir: str
    vocab_path: str
    files: tuple[FileTruth, ...]  # sorted by file_id, as the CLI processes them
    audio_s: float  # original-timeline seconds over all files


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    filter_and_stats: bool  # run `filter` and `stats` after `align` in the timed commands
    recipes: Callable[[np.random.Generator], list["_FileRecipe"]]


@dataclass(frozen=True)
class _FileRecipe:
    file_id: str
    spec: SynthSpec
    transcript: list[str]  # text per utterance as written in the transcript
    wrong: frozenset[int]
    captions: bool


def _word(rng: np.random.Generator) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.integers(2, 5)))


def _sentence(rng: np.random.Generator, n_words: int) -> str:
    return " ".join(_word(rng) for _ in range(n_words))


def _dense_sentence(rng: np.random.Generator, min_chars: int = 55) -> str:
    """Words up to at least min_chars characters (at most 8 more)."""
    words = [_word(rng)]
    while len(" ".join(words)) < min_chars:
        words.append(_word(rng))
    return " ".join(words)


def _garbage_word(rng: np.random.Generator, n_chars: int) -> str:
    """Unrelated text: no character of it can ride a scheduled peak."""
    return "".join(rng.choice(list(GARBAGE)) for _ in range(max(4, n_chars)))


def _garbage_line(rng: np.random.Generator, text: str) -> str:
    return _garbage_word(rng, len(text) - int(rng.integers(2, 7)))


def _layout(
    rng: np.random.Generator,
    texts: list[str],
    peak_scales: list[float] | None = None,
    long_gaps: dict[int, int] | None = None,
    pause_frames: tuple[int, int] = PAUSE_FRAMES,
) -> tuple[list[SynthUtterance], int]:
    """Place utterances one character per frame with seeded pauses.

    long_gaps maps an utterance index to extra silence frames inserted
    before it. Returns the utterances and the frame after the last pause.
    """
    utts = []
    frame = LEAD_IN_FRAMES
    for i, text in enumerate(texts):
        frame += (long_gaps or {}).get(i, 0)
        utts.append(
            SynthUtterance(
                text=text,
                start_s=frame * FRAME_S,
                end_s=(frame + len(text)) * FRAME_S,
                peak_scale=peak_scales[i] if peak_scales else 1.0,
            )
        )
        frame += len(text) + int(rng.integers(*pause_frames))
    return utts, frame


def _spec(rng: np.random.Generator, utts: list[SynthUtterance], end_frame: int) -> SynthSpec:
    return SynthSpec(
        utterances=tuple(utts),
        frame_duration_s=FRAME_S,
        peak_prob=PEAK_PROB,
        noise_seed=int(rng.integers(2**31)),
        gap_peak=GAP_PEAK,
        total_s=end_frame * FRAME_S,
    )


# --- captions_long ----------------------------------------------------------
# Why: the paper's main use, a long recording with captions that are mostly
# right. Its ~10% wrong lines are isolated, so the anchor loop stays on the
# accept path (about 2 fills per window). The 60-minute matrix makes
# posterior loading, validation and gap compression large enough to show,
# so this is where posterior_io time and memory move peak_rss_mb.

CAPTIONS_LONG_TILES = 6
LONG_GAP_FRAMES = (1750, 2251)  # 35-45 s of extra silence, over the CLI's 30 s max gap
LONG_GAPS = 3


def _captions_long(rng: np.random.Generator) -> list[_FileRecipe]:
    tile_texts = []
    for i in range(TILE_UTTS):
        if i in SHORT_OFFSETS:
            tile_texts.append(_word(rng))
        elif i in HARD_OFFSETS:
            tile_texts.append(_dense_sentence(rng))
        else:
            tile_texts.append(_sentence(rng, int(rng.integers(7, 11))))
    spoken = tile_texts * CAPTIONS_LONG_TILES
    peak_scales = [
        HARD_PEAK_SCALE if i % TILE_UTTS in HARD_OFFSETS else 1.0 for i in range(len(spoken))
    ]
    boundaries = [t * TILE_UTTS for t in range(1, CAPTIONS_LONG_TILES)]
    gap_at = rng.choice(boundaries, size=LONG_GAPS, replace=False)
    long_gaps = {int(i): int(rng.integers(*LONG_GAP_FRAMES)) for i in gap_at}
    utts, end = _layout(rng, spoken, peak_scales, long_gaps=long_gaps)
    wrong = {t * TILE_UTTS + o for t in range(CAPTIONS_LONG_TILES) for o in WRONG_OFFSETS}
    transcript = [_garbage_line(rng, t) if i in wrong else t for i, t in enumerate(spoken)]
    return [_FileRecipe("long", _spec(rng, utts, end), transcript, frozenset(wrong), True)]


# --- captions_mismatch_block ------------------------------------------------
# Why: the only workload that takes the anchor loop's grow-shrink-skip path.
# A block of MISMATCH_BLOCK consecutive wrong lines fills a whole batch
# (max_utts_per_window is 12), so every shrink attempt fails and the window
# grows to max_window_s before one line is skipped; smaller blocks are
# absorbed by an accepted batch without any growth. Speech is continuous
# (pauses of one or two frames): a wrong line can then only be placed over
# speech it does not match, so it always scores below the threshold. With
# the 4-5 s pauses of the other workloads a wrong line can hide in silence
# and score as well as a right one, and whether the block is absorbed, grown
# past or derails the anchors after it changes from seed to seed. Lines are
# 52-60 characters, so the lattice work of the grow cycle hardly changes
# with the seed. The file ends about a minute after the block, so growth is
# clamped at end of file and most fills repeat the same window.

MISMATCH_BEFORE = 40
MISMATCH_BLOCK = 12
MISMATCH_AFTER = 25
DENSE_PAUSE_FRAMES = (1, 3)
MISMATCH_LINE_CHARS = 52


def _captions_mismatch_block(rng: np.random.Generator) -> list[_FileRecipe]:
    n_utts = MISMATCH_BEFORE + MISMATCH_BLOCK + MISMATCH_AFTER
    spoken = [_dense_sentence(rng, MISMATCH_LINE_CHARS) for _ in range(n_utts)]
    utts, end = _layout(rng, spoken, pause_frames=DENSE_PAUSE_FRAMES)
    wrong = set(range(MISMATCH_BEFORE, MISMATCH_BEFORE + MISMATCH_BLOCK))
    transcript = [_garbage_line(rng, t) if i in wrong else t for i, t in enumerate(spoken)]
    return [_FileRecipe("block", _spec(rng, utts, end), transcript, frozenset(wrong), True)]


# --- plaintext_batch --------------------------------------------------------
# Why: the same layers used differently. Plain text is chunked by --max-words,
# so every utterance has exactly 24 words and truth lines up with the CLI's
# chunking; the wide rows (about 2,000 lattice columns, against about 600 for
# captions) make per-cell work dominate. It is the only workload that uses the
# plain-text path of textprep, the two-worker process pool, and the filters.
# Each file has one wrong 24-word chunk, so flagged_frac has a base here too.
# It sits inside the first batch, never last in it, so it adds no shrink fills.

PLAINTEXT_FILES = 8
PLAINTEXT_UTTS = 25
PLAINTEXT_WRONG = 5


def _plaintext_batch(rng: np.random.Generator) -> list[_FileRecipe]:
    recipes = []
    for f in range(PLAINTEXT_FILES):
        spoken = [_sentence(rng, MAX_WORDS) for _ in range(PLAINTEXT_UTTS)]
        utts, end = _layout(rng, spoken)
        transcript = list(spoken)
        transcript[PLAINTEXT_WRONG] = " ".join(
            _garbage_word(rng, len(w)) for w in spoken[PLAINTEXT_WRONG].split(" ")
        )
        recipes.append(
            _FileRecipe(f"talk{f:02d}", _spec(rng, utts, end), transcript, frozenset({PLAINTEXT_WRONG}), False)
        )
    return recipes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "captions_long",
            "60-min captions with ~10% isolated wrong lines and long silences: the main use,"
            " on the accept path; posterior load and validation are large here",
            workers=1,
            filter_and_stats=False,
            recipes=_captions_long,
        ),
        Workload(
            "captions_mismatch_block",
            "1.5-min continuous-speech captions with 12 consecutive wrong lines: the only path"
            " through window growth, shrinking and skipping, where lattice refills dominate",
            workers=1,
            filter_and_stats=False,
            recipes=_captions_mismatch_block,
        ),
        Workload(
            "plaintext_batch",
            "8 plain-text files of 24-word chunks with --workers 2, then filter and stats:"
            " wide lattice rows, the process pool and the filters",
            workers=2,
            filter_and_stats=True,
            recipes=_plaintext_batch,
        ),
    )
}


def generate(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Write the workload's input files for this seed into out_dir/data."""
    # keyed on the workload's own name, so adding a workload changes no other's inputs
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    vocab = default_spanish_vocab()
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    vocab_path = os.path.join(out_dir, "vocab.txt")
    save_vocab(vocab_path, vocab)
    files = []
    audio_s = 0.0
    for recipe in workload.recipes(rng):
        base = os.path.join(data_dir, recipe.file_id)
        pm, truths = synth_posteriors(recipe.spec, vocab)
        save_posteriors(base + ".ctcp", pm)
        spans = tuple((u.start_s, u.end_s) for u in recipe.spec.utterances)
        save_regions(base + ".regions", SpeechRegions(regions=spans))
        write_ground_truth(base + ".truth.tsv", truths)
        if recipe.captions:
            lines = [
                f"{u.start_s:.3f} {u.end_s:.3f} {text}"
                for u, text in zip(recipe.spec.utterances, recipe.transcript)
            ]
        else:
            lines = textwrap.wrap(" ".join(recipe.transcript), width=80)
        with open(base + ".txt", "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        files.append(FileTruth(recipe.file_id, len(recipe.transcript), recipe.wrong))
        audio_s += pm.duration_s
    return Inputs(data_dir, vocab_path, tuple(sorted(files, key=lambda f: f.file_id)), audio_s)
