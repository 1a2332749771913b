"""Transcript normalization, utterance chunking, and token sequences.

Pure functions over immutable inputs. Transcripts are reduced to the model's
character set, split into bounded utterances, and rendered as vocab-index
token sequences ready for the alignment lattice.
"""

from __future__ import annotations

import dataclasses
import os
import unicodedata
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, EmptyTextError
from .posterior_io import Vocab

MAX_WORDS_PER_UTT = 24


@dataclass(frozen=True)
class Utterance:
    """One transcript chunk: at most max_words words of normalized text."""

    utt_index: int
    text: str
    word_count: int
    est_duration_s: float = 0.0


@dataclass(frozen=True)
class TokenSequence:
    """Vocab-index tokens for a batch of utterances aligned jointly.

    tokens holds the character tokens with one separator between consecutive
    utterances. boundaries maps each utterance to its inclusive (first, last)
    positions in tokens. padded_length counts tokens plus the two implicit
    alignment states (free start and trailing blank).
    """

    tokens: tuple[int, ...]
    boundaries: tuple[tuple[int, int, int], ...]
    padded_length: int


def normalize_text(raw: str, vocab: Vocab) -> str:
    """Lower-case, drop out-of-vocab characters, collapse whitespace runs.

    Raises EmptyTextError when nothing alignable remains. Idempotent.
    """
    sep = vocab.separator_symbol
    charset = vocab.text_charset
    out: list[str] = []
    for ch in unicodedata.normalize("NFC", raw).lower():
        if ch.isspace() or ch == sep:
            if out and out[-1] != sep:
                out.append(sep)
        elif ch in charset:
            out.append(ch)
    while out and out[-1] == sep:
        out.pop()
    if not out:
        raise EmptyTextError("no vocab characters left after normalization")
    return "".join(out)


def split_utterances(
    text: str, max_words: int = MAX_WORDS_PER_UTT, separator: str = " "
) -> list[Utterance]:
    """Chunk normalized text into utterances of at most max_words words."""
    if max_words < 1:
        raise ConfigError(f"max_words must be >= 1, got {max_words}")
    words = [w for w in text.split(separator) if w]
    if not words:
        raise EmptyTextError("no words to split")
    utts = []
    for i in range(0, len(words), max_words):
        chunk = words[i : i + max_words]
        utts.append(
            Utterance(utt_index=len(utts), text=separator.join(chunk), word_count=len(chunk))
        )
    return utts


def build_token_sequence(utts: Sequence[Utterance], vocab: Vocab) -> TokenSequence:
    """Join utterances with single separator tokens and map chars to indices."""
    if not utts:
        raise EmptyTextError("no utterances")
    index_of = vocab.index_of
    tokens: list[int] = []
    boundaries = []
    for pos, utt in enumerate(utts):
        if pos > 0:
            tokens.append(vocab.separator_index)
        first = len(tokens)
        for ch in utt.text:
            try:
                idx = index_of[ch]
            except KeyError as exc:
                raise EmptyTextError(f"character {ch!r} not in vocab") from exc
            if idx == vocab.blank_index:
                raise EmptyTextError("blank symbol cannot appear in text")
            tokens.append(idx)
        last = len(tokens) - 1
        if last < first:
            raise EmptyTextError(f"utterance {utt.utt_index} is empty")
        boundaries.append((utt.utt_index, first, last))
    return TokenSequence(
        tokens=tuple(tokens), boundaries=tuple(boundaries), padded_length=len(tokens) + 2
    )


def estimate_time_refs(utts: Sequence[Utterance], total_speech_s: float) -> list[Utterance]:
    """Spread total speech time over utterances proportionally to char count."""
    if total_speech_s <= 0:
        raise ValueError("total_speech_s must be positive")
    counts = [len(u.text) for u in utts]
    total_chars = sum(counts)
    if total_chars == 0:
        raise EmptyTextError("utterances contain no characters")
    return [
        dataclasses.replace(u, est_duration_s=total_speech_s * n / total_chars)
        for u, n in zip(utts, counts)
    ]


def load_utterances(
    path: str | os.PathLike, vocab: Vocab, max_words: int = MAX_WORDS_PER_UTT
) -> list[Utterance]:
    """Read a transcript and produce the utterance list to align.

    The file holds captions when every non-empty line starts with two floats
    (`start end text`); the advisory timestamps are dropped and each line
    becomes one utterance, split further only past max_words. Otherwise the
    whole file is plain text chunked by max_words. Lines that normalize to
    nothing are dropped.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    non_empty = [line for line in lines if line.strip()]
    if non_empty and all(_caption_prefix(line) is not None for line in non_empty):
        texts = [_caption_prefix(line) for line in non_empty]
    else:
        texts = ["\n".join(lines)]
    utts: list[Utterance] = []
    for text in texts:
        try:
            normalized = normalize_text(text, vocab)  # type: ignore[arg-type]
        except EmptyTextError:
            continue
        for chunk in split_utterances(normalized, max_words, vocab.separator_symbol):
            utts.append(dataclasses.replace(chunk, utt_index=len(utts)))
    if not utts:
        raise EmptyTextError(f"transcript {path} has no alignable text")
    return utts


def _caption_prefix(line: str) -> str | None:
    parts = line.split(None, 2)
    if len(parts) != 3:
        return None
    try:
        float(parts[0])
        float(parts[1])
    except ValueError:
        return None
    return parts[2]
