"""What every command shares, free of array code: the knobs, the score
constants, the duration normalisation of scores, the atomic file writes and
the text-file line rules.

The argument parser, `filter` and `stats` read only this module, the errors
and the filters, so they start without importing the alignment stack.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .errors import ConfigError, TextDecodeError

FRAGMENT_FRAMES = 30
SCORE_REF_S = 8.0
SHORT_PENALTY = -4.0
MAX_WORDS_PER_UTT = 24
MAX_GAP_S = 30.0  # non-speech gaps longer than this are compressed away
# max_window_s spans at most this many window steps, so a pending utterance
# is retried through at most this many grows before it is skipped
MAX_WINDOW_STEPS = 10_000


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
        # bound max_window_s itself, not its distance from window_s: a step
        # under half an ulp of a huge window_s would grow it forever in place
        if self.max_window_s / self.window_step_s > MAX_WINDOW_STEPS:
            raise ConfigError(
                f"max_window_s must be at most {MAX_WINDOW_STEPS} x window_step_s"
                f" ({MAX_WINDOW_STEPS * self.window_step_s:g} s), got {self.max_window_s}"
            )


def normalize_score(score: float, duration_s: float, ref_s: float = SCORE_REF_S) -> float:
    """Scale a log score by duration relative to a reference length.

    Long utterances keep their (typically lower) scores comparable to short
    ones by weighting the log score with duration_s / ref_s. A result that
    overflows, as a tiny ref_s or an extreme score can make it, raises
    ConfigError: no output format can hold it.
    """
    if not 0 < ref_s < math.inf:
        raise ConfigError(f"score_ref_s must be > 0 and finite, got {ref_s}")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    normalized = score * duration_s / ref_s
    if not math.isfinite(normalized):
        raise ConfigError(
            f"normalized score of s_seg {score} over {duration_s} s"
            f" with score_ref_s {ref_s} is {normalized}"
        )
    return normalized


def _atomic_write_bytes(path: str | os.PathLike, blob: bytes) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def _write_lines(path: str | os.PathLike, lines: Iterable[str]) -> None:
    """Write each line followed by a newline, as UTF-8, atomically."""
    _atomic_write_bytes(path, "".join(line + "\n" for line in lines).encode("utf-8"))


def _lines(path: str | os.PathLike) -> Iterator[tuple[str, str]]:
    """Yield (f"{path}:{lineno}", line) for each line of a UTF-8 text file, its
    LF, CRLF or CR removed. A line that is not UTF-8 raises TextDecodeError: a
    byte that does not decode becomes a lone surrogate, which cannot encode."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise TextDecodeError(f"{where}: not UTF-8 text (byte 0x{byte:02x})") from None
            yield where, line.removesuffix("\n")


def _data_lines(path: str | os.PathLike) -> Iterator[tuple[str, str]]:
    """The lines of _lines, stripped, that are neither blank nor a `#` comment."""
    for where, line in _lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            yield where, line
