"""Vocabulary, posterior-matrix, and speech-region I/O.

All probabilities handled by this package are natural-log domain. Frame rate
is never assumed: every container carries frame_duration_s (0.02 s is only a
default for synthesis and the CLI).
"""

from __future__ import annotations

import bisect
import copy
import hashlib
import math
import operator
import os
import struct
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .common import MAX_GAP_S, _atomic_write_bytes, _data_lines, _lines, _write_lines
from .errors import (
    FrameMapError,
    NoSpeechError,
    PosteriorFormatError,
    SpeechRegionsError,
    VocabFormatError,
)

# binary posterior container: magic, u32 version, u32 T, u32 V, f32 frame_duration_s
CTCP_MAGIC = b"CTCP"
CTCP_VERSION = 1
_CTCP_HEADER = struct.Struct("<4sIIIf")

# row log-mass must stay within this distance of log(1)
ROW_MASS_TOL = 0.1
_MASS_BLOCK_ROWS = 8192  # rows per row-mass check in PosteriorMatrix validation
# A block whose plain log(sum(exp(row))) lies within ROW_MASS_TOL - _MASS_MARGIN
# on every row is accepted without the exact logsumexp. exp runs in float32 or
# wider, where each term errs by a few float32 ulps (under 1e-6 relative); a
# float64 sum of positive terms errs by no more than its worst term; and log
# turns that relative error into an absolute one. So the plain and the exact
# mass differ by about 1e-6 for any vocabulary size, far inside the margin,
# and every accept and reject keeps its bits.
_MASS_MARGIN = 1e-3

DEFAULT_FRAME_DURATION_S = 0.02


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(a))) over axis (all of a when None), for float64 input.

    The shifted log1p form of Blanchard, Higham & Higham (IMA J. Numer.
    Anal. 2021), step for step as scipy 1.17 computes it: every element equal
    to the maximum leaves the sum and is counted in m. Results that are not
    finite (all -inf) fall back to the plain log(sum(exp(a))).
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axes, keepdims=True)
        is_max = a == a_max
        m = is_max.sum(axis=axes, keepdims=True, dtype=np.float64)
        rest = np.where(is_max, -np.inf, a)
        rest -= a_max
        s = np.exp(rest, out=rest).sum(axis=axes, keepdims=True)  # in place: one temporary
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out).all():
            plain = np.log(np.exp(a).sum(axis=axes, keepdims=True))
            out = np.where(np.isfinite(out), out, plain)
    out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class Vocab:
    """Character inventory of the acoustic model's output layer.

    symbols[i] is the symbol emitted by output index i. Exactly one blank and
    one separator (word boundary, usually a space) must be declared.
    """

    symbols: tuple[str, ...]
    blank_index: int
    separator_index: int

    def __post_init__(self) -> None:
        n = len(self.symbols)
        if n < 2:
            raise VocabFormatError("vocab needs at least blank and separator")
        if len(set(self.symbols)) != n:
            raise VocabFormatError("vocab symbols are not unique")
        for idx, name in ((self.blank_index, "blank"), (self.separator_index, "separator")):
            if not 0 <= idx < n:
                raise VocabFormatError(f"{name} index {idx} out of range for {n} symbols")
        if self.blank_index == self.separator_index:
            raise VocabFormatError("blank and separator must be distinct")
        for sym in self.symbols:
            if sym == "":
                raise VocabFormatError("empty symbol")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {sym: i for i, sym in enumerate(self.symbols)}

    @cached_property
    def text_charset(self) -> frozenset[str]:
        """Single-character symbols usable in transcript text (blank excluded)."""
        return frozenset(
            sym for i, sym in enumerate(self.symbols) if i != self.blank_index and len(sym) == 1
        )

    @property
    def separator_symbol(self) -> str:
        return self.symbols[self.separator_index]

    def lines(self) -> list[str]:
        """The vocab file's lines: #blank, #separator, then `index<TAB>symbol`."""
        return [f"#blank {self.blank_index}", f"#separator {self.separator_index}"] + [
            f"{i}\t{sym}" for i, sym in enumerate(self.symbols)
        ]

    def checksum(self) -> str:
        return hashlib.sha256("\n".join(self.lines()).encode("utf-8")).hexdigest()


def load_vocab(path: str | os.PathLike) -> Vocab:
    """Read a vocab file: `index<TAB>symbol` lines plus #blank / #separator."""
    entries: dict[int, str] = {}
    blank_index = None
    separator_index = None
    # a symbol may be whitespace, so lines are not stripped
    for where, line in _lines(path):
        if line.startswith("#blank "):
            blank_index = _parse_directive_index(line, where)
        elif line.startswith("#separator "):
            separator_index = _parse_directive_index(line, where)
        if line == "" or line.startswith("#"):
            continue
        if "\t" not in line:
            raise VocabFormatError(f"{where}: expected index<TAB>symbol")
        idx_text, symbol = line.split("\t", 1)
        try:
            idx = int(idx_text)
        except ValueError as exc:
            raise VocabFormatError(f"{where}: bad index {idx_text!r}") from exc
        if idx in entries:
            raise VocabFormatError(f"{where}: duplicate index {idx}")
        entries[idx] = unicodedata.normalize("NFC", symbol)
    try:  # the checks of the whole file name the file
        if blank_index is None:
            raise VocabFormatError("missing #blank directive")
        if separator_index is None:
            raise VocabFormatError("missing #separator directive")
        if not entries:
            raise VocabFormatError("no symbol entries")
        size = len(entries)
        if sorted(entries) != list(range(size)):
            raise VocabFormatError("symbol indices must cover 0..V-1 without gaps")
        symbols = tuple(entries[i] for i in range(size))
        return Vocab(symbols=symbols, blank_index=blank_index, separator_index=separator_index)
    except VocabFormatError as exc:
        raise VocabFormatError(f"{path}: {exc}") from None


def save_vocab(path: str | os.PathLike, vocab: Vocab) -> None:
    _write_lines(path, vocab.lines())


def _parse_directive_index(line: str, where: str) -> int:
    try:
        return int(line.split(None, 1)[1])
    except (IndexError, ValueError) as exc:
        raise VocabFormatError(f"{where}: bad directive {line!r}") from exc


@dataclass(frozen=True)
class PosteriorMatrix:
    """Frame-wise natural-log character posteriors (T frames x V symbols).

    Construction validates the data and freezes it: no NaN, no positive
    value, and every row's log-mass within ROW_MASS_TOL of 0, where the exact
    logsumexp runs only on the row blocks a plain sum cannot accept (see
    _MASS_MARGIN) and the error names the worst row.
    """

    data: np.ndarray
    frame_duration_s: float
    vocab_id: str = ""

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise PosteriorFormatError("posterior data must be 2-D")
        t, v = self.data.shape
        if t < 1 or v < 2:
            raise PosteriorFormatError(f"bad posterior shape {self.data.shape}")
        if not 0 < self.frame_duration_s < math.inf:
            raise PosteriorFormatError(
                f"frame_duration_s must be positive and finite, got {self.frame_duration_s}"
            )
        top = self.data.max()  # NaN if any entry is NaN
        if np.isnan(top):
            raise PosteriorFormatError("posterior contains NaN")
        if top > 0:
            raise PosteriorFormatError("log probabilities must be <= 0")
        # row blocks bound the temporaries; a row's mass has the same bits in any block
        worst, worst_mass = -1, 0.0
        for first in range(0, t, _MASS_BLOCK_ROWS):
            block = self.data[first : first + _MASS_BLOCK_ROWS]
            with np.errstate(divide="ignore"):  # an all -inf row has mass -inf
                terms = np.exp(block, dtype=np.promote_types(block.dtype, np.float32))
                plain = np.log(terms.sum(axis=1, dtype=np.float64))
            if np.abs(plain).max() <= ROW_MASS_TOL - _MASS_MARGIN:
                continue
            mass = logsumexp(block, axis=1)
            i = int(np.argmax(np.abs(mass)))
            if abs(mass[i]) > max(abs(worst_mass), ROW_MASS_TOL):
                worst, worst_mass = first + i, mass[i]
        if worst >= 0:
            raise PosteriorFormatError(
                f"row {worst} log-mass {worst_mass:.4f} outside +/-{ROW_MASS_TOL}"
            )
        self.data.flags.writeable = False

    @property
    def n_frames(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_symbols(self) -> int:
        return int(self.data.shape[1])

    @property
    def duration_s(self) -> float:
        return self.n_frames * self.frame_duration_s


def load_posteriors(path: str | os.PathLike, vocab: Vocab | None = None) -> PosteriorMatrix:
    """Read a posterior matrix, binary (magic-sniffed) or whitespace text."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    read = _read_binary_posteriors if head == CTCP_MAGIC else _read_text_posteriors
    data, frame_duration_s = read(path)
    if vocab is not None and data.shape[1] != vocab.size:
        raise PosteriorFormatError(
            f"posterior has {data.shape[1]} symbols but vocab has {vocab.size}"
        )
    vocab_id = vocab.checksum() if vocab is not None else ""
    return PosteriorMatrix(data=data, frame_duration_s=frame_duration_s, vocab_id=vocab_id)


def _read_binary_posteriors(path: str | os.PathLike) -> tuple[np.ndarray, float]:
    with open(path, "rb") as fh:
        header = fh.read(_CTCP_HEADER.size)
        if len(header) != _CTCP_HEADER.size:
            raise PosteriorFormatError("truncated header")
        magic, version, t, v, frame_dur = _CTCP_HEADER.unpack(header)
        if magic != CTCP_MAGIC:
            raise PosteriorFormatError("bad magic")
        if version != CTCP_VERSION:
            raise PosteriorFormatError(f"unsupported version {version}")
        size = os.fstat(fh.fileno()).st_size - _CTCP_HEADER.size
        expected = t * v * 4
        if size != expected:
            raise PosteriorFormatError(f"payload is {size} bytes, expected {expected}")
        data = np.fromfile(fh, dtype="<f4", count=t * v).reshape(t, v)
    # the header stores f32; recover the intended decimal value (f32 keeps 6
    # significant digits) so frame arithmetic downstream stays exact
    return data, float(f"{frame_dur:.6g}")


def _read_text_posteriors(path: str | os.PathLike) -> tuple[np.ndarray, float]:
    lines = _lines(path)
    where, header = next(lines, (f"{path}:1", ""))
    try:
        t_text, v_text, dur_text = header.split()
        t, v, frame_dur = int(t_text), int(v_text), float(dur_text)
    except ValueError as exc:
        raise PosteriorFormatError(
            f"{where}: text header must be `T V frame_duration_s`, got {header!r}"
        ) from exc

    def rows() -> Iterator[str]:
        nonlocal where
        for where, line in lines:
            yield line

    try:
        # loadtxt takes an iterable's lines one at a time, so where names the failing row
        data = np.loadtxt(rows(), dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise PosteriorFormatError(f"{where}: unparseable posterior row") from exc
    if data.shape != (t, v):
        raise PosteriorFormatError(f"expected {t}x{v} values, got {data.shape}")
    return data.astype(np.float32), frame_dur


def save_posteriors(path: str | os.PathLike, pm: PosteriorMatrix) -> None:
    """Write the binary container. float32 payloads round-trip bit-exactly."""
    header = _CTCP_HEADER.pack(
        CTCP_MAGIC, CTCP_VERSION, pm.n_frames, pm.n_symbols, pm.frame_duration_s
    )
    payload = np.ascontiguousarray(pm.data, dtype="<f4").tobytes()
    _atomic_write_bytes(path, header + payload)


@dataclass(frozen=True)
class SpeechRegions:
    """Sorted, non-overlapping (start_s, end_s) spans of detected speech."""

    regions: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev_end = 0.0
        for start, end in self.regions:
            _check_region(start, end, prev_end)
            prev_end = end


def _check_region(start: float, end: float, prev_end: float, where: str = "") -> None:
    """Raise SpeechRegionsError, its message prefixed by where, unless
    0 <= start < end and the region starts at or after prev_end."""
    if not (0.0 <= start < end):
        raise SpeechRegionsError(f"{where}bad region ({start}, {end})")
    if start < prev_end:
        raise SpeechRegionsError(f"{where}regions must be sorted and non-overlapping")


def load_regions(path: str | os.PathLike) -> SpeechRegions:
    """Read `start_s end_s` lines; blank lines and # comments are skipped. A
    region that SpeechRegions would reject is named by its path:line."""
    spans = []
    prev_end = 0.0
    for where, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise SpeechRegionsError(f"{where}: expected start_s end_s, got {line!r}")
        try:
            start, end = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise SpeechRegionsError(f"{where}: bad floats {line!r}") from exc
        _check_region(start, end, prev_end, f"{where}: ")
        spans.append((start, end))
        prev_end = end
    return SpeechRegions(regions=tuple(spans))


def save_regions(path: str | os.PathLike, sr: SpeechRegions) -> None:
    _write_lines(path, (f"{start:.3f} {end:.3f}" for start, end in sr.regions))


@dataclass(frozen=True)
class FrameMap:
    """Invertible record of gap compression.

    Each segment is (compressed_start_frame, original_start_frame,
    length_frames). The constructor raises FrameMapError unless there is at
    least one segment, every length is at least 1, the compressed starts run
    contiguously from 0, and the original spans rise without overlap and end
    at or before original_frames.
    """

    segments: tuple[tuple[int, int, int], ...]
    original_frames: int

    def __post_init__(self) -> None:
        if not self.segments:
            raise FrameMapError("a frame map needs at least one segment")
        compressed_end = original_end = 0
        for segment in self.segments:
            compressed_start, original_start, length = segment
            if length < 1:
                raise FrameMapError(f"segment {segment} is shorter than one frame")
            if compressed_start != compressed_end:
                raise FrameMapError(f"segment {segment} does not start at frame {compressed_end}")
            if original_start < original_end:
                raise FrameMapError(f"segment {segment} starts before frame {original_end}")
            compressed_end += length
            original_end = original_start + length
        if original_end > self.original_frames:
            raise FrameMapError(
                f"segments end at frame {original_end}, past {self.original_frames} frames"
            )

    @property
    def compressed_frames(self) -> int:
        return sum(length for _, _, length in self.segments)


def identity_frame_map(n_frames: int) -> FrameMap:
    return FrameMap(segments=((0, 0, n_frames),), original_frames=n_frames)


def map_frames_back(fm: FrameMap, frame: int) -> int:
    """Translate a compressed frame index to the original timeline: the
    segment holding it is the last one starting at or before it, found by
    bisection."""
    i = bisect.bisect_right(fm.segments, frame, key=operator.itemgetter(0))
    if i:
        comp_start, orig_start, length = fm.segments[i - 1]
        if frame < comp_start + length:
            return orig_start + (frame - comp_start)
    raise FrameMapError(f"frame {frame} outside compressed range of {fm.compressed_frames}")


def apply_speech_regions(
    pm: PosteriorMatrix, sr: SpeechRegions, max_gap_s: float = MAX_GAP_S
) -> tuple[PosteriorMatrix, FrameMap]:
    """Drop frames inside non-speech gaps longer than max_gap_s.

    Gaps of max_gap_s or less are kept so the aligner can bridge them with
    blank frames; only long dead stretches are compressed away. Where no
    frame is dropped, pm itself is returned, with the identity FrameMap;
    else the kept rows are copied by one slice per kept run. A region may
    end past the file by 1e-6 s of rounding, or by half a frame where that
    is less.
    """
    total_s = pm.duration_s
    dur = pm.frame_duration_s
    slack = min(1e-6, dur / 2)
    for start, end in sr.regions:
        if end > total_s + slack:
            raise SpeechRegionsError(f"region ({start}, {end}) extends past {total_s:.3f}s")
    keep = np.ones(pm.n_frames, dtype=bool)
    for gap_start, gap_end in _gaps(sr, total_s):
        if gap_end - gap_start <= max_gap_s:
            continue
        # clamped before rounding, as a tiny dur can overflow the ratios
        first = math.ceil(min(gap_start / dur - 1e-9, pm.n_frames))
        last_excl = math.floor(min(gap_end / dur + 1e-9, pm.n_frames))
        keep[max(first, 0) : last_excl] = False
    if keep.all():
        return pm, identity_frame_map(pm.n_frames)
    if not keep.any():
        raise NoSpeechError("all frames fall in removable non-speech gaps")
    fm = FrameMap(segments=_kept_runs(keep), original_frames=pm.n_frames)
    # every check in __post_init__ holds for any row subset of a valid
    # matrix, so the copy skips it and the file is validated once
    compressed = copy.copy(pm)
    data = np.concatenate([pm.data[start : start + n] for _, start, n in fm.segments])
    data.flags.writeable = False
    object.__setattr__(compressed, "data", data)
    return compressed, fm


def _kept_runs(keep: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    """FrameMap segments for a non-empty boolean keep mask: one
    (compressed_start, original_start, length) per run of kept frames."""
    kept_idx = np.flatnonzero(keep)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(kept_idx) != 1) + 1))
    lengths = np.diff(starts, append=len(kept_idx))
    return tuple(zip(starts.tolist(), kept_idx[starts].tolist(), lengths.tolist()))


def _gaps(sr: SpeechRegions, total_s: float) -> list[tuple[float, float]]:
    edges = [0.0]
    for start, end in sr.regions:
        edges.extend([start, end])
    edges.append(total_s)
    return [(edges[i], edges[i + 1]) for i in range(0, len(edges), 2) if edges[i + 1] > edges[i]]
