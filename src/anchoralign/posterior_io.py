"""Vocabulary, posterior-matrix, and speech-region I/O.

All probabilities handled by this package are natural-log domain. Frame rate
is never assumed: every container carries frame_duration_s (0.02 s is only a
default for synthesis and the CLI).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import unicodedata
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    def checksum(self) -> str:
        payload = "\n".join(
            [f"#blank {self.blank_index}", f"#separator {self.separator_index}"]
            + [f"{i}\t{sym}" for i, sym in enumerate(self.symbols)]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_vocab(path: str | os.PathLike) -> Vocab:
    """Read a vocab file: `index<TAB>symbol` lines plus #blank / #separator."""
    entries: dict[int, str] = {}
    blank_index = None
    separator_index = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line == "":
                continue
            if line.startswith("#blank "):
                blank_index = _parse_directive_index(line, lineno)
                continue
            if line.startswith("#separator "):
                separator_index = _parse_directive_index(line, lineno)
                continue
            if line.startswith("#"):
                continue
            if "\t" not in line:
                raise VocabFormatError(f"line {lineno}: expected index<TAB>symbol")
            idx_text, symbol = line.split("\t", 1)
            try:
                idx = int(idx_text)
            except ValueError as exc:
                raise VocabFormatError(f"line {lineno}: bad index {idx_text!r}") from exc
            if idx in entries:
                raise VocabFormatError(f"line {lineno}: duplicate index {idx}")
            entries[idx] = unicodedata.normalize("NFC", symbol)
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


def save_vocab(path: str | os.PathLike, vocab: Vocab) -> None:
    lines = [f"#blank {vocab.blank_index}", f"#separator {vocab.separator_index}"]
    lines += [f"{i}\t{sym}" for i, sym in enumerate(vocab.symbols)]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_directive_index(line: str, lineno: int) -> int:
    try:
        return int(line.split(None, 1)[1])
    except (IndexError, ValueError) as exc:
        raise VocabFormatError(f"line {lineno}: bad directive {line!r}") from exc


@dataclass(frozen=True)
class PosteriorMatrix:
    """Frame-wise natural-log character posteriors (T frames x V symbols)."""

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
        # row blocks bound the float64 temporaries; a row's mass has the same bits
        worst, worst_mass = -1, 0.0
        for first in range(0, t, _MASS_BLOCK_ROWS):
            mass = logsumexp(self.data[first : first + _MASS_BLOCK_ROWS], axis=1)
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
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise PosteriorFormatError("text header must be: T V frame_duration_s")
        try:
            t, v, frame_dur = int(header[0]), int(header[1]), float(header[2])
        except ValueError as exc:
            raise PosteriorFormatError(f"bad text header {header!r}") from exc
        try:
            data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise PosteriorFormatError("unparseable posterior row") from exc
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
        prev_end = None
        for start, end in self.regions:
            if not (0.0 <= start < end):
                raise SpeechRegionsError(f"bad region ({start}, {end})")
            if prev_end is not None and start < prev_end:
                raise SpeechRegionsError("regions must be sorted and non-overlapping")
            prev_end = end


def load_regions(path: str | os.PathLike) -> SpeechRegions:
    """Read `start_s end_s` lines; blank lines and # comments are skipped."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SpeechRegionsError(f"line {lineno}: expected start_s end_s")
            try:
                spans.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise SpeechRegionsError(f"line {lineno}: bad floats {line!r}") from exc
    return SpeechRegions(regions=tuple(spans))


def save_regions(path: str | os.PathLike, sr: SpeechRegions) -> None:
    lines = [f"{start:.3f} {end:.3f}" for start, end in sr.regions]
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


@dataclass(frozen=True)
class FrameMap:
    """Invertible record of gap compression.

    Each segment is (compressed_start_frame, original_start_frame,
    length_frames); segments are contiguous on the compressed axis.
    """

    segments: tuple[tuple[int, int, int], ...]
    original_frames: int

    @property
    def compressed_frames(self) -> int:
        return sum(length for _, _, length in self.segments)


def identity_frame_map(n_frames: int) -> FrameMap:
    return FrameMap(segments=((0, 0, n_frames),), original_frames=n_frames)


def map_frames_back(fm: FrameMap, frame: int) -> int:
    """Translate a compressed frame index to the original timeline."""
    for comp_start, orig_start, length in fm.segments:
        if comp_start <= frame < comp_start + length:
            return orig_start + (frame - comp_start)
    raise FrameMapError(f"frame {frame} outside compressed range of {fm.compressed_frames}")


def apply_speech_regions(
    pm: PosteriorMatrix, sr: SpeechRegions, max_gap_s: float = 30.0
) -> tuple[PosteriorMatrix, FrameMap]:
    """Drop frames inside non-speech gaps longer than max_gap_s.

    Gaps of max_gap_s or less are kept so the aligner can bridge them with
    blank frames; only long dead stretches are compressed away.
    """
    total_s = pm.duration_s
    dur = pm.frame_duration_s
    for start, end in sr.regions:
        if end > total_s + 1e-6:
            raise SpeechRegionsError(f"region ({start}, {end}) extends past {total_s:.3f}s")
    keep = np.ones(pm.n_frames, dtype=bool)
    for gap_start, gap_end in _gaps(sr, total_s):
        if gap_end - gap_start <= max_gap_s:
            continue
        first = math.ceil(gap_start / dur - 1e-9)
        last_excl = math.floor(gap_end / dur + 1e-9)
        keep[max(first, 0) : min(last_excl, pm.n_frames)] = False
    if not keep.any():
        raise NoSpeechError("all frames fall in removable non-speech gaps")
    kept_idx = np.flatnonzero(keep)
    segments = []
    run_start = 0
    for i in range(1, len(kept_idx) + 1):
        if i == len(kept_idx) or kept_idx[i] != kept_idx[i - 1] + 1:
            length = i - run_start
            segments.append((run_start, int(kept_idx[run_start]), length))
            run_start = i
    fm = FrameMap(segments=tuple(segments), original_frames=pm.n_frames)
    compressed = PosteriorMatrix(
        data=pm.data[keep],
        frame_duration_s=pm.frame_duration_s,
        vocab_id=pm.vocab_id,
    )
    return compressed, fm


def _gaps(sr: SpeechRegions, total_s: float) -> list[tuple[float, float]]:
    edges = [0.0]
    for start, end in sr.regions:
        edges.extend([start, end])
    edges.append(total_s)
    return [(edges[i], edges[i + 1]) for i in range(0, len(edges), 2) if edges[i + 1] > edges[i]]


def _atomic_write_bytes(path: str | os.PathLike, blob: bytes) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def _atomic_write_text(path: str | os.PathLike, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))
