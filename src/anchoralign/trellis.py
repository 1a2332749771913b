"""Max-probability alignment lattice, backtracking, and confidence scores.

The lattice aligns a token sequence against a window of log posteriors with a
free start: column 0 costs nothing at any frame, so the text may begin
anywhere in the window. Columns 1..K are the character tokens. Advancing into
column j at frame t consumes logP(token_j | x_t) and staying in a column
consumes logP(blank | x_t), so a character held over several frames pays
blank prices for the extra frames. A path ends by emitting one trailing blank
after its last token; since no log probability is positive, holding that
blank longer never helps, so the trailing blank needs no column of its own.

The fill keeps two rolling score rows and stores one advance-or-stay bit per
cell, packed eight to a byte, which is all the trace reads, plus the score
columns where utterances end, which is all the end rule reads. Column j needs
j frames, so no path ends past column frames - 1: the fill stops at the last
utterance end before it, and the ends of later utterances are -inf. That is
at most frames x ceil(min(tokens, frames - 1) / 8) bytes and 8 x frames x
(utterances + 1) more, not a float64 score lattice.

Each kernel has two calls: one fill per window, and one trace per backtrack,
which walks the decisions back and writes the path's frames and rho as it
goes. The C kernel (_lattice.c) is compiled with the system's `cc` on first
use and cached beside this module's bytecode. Where that fails, the numpy
kernel runs instead: a numpy row fill, and a trace that walks in Python and
gathers rho with numpy. Both kernels make the same IEEE additions and
comparisons, so they return the same bits.

The kernels read the Trellis's own window and tokens in place. A float32
window, as the .ctcp posteriors are, stays float32; each value read is widened
to float64, which is exact, so every window type gives the same sums and
comparisons. The C fill runs on the calling thread. Its row loop reads a
float64 row, or a float32 row widened once, and is vectorised: gcc on x86-64
builds an AVX-512 (x86-64-v4) clone, an AVX2 clone and a default one, and the
CPU runs the best it has. A float32 window of at most 64 symbols is scored by
a table loop instead, where gcc on x86-64 builds it and the CPU has AVX-512
F/BW/DQ/VL: it keeps each row's emissions in four registers and picks every
column's by its int32 token with two permutes and a blend. On 6000-row float32
windows of 38 symbols, one thread of a 2-core x86-64 VM, it took 0.30 ns a
cell at width 690 and 0.27-0.28 at width 2070, against 0.63 and 0.54 for the
AVX-512 clone. The table loop stores each 16 columns' decisions as the two
bytes of its mask; the row clones write a row's decisions one to a byte and
pack them in one pass. On row t the fill scores only the columns up to t and
sets the known decision, 1, of every later cell, which no path reaches.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib.util
import logging
import operator
import os
import platform
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .common import FRAGMENT_FRAMES, SHORT_PENALTY
from .errors import ConfigError, NoPathError
from .posterior_io import logsumexp
from .textprep import TokenSequence

_EMIT_BLOCK_ROWS = 32  # lattice rows per emission gather in the numpy fill
_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_lattice.c")
# no -ffast-math or -march=native: either may change the sums' bits
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120

log = logging.getLogger("anchoralign.trellis")


def _load_library(cc: str = "cc") -> ctypes.CDLL | None:
    """Build _lattice.c with cc, once per source, compiler, flags and
    machine, into the bytecode cache directory, and load it.

    Returns None, which selects the numpy kernel, when the compiler is
    missing, the build fails, the directory is not writable or the library
    does not load, and logs a warning that names the reason: the numpy
    kernel gives the same outputs, many times slower. The build writes a
    pid-suffixed file and renames it into place, so processes building at
    once never load a partial library.
    """
    try:
        with open(_C_SOURCE, "rb") as fh:
            source = fh.read()
        parts = [source, *(s.encode() for s in (cc, *_CFLAGS, platform.machine()))]
        key = hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]
        cache_dir = os.path.dirname(importlib.util.cache_from_source(os.path.abspath(__file__)))
        path = os.path.join(cache_dir, f"_lattice-{key}.so")
        if not os.path.exists(path):
            os.makedirs(cache_dir, exist_ok=True)
            if not os.access(cache_dir, os.W_OK):  # fail before paying for a compile
                raise PermissionError(f"cannot write to {cache_dir}")
            import subprocess  # only a cache miss starts a compiler

            tmp = f"{path}.tmp-{os.getpid()}"
            try:
                subprocess.run(
                    [cc, *_CFLAGS, "-o", tmp, _C_SOURCE],
                    check=True,
                    capture_output=True,
                    timeout=_BUILD_TIMEOUT_S,
                )
                os.replace(tmp, path)
            except subprocess.SubprocessError as exc:  # it failed or overran
                raise OSError(f"{cc} could not build {_C_SOURCE}: {exc}") from exc
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)
        lib = ctypes.CDLL(path)
    except OSError as exc:
        log.warning("lattice kernel: numpy, many times slower; no C kernel: %s", exc)
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.fill.argtypes = [ptr, ptr, i64, i64, ptr, i64, ptr, i64, ptr, i64, ptr, ptr]
    lib.fill.restype = None
    lib.trace.argtypes = [ptr, i64, ptr, i64, i64, ptr, i64, i64, i64, ptr, ptr]
    lib.trace.restype = i64
    log.debug("lattice kernel: C (%s)", path)
    return lib


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The compiled lattice kernel, loaded on the process's first fill or
    trace; None runs the numpy kernel's fill and trace, and the load has then
    logged the process's one warning about it."""
    return _load_library()


@dataclass(frozen=True)
class Trellis:
    """Forward lattice of advance decisions, read-only, bound to the window
    it was filled from.

    window is that window (T_w x V), which end_scores and backtrack read.
    Cell (t, j) is the best path that has consumed tokens 1..j after frame t
    (row 0 = before any frame). Its decision is 1 where that path advanced
    into column j on frame t and 0 where it stayed in column j; ties advance.
    The lattice holds the columns j = 0..width - 1, width - 1 being the last
    end column below frames: column j needs j frames and ends holds rows
    0..frames - 1, so no path ends in a later column. The constructor derives
    width from end_columns and the window. k holds the decisions of frames
    t = 1..frames and columns j = 1..width - 1 packed eight to a byte, as
    np.packbits(..., axis=1, bitorder="little") packs them: the decision for
    column j on frame t is bit (j - 1) % 8 of k[t - 1, (j - 1) // 8], and the
    padding bits past column width - 1 are 0. Row 0 and column 0, the free
    start, have none; the trace never reads them. ends[t][e] is the path's
    log joint probability at cell (t, end_columns[e]) for t = 0..frames - 1,
    -inf for the end columns past width - 1. end_columns holds 0, the end of
    every utterance and len(tokens), sorted. tokens are the token sequence's
    vocabulary indices, all of them, also past width - 1.

    The constructor is the one place that checks what the kernels index, so
    a Trellis built by hand is held to the same rules as compute_trellis's:
    - window is 2-D with at least 1 row, holding no NaN and no value above 0,
      which is checked on the values as given, before any conversion;
    - k is frames x ceil((width - 1) / 8);
    - ends is frames x len(end_columns);
    - end_columns is sorted without repeats, from 0 to len(tokens);
    - tokens are 1-D integers, and they and blank_index lie in [0, V).
    It holds k and ends as read-only C-contiguous uint8 and float64 arrays,
    and window as one of its own float type, float32 for a native float32
    window and float64 for any other: a read-only view of the array given
    where that already is one, else a converted copy. tokens are its own
    int32 copy, narrowed once checked, since their values index the window.
    """

    window: np.ndarray
    k: np.ndarray
    ends: np.ndarray
    end_columns: tuple[int, ...]
    tokens: np.ndarray
    blank_index: int
    width: int = field(init=False)

    def __post_init__(self) -> None:
        given = np.asarray(self.window)
        if given.ndim != 2 or given.shape[0] < 1:
            raise ValueError(f"bad window shape {given.shape}")
        if not given.max() <= 0:  # backtrack's end rule relies on it
            raise ValueError("window holds a positive or NaN log probability")
        window = _read_only(given, np.float32 if given.dtype == np.float32 else np.float64)
        k = _read_only(self.k, np.uint8)
        ends = _read_only(self.ends, np.float64)
        end_columns = tuple(map(operator.index, self.end_columns))
        blank_index = operator.index(self.blank_index)
        n_frames, n_symbols = window.shape
        tokens = np.asarray(self.tokens)  # checked on the type given, then narrowed
        if tokens.ndim != 1 or (tokens.size and tokens.dtype.kind not in "iu"):  # () is float64
            raise ValueError(f"tokens of {tokens.dtype} and shape {tokens.shape}: not 1-D integers")
        if tokens.size and not (tokens.min() >= 0 and tokens.max() < n_symbols):
            raise ValueError("token index out of vocab range")
        del tokens  # freed first, so a window's tokens never take more than 8 bytes each
        tokens = np.array(self.tokens, dtype=np.int32)  # its own copy: the values index memory
        tokens.flags.writeable = False
        if ends.shape != (n_frames, len(end_columns)):
            raise ValueError(
                f"ends of shape {ends.shape} does not fit {n_frames} frames"
                f" and {len(end_columns)} end columns"
            )
        if (
            end_columns[:1] != (0,)
            or end_columns[-1] != len(tokens)
            or any(a >= b for a, b in zip(end_columns, end_columns[1:]))
        ):
            raise ValueError(f"end columns {end_columns} do not rise from 0 to {len(tokens)}")
        width, k_shape = _lattice_shape(end_columns, n_frames)
        if k.shape != k_shape:
            raise ValueError(
                f"k of shape {k.shape} does not hold {n_frames} frames of"
                f" {width - 1} decisions packed eight to a byte"
            )
        if not 0 <= blank_index < n_symbols:
            raise ValueError(f"blank index {blank_index} out of range for {n_symbols} symbols")
        checked = {
            "window": window,
            "k": k,
            "ends": ends,
            "end_columns": end_columns,
            "tokens": tokens,
            "blank_index": blank_index,
            "width": width,
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


def _lattice_shape(end_columns, n_frames: int) -> tuple[int, tuple[int, int]]:
    """The width of a lattice of n_frames rows whose utterances end on the
    sorted end_columns, 1 + the last end column below n_frames, and the
    shape of its k: n_frames rows of width - 1 decisions, eight to a byte."""
    width = max((c for c in end_columns if c < n_frames), default=0) + 1
    return width, (n_frames, (width + 6) // 8)


def _read_only(array, dtype) -> np.ndarray:
    """array as a read-only C-contiguous aligned array of dtype: a view where
    it already is one, so the caller's array stays writable, else a copy."""
    view = np.require(np.asarray(array), dtype, ["C", "A"]).view()
    view.flags.writeable = False
    return view


@dataclass
class UtteranceAlignment:
    """Aligned span and confidence scores for one utterance.

    start_frame/end_frame are the emission frames of the first and last
    character token on the gap-compressed file timeline: the aligner adds
    the window's start as it builds them. start_s/end_s appear once mapped
    back to the original timeline.
    """

    utt_index: int
    start_frame: int
    end_frame: int
    s_seg: float
    s_seg_norm: float
    penalized: bool
    anchor: bool = False
    file_id: str = ""
    duration_s: float = 0.0
    start_s: float | None = None
    end_s: float | None = None


def compute_trellis(window_logp: np.ndarray, ts: TokenSequence, blank_index: int) -> Trellis:
    """Fill the lattice's advance decisions for a posterior window (T_w x V,
    natural log) into a Trellis bound to that window.

    A writable window is copied first, so the caller cannot change it under
    the Trellis; a read-only one, such as the aligner's row slices of a
    PosteriorMatrix, is held as it is where the Trellis can (see Trellis),
    which checks the window, tokens and blank before either kernel reads them;
    every window value must be <= 0 (a log probability), as backtrack's end
    rule relies on it. The score row before any frame is 0 then -inf, column 0
    scores 0, and each later row scores
    max(prev[1:] + blank, prev[:-1] + emit), keeping the stay value on a tie;
    k stores advance >= stay per cell, packed eight to a byte, and ends the
    score columns at end_columns; the lattice stops at the last end column a
    path can reach (see Trellis). k is allocated unzeroed: both kernels write
    every byte of it. The C kernel's fill computes it cell by cell on the
    calling thread; _fill_rows with numpy calls per row. Either reads only
    the Trellis's window and tokens, and holds two score rows at once.
    """
    given = np.asarray(window_logp)
    n_frames = given.shape[0] if given.ndim else 0  # Trellis rejects a window not 2-D
    end_columns = tuple(sorted({0, len(ts.tokens), *(last + 1 for *_, last in ts.boundaries)}))
    k = np.empty(_lattice_shape(end_columns, n_frames)[1], dtype=np.uint8)
    ends = np.empty((n_frames, len(end_columns)))
    tr = Trellis(
        window=given.copy() if given.flags.writeable else given,
        k=k,
        ends=ends,
        end_columns=end_columns,
        tokens=ts.tokens,
        blank_index=blank_index,
    )
    # tr holds read-only views of k and ends; the fill writes them through these
    columns = np.array(end_columns, dtype=np.int64)
    lib = _kernel()
    if lib is None:
        _fill_rows(tr.window, tr.tokens[: tr.width - 1], tr.blank_index, k, columns, ends)
    else:
        # fill's scratch: two score rows, a widened window row, a row's decision bytes
        scratch = np.empty(2 * tr.width + tr.window.shape[1] + k.shape[1])
        lib.fill(
            tr.window.ctypes.data,
            tr.window.itemsize,
            n_frames,
            tr.window.shape[1],
            tr.tokens.ctypes.data,
            tr.blank_index,
            k.ctypes.data,
            tr.width,
            columns.ctypes.data,
            len(columns),
            ends.ctypes.data,
            scratch.ctypes.data,
        )
    return tr


def _fill_rows(
    window: np.ndarray,
    tokens: np.ndarray,
    blank_index: int,
    k: np.ndarray,
    end_columns: np.ndarray,
    ends: np.ndarray,
) -> None:
    """The numpy fill of k and ends for the lattice over tokens, on two
    rolling score rows: per frame, ends[t - 1] = prev[end_columns],
    advance = prev[:-1] + emit, row = prev[1:] + blank, the decisions
    advance >= row and row = max(row, advance). The emissions are gathered
    and the decisions packed into k for _EMIT_BLOCK_ROWS rows at a time. The
    sorted end_columns past the last token, which no path reaches, end at
    -inf on every row."""
    width = len(tokens) + 1
    prev, row = np.zeros(width), np.zeros(width)  # column 0 stays 0
    prev[1:] = -np.inf
    reached = int(np.searchsorted(end_columns, width))
    ends[:, reached:] = -np.inf
    end_columns, reached_ends = end_columns[:reached], ends[:, :reached]
    blank = window[:, blank_index].tolist()
    advance = np.empty(len(tokens))
    decisions = np.empty((_EMIT_BLOCK_ROWS, len(tokens)), dtype=np.bool_)
    for t0 in range(0, len(window), _EMIT_BLOCK_ROWS):
        block = slice(t0, t0 + _EMIT_BLOCK_ROWS)
        emits = window[block].take(tokens, axis=1)
        rows = zip(emits, blank[block], decisions, reached_ends[block])
        for emit, stay, decided, end_row in rows:
            prev.take(end_columns, out=end_row)
            np.add(prev[:-1], emit, out=advance)
            np.add(prev[1:], stay, out=row[1:])
            np.greater_equal(advance, row[1:], out=decided)
            np.maximum(row[1:], advance, out=row[1:])
            prev, row = row, prev
        k[block] = np.packbits(decisions[: len(emits)], axis=1, bitorder="little")


def end_scores(tr: Trellis, n_tokens: int | None = None) -> np.ndarray:
    """Score of ending the path on each frame of tr's window.

    Entry f is the score at cell (f, n) plus logP(blank | x_f): the best
    path that has placed the first n_tokens tokens (default: all of tr's) by
    frame f - 1 and emits its trailing blank on frame f. Its maximum is the
    best log probability of those tokens in the window. n_tokens must be in
    tr.end_columns.
    """
    n = len(tr.tokens) if n_tokens is None else n_tokens
    if n not in tr.end_columns:
        raise ValueError(f"n_tokens {n} ends no utterance of the lattice ({tr.end_columns})")
    return tr.ends[:, tr.end_columns.index(n)] + tr.window[:, tr.blank_index]


def backtrack(tr: Trellis, n_tokens: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Trace the best path of the first n_tokens tokens back from its best
    end frame.

    n_tokens (default: all of tr's tokens) must be in tr.end_columns, as in
    end_scores: column j of a lattice depends only on columns <= j, so the
    decisions of a batch of fewer utterances are tr's, and one fill of the
    longest batch answers every shorter one, bit for bit. The path ends on
    the earliest frame maximizing end_scores, holding its trailing blank for
    that one frame, and the walk back reads only tr.k's bits. Ties pick the
    earliest end frame and prefer advancing. Where no path ends in column
    n_tokens, because the window is too short for it or the lattice stops
    before it, NoPathError is raised before any kernel call.

    Returns frames (int64, n_tokens + 1 entries) and rho. frames[i] is the
    frame on which token i is emitted, and that token is held through frame
    frames[i + 1] - 1; the last entry is the trailing blank's frame, the
    path's last. rho is the per-frame score over the traced span:
    rho[f] = max(logP(aligned token | x_f), logP(blank | x_f)), NaN for
    frames off the path; a tie, 0.0 against -0.0 too, gives the blank's
    value. One kernel call, C's trace or the numpy kernel's _trace, walks the
    path and writes both.
    """
    n = len(tr.tokens) if n_tokens is None else n_tokens
    ends = end_scores(tr, n)  # checks n
    psi = int(np.argmax(ends)) + 1  # earliest row attaining the max
    # no path ends past column width - 1, which the fill did not reach
    if n >= tr.width or ends[psi - 1] == -np.inf:
        raise NoPathError(f"window of {len(tr.window)} frames cannot hold {n + 1} tokens")
    frames = np.empty(n + 1, dtype=np.int64)
    rho = np.full(len(tr.window), np.nan)
    lib = _kernel()
    if lib is None:
        _trace(tr, psi - 1, n, frames, rho)
    elif lib.trace(
        tr.k.ctypes.data,
        tr.width,
        tr.window.ctypes.data,
        tr.window.itemsize,
        tr.window.shape[1],
        tr.tokens.ctypes.data,
        tr.blank_index,
        psi - 1,
        n,
        frames.ctypes.data,
        rho.ctypes.data,
    ):
        raise NoPathError("backtrack walked past the window start")
    return frames, rho


def _trace(tr: Trellis, t: int, j: int, frames: np.ndarray, rho: np.ndarray) -> None:
    """The numpy kernel's trace, _lattice.c's trace in Python: walk back from
    cell (t, j), whose trailing blank is on frame t, reading the decision
    bit of each cell it passes and writing each token's emission frame into
    frames, then write rho on the traced frames in one
    gather, by the same rule: the held symbol's value a where
    a > b or a is NaN, else the blank's value b. The Trellis constructor has
    checked every index the walk reads but t, and backtrack that j is below
    tr.width; a walk past row 0 raises NoPathError."""
    n = j
    frames[n] = t
    while j > 0:
        if t < 1:
            raise NoPathError("backtrack walked past the window start")
        if tr.k[t - 1, (j - 1) // 8] >> (j - 1) % 8 & 1:
            j -= 1
            frames[j] = t - 1
        t -= 1
    traced = np.arange(frames[0], frames[n] + 1)
    symbols = np.append(tr.tokens[:n], tr.blank_index)
    held = np.repeat(symbols, np.diff(frames, append=frames[n] + 1))  # frame by frame
    a, b = tr.window[traced, held], tr.window[traced, tr.blank_index]
    rho[traced] = np.where((a > b) | np.isnan(a), a, b)


def fragment_scores(rho: np.ndarray, fragment_frames: int = FRAGMENT_FRAMES) -> np.ndarray:
    """Log of the mean linear score over consecutive fixed-length fragments.

    The trailing fragment may be shorter and is averaged over its actual
    length; a span no longer than fragment_frames yields a single fragment.
    """
    if fragment_frames < 1:
        raise ConfigError("fragment_frames must be >= 1")
    rho = np.asarray(rho, dtype=np.float64)
    if rho.ndim != 1 or rho.size == 0:
        raise ValueError("rho must be a non-empty 1-D array")
    if np.isnan(rho).any():
        raise ValueError("rho contains frames off the traced path")
    full = rho.size - rho.size % fragment_frames
    out = np.empty(0)
    if full:  # a block length past the span (even past int64) leaves no full block
        out = logsumexp(rho[:full].reshape(-1, fragment_frames), axis=1) - np.log(fragment_frames)
    if full < rho.size:
        out = np.append(out, logsumexp(rho[full:]) - np.log(rho.size - full))
    return out


def segment_score(fragments: np.ndarray) -> float:
    """Worst fragment wins: the utterance score is the minimum fragment."""
    fragments = np.asarray(fragments)
    if fragments.size == 0:
        raise ValueError("no fragments")
    return float(fragments.min())


def segment_scores(
    spans: Sequence[np.ndarray], fragment_frames: int = FRAGMENT_FRAMES
) -> np.ndarray:
    """segment_score(fragment_scores(span, fragment_frames)) of each span,
    bit for bit, in a few reductions for all spans at once.

    The full fragments of every span are one logsumexp over the rows of their
    concatenation, and the trailing fragments one logsumexp per length; each
    row is reduced alone, as fragment_scores reduces it, so the other rows do
    not change its bits. np.minimum.at then takes each span's worst fragment.
    spans are non-empty 1-D float64 spans of a traced rho, which holds no NaN.
    """
    if fragment_frames < 1:
        raise ConfigError("fragment_frames must be >= 1")
    if not all(len(span) for span in spans):
        raise ValueError("an empty span has no fragments")
    blocks = [len(span) // fragment_frames for span in spans]
    scores, owners = [], []
    if any(blocks):
        full = [span[: n * fragment_frames] for span, n in zip(spans, blocks)]
        rows = np.concatenate(full).reshape(-1, fragment_frames)
        scores.append(logsumexp(rows, axis=1) - np.log(fragment_frames))
        owners.append(np.repeat(np.arange(len(spans)), blocks))
    trailing: dict[int, list[int]] = {}
    for i, (span, n) in enumerate(zip(spans, blocks)):
        if len(span) > n * fragment_frames:
            trailing.setdefault(len(span) - n * fragment_frames, []).append(i)
    for length, which in trailing.items():
        rows = np.stack([spans[i][-length:] for i in which])
        scores.append(logsumexp(rows, axis=1) - np.log(length))
        owners.append(np.array(which))
    out = np.full(len(spans), np.inf)
    if scores:
        np.minimum.at(out, np.concatenate(owners), np.concatenate(scores))
    return out


def apply_short_penalty(
    score: float,
    length_frames: int,
    fragment_frames: int = FRAGMENT_FRAMES,
    penalty: float = SHORT_PENALTY,
) -> tuple[float, bool]:
    """Cap the score of spans covered by a single fragment.

    Spans of at most fragment_frames frames carry too little evidence to end
    a batch; their score is lowered to at most `penalty` so they can never
    anchor, and the returned flag marks them.
    """
    if length_frames <= fragment_frames:
        return min(score, penalty), True
    return score, False
