"""Max-probability alignment lattice, backtracking, and confidence scores.

The lattice aligns a token sequence against a window of log posteriors with a
free start: column 0 costs nothing at any frame, so the text may begin
anywhere in the window. Columns 1..K are the character tokens. Advancing into
column j at frame t consumes logP(token_j | x_t) and staying in a column
consumes logP(blank | x_t), so a character held over several frames pays
blank prices for the extra frames. A path ends by emitting one trailing blank
after its last token; since no log probability is positive, holding that
blank longer never helps, so the trailing blank needs no column of its own.

The fill keeps two rolling score rows and stores one advance-or-stay byte per
cell, which is all the trace reads, plus the score columns where
utterances end, which is all the end rule reads. Column j needs j frames, so
no path ends past column frames - 1: the fill stops at the last utterance end
before it, and the ends of later utterances are -inf. That is at most
(frames + 1) x (min(tokens, frames - 1) + 1) bytes and 8 x frames x
(utterances + 1) more, not a float64 score lattice.

Each kernel has two calls: one fill per window, and one trace per backtrack,
which walks the decisions back and writes the path's frames and rho as it
goes. The C kernel (_lattice.c) is compiled with the system's `cc` on first
use and cached beside this module's bytecode. Where that fails, the numpy
kernel runs instead: a numpy row fill, and a trace that walks in Python and
gathers rho with numpy. Both kernels make the same IEEE additions and
comparisons, so they return the same bits.

The C fill runs on the calling thread. Its row loop reads its emissions from
the window itself and is vectorised: gcc on x86-64 builds an AVX-512
(x86-64-v4) clone, an AVX2 clone and a default one, and the CPU runs the best
it has. A float32 window of at most 64 symbols, such as the CLI's row slices
of a PosteriorMatrix, is read in place by a table loop instead, where gcc on
x86-64 builds it and the CPU has AVX-512 F/BW/DQ/VL: it keeps each row's
emissions in four registers and picks every column's by its token with two
permutes and a blend, where the clones load them one by one. float32 values
widen to float64 exactly, so it makes the same sums and comparisons. On
6000-row windows of 38 symbols, one thread of a 2-core x86-64 VM, it took
0.37 ns a cell at width 676 and 0.56-0.59 at width 2000, against 0.73-0.79
for the AVX-512 clone. On row t the fill scores only the columns up to t;
every later cell is out of a path's reach, and the fill writes its known
decision, 1, without scoring it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib.util
import logging
import os
import platform
from dataclasses import dataclass

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
    does not load. The build writes a pid-suffixed file and renames it into
    place, so processes building at once never load a partial library.
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
        log.debug("lattice kernel: numpy, the C kernel is unavailable (%s)", exc)
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.fill.argtypes = [ptr, ptr, i64, i64, ptr, i64, ptr, i64, ptr, i64, ptr, ptr]
    lib.fill.restype = None
    lib.trace.argtypes = [ptr, i64, ptr, i64, ptr, i64, i64, i64, ptr, ptr]
    lib.trace.restype = i64
    log.debug("lattice kernel: C (%s)", path)
    return lib


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The compiled lattice kernel, loaded on the process's first fill or
    trace; None runs the numpy kernel's fill and trace."""
    return _load_library()


@dataclass(frozen=True)
class Trellis:
    """Forward lattice of advance decisions, read-only, bound to the window
    it was filled from.

    window is that window as a read-only float64 copy (T_w x V), which
    end_scores and backtrack read. Cell (t, j) is the best path that has
    consumed tokens 1..j after frame t (row 0 = before any frame). k[t][j]
    (uint8) is 1 where that path advanced into column j on frame t and 0
    where it stayed in column j; ties advance, and row 0 and column 0 are 0.
    k holds the columns j = 0..n, n being the last end column below frames:
    no path ends in a later column. ends[t][e] (float64, frames x
    len(end_columns)) is the path's log joint probability at cell
    (t, end_columns[e]) for t = 0..frames - 1, -inf for the end columns past
    n. end_columns holds 0, the end of every utterance and len(tokens),
    sorted. tokens (int64, read-only) are the token sequence's vocabulary
    indices, all of them, also past n.
    """

    window: np.ndarray
    k: np.ndarray
    ends: np.ndarray
    end_columns: tuple[int, ...]
    tokens: np.ndarray
    blank_index: int


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
    natural log), keeping a read-only float64 copy of the window in the
    Trellis.

    Every window value must be <= 0 (a log probability): backtrack's end
    rule relies on it. The score row before any frame is 0 then -inf,
    column 0 scores 0, and each later row scores
    max(prev[1:] + blank, prev[:-1] + emit), keeping the stay value on a tie;
    k stores advance >= stay per cell, and ends the score columns at
    end_columns; k stops at the last end column a path can reach (see
    Trellis). k is allocated unzeroed: only its row 0 and column 0 are
    zeroed here, and both kernels write every other cell. The C kernel's
    fill computes it cell by cell on the calling thread, reading a float32
    window_logp's own rows where _float32_rows allows; _fill_rows with numpy
    calls per row. Only two score rows are held at once.
    """
    window = np.array(window_logp, dtype=np.float64, order="C")  # the Trellis's own copy
    # the C fill may read a float32 window's own rows (see _lattice.c)
    window32 = window_logp if _float32_rows(window_logp) else None
    if window.ndim != 2 or window.shape[0] < 1:
        raise ValueError(f"bad window shape {window.shape}")
    n_frames, n_symbols = window.shape
    tokens = np.array(ts.tokens, dtype=np.int64)
    if not 0 <= blank_index < n_symbols:
        raise ValueError(f"blank index {blank_index} out of range for {n_symbols} symbols")
    if (tokens < 0).any() or (tokens >= n_symbols).any():
        raise ValueError("token index out of vocab range")
    if not window.max() <= 0:
        raise ValueError("window holds a positive or NaN log probability")
    end_columns = tuple(sorted({0, len(tokens), *(last + 1 for *_, last in ts.boundaries)}))
    if end_columns[0] < 0 or end_columns[-1] > len(tokens):
        raise ValueError("utterance boundaries out of range for the tokens")
    # column j needs j frames and ends holds rows 0..n_frames - 1, so no path
    # ends past column n_frames - 1: fill up to the last end column before it
    columns = np.array([c for c in end_columns if c < n_frames], dtype=np.int64)
    width = int(columns[-1]) + 1
    # both kernels write every cell but row 0 and column 0, the free start
    k = np.empty((n_frames + 1, width), dtype=np.uint8)
    k[0] = 0
    k[:, 0] = 0
    ends = np.empty((n_frames, len(columns)))
    lib = _kernel()
    if lib is None:
        _fill_rows(window, tokens[: width - 1], blank_index, k, columns, ends)
    else:
        # two score rows and the tokens as int32, as _lattice.c's fill lays them out
        scratch = np.empty(2 * width + width // 2)
        lib.fill(
            window.ctypes.data,
            None if window32 is None else window32.ctypes.data,
            n_frames,
            n_symbols,
            tokens.ctypes.data,
            blank_index,
            k.ctypes.data,
            width,
            columns.ctypes.data,
            len(columns),
            ends.ctypes.data,
            scratch.ctypes.data,
        )
    if len(columns) < len(end_columns):  # the end columns past the fill have no path
        unreached = np.full((n_frames, len(end_columns) - len(columns)), -np.inf)
        ends = np.hstack([ends, unreached])
    for array in (window, k, ends, tokens):
        array.flags.writeable = False
    return Trellis(
        window=window,
        k=k,
        ends=ends,
        end_columns=end_columns,
        tokens=tokens,
        blank_index=blank_index,
    )


def _float32_rows(window_logp) -> bool:
    """Whether window_logp is a float32 array whose rows the C fill can read
    in place: C-contiguous and aligned, as the CLI's row slices are."""
    return (
        isinstance(window_logp, np.ndarray)
        and window_logp.dtype == np.float32
        and window_logp.flags.c_contiguous
        and window_logp.flags.aligned
    )


def _fill_rows(
    window: np.ndarray,
    tokens: np.ndarray,
    blank_index: int,
    k: np.ndarray,
    end_columns: np.ndarray,
    ends: np.ndarray,
) -> None:
    """The numpy fill of k past row 0 and column 0, and of ends, on two
    rolling score rows: per frame, ends[t - 1] = prev[end_columns],
    advance = prev[:-1] + emit, row = prev[1:] + blank, k[t] = advance >= row
    and row = max(row, advance), with the emissions gathered for
    _EMIT_BLOCK_ROWS rows at a time."""
    prev, row = np.zeros(k.shape[1]), np.zeros(k.shape[1])  # column 0 stays 0
    prev[1:] = -np.inf
    blank = window[:, blank_index].tolist()
    advance = np.empty(len(tokens))
    decisions = k[1:, 1:].view(np.bool_)
    for t0 in range(0, len(window), _EMIT_BLOCK_ROWS):
        block = slice(t0, t0 + _EMIT_BLOCK_ROWS)
        emits = window[block].take(tokens, axis=1)
        for emit, stay, decided, end_row in zip(emits, blank[block], decisions[block], ends[block]):
            prev.take(end_columns, out=end_row)
            np.add(prev[:-1], emit, out=advance)
            np.add(prev[1:], stay, out=row[1:])
            np.greater_equal(advance, row[1:], out=decided)
            np.maximum(row[1:], advance, out=row[1:])
            prev, row = row, prev


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
    that one frame, and the walk back reads only tr.k. Ties pick the
    earliest end frame and prefer advancing.

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
    if ends[psi - 1] == -np.inf:
        raise NoPathError(f"window of {len(tr.window)} frames cannot hold {n + 1} tokens")
    frames = np.empty(n + 1, dtype=np.int64)
    rho = np.full(len(tr.window), np.nan)
    # the layouts the C trace reads; compute_trellis's arrays pass uncopied,
    # a Trellis built by hand may hold others
    k = np.ascontiguousarray(tr.k, dtype=np.uint8)
    window = np.ascontiguousarray(tr.window, dtype=np.float64)
    tokens = np.ascontiguousarray(tr.tokens, dtype=np.int64)
    lib = _kernel()
    if lib is None:
        _trace(tr, psi - 1, n, frames, rho)
    elif lib.trace(
        k.ctypes.data,
        k.shape[1],
        window.ctypes.data,
        window.shape[1],
        tokens.ctypes.data,
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
    cell (t, j), whose trailing blank is on frame t, writing each token's
    emission frame into frames, then write rho on the traced frames in one
    gather, by the same rule: the held symbol's value a where
    a > b or a is NaN, else the blank's value b. backtrack has validated
    every index; a walk past row 0 raises NoPathError."""
    n = j
    frames[n] = t
    while j > 0:
        if t < 1:
            raise NoPathError("backtrack walked past the window start")
        if tr.k[t, j]:
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
