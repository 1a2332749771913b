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
cell, which is all the backtrack walk reads, plus the score columns where
utterances end, which is all the end rule reads: (frames + 1) x (tokens + 1)
bytes and 8 x frames x (utterances + 1) more, not a float64 score lattice.

The fill and the backtrack walk run in C (_lattice.c), compiled with the
system's `cc` on first use and cached beside this module's bytecode. Where
that fails, a numpy row kernel and a Python walk run instead; both kernels
make the same IEEE additions and comparisons, so they return the same bits.

The C fill splits the columns into slabs that run at once, one thread each,
as a wavefront: a slab fills row t once the slab to its left has finished
row t - 1, and each slab's row loop is vectorised (an AVX2 clone on x86-64).
A fill of at least _MIN_SLAB_ROWS rows gets one slab per CPU it may use,
each at least _MIN_SLAB_COLUMNS wide: max(1, min(usable CPUs // processes
filling at once, width // _MIN_SLAB_COLUMNS)); a shorter fill gets one. A
serial run fills in one process; a process pool's workers each take their
share through share_cpus. Every cell makes
the same sums and comparison whatever the slab count, so the lattice's bits,
and every output, do not depend on it. No thread outlives a fill.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib.util
import logging
import math
import os
import platform
import subprocess
from dataclasses import dataclass

from ._lazy import np
from .errors import ConfigError, NoPathError
from .posterior_io import logsumexp
from .textprep import TokenSequence

FRAGMENT_FRAMES = 30
SCORE_REF_S = 8.0
SHORT_PENALTY = -4.0
_EMIT_BLOCK_ROWS = 32  # lattice rows per emission gather in the numpy fill
# Columns a slab of the C fill has at least. Measured on a 2-core x86-64 VM,
# two slabs against one: syncing costs a slab about 75-100 ns a row, against
# about 1.4 ns a cell of row work, and starting and joining the thread about
# 40 us a fill. With 256-column slabs the sync is under a third of a row's
# work and the thread pays for itself within about 150 rows; on 6000-row
# windows two slabs took 0.79 ns a cell against 0.88 at width 192 and 1.04
# against 1.50 at width 256, and at width 96 they were even.
_MIN_SLAB_COLUMNS = 256
# Rows a fill has before it splits into slabs. Measured on the same VM, one
# slab against two, with the median of 9 runs: under 128 rows two slabs lost
# at every width tried, 1.9-2.1x as long for 1 row at widths 683 and 1024,
# where the thread's start is the whole difference. At 128 rows they took
# 1.24x as long at width 683, 1.03x at 1024 and 0.79x at 2048.
_MIN_SLAB_ROWS = 128
_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_lattice.c")
# no -ffast-math or -march=native: either may change the sums' bits
_CFLAGS = ("-O3", "-pthread", "-fPIC", "-shared", "-ffp-contract=off")
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
            tmp = f"{path}.tmp-{os.getpid()}"
            try:
                subprocess.run(
                    [cc, *_CFLAGS, "-o", tmp, _C_SOURCE],
                    check=True,
                    capture_output=True,
                    timeout=_BUILD_TIMEOUT_S,
                )
                os.replace(tmp, path)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError) as exc:
        log.debug("lattice kernel: numpy, the C kernel is unavailable (%s)", exc)
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.fill.argtypes = [ptr, i64, i64, ptr, i64, ptr, i64, ptr, i64, ptr, i64, ptr]
    lib.fill.restype = None
    lib.walk.argtypes = [ptr, i64, i64, i64, i64, ptr]
    lib.walk.restype = i64
    log.debug("lattice kernel: C (%s)", path)
    return lib


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The compiled lattice kernel, loaded on the process's first fill or
    walk; None runs the numpy fill and the Python walk."""
    return _load_library()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, the machine's CPU count elsewhere."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# threads one C fill may use: the usable CPUs over the processes filling at once
_fill_cpus = _usable_cpus()


def share_cpus(processes: int) -> None:
    """Split the usable CPUs among `processes` processes filling at once; a
    process pool's initializer, run in each worker."""
    global _fill_cpus
    _fill_cpus = max(1, _usable_cpus() // processes)


def _slab_count(n_frames: int, width: int) -> int:
    """Column slabs, one thread each, for a C fill of n_frames rows and width
    columns: one per CPU the fill may use, each at least _MIN_SLAB_COLUMNS
    wide, and one slab for fewer than _MIN_SLAB_ROWS rows."""
    if n_frames < _MIN_SLAB_ROWS:
        return 1
    return max(1, min(_fill_cpus, width // _MIN_SLAB_COLUMNS))


@dataclass(frozen=True)
class Trellis:
    """Forward lattice of advance decisions, read-only, bound to the window
    it was filled from.

    window is that window as a read-only float64 copy (T_w x V), which
    end_scores and backtrack read. Cell (t, j) is the best path that has
    consumed tokens 1..j after frame t (row 0 = before any frame), for
    j = 0..len(tokens). k[t][j] (uint8) is 1 where that path advanced into
    column j on frame t and 0 where it stayed in column j; ties advance, and
    row 0 and column 0 are 0. ends[t][e] (float64, frames x
    len(end_columns)) is the path's log joint probability at cell
    (t, end_columns[e]) for t = 0..frames - 1. end_columns holds 0, the end
    of every utterance and len(tokens), sorted.
    """

    window: np.ndarray
    k: np.ndarray
    ends: np.ndarray
    end_columns: tuple[int, ...]
    tokens: tuple[int, ...]
    blank_index: int


@dataclass
class UtteranceAlignment:
    """Aligned span and confidence scores for one utterance.

    start_frame/end_frame are the emission frames of the first and last
    character token, window-relative until the aligner shifts them to the
    compressed file timeline. start_s/end_s appear once mapped back to the
    original timeline.
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
    end_columns. The C kernel's fill computes it cell by cell in
    _slab_count(n_frames, width) column slabs, _fill_rows with numpy calls
    per row; only two score rows per slab are held at once.
    """
    window = np.array(window_logp, dtype=np.float64, order="C")  # the Trellis's own copy
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
    columns = np.array(end_columns, dtype=np.int64)
    k = np.zeros((n_frames + 1, len(tokens) + 1), dtype=np.uint8)  # column 0 is the free start
    ends = np.empty((n_frames, len(end_columns)))
    lib = _kernel()
    if lib is None:
        _fill_rows(window, tokens, blank_index, k, columns, ends)
    else:
        width = k.shape[1]
        slabs = _slab_count(n_frames, width)
        # each slab's two score rows and emission row, and a boundary column
        # for each slab but the last, as _lattice.c's fill lays them out
        scratch = np.empty(3 * (width - 1) + 2 * slabs + (slabs - 1) * (n_frames + 1))
        lib.fill(
            window.ctypes.data,
            n_frames,
            n_symbols,
            tokens.ctypes.data,
            blank_index,
            k.ctypes.data,
            width,
            columns.ctypes.data,
            len(columns),
            ends.ctypes.data,
            slabs,
            scratch.ctypes.data,
        )
    for array in (window, k, ends):
        array.flags.writeable = False
    return Trellis(
        window=window,
        k=k,
        ends=ends,
        end_columns=end_columns,
        tokens=ts.tokens,
        blank_index=blank_index,
    )


def _fill_rows(
    window: np.ndarray,
    tokens: np.ndarray,
    blank_index: int,
    k: np.ndarray,
    end_columns: np.ndarray,
    ends: np.ndarray,
) -> None:
    """The numpy fill of a zeroed k and of ends on two rolling score rows:
    per frame, ends[t - 1] = prev[end_columns], advance = prev[:-1] + emit,
    row = prev[1:] + blank, k[t] = advance >= row and row = max(row, advance),
    with the emissions gathered for _EMIT_BLOCK_ROWS rows at a time."""
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


def backtrack(
    tr: Trellis, n_tokens: int | None = None, first_token: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Trace the best path of the first n_tokens tokens back from its best
    end frame.

    n_tokens (default: all of tr's tokens) must be in tr.end_columns, as in
    end_scores: column j of a lattice depends only on columns <= j, so the
    decisions of a batch of fewer utterances are tr's, and one fill of the
    longest batch answers every shorter one, bit for bit. The path ends on
    the earliest frame maximizing end_scores, holding its trailing blank for
    that one frame, and the walk back reads only tr.k. Ties pick the
    earliest end frame and prefer advancing. The walk stops once it has
    placed token first_token, so frames and rho cover only the tokens from
    there on; they equal the tail of the full walk.

    Returns frames (int64, n_tokens - first_token + 1 entries) and rho.
    frames[i] is the frame on which token first_token + i is emitted, and
    that token is held through frame frames[i + 1] - 1; the last entry is
    the trailing blank's frame, the path's last. rho is the per-frame score
    over the traced span: rho[f] = max(logP(aligned token | x_f),
    logP(blank | x_f)), NaN for frames off the path.
    """
    n = len(tr.tokens) if n_tokens is None else n_tokens
    ends = end_scores(tr, n)  # checks n
    if not 0 <= first_token <= n:
        raise ValueError(f"first_token {first_token} out of range for {n} tokens")
    window = tr.window
    psi = int(np.argmax(ends)) + 1  # earliest row attaining the max
    if ends[psi - 1] == -np.inf:
        raise NoPathError(f"window of {len(window)} frames cannot hold {n + 1} tokens")
    # the path advanced into column j on row advance_row[j], emitting token
    # j - 1 on frame advance_row[j] - 1; the trailing blank fills row psi
    frames = np.append(_walk(tr.k, psi - 1, n, first_token)[first_token + 1 :], psi) - 1
    symbols = np.repeat((*tr.tokens[first_token:n], tr.blank_index), np.diff(frames, append=psi))
    traced = np.arange(frames[0], psi)
    rho = np.full(len(window), np.nan)
    rho[traced] = np.maximum(window[traced, symbols], window[traced, tr.blank_index])
    return frames, rho


def _walk(k: np.ndarray, t: int, j: int, first_token: int) -> np.ndarray:
    """Walk back from cell (t, j) to column first_token, advancing where
    k[t][j] is set, and return advance_row (int64, j + 1 entries): entry i
    is the row where the path advanced into column i, 0 for the columns up
    to first_token. backtrack has validated every index."""
    advance_row = np.zeros(j + 1, dtype=np.int64)
    lib = _kernel()
    if lib is not None:
        k = np.ascontiguousarray(k, dtype=np.uint8)
        if lib.walk(k.ctypes.data, k.shape[1], t, j, first_token, advance_row.ctypes.data):
            raise NoPathError("backtrack walked past the window start")
        return advance_row
    while j > first_token:
        if t < 1:
            raise NoPathError("backtrack walked past the window start")
        if k[t, j]:
            advance_row[j] = t
            j -= 1
        t -= 1
    return advance_row


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
