"""Max-probability alignment lattice, backtracking, and confidence scores.

The lattice aligns a token sequence against a window of log posteriors with a
free start: column 0 costs nothing at any frame, so the text may begin
anywhere in the window. Columns 1..K are the character tokens. Advancing into
column j at frame t consumes logP(token_j | x_t) and staying in a column
consumes logP(blank | x_t), so a character held over several frames pays
blank prices for the extra frames. A path ends by emitting one trailing blank
after its last token; since no log probability is positive, holding that
blank longer never helps, so the trailing blank needs no column of its own.

The fill and the backtrack walk run in C (_lattice.c), compiled with the
system's `cc` on first use and cached beside this module's bytecode. Where
that fails, a numpy row kernel and a Python walk run instead; both kernels
make the same IEEE additions and comparisons, so they return the same bits.
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
import subprocess
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoPathError
from .posterior_io import logsumexp
from .textprep import TokenSequence

FRAGMENT_FRAMES = 30
SCORE_REF_S = 8.0
SHORT_PENALTY = -4.0
_EMIT_BLOCK_ROWS = 32  # lattice rows per emission gather in the numpy fill
_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_lattice.c")
# no -ffast-math or -march=native: either may change the sums' bits
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
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
    lib.fill.argtypes = [ptr, i64, i64, ptr, i64, ptr, i64]
    lib.fill.restype = None
    lib.walk.argtypes = [ptr, i64, ptr, i64, ptr, i64, i64, i64, i64, ptr]
    lib.walk.restype = i64
    log.debug("lattice kernel: C (%s)", path)
    return lib


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The compiled lattice kernel, loaded on the process's first fill or
    walk; None runs the numpy fill and the Python walk."""
    return _load_library()


@dataclass(frozen=True)
class Trellis:
    """Forward lattice: k[t][j] is the best log joint probability of having
    consumed tokens 1..j after frame t (row 0 = before any frame), for
    j = 0..len(tokens)."""

    k: np.ndarray
    tokens: tuple[int, ...]
    blank_index: int


@dataclass(frozen=True)
class CharAlignment:
    """One token's frame range on the traced path.

    start_frame is the emission frame (where the path advanced into the
    token); end_frame extends over the following stay frames, which carry
    blank mass rather than the token itself.
    """

    token_pos: int
    symbol: int
    start_frame: int
    end_frame: int


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
    accepted: bool = False
    anchor: bool = False
    file_id: str = ""
    duration_s: float = 0.0
    start_s: float | None = None
    end_s: float | None = None


def compute_trellis(window_logp: np.ndarray, ts: TokenSequence, blank_index: int) -> Trellis:
    """Fill the lattice for a posterior window (T_w x V, natural log).

    Every window value must be <= 0 (a log probability): backtrack's end
    rule relies on it. Row 0 is 0 then -inf, column 0 is 0, and each later
    row is max(prev[1:] + blank, prev[:-1] + emit), keeping the stay value
    on a tie: the C kernel's fill computes it cell by cell, _fill_rows with
    three numpy calls per row.
    """
    window = np.ascontiguousarray(window_logp, dtype=np.float64)
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
    k = np.empty((n_frames + 1, len(tokens) + 1))  # column 0 is the free start
    lib = _kernel()
    if lib is None:
        _fill_rows(window, tokens, blank_index, k)
    else:
        lib.fill(
            window.ctypes.data,
            n_frames,
            n_symbols,
            tokens.ctypes.data,
            blank_index,
            k.ctypes.data,
            k.shape[1],
        )
    k.flags.writeable = False
    return Trellis(k=k, tokens=ts.tokens, blank_index=blank_index)


def _fill_rows(window: np.ndarray, tokens: np.ndarray, blank_index: int, k: np.ndarray) -> None:
    """The numpy fill of k: three in-place ufunc calls per row,
    advance = prev[:-1] + emit, row = prev[1:] + blank, row = max(row, advance),
    with the emissions gathered for _EMIT_BLOCK_ROWS rows at a time."""
    k[0, 1:] = -np.inf
    k[:, 0] = 0.0
    blank = window[:, blank_index].tolist()
    advance = np.empty(len(tokens))
    prev_left, prev_right, rows = k[:-1, :-1], k[:-1, 1:], k[1:, 1:]
    for t0 in range(0, len(window), _EMIT_BLOCK_ROWS):
        block = slice(t0, t0 + _EMIT_BLOCK_ROWS)
        emits = window[block].take(tokens, axis=1)
        for left, right, row, emit, stay in zip(
            prev_left[block], prev_right[block], rows[block], emits, blank[block]
        ):
            np.add(left, emit, out=advance)
            np.add(right, stay, out=row)
            np.maximum(row, advance, out=row)


def end_scores(tr: Trellis, window_logp: np.ndarray, n_tokens: int | None = None) -> np.ndarray:
    """Score of ending the path on each frame of the window.

    Entry f is k[f][n] + logP(blank | x_f): the best path that has placed
    the first n_tokens tokens (default: all of tr's) by frame f - 1 and
    emits its trailing blank on frame f. Its maximum is the best log
    probability of those tokens in the window.
    """
    n = len(tr.tokens) if n_tokens is None else n_tokens
    if not 0 <= n <= len(tr.tokens):
        raise ValueError(f"n_tokens {n} out of range for {len(tr.tokens)} tokens")
    window = np.asarray(window_logp, dtype=np.float64)
    return tr.k[:-1, n] + window[:, tr.blank_index]


def backtrack(
    tr: Trellis, window_logp: np.ndarray, ts: TokenSequence, first_token: int = 0
) -> tuple[list[CharAlignment], np.ndarray]:
    """Trace the best path back from its best end frame.

    ts may be any batch whose tokens are a prefix of the tokens tr was
    filled for: column j of a lattice depends only on columns <= j, so the
    prefix's columns are tr's and one fill of the longest batch answers
    every shorter one, bit for bit. The path ends on the earliest frame
    maximizing end_scores, holding its trailing blank for that one frame.

    Returns one CharAlignment per token (trailing blank included, with
    token_pos == len(ts.tokens)) and the per-frame score rho over the traced
    span: rho[f] = max(logP(aligned token | x_f), logP(blank | x_f)), NaN for
    frames off the path. Ties pick the earliest end frame and prefer
    advancing. The walk stops once it has placed the token at position
    first_token, so chars and rho cover only the tokens from there on
    (token_pos stays absolute); they equal the tail of the full walk.
    """
    window = np.ascontiguousarray(window_logp, dtype=np.float64)
    n_frames, n_symbols = window.shape
    n_tokens = len(ts.tokens)
    if tr.tokens[:n_tokens] != ts.tokens:
        raise ValueError("ts is not a prefix of the tokens the lattice was filled for")
    if not 0 <= first_token <= n_tokens:
        raise ValueError(f"first_token {first_token} out of range for {n_tokens} tokens")
    tokens = np.array(ts.tokens, dtype=np.int64)
    if (
        tr.k.shape[0] != n_frames + 1
        or not 0 <= tr.blank_index < n_symbols
        or (tokens < 0).any()
        or (tokens >= n_symbols).any()
    ):
        raise ValueError("window does not match the lattice")
    col_tokens = (*ts.tokens, tr.blank_index)
    blank_lp = window[:, tr.blank_index]
    ends = end_scores(tr, window, n_tokens)
    psi = int(np.argmax(ends)) + 1  # earliest row attaining the max
    if ends[psi - 1] == -np.inf:
        raise NoPathError(f"window of {n_frames} frames cannot hold {n_tokens + 1} tokens")
    # advance_row[j] is the row where the path advanced into column j; the
    # trailing blank (j = n_tokens + 1) fills row psi alone, as if the next
    # advance came at psi + 1
    advance_row = _walk(tr, window, tokens, psi - 1, first_token) + [psi, psi + 1]
    chars = [
        CharAlignment(
            token_pos=j - 1,
            symbol=col_tokens[j - 1],
            start_frame=advance_row[j] - 1,
            end_frame=advance_row[j + 1] - 2,
        )
        for j in range(first_token + 1, n_tokens + 2)
    ]
    traced = slice(chars[0].start_frame, psi)  # the chars' spans tile it in order
    symbols = np.repeat(
        [ca.symbol for ca in chars], [ca.end_frame - ca.start_frame + 1 for ca in chars]
    )
    rho = np.full(n_frames, np.nan)
    rho[traced] = np.maximum(window[np.arange(traced.start, psi), symbols], blank_lp[traced])
    return chars, rho


def _walk(
    tr: Trellis, window: np.ndarray, tokens: np.ndarray, t: int, first_token: int
) -> list[int]:
    """Walk back from cell (t, len(tokens)) to column first_token, advancing
    where k[t-1][j-1] + emit >= k[t-1][j] + blank, and return advance_row:
    entry j is the row where the path advanced into column j (0 for the
    columns before first_token + 1). backtrack has validated every index."""
    lib = _kernel()
    if lib is not None:
        k = np.ascontiguousarray(tr.k, dtype=np.float64)
        advance_row = np.zeros(len(tokens) + 1, dtype=np.int64)
        walked_past = lib.walk(
            k.ctypes.data,
            k.shape[1],
            window.ctypes.data,
            window.shape[1],
            tokens.ctypes.data,
            tr.blank_index,
            t,
            len(tokens),
            first_token,
            advance_row.ctypes.data,
        )
        if walked_past:
            raise NoPathError("backtrack walked past the window start")
        return advance_row.tolist()
    k, blank, j = tr.k, tr.blank_index, len(tokens)
    advance_row = [0] * (j + 1)
    while j > first_token:
        if t < 1:
            raise NoPathError("backtrack walked past the window start")
        if k[t - 1, j - 1] + window[t - 1, tokens[j - 1]] >= k[t - 1, j] + window[t - 1, blank]:
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
    ones by weighting the log score with duration_s / ref_s.
    """
    if not 0 < ref_s < np.inf:
        raise ConfigError(f"score_ref_s must be > 0 and finite, got {ref_s}")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    return score * duration_s / ref_s


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
