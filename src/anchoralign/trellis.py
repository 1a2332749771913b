"""Max-probability alignment lattice, backtracking, and confidence scores.

The lattice aligns a token sequence against a window of log posteriors with a
free start: column 0 costs nothing at any frame, so the text may begin
anywhere in the window. Columns 1..K-1 are the character tokens and column K
is a trailing blank; the best end point is the row maximizing the trailing
blank column. Advancing into column j at frame t consumes logP(token_j | x_t)
and staying in a column consumes logP(blank | x_t), so a character held over
several frames pays blank prices for the extra frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, NoPathError
from .textprep import TokenSequence

FRAGMENT_FRAMES = 30
SCORE_REF_S = 8.0
SHORT_PENALTY = -4.0


@dataclass(frozen=True)
class Trellis:
    """Forward lattice: k[t][j] is the best log joint probability of having
    consumed tokens 1..j after frame t (row 0 = before any frame)."""

    k: np.ndarray
    col_tokens: np.ndarray
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
    """Fill the lattice for a posterior window (T_w x V, natural log)."""
    window = np.asarray(window_logp, dtype=np.float64)
    if window.ndim != 2 or window.shape[0] < 1:
        raise ValueError(f"bad window shape {window.shape}")
    n_frames, n_symbols = window.shape
    col_tokens = np.array(list(ts.tokens) + [blank_index], dtype=np.int64)
    if not 0 <= blank_index < n_symbols:
        raise ValueError(f"blank index {blank_index} out of range for {n_symbols} symbols")
    if (col_tokens < 0).any() or (col_tokens >= n_symbols).any():
        raise ValueError("token index out of vocab range")
    n_cols = len(col_tokens)  # columns 1..n_cols; plus free-start column 0
    k = np.full((n_frames + 1, n_cols + 1), -np.inf)
    k[:, 0] = 0.0
    blank_lp = window[:, blank_index]
    for t in range(1, n_frames + 1):
        prev = k[t - 1]
        advance = prev[:-1] + window[t - 1, col_tokens]
        stay = prev[1:] + blank_lp[t - 1]
        k[t, 1:] = np.maximum(stay, advance)
    k.flags.writeable = False
    return Trellis(k=k, col_tokens=col_tokens, blank_index=blank_index)


def backtrack(
    tr: Trellis, window_logp: np.ndarray, ts: TokenSequence
) -> tuple[list[CharAlignment], np.ndarray]:
    """Trace the best path back from the best trailing-blank row.

    Returns one CharAlignment per token (trailing blank included, with
    token_pos == len(ts.tokens)) and the per-frame score rho over the traced
    span: rho[f] = max(logP(aligned token | x_f), logP(blank | x_f)), NaN for
    frames off the path. Ties pick the earliest end row and prefer advancing.
    """
    window = np.asarray(window_logp, dtype=np.float64)
    k = tr.k
    n_frames = window.shape[0]
    n_cols = len(tr.col_tokens)
    final = k[1:, n_cols]
    best = final.max()
    if best == -np.inf:
        raise NoPathError(
            f"window of {n_frames} frames cannot hold {n_cols} tokens"
        )
    psi = int(np.argmax(final)) + 1  # earliest row attaining the max
    blank_lp = window[:, tr.blank_index]
    advance_row = np.zeros(n_cols + 1, dtype=np.int64)
    t, j = psi, n_cols
    while j >= 1:
        if t < 1:
            raise NoPathError("backtrack walked past the window start")
        adv_val = k[t - 1, j - 1] + window[t - 1, tr.col_tokens[j - 1]]
        stay_val = k[t - 1, j] + blank_lp[t - 1]
        if adv_val >= stay_val:
            advance_row[j] = t
            j -= 1
        t -= 1
    chars = []
    for j in range(1, n_cols + 1):
        start = int(advance_row[j]) - 1
        end = (int(advance_row[j + 1]) - 2) if j < n_cols else psi - 1
        chars.append(
            CharAlignment(
                token_pos=j - 1,
                symbol=int(tr.col_tokens[j - 1]),
                start_frame=start,
                end_frame=end,
            )
        )
    rho = np.full(n_frames, np.nan)
    for ca in chars:
        span = slice(ca.start_frame, ca.end_frame + 1)
        rho[span] = np.maximum(window[span, ca.symbol], blank_lp[span])
    return chars, rho


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
    out = []
    for start in range(0, rho.size, fragment_frames):
        block = rho[start : start + fragment_frames]
        out.append(logsumexp(block) - np.log(block.size))
    return np.array(out)


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
