"""Score-based filtering of aligned utterances and corpus-level reports."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

from .common import SCORE_REF_S, _write_lines, normalize_score
from .errors import ConfigError

ABSOLUTE_CUTOFF = -1.0
CHEBYSHEV_WORST_FRACTION = 0.15
NORMALIZED_CUTOFF = -1.5
HISTOGRAM_BIN_WIDTH = 0.25
HISTOGRAM_FLOOR = -8.0
HISTOGRAM_MAX_BINS = 100_000


class ScoredSpan(Protocol):
    """What filters read: UtteranceAlignment and the CLI's AlignmentRow fit."""

    file_id: str
    s_seg: float
    duration_s: float


@dataclass(frozen=True)
class FilterReport:
    """What a filter kept and why."""

    method: str
    input_count: int
    kept_count: int
    input_hours: float
    kept_hours: float
    cutoff: float


def filter_absolute(
    alns: Sequence[ScoredSpan], cutoff: float = ABSOLUTE_CUTOFF
) -> tuple[list[ScoredSpan], FilterReport]:
    """Keep utterances whose score is at or above a fixed cutoff; a NaN
    cutoff raises ConfigError."""
    kept = [a for a in alns if a.s_seg >= cutoff]
    return kept, _report("absolute", alns, kept, cutoff)


def filter_chebyshev(
    alns: Sequence[ScoredSpan], worst_fraction: float = CHEBYSHEV_WORST_FRACTION
) -> tuple[list[ScoredSpan], FilterReport]:
    """Drop at most worst_fraction of utterances, whatever the distribution.

    The cutoff is mean - k * std with k = sqrt(1 / worst_fraction); by
    Chebyshev's inequality applied to the sample itself, fewer than
    worst_fraction of the scores can sit below it. Zero variance keeps all:
    the cutoff is then the mean, however large k is.
    """
    if not 0.0 < worst_fraction < 1.0:
        raise ConfigError(f"worst_fraction must be in (0, 1), got {worst_fraction}")
    if not alns:
        return [], _report("chebyshev", alns, [], -math.inf)
    mean, std = _mean_std([float(a.s_seg) for a in alns])
    # a tiny worst_fraction makes k inf, and inf * 0.0 is NaN
    cutoff = mean - math.sqrt(1.0 / worst_fraction) * std if std else mean
    kept = [a for a in alns if a.s_seg >= cutoff]
    return kept, _report("chebyshev", alns, kept, cutoff)


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and standard deviation of float64 values: the sum over n, and the
    root of the sum of squared deviations over n. math.fsum rounds each sum
    once, exactly, so neither depends on the values' order."""
    n = len(values)
    mean = math.fsum(values) / n
    return mean, math.sqrt(math.fsum((v - mean) * (v - mean) for v in values) / n)


def filter_normalized(
    alns: Sequence[ScoredSpan],
    cutoff: float = NORMALIZED_CUTOFF,
    ref_s: float = SCORE_REF_S,
) -> tuple[list[ScoredSpan], FilterReport]:
    """Keep utterances by duration-normalized score.

    Recomputes the normalized score from s_seg and the utterance duration,
    so long utterances are not punished for accumulating more log mass. A
    NaN cutoff raises ConfigError.
    """
    kept = [a for a in alns if normalize_score(a.s_seg, a.duration_s, ref_s) >= cutoff]
    return kept, _report("normalized", alns, kept, cutoff)


def _report(method, alns, kept, cutoff) -> FilterReport:
    if math.isnan(cutoff):  # it keeps no row; -inf and inf keep every row and none
        raise ConfigError(f"cutoff must be a number, got {cutoff}")
    return FilterReport(
        method=method,
        input_count=len(alns),
        kept_count=len(kept),
        input_hours=sum(a.duration_s for a in alns) / 3600.0,
        kept_hours=sum(a.duration_s for a in kept) / 3600.0,
        cutoff=float(cutoff),
    )


def score_histogram(
    alns: Sequence[ScoredSpan],
    bin_width: float = HISTOGRAM_BIN_WIDTH,
    floor: float = HISTOGRAM_FLOOR,
) -> list[tuple[float, int]]:
    """Count scores into half-open bins [start, start + bin_width) up to 0.

    Scores below the floor pool into the lowest bin; scores of exactly 0
    land in the top bin, so counts always sum to len(alns). More than
    HISTOGRAM_MAX_BINS bins raise ConfigError.
    """
    if not (0 < bin_width < math.inf and -math.inf < floor < 0):
        raise ConfigError(
            f"need finite bin_width > 0 and floor < 0, got {bin_width} and {floor}"
        )
    if not -floor / bin_width <= HISTOGRAM_MAX_BINS:
        raise ConfigError(
            f"floor {floor} and bin_width {bin_width} give more than"
            f" {HISTOGRAM_MAX_BINS} bins"
        )
    n_bins = math.ceil(-floor / bin_width)
    counts = [0] * n_bins
    for a in alns:
        # clamped before flooring: a far-off score can overflow to +/-inf here
        pos = min(max((a.s_seg - floor) / bin_width, 0), n_bins - 1)
        counts[math.floor(pos)] += 1
    return [(floor + i * bin_width, counts[i]) for i in range(n_bins)]


def recovery_stats(
    total_s: Mapping[str, float],
    aligned: Iterable[ScoredSpan],
    kept: Iterable[ScoredSpan],
    split_of: Mapping[str, str] | None = None,
) -> list[tuple[str, float, float, float]]:
    """Tabulate per-split hours: total audio, aligned, and kept after filter.

    total_s maps each file_id to its audio length in seconds. split_of maps
    file_id to a split name; files it omits (all files, when it is None) go
    to the single split "all". A "total" row is appended when more than one
    split appears.
    """
    split_of = split_of or {}
    aligned_s: dict[str, list[float]] = {}
    for aln in aligned:
        aligned_s.setdefault(aln.file_id, []).append(aln.duration_s)
    splits: dict[str, list[float]] = {}
    for file_id in sorted(total_s.keys() | aligned_s.keys()):
        row = splits.setdefault(split_of.get(file_id, "all"), [0.0, 0.0, 0.0])
        row[0] += total_s.get(file_id, 0.0) / 3600.0
        row[1] += sum(aligned_s.get(file_id, [])) / 3600.0
    for aln in kept:
        row = splits.setdefault(split_of.get(aln.file_id, "all"), [0.0, 0.0, 0.0])
        row[2] += aln.duration_s / 3600.0
    rows = [(name, *splits[name]) for name in sorted(splits)]
    if len(rows) > 1:
        rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    return rows


def write_histogram_csv(path: str | os.PathLike, hist: Iterable[tuple[float, int]]) -> None:
    lines = ["bin_start,count"]
    lines += [f"{start:.2f},{count}" for start, count in hist]
    _write_lines(path, lines)


def write_recovery_csv(
    path: str | os.PathLike, rows: Iterable[tuple[str, float, float, float]]
) -> None:
    lines = ["split,total_hours,aligned_hours,filtered_hours"]
    lines += [f"{name},{tot:.4f},{ali:.4f},{filt:.4f}" for name, tot, ali, filt in rows]
    _write_lines(path, lines)


def write_filter_report_csv(path: str | os.PathLike, reports: Iterable[FilterReport]) -> None:
    lines = ["method,input_count,kept_count,input_hours,kept_hours,cutoff"]
    lines += [
        f"{r.method},{r.input_count},{r.kept_count},{r.input_hours:.4f},"
        f"{r.kept_hours:.4f},{r.cutoff:.6f}"
        for r in reports
    ]
    _write_lines(path, lines)
