"""Score filtering, histogram, and recovery-table tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from anchoralign import (
    FilterReport,
    UtteranceAlignment,
    filter_absolute,
    filter_chebyshev,
    filter_normalized,
    recovery_stats,
    score_histogram,
    write_filter_report_csv,
    write_histogram_csv,
    write_recovery_csv,
)
from anchoralign import filters
from anchoralign.errors import ConfigError
from anchoralign.filters import HISTOGRAM_MAX_BINS


def _aln(s_seg, duration_s=1.0, utt_index=0, file_id="f"):
    return UtteranceAlignment(
        utt_index=utt_index,
        start_frame=0,
        end_frame=0,
        s_seg=s_seg,
        s_seg_norm=s_seg,
        penalized=False,
        file_id=file_id,
        duration_s=duration_s,
    )


# --- absolute ----------------------------------------------------------------


def test_absolute_keeps_at_or_above_cutoff():
    alns = [_aln(-0.5), _aln(-1.0), _aln(-1.5), _aln(-2.5)]
    kept, report = filter_absolute(alns, cutoff=-1.0)
    assert [a.s_seg for a in kept] == [-0.5, -1.0]
    assert report == FilterReport(
        method="absolute",
        input_count=4,
        kept_count=2,
        input_hours=4 / 3600,
        kept_hours=2 / 3600,
        cutoff=-1.0,
    )


@pytest.mark.parametrize("keep", [filter_absolute, filter_normalized])
def test_a_nan_cutoff_raises_and_infinite_ones_keep_all_or_none(keep):
    alns = [_aln(-0.5), _aln(-3.0)]
    with pytest.raises(ConfigError, match="cutoff"):
        keep(alns, cutoff=math.nan)
    assert keep(alns, cutoff=-math.inf)[0] == alns
    assert keep(alns, cutoff=math.inf)[0] == []


def test_absolute_default_cutoff():
    kept, report = filter_absolute([_aln(-0.9), _aln(-1.1)])
    assert len(kept) == 1
    assert report.cutoff == -1.0


# --- normalized --------------------------------------------------------------


def test_normalized_scales_by_duration():
    # same raw score: the short utterance passes, the long one does not
    short = _aln(-1.0, duration_s=4.0)
    long = _aln(-1.0, duration_s=16.0)
    kept, report = filter_normalized([short, long], cutoff=-1.5, ref_s=8.0)
    assert kept == [short]
    assert report.method == "normalized"
    assert report.cutoff == -1.5


def test_normalized_tracks_ref_duration():
    aln = _aln(-1.0, duration_s=16.0)
    assert filter_normalized([aln], cutoff=-1.5, ref_s=8.0)[0] == []
    assert filter_normalized([aln], cutoff=-1.5, ref_s=16.0)[0] == [aln]


# --- chebyshev ---------------------------------------------------------------


def test_chebyshev_drops_far_outlier_only():
    alns = [_aln(0.0) for _ in range(99)] + [_aln(-10.0)]
    kept, report = filter_chebyshev(alns, worst_fraction=0.15)
    assert report.kept_count == 99
    assert all(a.s_seg == 0.0 for a in kept)
    expected_cutoff = -0.1 - math.sqrt(1 / 0.15) * np.std([0.0] * 99 + [-10.0])
    assert report.cutoff == pytest.approx(expected_cutoff, abs=1e-9)


def test_chebyshev_zero_variance_keeps_all():
    alns = [_aln(-1.3) for _ in range(10)]
    kept, report = filter_chebyshev(alns)
    assert len(kept) == 10
    assert report.cutoff == pytest.approx(-1.3)


@pytest.mark.parametrize("score", [-0.5, -1.3, -3.77])
def test_chebyshev_zero_variance_keeps_all_under_any_worst_fraction(score):
    # k = sqrt(1 / 1e-320) is inf, and inf * 0.0 is NaN, which keeps nothing;
    # ten copies of -3.77 sum to 10 * -3.77 rounded, whose tenth is one ulp off
    # -3.77, so their std is tiny, not 0; the other two have a std of 0
    alns = [_aln(score) for _ in range(10)]
    kept, report = filter_chebyshev(alns, worst_fraction=1e-320)
    assert len(kept) == 10
    assert report.cutoff <= score


def _score_sets(rng, n):
    """Seeded score sets of n values: workload-like, spanning 15 decades,
    offset far from zero and rounded to one decimal."""
    return (
        rng.normal(-1.0, 0.7, n),
        rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-6, 9, n),
        -rng.exponential(3.0, n) - 1e8,
        np.round(rng.normal(-2.0, 1.0, n), 1),
    )


def test_mean_and_std_are_within_a_few_roundings_of_the_exact_values():
    # with u = 2**-53, the mean rounds twice (the sum, the division), so it is
    # within 2u of the exact mean relatively; the squared deviations round
    # three times, their sum and the division once each and the root once, so
    # the std is within 4u. Measured: 1.25u and 1.48u; plain sums give 137u
    u = Fraction(1, 2**53)
    rng = np.random.default_rng(2022)
    for n in [1, 2, 7, 8, 9, 76, 129, 1000] + rng.integers(1, 2500, size=20).tolist():
        for values in _score_sets(rng, n):
            exact = [Fraction(v) for v in values.tolist()]
            exact_mean = sum(exact) / n
            exact_var = sum((v - exact_mean) ** 2 for v in exact) / n
            mean, std = filters._mean_std(values.tolist())
            assert abs(Fraction(mean) - exact_mean) <= 2 * u * abs(exact_mean), n
            # std is within 4u of the root of exact_var
            assert (Fraction(std) / (1 + 4 * u)) ** 2 <= exact_var, n
            assert exact_var <= (Fraction(std) / (1 - 4 * u)) ** 2, n


def test_the_chebyshev_cutoff_does_not_depend_on_row_order():
    rng = np.random.default_rng(7)
    for n in [9, 76, 129, 555, 1000]:
        for scores in (*_score_sets(rng, n), -np.abs(rng.standard_cauchy(n))):
            alns = [_aln(float(s)) for s in scores]
            _, report = filter_chebyshev(alns)
            for _ in range(20):
                order = rng.permutation(n)
                _, shuffled = filter_chebyshev([alns[i] for i in order])
                assert shuffled.cutoff.hex() == report.cutoff.hex(), n


def test_chebyshev_bounds_removal_on_any_distribution():
    rng = np.random.default_rng(314)
    for make in (
        lambda n: rng.normal(-1.0, 0.5, n),
        lambda n: np.concatenate([rng.normal(-0.3, 0.1, n // 2), rng.normal(-4, 1, n - n // 2)]),
        lambda n: -np.abs(rng.standard_cauchy(n)),
    ):
        for _ in range(3):
            scores = make(1000)
            alns = [_aln(float(s)) for s in scores]
            kept, _ = filter_chebyshev(alns, worst_fraction=0.15)
            assert len(alns) - len(kept) <= 0.15 * len(alns)


def test_chebyshev_empty_and_validation():
    kept, report = filter_chebyshev([])
    assert kept == [] and report.kept_count == 0
    with pytest.raises(ValueError):
        filter_chebyshev([_aln(-1.0)], worst_fraction=0.0)
    with pytest.raises(ValueError):
        filter_chebyshev([_aln(-1.0)], worst_fraction=1.0)


# --- histogram ---------------------------------------------------------------


def test_histogram_bins_and_penalty_spike():
    alns = [_aln(-4.0), _aln(-4.0), _aln(-3.9), _aln(-0.01), _aln(0.0), _aln(-9.5)]
    hist = score_histogram(alns, bin_width=0.25, floor=-8.0)
    assert len(hist) == 32
    counts = dict(hist)
    assert counts[-4.0] == 3  # the -4.0 penalty spike lands in its own bin
    assert counts[-0.25] == 2  # scores at the top edge fold into the last bin
    assert counts[-8.0] == 1  # below the floor pools at the bottom
    assert sum(c for _, c in hist) == len(alns)
    starts = [start for start, _ in hist]
    assert starts[0] == -8.0 and starts[-1] == pytest.approx(-0.25)


def test_histogram_custom_bins():
    hist = score_histogram([_aln(-0.6)], bin_width=0.5, floor=-2.0)
    assert hist == [(-2.0, 0), (-1.5, 0), (-1.0, 1), (-0.5, 0)]


def test_histogram_validation():
    with pytest.raises(ValueError):
        score_histogram([], bin_width=0.0)
    with pytest.raises(ValueError):
        score_histogram([], floor=0.0)


@pytest.mark.parametrize(
    "bin_width, floor",
    [(1e-300, -8.0), (0.25, -1e300), (1e-9, -8.0), (1.0, -HISTOGRAM_MAX_BINS - 0.5)],
)
def test_histogram_bin_count_is_capped(bin_width, floor):
    with pytest.raises(ConfigError, match="bins"):
        score_histogram([_aln(-1.0)], bin_width=bin_width, floor=floor)


def test_histogram_at_the_cap_pools_far_scores():
    # scores far outside the range would overflow the bin position; they pool at the ends
    hist = score_histogram(
        [_aln(-1e308), _aln(-0.5), _aln(0.0)], bin_width=1.0, floor=-HISTOGRAM_MAX_BINS
    )
    assert len(hist) == HISTOGRAM_MAX_BINS
    assert hist[0][1] == 1 and hist[-1][1] == 2
    narrow = score_histogram([_aln(-1e308), _aln(1e308)], bin_width=1e-4)
    assert narrow[0][1] == 1 and narrow[-1][1] == 1


# --- recovery table ----------------------------------------------------------


def test_recovery_single_split_has_no_total_row():
    aligned = [_aln(-0.5, duration_s=1800.0, file_id="a")]
    kept = aligned
    rows = recovery_stats({"a": 3600.0}, aligned, kept)
    assert rows == [("all", 1.0, 0.5, 0.5)]


def test_recovery_splits_and_total():
    aligned = [
        _aln(-0.5, duration_s=1800.0, file_id="a"),
        _aln(-3.0, duration_s=900.0, file_id="b"),
    ]
    kept = [aligned[0]]  # the file-b row was filtered out
    total_s = {"a": 3600.0, "b": 7200.0}
    rows = recovery_stats(total_s, aligned, kept, split_of={"a": "train", "b": "dev"})
    assert rows == [
        ("dev", 2.0, 0.25, 0.0),
        ("train", 1.0, 0.5, 0.5),
        ("total", 3.0, 0.75, 0.5),
    ]


def test_recovery_split_default():
    aligned = [_aln(-0.5, duration_s=3600.0, file_id="x")]
    rows = recovery_stats({"x": 3600.0}, aligned, aligned, split_of={"other": "train"})
    assert rows[0][0] == "all"  # unmapped files fall back to a single split
    assert recovery_stats({"x": 3600.0}, aligned, aligned)[0][0] == "all"


# --- csv writers -------------------------------------------------------------


def test_write_histogram_csv(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, [(-8.0, 1), (-7.75, 0)])
    assert path.read_text(encoding="utf-8") == "bin_start,count\n-8.00,1\n-7.75,0\n"


def test_write_recovery_csv(tmp_path):
    path = tmp_path / "recovery.csv"
    write_recovery_csv(path, [("train", 1.0, 0.5, 0.25)])
    assert path.read_text(encoding="utf-8") == (
        "split,total_hours,aligned_hours,filtered_hours\ntrain,1.0000,0.5000,0.2500\n"
    )


def test_write_filter_report_csv(tmp_path):
    report = FilterReport(
        method="absolute",
        input_count=10,
        kept_count=8,
        input_hours=1.0,
        kept_hours=0.75,
        cutoff=-1.0,
    )
    path = tmp_path / "report.csv"
    write_filter_report_csv(path, [report])
    assert path.read_text(encoding="utf-8") == (
        "method,input_count,kept_count,input_hours,kept_hours,cutoff\n"
        "absolute,10,8,1.0000,0.7500,-1.000000\n"
    )
