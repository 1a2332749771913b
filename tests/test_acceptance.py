"""Acceptance suite: the guarantees this package advertises, one test each.

Every test prints a single PASS/FAIL verdict line (visible even under
output capture) and then asserts, so a red run still names the guarantee
that broke and by how much.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import (
    CORRUPT_INDICES,
    FRAME_S,
    N_UTTS,
    SHORT_INDICES,
    boundary_errors,
    build_corpus,
    corrupted_utterances,
    small_file_spec,
)

from anchoralign import (
    AlignParams,
    SynthSpec,
    SynthUtterance,
    Utterance,
    UtteranceAlignment,
    align_file,
    backtrack,
    build_token_sequence,
    compute_trellis,
    default_spanish_vocab,
    end_scores,
    estimate_time_refs,
    filter_absolute,
    filter_chebyshev,
    frames_to_seconds,
    identity_frame_map,
    load_posteriors,
    load_vocab,
    normalize_score,
    oracle_best_path,
    random_window,
    recovery_stats,
    save_posteriors,
    score_histogram,
    synth_posteriors,
    write_manifest,
    write_recovery_csv,
)
from anchoralign.cli import main
from anchoralign.posterior_io import Vocab

BOUNDARY_TOL_S = 0.2


def _verdict(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {number} ({name}): {detail}"


def _path_from_frames(frames) -> np.ndarray:
    path = np.zeros(frames[-1] + 1, dtype=np.int64)
    for col, frame in enumerate(frames, start=1):
        path[frame:] = col
    return path


def _aligned_run(corpus, utts=None, params=AlignParams(), file_id="corpus"):
    run = align_file(corpus.pm, utts or corpus.utterances, corpus.vocab, params, file_id=file_id)
    return frames_to_seconds(run, identity_frame_map(corpus.pm.n_frames))


@pytest.fixture(scope="module")
def corpus09_run(corpus09):
    return _aligned_run(corpus09, file_id="corpus09")


# --- 1: lattice search equals exhaustive enumeration ---------------------------


def test_oracle_equivalence(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(20260825)
    n_instances = 1000
    worst_delta = 0.0
    path_mismatches = 0
    for i in range(n_instances):
        window, ts, blank = random_window(rng, tie_prone=bool(i % 2))
        oracle_lp, oracle_path = oracle_best_path(window, ts, blank)
        tr = compute_trellis(window, ts, blank)
        frames, _ = backtrack(tr, window)
        worst_delta = max(worst_delta, abs(float(end_scores(tr, window).max()) - oracle_lp))
        if not np.array_equal(_path_from_frames(frames), oracle_path):
            path_mismatches += 1
    elapsed = time.monotonic() - started
    ok = worst_delta <= 1e-9 and path_mismatches == 0 and elapsed < 60.0
    _verdict(
        capsys,
        1,
        "oracle equivalence",
        ok,
        f"{n_instances} instances, worst |dlogp| {worst_delta:.2e}, "
        f"{path_mismatches} path mismatches, {elapsed:.1f}s",
    )


# --- 2: hand-verified two-frame lattice ----------------------------------------


def test_hand_verified_lattice(capsys):
    vocab = Vocab(symbols=("*", " ", "a"), blank_index=0, separator_index=1)
    ts = build_token_sequence([Utterance(utt_index=0, text="a", word_count=1)], vocab)
    # frame 1: P(a)=0.9, frame 2: P(blank)=0.8 -> best joint 0.72
    window = np.log([[0.05, 0.05, 0.90], [0.80, 0.15, 0.05]])
    tr = compute_trellis(window, ts, vocab.blank_index)
    frames, _ = backtrack(tr, window)
    final_k = float(end_scores(tr, window)[1])
    k_ok = abs(final_k - math.log(0.72)) <= 1e-12
    # 'a' emits on the first frame (frame 1 counting from one) and is held no longer
    place_ok = frames[0] == 0 and frames[1] - 1 == 0
    _verdict(
        capsys,
        2,
        "hand-verified lattice",
        k_ok and place_ok,
        f"end score on frame 2 {final_k:.12f} vs ln 0.72 {math.log(0.72):.12f}, "
        f"'a' at frame {frames[0] + 1} of 2",
    )


# --- 3: synthetic corpus recovery ----------------------------------------------


def test_synthetic_corpus_recovery(capsys, corpus09):
    started = time.monotonic()
    run = _aligned_run(corpus09, file_id="corpus09")
    elapsed = time.monotonic() - started
    errors = boundary_errors(run.utterances, corpus09.truth_seconds())
    within = [
        i
        for i, (err_s, err_e) in errors.items()
        if err_s <= BOUNDARY_TOL_S and err_e <= BOUNDARY_TOL_S
    ]
    worst = max((max(pair) for pair in errors.values()), default=math.inf)
    recovered = len(within) / N_UTTS

    ordered = sorted(run.utterances, key=lambda u: u.utt_index)
    span_violations = sum(
        1 for a, b in zip(ordered, ordered[1:]) if b.start_frame <= a.end_frame
    )
    anchor_frames = [a.end_frame for a in run.anchors]
    anchor_utts = [a.utt_index for a in run.anchors]
    anchor_violations = int(
        anchor_frames != sorted(set(anchor_frames)) or anchor_utts != sorted(set(anchor_utts))
    )
    ok = (
        recovered >= 0.95
        and span_violations == 0
        and anchor_violations == 0
        and elapsed < 120.0
    )
    _verdict(
        capsys,
        3,
        "synthetic corpus recovery",
        ok,
        f"{len(within)}/{N_UTTS} utterances within {BOUNDARY_TOL_S} s "
        f"(worst error {worst:.4f} s), {span_violations + anchor_violations} "
        f"ordering violations, {elapsed:.1f}s",
    )


# --- 4: recovery after corrupted transcript regions ----------------------------


def test_corruption_robustness(capsys, corpus09):
    utts = corrupted_utterances(corpus09)
    run = _aligned_run(corpus09, utts=utts, file_id="corrupted")
    by_index = {u.utt_index: u for u in run.utterances}

    flagged = [
        i
        for i in CORRUPT_INDICES
        if i in run.skipped or by_index[i].s_seg < -2.0
    ]
    errors = boundary_errors(run.utterances, corpus09.truth_seconds())
    clean = [i for i in range(N_UTTS) if i not in CORRUPT_INDICES]
    clean_within = [
        i
        for i in clean
        if i in errors and max(errors[i]) <= BOUNDARY_TOL_S
    ]
    clean_frac = len(clean_within) / len(clean)
    ok = len(flagged) == len(CORRUPT_INDICES) and clean_frac >= 0.90
    _verdict(
        capsys,
        4,
        "corruption robustness",
        ok,
        f"{len(flagged)}/{len(CORRUPT_INDICES)} corrupted utterances skipped or "
        f"scored below -2.0, {len(clean_within)}/{len(clean)} clean utterances "
        f"still within {BOUNDARY_TOL_S} s",
    )


# --- 5: acceptance threshold and short-utterance penalty -----------------------


def _single_utterance_run(peak_prob: float):
    vocab = default_spanish_vocab()
    text = "la cabra blanca salta mas lejos"  # 31 chars, just over one fragment
    spec = SynthSpec(
        utterances=(
            SynthUtterance(text=text, start_s=1.0, end_s=1.0 + len(text) * FRAME_S),
        ),
        frame_duration_s=FRAME_S,
        peak_prob=peak_prob,
        noise_seed=41,
        gap_peak=0.98,
        total_s=4.0,
    )
    pm, _ = synth_posteriors(spec, vocab)
    utts = estimate_time_refs(
        [Utterance(utt_index=0, text=text, word_count=len(text.split()))],
        pm.duration_s,
    )
    params = AlignParams(max_window_s=240.0)  # fail fast on the reject side
    return align_file(pm, utts, vocab, params)


def test_threshold_semantics(capsys, corpus09_run):
    # the -2.0 log threshold is the documented rounding of linear 0.13
    doc_ok = (
        AlignParams().threshold == -2.0
        and abs(math.log(0.13) - AlignParams().threshold) < 0.05
    )

    accept = _single_utterance_run(peak_prob=math.exp(-1.99))
    reject = _single_utterance_run(peak_prob=math.exp(-2.01))
    accepted = accept.utterances[0] if accept.utterances else None
    boundary_ok = (
        accepted is not None
        and accepted.anchor
        and accepted.s_seg >= -2.0
        and reject.skipped == [0]
        and not reject.utterances
    )

    shorts = [u for u in corpus09_run.utterances if u.utt_index in SHORT_INDICES]
    anchor_utts = {a.utt_index for a in corpus09_run.anchors}
    shorts_ok = (
        len(shorts) == len(SHORT_INDICES)
        and all(u.penalized and u.s_seg == -4.0 and not u.anchor for u in shorts)
        and not (set(SHORT_INDICES) & anchor_utts)
    )
    hist = dict(score_histogram(corpus09_run.utterances))
    spike_ok = hist.get(-4.0, 0) >= len(SHORT_INDICES)

    ok = doc_ok and boundary_ok and shorts_ok and spike_ok
    _verdict(
        capsys,
        5,
        "threshold semantics",
        ok,
        f"ln(0.13)={math.log(0.13):.4f} vs threshold -2.0; score -1.99 anchored, "
        f"-2.01 rejected; {len(shorts)} short utterances penalized to -4.0, "
        f"never anchors, histogram bin at -4.0 holds {hist.get(-4.0, 0)}",
    )


# --- 6: duration-normalized score arithmetic ------------------------------------


def test_normalized_score_values(capsys):
    cases = [
        ((-1.0, 4.0, 8.0), -0.5),
        ((-1.0, 8.0, 8.0), -1.0),
        ((-2.0, 16.0, 8.0), -4.0),
    ]
    results = [normalize_score(*args) for args, _ in cases]
    ok = all(got == want for got, (_, want) in zip(results, cases))
    _verdict(
        capsys,
        6,
        "normalized score arithmetic",
        ok,
        ", ".join(
            f"normalize_score{args} = {got}" for (args, _), got in zip(cases, results)
        ),
    )


# --- 7: distribution-free filter bound ------------------------------------------


def _score_stub(s_seg: float) -> UtteranceAlignment:
    return UtteranceAlignment(
        utt_index=0,
        start_frame=0,
        end_frame=0,
        s_seg=s_seg,
        s_seg_norm=s_seg,
        penalized=False,
        duration_s=1.0,
    )


def test_chebyshev_filter_bound(capsys):
    rng = np.random.default_rng(1337)
    n = 10_000
    worst_removed = 0.0
    for i in range(20):
        kind = i % 3
        if kind == 0:
            scores = rng.normal(-1.0 - 0.1 * i, 0.3 + 0.05 * i, n)
        elif kind == 1:
            scores = np.concatenate(
                [rng.normal(-0.3, 0.15, 6_000), rng.normal(-3.0 - 0.2 * i, 0.6, 4_000)]
            )
        else:
            scores = -np.abs(rng.standard_cauchy(n)) - 0.1  # heavy tailed
        alns = [_score_stub(float(s)) for s in scores]
        _, report = filter_chebyshev(alns, worst_fraction=0.15)
        removed = (report.input_count - report.kept_count) / n
        worst_removed = max(worst_removed, removed)
    ok = worst_removed <= 0.15
    _verdict(
        capsys,
        7,
        "chebyshev filter bound",
        ok,
        f"20 distributions of n={n}: worst removal fraction {worst_removed:.4f} "
        f"(bound 0.1500)",
    )


# --- 8: sharper posteriors recover more ------------------------------------------


def test_two_pass_improvement(capsys, tmp_path):
    runs = {}
    for pass_no, peak in ((1, 0.75), (2, 0.95)):
        corpus = build_corpus(peak_prob=peak)
        runs[pass_no] = _aligned_run(corpus, file_id=f"pass{pass_no}")
    mean = {p: float(np.mean([u.s_seg for u in r.utterances])) for p, r in runs.items()}
    aligned_s = {
        p: sum(u.end_s - u.start_s for u in r.utterances) for p, r in runs.items()
    }

    kept, _ = filter_absolute(runs[2].utterances, cutoff=-1.0)
    rows = recovery_stats(
        {r.file_id: r.total_duration_s for r in runs.values()},
        [u for r in runs.values() for u in r.utterances],
        kept,
        split_of={"pass1": "p1", "pass2": "p2"},
    )
    csv_path = tmp_path / "recovery.csv"
    write_recovery_csv(csv_path, rows)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    csv_ok = (
        lines[0] == "split,total_hours,aligned_hours,filtered_hours"
        and all(len(line.split(",")) == 4 for line in lines[1:])
        and lines[-1].startswith("total,")
    )
    ok = mean[2] > mean[1] and aligned_s[2] > aligned_s[1] and csv_ok
    _verdict(
        capsys,
        8,
        "two-pass improvement",
        ok,
        f"mean score {mean[1]:.4f} -> {mean[2]:.4f}, aligned "
        f"{aligned_s[1]:.1f}s -> {aligned_s[2]:.1f}s "
        f"({len(runs[1].utterances)} -> {len(runs[2].utterances)} utterances), "
        f"recovery CSV columns ok={csv_ok}",
    )


# --- 9: determinism and file formats ---------------------------------------------


def test_determinism_and_formats(capsys, tmp_path):
    data = tmp_path / "data"
    vocab_path = tmp_path / "vocab.txt"
    for name, seed in (("deter_a", 31), ("deter_b", 62)):
        manifest = tmp_path / f"{name}.manifest"
        write_manifest(manifest, small_file_spec(seed))
        rc = main(
            [
                "synth",
                "--manifest",
                str(manifest),
                "--output-dir",
                str(data),
                "--file-id",
                name,
                "--write-vocab",
                str(vocab_path),
            ]
        )
        assert rc == 0

    raw = (data / "deter_a.ctcp").read_bytes()
    pm = load_posteriors(data / "deter_a.ctcp", vocab=load_vocab(vocab_path))
    save_posteriors(tmp_path / "round_trip.ctcp", pm)
    binary_ok = (tmp_path / "round_trip.ctcp").read_bytes() == raw

    outs = [tmp_path / f"out{i}" for i in range(3)]
    for out, workers in zip(outs, ("1", "1", "2")):
        rc = main(
            [
                "align",
                "--posterior-dir",
                str(data),
                "--transcript-dir",
                str(data),
                "--vocab",
                str(vocab_path),
                "--output-dir",
                str(out),
                "--workers",
                workers,
            ]
        )
        assert rc == 0
    names = sorted(os.listdir(outs[0]))
    stable = all(
        (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
        and (outs[2] / name).read_bytes() == (outs[0] / name).read_bytes()
        for name in names
    )
    formats_ok = {"deter_a.align.jsonl", "deter_a.ctm", "deter_a.segments"} <= set(names)

    jsonl = sorted(str(outs[0] / n) for n in names if n.endswith(".align.jsonl"))
    filtered_dir = tmp_path / "filtered"
    stats_dir = tmp_path / "stats"
    pipeline_ok = (
        main(["filter", *jsonl, "--output-dir", str(filtered_dir)]) == 0
        and main(["stats", *jsonl, "--output-dir", str(stats_dir)]) == 0
    )

    ok = binary_ok and stable and formats_ok and pipeline_ok
    _verdict(
        capsys,
        9,
        "determinism and formats",
        ok,
        f"binary round trip bit-exact={binary_ok}, {len(names)} output files "
        f"byte-identical across repeat runs and worker counts={stable}, "
        f"synth->align->filter->stats exit codes clean={pipeline_ok}",
    )
