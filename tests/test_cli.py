"""Command-line interface tests: config handling and the full pipeline."""

import json
import logging
import math
import os
import re

import pytest

from conftest import small_file_spec

from anchoralign import (
    AlignParams,
    load_ground_truth,
    load_posteriors,
    load_vocab,
    synth_posteriors,
    write_manifest,
)
from anchoralign.cli import (
    RunConfig,
    _parse_formats,
    load_alignment_jsonl,
    main,
    parse_config_file,
    resolve_config,
)
from anchoralign.errors import ConfigError

# --- config file and flag precedence -----------------------------------------


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment\n"
        "posterior_dir = /data/post\n"
        "threshold = -1.5\n"
        "pass = 2\n"
        "formats = jsonl,ctm\n"
        "\n",
        encoding="utf-8",
    )
    values = parse_config_file(path)
    assert values == {
        "posterior_dir": "/data/post",
        "threshold": -1.5,
        "pass_id": 2,
        "formats": ("jsonl", "ctm"),
    }


@pytest.mark.parametrize(
    "line",
    ["mystery = 3", "threshold = warm", "no equals sign", "workers = 1.5", "formats = csv"],
)
def test_parse_config_rejects(tmp_path, line):
    path = tmp_path / "bad.conf"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_parse_formats():
    assert _parse_formats("jsonl, segments") == ("jsonl", "segments")
    with pytest.raises(ConfigError):
        _parse_formats("")


def test_bad_formats_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["align", "--formats", "csv"])
    assert exc.value.code == 2


def test_flags_override_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "posterior_dir = /p\ntranscript_dir = /t\nvocab = /v\noutput_dir = /o\n"
        "threshold = -1.0\nworkers = 4\n",
        encoding="utf-8",
    )
    from anchoralign.cli import build_parser

    args = build_parser().parse_args(
        ["align", "--config", str(conf), "--threshold", "-3.0"]
    )
    cfg = resolve_config(args)
    assert cfg.align.threshold == -3.0  # flag wins
    assert cfg.workers == 4  # file wins over default
    assert cfg.align.window_s == RunConfig().align.window_s  # untouched default


def test_missing_required_setting(tmp_path):
    from anchoralign.cli import build_parser

    args = build_parser().parse_args(["align", "--posterior-dir", "/p"])
    with pytest.raises(ConfigError):
        resolve_config(args)


# --- pipeline fixtures --------------------------------------------------------


@pytest.fixture()
def synth_dirs(tmp_path):
    """Two small synthesized files plus their vocab, rendered via the CLI."""
    data = tmp_path / "data"
    vocab_path = tmp_path / "vocab.txt"
    for name, seed in (("filea", 101), ("fileb", 202)):
        spec = small_file_spec(seed)
        manifest = tmp_path / f"{name}.manifest"
        write_manifest(manifest, spec)
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
    return data, vocab_path


def _run_align(data, vocab_path, out_dir, *extra):
    argv = [
        "align",
        "--posterior-dir",
        str(data),
        "--transcript-dir",
        str(data),
        "--vocab",
        str(vocab_path),
        "--output-dir",
        str(out_dir),
        *extra,
    ]
    return main(argv)


# --- synth -------------------------------------------------------------------


def test_synth_writes_bundle(synth_dirs):
    data, vocab_path = synth_dirs
    names = sorted(os.listdir(data))
    for stem in ("filea", "fileb"):
        for suffix in (".ctcp", ".txt", ".regions", ".truth.tsv"):
            assert stem + suffix in names
    vocab = load_vocab(vocab_path)
    pm = load_posteriors(data / "filea.ctcp", vocab=vocab)
    spec = small_file_spec(101)
    expected_pm, expected_truths = synth_posteriors(spec, vocab)
    assert pm.data.tobytes() == expected_pm.data.tobytes()
    assert load_ground_truth(data / "filea.truth.tsv") == expected_truths
    lines = (data / "filea.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(spec.utterances)
    assert lines[0].split(None, 2)[2] == spec.utterances[0].text


def test_synth_default_file_id(tmp_path):
    manifest = tmp_path / "island.manifest"
    write_manifest(manifest, small_file_spec(7, n_utts=2))
    rc = main(["synth", "--manifest", str(manifest), "--output-dir", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "island.ctcp").exists()


# --- align -------------------------------------------------------------------


def test_align_end_to_end(synth_dirs, tmp_path):
    data, vocab_path = synth_dirs
    out = tmp_path / "out"
    assert _run_align(data, vocab_path, out) == 0
    for stem in ("filea", "fileb"):
        for suffix in (".align.jsonl", ".ctm", ".segments"):
            assert (out / (stem + suffix)).exists()

    vocab = load_vocab(vocab_path)
    spec = small_file_spec(101)
    _, truths = synth_posteriors(spec, vocab)
    rows = [
        json.loads(line)
        for line in (out / "filea.align.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(rows) == len(spec.utterances)
    assert list(rows[0]) == [
        "file_id",
        "utt_index",
        "text",
        "start_s",
        "end_s",
        "s_seg",
        "s_seg_norm",
        "penalized",
        "accepted",
        "anchor",
        "pass",
    ]
    for row, (utt_index, start_f, end_f), su in zip(rows, truths, spec.utterances):
        assert row["file_id"] == "filea"
        assert row["utt_index"] == utt_index
        assert row["text"] == su.text
        assert row["start_s"] == pytest.approx(start_f * 0.02, abs=5e-4)
        assert row["end_s"] == pytest.approx((end_f + 1) * 0.02, abs=5e-4)
        assert row["s_seg"] == pytest.approx(math.log(0.9), abs=1e-6)
        assert row["accepted"] is True
        assert row["pass"] == 1

    ctm_lines = (out / "filea.ctm").read_text(encoding="utf-8").splitlines()
    first = ctm_lines[0].split()
    assert first[0] == "filea" and first[1] == "1"
    assert float(first[2]) == rows[0]["start_s"]
    assert float(first[-1]) == pytest.approx(math.exp(rows[0]["s_seg"]), abs=1e-6)
    assert " ".join(first[4:-1]) == rows[0]["text"]

    seg_lines = (out / "filea.segments").read_text(encoding="utf-8").splitlines()
    assert seg_lines[0].split() == [
        "filea-0000",
        "filea",
        f"{rows[0]['start_s']:.3f}",
        f"{rows[0]['end_s']:.3f}",
    ]

    log_lines = (out / "iterations.log").read_text(encoding="utf-8").splitlines()
    pattern = re.compile(
        r"^file[ab] window_start=\d+ window_len=\d+ n_utts=\d+ outcome=(accepted:\d+|grow|skip)$"
    )
    assert log_lines and all(pattern.match(line) for line in log_lines)
    file_ids = [line.split()[0] for line in log_lines]
    assert file_ids == sorted(file_ids)


def test_align_is_byte_identical_across_runs_and_workers(synth_dirs, tmp_path):
    data, vocab_path = synth_dirs
    outs = [tmp_path / f"out{i}" for i in range(3)]
    assert _run_align(data, vocab_path, outs[0], "--workers", "1") == 0
    assert _run_align(data, vocab_path, outs[1], "--workers", "1") == 0
    assert _run_align(data, vocab_path, outs[2], "--workers", "2") == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) == sorted(os.listdir(outs[2]))
    for name in names:
        reference = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == reference
        assert (outs[2] / name).read_bytes() == reference


def test_align_with_regions_matches_plain_run(synth_dirs, tmp_path):
    # gaps here are all shorter than the 30 s cutoff, so region compression
    # is the identity and outputs must not change
    data, vocab_path = synth_dirs
    plain, with_regions = tmp_path / "plain", tmp_path / "regions"
    assert _run_align(data, vocab_path, plain) == 0
    assert _run_align(data, vocab_path, with_regions, "--regions-dir", str(data)) == 0
    for name in sorted(os.listdir(plain)):
        assert (with_regions / name).read_bytes() == (plain / name).read_bytes()


def test_align_from_config_file(synth_dirs, tmp_path):
    data, vocab_path = synth_dirs
    out = tmp_path / "out"
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"posterior_dir = {data}\ntranscript_dir = {data}\n"
        f"vocab = {vocab_path}\noutput_dir = {out}\nformats = jsonl,ctm,segments\n",
        encoding="utf-8",
    )
    assert main(["align", "--config", str(conf), "--formats", "jsonl"]) == 0
    names = os.listdir(out)
    assert "filea.align.jsonl" in names
    assert "filea.ctm" not in names  # the flag narrowed the config's formats


def test_align_skips_unpaired_posteriors(synth_dirs, tmp_path):
    data, vocab_path = synth_dirs
    os.remove(data / "fileb.txt")
    out = tmp_path / "out"
    assert _run_align(data, vocab_path, out) == 0
    names = os.listdir(out)
    assert "filea.align.jsonl" in names
    assert "fileb.align.jsonl" not in names


def test_align_reports_bad_file_with_exit_2(synth_dirs, tmp_path):
    data, vocab_path = synth_dirs
    (data / "fileb.ctcp").write_bytes(b"not a posterior file")
    out = tmp_path / "out"
    assert _run_align(data, vocab_path, out) == 2
    assert (out / "filea.align.jsonl").exists()  # the good file still aligned
    assert not (out / "fileb.align.jsonl").exists()


def test_align_empty_input_dir(tmp_path):
    empty = tmp_path / "empty"
    os.makedirs(empty)
    rc = main(
        [
            "align",
            "--posterior-dir",
            str(empty),
            "--transcript-dir",
            str(empty),
            "--vocab",
            str(empty / "missing-vocab.txt"),
            "--output-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2  # vocab cannot be read


def test_align_bad_config_exits_2(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("mystery = 1\n", encoding="utf-8")
    assert main(["align", "--config", str(conf)]) == 2


# --- out-of-range settings ----------------------------------------------------


@pytest.fixture()
def overlong_text(tmp_path):
    """One short synthesized file whose transcript is far longer than its audio."""
    data = tmp_path / "data"
    manifest = tmp_path / "short.manifest"
    write_manifest(manifest, small_file_spec(5, n_utts=2))
    vocab_path = tmp_path / "vocab.txt"
    argv = ["synth", "--manifest", str(manifest), "--output-dir", str(data)]
    assert main([*argv, "--file-id", "short", "--write-vocab", str(vocab_path)]) == 0
    (data / "short.txt").write_text("una palabra larga " * 2000, encoding="utf-8")
    return data, vocab_path


@pytest.fixture()
def scored_jsonl(tmp_path):
    path = tmp_path / "f.align.jsonl"
    rows = [
        {"file_id": "f", "utt_index": i, "text": "x", "start_s": i, "end_s": i + 1.0,
         "s_seg": -0.1 * i, "s_seg_norm": -0.1 * i, "penalized": False}
        for i in range(4)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "flags",
    [
        ["--window-s", "0"],
        ["--window-s", "nan"],
        ["--window-step-s", "0"],
        ["--max-window-s", "inf"],
        ["--fragment-frames", "0"],
        ["--score-ref-s", "0"],
        ["--max-words", "0"],
        ["--max-utts-per-window", "0"],
        ["--max-gap-s", "-1"],
        ["--workers", "0"],
    ],
    ids="=".join,
)
def test_align_out_of_range_setting_exits_2(overlong_text, tmp_path, caplog, flags):
    data, vocab_path = overlong_text
    assert _run_align(data, vocab_path, tmp_path / "out", *flags) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "ConfigError" in errors[0] and "\n" not in errors[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--method", "chebyshev", "--worst-fraction", "0"],
        ["filter", "--method", "normalized", "--score-ref-s", "0"],
        ["stats", "--bin-width", "0"],
        ["stats", "--floor", "1"],
    ],
    ids=" ".join,
)
def test_filter_and_stats_out_of_range_exit_2(scored_jsonl, tmp_path, caplog, argv):
    rc = main([*argv, str(scored_jsonl), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "ConfigError" in errors[0] and "\n" not in errors[0]


def test_run_config_validates_at_construction():
    with pytest.raises(ConfigError):
        RunConfig(workers=0)
    with pytest.raises(ConfigError):
        RunConfig(max_gap_s=float("nan"))
    assert RunConfig().align == AlignParams()


def test_old_allow_char_stay_key_is_unknown(tmp_path):
    conf = tmp_path / "old.conf"
    conf.write_text("allow_char_stay = false\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(conf)


# --- filter and stats --------------------------------------------------------


@pytest.fixture()
def aligned_out(synth_dirs, tmp_path):
    data, vocab_path = synth_dirs
    out = tmp_path / "aligned"
    assert _run_align(data, vocab_path, out) == 0
    return out


def test_filter_cli_absolute(aligned_out, tmp_path):
    inputs = sorted(str(p) for p in aligned_out.glob("*.align.jsonl"))
    out = tmp_path / "filtered"
    rc = main(
        ["filter", *inputs, "--method", "absolute", "--cutoff", "-0.2", "--output-dir", str(out)]
    )
    assert rc == 0
    report = (out / "filter_report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "method,input_count,kept_count,input_hours,kept_hours,cutoff"
    assert report[1].startswith("absolute,")
    original_lines = set()
    for path in inputs:
        original_lines.update((aligned_out / os.path.basename(path)).read_text().splitlines())
    for path in inputs:
        name = os.path.basename(path).replace(".jsonl", ".filtered.jsonl")
        for line in (out / name).read_text(encoding="utf-8").splitlines():
            assert line in original_lines  # rows pass through verbatim
            assert json.loads(line)["s_seg"] >= -0.2


def test_filter_cli_drops_everything_at_zero_cutoff(aligned_out, tmp_path):
    inputs = sorted(str(p) for p in aligned_out.glob("*.align.jsonl"))
    out = tmp_path / "filtered"
    rc = main(["filter", *inputs, "--cutoff", "0.0", "--output-dir", str(out)])
    assert rc == 0
    for path in inputs:
        name = os.path.basename(path).replace(".jsonl", ".filtered.jsonl")
        assert (out / name).read_text(encoding="utf-8") == ""


def test_stats_cli(aligned_out, tmp_path):
    inputs = sorted(str(p) for p in aligned_out.glob("*.align.jsonl"))
    split_map = tmp_path / "splits.csv"
    split_map.write_text("filea,train\nfileb,dev\n", encoding="utf-8")
    out = tmp_path / "stats"
    rc = main(
        ["stats", *inputs, "--split-map", str(split_map), "--output-dir", str(out)]
    )
    assert rc == 0
    hist = (out / "histogram.csv").read_text(encoding="utf-8").splitlines()
    assert hist[0] == "bin_start,count"
    total_rows = sum(len(load_alignment_jsonl(p)) for p in inputs)
    assert sum(int(line.split(",")[1]) for line in hist[1:]) == total_rows
    recovery = (out / "recovery.csv").read_text(encoding="utf-8").splitlines()
    assert recovery[0] == "split,total_hours,aligned_hours,filtered_hours"
    assert [line.split(",")[0] for line in recovery[1:]] == ["dev", "train", "total"]


def test_stats_cli_with_filtered_files(aligned_out, tmp_path):
    inputs = sorted(str(p) for p in aligned_out.glob("*.align.jsonl"))
    filtered_dir = tmp_path / "filtered"
    assert main(["filter", *inputs, "--cutoff", "0.0", "--output-dir", str(filtered_dir)]) == 0
    filtered = sorted(str(p) for p in filtered_dir.glob("*.filtered.jsonl"))
    out = tmp_path / "stats"
    rc = main(["stats", *inputs, "--filtered", *filtered, "--output-dir", str(out)])
    assert rc == 0
    recovery = (out / "recovery.csv").read_text(encoding="utf-8").splitlines()
    # everything was filtered away, so the kept column is zero
    assert recovery[1].split(",")[3] == "0.0000"


def test_jsonl_loader_round_trip(aligned_out):
    path = next(iter(sorted(aligned_out.glob("*.align.jsonl"))))
    rows = load_alignment_jsonl(path)
    assert rows
    for aln, raw in rows:
        rec = json.loads(raw)
        assert aln.s_seg == rec["s_seg"]
        assert aln.duration_s == pytest.approx(rec["end_s"] - rec["start_s"], abs=1e-9)
        assert aln.file_id == rec["file_id"]


# --- logging environment -----------------------------------------------------


def test_log_level_env_var(tmp_path, monkeypatch):
    manifest = tmp_path / "tiny.manifest"
    write_manifest(manifest, small_file_spec(9, n_utts=2))
    monkeypatch.setenv("ANCHOR_ALIGN_LOG", "debug")
    assert main(["synth", "--manifest", str(manifest), "--output-dir", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("ANCHOR_ALIGN_LOG", "nonsense")
    assert main(["synth", "--manifest", str(manifest), "--output-dir", str(tmp_path / "b")]) == 0
