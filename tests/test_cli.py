"""Command-line interface tests: config handling and the full pipeline."""

import concurrent.futures
import json
import logging
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import small_file_spec

from anchoralign import (
    AlignParams,
    PosteriorMatrix,
    default_spanish_vocab,
    load_ground_truth,
    load_posteriors,
    load_regions,
    load_utterances,
    load_vocab,
    parse_manifest,
    save_vocab,
    synth_posteriors,
    write_manifest,
)
from anchoralign import cli
from anchoralign.cli import (
    RunConfig,
    _parse_formats,
    load_alignment_jsonl,
    main,
    parse_config_file,
    resolve_config,
)
from anchoralign.errors import (
    ConfigError,
    ManifestError,
    PosteriorFormatError,
    SpeechRegionsError,
    TextDecodeError,
    VocabFormatError,
)

# --- dependencies ------------------------------------------------------------


def test_cli_import_loads_no_scipy():
    # numpy is the only dependency; a scipy import would tie the score bits to its release
    code = "import sys, anchoralign.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # only align --workers > 1 needs multiprocessing; every other command starts without it
    code = (
        "import sys, anchoralign.cli; anchoralign.cli.build_parser();"
        " print([m for m in sys.modules"
        " if m.startswith('multiprocessing') or m == 'concurrent.futures.process'])"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parser_filter_and_stats_load_no_numpy(scored_jsonl, tmp_path):
    # numpy loads with the first array module: the parser, filter and stats import none
    code = """
import json, sys
from anchoralign import cli

def numpy_modules():
    return [m for m in sys.modules if m.startswith("numpy.")]

cli.build_parser()
seen = {"parser": numpy_modules()}
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    seen[" ".join(argv[:3])] = numpy_modules()
import anchoralign.posterior_io
seen["after an array module"] = bool(numpy_modules())
print(json.dumps(seen))
"""
    jsonl, out = str(scored_jsonl), str(tmp_path / "out")
    runs = [
        *(["filter", "--method", method, jsonl, "--output-dir", out]
          for method in ("absolute", "chebyshev", "normalized")),
        ["stats", jsonl, "--filtered", jsonl, "--output-dir", out],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("after an array module") is True  # the check would see a loaded numpy
    assert seen == {
        "parser": [],
        "filter --method absolute": [],
        "filter --method chebyshev": [],
        "filter --method normalized": [],
        f"stats {jsonl} --filtered": [],
    }


def _run_fresh(code, *args):
    """Run code in a fresh interpreter importing this checkout; its stdout as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_parser_filter_and_stats_load_no_alignment_stack(scored_jsonl, synth_dirs, tmp_path):
    # align's modules load on its first use: the parser, filter and stats start without
    # them, and align starts without synth's
    code = """
import json, sys
from anchoralign import cli

WATCHED = [f"anchoralign.{m}" for m in ("aligner", "trellis", "posterior_io", "textprep",
                                         "synthdata")] + ["ctypes", "subprocess"]

def loaded():
    return [m for m in WATCHED if m in sys.modules]

cli.build_parser()
seen = [loaded()]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    seen.append(loaded())
print(json.dumps(seen))
"""
    jsonl, out = str(scored_jsonl), str(tmp_path / "out")
    data, vocab_path = synth_dirs
    runs = [
        *(["filter", "--method", method, jsonl, "--output-dir", out]
          for method in ("absolute", "chebyshev", "normalized")),
        ["stats", jsonl, "--filtered", jsonl, "--output-dir", out],
        _align_argv(data, vocab_path, tmp_path / "aligned", "--workers", "1"),
    ]
    *before_align, after_align = _run_fresh(code, json.dumps(runs, default=str))
    assert before_align == [[]] * 5  # the parser, three filter methods and stats
    stack = {f"anchoralign.{m}" for m in ("aligner", "trellis", "posterior_io", "textprep")}
    assert stack <= set(after_align)  # the check would see a loaded module
    assert "anchoralign.synthdata" not in after_align


# The cli names perfbench/tracing.py wraps before main runs, by defining module.
_TRACED_CLI_NAMES = {
    "anchoralign.aligner": ("align_file", "frames_to_seconds"),
    "anchoralign.cli": (
        "cmd_align",
        "cmd_filter",
        "cmd_stats",
        "_align_one",
        "write_alignment_jsonl",
        "write_ctm",
        "write_segments",
    ),
    "anchoralign.filters": (
        "filter_absolute",
        "filter_chebyshev",
        "filter_normalized",
        "write_filter_report_csv",
        "score_histogram",
        "recovery_stats",
        "write_histogram_csv",
        "write_recovery_csv",
    ),
    "anchoralign.posterior_io": ("load_posteriors", "apply_speech_regions"),
    "anchoralign.textprep": ("load_utterances",),
}


def test_every_traced_cli_name_resolves_before_main():
    # a tracer reads each name off a freshly imported cli, before any command has run
    code = """
import json, sys
import anchoralign.cli as cli
found = {}
for name in sys.argv[1:]:
    fn = getattr(cli, name)
    found[name] = f"{fn.__module__}.{fn.__qualname__}"
print(json.dumps(found))
"""
    names = [name for names in _TRACED_CLI_NAMES.values() for name in names]
    assert _run_fresh(code, *names) == {
        name: f"{module}.{name}" for module, names in _TRACED_CLI_NAMES.items() for name in names
    }


def test_align_calls_the_stand_ins_set_on_cli(synth_dirs, tmp_path):
    # load_posteriors is wrapped after a read, as a tracer does; align_file is replaced
    # before cli ever bound it; align must call both stand-ins, once per file
    code = """
import json, sys
import anchoralign.cli as cli
from anchoralign.aligner import align_file

calls = []

def stand_in(name, fn):
    def record(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return record

cli.load_posteriors = stand_in("load_posteriors", cli.load_posteriors)
cli.align_file = stand_in("align_file", align_file)
print(json.dumps([cli.main(json.loads(sys.argv[1])), calls]))
"""
    data, vocab_path = synth_dirs
    argv = _align_argv(data, vocab_path, tmp_path / "out", "--workers", "1")
    assert _run_fresh(code, json.dumps(argv)) == [0, ["load_posteriors", "align_file"] * 2]


def test_a_file_job_runs_in_a_fresh_interpreter(synth_dirs, tmp_path):
    # a pool worker started by spawn imports cli and runs a file job with no command before it
    code = """
import json, sys
import anchoralign.cli as cli
from anchoralign import load_vocab

cfg = cli.resolve_config(cli.build_parser().parse_args(json.loads(sys.argv[1])))
print(json.dumps(cli._align_one(("filea", cfg, load_vocab(cfg.vocab)))["error"]))
"""
    data, vocab_path = synth_dirs
    assert _run_fresh(code, json.dumps(_align_argv(data, vocab_path, tmp_path))) is None
    assert (tmp_path / "filea.align.jsonl").stat().st_size > 0


def test_align_loads_numpy_before_it_builds_the_pool(synth_dirs, tmp_path):
    # forked workers share the parent's numpy, and no file's posterior load pays its import
    code = """
import concurrent.futures, contextlib, json, sys
import anchoralign.cli as cli

numpy_loaded = []

class Recorder(contextlib.nullcontext):  # runs the jobs in order, in this process
    def __init__(self, max_workers):
        super().__init__(self)
        numpy_loaded.append("numpy" in sys.modules)
    def map(self, fn, jobs):
        return map(fn, jobs)

concurrent.futures.ProcessPoolExecutor = Recorder
print(json.dumps([cli.main(json.loads(sys.argv[1])), numpy_loaded]))
"""
    data, vocab_path = synth_dirs
    argv = _align_argv(data, vocab_path, tmp_path / "out", "--workers", "2")
    assert _run_fresh(code, json.dumps(argv)) == [0, [True]]


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


def _align_argv(data, vocab_path, out_dir, *extra):
    return [
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


def _run_align(data, vocab_path, out_dir, *extra):
    return main(_align_argv(data, vocab_path, out_dir, *extra))


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


@pytest.mark.parametrize(
    "manifest",
    [
        "nan 1.0 abc\n",
        "0 inf abc\n",
        "#total nan\n0 1 abc\n",
        "#rate nan\n0 1 abc\n",
        "#frame_duration nan\n0 1 abc\n",
        "#seed -1\n0 1 abc\n",
        # more frames than numpy can address: rejected before anything is allocated
        "#total 1e300\n0 1 abc\n",
        "#frame_duration 1e-300\n0 1 abc\n",
    ],
)
def test_synth_of_an_unrenderable_manifest_exits_2(tmp_path, caplog, manifest):
    path = tmp_path / "bad.manifest"
    path.write_text(manifest, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--manifest", str(path), "--output-dir", str(out)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].startswith("ManifestError: ")
    assert os.listdir(out) == []


# --- text-file formats ---------------------------------------------------------


@pytest.mark.parametrize(
    "reader, error, content, lineno",
    [
        (load_vocab, VocabFormatError, "#blank 0\n#separator 1\n0\tx\n1\t \n2 y\n", 5),
        (load_regions, SpeechRegionsError, "# speech\n0.0 1.0\n\n2.0\n", 4),
        (parse_manifest, ManifestError, "#seed 3\n0.0 1.0 hola\ncero uno hola\n", 3),
        (load_ground_truth, ManifestError, "# utt start end\n0\t5\t9\n1\t12\n", 3),
        (cli._load_split_map, ConfigError, "# file_id,split\na,train\nb\n", 3),
        (parse_config_file, ConfigError, "workers = 1\n\nworkers\n", 3),
        (load_posteriors, PosteriorFormatError, "3 2 0.02\n-1 -1\n-1 x\n-1 -1\n", 3),
        (load_posteriors, PosteriorFormatError, "3 2 0.02\n-1 -1\n\n-1 -1\n-1\n", 5),
        (load_posteriors, PosteriorFormatError, "3 2\n-1 -1\n", 1),
    ],
    ids=[
        "vocab",
        "regions",
        "manifest",
        "truth",
        "split-map",
        "config",
        "posterior-value",
        "posterior-columns",
        "posterior-header",
    ],
)
def test_a_malformed_line_is_named_by_path_and_line(tmp_path, reader, error, content, lineno):
    path = tmp_path / "input.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(error) as info:
        reader(path)
    assert f"{path}:{lineno}:" in str(info.value)


_JSONL_ROW = '{"file_id": "f", "s_seg": -0.5, "start_s": 0.0, "end_s": 1.0}\n'
# each text input's reader, and two valid lines to put before a line that is not UTF-8
_TEXT_INPUTS = {
    "vocab": (load_vocab, "#blank 0\n#separator 1\n"),
    "regions": (load_regions, "0.0 1.0\n2.0 3.0\n"),
    "manifest": (parse_manifest, "#seed 3\n0.0 1.0 hola\n"),
    "truth": (load_ground_truth, "0\t5\t9\n1\t12\t15\n"),
    "split-map": (cli._load_split_map, "a,train\nb,dev\n"),
    "config": (parse_config_file, "workers = 1\npass = 2\n"),
    "jsonl": (load_alignment_jsonl, _JSONL_ROW * 2),
    "transcript": (lambda path: load_utterances(path, default_spanish_vocab()), "una\ndos\n"),
    "text-posterior": (load_posteriors, "3 2 0.02\n-1 -1\n"),
}
_NOT_UTF8 = b"una \xff linea\n"


@pytest.mark.parametrize("name", list(_TEXT_INPUTS))
def test_a_line_that_is_not_utf8_is_named_by_path_and_line(tmp_path, name):
    reader, head = _TEXT_INPUTS[name]
    path = tmp_path / "input.txt"
    path.write_bytes(head.encode("utf-8") + _NOT_UTF8 + b"0 1 tres\n")
    with pytest.raises(TextDecodeError, match=re.escape(f"{path}:3: not UTF-8 text (byte 0xff)")):
        reader(path)


@pytest.mark.parametrize("name", [name for name in _TEXT_INPUTS if name != "truth"])
def test_a_text_input_that_is_not_utf8_exits_2_naming_its_line(
    synth_dirs, scored_jsonl, tmp_path, caplog, name
):
    data, vocab_path = synth_dirs
    # align reads regions, transcripts and posteriors per file: the bad one is fileb's
    per_file = {
        "regions": "fileb.regions",
        "transcript": "fileb.txt",
        "text-posterior": "fileb.ctcp",
    }
    bad = data / per_file[name] if name in per_file else tmp_path / "bad.txt"
    bad.write_bytes(_TEXT_INPUTS[name][1].encode("utf-8") + _NOT_UTF8)
    out = str(tmp_path / "out")
    argv = {
        "vocab": _align_argv(data, bad, out),
        "config": _align_argv(data, vocab_path, out, "--config", str(bad)),
        "regions": _align_argv(data, vocab_path, out, "--regions-dir", str(data)),
        "split-map": ["stats", str(scored_jsonl), "--split-map", str(bad), "--output-dir", out],
        "jsonl": ["filter", str(bad), "--output-dir", out],
        "manifest": ["synth", "--manifest", str(bad), "--output-dir", out],
    }.get(name, _align_argv(data, vocab_path, out))
    assert main(argv) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and f"TextDecodeError: {bad}:3: not UTF-8" in errors[0], errors
    if name in per_file:
        assert os.path.exists(os.path.join(out, "filea.align.jsonl"))  # the good file aligned


# a whole file each text input's reader reads; line 1 of each would not parse
# with a byte-order mark before it
_BOM_TWINS = {
    "vocab": "#blank 0\n#separator 1\n0\t∅\n1\t \n2\ta\n",
    "regions": "0.0 1.0\n2.0 3.0\n",
    "manifest": "#seed 3\n0.0 1.0 hola\n",
    "truth": "0\t5\t9\n1\t12\t15\n",
    "split-map": "a,train\nb,dev\n",
    "config": "workers = 1\npass = 2\n",
    "jsonl": _JSONL_ROW * 2,
    "transcript": "0.0 1.0 una\n1.0 2.0 dos\n",
    "text-posterior": "2 2 0.02\n" + "-0.6931471805599453 -0.6931471805599453\n" * 2,
}


@pytest.mark.parametrize("name", list(_TEXT_INPUTS))
def test_a_byte_order_mark_reads_as_its_twin_without_one(tmp_path, name):
    reader = _TEXT_INPUTS[name][0]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(_BOM_TWINS[name], encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert pickle.dumps(reader(marked)) == pickle.dumps(reader(plain))


def test_a_caption_transcript_with_a_byte_order_mark_aligns_as_without(synth_dirs, tmp_path):
    # with the mark kept, line 1 is no caption line and the file reads as plain text
    data, vocab_path = synth_dirs
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert _run_align(data, vocab_path, plain) == 0
    transcript = data / "fileb.txt"
    transcript.write_bytes(b"\xef\xbb\xbf" + transcript.read_bytes())
    assert _run_align(data, vocab_path, marked) == 0
    for name in sorted(os.listdir(plain)):
        assert (marked / name).read_bytes() == (plain / name).read_bytes(), name


def test_a_crlf_vocab_reads_as_its_lf_form(tmp_path):
    vocab = default_spanish_vocab()  # its separator symbol is a space
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    save_vocab(lf, vocab)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert load_vocab(crlf) == load_vocab(lf) == vocab


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


def test_align_pool_is_capped_at_the_file_count(synth_dirs, tmp_path, monkeypatch):
    sizes = []

    class SerialPool:  # records the pool size and starts no process
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)
            assert initializer is None and initargs == ()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    data, vocab_path = synth_dirs
    assert _run_align(data, vocab_path, tmp_path / "out", "--workers", "64") == 0
    assert sizes == [2]


def test_align_with_regions_matches_plain_run(synth_dirs, tmp_path):
    # gaps here are all shorter than the 30 s cutoff, so region compression
    # is the identity and outputs must not change
    data, vocab_path = synth_dirs
    plain, with_regions = tmp_path / "plain", tmp_path / "regions"
    assert _run_align(data, vocab_path, plain) == 0
    assert _run_align(data, vocab_path, with_regions, "--regions-dir", str(data)) == 0
    for name in sorted(os.listdir(plain)):
        assert (with_regions / name).read_bytes() == (plain / name).read_bytes()


def test_align_validates_each_posterior_once(synth_dirs, tmp_path, monkeypatch):
    # a compressed matrix is a row subset of the validated one, so it is not validated again
    calls = []
    validate, align_one = PosteriorMatrix.__post_init__, cli._align_one
    compress = cli.apply_speech_regions

    def spy_compress(pm, *args, **kwargs):
        compressed, fm = compress(pm, *args, **kwargs)
        calls.append(("compress", compressed.n_frames < pm.n_frames))
        return compressed, fm

    monkeypatch.setattr(
        PosteriorMatrix, "__post_init__", lambda pm: calls.append("validate") or validate(pm)
    )
    monkeypatch.setattr(cli, "_align_one", lambda job: calls.append("align") or align_one(job))
    monkeypatch.setattr(cli, "apply_speech_regions", spy_compress)
    data, vocab_path = synth_dirs
    argv = ["--regions-dir", str(data), "--max-gap-s", "0.1"]
    assert _run_align(data, vocab_path, tmp_path / "out", *argv) == 0
    assert calls == ["align", "validate", ("compress", True)] * 2


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


def test_align_reports_non_utf8_transcript_with_exit_2(synth_dirs, tmp_path, caplog):
    data, vocab_path = synth_dirs
    (data / "fileb.txt").write_bytes(b"una \xff linea\n")
    out = tmp_path / "out"
    assert _run_align(data, vocab_path, out) == 2
    assert (out / "filea.align.jsonl").exists()  # the good file still aligned
    assert not (out / "fileb.align.jsonl").exists()
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and f"{data / 'fileb.txt'}:1: not UTF-8" in errors[0]


@pytest.mark.parametrize("option", ["--config", "--vocab", "--split-map"])
def test_non_utf8_setting_file_exits_2(scored_jsonl, tmp_path, caplog, option):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    out = str(tmp_path / "out")
    if option == "--split-map":
        argv = ["stats", str(scored_jsonl), "--split-map", str(bad), "--output-dir", out]
    else:
        dirs = ["--posterior-dir", str(tmp_path), "--transcript-dir", str(tmp_path)]
        argv = ["align", *dirs, "--vocab", str(tmp_path / "vocab.txt"), "--output-dir", out]
        argv += [option, str(bad)]
    assert main(argv) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "not UTF-8" in errors[0] and "\n" not in errors[0]


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


def test_align_with_a_max_window_of_too_many_steps_exits_2(overlong_text, tmp_path):
    # every window of this file is rejected, so a max_window_s the config let through
    # would grow one forever; the child's timeout fails the test in place of a hang
    data, vocab_path = overlong_text
    argv = _align_argv(data, vocab_path, tmp_path / "out", "--max-window-s", "1e300")
    code = "import json, sys, anchoralign.cli as cli; print(cli.main(json.loads(sys.argv[1])))"
    assert _run_fresh(code, json.dumps(argv)) == 2


def test_align_with_a_score_ref_that_overflows_the_normalized_score_exits_2(
    synth_dirs, tmp_path
):
    # -0.2 / 1e-320 is -inf, which no jsonl row can hold
    data, vocab_path = synth_dirs
    argv = _align_argv(data, vocab_path, tmp_path / "out", "--score-ref-s", "1e-320")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "anchoralign.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("failed: ConfigError: normalized score") == 2  # both files


def _set_frame_duration(data, frame_duration_s):
    """Rewrite every .ctcp file in data with frame_duration_s, as text: the
    binary header's float32 cannot hold 1e-320."""
    for path in data.glob("*.ctcp"):
        pm = load_posteriors(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{pm.n_frames} {pm.n_symbols} {frame_duration_s}\n")
            fh.writelines(" ".join(f"{x:.9g}" for x in row) + "\n" for row in pm.data)


@pytest.mark.parametrize(
    "frame_duration_s, regions, flags",
    [
        # window_s / frame duration overflows to inf
        (None, None, ["--window-s", "1e308", "--max-window-s", "1e308", "--window-step-s", "1e305"]),
        ("1e-320", None, []),
        # two regions inside files of about 1.5e-317 s, whose gaps are cut
        ("1e-320", "0 1e-318\n2e-318 1.2e-317\n", ["--max-gap-s", "0"]),
    ],
    ids=["huge windows", "tiny frames", "tiny frames and regions"],
)
def test_align_with_seconds_to_frames_ratios_that_overflow_exits_0(
    synth_dirs, tmp_path, frame_duration_s, regions, flags
):
    data, vocab_path = synth_dirs
    if frame_duration_s is not None:
        _set_frame_duration(data, frame_duration_s)
    if regions is not None:
        for path in data.glob("*.regions"):
            path.write_text(regions, encoding="utf-8")
        flags = [*flags, "--regions-dir", str(data)]
    argv = _align_argv(data, vocab_path, tmp_path / "out", *flags)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "anchoralign.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in (tmp_path / "out").glob("*.align.jsonl")) == [
        "filea.align.jsonl",
        "fileb.align.jsonl",
    ]


def test_align_with_a_region_past_a_file_of_tiny_frames_exits_2(synth_dirs, tmp_path, caplog):
    # at 1e-320 s a frame, the files end near 1.5e-317 s: a region end may pass
    # them by half a frame, not by an absolute 1e-6 s
    data, vocab_path = synth_dirs
    _set_frame_duration(data, "1e-320")
    for path in data.glob("*.regions"):
        path.write_text("0 1e-318\n5e-7 6e-7\n", encoding="utf-8")
    flags = ["--regions-dir", str(data), "--max-gap-s", "0"]
    assert _run_align(data, vocab_path, tmp_path / "out", *flags) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 2  # both files
    assert all("SpeechRegionsError: region (5e-07, 6e-07) extends past" in e for e in errors)


_THREADS_CODE = """
import json, os, sys
import anchoralign
how, argv = sys.argv[1], json.loads(sys.argv[2])
if how == "library":
    anchoralign.align_file  # imports the aligner, and numpy with it
else:
    if how == "numpy first":
        import numpy
    import anchoralign.cli
    assert anchoralign.cli.main(argv) == 0
threads = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.mark.parametrize(
    "how, preset, want",
    [("cli", None, "1"), ("cli", "2", "2"), ("numpy first", None, None), ("library", None, None)],
    ids=["cli", "cli with a preset", "numpy imported first", "library"],
)
def test_align_runs_numpy_on_one_thread_unless_told_otherwise(
    synth_dirs, tmp_path, how, preset, want
):
    # numpy's OpenBLAS starts a thread per extra CPU at import; anchoralign makes no
    # BLAS call, so a command sets OPENBLAS_NUM_THREADS=1, but never over a value set
    # before it, after numpy is imported, or from the library
    data, vocab_path = synth_dirs
    argv = _align_argv(data, vocab_path, tmp_path / "out", "--workers", "1")
    env = {  # built here, so no thread setting of the calling process leaks in
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
        "ANCHOR_ALIGN_LOG": "quiet",
    }
    if "PYTHONPYCACHEPREFIX" in os.environ:  # where the lattice library is cached
        env["PYTHONPYCACHEPREFIX"] = os.environ["PYTHONPYCACHEPREFIX"]
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_CODE, how, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    value, threads = json.loads(proc.stdout)
    assert value == want
    if sys.platform == "linux" and how == "cli" and preset is None:
        assert threads == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--method", "chebyshev", "--worst-fraction", "0"],
        ["filter", "--method", "normalized", "--score-ref-s", "0"],
        ["filter", "--method", "normalized", "--score-ref-s", "1e-320"],
        ["stats", "--bin-width", "0"],
        ["stats", "--floor", "1"],
        ["stats", "--bin-width", "1e-300"],
        ["stats", "--bin-width", "1e-9"],
        ["stats", "--floor=-1e300"],
    ],
    ids=" ".join,
)
def test_filter_and_stats_out_of_range_exit_2(scored_jsonl, tmp_path, caplog, argv):
    rc = main([*argv, str(scored_jsonl), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "ConfigError" in errors[0] and "\n" not in errors[0]


def test_align_with_fragments_longer_than_any_span_exits_0(synth_dirs, tmp_path):
    # every span is one short fragment, so every score is capped at the short penalty
    data, vocab_path = synth_dirs
    out = tmp_path / "out"
    flags = ["--fragment-frames", "99999999999999999999", "--threshold", "-5"]
    assert _run_align(data, vocab_path, out, *flags) == 0
    rows = [json.loads(line) for line in (out / "filea.align.jsonl").read_text().splitlines()]
    assert rows and all(row["penalized"] and row["s_seg"] <= -4.0 for row in rows)


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
    for row in rows:
        rec = json.loads(row.line)
        assert row.s_seg == rec["s_seg"]
        assert row.duration_s == pytest.approx(rec["end_s"] - rec["start_s"], abs=1e-9)
        assert row.file_id == rec["file_id"]


@pytest.mark.parametrize(
    "bad_row",
    [
        "not json",
        "[1, 2]",
        '{"file_id": "f", "start_s": 0.0, "end_s": 1.0}',
        '{"file_id": "f", "start_s": 0.0, "end_s": 1.0, "s_seg": "-0.5"}',
        '{"file_id": "f", "start_s": 0.0, "end_s": 1.0, "s_seg": NaN}',
    ],
    ids=["not-json", "not-an-object", "missing-s_seg", "string-s_seg", "nan-s_seg"],
)
@pytest.mark.parametrize("command", ["filter", "stats"])
def test_filter_and_stats_malformed_row_exit_2(scored_jsonl, tmp_path, caplog, command, bad_row):
    with open(scored_jsonl, "a", encoding="utf-8") as fh:
        fh.write("\n" + bad_row + "\n")  # after 4 rows and a blank line: line 6
    rc = main([command, str(scored_jsonl), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and f"{scored_jsonl}:6: " in errors[0] and "\n" not in errors[0]


@pytest.mark.parametrize("same_name", ["other dir", "same path"])
def test_filter_refuses_inputs_that_share_an_output_name(scored_jsonl, tmp_path, caplog, same_name):
    # both inputs would be written to f.align.filtered.jsonl, the second over the first
    if same_name == "other dir":
        second = tmp_path / "b" / scored_jsonl.name
        second.parent.mkdir()
        second.write_text(scored_jsonl.read_text(encoding="utf-8"), encoding="utf-8")
    else:
        second = scored_jsonl
    out = tmp_path / "out"
    rc = main(["filter", str(scored_jsonl), str(second), "--output-dir", str(out)])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert f"{scored_jsonl} and {second}" in errors[0] and "f.align.filtered.jsonl" in errors[0]
    assert not out.exists()


def test_filter_chebyshev_on_equal_scores_keeps_every_row(tmp_path):
    path = tmp_path / "f.align.jsonl"
    rows = [
        {"file_id": "f", "start_s": i, "end_s": i + 1.0, "s_seg": -0.5} for i in range(5)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["filter", str(path), "--method", "chebyshev", "--worst-fraction", "1e-320"]
    assert main([*argv, "--output-dir", str(out)]) == 0
    assert (out / "f.align.filtered.jsonl").read_text(encoding="utf-8") == path.read_text(
        encoding="utf-8"
    )
    report = (out / "filter_report.csv").read_text(encoding="utf-8").splitlines()
    assert report[1] == "chebyshev,5,5,0.0014,0.0014,-0.500000"


@pytest.mark.parametrize("method, cutoff", [("absolute", "-1.000000"), ("normalized", "-1.500000")])
def test_filter_cutoff_defaults_to_the_method_default(scored_jsonl, tmp_path, method, cutoff):
    out = tmp_path / "out"
    assert main(["filter", str(scored_jsonl), "--method", method, "--output-dir", str(out)]) == 0
    report = (out / "filter_report.csv").read_text(encoding="utf-8").splitlines()
    assert report[1].split(",")[0] == method
    assert report[1].split(",")[-1] == cutoff


@pytest.mark.parametrize("method", ["absolute", "normalized"])
def test_filter_nan_cutoff_exits_2(scored_jsonl, tmp_path, caplog, method):
    out = tmp_path / "out"
    argv = ["filter", str(scored_jsonl), "--method", method, "--cutoff", "nan"]
    assert main([*argv, "--output-dir", str(out)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "ConfigError" in errors[0] and "cutoff" in errors[0]
    assert not list(out.glob("*.filtered.jsonl")) and not (out / "filter_report.csv").exists()


# --- logging environment -----------------------------------------------------


def test_log_level_env_var(tmp_path, monkeypatch):
    manifest = tmp_path / "tiny.manifest"
    write_manifest(manifest, small_file_spec(9, n_utts=2))
    monkeypatch.setenv("ANCHOR_ALIGN_LOG", "debug")
    assert main(["synth", "--manifest", str(manifest), "--output-dir", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("ANCHOR_ALIGN_LOG", "nonsense")
    assert main(["synth", "--manifest", str(manifest), "--output-dir", str(tmp_path / "b")]) == 0
