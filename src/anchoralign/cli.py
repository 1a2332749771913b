"""Command-line interface: batch alignment, filtering, stats, synthesis.

Subcommands:
  align   align a directory of posterior files against transcripts
  filter  filter alignment jsonl by segment score
  stats   score histogram and recovery table from alignment jsonl
  synth   render a synthetic corpus file from a manifest

Every align option can come from a flat `key = value` config file
(--config); command-line flags win over the file. Log verbosity is set by
the ANCHOR_ALIGN_LOG environment variable (quiet, info, debug).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field

from ._lazy import np
from .aligner import (
    AlignmentRun,
    AlignParams,
    align_file,
    check_knobs,
    frames_to_seconds,
    knob,
)
from .errors import AlignmentFormatError, AnchorAlignError, ConfigError
from .filters import (
    ABSOLUTE_CUTOFF,
    CHEBYSHEV_WORST_FRACTION,
    HISTOGRAM_BIN_WIDTH,
    HISTOGRAM_FLOOR,
    NORMALIZED_CUTOFF,
    filter_absolute,
    filter_chebyshev,
    filter_normalized,
    recovery_stats,
    score_histogram,
    write_filter_report_csv,
    write_histogram_csv,
    write_recovery_csv,
)
from .posterior_io import (
    SpeechRegions,
    Vocab,
    _atomic_write_text,
    apply_speech_regions,
    identity_frame_map,
    load_posteriors,
    load_regions,
    load_vocab,
    save_posteriors,
    save_regions,
    save_vocab,
)
from .synthdata import (
    default_spanish_vocab,
    parse_manifest,
    synth_posteriors,
    write_ground_truth,
)
from .textprep import MAX_WORDS_PER_UTT, estimate_time_refs, load_utterances
from .trellis import SCORE_REF_S, UtteranceAlignment, share_cpus

log = logging.getLogger("anchoralign.cli")

POSTERIOR_SUFFIX = ".ctcp"
TRANSCRIPT_SUFFIX = ".txt"
REGIONS_SUFFIX = ".regions"
OUTPUT_FORMATS = ("jsonl", "ctm", "segments")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _parse_formats(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    for part in parts:
        if part not in OUTPUT_FORMATS:
            raise ConfigError(
                f"unknown output format {part!r}; expected subset of {OUTPUT_FORMATS}"
            )
    if not parts:
        raise ConfigError("formats must name at least one output format")
    return parts


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one align run (defaults < config file < flags).

    Every field here and in AlignParams is one config key and one flag (see
    _settings); out-of-range values raise ConfigError at construction.
    """

    posterior_dir: str = knob("", "directory of .ctcp files")
    transcript_dir: str = knob("", "directory of .txt transcripts")
    regions_dir: str = knob("", "optional directory of .regions speech-region files")
    vocab: str = knob("", "vocabulary file (index<TAB>symbol plus directives)")
    output_dir: str = knob("", "where outputs are written")
    formats: tuple[str, ...] = knob(
        OUTPUT_FORMATS, "comma-separated subset of jsonl,ctm,segments", parse=_parse_formats
    )
    workers: int = knob(1, "parallel file workers", at_least=1)
    pass_id: int = knob(1, "pass number recorded in jsonl rows", key="pass")
    max_words: int = knob(MAX_WORDS_PER_UTT, "words per utterance cap", at_least=1)
    max_gap_s: float = knob(
        30.0, "non-speech gaps longer than this many seconds are compressed away", at_least=0
    )
    align: AlignParams = field(default_factory=AlignParams)

    def __post_init__(self) -> None:
        check_knobs(self)


def _settings() -> list[dataclasses.Field]:
    """Every align setting in flag order, with AlignParams spliced in at `align`."""
    out: list[dataclasses.Field] = []
    for f in dataclasses.fields(RunConfig):
        out.extend(dataclasses.fields(AlignParams) if f.name == "align" else [f])
    return out


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


def _parser_of(f: dataclasses.Field):
    return f.metadata.get("parse", type(f.default))


def parse_config_file(path: str | os.PathLike) -> dict[str, object]:
    """Parse a flat `key = value` config file into setting field values."""
    settings = {_key(f): f for f in _settings()}
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in settings:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            f = settings[key]
            try:
                values[f.name] = _parser_of(f)(val.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (flags win) into a RunConfig."""
    values = parse_config_file(args.config) if args.config else {}
    for f in _settings():
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            values[f.name] = flag_val
    align_names = [f.name for f in dataclasses.fields(AlignParams) if f.name in values]
    align = AlignParams(**{name: values.pop(name) for name in align_names})
    cfg = RunConfig(align=align, **values)
    for required in ("posterior_dir", "transcript_dir", "vocab", "output_dir"):
        if not getattr(cfg, required):
            raise ConfigError(f"missing required setting: {required}")
    return cfg


def _list_file_ids(posterior_dir: str) -> list[str]:
    ids = []
    for name in sorted(os.listdir(posterior_dir)):
        if name.endswith(POSTERIOR_SUFFIX):
            ids.append(name[: -len(POSTERIOR_SUFFIX)])
    return ids


def _jsonl_record(aln: UtteranceAlignment, text: str, pass_id: int) -> dict:
    return {
        "file_id": aln.file_id,
        "utt_index": aln.utt_index,
        "text": text,
        "start_s": round(float(aln.start_s), 3),
        "end_s": round(float(aln.end_s), 3),
        "s_seg": float(aln.s_seg),
        "s_seg_norm": float(aln.s_seg_norm),
        "penalized": bool(aln.penalized),
        "accepted": True,  # run.utterances holds only accepted batches
        "anchor": bool(aln.anchor),
        "pass": pass_id,
    }


@dataclass(frozen=True)
class AlignmentRow:
    """One alignment jsonl row as filter and stats read it; filter writes line back as is."""

    file_id: str
    s_seg: float
    duration_s: float
    end_s: float
    line: str


def load_alignment_jsonl(path: str | os.PathLike) -> list[AlignmentRow]:
    """Load the rows of an alignment jsonl file; blank lines are skipped.

    Each row must be a JSON object with a string file_id and finite numbers
    s_seg, start_s and end_s, with end_s after start_s; any other row raises
    AlignmentFormatError naming path:line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise AlignmentFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line, parse_int=float)  # a huge integer reads as inf
        except json.JSONDecodeError:
            rec = None
        fields = rec if isinstance(rec, dict) else {}
        file_id = fields.get("file_id")
        s_seg, start_s, end_s = (fields.get(key) for key in ("s_seg", "start_s", "end_s"))
        if not (
            isinstance(file_id, str)
            and all(type(v) is float and math.isfinite(v) for v in (s_seg, start_s, end_s))
            and end_s > start_s
        ):
            raise AlignmentFormatError(
                f"{path}:{lineno}: expected a JSON object with a string file_id and finite"
                f" numbers s_seg, start_s < end_s; got {line[:80]!r}"
            )
        rows.append(AlignmentRow(file_id, s_seg, end_s - start_s, end_s, line))
    return rows


def write_alignment_jsonl(path: str, run: AlignmentRun, texts: dict[int, str], pass_id: int) -> None:
    lines = [
        json.dumps(_jsonl_record(a, texts[a.utt_index], pass_id), ensure_ascii=False, allow_nan=False)
        for a in run.utterances
    ]
    _atomic_write_text(path, "".join(line + "\n" for line in lines))


def write_ctm(path: str, run: AlignmentRun, texts: dict[int, str]) -> None:
    lines = []
    for a in run.utterances:
        dur = float(a.end_s) - float(a.start_s)
        lines.append(
            f"{a.file_id} 1 {a.start_s:.3f} {dur:.3f} {texts[a.utt_index]} {math.exp(a.s_seg):.6f}"
        )
    _atomic_write_text(path, "".join(line + "\n" for line in lines))


def write_segments(path: str, run: AlignmentRun) -> None:
    lines = [
        f"{a.file_id}-{a.utt_index:04d} {a.file_id} {a.start_s:.3f} {a.end_s:.3f}"
        for a in run.utterances
    ]
    _atomic_write_text(path, "".join(line + "\n" for line in lines))


def _align_one(job: tuple[str, RunConfig, Vocab]) -> dict:
    """Align a single posterior/transcript pair and write its outputs.

    Runs in a worker process; returns a picklable summary so the parent can
    assemble the corpus iteration log deterministically.
    """
    file_id, cfg, vocab = job
    try:
        posterior_path = os.path.join(cfg.posterior_dir, file_id + POSTERIOR_SUFFIX)
        transcript_path = os.path.join(cfg.transcript_dir, file_id + TRANSCRIPT_SUFFIX)
        pm = load_posteriors(posterior_path, vocab=vocab)
        regions_path = (
            os.path.join(cfg.regions_dir, file_id + REGIONS_SUFFIX) if cfg.regions_dir else ""
        )
        if regions_path and os.path.exists(regions_path):
            regions = load_regions(regions_path)
            pm, frame_map = apply_speech_regions(pm, regions, max_gap_s=cfg.max_gap_s)
        else:
            frame_map = identity_frame_map(pm.n_frames)
        utts = load_utterances(transcript_path, vocab, max_words=cfg.max_words)
        utts = estimate_time_refs(utts, pm.duration_s)
        run = align_file(pm, utts, vocab, cfg.align, file_id=file_id)
        run = frames_to_seconds(run, frame_map)
        texts = {u.utt_index: u.text for u in utts}
        if "jsonl" in cfg.formats:
            write_alignment_jsonl(
                os.path.join(cfg.output_dir, file_id + ".align.jsonl"), run, texts, cfg.pass_id
            )
        if "ctm" in cfg.formats:
            write_ctm(os.path.join(cfg.output_dir, file_id + ".ctm"), run, texts)
        if "segments" in cfg.formats:
            write_segments(os.path.join(cfg.output_dir, file_id + ".segments"), run)
        log_lines = [
            f"{file_id} window_start={ws} window_len={wl} n_utts={n} outcome={outcome}"
            for ws, wl, n, outcome in run.iterations_log
        ]
        return {
            "file_id": file_id,
            "error": None,
            "log_lines": log_lines,
            "aligned": len(run.utterances),
            "skipped": len(run.skipped),
        }
    except (AnchorAlignError, OSError, UnicodeDecodeError) as exc:
        return {"file_id": file_id, "error": f"{type(exc).__name__}: {exc}"}


def cmd_align(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    vocab = load_vocab(cfg.vocab)
    os.makedirs(cfg.output_dir, exist_ok=True)
    file_ids = _list_file_ids(cfg.posterior_dir)
    if not file_ids:
        log.warning("no %s files in %s", POSTERIOR_SUFFIX, cfg.posterior_dir)
        return 0
    paired = []
    for file_id in file_ids:
        transcript = os.path.join(cfg.transcript_dir, file_id + TRANSCRIPT_SUFFIX)
        if os.path.exists(transcript):
            paired.append(file_id)
        else:
            log.warning("skipping %s: no transcript %s", file_id, transcript)
    if not paired:
        log.warning("no posterior/transcript pairs to align")
        return 0
    jobs = [(file_id, cfg, vocab) for file_id in paired]
    # numpy's lazy import runs here, once: forked workers share the parent's
    # copy, and no file's posterior load pays for it
    np.ndarray
    if cfg.workers > 1:
        # the module's __getattr__ imports multiprocessing only here
        pool_size = min(cfg.workers, len(jobs))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=pool_size, initializer=share_cpus, initargs=(pool_size,)
        ) as pool:
            results = list(pool.map(_align_one, jobs))
    else:
        results = [_align_one(job) for job in jobs]
    log_lines: list[str] = []
    failures = 0
    for res in results:
        if res["error"] is not None:
            failures += 1
            log.error("%s failed: %s", res["file_id"], res["error"])
            continue
        log_lines.extend(res["log_lines"])
        log.info(
            "%s: aligned %d utterances, skipped %d", res["file_id"], res["aligned"], res["skipped"]
        )
    _atomic_write_text(
        os.path.join(cfg.output_dir, "iterations.log"),
        "".join(line + "\n" for line in log_lines),
    )
    return 2 if failures else 0


def _filtered_name(path: str) -> str:
    """The file name filter writes an input's kept rows to: a trailing
    .jsonl becomes .filtered.jsonl, any other name gains .filtered.jsonl."""
    name = os.path.basename(path)
    return name.removesuffix(".jsonl") + ".filtered.jsonl"


def cmd_filter(args: argparse.Namespace) -> int:
    input_of: dict[str, str] = {}
    for path in args.inputs:
        name = _filtered_name(path)
        if name in input_of:
            raise ConfigError(
                f"inputs {input_of[name]} and {path} would both be written to {name}"
            )
        input_of[name] = path
    os.makedirs(args.output_dir, exist_ok=True)
    per_file = [(name, load_alignment_jsonl(path)) for name, path in input_of.items()]
    everything = [row for _, rows in per_file for row in rows]
    cutoff = {} if args.cutoff is None else {"cutoff": args.cutoff}
    if args.method == "absolute":
        kept, report = filter_absolute(everything, **cutoff)
    elif args.method == "chebyshev":
        kept, report = filter_chebyshev(everything, worst_fraction=args.worst_fraction)
    else:
        kept, report = filter_normalized(everything, ref_s=args.ref_s, **cutoff)
    kept_rows = set(kept)
    for name, rows in per_file:
        lines = [row.line for row in rows if row in kept_rows]
        _atomic_write_text(os.path.join(args.output_dir, name), "".join(l + "\n" for l in lines))
    write_filter_report_csv(os.path.join(args.output_dir, "filter_report.csv"), [report])
    log.info(
        "%s filter kept %d/%d rows (cutoff %.6f)",
        report.method,
        report.kept_count,
        report.input_count,
        report.cutoff,
    )
    return 0


def _load_split_map(path: str) -> dict[str, str]:
    splits: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected `file_id,split`")
            splits[parts[0].strip()] = parts[1].strip()
    return splits


def cmd_stats(args: argparse.Namespace) -> int:
    os.makedirs(args.output_dir, exist_ok=True)
    rows = [row for path in args.inputs for row in load_alignment_jsonl(path)]
    if args.filtered:
        kept = [row for path in args.filtered for row in load_alignment_jsonl(path)]
    else:
        kept = rows
    # the jsonl does not carry the audio length; a file's latest end stands in for it
    total_s: dict[str, float] = {}
    for row in rows:
        total_s[row.file_id] = max(total_s.get(row.file_id, row.end_s), row.end_s)
    split_of = _load_split_map(args.split_map) if args.split_map else None
    hist = score_histogram(rows, bin_width=args.bin_width, floor=args.floor)
    write_histogram_csv(os.path.join(args.output_dir, "histogram.csv"), hist)
    table = recovery_stats(total_s, rows, kept, split_of=split_of)
    write_recovery_csv(os.path.join(args.output_dir, "recovery.csv"), table)
    log.info("stats over %d rows (%d kept) from %d files", len(rows), len(kept), len(total_s))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    os.makedirs(args.output_dir, exist_ok=True)
    vocab = load_vocab(args.vocab) if args.vocab else default_spanish_vocab()
    spec = parse_manifest(args.manifest)
    pm, truths = synth_posteriors(spec, vocab)
    file_id = args.file_id
    if not file_id:
        file_id = os.path.splitext(os.path.basename(args.manifest))[0]
    save_posteriors(os.path.join(args.output_dir, file_id + POSTERIOR_SUFFIX), pm)
    caption_lines = [
        f"{u.start_s:.3f} {u.end_s:.3f} {u.text}" for u in spec.utterances
    ]
    _atomic_write_text(
        os.path.join(args.output_dir, file_id + TRANSCRIPT_SUFFIX),
        "".join(line + "\n" for line in caption_lines),
    )
    save_regions(
        os.path.join(args.output_dir, file_id + REGIONS_SUFFIX),
        SpeechRegions(regions=tuple((u.start_s, u.end_s) for u in spec.utterances)),
    )
    write_ground_truth(os.path.join(args.output_dir, file_id + ".truth.tsv"), truths)
    if args.write_vocab:
        save_vocab(args.write_vocab, vocab)
    log.info(
        "synthesized %s: %d frames, %d utterances", file_id, pm.n_frames, len(spec.utterances)
    )
    return 0


def _add_align_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("align", help="align posterior files against transcripts")
    p.add_argument("--config", help="flat key = value config file; flags win")
    for f in _settings():
        shown = ",".join(f.default) if isinstance(f.default, tuple) else f.default
        p.add_argument(
            "--" + _key(f).replace("_", "-"),
            dest=f.name,
            type=_parser_of(f),
            help=f.metadata["help"] + (f" (default {shown})" if shown != "" else ""),
        )
    p.set_defaults(func=cmd_align)


def _add_filter_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("filter", help="filter alignment jsonl by segment score")
    p.add_argument("inputs", nargs="+", help="alignment jsonl files")
    p.add_argument(
        "--method",
        choices=("absolute", "chebyshev", "normalized"),
        default="absolute",
        help="cutoff rule (default absolute)",
    )
    p.add_argument(
        "--cutoff",
        type=float,
        help=f"score cutoff (default {ABSOLUTE_CUTOFF} for absolute,"
        f" {NORMALIZED_CUTOFF} for normalized)",
    )
    p.add_argument(
        "--worst-fraction",
        dest="worst_fraction",
        type=float,
        default=CHEBYSHEV_WORST_FRACTION,
        help=f"chebyshev tail bound on the removed fraction (default {CHEBYSHEV_WORST_FRACTION})",
    )
    p.add_argument(
        "--score-ref-s",
        dest="ref_s",
        metavar="SCORE_REF_S",
        type=float,
        default=SCORE_REF_S,
        help=f"reference duration for the normalized method (default {SCORE_REF_S})",
    )
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.set_defaults(func=cmd_filter)


def _add_stats_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("stats", help="score histogram and recovery table")
    p.add_argument("inputs", nargs="+", help="alignment jsonl files")
    p.add_argument(
        "--filtered",
        nargs="*",
        help="filtered jsonl files; omitted means nothing was filtered out",
    )
    p.add_argument(
        "--split-map",
        dest="split_map",
        help="csv of file_id,split rows for per-split recovery",
    )
    p.add_argument("--bin-width", dest="bin_width", type=float, default=HISTOGRAM_BIN_WIDTH)
    p.add_argument("--floor", type=float, default=HISTOGRAM_FLOOR, help="lowest histogram bin edge")
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.set_defaults(func=cmd_stats)


def _add_synth_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("synth", help="render synthetic posteriors from a manifest")
    p.add_argument("--manifest", required=True, help="synthesis manifest file")
    p.add_argument("--vocab", help="vocabulary file (default: built-in Spanish charset)")
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.add_argument("--file-id", dest="file_id", help="output basename (default: manifest stem)")
    p.add_argument(
        "--write-vocab",
        dest="write_vocab",
        help="also save the vocabulary used to this path",
    )
    p.set_defaults(func=cmd_synth)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchoralign",
        description="Anchor-based forced alignment of long audio against imperfect transcripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_align_parser(sub)
    _add_filter_parser(sub)
    _add_stats_parser(sub)
    _add_synth_parser(sub)
    return parser


def _setup_logging() -> None:
    name = os.environ.get("ANCHOR_ALIGN_LOG", "info").strip().lower()
    level = _LOG_LEVELS.get(name)
    if level is None:
        level = logging.INFO
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    if name not in _LOG_LEVELS:
        log.warning("unknown ANCHOR_ALIGN_LOG value %r; using info", name)


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AnchorAlignError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 2
    except UnicodeDecodeError as exc:
        log.error("input file is not UTF-8 text: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
