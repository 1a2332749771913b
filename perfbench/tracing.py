"""Layer spans around anchoralign's entry points, installed from outside the package.

install() wraps each layer's public functions under the names the calling
module looks them up by (aligner and cli import them into their own
namespaces), so no hook lives inside src/. Counters come from the values the
wrapped calls return: lattice sizes from Trellis.k, window outcomes from
AlignmentRun.iterations_log, token counts from TokenSequence.

Spans are kept in memory and written as JSON lines to one file per process.
Forked pool workers exit without running atexit, so a worker appends its
spans at the end of every file job instead; the main process writes its own
when the command returns. summarize() turns the spans of one traced set of
commands into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
import tracemalloc
from collections import defaultdict

MB = 1 << 20


class Tracer:
    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[dict] = []
        self.stack: list[str] = []  # open span ids; a forked worker inherits the parent's
        self.ids = itertools.count()

    def wrap(self, name, fn, counts=None, flush=False, measure_memory=False):
        """Return fn recording a span per call; counts(args, result) adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:  # first span in a forked worker
                self.pid = os.getpid()
                self.spans = []
            span = {
                "name": name,
                "id": f"{self.pid}:{next(self.ids)}",
                "parent": self.stack[-1] if self.stack else None,
                "pid": self.pid,
            }
            self.stack.append(span["id"])
            if measure_memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            else:
                if counts is not None:
                    span.update(counts(args, result))
            finally:
                span["end"] = time.perf_counter()
                if measure_memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.stack.pop()
                self.spans.append(span)
                if flush and self.pid != self.main_pid:
                    self.flush()
            return result

        return traced

    def flush(self) -> None:
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans = []


def _trellis_counts(args, tr):
    window = args[0]
    return {
        "cells": int(tr.k.size),
        "lattice_bytes": int(tr.k.nbytes),
        # the fill converts its window to float64 before reading it
        "window_bytes": int(window.shape[0] * window.shape[1] * 8),
    }


def _run_counts(args, run):
    outcomes = [outcome for _, win_len, _, outcome in run.iterations_log if win_len > 0]
    return {
        "windows": len(outcomes),
        "grows": outcomes.count("grow"),
        "skips": sum(1 for _, _, _, o in run.iterations_log if o == "skip"),
        "accepts": sum(1 for o in outcomes if o.startswith("accepted")),
    }


def install(trace_dir: str) -> Tracer:
    """Patch every traced entry point; call before anchoralign.cli.main."""
    from anchoralign import aligner, cli, posterior_io

    tracer = Tracer(trace_dir)

    def patch(module, attr, name, **kw):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), **kw))

    patch(cli, "load_posteriors", "posterior_io.load_posteriors", measure_memory=True)
    patch(posterior_io.PosteriorMatrix, "__post_init__", "posterior_io.validate")
    patch(cli, "apply_speech_regions", "posterior_io.apply_speech_regions")
    patch(cli, "load_utterances", "textprep.load_utterances")
    patch(
        aligner,
        "build_token_sequence",
        "textprep.build_token_sequence",
        counts=lambda args, ts: {"tokens": len(ts.tokens)},
    )
    patch(aligner, "compute_trellis", "trellis.compute_trellis", counts=_trellis_counts)
    patch(aligner, "backtrack", "trellis.backtrack")
    patch(aligner, "fragment_scores", "trellis.fragment_scores")
    patch(aligner, "align_window", "aligner.align_window")
    patch(cli, "align_file", "aligner.align_file", counts=_run_counts)
    patch(cli, "frames_to_seconds", "aligner.frames_to_seconds")
    # cmd_* must be patched before build_parser() binds them as subcommand handlers
    for cmd in ("align", "filter", "stats"):
        patch(cli, f"cmd_{cmd}", f"cli.{cmd}")
    patch(cli, "_align_one", "cli.align_one", flush=True)
    for writer in ("write_alignment_jsonl", "write_ctm", "write_segments"):
        patch(cli, writer, f"cli.{writer}")
    for fn in (
        "filter_absolute",
        "filter_chebyshev",
        "filter_normalized",
        "write_filter_report_csv",
        "score_histogram",
        "recovery_stats",
        "write_histogram_csv",
        "write_recovery_csv",
    ):
        patch(cli, fn, f"filters.{fn}")
    return tracer


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _self_s(span: dict, children: list[dict]) -> float:
    """Span duration minus the union of its children's intervals (workers overlap)."""
    covered = 0.0
    reach = span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], reach), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span["end"] - span["start"] - covered


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))]


def summarize(spans: list[dict], workers: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced set of commands."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def total_s(*names: str) -> float:
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def count(name: str, field: str) -> int:
        return sum(s[field] for s in by_name[name] if field in s)

    fills = by_name["trellis.compute_trellis"]
    windows = count("aligner.align_file", "windows")
    accepts = count("aligner.align_file", "accepts")
    files = len(by_name["cli.align_one"])
    fill_s = total_s("trellis.compute_trellis")
    align_s = total_s("cli.align")
    window_ms = [1e3 * (s["end"] - s["start"]) for s in by_name["aligner.align_window"]]
    return {
        "trellis.fill_s": fill_s,
        "trellis.fills": len(fills),
        "trellis.cells": count("trellis.compute_trellis", "cells"),
        "trellis.cells_per_s": count("trellis.compute_trellis", "cells") / fill_s,
        "trellis.bytes_computed": count("trellis.compute_trellis", "lattice_bytes")
        + count("trellis.compute_trellis", "window_bytes"),
        "trellis.lattice_max_mb": max(s.get("lattice_bytes", 0) for s in fills) / MB,
        "trellis.backtrack_s": total_s("trellis.backtrack"),
        "trellis.fragment_scores_s": total_s("trellis.fragment_scores"),
        "aligner.windows": windows,
        "aligner.grows": count("aligner.align_file", "grows"),
        "aligner.skips": count("aligner.align_file", "skips"),
        "aligner.accepts": accepts,
        "aligner.fills_per_window": len(fills) / windows,
        "aligner.useful_fill_ratio": accepts / len(fills),
        "aligner.self_s": sum(
            _self_s(s, children[s["id"]]) for s in by_name["aligner.align_window"]
        ),
        "aligner.window_p50_ms": _percentile(window_ms, 50),
        "aligner.window_p90_ms": _percentile(window_ms, 90),
        "posterior_io.load_s": total_s("posterior_io.load_posteriors"),
        "posterior_io.validate_s": total_s("posterior_io.validate"),
        "posterior_io.validations_per_file": len(by_name["posterior_io.validate"]) / files,
        "posterior_io.load_peak_mb": max(
            s["peak_bytes"] for s in by_name["posterior_io.load_posteriors"]
        )
        / MB,
        "posterior_io.regions_s": total_s("posterior_io.apply_speech_regions"),
        "textprep.load_utterances_s": total_s("textprep.load_utterances"),
        "textprep.build_tokens_s": total_s("textprep.build_token_sequence"),
        "textprep.tokens": count("textprep.build_token_sequence", "tokens"),
        "cli.files": files,
        "cli.align_s": align_s,
        "cli.worker_busy_frac": total_s("cli.align_one") / (workers * align_s),
        "cli.writers_s": total_s(
            "cli.write_alignment_jsonl", "cli.write_ctm", "cli.write_segments"
        ),
        "filters.filter_s": total_s(
            "filters.filter_absolute",
            "filters.filter_chebyshev",
            "filters.filter_normalized",
            "filters.write_filter_report_csv",
        ),
        "filters.stats_s": total_s(
            "filters.score_histogram",
            "filters.recovery_stats",
            "filters.write_histogram_csv",
            "filters.write_recovery_csv",
        ),
    }
