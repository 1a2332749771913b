"""Correctness gate and truth-based quality for one set of align outputs."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from anchoralign import load_ground_truth

from workloads import FRAME_S, Inputs

BOUNDARY_TOL_S = 0.2  # the acceptance suite's boundary tolerance
FLAG_SCORE = -2.0  # acceptance guarantee 4: a wrong line is flagged when skipped or below this


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    failed_files: int = 0
    clean: int = 0  # utterances whose transcript text matches the audio
    recovered: int = 0  # ... of which both boundaries are within BOUNDARY_TOL_S of the truth
    wrong: int = 0
    flagged: int = 0


def _iteration_counts(log_path: str) -> dict[str, tuple[int, int]]:
    """file_id -> (accepted utterances, skipped utterances) from iterations.log."""
    counts: dict[str, tuple[int, int]] = {}
    with open(log_path, encoding="utf-8") as fh:
        for line in fh:
            file_id, *_, outcome = line.split()
            accepted, skipped = counts.get(file_id, (0, 0))
            outcome = outcome.removeprefix("outcome=")
            if outcome.startswith("accepted:"):
                accepted += int(outcome.split(":")[1])
            elif outcome == "skip":
                skipped += 1
            counts[file_id] = (accepted, skipped)
    return counts


def check_alignment(inputs: Inputs, align_dir: str) -> Verdict:
    """Every utterance aligned or skipped exactly once, spans ordered, scores finite."""
    v = Verdict()
    log_path = os.path.join(align_dir, "iterations.log")
    if not os.path.exists(log_path):
        v.failed_files = len(inputs.files)
        v.problems.append("align wrote no iterations.log")
        return v
    counts = _iteration_counts(log_path)
    for f in inputs.files:
        jsonl = os.path.join(align_dir, f.file_id + ".align.jsonl")
        if not os.path.exists(jsonl):
            v.failed_files += 1
            v.problems.append(f"{f.file_id}: no alignment output")
            continue
        with open(jsonl, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        accepted, skipped = counts.get(f.file_id, (0, 0))
        if accepted != len(rows) or accepted + skipped != f.n_utts:
            v.problems.append(
                f"{f.file_id}: {len(rows)} rows, log says {accepted} accepted + {skipped}"
                f" skipped, transcript has {f.n_utts} utterances"
            )
        indices = [r["utt_index"] for r in rows]
        if indices != sorted(set(indices)) or not all(0 <= i < f.n_utts for i in indices):
            v.problems.append(f"{f.file_id}: utterance indices not unique and ordered")
        for a, b in zip(rows, rows[1:]):
            if b["start_s"] < a["end_s"]:
                v.problems.append(
                    f"{f.file_id}: utterances {a['utt_index']} and {b['utt_index']} overlap"
                )
        for r in rows:
            if not r["start_s"] < r["end_s"]:
                v.problems.append(f"{f.file_id}: utterance {r['utt_index']} has an empty span")
            if not (math.isfinite(r["s_seg"]) and math.isfinite(r["s_seg_norm"])):
                v.problems.append(f"{f.file_id}: utterance {r['utt_index']} score not finite")
        _score_quality(v, f, rows, os.path.join(inputs.data_dir, f.file_id + ".truth.tsv"))
    return v


def _score_quality(v: Verdict, f, rows: list[dict], truth_path: str) -> None:
    by_index = {r["utt_index"]: r for r in rows}
    for i, start_f, end_f in load_ground_truth(truth_path):
        row = by_index.get(i)
        if i in f.wrong:
            v.wrong += 1
            v.flagged += row is None or row["s_seg"] < FLAG_SCORE
        else:
            v.clean += 1
            v.recovered += (
                row is not None
                and abs(row["start_s"] - start_f * FRAME_S) <= BOUNDARY_TOL_S + 1e-9
                and abs(row["end_s"] - (end_f + 1) * FRAME_S) <= BOUNDARY_TOL_S + 1e-9
            )


def tree_digest(*dirs: str) -> str:
    """sha256 over the relative paths and bytes of every file under dirs."""
    h = hashlib.sha256()
    for k, top in enumerate(dirs):
        h.update(f"{k}\0".encode())
        for root, subdirs, names in os.walk(top):
            subdirs.sort()
            for name in sorted(names):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
