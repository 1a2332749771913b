"""Alignment benchmark: seeded workloads through anchoralign's command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes the workload's inputs for the seed (see workloads.py),
then runs the workload's CLI commands (`align`, plus `filter` and `stats`
where the workload lists them) again and again until S seconds have passed.
The load is a closed loop: one command at a time, each in a fresh
interpreter that imports anchoralign from this checkout's src/, so start-up
and peak RSS are paid per command as a user pays them.

Every set of commands must pass the correctness gate in checks.py, and its
outputs must be byte-identical to the first set's; a workload run with more
than one worker is also run once, untimed, with --workers 1 and must give
the same alignment outputs. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json; --trace 1 alternates
untraced and traced sets (traced sets always end with filter and stats, so
every layer is measured on every workload) and reports the per-layer
metrics, including the tracing overhead. A gate violation exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")
SETUP_RUNS = 9
SETUP_CODE = "import anchoralign.cli as cli; cli.build_parser()"
COMMAND_TIMEOUT_S = 150


def _spawn(argv: list[str], env: dict[str, str]) -> tuple[int, str]:
    """Run argv in its own process group, killing the group if it overruns."""
    proc = subprocess.Popen(
        argv,
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err += f"\nkilled after {COMMAND_TIMEOUT_S} s"
    return proc.returncode, err


def time_setup(env: dict[str, str]) -> float:
    start = time.perf_counter()
    rc, err = _spawn([sys.executable, "-c", SETUP_CODE], env)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"set-up failed: {err.strip()}")
    return elapsed


def cli_commands(inputs, out: str, workers: int, filter_and_stats: bool) -> list[list[str]]:
    align = os.path.join(out, "align")
    data = inputs.data_dir
    commands = [
        ["align", "--posterior-dir", data, "--transcript-dir", data, "--regions-dir", data,
         "--vocab", inputs.vocab_path, "--output-dir", align, "--workers", str(workers)],
    ]
    if filter_and_stats:
        jsonl = [os.path.join(align, f.file_id + ".align.jsonl") for f in inputs.files]
        filtered_dir = os.path.join(out, "filter")
        filtered = [
            os.path.join(filtered_dir, f.file_id + ".align.filtered.jsonl") for f in inputs.files
        ]
        commands += [
            ["filter", *jsonl, "--method", "chebyshev", "--output-dir", filtered_dir],
            ["stats", *jsonl, "--filtered", *filtered, "--output-dir", os.path.join(out, "stats")],
        ]
    return commands


class CommandSet:
    """One pass over a workload's commands, with its gate verdict."""

    def __init__(self, inputs, commands, out, env, trace_dir=None):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
        report_path = out + ".report.json"
        self.wall_s = 0.0
        peak_kb = 0
        problems = []
        for argv in commands:
            if os.path.exists(report_path):
                os.remove(report_path)
            start = time.perf_counter()
            child = [sys.executable, CHILD, report_path, trace_dir or "-", "--", *argv]
            rc, err = _spawn(child, env)
            self.wall_s += time.perf_counter() - start
            if rc != 0:
                problems.append(f"`{argv[0]}` exited with {rc}: {err.strip()[-2000:]}")
            if os.path.exists(report_path):
                with open(report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                peak_kb = max(peak_kb, report["self_maxrss_kb"], report["children_maxrss_kb"])
        self.peak_rss_mb = peak_kb / 1024
        align_dir = os.path.join(out, "align")
        dirs = [os.path.join(out, d) for d in ("align", "filter", "stats")]
        dirs = [d for d in dirs if os.path.isdir(d)]
        self.align_digest = checks.tree_digest(align_dir)
        self.digest = checks.tree_digest(*dirs)
        self.verdict = checks.check_alignment(inputs, align_dir)
        self.verdict.problems[:0] = problems
        self.spans = tracing.load_spans(trace_dir) if trace_dir else []
        self.output_bytes = sum(
            os.path.getsize(os.path.join(root, name))
            for d in dirs
            for root, _, names in os.walk(d)
            for name in names
        )


def _median_metrics(per_set: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_set) for k in per_set[0]}


def _metrics(workload, inputs, setup, plain, traced, failed_frac) -> dict[str, float]:
    if traced:
        untraced_s = statistics.median(s.wall_s for s in plain)
        traced_s = statistics.median(s.wall_s for s in traced)
        metrics = _median_metrics([tracing.summarize(s.spans, workload.workers) for s in traced])
        metrics["trace.untraced_wall_s"] = untraced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        metrics["cli.output_bytes"] = traced[0].output_bytes
        return metrics
    v = plain[0].verdict
    return {
        "x_realtime": statistics.median(inputs.audio_s / s.wall_s for s in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
        "recovered_frac": v.recovered / v.clean,
        "flagged_frac": v.flagged / v.wrong,
        "completed_frac": 1 - failed_frac,
    }


def run(workload, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (gate passed, attempted, failed, metrics, summary)."""
    work = os.path.join(WORK, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.generate(workload, seed, work)
    env = dict(os.environ, PYTHONPATH=SRC, PERFBENCH_SRC=SRC, ANCHOR_ALIGN_LOG="quiet")
    time_setup(env)  # warm-up: byte-compiles the package and fills the page cache
    setup = [time_setup(env) for _ in range(SETUP_RUNS)]
    out = os.path.join(work, "out")
    # traced sets also run filter and stats so that every layer has spans on every workload
    commands = cli_commands(inputs, out, workload.workers, workload.filter_and_stats or trace)
    plain: list[CommandSet] = []
    traced: list[CommandSet] = []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(CommandSet(inputs, commands, out, env))
        if trace:
            traced.append(CommandSet(inputs, commands, out, env, os.path.join(work, "trace")))
        if time.perf_counter() >= deadline or any(s.verdict.problems for s in plain + traced):
            break
    for s in plain[1:] + traced:
        if s.digest != plain[0].digest:
            s.verdict.problems.append("outputs differ from the first run's")
    sets = plain + traced
    if workload.workers > 1:
        one = CommandSet(inputs, cli_commands(inputs, out, 1, False), out, env)
        if one.align_digest != plain[0].align_digest:
            one.verdict.problems.append(
                f"--workers 1 and --workers {workload.workers} outputs differ"
            )
        sets.append(one)
    problems = [p for s in sets for p in s.verdict.problems]
    for p in problems:
        print(f"gate: {p}", file=sys.stderr)
    attempted = len(sets) * len(inputs.files)
    failed = sum(s.verdict.failed_files for s in sets)
    try:
        metrics = _metrics(workload, inputs, setup, plain, traced, failed / attempted)
    except (ArithmeticError, LookupError, ValueError):
        if not problems:
            raise
        metrics = {}  # a failed gate can leave nothing to measure
    def secs(values):
        return " ".join(f"{v:.3f}" for v in values)

    summary = (
        f"{workload.name} seed {seed}: {len(plain)} timed sets, {len(traced)} traced,"
        f" audio {inputs.audio_s:.1f} s in {len(inputs.files)} files,"
        f" outputs sha256 {plain[0].digest}\n"
        f"set wall s: {secs(s.wall_s for s in plain)}; traced: {secs(s.wall_s for s in traced)};"
        f" set-up s: {secs(setup)}"
    )
    if not problems:
        shutil.rmtree(work, ignore_errors=True)
    return not problems, attempted, failed, metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "anchoralign", "cli.py")):
        print(f"error: no anchoralign sources in {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    ok, attempted, failed, values, summary = run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if ok and set(values) != set(units):
        raise SystemExit(
            f"measured metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}"
        )
    print(summary)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units if n in values}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    try:
        import checks
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
