"""Run one anchoralign CLI command in a fresh interpreter and report on it.

Usage: python3 child.py REPORT_JSON TRACE_DIR -- CLI_ARGS...

TRACE_DIR "-" runs untraced. The report holds the command's exit code and
the max RSS of this process and of its waited-for children (pool workers).
"""

from __future__ import annotations

import json
import os
import resource
import sys


def main() -> int:
    report_path, trace_dir, dashes, *cli_args = sys.argv[1:]
    if dashes != "--":
        raise SystemExit("usage: child.py REPORT_JSON TRACE_DIR -- CLI_ARGS...")
    import anchoralign.cli

    src = os.environ["PERFBENCH_SRC"]
    if os.path.commonpath([anchoralign.cli.__file__, src]) != src:
        raise SystemExit(f"anchoralign imported from {anchoralign.cli.__file__}, not {src}")
    tracer = None
    if trace_dir != "-":
        import tracing

        tracer = tracing.install(trace_dir)
    rc = anchoralign.cli.main(cli_args)
    if tracer is not None:
        tracer.flush()
    report = {
        "rc": rc,
        "self_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
