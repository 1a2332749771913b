"""The README's library example and every demo script run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import small_file_spec

import anchoralign
from anchoralign import write_manifest
from anchoralign.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(argv, cwd):
    env = dict(os.environ)
    src = str(Path(anchoralign.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_readme_library_example(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    assert len(blocks) == 1
    manifest = tmp_path / "talk.manifest"
    spec = small_file_spec(11, n_utts=3)
    write_manifest(manifest, spec)
    argv = ["synth", "--manifest", str(manifest), "--output-dir", str(tmp_path)]
    assert main([*argv, "--write-vocab", str(tmp_path / "vocab.txt")]) == 0
    (tmp_path / "example.py").write_text(blocks[0], encoding="utf-8")
    proc = _run_python(["example.py"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(None, 3)[3] for line in lines] == [u.text for u in spec.utterances]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
