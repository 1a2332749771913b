"""The README's library example, every demo script and the public names work as
written, and the package keeps its text-file rules in one place."""

import ast
import importlib
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


def test_every_public_name_resolves_once():
    names = anchoralign.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from anchoralign import *", namespace)  # a stale name raises AttributeError here
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(names)


def test_each_public_name_is_its_defining_module_object():
    # each name is read lazily, from the one module the package's table names for it
    for module_name, names in anchoralign._EXPORTS.items():
        module = importlib.import_module(f"anchoralign.{module_name}")
        for name in names:
            value = getattr(anchoralign, name)
            assert value is getattr(module, name), name
            if callable(value):  # a constant carries no module to check
                assert value.__module__ == module.__name__, name
    assert anchoralign.compute_trellis is anchoralign.trellis.compute_trellis
    assert set(anchoralign.__all__) <= set(dir(anchoralign))


def test_an_unknown_public_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        anchoralign.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from anchoralign import no_such_name", {})


def test_a_bare_import_loads_only_leaf_modules():
    code = "import sys, anchoralign; print(*sorted(m for m in sys.modules if 'anchoralign.' in m))"
    proc = _run_python(["-c", code], ROOT)
    assert proc.returncode == 0, proc.stderr
    leaves = {"anchoralign.common", "anchoralign.errors"}
    assert set(proc.stdout.split()) <= leaves


def _text_mode_opens(path):
    """Line numbers of the `open(` calls in a source file whose mode, the second
    argument or `mode=`, is not a string constant holding "b"."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if not (modes and isinstance(modes[0], ast.Constant) and "b" in modes[0].value):
                lines.append(node.lineno)
    return lines


def test_every_text_input_is_opened_by_the_one_line_reader():
    # common._lines decides how a text file is decoded, split and numbered; a
    # second text-mode open would be a second, diverging rule
    package = ROOT / "src" / "anchoralign"
    opens = {p.name: lines for p in sorted(package.glob("*.py")) if (lines := _text_mode_opens(p))}
    assert list(opens) == ["common.py"] and len(opens["common.py"]) == 1, opens
    reader = next(
        node
        for node in ast.parse((package / "common.py").read_text("utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "_lines"
    )
    assert reader.lineno <= opens["common.py"][0] <= reader.end_lineno
