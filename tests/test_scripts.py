"""Smoke test of the reproduce scripts and of the README's examples: each
script, and each `python` block of README.md, runs to exit 0 in a fresh
interpreter, with the package taken from the checkout's `src/`."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_snippet

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("reproduce_*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_all_four_found():
    assert [s.name for s in SCRIPTS] == [
        "reproduce_intro.py",
        "reproduce_lorenz.py",
        "reproduce_lotka_volterra.py",
        "reproduce_toy.py",
    ]


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.stem for s in SCRIPTS])
def test_runs(script, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the scripts write their outputs under out/ relative to the working directory
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_readme_has_an_example():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    done = run_snippet(block, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
