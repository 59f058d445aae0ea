"""The README's library examples run against the package as shipped, so
the names the package root exports are the ones the README shows."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(block):
    # a fresh interpreter with only src on the path: the block must need
    # nothing the tests import
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, "-c", block], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
