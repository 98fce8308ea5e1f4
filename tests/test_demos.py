"""Every demo runs to the end.

The demos are scripts; 05 and 06 write their CSV and SVG files into the
working directory, so each runs in a fresh temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weaksparse

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
_SRC = str(Path(weaksparse.__file__).resolve().parent.parent)


def test_all_six_demos_are_found():
    assert len(_DEMOS) == 6


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
