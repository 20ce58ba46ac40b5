"""The export list resolves, and the module examples and the demo scripts stay runnable."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdlab
import sdlab.polyring
import sdlab.semigroup

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_export_list_resolves():
    names = sdlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sdlab, name)] == []


def test_polyring_doctests():
    result = doctest.testmod(sdlab.polyring)
    assert result.failed == 0
    assert result.attempted >= 3


def test_semigroup_doctests():
    result = doctest.testmod(sdlab.semigroup)
    assert result.failed == 0
    assert result.attempted >= 3


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
