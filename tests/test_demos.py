"""Every narrative demo runs to completion.

Each script runs from a copy in a temporary directory, so files a demo
writes next to itself (the maze demo's PGM and CSV outputs) never land in
demos/.
"""

import glob
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    script = shutil.copy(demo, tmp_path)
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
