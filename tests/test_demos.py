"""Every demo runs to completion against this checkout's package.

The demos call the public API the way a user would, so a renamed or deleted
function that a demo still uses fails here instead of in a reader's hands.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spp

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    src = str(Path(spp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    scratch = tmp_path / "tmp"  # the demo's temporary directory, which it must remove
    scratch.mkdir()
    env["TMPDIR"] = str(scratch)
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=300, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert list(scratch.iterdir()) == []
