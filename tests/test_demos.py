import os
import subprocess
import sys
from pathlib import Path

import pytest

import girardlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_four_demos_are_collected():
    assert [d.name for d in DEMOS] == [
        "colored_digraphs.py",
        "involution_tour.py",
        "newton_identities.py",
        "power_sums.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_cleanly(demo):
    # the child imports the same girardlab as this process, from any cwd
    src = str(Path(girardlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
