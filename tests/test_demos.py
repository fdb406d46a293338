"""The demos print what they printed when these digests were recorded.

Each demo runs in its own interpreter; the sha256 covers its stdout
followed by its stderr, so any change in a printed number shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_block_winners.py":
        "94aff59300c91b11b9822cbbc4fd95ecf47ab9d9ce1490057229258e8e002d1f",
    "02_expansion_oracle.py":
        "e3090adeee1789d3f86dcef13e04a5fc4a15b539a874d53e52c720d514c0151b",
    "03_heads_and_speeds.py":
        "9d60736e46cb9ddd1917556c943b358717e0b97ec8e4397887b9901c739715bc",
    "04_averaging_combinator.py":
        "aa654a09824c7268b1a0d4d21446e225babe17336d5976d7b4d0a99f96ecf8d8",
    "05_sweep_and_instability.py":
        "f2d6677bc44f0244b35e8fed1b0d50ce1d5068b70ab613a6969669654bcc3b77",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, cwd=tmp_path, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout + proc.stderr).hexdigest() == DIGESTS[name]
