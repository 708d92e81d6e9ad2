"""Smoke test of scripts/interleaved_ab.py, the A/B timer that every no-gain check relies on."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "interleaved_ab.py"


def _snapshot() -> dict:
    """Modification time of every file and directory of the checkout outside .git."""
    return {p: p.stat().st_mtime_ns for p in ROOT.rglob("*") if ".git" not in p.relative_to(ROOT).parts}


@pytest.mark.parametrize("extra, what", [((), "certify"), (("--setup",), "certify set-up")])
def test_one_rep_of_this_checkout_against_itself(tmp_path, extra, what):
    # Without PYTHONDONTWRITEBYTECODE, so the script's own guard against caches is what is tested.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    before = _snapshot()
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload", "certify", "--reps", "1", *extra],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert re.search(
        rf"^change/parent time over 1 reps of {what} \(seed 0\): median \d+\.\d{{3}}, "
        r"quartiles \d+\.\d{3}-\d+\.\d{3}; change faster in [01]/1; reports identical in 1/1$",
        run.stdout, re.MULTILINE), run.stdout
    assert _snapshot() == before
    assert not any(tmp_path.iterdir())
