"""Every CLI output of the benchmark's workloads at seeds 1-3 matches the
digests that ``tests/workload_outputs.py`` pins.  The script runs in an
interpreter of its own, since ``perfbench/`` on ``sys.path`` would shadow
``tests/oracle.py`` here."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "workload_outputs.py"


def test_workload_outputs_match_their_digests():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
