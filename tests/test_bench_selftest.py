"""Run ``bench/selftest.py``: every workload's tiny variant, untraced and
traced, through the benchmark's own command line.

The untraced pass is the path the benchmark times, with its check that each
pass's checksums agree; no other test reaches it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    out = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
