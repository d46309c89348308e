"""Each demo runs end to end on the public API and prints what it printed
when its digest was recorded.

The demos import the package's public names, so a deleted or renamed
export breaks them; this runs each one in a fresh interpreter with
one BLAS thread and pins the SHA-256 of its stdout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "01_acceleration_on_quadratics.py":
        "33d65ff02ffa7cfc5341ba3d6c508690be4d55989d64bfa9ba9a53399a329c07",
    "02_lyapunov_certificates.py":
        "ad967bf73e36bb3a07f7e87b85c30c011284da5201b46a93fa180d9a0a006243",
    "03_high_resolution_ode.py":
        "17d46d7d0ef10dc90e90fa3189c85b1dc62ce368b621d47328714af75b8725ac",
    "04_monotonicity_window.py":
        "4171ca7fe6ff73ca874055dad944e387e3a015d9d48c6cd302b4a1d08de6cb41",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
