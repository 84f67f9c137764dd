"""Every output of uprop, bit for bit: the identity digest as a test.

Runs ``studies/identity_digest.py --expect`` against the digest recorded
on the last line of ``studies/identity_digest.txt``, in a fresh process
on one BLAS thread (about 2 s). On a mismatch the script names the first
entry that moved. The digest hashes the bits of floats, so it is
specific to the numpy and OpenBLAS build it was recorded on (numpy 2.4,
scipy-openblas 0.3.31); another build may round a product differently
and must record its own digest before this test means anything there.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "studies" / "identity_digest.py"


def test_outputs_match_the_recorded_identity_digest():
    expected = SCRIPT.with_suffix(".txt").read_text().split()[-1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(SCRIPT), "--expect", expected],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
