"""The byte pins hold at 1 and at 2 BLAS threads.

Each case runs every ``test_config_bytes`` case in a child process whose
own environment sets ``OPENBLAS_NUM_THREADS``, and compares the digests with
``DIGESTS``.  The perfbench workloads stay out: the d = 100 Hessians of
``quad-baselines`` depend on the thread count, so its bytes differ between
1 and 2 threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_config_bytes import CASES, DIGESTS

TESTS = Path(__file__).resolve().parent
CHILD = "import json, test_config_bytes as t; print(json.dumps([t.run_digests(*case) for case in t.CASES]))"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_config_bytes_at_blas_threads(threads):
    path = [str(TESTS.parent / "src"), str(TESTS)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert dict(zip(CASES, map(tuple, json.loads(child.stdout)))) == DIGESTS
