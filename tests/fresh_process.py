"""Fresh Python processes, for the tests that need a clean interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import paulicloner

SRC = str(Path(paulicloner.__file__).resolve().parents[1])
# The BLAS thread settings the CLI reads.  A child gets none of them unless its
# test passes one, so that it sees the CLI's own default.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def python_env(**env: str) -> dict:
    """A fresh interpreter's environment: the package first on the path, the
    caller's environment less THREAD_VARIABLES, then ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    path = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**base, "PYTHONPATH": path, **env}


def run_python(*args: str, **env: str) -> str:
    """Standard output of ``python *args``, which must exit 0, run in
    ``python_env(**env)``."""
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=python_env(**env),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
