"""What ``import bspapa`` loads: scipy only for LAPACK, never scipy.signal or scipy.stats."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_scipy_signal_nor_scipy_stats():
    # a fresh interpreter: the test process itself has imported scipy.signal as a reference
    probe = (
        "import sys, bspapa\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))\n"
        "print(bspapa.__file__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    loaded, origin = done.stdout.splitlines()
    assert Path(origin).resolve().is_relative_to(SRC)
    assert loaded == "[]"
