"""The demo scripts run as written and reproduce their recorded CSV output."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of every CSV a demo writes next to itself; the others write none
WRITTEN = {
    "04_group_size_sweep.py": {
        "group_size_sweep.csv": "9ae501f0261eae9028388d4cc7713f80f4e8fc15f4f8635b82015acfad162ed8",
        "group_size_sweep.csv.summary.csv": "94b32a015d02e318b978562c178d96d8638ecc6327667757907a41b75bf008bc",
    },
    "05_memory_tracking.py": {
        "memory_tracking.csv": "6e49a03f555a0e3b964740357b81b0d21b85bca54b925ecbae71148e1ec3eb25",
        "memory_tracking.csv.summary.csv": "213bc31d595459702c787395019170ed441c7fc2a7061232cba99aa8aa014b78",
    },
}


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_and_reproduces_its_csv(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == WRITTEN.get(demo.name, {})
