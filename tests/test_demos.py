"""The demo scripts and the README quickstart run as written; the demos reproduce
their recorded CSV output, and demo 03 its printed table."""

import hashlib
import math
import os
import re
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
# sha256 of the stdout of the demos whose printed table is their output
PRINTED = {
    "03_efficient_regressor.py": "36b9388a1c04a1ec2531c938ef79ba24fe590e8d0a954946619e7e80d831e65e",
}


def run_script(script: Path) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter, in its own folder, with ``src`` importable."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=script.parent,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_and_reproduces_its_csv(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    result = run_script(script)
    assert result.returncode == 0, result.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == WRITTEN.get(demo.name, {})
    if demo.name in PRINTED:
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == PRINTED[demo.name], result.stdout


def test_readme_quickstart_runs_as_written(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1, "the README has one python block: the library quickstart"
    script = tmp_path / "quickstart.py"
    script.write_text(blocks[0])
    result = run_script(script)
    assert result.returncode == 0, result.stderr
    misalignment = float(result.stdout.split()[-1])  # the block prints the final misalignment in dB
    assert math.isfinite(misalignment) and misalignment < -20.0, result.stdout
