"""What ``import bspapa`` loads: scipy's LAPACK extension on its own, none of scipy's packages."""

import os
import re
import subprocess
import sys
from importlib.machinery import ModuleSpec
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from bspapa import filters

SRC = Path(__file__).resolve().parents[1] / "src"
# heavy packages that bspapa once pulled in, or that scipy.linalg would
UNLOADED = ("scipy.linalg", "scipy.signal", "scipy.stats", "numpy.f2py", "numpy.testing")


def run_fresh(probe: str) -> list:
    """The stdout lines of ``probe`` run in a fresh interpreter importing bspapa from ``src``;
    the test process itself has imported scipy.linalg and scipy.signal as references."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.splitlines()


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


def test_import_and_solves_load_no_scipy_package():
    # the solves show there is no deferred import on the first (or a failing) solve
    probe = (
        "import sys, bspapa, numpy as np\n"
        f"unloaded = {UNLOADED!r}\n"
        "print(sorted(m for m in unloaded if m in sys.modules))\n"
        "print(bspapa.solve_regularized(np.eye(3), 0.5, np.ones(3)).tolist())\n"
        "try:\n"
        "    bspapa.solve_regularized(np.zeros((2, 2)), 0.0, np.ones(2))\n"
        "except bspapa.SingularSystemError as exc:\n"
        "    print(exc.pivot)\n"
        "print(sorted(m for m in unloaded if m in sys.modules))\n"
        "print(sys.modules['bspapa._flapack'].__file__)\n"
        "print(bspapa.__file__)\n"
    )
    before, solution, pivot, after, extension, origin = run_fresh(probe)
    assert Path(origin).resolve().is_relative_to(SRC)
    assert before == after == "[]"
    assert solution == str([1 / 1.5] * 3) and pivot == "0.0"
    assert Path(extension).parent == Path(lapack.__file__).parent
    assert Path(extension).name.startswith("_flapack.")


def test_the_extension_is_a_module_of_its_own():
    # scipy's namespace is untouched: scipy.linalg loaded a second object over the same file
    assert filters._flapack is not lapack._flapack
    assert filters._flapack.__name__ == "bspapa._flapack"
    assert sys.modules["bspapa._flapack"] is filters._flapack
    assert filters._flapack.__file__ == lapack._flapack.__file__


@pytest.mark.parametrize("installed", [True, False], ids=["without the file", "without scipy"])
def test_a_missing_extension_is_an_import_error_naming_it(monkeypatch, tmp_path, installed):
    scipy = ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]  # holds no linalg/_flapack*.so
    monkeypatch.setattr(filters, "find_spec", lambda name: scipy if installed else None)
    searched = [str(tmp_path / "linalg")] if installed else []
    with pytest.raises(ImportError, match=re.escape(f"LAPACK extension _flapack not found in {searched}")):
        filters._load_flapack()


@pytest.mark.parametrize("order", [8, 16])
def test_lapack_routines_have_the_bits_of_scipy_linalg(order):
    rng = np.random.default_rng(order)
    matrices = [np.asfortranarray(rng.standard_normal((order, order))) for _ in range(300)]
    singular = np.asfortranarray(rng.standard_normal((order, order)))
    singular[:, order // 2] = 0.0  # exactly singular: elimination keeps the column zero
    for k, a in enumerate([*matrices, singular]):
        ours, theirs = filters.dgetrf(a), lapack.dgetrf(a)
        for mine, reference in zip(ours, theirs):
            assert np.asarray(mine).tobytes() == np.asarray(reference).tobytes(), k
        lu, piv, info = ours
        if info:
            assert a is singular and info > 0
            continue
        b = rng.standard_normal(order)
        mine, reference = filters.dgetrs(lu, piv, b), lapack.dgetrs(lu, piv, b)
        assert mine[0].tobytes() == reference[0].tobytes() and mine[1] == reference[1] == 0, k
    assert info > 0  # the singular matrix was the last one
