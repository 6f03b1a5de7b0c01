"""Importing helmrecon sets numpy's and scipy's OpenBLAS pools to one thread
unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set. A pool's thread count
is process-wide and OpenBLAS reads the variables when it loads, so each check
runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import helmrecon

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_SRC = str(Path(helmrecon.__file__).resolve().parents[1])

# the getters beside the setters that forward._one_blas_thread calls
_COUNTS = """
import ctypes, importlib

def counts():
    found = []
    for module, getter in (("numpy._core._multiarray_umath", "scipy_openblas_get_num_threads64_"),
                           ("scipy.linalg._fblas", "scipy_openblas_get_num_threads")):
        fn = getattr(ctypes.CDLL(importlib.import_module(module).__file__), getter)
        fn.argtypes, fn.restype = [], ctypes.c_int
        found.append(fn())
    return found
"""


def _run(code: str, **preset: str) -> str:
    """stdout of code in a fresh interpreter, with both variables unset but for preset."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join([_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                  else []))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


@pytest.fixture(scope="module", autouse=True)
def wheel_openblas():
    try:
        exec(_COUNTS + "counts()", {})
    except (ImportError, OSError, AttributeError):
        pytest.skip("numpy and scipy do not link the wheels' OpenBLAS")


def test_import_sets_both_pools_to_one_thread():
    out = _run(_COUNTS + "import os, helmrecon\n"
               f"print(*counts(), *(os.environ.get(v) for v in {_THREAD_VARS!r}))")
    # both pools read 1, and no environment variable was set to get there
    assert out.split() == ["1", "1", "None", "None"]


@pytest.mark.parametrize("var", _THREAD_VARS)
def test_a_variable_the_user_set_keeps_both_pools(var):
    out = _run(_COUNTS + "import os\nbefore = counts()\nimport helmrecon\n"
               f"print(before == counts(), os.environ.get({var!r}))", **{var: "2"})
    assert out.split() == ["True", "2"]


_EVALUATIONS = """
import hashlib
import numpy as np
from helmrecon import Grid, PwcField, apply_df_adjoint, bank_for_field, make_uniform_partition

for m in (65, 129):
    part = make_uniform_partition(Grid(m), 4)
    field = PwcField(part, 1.1 + 0.8 * (np.arange(16) % 7) / 7, (1.0, 2.0))
    dtn, bank = bank_for_field(field, 5.0)
    residual = np.random.default_rng(m).standard_normal(dtn.lam.shape)
    adjoint = apply_df_adjoint(bank, residual + residual.T).values
    print(m, hashlib.sha256(dtn.lam.tobytes()).hexdigest(),
          hashlib.sha256(adjoint.tobytes()).hexdigest())
"""


def test_unpinned_evaluation_gives_the_pinned_bits():
    # the DtN runs in scipy's pool and the adjoint in numpy's: both must be
    # the bits of a run with both variables set to 1
    pinned = _run(_EVALUATIONS, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert _run(_EVALUATIONS) == pinned
    assert len(pinned.splitlines()) == 2
