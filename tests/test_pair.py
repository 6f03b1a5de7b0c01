"""forward._pair runs the independent halves of the large W R W, adjoint and
DtN passes, the second half on one helper thread. The split is fixed by the
array shapes and each half writes its own slice, so the bits must not depend
on where a half runs; small layouts stay on the caller."""

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import helmrecon
from helmrecon import (
    CompressionModel,
    ConstantsBundle,
    Grid,
    PwcField,
    apply_df_adjoint,
    bank_for_field,
    dtn_for_field,
    forward,
    make_uniform_partition,
    run_multilevel,
)
from helmrecon.derivative import residual_from

_SRC = str(Path(helmrecon.__file__).resolve().parents[1])
B1, B2, W2 = 1.0, 2.0, 5.0


@pytest.fixture
def submitted(monkeypatch):
    """The halves handed to the helper, through a spy around a real one-worker executor."""
    pool = ThreadPoolExecutor(1, initializer=setattr, initargs=(forward._on_helper, "active", True))
    halves = []

    class Spy:
        def submit(self, fn, *args):
            halves.append(fn)
            return pool.submit(fn, *args)

    monkeypatch.setattr(forward, "_helper", Spy())
    yield halves
    pool.shutdown()


@pytest.fixture
def place(monkeypatch):
    """Split every pass whatever its size; place('caller') then runs both
    halves in order on the caller (one CPU), place('helper') hands every
    second half to the helper (two CPUs)."""
    if not forward._ONE_BLAS_THREAD:
        pytest.skip("BLAS may run on more than one thread, so the helper stays off")
    monkeypatch.setattr(forward, "_PAIR_WORK", 0)

    def to(where):
        monkeypatch.setattr(forward, "_cpus", lambda: 1 if where == "caller" else 2)

    return to


def _evaluate(m):
    """DtN, bank, pulled-back residual and adjoint of one field at m, 4 x 4 regions."""
    part = make_uniform_partition(Grid(m), 4)
    data = dtn_for_field(PwcField(part, 1.2 + 0.7 * (np.arange(16) % 5) / 5, (B1, B2)), W2)
    dtn, bank = bank_for_field(PwcField(part, 1.1 + 0.8 * (np.arange(16) % 7) / 7, (B1, B2)), W2,
                               weights=data.weights)
    residual = residual_from(dtn, data)
    pulled, norm = forward.pulled_back(dtn.lam - data.lam, data.weights)
    return [data.lam, dtn.lam, bank.skeleton, pulled, np.array([norm]), residual.pulled,
            apply_df_adjoint(bank, residual).values]


@pytest.mark.parametrize("m", [65, 129])
def test_placement_does_not_change_the_bits(m, place, submitted):
    place("caller")
    serial = _evaluate(m)
    assert not submitted
    place("helper")
    paired = _evaluate(m)
    assert submitted  # every site handed a half to the helper
    for a, b in zip(serial, paired):
        assert a.tobytes() == b.tobytes()


def test_placement_does_not_change_a_two_level_run(place, submitted):
    grid = Grid(65)
    parts = [make_uniform_partition(grid, k, level) for level, k in enumerate((1, 2))]
    truth = PwcField(parts[1], np.array([1.85, 1.55, 1.70, 1.40]), (B1, B2))
    data = dtn_for_field(truth, W2)
    bundle = ConstantsBundle(df_bound0=1.0, df_lip0=1e-3, stab_k=1e-4, b1=B1, b2=B2, omega2=W2,
                             eps=0.1, phi=CompressionModel.zero())
    start = PwcField(parts[0], np.array([1.5]), (B1, B2))

    def run():
        return run_multilevel(parts, bundle, data, start, max_iter=[2, 3],
                              eta_overrides=[0.0, 0.0], discrepancy_thresholds=[1e-8, 1e-8],
                              truth=truth)

    place("caller")
    serial = run()
    place("helper")
    paired = run()
    assert submitted
    assert serial.final.coeffs.tobytes() == paired.final.coeffs.tobytes()
    for a, b in zip(serial.runs, paired.runs):
        assert a.history.keys() == b.history.keys()
        for key in a.history:
            assert np.asarray(a.history[key]).tobytes() == np.asarray(b.history[key]).tobytes()


def test_concurrent_callers_share_the_helper(place, submitted):
    # four threads on two cores hand halves to the one helper at a short
    # switch interval; a half that wrote outside its rows would change a result
    place("caller")
    reference = [a.tobytes() for a in _evaluate(65)]
    place("helper")
    results = [None] * 4

    def evaluate(i):
        results[i] = [a.tobytes() for a in _evaluate(65)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [reference] * 4
    assert len(submitted) >= 4


def test_small_layouts_stay_on_the_caller(monkeypatch, submitted):
    if not forward._ONE_BLAS_THREAD:
        pytest.skip("BLAS may run on more than one thread, so the helper stays off")
    monkeypatch.setattr(forward, "_cpus", lambda: 2)
    _evaluate(33)
    assert submitted == []  # nb = 128: every half is under the size rule
    _evaluate(65)
    assert submitted  # the same rule hands the m = 65 adjoint's halves to the helper


def test_an_error_in_the_helpers_half_reaches_the_caller(place, submitted):
    place("helper")

    def half(part, buf):
        if part == "second":
            raise ZeroDivisionError("in the second half")

    with pytest.raises(ZeroDivisionError, match="second half"):
        forward._pair(half, ("first", "second"))
    ran = []
    forward._pair(lambda part, buf: ran.append(part), ("first", "second"))  # the helper still works
    assert sorted(ran) == ["first", "second"]
    assert len(submitted) == 2


def test_an_error_in_the_callers_half_waits_for_the_helper(place, submitted):
    place("helper")
    finished = threading.Event()

    def half(part, buf):
        if part == "first":
            raise KeyError("in the first half")
        time.sleep(0.05)
        finished.set()

    with pytest.raises(KeyError, match="first half"):
        forward._pair(half, ("first", "second"))
    assert finished.is_set()  # the caller raised only after the helper's half ended
    assert len(submitted) == 1


def test_each_half_gets_a_workspace_of_its_own(place, submitted):
    got = {}

    def half(part, buf):
        got[part] = buf

    place("helper")
    forward._pair(half, ("first", "second"), 3)
    assert got["first"].shape == got["second"].shape == (3,)
    assert not np.shares_memory(got["first"], got["second"])
    place("caller")  # in order on the caller, one workspace serves both halves
    got.clear()
    forward._pair(half, ("first", "second"), 3)
    assert got["first"] is got["second"]


def _script(code: str) -> str:
    """stdout of code in a fresh interpreter with BLAS on one thread, within 120 s."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                  else []))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120).stdout


_NESTED = """
import threading
from helmrecon import forward
forward._cpus = lambda: 2
ran = []

def inner(part, buf):
    ran.append((part, threading.current_thread() is threading.main_thread()))

def outer(part, buf):
    forward._pair(inner, (part + "1", part + "2"))

forward._pair(outer, ("a", "b"))
print(sorted(ran))
"""


def test_a_nested_pair_on_the_helper_runs_inline():
    # a helper that handed its own second half to itself would wait forever
    out = _script(_NESTED)
    assert out.strip() == "[('a1', True), ('a2', False), ('b1', False), ('b2', False)]"


_FORK = """
import os, signal, sys
import numpy as np
from helmrecon import (Grid, PwcField, apply_df_adjoint, bank_for_field, forward,
                       make_uniform_partition)
forward._cpus = lambda: 2
field = PwcField(make_uniform_partition(Grid(65), 4), 1.1 + 0.8 * (np.arange(16) % 7) / 7,
                 (1.0, 2.0))

def adjoint():
    dtn, bank = bank_for_field(field, 5.0)
    return apply_df_adjoint(bank, dtn.lam).values

values = adjoint()
if forward._helper is None:
    sys.exit("the parent never used the helper")
pid = os.fork()
if pid == 0:
    signal.alarm(100)  # a child stuck on the parent's executor ends itself
    os._exit(0 if np.array_equal(adjoint(), values) else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_starts_its_own_helper():
    assert _script(_FORK).strip() == "0"
