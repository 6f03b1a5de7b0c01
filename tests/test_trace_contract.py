"""The outside-in benchmark trace (bench/layertrace.py) wraps library names by
module attribute. These names are part of the library's interface: renaming
or dropping one silently empties a per-layer metric, so every one must keep
resolving."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from helmrecon import forward

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_layertrace_contract", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets())
def test_trace_target_resolves(module_name, attr, span):
    # the trace replaces owner.__dict__[attr], so the name must be a real
    # module attribute, not one resolved through a module __getattr__
    module = importlib.import_module(module_name)
    assert callable(module.__dict__.get(attr)), f"{module_name}.{attr} ({span})"


def test_operator_init_signature():
    params = list(inspect.signature(forward.HelmholtzOperator.__init__).parameters)
    assert params[:3] == ["self", "c2inv", "omega2"]
    assert "__init__" in forward.HelmholtzOperator.__dict__


def test_splu_reachable_through_forward():
    assert callable(forward.spla.__dict__.get("splu"))
