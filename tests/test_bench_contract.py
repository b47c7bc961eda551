"""The benchmark wraps confsim functions by (module, attribute); each must resolve."""

import importlib.util
from pathlib import Path

import pytest

import confsim

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def layer_wraps():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_WRAPS


@pytest.mark.parametrize("module_name, attr, span", layer_wraps())
def test_layer_wrap_resolves(module_name, attr, span):
    owner = getattr(confsim, module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} ({span}) is not callable"
