"""The traced benchmark (perfbench/tracing.py) wraps library callables by
name.  A rename or deletion in the library would silently drop a layer
from the trace, so every traced name must resolve and get its wrapper."""

import importlib.util
from pathlib import Path

import pytest

import koszulalg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name):
    owner = koszulalg
    for part in name.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            pytest.fail(f"traced layer {name} does not resolve: no {part!r}")
    return owner


def test_every_traced_layer_resolves(tracing):
    for name in tracing.LAYERS:
        assert callable(_resolve(name)), name


def test_tracer_wraps_every_layer(tracing):
    tracer = tracing.Tracer(koszulalg)
    tracer.install()
    try:
        for name in tracing.LAYERS:
            target = _resolve(name)
            wrapped = target.__init__ if isinstance(target, type) else target
            assert hasattr(wrapped, "__wrapped__"), f"{name} is not wrapped"
    finally:
        tracer.uninstall()
    for name in tracing.LAYERS:
        target = _resolve(name)
        wrapped = target.__init__ if isinstance(target, type) else target
        assert not hasattr(wrapped, "__wrapped__"), f"{name} is still wrapped"
