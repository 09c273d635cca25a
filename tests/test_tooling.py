"""Guards on the tooling that reaches into the library by name."""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in layers.PATCHES] + [("replan.refinement", "mse_objective")],
)
def test_perfbench_call_site_resolves(owner, attr):
    # the tracer only reports a missing call site, and its per-layer metrics read 0
    assert callable(getattr(layers.resolve(owner), attr, None))
