"""A served ``opt_mode`` is the canned schedule it names at the unit's
tile: the same kernel an engine builds for that mode and tile, and the
kernel a ``tuned`` unit with no record falls back to."""

import pytest

from repro.execution import ExecutionEngine
from repro.execution.engine.cache import KernelCache
from repro.met import compile_c
from repro.serving import units
from repro.serving.units import (
    configure_serving,
    normalize_request,
    reset_serving_state,
    serve_unit,
)

from ..transforms.test_optimizer_pipeline import TILABLE_SCALAR


@pytest.fixture
def serve_root(tmp_path):
    reset_serving_state()
    configure_serving(str(tmp_path))
    yield str(tmp_path)
    reset_serving_state()


def _served_source(result) -> str:
    return units._tenant_store("default").kernels.get(result["key"]).source


@pytest.mark.parametrize("tile", [16, 32])
def test_one_spelling_request_tile_reaches_the_optimizer(serve_root, tile):
    result = serve_unit(
        normalize_request(
            {
                "op": "compile",
                "source": TILABLE_SCALAR,
                "opt_mode": "full",
                "tile": tile,
            }
        )
    )
    engine = ExecutionEngine(
        compile_c(TILABLE_SCALAR),
        cache=KernelCache(),
        opt_mode="full",
        tile_size=tile,
    )
    assert _served_source(result) == engine.source


def test_one_spelling_tuned_fallback_shares_full_kernel(serve_root):
    request = {
        "op": "execute",
        "kernel": "atax",
        "pipeline": "mlt-linalg",
        "opt_mode": "tuned",
    }
    tuned = serve_unit(normalize_request(request))
    assert tuned["schedule"] == "default"
    assert tuned["cached"] == "codegen"
    full = serve_unit(normalize_request(dict(request, opt_mode="full")))
    assert full["cached"] == "cache"
    assert full["key"] == tuned["key"]
    assert full["checksums"] == tuned["checksums"]
