"""opt_mode="tuned" in the serving layer.

A tuned unit resolves the persisted best schedule for its payload
fingerprint from the tenant's ``schedules/`` namespace; without a
record it degrades to the canned full pipeline.  Either way the result
advertises which schedule ran, and warm traffic rides the hot map.
"""

import pytest

from repro.scheduling.autotune import autotune_kernel
from repro.serving.units import (
    BadRequest,
    configure_serving,
    normalize_request,
    reset_serving_state,
    serve_unit,
    tenant_dir,
)


@pytest.fixture
def serve_root(tmp_path):
    reset_serving_state()
    configure_serving(str(tmp_path))
    yield str(tmp_path)
    reset_serving_state()


def _tuned_request():
    return {
        "op": "execute",
        "kernel": "atax",
        "pipeline": "mlt-linalg",
        "opt_mode": "tuned",
    }


def test_normalize_accepts_tuned_and_rejects_garbage(serve_root):
    spec = normalize_request(_tuned_request())
    assert spec["opt_mode"] == "tuned"
    with pytest.raises(BadRequest, match="tuned"):
        normalize_request(dict(_tuned_request(), opt_mode="bogus"))


def test_tuned_falls_back_to_canned_full(serve_root):
    result = serve_unit(normalize_request(_tuned_request()))
    assert result["schedule"] == "default"
    assert result["cached"] == "codegen"


def test_tuned_replays_persisted_schedule(serve_root):
    fallback = serve_unit(normalize_request(_tuned_request()))
    autotune_kernel(
        "atax",
        budget=3,
        jobs=1,
        repeats=1,
        cache_dir=tenant_dir(serve_root, "default"),
    )
    reset_serving_state()
    configure_serving(serve_root)
    tuned = serve_unit(normalize_request(_tuned_request()))
    assert tuned["schedule"] != "default"
    assert len(tuned["schedule"]) == 16
    # the schedule is folded into the kernel identity
    assert tuned["key"] != fallback["key"]
    # warm repeat is a hot-map hit with identical results
    warm = serve_unit(normalize_request(_tuned_request()))
    assert warm["cached"] == "hot"
    assert warm["checksums"] == tuned["checksums"]


def test_tuned_treats_a_damaged_record_as_absent(serve_root):
    """A ``schedules/`` record whose schedule text no longer parses is a
    miss, not a ``compile-error`` until someone wipes the directory."""
    import json
    import os

    base = tenant_dir(serve_root, "default")
    autotune_kernel("atax", budget=2, jobs=1, repeats=1, cache_dir=base)
    directory = os.path.join(base, "schedules")
    (name,) = os.listdir(directory)
    path = os.path.join(directory, name)
    with open(path) as handle:
        outer = json.load(handle)
    record = json.loads(outer["text"])
    record["schedule"] = record["schedule"][: len(record["schedule"]) // 2]
    outer["text"] = json.dumps(record)
    with open(path, "w") as handle:
        json.dump(outer, handle)

    reset_serving_state()
    configure_serving(serve_root)
    result = serve_unit(normalize_request(_tuned_request()))
    assert result["schedule"] == "default"
    assert result["checksums"]
